//! Circuit compilation: lowering to a flat instruction stream plus peephole
//! optimisation passes.
//!
//! The interpreted executors walk the [`Op`] tree of a [`Circuit`] on every
//! run, recursing into [`Op::Conditional`] bodies and re-resolving structure
//! per shot. For ensemble workloads (thousands of seeded shots of the same
//! MBU modular adder) that walk is pure overhead. This module lowers a
//! circuit **once** into a [`CompiledCircuit`]: a contiguous [`Instr`]
//! stream in which conditional blocks become relative
//! [`Instr::BranchUnless`] skips, so execution is a single program-counter
//! loop over a flat slice shared immutably by any number of worker threads.
//!
//! The pipeline is `lower → passes → execute`:
//!
//! 1. **lower** — [`CompiledCircuit::lower`] validates the circuit and
//!    flattens nested conditionals into branch instructions. No gate is
//!    added, removed or reordered: a lowered program executes the exact same
//!    operation sequence as the interpreted tree walk.
//! 2. **passes** — [`CompiledCircuit::compile`] (or
//!    [`CompiledCircuit::with_config`] for explicit [`PassConfig`] control)
//!    additionally runs peephole passes over straight-line gate segments:
//!    * *adjacent self-inverse cancellation* — `X·X`, `H·H`, `CX·CX`,
//!      `CCX·CCX`, … pairs separated only by commuting gates are removed;
//!    * *rotation merging* — `R(θ₁)·R(θ₂) → R(θ₁+θ₂)` for `Phase`,
//!      `CPhase` and `CcPhase` on the same qubit set (exact dyadic
//!      [`Angle`](crate::Angle) arithmetic, so merging never drifts);
//!    * *identity elimination* — zero-angle rotations left over after
//!      merging are dropped;
//!    * *phase-dead elimination before measurement* (off by default, see
//!      [`PassConfig::phase_dead_before_measure`]) — single-qubit diagonal
//!      gates whose qubit is next consumed by a `Z`-basis measurement or a
//!      reset only contribute a global phase to the collapsed branch and
//!      can be dropped when callers accept global-phase equivalence;
//!    * *dead-qubit reclamation* (on by default, see
//!      [`PassConfig::reclaim_dead_qubits`]) — a liveness analysis that
//!      emits [`Instr::Drop`] for every qubit that was measured or reset
//!      and is never touched again, so compacting backends (the state
//!      vector) can release the qubit mid-run and halve their live
//!      amplitude array per drop — the paper's early-ancilla-release payoff
//!      made concrete in the execution engine;
//!    * *gate fusion* (on by default, see
//!      [`PassConfig::fuse_max_qubits`]) — merges maximal runs of
//!      adjacent gates whose combined support fits in
//!      `k ≤ `[`MAX_FUSED_QUBITS`] qubits into dense
//!      `2^k × 2^k` [`Instr::Fused`] unitaries ([`FusedUnitary`]), so an
//!      amplitude backend applies the whole run in **one sweep** over the
//!      state instead of one sweep per gate. Exact: executors apply the
//!      block in factored form, with per-amplitude arithmetic identical to
//!      the unfused stream.
//!
//!    Every pass records what it did in [`PassStats`].
//! 3. **execute** — the `mbu-sim` crate runs compiled programs through
//!    `Simulator::run_compiled`, and its `ShotRunner` lowers once and
//!    shares the immutable program across all shot worker threads.
//!
//! Passes never cross a *barrier*: measurements, resets, branch
//! instructions and branch join points all flush the peephole window, so an
//! optimised program is observationally equivalent to the original on every
//! control-flow path. For the default passes, equivalence is exact in the
//! algebra (identical classical records and measurement outcomes;
//! amplitudes equal up to floating-point re-association, since a cancelled
//! gate pair skips two rounding steps and a merged rotation evaluates one
//! `cis` instead of two); with phase-dead elimination enabled, states may
//! additionally differ by a global phase.
//!
//! # Dumping a compiled program
//!
//! [`CompiledCircuit`] implements [`fmt::Display`]; the dump lists every
//! instruction with its program counter, indents guarded blocks, and
//! renders branches with their join target, which makes mis-lowered control
//! flow obvious at a glance:
//!
//! ```
//! use mbu_circuit::{Basis, CircuitBuilder, CompiledCircuit};
//!
//! let mut b = CircuitBuilder::new();
//! let q = b.qreg("q", 3);
//! b.ccx(q[0], q[1], q[2]);
//! let m = b.measure(q[2], Basis::X);
//! let (_, fix) = b.record(|b| b.cz(q[0], q[1]));
//! b.emit_conditional(m, &fix);
//! let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
//! print!("{compiled}");
//! // compiled: 3 qubits, 1 clbits, 5 instrs (...)
//! //     0: CCX q0 q1 q2
//! //     1: MX q2 -> c0
//! //     2: drop q2
//! //     3: unless c0 jump 5
//! //     4:   CZ q0 q1
//! assert!(compiled.to_string().contains("unless c0 jump 5"));
//! assert!(compiled.to_string().contains("drop q2"));
//! ```
//!
//! [`PassStats`] implements [`fmt::Display`] too (it is embedded in the
//! dump header) and exposes per-pass counters as fields.

use std::collections::HashMap;
use std::fmt;
use std::mem::{self, Discriminant};
use std::ops::Range;

use crate::circuit::Circuit;
use crate::counts::GateCounts;
use crate::error::CircuitError;
use crate::gate::{Basis, Gate};
use crate::op::{ClbitId, Op, QubitId};
use crate::plan::SegmentProfile;

/// One instruction of a compiled program.
///
/// Unlike [`Op`], instructions never nest: conditional blocks are encoded
/// as a [`Instr::BranchUnless`] guarding a contiguous run of instructions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// Apply a unitary gate.
    Gate(Gate),
    /// Measure `qubit` in `basis`, storing the outcome in `clbit`.
    Measure {
        /// The measured qubit.
        qubit: QubitId,
        /// Measurement basis.
        basis: Basis,
        /// Classical record slot receiving the outcome.
        clbit: ClbitId,
    },
    /// Return `qubit` to `|0⟩` (measure-and-flip semantics).
    Reset(QubitId),
    /// Skip the next `skip` instructions unless classical bit `clbit`
    /// holds 1. Reading an unwritten bit is a runtime error, matching the
    /// interpreted executor.
    BranchUnless {
        /// The controlling classical bit.
        clbit: ClbitId,
        /// How many instructions the guarded block spans.
        skip: u32,
    },
    /// Reclaim `qubit`: the liveness pass proved no later instruction
    /// touches it, and the qubit was measured or reset at some point, so a
    /// backend that stores amplitudes may project the (definite,
    /// unentangled) qubit out of its state and compact — the
    /// measurement-based uncomputation payoff of releasing ancillas early.
    ///
    /// Semantically a no-op: executors without a compaction story (the
    /// basis tracker, the sparse map) simply skip it, and
    /// compacting executors must be observationally invisible — identical
    /// outcomes, RNG consumption, executed counts and final state.
    Drop(QubitId),
    /// Apply the fused block stored at this index of the program's
    /// fused-unitary table ([`CompiledCircuit::fused_unitaries`]): a run
    /// of adjacent gates merged by the gate-fusion pass so an amplitude
    /// backend applies the whole run in a **single sweep** over the state
    /// instead of one sweep per gate. Dense blocks span `k ≤`
    /// [`MAX_FUSED_QUBITS`] qubits (a `2^k × 2^k` unitary); permutation
    /// blocks ([`FusedUnitary::is_permutation`]) carry no arithmetic and
    /// may span up to [`MAX_PERM_FUSED_QUBITS`] qubits.
    ///
    /// Executors without a dense kernel replay the block's constituent
    /// gates one by one ([`FusedUnitary::global_gates`]); either way the
    /// executed gate tally records every constituent, so fusion is
    /// invisible in [`Executed`](../mbu_sim/struct.Executed.html)-style
    /// statistics.
    Fused(u32),
}

/// Upper bound on the arity of a fused unitary block (`2^4 × 2^4` dense
/// matrices at most); [`PassConfig::fuse_max_qubits`] is clamped to this.
/// Permutation-only blocks (see [`FusedUnitary::is_permutation`]) are
/// exempt — they need no dense matrix and may span up to
/// [`MAX_PERM_FUSED_QUBITS`] qubits.
pub const MAX_FUSED_QUBITS: usize = 4;

/// Upper bound on the support of a fused *permutation* block. Executors
/// apply such blocks through a `2^k`-entry index-remap table, so the cap
/// bounds table memory (`2^16` entries) and per-execution build time, not
/// a dense matrix dimension.
pub const MAX_PERM_FUSED_QUBITS: usize = 16;

/// A run of adjacent gates merged into one dense unitary instruction.
///
/// The block stores its (ascending) global operand qubits and the
/// constituent gates re-indexed onto *local* operands `q0..qk` (local
/// qubit `j` is `qubits()[j]`). Keeping the factorisation — rather than
/// only the dense product matrix — is what lets executors apply the block
/// with arithmetic *bit-identical* to unfused execution: the dense matrix
/// is available from [`FusedUnitary::matrix`] for inspection and
/// verification, while kernels apply the factors to each gathered
/// `2^k`-amplitude group in one pass over the state.
#[derive(Clone, PartialEq, Debug)]
pub struct FusedUnitary {
    /// Ascending global operand qubits; local qubit `j` ↔ `qubits[j]`.
    qubits: Vec<QubitId>,
    /// The constituent gates, operands renamed to local indices.
    gates: Vec<Gate>,
}

impl FusedUnitary {
    /// Builds a block from its sorted support and the original gates.
    fn build(qubits: Vec<QubitId>, global_gates: &[Gate]) -> Self {
        debug_assert!(qubits.windows(2).all(|w| w[0] < w[1]), "support sorted");
        let gates = global_gates
            .iter()
            .map(|g| {
                g.map_qubits(|q| {
                    let local = qubits
                        .iter()
                        .position(|&s| s == q)
                        .expect("gate operand inside block support");
                    QubitId(u32::try_from(local).expect("local index fits u32"))
                })
            })
            .collect();
        Self { qubits, gates }
    }

    /// Test-only raw constructor for the static verifier's negative
    /// tests: builds a block *without* the well-formedness invariants the
    /// fusion pass guarantees (sorted support, in-range local operands).
    #[cfg(test)]
    pub(crate) fn raw(qubits: Vec<QubitId>, gates: Vec<Gate>) -> Self {
        Self { qubits, gates }
    }

    /// The global operand qubits, ascending.
    #[must_use]
    pub fn qubits(&self) -> &[QubitId] {
        &self.qubits
    }

    /// The block arity `k` (the dense unitary is `2^k × 2^k`).
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The constituent gates with *local* operands (`q0..qk`), in
    /// application order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The constituent gates with their original global operands, in
    /// application order — what executors without a dense kernel replay.
    pub fn global_gates(&self) -> impl Iterator<Item = Gate> + '_ {
        self.gates
            .iter()
            .map(move |g| g.map_qubits(|lq| self.qubits[lq.index()]))
    }

    /// Whether every constituent gate is a classical basis-state
    /// permutation ([`Gate::is_permutation`]).
    ///
    /// Such a block's unitary is a `0/1` permutation matrix: it only
    /// *moves* amplitudes, so executors may apply the composed index map
    /// in one sweep and still reproduce gate-by-gate execution bit for
    /// bit. Blocks of this kind may span up to [`MAX_PERM_FUSED_QUBITS`]
    /// qubits instead of [`MAX_FUSED_QUBITS`].
    #[must_use]
    pub fn is_permutation(&self) -> bool {
        self.gates.iter().all(Gate::is_permutation)
    }

    /// The dense `2^k × 2^k` unitary, row-major (`m[r * 2^k + c]` is
    /// `⟨r|U|c⟩` as `[re, im]`), computed as the ordered product of the
    /// constituent gates.
    ///
    /// Inspection/verification aid for *small* blocks: the matrix has
    /// `4^k` entries, so calling this on a wide permutation block (up to
    /// [`MAX_PERM_FUSED_QUBITS`] qubits) is prohibitively large — use
    /// [`FusedUnitary::gates`] or the executors' index-map application
    /// instead.
    #[must_use]
    pub fn matrix(&self) -> Vec<[f64; 2]> {
        let dim = 1usize << self.num_qubits();
        let mut m = vec![[0.0f64; 2]; dim * dim];
        let mut col = vec![[0.0f64; 2]; dim];
        for c in 0..dim {
            col.fill([0.0, 0.0]);
            col[c] = [1.0, 0.0];
            for g in &self.gates {
                apply_gate_to_column(&mut col, g);
            }
            for r in 0..dim {
                m[r * dim + c] = col[r];
            }
        }
        m
    }
}

/// Applies `g` (local operands) to a dense `2^k`-entry column vector,
/// using the same per-amplitude formulas as the simulator kernels.
fn apply_gate_to_column(col: &mut [[f64; 2]], g: &Gate) {
    const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;
    let cmul = |a: [f64; 2], b: [f64; 2]| [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]];
    let cis = |theta: f64| [theta.cos(), theta.sin()];
    let bit = |i: usize, q: QubitId| i >> q.index() & 1 == 1;
    let len = col.len();
    match *g {
        Gate::X(q) => {
            for i in 0..len {
                if !bit(i, q) {
                    col.swap(i, i | 1 << q.index());
                }
            }
        }
        Gate::Z(q) => {
            for (i, a) in col.iter_mut().enumerate() {
                if bit(i, q) {
                    *a = [-a[0], -a[1]];
                }
            }
        }
        Gate::H(q) => {
            let m = 1usize << q.index();
            for i in 0..len {
                if i & m == 0 {
                    let a = col[i];
                    let b = col[i | m];
                    col[i] = [(a[0] + b[0]) * FRAC_1_SQRT_2, (a[1] + b[1]) * FRAC_1_SQRT_2];
                    col[i | m] = [(a[0] - b[0]) * FRAC_1_SQRT_2, (a[1] - b[1]) * FRAC_1_SQRT_2];
                }
            }
        }
        Gate::Phase(q, theta) => {
            let w = cis(theta.radians());
            for (i, a) in col.iter_mut().enumerate() {
                if bit(i, q) {
                    *a = cmul(*a, w);
                }
            }
        }
        Gate::Cx(c, t) => {
            for i in 0..len {
                if bit(i, c) && !bit(i, t) {
                    col.swap(i, i | 1 << t.index());
                }
            }
        }
        Gate::Cz(a, b) => {
            for (i, x) in col.iter_mut().enumerate() {
                if bit(i, a) && bit(i, b) {
                    *x = [-x[0], -x[1]];
                }
            }
        }
        Gate::Ccx(c1, c2, t) => {
            for i in 0..len {
                if bit(i, c1) && bit(i, c2) && !bit(i, t) {
                    col.swap(i, i | 1 << t.index());
                }
            }
        }
        Gate::Ccz(a, b, c) => {
            for (i, x) in col.iter_mut().enumerate() {
                if bit(i, a) && bit(i, b) && bit(i, c) {
                    *x = [-x[0], -x[1]];
                }
            }
        }
        Gate::CPhase(c, t, theta) => {
            let w = cis(theta.radians());
            for (i, a) in col.iter_mut().enumerate() {
                if bit(i, c) && bit(i, t) {
                    *a = cmul(*a, w);
                }
            }
        }
        Gate::CcPhase(c1, c2, t, theta) => {
            let w = cis(theta.radians());
            for (i, a) in col.iter_mut().enumerate() {
                if bit(i, c1) && bit(i, c2) && bit(i, t) {
                    *a = cmul(*a, w);
                }
            }
        }
        Gate::Swap(a, b) => {
            let mask = (1usize << a.index()) | (1usize << b.index());
            for i in 0..len {
                if bit(i, a) && !bit(i, b) {
                    col.swap(i, i ^ mask);
                }
            }
        }
    }
}

/// Which peephole passes [`CompiledCircuit::with_config`] runs.
///
/// The default configuration ([`PassConfig::default`], used by
/// [`CompiledCircuit::compile`]) enables every *algebraically exact* pass:
/// the optimised program produces identical classical records and
/// measurement outcomes, and amplitudes equal to the unoptimised program's
/// up to floating-point re-association (removed gates skip their rounding
/// steps). Only [`CompiledCircuit::lower`] — no passes — is bit-exact.
/// [`PassConfig::phase_dead_before_measure`] additionally
/// drops gates that only affect the global phase of post-measurement
/// states; enable it with [`PassConfig::aggressive`] when global-phase
/// equivalence is acceptable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PassConfig {
    /// Cancel adjacent pairs of identical self-inverse gates.
    pub cancel_self_inverse: bool,
    /// Merge adjacent rotations on the same qubit set.
    pub merge_rotations: bool,
    /// Drop zero-angle rotations.
    pub remove_identities: bool,
    /// Drop single-qubit diagonal gates (`Z`, `Phase`) whose qubit is next
    /// consumed by a `Z`-basis measurement or reset. **Not exact**: the
    /// post-measurement state may differ by a global phase (measurement
    /// probabilities and outcomes are untouched).
    pub phase_dead_before_measure: bool,
    /// Run the liveness analysis that emits [`Instr::Drop`] for qubits
    /// that were measured (or reset) and are provably never touched again,
    /// letting compacting backends reclaim them mid-run. Observationally
    /// invisible (drops are advisory); on by default.
    pub reclaim_dead_qubits: bool,
    /// The gate-fusion window: merge runs of adjacent gates whose combined
    /// support spans at most this many qubits into one dense
    /// [`Instr::Fused`] unitary (clamped to [`MAX_FUSED_QUBITS`]; `0`
    /// disables the pass). Fusion is exact — backends apply the block with
    /// per-amplitude arithmetic identical to the unfused stream — so it is
    /// on by default (window 3, covering every gate family in the set).
    pub fuse_max_qubits: usize,
}

impl Default for PassConfig {
    fn default() -> Self {
        Self {
            cancel_self_inverse: true,
            merge_rotations: true,
            remove_identities: true,
            phase_dead_before_measure: false,
            reclaim_dead_qubits: true,
            fuse_max_qubits: 3,
        }
    }
}

impl PassConfig {
    /// No passes at all: `with_config` behaves like [`CompiledCircuit::lower`].
    #[must_use]
    pub fn none() -> Self {
        Self {
            cancel_self_inverse: false,
            merge_rotations: false,
            remove_identities: false,
            phase_dead_before_measure: false,
            reclaim_dead_qubits: false,
            fuse_max_qubits: 0,
        }
    }

    /// Every pass, including the global-phase-inexact one.
    #[must_use]
    pub fn aggressive() -> Self {
        Self {
            phase_dead_before_measure: true,
            ..Self::default()
        }
    }

    /// Whether any peephole pass is enabled (the reclamation pass runs
    /// separately, after the peephole window).
    #[must_use]
    pub fn any(&self) -> bool {
        self.cancel_self_inverse
            || self.merge_rotations
            || self.remove_identities
            || self.phase_dead_before_measure
    }
}

/// Per-pass statistics of one compilation.
///
/// All counters are in *instructions*: a cancelled pair contributes 2 to
/// [`PassStats::cancelled`], a merge that folds two rotations into one
/// contributes 1 to [`PassStats::merged`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassStats {
    /// Instructions in the stream right after lowering, before any pass.
    pub lowered_instrs: usize,
    /// Gates removed by self-inverse cancellation.
    pub cancelled: u64,
    /// Rotations eliminated by merging into a neighbour.
    pub merged: u64,
    /// Zero-angle rotations dropped.
    pub identities_removed: u64,
    /// Diagonal gates dropped as phase-dead before a measurement/reset.
    pub phase_dead_removed: u64,
    /// Qubits for which the liveness pass emitted an [`Instr::Drop`]:
    /// measured (or reset) at some point and never touched afterwards.
    pub dead_qubits_reclaimed: u64,
    /// Dense [`Instr::Fused`] blocks emitted by the gate-fusion pass.
    pub fused_blocks: u64,
    /// Gates absorbed into fused blocks (each emitted block absorbs at
    /// least two).
    pub fused_gates: u64,
    /// Instructions in the final program.
    pub emitted_instrs: usize,
    /// Deterministic segments in the final program: maximal runs of
    /// unitary instructions between non-unitary barriers
    /// (measurement/reset/drop/branch) and branch join points — the units
    /// the branch-tree execution engine shares across measurement
    /// histories. See [`CompiledCircuit::segments`].
    pub segments: usize,
    /// Non-deterministic instructions (measurements and resets): the
    /// points where an execution trajectory can fork, bounding the branch
    /// tree at `2^fork_points` leaves.
    pub fork_points: usize,
    /// Segments the representation planner maps to the dense amplitude
    /// array at the default thresholds
    /// ([`DEFAULT_AUTO_DENSE_QUBITS`](crate::DEFAULT_AUTO_DENSE_QUBITS),
    /// [`DEFAULT_AUTO_SPARSITY`](crate::DEFAULT_AUTO_SPARSITY)); see
    /// [`CompiledCircuit::representation_plan`].
    pub planned_dense: usize,
    /// Segments the representation planner maps to the sparse key→amplitude
    /// map at the default thresholds.
    pub planned_sparse: usize,
    /// Segments the representation planner maps to the phase-accumulator
    /// representation at the default thresholds (diagonal-heavy blow-ups
    /// past the dense width cap).
    pub planned_phase: usize,
    /// Whether the careful-profile static verifier ran clean on the
    /// final program (see `mbu_circuit::verify`): every pass stage passed
    /// the well-formedness validator and the finished program passed the
    /// stats/plan coherence checks.
    pub verified: bool,
    /// Whether static verification was compiled out (release builds
    /// without debug assertions). Exactly one of
    /// [`verified`](PassStats::verified) and `verify_skipped` is set for
    /// a successful compile.
    pub verify_skipped: bool,
}

impl PassStats {
    /// Total instructions removed by all passes.
    #[must_use]
    pub fn removed(&self) -> u64 {
        self.cancelled + self.merged + self.identities_removed + self.phase_dead_removed
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lowered {} instrs; cancelled {}, merged {}, identities {}, phase-dead {}, \
             reclaimed {}, fused {} gates into {} blocks; emitted {} \
             ({} segments, {} fork points; planned {} dense / {} sparse / {} phase)",
            self.lowered_instrs,
            self.cancelled,
            self.merged,
            self.identities_removed,
            self.phase_dead_removed,
            self.dead_qubits_reclaimed,
            self.fused_gates,
            self.fused_blocks,
            self.emitted_instrs,
            self.segments,
            self.fork_points,
            self.planned_dense,
            self.planned_sparse,
            self.planned_phase
        )?;
        if self.verified {
            write!(f, "; verified")?;
        } else if self.verify_skipped {
            write!(f, "; verify skipped")?;
        }
        Ok(())
    }
}

/// A circuit lowered to a flat, pre-validated instruction stream.
///
/// Produced by [`CompiledCircuit::lower`] (no passes),
/// [`CompiledCircuit::compile`] (exact default passes) or
/// [`CompiledCircuit::with_config`]. Compilation validates the circuit, so
/// executors may assume every qubit and classical-bit reference is in
/// range and every gate has distinct operands.
///
/// # Examples
///
/// ```
/// use mbu_circuit::{Basis, CircuitBuilder, CompiledCircuit, Instr};
///
/// // Gidney AND-uncompute: measure, then a conditional fix-up block.
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 3);
/// b.h(q[2]);
/// let m = b.measure(q[2], Basis::Z);
/// let (_, fix) = b.record(|b| {
///     b.cz(q[0], q[1]);
///     b.x(q[2]);
/// });
/// b.emit_conditional(m, &fix);
/// let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
///
/// // The conditional became a branch over a contiguous block, and the
/// // measured-then-dead ancilla is released at the join.
/// assert!(matches!(
///     compiled.instrs()[2],
///     Instr::BranchUnless { skip: 2, .. }
/// ));
/// assert!(matches!(compiled.instrs().last(), Some(Instr::Drop(_))));
/// println!("{compiled}"); // dump the program for debugging
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledCircuit {
    num_qubits: usize,
    num_clbits: usize,
    instrs: Vec<Instr>,
    /// Dense unitary blocks referenced by [`Instr::Fused`] indices.
    fused: Vec<FusedUnitary>,
    /// One profile per deterministic segment, in program order.
    profiles: Vec<SegmentProfile>,
    stats: PassStats,
}

impl CompiledCircuit {
    /// Lowers `circuit` to a flat instruction stream without running any
    /// optimisation pass. The lowered program executes the exact operation
    /// sequence of the interpreted tree walk.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found by
    /// [`Circuit::validate`] — compiled programs are always well-formed.
    pub fn lower(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::with_config(circuit, &PassConfig::none())
    }

    /// Lowers `circuit` and runs the default (exact) peephole passes.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found by [`Circuit::validate`].
    pub fn compile(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::with_config(circuit, &PassConfig::default())
    }

    /// Lowers `circuit` and runs exactly the passes enabled in `config`.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found by [`Circuit::validate`].
    pub fn with_config(circuit: &Circuit, config: &PassConfig) -> Result<Self, CircuitError> {
        Self::with_peephole(circuit, config, run_passes)
    }

    /// [`CompiledCircuit::with_config`] with its peephole stage passed in,
    /// so the tests can run the whole pipeline on the rescanning reference
    /// pass as well.
    fn with_peephole(
        circuit: &Circuit,
        config: &PassConfig,
        peephole: fn(Vec<Instr>, usize, &PassConfig, &mut PassStats) -> Vec<Instr>,
    ) -> Result<Self, CircuitError> {
        circuit.validate()?;
        // Under the careful profile (debug assertions on) every pipeline
        // stage is gated by the static verifier: a pass that emits a
        // malformed stream fails the compile at that pass, not at
        // execution time. `expect_valid_stage` is a no-op in plain
        // release builds.
        let nq = circuit.num_qubits();
        let nc = circuit.num_clbits();
        let mut instrs = Vec::new();
        flatten(circuit.ops(), &mut instrs);
        crate::verify::expect_valid_stage("lower", nq, nc, &instrs, &[])?;
        let mut stats = PassStats {
            lowered_instrs: instrs.len(),
            ..PassStats::default()
        };
        if config.any() {
            instrs = peephole(instrs, nq, config, &mut stats);
            crate::verify::expect_valid_stage("peephole", nq, nc, &instrs, &[])?;
        }
        let mut fused = Vec::new();
        if config.fuse_max_qubits > 0 {
            (instrs, fused) = fuse_gates(instrs, config.fuse_max_qubits, &mut stats);
            crate::verify::expect_valid_stage("fusion", nq, nc, &instrs, &fused)?;
        }
        if config.reclaim_dead_qubits {
            instrs = reclaim_dead_qubits(instrs, circuit.num_qubits(), &mut stats, &fused);
            crate::verify::expect_valid_stage("reclamation", nq, nc, &instrs, &fused)?;
        }
        stats.emitted_instrs = instrs.len();
        let profiles = crate::plan::profile_segments(&instrs, &fused, nq);
        let mut compiled = Self {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            instrs,
            fused,
            profiles,
            stats,
        };
        compiled.stats.segments = compiled.profiles.len();
        compiled.stats.fork_points = compiled.fork_points();
        let plan = compiled.representation_plan(&crate::plan::PlanConfig::default());
        compiled.stats.planned_dense = plan
            .iter()
            .filter(|r| matches!(r, crate::plan::PlannedRepr::Dense))
            .count();
        compiled.stats.planned_phase = plan
            .iter()
            .filter(|r| matches!(r, crate::plan::PlannedRepr::Phase))
            .count();
        compiled.stats.planned_sparse =
            plan.len() - compiled.stats.planned_dense - compiled.stats.planned_phase;
        // Final gate: with the stats now describing the finished program,
        // run the full validator (stream + stats + plan coherence).
        if cfg!(debug_assertions) {
            if let Some(finding) = crate::verify::validate_compiled(&compiled)
                .into_iter()
                .next()
            {
                return Err(CircuitError::VerificationFailed {
                    pass: "finalise",
                    finding: finding.to_string(),
                });
            }
            compiled.stats.verified = true;
        } else {
            compiled.stats.verify_skipped = true;
        }
        Ok(compiled)
    }

    /// The number of qubits of the source circuit.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits of the source circuit.
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction stream, in program order.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The dense unitary blocks the gate-fusion pass emitted, indexed by
    /// [`Instr::Fused`] payloads.
    #[must_use]
    pub fn fused_unitaries(&self) -> &[FusedUnitary] {
        &self.fused
    }

    /// What the peephole passes did to this program.
    #[must_use]
    pub fn stats(&self) -> &PassStats {
        &self.stats
    }

    /// Worst-case gate counts of the compiled program (guarded blocks at
    /// full weight), comparable with [`Circuit::counts`] to quantify what
    /// the passes removed.
    #[must_use]
    pub fn counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for instr in &self.instrs {
            match instr {
                Instr::Gate(g) => counts.record_gate(g),
                Instr::Measure { basis, .. } => counts.record_measurement(*basis),
                Instr::Reset(_) => counts.reset += 1,
                // A fused block costs exactly its constituents (counts
                // only tally the gate family, which local renaming keeps).
                Instr::Fused(idx) => {
                    for g in self.fused[*idx as usize].gates() {
                        counts.record_gate(g);
                    }
                }
                Instr::BranchUnless { .. } | Instr::Drop(_) => {}
            }
        }
        counts
    }

    /// Whether the program contains any [`Instr::Drop`] — i.e. whether the
    /// reclamation pass found dead qubits a compacting backend can release.
    #[must_use]
    pub fn reclaims_qubits(&self) -> bool {
        self.stats.dead_qubits_reclaimed > 0
    }

    /// The deterministic segmentation of the program: maximal runs of
    /// *unitary* instructions ([`Instr::Gate`] / [`Instr::Fused`]) cut at
    /// every non-unitary barrier (measurement, reset, drop, branch) and at
    /// every branch join target.
    ///
    /// Two properties make the segmentation the substrate of branch-tree
    /// execution:
    ///
    /// * **determinism** — a segment contains no instruction that consumes
    ///   randomness or classical state, so its effect on a given input
    ///   state is a fixed unitary: executing it once per *measurement
    ///   history* (instead of once per shot) is exact;
    /// * **alignment** — every program point the executor can land on (the
    ///   instruction after a barrier, or a branch's join target) is a
    ///   segment start, so a program-counter walk always enters segments
    ///   at their beginning and can apply a whole segment without
    ///   re-dispatching on control flow.
    ///
    /// The ranges are those of [`segment_profiles`](Self::segment_profiles),
    /// which compilation records.
    #[must_use]
    pub fn segments(&self) -> Vec<Segment> {
        self.profiles.iter().map(|p| p.segment).collect()
    }

    /// The structural facts of [`SegmentProfile`] for every deterministic
    /// segment of the program (see [`CompiledCircuit::segments`]), with
    /// the occupancy ceiling threaded across segments from the `|0…0⟩`
    /// start state. Computed once, when compilation finishes the program.
    ///
    /// The occupancy thread is a *bound*, not an estimate: Hadamards at
    /// most double the occupied set, permutations and diagonals preserve
    /// it exactly. The one heuristic step is the between-segment
    /// collapse — a measurement or reset halves the bound (exact for a
    /// qubit in an even superposition, an over-estimate of the reduction
    /// for a definite qubit) — which can under-predict occupancy for
    /// states biased toward definite outcomes. The profiles are static
    /// compile-time facts: nothing re-checks them against live occupancy.
    #[must_use]
    pub fn segment_profiles(&self) -> &[SegmentProfile] {
        &self.profiles
    }

    /// How many instructions of the program can fork an execution
    /// trajectory: measurements and resets (the only instructions that
    /// consume randomness). Branches and drops are deterministic given the
    /// classical record, so the branch tree has at most `2^fork_points`
    /// leaves.
    #[must_use]
    pub fn fork_points(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i, Instr::Measure { .. } | Instr::Reset(_)))
            .count()
    }
}

/// One deterministic segment of a compiled program: the instruction range
/// `start..end` holds only unitary instructions ([`Instr::Gate`] /
/// [`Instr::Fused`]). Produced by [`CompiledCircuit::segments`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// First instruction of the run (inclusive).
    pub start: usize,
    /// One past the last instruction of the run (exclusive).
    pub end: usize,
}

impl fmt::Display for CompiledCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compiled: {} qubits, {} clbits, {} instrs ({})",
            self.num_qubits,
            self.num_clbits,
            self.instrs.len(),
            self.stats
        )?;
        // Indent instructions by their guard depth so conditional bodies
        // read like the interpreted tree.
        let mut guard_ends: Vec<usize> = Vec::new();
        for (pc, instr) in self.instrs.iter().enumerate() {
            guard_ends.retain(|&end| end > pc);
            let indent = 2 * guard_ends.len();
            match instr {
                Instr::Gate(g) => writeln!(f, "{pc:5}: {:indent$}{g}", "")?,
                Instr::Measure {
                    qubit,
                    basis,
                    clbit,
                } => writeln!(f, "{pc:5}: {:indent$}M{basis} {qubit} -> {clbit}", "")?,
                Instr::Reset(q) => writeln!(f, "{pc:5}: {:indent$}reset {q}", "")?,
                Instr::Drop(q) => writeln!(f, "{pc:5}: {:indent$}drop {q}", "")?,
                Instr::Fused(idx) => {
                    let fu = &self.fused[*idx as usize];
                    write!(f, "{pc:5}: {:indent$}fused[{idx}]", "")?;
                    for q in fu.qubits() {
                        write!(f, " {q}")?;
                    }
                    writeln!(f, " ({} gates)", fu.gates().len())?;
                }
                Instr::BranchUnless { clbit, skip } => {
                    let target = pc + 1 + *skip as usize;
                    writeln!(f, "{pc:5}: {:indent$}unless {clbit} jump {target}", "")?;
                    guard_ends.push(target);
                }
            }
        }
        // The representation planner's view of the program, one row per
        // deterministic segment, at the default thresholds.
        for (i, profile) in self.segment_profiles().iter().enumerate() {
            let repr = crate::plan::plan_segment(
                self.num_qubits,
                profile,
                &crate::plan::PlanConfig::default(),
            );
            writeln!(f, "segment[{i}]: {profile} \u{2192} {repr}")?;
        }
        Ok(())
    }
}

/// Recursively flattens an op tree into `out`, encoding conditionals as
/// relative branches over their (contiguous) bodies.
fn flatten(ops: &[Op], out: &mut Vec<Instr>) {
    for op in ops {
        match op {
            Op::Gate(g) => out.push(Instr::Gate(*g)),
            Op::Measure {
                qubit,
                basis,
                clbit,
            } => out.push(Instr::Measure {
                qubit: *qubit,
                basis: *basis,
                clbit: *clbit,
            }),
            Op::Reset(q) => out.push(Instr::Reset(*q)),
            Op::Conditional { clbit, ops } => {
                let at = out.len();
                out.push(Instr::BranchUnless {
                    clbit: *clbit,
                    skip: 0,
                });
                flatten(ops, out);
                let skip = u32::try_from(out.len() - at - 1)
                    .expect("conditional body exceeds u32::MAX instructions");
                out[at] = Instr::BranchUnless {
                    clbit: *clbit,
                    skip,
                };
            }
        }
    }
}

/// Whether `g` is its own inverse (so an identical adjacent copy cancels).
fn self_inverse(g: &Gate) -> bool {
    matches!(
        g,
        Gate::X(_)
            | Gate::Z(_)
            | Gate::H(_)
            | Gate::Cx(..)
            | Gate::Cz(..)
            | Gate::Ccx(..)
            | Gate::Ccz(..)
            | Gate::Swap(..)
    )
}

/// Whether `g` and `h` denote the same unitary, treating operand order of
/// symmetric gates (`CZ`, `CCZ`, `SWAP`, rotations controlled on a set, the
/// Toffoli control pair) as irrelevant.
fn same_unitary(g: &Gate, h: &Gate) -> bool {
    use Gate::{Ccx, Ccz, Cz, Swap};
    match (*g, *h) {
        (Cz(a1, b1), Cz(a2, b2)) | (Swap(a1, b1), Swap(a2, b2)) => {
            (a1, b1) == (a2, b2) || (a1, b1) == (b2, a2)
        }
        (Ccz(a1, b1, c1), Ccz(a2, b2, c2)) => set3(a1, b1, c1) == set3(a2, b2, c2),
        (Ccx(a1, b1, t1), Ccx(a2, b2, t2)) => {
            t1 == t2 && ((a1, b1) == (a2, b2) || (a1, b1) == (b2, a2))
        }
        _ => g == h,
    }
}

/// The three operands as a sorted triple (all-symmetric gates).
fn set3(a: QubitId, b: QubitId, c: QubitId) -> (QubitId, QubitId, QubitId) {
    let mut v = [a, b, c];
    v.sort_unstable();
    (v[0], v[1], v[2])
}

/// If `g` and `h` are rotations of the same family on the same qubit set,
/// the merged rotation (angles added exactly). Pairs whose exact sum does
/// not fit the dyadic representation (see [`Angle::checked_add`]) are left
/// unmerged rather than approximated.
fn merge_rotations(g: &Gate, h: &Gate) -> Option<Gate> {
    use Gate::{CPhase, CcPhase, Phase};
    match (*g, *h) {
        (Phase(q1, a1), Phase(q2, a2)) if q1 == q2 => a1.checked_add(a2).map(|a| Phase(q1, a)),
        (CPhase(c1, t1, a1), CPhase(c2, t2, a2))
            if (c1, t1) == (c2, t2) || (c1, t1) == (t2, c2) =>
        {
            a1.checked_add(a2).map(|a| CPhase(c1, t1, a))
        }
        (CcPhase(x1, y1, z1, a1), CcPhase(x2, y2, z2, a2))
            if set3(x1, y1, z1) == set3(x2, y2, z2) =>
        {
            a1.checked_add(a2).map(|a| CcPhase(x1, y1, z1, a))
        }
        _ => None,
    }
}

/// A rotation whose angle reduced to zero (the identity).
fn is_identity(g: &Gate) -> bool {
    matches!(
        g,
        Gate::Phase(_, a) | Gate::CPhase(_, _, a) | Gate::CcPhase(_, _, _, a) if a.is_zero()
    )
}

/// The branch join points of `instrs`: `barrier[pc]` is set when a guarded
/// block ends just before `pc` (one extra entry covers the end of the
/// program). A gate after the join executes on every path, a gate inside
/// the guarded block only sometimes, so no pass window may span the
/// boundary.
fn join_barriers(instrs: &[Instr]) -> Vec<bool> {
    let mut barrier = vec![false; instrs.len() + 1];
    for (pc, instr) in instrs.iter().enumerate() {
        if let Instr::BranchUnless { skip, .. } = instr {
            barrier[pc + 1 + *skip as usize] = true;
        }
    }
    barrier
}

/// The maximal straight-line gate runs of `slots`, cut at every non-gate
/// slot and join barrier: the peephole passes' windows.
fn gate_runs(slots: &[Option<Instr>], barrier: &[bool]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for pc in 0..=slots.len() {
        let is_gate = pc < slots.len() && matches!(slots[pc], Some(Instr::Gate(_)));
        if !is_gate || barrier[pc] {
            if pc > start {
                runs.push(start..pc);
            }
            // A gate at a join opens the next run.
            start = if is_gate { pc } else { pc + 1 };
        }
    }
    runs
}

/// Runs the enabled passes over the lowered stream.
fn run_passes(
    instrs: Vec<Instr>,
    num_qubits: usize,
    config: &PassConfig,
    stats: &mut PassStats,
) -> Vec<Instr> {
    let barrier = join_barriers(&instrs);
    // Slots: None = removed.
    let mut slots: Vec<Option<Instr>> = instrs.into_iter().map(Some).collect();
    let mut index = PeepholeIndex::new(num_qubits, slots.len());
    for run in gate_runs(&slots, &barrier) {
        optimize_segment(&mut slots, run, &mut index, config, stats);
    }
    if config.remove_identities {
        remove_identities(&mut slots, stats);
    }

    if config.phase_dead_before_measure {
        eliminate_phase_dead(&mut slots, &barrier, stats);
    }

    compact_slots(&slots)
}

/// Compacts removed (`None`) slots, recomputing branch skips over the
/// surviving instructions (branches themselves are never removed, so
/// guarded regions stay contiguous and only shrink).
fn compact_slots(slots: &[Option<Instr>]) -> Vec<Instr> {
    let mut surviving = vec![0usize; slots.len() + 1];
    for (i, slot) in slots.iter().enumerate() {
        surviving[i + 1] = surviving[i] + usize::from(slot.is_some());
    }
    let mut out = Vec::with_capacity(surviving[slots.len()]);
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            None => {}
            Some(Instr::BranchUnless { clbit, skip }) => {
                let end = i + 1 + *skip as usize;
                let new_skip = u32::try_from(surviving[end] - surviving[i + 1])
                    .expect("skip shrank below u32::MAX");
                out.push(Instr::BranchUnless {
                    clbit: *clbit,
                    skip: new_skip,
                });
            }
            Some(instr) => out.push(*instr),
        }
    }
    out
}

/// The estimated amplitude-array traffic of one unfused kernel sweep for
/// `g`, in eighths of a full read+write pass: `H` touches every
/// amplitude, a CNOT or SWAP half of them, a Toffoli a quarter; diagonal
/// sweeps touch their pinned subspace. `X` weighs 0, an undercount (its
/// kernel swaps every amplitude pair), so X gates alone never make a block
/// worth emitting; the value stays because these weights decide the
/// compiled output that `tests/counts_golden.rs` and `perfbench --counts`
/// pin.
fn fusion_weight(g: &Gate) -> u32 {
    match g {
        Gate::X(_) => 0,
        Gate::H(_) => 8,
        Gate::Cx(..) | Gate::Swap(..) | Gate::Z(_) | Gate::Phase(..) => 4,
        Gate::Ccx(..) | Gate::Cz(..) | Gate::CPhase(..) => 2,
        Gate::Ccz(..) | Gate::CcPhase(..) => 1,
    }
}

/// Minimum summed [`fusion_weight`] for a dense block to be emitted: a
/// fused block costs one full read+write pass over the array (plus small
/// per-group overhead), so fusing only pays when the gates it replaces
/// would have cost measurably more — 12 eighths = 1.5 passes. Below the
/// bar the gates stay plain (individual subspace sweeps are cheap and
/// vectorised). An `H`+`CX` pair (1.5 passes) is exactly at the bar — the
/// Bell/MBU-correction shape fuses.
const FUSE_MIN_WEIGHT: u32 = 12;

/// Minimum summed [`fusion_weight`] for a *permutation* block: applying
/// the composed index map costs about one sequential write pass plus one
/// gathered read pass (≈ 2 full passes, 16 eighths) plus the remap-table
/// build, so the bar sits at 3 passes — a CDKPM `MAJ` ladder of three
/// `MAJ` cells (weight 30) clears it comfortably, a lone `MAJ` (weight
/// 10) stays unfused.
const PERM_FUSE_MIN_WEIGHT: u32 = 24;

/// One greedy fusion sweep over `slots`: merges maximal runs of adjacent
/// gates accepted by `admit` whose combined support fits in `window`
/// qubits into [`Instr::Fused`] blocks appended to `table`. Runs never
/// cross a `barrier[pc]`, a non-gate slot, or a gate `admit` rejects;
/// blocks below `min_weight` (summed [`fusion_weight`]) are left plain.
fn greedy_fuse(
    slots: &mut [Option<Instr>],
    barrier: &[bool],
    table: &mut Vec<FusedUnitary>,
    stats: &mut PassStats,
    window: usize,
    min_weight: u32,
    admit: impl Fn(&Gate) -> bool,
) {
    // The open block: member slot indices and their combined support.
    let mut block: Vec<usize> = Vec::new();
    let mut support: Vec<QubitId> = Vec::new();

    fn flush(
        slots: &mut [Option<Instr>],
        table: &mut Vec<FusedUnitary>,
        block: &mut Vec<usize>,
        support: &mut Vec<QubitId>,
        stats: &mut PassStats,
        min_weight: u32,
    ) {
        let gate_at = |i: usize| match slots[i] {
            Some(Instr::Gate(g)) => g,
            _ => unreachable!("fusion blocks hold gate slots"),
        };
        let weight: u32 = block.iter().map(|&i| fusion_weight(&gate_at(i))).sum();
        if block.len() >= 2 && weight >= min_weight {
            let gates: Vec<Gate> = block.iter().map(|&i| gate_at(i)).collect();
            support.sort_unstable();
            let idx = u32::try_from(table.len()).expect("fused table fits u32 indices");
            table.push(FusedUnitary::build(support.clone(), &gates));
            slots[block[0]] = Some(Instr::Fused(idx));
            for &i in &block[1..] {
                slots[i] = None;
            }
            stats.fused_blocks += 1;
            stats.fused_gates += block.len() as u64;
        }
        block.clear();
        support.clear();
    }

    for pc in 0..slots.len() {
        if barrier[pc] {
            flush(slots, table, &mut block, &mut support, stats, min_weight);
        }
        match slots[pc] {
            Some(Instr::Gate(g)) if admit(&g) => {
                // Close the open block if `g`'s new qubits overflow it.
                let mut fresh = 0;
                g.for_each_qubit(&mut |q| fresh += usize::from(!support.contains(&q)));
                if support.len() + fresh > window {
                    flush(slots, table, &mut block, &mut support, stats, min_weight);
                }
                g.for_each_qubit(&mut |q| {
                    if !support.contains(&q) {
                        support.push(q);
                    }
                });
                if support.len() <= window {
                    block.push(pc);
                } else {
                    // Wider than the window on its own: leave plain.
                    support.clear();
                }
            }
            _ => flush(slots, table, &mut block, &mut support, stats, min_weight),
        }
    }
    flush(slots, table, &mut block, &mut support, stats, min_weight);
}

/// The gate-fusion pass, two greedy stages over the same stream:
///
/// 1. **Permutation runs** — maximal runs of adjacent basis-permutation
///    gates ([`Gate::is_permutation`]: `X`, `CX`, `CCX`, `SWAP`) whose
///    combined support fits in [`MAX_PERM_FUSED_QUBITS`] qubits. Adder
///    ladders (`MAJ`/`UMA` cells) are exactly this shape, and the block's
///    composed action is a reversible index map executors apply in a
///    single sweep with zero arithmetic — so the support cap is a table
///    size, not a dense-matrix arity.
/// 2. **Dense windows** — the remaining runs of adjacent gates (any
///    family) whose support fits in `max_qubits ≤` [`MAX_FUSED_QUBITS`]
///    qubits, applied by backends as gathered local `2^k` groups.
///
/// Like the peephole window, fusion never crosses a barrier (measurement,
/// reset, drop, branch or branch join), and it never reorders gates —
/// only contiguous runs merge, so each block's product unitary is exactly
/// the program's. Blocks that would not save array traffic (summed
/// [`fusion_weight`] below [`PERM_FUSE_MIN_WEIGHT`] /
/// [`FUSE_MIN_WEIGHT`]) are left unfused; light gates (diagonals in dense
/// blocks, `X` in either) ride along inside emitted blocks for free.
fn fuse_gates(
    instrs: Vec<Instr>,
    max_qubits: usize,
    stats: &mut PassStats,
) -> (Vec<Instr>, Vec<FusedUnitary>) {
    let barrier = join_barriers(&instrs);
    let mut slots: Vec<Option<Instr>> = instrs.into_iter().map(Some).collect();
    let mut table: Vec<FusedUnitary> = Vec::new();
    greedy_fuse(
        &mut slots,
        &barrier,
        &mut table,
        stats,
        MAX_PERM_FUSED_QUBITS,
        PERM_FUSE_MIN_WEIGHT,
        Gate::is_permutation,
    );
    greedy_fuse(
        &mut slots,
        &barrier,
        &mut table,
        stats,
        max_qubits.min(MAX_FUSED_QUBITS),
        FUSE_MIN_WEIGHT,
        |_| true,
    );

    (compact_slots(&slots), table)
}

/// Liveness analysis for qubit reclamation: for every qubit that is
/// measured (or reset) at least once and never touched after some program
/// point, emit an [`Instr::Drop`] at the earliest *top-level* point past
/// its last reference.
///
/// The measured-or-reset requirement is what ties the pass to the paper:
/// measurement is the compiler-visible signal that a qubit was put through
/// a collapse (MBU garbage, Gidney AND ancillas, comparison flags), after
/// which the MBU protocols leave it in a definite product state the
/// backend can verify and factor out. Dead qubits that were never measured
/// (e.g. unitarily uncomputed ancillas) get no drop — the compiler has no
/// evidence they are disentangled, which is exactly the qubit-release
/// asymmetry between §3's unitary and §4's measurement-based uncomputation.
///
/// Drops are only inserted at guard depth 0 so they execute on every
/// control-flow path, and a top-level insertion point never lies inside a
/// branch's skip region, so no branch offset needs fixing up.
fn reclaim_dead_qubits(
    instrs: Vec<Instr>,
    num_qubits: usize,
    stats: &mut PassStats,
    fused: &[FusedUnitary],
) -> Vec<Instr> {
    let n = instrs.len();
    // depth_at[i]: number of guarded regions containing the insertion
    // point *before* instruction i (i == n is the end of the program),
    // built as a difference array over branch skip regions.
    let mut depth_at = vec![0i64; n + 2];
    for (pc, instr) in instrs.iter().enumerate() {
        if let Instr::BranchUnless { skip, .. } = instr {
            let skip = *skip as usize;
            if skip > 0 {
                depth_at[pc + 1] += 1;
                depth_at[pc + 1 + skip] -= 1;
            }
        }
    }
    for i in 1..=n {
        depth_at[i] += depth_at[i - 1];
    }

    let mut last_touch = vec![None::<usize>; num_qubits];
    let mut collapsed = vec![false; num_qubits];
    for (pc, instr) in instrs.iter().enumerate() {
        match instr {
            Instr::Gate(g) => g.for_each_qubit(&mut |q| last_touch[q.index()] = Some(pc)),
            Instr::Fused(idx) => {
                for q in fused[*idx as usize].qubits() {
                    last_touch[q.index()] = Some(pc);
                }
            }
            Instr::Measure { qubit, .. } => {
                last_touch[qubit.index()] = Some(pc);
                collapsed[qubit.index()] = true;
            }
            Instr::Reset(q) => {
                last_touch[q.index()] = Some(pc);
                collapsed[q.index()] = true;
            }
            Instr::BranchUnless { .. } | Instr::Drop(_) => {}
        }
    }

    // drops_at[i]: qubits to release immediately before instruction i.
    let mut drops_at: Vec<Vec<QubitId>> = vec![Vec::new(); n + 1];
    for q in 0..num_qubits {
        if !collapsed[q] {
            continue;
        }
        let Some(last) = last_touch[q] else {
            continue;
        };
        let mut at = last + 1;
        // Branch regions always end within the program, so depth_at[n] is
        // 0 and this search terminates.
        while depth_at[at] != 0 {
            at += 1;
        }
        drops_at[at].push(QubitId(u32::try_from(q).expect("qubit id fits u32")));
        stats.dead_qubits_reclaimed += 1;
    }

    let extra = stats.dead_qubits_reclaimed as usize;
    let mut out = Vec::with_capacity(n + extra);
    for (i, instr) in instrs.into_iter().enumerate() {
        out.extend(drops_at[i].iter().map(|q| Instr::Drop(*q)));
        out.push(instr);
    }
    out.extend(drops_at[n].iter().map(|q| Instr::Drop(*q)));
    out
}

/// Marks an empty [`SlotStacks`] stack.
const EMPTY: u32 = u32::MAX;

/// Stacks of gate slots (one per qubit, or per diagonal key), linked
/// through the slots themselves: entry `slot × stride + k` stands for the
/// slot's `k`-th operand and `below[entry]` is the entry under it, so each
/// index is two flat arrays allocated once. Slots are pushed in program
/// order, so a stack's top is its newest slot; removed slots and slots
/// before the current run are dropped lazily, when they surface.
struct SlotStacks {
    /// Entries per slot: the widest gate's arity, or 1.
    stride: usize,
    /// Per stack: its top entry, or [`EMPTY`].
    top: Vec<u32>,
    /// Per entry: the entry below it (written when pushed).
    below: Vec<u32>,
}

impl SlotStacks {
    fn new(stacks: usize, slots: usize, stride: usize) -> Self {
        let entries = slots * stride;
        assert!(
            u32::try_from(entries).is_ok(),
            "peephole index entries fit u32"
        );
        Self {
            stride,
            top: vec![EMPTY; stacks],
            below: vec![0; entries],
        }
    }

    /// Pushes operand `k` of `slot` onto `stack`.
    fn push(&mut self, stack: usize, slot: usize, k: usize) {
        let entry = slot * self.stride + k;
        self.below[entry] = self.top[stack];
        self.top[stack] = entry as u32;
    }

    fn pop(&mut self, stack: usize) {
        self.top[stack] = self.below[self.top[stack] as usize];
    }

    /// The newest live slot of `stack` at or after `start`.
    fn peek(&mut self, stack: usize, start: usize, slots: &[Option<Instr>]) -> Option<usize> {
        loop {
            let entry = self.top[stack];
            if entry == EMPTY {
                return None;
            }
            let slot = entry as usize / self.stride;
            if slot < start {
                // Everything below is older still.
                self.top[stack] = EMPTY;
                return None;
            }
            if slots[slot].is_some() {
                return Some(slot);
            }
            self.top[stack] = self.below[entry as usize];
        }
    }

    /// Pushes `slot` onto the stack of each of `g`'s qubits.
    fn push_qubits(&mut self, g: &Gate, slot: usize) {
        let mut k = 0;
        g.for_each_qubit(&mut |q| {
            self.push(q.index(), slot, k);
            k += 1;
        });
    }
}

/// What [`optimize_segment`] looks partners up in: the live gates seen so
/// far, stacked per qubit and per diagonal key.
struct PeepholeIndex {
    /// Per qubit: every gate touching it.
    touching: SlotStacks,
    /// Per qubit: the non-diagonal gates touching it, the walls a diagonal
    /// gate's search stops at.
    walls: SlotStacks,
    /// Per diagonal key (family and sorted qubit set): its gates.
    same_key: SlotStacks,
    /// The `same_key` stack of every key seen so far.
    key_ids: HashMap<(Discriminant<Gate>, [QubitId; 3]), usize>,
}

impl PeepholeIndex {
    fn new(num_qubits: usize, slots: usize) -> Self {
        Self {
            touching: SlotStacks::new(num_qubits, slots, 3),
            walls: SlotStacks::new(num_qubits, slots, 3),
            same_key: SlotStacks::new(0, slots, 1),
            key_ids: HashMap::new(),
        }
    }

    /// The `same_key` stack of diagonal `g`. Every diagonal family is
    /// symmetric in its operands, so the sorted qubit set is the key.
    fn key(&mut self, g: &Gate) -> usize {
        let mut qubits = [QubitId(u32::MAX); 3];
        let mut n = 0;
        g.for_each_qubit(&mut |q| {
            qubits[n] = q;
            n += 1;
        });
        qubits.sort_unstable();
        let fresh = self.key_ids.len();
        let id = *self
            .key_ids
            .entry((mem::discriminant(g), qubits))
            .or_insert(fresh);
        if id == fresh {
            self.same_key.top.push(EMPTY);
        }
        id
    }
}

/// Cancellation and merging within one straight-line run of gates,
/// `slots[run]`.
///
/// Each gate looks back across the gates it commutes with — those on
/// disjoint qubits and, when both are diagonal, all of them — for a partner:
///
/// * a non-diagonal gate steps over nothing that shares a qubit, so its one
///   candidate is the nearest live gate on any of its qubits (the newest of
///   its qubits' `touching` tops); it cancels if that is the same
///   self-inverse unitary;
/// * a diagonal gate steps over every diagonal and stops at the nearest
///   live non-diagonal gate on its qubits (its *wall*, from the `walls`
///   tops). Its candidates are the live diagonals of its family on its
///   qubit set above the wall, visited nearest first: a self-inverse one
///   cancels with the first, a rotation absorbs each one whose exact angle
///   sum fits (see [`Angle::checked_add`](crate::Angle::checked_add)) and
///   steps over the others.
///
/// Every lookup pops only what earlier gates pushed, so the pass costs
/// O(instructions × arity) amortised. It replaces a rescan (kept as the
/// test oracle) that walked back over every commuting gate: quadratic on
/// ripple-carry ladders, where nearly every gate commutes with the carry
/// chain, and 12–16M steps per n = 1024 VBE or CDKPM modular adder to
/// remove at most 6 gates. On a 2-vCPU Xeon host the pass went from 37.5
/// to 0.9 ms per `perfbench` `modadd_wide` job and from 924 to 11 ms on
/// the n = 128 Beauregard adder.
fn optimize_segment(
    slots: &mut [Option<Instr>],
    run: Range<usize>,
    index: &mut PeepholeIndex,
    config: &PassConfig,
    stats: &mut PassStats,
) {
    let start = run.start;
    for i in run {
        let Some(Instr::Gate(mut g)) = slots[i] else {
            continue;
        };
        if g.is_diagonal() {
            // Only diagonals above the wall are reachable.
            let mut lo = start;
            g.for_each_qubit(&mut |q| {
                if let Some(wall) = index.walls.peek(q.index(), start, slots) {
                    lo = lo.max(wall + 1);
                }
            });
            let key = index.key(&g);
            if config.cancel_self_inverse && self_inverse(&g) {
                let partner = index.same_key.peek(key, start, slots);
                if let Some(j) = partner.filter(|&j| j >= lo) {
                    index.same_key.pop(key);
                    slots[i] = None;
                    slots[j] = None;
                    stats.cancelled += 2;
                    continue;
                }
            } else if config.merge_rotations && !self_inverse(&g) {
                // Rotations whose exact sum does not fit stay in place.
                let mut unmerged = Vec::new();
                while let Some(j) = index.same_key.peek(key, start, slots).filter(|&j| j >= lo) {
                    index.same_key.pop(key);
                    let Some(Instr::Gate(h)) = slots[j] else {
                        unreachable!("peek returns live gate slots")
                    };
                    match merge_rotations(&g, &h) {
                        Some(merged) => {
                            slots[j] = None;
                            stats.merged += 1;
                            g = merged;
                        }
                        None => unmerged.push(j),
                    }
                }
                for &j in unmerged.iter().rev() {
                    index.same_key.push(key, j, 0);
                }
                slots[i] = Some(Instr::Gate(g));
            }
            index.same_key.push(key, i, 0);
        } else {
            let mut nearest = None;
            g.for_each_qubit(&mut |q| {
                nearest = nearest.max(index.touching.peek(q.index(), start, slots));
            });
            if let Some(j) = nearest {
                let Some(Instr::Gate(h)) = slots[j] else {
                    unreachable!("peek returns live gate slots")
                };
                if config.cancel_self_inverse && self_inverse(&g) && same_unitary(&g, &h) {
                    slots[i] = None;
                    slots[j] = None;
                    stats.cancelled += 2;
                    continue;
                }
            }
            index.walls.push_qubits(&g, i);
        }
        index.touching.push_qubits(&g, i);
    }
}

/// Drops the zero-angle rotations left after merging.
fn remove_identities(slots: &mut [Option<Instr>], stats: &mut PassStats) {
    for slot in slots {
        if let Some(Instr::Gate(g)) = slot {
            if is_identity(g) {
                *slot = None;
                stats.identities_removed += 1;
            }
        }
    }
}

/// Drops `Z`/`Phase` gates whose qubit is next consumed by a Z-basis
/// measurement or reset (global-phase-only effect on the collapsed state).
fn eliminate_phase_dead(slots: &mut [Option<Instr>], barrier: &[bool], stats: &mut PassStats) {
    for i in 0..slots.len() {
        let q = match slots[i] {
            Some(Instr::Gate(Gate::Z(q) | Gate::Phase(q, _))) => q,
            _ => continue,
        };
        // Scan forward for the next operation consuming `q`; stop at any
        // control-flow boundary. Diagonal gates commute past the candidate,
        // so they may be stepped over even when they touch `q`.
        let mut dead = false;
        for (j, slot) in slots.iter().enumerate().skip(i + 1) {
            if barrier[j] {
                break;
            }
            match slot {
                None => continue,
                Some(Instr::Gate(g)) => {
                    if g.is_diagonal() {
                        continue;
                    }
                    let mut touches = false;
                    g.for_each_qubit(&mut |qq| touches |= qq == q);
                    if touches {
                        break;
                    }
                }
                Some(Instr::Measure { qubit, basis, .. }) => {
                    if *qubit == q {
                        dead = *basis == Basis::Z;
                        break;
                    }
                }
                Some(Instr::Reset(qubit)) => {
                    if *qubit == q {
                        dead = true;
                        break;
                    }
                }
                // Drops never move amplitudes; stepping over is safe (and
                // the reclamation pass runs after this one anyway).
                Some(Instr::Drop(_)) => continue,
                // Fused blocks only appear after this pass; conservative.
                Some(Instr::Fused(_)) | Some(Instr::BranchUnless { .. }) => break,
            }
        }
        if dead {
            slots[i] = None;
            stats.phase_dead_removed += 1;
        }
    }
}

/// The peephole pass as first written: each gate rescans the run behind
/// it across every gate it commutes with. Quadratic on long ripple
/// ladders, it stays as the reference [`optimize_segment`] must match bit
/// for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Whether the rescan may step over `f` while looking for a partner of
    /// `g`: sound when the two commute, which we certify either by disjoint
    /// qubit support or by both being diagonal.
    fn commutes(f: &Gate, g: &Gate) -> bool {
        if f.is_diagonal() && g.is_diagonal() {
            return true;
        }
        let mut disjoint = true;
        f.for_each_qubit(&mut |qf| {
            g.for_each_qubit(&mut |qg| {
                if qf == qg {
                    disjoint = false;
                }
            });
        });
        disjoint
    }

    /// Cancellation and merging within one run, by walking back from
    /// every gate.
    fn optimize_segment(slots: &mut [Option<Instr>], config: &PassConfig, stats: &mut PassStats) {
        let gate_at = |slot: &Option<Instr>| match slot {
            Some(Instr::Gate(g)) => Some(*g),
            _ => None,
        };
        for i in 0..slots.len() {
            let Some(mut g) = gate_at(&slots[i]) else {
                continue;
            };
            // Walk backwards over removed slots and commuting gates,
            // looking for a cancellation partner or a mergeable rotation.
            let mut j = i;
            while j > 0 {
                j -= 1;
                let Some(h) = gate_at(&slots[j]) else {
                    continue;
                };
                if config.cancel_self_inverse && self_inverse(&g) && same_unitary(&g, &h) {
                    slots[i] = None;
                    slots[j] = None;
                    stats.cancelled += 2;
                    break;
                }
                if config.merge_rotations {
                    if let Some(merged) = merge_rotations(&g, &h) {
                        slots[j] = None;
                        stats.merged += 1;
                        g = merged;
                        slots[i] = Some(Instr::Gate(g));
                        continue; // keep scanning: more partners may commute up
                    }
                }
                if !commutes(&h, &g) {
                    break;
                }
            }
        }
    }

    /// [`run_passes`](super::run_passes) on the rescanning segment pass.
    pub(super) fn run_passes(
        instrs: Vec<Instr>,
        _num_qubits: usize,
        config: &PassConfig,
        stats: &mut PassStats,
    ) -> Vec<Instr> {
        let barrier = join_barriers(&instrs);
        let mut slots: Vec<Option<Instr>> = instrs.into_iter().map(Some).collect();
        for run in gate_runs(&slots, &barrier) {
            optimize_segment(&mut slots[run], config, stats);
        }
        if config.remove_identities {
            remove_identities(&mut slots, stats);
        }
        if config.phase_dead_before_measure {
            eliminate_phase_dead(&mut slots, &barrier, stats);
        }
        compact_slots(&slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::Angle;
    use crate::builder::CircuitBuilder;
    use crate::verify::Finding;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn gates(compiled: &CompiledCircuit) -> Vec<Gate> {
        compiled
            .instrs()
            .iter()
            .filter_map(|i| match i {
                Instr::Gate(g) => Some(*g),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lowering_flattens_nested_conditionals() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        let m0 = b.measure(r[0], Basis::Z);
        let (_, inner) = b.record(|b| b.x(r[1]));
        let (_, outer) = b.record(|b| {
            b.z(r[0]);
            b.emit_conditional(m0, &inner);
            b.h(r[1]);
        });
        b.emit_conditional(m0, &outer);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let instrs = compiled.instrs();
        // Measure, outer branch (skip 4), Z, inner branch (skip 1), X, H.
        assert_eq!(instrs.len(), 6);
        assert!(matches!(instrs[1], Instr::BranchUnless { skip: 4, .. }));
        assert!(matches!(instrs[3], Instr::BranchUnless { skip: 1, .. }));
        assert_eq!(compiled.counts().x, 1);
        assert_eq!(compiled.counts().h, 1);
    }

    #[test]
    fn lowering_rejects_invalid_circuits() {
        let c = Circuit::from_ops(1, 0, vec![Op::Gate(Gate::Cx(q(0), q(5)))]);
        assert!(matches!(
            CompiledCircuit::lower(&c),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn adjacent_self_inverse_pairs_cancel() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.x(r[0]);
        b.x(r[0]);
        b.h(r[1]);
        b.ccx(r[0], r[1], r[2]);
        b.ccx(r[1], r[0], r[2]); // symmetric control pair still cancels
        b.h(r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        // Cancellation cascades: once the CCX pair vanishes, the H's become
        // adjacent and cancel too — the whole segment is the identity.
        assert_eq!(compiled.counts().total_gates(), 0);
        assert_eq!(compiled.stats().cancelled, 6);
    }

    #[test]
    fn cancellation_reaches_across_commuting_gates() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.x(r[0]);
        b.h(r[1]); // disjoint support: scan steps over it
        b.cz(r[1], r[2]); // disjoint from q0
        b.x(r[0]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.counts().x, 0);
        assert_eq!(compiled.counts().h, 1);
        assert_eq!(compiled.counts().cz, 1);
    }

    #[test]
    fn cancellation_blocked_by_shared_support() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.x(r[0]);
        b.h(r[0]); // same qubit, not diagonal: blocks
        b.x(r[0]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.counts().x, 2);
    }

    #[test]
    fn rotations_merge_exactly_and_identities_vanish() {
        let t = Angle::turn_over_power_of_two(3);
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.phase(r[0], t);
        b.cphase(r[0], r[1], t);
        b.phase(r[0], t); // merges with the first Phase (diagonal commute)
        b.cphase(r[1], r[0], -t); // merges to zero with the CPhase -> dropped
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        let g = gates(&compiled);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], Gate::Phase(r[0], t.checked_add(t).unwrap()));
        assert_eq!(compiled.stats().merged, 2);
        assert_eq!(compiled.stats().identities_removed, 1);
    }

    #[test]
    fn measurements_are_barriers() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.x(r[0]);
        b.measure(r[0], Basis::Z);
        b.x(r[0]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.counts().x, 2, "no cancellation across measure");
    }

    #[test]
    fn branch_joins_are_barriers() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        let m = b.measure(r[0], Basis::Z);
        let (_, block) = b.record(|b| b.x(r[0]));
        b.emit_conditional(m, &block);
        b.x(r[0]); // runs on every path; must not cancel the guarded X
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.counts().x, 2);
    }

    #[test]
    fn passes_inside_conditional_bodies_still_run() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        let m = b.measure(r[0], Basis::Z);
        let (_, block) = b.record(|b| {
            b.x(r[0]);
            b.x(r[0]);
        });
        b.emit_conditional(m, &block);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.counts().x, 0);
        assert!(matches!(
            compiled.instrs().last(),
            Some(Instr::BranchUnless { skip: 0, .. })
        ));
    }

    #[test]
    fn phase_dead_removal_is_opt_in() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.z(r[0]);
        b.h(r[1]); // other qubit: stepped over
        b.measure(r[0], Basis::Z);
        let circuit = b.finish();

        let exact = CompiledCircuit::compile(&circuit).unwrap();
        assert_eq!(exact.counts().z, 1, "default passes keep the Z");

        let aggressive = CompiledCircuit::with_config(&circuit, &PassConfig::aggressive()).unwrap();
        assert_eq!(aggressive.counts().z, 0);
        assert_eq!(aggressive.stats().phase_dead_removed, 1);
    }

    #[test]
    fn phase_dead_keeps_gates_feeding_x_measurements() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.z(r[0]);
        b.measure(r[0], Basis::X); // Z flips |+⟩ to |−⟩: not dead
        let compiled =
            CompiledCircuit::with_config(&b.finish(), &PassConfig::aggressive()).unwrap();
        assert_eq!(compiled.counts().z, 1);
    }

    #[test]
    fn stats_roundtrip_and_display() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.x(r[0]);
        b.x(r[0]);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        let stats = compiled.stats();
        assert_eq!(stats.lowered_instrs, 3);
        assert_eq!(stats.emitted_instrs, 1);
        assert_eq!(stats.removed(), 2);
        let dump = compiled.to_string();
        assert!(dump.contains("CX q0 q1"), "{dump}");
        assert!(dump.contains("cancelled 2"), "{dump}");
    }

    #[test]
    fn reclamation_drops_measured_dead_qubits_after_the_join() {
        // The MBU shape: measure, conditional correction that touches the
        // qubit again, then dead. The drop must land at the first top-level
        // point after the correction — never inside the guarded block.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        let m = b.measure(r[1], Basis::Z);
        let (_, fix) = b.record(|b| b.x(r[1]));
        b.emit_conditional(m, &fix);
        b.h(r[0]); // r0 is live to the end and never measured: no drop
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert!(compiled.reclaims_qubits());
        assert_eq!(compiled.stats().dead_qubits_reclaimed, 1);
        let drop_pc = compiled
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Drop(q) if q.0 == 1))
            .expect("q1 reclaimed");
        // Measure(0), branch(1), X(2, guarded), Drop(3), H(4).
        assert_eq!(drop_pc, 3, "{compiled}");
        assert!(
            !compiled
                .instrs()
                .iter()
                .any(|i| matches!(i, Instr::Drop(q) if q.0 == 0)),
            "unmeasured qubits are never reclaimed"
        );
        assert!(compiled.to_string().contains("drop q1"));
    }

    #[test]
    fn reclamation_covers_resets_and_respects_later_reuse() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.reset(r[0]); // reset counts as collapsed
        b.measure(r[1], Basis::Z);
        b.cx(r[1], r[2]); // r1 reused after its measurement
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().dead_qubits_reclaimed, 2, "{compiled}");
        let drops: Vec<u32> = compiled
            .instrs()
            .iter()
            .filter_map(|i| match i {
                Instr::Drop(q) => Some(q.0),
                _ => None,
            })
            .collect();
        // r0 right after its reset; r1 only after the CX that reuses it;
        // r2 never measured, never dropped.
        assert_eq!(drops, vec![0, 1]);
        let pc_of = |target: u32| {
            compiled
                .instrs()
                .iter()
                .position(|i| matches!(i, Instr::Drop(q) if q.0 == target))
                .unwrap()
        };
        assert_eq!(pc_of(0), 1);
        assert_eq!(pc_of(1), 4, "drop deferred past the reuse");
    }

    #[test]
    fn reclamation_is_off_for_lowering_and_opt_out_configs() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.measure(r[0], Basis::Z);
        let circuit = b.finish();
        for compiled in [
            CompiledCircuit::lower(&circuit).unwrap(),
            CompiledCircuit::with_config(&circuit, &PassConfig::none()).unwrap(),
        ] {
            assert!(!compiled.reclaims_qubits());
            assert!(!compiled
                .instrs()
                .iter()
                .any(|i| matches!(i, Instr::Drop(_))));
        }
        let no_reclaim = PassConfig {
            reclaim_dead_qubits: false,
            ..PassConfig::default()
        };
        let compiled = CompiledCircuit::with_config(&circuit, &no_reclaim).unwrap();
        assert_eq!(compiled.stats().dead_qubits_reclaimed, 0);
    }

    #[test]
    fn drop_insertion_preserves_branch_targets() {
        // A drop inserted before a top-level branch must shift the branch
        // and its whole region together, leaving the rendered jump target
        // consistent with the region contents.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        let m = b.measure(r[0], Basis::Z);
        let (_, block) = b.record(|b| b.z(r[1]));
        b.emit_conditional(m, &block);
        b.h(r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        // Measure(0), Drop q0(1), branch(2) skip 1, Z(3), H(4).
        assert!(matches!(compiled.instrs()[1], Instr::Drop(q) if q.0 == 0));
        assert!(
            matches!(compiled.instrs()[2], Instr::BranchUnless { skip: 1, .. }),
            "{compiled}"
        );
        assert!(
            compiled.to_string().contains("unless c0 jump 4"),
            "{compiled}"
        );
    }

    /// All gates of `compiled`, fused blocks expanded back to their
    /// global-operand constituents, in program order.
    fn effective_gates(compiled: &CompiledCircuit) -> Vec<Gate> {
        let mut out = Vec::new();
        for i in compiled.instrs() {
            match i {
                Instr::Gate(g) => out.push(*g),
                Instr::Fused(idx) => {
                    out.extend(compiled.fused_unitaries()[*idx as usize].global_gates());
                }
                _ => {}
            }
        }
        out
    }

    #[test]
    fn fusion_merges_adjacent_overlapping_runs() {
        // The Gidney-AND compute shape: CCX, H, CX on a 3-qubit support —
        // one dense block, with the trailing diagonal riding along.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.ccx(r[0], r[1], r[2]);
        b.h(r[2]);
        b.cx(r[0], r[2]);
        b.cz(r[0], r[1]);
        let source = b.finish();
        let compiled = CompiledCircuit::compile(&source).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        assert_eq!(compiled.stats().fused_gates, 4);
        assert_eq!(compiled.instrs().len(), 1);
        let fu = &compiled.fused_unitaries()[0];
        assert_eq!(fu.num_qubits(), 3);
        assert_eq!(fu.qubits(), &[r[0], r[1], r[2]]);
        // Local operands stay in gate order; global reconstruction round-trips.
        let globals: Vec<Gate> = fu.global_gates().collect();
        assert_eq!(
            globals,
            vec![
                Gate::Ccx(r[0], r[1], r[2]),
                Gate::H(r[2]),
                Gate::Cx(r[0], r[2]),
                Gate::Cz(r[0], r[1]),
            ]
        );
        // Worst-case counts are untouched by fusion.
        assert_eq!(compiled.counts(), source.counts());
        // And the dump names the block.
        assert!(compiled.to_string().contains("fused[0] q0 q1 q2 (4 gates)"));
    }

    #[test]
    fn fusion_respects_the_qubit_window() {
        // Two disjoint 2-qubit runs with a 4-qubit combined support: with
        // the default window of 3 they cannot merge into one block.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 4);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        b.h(r[2]);
        b.cx(r[2], r[3]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        // Greedy: the first block absorbs H q2 (support {0,1,2} still fits)
        // but must close before CX q2 q3 would push it to four qubits; the
        // leftover lone CX stays plain (only one heavy gate).
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        assert_eq!(compiled.stats().fused_gates, 3);
        for fu in compiled.fused_unitaries() {
            assert!(fu.num_qubits() <= 3);
        }
        assert_eq!(effective_gates(&compiled).len(), 4, "no gate lost");
        assert!(
            matches!(compiled.instrs().last(), Some(Instr::Gate(Gate::Cx(..)))),
            "{compiled}"
        );
    }

    #[test]
    fn fusion_skips_blocks_that_save_no_sweep() {
        // Diagonal-only runs (cheap subspace sweeps) and X gates (weight 0
        // in `fusion_weight`) are not worth a dense sweep.
        let t = Angle::turn_over_power_of_two(4);
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.cphase(r[0], r[1], t);
        b.cz(r[1], r[2]);
        b.x(r[0]);
        b.ccz(r[0], r[1], r[2]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 0, "{compiled}");
        assert_eq!(compiled.counts().total_gates(), 4);
    }

    #[test]
    fn fusion_stops_at_barriers_and_fixes_branch_targets() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        let m = b.measure(r[0], Basis::Z);
        let (_, fix) = b.record(|b| {
            b.h(r[1]);
            b.cx(r[1], r[0]);
        });
        b.emit_conditional(m, &fix);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        let no_reclaim = PassConfig {
            reclaim_dead_qubits: false,
            ..PassConfig::default()
        };
        let compiled = CompiledCircuit::with_config(&b.finish(), &no_reclaim).unwrap();
        // Three separate blocks: before the measurement, inside the guarded
        // body, after the join — never across.
        assert_eq!(compiled.stats().fused_blocks, 3, "{compiled}");
        // Fused(0), Measure, Branch(skip 1), Fused(1), Fused(2).
        assert_eq!(compiled.instrs().len(), 5, "{compiled}");
        assert!(
            matches!(compiled.instrs()[2], Instr::BranchUnless { skip: 1, .. }),
            "{compiled}"
        );
        assert_eq!(effective_gates(&compiled).len(), 6);
    }

    #[test]
    fn fusion_is_disabled_by_config() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        let circuit = b.finish();
        let off = PassConfig {
            fuse_max_qubits: 0,
            ..PassConfig::default()
        };
        let compiled = CompiledCircuit::with_config(&circuit, &off).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 0);
        assert!(compiled.fused_unitaries().is_empty());
        assert!(!CompiledCircuit::lower(&circuit)
            .unwrap()
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Fused(_))));
    }

    #[test]
    fn fusion_window_is_clamped_to_the_dense_limit() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 6);
        for w in r.qubits().windows(2) {
            b.h(w[0]);
            b.cx(w[0], w[1]);
        }
        let wide = PassConfig {
            fuse_max_qubits: 64,
            ..PassConfig::default()
        };
        let compiled = CompiledCircuit::with_config(&b.finish(), &wide).unwrap();
        assert!(compiled.stats().fused_blocks > 0);
        for fu in compiled.fused_unitaries() {
            assert!(fu.num_qubits() <= MAX_FUSED_QUBITS, "{}", fu.num_qubits());
        }
    }

    #[test]
    fn permutation_runs_fuse_beyond_the_dense_window() {
        // A CX ladder across 8 qubits: weight 7 x 4 = 28 clears the
        // permutation bar, and the 8-qubit support exceeds the dense
        // arity cap -- only the permutation stage can merge it.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 8);
        for i in 0..7 {
            b.cx(r[i], r[i + 1]);
        }
        let source = b.finish();
        let compiled = CompiledCircuit::compile(&source).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        assert_eq!(compiled.stats().fused_gates, 7);
        assert_eq!(compiled.instrs().len(), 1);
        let fu = &compiled.fused_unitaries()[0];
        assert!(fu.is_permutation());
        assert_eq!(fu.num_qubits(), 8);
        assert!(fu.num_qubits() > MAX_FUSED_QUBITS);
        // Constituents round-trip in order with global operands.
        let globals: Vec<Gate> = fu.global_gates().collect();
        let original: Vec<Gate> = source
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Gate(g) => Some(*g),
                _ => None,
            })
            .collect();
        assert_eq!(globals, original);
        // Worst-case counts are untouched by fusion.
        assert_eq!(compiled.counts(), source.counts());
    }

    #[test]
    fn light_permutation_runs_stay_plain() {
        // Five CX over six qubits: weight 20 is under the permutation bar
        // (24), and no 3-qubit dense window reaches the dense bar (12), so
        // the stream stays gate-by-gate.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 6);
        for i in 0..5 {
            b.cx(r[i], r[i + 1]);
        }
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 0, "{compiled}");
        assert_eq!(compiled.instrs().len(), 5);
    }

    #[test]
    fn permutation_runs_split_at_non_permutation_gates() {
        // An H in the middle of a long CCX/CX ladder: each side fuses on
        // its own (weights 28), the H stays a plain instruction between
        // the two permutation blocks.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 8);
        for i in 0..7 {
            b.cx(r[i], r[i + 1]);
        }
        b.h(r[0]);
        for i in 0..7 {
            b.cx(r[i + 1], r[i]);
        }
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 2, "{compiled}");
        assert_eq!(compiled.stats().fused_gates, 14);
        assert!(compiled
            .fused_unitaries()
            .iter()
            .all(FusedUnitary::is_permutation));
        assert_eq!(compiled.instrs().len(), 3);
        assert!(matches!(compiled.instrs()[1], Instr::Gate(Gate::H(_))));
    }

    #[test]
    fn fused_matrix_is_the_ordered_product() {
        // H then CX (the Bell-pair preparation): the dense 4×4 matrix must
        // send |00⟩ to (|00⟩ + |11⟩)/√2.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1);
        let m = compiled.fused_unitaries()[0].matrix();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        // Column 0 (input |00⟩): rows 00 and 11 get 1/√2.
        assert!((m[0][0] - s).abs() < 1e-15, "{:?}", m[0]);
        assert!((m[3 * 4][0] - s).abs() < 1e-15);
        assert!(m[4][0].abs() < 1e-15 && m[2 * 4][0].abs() < 1e-15);
        // Unitarity: every column has unit norm.
        for c in 0..4 {
            let norm: f64 = (0..4)
                .map(|r| m[r * 4 + c][0].powi(2) + m[r * 4 + c][1].powi(2))
                .sum();
            assert!((norm - 1.0).abs() < 1e-12, "column {c}: {norm}");
        }
    }

    #[test]
    fn fused_blocks_participate_in_reclamation_liveness() {
        // The fused block is the last touch of q1; q0 is measured before
        // it, so its drop must defer past the block.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        let _ = b.measure(r[0], Basis::Z);
        b.h(r[1]);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        let drop_pc = compiled
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Drop(q) if q.0 == 0))
            .expect("q0 reclaimed");
        let fused_pc = compiled
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Fused(_)))
            .unwrap();
        assert!(
            drop_pc > fused_pc,
            "drop deferred past the block: {compiled}"
        );
    }

    #[test]
    fn display_indents_guarded_blocks() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        let m = b.measure(r[0], Basis::X);
        let (_, block) = b.record(|b| b.cz(r[0], r[1]));
        b.emit_conditional(m, &block);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let dump = compiled.to_string();
        assert!(dump.contains("unless c0 jump 3"), "{dump}");
        assert!(dump.contains("  CZ q0 q1"), "{dump}");
    }

    #[test]
    fn segmentation_cuts_at_barriers_and_joins() {
        // H X | MZ | CZ (guarded) || H  — the guarded CZ and the
        // post-join H sit in different segments even though they are
        // adjacent unitary instructions.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.x(r[1]);
        let m = b.measure(r[0], Basis::Z);
        let (_, block) = b.record(|b| b.cz(r[0], r[1]));
        b.emit_conditional(m, &block);
        b.h(r[1]);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        // Program: 0:H 1:X 2:MZ 3:unless 4:CZ 5:H
        let segments = compiled.segments();
        assert_eq!(
            segments,
            vec![
                Segment { start: 0, end: 2 },
                Segment { start: 4, end: 5 },
                Segment { start: 5, end: 6 },
            ]
        );
        assert_eq!(compiled.fork_points(), 1);
        assert_eq!(compiled.stats().segments, 3);
        assert_eq!(compiled.stats().fork_points, 1);
        // Every segment holds only unitary instructions.
        for seg in &segments {
            for instr in &compiled.instrs()[seg.start..seg.end] {
                assert!(
                    matches!(instr, Instr::Gate(_) | Instr::Fused(_)),
                    "{instr:?} in segment {seg:?}"
                );
            }
        }
    }

    #[test]
    fn segmentation_counts_resets_and_drops() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.reset(r[0]);
        b.h(r[0]);
        let _ = b.measure(r[1], Basis::Z);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        // Reset + measure fork; drops cut segments but never fork.
        assert_eq!(compiled.fork_points(), 2);
        assert!(compiled.reclaims_qubits());
        let segments = compiled.segments();
        assert!(segments.len() >= 2, "{compiled}");
        // Drops are not inside any segment.
        for seg in &segments {
            for instr in &compiled.instrs()[seg.start..seg.end] {
                assert!(!matches!(instr, Instr::Drop(_)));
            }
        }
    }

    #[test]
    fn empty_programs_have_no_segments() {
        let compiled = CompiledCircuit::lower(&Circuit::from_ops(1, 0, vec![])).unwrap();
        assert!(compiled.segments().is_empty());
        assert_eq!(compiled.fork_points(), 0);
    }

    #[test]
    fn unmergeable_rotations_are_stepped_over() {
        // The deep rotation's sum with any of the others has no exact
        // dyadic form, so it stays put; the other three merge across it
        // and across the CZ on the same qubit (all four are diagonal).
        let deep = Angle::turn_over_power_of_two(133);
        let wide = -Angle::turn_over_power_of_two(126);
        let t = Angle::turn_over_power_of_two(3);
        assert!(deep.checked_add(wide).is_none());
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.phase(r[0], t);
        b.phase(r[0], deep);
        b.cz(r[0], r[1]);
        b.phase(r[0], wide);
        b.phase(r[0], t);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(
            gates(&compiled),
            [
                Gate::Phase(r[0], deep),
                Gate::Cz(r[0], r[1]),
                Gate::Phase(r[0], wide.checked_add(t).unwrap().checked_add(t).unwrap()),
            ]
        );
        assert_eq!(compiled.stats().merged, 2);
    }

    #[test]
    fn cancellation_reopens_the_gates_behind_the_pair() {
        // Once the inner CX pair cancels, the H pair around it is adjacent
        // again, and the diagonal behind the H wall becomes reachable.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.z(r[0]);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        b.cx(r[0], r[1]);
        b.h(r[0]);
        b.cz(r[1], r[0]);
        b.z(r[0]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(gates(&compiled), [Gate::Cz(r[1], r[0])]);
        assert_eq!(compiled.stats().cancelled, 6);
    }

    /// A soup angle: shallow multiples of an eighth of a turn, which merge
    /// and sum to zero, or deep `±2π/2^k` (k = 126..=133), whose sums
    /// [`Angle::checked_add`] often refuses.
    fn soup_angle(i: usize) -> Angle {
        let k = 126 + (i % 8) as u32;
        match i {
            0..=7 => Angle::from_fraction(i as u128, 3),
            8..=15 => Angle::turn_over_power_of_two(k),
            _ => -Angle::turn_over_power_of_two(k),
        }
    }

    /// Gate family `f` (one of the 11) on the leading operands of `q`;
    /// on two qubits the three-qubit families fall back to two-qubit ones.
    fn soup_gate(f: usize, q: &[u32], theta: Angle) -> Gate {
        let (a, b) = (QubitId(q[0]), QubitId(q[1]));
        let c = q.get(2).map(|&c| QubitId(c));
        match (f, c) {
            (0, _) => Gate::X(a),
            (1, _) => Gate::Z(a),
            (2, _) => Gate::H(a),
            (3, _) => Gate::Phase(a, theta),
            (4, _) | (8, None) => Gate::Cx(a, b),
            (5, _) | (9, None) => Gate::Cz(a, b),
            (6, _) => Gate::Swap(a, b),
            (8, Some(c)) => Gate::Ccx(a, b, c),
            (9, Some(c)) => Gate::Ccz(a, b, c),
            (10, Some(c)) => Gate::CcPhase(a, b, c, theta),
            _ => Gate::CPhase(a, b, theta),
        }
    }

    /// `g` again, its operands permuted wherever that keeps the unitary
    /// (symmetric gates, the Toffoli control pair) and rotations turned by
    /// `theta` instead.
    fn echo(g: Gate, theta: Angle) -> Gate {
        match g {
            Gate::Phase(a, _) => Gate::Phase(a, theta),
            Gate::Cz(a, b) => Gate::Cz(b, a),
            Gate::Swap(a, b) => Gate::Swap(b, a),
            Gate::CPhase(a, b, _) => Gate::CPhase(b, a, theta),
            Gate::Ccx(a, b, t) => Gate::Ccx(b, a, t),
            Gate::Ccz(a, b, c) => Gate::Ccz(c, a, b),
            Gate::CcPhase(a, b, c, _) => Gate::CcPhase(b, c, a, theta),
            other => other,
        }
    }

    /// Random gate soups on 2–6 qubits: fresh gates of all 11 families,
    /// echoes of recent gates (so partners meet across commuting gates),
    /// and measurements, resets and conditional blocks as barriers.
    fn gate_soup() -> impl proptest::Strategy<Value = Circuit> {
        use proptest::prelude::*;
        (2u32..=6)
            .prop_flat_map(|n| {
                let qubits: Vec<u32> = (0..n).collect();
                let draw = (0usize..11, Just(qubits.clone()).prop_shuffle(), 0usize..24);
                let item = (
                    0usize..40,
                    draw.clone(),
                    1usize..8,
                    collection::vec(draw, 1..4usize),
                );
                (Just(n), collection::vec(item, 0..80usize))
            })
            .prop_map(|(n, items)| {
                let mut ops = Vec::new();
                let mut recent: Vec<Gate> = Vec::new();
                for (kind, (f, q, a), back, body) in items {
                    let theta = soup_angle(a);
                    let (qubit, clbit) = (QubitId(q[0]), ClbitId((a % 2) as u32));
                    let op = match kind {
                        0..=21 => Op::Gate(soup_gate(f, &q, theta)),
                        22..=33 => match recent.len().checked_sub(back) {
                            Some(at) => Op::Gate(echo(recent[at], theta)),
                            None => Op::Gate(soup_gate(f, &q, theta)),
                        },
                        34 | 35 => {
                            let basis = if kind == 34 { Basis::Z } else { Basis::X };
                            Op::Measure {
                                qubit,
                                basis,
                                clbit,
                            }
                        }
                        36 => Op::Reset(qubit),
                        _ => Op::Conditional {
                            clbit,
                            ops: body
                                .iter()
                                .map(|(f, q, a)| Op::Gate(soup_gate(*f, q, soup_angle(*a))))
                                .collect(),
                        },
                    };
                    if let Op::Gate(g) = op {
                        recent.push(g);
                    }
                    ops.push(op);
                }
                Circuit::from_ops(n as usize, 2, ops)
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn profile_walk_matches_the_ordered_set_oracle(circuit in gate_soup()) {
            for config in [PassConfig::none(), PassConfig::default()] {
                let compiled = CompiledCircuit::with_config(&circuit, &config).unwrap();
                let want = crate::plan::oracle::segment_profiles(&compiled);
                proptest::prop_assert!(
                    compiled.segment_profiles() == want.as_slice(),
                    "{config:?} on\n{compiled}\nstamped: {:?}\nordered-set: {want:?}",
                    compiled.segment_profiles()
                );
            }
        }

        #[test]
        fn indexed_peephole_matches_the_rescan_oracle(circuit in gate_soup()) {
            // Each peephole pass alone, then the default and aggressive sets.
            let configs = [
                PassConfig { cancel_self_inverse: true, ..PassConfig::none() },
                PassConfig { merge_rotations: true, ..PassConfig::none() },
                PassConfig { remove_identities: true, ..PassConfig::none() },
                PassConfig::default(),
                PassConfig::aggressive(),
            ];
            for config in configs {
                let got = CompiledCircuit::with_config(&circuit, &config).unwrap();
                let want =
                    CompiledCircuit::with_peephole(&circuit, &config, oracle::run_passes).unwrap();
                proptest::prop_assert!(
                    got.instrs() == want.instrs() && got.stats() == want.stats(),
                    "{config:?} on\n{circuit}\nindexed:\n{got}\nrescan:\n{want}"
                );
            }
        }
    }

    #[test]
    fn gate_soups_reach_every_instruction_kind_under_default_passes() {
        use proptest::Strategy;
        use rand::SeedableRng;
        let soup = gate_soup();
        let mut rng = proptest::TestRng::seed_from_u64(7);
        // Fused blocks, branches (joins), measurements, resets, drops.
        let mut seen = [false; 5];
        for _ in 0..200 {
            let compiled = CompiledCircuit::compile(&soup.generate(&mut rng)).unwrap();
            for instr in compiled.instrs() {
                let kind = match instr {
                    Instr::Gate(_) => continue,
                    Instr::Fused(_) => 0,
                    Instr::BranchUnless { .. } => 1,
                    Instr::Measure { .. } => 2,
                    Instr::Reset(_) => 3,
                    Instr::Drop(_) => 4,
                };
                seen[kind] = true;
            }
        }
        assert_eq!(seen, [true; 5]);
    }

    /// A compiled program with a segment before, inside and after a
    /// guarded block, its recorded facts then altered by `tamper`: what
    /// `verify()` reports, next to the untouched program.
    fn verify_tampered(
        tamper: impl FnOnce(&mut CompiledCircuit),
    ) -> (CompiledCircuit, Vec<Finding>) {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.h(r[0]);
        b.ccx(r[0], r[1], r[2]);
        let m = b.measure(r[2], Basis::Z);
        let (_, fix) = b.record(|b| b.cz(r[0], r[1]));
        b.emit_conditional(m, &fix);
        b.cx(r[0], r[1]);
        let clean = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(clean.verify(), Ok(()));
        assert_eq!(clean.stats.segments, 3, "{clean}");
        let mut tampered = clean.clone();
        tamper(&mut tampered);
        let findings = tampered.verify().unwrap_err().findings().to_vec();
        (clean, findings)
    }

    #[test]
    fn verify_catches_a_drifted_segment_count() {
        let (clean, findings) = verify_tampered(|c| c.stats.segments += 1);
        let actual = clean.stats.segments as u64;
        assert_eq!(
            findings,
            [Finding::StatsMismatch {
                field: "segments",
                recorded: actual + 1,
                actual,
            }]
        );
    }

    #[test]
    fn verify_catches_a_drifted_stored_profile() {
        let (clean, findings) = verify_tampered(|c| c.profiles[1].support_width += 1);
        let rederived = clean.profiles[1];
        let recorded = SegmentProfile {
            support_width: rederived.support_width + 1,
            ..rederived
        };
        assert_eq!(
            findings,
            [Finding::PlanIncoherent {
                segment: 1,
                why: format!("recorded profile ({recorded}) != re-derived profile ({rederived})"),
            }]
        );
    }

    #[test]
    fn verify_catches_a_drifted_plan_tally() {
        let (clean, findings) = verify_tampered(|c| c.stats.planned_sparse += 1);
        let actual = clean.stats.planned_sparse as u64;
        assert_eq!(
            findings,
            [Finding::StatsMismatch {
                field: "planned_sparse",
                recorded: actual + 1,
                actual,
            }]
        );
    }

    #[test]
    fn gate_soups_exercise_every_peephole_counter() {
        use proptest::Strategy;
        use rand::SeedableRng;
        let soup = gate_soup();
        let mut rng = proptest::TestRng::seed_from_u64(7);
        let mut total = PassStats::default();
        for _ in 0..200 {
            let circuit = soup.generate(&mut rng);
            let s = *CompiledCircuit::with_config(&circuit, &PassConfig::aggressive())
                .unwrap()
                .stats();
            total.cancelled += s.cancelled;
            total.merged += s.merged;
            total.identities_removed += s.identities_removed;
            total.phase_dead_removed += s.phase_dead_removed;
        }
        assert!(total.cancelled > 0, "{total:?}");
        assert!(total.merged > 0, "{total:?}");
        assert!(total.identities_removed > 0, "{total:?}");
        assert!(total.phase_dead_removed > 0, "{total:?}");
    }
}
