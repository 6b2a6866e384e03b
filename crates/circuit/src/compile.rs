//! Circuit compilation: lowering to a flat instruction stream, gate fusion,
//! dead-qubit reclamation and phase-gradient packing.
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
//! The pipeline is `lower → fusion → reclamation → packing → execute`:
//!
//! 1. **lower** — [`CompiledCircuit::lower`] validates the circuit and
//!    flattens nested conditionals into branch instructions. No gate is
//!    added, removed or reordered: a lowered program executes the exact same
//!    operation sequence as the interpreted tree walk, though not one
//!    instruction per gate (see packing below).
//! 2. **fusion** (on by default, see [`PassConfig::fuse_max_qubits`]) —
//!    [`CompiledCircuit::compile`] (or [`CompiledCircuit::with_config`]
//!    for explicit [`PassConfig`] control) merges maximal runs of adjacent
//!    gates whose combined support fits in `k ≤ `[`MAX_FUSED_QUBITS`]
//!    qubits into dense `2^k × 2^k` [`Instr::Fused`] unitaries
//!    ([`FusedUnitary`]), so an amplitude backend applies the whole run in
//!    **one sweep** over the state instead of one sweep per gate.
//!    Executors apply the block in factored form, with per-amplitude
//!    arithmetic identical to the unfused stream.
//! 3. **reclamation** (on by default, see
//!    [`PassConfig::reclaim_dead_qubits`]) — a liveness analysis that
//!    emits [`Instr::Drop`] for every qubit that was measured or reset and
//!    is never touched again, so compacting backends (the state vector) can
//!    release the qubit mid-run and halve their live amplitude array per
//!    drop — the paper's early-ancilla-release payoff made concrete in the
//!    execution engine.
//!
//!    Both passes record what they did in [`PassStats`].
//! 4. **packing** — the last stage of every compile, including
//!    [`lower`](CompiledCircuit::lower), so no [`PassConfig`] field
//!    switches it: each maximal run of at least two consecutive
//!    `CPhase(c_j, t, ±2π/2^{k_j})` gates on one target,
//!    with one sign and pairwise distinct `k_j` (a QFT, IQFT or ΦADD
//!    column), becomes one [`Instr::Gradient`] over a compact
//!    [`PhaseGradient`] (8 bytes a term). It adds, removes and reorders no
//!    gate: [`PhaseGradient::gates`] re-derives the run. The phase
//!    accumulator applies a gradient on a Fourier-mode target as one
//!    multi-word addition per branch; every other executor replays it.
//! 5. **execute** — the `mbu-sim` crate runs compiled programs through
//!    `Simulator::run_compiled`, and its `ShotRunner` lowers once and
//!    shares the immutable program across all shot worker threads.
//!
//! No stage adds, removes or reorders a gate, and none crosses a
//! *barrier* (measurements, resets, branch instructions and branch join
//! points), so every compile is bit-exact to [`CompiledCircuit::lower`] on
//! every backend: the same classical records, the same executed gate
//! counts and the same amplitude bits. The one reading that differs is
//! that of a dropped qubit on the dense engine, which projects it out:
//! the rounding residue its dead branch may hold (below `1e-10` in
//! amplitude) reads as an exact zero.
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

use std::collections::HashSet;
use std::fmt;

use crate::angle::Angle;
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
    /// outcomes, RNG consumption, executed counts and final state, save
    /// the rounding residue (below `1e-10` in amplitude) the projection
    /// discards from the qubit's dead branch.
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
    /// Apply the phase gradient stored at this index of the program's
    /// gradient table ([`CompiledCircuit::gradients`]): a run of
    /// `CPhase(c_j, t, ±2π/2^{k_j})` gates on one target `t`, with one
    /// sign and pairwise distinct `k_j`, which the packing step folded
    /// into one instruction. On a Fourier-mode target its effect is
    /// `φ_t ± Σ_j bit(c_j)·2^{-k_j}`: one multi-word addition.
    ///
    /// Executors without that closed form replay the constituent gates
    /// ([`PhaseGradient::gates`]); either way the executed gate tally
    /// records every constituent.
    Gradient(u32),
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
/// with arithmetic *bit-identical* to unfused execution: kernels apply
/// the factors to each gathered `2^k`-amplitude group in one pass over
/// the state.
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
}

/// A phase-gradient cascade: the `CPhase(c_j, t, ±2π/2^{k_j})` gates of
/// one QFT, IQFT or ΦADD column, stored as one `(control, k)` term (8
/// bytes) per gate instead of one [`Instr`] each.
///
/// The terms keep program order, so [`gates`](Self::gates) re-derives the
/// exact gates the packing step replaced. Every term shares the target
/// and the sign. The packing step only emits gradients of at least two
/// terms, with pairwise distinct `k ≥ 1` and the target outside the
/// controls; the static verifier checks all of that.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhaseGradient {
    target: QubitId,
    negative: bool,
    terms: Vec<(QubitId, u32)>,
}

impl PhaseGradient {
    /// A gradient on `target` with the given `(control, k)` terms: each
    /// stands for `CPhase(control, target, ±2π/2^k)`, with `−` when
    /// `negative` is set. Not validated: the packing step only builds
    /// well-formed gradients, and [`validate`](crate::validate) checks a
    /// hand-assembled one.
    #[must_use]
    pub fn new(target: QubitId, negative: bool, terms: Vec<(QubitId, u32)>) -> Self {
        Self {
            target,
            negative,
            terms,
        }
    }

    /// The qubit every term rotates.
    #[must_use]
    pub fn target(&self) -> QubitId {
        self.target
    }

    /// Whether every term rotates by `−2π/2^k` rather than `+2π/2^k`.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// The `(control, k)` terms, in program order.
    #[must_use]
    pub fn terms(&self) -> &[(QubitId, u32)] {
        &self.terms
    }

    /// The angle of a term with exponent `k`: `±2π/2^k` in canonical form.
    fn angle(&self, k: u32) -> Angle {
        let theta = Angle::turn_over_power_of_two(k);
        if self.negative {
            -theta
        } else {
            theta
        }
    }

    /// The constituent `CPhase` gates, in application order — what
    /// executors without the closed form replay.
    pub fn gates(&self) -> impl Iterator<Item = Gate> + '_ {
        self.terms
            .iter()
            .map(|&(c, k)| Gate::CPhase(c, self.target, self.angle(k)))
    }
}

/// Which passes [`CompiledCircuit::with_config`] runs.
///
/// Every pass is exact: it adds, removes and reorders no gate, so a
/// program compiled under any configuration produces the same classical
/// records, executed gate counts and amplitude bits as
/// [`CompiledCircuit::lower`], save the rounding residue (below `1e-10`
/// in amplitude) that a drop on the dense engine reads as an exact zero.
/// The default configuration
/// ([`PassConfig::default`], used by [`CompiledCircuit::compile`]) enables
/// both passes; [`PassConfig::none`] disables them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PassConfig {
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
            reclaim_dead_qubits: false,
            fuse_max_qubits: 0,
        }
    }
}

/// Per-pass statistics of one compilation.
///
/// The four removal counters ([`cancelled`](Self::cancelled),
/// [`merged`](Self::merged), [`identities_removed`](Self::identities_removed)
/// and [`phase_dead_removed`](Self::phase_dead_removed)) and
/// [`removed`](Self::removed) always read 0: no pass removes a gate. They
/// stay only until the benchmark driver (`perfbench/`) stops reading them,
/// and [`Display`](fmt::Display) leaves them out.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassStats {
    /// Instructions in the stream right after lowering, before any pass.
    pub lowered_instrs: usize,
    /// Always 0: no pass cancels gates.
    pub cancelled: u64,
    /// Always 0: no pass merges rotations.
    pub merged: u64,
    /// Always 0: no pass drops zero-angle rotations.
    pub identities_removed: u64,
    /// Always 0: no pass drops phase-dead gates.
    pub phase_dead_removed: u64,
    /// Qubits for which the liveness pass emitted an [`Instr::Drop`]:
    /// measured (or reset) at some point and never touched afterwards.
    pub dead_qubits_reclaimed: u64,
    /// Dense [`Instr::Fused`] blocks emitted by the gate-fusion pass.
    pub fused_blocks: u64,
    /// Gates absorbed into fused blocks (each emitted block absorbs at
    /// least two).
    pub fused_gates: u64,
    /// [`Instr::Gradient`] instructions emitted by the packing step,
    /// which runs in every compile.
    pub gradients: u64,
    /// `CPhase` gates absorbed into gradients (each gradient absorbs at
    /// least two).
    pub gradient_gates: u64,
    /// Instructions in the final program.
    pub emitted_instrs: usize,
    /// Deterministic segments in the final program: maximal runs of
    /// unitary instructions between non-unitary barriers
    /// (measurement/reset/drop/branch) and branch join points. See
    /// [`CompiledCircuit::segments`].
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
    /// Total instructions removed by all passes: always 0.
    #[must_use]
    pub fn removed(&self) -> u64 {
        self.cancelled + self.merged + self.identities_removed + self.phase_dead_removed
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lowered {} instrs; reclaimed {}, fused {} gates into {} blocks, \
             packed {} CPhase into {} gradients; emitted {} \
             ({} segments, {} fork points; planned {} dense / {} sparse / {} phase)",
            self.lowered_instrs,
            self.dead_qubits_reclaimed,
            self.fused_gates,
            self.fused_blocks,
            self.gradient_gates,
            self.gradients,
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
/// [`CompiledCircuit::compile`] (the default passes) or
/// [`CompiledCircuit::with_config`]; all three run bit-exactly alike on
/// every backend, save the rounding residue a dense-engine drop zeroes.
/// Compilation validates the circuit, so
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
    /// Phase gradients referenced by [`Instr::Gradient`] indices.
    gradients: Vec<PhaseGradient>,
    /// One profile per deterministic segment, in program order.
    profiles: Vec<SegmentProfile>,
    stats: PassStats,
}

impl CompiledCircuit {
    /// Lowers `circuit` to a flat instruction stream without running any
    /// pass. The lowered program executes the exact operation sequence of
    /// the interpreted tree walk; the packing step still folds its `CPhase`
    /// cascades into [`Instr::Gradient`]s, which re-derive the same gates.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found by
    /// [`Circuit::validate`] — compiled programs are always well-formed.
    pub fn lower(circuit: &Circuit) -> Result<Self, CircuitError> {
        Self::with_config(circuit, &PassConfig::none())
    }

    /// Lowers `circuit` and runs the default passes: gate fusion and
    /// dead-qubit reclamation. Neither adds, removes or reorders a gate,
    /// so the program runs bit-exactly like [`lower`](Self::lower)'s on
    /// every backend — the same classical records, executed gate counts
    /// and amplitude bits, save the rounding residue (below `1e-10` in
    /// amplitude) that a drop on the dense engine reads as an exact zero.
    /// The passes change only how a backend may apply the program: a
    /// fused block in one sweep of a dense state, a drop as an early
    /// release of a measured qubit.
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
        crate::verify::expect_valid_stage("lower", nq, nc, &instrs, &[], &[])?;
        let mut stats = PassStats {
            lowered_instrs: instrs.len(),
            ..PassStats::default()
        };
        let mut fused = Vec::new();
        if config.fuse_max_qubits > 0 {
            (instrs, fused) = fuse_gates(instrs, config.fuse_max_qubits, &mut stats);
            crate::verify::expect_valid_stage("fusion", nq, nc, &instrs, &fused, &[])?;
        }
        if config.reclaim_dead_qubits {
            instrs = reclaim_dead_qubits(instrs, circuit.num_qubits(), &mut stats, &fused);
            crate::verify::expect_valid_stage("reclamation", nq, nc, &instrs, &fused, &[])?;
        }
        let gradients;
        (instrs, gradients) = pack_gradients(instrs, &mut stats);
        crate::verify::expect_valid_stage("packing", nq, nc, &instrs, &fused, &gradients)?;
        stats.emitted_instrs = instrs.len();
        let profiles = crate::plan::profile_segments(&instrs, &fused, &gradients, nq);
        let mut compiled = Self {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            instrs,
            fused,
            gradients,
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

    /// The phase gradients the packing step emitted, indexed by
    /// [`Instr::Gradient`] payloads.
    #[must_use]
    pub fn gradients(&self) -> &[PhaseGradient] {
        &self.gradients
    }

    /// The instruction stream and the gradient table, writable and
    /// unchecked: a seam for tests of the static verifier and of the
    /// executors' admission gate, which must see malformed programs. A
    /// program edited through it may fail [`verify`](Self::verify), and
    /// executors may panic on it unless that gate is armed.
    #[doc(hidden)]
    pub fn raw_parts_mut(&mut self) -> (&mut [Instr], &mut [PhaseGradient]) {
        (&mut self.instrs, &mut self.gradients)
    }

    /// What the passes did to this program.
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
                Instr::Gradient(idx) => {
                    for g in self.gradients[*idx as usize].gates() {
                        counts.record_gate(&g);
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
    /// *unitary* instructions ([`Instr::Gate`] / [`Instr::Fused`] /
    /// [`Instr::Gradient`]) cut at every non-unitary barrier (measurement,
    /// reset, drop, branch) and at every branch join target.
    ///
    /// Two properties hold by construction:
    ///
    /// * **determinism** — a segment contains no instruction that consumes
    ///   randomness or classical state, so its effect on a given input
    ///   state is a fixed unitary;
    /// * **alignment** — every program point the executor can land on (the
    ///   instruction after a barrier, or a branch's join target) is a
    ///   segment start, so a program-counter walk always enters segments
    ///   at their beginning.
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
    /// classical record, so the outcome tree has at most `2^fork_points`
    /// leaves, and a shot replayed over the outcome DAG draws at most
    /// `fork_points` times.
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
/// [`Instr::Fused`] / [`Instr::Gradient`]). Produced by
/// [`CompiledCircuit::segments`].
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
                Instr::Gradient(idx) => {
                    let pg = &self.gradients[*idx as usize];
                    let op = if pg.is_negative() { "-=" } else { "+=" };
                    write!(
                        f,
                        "{pc:5}: {:indent$}gradient[{idx}] {} {op}",
                        "",
                        pg.target()
                    )?;
                    for (c, k) in pg.terms() {
                        write!(f, " {c}/2^{k}")?;
                    }
                    writeln!(f, " ({} gates)", pg.terms().len())?;
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
/// Fusion never crosses a barrier (measurement, reset, drop, branch or
/// branch join), and it never reorders gates — only contiguous runs
/// merge, so each block's product unitary is exactly the program's. Blocks that would not save array traffic (summed
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
            Instr::Gradient(_) => unreachable!("packing runs after reclamation"),
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

/// The exponent `k ≥ 1` of a `CPhase` angle `±2π/2^k`, with its sign
/// (`Some(true)` for the negative angle). Both canonical forms of the
/// negative angle count: the positive complement `1 − 2^{-k}` up to
/// `k = 128` and [`Angle`]'s negated form past it. A half turn (`k = 1`)
/// is its own negative, so its sign is `None` and it joins a run of
/// either sign.
fn gradient_term(theta: Angle) -> Option<(u32, Option<bool>)> {
    let (num, k) = (theta.numerator(), theta.log2_denom());
    if theta.is_negated() {
        (num == 1).then_some((k, Some(true)))
    } else if num == 1 {
        Some((k, (k > 1).then_some(false)))
    } else if (2..=128).contains(&k) && num == u128::MAX >> (128 - k) {
        Some((k, Some(true)))
    } else {
        None
    }
}

/// The packing step, the last stage of every compile: each maximal run of
/// at least two consecutive `CPhase(c_j, t, ±2π/2^{k_j})` gates that
/// share the target `t` (the second operand) and the sign, with pairwise
/// distinct `k_j`, becomes one [`Instr::Gradient`] over a
/// [`PhaseGradient`] appended to the returned table. Every QFT, IQFT and
/// ΦADD column is such a run. Any other instruction ends a run, and so
/// does a join barrier, so a gradient never spans a barrier, a fused
/// block or a branch's join target; branch skips are recomputed over the
/// packed stream. A stream with no two adjacent `CPhase` gates comes back
/// as it went in, without a copy.
fn pack_gradients(instrs: Vec<Instr>, stats: &mut PassStats) -> (Vec<Instr>, Vec<PhaseGradient>) {
    let is_cphase = |i: &Instr| matches!(i, Instr::Gate(Gate::CPhase(..)));
    if !instrs
        .windows(2)
        .any(|w| is_cphase(&w[0]) && is_cphase(&w[1]))
    {
        return (instrs, Vec::new());
    }
    let barrier = join_barriers(&instrs);
    let mut slots: Vec<Option<Instr>> = instrs.into_iter().map(Some).collect();
    let mut table = Vec::new();
    // The open run: its first slot, its target, its terms so far (empty:
    // no run is open), its sign once a term other than a half turn fixed
    // it, and its exponents.
    let mut head = 0usize;
    let mut target = QubitId(0);
    let mut terms: Vec<(QubitId, u32)> = Vec::new();
    let mut sign: Option<bool> = None;
    let mut seen: HashSet<u32> = HashSet::new();
    for (pc, &at_join) in barrier.iter().enumerate() {
        let term = match slots.get(pc) {
            Some(Some(Instr::Gate(Gate::CPhase(c, t, theta)))) => {
                gradient_term(*theta).map(|(k, s)| (*c, *t, k, s))
            }
            _ => None,
        };
        if let Some((c, t, k, s)) = term {
            let same_sign = match (s, sign) {
                (Some(s), Some(run)) => s == run,
                _ => true,
            };
            if !terms.is_empty() && !at_join && t == target && same_sign && seen.insert(k) {
                terms.push((c, k));
                sign = sign.or(s);
                continue;
            }
        }
        let len = terms.len();
        if len >= 2 {
            let idx = u32::try_from(table.len()).expect("gradient table fits u32 indices");
            slots[head] = Some(Instr::Gradient(idx));
            slots[head + 1..head + len].fill(None);
            // A clone is allocated at its exact length: the program keeps
            // its gradients for as long as it lives.
            table.push(PhaseGradient::new(
                target,
                sign == Some(true),
                terms.clone(),
            ));
            stats.gradients += 1;
            stats.gradient_gates += len as u64;
        }
        terms.clear();
        if let Some((c, t, k, s)) = term {
            head = pc;
            target = t;
            terms.push((c, k));
            sign = s;
            seen.clear();
            seen.insert(k);
        }
    }
    table.shrink_to_fit();
    (compact_slots(&slots), table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::Angle;
    use crate::builder::CircuitBuilder;
    use crate::verify::{Finding, ProgramView};

    fn q(i: u32) -> QubitId {
        QubitId(i)
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
    fn measurements_are_barriers() {
        // `H`, `CX` is the Bell shape that fuses; a measurement between the
        // two, even of another qubit, keeps both plain.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.h(r[0]);
        b.measure(r[2], Basis::Z);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 0, "{compiled}");
        assert_eq!(compiled.counts().h + compiled.counts().cx, 2);
    }

    #[test]
    fn branch_joins_are_barriers() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        let m = b.measure(r[2], Basis::Z);
        let (_, block) = b.record(|b| b.h(r[0]));
        b.emit_conditional(m, &block);
        b.cx(r[0], r[1]); // runs on every path; must not fuse with the guarded H
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 0, "{compiled}");
        assert!(matches!(
            compiled.instrs().last(),
            Some(Instr::Gate(Gate::Cx(..)))
        ));
    }

    #[test]
    fn passes_inside_conditional_bodies_still_run() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        let m = b.measure(r[2], Basis::Z);
        let (_, block) = b.record(|b| {
            b.h(r[0]);
            b.cx(r[0], r[1]);
        });
        b.emit_conditional(m, &block);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        // Measure, drop q2, then the branch over the one fused block.
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        assert!(matches!(
            compiled.instrs(),
            [
                Instr::Measure { .. },
                Instr::Drop(_),
                Instr::BranchUnless { skip: 1, .. },
                Instr::Fused(0)
            ]
        ));
    }

    #[test]
    fn stats_roundtrip_and_display() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        b.measure(r[1], Basis::Z);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        let stats = compiled.stats();
        assert_eq!(stats.lowered_instrs, 3);
        // The fused block, the measurement and the drop of q1.
        assert_eq!(stats.emitted_instrs, 3);
        assert_eq!((stats.fused_blocks, stats.fused_gates), (1, 2));
        assert_eq!(stats.dead_qubits_reclaimed, 1);
        assert_eq!(stats.removed(), 0);
        let dump = compiled.to_string();
        assert!(
            dump.contains(
                "lowered 3 instrs; reclaimed 1, fused 2 gates into 1 blocks, \
                 packed 0 CPhase into 0 gradients; emitted 3 "
            ),
            "{dump}"
        );
        assert!(dump.contains("fused[0] q0 q1 (2 gates)"), "{dump}");
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

        // The Bell-pair preparation H; CX is one block too.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
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

    /// A soup angle: shallow multiples of an eighth of a turn, or deep
    /// `±2π/2^k` (k = 126..=133); the half turn and the deep ones are
    /// gradient terms.
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
    /// echoes of recent gates (so equal gates meet across others), and
    /// measurements, resets and conditional blocks as barriers.
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
        fn every_compile_keeps_the_lowered_stream(circuit in gate_soup()) {
            // Fused blocks and gradients replayed, drops left out: each
            // pass configuration emits the lowered gates in their order.
            let lowered = flat(&circuit);
            let configs = [
                PassConfig::default(),
                PassConfig { reclaim_dead_qubits: false, fuse_max_qubits: 3 },
                PassConfig { reclaim_dead_qubits: true, fuse_max_qubits: 0 },
                PassConfig { reclaim_dead_qubits: true, fuse_max_qubits: MAX_FUSED_QUBITS },
            ];
            for config in configs {
                let compiled = CompiledCircuit::with_config(&circuit, &config).unwrap();
                let replayed =
                    unpack(compiled.instrs(), compiled.fused_unitaries(), compiled.gradients());
                proptest::prop_assert!(replayed == lowered, "{config:?} on\n{compiled}");
                proptest::prop_assert_eq!(compiled.stats().removed(), 0);
            }
        }

        #[test]
        fn packing_round_trips_to_valid_maximal_gradients(circuit in gate_soup()) {
            let lowered = flat(&circuit);
            let mut stats = PassStats::default();
            let (packed, table) = pack_gradients(lowered.clone(), &mut stats);
            proptest::prop_assert_eq!(unpack(&packed, &[], &table), lowered);
            let view = ProgramView::new(circuit.num_qubits(), circuit.num_clbits(), &packed, &[])
                .with_gradients(&table);
            let findings = crate::verify::validate(&view);
            proptest::prop_assert!(findings.is_empty(), "{findings:?}");
            proptest::prop_assert!(table.iter().all(|g| g.terms().len() >= 2));
            proptest::prop_assert_eq!(stats.gradients, table.len() as u64);
            proptest::prop_assert_eq!(
                stats.gradient_gates,
                table.iter().map(|g| g.terms().len() as u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn gate_soups_reach_every_instruction_kind_under_default_passes() {
        use proptest::Strategy;
        use rand::SeedableRng;
        let soup = gate_soup();
        let mut rng = proptest::TestRng::seed_from_u64(7);
        // Fused blocks, branches (joins), measurements, resets, drops,
        // gradients.
        let mut seen = [false; 6];
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
                    Instr::Gradient(_) => 5,
                };
                seen[kind] = true;
            }
        }
        assert_eq!(seen, [true; 6]);
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

    /// `instrs` with every fused block and gradient replayed as its gates,
    /// every drop left out and the branch skips stretched to match: the
    /// lowered stream before packing.
    fn unpack(instrs: &[Instr], fused: &[FusedUnitary], table: &[PhaseGradient]) -> Vec<Instr> {
        let width = |i: &Instr| match i {
            Instr::Fused(idx) => fused[*idx as usize].gates().len(),
            Instr::Gradient(idx) => table[*idx as usize].terms().len(),
            Instr::Drop(_) => 0,
            _ => 1,
        };
        // starts[pc]: where instruction `pc` lands in the unpacked stream.
        let mut starts = vec![0usize; instrs.len() + 1];
        for (pc, i) in instrs.iter().enumerate() {
            starts[pc + 1] = starts[pc] + width(i);
        }
        let mut out = Vec::with_capacity(starts[instrs.len()]);
        for (pc, i) in instrs.iter().enumerate() {
            match i {
                Instr::Fused(idx) => {
                    out.extend(fused[*idx as usize].global_gates().map(Instr::Gate));
                }
                Instr::Gradient(idx) => {
                    out.extend(table[*idx as usize].gates().map(Instr::Gate));
                }
                Instr::Drop(_) => {}
                Instr::BranchUnless { clbit, skip } => {
                    let join = pc + 1 + *skip as usize;
                    let skip = u32::try_from(starts[join] - starts[pc + 1]).unwrap();
                    out.push(Instr::BranchUnless {
                        clbit: *clbit,
                        skip,
                    });
                }
                other => out.push(*other),
            }
        }
        out
    }

    fn flat(circuit: &Circuit) -> Vec<Instr> {
        let mut instrs = Vec::new();
        flatten(circuit.ops(), &mut instrs);
        instrs
    }

    #[test]
    fn packing_folds_each_qft_column_into_one_gradient() {
        // A 5-qubit QFT and IQFT: columns of 1 to 4 `CPhase` gates.
        let m = 5;
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", m);
        let k = |i: usize, j: usize| Angle::turn_over_power_of_two((i - j + 1) as u32);
        for i in (0..m).rev() {
            b.h(r[i]);
            for j in (0..i).rev() {
                b.cphase(r[j], r[i], k(i, j));
            }
        }
        for i in 0..m {
            for j in 0..i {
                b.cphase(r[j], r[i], -k(i, j));
            }
            b.h(r[i]);
        }
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        // The columns of 2, 3 and 4 gates pack in both transforms; the
        // one-gate column stays a gate.
        let stats = lowered.stats();
        assert_eq!(
            (stats.gradients, stats.gradient_gates),
            (6, 18),
            "{lowered}"
        );
        assert_eq!(stats.lowered_instrs, 30);
        assert_eq!(stats.emitted_instrs, 10 + 2 + 6);
        let first = &lowered.gradients()[0];
        assert_eq!(first.target(), r[4]);
        assert!(!first.is_negative());
        assert_eq!(first.terms(), [(r[3], 2), (r[2], 3), (r[1], 4), (r[0], 5)]);
        assert!(lowered.gradients()[5].is_negative());
        // Nothing added, removed or reordered.
        assert_eq!(
            unpack(lowered.instrs(), &[], lowered.gradients()),
            flat(&circuit)
        );
        assert_eq!(lowered.counts(), circuit.counts());
        let dump = lowered.to_string();
        assert!(
            dump.contains("gradient[0] q4 += q3/2^2 q2/2^3 q1/2^4 q0/2^5 (4 gates)"),
            "{dump}"
        );
        assert!(dump.contains("gradient[5] q4 -= q0/2^5"), "{dump}");
        assert!(dump.contains("packed 18 CPhase into 6 gradients"), "{dump}");
    }

    #[test]
    fn packing_stops_at_targets_signs_repeats_angles_and_joins() {
        let t = Angle::turn_over_power_of_two;
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 6);
        let m = b.measure(r[5], Basis::Z);
        // Both canonical forms of a negative angle, and a half turn, which
        // joins a run of either sign.
        b.cphase(r[0], r[4], -t(200));
        b.cphase(r[1], r[4], -t(128));
        b.cphase(r[2], r[4], t(1));
        b.cphase(r[3], r[4], -t(3));
        // A repeated exponent opens a new run...
        b.cphase(r[0], r[4], -t(3));
        b.cphase(r[1], r[4], -t(4));
        // ...and so do a sign change...
        b.cphase(r[2], r[4], t(5));
        b.cphase(r[3], r[4], t(6));
        // ...and a new target (the second operand).
        b.cphase(r[4], r[3], t(7));
        b.cphase(r[0], r[3], t(8));
        // A run inside a guarded block ends at its join.
        let (_, body) = b.record(|b| {
            b.cphase(r[1], r[3], t(9));
            b.cphase(r[2], r[3], t(10));
        });
        b.emit_conditional(m, &body);
        b.cphase(r[0], r[3], t(11));
        // An angle that is not ±2π/2^k ends a run too.
        b.cphase(r[1], r[3], Angle::from_fraction(3, 4));
        b.cphase(r[2], r[3], t(12));
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        assert_eq!(
            lowered.gradients(),
            [
                PhaseGradient::new(
                    r[4],
                    true,
                    vec![(r[0], 200), (r[1], 128), (r[2], 1), (r[3], 3)]
                ),
                PhaseGradient::new(r[4], true, vec![(r[0], 3), (r[1], 4)]),
                PhaseGradient::new(r[4], false, vec![(r[2], 5), (r[3], 6)]),
                PhaseGradient::new(r[3], false, vec![(r[4], 7), (r[0], 8)]),
                PhaseGradient::new(r[3], false, vec![(r[1], 9), (r[2], 10)]),
            ],
            "{lowered}"
        );
        // Measure, four gradients, the branch over the fifth, three gates.
        assert_eq!(lowered.instrs().len(), 10, "{lowered}");
        assert!(matches!(
            lowered.instrs()[5],
            Instr::BranchUnless { skip: 1, .. }
        ));
        assert_eq!(
            unpack(lowered.instrs(), &[], lowered.gradients()),
            flat(&circuit)
        );
        assert_eq!(lowered.verify(), Ok(()));
    }

    #[test]
    fn packing_leaves_a_stream_without_a_cphase_pair_in_place() {
        let theta = Angle::turn_over_power_of_two(3);
        let instrs = vec![
            Instr::Gate(Gate::CPhase(q(0), q(1), theta)),
            Instr::Gate(Gate::H(q(1))),
            Instr::Gate(Gate::CPhase(q(0), q(1), theta)),
        ];
        let at = instrs.as_ptr();
        let mut stats = PassStats::default();
        let (out, table) = pack_gradients(instrs, &mut stats);
        assert_eq!(out.as_ptr(), at, "no copy");
        assert_eq!(out.len(), 3);
        assert!(table.is_empty());
        assert_eq!(stats, PassStats::default());
    }

    #[test]
    fn verify_catches_trivial_gradients_and_drifted_gradient_tallies() {
        let t = Angle::turn_over_power_of_two;
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.cphase(r[0], r[2], t(2));
        b.cphase(r[1], r[2], t(3));
        let clean = CompiledCircuit::lower(&b.finish()).unwrap();
        assert_eq!(clean.stats().gradients, 1);

        let mut drifted = clean.clone();
        drifted.stats.gradients += 1;
        drifted.stats.gradient_gates -= 1;
        assert_eq!(
            drifted.verify().unwrap_err().findings(),
            [
                Finding::StatsMismatch {
                    field: "gradients",
                    recorded: 2,
                    actual: 1,
                },
                Finding::StatsMismatch {
                    field: "gradient_gates",
                    recorded: 1,
                    actual: 2,
                },
            ]
        );

        let mut trivial = clean.clone();
        trivial.gradients[0].terms.truncate(1);
        let findings = trivial.verify().unwrap_err().findings().to_vec();
        assert_eq!(
            findings[0],
            Finding::GradientTrivial {
                gradient: 0,
                terms: 1
            }
        );
    }
}
