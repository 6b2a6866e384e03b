//! Static verification of compiled programs: a linear IR validator and a
//! symbolic equivalence checker, both running *without* simulating a
//! single amplitude.
//!
//! The compile pipeline stacks seven semantics-critical stages (peephole
//! cancellation/merging, dense-block fusion, permutation-run fusion,
//! liveness/`Drop` reclamation, phase-gradient packing, segmentation,
//! representation planning).
//! The paper's contribution — measurement-based uncomputation is *exactly*
//! equivalent to unitary uncomputation — makes a miscompile that silently
//! drops a phase correction or reorders a `Drop` past a live use the worst
//! possible bug class, and differential simulation cannot pin it at the
//! cryptographic widths (n = 64…1024) the circuits target. This module
//! proves compiles safe statically, in two layers:
//!
//! # Layer 1 — the IR validator
//!
//! [`validate`] is a linear well-formedness checker over any instruction
//! stream (wrapped in a [`ProgramView`]), and
//! [`CompiledCircuit::verify`] additionally cross-checks a finished
//! program against its own [`PassStats`](crate::PassStats) and
//! representation plan. It checks:
//!
//! * operand ranges and duplicate operands, for plain gates and for the
//!   local operands inside fused blocks;
//! * branch target validity and well-nestedness of guarded regions;
//! * fused-block table consistency: sorted support, width caps
//!   ([`MAX_FUSED_QUBITS`] dense / [`MAX_PERM_FUSED_QUBITS`] permutation),
//!   local indices in range, and — at the program level — the
//!   block/constituent tallies recorded in the stats;
//! * gradient table consistency: [`Instr::Gradient`] indices in range,
//!   target and controls inside the register, the target outside its
//!   controls, pairwise distinct exponents, and — at the program level —
//!   at least two terms per gradient and the gradient/constituent
//!   tallies recorded in the stats;
//! * `Drop` safety via a def-use dataflow walk: no instruction touches a
//!   qubit after its `Drop`, every dropped qubit was collapsed (measured
//!   or reset) beforehand, and drops sit at guard depth zero — exactly
//!   the invariants the reclamation pass promises;
//! * segment-profile and plan coherence: the verifier re-derives every
//!   [`SegmentProfile`] with its own independent walk and re-checks that
//!   each segment the planner mapped to
//!   [`PlannedRepr::Phase`](crate::PlannedRepr) really has the
//!   diagonal-heavy structure ([`SegmentProfile::phase_suitable`]) the
//!   plan claims.
//!
//! Under the `careful` profile (more precisely: whenever
//! `debug_assertions` are on, which the workspace's `careful` profile
//! enables on top of release codegen), [`CompiledCircuit::with_config`]
//! runs the validator automatically after **every** pipeline stage and
//! fails the compile with
//! [`CircuitError::VerificationFailed`] on the first finding — a compiler
//! bug surfaces at the pass that introduced it, not at execution time. In
//! plain release builds the checks are skipped and the program's stats
//! record [`verify_skipped`](crate::PassStats::verify_skipped) instead.
//!
//! # Layer 2 — the symbolic equivalence checker
//!
//! [`check_equivalence`] proves a pre-pass and a post-pass stream equal as
//! state functions. The abstract domain is the one the backends already
//! exploit: compiled differences are tracked as one small **difference
//! operator** `D = (pre prefix) · (post prefix)†` over the few qubits on
//! which the streams currently disagree, with entries in the exact ring
//! `Z[e^{2πiθ}, 1/√2]` of dyadic phases ([`Angle`]) and half-powers of
//! two. Identical gate fronts whose operands avoid `D`'s support pop in
//! O(1); everything else is absorbed into `D` by exact symbolic matrix
//! update, and `D` is pruned back to its minimal support after every
//! step. Non-unitary instructions are hard barriers: both streams must
//! present the same measurement/reset/branch and `D` must have returned
//! to the identity (passes never move gates across barriers), guarded
//! regions are compared recursively, and fused blocks and phase gradients
//! are transparently expanded to their constituents, so an `Equal`
//! verdict against the unpacked stream proves the packing. On mismatch
//! the checker reports the
//! **first diverging instruction** on each side — the point where `D`
//! left the identity and never recovered.
//!
//! ## Completeness boundary
//!
//! The checker is *sound, not complete*: [`Equivalence::Equal`] is a
//! proof, but a transformation outside the passes' repertoire can yield
//! [`Equivalence::Diverged`] for observably equal streams (term-set
//! equality in the ring is syntactic), and
//! [`Equivalence::Inconclusive`] when the difference operator leaves the
//! abstract domain: support wider than [`EquivOptions::max_support`],
//! or phase arithmetic past the `2^128` dyadic range (e.g. folding
//! `θ − π` for the `2^{-1025}`-turn rotations of a width-1024 QFT adder —
//! such programs fall back to validator-only coverage). All Table 1–6
//! adder circuits at n = 64 sit comfortably inside the domain: their
//! angles are `2π/2^k` with `k ≤ 66` and pass-induced differences stay
//! within a three-qubit window.

use std::collections::{HashSet, VecDeque};
use std::fmt;

use crate::angle::Angle;
use crate::compile::{
    CompiledCircuit, FusedUnitary, Instr, PhaseGradient, Segment, MAX_FUSED_QUBITS,
    MAX_PERM_FUSED_QUBITS,
};
use crate::error::CircuitError;
use crate::gate::{Basis, Gate};
use crate::op::QubitId;
use crate::plan::{plan_segment, PlanConfig, PlannedRepr, SegmentProfile};

/// A borrowed, possibly untrusted instruction stream plus the register
/// shape it claims — the validator's input. Obtain one from a finished
/// program via [`CompiledCircuit::view`], or build one with
/// [`ProgramView::new`] (and [`with_gradients`](Self::with_gradients)) to
/// check a hand-assembled (or deliberately mutated) stream.
#[derive(Clone, Copy, Debug)]
pub struct ProgramView<'a> {
    num_qubits: usize,
    num_clbits: usize,
    instrs: &'a [Instr],
    fused: &'a [FusedUnitary],
    gradients: &'a [PhaseGradient],
}

impl<'a> ProgramView<'a> {
    /// Wraps a raw stream and its fused-block table, with an empty
    /// gradient table.
    #[must_use]
    pub fn new(
        num_qubits: usize,
        num_clbits: usize,
        instrs: &'a [Instr],
        fused: &'a [FusedUnitary],
    ) -> Self {
        Self {
            num_qubits,
            num_clbits,
            instrs,
            fused,
            gradients: &[],
        }
    }

    /// The same view over the gradient table `gradients`, which the
    /// stream's [`Instr::Gradient`] payloads index.
    #[must_use]
    pub fn with_gradients(self, gradients: &'a [PhaseGradient]) -> Self {
        Self { gradients, ..self }
    }

    /// The claimed qubit count.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The claimed classical-bit count.
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The instruction stream.
    #[must_use]
    pub fn instrs(&self) -> &'a [Instr] {
        self.instrs
    }

    /// The fused-block table referenced by [`Instr::Fused`] payloads.
    #[must_use]
    pub fn fused(&self) -> &'a [FusedUnitary] {
        self.fused
    }

    /// The gradient table referenced by [`Instr::Gradient`] payloads.
    #[must_use]
    pub fn gradients(&self) -> &'a [PhaseGradient] {
        self.gradients
    }
}

/// One well-formedness violation found by the Layer-1 validator, with
/// enough position information to localise the fault to an exact
/// instruction or fused block.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Finding {
    /// An instruction references a qubit outside the register.
    QubitOutOfRange {
        /// Offending instruction.
        pc: usize,
        /// Offending qubit index.
        qubit: u32,
    },
    /// An instruction references a classical bit outside the record.
    ClbitOutOfRange {
        /// Offending instruction.
        pc: usize,
        /// Offending classical-bit index.
        clbit: u32,
    },
    /// A gate uses one qubit for two operands.
    DuplicateOperand {
        /// Offending instruction.
        pc: usize,
        /// The duplicated qubit.
        qubit: u32,
    },
    /// A branch's join target lies past the end of the stream.
    BranchTargetOutOfRange {
        /// Offending branch instruction.
        pc: usize,
        /// Its (out-of-range) join target.
        target: usize,
    },
    /// A branch's guarded region crosses the end of an enclosing guard.
    BranchNotNested {
        /// Offending branch instruction.
        pc: usize,
        /// Its join target.
        target: usize,
        /// End of the enclosing guarded region it escapes.
        enclosing_end: usize,
    },
    /// An [`Instr::Fused`] payload indexes past the fused-block table.
    FusedIndexOutOfRange {
        /// Offending instruction.
        pc: usize,
        /// The out-of-range table index.
        index: u32,
    },
    /// A fused block's global support is not strictly ascending.
    FusedSupportUnsorted {
        /// Offending block (table index).
        block: usize,
    },
    /// A fused block's support contains a qubit outside the register.
    FusedSupportOutOfRange {
        /// Offending block (table index).
        block: usize,
        /// Offending qubit index.
        qubit: u32,
    },
    /// A constituent gate of a fused block uses a local operand at or
    /// past the block width.
    FusedLocalOperandOutOfRange {
        /// Offending block (table index).
        block: usize,
        /// Constituent gate position within the block.
        gate: usize,
        /// The out-of-range local operand.
        operand: u32,
    },
    /// A constituent gate of a fused block repeats a local operand.
    FusedLocalDuplicate {
        /// Offending block (table index).
        block: usize,
        /// Constituent gate position within the block.
        gate: usize,
        /// The duplicated local operand.
        operand: u32,
    },
    /// A fused block holds fewer constituents than the fusion pass ever
    /// emits (empty blocks break every consumer; singletons mean the pass
    /// fused nothing and miscounted its stats).
    FusedBlockTrivial {
        /// Offending block (table index).
        block: usize,
        /// Its constituent-gate count.
        gates: usize,
    },
    /// A fused block is wider than its kind allows.
    FusedBlockTooWide {
        /// Offending block (table index).
        block: usize,
        /// Its support width.
        width: usize,
        /// The applicable cap ([`MAX_FUSED_QUBITS`] for dense blocks,
        /// [`MAX_PERM_FUSED_QUBITS`] for permutation blocks).
        max: usize,
    },
    /// An [`Instr::Gradient`] payload indexes past the gradient table.
    GradientIndexOutOfRange {
        /// Offending instruction.
        pc: usize,
        /// The out-of-range table index.
        index: u32,
    },
    /// A gradient's target or one of its controls lies outside the
    /// register.
    GradientOperandOutOfRange {
        /// Offending gradient (table index).
        gradient: usize,
        /// Offending qubit index.
        qubit: u32,
    },
    /// A gradient's target is also one of its controls.
    GradientTargetIsControl {
        /// Offending gradient (table index).
        gradient: usize,
        /// The term that names the target as its control.
        term: usize,
    },
    /// A gradient repeats an exponent `k`: its terms no longer add as
    /// distinct bits.
    GradientRepeatedExponent {
        /// Offending gradient (table index).
        gradient: usize,
        /// The term that repeats an earlier term's exponent.
        term: usize,
        /// The repeated exponent.
        k: u32,
    },
    /// A gradient holds fewer terms than the packing step ever emits.
    GradientTrivial {
        /// Offending gradient (table index).
        gradient: usize,
        /// Its term count.
        terms: usize,
    },
    /// An instruction touches a qubit after the qubit's [`Instr::Drop`].
    UseAfterDrop {
        /// The instruction touching the dead qubit.
        pc: usize,
        /// The dropped qubit.
        qubit: u32,
        /// Where the qubit was dropped.
        drop_pc: usize,
    },
    /// A qubit is dropped without a preceding measurement or reset.
    DropWithoutCollapse {
        /// Offending drop instruction.
        pc: usize,
        /// The dropped qubit.
        qubit: u32,
    },
    /// A drop sits inside a guarded region (the reclamation pass only
    /// releases qubits unconditionally, at guard depth zero).
    DropInsideGuard {
        /// Offending drop instruction.
        pc: usize,
        /// The dropped qubit.
        qubit: u32,
    },
    /// A recorded [`PassStats`](crate::PassStats) counter disagrees with
    /// the program it describes.
    StatsMismatch {
        /// Which counter.
        field: &'static str,
        /// What the stats recorded.
        recorded: u64,
        /// What the program actually contains.
        actual: u64,
    },
    /// The recorded segment profiles or representation plan disagree with
    /// the verifier's independent re-derivation.
    PlanIncoherent {
        /// Segment index (position in [`CompiledCircuit::segments`]).
        segment: usize,
        /// What disagrees.
        why: String,
    },
}

impl Finding {
    /// The instruction the finding localises to, when it concerns one
    /// (table- and stats-level findings return `None`).
    #[must_use]
    pub fn pc(&self) -> Option<usize> {
        match self {
            Finding::QubitOutOfRange { pc, .. }
            | Finding::ClbitOutOfRange { pc, .. }
            | Finding::DuplicateOperand { pc, .. }
            | Finding::BranchTargetOutOfRange { pc, .. }
            | Finding::BranchNotNested { pc, .. }
            | Finding::FusedIndexOutOfRange { pc, .. }
            | Finding::GradientIndexOutOfRange { pc, .. }
            | Finding::UseAfterDrop { pc, .. }
            | Finding::DropWithoutCollapse { pc, .. }
            | Finding::DropInsideGuard { pc, .. } => Some(*pc),
            _ => None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::QubitOutOfRange { pc, qubit } => {
                write!(f, "pc {pc}: qubit q{qubit} out of range")
            }
            Finding::ClbitOutOfRange { pc, clbit } => {
                write!(f, "pc {pc}: classical bit c{clbit} out of range")
            }
            Finding::DuplicateOperand { pc, qubit } => {
                write!(f, "pc {pc}: qubit q{qubit} used for more than one operand")
            }
            Finding::BranchTargetOutOfRange { pc, target } => {
                write!(f, "pc {pc}: branch target {target} past end of program")
            }
            Finding::BranchNotNested {
                pc,
                target,
                enclosing_end,
            } => write!(
                f,
                "pc {pc}: branch target {target} escapes enclosing guard ending at {enclosing_end}"
            ),
            Finding::FusedIndexOutOfRange { pc, index } => {
                write!(f, "pc {pc}: fused index {index} past table end")
            }
            Finding::FusedSupportUnsorted { block } => {
                write!(f, "fused[{block}]: support not strictly ascending")
            }
            Finding::FusedSupportOutOfRange { block, qubit } => {
                write!(f, "fused[{block}]: support qubit q{qubit} out of range")
            }
            Finding::FusedLocalOperandOutOfRange {
                block,
                gate,
                operand,
            } => write!(
                f,
                "fused[{block}] gate {gate}: local operand q{operand} outside block width"
            ),
            Finding::FusedLocalDuplicate {
                block,
                gate,
                operand,
            } => write!(
                f,
                "fused[{block}] gate {gate}: local operand q{operand} duplicated"
            ),
            Finding::FusedBlockTrivial { block, gates } => {
                write!(f, "fused[{block}]: only {gates} constituent gates")
            }
            Finding::FusedBlockTooWide { block, width, max } => {
                write!(f, "fused[{block}]: spans {width} qubits (cap {max})")
            }
            Finding::GradientIndexOutOfRange { pc, index } => {
                write!(f, "pc {pc}: gradient index {index} past table end")
            }
            Finding::GradientOperandOutOfRange { gradient, qubit } => {
                write!(f, "gradient[{gradient}]: qubit q{qubit} out of range")
            }
            Finding::GradientTargetIsControl { gradient, term } => {
                write!(f, "gradient[{gradient}] term {term}: control is the target")
            }
            Finding::GradientRepeatedExponent { gradient, term, k } => {
                write!(f, "gradient[{gradient}] term {term}: exponent {k} repeated")
            }
            Finding::GradientTrivial { gradient, terms } => {
                write!(f, "gradient[{gradient}]: only {terms} terms")
            }
            Finding::UseAfterDrop { pc, qubit, drop_pc } => {
                write!(f, "pc {pc}: touches qubit q{qubit} dropped at pc {drop_pc}")
            }
            Finding::DropWithoutCollapse { pc, qubit } => write!(
                f,
                "pc {pc}: drop of q{qubit} without a preceding measurement or reset"
            ),
            Finding::DropInsideGuard { pc, qubit } => {
                write!(f, "pc {pc}: drop of q{qubit} inside a guarded region")
            }
            Finding::StatsMismatch {
                field,
                recorded,
                actual,
            } => write!(
                f,
                "stats record {field} = {recorded} but the program has {actual}"
            ),
            Finding::PlanIncoherent { segment, why } => {
                write!(f, "segment {segment}: {why}")
            }
        }
    }
}

/// The error [`CompiledCircuit::verify`] returns: every Layer-1 finding,
/// most localised first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    findings: Vec<Finding>,
}

impl VerifyError {
    /// All findings, in discovery order.
    #[must_use]
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.findings.first().expect("at least one finding");
        if self.findings.len() == 1 {
            write!(f, "program fails verification: {first}")
        } else {
            write!(
                f,
                "program fails verification with {} findings, first: {first}",
                self.findings.len()
            )
        }
    }
}

impl std::error::Error for VerifyError {}

/// The operand qubits an instruction touches (gate operands, fused-block
/// global support, gradient target and controls, measured/reset/dropped
/// qubit). Duplicates are kept so callers can detect them.
fn touched_qubits(instr: &Instr, view: &ProgramView<'_>, out: &mut Vec<u32>) {
    out.clear();
    match instr {
        Instr::Gate(g) => g.for_each_qubit(&mut |q| out.push(q.0)),
        Instr::Measure { qubit, .. } | Instr::Reset(qubit) | Instr::Drop(qubit) => {
            out.push(qubit.0);
        }
        Instr::Fused(idx) => {
            if let Some(block) = view.fused.get(*idx as usize) {
                out.extend(block.qubits().iter().map(|q| q.0));
            }
        }
        Instr::Gradient(idx) => {
            if let Some(pg) = view.gradients.get(*idx as usize) {
                out.push(pg.target().0);
                out.extend(pg.terms().iter().map(|(c, _)| c.0));
            }
        }
        Instr::BranchUnless { .. } => {}
    }
}

/// Layer-1 validation of an arbitrary instruction stream: every
/// well-formedness finding, in discovery order (fused-table findings
/// first, then a single forward pass over the instructions). An empty
/// result means the stream is safe to execute on any backend.
#[must_use]
pub fn validate(view: &ProgramView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let num_qubits = u32::try_from(view.num_qubits).unwrap_or(u32::MAX);
    let num_clbits = u32::try_from(view.num_clbits).unwrap_or(u32::MAX);
    let len = view.instrs.len();

    for (bi, block) in view.fused.iter().enumerate() {
        if block.gates().is_empty() {
            findings.push(Finding::FusedBlockTrivial {
                block: bi,
                gates: 0,
            });
        }
        let width = block.num_qubits();
        if !block.qubits().windows(2).all(|w| w[0] < w[1]) {
            findings.push(Finding::FusedSupportUnsorted { block: bi });
        }
        for q in block.qubits() {
            if q.0 >= num_qubits {
                findings.push(Finding::FusedSupportOutOfRange {
                    block: bi,
                    qubit: q.0,
                });
            }
        }
        let max = if block.is_permutation() {
            MAX_PERM_FUSED_QUBITS
        } else {
            MAX_FUSED_QUBITS
        };
        if width > max {
            findings.push(Finding::FusedBlockTooWide {
                block: bi,
                width,
                max,
            });
        }
        let local_width = u32::try_from(width).unwrap_or(u32::MAX);
        let mut ops = Vec::new();
        for (gi, gate) in block.gates().iter().enumerate() {
            ops.clear();
            gate.for_each_qubit(&mut |q| ops.push(q.0));
            for (i, &op) in ops.iter().enumerate() {
                if op >= local_width {
                    findings.push(Finding::FusedLocalOperandOutOfRange {
                        block: bi,
                        gate: gi,
                        operand: op,
                    });
                }
                if ops[..i].contains(&op) {
                    findings.push(Finding::FusedLocalDuplicate {
                        block: bi,
                        gate: gi,
                        operand: op,
                    });
                }
            }
        }
    }

    let mut exponents = HashSet::new();
    for (gi, pg) in view.gradients.iter().enumerate() {
        let target = pg.target();
        for q in std::iter::once(target).chain(pg.terms().iter().map(|&(c, _)| c)) {
            if q.0 >= num_qubits {
                findings.push(Finding::GradientOperandOutOfRange {
                    gradient: gi,
                    qubit: q.0,
                });
            }
        }
        exponents.clear();
        for (term, &(c, k)) in pg.terms().iter().enumerate() {
            if c == target {
                findings.push(Finding::GradientTargetIsControl { gradient: gi, term });
            }
            if !exponents.insert(k) {
                findings.push(Finding::GradientRepeatedExponent {
                    gradient: gi,
                    term,
                    k,
                });
            }
        }
    }

    // One forward pass: operand ranges, guard nesting, drop dataflow.
    let mut guard_ends: Vec<usize> = Vec::new();
    let mut collapsed = vec![false; view.num_qubits];
    let mut dropped: Vec<Option<usize>> = vec![None; view.num_qubits];
    let mut ops = Vec::new();
    for (pc, instr) in view.instrs.iter().enumerate() {
        while guard_ends.last() == Some(&pc) {
            guard_ends.pop();
        }
        // Range and duplicate checks on the operands themselves (a
        // block's or gradient's are table findings above).
        touched_qubits(instr, view, &mut ops);
        for (i, &q) in ops.iter().enumerate() {
            if q >= num_qubits && !matches!(instr, Instr::Fused(_) | Instr::Gradient(_)) {
                findings.push(Finding::QubitOutOfRange { pc, qubit: q });
            }
            if matches!(instr, Instr::Gate(_)) && ops[..i].contains(&q) {
                findings.push(Finding::DuplicateOperand { pc, qubit: q });
            }
        }
        // Nothing may touch a qubit past its drop — including a second
        // drop, a re-measurement, or a fused block straddling it.
        for &q in &ops {
            if let Some(&Some(drop_pc)) = dropped.get(q as usize) {
                findings.push(Finding::UseAfterDrop {
                    pc,
                    qubit: q,
                    drop_pc,
                });
            }
        }
        match instr {
            Instr::Gate(_) => {}
            Instr::Measure { clbit, qubit, .. } => {
                if clbit.0 >= num_clbits {
                    findings.push(Finding::ClbitOutOfRange { pc, clbit: clbit.0 });
                }
                if let Some(c) = collapsed.get_mut(qubit.index()) {
                    *c = true;
                }
            }
            Instr::Reset(qubit) => {
                if let Some(c) = collapsed.get_mut(qubit.index()) {
                    *c = true;
                }
            }
            Instr::BranchUnless { clbit, skip } => {
                if clbit.0 >= num_clbits {
                    findings.push(Finding::ClbitOutOfRange { pc, clbit: clbit.0 });
                }
                let target = pc + 1 + *skip as usize;
                if target > len {
                    findings.push(Finding::BranchTargetOutOfRange { pc, target });
                } else {
                    if let Some(&enclosing_end) = guard_ends.last() {
                        if target > enclosing_end {
                            findings.push(Finding::BranchNotNested {
                                pc,
                                target,
                                enclosing_end,
                            });
                        }
                    }
                    guard_ends.push(target);
                }
            }
            Instr::Drop(qubit) => {
                let q = qubit.index();
                // A second drop was already reported as use-after-drop.
                if dropped.get(q).is_some_and(Option::is_none) {
                    if !collapsed[q] {
                        findings.push(Finding::DropWithoutCollapse { pc, qubit: qubit.0 });
                    }
                    if !guard_ends.is_empty() {
                        findings.push(Finding::DropInsideGuard { pc, qubit: qubit.0 });
                    }
                    dropped[q] = Some(pc);
                }
            }
            Instr::Fused(idx) => {
                if (*idx as usize) >= view.fused.len() {
                    findings.push(Finding::FusedIndexOutOfRange { pc, index: *idx });
                }
            }
            Instr::Gradient(idx) => {
                if (*idx as usize) >= view.gradients.len() {
                    findings.push(Finding::GradientIndexOutOfRange { pc, index: *idx });
                }
            }
        }
    }
    findings
}

/// Independent re-derivation of the per-segment structural profiles: the
/// same facts compilation records in
/// [`CompiledCircuit::segment_profiles`], but from a fresh walk written
/// against the *specification* (segments are maximal unitary runs cut at
/// barriers and join targets; occupancy starts at one entry, doubles per
/// `H`, halves per collapse) so drift in either implementation surfaces
/// as a [`Finding::PlanIncoherent`].
fn rederive_profiles(view: &ProgramView<'_>) -> Vec<SegmentProfile> {
    let len = view.instrs.len();
    let mut join = vec![false; len + 1];
    for (pc, instr) in view.instrs.iter().enumerate() {
        if let Instr::BranchUnless { skip, .. } = instr {
            let target = pc + 1 + *skip as usize;
            if target <= len {
                join[target] = true;
            }
        }
    }
    let width_log2 = u32::try_from(view.num_qubits).unwrap_or(u32::MAX);
    let mut profiles = Vec::new();
    let mut occ_log2: u32 = 0;
    let mut run_start: Option<usize> = None;
    // Per qubit, 1 + the index of the last segment that counted it toward
    // its support (0: none yet). Grown on demand, never past the register:
    // an out-of-range operand is already a `validate` finding and is not
    // counted.
    let mut last_seen: Vec<usize> = Vec::new();
    let close = |profiles: &mut Vec<SegmentProfile>,
                 last_seen: &mut Vec<usize>,
                 occ: &mut u32,
                 start: usize,
                 end: usize| {
        let mut perm_only = true;
        let mut diag_only = true;
        let mut h_count = 0u32;
        let mut diag_count = 0u32;
        let stamp = profiles.len() + 1;
        let mut support_width = 0usize;
        let mut touch = |q: QubitId| {
            let q = q.index();
            if q >= view.num_qubits {
                return;
            }
            if q >= last_seen.len() {
                last_seen.resize(q + 1, 0);
            }
            if last_seen[q] != stamp {
                last_seen[q] = stamp;
                support_width += 1;
            }
        };
        let mut classify = |g: &Gate| {
            perm_only &= g.is_permutation();
            diag_only &= g.is_diagonal();
            h_count += u32::from(matches!(g, Gate::H(_)));
            diag_count += u32::from(g.is_diagonal());
        };
        for instr in &view.instrs[start..end] {
            match instr {
                Instr::Gate(g) => {
                    classify(g);
                    g.for_each_qubit(&mut touch);
                }
                Instr::Fused(idx) => {
                    if let Some(block) = view.fused.get(*idx as usize) {
                        for g in block.gates() {
                            classify(g);
                        }
                        for &q in block.qubits() {
                            touch(q);
                        }
                    }
                }
                Instr::Gradient(idx) => {
                    if let Some(pg) = view.gradients.get(*idx as usize) {
                        for g in pg.gates() {
                            classify(&g);
                            g.for_each_qubit(&mut touch);
                        }
                    }
                }
                _ => {}
            }
        }
        *occ = occ.saturating_add(h_count).min(width_log2);
        profiles.push(SegmentProfile {
            segment: Segment { start, end },
            perm_only,
            diag_only,
            h_count,
            diag_count,
            support_width,
            occ_ceiling_log2: *occ,
        });
    };
    for (pc, instr) in view.instrs.iter().enumerate() {
        let unitary = matches!(instr, Instr::Gate(_) | Instr::Fused(_) | Instr::Gradient(_));
        if join[pc] || !unitary {
            if let Some(start) = run_start.take() {
                close(&mut profiles, &mut last_seen, &mut occ_log2, start, pc);
            }
        }
        if matches!(instr, Instr::Measure { .. } | Instr::Reset(_)) {
            occ_log2 = occ_log2.saturating_sub(1);
        }
        if unitary && run_start.is_none() {
            run_start = Some(pc);
        }
    }
    if let Some(start) = run_start {
        close(&mut profiles, &mut last_seen, &mut occ_log2, start, len);
    }
    profiles
}

fn push_stat(findings: &mut Vec<Finding>, field: &'static str, recorded: u64, actual: u64) {
    if recorded != actual {
        findings.push(Finding::StatsMismatch {
            field,
            recorded,
            actual,
        });
    }
}

/// Full Layer-1 validation of a finished program: the stream checks of
/// [`validate`] plus stats consistency (emitted/fused/gradient/drop/
/// segment/plan tallies must describe this exact program), the
/// at-least-two-constituents rule for fused blocks and gradients, and
/// segment-profile/plan
/// coherence against an independent re-derivation. It walks the segments
/// once: the recorded profiles are compared with that one re-derivation,
/// and the plan tallies are re-planned from the recorded profiles.
#[must_use]
pub fn validate_compiled(compiled: &CompiledCircuit) -> Vec<Finding> {
    let view = compiled.view();
    let mut findings = validate(&view);
    for (bi, block) in view.fused.iter().enumerate() {
        // The fusion passes only emit blocks that absorb at least two
        // gates; stream-level validation already flagged empty blocks.
        if block.gates().len() == 1 {
            findings.push(Finding::FusedBlockTrivial {
                block: bi,
                gates: 1,
            });
        }
    }
    for (gi, pg) in view.gradients.iter().enumerate() {
        // The packing step only emits runs of at least two gates.
        if pg.terms().len() < 2 {
            findings.push(Finding::GradientTrivial {
                gradient: gi,
                terms: pg.terms().len(),
            });
        }
    }

    let stats = compiled.stats();
    let instrs = view.instrs;
    push_stat(
        &mut findings,
        "emitted_instrs",
        stats.emitted_instrs as u64,
        instrs.len() as u64,
    );
    push_stat(
        &mut findings,
        "fused_blocks",
        stats.fused_blocks,
        view.fused.len() as u64,
    );
    push_stat(
        &mut findings,
        "fused_gates",
        stats.fused_gates,
        view.fused.iter().map(|b| b.gates().len() as u64).sum(),
    );
    push_stat(
        &mut findings,
        "gradients",
        stats.gradients,
        view.gradients.len() as u64,
    );
    push_stat(
        &mut findings,
        "gradient_gates",
        stats.gradient_gates,
        view.gradients.iter().map(|g| g.terms().len() as u64).sum(),
    );
    push_stat(
        &mut findings,
        "dead_qubits_reclaimed",
        stats.dead_qubits_reclaimed,
        instrs
            .iter()
            .filter(|i| matches!(i, Instr::Drop(_)))
            .count() as u64,
    );
    push_stat(
        &mut findings,
        "fork_points",
        stats.fork_points as u64,
        compiled.fork_points() as u64,
    );

    let recorded = compiled.segment_profiles();
    let rederived = rederive_profiles(&view);
    push_stat(
        &mut findings,
        "segments",
        stats.segments as u64,
        rederived.len() as u64,
    );
    if recorded.len() == rederived.len() {
        for (i, (a, b)) in recorded.iter().zip(&rederived).enumerate() {
            if a != b {
                findings.push(Finding::PlanIncoherent {
                    segment: i,
                    why: format!("recorded profile ({a}) != re-derived profile ({b})"),
                });
            }
        }
    } else {
        findings.push(Finding::PlanIncoherent {
            segment: 0,
            why: format!(
                "{} recorded profiles vs {} re-derived segments",
                recorded.len(),
                rederived.len()
            ),
        });
    }

    let plan_config = PlanConfig::default();
    let plan: Vec<PlannedRepr> = recorded
        .iter()
        .map(|p| plan_segment(view.num_qubits, p, &plan_config))
        .collect();
    let count_of = |kind: PlannedRepr| plan.iter().filter(|r| **r == kind).count() as u64;
    push_stat(
        &mut findings,
        "planned_dense",
        stats.planned_dense as u64,
        count_of(PlannedRepr::Dense),
    );
    push_stat(
        &mut findings,
        "planned_sparse",
        stats.planned_sparse as u64,
        count_of(PlannedRepr::Sparse),
    );
    push_stat(
        &mut findings,
        "planned_phase",
        stats.planned_phase as u64,
        count_of(PlannedRepr::Phase),
    );
    if plan.len() == rederived.len() {
        for (i, repr) in plan.iter().enumerate() {
            if *repr == PlannedRepr::Phase && !rederived[i].phase_suitable(&plan_config) {
                findings.push(Finding::PlanIncoherent {
                    segment: i,
                    why: format!(
                        "planned phase but the re-derived profile ({}) lacks the \
                         diagonal structure the phase representation needs",
                        rederived[i]
                    ),
                });
            }
        }
    }
    findings
}

/// Careful-profile stage gate for the compile pipeline: validates the
/// intermediate stream a pass just produced and converts the first
/// finding into a [`CircuitError::VerificationFailed`] naming the pass.
/// Compiled out (always `Ok`) when `debug_assertions` are off.
pub(crate) fn expect_valid_stage(
    pass: &'static str,
    num_qubits: usize,
    num_clbits: usize,
    instrs: &[Instr],
    fused: &[FusedUnitary],
    gradients: &[PhaseGradient],
) -> Result<(), CircuitError> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    let view = ProgramView::new(num_qubits, num_clbits, instrs, fused).with_gradients(gradients);
    match validate(&view).into_iter().next() {
        None => Ok(()),
        Some(finding) => Err(CircuitError::VerificationFailed {
            pass,
            finding: finding.to_string(),
        }),
    }
}

impl CompiledCircuit {
    /// A borrowed [`ProgramView`] of this program, for the stream-level
    /// validator and the equivalence checker.
    #[must_use]
    pub fn view(&self) -> ProgramView<'_> {
        ProgramView::new(
            self.num_qubits(),
            self.num_clbits(),
            self.instrs(),
            self.fused_unitaries(),
        )
        .with_gradients(self.gradients())
    }

    /// Runs the full Layer-1 validator ([`validate_compiled`]) on demand:
    /// stream well-formedness, drop safety, stats consistency and plan
    /// coherence. `Ok(())` means the program is safe to hand to any
    /// backend. Under the careful profile every compile already ran this
    /// (see [`PassStats::verified`](crate::PassStats::verified)); the
    /// `MBU_VERIFY` knob makes executors re-run it at admission time.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] carrying every finding when the program
    /// is malformed.
    pub fn verify(&self) -> Result<(), VerifyError> {
        let findings = validate_compiled(self);
        if findings.is_empty() {
            Ok(())
        } else {
            Err(VerifyError { findings })
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: the symbolic equivalence checker.
// ---------------------------------------------------------------------------

/// Tuning for [`check_equivalence_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EquivOptions {
    /// Widest support the difference operator may reach before the
    /// checker gives up ([`Equivalence::Inconclusive`]). The symbolic
    /// matrix holds `4^support` entries, so this is a cost cap; the
    /// peephole and fusion windows never spread a difference past three
    /// qubits, so the default of 8 is generous.
    pub max_support: usize,
    /// Forgive differences that amount to a global phase — per branch
    /// trajectory — at barriers and stream end: a pure-phase difference
    /// operator anywhere, or a diagonal difference confined to a qubit
    /// about to be `Z`-measured or reset. Required to certify the
    /// (deliberately phase-inexact) `phase_dead_before_measure` pass;
    /// leave off to demand exact operator equality.
    pub allow_global_phase: bool,
}

impl Default for EquivOptions {
    fn default() -> Self {
        Self {
            max_support: 8,
            allow_global_phase: false,
        }
    }
}

/// Outcome of the symbolic equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Equivalence {
    /// Proof: the two streams implement the same state function (up to
    /// the allowances in [`EquivOptions`]).
    Equal,
    /// The streams differ; `pre_pc`/`post_pc` localise the first
    /// instruction on each side at which the difference operator left the
    /// identity and never recovered (or the barrier that clashed).
    Diverged {
        /// First diverging instruction of the pre stream.
        pre_pc: usize,
        /// First diverging instruction of the post stream.
        post_pc: usize,
        /// What went wrong.
        why: String,
    },
    /// The difference left the checker's abstract domain (support cap,
    /// non-dyadic phase fold) — no verdict either way.
    Inconclusive {
        /// Pre-stream instruction where tracking gave up.
        pre_pc: usize,
        /// Post-stream instruction where tracking gave up.
        post_pc: usize,
        /// Which domain boundary was hit.
        why: String,
    },
}

impl Equivalence {
    /// Whether the check produced a proof of equality.
    #[must_use]
    pub fn is_equal(&self) -> bool {
        matches!(self, Equivalence::Equal)
    }
}

impl fmt::Display for Equivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Equivalence::Equal => write!(f, "equal"),
            Equivalence::Diverged {
                pre_pc,
                post_pc,
                why,
            } => write!(f, "diverged at pre pc {pre_pc} / post pc {post_pc}: {why}"),
            Equivalence::Inconclusive {
                pre_pc,
                post_pc,
                why,
            } => write!(
                f,
                "inconclusive at pre pc {pre_pc} / post pc {post_pc}: {why}"
            ),
        }
    }
}

/// One term `coeff · 2^{−sqrt2/2} · e^{2πi·phase}` of a [`Sym`] value.
/// Canonical form: `phase` in `[0, π)` (larger phases fold into the
/// coefficient sign), `coeff` odd and nonzero, and within a `Sym` the
/// `(phase, sqrt2)` keys strictly sorted — making value equality
/// syntactic for every state the checker reaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Term {
    phase: Angle,
    sqrt2: i32,
    coeff: i64,
}

impl Term {
    fn key(&self) -> (u32, u128, bool, i32) {
        (
            self.phase.log2_denom(),
            self.phase.numerator(),
            self.phase.is_negated(),
            self.sqrt2,
        )
    }
}

/// An exact scalar in the ring `Z[e^{2πiθ}, 1/√2]` of dyadic-phase roots
/// of unity and half-powers of two — the amplitude ring every gate in the
/// set generates. The checker needs only the additive structure plus
/// multiplication by single phases and by `1/√2` (no general products),
/// so coefficients stay tame.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Sym {
    terms: Vec<Term>,
}

impl Sym {
    fn zero() -> Self {
        Self { terms: Vec::new() }
    }

    fn one() -> Self {
        Self {
            terms: vec![Term {
                phase: Angle::ZERO,
                sqrt2: 0,
                coeff: 1,
            }],
        }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn is_one(&self) -> bool {
        matches!(
            self.terms.as_slice(),
            [Term {
                phase,
                sqrt2: 0,
                coeff: 1,
            }] if phase.is_zero()
        )
    }

    /// Whether the value is a pure phase `±e^{2πiθ}` of unit magnitude.
    fn is_unit_phase(&self) -> bool {
        matches!(
            self.terms.as_slice(),
            [Term {
                sqrt2: 0,
                coeff: 1 | -1,
                ..
            }]
        )
    }

    /// Rebuilds canonical form: folds phases past half a turn into the
    /// coefficient sign, strips factors of two into the `√2` exponent,
    /// sorts and merges equal keys, drops zeros. `None` when a fold or a
    /// coefficient leaves the exact domain.
    fn normalize(mut terms: Vec<Term>) -> Option<Self> {
        loop {
            for t in &mut terms {
                while t.phase.is_at_least_half_turn() {
                    t.phase = t.phase.checked_sub(Angle::HALF_TURN)?;
                    t.coeff = t.coeff.checked_neg()?;
                }
                while t.coeff != 0 && t.coeff % 2 == 0 {
                    t.coeff /= 2;
                    t.sqrt2 = t.sqrt2.checked_sub(2)?;
                }
            }
            terms.retain(|t| t.coeff != 0);
            terms.sort_by_key(Term::key);
            let mut merged: Vec<Term> = Vec::with_capacity(terms.len());
            let mut remerged = false;
            for t in terms.drain(..) {
                match merged.last_mut() {
                    Some(last) if last.key() == t.key() => {
                        last.coeff = last.coeff.checked_add(t.coeff)?;
                        remerged = true;
                    }
                    _ => merged.push(t),
                }
            }
            terms = merged;
            if !remerged {
                return Some(Self { terms });
            }
        }
    }

    fn add(&self, other: &Self) -> Option<Self> {
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&other.terms);
        Self::normalize(terms)
    }

    fn sub(&self, other: &Self) -> Option<Self> {
        let mut terms = self.terms.clone();
        for t in &other.terms {
            terms.push(Term {
                coeff: t.coeff.checked_neg()?,
                ..*t
            });
        }
        Self::normalize(terms)
    }

    fn neg(&self) -> Option<Self> {
        Self::zero().sub(self)
    }

    /// Multiplication by `e^{2πi·turn}`.
    fn rotate(&self, turn: Angle) -> Option<Self> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            terms.push(Term {
                phase: t.phase.checked_add(turn)?,
                ..*t
            });
        }
        Self::normalize(terms)
    }

    /// Multiplication by `1/√2` (the Hadamard normalisation).
    fn mul_sqrt2_inv(&self) -> Option<Self> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            terms.push(Term {
                sqrt2: t.sqrt2.checked_add(1)?,
                ..*t
            });
        }
        Self::normalize(terms)
    }

    fn conj(&self) -> Option<Self> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            terms.push(Term {
                phase: -t.phase,
                ..*t
            });
        }
        Self::normalize(terms)
    }
}

/// Applies `gate` (with *local* operand indices) to a `2^k`-entry
/// symbolic column vector, mirroring the dense kernels' per-amplitude
/// arithmetic exactly — but in the exact ring.
fn apply_gate_sym(v: &mut [Sym], gate: &Gate) -> Option<()> {
    let bit = |q: QubitId| 1usize << q.0;
    match *gate {
        Gate::X(q) => {
            let m = bit(q);
            for i in 0..v.len() {
                if i & m == 0 {
                    v.swap(i, i | m);
                }
            }
        }
        Gate::Z(q) => {
            let m = bit(q);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m != 0 {
                    *e = e.neg()?;
                }
            }
        }
        Gate::H(q) => {
            let m = bit(q);
            for i in 0..v.len() {
                if i & m == 0 {
                    let a = v[i].clone();
                    let b = v[i | m].clone();
                    v[i] = a.add(&b)?.mul_sqrt2_inv()?;
                    v[i | m] = a.sub(&b)?.mul_sqrt2_inv()?;
                }
            }
        }
        Gate::Phase(q, turn) => {
            let m = bit(q);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m != 0 {
                    *e = e.rotate(turn)?;
                }
            }
        }
        Gate::Cx(c, t) => {
            let (cm, tm) = (bit(c), bit(t));
            for i in 0..v.len() {
                if i & cm != 0 && i & tm == 0 {
                    v.swap(i, i | tm);
                }
            }
        }
        Gate::Cz(a, b) => {
            let m = bit(a) | bit(b);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m == m {
                    *e = e.neg()?;
                }
            }
        }
        Gate::Ccx(c1, c2, t) => {
            let (cm, tm) = (bit(c1) | bit(c2), bit(t));
            for i in 0..v.len() {
                if i & cm == cm && i & tm == 0 {
                    v.swap(i, i | tm);
                }
            }
        }
        Gate::Ccz(a, b, c) => {
            let m = bit(a) | bit(b) | bit(c);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m == m {
                    *e = e.neg()?;
                }
            }
        }
        Gate::CPhase(c, t, turn) => {
            let m = bit(c) | bit(t);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m == m {
                    *e = e.rotate(turn)?;
                }
            }
        }
        Gate::CcPhase(c1, c2, t, turn) => {
            let m = bit(c1) | bit(c2) | bit(t);
            for (i, e) in v.iter_mut().enumerate() {
                if i & m == m {
                    *e = e.rotate(turn)?;
                }
            }
        }
        Gate::Swap(a, b) => {
            let (am, bm) = (bit(a), bit(b));
            for i in 0..v.len() {
                if i & am != 0 && i & bm == 0 {
                    v.swap(i, i ^ (am | bm));
                }
            }
        }
    }
    Some(())
}

const WHY_SUPPORT: &str = "difference operator support exceeded the cap";
const WHY_DOMAIN: &str = "exact phase arithmetic left the dyadic domain";

/// The difference operator `D = (absorbed pre gates) · (absorbed post
/// gates)†` as a dense symbolic matrix over its minimal support. The two
/// streams are equal on a region exactly when `D` is the identity with
/// both streams exhausted.
struct DiffState {
    /// Global qubit ids backing local bit positions (LSB first).
    support: Vec<u32>,
    /// Row-major `2^k × 2^k` matrix over the support.
    mat: Vec<Sym>,
    max_support: usize,
}

impl DiffState {
    fn identity(max_support: usize) -> Self {
        Self {
            support: Vec::new(),
            mat: vec![Sym::one()],
            max_support,
        }
    }

    fn dim(&self) -> usize {
        1 << self.support.len()
    }

    fn is_identity(&self) -> bool {
        self.support.is_empty() && self.mat[0].is_one()
    }

    /// Whether `D` is `e^{iφ}·I` (support pruned away, arbitrary unit
    /// phase left over).
    fn global_phase_only(&self) -> bool {
        self.support.is_empty() && self.mat[0].is_unit_phase()
    }

    /// Whether `D` is diagonal and supported (at most) on `q` — the shape
    /// the `phase_dead_before_measure` pass leaves right before `q`'s
    /// `Z`-collapse, where it only shifts a per-outcome global phase.
    fn diagonal_confined_to(&self, q: u32) -> bool {
        match *self.support.as_slice() {
            [] => self.mat[0].is_unit_phase(),
            [only] => only == q && self.mat[1].is_zero() && self.mat[2].is_zero(),
            _ => false,
        }
    }

    fn reset(&mut self) {
        self.support.clear();
        self.mat = vec![Sym::one()];
    }

    /// Whether `gate`'s operands avoid the support entirely, so that
    /// conjugating `D` by the gate is a no-op.
    fn untouched_by(&self, gate: &Gate) -> bool {
        let mut clean = true;
        gate.for_each_qubit(&mut |q| clean &= !self.support.contains(&q.0));
        clean
    }

    /// Whether every operand of `gate` already lies inside the support,
    /// so absorbing it cannot grow the difference operator.
    fn covers(&self, gate: &Gate) -> bool {
        let mut inside = true;
        gate.for_each_qubit(&mut |q| inside &= self.support.contains(&q.0));
        inside
    }

    /// The support size after extending with `gate`'s operands.
    fn union_support_len(&self, gate: &Gate) -> usize {
        let mut extra = 0usize;
        gate.for_each_qubit(&mut |q| {
            if !self.support.contains(&q.0) {
                extra += 1;
            }
        });
        self.support.len() + extra
    }

    /// Extends the support with any new operands of `gate` (appended as
    /// most-significant positions: `D ← I₂ ⊗ D`).
    fn ensure(&mut self, gate: &Gate) -> Result<(), &'static str> {
        let mut qs = Vec::new();
        gate.for_each_qubit(&mut |q| qs.push(q.0));
        for q in qs {
            if self.support.contains(&q) {
                continue;
            }
            if self.support.len() == self.max_support {
                return Err(WHY_SUPPORT);
            }
            let dim = self.dim();
            let nd = dim * 2;
            let mut next = vec![Sym::zero(); nd * nd];
            for r in 0..dim {
                for c in 0..dim {
                    next[r * nd + c] = self.mat[r * dim + c].clone();
                    next[(r + dim) * nd + (c + dim)] = self.mat[r * dim + c].clone();
                }
            }
            self.mat = next;
            self.support.push(q);
        }
        Ok(())
    }

    /// The gate with operands renamed to local bit positions.
    fn localise(&self, gate: &Gate) -> Gate {
        gate.map_qubits(|q| {
            let local = self
                .support
                .iter()
                .position(|&s| s == q.0)
                .expect("ensure() extended the support");
            QubitId(u32::try_from(local).expect("support is tiny"))
        })
    }

    /// `D ← G·D`: one more pre-stream gate absorbed on the left.
    fn apply_left(&mut self, gate: &Gate) -> Result<(), &'static str> {
        self.ensure(gate)?;
        let local = self.localise(gate);
        let dim = self.dim();
        let mut col = vec![Sym::zero(); dim];
        for c in 0..dim {
            for (r, e) in col.iter_mut().enumerate() {
                *e = self.mat[r * dim + c].clone();
            }
            apply_gate_sym(&mut col, &local).ok_or(WHY_DOMAIN)?;
            for (r, e) in col.iter().enumerate() {
                self.mat[r * dim + c] = e.clone();
            }
        }
        self.prune();
        Ok(())
    }

    /// `D ← D·G†`: one more post-stream gate absorbed on the right.
    /// Row-wise via `(v·G†)ᶜ = conj((G·conj(v))ᶜ)`.
    fn apply_right_adjoint(&mut self, gate: &Gate) -> Result<(), &'static str> {
        self.ensure(gate)?;
        let local = self.localise(gate);
        let dim = self.dim();
        for r in 0..dim {
            let row = &mut self.mat[r * dim..(r + 1) * dim];
            for e in row.iter_mut() {
                *e = e.conj().ok_or(WHY_DOMAIN)?;
            }
            apply_gate_sym(row, &local).ok_or(WHY_DOMAIN)?;
            for e in row.iter_mut() {
                *e = e.conj().ok_or(WHY_DOMAIN)?;
            }
        }
        self.prune();
        Ok(())
    }

    /// Drops every support position on which `D` acts as the identity
    /// factor (off-blocks zero, diagonal blocks equal), keeping the
    /// matrix minimal so the fast path and the triviality checks fire.
    fn prune(&mut self) {
        'scan: loop {
            let dim = self.dim();
            if dim == 1 {
                return;
            }
            for p in 0..self.support.len() {
                if self.position_trivial(p) {
                    self.remove_position(p);
                    continue 'scan;
                }
            }
            return;
        }
    }

    fn position_trivial(&self, p: usize) -> bool {
        let dim = self.dim();
        let m = 1usize << p;
        for r in 0..dim {
            for c in 0..dim {
                if (r ^ c) & m != 0 && !self.mat[r * dim + c].is_zero() {
                    return false;
                }
                if r & m == 0
                    && c & m == 0
                    && self.mat[(r | m) * dim + (c | m)] != self.mat[r * dim + c]
                {
                    return false;
                }
            }
        }
        true
    }

    fn remove_position(&mut self, p: usize) {
        let dim = self.dim();
        let nd = dim / 2;
        let widen = |x: usize| ((x >> p) << (p + 1)) | (x & ((1 << p) - 1));
        let mut next = vec![Sym::zero(); nd * nd];
        for r in 0..nd {
            for c in 0..nd {
                next[r * nd + c] = self.mat[widen(r) * dim + widen(c)].clone();
            }
        }
        self.mat = next;
        self.support.remove(p);
    }
}

/// The front of a [`Walk`]: the next effective instruction, with fused
/// blocks and gradients already expanded to constituent gates and `Drop`s
/// skipped.
#[derive(Clone, Copy, Debug)]
enum Front {
    Gate(Gate, usize),
    Barrier(Instr, usize),
}

/// A cursor over one region `lo..hi` of a stream that presents gates and
/// barriers uniformly: fused blocks and gradients stream out their
/// constituents (all reported at the block's or gradient's pc) and
/// advisory `Drop`s are transparent.
#[derive(Clone)]
struct Walk<'a> {
    view: ProgramView<'a>,
    pc: usize,
    hi: usize,
    queue: VecDeque<Gate>,
    queue_pc: usize,
}

impl<'a> Walk<'a> {
    fn new(view: ProgramView<'a>, lo: usize, hi: usize) -> Self {
        Self {
            view,
            pc: lo,
            hi,
            queue: VecDeque::new(),
            queue_pc: lo,
        }
    }

    fn front(&mut self) -> Option<Front> {
        loop {
            if let Some(g) = self.queue.front() {
                return Some(Front::Gate(*g, self.queue_pc));
            }
            if self.pc >= self.hi {
                return None;
            }
            match self.view.instrs[self.pc] {
                Instr::Drop(_) => self.pc += 1,
                Instr::Gate(g) => return Some(Front::Gate(g, self.pc)),
                Instr::Fused(idx) => {
                    self.queue_pc = self.pc;
                    self.pc += 1;
                    // Validation already vouched for the index.
                    if let Some(block) = self.view.fused.get(idx as usize) {
                        self.queue.extend(block.global_gates());
                    }
                }
                Instr::Gradient(idx) => {
                    self.queue_pc = self.pc;
                    self.pc += 1;
                    if let Some(pg) = self.view.gradients.get(idx as usize) {
                        self.queue.extend(pg.gates());
                    }
                }
                other => return Some(Front::Barrier(other, self.pc)),
            }
        }
    }

    /// The pc the walk would report next (the region end once exhausted).
    fn report_pc(&mut self) -> usize {
        match self.front() {
            Some(Front::Gate(_, pc) | Front::Barrier(_, pc)) => pc,
            None => self.hi,
        }
    }

    fn pop_gate(&mut self) {
        if self.queue.pop_front().is_none() {
            self.pc += 1;
        }
    }

    fn pop_barrier(&mut self) {
        self.pc += 1;
    }

    /// Continues the walk at `target` (a branch join point).
    fn jump(&mut self, target: usize) {
        debug_assert!(self.queue.is_empty(), "jump only from a barrier front");
        self.pc = target;
    }
}

/// Whether two walks present syntactically identical effective streams
/// from their current positions to their region ends — same gates in the
/// same order (fused blocks expanded, `Drop`s skipped) and byte-equal
/// barriers. Identical remainders conjugate the difference operator
/// without ever restoring the identity, so a non-identity `D` here is a
/// proof of divergence even when its exact value has outgrown the
/// abstract domain.
fn remainders_match(pre: &Walk<'_>, post: &Walk<'_>) -> bool {
    let mut a = pre.clone();
    let mut b = post.clone();
    loop {
        match (a.front(), b.front()) {
            (None, None) => return true,
            (Some(Front::Gate(g, _)), Some(Front::Gate(h, _))) if g == h => {
                a.pop_gate();
                b.pop_gate();
            }
            (Some(Front::Barrier(x, _)), Some(Front::Barrier(y, _))) if x == y => {
                // Equal `BranchUnless` skips mean equal join targets, and
                // the guarded body that follows is compared linearly —
                // the flat walk covers it without recursing.
                a.pop_barrier();
                b.pop_barrier();
            }
            _ => return false,
        }
    }
}

struct Engine<'a> {
    pre: ProgramView<'a>,
    post: ProgramView<'a>,
    opts: EquivOptions,
    d: DiffState,
    /// Where the difference operator last left the identity: the first
    /// still-undischarged diverging instruction on each side.
    pending: Option<(usize, usize)>,
}

impl Engine<'_> {
    fn localise_failure(&self, pre_pc: usize, post_pc: usize) -> (usize, usize) {
        self.pending.unwrap_or((pre_pc, post_pc))
    }

    fn diverged(&self, pre_pc: usize, post_pc: usize, why: &str) -> Equivalence {
        let (pre_pc, post_pc) = self.localise_failure(pre_pc, post_pc);
        Equivalence::Diverged {
            pre_pc,
            post_pc,
            why: why.to_string(),
        }
    }

    fn inconclusive(&self, pre_pc: usize, post_pc: usize, why: &str) -> Equivalence {
        let (pre_pc, post_pc) = self.localise_failure(pre_pc, post_pc);
        Equivalence::Inconclusive {
            pre_pc,
            post_pc,
            why: why.to_string(),
        }
    }

    /// Absorbs one gate into the difference operator, maintaining the
    /// first-divergence bookkeeping.
    fn absorb(
        &mut self,
        gate: &Gate,
        left: bool,
        pre_pc: usize,
        post_pc: usize,
    ) -> Result<(), Equivalence> {
        if self.d.is_identity() {
            self.pending = Some((pre_pc, post_pc));
        }
        let applied = if left {
            self.d.apply_left(gate)
        } else {
            self.d.apply_right_adjoint(gate)
        };
        applied.map_err(|why| self.inconclusive(pre_pc, post_pc, why))?;
        if self.d.is_identity() {
            self.pending = None;
        }
        Ok(())
    }

    /// Requires the difference operator discharged (identity, or within
    /// the configured allowances) before crossing barrier `a`.
    fn discharge_at_barrier(
        &mut self,
        barrier: &Instr,
        pre_pc: usize,
        post_pc: usize,
    ) -> Result<(), Equivalence> {
        if self.d.is_identity() {
            return Ok(());
        }
        if self.opts.allow_global_phase {
            let forgivable = match barrier {
                Instr::Measure {
                    qubit,
                    basis: Basis::Z,
                    ..
                }
                | Instr::Reset(qubit) => self.d.diagonal_confined_to(qubit.0),
                _ => self.d.global_phase_only(),
            };
            if forgivable {
                self.d.reset();
                self.pending = None;
                return Ok(());
            }
        }
        Err(self.diverged(pre_pc, post_pc, "streams differ at a non-unitary barrier"))
    }

    fn run_region(
        &mut self,
        pre_range: (usize, usize),
        post_range: (usize, usize),
    ) -> Result<(), Equivalence> {
        let mut pre = Walk::new(self.pre, pre_range.0, pre_range.1);
        let mut post = Walk::new(self.post, post_range.0, post_range.1);
        loop {
            match (pre.front(), post.front()) {
                (None, None) => {
                    if self.d.is_identity() {
                        return Ok(());
                    }
                    if self.opts.allow_global_phase && self.d.global_phase_only() {
                        self.d.reset();
                        self.pending = None;
                        return Ok(());
                    }
                    return Err(self.diverged(
                        pre_range.1,
                        post_range.1,
                        "residual difference at end of region",
                    ));
                }
                (Some(Front::Gate(g, _)), Some(Front::Gate(h, _)))
                    if g == h && self.d.untouched_by(&g) =>
                {
                    // Identical fronts commuting past D pop in O(1):
                    // g·D·g† = D when g avoids the support.
                    pre.pop_gate();
                    post.pop_gate();
                }
                (Some(Front::Gate(g, gpc)), Some(Front::Gate(h, hpc))) if g == h => {
                    // Identical fronts overlapping a live difference
                    // conjugate it: D ← g·D·g†. Conjugation never
                    // restores the identity, so while the exact value is
                    // only tracked while it fits the support cap, a
                    // syntactically identical remainder past the cap is
                    // already a proof of divergence.
                    if self.d.union_support_len(&g) <= self.opts.max_support {
                        self.absorb(&g, true, gpc, hpc)?;
                        self.absorb(&g, false, gpc, hpc)?;
                        pre.pop_gate();
                        post.pop_gate();
                    } else if remainders_match(&pre, &post) {
                        return Err(self.diverged(
                            gpc,
                            hpc,
                            "difference persists through an identical suffix",
                        ));
                    } else {
                        return Err(self.inconclusive(gpc, hpc, WHY_SUPPORT));
                    }
                }
                (Some(Front::Gate(g, gpc)), _) => {
                    let opc = post.report_pc();
                    self.absorb(&g, true, gpc, opc)?;
                    pre.pop_gate();
                    // Pull post gates confined to the difference's
                    // support, so merged rotations discharge promptly —
                    // but never widen D from the post side: a cancelled
                    // pre pair discharges itself on the next iteration,
                    // and absorbing unrelated post gates here would drag
                    // the streams out of alignment.
                    while let Some(Front::Gate(h, hpc)) = post.front() {
                        if !self.d.covers(&h) {
                            break;
                        }
                        self.absorb(&h, false, pre.report_pc(), hpc)?;
                        post.pop_gate();
                    }
                }
                (_, Some(Front::Gate(h, hpc))) => {
                    let ppc = pre.report_pc();
                    self.absorb(&h, false, ppc, hpc)?;
                    post.pop_gate();
                }
                (Some(Front::Barrier(a, pa)), Some(Front::Barrier(b, pb))) => {
                    self.discharge_at_barrier(&a, pa, pb)?;
                    match (a, b) {
                        (
                            Instr::BranchUnless {
                                clbit: ca,
                                skip: sa,
                            },
                            Instr::BranchUnless {
                                clbit: cb,
                                skip: sb,
                            },
                        ) => {
                            if ca != cb {
                                return Err(self.diverged(
                                    pa,
                                    pb,
                                    "branches test different classical bits",
                                ));
                            }
                            let ta = pa + 1 + sa as usize;
                            let tb = pb + 1 + sb as usize;
                            self.run_region((pa + 1, ta), (pb + 1, tb))?;
                            pre.jump(ta);
                            post.jump(tb);
                        }
                        _ if a == b => {
                            pre.pop_barrier();
                            post.pop_barrier();
                        }
                        _ => {
                            return Err(self.diverged(
                                pa,
                                pb,
                                "mismatched non-unitary instructions",
                            ));
                        }
                    }
                }
                (Some(Front::Barrier(_, pa)), None) => {
                    return Err(self.diverged(
                        pa,
                        post_range.1,
                        "pre stream has an extra non-unitary instruction",
                    ));
                }
                (None, Some(Front::Barrier(_, pb))) => {
                    return Err(self.diverged(
                        pre_range.1,
                        pb,
                        "post stream has an extra non-unitary instruction",
                    ));
                }
            }
        }
    }
}

/// Symbolically proves two compiled programs equal as state functions,
/// with default [`EquivOptions`] (exact equality, support cap 8). See the
/// module docs for the abstract domain and its completeness boundary.
#[must_use]
pub fn check_equivalence(pre: &CompiledCircuit, post: &CompiledCircuit) -> Equivalence {
    check_equivalence_with(&pre.view(), &post.view(), &EquivOptions::default())
}

/// [`check_equivalence`] over raw [`ProgramView`]s with explicit options —
/// the entry point for checking mutated or hand-assembled streams.
#[must_use]
pub fn check_equivalence_with(
    pre: &ProgramView<'_>,
    post: &ProgramView<'_>,
    opts: &EquivOptions,
) -> Equivalence {
    if pre.num_qubits != post.num_qubits || pre.num_clbits != post.num_clbits {
        return Equivalence::Diverged {
            pre_pc: 0,
            post_pc: 0,
            why: "register shapes differ".to_string(),
        };
    }
    // The engine assumes well-formed streams (in-range fused indices,
    // valid branch targets); delegate anything else to Layer 1.
    if let Some(finding) = validate(pre).into_iter().next() {
        return Equivalence::Inconclusive {
            pre_pc: finding.pc().unwrap_or(0),
            post_pc: 0,
            why: format!("pre stream fails validation: {finding}"),
        };
    }
    if let Some(finding) = validate(post).into_iter().next() {
        return Equivalence::Inconclusive {
            pre_pc: 0,
            post_pc: finding.pc().unwrap_or(0),
            why: format!("post stream fails validation: {finding}"),
        };
    }
    let mut engine = Engine {
        pre: *pre,
        post: *post,
        opts: *opts,
        d: DiffState::identity(opts.max_support),
        pending: None,
    };
    match engine.run_region((0, pre.instrs.len()), (0, post.instrs.len())) {
        Ok(()) => Equivalence::Equal,
        Err(outcome) => outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::compile::PassConfig;
    use crate::op::ClbitId;

    fn compiled_and_lowered(
        build: impl Fn(&mut CircuitBuilder),
    ) -> (CompiledCircuit, CompiledCircuit) {
        let mut b = CircuitBuilder::new();
        build(&mut b);
        let circuit = b.finish();
        (
            CompiledCircuit::lower(&circuit).unwrap(),
            CompiledCircuit::compile(&circuit).unwrap(),
        )
    }

    fn gidney_uncompute(b: &mut CircuitBuilder) {
        let q = b.qreg("q", 3);
        b.ccx(q[0], q[1], q[2]);
        b.h(q[2]);
        let m = b.measure(q[2], Basis::Z);
        let (_, fix) = b.record(|b| {
            b.cz(q[0], q[1]);
            b.x(q[2]);
        });
        b.emit_conditional(m, &fix);
    }

    #[test]
    fn compiled_programs_verify_clean() {
        let (lowered, compiled) = compiled_and_lowered(gidney_uncompute);
        lowered.verify().unwrap();
        compiled.verify().unwrap();
        assert!(validate_compiled(&compiled).is_empty());
    }

    #[test]
    fn verified_stats_reflect_the_careful_profile() {
        let (_, compiled) = compiled_and_lowered(gidney_uncompute);
        if cfg!(debug_assertions) {
            // Debug and careful builds run the validator and say so.
            assert!(compiled.stats().verified);
            assert!(!compiled.stats().verify_skipped);
            assert!(compiled.to_string().contains("verified"));
        } else {
            // Release builds compile the inline verifier out and say that.
            assert!(!compiled.stats().verified);
            assert!(compiled.stats().verify_skipped);
            assert!(compiled.to_string().contains("verify skipped"));
        }
    }

    #[test]
    fn validator_flags_range_and_duplicate_errors() {
        let instrs = [
            Instr::Gate(Gate::Cx(QubitId(0), QubitId(5))),
            Instr::Gate(Gate::Cz(QubitId(1), QubitId(1))),
            Instr::Measure {
                qubit: QubitId(0),
                basis: Basis::Z,
                clbit: ClbitId(3),
            },
        ];
        let view = ProgramView::new(2, 1, &instrs, &[]);
        let findings = validate(&view);
        assert!(findings.contains(&Finding::QubitOutOfRange { pc: 0, qubit: 5 }));
        assert!(findings.contains(&Finding::DuplicateOperand { pc: 1, qubit: 1 }));
        assert!(findings.contains(&Finding::ClbitOutOfRange { pc: 2, clbit: 3 }));
    }

    #[test]
    fn validator_flags_branch_targets() {
        let instrs = [
            Instr::BranchUnless {
                clbit: ClbitId(0),
                skip: 3,
            },
            Instr::Gate(Gate::X(QubitId(0))),
        ];
        let view = ProgramView::new(1, 1, &instrs, &[]);
        assert!(validate(&view).contains(&Finding::BranchTargetOutOfRange { pc: 0, target: 4 }));

        let overlapping = [
            Instr::BranchUnless {
                clbit: ClbitId(0),
                skip: 2,
            },
            Instr::BranchUnless {
                clbit: ClbitId(0),
                skip: 2,
            },
            Instr::Gate(Gate::X(QubitId(0))),
            Instr::Gate(Gate::X(QubitId(0))),
        ];
        let view = ProgramView::new(1, 1, &overlapping, &[]);
        assert!(validate(&view).contains(&Finding::BranchNotNested {
            pc: 1,
            target: 4,
            enclosing_end: 3,
        }));
    }

    #[test]
    fn validator_enforces_drop_dataflow() {
        let use_after = [
            Instr::Measure {
                qubit: QubitId(0),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Instr::Drop(QubitId(0)),
            Instr::Gate(Gate::Cx(QubitId(0), QubitId(1))),
        ];
        let view = ProgramView::new(2, 1, &use_after, &[]);
        assert_eq!(
            validate(&view),
            vec![Finding::UseAfterDrop {
                pc: 2,
                qubit: 0,
                drop_pc: 1
            }]
        );

        let uncollapsed = [Instr::Drop(QubitId(0))];
        let view = ProgramView::new(1, 0, &uncollapsed, &[]);
        assert_eq!(
            validate(&view),
            vec![Finding::DropWithoutCollapse { pc: 0, qubit: 0 }]
        );

        let guarded = [
            Instr::Measure {
                qubit: QubitId(0),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Instr::BranchUnless {
                clbit: ClbitId(0),
                skip: 1,
            },
            Instr::Drop(QubitId(0)),
        ];
        let view = ProgramView::new(1, 1, &guarded, &[]);
        assert_eq!(
            validate(&view),
            vec![Finding::DropInsideGuard { pc: 2, qubit: 0 }]
        );
    }

    #[test]
    fn validator_flags_malformed_fused_blocks() {
        let unsorted = FusedUnitary::raw(
            vec![QubitId(2), QubitId(1)],
            vec![Gate::Cx(QubitId(0), QubitId(1)), Gate::X(QubitId(0))],
        );
        let bad_local = FusedUnitary::raw(
            vec![QubitId(0), QubitId(1)],
            vec![
                Gate::Cx(QubitId(0), QubitId(7)),
                Gate::Cz(QubitId(1), QubitId(1)),
            ],
        );
        let table = [unsorted, bad_local];
        let instrs = [Instr::Fused(0), Instr::Fused(5)];
        let view = ProgramView::new(3, 0, &instrs, &table);
        let findings = validate(&view);
        assert!(findings.contains(&Finding::FusedSupportUnsorted { block: 0 }));
        assert!(findings.contains(&Finding::FusedLocalOperandOutOfRange {
            block: 1,
            gate: 0,
            operand: 7
        }));
        assert!(findings.contains(&Finding::FusedLocalDuplicate {
            block: 1,
            gate: 1,
            operand: 1
        }));
        assert!(findings.contains(&Finding::FusedIndexOutOfRange { pc: 1, index: 5 }));
    }

    #[test]
    fn validator_flags_malformed_gradients_once_each() {
        let t = QubitId(2);
        let table = [
            // A control past the register.
            PhaseGradient::new(t, false, vec![(QubitId(0), 2), (QubitId(9), 3)]),
            // The target among its own controls.
            PhaseGradient::new(t, true, vec![(QubitId(0), 2), (t, 3)]),
            // A repeated exponent.
            PhaseGradient::new(t, false, vec![(QubitId(0), 4), (QubitId(1), 4)]),
            // Well-formed.
            PhaseGradient::new(t, true, vec![(QubitId(0), 1), (QubitId(1), 1100)]),
        ];
        let instrs = [
            Instr::Gradient(0),
            Instr::Gradient(1),
            Instr::Gradient(2),
            Instr::Gradient(3),
            // Past the table.
            Instr::Gradient(4),
        ];
        let view = ProgramView::new(3, 0, &instrs, &[]).with_gradients(&table);
        assert_eq!(
            validate(&view),
            [
                Finding::GradientOperandOutOfRange {
                    gradient: 0,
                    qubit: 9
                },
                Finding::GradientTargetIsControl {
                    gradient: 1,
                    term: 1
                },
                Finding::GradientRepeatedExponent {
                    gradient: 2,
                    term: 1,
                    k: 4
                },
                Finding::GradientIndexOutOfRange { pc: 4, index: 4 },
            ]
        );
        // Without its table the stream's every gradient dangles.
        let bare = ProgramView::new(3, 0, &instrs[3..4], &[]);
        assert_eq!(
            validate(&bare),
            [Finding::GradientIndexOutOfRange { pc: 0, index: 3 }]
        );
    }

    #[test]
    fn gradients_touch_their_qubits_for_the_drop_dataflow() {
        let instrs = [
            Instr::Measure {
                qubit: QubitId(1),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Instr::Drop(QubitId(1)),
            Instr::Gradient(0),
        ];
        let table = [PhaseGradient::new(
            QubitId(2),
            false,
            vec![(QubitId(0), 2), (QubitId(1), 3)],
        )];
        let view = ProgramView::new(3, 1, &instrs, &[]).with_gradients(&table);
        assert_eq!(
            validate(&view),
            [Finding::UseAfterDrop {
                pc: 2,
                qubit: 1,
                drop_pc: 1
            }]
        );
    }

    #[test]
    fn passes_prove_equal_on_the_mbu_uncompute() {
        let (lowered, compiled) = compiled_and_lowered(gidney_uncompute);
        assert_eq!(check_equivalence(&lowered, &compiled), Equivalence::Equal);
        // Reflexively too, and against the unfused/unreclaimed stages.
        assert_eq!(check_equivalence(&compiled, &compiled), Equivalence::Equal);
    }

    #[test]
    fn hadamard_pair_cancellation_proves_equal() {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.h(q[0]);
        b.cz(q[0], q[1]);
        b.h(q[1]);
        b.h(q[1]);
        b.h(q[0]);
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        // The H(q1) pair cancels; proving it exercises the √2 ring.
        assert!(compiled.counts().h < lowered.counts().h);
        assert_eq!(check_equivalence(&lowered, &compiled), Equivalence::Equal);
    }

    #[test]
    fn rotation_merge_proves_equal() {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.phase(q[0], Angle::turn_over_power_of_two(3));
        b.cx(q[0], q[1]);
        b.phase(q[0], Angle::turn_over_power_of_two(3));
        b.phase(q[0], Angle::turn_over_power_of_two(2));
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        assert_eq!(check_equivalence(&lowered, &compiled), Equivalence::Equal);
    }

    #[test]
    fn dropped_phase_diverges_at_the_exact_instruction() {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.cx(q[0], q[1]);
        b.phase(q[1], Angle::turn_over_power_of_two(2));
        b.cz(q[0], q[1]);
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        // Miscompile: silently drop the phase correction at pc 1.
        let mut mutated: Vec<Instr> = lowered.instrs().to_vec();
        mutated.remove(1);
        let post = ProgramView::new(2, 0, &mutated, &[]);
        match check_equivalence_with(&lowered.view(), &post, &EquivOptions::default()) {
            Equivalence::Diverged { pre_pc, .. } => assert_eq!(pre_pc, 1),
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn swapped_operands_diverge_at_the_exact_instruction() {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.x(q[0]);
        b.cx(q[0], q[1]);
        b.x(q[1]);
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let mut mutated: Vec<Instr> = lowered.instrs().to_vec();
        mutated[1] = Instr::Gate(Gate::Cx(QubitId(1), QubitId(0)));
        let post = ProgramView::new(2, 0, &mutated, &[]);
        match check_equivalence_with(&lowered.view(), &post, &EquivOptions::default()) {
            Equivalence::Diverged {
                pre_pc, post_pc, ..
            } => {
                assert_eq!((pre_pc, post_pc), (1, 1));
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn symmetric_diagonal_operand_order_is_equal() {
        // CZ(a,b) vs CZ(b,a): textually different, semantically equal.
        let instrs_a = [Instr::Gate(Gate::Cz(QubitId(0), QubitId(1)))];
        let instrs_b = [Instr::Gate(Gate::Cz(QubitId(1), QubitId(0)))];
        let a = ProgramView::new(2, 0, &instrs_a, &[]);
        let b = ProgramView::new(2, 0, &instrs_b, &[]);
        assert_eq!(
            check_equivalence_with(&a, &b, &EquivOptions::default()),
            Equivalence::Equal
        );
    }

    #[test]
    fn phase_dead_pass_needs_the_global_phase_allowance() {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 1);
        b.x(q[0]);
        b.z(q[0]);
        b.measure(q[0], Basis::Z);
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let aggressive = CompiledCircuit::with_config(&circuit, &PassConfig::aggressive()).unwrap();
        assert!(aggressive.stats().phase_dead_removed > 0);
        assert!(!check_equivalence(&lowered, &aggressive).is_equal());
        assert_eq!(
            check_equivalence_with(
                &lowered.view(),
                &aggressive.view(),
                &EquivOptions {
                    allow_global_phase: true,
                    ..EquivOptions::default()
                }
            ),
            Equivalence::Equal
        );
    }

    #[test]
    fn support_cap_reports_inconclusive() {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        // Two genuinely different H-walls: the difference operator must
        // widen past the cap before any verdict is possible.
        for q in 0..4u32 {
            pre.push(Instr::Gate(Gate::H(QubitId(q))));
            post.push(Instr::Gate(Gate::Phase(
                QubitId(q),
                Angle::turn_over_power_of_two(2),
            )));
        }
        let a = ProgramView::new(4, 0, &pre, &[]);
        let b = ProgramView::new(4, 0, &post, &[]);
        let opts = EquivOptions {
            max_support: 2,
            ..EquivOptions::default()
        };
        assert!(matches!(
            check_equivalence_with(&a, &b, &opts),
            Equivalence::Inconclusive { .. }
        ));
    }

    #[test]
    fn deep_angles_fall_out_of_the_dyadic_domain() {
        // A divergence whose discharge needs folding θ − π at denominator
        // 2^1025 is beyond exact dyadic arithmetic: inconclusive, never a
        // false proof.
        let instrs_a = [
            Instr::Gate(Gate::H(QubitId(0))),
            Instr::Gate(Gate::Phase(
                QubitId(0),
                -Angle::turn_over_power_of_two(1025),
            )),
            Instr::Gate(Gate::H(QubitId(0))),
        ];
        let instrs_b = [Instr::Gate(Gate::X(QubitId(0)))];
        let a = ProgramView::new(1, 0, &instrs_a, &[]);
        let b = ProgramView::new(1, 0, &instrs_b, &[]);
        assert!(matches!(
            check_equivalence_with(&a, &b, &EquivOptions::default()),
            Equivalence::Inconclusive { .. }
        ));
    }

    #[test]
    fn sym_ring_is_canonical() {
        let one = Sym::one();
        assert!(one.is_one());
        // (1/√2)·(1/√2) + (1/√2)·(1/√2) = 1 — the H·H diagonal.
        let half = one.mul_sqrt2_inv().unwrap().mul_sqrt2_inv().unwrap();
        assert!(half.add(&half).unwrap().is_one());
        // e^{iπ} folds to −1; adding 1 cancels exactly.
        let minus = one.rotate(Angle::HALF_TURN).unwrap();
        assert!(minus.add(&one).unwrap().is_zero());
        // Conjugation round-trips.
        let t = one.rotate(Angle::turn_over_power_of_two(3)).unwrap();
        assert_eq!(t.conj().unwrap().conj().unwrap(), t);
        assert!(t
            .conj()
            .unwrap()
            .rotate(Angle::turn_over_power_of_two(3))
            .unwrap()
            .is_one());
    }
}
