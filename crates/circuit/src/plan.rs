//! Segment classification and per-segment representation planning.
//!
//! The [`CompiledCircuit::segments`] decomposition identifies the
//! deterministic unitary runs of a program; this module labels each run
//! with the *structural facts* a simulation engine needs to pick a state
//! representation for it. Compilation cuts the runs and labels them in
//! one linear walk, once, and stores the labels on the program:
//!
//! * **permutation-only** — every gate is a classical basis permutation
//!   ([`Gate::is_permutation`]), so the segment moves amplitudes without
//!   arithmetic and never grows the occupied set;
//! * **diagonal-only** — every gate is diagonal
//!   ([`Gate::is_diagonal`]), so the segment only rotates phases in
//!   place;
//! * **H count** — the number of Hadamards, the only gate in the set
//!   that can grow the occupied set (each `H` at most doubles it);
//! * **support width** — how many distinct qubits the segment touches;
//! * **occupancy ceiling** — an upper bound (as a power of two) on the
//!   number of simultaneously nonzero amplitudes *after* the segment,
//!   threaded across segments: `|0…0⟩` starts at one occupied entry,
//!   each Hadamard at most doubles the set, permutation and diagonal
//!   gates preserve it exactly (the sparse backend culls exact zeros, so
//!   its occupied set *is* the nonzero support), and each measurement or
//!   reset between segments collapses one qubit and halves the bound.
//!
//! [`CompiledCircuit::representation_plan`] turns the profiles into a
//! per-segment three-way decision ([`PlannedRepr`]): a segment predicted
//! to stay under the sparsity threshold runs cheaper on the sparse map; a
//! segment whose occupied set approaches `2^n` wants the flat dense array
//! (provided the state fits a dense allocation at all); and a
//! diagonal-heavy segment whose occupied set outgrows the sparse sweet
//! spot past the dense cap — the interior of a QFT adder — wants the
//! phase-accumulator representation, where diagonal gates are O(occupied)
//! exact angle additions. The plan is a static label: `PassStats` and the
//! program's `Display` report it, the static verifier checks it, and no
//! simulator acts on it — a caller picks one backend for the whole run.

use std::fmt;

use crate::compile::{CompiledCircuit, FusedUnitary, Instr, PhaseGradient, Segment};
use crate::gate::Gate;
use crate::op::QubitId;

/// Default cap on the register width for which the planner will consider
/// a dense representation at all: a dense phase allocates `2^n` amplitude
/// slots, and past this width (16 MiB of complex amplitudes at 24
/// qubits) converting to dense cannot pay for itself.
pub const DEFAULT_AUTO_DENSE_QUBITS: usize = 24;

/// Default occupancy threshold separating "sparse is cheaper" from
/// "dense is cheaper": a segment whose predicted occupied set stays at or
/// under this many entries is planned sparse.
pub const DEFAULT_AUTO_SPARSITY: u64 = 4096;

/// Default minimum number of diagonal gates for a segment to be worth the
/// phase-accumulator representation: below this the conversion round-trip
/// costs more than the diagonal fast path saves.
pub const DEFAULT_AUTO_PHASE_DIAG: u32 = 8;

/// Thresholds steering the three-way representation choice of
/// [`plan_segment`]. The compile-time dump plans with [`Default`]; a
/// `phase_diag_min` of `u32::MAX` leaves only the dense/sparse arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanConfig {
    /// Widest register for which a dense `2^n` allocation is considered
    /// (see [`DEFAULT_AUTO_DENSE_QUBITS`]).
    pub dense_qubit_cap: usize,
    /// Occupied-set size at or under which sparse is presumed cheaper
    /// (see [`DEFAULT_AUTO_SPARSITY`]).
    pub sparsity_threshold: u64,
    /// Minimum diagonal-gate count for a phase plan (see
    /// [`DEFAULT_AUTO_PHASE_DIAG`]).
    pub phase_diag_min: u32,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            dense_qubit_cap: DEFAULT_AUTO_DENSE_QUBITS,
            sparsity_threshold: DEFAULT_AUTO_SPARSITY,
            phase_diag_min: DEFAULT_AUTO_PHASE_DIAG,
        }
    }
}

/// Structural facts about one deterministic segment of a compiled
/// program. Produced by [`CompiledCircuit::segment_profiles`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentProfile {
    /// The instruction range the facts describe.
    pub segment: Segment,
    /// Every gate is a classical basis permutation (`X`/`CX`/`CCX`/
    /// `SWAP`): the segment moves amplitudes with no arithmetic and the
    /// occupied set neither grows nor shrinks.
    pub perm_only: bool,
    /// Every gate is diagonal in the computational basis: the segment
    /// rotates phases in place and the occupied set is untouched.
    pub diag_only: bool,
    /// Number of Hadamard gates — the only occupancy-growing gate in the
    /// set (each at most doubles the occupied set).
    pub h_count: u32,
    /// Number of diagonal gates (`Z`/`Phase`/`CZ`/`CCZ`/`CPhase`/
    /// `CCPhase`) — the gates a phase-accumulator representation executes
    /// as O(occupied) exact angle additions with no amplitude sweep.
    pub diag_count: u32,
    /// Number of distinct qubits the segment touches.
    pub support_width: usize,
    /// Upper bound on the occupied-set size after the segment, as a
    /// power-of-two exponent (capped at the register width). Threaded
    /// across segments from the `|0…0⟩` start, with measurements and
    /// resets between segments each halving the bound.
    pub occ_ceiling_log2: u32,
}

impl SegmentProfile {
    /// The occupancy ceiling as an entry count (`u64::MAX` when the
    /// exponent exceeds 63 bits).
    #[must_use]
    pub fn predicted_entries(&self) -> u64 {
        if self.occ_ceiling_log2 >= 63 {
            u64::MAX
        } else {
            1u64 << self.occ_ceiling_log2
        }
    }

    /// Whether the segment has the structure the phase-accumulator
    /// representation is for: a predicted occupied set past the sparse
    /// sweet spot *and* enough diagonal gates to amortise the conversion
    /// round-trip. [`plan_segment`] plans `Phase` only for such segments
    /// (when the dense arm declined), and the static verifier re-derives
    /// the same predicate from its own segment walk to certify plan
    /// coherence.
    #[must_use]
    pub fn phase_suitable(&self, config: &PlanConfig) -> bool {
        self.predicted_entries() > config.sparsity_threshold
            && self.diag_count >= config.phase_diag_min
    }
}

impl fmt::Display for SegmentProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcs {}..{}, ", self.segment.start, self.segment.end)?;
        if self.perm_only {
            write!(f, "perm-only")?;
        } else if self.diag_only {
            write!(f, "diag-only")?;
        } else if self.h_count > 0 {
            write!(f, "h\u{d7}{}", self.h_count)?;
            if self.diag_count > 0 {
                write!(f, "+diag\u{d7}{}", self.diag_count)?;
            }
        } else {
            write!(f, "mixed")?;
        }
        write!(f, ", support {}, ", self.support_width)?;
        if self.occ_ceiling_log2 <= 16 {
            write!(f, "occ\u{2264}{}", 1u64 << self.occ_ceiling_log2)
        } else {
            write!(f, "occ\u{2264}2^{}", self.occ_ceiling_log2)
        }
    }
}

/// The representation the planner picked for one segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannedRepr {
    /// Flat `2^n` amplitude array: cheapest once the occupied set is a
    /// sizable fraction of the space (contiguous sweeps, SIMD kernels).
    Dense,
    /// Sorted key→amplitude map holding only nonzero entries: cheapest
    /// while the occupied set stays small.
    Sparse,
    /// Occupied basis branches with per-register classical dyadic phase
    /// accumulators: diagonal gates become O(occupied) exact angle
    /// additions, so QFT-adder interiors run without amplitude sweeps
    /// even where a dense allocation is impossible.
    Phase,
}

impl fmt::Display for PlannedRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannedRepr::Dense => write!(f, "dense"),
            PlannedRepr::Sparse => write!(f, "sparse"),
            PlannedRepr::Phase => write!(f, "phase"),
        }
    }
}

/// The three-way representation decision for one segment, given the
/// register width and the planner thresholds:
///
/// 1. **Dense** when the state fits a dense allocation
///    (`num_qubits ≤ dense_qubit_cap`) *and* the predicted occupied set
///    outgrows `sparsity_threshold` entries — flat sweeps beat map
///    updates once occupancy is a sizable fraction of `2^n`;
/// 2. otherwise **Phase** when the predicted occupied set still outgrows
///    the sparsity threshold (the blow-up a sparse map cannot absorb past
///    the dense cap comes from Fourier-basis fan-out), and the segment
///    carries at least `phase_diag_min` diagonal gates to amortise the
///    conversion;
/// 3. otherwise **Sparse**.
#[must_use]
pub fn plan_segment(
    num_qubits: usize,
    profile: &SegmentProfile,
    config: &PlanConfig,
) -> PlannedRepr {
    let outgrows = profile.predicted_entries() > config.sparsity_threshold;
    if num_qubits <= config.dense_qubit_cap && outgrows {
        PlannedRepr::Dense
    } else if profile.phase_suitable(config) {
        PlannedRepr::Phase
    } else {
        PlannedRepr::Sparse
    }
}

/// The compile side's one walk over a finished program: cuts the
/// deterministic segments (maximal unitary runs, split at every barrier
/// and branch join target; see [`CompiledCircuit::segments`]) and
/// classifies each with the facts of [`SegmentProfile`], threading the
/// occupancy ceiling across segments from the `|0…0⟩` start state.
/// [`CompiledCircuit::with_config`] runs it once and stores the result.
pub(crate) fn profile_segments(
    instrs: &[Instr],
    fused: &[FusedUnitary],
    gradients: &[PhaseGradient],
    num_qubits: usize,
) -> Vec<SegmentProfile> {
    // Branch join targets cut runs: the instructions before and after a
    // join execute under different guard conditions.
    let mut join = vec![false; instrs.len() + 1];
    for (pc, instr) in instrs.iter().enumerate() {
        if let Instr::BranchUnless { skip, .. } = instr {
            join[pc + 1 + *skip as usize] = true;
        }
    }
    let width_log2 = u32::try_from(num_qubits).unwrap_or(u32::MAX);
    let mut profiles = Vec::new();
    let mut occ_log2: u32 = 0;
    let mut open: Option<SegmentProfile> = None;
    // Per qubit, the start of the last segment whose support counted it;
    // grown only as far as the widest qubit touched.
    let mut counted_in: Vec<usize> = Vec::new();
    for (pc, instr) in instrs.iter().enumerate() {
        let unitary = matches!(instr, Instr::Gate(_) | Instr::Fused(_) | Instr::Gradient(_));
        if join[pc] || !unitary {
            if let Some(mut done) = open.take() {
                done.segment.end = pc;
                occ_log2 = occ_log2.saturating_add(done.h_count).min(width_log2);
                done.occ_ceiling_log2 = occ_log2;
                profiles.push(done);
            }
        }
        let start = open.map_or(pc, |p| p.segment.start);
        let mut newly_counted = 0;
        let mut count = |q: QubitId| {
            let q = q.index();
            if q >= counted_in.len() {
                counted_in.resize(q + 1, usize::MAX);
            }
            if counted_in[q] != start {
                counted_in[q] = start;
                newly_counted += 1;
            }
        };
        // A fused block classifies by its (operand-independent) gate
        // families and takes its support from its global qubits; a
        // gradient counts its target and controls, and classifies as the
        // `CPhase` gates it stands for.
        let (gates, cphases) = match instr {
            Instr::Gate(g) => {
                g.for_each_qubit(&mut count);
                (std::slice::from_ref(g), 0)
            }
            Instr::Fused(idx) => {
                let block = &fused[*idx as usize];
                block.qubits().iter().copied().for_each(count);
                (block.gates(), 0)
            }
            Instr::Gradient(idx) => {
                let pg = &gradients[*idx as usize];
                count(pg.target());
                pg.terms().iter().for_each(|&(c, _)| count(c));
                (&[][..], pg.terms().len())
            }
            Instr::Measure { .. } | Instr::Reset(_) => {
                occ_log2 = occ_log2.saturating_sub(1);
                continue;
            }
            Instr::BranchUnless { .. } | Instr::Drop(_) => continue,
        };
        let p = open.get_or_insert(SegmentProfile {
            segment: Segment { start, end: pc },
            perm_only: true,
            diag_only: true,
            h_count: 0,
            diag_count: 0,
            support_width: 0,
            occ_ceiling_log2: 0,
        });
        p.support_width += newly_counted;
        for g in gates {
            p.perm_only &= g.is_permutation();
            p.diag_only &= g.is_diagonal();
            p.h_count += u32::from(matches!(g, Gate::H(_)));
            p.diag_count += u32::from(g.is_diagonal());
        }
        if cphases > 0 {
            // `CPhase` is diagonal and no permutation.
            p.perm_only = false;
            p.diag_count += u32::try_from(cphases).unwrap_or(u32::MAX);
        }
    }
    if let Some(mut done) = open {
        done.segment.end = instrs.len();
        done.occ_ceiling_log2 = occ_log2.saturating_add(done.h_count).min(width_log2);
        profiles.push(done);
    }
    // The program keeps its profiles for as long as it lives.
    profiles.shrink_to_fit();
    profiles
}

impl CompiledCircuit {
    /// The per-segment dense/sparse/phase plan at the given thresholds
    /// (see [`plan_segment`]). Positions correspond to
    /// [`CompiledCircuit::segments`] /
    /// [`CompiledCircuit::segment_profiles`] order.
    #[must_use]
    pub fn representation_plan(&self, config: &PlanConfig) -> Vec<PlannedRepr> {
        self.segment_profiles()
            .iter()
            .map(|p| plan_segment(self.num_qubits(), p, config))
            .collect()
    }
}

/// The profile walk as first written: the segments cut by their own loop,
/// then each segment's support collected in an ordered set. It stays as
/// the reference [`profile_segments`] must match exactly.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::BTreeSet;

    use super::*;

    /// The segment cut of [`CompiledCircuit::segments`], by its own loop.
    fn segments(compiled: &CompiledCircuit) -> Vec<Segment> {
        let instrs = compiled.instrs();
        let n = instrs.len();
        let mut join = vec![false; n + 1];
        for (pc, instr) in instrs.iter().enumerate() {
            if let Instr::BranchUnless { skip, .. } = instr {
                join[pc + 1 + *skip as usize] = true;
            }
        }
        let mut segments = Vec::new();
        let mut start: Option<usize> = None;
        for (pc, instr) in instrs.iter().enumerate() {
            let unitary = matches!(instr, Instr::Gate(_) | Instr::Fused(_) | Instr::Gradient(_));
            if join[pc] || !unitary {
                if let Some(s) = start.take() {
                    segments.push(Segment { start: s, end: pc });
                }
            }
            if unitary && start.is_none() {
                start = Some(pc);
            }
        }
        if let Some(s) = start {
            segments.push(Segment { start: s, end: n });
        }
        segments
    }

    /// [`CompiledCircuit::segment_profiles`], walked segment by segment
    /// with a `BTreeSet` of support qubits each.
    pub(crate) fn segment_profiles(compiled: &CompiledCircuit) -> Vec<SegmentProfile> {
        let instrs = compiled.instrs();
        let fused = compiled.fused_unitaries();
        let width_log2 = u32::try_from(compiled.num_qubits()).unwrap_or(u32::MAX);
        let mut profiles = Vec::new();
        let mut occ_log2: u32 = 0;
        let mut cursor = 0usize;
        for segment in segments(compiled) {
            for instr in &instrs[cursor..segment.start] {
                if matches!(instr, Instr::Measure { .. } | Instr::Reset(_)) {
                    occ_log2 = occ_log2.saturating_sub(1);
                }
            }
            let mut perm_only = true;
            let mut diag_only = true;
            let mut h_count = 0u32;
            let mut diag_count = 0u32;
            let mut support = BTreeSet::new();
            let mut classify = |g: &Gate, support: &mut BTreeSet<u32>| {
                perm_only &= g.is_permutation();
                diag_only &= g.is_diagonal();
                h_count += u32::from(matches!(g, Gate::H(_)));
                diag_count += u32::from(g.is_diagonal());
                g.for_each_qubit(&mut |q| {
                    support.insert(q.0);
                });
            };
            for instr in &instrs[segment.start..segment.end] {
                match instr {
                    Instr::Gate(g) => classify(g, &mut support),
                    Instr::Fused(idx) => {
                        let fu = &fused[*idx as usize];
                        let mut scratch = BTreeSet::new();
                        for g in fu.gates() {
                            classify(g, &mut scratch);
                        }
                        for q in fu.qubits() {
                            support.insert(q.0);
                        }
                    }
                    Instr::Gradient(idx) => {
                        for g in compiled.gradients()[*idx as usize].gates() {
                            classify(&g, &mut support);
                        }
                    }
                    _ => unreachable!("non-unitary instr inside a segment"),
                }
            }
            occ_log2 = occ_log2.saturating_add(h_count).min(width_log2);
            profiles.push(SegmentProfile {
                segment,
                perm_only,
                diag_only,
                h_count,
                diag_count,
                support_width: support.len(),
                occ_ceiling_log2: occ_log2,
            });
            cursor = segment.end;
        }
        profiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::Basis;

    #[test]
    fn profiles_classify_and_thread_occupancy() {
        // Program (lowered): 0:H 1:X 2:MZ 3:unless 4:CZ 5:H — three
        // segments, one measurement between the first two.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.h(r[0]);
        b.x(r[1]);
        let m = b.measure(r[0], Basis::Z);
        let (_, block) = b.record(|b| b.cz(r[0], r[1]));
        b.emit_conditional(m, &block);
        b.h(r[1]);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let profiles = compiled.segment_profiles();
        assert_eq!(profiles.len(), 3, "{compiled}");

        // H X: one Hadamard doubles the single |00⟩ entry.
        assert!(!profiles[0].perm_only);
        assert!(!profiles[0].diag_only);
        assert_eq!(profiles[0].h_count, 1);
        assert_eq!(profiles[0].support_width, 2);
        assert_eq!(profiles[0].occ_ceiling_log2, 1);
        assert_eq!(profiles[0].predicted_entries(), 2);

        assert_eq!(profiles[0].diag_count, 0);

        // The measurement halves the bound; the guarded CZ is diagonal.
        assert!(profiles[1].diag_only);
        assert!(!profiles[1].perm_only);
        assert_eq!(profiles[1].h_count, 0);
        assert_eq!(profiles[1].diag_count, 1);
        assert_eq!(profiles[1].occ_ceiling_log2, 0);

        // The post-join H doubles it again.
        assert_eq!(profiles[2].h_count, 1);
        assert_eq!(profiles[2].occ_ceiling_log2, 1);
    }

    #[test]
    fn occupancy_ceiling_caps_at_register_width() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        for _ in 0..5 {
            b.h(r[0]);
            b.h(r[1]);
        }
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let profiles = compiled.segment_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].h_count, 10);
        assert_eq!(profiles[0].occ_ceiling_log2, 2, "capped at 2 qubits");
        assert_eq!(profiles[0].predicted_entries(), 4);
    }

    #[test]
    fn fused_blocks_classify_by_their_constituents() {
        // A CX ladder across 8 qubits fuses into one permutation block
        // (see the compile-layer fusion tests); the profile must see
        // through the block to classify the segment permutation-only and
        // take support from the block's global operands.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 8);
        for i in 0..7 {
            b.cx(r[i], r[i + 1]);
        }
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert_eq!(compiled.stats().fused_blocks, 1, "{compiled}");
        let profiles = compiled.segment_profiles();
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].perm_only);
        assert!(!profiles[0].diag_only);
        assert_eq!(profiles[0].h_count, 0);
        assert_eq!(profiles[0].support_width, 8);
        // Permutations never grow the single |0…0⟩ entry.
        assert_eq!(profiles[0].occ_ceiling_log2, 0);
    }

    /// A dense/sparse-only config: no segment carries `u32::MAX`
    /// diagonal gates, so the phase arm never fires.
    fn dense_sparse(dense_qubit_cap: usize, sparsity_threshold: u64) -> PlanConfig {
        PlanConfig {
            dense_qubit_cap,
            sparsity_threshold,
            phase_diag_min: u32::MAX,
        }
    }

    #[test]
    fn plan_switches_on_width_cap_and_sparsity_threshold() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.h(r[0]);
        b.h(r[1]);
        b.h(r[2]);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let profiles = compiled.segment_profiles();
        assert_eq!(profiles[0].predicted_entries(), 8);

        // Occupancy above threshold and width under cap: dense.
        assert_eq!(
            compiled.representation_plan(&dense_sparse(24, 4)),
            vec![PlannedRepr::Dense]
        );
        // Threshold at/above the prediction: sparse.
        assert_eq!(
            compiled.representation_plan(&dense_sparse(24, 8)),
            vec![PlannedRepr::Sparse]
        );
        // Register wider than the dense cap: sparse regardless.
        assert_eq!(
            compiled.representation_plan(&dense_sparse(2, 0)),
            vec![PlannedRepr::Sparse]
        );
    }

    #[test]
    fn diagonal_heavy_blowups_past_the_dense_cap_plan_phase() {
        // A QFT-adder-shaped segment: H fan-out into a diagonal rotation
        // cascade. Past the dense cap with occupancy over the sparsity
        // threshold, the planner picks the phase representation — but
        // only when the segment is diagonal-heavy enough to amortise the
        // conversion.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 6);
        for i in 0..6 {
            b.h(r[i]);
        }
        for i in 0..5 {
            b.cphase(r[i], r[i + 1], crate::Angle::turn_over_power_of_two(2));
        }
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let profiles = compiled.segment_profiles();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].diag_count, 5);
        assert_eq!(profiles[0].predicted_entries(), 64);

        let phase_on = PlanConfig {
            dense_qubit_cap: 2,
            sparsity_threshold: 4,
            phase_diag_min: 5,
        };
        assert_eq!(
            compiled.representation_plan(&phase_on),
            vec![PlannedRepr::Phase]
        );
        // Dense still wins while the register fits the cap.
        assert_eq!(
            compiled.representation_plan(&PlanConfig {
                dense_qubit_cap: 24,
                ..phase_on
            }),
            vec![PlannedRepr::Dense]
        );
        // Too few diagonals to amortise the conversion: sparse.
        assert_eq!(
            compiled.representation_plan(&PlanConfig {
                phase_diag_min: 6,
                ..phase_on
            }),
            vec![PlannedRepr::Sparse]
        );
        // Phase arm out of reach: the two-way behaviour.
        assert_eq!(
            compiled.representation_plan(&PlanConfig {
                phase_diag_min: u32::MAX,
                ..phase_on
            }),
            vec![PlannedRepr::Sparse]
        );
    }

    #[test]
    fn default_thresholds_plan_mbu_shapes_sparse() {
        // A low-occupancy MBU-style shape: a lone H into a permutation
        // ladder stays at two occupied entries — far under the default
        // 4096-entry sparsity bar, so every segment plans sparse.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 8);
        b.h(r[0]);
        for i in 0..7 {
            b.cx(r[i], r[i + 1]);
        }
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let plan = compiled.representation_plan(&PlanConfig::default());
        assert!(plan.iter().all(|r| *r == PlannedRepr::Sparse), "{plan:?}");
    }

    #[test]
    fn display_renders_profile_facts() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.x(r[0]);
        b.cx(r[0], r[1]);
        let compiled = CompiledCircuit::lower(&b.finish()).unwrap();
        let p = compiled.segment_profiles()[0];
        let s = p.to_string();
        assert!(s.contains("perm-only"), "{s}");
        assert!(s.contains("support 2"), "{s}");
        assert!(s.contains("occ\u{2264}1"), "{s}");
    }
}
