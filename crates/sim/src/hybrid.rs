//! The hybrid auto backend: representation-polymorphic execution with a
//! per-segment planner and mid-run representation switching.
//!
//! [`HybridState`] holds the quantum state in whichever representation is
//! currently cheapest — the dense [`StateVector`] array or the sparse
//! [`SparseVector`] basis map — and re-decides at every deterministic
//! segment boundary of a compiled program:
//!
//! * **sparse → dense (promote)** before a segment whose `H` fan-out
//!   would push the occupied set past the sparsity threshold (and the
//!   register fits under the dense width cap);
//! * **dense → sparse (demote)** when the array's nonzero support has
//!   collapsed far enough (post-measurement, post-uncomputation) that the
//!   map representation wins even through the segment's fan-out.
//!
//! The static plan ([`CompiledCircuit::representation_plan`]) also labels
//! diagonal-heavy blow-ups past the dense cap `phase`: those are the
//! segments where the phase backend ([`BackendKind::Phase`]) pays. The
//! hybrid never runs them on the phase accumulator; it plans dense↔sparse
//! only.
//!
//! [`BackendKind::Phase`]: crate::BackendKind::Phase
//!
//! Conversions are the bit-exact moves of [`crate::convert`] — no
//! amplitude arithmetic — and both representations compute bit-identical
//! amplitudes for every gate (the sparse backend's contract), so a hybrid
//! run's amplitudes, measurement outcomes, classical records and executed
//! counts match the forced sparse run bit for bit. RNG consumption is
//! pinned to the sparse map's draw policy *regardless of the live
//! representation*: a definite measurement or reset (`p₁` exactly `0` or
//! `1`) consumes no draw even while dense — the wrapper shortcuts the
//! dense engine's unconditional draw, which is sound because the two
//! representations' ascending-order Born sums are bitwise identical, so
//! they agree exactly on which outcomes are definite. Hence the hybrid is
//! stream-identical to the sparse backend on every circuit, and to the
//! dense one as well on circuits whose measurements are all genuinely
//! random (every draw policy draws there).
//!
//! Factories select it as [`BackendKind::Auto`](crate::BackendKind::Auto);
//! the planning thresholds are the
//! compile-time defaults [`mbu_circuit::DEFAULT_AUTO_DENSE_QUBITS`] and
//! [`mbu_circuit::DEFAULT_AUTO_SPARSITY`], overridable per state with
//! [`HybridState::with_thresholds`].

use mbu_circuit::{Angle, Basis, CompiledCircuit, Gate, Instr, PlannedRepr, QubitId};
use rand::RngCore;

use crate::convert;
use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::simulator::{ConcreteFork, Fork, Simulator};
use crate::sparse::SparseVector;
use crate::statevector::{StateVector, MAX_STATEVECTOR_QUBITS};

/// Below this many compiled instructions, per-segment planning is pure
/// overhead over just picking a backend — the hybrid warns once.
const TINY_PLAN_INSTRS: usize = 16;

/// The `H` count of `instrs[start..end]`, counting fused-block
/// constituents — the per-segment fact the runtime planner keys on (the
/// occupancy-growth exponent). `O(segment length)`, stateless, so
/// re-planning per run costs a fraction of executing the segment itself.
fn segment_h_count(compiled: &CompiledCircuit, start: usize, end: usize) -> u32 {
    let mut h = 0u32;
    let mut tally = |g: &Gate| h += u32::from(matches!(g, Gate::H(_)));
    for instr in &compiled.instrs()[start..end] {
        match instr {
            Instr::Gate(g) => tally(g),
            Instr::Fused(idx) => {
                for g in compiled.fused_unitaries()[*idx as usize].gates() {
                    tally(g);
                }
            }
            _ => {}
        }
    }
    h
}

/// Wraps a draw callback with the sparse map's policy: exact-definite
/// probabilities resolve without consuming the draw (the sparse backend's
/// `p1 == 0.0` / `p1 == 1.0` criterion verbatim — dense and sparse Born
/// sums are bitwise identical, so definiteness agrees across
/// representations), anything in between forwards to the real draw.
fn sparse_policy<'a>(draw: &'a mut dyn FnMut(f64) -> bool) -> impl FnMut(f64) -> bool + 'a {
    |p: f64| {
        if p == 0.0 {
            false
        } else if p == 1.0 {
            true
        } else {
            draw(p)
        }
    }
}

/// The live representations a [`HybridState`] hops between.
#[derive(Clone, Debug)]
enum Repr {
    /// Flat `2^n` amplitude array.
    Dense(StateVector),
    /// Sorted basis-key → amplitude map.
    Sparse(SparseVector),
}

/// A state that executes each compiled segment in whichever representation
/// the planner predicts is cheapest, converting losslessly at segment
/// boundaries. See the module docs for the planning rule and the
/// bit-identity contract; factories select it as
/// [`BackendKind::Auto`](crate::BackendKind::Auto).
///
/// # Examples
///
/// ```
/// use mbu_circuit::{CircuitBuilder, CompiledCircuit};
/// use mbu_sim::{HybridState, Simulator};
/// use rand::SeedableRng;
///
/// // An H-fanout makes the occupied set explode: the planner promotes to
/// // the dense array before it (with a threshold this small).
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 8);
/// for i in 0..8 {
///     b.h(q[i]);
/// }
/// let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
/// let mut sim = HybridState::zeros(8).unwrap().with_thresholds(24, 4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// sim.run_compiled(&compiled, &mut rng).unwrap();
/// assert_eq!(sim.last_run_switches(), Some(1), "one sparse→dense switch");
/// ```
#[derive(Clone, Debug)]
pub struct HybridState {
    repr: Repr,
    /// Widest register the planner may materialise densely.
    dense_cap: usize,
    /// Predicted-occupancy threshold above which dense wins.
    sparsity: u64,
    /// Representation switches since the last compiled-run start (forked
    /// children inherit the counter of the branch they split from).
    switches: u64,
    /// Switch count of the most recent compiled run, once one ran.
    last_run_switches: Option<u64>,
    /// Occupancy high-water mark since the last compiled-run start, in
    /// the backends' shared unit (occupied/materialised entries). A
    /// promotion folds the full `2^n` in — the array really is allocated.
    peak: u64,
    /// The high-water mark of the most recent compiled run.
    last_run_peak: Option<u64>,
    /// Requested amplitude worker lanes, forwarded to the dense
    /// representation (the sparse map is always serial).
    amp_threads: usize,
}

impl HybridState {
    /// Creates `|0…0⟩` over `num_qubits` qubits, starting in the sparse
    /// representation (one occupied entry) with the default planning
    /// thresholds ([`mbu_circuit::DEFAULT_AUTO_DENSE_QUBITS`],
    /// [`mbu_circuit::DEFAULT_AUTO_SPARSITY`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_SPARSEVECTOR_QUBITS`](crate::MAX_SPARSEVECTOR_QUBITS).
    pub fn zeros(num_qubits: usize) -> Result<Self, SimError> {
        Ok(Self {
            repr: Repr::Sparse(SparseVector::zeros(num_qubits)?),
            dense_cap: mbu_circuit::DEFAULT_AUTO_DENSE_QUBITS,
            sparsity: mbu_circuit::DEFAULT_AUTO_SPARSITY,
            switches: 0,
            last_run_switches: None,
            peak: 1,
            last_run_peak: None,
            amp_threads: 1,
        })
    }

    /// Overrides the planning thresholds (builder style): the planner may
    /// go dense up to `dense_cap` qubits (clamped to
    /// [`MAX_STATEVECTOR_QUBITS`]), and prefers sparse while the predicted
    /// occupancy stays at or under `sparsity` entries.
    #[must_use]
    pub fn with_thresholds(mut self, dense_cap: usize, sparsity: u64) -> Self {
        self.dense_cap = dense_cap.min(MAX_STATEVECTOR_QUBITS);
        self.sparsity = sparsity;
        self
    }

    /// The representation currently holding the state.
    #[must_use]
    pub fn representation(&self) -> PlannedRepr {
        match self.repr {
            Repr::Dense(_) => PlannedRepr::Dense,
            Repr::Sparse(_) => PlannedRepr::Sparse,
        }
    }

    /// Representation switches since the last compiled-run start.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Switch count of the most recent compiled run, or `None` before the
    /// first one.
    #[must_use]
    pub fn last_run_switches(&self) -> Option<u64> {
        self.last_run_switches
    }

    /// Occupancy high-water mark of the most recent compiled run (same
    /// unit as [`Simulator::peak_amplitudes`]), or `None` before one.
    #[must_use]
    pub fn last_run_peak_occupancy(&self) -> Option<u64> {
        self.last_run_peak
    }

    /// The active representation's current occupancy high-water figure:
    /// the map's occupied-entry peak, or the array's materialised length.
    fn inner_peak(&self) -> u64 {
        match &self.repr {
            Repr::Dense(sv) => Simulator::occupancy_peak(sv).unwrap_or(0),
            Repr::Sparse(sp) => sp.peak_entries(),
        }
    }

    /// Folds the active representation's occupancy into the run peak.
    fn fold_peak(&mut self) {
        let inner = self.inner_peak();
        if inner > self.peak {
            self.peak = inner;
        }
    }

    /// Converts to the dense array (a planner *promotion*). No-op when
    /// already dense.
    fn promote(&mut self) -> Result<(), SimError> {
        if let Repr::Sparse(sp) = &self.repr {
            self.peak = self.peak.max(sp.peak_entries());
            let mut dense = convert::sparse_to_dense(sp)?;
            Simulator::set_amp_threads(&mut dense, self.amp_threads);
            self.repr = Repr::Dense(dense);
            self.switches += 1;
            self.fold_peak();
        }
        Ok(())
    }

    /// Converts to the sparse map (a planner *demotion*). No-op when
    /// already sparse.
    fn demote(&mut self) {
        if let Repr::Dense(sv) = &self.repr {
            let sparse = convert::dense_to_sparse(sv);
            self.fold_peak();
            self.repr = Repr::Sparse(sparse);
            self.switches += 1;
        }
    }

    /// Re-plans the representation for a segment with `h_count`
    /// Hadamards — the runtime mirror of the static cost model's
    /// dense/sparse arms
    /// ([`mbu_circuit::plan_segment`](mbu_circuit::plan_segment)), seeded
    /// with live occupancy instead of the compile-time prediction:
    ///
    /// * sparse, the current occupancy could exceed the sparsity
    ///   threshold after `2^h_count` fan-out, and the register fits the
    ///   dense cap → promote;
    /// * dense, and the nonzero support is provably small enough that even
    ///   after the fan-out it stays under the threshold → demote.
    ///
    /// The demotion probe ([`StateVector::nonzero_count_capped`]) bails
    /// out at the first `bound + 1` occupied entries, so keeping a dense
    /// state dense costs far less than a full sweep per segment.
    fn replan(&mut self, h_count: u32) -> Result<(), SimError> {
        // `occ · 2^h > s  ⇔  occ > s >> h` for integers (and any shift of
        // 64+ overflows every occ ≥ 1), computed without overflow.
        let bound = if h_count >= 64 {
            0
        } else {
            self.sparsity >> h_count
        };
        match &self.repr {
            Repr::Sparse(sp) => {
                if sp.occupied() as u64 > bound && Simulator::num_qubits(sp) <= self.dense_cap {
                    self.promote()?;
                }
            }
            Repr::Dense(sv) => {
                if bound > 0 && sv.nonzero_count_capped(bound).is_some() {
                    self.demote();
                }
            }
        }
        Ok(())
    }

    /// Runs an adaptive circuit, sampling measurements from `rng`.
    ///
    /// Convenience wrapper over the [`Simulator`] trait method for callers
    /// holding a concrete state and a concrete generator.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run<R: RngCore>(
        &mut self,
        circuit: &mbu_circuit::Circuit,
        rng: &mut R,
    ) -> Result<Executed, SimError> {
        Simulator::run(self, circuit, rng)
    }

    /// All amplitudes, indexed by basis state — readable only under the
    /// dense width cap (it materialises `2^n` entries).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] past
    /// [`MAX_STATEVECTOR_QUBITS`].
    pub fn amplitudes(&self) -> Result<Vec<crate::Complex>, SimError> {
        match &self.repr {
            Repr::Dense(sv) => Ok(sv.amplitudes()),
            Repr::Sparse(sp) => Ok(convert::sparse_to_dense(sp)?.amplitudes()),
        }
    }
}

impl Simulator for HybridState {
    fn num_qubits(&self) -> usize {
        match &self.repr {
            Repr::Dense(sv) => sv.num_qubits(),
            Repr::Sparse(sp) => Simulator::num_qubits(sp),
        }
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::apply_gate(sv, gate),
            Repr::Sparse(sp) => Simulator::apply_gate(sp, gate),
        }
    }

    fn apply_fused(&mut self, block: &mbu_circuit::FusedUnitary) -> Result<(), SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::apply_fused(sv, block),
            Repr::Sparse(sp) => Simulator::apply_fused(sp, block),
        }
    }

    /// Measurement with the sparse map's draw policy whichever
    /// representation is live: the dense engine hands every Born
    /// probability to the draw unconditionally, so the dense arm wraps the
    /// draw to shortcut exact-definite outcomes without consuming
    /// randomness — keeping the auto backend's RNG stream bit-identical
    /// to the forced sparse backend's across representation switches.
    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::measure(sv, qubit, basis, &mut sparse_policy(draw)),
            Repr::Sparse(sp) => Simulator::measure(sp, qubit, basis, draw),
        }
    }

    /// Reset under the same representation-independent draw policy as
    /// [`measure`](Self::measure).
    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::reset(sv, qubit, &mut sparse_policy(draw)),
            Repr::Sparse(sp) => Simulator::reset(sp, qubit, draw),
        }
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::set_bit(sv, q, value),
            Repr::Sparse(sp) => Simulator::set_bit(sp, q, value),
        }
    }

    fn set_value(&mut self, qubits: &[QubitId], value: u128) -> Result<(), SimError> {
        match &mut self.repr {
            Repr::Dense(sv) => Simulator::set_value(sv, qubits, value),
            Repr::Sparse(sp) => Simulator::set_value(sp, qubits, value),
        }
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        match &self.repr {
            Repr::Dense(sv) => Simulator::bit(sv, q),
            Repr::Sparse(sp) => Simulator::bit(sp, q),
        }
    }

    fn value(&self, qubits: &[QubitId]) -> Result<u128, SimError> {
        match &self.repr {
            Repr::Dense(sv) => Simulator::value(sv, qubits),
            Repr::Sparse(sp) => Simulator::value(sp, qubits),
        }
    }

    fn global_phase(&self) -> Option<Angle> {
        match &self.repr {
            Repr::Dense(sv) => Simulator::global_phase(sv),
            Repr::Sparse(sp) => Simulator::global_phase(sp),
        }
    }

    /// Both-branch measurement for the branch-tree engine: each branch is
    /// re-wrapped as a [`HybridState`] sharing this one's thresholds, so a
    /// forked child keeps making its own per-segment representation
    /// choices down its branch (and inherits the switch/peak counters of
    /// the trajectory it split from). Definite outcomes report
    /// [`Fork::Definite`] whichever representation is live — the dense
    /// engine's always-`Split` forks are folded back to `Definite` at
    /// `p₁` exactly `0`/`1`, matching [`measure`](Self::measure)'s
    /// no-draw policy so tree replay consumes the same stream a per-shot
    /// auto run does.
    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        let (dense_cap, sparsity) = (self.dense_cap, self.sparsity);
        let (switches, peak, amp_threads) = (self.switches, self.peak, self.amp_threads);
        let wrap = move |repr: Repr| HybridState {
            repr,
            dense_cap,
            sparsity,
            switches,
            last_run_switches: None,
            peak,
            last_run_peak: None,
            amp_threads,
        };
        match &mut self.repr {
            Repr::Dense(sv) => match sv.fork_concrete(qubit, basis)? {
                ConcreteFork::Definite(b) => Ok(Some(Fork::Definite(b))),
                ConcreteFork::Split { p_one, one } => {
                    if p_one == 0.0 {
                        // The receiver already collapsed to the only
                        // possible branch; drop the massless child,
                        // consume no draw.
                        drop(one);
                        return Ok(Some(Fork::Definite(false)));
                    }
                    if p_one == 1.0 {
                        let one = one.expect("a sure outcome-1 branch carries the state");
                        self.repr = Repr::Dense(one);
                        return Ok(Some(Fork::Definite(true)));
                    }
                    Ok(Some(Fork::Split {
                        p_one,
                        one: one
                            .map(|s| Box::new(wrap(Repr::Dense(s))) as Box<dyn Simulator + Send>),
                    }))
                }
            },
            Repr::Sparse(sp) => match sp.fork_concrete(qubit, basis)? {
                ConcreteFork::Definite(b) => Ok(Some(Fork::Definite(b))),
                ConcreteFork::Split { p_one, one } => Ok(Some(Fork::Split {
                    p_one,
                    one: one.map(|s| Box::new(wrap(Repr::Sparse(s))) as Box<dyn Simulator + Send>),
                })),
            },
        }
    }

    fn peak_amplitudes(&self) -> Option<u64> {
        self.last_run_peak
    }

    fn occupancy_peak(&self) -> Option<u64> {
        Some(self.peak.max(self.inner_peak()))
    }

    fn set_amp_threads(&mut self, threads: usize) {
        self.amp_threads = threads.max(1);
        if let Repr::Dense(sv) = &mut self.repr {
            Simulator::set_amp_threads(sv, self.amp_threads);
        }
        // The sparse representation is serial; the budget is remembered
        // for the next promotion either way.
    }

    /// The gate-at-a-time planning seam: the branch-tree engine announces
    /// each deterministic unitary run before walking it, and the hybrid
    /// re-plans exactly as its compiled loop would at that segment start.
    fn plan_segment(
        &mut self,
        compiled: &CompiledCircuit,
        start: usize,
        end: usize,
    ) -> Result<(), SimError> {
        self.replan(segment_h_count(compiled, start, end))
    }

    /// Compiled execution with per-segment re-planning: a segment-start
    /// table (pc → `H` count) is probed by the executor's `at_pc` hook,
    /// and a hit re-plans the representation before the segment's first
    /// instruction dispatches. Gates then stream through whichever
    /// representation is live — bit-identical amplitudes either way, so
    /// switching mid-run is observationally invisible except in memory
    /// traffic and the [`switches`](Self::switches) counter.
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        exec::check_width(compiled.num_qubits(), self.num_qubits())?;
        if compiled.instrs().len() < TINY_PLAN_INSTRS {
            crate::knobs::warn_once(
                "auto-backend-tiny-circuit",
                "auto backend (HybridState) on a tiny compiled program: per-segment \
                 planning is pure overhead here; a fixed backend (dense/sparse/tracker) \
                 will be faster",
            );
        }
        self.switches = 0;
        if let Repr::Sparse(sp) = &mut self.repr {
            sp.reset_peak();
        }
        self.peak = self.inner_peak();
        // pc → the segment's H count, present only at segment starts.
        // Every program point the executor can land on after a branch is
        // a segment start (`CompiledCircuit::segments` cuts at join
        // targets), so probing at each pc re-plans exactly once per
        // segment entry.
        let mut plan_at: Vec<Option<u32>> = vec![None; compiled.instrs().len()];
        for seg in compiled.segments() {
            plan_at[seg.start] = Some(segment_h_count(compiled, seg.start, seg.end));
        }
        let mut executed = Executed::default();
        exec::execute_compiled_core(
            self,
            compiled,
            rng,
            &mut executed,
            Simulator::apply_gate,
            Simulator::apply_fused,
            |_, q| Ok(q),
            |_, _| {},
            |s, pc| match plan_at[pc] {
                Some(h) => s.replan(h),
                None => Ok(()),
            },
        )?;
        self.fold_peak();
        self.last_run_switches = Some(self.switches);
        self.last_run_peak = Some(self.peak);
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::{Basis, CircuitBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// H fan-out over `wide` qubits, measure them all back down, then a
    /// permutation tail — the promote-then-demote shape.
    fn fanout_collapse_circuit(n: usize, wide: usize) -> mbu_circuit::Circuit {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", n);
        for i in 0..wide {
            b.h(r[i]);
        }
        for i in 0..wide {
            let _ = b.measure(r[i], Basis::Z);
        }
        for i in 0..n - 1 {
            b.cx(r[i], r[i + 1]);
        }
        b.finish()
    }

    #[test]
    fn planner_promotes_and_demotes_across_a_run() {
        let circuit = fanout_collapse_circuit(10, 10);
        let compiled = mbu_circuit::CompiledCircuit::compile(&circuit).unwrap();
        let mut sim = HybridState::zeros(10).unwrap().with_thresholds(24, 8);
        let mut rng = StdRng::seed_from_u64(3);
        sim.run_compiled(&compiled, &mut rng).unwrap();
        let switches = sim.last_run_switches().unwrap();
        assert!(switches >= 2, "promote + demote, got {switches}");
        assert_eq!(
            sim.representation(),
            PlannedRepr::Sparse,
            "collapsed back to one basis state → demoted for the permutation tail"
        );
        assert_eq!(
            sim.last_run_peak_occupancy(),
            Some(1u64 << 10),
            "the dense phase materialised the full array"
        );
    }

    #[test]
    fn wide_registers_never_promote() {
        // 60 qubits is past the default dense cap: the planner must stay
        // sparse no matter how many Hs a segment holds.
        let circuit = fanout_collapse_circuit(60, 12);
        let compiled = mbu_circuit::CompiledCircuit::compile(&circuit).unwrap();
        let mut sim = HybridState::zeros(60).unwrap().with_thresholds(24, 4);
        let mut rng = StdRng::seed_from_u64(5);
        sim.run_compiled(&compiled, &mut rng).unwrap();
        assert_eq!(sim.last_run_switches(), Some(0));
        assert_eq!(sim.representation(), PlannedRepr::Sparse);
    }

    #[test]
    fn auto_matches_forced_sparse_bit_for_bit() {
        // An MBU AND compute/uncompute: every measurement follows an H, so
        // RNG streams coincide across representations, and amplitudes are
        // bit-identical by the conversion + kernel contracts.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.x(r[0]);
        b.x(r[1]);
        b.ccx(r[0], r[1], r[2]);
        b.h(r[2]);
        let m = b.measure(r[2], Basis::Z);
        let (_, fix) = b.record(|b| {
            b.cz(r[0], r[1]);
            b.x(r[2]);
        });
        b.emit_conditional(m, &fix);
        let circuit = b.finish();
        let compiled = mbu_circuit::CompiledCircuit::compile(&circuit).unwrap();
        for seed in 0..16 {
            let mut auto = HybridState::zeros(3).unwrap().with_thresholds(24, 2);
            let mut sparse = SparseVector::zeros(3).unwrap();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_s = StdRng::seed_from_u64(seed);
            let ex_a = Simulator::run_compiled(&mut auto, &compiled, &mut rng_a).unwrap();
            let ex_s = Simulator::run_compiled(&mut sparse, &compiled, &mut rng_s).unwrap();
            assert_eq!(ex_a, ex_s, "seed {seed}");
            assert_eq!(rng_a.next_u64(), rng_s.next_u64(), "seed {seed}: RNG pos");
            let a = auto.amplitudes().unwrap();
            let s = convert::sparse_to_dense(&sparse).unwrap().amplitudes();
            for (i, (x, y)) in a.iter().zip(&s).enumerate() {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "seed {seed} re amp {i}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "seed {seed} im amp {i}");
            }
        }
    }

    #[test]
    fn forked_children_keep_planning() {
        let mut sim = HybridState::zeros(4).unwrap().with_thresholds(24, 2);
        Simulator::apply_gate(&mut sim, &Gate::H(q(0))).unwrap();
        let Some(Fork::Split {
            one: Some(mut one), ..
        }) = Simulator::measure_fork(&mut sim, q(0), Basis::Z).unwrap()
        else {
            panic!("a fair coin splits");
        };
        // The child is a HybridState: it still answers occupancy and can
        // keep executing gates.
        one.apply_gate(&Gate::H(q(1))).unwrap();
        assert!(one.occupancy_peak().is_some());
    }

    #[test]
    fn definite_measurements_never_draw_in_either_representation() {
        // The draw policy is the sparse map's whichever representation is
        // live: definite outcomes consume no randomness even while dense
        // (where the raw engine would burn a draw) — the property that
        // keeps auto runs stream-identical to forced sparse runs.
        let mut no_draw = |_: f64| panic!("definite measurement must not draw");

        let mut sim = HybridState::zeros(2).unwrap();
        Simulator::set_bit(&mut sim, q(0), true).unwrap();
        assert_eq!(sim.representation(), PlannedRepr::Sparse);
        assert!(Simulator::measure(&mut sim, q(0), Basis::Z, &mut no_draw).unwrap());

        let mut sim = HybridState::zeros(2).unwrap().with_thresholds(24, 0);
        Simulator::set_bit(&mut sim, q(0), true).unwrap();
        sim.replan(0).unwrap();
        assert_eq!(sim.representation(), PlannedRepr::Dense);
        assert!(Simulator::measure(&mut sim, q(0), Basis::Z, &mut no_draw).unwrap());
        Simulator::reset(&mut sim, q(0), &mut no_draw).unwrap();
        assert!(!Simulator::bit(&sim, q(0)).unwrap());

        // And the fork path agrees: a definite outcome is Fork::Definite
        // even from the dense representation (whose raw engine always
        // splits), so tree replay consumes the per-shot stream.
        let mut sim = HybridState::zeros(2).unwrap().with_thresholds(24, 0);
        Simulator::set_bit(&mut sim, q(1), true).unwrap();
        sim.replan(0).unwrap();
        assert_eq!(sim.representation(), PlannedRepr::Dense);
        let Some(Fork::Definite(true)) = Simulator::measure_fork(&mut sim, q(1), Basis::Z).unwrap()
        else {
            panic!("definite dense fork must fold to Fork::Definite");
        };
        assert!(Simulator::bit(&sim, q(1)).unwrap(), "post-fork state kept");
    }
}
