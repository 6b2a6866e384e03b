//! The exact state-vector backend.

use std::borrow::Cow;
use std::cell::Cell;

use mbu_circuit::{Angle, Basis, Circuit, CompiledCircuit, Gate, QubitId};
use rand::RngCore;

use crate::complex::Complex;
use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::kernels::{self, Par};
use crate::simulator::{Fork, Simulator};
use crate::soa::Amps;

/// Tolerance below which a probability is treated as exactly 0 or 1 when
/// reading definite bits out of the state vector.
const DEFINITE_TOL: f64 = 1e-9;

/// Probability mass the reclamation engine may discard when compacting a
/// dead qubit out of the state. Post-measurement projections leave exact
/// zeros on the dead branch; MBU corrections (H·U·H chains) leave
/// `~1e-17`-amplitude rounding residues (`~1e-34` mass), far below this.
/// The threshold is deliberately tight — discarded amplitudes stay under
/// `1e-10`, an order below every equivalence bound the test suite asserts
/// — because a dead qubit carrying more mass than this on both branches
/// may be genuinely entangled (e.g. via a tiny controlled rotation after
/// its measurement) and projecting it away un-renormalised would visibly
/// change later Born probabilities. Such drops are skipped instead:
/// reclamation must never change the state it cannot prove separable.
const RECLAIM_TOL: f64 = 1e-20;

/// Maximum width the state-vector backend accepts (2^26 amplitudes ≈ 1 GiB).
pub const MAX_STATEVECTOR_QUBITS: usize = 26;

/// An exact state-vector simulator.
///
/// Amplitudes are indexed little-endian: qubit `i` is bit `i` of the index,
/// so a register `q[0..n]` holding the integer `v` contributes `v << 0` when
/// the register occupies the low qubits.
///
/// # Layout
///
/// The state rests *factored*: a qubit known to hold a definite bit is kept
/// out of the amplitude array as that bit, and the array spans only the
/// other, *live* qubits, in their logical order. A fresh
/// [`zeros`](Self::zeros) or [`basis`](Self::basis) state is one
/// amplitude, [`set_value`](Simulator::set_value) flips factored-out bits,
/// and the reads ([`bit`](Simulator::bit), [`value`](Simulator::value),
/// [`amplitude`](Self::amplitude), [`probability_of`](Self::probability_of),
/// [`norm`](Self::norm), [`as_basis`](Self::as_basis),
/// [`global_phase`](Simulator::global_phase)) go through the layout. A
/// compiled run that reclaims qubits works on the live core only (see
/// [`run_compiled`](Simulator::run_compiled)). Everything else — a gate at
/// a time, a measurement, a reset, a fork, a compiled run without drops,
/// [`amplitudes`](Self::amplitudes), [`inner_product`](Self::inner_product)
/// — first brings every qubit back into the full `2^n` array. None of it
/// shows from outside: every nonzero amplitude, outcome and draw is
/// bitwise what the full array gives.
///
/// # Examples
///
/// ```
/// use mbu_circuit::CircuitBuilder;
/// use mbu_sim::StateVector;
/// use rand::SeedableRng;
///
/// // A Bell pair: H then CNOT.
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 2);
/// b.h(q[0]);
/// b.cx(q[0], q[1]);
/// let circuit = b.finish();
///
/// let mut sim = StateVector::zeros(2).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// sim.run(&circuit, &mut rng).unwrap();
/// assert!((sim.probability_of(0b00) - 0.5).abs() < 1e-12);
/// assert!((sim.probability_of(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct StateVector {
    num_qubits: usize,
    /// The amplitudes over the live qubits: bit `j` of an index is qubit
    /// `layout.phys[j]`.
    amps: Amps,
    /// Where every qubit lives: a bit position of `amps`, or a definite
    /// bit factored out of it.
    layout: LiveMap,
    /// Peak live amplitudes of the most recent compiled run that
    /// succeeded.
    last_run_peak: Option<usize>,
    /// Reusable destination buffer for permutation-block sweeps
    /// ([`kernels::permute`] streams `amps` into it and swaps), allocated
    /// on first need and kept across blocks so a deep shot pays the
    /// allocation once; a compiled run releases it when it returns.
    scratch: Option<Amps>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        Self {
            num_qubits: self.num_qubits,
            amps: self.amps.clone(),
            layout: self.layout.clone(),
            last_run_peak: self.last_run_peak,
            // The permutation scratch buffer is pure scratch — reallocated
            // on first need rather than copied.
            scratch: None,
        }
    }
}

/// The one-amplitude array of a state with every qubit factored out.
fn unit() -> Amps {
    Amps::from_complex(&[Complex::ONE])
}

impl StateVector {
    /// Creates `|0…0⟩` over `num_qubits` qubits, every qubit factored
    /// out: one amplitude, whatever the width.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_STATEVECTOR_QUBITS`].
    pub fn zeros(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_STATEVECTOR_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_STATEVECTOR_QUBITS,
            });
        }
        Ok(Self {
            num_qubits,
            amps: unit(),
            layout: LiveMap::basis(num_qubits, 0),
            last_run_peak: None,
            scratch: None,
        })
    }

    /// Creates the basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] for oversized widths, or
    /// [`SimError::OutOfRange`] if `index ≥ 2^num_qubits`.
    pub fn basis(num_qubits: usize, index: u64) -> Result<Self, SimError> {
        let mut sv = Self::zeros(num_qubits)?;
        sv.prepare_basis(index)?;
        Ok(sv)
    }

    /// Creates a state from raw amplitudes (length must be a power of two),
    /// every qubit live in the full array.
    ///
    /// The amplitudes are used as-is; callers wanting a normalised state
    /// should normalise first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if the length is not a power of two
    /// or [`SimError::TooManyQubits`] if it is too large.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, SimError> {
        if !amps.len().is_power_of_two() {
            return Err(SimError::OutOfRange {
                what: format!("amplitude vector of length {}", amps.len()),
            });
        }
        let num_qubits = amps.len().trailing_zeros() as usize;
        if num_qubits > MAX_STATEVECTOR_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_STATEVECTOR_QUBITS,
            });
        }
        Ok(Self {
            num_qubits,
            amps: Amps::from_complex(&amps),
            layout: LiveMap::full(num_qubits),
            last_run_peak: None,
            scratch: None,
        })
    }

    /// Resets the state to `|index⟩`, every qubit factored out (the
    /// amplitude array shrinks to one entry).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if `index ≥ 2^num_qubits`.
    pub fn prepare_basis(&mut self, index: u64) -> Result<(), SimError> {
        if index as u128 >= (1u128 << self.num_qubits) {
            return Err(SimError::OutOfRange {
                what: format!("basis index {index}"),
            });
        }
        self.amps = unit();
        self.layout = LiveMap::basis(self.num_qubits, index);
        Ok(())
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ 2^num_qubits`.
    #[must_use]
    pub fn amplitude(&self, index: u64) -> Complex {
        assert!(
            index >> self.num_qubits == 0,
            "basis index {index} outside a {}-qubit state",
            self.num_qubits
        );
        self.layout
            .compact_index(index as usize)
            .map_or(Complex::ZERO, |i| self.amps.get(i))
    }

    /// All amplitudes, indexed by basis state.
    ///
    /// Amplitudes are stored internally as structure-of-arrays re/im
    /// buffers over the live qubits (see [the layout](Self#layout)), so
    /// this materialises a fresh interleaved vector over the full index
    /// space — an `O(2^n)` copy. Component values round-trip bit-exactly;
    /// hot paths wanting single entries should use
    /// [`amplitude`](Self::amplitude).
    #[must_use]
    pub fn amplitudes(&self) -> Vec<Complex> {
        self.full().to_vec()
    }

    /// The probability of observing basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ 2^num_qubits`.
    #[must_use]
    pub fn probability_of(&self, index: u64) -> f64 {
        self.amplitude(index).norm_sqr()
    }

    /// The 2-norm of the state (1 for any normalised state).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn inner_product(&self, other: &Self) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "width mismatch");
        let (ours, theirs) = (self.full(), other.full());
        let mut acc = Complex::ZERO;
        for (a, b) in ours.iter().zip(theirs.iter()) {
            acc += a.conj() * b;
        }
        acc
    }

    /// If the state is a single basis state (within `tol` leaked
    /// probability), returns `(index, amplitude)`.
    #[must_use]
    pub fn as_basis(&self, tol: f64) -> Option<(u64, Complex)> {
        let mut best = 0usize;
        let mut best_p = -1.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        let leaked: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != best)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        if leaked > tol {
            return None;
        }
        // The first index of greatest probability over the full array: a
        // positive maximum lies in the live core, a zero one (every
        // entry's probability is 0) at index 0.
        let index = if best_p > 0.0 {
            self.layout.full_index(best) as u64
        } else {
            0
        };
        Some((index, self.amplitude(index)))
    }

    /// Reads the integer value of a register out of a basis index.
    ///
    /// Bit `i` of the result is the bit of `index` at position
    /// `qubits[i]` — registers are little-endian like everything else.
    #[must_use]
    pub fn register_value(index: u64, qubits: &[QubitId]) -> u64 {
        let mut v = 0u64;
        for (i, q) in qubits.iter().enumerate() {
            if (index >> q.index()) & 1 == 1 {
                v |= 1u64 << i;
            }
        }
        v
    }

    /// Builds a basis index with each register holding a given value.
    ///
    /// Inverse of [`register_value`](Self::register_value) over multiple
    /// registers: bit `i` of `value` lands on qubit `qubits[i]`.
    #[must_use]
    pub fn index_with(assignments: &[(&[QubitId], u64)]) -> u64 {
        let mut index = 0u64;
        for (qubits, value) in assignments {
            for (i, q) in qubits.iter().enumerate() {
                if (value >> i) & 1 == 1 {
                    index |= 1u64 << q.index();
                }
            }
        }
        index
    }

    /// Runs an adaptive circuit, sampling measurements from `rng`.
    ///
    /// Convenience wrapper over the [`Simulator`] trait method for callers
    /// holding a concrete state and a concrete generator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnwrittenClassicalBit`] if a conditional fires
    /// before its bit is measured, or [`SimError::OutOfRange`] if the
    /// circuit is wider than the state.
    pub fn run<R: RngCore>(
        &mut self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<Executed, SimError> {
        Simulator::run(self, circuit, rng)
    }

    /// The amplitudes over the full `2^n` index space: the array itself
    /// when every qubit is live, otherwise a copy with every factored-out
    /// qubit brought back in.
    fn full(&self) -> Cow<'_, Amps> {
        if self.layout.is_full() {
            Cow::Borrowed(&self.amps)
        } else {
            Cow::Owned(kernels::expand_bits(&self.amps, &self.layout.factored()))
        }
    }

    /// Brings every factored-out qubit back into the array, in one pass:
    /// the array then spans the full `2^n` index space with qubit `i` at
    /// bit `i`, exactly as a state that never factored anything out.
    fn expand(&mut self) {
        if !self.layout.is_full() {
            self.amps = self.full().into_owned();
            self.layout = LiveMap::full(self.num_qubits);
            self.layout.check(&self.amps);
        }
    }

    /// The probability that qubit `q` reads 1. A live qubit's is one
    /// block-structured kernel sweep of the array, summing in ascending
    /// index order exactly like the per-index filtered scan over the full
    /// array. A factored-out qubit's is 0, or the array's total mass
    /// summed in the same order — what that scan adds up for a qubit set
    /// wherever the state has mass — so an unnormalised state fails the
    /// definiteness check alike.
    fn prob_one(&self, q: QubitId) -> f64 {
        match self.layout.slots[q.index()] {
            LiveSlot::Live(p) => kernels::prob_of_set_bit(&self.amps, p),
            LiveSlot::Virtual(false) => 0.0,
            LiveSlot::Virtual(true) => self.amps.iter().fold(0.0, |m, a| m + a.norm_sqr()),
        }
    }

    /// The per-qubit probabilities of reading 1, for all of `qubits`, in a
    /// single sweep over the amplitudes (instead of one sweep per qubit).
    /// Zero-weight amplitudes — the overwhelming majority for the
    /// basis-like states register reads happen on — are skipped. A
    /// factored-out qubit reads as its bit wherever the state has mass.
    fn marginals(&self, qubits: &[QubitId]) -> Vec<f64> {
        // Per qubit: the array bit it reads, or its factored-out bit.
        let reads: Vec<(usize, bool)> = qubits
            .iter()
            .map(|q| match self.layout.slots[q.index()] {
                LiveSlot::Live(p) => (1usize << p, false),
                LiveSlot::Virtual(b) => (0, b),
            })
            .collect();
        let mut p1 = vec![0.0f64; qubits.len()];
        for (i, a) in self.amps.iter().enumerate() {
            let w = a.norm_sqr();
            if w == 0.0 {
                continue;
            }
            for (j, &(mask, set)) in reads.iter().enumerate() {
                if set || i & mask != 0 {
                    p1[j] += w;
                }
            }
        }
        p1
    }

    /// Classifies a marginal probability as a definite bit, or reports the
    /// superposed qubit.
    fn definite_bit(p1: f64, q: QubitId) -> Result<bool, SimError> {
        if p1 >= 1.0 - DEFINITE_TOL {
            Ok(true)
        } else if p1 <= DEFINITE_TOL {
            Ok(false)
        } else {
            Err(SimError::ReadOfSuperposedQubit { qubit: q.0 })
        }
    }

    /// Flips qubit `q`: an `X` on its bit of the array, or on the bit it
    /// holds factored out.
    fn flip(&mut self, q: QubitId) {
        match self.layout.slots[q.index()] {
            LiveSlot::Live(p) => kernels::x(Par::serial(), &mut self.amps, p),
            LiveSlot::Virtual(b) => self.layout.slots[q.index()] = LiveSlot::Virtual(!b),
        }
    }

    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        exec::validate_gate(gate, self.num_qubits)?;
        self.expand();
        self.apply_stride(gate);
        Ok(())
    }

    /// Applies a fused dense block (local `gates` over the physical bit
    /// `positions` of the current array) in one sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFusedBlock`] when the descriptor fails
    /// the kernel's structural validation (checked in release builds too);
    /// a rejected block leaves the amplitudes untouched.
    fn apply_fused_block(&mut self, positions: &[usize], gates: &[Gate]) -> Result<(), SimError> {
        let Self { amps, scratch, .. } = self;
        if positions.len() > mbu_circuit::MAX_FUSED_QUBITS {
            // Wider than the dense-kernel arity: only permutation blocks
            // compile to this shape, applied as one index-remap sweep.
            let buf = scratch.get_or_insert_with(|| Amps::zeroed(0));
            kernels::permute(amps, buf, positions, gates)
        } else {
            kernels::fused(Par::serial(), amps, positions, gates)
        }
    }

    /// Stride-kernel dispatch: every gate touches only the amplitudes it
    /// can move (see the [`kernels`] module docs).
    fn apply_stride(&mut self, gate: &Gate) {
        let amps = &mut self.amps;
        let par = Par::serial();
        let cis = |theta: Angle| Complex::cis(theta.radians());
        match *gate {
            Gate::X(q) => kernels::x(par, amps, q.index()),
            Gate::H(q) => kernels::h(par, amps, q.index()),
            Gate::Z(q) => kernels::z(par, amps, q.index()),
            Gate::Phase(q, theta) => kernels::phase1(par, amps, q.index(), cis(theta)),
            Gate::Cx(c, t) => kernels::cx(par, amps, c.index(), t.index()),
            Gate::Cz(a, b) => kernels::cz(par, amps, a.index(), b.index()),
            Gate::CPhase(c, t, theta) => {
                kernels::phase2(par, amps, c.index(), t.index(), cis(theta));
            }
            Gate::Ccx(c1, c2, t) => kernels::ccx(par, amps, c1.index(), c2.index(), t.index()),
            Gate::Ccz(a, b, c) => kernels::ccz(par, amps, a.index(), b.index(), c.index()),
            Gate::CcPhase(c1, c2, t, theta) => {
                kernels::phase3(par, amps, c1.index(), c2.index(), t.index(), cis(theta));
            }
            Gate::Swap(a, b) => kernels::swap(par, amps, a.index(), b.index()),
        }
    }

    /// The Born probability that the qubit at bit `p` reads 1, clamped
    /// into `[0, 1]`: long gate chains can push the summed mass a few ulps
    /// past 1, and the complementary branch probability `1 − p1` then goes
    /// negative — whose `1/sqrt` renormaliser is NaN and would silently
    /// poison every later amplitude. The summation order (ascending index)
    /// is part of the bit-identity contract between the sampling and
    /// forking measurement paths.
    fn z_prob_one(&self, p: usize) -> f64 {
        kernels::prob_of_set_bit(&self.amps, p).clamp(0.0, 1.0)
    }

    /// The renormalisation factor for projecting onto branch `outcome` of
    /// the qubit at bit position `p`, given its summed probability `p1`.
    fn z_branch_scale(&self, p: usize, outcome: bool, p1: f64) -> f64 {
        let prob = if outcome { p1 } else { 1.0 - p1 };
        if prob > 0.0 {
            1.0 / prob.sqrt()
        } else {
            // The branch carries no mass by the summed probability
            // (possible only when the draw callback ignores its argument,
            // or when every surviving amplitude is so small its square
            // underflowed). Renormalise from the directly-computed branch
            // mass when there is any; otherwise leave the survivors as-is
            // — never produce inf/NaN.
            let (m0, m1) = kernels::bit_masses(&self.amps, p);
            let kept = if outcome { m1 } else { m0 };
            if kept > 0.0 {
                1.0 / kept.sqrt()
            } else {
                1.0
            }
        }
    }

    /// Z-basis measurement of the qubit at bit `p`: projects and
    /// renormalises.
    fn measure_z(&mut self, p: usize, draw: &mut dyn FnMut(f64) -> bool) -> bool {
        let p1 = self.z_prob_one(p);
        let outcome = draw(p1);
        let scale = self.z_branch_scale(p, outcome, p1);
        kernels::project_bit(&mut self.amps, p, outcome, scale);
        outcome
    }

    /// Measurement in `basis` of the qubit at bit `p` of the array: an
    /// `X` measurement rotates to `Z` with `H`, measures and rotates back,
    /// the same kernels [`Simulator::measure`] runs on the full array.
    fn measure_at(&mut self, p: usize, basis: Basis, draw: &mut dyn FnMut(f64) -> bool) -> bool {
        let x = basis == Basis::X;
        if x {
            kernels::h(Par::serial(), &mut self.amps, p);
        }
        let outcome = self.measure_z(p, draw);
        if x {
            kernels::h(Par::serial(), &mut self.amps, p);
        }
        outcome
    }

    /// A forked child holding `amps` under this state's layout, with no
    /// compiled run behind it yet and its own (lazily allocated)
    /// permutation scratch buffer, like [`Clone`].
    fn child_with_amps(&self, amps: Amps) -> Self {
        Self {
            num_qubits: self.num_qubits,
            amps,
            layout: self.layout.clone(),
            last_run_peak: None,
            scratch: None,
        }
    }

    /// The both-branch Z measurement behind [`Simulator::measure_fork`]
    /// of the qubit at bit `p`: one probability sweep plus one
    /// [`kernels::split_bit`] sweep yields both renormalised children,
    /// each **possible** branch bit-identical to a forced-outcome
    /// [`measure_z`](Self::measure_z) on a copy of the parent. An
    /// impossible branch (probability exactly 0) is never materialised —
    /// the outcome-1 side comes back as `None`, the outcome-0 side stays
    /// in the receiver with its dead half merely zeroed — and its
    /// kept-mass fallback sweep is skipped: every branch-tree consumer
    /// prunes zero-probability children unseen, and paying a full child
    /// allocation plus two extra sweeps per definite measurement would
    /// double the traffic of a full-expansion run.
    fn fork_z(&mut self, p: usize) -> Fork {
        let p1 = self.z_prob_one(p);
        if p1 == 0.0 {
            // Outcome 0 is certain: its renormaliser is exactly
            // 1/√(1−0) = 1, so `measure_z(…, false)` would scale the
            // survivors by 1.0 (a bitwise no-op) and zero the dead half.
            kernels::zero_where_bit(&mut self.amps, p);
            return Fork::Split {
                p_one: p1,
                one: None,
            };
        }
        let scale0 = if p1 == 1.0 {
            1.0
        } else {
            self.z_branch_scale(p, false, p1)
        };
        let scale1 = self.z_branch_scale(p, true, p1);
        let one_amps = kernels::split_bit(&mut self.amps, 1usize << p, scale0, scale1);
        Fork::Split {
            p_one: p1,
            one: Some(Box::new(self.child_with_amps(one_amps))),
        }
    }
}

/// Whether an index-gather over the surviving core (`2^live · live` bit
/// operations) is cheaper than a per-bit in-place compaction cascade over
/// the current array (`≈ 2·2^current` contiguous element moves). True
/// when few live qubits survive.
fn gather_beats_cascade(live: usize, current: usize) -> bool {
    (1usize << live).saturating_mul(live.max(1)) <= 1usize << current
}

/// Deposits index `i` at `positions`: bit `j` of `i` lands at position
/// `positions[j]`, on top of `base`.
fn scatter_index(base: usize, positions: &[usize], i: usize) -> usize {
    let mut idx = base;
    for (j, &q) in positions.iter().enumerate() {
        idx |= ((i >> j) & 1) << q;
    }
    idx
}

/// Where a qubit lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LiveSlot {
    /// In the amplitude array at this bit position.
    Live(usize),
    /// Factored out of the array while holding this definite bit.
    Virtual(bool),
}

/// The layout of a [`StateVector`]: which qubits are live in the
/// amplitude array, at which bit positions, and which are factored out
/// as definite bits.
///
/// Live qubits keep their logical order (`phys` ascends), so the array
/// is the full `2^n` one restricted to the factored-out bits' values,
/// entry order preserved: a sum over it in index order adds the same
/// nonzero terms in the same order as over the full array. The full
/// layout — every qubit live, `phys[i] == i` — is the case where nothing
/// is factored out. In a reclaiming compiled run every instruction
/// operand is translated through the map: operands are brought in on
/// first touch ([`ensure_live`](Self::ensure_live)), and every drop or
/// compaction re-indexes the survivors.
#[derive(Clone, Debug)]
struct LiveMap {
    /// Logical qubit → current location.
    slots: Vec<LiveSlot>,
    /// Physical bit position → logical qubit (`len` = live count).
    phys: Vec<usize>,
}

impl LiveMap {
    /// Every qubit factored out, holding its bit of `index`.
    fn basis(num_qubits: usize, index: u64) -> Self {
        Self {
            slots: (0..num_qubits)
                .map(|q| LiveSlot::Virtual((index >> q) & 1 == 1))
                .collect(),
            phys: Vec::new(),
        }
    }

    /// Every qubit live at its own bit position.
    fn full(num_qubits: usize) -> Self {
        Self {
            slots: (0..num_qubits).map(LiveSlot::Live).collect(),
            phys: (0..num_qubits).collect(),
        }
    }

    /// Whether every qubit is live.
    fn is_full(&self) -> bool {
        self.phys.len() == self.slots.len()
    }

    /// The factored-out qubits with their bits, ascending: what
    /// [`kernels::expand_bits`] inserts to rebuild the full array (where
    /// qubit `q` sits at bit `q`).
    fn factored(&self) -> Vec<(usize, bool)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(q, slot)| match *slot {
                LiveSlot::Virtual(b) => Some((q, b)),
                LiveSlot::Live(_) => None,
            })
            .collect()
    }

    /// The full index of array index `i`.
    fn full_index(&self, i: usize) -> usize {
        let base = self
            .factored()
            .iter()
            .map(|&(q, b)| usize::from(b) << q)
            .sum();
        scatter_index(base, &self.phys, i)
    }

    /// The array index holding full index `index`, or `None` when a
    /// factored-out qubit holds the other bit (the amplitude is zero).
    fn compact_index(&self, index: usize) -> Option<usize> {
        let mut i = 0usize;
        for (q, slot) in self.slots.iter().enumerate() {
            let bit = (index >> q) & 1;
            match *slot {
                LiveSlot::Live(p) => i |= bit << p,
                LiveSlot::Virtual(b) if bit != usize::from(b) => return None,
                LiveSlot::Virtual(_) => {}
            }
        }
        Some(i)
    }

    /// The physical bit position of logical qubit `q`.
    ///
    /// Only valid once `q` is live — callers bring every operand of an
    /// instruction in (via [`ensure_live`](Self::ensure_live)) *before*
    /// translating any of them, because an insertion shifts the
    /// positions of live qubits above it.
    fn position(&self, q: usize) -> usize {
        match self.slots[q] {
            LiveSlot::Live(p) => p,
            LiveSlot::Virtual(_) => unreachable!("operand brought in before translation"),
        }
    }

    /// Makes every qubit of `qubits` live, bringing the factored-out ones
    /// into `amps` in one pass ([`kernels::expand_bits`]), each at its
    /// *order-preserving* position: live qubits above an insertion point
    /// shift up, and the map never accumulates a permutation.
    fn ensure_live(&mut self, amps: &mut Amps, qubits: &[usize]) {
        let factored = |q: &usize| matches!(self.slots[*q], LiveSlot::Virtual(_));
        if !qubits.iter().any(factored) {
            return;
        }
        let mut fresh: Vec<usize> = qubits.iter().copied().filter(factored).collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut phys = Vec::with_capacity(self.phys.len() + fresh.len());
        let mut inserted = Vec::with_capacity(fresh.len());
        let mut old = self.phys.iter().copied().peekable();
        for q in fresh {
            while let Some(p) = old.next_if(|&p| p < q) {
                phys.push(p);
            }
            if let LiveSlot::Virtual(b) = self.slots[q] {
                inserted.push((phys.len(), b));
            }
            phys.push(q);
        }
        phys.extend(old);
        *amps = kernels::expand_bits(amps, &inserted);
        self.relink(phys);
        self.check(amps);
    }

    /// Installs `phys` as the live qubits, pointing their slots at their
    /// new positions.
    fn relink(&mut self, phys: Vec<usize>) {
        for (j, &q) in phys.iter().enumerate() {
            self.slots[q] = LiveSlot::Live(j);
        }
        self.phys = phys;
    }

    /// Executes a `Drop`: verifies the qubit is definite (all mass on one
    /// branch, up to reclamation tolerance), projects, compacts the array
    /// to half its length and re-indexes the surviving qubits. A qubit
    /// that cannot be proven definite stays live — skipping is always safe
    /// because drops are advisory.
    fn drop_qubit(&mut self, amps: &mut Amps, q: usize) {
        let LiveSlot::Live(p) = self.slots[q] else {
            // Factored out and never touched since: already reclaimed.
            return;
        };
        let (m0, m1) = kernels::bit_masses(amps, p);
        let keep = if m0 <= RECLAIM_TOL {
            true
        } else if m1 <= RECLAIM_TOL {
            false
        } else {
            // Not provably definite: leave the qubit live.
            return;
        };
        kernels::compact_bit(amps, p, keep);
        // Close the gap at position `p` in the remap.
        self.phys.remove(p);
        for j in p..self.phys.len() {
            self.slots[self.phys[j]] = LiveSlot::Live(j);
        }
        self.slots[q] = LiveSlot::Virtual(keep);
        self.check(amps);
    }

    /// Factors every exactly-definite live qubit out of `amps`, compacting
    /// the array down to the rest (and releasing the surplus capacity of
    /// the old allocation when the reduction is big). Sweeps the live
    /// core only: qubits already factored out stay as they are.
    ///
    /// Exact by construction: a qubit is factored out only when every
    /// amplitude on one of its branches is exactly zero, and the survivors
    /// are copied bit-for-bit.
    fn compact_definite(&mut self, amps: &mut Amps) {
        // One sweep: which bit values ever occur with nonzero amplitude.
        let mut ones = 0usize;
        let mut zeros = 0usize;
        for (i, a) in amps.iter().enumerate() {
            if a != Complex::ZERO {
                ones |= i;
                zeros |= !i;
            }
        }
        let mut phys = Vec::with_capacity(self.phys.len());
        let mut kept = Vec::with_capacity(self.phys.len());
        let mut removed = Vec::new();
        for (p, &q) in self.phys.iter().enumerate() {
            let seen1 = ones >> p & 1 == 1;
            let seen0 = zeros >> p & 1 == 1;
            if seen1 && seen0 {
                phys.push(q);
                kept.push(p);
            } else {
                removed.push((p, seen1));
            }
        }
        if removed.is_empty() {
            return;
        }
        if gather_beats_cascade(phys.len(), self.phys.len()) {
            // Few survivors: gather them straight into a fresh (small)
            // array, releasing the old allocation.
            let base = removed.iter().map(|&(p, b)| usize::from(b) << p).sum();
            let mut compact = Amps::zeroed(1usize << phys.len());
            for i in 0..compact.len() {
                compact.set(i, amps.get(scatter_index(base, &kept, i)));
            }
            *amps = compact;
        } else {
            // Mostly live: compact the factored positions from the top
            // down (each step a forward in-place copy over the shrinking
            // array — under 2·2^live element moves in total).
            for &(p, b) in removed.iter().rev() {
                kernels::compact_bit(amps, p, b);
            }
            if amps.len() * 4 <= amps.capacity() {
                amps.shrink_to_fit();
            }
        }
        for &(p, b) in &removed {
            self.slots[self.phys[p]] = LiveSlot::Virtual(b);
        }
        self.relink(phys);
        self.check(amps);
    }

    /// The layout's invariants, checked after every change in builds with
    /// debug assertions: `phys` strictly ascends, `slots` and `phys` name
    /// the same live qubits at the same positions, and the array spans
    /// exactly the live qubits.
    fn check(&self, amps: &Amps) {
        debug_assert!(
            self.phys.windows(2).all(|w| w[0] < w[1]),
            "live qubits out of order: {:?}",
            self.phys
        );
        debug_assert!(
            self.phys
                .iter()
                .enumerate()
                .all(|(j, &q)| self.slots[q] == LiveSlot::Live(j))
                && self
                    .slots
                    .iter()
                    .filter(|s| matches!(s, LiveSlot::Live(_)))
                    .count()
                    == self.phys.len(),
            "slots {:?} disagree with live qubits {:?}",
            self.slots,
            self.phys
        );
        debug_assert_eq!(amps.len(), 1usize << self.phys.len(), "array width");
    }
}

impl StateVector {
    /// The reclaiming compiled executor: runs the program on the live
    /// core of the layout — compacted to what is not definite when the
    /// run starts, each factored-out qubit brought in the moment an
    /// instruction touches it, `Drop`s executed by projection and
    /// compaction — with every operand translated through the
    /// [`LiveMap`]. When the run ends, failed or not, whatever is definite
    /// is factored out again. Returns the peak working set.
    fn run_compiled_reclaiming(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
        executed: &mut Executed,
    ) -> Result<usize, SimError> {
        self.layout.compact_definite(&mut self.amps);
        let peak = Cell::new(self.amps.len());
        let live = |sv: &mut Self, qubits: &[usize]| {
            sv.layout.ensure_live(&mut sv.amps, qubits);
            peak.set(peak.get().max(sv.amps.len()));
        };
        let position = |sv: &mut Self, q: QubitId| {
            live(sv, &[q.index()]);
            sv.layout.position(q.index())
        };
        let apply = |sv: &mut Self, g: &Gate| -> Result<(), SimError> {
            // Bring every operand in before translating any: an insertion
            // shifts the positions of live qubits above it.
            let mut operands = [0usize; 3];
            let mut k = 0;
            g.for_each_qubit(&mut |q| {
                operands[k] = q.index();
                k += 1;
            });
            live(sv, &operands[..k]);
            let phys = g.map_qubits(|q| {
                let p = sv.layout.position(q.index());
                QubitId(u32::try_from(p).expect("positions lie below MAX_STATEVECTOR_QUBITS"))
            });
            sv.apply_stride(&phys);
            Ok(())
        };
        let result = exec::execute_compiled_core(
            self,
            compiled,
            rng,
            executed,
            apply,
            |sv, fu| {
                let qubits: Vec<usize> = fu.qubits().iter().map(|q| q.index()).collect();
                live(sv, &qubits);
                let positions: Vec<usize> = qubits.iter().map(|&q| sv.layout.position(q)).collect();
                // `phys` mirrors logical order, so ascending logical
                // operands translate to ascending physical positions — the
                // layout the fused kernels' group enumeration assumes.
                debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
                sv.apply_fused_block(&positions, fu.gates())
            },
            |sv, pg| pg.gates().try_for_each(|g| apply(sv, &g)),
            |sv, q, basis, draw| {
                let p = position(sv, q);
                Ok(sv.measure_at(p, basis, draw))
            },
            |sv, q, draw| {
                let p = position(sv, q);
                if sv.measure_z(p, draw) {
                    kernels::x(Par::serial(), &mut sv.amps, p);
                }
                Ok(())
            },
            |sv, q| sv.layout.drop_qubit(&mut sv.amps, q.index()),
        );
        self.layout.compact_definite(&mut self.amps);
        result.map(|()| peak.get())
    }
}

impl Simulator for StateVector {
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        self.apply(gate)
    }

    /// Single-sweep fused-block application for the branch-tree engine's
    /// deterministic segments and for compiled runs without drops: dense
    /// blocks go through the gather kernel, wide permutation blocks
    /// through the index-remap kernel — bit-identical to replaying the
    /// constituents.
    fn apply_fused(&mut self, block: &mbu_circuit::FusedUnitary) -> Result<(), SimError> {
        if let Some(q) = block.qubits().iter().find(|q| q.index() >= self.num_qubits) {
            return Err(SimError::OutOfRange {
                what: format!("fused-block qubit {}", q.0),
            });
        }
        self.expand();
        let positions: Vec<usize> = block.qubits().iter().map(|q| q.index()).collect();
        self.apply_fused_block(&positions, block.gates())
    }

    /// Compiled execution. A program that carries
    /// [`Drop`](mbu_circuit::Instr::Drop) instructions (the default
    /// passes emit them for measured-then-dead qubits) runs on the live
    /// core of [the layout](StateVector#layout): the qubits definite when
    /// it starts stay factored out, each factored-out qubit is brought
    /// into the array the moment an instruction touches it (all of an
    /// instruction's in one pass), dropped qubits are projected out for
    /// good, and whatever is definite when the run ends is factored out
    /// again — each qubit brought in doubles the array and each drop
    /// halves it. The
    /// state rests factored after the run, and that is observationally
    /// invisible: outcomes, RNG consumption, executed counts and the final
    /// state match a run of the same circuit compiled without drops
    /// (`PassConfig { reclaim_dead_qubits: false, .. }`), the final state
    /// exactly up to the `≤ 1e-20`-mass rounding residues a drop discards.
    /// A program without drops first brings every qubit into the full
    /// `2^n` array and runs on it through the shared executor. Either way
    /// gates, and the constituents of phase gradients, go straight to the
    /// stride kernels: lowering validated every operand, and `check_width`
    /// bounds them by the state.
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        exec::check_width(compiled.num_qubits(), self.num_qubits)?;
        let mut executed = Executed::default();
        let peak = if compiled.reclaims_qubits() {
            self.run_compiled_reclaiming(compiled, rng, &mut executed)
        } else {
            self.expand();
            exec::execute_compiled_core(
                self,
                compiled,
                rng,
                &mut executed,
                |sv, g| {
                    sv.apply_stride(g);
                    Ok(())
                },
                |sv, fu| sv.apply_fused(fu),
                |sv, pg| {
                    pg.gates().for_each(|g| sv.apply_stride(&g));
                    Ok(())
                },
                Self::measure,
                Self::reset,
                |_, _| {},
            )
            .map(|()| self.amps.len())
        };
        // The permutation scratch serves the run's blocks only: a resting
        // state keeps no buffer as wide as the widest array the run held.
        self.scratch = None;
        self.last_run_peak = Some(peak?);
        Ok(executed)
    }

    /// The largest amplitude array the most recent compiled run *that
    /// succeeded* held: `2^n` without drops, the peak of the live core
    /// with them. A refused or failed run leaves it where it was.
    fn peak_amplitudes(&self) -> Option<u64> {
        self.last_run_peak.map(|p| p as u64)
    }

    /// The dense working set of a state between runs: the full `2^n`
    /// array, which every operation outside a reclaiming compiled run
    /// (a gate, a measurement, a fork) brings every qubit back into
    /// first. Every entry is materialised whether or not it carries mass,
    /// so this is what a branch-tree leaf accounts for.
    fn occupancy_peak(&self) -> Option<u64> {
        Some(1u64 << self.num_qubits)
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        if q.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        if Self::definite_bit(self.prob_one(q), q)? != value {
            self.flip(q);
        }
        Ok(())
    }

    fn set_value(&mut self, qubits: &[QubitId], value: u128) -> Result<(), SimError> {
        if let Some(q) = qubits.iter().find(|q| q.index() >= self.num_qubits) {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        // One marginal sweep for the whole register, then a flip where the
        // current bit differs from the requested one.
        let marginals = self.marginals(qubits);
        for (i, (q, p1)) in qubits.iter().zip(marginals).enumerate() {
            let desired = i < 128 && (value >> i) & 1 == 1;
            if Self::definite_bit(p1, *q)? != desired {
                self.flip(*q);
            }
        }
        Ok(())
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        if q.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        Self::definite_bit(self.prob_one(q), q)
    }

    fn value(&self, qubits: &[QubitId]) -> Result<u128, SimError> {
        if qubits.len() > 128 {
            return Err(SimError::OutOfRange {
                what: format!("register of width {}", qubits.len()),
            });
        }
        if let Some(q) = qubits.iter().find(|q| q.index() >= self.num_qubits) {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        let marginals = self.marginals(qubits);
        let mut v = 0u128;
        for (i, (q, p1)) in qubits.iter().zip(marginals).enumerate() {
            if Self::definite_bit(p1, *q)? {
                v |= 1u128 << i;
            }
        }
        Ok(v)
    }

    fn global_phase(&self) -> Option<Angle> {
        // Only meaningful when the state is (numerically) one basis state
        // whose amplitude lies on the unit circle at a dyadic angle.
        let (_, amp) = self.as_basis(DEFINITE_TOL)?;
        amp.dyadic_phase()
    }

    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        exec::measure_in_basis(self, qubit, basis, draw, |s, q, d| {
            s.expand();
            Ok(s.measure_z(q.index(), d))
        })
    }

    /// Both-branch measurement for the branch-tree engine: the receiver
    /// collapses to the outcome-0 branch, the returned child holds the
    /// outcome-1 branch. The state vector always reports a
    /// [`Fork::Split`]: its sampling path consumes one draw per
    /// measurement even when the outcome is certain, and the fork must
    /// mirror that so per-shot RNG replay stays bit-identical.
    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        exec::fork_in_basis(self, qubit, basis, |s, q| {
            s.expand();
            Ok(s.fork_z(q.index()))
        })
    }

    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        exec::reset_in_z(self, qubit, draw, |s, q, d| {
            s.expand();
            Ok(s.measure_z(q.index(), d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::{Angle, CircuitBuilder, ClbitId, Op};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn width_guard() {
        assert!(matches!(
            StateVector::zeros(MAX_STATEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn out_of_range_gates_are_rejected_not_ignored() {
        // Every gate family, with one operand past the end of a 2-qubit
        // state. Before validation, Z/CZ/phase gates were silent no-ops and
        // X-like gates panicked; now all are typed errors and the state is
        // untouched.
        let theta = Angle::turn_over_power_of_two(2);
        let gates = [
            Gate::X(q(2)),
            Gate::Z(q(2)),
            Gate::H(q(2)),
            Gate::Phase(q(2), theta),
            Gate::Cx(q(0), q(2)),
            Gate::Cx(q(2), q(0)),
            Gate::Cz(q(0), q(7)),
            Gate::Ccx(q(0), q(1), q(2)),
            Gate::Ccz(q(2), q(0), q(1)),
            Gate::CPhase(q(0), q(2), theta),
            Gate::CcPhase(q(0), q(1), q(2), theta),
            Gate::Swap(q(1), q(2)),
        ];
        for gate in &gates {
            let mut sv = StateVector::basis(2, 0b01).unwrap();
            let err = sv.apply(gate).unwrap_err();
            assert!(matches!(err, SimError::OutOfRange { .. }), "{gate}: {err}");
            assert_eq!(sv.as_basis(0.0).unwrap().0, 0b01, "state untouched");
        }
    }

    #[test]
    fn duplicate_operand_gates_are_rejected() {
        let theta = Angle::turn_over_power_of_two(3);
        let gates = [
            Gate::Cx(q(1), q(1)),
            Gate::Cz(q(0), q(0)),
            Gate::Swap(q(1), q(1)),
            Gate::Ccx(q(0), q(1), q(1)),
            Gate::Ccx(q(1), q(1), q(0)),
            Gate::CPhase(q(0), q(0), theta),
            Gate::CcPhase(q(1), q(0), q(1), theta),
        ];
        for gate in &gates {
            let mut sv = StateVector::zeros(2).unwrap();
            let err = sv.apply(gate).unwrap_err();
            assert!(
                matches!(err, SimError::DuplicateOperand { .. }),
                "{gate}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_measure_and_reset_are_rejected() {
        let mut sv = StateVector::zeros(1).unwrap();
        let mut draw = |_: f64| false;
        assert!(matches!(
            sv.measure(q(1), Basis::Z, &mut draw),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(matches!(
            sv.measure(q(4), Basis::X, &mut draw),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(matches!(
            Simulator::reset(&mut sv, q(1), &mut draw),
            Err(SimError::OutOfRange { .. })
        ));
    }

    #[test]
    fn stride_kernels_match_the_sparse_map_bit_for_bit() {
        // A superposed 4-qubit state pushed through every gate family on
        // the stride kernels and on the sparse map must match exactly: the
        // sparse map does the dense per-amplitude arithmetic on the
        // occupied entries only, so the two differ in iteration alone.
        let theta = Angle::turn_over_power_of_two(3);
        let program = [
            Gate::H(q(0)),
            Gate::H(q(2)),
            Gate::Cx(q(2), q(1)),
            Gate::Ccx(q(3), q(0), q(2)),
            Gate::Phase(q(1), theta),
            Gate::CPhase(q(3), q(1), theta),
            Gate::CcPhase(q(1), q(2), q(0), theta),
            Gate::Z(q(0)),
            Gate::Cz(q(1), q(3)),
            Gate::Ccz(q(0), q(2), q(3)),
            Gate::Swap(q(0), q(3)),
            Gate::X(q(1)),
        ];
        let mut dense = StateVector::basis(4, 0b1010).unwrap();
        let mut sparse = crate::SparseVector::zeros(4).unwrap();
        sparse.set_value(&[q(0), q(1), q(2), q(3)], 0b1010).unwrap();
        for gate in &program {
            dense.apply(gate).unwrap();
            sparse.apply_gate(gate).unwrap();
        }
        for (i, a) in dense.amplitudes().iter().enumerate() {
            // The sparse map stores no exact zeros, so a zero read back
            // is an absent entry, which the dense state must also hold
            // as an exact zero.
            let b = sparse.amplitude(i as u128);
            if b.re == 0.0 && b.im == 0.0 {
                assert!(
                    a.re == 0.0 && a.im == 0.0,
                    "amp {i} absent from the map: {a:?}"
                );
            } else {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "re of amp {i}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "im of amp {i}");
            }
        }
    }

    #[test]
    fn x_flips_a_basis_state() {
        let mut sv = StateVector::basis(3, 0b010).unwrap();
        sv.apply(&Gate::X(q(2))).unwrap();
        assert_eq!(sv.as_basis(1e-12).unwrap().0, 0b110);
    }

    #[test]
    fn h_twice_is_identity() {
        let mut sv = StateVector::basis(1, 1).unwrap();
        sv.apply(&Gate::H(q(0))).unwrap();
        sv.apply(&Gate::H(q(0))).unwrap();
        let (idx, amp) = sv.as_basis(1e-12).unwrap();
        assert_eq!(idx, 1);
        assert!((amp - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0u64..8 {
            let mut sv = StateVector::basis(3, input).unwrap();
            sv.apply(&Gate::Ccx(q(0), q(1), q(2))).unwrap();
            let expected = if input & 0b011 == 0b011 {
                input ^ 0b100
            } else {
                input
            };
            assert_eq!(sv.as_basis(1e-12).unwrap().0, expected, "input {input:03b}");
        }
    }

    #[test]
    fn cphase_applies_only_when_both_set() {
        let theta = Angle::turn_over_power_of_two(2); // i
        for input in 0u64..4 {
            let mut sv = StateVector::basis(2, input).unwrap();
            sv.apply(&Gate::CPhase(q(0), q(1), theta)).unwrap();
            let (idx, amp) = sv.as_basis(1e-12).unwrap();
            assert_eq!(idx, input);
            let expected = if input == 0b11 {
                Complex::I
            } else {
                Complex::ONE
            };
            assert!((amp - expected).norm() < 1e-12, "input {input:02b}");
        }
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut sv = StateVector::basis(2, 0b01).unwrap();
        sv.apply(&Gate::Swap(q(0), q(1))).unwrap();
        assert_eq!(sv.as_basis(1e-12).unwrap().0, 0b10);
    }

    #[test]
    fn z_measurement_collapses_and_renormalises() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.h(r[0]);
        let _m = b.measure(r[0], Basis::Z);
        let circuit = b.finish();

        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sv = StateVector::zeros(1).unwrap();
            let ex = sv.run(&circuit, &mut rng).unwrap();
            let outcome = ex.outcome(0).unwrap();
            let (idx, amp) = sv.as_basis(1e-12).unwrap();
            assert_eq!(idx == 1, outcome);
            assert!((amp.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measuring_a_nearly_impossible_branch_renormalises_safely() {
        // A state with ~1e-16 probability on the 0 branch — the residue
        // profile long dyadic-rotation chains leave behind. Forcing the
        // near-impossible outcome must renormalise from the branch's actual
        // mass instead of zeroing the state (the old `scale = 0` path) or
        // feeding a negative probability into `1/sqrt`.
        let mut sv =
            StateVector::from_amplitudes(vec![Complex::new(1e-8, 0.0), Complex::new(1.0, 0.0)])
                .unwrap();
        let mut force_zero = |_: f64| false;
        let outcome = sv.measure(q(0), Basis::Z, &mut force_zero).unwrap();
        assert!(!outcome);
        let a0 = sv.amplitude(0);
        assert!(a0.re.is_finite() && a0.im.is_finite());
        assert!((a0.re - 1.0).abs() < 1e-9, "renormalised, got {a0}");
        assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overfull_probability_sums_clamp_instead_of_going_negative() {
        // Summed |amp|² can exceed 1 by rounding; the complementary branch
        // probability must clamp to 0 — unclamped it reaches the draw
        // callback out of range (the rand shim asserts on that) and makes
        // the projector's 1/sqrt NaN.
        let mut sv = StateVector::from_amplitudes(vec![
            Complex::ZERO,
            Complex::new(1.0, 0.0),
            Complex::ZERO,
            Complex::new(1e-7, 0.0),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut draw = |p: f64| {
            assert!((0.0..=1.0).contains(&p), "p = {p} escaped the clamp");
            use rand::Rng;
            rng.gen_bool(p)
        };
        let outcome = sv.measure(q(0), Basis::Z, &mut draw).unwrap();
        assert!(outcome, "the p ≈ 1 branch");
        for a in sv.amplitudes() {
            assert!(a.re.is_finite() && a.im.is_finite());
        }
        assert!((sv.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn x_measurement_leaves_plus_or_minus() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        let _m = b.measure(r[0], Basis::X);
        let circuit = b.finish();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = StateVector::zeros(1).unwrap();
        let ex = sv.run(&circuit, &mut rng).unwrap();
        let outcome = ex.outcome(0).unwrap();
        // |0⟩ measured in X collapses to (|0⟩ ± |1⟩)/√2.
        let expected_sign = if outcome { -1.0 } else { 1.0 };
        let a0 = sv.amplitude(0);
        let a1 = sv.amplitude(1);
        assert!((a0.norm_sqr() - 0.5).abs() < 1e-12);
        assert!((a1.re / a0.re - expected_sign).abs() < 1e-9);
    }

    #[test]
    fn register_value_round_trip() {
        let qubits = [q(1), q(3), q(4)];
        let index = StateVector::index_with(&[(&qubits, 0b101)]);
        assert_eq!(index, (1u64 << 1) | (1u64 << 4));
        assert_eq!(StateVector::register_value(index, &qubits), 0b101);
    }

    #[test]
    fn inner_product_detects_orthogonality() {
        let a = StateVector::basis(2, 0).unwrap();
        let b = StateVector::basis(2, 3).unwrap();
        assert!((a.inner_product(&b)).norm() < 1e-12);
        assert!((a.inner_product(&a) - Complex::ONE).norm() < 1e-12);
    }

    /// Two sequential Gidney AND compute/MBU-uncompute phases on *fresh*
    /// ancillas (q2 then q3) — the composition profile where reclamation
    /// pays: q2 is dropped before q3 is ever touched.
    fn two_phase_mbu_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 4);
        for anc in [r[2], r[3]] {
            b.ccx(r[0], r[1], anc);
            b.h(anc);
            let m = b.measure(anc, Basis::Z);
            let (_, fix) = b.record(|b| {
                b.cz(r[0], r[1]);
                b.x(anc);
            });
            b.emit_conditional(m, &fix);
        }
        b.finish()
    }

    /// `circuit` compiled by the default passes and compiled without the
    /// reclamation pass (so without `Drop`s).
    fn with_and_without_drops(circuit: &Circuit) -> (CompiledCircuit, CompiledCircuit) {
        let passes = mbu_circuit::PassConfig {
            reclaim_dead_qubits: false,
            ..mbu_circuit::PassConfig::default()
        };
        (
            CompiledCircuit::compile(circuit).unwrap(),
            CompiledCircuit::with_config(circuit, &passes).unwrap(),
        )
    }

    #[test]
    fn reclamation_is_observationally_invisible() {
        let circuit = two_phase_mbu_circuit();
        let (compiled, without) = with_and_without_drops(&circuit);
        assert!(compiled.reclaims_qubits(), "{compiled}");
        for seed in 0..24 {
            let mut on = StateVector::basis(4, 0b0011).unwrap();
            let mut off = StateVector::basis(4, 0b0011).unwrap();
            let mut rng_on = StdRng::seed_from_u64(seed);
            let mut rng_off = StdRng::seed_from_u64(seed);
            let ex_on = on.run_compiled(&compiled, &mut rng_on).unwrap();
            let ex_off = off.run_compiled(&without, &mut rng_off).unwrap();
            assert_eq!(ex_on, ex_off, "seed {seed}");
            let amps_on = on.amplitudes();
            let amps_off = off.amplitudes();
            for (i, (a, b)) in amps_on.iter().zip(&amps_off).enumerate() {
                assert!((*a - *b).norm() < 1e-12, "seed {seed} amp {i}: {a} vs {b}");
            }
            // Both ancillas uncomputed, data preserved.
            assert_eq!(on.as_basis(1e-9).unwrap().0, 0b0011, "seed {seed}");
        }
    }

    #[test]
    fn reclamation_halves_the_peak_working_set() {
        let circuit = two_phase_mbu_circuit();
        let (compiled, without) = with_and_without_drops(&circuit);
        let mut rng = StdRng::seed_from_u64(9);
        let mut on = StateVector::basis(4, 0b0011).unwrap();
        on.run_compiled(&compiled, &mut rng).unwrap();
        let peak_on = on.peak_amplitudes().unwrap();

        let mut rng = StdRng::seed_from_u64(9);
        let mut off = StateVector::basis(4, 0b0011).unwrap();
        off.run_compiled(&without, &mut rng).unwrap();
        let peak_off = off.peak_amplitudes().unwrap();

        assert_eq!(peak_off, 1u64 << 4, "non-reclaiming engine holds 2^n");
        assert!(
            peak_on * 2 <= peak_off,
            "q2 dropped before q3 materialises: peak {peak_on} vs {peak_off}"
        );
    }

    #[test]
    fn indefinite_drops_are_skipped_not_projected() {
        // An X-basis measurement leaves the qubit in |+⟩/|−⟩ — collapsed
        // from the compiler's viewpoint (a drop is emitted) but not
        // definite, so the runtime must refuse to project it.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.x(r[1]);
        let _ = b.measure(r[0], Basis::X);
        let circuit = b.finish();
        let (compiled, without) = with_and_without_drops(&circuit);
        assert!(compiled.reclaims_qubits());
        for seed in 0..8 {
            let mut on = StateVector::zeros(2).unwrap();
            let mut off = StateVector::zeros(2).unwrap();
            let mut rng_on = StdRng::seed_from_u64(seed);
            let mut rng_off = StdRng::seed_from_u64(seed);
            let ex_on = on.run_compiled(&compiled, &mut rng_on).unwrap();
            let ex_off = off.run_compiled(&without, &mut rng_off).unwrap();
            assert_eq!(ex_on, ex_off);
            let amps_on = on.amplitudes();
            let amps_off = off.amplitudes();
            for (i, (a, b)) in amps_on.iter().zip(&amps_off).enumerate() {
                assert!((*a - *b).norm() < 1e-12, "seed {seed} amp {i}");
            }
            // The superposed qubit survived the skipped drop.
            assert!((on.probability_of(0b10) - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn reclamation_restores_untouched_padding_qubits() {
        // A 2-qubit program on a 4-qubit state prepared at |1001⟩: the
        // padding qubits are factored out up front and must come back at
        // their original positions and values.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2);
        b.x(r[0]);
        let _ = b.measure(r[1], Basis::Z);
        let circuit = b.finish();
        let compiled = mbu_circuit::CompiledCircuit::compile(&circuit).unwrap();
        assert!(compiled.reclaims_qubits());
        let mut sv = StateVector::basis(4, 0b1001).unwrap();
        assert_eq!(sv.peak_amplitudes(), None, "no compiled run yet");
        let mut rng = StdRng::seed_from_u64(0);
        let ex = sv.run_compiled(&compiled, &mut rng).unwrap();
        assert!(!ex.outcome(0).unwrap());
        assert_eq!(sv.as_basis(1e-12).unwrap().0, 0b1000, "X flipped q0");
        assert_eq!(sv.amplitudes().len(), 1usize << 4);
    }

    #[test]
    fn factored_states_read_and_write_registers_without_an_array() {
        // 26 qubits in the full layout would be 2^26 amplitudes (1 GiB);
        // factored out, preparing and reading two registers keeps the
        // array at one amplitude.
        let mut sv = StateVector::zeros(MAX_STATEVECTOR_QUBITS).unwrap();
        let x: Vec<QubitId> = (0..13).map(q).collect();
        let y: Vec<QubitId> = (13..26).map(q).collect();
        sv.set_value(&x, 0x1234).unwrap();
        sv.set_value(&y, 0x0abc).unwrap();
        assert_eq!(sv.value(&x).unwrap(), 0x1234);
        assert_eq!(sv.value(&y).unwrap(), 0x0abc);
        assert!(sv.bit(q(2)).unwrap() && !sv.bit(q(0)).unwrap());
        assert_eq!(sv.amps.len(), 1);
        let index = 0x1234 | (0x0abc_u64 << 13);
        assert_eq!(sv.as_basis(0.0), Some((index, Complex::ONE)));
        assert_eq!(sv.amplitude(index), Complex::ONE);
        assert_eq!(sv.amplitude(index ^ 1), Complex::ZERO);
        assert_eq!(sv.amps.len(), 1);
        assert!(matches!(
            StateVector::zeros(MAX_STATEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn a_reclaimed_qubit_of_an_unnormalised_state_still_reads_superposed() {
        // Total mass 0.5, all of it with q1 set: the full array sums
        // p1(q1) = 0.5, so q1 reads as superposed. A reclaiming run
        // factors q1 out (it is exactly definite); it must still read so.
        let half = Complex::new(0.5, 0.0);
        let amps = vec![
            Complex::ZERO,
            Complex::ZERO,
            half,
            half,
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
        ];
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        let _ = b.measure(r[2], Basis::Z);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert!(compiled.reclaims_qubits(), "{compiled}");

        let full = StateVector::from_amplitudes(amps.clone()).unwrap();
        let mut sv = StateVector::from_amplitudes(amps).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        sv.run_compiled(&compiled, &mut rng).unwrap();
        assert_eq!(
            sv.layout.slots[1],
            LiveSlot::Virtual(true),
            "q1 factored out"
        );
        let superposed = SimError::ReadOfSuperposedQubit { qubit: 1 };
        for state in [&full, &sv] {
            assert_eq!(state.bit(q(1)).unwrap_err(), superposed);
            assert_eq!(state.value(&[q(1)]).unwrap_err(), superposed);
        }
        for mut state in [full, sv] {
            assert_eq!(state.set_bit(q(1), false).unwrap_err(), superposed);
            assert_eq!(state.set_bit(q(1), true).unwrap_err(), superposed);
        }
    }

    #[test]
    fn a_compiled_run_releases_the_permutation_scratch() {
        // A CX ladder over 8 qubits fuses into one permutation block wider
        // than the dense kernels take, which sweeps through the scratch
        // buffer; q8 is measured and dead, so the default passes drop it.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 9);
        b.h(r[0]);
        for i in 0..7 {
            b.cx(r[i], r[i + 1]);
        }
        let _ = b.measure(r[8], Basis::Z);
        let circuit = b.finish();
        let unfused = mbu_circuit::PassConfig {
            reclaim_dead_qubits: false,
            fuse_max_qubits: 0,
            ..mbu_circuit::PassConfig::default()
        };
        let unfused = CompiledCircuit::with_config(&circuit, &unfused).unwrap();
        for reclaim in [true, false] {
            let passes = mbu_circuit::PassConfig {
                reclaim_dead_qubits: reclaim,
                ..mbu_circuit::PassConfig::default()
            };
            let compiled = CompiledCircuit::with_config(&circuit, &passes).unwrap();
            assert_eq!(compiled.reclaims_qubits(), reclaim, "{compiled}");
            assert!(
                compiled
                    .fused_unitaries()
                    .iter()
                    .any(|fu| fu.num_qubits() > mbu_circuit::MAX_FUSED_QUBITS),
                "{compiled}"
            );
            let mut sv = StateVector::zeros(9).unwrap();
            sv.run_compiled(&compiled, &mut StdRng::seed_from_u64(1))
                .unwrap();
            assert!(sv.scratch.is_none(), "reclaim {reclaim}");
            let mut want = StateVector::zeros(9).unwrap();
            want.run_compiled(&unfused, &mut StdRng::seed_from_u64(1))
                .unwrap();
            assert_eq!(sv.amplitudes(), want.amplitudes(), "reclaim {reclaim}");
        }
    }

    #[test]
    fn a_failed_run_keeps_the_last_peak() {
        // H q1, measure q0 (then dead: a drop), and a branch on a bit no
        // measurement writes: the run fails with a typed error after it
        // has brought qubits in. The peak of the last run that succeeded
        // stands, on both executors.
        let ops = |branch: u32| {
            vec![
                Op::Gate(Gate::H(q(1))),
                Op::Measure {
                    qubit: q(0),
                    basis: Basis::Z,
                    clbit: ClbitId(0),
                },
                Op::Conditional {
                    clbit: ClbitId(branch),
                    ops: vec![Op::Gate(Gate::X(q(2)))],
                },
            ]
        };
        let good = Circuit::from_ops(3, 2, ops(0));
        let bad = Circuit::from_ops(3, 2, ops(1));
        let passes = mbu_circuit::PassConfig {
            reclaim_dead_qubits: false,
            ..mbu_circuit::PassConfig::default()
        };
        let compile = |c: &Circuit, reclaim: bool| {
            if reclaim {
                CompiledCircuit::compile(c).unwrap()
            } else {
                CompiledCircuit::with_config(c, &passes).unwrap()
            }
        };
        for reclaim in [true, false] {
            let (good, bad) = (compile(&good, reclaim), compile(&bad, reclaim));
            assert_eq!(good.reclaims_qubits(), reclaim, "{good}");
            let mut sv = StateVector::zeros(3).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            assert!(sv.run_compiled(&bad, &mut rng).is_err());
            assert_eq!(sv.peak_amplitudes(), None, "reclaim {reclaim}");
            sv.run_compiled(&good, &mut rng).unwrap();
            let peak = sv.peak_amplitudes();
            assert!(peak.is_some_and(|p| p == 8 || reclaim && p < 8), "{peak:?}");
            sv.prepare_basis(0b001).unwrap();
            let err = sv.run_compiled(&bad, &mut rng).unwrap_err();
            assert!(
                matches!(
                    err,
                    SimError::UnwrittenClassicalBit { clbit: 1 }
                        | SimError::VerificationRejected { .. }
                ),
                "{err}"
            );
            assert_eq!(sv.peak_amplitudes(), peak, "reclaim {reclaim}");
        }
    }

    #[test]
    fn bell_pair_probabilities() {
        let mut sv = StateVector::zeros(2).unwrap();
        sv.apply(&Gate::H(q(0))).unwrap();
        sv.apply(&Gate::Cx(q(0), q(1))).unwrap();
        assert!((sv.probability_of(0b00) - 0.5).abs() < 1e-12);
        assert!((sv.probability_of(0b11) - 0.5).abs() < 1e-12);
        assert!(sv.probability_of(0b01) < 1e-12);
        assert!(sv.as_basis(1e-12).is_none());
    }
}
