//! The Fourier-basis phase-accumulator backend.
//!
//! [`PhaseAccumulator`] represents the state as a small set of occupied
//! basis *branches*, where each qubit is globally in one of two modes:
//!
//! * **Z-mode** — the qubit holds one definite bit per branch, stored in
//!   the branch's basis key;
//! * **Fourier-mode** — the qubit holds the factor
//!   `(|0⟩ + e^{2πi·φ}|1⟩)/√2` per branch, with `φ` an *exact*
//!   arbitrary-precision dyadic fraction ([`Dyadic`]) instead of a pair of
//!   amplitudes.
//!
//! A branch's value is `amp · e^{2πi·phase} · |key⟩ ⊗ Π_q (|0⟩ +
//! e^{2πi·φ_q}|1⟩)/√2` over its Fourier qubits. Branches keep pairwise
//! distinct keys, so they stay orthogonal and `Σ|amp|²` remains a valid
//! probability decomposition.
//!
//! The branches live in the sparse backend's sorted basis-key map
//! ([`SparseVector`]): each entry's key and amplitude are the branch's,
//! and its payload ([`Phases`]) holds the branch phase and the Fourier
//! accumulators. Every Z-mode step — key toggles, the key-level `H`,
//! Born sums, projection, measurement, forks and definite reads — is the
//! map's own code, so Z-mode qubits behave exactly as on the sparse
//! backend. This module adds the Fourier side: the mode table, `H`
//! promotion and collapse, materialisation, the exact diagonal additions,
//! the phase reflection of an X on a Fourier qubit and cross-mode SWAP.
//!
//! The payoff is the interior of a QFT adder (the paper's Draper/Beauregard
//! circuits): `H` promotes a definite bit into Fourier mode without
//! growing the branch set, every diagonal gate (`Phase`/`CPhase`/
//! `CCPhase`/`Z` family) becomes an O(occupied) exact dyadic-angle
//! addition with **no amplitude sweeps**, and the closing `IQFT`'s `H`
//! meets `φ ∈ {0, ½}` and collapses the qubit back to a definite bit —
//! the whole adder runs at constant occupancy. A Draper addition over
//! n = 1024 qubits, where a dense array cannot allocate and the sparse map
//! would fan out to `2^{1025}` entries, executes in O(gates). In a
//! compiled run a whole QFT, IQFT or ΦADD column arrives as one phase
//! gradient ([`Instr::Gradient`](mbu_circuit::Instr::Gradient)), which is
//! one multi-word addition per branch, and a promotion or collapse moves
//! O(1) accumulators per branch.
//!
//! Outside that closed fragment the backend stays universal by *lossless
//! materialisation*: a Fourier qubit whose phase is not a half-turn
//! multiple is expanded into explicit 0/1 branches (doubling occupancy,
//! exactly like the sparse `H`), and the gate proceeds on keys.

use mbu_circuit::{Angle, Basis, CompiledCircuit, Gate, PhaseGradient, QubitId};
use rand::RngCore;

use crate::complex::Complex;
use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::simulator::{Fork, Simulator};
use crate::sparse::{self, SparseVector};

/// Branch-count ceiling for materialisation fallbacks: a gate that would
/// expand the occupied set past this many branches reports
/// [`SimError::BranchBudgetExceeded`] instead of exhausting memory.
pub const MAX_PHASE_BRANCHES: usize = 1usize << 20;

/// An exact dyadic fraction of a full turn in `[0, 1)`, at arbitrary
/// precision: the little-endian words encode an integer `N` and the value
/// is `N / 2^{64·len}`. Canonical form strips least-significant zero
/// words, so equality is exact. This is the per-qubit phase accumulator —
/// a 1024-bit QFT needs fractions down to `2^{-1025}`, far past any fixed
/// word size.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Dyadic {
    /// Little-endian words of `N`; empty means zero. The least-significant
    /// word is nonzero in canonical form.
    words: Vec<u64>,
}

impl Dyadic {
    /// The zero fraction.
    pub(crate) fn zero() -> Self {
        Self { words: Vec::new() }
    }

    /// The fraction 1/2 — the phase a set bit contributes under `H`.
    pub(crate) fn half() -> Self {
        Self {
            words: vec![1u64 << 63],
        }
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    fn is_half(&self) -> bool {
        self.words.len() == 1 && self.words[0] == 1u64 << 63
    }

    /// Whether the fraction is a multiple of 1/2 — the collapse condition
    /// for `H` on a Fourier qubit.
    fn is_half_multiple(&self) -> bool {
        self.is_zero() || self.is_half()
    }

    fn canonicalize(&mut self) {
        let drop = self.words.iter().take_while(|w| **w == 0).count();
        if drop == self.words.len() {
            self.words.clear();
        } else if drop > 0 {
            self.words.drain(..drop);
        }
    }

    /// Adds `other` mod 1, in place: the shorter operand is aligned at the
    /// top word, so only a longer `other` grows `self` (by zero words
    /// below its least-significant one).
    pub(crate) fn add_assign(&mut self, other: &Dyadic) {
        if other.words.is_empty() {
            return;
        }
        if let Some(pad) = other.words.len().checked_sub(self.words.len()) {
            self.words.splice(0..0, std::iter::repeat_n(0, pad));
        }
        // Below `other`'s lowest word nothing is added and no carry
        // starts.
        let low = self.words.len() - other.words.len();
        let mut carry = false;
        for (slot, o) in self.words[low..].iter_mut().zip(&other.words) {
            let (s1, c1) = slot.overflowing_add(*o);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            *slot = s2;
            carry = c1 || c2;
        }
        // A final carry is a full turn: dropped (mod 1).
        self.canonicalize();
    }

    /// Negates mod 1 (`x ↦ 1 − x` for nonzero `x`).
    pub(crate) fn negate(&mut self) {
        if self.words.is_empty() {
            return;
        }
        let mut carry = 1u64;
        for w in &mut self.words {
            let (s, c) = (!*w).overflowing_add(carry);
            *w = s;
            carry = u64::from(c);
        }
        self.canonicalize();
    }

    /// Adds `theta` mod 1, in place and with no temporary: the angle's
    /// numerator, at most three words once shifted to a word boundary,
    /// lands at the word offset its denominator gives, and the carry runs
    /// on to the top word. [`Angle`]'s negated form (`1 − x`) subtracts
    /// `x` instead, borrowing the same way; a carry or borrow out of the
    /// top word is a full turn and drops. Only an angle finer than `self`
    /// grows it, by zero words below its least-significant one.
    pub(crate) fn add_angle(&mut self, theta: Angle) {
        if theta.is_zero() {
            return;
        }
        // `x = num / 2^d` is `len` words wide; shifted up by `s` bits to
        // fill them, its odd numerator makes the lowest word nonzero.
        let d = theta.log2_denom() as usize;
        let len = d.div_ceil(64);
        let s = (len * 64 - d) as u32; // 0..=63
        let num = theta.numerator();
        let (lo, hi) = (num as u64, (num >> 64) as u64);
        let parts = if s == 0 {
            [lo, hi, 0u64]
        } else {
            [lo << s, (hi << s) | (lo >> (64 - s)), hi >> (64 - s)]
        };
        let (parts, rest) = parts.split_at(len.min(3));
        debug_assert!(
            rest.iter().all(|&w| w == 0),
            "angle numerator exceeds its denominator"
        );
        self.add_at(parts, len, theta.is_negated());
    }

    /// Adds mod 1, in place, the fraction `N / 2^{64·words.len()}` whose
    /// little-endian words are `words`, or subtracts it when `subtract`
    /// is set: a phase gradient's summed terms, in one pass.
    pub(crate) fn add_words(&mut self, words: &[u64], subtract: bool) {
        // Low zero words add nothing; dropping them keeps `self` from
        // growing past the finest set bit.
        if let Some(first) = words.iter().position(|&w| w != 0) {
            self.add_at(&words[first..], words.len() - first, subtract);
        }
    }

    /// The shared carry loop of [`add_angle`](Self::add_angle) and
    /// [`add_words`](Self::add_words): adds (or subtracts) mod 1 the
    /// `len`-word fraction whose low words are `parts` (the rest zero). It
    /// lands at the word offset `len` gives, and the carry or borrow runs
    /// on to the top word, where it drops as a full turn. Only a fraction
    /// finer than `self` grows it, by zero words below its
    /// least-significant one.
    fn add_at(&mut self, parts: &[u64], len: usize, subtract: bool) {
        if len > self.words.len() {
            let pad = len - self.words.len();
            self.words.splice(0..0, std::iter::repeat_n(0, pad));
        }
        let low = self.words.len() - len;
        let step = |a: u64, b: u64| {
            if subtract {
                a.overflowing_sub(b)
            } else {
                a.overflowing_add(b)
            }
        };
        let mut carry = false;
        for (i, slot) in self.words[low..].iter_mut().enumerate() {
            let w = match parts.get(i) {
                Some(&w) => w,
                // Past the addend only a carry or borrow moves on.
                None if carry => 0,
                None => break,
            };
            let (r1, c1) = step(*slot, w);
            let (r2, c2) = step(r1, u64::from(carry));
            *slot = r2;
            carry = c1 || c2;
        }
        self.canonicalize();
    }

    /// The exact dyadic image of an [`Angle`]: the reference
    /// [`add_angle`](Self::add_angle) is tested against.
    #[cfg(test)]
    pub(crate) fn from_angle(theta: Angle) -> Self {
        if theta.is_zero() {
            return Self::zero();
        }
        let d = theta.log2_denom();
        let l = (d as usize).div_ceil(64);
        let s = (l as u32) * 64 - d; // 0..=63
        let num = theta.numerator();
        let lo = num as u64;
        let hi = (num >> 64) as u64;
        let (w0, w1, w2) = if s == 0 {
            (lo, hi, 0u64)
        } else {
            (lo << s, (hi << s) | (lo >> (64 - s)), hi >> (64 - s))
        };
        let mut words = vec![0u64; l];
        for (i, w) in [w0, w1, w2].into_iter().enumerate() {
            if i < l {
                words[i] = w;
            } else {
                debug_assert_eq!(w, 0, "angle numerator exceeds its denominator");
            }
        }
        let mut out = Self { words };
        out.canonicalize();
        if theta.is_negated() {
            out.negate();
        }
        out
    }

    /// The fraction as an `f64` in `[0, 1)`.
    fn to_f64(&self) -> f64 {
        let mut x = 0.0f64;
        for w in &self.words {
            x = (x + *w as f64) * (1.0 / 18_446_744_073_709_551_616.0);
        }
        x
    }

    /// `e^{2πi·x}`, with the four quarter-turn points produced exactly
    /// (±1, ±i) so phase bookkeeping on the QFT fragment stays bitwise.
    pub(crate) fn cis(&self) -> Complex {
        if self.words.is_empty() {
            return Complex::ONE;
        }
        if self.words.len() == 1 {
            match self.words[0] {
                w if w == 1u64 << 63 => return Complex::new(-1.0, 0.0),
                w if w == 1u64 << 62 => return Complex::I,
                w if w == 3u64 << 62 => return Complex::new(0.0, -1.0),
                _ => {}
            }
        }
        Complex::cis(std::f64::consts::TAU * self.to_f64())
    }

    /// The fraction as an exact [`Angle`], when its reduced numerator (or
    /// its complement's — [`Angle`]'s negated form covers fractions close
    /// to a full turn) fits 128 bits.
    pub(crate) fn to_angle(&self) -> Option<Angle> {
        if let Some(a) = self.to_angle_direct() {
            return Some(a);
        }
        // Near-full-turn fractions (an IQFT column's accumulated negative
        // rotations) have huge direct numerators but a small complement:
        // extract `1 − x` and hand back its exact negation.
        let mut complement = self.clone();
        complement.negate();
        complement.to_angle_direct().map(|a| -a)
    }

    /// [`to_angle`](Self::to_angle)'s positive-form arm: the reduced
    /// numerator itself must fit 128 bits.
    fn to_angle_direct(&self) -> Option<Angle> {
        if self.words.is_empty() {
            return Some(Angle::ZERO);
        }
        let l = self.words.len();
        let tz = self.words[0].trailing_zeros(); // bottom word nonzero
        let top_word = (0..l).rev().find(|&i| self.words[i] != 0)?;
        let top_bit = top_word * 64 + (63 - self.words[top_word].leading_zeros() as usize);
        if top_bit - tz as usize >= 128 {
            return None;
        }
        let mut num: u128 = 0;
        for (i, w) in self.words.iter().enumerate() {
            let w = u128::from(*w);
            let pos = (i * 64) as i64 - i64::from(tz);
            if pos >= 0 {
                if pos < 128 {
                    num |= w << pos;
                }
            } else {
                num |= w >> (-pos);
            }
        }
        let denom = u32::try_from(l * 64).ok()? - tz;
        Some(Angle::from_fraction(num, denom))
    }
}

/// A branch's Fourier-side data: the payload of its map entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct Phases {
    /// Exact global phase of the branch, as a fraction of a turn.
    pub(crate) phase: Dyadic,
    /// Per-Fourier-qubit phases, parallel to the state's
    /// `fourier_qubits` list (indexed by slot).
    pub(crate) phis: Vec<Dyadic>,
}

/// The phase-accumulator simulation backend ([`BackendKind::Phase`](crate::BackendKind::Phase)).
///
/// The state is a small set of occupied basis *branches*. Each qubit is
/// globally either in Z-mode, one definite bit per branch, or in
/// Fourier-mode, an exact dyadic phase per branch, so diagonal gates are
/// exact angle additions with no amplitude sweep. Functionally exact on
/// the full gate set; asymptotically fast on the Fourier-arithmetic
/// fragment (QFT adders on basis inputs run at constant occupancy).
///
/// # Examples
///
/// A QFT · IQFT round trip over 200 qubits — far past any amplitude
/// backend — stays at one occupied branch:
///
/// ```
/// use mbu_circuit::{Angle, CircuitBuilder};
/// use mbu_sim::{PhaseAccumulator, Simulator};
/// use rand::SeedableRng;
///
/// let m = 200usize;
/// let mut b = CircuitBuilder::new();
/// let r = b.qreg("r", m);
/// for i in (0..m).rev() {
///     b.h(r[i]);
///     for j in (0..i).rev() {
///         b.cphase(r[j], r[i], Angle::turn_over_power_of_two((i - j + 1) as u32));
///     }
/// }
/// for i in 0..m {
///     for j in 0..i {
///         b.cphase(r[j], r[i], -Angle::turn_over_power_of_two((i - j + 1) as u32));
///     }
///     b.h(r[i]);
/// }
/// let mut sim = PhaseAccumulator::zeros(m).unwrap();
/// sim.set_bit(r[3], true).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// sim.run(&b.finish(), &mut rng).unwrap();
/// assert!(sim.bit(r[3]).unwrap());
/// assert_eq!(sim.occupied(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PhaseAccumulator {
    /// The mode table: per qubit, its index in `fourier_qubits` (and so
    /// in every branch's `phis`) in Fourier mode, `None` in Z-mode.
    slot: Vec<Option<u32>>,
    /// The Fourier-mode qubits by slot, every branch's `phis` parallel to
    /// it: a promotion appends, and a collapse moves the last slot into
    /// the freed one, so a mode change costs O(1) per branch.
    fourier_qubits: Vec<u32>,
    /// The occupied branches, sorted ascending by key, pairwise distinct.
    /// Fourier-mode qubits' key bits are canonically zero.
    map: SparseVector<Phases>,
}

impl PhaseAccumulator {
    /// Creates `|0…0⟩` over `num_qubits` qubits: one occupied branch,
    /// everything in Z-mode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_SPARSEVECTOR_QUBITS`](crate::MAX_SPARSEVECTOR_QUBITS) (the
    /// backends share the map and its width cap).
    pub fn zeros(num_qubits: usize) -> Result<Self, SimError> {
        let map = SparseVector::with_payload(num_qubits, Phases::default())?;
        Ok(Self {
            slot: vec![None; num_qubits],
            fourier_qubits: Vec::new(),
            map,
        })
    }

    /// Restarts the occupied-branch high-water mark at the current
    /// occupancy, as every compiled run does when it starts.
    pub(crate) fn start_peak(&mut self) {
        self.map.start_peak();
    }

    /// The number of occupied branches.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.map.occupied()
    }

    /// The number of qubits currently held in Fourier mode.
    #[must_use]
    pub fn fourier_width(&self) -> usize {
        self.fourier_qubits.len()
    }

    /// Reads the register as little-endian bits (any width — the
    /// [`value`](Simulator::value) read is capped at 128 bits).
    ///
    /// # Errors
    ///
    /// As [`bit`](Simulator::bit), for any of the qubits.
    pub fn bits(&self, qubits: &[QubitId]) -> Result<Vec<bool>, SimError> {
        qubits.iter().map(|q| Simulator::bit(self, *q)).collect()
    }

    /// The Fourier qubits by slot, parallel to every branch's `phis`
    /// (conversion seam).
    pub(crate) fn fourier_list(&self) -> &[u32] {
        &self.fourier_qubits
    }

    /// The occupied branches (conversion seam).
    pub(crate) fn branches(&self) -> &SparseVector<Phases> {
        &self.map
    }

    /// The slot of qubit `q` in the Fourier list, or `None` in Z-mode.
    fn fourier_pos(&self, q: QubitId) -> Option<usize> {
        self.slot[q.index()].map(|pos| pos as usize)
    }

    /// Puts Z-mode qubit `q` into Fourier mode, in a new last slot, which
    /// this returns: every branch's `phis` must `push` its accumulator.
    fn enter_fourier(&mut self, q: QubitId) -> usize {
        let pos = self.fourier_qubits.len();
        self.fourier_qubits.push(q.0);
        self.slot[q.index()] = Some(pos as u32);
        pos
    }

    /// Returns Fourier qubit `q`, at slot `pos`, to Z-mode: the last
    /// slot's qubit moves into `pos`, as every branch's `phis` does with
    /// its `swap_remove(pos)`.
    fn leave_fourier(&mut self, q: QubitId, pos: usize) {
        self.fourier_qubits.swap_remove(pos);
        self.slot[q.index()] = None;
        if let Some(&moved) = self.fourier_qubits.get(pos) {
            self.slot[moved as usize] = Some(pos as u32);
        }
    }

    /// Losslessly expands qubit `q`, if it is in Fourier mode, into
    /// explicit 0/1 branches (the qubit returns to Z-mode; occupancy at
    /// most doubles). A Z-mode qubit is left as it is.
    ///
    /// # Errors
    ///
    /// [`SimError::BranchBudgetExceeded`] past [`MAX_PHASE_BRANCHES`].
    fn materialize(&mut self, q: QubitId) -> Result<(), SimError> {
        let Some(pos) = self.fourier_pos(q) else {
            return Ok(());
        };
        self.check_budget()?;
        self.map.split_even(q, |p| {
            let phi = p.phis.swap_remove(pos);
            let mut one = p.clone();
            one.phase.add_assign(&phi);
            one
        });
        self.leave_fourier(q, pos);
        Ok(())
    }

    /// Rejects a doubling of the branch set past [`MAX_PHASE_BRANCHES`]
    /// with [`SimError::BranchBudgetExceeded`].
    fn check_budget(&self) -> Result<(), SimError> {
        if self.map.occupied() * 2 > MAX_PHASE_BRANCHES {
            return Err(SimError::BranchBudgetExceeded {
                budget: MAX_PHASE_BRANCHES,
            });
        }
        Ok(())
    }

    /// Materialises every Fourier qubit (the universal fallback before a
    /// key-level Hadamard on a colliding qubit).
    fn materialize_all(&mut self) -> Result<(), SimError> {
        while let Some(&q) = self.fourier_qubits.last() {
            self.materialize(QubitId(q))?;
        }
        Ok(())
    }

    /// Hadamard on `q`.
    ///
    /// * Fourier-mode with every branch's `φ_q ∈ {0, ½}`: exact collapse
    ///   to a definite bit (`φ = ½` reads 1) — the IQFT's closing step.
    /// * Z-mode with no two branches paired on `q`: exact promotion to
    ///   Fourier mode (`φ = bit·½`), occupancy unchanged — the QFT's
    ///   opening step.
    /// * Otherwise: materialise, fold each branch phase into its
    ///   amplitude (exact for quarter-turn multiples) and fan out on keys
    ///   through the map's `H`.
    fn apply_h(&mut self, q: QubitId) -> Result<(), SimError> {
        if let Some(pos) = self.fourier_pos(q) {
            if !self
                .map
                .entries()
                .all(|(_, _, p)| p.phis[pos].is_half_multiple())
            {
                self.materialize(q)?;
                return self.apply_h(q);
            }
            self.map
                .rewrite_bit(q, |_, p| p.phis.swap_remove(pos).is_half());
            self.leave_fourier(q, pos);
        } else if self.map.has_pair_on(q) {
            self.materialize_all()?;
            self.check_budget()?;
            self.map.for_each_where(&[], |amp, p| {
                if !p.phase.is_zero() {
                    *amp = *amp * p.phase.cis();
                    p.phase = Dyadic::zero();
                }
            });
            self.map.apply_h(q);
        } else {
            let pos = self.enter_fourier(q);
            self.map.rewrite_bit(q, |bit, p| {
                debug_assert_eq!(p.phis.len(), pos);
                p.phis
                    .push(if bit { Dyadic::half() } else { Dyadic::zero() });
                false
            });
        }
        Ok(())
    }

    /// The X/CX/CCX family: key toggles on Z-mode targets, exact phase
    /// reflection (`phase += φ; φ ↦ −φ`) on Fourier-mode targets.
    /// Fourier-mode *controls* are materialised first — a control has to
    /// be read, and a Fourier factor holds no definite bit.
    fn permute_x(&mut self, controls: &[QubitId], target: QubitId) -> Result<(), SimError> {
        for c in controls {
            self.materialize(*c)?;
        }
        if let Some(pos) = self.fourier_pos(target) {
            self.map.for_each_where(controls, |_, p| {
                p.phase.add_assign(&p.phis[pos]);
                p.phis[pos].negate();
            });
        } else {
            self.map.permute_x(controls, target);
        }
        Ok(())
    }

    /// The diagonal family (`Z`/`CZ`/`CCZ` at a half turn, `Phase`/
    /// `CPhase`/`CCPhase` at any dyadic angle): O(occupied) exact angle
    /// additions in place, which allocate only when an accumulator grows
    /// in precision. With one Fourier-mode operand the angle lands on that
    /// qubit's accumulator (conditioned on the Z-mode operands' bits);
    /// with none it lands on the branch phase. Two or more Fourier
    /// operands do not factorise — all but the last are materialised.
    fn apply_diagonal(&mut self, operands: &[QubitId], theta: Angle) -> Result<(), SimError> {
        if theta.is_zero() {
            return Ok(());
        }
        let mut fourier_ops = operands
            .iter()
            .filter(|q| self.fourier_pos(**q).is_some())
            .count();
        for &q in operands {
            if fourier_ops > 1 && self.fourier_pos(q).is_some() {
                self.materialize(q)?;
                fourier_ops -= 1;
            }
        }
        let mut z_ops = [QubitId(0); 3];
        let (mut n_z, mut fpos) = (0, None);
        for &q in operands {
            match self.fourier_pos(q) {
                Some(pos) => fpos = Some(pos),
                None => {
                    z_ops[n_z] = q;
                    n_z += 1;
                }
            }
        }
        self.map.for_each_where(&z_ops[..n_z], |_, p| match fpos {
            Some(pos) => p.phis[pos].add_angle(theta),
            None => p.phase.add_angle(theta),
        });
        Ok(())
    }

    /// SWAP exchanges the two qubits' entire factors, whatever their
    /// modes: bits swap as key rewrites, and Fourier accumulators stay in
    /// their slots while the mode table relabels them — no
    /// materialisation, and no accumulator moves.
    fn apply_swap(&mut self, a: QubitId, b: QubitId) {
        match (self.fourier_pos(a), self.fourier_pos(b)) {
            (None, None) => self.map.swap_bits(a, b),
            (Some(pa), Some(pb)) => {
                self.slot.swap(a.index(), b.index());
                self.fourier_qubits.swap(pa, pb);
            }
            (Some(pa), None) => self.swap_mixed(a, pa, b),
            (None, Some(pb)) => self.swap_mixed(b, pb, a),
        }
    }

    /// SWAP with `f` in Fourier mode (at slot `pf`) and `z` in Z-mode: `z`
    /// takes over `f`'s slot, accumulators untouched, and `f` takes `z`'s
    /// bit — a key-bit swap, since `f`'s bit is canonically zero.
    fn swap_mixed(&mut self, f: QubitId, pf: usize, z: QubitId) {
        self.fourier_qubits[pf] = z.0;
        self.slot[z.index()] = Some(pf as u32);
        self.slot[f.index()] = None;
        self.map.swap_bits(f, z);
    }

    /// A phase gradient, the `CPhase(c_j, t, ±2π/2^{k_j})` cascade of a
    /// QFT, IQFT or ΦADD column. On a Fourier-mode target with no
    /// Fourier-mode control it is one exact addition per branch: the
    /// branch ORs its set controls' bits into a word buffer at the offsets
    /// the `k_j` give (the `k_j` are distinct, so the OR is the sum) and
    /// adds the buffer to `φ_t`, or subtracts it. Exact arithmetic mod 1
    /// has one result, so the accumulator ends with the words the
    /// constituent gates leave; every other case replays them.
    fn apply_gradient(&mut self, pg: &PhaseGradient) -> Result<(), SimError> {
        let terms = pg.terms();
        let fast = self
            .fourier_pos(pg.target())
            .filter(|_| terms.iter().all(|&(c, _)| self.fourier_pos(c).is_none()));
        let Some(pos) = fast else {
            return pg.gates().try_for_each(|g| self.apply(&g));
        };
        // 2^{-k} is bit `64·len − k` of a `len`-word fraction (`k = 0`, a
        // full turn, adds nothing).
        let len = terms
            .iter()
            .map(|&(_, k)| k as usize)
            .max()
            .unwrap_or(0)
            .div_ceil(64);
        let mut stack = [0u64; 32];
        let mut heap = Vec::new();
        let buf = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap.resize(len, 0u64);
            &mut heap[..]
        };
        let negative = pg.is_negative();
        self.map.for_each_keyed(|key, p| {
            buf.fill(0);
            for &(c, k) in terms {
                if k > 0 && sparse::key_bit(key, c) {
                    let bit = 64 * len - k as usize;
                    buf[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            p.phis[pos].add_words(buf, negative);
        });
        Ok(())
    }

    /// Applies `gate` without checking its operands:
    /// [`apply_gate`](Simulator::apply_gate) validates them first, and a
    /// compiled run's were validated when it was lowered.
    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        match *gate {
            Gate::X(q) => self.permute_x(&[], q),
            Gate::Cx(c, t) => self.permute_x(&[c], t),
            Gate::Ccx(c1, c2, t) => self.permute_x(&[c1, c2], t),
            Gate::Swap(a, b) => {
                self.apply_swap(a, b);
                Ok(())
            }
            Gate::Z(q) => self.apply_diagonal(&[q], Angle::HALF_TURN),
            Gate::Cz(x, y) => self.apply_diagonal(&[x, y], Angle::HALF_TURN),
            Gate::Ccz(x, y, z) => self.apply_diagonal(&[x, y, z], Angle::HALF_TURN),
            Gate::Phase(q, theta) => self.apply_diagonal(&[q], theta),
            Gate::CPhase(c, t, theta) => self.apply_diagonal(&[c, t], theta),
            Gate::CcPhase(c1, c2, t, theta) => self.apply_diagonal(&[c1, c2, t], theta),
            Gate::H(q) => self.apply_h(q),
        }
    }

    /// Z-basis measurement through the map (a definite outcome consumes
    /// no draw). A Fourier-mode qubit is materialised first: it is a
    /// genuine superposition.
    fn measure_z(
        &mut self,
        q: QubitId,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        self.materialize(q)?;
        Ok(self.map.measure_z(q, draw))
    }

    /// The both-branch Z measurement behind
    /// [`measure_fork`](Simulator::measure_fork): the map's fork, after
    /// materialising a Fourier-mode qubit.
    fn fork_z(&mut self, q: QubitId) -> Result<Fork, SimError> {
        self.materialize(q)?;
        Ok(self.map.fork_z(q, |map| {
            Box::new(PhaseAccumulator {
                slot: self.slot.clone(),
                fourier_qubits: self.fourier_qubits.clone(),
                map,
            })
        }))
    }
}

impl Simulator for PhaseAccumulator {
    fn num_qubits(&self) -> usize {
        self.map.width()
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        exec::validate_gate(gate, self.map.width())?;
        self.apply(gate)
    }

    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        exec::measure_in_basis(self, qubit, basis, draw, Self::measure_z)
    }

    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        exec::fork_in_basis(self, qubit, basis, Self::fork_z)
    }

    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        exec::reset_in_z(self, qubit, draw, Self::measure_z)
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        if self.bit(q)? != value {
            self.apply(&Gate::X(q))?;
        }
        Ok(())
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        // Fourier-mode qubits are even superpositions: never definite.
        if let Some(Some(_)) = self.slot.get(q.index()) {
            return Err(SimError::ReadOfSuperposedQubit { qubit: q.0 });
        }
        self.map.definite_bit(q)
    }

    fn peak_amplitudes(&self) -> Option<u64> {
        self.map.last_run_peak
    }

    fn occupancy_peak(&self) -> Option<u64> {
        Some(self.map.peak_entries)
    }

    fn global_phase(&self) -> Option<Angle> {
        // Meaningful when the state is a single branch with no Fourier
        // factors. The exact path: a bitwise-one amplitude hands back the
        // branch's dyadic accumulator directly, at any depth.
        if self.map.occupied() != 1 || !self.fourier_qubits.is_empty() {
            return None;
        }
        let (_, amp, p) = self.map.entries().next()?;
        if amp.re == 1.0 && amp.im == 0.0 {
            return p.phase.to_angle();
        }
        // Inexact amplitude: recover a dyadic phase numerically, the
        // amplitude engines' policy.
        (amp * p.phase.cis()).dyadic_phase()
    }

    /// Compiled execution through the map backends' shared run, with the
    /// branch high-water mark reset and reported like the sparse
    /// engine's, gates going straight to the unchecked `apply` and phase
    /// gradients to their one-addition-per-branch closed form.
    /// Whether the phase backend pays on a program is a compile-time
    /// question: see
    /// [`PassStats::planned_phase`](mbu_circuit::PassStats::planned_phase).
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        sparse::run_compiled_on(
            self,
            |s| &mut s.map,
            Self::apply,
            Self::apply_gradient,
            compiled,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_SPARSEVECTOR_QUBITS;
    use mbu_circuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn dyadic_arithmetic_is_exact() {
        let mk = |k: u32| Dyadic::from_angle(Angle::turn_over_power_of_two(k));
        let mut x = Dyadic::zero();
        x.add_assign(&mk(2)); // 1/4
        x.add_assign(&mk(2)); // 1/2
        assert!(x.is_half());
        x.add_assign(&mk(1)); // wraps to 0
        assert!(x.is_zero());

        // Deep fractions survive a round trip through Angle.
        let deep = Angle::turn_over_power_of_two(1025);
        let mut y = Dyadic::from_angle(deep);
        assert_eq!(y.to_angle(), Some(deep));
        y.negate();
        assert_eq!(y.to_angle(), Some(-deep));
        y.add_assign(&Dyadic::from_angle(deep));
        assert!(y.is_zero());
    }

    /// `acc + theta` through the reference: the angle's whole `Dyadic`,
    /// then `add_assign`.
    fn reference_sum(acc: &Dyadic, theta: Angle) -> Dyadic {
        let mut want = acc.clone();
        want.add_assign(&Dyadic::from_angle(theta));
        want
    }

    fn assert_adds_like_the_reference(acc: &Dyadic, theta: Angle) {
        let mut got = acc.clone();
        got.add_angle(theta);
        assert_eq!(got, reference_sum(acc, theta), "{acc:?} + {theta:?}");
    }

    /// A canonical accumulator of 0–18 words, runs of all-zero and
    /// all-one words included so that carries and borrows travel.
    fn random_accumulator(rng: &mut StdRng) -> Dyadic {
        use rand::{Rng, RngCore};
        let len = rng.gen_range(0..19usize);
        let mut d = Dyadic {
            words: (0..len)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.next_u64(),
                })
                .collect(),
        };
        d.canonicalize();
        d
    }

    /// An angle in either canonical form: positive with a numerator of up
    /// to 128 bits over at most `2^128`, positive past `2^128`, or negated
    /// (`1 − x`, only past `2^128`) over up to `2^1100`.
    fn random_angle(rng: &mut StdRng) -> Angle {
        use rand::{Rng, RngCore};
        let bits = rng.gen_range(1..129u32);
        let num = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) >> (128 - bits);
        match rng.gen_range(0..3u32) {
            0 => Angle::from_fraction(num, rng.gen_range(1..129u32)),
            1 => Angle::from_fraction(num, rng.gen_range(129..1101u32)),
            _ => -Angle::from_fraction(num, rng.gen_range(129..1101u32)),
        }
    }

    #[test]
    fn add_angle_matches_the_reference_sum() {
        let mut rng = StdRng::seed_from_u64(0xadda);
        let mut negated = 0;
        for _ in 0..20_000 {
            let (acc, theta) = (random_accumulator(&mut rng), random_angle(&mut rng));
            negated += usize::from(theta.is_negated());
            assert_adds_like_the_reference(&acc, theta);
        }
        assert!(negated > 5_000, "negated forms drawn: {negated}");

        // Every word split, word-aligned denominators (no shift) among
        // them, on every accumulator length.
        for d in [
            1u32, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1024, 1025, 1088, 1100,
        ] {
            for num in [1u128, 3, u128::from(u64::MAX), u128::MAX] {
                for len in 0..19usize {
                    for fill in [0u64, 1, u64::MAX] {
                        let mut acc = Dyadic {
                            words: vec![fill; len],
                        };
                        acc.canonicalize();
                        for theta in [Angle::from_fraction(num, d), -Angle::from_fraction(num, d)] {
                            assert_adds_like_the_reference(&acc, theta);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn add_angle_carries_borrows_wraps_and_trims() {
        for len in 1..19usize {
            let d = 64 * len as u32;
            let ulp = Angle::from_fraction(1, d);
            // 1 − 2^-d plus 2^-d: a carry out of every word, a full turn
            // dropped, nothing left.
            let mut x = Dyadic {
                words: vec![u64::MAX; len],
            };
            x.add_angle(ulp);
            assert!(x.is_zero(), "len {len}: {x:?}");
            // 2^-d minus 3·2^-d: a borrow out of every word, wrapping
            // below zero to 1 − 2^{1−d}.
            let mut x = Dyadic {
                words: std::iter::once(1u64).chain(vec![0u64; len - 1]).collect(),
            };
            x.add_angle(-Angle::from_fraction(3, d));
            let mut want = vec![u64::MAX; len];
            want[0] = u64::MAX - 1;
            assert_eq!(x.words, want, "len {len}");
        }

        // A coarse phase plus a fine one, minus the fine one: the low
        // words cancel and canonical trimming drops them.
        let mut rng = StdRng::seed_from_u64(0x7121);
        for _ in 0..2_000 {
            let (coarse, fine) = (random_angle(&mut rng), random_angle(&mut rng));
            let mut x = Dyadic::from_angle(coarse);
            x.add_angle(fine);
            x.add_angle(-fine);
            assert_eq!(x, Dyadic::from_angle(coarse), "{coarse:?} ± {fine:?}");
        }

        let deep = Angle::turn_over_power_of_two(1025);
        let mut x = Dyadic::zero();
        x.add_angle(deep);
        assert_eq!(x.words.len(), 17);
        x.add_angle(-deep);
        assert!(x.is_zero() && x.words.is_empty(), "{x:?}");
    }

    /// A random accumulator state over `n ≥ 8` qubits: 1 to 4 branches
    /// (split on qubits 0 and 1), random bits and branch phases, and up
    /// to 8 qubits in Fourier mode with random accumulators.
    fn random_phase_state(rng: &mut StdRng, n: usize) -> PhaseAccumulator {
        use rand::Rng;
        let mut sim = PhaseAccumulator::zeros(n).unwrap();
        let branches = rng.gen_range(1..5usize);
        for s in 0..branches.min(3) - 1 {
            sim.apply(&Gate::H(q(s as u32))).unwrap();
            sim.materialize(q(s as u32)).unwrap();
        }
        if branches == 3 {
            // Four even branches, one of them turned a quarter: the
            // key-level `H` on q0 cancels one output of the unturned pair.
            sim.apply(&Gate::CPhase(q(0), q(1), Angle::turn_over_power_of_two(2)))
                .unwrap();
            sim.apply(&Gate::H(q(0))).unwrap();
        }
        assert_eq!(sim.occupied(), branches);
        for i in 2..n as u32 {
            if rng.gen_bool(0.5) {
                sim.apply(&Gate::X(q(i))).unwrap();
            }
            if rng.gen_bool(0.3) {
                sim.apply(&Gate::Phase(q(i), random_angle(rng))).unwrap();
            }
        }
        for _ in 0..8 {
            let f = q(rng.gen_range(2..n as u32));
            if sim.fourier_pos(f).is_none() {
                sim.apply(&Gate::H(f)).unwrap();
                sim.apply(&Gate::Phase(f, random_angle(rng))).unwrap();
            }
        }
        assert_eq!(sim.occupied(), branches, "promotions keep the branches");
        sim
    }

    /// Everything the accumulator holds, exactly: modes, keys, amplitude
    /// bits, branch phases and Fourier accumulators.
    fn assert_same_state(a: &PhaseAccumulator, b: &PhaseAccumulator) {
        assert_eq!(a.slot, b.slot);
        assert_eq!(a.fourier_qubits, b.fourier_qubits);
        assert_eq!(a.occupied(), b.occupied());
        for ((ka, aa, pa), (kb, ab, pb)) in a.branches().entries().zip(b.branches().entries()) {
            assert_eq!(ka, kb);
            assert_eq!(
                (aa.re.to_bits(), aa.im.to_bits()),
                (ab.re.to_bits(), ab.im.to_bits())
            );
            assert_eq!(pa.phase, pb.phase);
            assert_eq!(pa.phis, pb.phis);
        }
    }

    #[test]
    fn gradient_closed_form_equals_constituent_replay() {
        use rand::Rng;
        let n = 256;
        let mut rng = StdRng::seed_from_u64(0x9_7ad1);
        let mut ks: Vec<u32> = (1..=1100).collect();
        // Closed-form runs, replays, and terms past and up to 2^-128 in
        // negative gradients (`Angle`'s two negative forms).
        let (mut closed, mut replayed, mut deep_neg, mut shallow_neg) = (0, 0, 0, 0);
        for case in 0..240 {
            let mut sim = random_phase_state(&mut rng, n);
            let target = q(rng.gen_range(2..n as u32));
            // A Z-mode target, a Fourier-mode one, and a Fourier-mode one
            // with one to three Fourier-mode controls (the fallback).
            let mode = case % 3;
            if mode != 0 && sim.fourier_pos(target).is_none() {
                sim.apply(&Gate::H(target)).unwrap();
            }
            let len = rng.gen_range(2..201usize);
            // Distinct exponents: the head of a partial Fisher–Yates
            // shuffle.
            for i in 0..len {
                let j = rng.gen_range(i..ks.len());
                ks.swap(i, j);
            }
            let mut terms: Vec<(QubitId, u32)> = ks[..len]
                .iter()
                .map(|&k| {
                    let c = loop {
                        let c = q(rng.gen_range(0..n as u32));
                        if c != target && sim.fourier_pos(c).is_none() {
                            break c;
                        }
                    };
                    (c, k)
                })
                .collect();
            if mode == 2 {
                let others: Vec<u32> = sim
                    .fourier_list()
                    .iter()
                    .copied()
                    .filter(|&f| f != target.0)
                    .collect();
                for _ in 0..rng.gen_range(1..4) {
                    let term = rng.gen_range(0..len);
                    terms[term].0 = q(others[rng.gen_range(0..others.len())]);
                }
            }
            let negative = rng.gen_bool(0.5);
            if negative {
                deep_neg += terms.iter().filter(|&&(_, k)| k > 128).count();
                shallow_neg += terms.iter().filter(|&&(_, k)| k <= 128).count();
            }
            let pg = PhaseGradient::new(target, negative, terms);
            let fast = sim.fourier_pos(target).is_some()
                && pg
                    .terms()
                    .iter()
                    .all(|&(c, _)| sim.fourier_pos(c).is_none());
            if fast {
                closed += 1;
            } else {
                replayed += 1;
            }
            let mut packed = sim.clone();
            packed.apply_gradient(&pg).unwrap();
            let mut replay = sim;
            for g in pg.gates() {
                replay.apply(&g).unwrap();
            }
            assert_same_state(&packed, &replay);
        }
        assert!(
            closed > 40 && replayed > 40,
            "{closed} closed, {replayed} replayed"
        );
        assert!(deep_neg > 0 && shallow_neg > 0);
    }

    #[test]
    fn dyadic_cis_hits_quarter_turns_exactly() {
        let mk = |k: u32| Dyadic::from_angle(Angle::turn_over_power_of_two(k));
        assert_eq!(Dyadic::zero().cis(), Complex::ONE);
        assert_eq!(mk(1).cis(), Complex::new(-1.0, 0.0));
        assert_eq!(mk(2).cis(), Complex::I);
        let mut three_q = mk(2);
        three_q.add_assign(&Dyadic::from_angle(Angle::HALF_TURN));
        assert_eq!(three_q.cis(), Complex::new(0.0, -1.0));
    }

    #[test]
    fn qft_adder_runs_at_constant_occupancy() {
        // wrapping_add-shaped circuit built by hand at a width no
        // amplitude backend can touch in the Fourier basis.
        let n = 150usize;
        let mut b = CircuitBuilder::new();
        let x = b.qreg("x", n);
        let y = b.qreg("y", n);
        // QFT(y)
        for i in (0..n).rev() {
            b.h(y[i]);
            for j in (0..i).rev() {
                b.cphase(
                    y[j],
                    y[i],
                    Angle::turn_over_power_of_two((i - j + 1) as u32),
                );
            }
        }
        // ΦADD(x → y)
        for i in 0..n {
            for j in 0..=i {
                b.cphase(
                    x[j],
                    y[i],
                    Angle::turn_over_power_of_two((i - j + 1) as u32),
                );
            }
        }
        // IQFT(y)
        for i in 0..n {
            for j in 0..i {
                b.cphase(
                    y[j],
                    y[i],
                    -Angle::turn_over_power_of_two((i - j + 1) as u32),
                );
            }
            b.h(y[i]);
        }
        let circuit = b.finish();

        let mut sim = PhaseAccumulator::zeros(circuit.num_qubits()).unwrap();
        // x = 2^149 + 5, y = 2^149 + 1: the sum needs exact carries across
        // all 150 bits.
        sim.set_bit(x[0], true).unwrap();
        sim.set_bit(x[2], true).unwrap();
        sim.set_bit(x[149], true).unwrap();
        sim.set_bit(y[0], true).unwrap();
        sim.set_bit(y[149], true).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        sim.run(&circuit, &mut rng).unwrap();

        // (2^149+5) + (2^149+1) mod 2^150 = 6.
        let got = sim.bits(y.qubits()).unwrap();
        for (i, bit) in got.iter().enumerate() {
            assert_eq!(*bit, i == 1 || i == 2, "y bit {i}");
        }
        assert_eq!(sim.occupied(), 1, "adder must not fan out");
        assert!(sim.global_phase().map(|a| a.is_zero()).unwrap_or(false));
    }

    #[test]
    fn matches_dense_engine_on_a_superposition_circuit() {
        use crate::StateVector;
        // A circuit that leaves the closed fragment: H fan-out, phases at
        // odd angles, a CX, another H — exercises materialisation and the
        // key-level Hadamard fallback.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", 3);
        b.h(r[0]);
        b.cphase(r[0], r[1], Angle::turn_over_power_of_two(3));
        b.x(r[1]);
        b.cx(r[0], r[2]);
        b.h(r[0]);
        b.phase(r[2], Angle::turn_over_power_of_two(2));
        b.h(r[1]);
        b.h(r[1]);
        let circuit = b.finish();

        let mut dense = StateVector::zeros(3).unwrap();
        let mut rng1 = StdRng::seed_from_u64(9);
        dense.run(&circuit, &mut rng1).unwrap();

        let mut phase = PhaseAccumulator::zeros(3).unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        phase.run(&circuit, &mut rng2).unwrap();

        // Compare amplitudes through the conversion seam.
        let sv = crate::convert::phase_to_sparse(&phase).unwrap();
        for idx in 0..8u64 {
            let want = dense.amplitude(idx);
            let got = sv.amplitude(u128::from(idx));
            assert!(
                (want - got).norm() < 1e-12,
                "amp[{idx}]: dense {want} vs phase {got}"
            );
        }
    }

    #[test]
    fn measurement_forks_and_definite_outcomes_mirror_sparse() {
        // |+⟩ on q0, definite 1 on q1.
        let mut sim = PhaseAccumulator::zeros(2).unwrap();
        sim.set_bit(q(1), true).unwrap();
        sim.apply(&Gate::H(q(0))).unwrap();
        // Definite bit: no draw consumed.
        let mut draws = 0usize;
        let got = sim
            .measure(q(1), Basis::Z, &mut |_| {
                draws += 1;
                true
            })
            .unwrap();
        assert!(got);
        assert_eq!(draws, 0, "definite measurement must consume no draw");
        // Superposed qubit (Fourier mode after H): one draw.
        let got0 = sim
            .measure(q(0), Basis::Z, &mut |p| {
                draws += 1;
                assert!((p - 0.5).abs() < 1e-12);
                false
            })
            .unwrap();
        assert!(!got0);
        assert_eq!(draws, 1);
        assert_eq!(sim.occupied(), 1);
    }

    #[test]
    fn fork_splits_even_superpositions() {
        let mut sim = PhaseAccumulator::zeros(1).unwrap();
        sim.apply(&Gate::H(q(0))).unwrap();
        match sim.measure_fork(q(0), Basis::Z).unwrap().unwrap() {
            Fork::Split { p_one, one } => {
                assert!((p_one - 0.5).abs() < 1e-12);
                let one = one.unwrap();
                assert!(one.bit(q(0)).unwrap());
                assert!(!sim.bit(q(0)).unwrap());
            }
            Fork::Definite(_) => panic!("even superposition must split"),
        }
    }

    #[test]
    fn x_basis_measurement_conjugates_like_the_amplitude_engines() {
        let mut sim = PhaseAccumulator::zeros(1).unwrap();
        sim.apply(&Gate::H(q(0))).unwrap();
        // |+⟩ measured in X is definitely 0: no draw.
        let mut draws = 0usize;
        let got = sim
            .measure(q(0), Basis::X, &mut |_| {
                draws += 1;
                true
            })
            .unwrap();
        assert!(!got);
        assert_eq!(draws, 0);
    }

    #[test]
    fn swap_moves_fourier_accumulators_between_modes() {
        use crate::StateVector;
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", 2);
        b.h(r[0]);
        b.phase(r[0], Angle::turn_over_power_of_two(3));
        b.x(r[1]);
        b.swap(r[0], r[1]);
        b.h(r[1]);
        let circuit = b.finish();

        let mut dense = StateVector::zeros(2).unwrap();
        let mut rng1 = StdRng::seed_from_u64(5);
        dense.run(&circuit, &mut rng1).unwrap();
        let mut phase = PhaseAccumulator::zeros(2).unwrap();
        let mut rng2 = StdRng::seed_from_u64(5);
        phase.run(&circuit, &mut rng2).unwrap();
        let sv = crate::convert::phase_to_sparse(&phase).unwrap();
        for idx in 0..4u64 {
            assert!(
                (dense.amplitude(idx) - sv.amplitude(u128::from(idx))).norm() < 1e-12,
                "amp[{idx}]"
            );
        }
    }

    #[test]
    fn occupancy_peak_reports_branches_not_two_to_the_n() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", 100);
        // QFT-fragment H's keep occupancy at 1; one genuine fan-out
        // (materialised odd-angle phase then H) doubles it.
        b.h(r[0]);
        b.phase(r[0], Angle::turn_over_power_of_two(3));
        b.h(r[0]);
        let compiled = mbu_circuit::CompiledCircuit::lower(&b.finish()).unwrap();
        let mut sim = PhaseAccumulator::zeros(100).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        sim.run_compiled(&compiled, &mut rng).unwrap();
        assert_eq!(sim.occupancy_peak(), Some(2));
        assert_eq!(sim.peak_amplitudes(), Some(2));
    }

    /// FNV-1a, 64-bit, over little-endian words: a digest of integers
    /// only, so it is the same on every platform.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn dyadic(&mut self, d: &Dyadic) {
            self.word(d.words.len() as u64);
            d.words.iter().for_each(|&w| self.word(w));
        }

        /// The accumulator's exact part: the Fourier qubits, then each
        /// branch's key words, branch phase and Fourier accumulators, all
        /// in ascending qubit order (not slot order, which depends on the
        /// order of promotions and collapses).
        /// Amplitudes are left out: they can pass through `cis`.
        fn state(&mut self, sim: &PhaseAccumulator) {
            let mut fourier = sim.fourier_list().to_vec();
            fourier.sort_unstable();
            self.word(fourier.len() as u64);
            fourier.iter().for_each(|&q| self.word(u64::from(q)));
            self.word(sim.occupied() as u64);
            for (key, _, p) in sim.branches().entries() {
                key.iter().for_each(|&w| self.word(w));
                self.dyadic(&p.phase);
                self.word(p.phis.len() as u64);
                for &q in &fourier {
                    let pos = sim.fourier_pos(QubitId(q)).expect("Fourier qubit");
                    self.dyadic(&p.phis[pos]);
                }
            }
        }

        fn executed(&mut self, executed: &Executed) {
            for bit in &executed.classical {
                self.word(bit.map_or(2, u64::from));
            }
            self.word(executed.counts.total_gates());
        }
    }

    /// Top-level ops per interpreted chunk of [`fold_runs`]: odd, so
    /// the fold points drift through the QFT columns.
    const CHUNK: usize = 97;

    /// Runs `circuit` from the basis input `input` twice and folds what
    /// the accumulator holds: compiled (`compiled`, one fold at the end),
    /// and interpreted in chunks of [`CHUNK`] top-level ops, one fold
    /// after each, so the deep accumulators mid-QFT are pinned too.
    fn fold_runs(
        h: &mut Fnv,
        circuit: &mbu_circuit::Circuit,
        compiled: &CompiledCircuit,
        input: &[(QubitId, bool)],
        seed: u64,
    ) {
        let prepared = || {
            let mut sim = PhaseAccumulator::zeros(circuit.num_qubits()).unwrap();
            for &(q, bit) in input {
                sim.set_bit(q, bit).unwrap();
            }
            sim
        };
        let mut sim = prepared();
        let executed = sim
            .run_compiled(compiled, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        h.executed(&executed);
        h.state(&sim);

        let mut sim = prepared();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut executed = Executed::default();
        for chunk in circuit.ops().chunks(CHUNK) {
            exec::execute_dyn(&mut sim, chunk, &mut rng, &mut executed).unwrap();
            h.state(&sim);
        }
        h.executed(&executed);
    }

    /// A random basis input: one random bit for each of `qubits`.
    fn random_bits(rng: &mut StdRng, qubits: &[QubitId]) -> Vec<(QubitId, bool)> {
        use rand::Rng;
        qubits.iter().map(|&q| (q, rng.gen_bool(0.5))).collect()
    }

    /// A random constant of `width` bits.
    fn random_const(rng: &mut StdRng, width: usize) -> mbu_bitstring::BitString {
        use rand::Rng;
        mbu_bitstring::BitString::from_bits((0..width).map(|_| rng.gen_bool(0.5)).collect())
    }

    const EXACT_ARITHMETIC_DIGEST: u64 = 8_815_803_711_540_697_718;

    /// Pins the exact `Dyadic` words that deep `Phase`, `CPhase` and
    /// `CCPhase` angles leave in the accumulator. `map_backends_golden`
    /// cannot: it hashes amplitudes, so it leaves out every rotation but
    /// half turns, whose `sin` and `cos` may differ across platforms.
    /// This digest folds integers only.
    #[test]
    fn deep_angle_arithmetic_is_pinned() {
        use mbu_arith::adders::draper::{self, Sign};
        use mbu_arith::modular::beauregard;
        use mbu_arith::Uncompute;

        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut rng = StdRng::seed_from_u64(0x00d1_ad1c);
        let lowered = |b: CircuitBuilder| {
            let circuit = b.finish();
            let compiled = CompiledCircuit::lower(&circuit).unwrap();
            (circuit, compiled)
        };

        // QFT · IQFT round trips across the one-, two- and three-word
        // accumulator widths.
        for m in [1usize, 2, 3, 31, 63, 64, 65, 66, 127, 128, 129, 130] {
            for _ in 0..2 {
                let mut b = CircuitBuilder::new();
                let r = b.qreg("r", m);
                draper::qft(&mut b, r.qubits()).unwrap();
                draper::iqft(&mut b, r.qubits()).unwrap();
                let input = random_bits(&mut rng, r.qubits());
                let (circuit, compiled) = lowered(b);
                fold_runs(&mut h, &circuit, &compiled, &input, 1);
            }
        }

        // ΦADD / ΦSUB of a register, and of a constant with zero, one and
        // two controls (Phase, CPhase, CCPhase): the minus sign past
        // 2^128 denominators takes `Angle`'s negated form.
        for (n, m) in [
            (1usize, 1usize),
            (5, 9),
            (64, 65),
            (100, 128),
            (128, 129),
            (130, 130),
        ] {
            for sign in [Sign::Plus, Sign::Minus] {
                let mut b = CircuitBuilder::new();
                let x = b.qreg("x", n);
                let y = b.qreg("y", m);
                draper::qft(&mut b, y.qubits()).unwrap();
                draper::phi_add(&mut b, x.qubits(), y.qubits(), sign).unwrap();
                draper::iqft(&mut b, y.qubits()).unwrap();
                let mut input = random_bits(&mut rng, x.qubits());
                input.extend(random_bits(&mut rng, y.qubits()));
                let (circuit, compiled) = lowered(b);
                fold_runs(&mut h, &circuit, &compiled, &input, 2);
            }
        }
        for (width, m) in [(9usize, 9usize), (64, 65), (128, 129), (130, 130)] {
            for sign in [Sign::Plus, Sign::Minus] {
                for controls in 0..3usize {
                    let a = random_const(&mut rng, width);
                    let mut b = CircuitBuilder::new();
                    let c = b.qreg("c", 2);
                    let y = b.qreg("y", m);
                    draper::qft(&mut b, y.qubits()).unwrap();
                    match controls {
                        0 => draper::phi_add_const(&mut b, &a, y.qubits(), sign),
                        1 => draper::c_phi_add_const(&mut b, c[0], &a, y.qubits(), sign),
                        _ => draper::cc_phi_add_const(&mut b, c[0], c[1], &a, y.qubits(), sign),
                    }
                    .unwrap();
                    draper::iqft(&mut b, y.qubits()).unwrap();
                    let mut input = random_bits(&mut rng, c.qubits());
                    input.extend(random_bits(&mut rng, y.qubits()));
                    let (circuit, compiled) = lowered(b);
                    fold_runs(&mut h, &circuit, &compiled, &input, 3);
                }
            }
        }

        // The n = 64 Beauregard MBU modular adder, default-compiled as
        // the benchmark runs it, at a few seeds.
        let p = 18_446_744_073_709_551_557u128;
        let layout = beauregard::modadd_circuit(Uncompute::Mbu, 64, p).unwrap();
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
        for seed in 0..3u64 {
            use rand::Rng;
            let (xv, yv) = (rng.gen_range(0..p), rng.gen_range(0..p));
            let mut input: Vec<(QubitId, bool)> = Vec::new();
            for (reg, v) in [(&layout.x, xv), (&layout.y, yv)] {
                for (i, &q) in reg.qubits().iter().enumerate() {
                    input.push((q, i < 128 && (v >> i) & 1 == 1));
                }
            }
            fold_runs(&mut h, &layout.circuit, &compiled, &input, seed);
        }
        assert_eq!(h.0, EXACT_ARITHMETIC_DIGEST, "got {}", h.0);
    }

    #[test]
    fn width_cap_matches_the_sparse_backend() {
        assert!(matches!(
            PhaseAccumulator::zeros(MAX_SPARSEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(PhaseAccumulator::zeros(MAX_SPARSEVECTOR_QUBITS).is_ok());
    }
}
