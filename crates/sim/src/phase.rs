//! The Fourier-basis phase-accumulator backend.
//!
//! [`PhaseAccumulator`] represents the state as a small set of occupied
//! basis *branches*, where each qubit is globally in one of two modes:
//!
//! * **Z-mode** — the qubit holds one definite bit per branch, stored in
//!   the branch's basis key (exactly the sparse map's picture);
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
//! The payoff is the interior of a QFT adder (the paper's Draper/Beauregard
//! circuits): `H` promotes a definite bit into Fourier mode without
//! growing the branch set, every diagonal gate (`Phase`/`CPhase`/
//! `CCPhase`/`Z` family) becomes an O(occupied) exact dyadic-angle
//! addition with **no amplitude sweeps**, and the closing `IQFT`'s `H`
//! meets `φ ∈ {0, ½}` and collapses the qubit back to a definite bit —
//! the whole adder runs at constant occupancy. A Draper addition over
//! n = 1024 qubits, where a dense array cannot allocate and the sparse map
//! would fan out to `2^{1025}` entries, executes in O(gates).
//!
//! Outside that closed fragment the backend stays universal by *lossless
//! materialisation*: a Fourier qubit whose phase is not a half-turn
//! multiple is expanded into explicit 0/1 branches (doubling occupancy,
//! exactly like the sparse `H`), and the gate proceeds on keys.

use std::cmp::Ordering;

use mbu_circuit::{Angle, Basis, CompiledCircuit, Gate, QubitId};
use rand::RngCore;

use crate::complex::Complex;
use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::simulator::{Fork, Simulator};
use crate::sparse::MAX_SPARSEVECTOR_QUBITS;

/// Branch-count ceiling for materialisation fallbacks: a gate that would
/// expand the occupied set past this many branches reports
/// [`SimError::BranchBudgetExceeded`] instead of exhausting memory.
pub const MAX_PHASE_BRANCHES: usize = 1usize << 20;

/// Definite-bit read tolerance, mirroring the dense/sparse engines.
const DEFINITE_TOL: f64 = 1e-9;

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

    /// Adds `other` mod 1.
    pub(crate) fn add_assign(&mut self, other: &Dyadic) {
        if other.words.is_empty() {
            return;
        }
        let l = self.words.len().max(other.words.len());
        let pad_s = l - self.words.len();
        let pad_o = l - other.words.len();
        let mut out = vec![0u64; l];
        for (i, w) in self.words.iter().enumerate() {
            out[i + pad_s] = *w;
        }
        let mut carry = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let o = if i >= pad_o {
                other.words[i - pad_o]
            } else {
                0
            };
            let (s1, c1) = slot.overflowing_add(o);
            let (s2, c2) = s1.overflowing_add(carry);
            *slot = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        // A final carry is a full turn: dropped (mod 1).
        self.words = out;
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

    /// The exact dyadic image of an [`Angle`].
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

    /// Adds an [`Angle`] mod 1.
    pub(crate) fn add_angle(&mut self, theta: Angle) {
        if theta.is_zero() {
            return;
        }
        self.add_assign(&Dyadic::from_angle(theta));
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

/// One occupied basis branch.
#[derive(Clone, Debug)]
pub(crate) struct Branch {
    /// Little-endian key words; Fourier-mode qubits' bits are canonically
    /// zero here.
    pub(crate) key: Vec<u64>,
    /// Branch amplitude (never an exact complex zero).
    pub(crate) amp: Complex,
    /// Exact global phase of the branch, as a fraction of a turn.
    pub(crate) phase: Dyadic,
    /// Per-Fourier-qubit phases, parallel to the state's sorted
    /// `fourier_qubits` list.
    pub(crate) phis: Vec<Dyadic>,
}

/// Ascending numeric comparison of two equal-width little-endian keys.
fn cmp_keys(a: &[u64], b: &[u64]) -> Ordering {
    for (wa, wb) in a.iter().rev().zip(b.iter().rev()) {
        match wa.cmp(wb) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

fn is_zero_amp(a: Complex) -> bool {
    a.re == 0.0 && a.im == 0.0
}

/// The (word, mask) address of qubit `q` inside a key.
fn bit_addr(q: QubitId) -> (usize, u64) {
    (q.index() / 64, 1u64 << (q.index() % 64))
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
    num_qubits: usize,
    /// Key width in 64-bit words: `⌈num_qubits/64⌉`, at least 1.
    words: usize,
    /// Per-qubit mode flag: `true` = Fourier.
    fourier: Vec<bool>,
    /// Sorted list of Fourier-mode qubits; every branch's `phis` is
    /// parallel to it.
    fourier_qubits: Vec<u32>,
    /// Occupied branches, sorted ascending by key, pairwise distinct.
    branches: Vec<Branch>,
    /// Occupied-branch high-water mark since the last compiled-run start.
    peak_branches: u64,
    /// High-water mark of the most recent compiled run, once one ran.
    last_run_peak: Option<u64>,
}

impl PhaseAccumulator {
    /// Creates `|0…0⟩` over `num_qubits` qubits: one occupied branch,
    /// everything in Z-mode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_SPARSEVECTOR_QUBITS`] (the backends share the width cap).
    pub fn zeros(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_SPARSEVECTOR_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_SPARSEVECTOR_QUBITS,
            });
        }
        let words = num_qubits.div_ceil(64).max(1);
        Ok(Self {
            num_qubits,
            words,
            fourier: vec![false; num_qubits],
            fourier_qubits: Vec::new(),
            branches: vec![Branch {
                key: vec![0; words],
                amp: Complex::ONE,
                phase: Dyadic::zero(),
                phis: Vec::new(),
            }],
            peak_branches: 1,
            last_run_peak: None,
        })
    }

    /// The number of occupied branches.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.branches.len()
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

    /// The sorted Fourier-qubit list (conversion seam).
    pub(crate) fn fourier_list(&self) -> &[u32] {
        &self.fourier_qubits
    }

    /// The occupied branches (conversion seam).
    pub(crate) fn raw_branches(&self) -> &[Branch] {
        &self.branches
    }

    fn note_peak(&mut self) {
        let k = self.branches.len() as u64;
        if k > self.peak_branches {
            self.peak_branches = k;
        }
    }

    /// Restores the ascending-key invariant after a key rewrite.
    fn resort(&mut self) {
        self.branches.sort_by(|a, b| cmp_keys(&a.key, &b.key));
    }

    /// Index of Fourier qubit `q` in the sorted list.
    fn fourier_pos(&self, q: QubitId) -> usize {
        debug_assert!(self.fourier[q.index()]);
        self.fourier_qubits
            .binary_search(&q.0)
            .expect("mode map out of sync")
    }

    /// Losslessly expands Fourier qubit `q` into explicit 0/1 branches
    /// (the qubit returns to Z-mode; occupancy at most doubles).
    ///
    /// # Errors
    ///
    /// [`SimError::BranchBudgetExceeded`] past [`MAX_PHASE_BRANCHES`].
    fn materialize(&mut self, q: QubitId) -> Result<(), SimError> {
        if self.branches.len() * 2 > MAX_PHASE_BRANCHES {
            return Err(SimError::BranchBudgetExceeded {
                budget: MAX_PHASE_BRANCHES,
            });
        }
        let pos = self.fourier_pos(q);
        let (bw, bm) = bit_addr(q);
        let scale = std::f64::consts::FRAC_1_SQRT_2;
        let mut out = Vec::with_capacity(self.branches.len() * 2);
        for mut b in std::mem::take(&mut self.branches) {
            let phi = b.phis.remove(pos);
            let amp = b.amp.scale(scale);
            let mut one = Branch {
                key: b.key.clone(),
                amp,
                phase: b.phase.clone(),
                phis: b.phis.clone(),
            };
            one.key[bw] |= bm;
            one.phase.add_assign(&phi);
            b.amp = amp;
            out.push(b);
            out.push(one);
        }
        self.branches = out;
        self.fourier_qubits.remove(pos);
        self.fourier[q.index()] = false;
        self.resort();
        self.note_peak();
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

    /// Whether clearing bit `q` would make two occupied keys collide —
    /// i.e. some branch's `q`-flipped partner key is also occupied.
    fn h_promotion_collides(&self, q: QubitId) -> bool {
        let (bw, bm) = bit_addr(q);
        let mut cleared: Vec<Vec<u64>> = self
            .branches
            .iter()
            .map(|b| {
                let mut k = b.key.clone();
                k[bw] &= !bm;
                k
            })
            .collect();
        cleared.sort_by(|a, b| cmp_keys(a, b));
        cleared
            .windows(2)
            .any(|w| cmp_keys(&w[0], &w[1]) == Ordering::Equal)
    }

    /// Key-level Hadamard on Z-mode qubit `q` (the sparse engine's pair
    /// fan-out), used when promotion to Fourier mode is blocked by a
    /// colliding partner. Requires all-Z branches: callers materialise
    /// first. Branch phases are folded into the amplitudes (exact for
    /// quarter-turn multiples) before pairing.
    fn apply_h_keys(&mut self, q: QubitId) {
        for b in &mut self.branches {
            if !b.phase.is_zero() {
                b.amp = b.amp * b.phase.cis();
                b.phase = Dyadic::zero();
            }
        }
        let (bw, bm) = bit_addr(q);
        let k = self.branches.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let ka = &self.branches[a].key;
            let kb = &self.branches[b].key;
            for w in (0..self.words).rev() {
                let (mut wa, mut wb) = (ka[w], kb[w]);
                if w == bw {
                    wa &= !bm;
                    wb &= !bm;
                }
                match wa.cmp(&wb) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            (ka[bw] & bm).cmp(&(kb[bw] & bm))
        });
        let scale = std::f64::consts::FRAC_1_SQRT_2;
        let mut out: Vec<Branch> = Vec::with_capacity(k * 2);
        let mut i = 0usize;
        while i < k {
            let e = order[i];
            let mut base = self.branches[e].key.clone();
            base[bw] &= !bm;
            let (a, b) = if self.branches[e].key[bw] & bm == 0 {
                let mut b = Complex::ZERO;
                if i + 1 < k {
                    let f = order[i + 1];
                    let kf = &self.branches[f].key;
                    let partner = (kf[bw] & bm != 0)
                        && kf.iter().enumerate().all(|(w, &word)| {
                            if w == bw {
                                word & !bm == base[w]
                            } else {
                                word == base[w]
                            }
                        });
                    if partner {
                        b = self.branches[f].amp;
                        i += 1;
                    }
                }
                (self.branches[e].amp, b)
            } else {
                (Complex::ZERO, self.branches[e].amp)
            };
            i += 1;
            let out0 = (a + b).scale(scale);
            let out1 = (a - b).scale(scale);
            if !is_zero_amp(out0) {
                out.push(Branch {
                    key: base.clone(),
                    amp: out0,
                    phase: Dyadic::zero(),
                    phis: Vec::new(),
                });
            }
            if !is_zero_amp(out1) {
                base[bw] |= bm;
                out.push(Branch {
                    key: base,
                    amp: out1,
                    phase: Dyadic::zero(),
                    phis: Vec::new(),
                });
            }
        }
        self.branches = out;
        self.resort();
        self.note_peak();
    }

    /// Hadamard on `q`.
    ///
    /// * Fourier-mode with every branch's `φ_q ∈ {0, ½}`: exact collapse
    ///   to a definite bit (`φ = ½` reads 1) — the IQFT's closing step.
    /// * Z-mode with no partner collision: exact promotion to Fourier mode
    ///   (`φ = bit·½`), occupancy unchanged — the QFT's opening step.
    /// * Otherwise: materialise and fan out on keys, like the sparse map.
    fn apply_h(&mut self, q: QubitId) -> Result<(), SimError> {
        if self.fourier[q.index()] {
            let pos = self.fourier_pos(q);
            if self.branches.iter().all(|b| b.phis[pos].is_half_multiple()) {
                let (bw, bm) = bit_addr(q);
                for b in &mut self.branches {
                    let phi = b.phis.remove(pos);
                    if phi.is_half() {
                        b.key[bw] |= bm;
                    }
                }
                self.fourier_qubits.remove(pos);
                self.fourier[q.index()] = false;
                self.resort();
                return Ok(());
            }
            self.materialize(q)?;
            return self.apply_h(q);
        }
        if self.h_promotion_collides(q) {
            self.materialize_all()?;
            if self.branches.len() * 2 > MAX_PHASE_BRANCHES {
                return Err(SimError::BranchBudgetExceeded {
                    budget: MAX_PHASE_BRANCHES,
                });
            }
            self.apply_h_keys(q);
            return Ok(());
        }
        let (bw, bm) = bit_addr(q);
        let pos = self
            .fourier_qubits
            .binary_search(&q.0)
            .expect_err("Z-mode qubit in the Fourier list");
        for b in &mut self.branches {
            let phi = if b.key[bw] & bm != 0 {
                Dyadic::half()
            } else {
                Dyadic::zero()
            };
            b.key[bw] &= !bm;
            b.phis.insert(pos, phi);
        }
        self.fourier_qubits.insert(pos, q.0);
        self.fourier[q.index()] = true;
        self.resort();
        Ok(())
    }

    /// The X/CX/CCX family: key toggles on Z-mode targets, exact phase
    /// reflection (`phase += φ; φ ↦ −φ`) on Fourier-mode targets.
    /// Fourier-mode *controls* are materialised first — a control has to
    /// be read, and a Fourier factor holds no definite bit.
    fn permute_x(&mut self, controls: &[QubitId], target: QubitId) -> Result<(), SimError> {
        for c in controls {
            if self.fourier[c.index()] {
                self.materialize(*c)?;
            }
        }
        let ctrl: Vec<(usize, u64)> = controls.iter().map(|c| bit_addr(*c)).collect();
        if self.fourier[target.index()] {
            let pos = self.fourier_pos(target);
            for b in &mut self.branches {
                if ctrl.iter().all(|&(w, m)| b.key[w] & m != 0) {
                    let phi = b.phis[pos].clone();
                    b.phase.add_assign(&phi);
                    b.phis[pos].negate();
                }
            }
            return Ok(());
        }
        let (tw, tm) = bit_addr(target);
        for b in &mut self.branches {
            if ctrl.iter().all(|&(w, m)| b.key[w] & m != 0) {
                b.key[tw] ^= tm;
            }
        }
        self.resort();
        Ok(())
    }

    /// The diagonal family (`Z`/`CZ`/`CCZ` at a half turn, `Phase`/
    /// `CPhase`/`CCPhase` at any dyadic angle): O(occupied) exact angle
    /// additions. With one Fourier-mode operand the angle lands on that
    /// qubit's accumulator (conditioned on the Z-mode operands' bits);
    /// with none it lands on the branch phase. Two or more Fourier
    /// operands do not factorise — all but the last are materialised.
    fn apply_diagonal(&mut self, operands: &[QubitId], theta: Angle) -> Result<(), SimError> {
        if theta.is_zero() {
            return Ok(());
        }
        let mut fops: Vec<QubitId> = operands
            .iter()
            .copied()
            .filter(|q| self.fourier[q.index()])
            .collect();
        while fops.len() > 1 {
            self.materialize(fops.remove(0))?;
        }
        let fpos = fops.first().map(|q| self.fourier_pos(*q));
        let zops: Vec<(usize, u64)> = operands
            .iter()
            .filter(|q| !self.fourier[q.index()])
            .map(|q| bit_addr(*q))
            .collect();
        for b in &mut self.branches {
            if zops.iter().all(|&(w, m)| b.key[w] & m != 0) {
                match fpos {
                    Some(pos) => b.phis[pos].add_angle(theta),
                    None => b.phase.add_angle(theta),
                }
            }
        }
        Ok(())
    }

    /// SWAP exchanges the two qubits' entire factors, whatever their
    /// modes: bits swap as key rewrites, Fourier accumulators move with
    /// their qubit (the mode map is updated — no materialisation needed).
    fn apply_swap(&mut self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        match (self.fourier[a.index()], self.fourier[b.index()]) {
            (false, false) => {
                let (aw, am) = bit_addr(a);
                let (bw, bm) = bit_addr(b);
                for br in &mut self.branches {
                    if (br.key[aw] & am != 0) != (br.key[bw] & bm != 0) {
                        br.key[aw] ^= am;
                        br.key[bw] ^= bm;
                    }
                }
                self.resort();
            }
            (true, true) => {
                let pa = self.fourier_pos(a);
                let pb = self.fourier_pos(b);
                for br in &mut self.branches {
                    br.phis.swap(pa, pb);
                }
            }
            (true, false) => return self.swap_mixed(a, b),
            (false, true) => return self.swap_mixed(b, a),
        }
        Ok(())
    }

    /// SWAP with `f` in Fourier mode and `z` in Z-mode: `z` takes the
    /// accumulator, `f` takes the bit.
    fn swap_mixed(&mut self, f: QubitId, z: QubitId) -> Result<(), SimError> {
        let pf = self.fourier_pos(f);
        let (fw, fm) = bit_addr(f);
        let (zw, zm) = bit_addr(z);
        self.fourier_qubits.remove(pf);
        self.fourier[f.index()] = false;
        let pz = self
            .fourier_qubits
            .binary_search(&z.0)
            .expect_err("Z-mode qubit in the Fourier list");
        self.fourier_qubits.insert(pz, z.0);
        self.fourier[z.index()] = true;
        for br in &mut self.branches {
            let phi = br.phis.remove(pf);
            br.phis.insert(pz, phi);
            let z_bit = br.key[zw] & zm != 0;
            br.key[zw] &= !zm;
            if z_bit {
                br.key[fw] |= fm;
            } else {
                br.key[fw] &= !fm;
            }
        }
        self.resort();
        Ok(())
    }

    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        exec::validate_gate(gate, self.num_qubits)?;
        match *gate {
            Gate::X(q) => self.permute_x(&[], q),
            Gate::Cx(c, t) => self.permute_x(&[c], t),
            Gate::Ccx(c1, c2, t) => self.permute_x(&[c1, c2], t),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Z(q) => self.apply_diagonal(&[q], Angle::HALF_TURN),
            Gate::Cz(x, y) => self.apply_diagonal(&[x, y], Angle::HALF_TURN),
            Gate::Ccz(x, y, z) => self.apply_diagonal(&[x, y, z], Angle::HALF_TURN),
            Gate::Phase(q, theta) => self.apply_diagonal(&[q], theta),
            Gate::CPhase(c, t, theta) => self.apply_diagonal(&[c, t], theta),
            Gate::CcPhase(c1, c2, t, theta) => self.apply_diagonal(&[c1, c2, t], theta),
            Gate::H(q) => self.apply_h(q),
        }
    }

    /// The Born probability that qubit `q` reads 1, clamped into `[0, 1]`
    /// (ascending-key sum over occupied branches). Requires Z-mode.
    fn z_prob_one(&self, q: QubitId) -> f64 {
        let (w, m) = bit_addr(q);
        let p1: f64 = self
            .branches
            .iter()
            .filter(|b| b.key[w] & m != 0)
            .map(|b| b.amp.norm_sqr())
            .sum();
        p1.clamp(0.0, 1.0)
    }

    /// The renormalisation factor for projecting onto branch `outcome`,
    /// with the amplitude engines' kept-mass fallback (never inf/NaN).
    fn z_branch_scale(&self, q: QubitId, outcome: bool, p1: f64) -> f64 {
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p > 0.0 {
            1.0 / p.sqrt()
        } else {
            let (w, m) = bit_addr(q);
            let kept: f64 = self
                .branches
                .iter()
                .filter(|b| (b.key[w] & m != 0) == outcome)
                .map(|b| b.amp.norm_sqr())
                .sum();
            if kept > 0.0 {
                1.0 / kept.sqrt()
            } else {
                1.0
            }
        }
    }

    /// Projects onto branch `outcome` of Z-mode qubit `q`, scaling
    /// survivors by `scale` and culling exact zeros.
    fn project(&mut self, q: QubitId, outcome: bool, scale: f64) {
        let (w, m) = bit_addr(q);
        self.branches.retain_mut(|b| {
            if (b.key[w] & m != 0) != outcome {
                return false;
            }
            b.amp = b.amp.scale(scale);
            !is_zero_amp(b.amp)
        });
    }

    /// Z-basis measurement with the shared definite-outcome rule: a Born
    /// probability of exactly `0.0`/`1.0` forces the outcome and consumes
    /// **no** draw; otherwise one draw decides. A Fourier-mode qubit is
    /// materialised first (it is a genuine superposition).
    fn measure_z(
        &mut self,
        q: QubitId,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        if self.fourier[q.index()] {
            self.materialize(q)?;
        }
        let p1 = self.z_prob_one(q);
        let outcome = if p1 == 0.0 {
            false
        } else if p1 == 1.0 {
            true
        } else {
            draw(p1)
        };
        let scale = self.z_branch_scale(q, outcome, p1);
        self.project(q, outcome, scale);
        Ok(outcome)
    }

    /// The both-branch Z measurement behind
    /// [`measure_fork`](Simulator::measure_fork), mirroring the sparse
    /// engine's fork semantics (definite outcomes consume no randomness).
    fn fork_z(&mut self, q: QubitId) -> Result<Fork, SimError> {
        if self.fourier[q.index()] {
            self.materialize(q)?;
        }
        let p1 = self.z_prob_one(q);
        if p1 == 0.0 || p1 == 1.0 {
            let outcome = p1 == 1.0;
            self.project(q, outcome, self.z_branch_scale(q, outcome, p1));
            return Ok(Fork::Definite(outcome));
        }
        let scale0 = self.z_branch_scale(q, false, p1);
        let scale1 = self.z_branch_scale(q, true, p1);
        let mut one = self.clone();
        one.last_run_peak = None;
        self.project(q, false, scale0);
        one.project(q, true, scale1);
        one.note_peak();
        Ok(Fork::Split {
            p_one: p1,
            one: Some(Box::new(one)),
        })
    }

    /// A definite-bit read under the shared tolerance. Fourier-mode
    /// qubits are even superpositions — never definite.
    fn definite_bit(&self, q: QubitId) -> Result<bool, SimError> {
        if self.fourier[q.index()] {
            return Err(SimError::ReadOfSuperposedQubit { qubit: q.0 });
        }
        let p1 = self.z_prob_one(q);
        if p1 >= 1.0 - DEFINITE_TOL {
            Ok(true)
        } else if p1 <= DEFINITE_TOL {
            Ok(false)
        } else {
            Err(SimError::ReadOfSuperposedQubit { qubit: q.0 })
        }
    }
}

impl Simulator for PhaseAccumulator {
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        self.apply(gate)
    }

    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        if qubit.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("measured qubit q{}", qubit.0),
            });
        }
        match basis {
            Basis::Z => self.measure_z(qubit, draw),
            Basis::X => {
                self.apply(&Gate::H(qubit))?;
                let outcome = self.measure_z(qubit, draw)?;
                self.apply(&Gate::H(qubit))?;
                Ok(outcome)
            }
        }
    }

    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        exec::fork_in_basis(self, qubit, basis, Self::fork_z)
    }

    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        if qubit.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("reset qubit q{}", qubit.0),
            });
        }
        if self.measure_z(qubit, draw)? {
            self.apply(&Gate::X(qubit))?;
        }
        Ok(())
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        if q.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        if self.definite_bit(q)? != value {
            self.apply(&Gate::X(q))?;
        }
        Ok(())
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        if q.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
        }
        self.definite_bit(q)
    }

    fn peak_amplitudes(&self) -> Option<u64> {
        self.last_run_peak
    }

    fn occupancy_peak(&self) -> Option<u64> {
        Some(self.peak_branches)
    }

    fn global_phase(&self) -> Option<Angle> {
        // Meaningful when the state is a single branch with no Fourier
        // factors. The exact path: a bitwise-one amplitude hands back the
        // branch's dyadic accumulator directly, at any depth.
        if self.branches.len() != 1 || !self.fourier_qubits.is_empty() {
            return None;
        }
        let b = &self.branches[0];
        if b.amp.re == 1.0 && b.amp.im == 0.0 {
            return b.phase.to_angle();
        }
        // Inexact amplitude: recover a dyadic phase numerically, the
        // amplitude engines' policy.
        (b.amp * b.phase.cis()).dyadic_phase()
    }

    /// Compiled execution through the shared program-counter core, with
    /// the branch high-water mark reset and reported like the sparse
    /// engine's. Whether the phase backend pays on a program is a
    /// compile-time question: see
    /// [`PassStats::planned_phase`](mbu_circuit::PassStats::planned_phase).
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        exec::check_width(compiled.num_qubits(), self.num_qubits)?;
        self.peak_branches = self.branches.len() as u64;
        let mut executed = Executed::default();
        exec::execute_compiled(self, compiled, rng, &mut executed)?;
        self.last_run_peak = Some(self.peak_branches);
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn dyadic_arithmetic_is_exact() {
        let mut x = Dyadic::zero();
        x.add_angle(Angle::turn_over_power_of_two(2)); // 1/4
        x.add_angle(Angle::turn_over_power_of_two(2)); // 1/2
        assert!(x.is_half());
        x.add_angle(Angle::turn_over_power_of_two(1)); // wraps to 0
        assert!(x.is_zero());

        // Deep fractions survive a round trip through Angle.
        let deep = Angle::turn_over_power_of_two(1025);
        let mut y = Dyadic::from_angle(deep);
        assert_eq!(y.to_angle(), Some(deep));
        y.negate();
        assert_eq!(y.to_angle(), Some(-deep));
        y.add_angle(deep);
        assert!(y.is_zero());
    }

    #[test]
    fn dyadic_cis_hits_quarter_turns_exactly() {
        let mk = |k: u32| Dyadic::from_angle(Angle::turn_over_power_of_two(k));
        assert_eq!(Dyadic::zero().cis(), Complex::ONE);
        assert_eq!(mk(1).cis(), Complex::new(-1.0, 0.0));
        assert_eq!(mk(2).cis(), Complex::I);
        let mut three_q = mk(2);
        three_q.add_angle(Angle::HALF_TURN);
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

    #[test]
    fn width_cap_matches_the_sparse_backend() {
        assert!(matches!(
            PhaseAccumulator::zeros(MAX_SPARSEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(PhaseAccumulator::zeros(MAX_SPARSEVECTOR_QUBITS).is_ok());
    }
}
