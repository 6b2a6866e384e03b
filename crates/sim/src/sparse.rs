//! The sorted basis-key map: the sparse statevector backend, and the
//! branch storage of the phase accumulator.
//!
//! [`SparseVector`] stores the state as a sorted map from occupied basis
//! bitstrings (multi-word little-endian keys) to complex amplitudes,
//! instead of a dense `2^n` array. The paper's circuits — VBE/CDKPM/Gidney
//! adders, Beauregard modexp and every MBU variant — are overwhelmingly
//! X/CX/CCX permutations of computational basis states, so on basis
//! inputs the occupied set stays tiny (each MBU garbage qubit passes
//! through a brief two-entry superposition between its `H` and its
//! measurement) while the register width grows to the cryptographic sizes
//! of Table 1: n = 64, 256, 1024 — widths where a dense amplitude array
//! cannot exist at all.
//!
//! The map carries a crate-private payload per entry, which rides along
//! through every re-sort, fan-out and projection. The public backend's
//! payload is `()`. The [`PhaseAccumulator`](crate::PhaseAccumulator)
//! keeps its branches in the same map, with each branch's exact phase and
//! Fourier-qubit accumulators as the payload, so its Z-mode qubits run on
//! this module's code: key addressing, the re-sort, the X/CX/CCX/SWAP
//! toggles, the key-level `H` fan-out, Born sums, projection, measurement,
//! forks, definite reads and the compiled-run peak bracket. None of it
//! depends on which backend it serves.
//!
//! Cost model per gate, with `k` occupied entries and `w = ⌈n/64⌉` key
//! words:
//!
//! * permutation gates (X, CX, CCX, SWAP) — `O(k·w)` key rewrites and an
//!   allocation-free order check; only when an entry moved past another,
//!   an `O(k log k)` in-place re-sort. No amplitude arithmetic;
//! * diagonal gates (Z, CZ, CCZ, R and controlled R) — `O(k)` phase
//!   multiplies, keys untouched;
//! * `H` (the only superposing gate in the set) — pairs entries that
//!   differ in the target bit and fans out to at most `2k` entries.
//!
//! **Bit-identity contract with the dense engine.** Every amplitude the
//! sparse backend produces is bitwise identical to the corresponding
//! entry of [`StateVector`](crate::StateVector)'s array: the per-pair `H`
//! arithmetic (`(a ± b)·√½` with an absent partner synthesised as an
//! exact zero), the diagonal multiplies, and the measurement
//! renormalisation all reuse the dense kernels' expressions, and the Born
//! probability sums run in ascending key order — the same order as the
//! dense ascending-index sweep, whose skipped entries contribute exact
//! `+0.0` terms that cannot change an `f64` sum. Only exactly-zero
//! amplitudes are culled, so the occupied set equals the dense array's
//! nonzero support.
//!
//! The one deliberate divergence is randomness: measuring a qubit whose
//! outcome is exactly determined (`p₁` exactly `0.0` or `1.0`) consumes
//! **no** RNG draw, mirroring [`BasisTracker`](crate::BasisTracker)'s
//! `Fork::Definite` behaviour, where the dense engine burns one draw per
//! measurement regardless. On superposition-measuring circuits (every MBU
//! measurement follows an `H`, so `p₁ = ½`) the streams coincide with the
//! dense engine's; resets and measurements of definite qubits advance
//! only the dense stream.

use std::cmp::Ordering;
use std::f64::consts::FRAC_1_SQRT_2;

use mbu_circuit::{Angle, Basis, CompiledCircuit, Gate, PhaseGradient, QubitId};
use rand::RngCore;

use crate::complex::Complex;
use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::simulator::{Fork, Simulator};

/// Construction cap for [`SparseVector::zeros`]: wide enough for every
/// Table-1 architecture at n = 1024 (the 5n-qubit VBE-family layouts land
/// around 5 200 qubits) with a large margin; a key at the cap is 256
/// words, still a trivial per-entry footprint.
pub const MAX_SPARSEVECTOR_QUBITS: usize = 16_384;

/// A definite-read tolerance identical to the dense engine's (see
/// `statevector.rs`): `bit`/`value` reads succeed when the marginal is
/// within `1e-9` of 0 or 1.
const DEFINITE_TOL: f64 = 1e-9;

/// A map from occupied basis states to amplitudes, sorted by basis index.
///
/// Implements the full [`Simulator`] trait — `run`, `run_compiled`,
/// [`measure_fork`](Simulator::measure_fork) for branch-tree execution,
/// and [`peak_amplitudes`](Simulator::peak_amplitudes) reporting the
/// occupied-entry high-water mark of the most recent compiled run — so
/// [`ShotRunner`](crate::ShotRunner) and
/// [`BranchEnsemble`](crate::BranchEnsemble) drive it unchanged.
///
/// The type parameter is a per-entry payload private to this crate; the
/// backend is always `SparseVector<()>`, which `SparseVector` names.
///
/// # Examples
///
/// A 300-qubit CNOT chain — far past any dense engine — stays at one
/// occupied entry:
///
/// ```
/// use mbu_circuit::{CircuitBuilder, QubitId};
/// use mbu_sim::{Simulator, SparseVector};
/// use rand::SeedableRng;
///
/// let n = 300usize;
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", n);
/// for i in 0..n - 1 {
///     b.cx(q[i], q[i + 1]);
/// }
/// let circuit = b.finish();
///
/// let mut sim = SparseVector::zeros(n).unwrap();
/// sim.set_bit(QubitId(0), true).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// sim.run(&circuit, &mut rng).unwrap();
/// assert_eq!(sim.occupied(), 1);
/// assert!(sim.bit(QubitId(n as u32 - 1)).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct SparseVector<P = ()> {
    num_qubits: usize,
    /// Key width in 64-bit words: `⌈num_qubits/64⌉`, at least 1.
    words: usize,
    /// Flat key storage, `occupied · words` little-endian words (word 0
    /// holds qubits 0–63). Entry `e`'s key is
    /// `keys[e·words .. (e+1)·words]`; entries are sorted ascending by
    /// basis index and hold pairwise-distinct keys.
    keys: Vec<u64>,
    /// `amps[e]` is entry `e`'s amplitude; never an exact complex zero.
    amps: Vec<Complex>,
    /// `payload[e]` is entry `e`'s payload, moved with it.
    payload: Vec<P>,
    /// Occupied-entry high-water mark since the last compiled-run start.
    pub(crate) peak_entries: u64,
    /// The high-water mark of the most recent compiled run, once one ran.
    pub(crate) last_run_peak: Option<u64>,
}

/// Ascending numeric comparison of two equal-width little-endian keys.
// The key helpers and the binary search below address the packed key
// words of every occupied entry; a wrapped index would silently read the
// wrong entry's key, so their arithmetic must be visibly in-bounds.
#[deny(clippy::arithmetic_side_effects)]
fn cmp_keys(a: &[u64], b: &[u64]) -> Ordering {
    for (wa, wb) in a.iter().rev().zip(b.iter().rev()) {
        match wa.cmp(wb) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Whether an amplitude is an exact complex zero (either signed zero in
/// both components) — the only kind of entry the map culls, so the
/// occupied set matches the dense array's nonzero support exactly.
fn is_zero(a: Complex) -> bool {
    a.re == 0.0 && a.im == 0.0
}

/// The (word, mask) address of qubit `q` inside a key.
#[deny(clippy::arithmetic_side_effects)]
fn bit_addr(q: QubitId) -> (usize, u64) {
    (q.index() / 64, 1u64 << (q.index() % 64))
}

/// Whether qubit `q` is set in `key`.
pub(crate) fn key_bit(key: &[u64], q: QubitId) -> bool {
    let (w, m) = bit_addr(q);
    key[w] & m != 0
}

/// Whether every qubit of `qubits` is set in `key` (true for none).
fn all_set(key: &[u64], qubits: &[QubitId]) -> bool {
    qubits.iter().all(|q| key_bit(key, *q))
}

impl SparseVector {
    /// Creates `|0…0⟩` over `num_qubits` qubits: one occupied entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_SPARSEVECTOR_QUBITS`].
    pub fn zeros(num_qubits: usize) -> Result<Self, SimError> {
        Self::with_payload(num_qubits, ())
    }

    /// The amplitude of basis state `index` (an exact zero when the state
    /// is not occupied). Only the first `min(num_qubits, 128)` bits of the
    /// key are addressable this way — enough for every cross-validation
    /// width; wider states are read through [`bit`](Simulator::bit) /
    /// [`bits`](Self::bits).
    #[must_use]
    pub fn amplitude(&self, index: u128) -> Complex {
        let mut key = vec![0u64; self.words];
        for (w, slot) in key.iter_mut().enumerate().take(2) {
            *slot = (index >> (64 * w)) as u64;
        }
        match self.find(&key) {
            Ok(e) => self.amps[e],
            Err(_) => Complex::ZERO,
        }
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

    /// Builds a map directly from pre-sorted raw storage: `keys` holds
    /// `amps.len() · ⌈num_qubits/64⌉` little-endian words, entries sorted
    /// ascending, pairwise distinct, with no exact-zero amplitude — the
    /// representation-conversion seam (`crate::convert`). The peak
    /// counter starts at the entry count, like a fresh construction.
    pub(crate) fn from_sorted_entries(
        num_qubits: usize,
        keys: Vec<u64>,
        amps: Vec<Complex>,
    ) -> Self {
        let words = num_qubits.div_ceil(64).max(1);
        debug_assert_eq!(keys.len(), amps.len() * words);
        debug_assert!((1..amps.len()).all(|e| cmp_keys(
            &keys[(e - 1) * words..e * words],
            &keys[e * words..(e + 1) * words]
        ) == Ordering::Less));
        debug_assert!(!amps.iter().any(|a| is_zero(*a)));
        Self {
            num_qubits,
            words,
            keys,
            payload: vec![(); amps.len()],
            peak_entries: amps.len() as u64,
            amps,
            last_run_peak: None,
        }
    }

    /// Applies `gate` without checking its operands:
    /// [`apply_gate`](Simulator::apply_gate) validates them first, and a
    /// compiled run's were validated when it was lowered.
    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        match *gate {
            Gate::X(q) => self.permute_x(&[], q),
            Gate::Cx(c, t) => self.permute_x(&[c], t),
            Gate::Ccx(c1, c2, t) => self.permute_x(&[c1, c2], t),
            Gate::Swap(a, b) => self.swap_bits(a, b),
            Gate::Z(q) => self.negate(&[q]),
            Gate::Cz(x, y) => self.negate(&[x, y]),
            Gate::Ccz(x, y, z) => self.negate(&[x, y, z]),
            Gate::Phase(q, theta) => self.rotate(&[q], theta),
            Gate::CPhase(c, t, theta) => self.rotate(&[c, t], theta),
            Gate::CcPhase(c1, c2, t, theta) => self.rotate(&[c1, c2, t], theta),
            Gate::H(q) => self.apply_h(q),
        }
        Ok(())
    }

    /// Negates every entry whose `operands` bits are all set: the
    /// Z/CZ/CCZ family, with the stride kernels' exact `-a` arithmetic.
    fn negate(&mut self, operands: &[QubitId]) {
        self.for_each_where(operands, |amp, ()| *amp = -*amp);
    }

    /// Multiplies every entry whose `operands` bits are all set by
    /// `cis(theta)`: the R/C-R/CC-R family, with the stride kernels'
    /// exact `a * w` arithmetic.
    fn rotate(&mut self, operands: &[QubitId], theta: Angle) {
        let w = Complex::cis(theta.radians());
        self.for_each_where(operands, |amp, ()| *amp = *amp * w);
    }
}

impl<P> SparseVector<P> {
    /// `|0…0⟩` over `num_qubits` qubits: one entry, carrying `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above
    /// [`MAX_SPARSEVECTOR_QUBITS`].
    pub(crate) fn with_payload(num_qubits: usize, payload: P) -> Result<Self, SimError> {
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
            keys: vec![0; words],
            amps: vec![Complex::ONE],
            payload: vec![payload],
            peak_entries: 1,
            last_run_peak: None,
        })
    }

    /// Restarts the occupied-entry high-water mark at the current
    /// occupancy, as every compiled run does when it starts.
    pub(crate) fn start_peak(&mut self) {
        self.peak_entries = self.occupied() as u64;
    }

    /// The number of occupied basis states (entries with a nonzero
    /// amplitude).
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.amps.len()
    }

    /// The register width in qubits.
    pub(crate) fn width(&self) -> usize {
        self.num_qubits
    }

    fn key(&self, e: usize) -> &[u64] {
        &self.keys[e * self.words..(e + 1) * self.words]
    }

    /// The entries in ascending key order: key words, amplitude, payload.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&[u64], Complex, &P)> {
        self.keys
            .chunks_exact(self.words)
            .zip(&self.amps)
            .zip(&self.payload)
            .map(|((key, amp), p)| (key, *amp, p))
    }

    /// Binary search for `key` among the sorted entries.
    #[deny(clippy::arithmetic_side_effects)]
    fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let words = self.words;
        let n = self.amps.len();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            // `mid < n` and `keys.len() == n·words` (both live in memory,
            // so neither product nor successor can wrap).
            let mid = usize::midpoint(lo, hi);
            let base = mid.saturating_mul(words);
            match cmp_keys(&self.keys[base..base.saturating_add(words)], key) {
                Ordering::Less => lo = mid.saturating_add(1),
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn note_peak(&mut self) {
        let k = self.amps.len() as u64;
        if k > self.peak_entries {
            self.peak_entries = k;
        }
    }

    fn swap_entries(&mut self, i: usize, j: usize) {
        let words = self.words;
        for w in 0..words {
            self.keys.swap(i * words + w, j * words + w);
        }
        self.amps.swap(i, j);
        self.payload.swap(i, j);
    }

    /// Restores the ascending-key invariant after a key rewrite or an `H`
    /// fan-out. Both leave the keys pairwise distinct, so a pure re-order
    /// suffices — no merging. Most rewrites move no entry past another,
    /// so an allocation-free order check comes first; otherwise the
    /// entries are sorted in place, one permutation cycle at a time.
    fn resort(&mut self) {
        let words = self.words;
        let mut pairs = self
            .keys
            .chunks_exact(words)
            .zip(self.keys.chunks_exact(words).skip(1));
        if pairs.all(|(a, b)| cmp_keys(a, b) == Ordering::Less) {
            return;
        }
        let mut order: Vec<usize> = (0..self.amps.len()).collect();
        order.sort_unstable_by(|&a, &b| cmp_keys(self.key(a), self.key(b)));
        // Slot `i` takes entry `order[i]`: swap each cycle's entries into
        // place, marking every visited slot as its own source.
        for start in 0..order.len() {
            let mut i = start;
            loop {
                let j = std::mem::replace(&mut order[i], i);
                if j == start {
                    break;
                }
                self.swap_entries(i, j);
                i = j;
            }
        }
    }

    /// Runs `f` on the amplitude and payload of every entry whose
    /// `qubits` bits are all set (every entry for none). Keys are
    /// untouched.
    pub(crate) fn for_each_where(
        &mut self,
        qubits: &[QubitId],
        mut f: impl FnMut(&mut Complex, &mut P),
    ) {
        let entries = self
            .keys
            .chunks_exact(self.words)
            .zip(&mut self.amps)
            .zip(&mut self.payload);
        for ((key, amp), p) in entries {
            if all_set(key, qubits) {
                f(amp, p);
            }
        }
    }

    /// Runs `f` on the key and payload of every entry. Keys are untouched.
    pub(crate) fn for_each_keyed(&mut self, mut f: impl FnMut(&[u64], &mut P)) {
        for (key, p) in self.keys.chunks_exact(self.words).zip(&mut self.payload) {
            f(key, p);
        }
    }

    /// Toggles `target` in every entry whose `controls` bits are all set:
    /// the X/CX/CCX family as pure key rewrites.
    pub(crate) fn permute_x(&mut self, controls: &[QubitId], target: QubitId) {
        let (tw, tm) = bit_addr(target);
        for key in self.keys.chunks_exact_mut(self.words) {
            if all_set(key, controls) {
                key[tw] ^= tm;
            }
        }
        self.resort();
    }

    /// Swaps two key bits wherever they differ: SWAP as two entangled
    /// toggles in one pass.
    pub(crate) fn swap_bits(&mut self, a: QubitId, b: QubitId) {
        let (aw, am) = bit_addr(a);
        let (bw, bm) = bit_addr(b);
        for key in self.keys.chunks_exact_mut(self.words) {
            if (key[aw] & am != 0) != (key[bw] & bm != 0) {
                key[aw] ^= am;
                key[bw] ^= bm;
            }
        }
        self.resort();
    }

    /// Sets bit `q` of every entry to `f(old bit, payload)`. The caller
    /// guarantees the rewritten keys stay pairwise distinct.
    pub(crate) fn rewrite_bit(&mut self, q: QubitId, mut f: impl FnMut(bool, &mut P) -> bool) {
        let (w, m) = bit_addr(q);
        for (key, p) in self
            .keys
            .chunks_exact_mut(self.words)
            .zip(&mut self.payload)
        {
            if f(key[w] & m != 0, p) {
                key[w] |= m;
            } else {
                key[w] &= !m;
            }
        }
        self.resort();
    }

    /// Splits every entry into an even pair on qubit `q`, which must be
    /// clear in every key: the entry keeps the clear half and gains a
    /// partner with `q` set, both at amplitude `a·√½`; `split` turns the
    /// entry's payload into the partner's. Occupancy doubles.
    pub(crate) fn split_even(&mut self, q: QubitId, mut split: impl FnMut(&mut P) -> P) {
        let (bw, bm) = bit_addr(q);
        let words = self.words;
        for e in 0..self.amps.len() {
            let a = self.amps[e].scale(FRAC_1_SQRT_2);
            self.amps[e] = a;
            self.amps.push(a);
            self.keys.extend_from_within(e * words..(e + 1) * words);
            let last = self.keys.len() - words;
            self.keys[last + bw] |= bm;
            let one = split(&mut self.payload[e]);
            self.payload.push(one);
        }
        self.resort();
        self.note_peak();
    }

    /// Whether two occupied keys differ only in qubit `q`: the pairs an
    /// `H` on `q` combines.
    pub(crate) fn has_pair_on(&self, q: QubitId) -> bool {
        if self.amps.len() < 2 {
            return false;
        }
        let (w, m) = bit_addr(q);
        let mut partner = vec![0u64; self.words];
        (0..self.amps.len()).any(|e| {
            let key = self.key(e);
            if key[w] & m == 0 {
                return false;
            }
            partner.copy_from_slice(key);
            partner[w] ^= m;
            self.find(&partner).is_ok()
        })
    }

    /// Hadamard on `q`: pairs entries differing only in bit `q` and fans
    /// each pair out through the dense engine's exact per-pair arithmetic
    /// — `(a + b)·√½` into the clear half, `(a − b)·√½` into the set half,
    /// with an absent partner entering the sums as an exact complex zero
    /// (precisely the value the dense array holds there). Outputs that
    /// come out exactly zero are culled, keeping the map equal to the
    /// dense nonzero support. Every output starts from a default payload.
    pub(crate) fn apply_h(&mut self, q: QubitId)
    where
        P: Default,
    {
        let (bw, bm) = bit_addr(q);
        let words = self.words;
        let k = self.amps.len();
        // Pair entries: order by key-with-bit-cleared, clear half first.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_unstable_by(|&a, &b| {
            let ka = self.key(a);
            let kb = self.key(b);
            for w in (0..words).rev() {
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
        let mut keys = Vec::with_capacity((k + k) * words);
        let mut amps = Vec::with_capacity(k + k);
        let mut base = vec![0u64; words];
        let mut i = 0usize;
        while i < k {
            let e = order[i];
            base.copy_from_slice(self.key(e));
            base[bw] &= !bm;
            let (a, b) = if self.key(e)[bw] & bm == 0 {
                // Clear-half entry; its set-half partner, if occupied, is
                // the next entry in pair order.
                let mut b = Complex::ZERO;
                if i + 1 < k {
                    let f = order[i + 1];
                    let kf = self.key(f);
                    let partner_matches = (kf[bw] & bm != 0)
                        && kf.iter().enumerate().all(|(w, &word)| {
                            if w == bw {
                                word & !bm == base[w]
                            } else {
                                word == base[w]
                            }
                        });
                    if partner_matches {
                        b = self.amps[f];
                        i += 1;
                    }
                }
                (self.amps[e], b)
            } else {
                (Complex::ZERO, self.amps[e])
            };
            i += 1;
            let out0 = (a + b).scale(FRAC_1_SQRT_2);
            let out1 = (a - b).scale(FRAC_1_SQRT_2);
            if !is_zero(out0) {
                keys.extend_from_slice(&base);
                amps.push(out0);
            }
            if !is_zero(out1) {
                keys.extend_from_slice(&base);
                let last = keys.len() - words;
                keys[last + bw] |= bm;
                amps.push(out1);
            }
        }
        self.payload.clear();
        self.payload.resize_with(amps.len(), P::default);
        self.keys = keys;
        self.amps = amps;
        // Pair order is not global key order (the target bit outranks the
        // bits below it); one re-sort restores the invariant.
        self.resort();
        self.note_peak();
    }

    /// The Born probability that qubit `q` reads 1, clamped into `[0, 1]`
    /// — summed over occupied entries in ascending key order, which is
    /// bitwise the dense engine's ascending-index sum (its skipped
    /// entries contribute exact `+0.0` terms).
    fn z_prob_one(&self, q: QubitId) -> f64 {
        let (w, m) = bit_addr(q);
        let words = self.words;
        let p1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(e, _)| self.keys[e * words + w] & m != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        p1.clamp(0.0, 1.0)
    }

    /// The renormalisation factor for projecting onto branch `outcome`,
    /// mirroring the dense `z_branch_scale` (including its kept-mass
    /// fallback for a forced zero-probability branch — never inf/NaN).
    fn z_branch_scale(&self, q: QubitId, outcome: bool, p1: f64) -> f64 {
        let p = if outcome { p1 } else { 1.0 - p1 };
        if p > 0.0 {
            1.0 / p.sqrt()
        } else {
            let (w, m) = bit_addr(q);
            let words = self.words;
            let kept: f64 = self
                .amps
                .iter()
                .enumerate()
                .filter(|(e, _)| (self.keys[e * words + w] & m != 0) == outcome)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            if kept > 0.0 {
                1.0 / kept.sqrt()
            } else {
                1.0
            }
        }
    }

    /// Projects onto branch `outcome` of qubit `q`, in place: survivors
    /// are scaled by `scale` (bitwise the dense post-measurement values),
    /// the other half and any exact zero are removed.
    fn project(&mut self, q: QubitId, outcome: bool, scale: f64) {
        let (w, m) = bit_addr(q);
        let words = self.words;
        let mut kept = 0usize;
        for e in 0..self.amps.len() {
            if (self.keys[e * words + w] & m != 0) != outcome {
                continue;
            }
            let a = self.amps[e].scale(scale);
            if is_zero(a) {
                continue;
            }
            if kept != e {
                self.keys
                    .copy_within(e * words..(e + 1) * words, kept * words);
                self.payload.swap(kept, e);
            }
            self.amps[kept] = a;
            kept += 1;
        }
        self.keys.truncate(kept * words);
        self.amps.truncate(kept);
        self.payload.truncate(kept);
    }

    /// Z-basis measurement with the definite-outcome rule: when `p₁` is
    /// exactly `0.0` or `1.0` the outcome is forced and **no** draw is
    /// consumed (the [`BasisTracker`](crate::BasisTracker) convention);
    /// otherwise one draw decides, exactly like the dense engine. Either
    /// way the post-measurement state is bitwise what the dense
    /// `measure_z` leaves for the same outcome (the forced branches'
    /// renormaliser is exactly `1.0`).
    pub(crate) fn measure_z(&mut self, q: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> bool {
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
        outcome
    }

    /// The both-branch Z measurement behind
    /// [`measure_fork`](Simulator::measure_fork). A definite outcome
    /// (`p₁` exactly `0.0` or `1.0`) reports
    /// [`Fork::Definite`] — the sampling path consumes no
    /// randomness for it — after dropping the impossible half's
    /// (numerically massless) entries, so the surviving state is bitwise
    /// what [`measure_z`](Self::measure_z) leaves. A genuine split scales
    /// both halves with the dense `split_bit` arithmetic; `wrap` hands
    /// the outcome-1 half back as the backend that owns the map.
    pub(crate) fn fork_z(
        &mut self,
        q: QubitId,
        wrap: impl FnOnce(Self) -> Box<dyn Simulator + Send>,
    ) -> Fork
    where
        P: Clone,
    {
        let p1 = self.z_prob_one(q);
        if p1 == 0.0 || p1 == 1.0 {
            let outcome = p1 == 1.0;
            self.project(q, outcome, self.z_branch_scale(q, outcome, p1));
            return Fork::Definite(outcome);
        }
        let scale0 = self.z_branch_scale(q, false, p1);
        let scale1 = self.z_branch_scale(q, true, p1);
        let mut one = self.clone();
        one.last_run_peak = None;
        self.project(q, false, scale0);
        one.project(q, true, scale1);
        one.note_peak();
        Fork::Split {
            p_one: p1,
            one: Some(wrap(one)),
        }
    }

    /// A definite-bit read under [`DEFINITE_TOL`], mirroring the dense
    /// engine's `definite_bit`.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfRange`] past the register,
    /// [`SimError::ReadOfSuperposedQubit`] for an indefinite marginal.
    pub(crate) fn definite_bit(&self, q: QubitId) -> Result<bool, SimError> {
        if q.index() >= self.num_qubits {
            return Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            });
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

/// A compiled run on a map backend (`map` reaches its map), bracketed by
/// the occupied-entry high-water mark that
/// [`peak_amplitudes`](Simulator::peak_amplitudes) reports. Gates, and the
/// constituents of fused blocks, go straight to the backend's unchecked
/// `apply`, and gradients to its `apply_gradient`: lowering validated
/// every operand, and `check_width` bounds them by the state.
/// `Instr::Drop` is a no-op: a dropped qubit is
/// definite, so every occupied key agrees on it and there is nothing to
/// compact; the memory story the drop pass buys the dense engine is the
/// map's resting state.
pub(crate) fn run_compiled_on<S: Simulator, P>(
    sim: &mut S,
    map: fn(&mut S) -> &mut SparseVector<P>,
    apply: fn(&mut S, &Gate) -> Result<(), SimError>,
    apply_gradient: fn(&mut S, &PhaseGradient) -> Result<(), SimError>,
    compiled: &CompiledCircuit,
    rng: &mut dyn RngCore,
) -> Result<Executed, SimError> {
    exec::check_width(compiled.num_qubits(), sim.num_qubits())?;
    map(sim).start_peak();
    let mut executed = Executed::default();
    exec::execute_compiled_core(
        sim,
        compiled,
        rng,
        &mut executed,
        apply,
        |s, fu| fu.global_gates().try_for_each(|g| apply(s, &g)),
        apply_gradient,
        S::measure,
        S::reset,
        |_, _| {},
    )?;
    let m = map(sim);
    m.last_run_peak = Some(m.peak_entries);
    Ok(executed)
}

impl Simulator for SparseVector {
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        exec::validate_gate(gate, self.num_qubits)?;
        self.apply(gate)
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        if self.definite_bit(q)? != value {
            self.apply(&Gate::X(q))?;
        }
        Ok(())
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        self.definite_bit(q)
    }

    fn peak_amplitudes(&self) -> Option<u64> {
        self.last_run_peak
    }

    fn global_phase(&self) -> Option<Angle> {
        // Meaningful when the state is (numerically) one basis state with
        // a dyadic unit-circle amplitude — the dense engine's policy.
        let (dominant, amp) = self
            .amps
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.norm_sqr().total_cmp(&b.norm_sqr()))?;
        let residue: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(e, _)| *e != dominant)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        if residue > DEFINITE_TOL {
            return None;
        }
        amp.dyadic_phase()
    }

    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        exec::measure_in_basis(self, qubit, basis, draw, |s, q, d| Ok(s.measure_z(q, d)))
    }

    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        exec::fork_in_basis(self, qubit, basis, |s, q| {
            Ok(s.fork_z(q, |one| Box::new(one)))
        })
    }

    fn occupancy_peak(&self) -> Option<u64> {
        Some(self.peak_entries)
    }

    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        exec::reset_in_z(self, qubit, draw, |s, q, d| Ok(s.measure_z(q, d)))
    }

    /// Compiled execution through the map backends' shared run:
    /// unchecked per-gate application, fused blocks and gradients replayed
    /// as their constituent gates (bitwise the unfused stream) and
    /// `Instr::Drop` as a no-op, with the occupied-entry high-water mark
    /// reported through [`peak_amplitudes`](Simulator::peak_amplitudes).
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        run_compiled_on(
            self,
            |s| s,
            Self::apply,
            |s, pg| pg.gates().try_for_each(|g| s.apply(&g)),
            compiled,
            rng,
        )
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

    /// A draw callback that must never be consulted.
    fn no_draw() -> impl FnMut(f64) -> bool {
        |_| panic!("a definite measurement must not consume randomness")
    }

    #[test]
    fn width_guard() {
        assert!(matches!(
            SparseVector::zeros(MAX_SPARSEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(SparseVector::zeros(0).is_ok());
    }

    #[test]
    fn out_of_range_and_duplicate_gates_are_rejected() {
        let theta = Angle::turn_over_power_of_two(2);
        let mut sv = SparseVector::zeros(2).unwrap();
        for gate in [
            Gate::X(q(2)),
            Gate::H(q(9)),
            Gate::Cx(q(0), q(2)),
            Gate::CPhase(q(0), q(5), theta),
        ] {
            assert!(matches!(
                sv.apply_gate(&gate).unwrap_err(),
                SimError::OutOfRange { .. }
            ));
        }
        for gate in [Gate::Cx(q(1), q(1)), Gate::Swap(q(0), q(0))] {
            assert!(matches!(
                sv.apply_gate(&gate).unwrap_err(),
                SimError::DuplicateOperand { .. }
            ));
        }
        assert_eq!(sv.occupied(), 1, "state untouched by rejected gates");
    }

    #[test]
    fn permutation_gates_track_basis_states_at_width_300() {
        let n = 300usize;
        let mut sv = SparseVector::zeros(n).unwrap();
        sv.set_bit(q(0), true).unwrap();
        sv.set_bit(q(150), true).unwrap();
        sv.apply(&Gate::Ccx(q(0), q(150), q(299))).unwrap();
        assert!(sv.bit(q(299)).unwrap());
        sv.apply(&Gate::Swap(q(299), q(63))).unwrap();
        assert!(sv.bit(q(63)).unwrap());
        assert!(!sv.bit(q(299)).unwrap());
        assert_eq!(sv.occupied(), 1);
        assert!(Simulator::global_phase(&sv).unwrap().is_zero());
    }

    #[test]
    fn hadamard_fans_out_and_recombines_exactly() {
        let mut sv = SparseVector::zeros(65).unwrap();
        sv.set_bit(q(64), true).unwrap(); // second key word in play
        sv.apply(&Gate::H(q(64))).unwrap(); // |−⟩
        assert_eq!(sv.occupied(), 2);
        assert_eq!(sv.amplitude(1u128 << 64).re, -FRAC_1_SQRT_2);
        sv.apply(&Gate::H(q(64))).unwrap(); // back to |1⟩, exactly
        assert_eq!(sv.occupied(), 1, "the |0⟩ component cancels to exact 0");
        // The surviving amplitude carries the dense engine's exact
        // rounding: (√½ − (−√½))·√½ evaluated in that order.
        let expect = 2.0 * FRAC_1_SQRT_2 * FRAC_1_SQRT_2;
        assert_eq!(sv.amplitude(1u128 << 64).re.to_bits(), expect.to_bits());
        assert!(sv.bit(q(64)).unwrap());
    }

    #[test]
    fn definite_measurement_consumes_no_randomness() {
        let mut sv = SparseVector::zeros(2).unwrap();
        sv.set_bit(q(0), true).unwrap();
        let outcome = sv.measure(q(0), Basis::Z, &mut no_draw()).unwrap();
        assert!(outcome);
        sv.reset(q(0), &mut no_draw()).unwrap();
        assert!(!sv.bit(q(0)).unwrap());
        // X-basis definite: |+⟩ measured in X.
        sv.apply(&Gate::H(q(1))).unwrap();
        let outcome = sv.measure(q(1), Basis::X, &mut no_draw()).unwrap();
        assert!(!outcome);
    }

    #[test]
    fn superposed_measurement_draws_once_with_the_born_probability() {
        for forced in [false, true] {
            let mut sv = SparseVector::zeros(1).unwrap();
            sv.apply(&Gate::H(q(0))).unwrap();
            let mut draws = Vec::new();
            let mut draw = |p: f64| {
                draws.push(p);
                forced
            };
            let outcome = sv.measure(q(0), Basis::Z, &mut draw).unwrap();
            assert_eq!(outcome, forced);
            assert_eq!(draws.len(), 1);
            assert!((draws[0] - 0.5).abs() < 1e-12);
            assert_eq!(sv.bit(q(0)).unwrap(), forced);
            assert_eq!(sv.occupied(), 1);
        }
    }

    #[test]
    fn fork_definite_projects_and_split_matches_forced_measure() {
        // Definite fork: state equals what measure would leave.
        let mut sv = SparseVector::zeros(1).unwrap();
        sv.set_bit(q(0), true).unwrap();
        match sv.measure_fork(q(0), Basis::Z).unwrap().unwrap() {
            Fork::Definite(b) => assert!(b),
            Fork::Split { .. } => panic!("definite measurement must not split"),
        }
        assert!(sv.bit(q(0)).unwrap());

        // Genuine split: both branches bitwise match forced measures.
        let build = || {
            let mut sv = SparseVector::zeros(2).unwrap();
            sv.apply(&Gate::H(q(0))).unwrap();
            sv.apply(&Gate::Cx(q(0), q(1))).unwrap();
            sv
        };
        let mut forked = build();
        let Fork::Split { p_one, one } = forked.measure_fork(q(0), Basis::Z).unwrap().unwrap()
        else {
            panic!("superposed measurement must split");
        };
        assert!((p_one - 0.5).abs() < 1e-12);
        // The kept (zero) branch is bitwise a forced-outcome measure.
        let mut reference = build();
        let mut draw = |_: f64| false;
        reference.measure(q(0), Basis::Z, &mut draw).unwrap();
        for idx in 0..4u128 {
            let (r, s) = (reference.amplitude(idx), forked.amplitude(idx));
            assert_eq!(r.re.to_bits(), s.re.to_bits(), "zero branch amp {idx}");
            assert_eq!(r.im.to_bits(), s.im.to_bits(), "zero branch amp {idx}");
        }
        // The one branch (behind the trait object) collapsed to |11⟩.
        let one = one.unwrap();
        assert!(one.bit(q(0)).unwrap());
        assert!(one.bit(q(1)).unwrap());
    }

    #[test]
    fn compiled_run_reports_the_occupied_high_water_mark() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.ccx(r[0], r[1], r[2]);
        b.h(r[2]);
        let m = b.measure(r[2], Basis::Z);
        let (_, fix) = b.record(|bb| bb.x(r[2]));
        b.emit_conditional(m, &fix);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        let mut sv = SparseVector::zeros(3).unwrap();
        assert_eq!(Simulator::peak_amplitudes(&sv), None, "no compiled run yet");
        sv.set_bit(q(0), true).unwrap();
        sv.set_bit(q(1), true).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        Simulator::run_compiled(&mut sv, &compiled, &mut rng).unwrap();
        assert_eq!(
            Simulator::peak_amplitudes(&sv),
            Some(2),
            "the AND ancilla's H is the only fan-out"
        );
        assert!(!sv.bit(q(2)).unwrap(), "ancilla uncomputed");
    }

    #[test]
    fn set_value_and_wide_bits_roundtrip() {
        let n = 200usize;
        let mut sv = SparseVector::zeros(n).unwrap();
        let qubits: Vec<QubitId> = (0..n as u32).map(QubitId).collect();
        let value = 0xDEAD_BEEF_CAFE_F00Du128;
        sv.set_value(&qubits, value).unwrap();
        let bits = sv.bits(&qubits).unwrap();
        for (i, bit) in bits.iter().enumerate() {
            assert_eq!(*bit, i < 128 && (value >> i) & 1 == 1, "bit {i}");
        }
        assert!(sv.value(&qubits).is_err(), "value() capped at 128 bits");
        assert_eq!(sv.value(&qubits[..128]).unwrap(), value);
    }
}
