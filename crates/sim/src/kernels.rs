//! Stride-based state-vector kernels over SoA storage, walked as
//! autovectorized groups of runs.
//!
//! Every kernel iterates exactly the amplitudes a gate can move, instead
//! of scanning all `2^n` entries with a per-index branch:
//!
//! * 1-qubit gates visit `2^(n-1)` amplitude *pairs*;
//! * controlled gates enumerate only the control-satisfied subspace —
//!   `2^(n-2)` indices for a CNOT, `2^(n-3)` for a Toffoli;
//! * diagonal gates (`Z`, `Phase`, `CZ`, `CCZ`, `CPhase`, `CcPhase`) are
//!   pure phase sweeps over the all-controls-set subspace;
//! * [`fused`] applies a whole run of gates (a compiled
//!   [`FusedUnitary`](mbu_circuit::FusedUnitary) block) in **one sweep**:
//!   each `2^k`-amplitude group is gathered once, pushed through every
//!   constituent gate locally, and scattered back — the dense-unitary
//!   action in factored form, chosen over a precomputed mat-vec because it
//!   performs *exactly* the arithmetic of unfused execution and therefore
//!   keeps amplitudes bit-identical.
//!
//! All of these share one enumeration scheme: a [`Pins`] descriptor names
//! the bit positions a kernel pins (controls, diagonal selectors, the
//! cleared target bit) and [`drive`] walks the *touched index space* — the
//! `len >> pins` indices whose pinned bits match — as contiguous runs.
//!
//! # The lane-grouped enumeration
//!
//! `drive` hands the closure *groups* of consecutive runs — `count` runs
//! of length `run` spaced `stride = 2·run_len` apart — which is valid
//! because within a group (bounded by the second-lowest pinned position)
//! the absolute base address is an affine function of the run index:
//! `deposit(u + j·run_len) = deposit(u) + j·stride`, no carry ever
//! crossing the next pinned bit. The concrete kernels turn a group into
//! one or two long slices walked by `chunks_exact` loops, so the per-run
//! closure dispatch and bit-deposit arithmetic disappear from the hot
//! path and the inner loops become straight-line sweeps over the
//! structure-of-arrays `f64` buffers of [`Amps`] — homogeneous streams
//! LLVM autovectorizes into full-width packed ops (the span helpers also
//! process explicit [`LANES`]-wide chunks so the vector shape is stated
//! in the source, stable Rust only). The unit tests keep the original
//! run-at-a-time scalar enumeration as a test-only reference
//! (`Par::scalar()`) and check every kernel against it bit for bit: the
//! grouping changes iteration shape only, never the per-amplitude
//! arithmetic or its order.
//!
//! # Safe spans
//!
//! `drive` hands its closure the whole `(re, im)` component buffers, and
//! every kernel cuts its spans out of them as bounds-checked sub-slices
//! (one check per span, not per amplitude). Where a kernel needs two
//! spans at once — a pair group and its partner `d` higher, a SWAP
//! partner above or below, two member slices of a fused block — it takes
//! them with `split_at_mut` through [`two_spans`], which panics instead
//! of aliasing if they overlap. No kernel needs `unsafe`.
//!
//! The kernels assume their qubit indices are in range and distinct; the
//! [`StateVector`](crate::StateVector) front end validates operands before
//! dispatching. [`fused`] additionally
//! validates its caller-supplied block descriptor up front and returns a
//! typed [`SimError`] instead of trusting `debug_assert!`s that vanish in
//! release builds.

use mbu_circuit::Gate;

use crate::complex::Complex;
use crate::error::SimError;
use crate::soa::Amps;

/// Amplitudes per explicit vector chunk in the span helpers: one cache
/// line of `f64`s, and a full AVX-512 register (two AVX2 registers).
pub(crate) const LANES: usize = 8;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Which enumeration a kernel call walks: the lane-grouped one, or (in
/// the unit tests) the original run-at-a-time scalar reference.
#[derive(Clone, Copy)]
pub(crate) struct Par {
    /// Walk the original run-at-a-time scalar enumeration instead of the
    /// lane-grouped one — the reference the unit tests compare every
    /// kernel against.
    #[cfg(test)]
    scalar: bool,
}

impl Par {
    /// The lane-grouped enumeration every non-test caller uses.
    pub(crate) fn serial() -> Self {
        Self {
            #[cfg(test)]
            scalar: false,
        }
    }

    /// The scalar reference enumeration.
    #[cfg(test)]
    pub(crate) fn scalar() -> Self {
        Self { scalar: true }
    }
}

/// Up to four pinned bit positions with their required values, sorted.
#[derive(Clone, Copy)]
struct Pins {
    n: usize,
    pos: [usize; 4],
    /// OR of `val << pos` over all pins.
    offset: usize,
}

// The address-geometry helpers below compute the base index of every span
// a kernel touches. A wrap here would pass the bounds checks and silently
// address the wrong amplitudes, so the lint forces every operation to be
// visibly non-overflowing (masked shifts, or additions whose bounds a
// comment can state).
#[deny(clippy::arithmetic_side_effects)]
impl Pins {
    /// Invariant (callers are the fixed-arity kernels in this module,
    /// which all pass 1–4 pins with distinct in-range positions and 0/1
    /// values; [`fused`] validates its caller-supplied positions before
    /// building pins): `1 <= pins.len() <= 4`, values in `{0, 1}`.
    fn new(pins: &[(usize, usize)]) -> Self {
        debug_assert!((1..=4).contains(&pins.len()));
        let mut pos = [usize::MAX; 4];
        let mut offset = 0usize;
        for (i, &(p, v)) in pins.iter().enumerate() {
            debug_assert!(v <= 1);
            pos[i] = p;
            offset |= v << p;
        }
        pos[..pins.len()].sort_unstable();
        Self {
            n: pins.len(),
            pos,
            offset,
        }
    }

    /// How many indices of a `len`-amplitude array match the pins.
    fn touched(&self, len: usize) -> usize {
        len >> self.n
    }

    /// Length of a maximal contiguous run (the free bits below the lowest
    /// pinned position).
    fn run_len(&self) -> usize {
        1usize << self.pos[0]
    }

    /// How many consecutive full runs share one affine address formula:
    /// `deposit(u + j·run_len) = deposit(u) + j·2·run_len` holds while the
    /// touched-space bits between the lowest and second-lowest pins don't
    /// wrap, i.e. for groups of `2^(pos[1] - pos[0] - 1)` runs (aligned to
    /// the group size in run index). `None` means unbounded — with a
    /// single pin no carry can ever cross a second pinned position.
    fn group_runs(&self) -> Option<usize> {
        if self.n == 1 {
            None
        } else {
            // Pins are sorted and distinct: pos[1] ≥ pos[0] + 1, so the
            // saturating subtractions are exact.
            Some(1usize << self.pos[1].saturating_sub(self.pos[0]).saturating_sub(1))
        }
    }

    /// Expands touched-space index `u` to its absolute amplitude index:
    /// `u`'s bits fill the free positions in order, pinned positions take
    /// their pinned values.
    fn deposit(&self, u: usize) -> usize {
        let mut out = 0usize;
        let mut taken = 0usize; // bits of `u` consumed
        let mut next = 0usize; // next absolute position to fill
        for k in 0..self.n {
            // Pins ascend and `next` trails the previous pin by one, so
            // `p ≥ next` and every bound below is exact: `width < 64`
            // (the shifted mask is ≥ 1, making the wrapping decrement
            // exact) and `taken`/`next` stay within the word.
            let p = self.pos[k];
            let width = p.saturating_sub(next);
            out |= ((u >> taken) & (1usize << width).wrapping_sub(1)) << next;
            taken = taken.saturating_add(width);
            next = p.saturating_add(1);
        }
        out | ((u >> taken) << next) | self.offset
    }
}

/// The spans `buf[a..a + len]` and `buf[b..b + len]`, in that order, as
/// two exclusive slices cut apart by `split_at_mut` at the higher start.
///
/// # Panics
///
/// Panics if the spans overlap or either runs past the buffer — the
/// kernels' geometry makes every pair of spans they request disjoint, so
/// a panic here means a geometry bug, never an aliased write.
fn two_spans(buf: &mut [f64], a: usize, b: usize, len: usize) -> (&mut [f64], &mut [f64]) {
    if a < b {
        let (lo, hi) = buf.split_at_mut(b);
        (&mut lo[a..a + len], &mut hi[..len])
    } else {
        let (lo, hi) = buf.split_at_mut(a);
        (&mut hi[..len], &mut lo[b..b + len])
    }
}

/// Calls `f(re, im, base, run, stride, count)` for `count` runs of `run`
/// amplitudes spaced `stride` apart, over the whole component buffers —
/// every touched amplitude exactly once, in ascending index order.
///
/// Full runs arrive in affine groups (see [`Pins::group_runs`]); the
/// test-only scalar reference delivers every maximal run singly. A
/// partial tail run (possible only when the array is shorter than the
/// pinned geometry assumes) is delivered singly too.
fn drive(
    par: Par,
    amps: &mut Amps,
    pins: &[(usize, usize)],
    mut f: impl FnMut(&mut [f64], &mut [f64], usize, usize, usize, usize),
) {
    let pins = Pins::new(pins);
    let touched = pins.touched(amps.len());
    let (re, im) = amps.parts_mut();
    let m0 = pins.run_len();
    let p0 = m0.trailing_zeros() as usize;
    let stride = m0 << 1;
    let mut u = 0usize;
    // The original scalar enumeration: one maximal run per closure call.
    #[cfg(test)]
    if par.scalar {
        while u < touched {
            let run = m0.min(touched - u);
            f(re, im, pins.deposit(u), run, stride, 1);
            u += run;
        }
        return;
    }
    #[cfg(not(test))]
    let _ = par;
    // Grouped enumeration: one closure call per affine group of runs.
    let g = pins.group_runs();
    while u < touched {
        let runs_ahead = (touched - u) >> p0;
        if runs_ahead == 0 {
            // Partial tail run.
            f(re, im, pins.deposit(u), touched - u, stride, 1);
            break;
        }
        let count = match g {
            None => runs_ahead,
            Some(g) => runs_ahead.min(g - ((u >> p0) & (g - 1))),
        };
        f(re, im, pins.deposit(u), m0, stride, count);
        u += count << p0;
    }
}

/// Multiplies the spans by `w` in place, in explicit [`LANES`]-wide
/// chunks plus a scalar tail. Exactly the arithmetic of `Complex`
/// multiplication, componentwise over the SoA streams.
#[inline(always)]
fn scale_span(re: &mut [f64], im: &mut [f64], w: Complex) {
    let (rc, rt) = re.as_chunks_mut::<LANES>();
    let (ic, it) = im.as_chunks_mut::<LANES>();
    for (r8, i8) in rc.iter_mut().zip(ic) {
        for l in 0..LANES {
            let a = r8[l];
            let b = i8[l];
            r8[l] = a * w.re - b * w.im;
            i8[l] = a * w.im + b * w.re;
        }
    }
    for (r, i) in rt.iter_mut().zip(it) {
        let a = *r;
        let b = *i;
        *r = a * w.re - b * w.im;
        *i = a * w.im + b * w.re;
    }
}

/// Negates the spans in place (exact even on signed zeros, unlike a
/// complex multiply by `−1 + 0i` — the dense and sparse engines promise
/// bit-identical amplitudes).
#[inline(always)]
fn negate_span(re: &mut [f64], im: &mut [f64]) {
    for v in re.iter_mut() {
        *v = -*v;
    }
    for v in im.iter_mut() {
        *v = -*v;
    }
}

/// The Hadamard butterfly over one component stream:
/// `lo ← (lo + hi)·√½, hi ← (lo − hi)·√½` — the componentwise image of
/// `(x + y).scale(√½)` / `(x − y).scale(√½)` on `Complex` pairs.
#[inline(always)]
fn butterfly_span(lo: &mut [f64], hi: &mut [f64]) {
    let (lc, lt) = lo.as_chunks_mut::<LANES>();
    let (hc, ht) = hi.as_chunks_mut::<LANES>();
    for (l8, h8) in lc.iter_mut().zip(hc) {
        for l in 0..LANES {
            let x = l8[l];
            let y = h8[l];
            l8[l] = (x + y) * FRAC_1_SQRT_2;
            h8[l] = (x - y) * FRAC_1_SQRT_2;
        }
    }
    for (a, b) in lt.iter_mut().zip(ht) {
        let x = *a;
        let y = *b;
        *a = (x + y) * FRAC_1_SQRT_2;
        *b = (x - y) * FRAC_1_SQRT_2;
    }
}

/// Applies `op` to the `run`-long prefix of every `stride`-spaced period
/// in two equally shaped spans (the merged-group walk: `chunks_exact`
/// yields the full periods, the remainder is the final `run`-long one).
macro_rules! for_strided {
    ($a:expr, $b:expr, $run:expr, $stride:expr, |$x:ident, $y:ident| $body:expr) => {{
        let mut ia = $a.chunks_exact_mut($stride);
        let mut ib = $b.chunks_exact_mut($stride);
        for (ca, cb) in (&mut ia).zip(&mut ib) {
            let $x = &mut ca[..$run];
            let $y = &mut cb[..$run];
            $body
        }
        let $x = ia.into_remainder();
        let $y = ib.into_remainder();
        $body
    }};
}

/// One group of diagonal runs: scales `count` runs from `base` by `w`.
fn scale_groups(
    re: &mut [f64],
    im: &mut [f64],
    base: usize,
    run: usize,
    stride: usize,
    count: usize,
    w: Complex,
) {
    let span = base..base + (count - 1) * stride + run;
    let (re, im) = (&mut re[span.clone()], &mut im[span]);
    for_strided!(re, im, run, stride, |r, i| scale_span(r, i, w));
}

/// One group of diagonal runs: negates `count` runs from `base`.
fn negate_groups(
    re: &mut [f64],
    im: &mut [f64],
    base: usize,
    run: usize,
    stride: usize,
    count: usize,
) {
    let span = base..base + (count - 1) * stride + run;
    let (re, im) = (&mut re[span.clone()], &mut im[span]);
    for_strided!(re, im, run, stride, |r, i| negate_span(r, i));
}

/// One group of pair runs, each run swapped with its partner `d` higher
/// (`d = 1usize << target`).
///
/// Two geometries, both with structurally disjoint spans:
///
/// * **merged** (`run == d`, full runs — the target is the lowest pin):
///   lo and hi halves alternate, so the group is one contiguous span of
///   `count · stride` amplitudes split per period;
/// * **dual-span** otherwise: the group's lo span is at most
///   `(count−1)·stride + run ≤ 2^pos[1] ≤ d` long (group bound; a lone
///   partial run is shorter than `d` too), so `[base, base+total)` and
///   `[base+d, base+d+total)` never overlap.
fn pair_groups(
    re: &mut [f64],
    im: &mut [f64],
    base: usize,
    d: usize,
    run: usize,
    stride: usize,
    count: usize,
) {
    if run == d && run << 1 == stride {
        let span = base..base + count * stride;
        let (re, im) = (&mut re[span.clone()], &mut im[span]);
        for (cr, ci) in re.chunks_exact_mut(stride).zip(im.chunks_exact_mut(stride)) {
            let (lr, hr) = cr.split_at_mut(run);
            let (li, hi) = ci.split_at_mut(run);
            lr.swap_with_slice(hr);
            li.swap_with_slice(hi);
        }
    } else {
        let total = (count - 1) * stride + run;
        // Lo spans hold the target-clear subspace, hi spans the
        // target-set one, `d` higher.
        let (lr, hr) = two_spans(re, base, base + d, total);
        let (li, hi) = two_spans(im, base, base + d, total);
        for_strided!(lr, hr, run, stride, |a, b| a.swap_with_slice(b));
        for_strided!(li, hi, run, stride, |a, b| a.swap_with_slice(b));
    }
}

/// X gate: swaps the two halves of every block split on bit `t`.
pub(crate) fn x(par: Par, amps: &mut Amps, t: usize) {
    let m = 1usize << t;
    drive(par, amps, &[(t, 0)], |re, im, base, run, stride, count| {
        pair_groups(re, im, base, m, run, stride, count);
    });
}

/// Hadamard: butterfly over every pair split on bit `t`. The target is
/// the only pin, so every run is a full lo half (`run == 1usize << t`)
/// with its hi partner right above it (`stride == 2·run`), and a group is
/// one contiguous span of whole periods — the merged geometry of
/// [`pair_groups`].
pub(crate) fn h(par: Par, amps: &mut Amps, t: usize) {
    drive(par, amps, &[(t, 0)], |re, im, base, run, stride, count| {
        debug_assert!(run == 1usize << t && run << 1 == stride);
        let span = base..base + count * stride;
        let (re, im) = (&mut re[span.clone()], &mut im[span]);
        for (cr, ci) in re.chunks_exact_mut(stride).zip(im.chunks_exact_mut(stride)) {
            let (lr, hr) = cr.split_at_mut(run);
            let (li, hi) = ci.split_at_mut(run);
            butterfly_span(lr, hr);
            butterfly_span(li, hi);
        }
    });
}

/// Phase gate: multiplies every amplitude whose bit `t` is set by `w`.
pub(crate) fn phase1(par: Par, amps: &mut Amps, t: usize, w: Complex) {
    drive(par, amps, &[(t, 1)], |re, im, base, run, stride, count| {
        scale_groups(re, im, base, run, stride, count, w);
    });
}

/// Z gate: negates every amplitude whose bit `t` is set (see
/// [`negate_span`] for why negation gets its own kernel).
pub(crate) fn z(par: Par, amps: &mut Amps, t: usize) {
    drive(par, amps, &[(t, 1)], |re, im, base, run, stride, count| {
        negate_groups(re, im, base, run, stride, count);
    });
}

/// CNOT: swaps target pairs only in the control-satisfied quarter of the
/// space.
pub(crate) fn cx(par: Par, amps: &mut Amps, c: usize, t: usize) {
    let mt = 1usize << t;
    drive(
        par,
        amps,
        &[(c, 1), (t, 0)],
        |re, im, base, run, stride, count| {
            pair_groups(re, im, base, mt, run, stride, count);
        },
    );
}

/// Toffoli: swaps target pairs where both controls are set.
pub(crate) fn ccx(par: Par, amps: &mut Amps, c1: usize, c2: usize, t: usize) {
    let mt = 1usize << t;
    drive(
        par,
        amps,
        &[(c1, 1), (c2, 1), (t, 0)],
        |re, im, base, run, stride, count| {
            pair_groups(re, im, base, mt, run, stride, count);
        },
    );
}

/// Controlled phase: multiplies amplitudes whose bits `a` and `b` are
/// both set by `w`.
pub(crate) fn phase2(par: Par, amps: &mut Amps, a: usize, b: usize, w: Complex) {
    drive(
        par,
        amps,
        &[(a, 1), (b, 1)],
        |re, im, base, run, stride, count| {
            scale_groups(re, im, base, run, stride, count, w);
        },
    );
}

/// CZ: negates the quarter with bits `a` and `b` set.
pub(crate) fn cz(par: Par, amps: &mut Amps, a: usize, b: usize) {
    drive(
        par,
        amps,
        &[(a, 1), (b, 1)],
        |re, im, base, run, stride, count| {
            negate_groups(re, im, base, run, stride, count);
        },
    );
}

/// Doubly controlled phase: multiplies the eighth of the space with bits
/// `a`, `b` and `c` set by `w`.
pub(crate) fn phase3(par: Par, amps: &mut Amps, a: usize, b: usize, c: usize, w: Complex) {
    drive(
        par,
        amps,
        &[(a, 1), (b, 1), (c, 1)],
        |re, im, base, run, stride, count| {
            scale_groups(re, im, base, run, stride, count, w);
        },
    );
}

/// CCZ: negates the eighth with bits `a`, `b` and `c` set.
pub(crate) fn ccz(par: Par, amps: &mut Amps, a: usize, b: usize, c: usize) {
    drive(
        par,
        amps,
        &[(a, 1), (b, 1), (c, 1)],
        |re, im, base, run, stride, count| {
            negate_groups(re, im, base, run, stride, count);
        },
    );
}

/// SWAP: exchanges amplitudes over the `|…1…0…⟩ ↔ |…0…1…⟩` subspace.
///
/// The partner offset `base ^ mask` can point *below* `base` (when the
/// set pin sits above the cleared one), so this kernel keeps a per-run
/// partner computation instead of the group span walk.
pub(crate) fn swap(par: Par, amps: &mut Amps, a: usize, b: usize) {
    let mask = (1usize << a) | (1usize << b);
    drive(
        par,
        amps,
        &[(a, 1), (b, 0)],
        |re, im, base, run, stride, count| {
            for j in 0..count {
                let lo = base + j * stride;
                // Run indices carry bits below both swapped positions only,
                // so `^ mask` maps the run to a contiguous partner range in
                // the (a=0, b=1) subspace, above or below the run.
                let (lr, hr) = two_spans(re, lo, lo ^ mask, run);
                lr.swap_with_slice(hr);
                let (li, hi) = two_spans(im, lo, lo ^ mask, run);
                li.swap_with_slice(hi);
            }
        },
    );
}

/// One precompiled local operation of a fused block: the gate's action on
/// a `2^k`-amplitude group, flattened to explicit index lists so the hot
/// loop does no gate matching and no per-index mask tests. The arithmetic
/// per amplitude is exactly the stride kernels' (slice swaps, the H
/// butterfly formula, `cis` multiplies, exact negation), which is what
/// keeps [`fused`] bit-identical to unfused execution.
enum LocalOp {
    /// Disjoint index pairs to swap (`X`, `CX`, `CCX`, `SWAP`).
    Swap(Vec<(u8, u8)>),
    /// Disjoint index pairs to butterfly (`H`).
    Butterfly(Vec<(u8, u8)>),
    /// Indices to multiply by the phase (`Phase`, `CPhase`, `CcPhase`).
    Scale(Vec<u8>, Complex),
    /// Indices to negate exactly (`Z`, `CZ`, `CCZ`).
    Negate(Vec<u8>),
}

/// Flattens a block's local gates into [`LocalOp`]s for `dim = 2^k`
/// groups.
fn compile_local_ops(dim: usize, gates: &[Gate]) -> Vec<LocalOp> {
    let m = |q: mbu_circuit::QubitId| 1usize << q.index();
    // Index pairs `(i, i | target)` with `controls` all set, target clear.
    let moved = |controls: usize, target: usize| -> Vec<(u8, u8)> {
        (0..dim)
            .filter(|i| i & controls == controls && i & target == 0)
            .map(|i| (i as u8, (i | target) as u8))
            .collect()
    };
    // Indices with every bit of `mask` set.
    let selected = |mask: usize| -> Vec<u8> {
        (0..dim)
            .filter(|i| i & mask == mask)
            .map(|i| i as u8)
            .collect()
    };
    gates
        .iter()
        .map(|g| match *g {
            Gate::X(q) => LocalOp::Swap(moved(0, m(q))),
            Gate::H(q) => LocalOp::Butterfly(moved(0, m(q))),
            Gate::Cx(c, t) => LocalOp::Swap(moved(m(c), m(t))),
            Gate::Ccx(c1, c2, t) => LocalOp::Swap(moved(m(c1) | m(c2), m(t))),
            Gate::Swap(a, b) => LocalOp::Swap(
                (0..dim)
                    .filter(|i| i & m(a) != 0 && i & m(b) == 0)
                    .map(|i| (i as u8, (i ^ m(a) ^ m(b)) as u8))
                    .collect(),
            ),
            Gate::Z(q) => LocalOp::Negate(selected(m(q))),
            Gate::Cz(a, b) => LocalOp::Negate(selected(m(a) | m(b))),
            Gate::Ccz(a, b, c) => LocalOp::Negate(selected(m(a) | m(b) | m(c))),
            Gate::Phase(q, theta) => LocalOp::Scale(selected(m(q)), Complex::cis(theta.radians())),
            Gate::CPhase(c, t, theta) => {
                LocalOp::Scale(selected(m(c) | m(t)), Complex::cis(theta.radians()))
            }
            Gate::CcPhase(c1, c2, t, theta) => LocalOp::Scale(
                selected(m(c1) | m(c2) | m(t)),
                Complex::cis(theta.radians()),
            ),
        })
        .collect()
}

/// Applies the precompiled ops to one gathered group (SoA locals).
#[inline(always)]
fn apply_local_ops(re: &mut [f64; 16], im: &mut [f64; 16], ops: &[LocalOp]) {
    for op in ops {
        match op {
            LocalOp::Swap(pairs) => {
                for &(a, b) in pairs {
                    re.swap(a as usize, b as usize);
                    im.swap(a as usize, b as usize);
                }
            }
            LocalOp::Butterfly(pairs) => {
                for &(a, b) in pairs {
                    let (a, b) = (a as usize, b as usize);
                    let (xr, yr) = (re[a], re[b]);
                    re[a] = (xr + yr) * FRAC_1_SQRT_2;
                    re[b] = (xr - yr) * FRAC_1_SQRT_2;
                    let (xi, yi) = (im[a], im[b]);
                    im[a] = (xi + yi) * FRAC_1_SQRT_2;
                    im[b] = (xi - yi) * FRAC_1_SQRT_2;
                }
            }
            LocalOp::Scale(sel, w) => {
                for &i in sel {
                    let i = i as usize;
                    let a = re[i];
                    let b = im[i];
                    re[i] = a * w.re - b * w.im;
                    im[i] = a * w.im + b * w.re;
                }
            }
            LocalOp::Negate(sel) => {
                for &i in sel {
                    re[i as usize] = -re[i as usize];
                    im[i as usize] = -im[i as usize];
                }
            }
        }
    }
}

/// The fused dense-block kernel: applies a compiled fusion block — `gates`
/// with local operands over the (ascending) physical bit `positions` — in
/// a single sweep over the state.
///
/// Each group of `2^k` amplitudes (one per assignment of the non-block
/// bits) is gathered into local registers, pushed through every
/// constituent gate via [`apply_local_ops`], and scattered back (long
/// runs skip the gather entirely and stream the member slices). The
/// local application performs exactly the arithmetic of unfused kernel
/// execution, so amplitudes stay bit-identical to the gate-at-a-time
/// path.
///
/// # Errors
///
/// The block descriptor is caller-supplied (it crosses the crate boundary
/// via compiled circuits), so it is validated up front — in release
/// builds too — instead of trusted: a block spanning 0 or more than 4
/// qubits, non-ascending positions, a position outside the state, or a
/// gate operand outside the block returns
/// [`SimError::InvalidFusedBlock`] and leaves the state untouched.
pub(crate) fn fused(
    par: Par,
    amps: &mut Amps,
    positions: &[usize],
    gates: &[Gate],
) -> Result<(), SimError> {
    let invalid = |why: String| SimError::InvalidFusedBlock { why };
    let k = positions.len();
    if !(1..=4).contains(&k) {
        return Err(invalid(format!(
            "block spans {k} qubits (supported: 1..=4)"
        )));
    }
    if !positions.windows(2).all(|w| w[0] < w[1]) {
        return Err(invalid(format!(
            "block positions {positions:?} are not strictly ascending"
        )));
    }
    if !amps.len().is_power_of_two() || positions[k - 1] >= amps.len().trailing_zeros() as usize {
        return Err(invalid(format!(
            "block position {} outside a {}-amplitude state",
            positions[k - 1],
            amps.len()
        )));
    }
    for g in gates {
        let mut in_block = true;
        let _ = g.map_qubits(|q| {
            in_block &= q.index() < k;
            q
        });
        if !in_block {
            return Err(invalid(format!(
                "gate {g:?} has an operand outside the {k}-qubit block"
            )));
        }
    }
    let dim = 1usize << k;
    // Global offset of local index `j`: its bits spread over `positions`.
    let mut off = [0usize; 16];
    for (j, o) in off.iter_mut().enumerate().take(dim) {
        for (b, &p) in positions.iter().enumerate() {
            *o |= ((j >> b) & 1) << p;
        }
    }
    let mut pins = [(0usize, 0usize); 4];
    for (pin, &p) in pins.iter_mut().zip(positions) {
        *pin = (p, 0);
    }
    let ops = compile_local_ops(dim, gates);
    drive(par, amps, &pins[..k], |re, im, base, run, stride, count| {
        for j in 0..count {
            let rb = base + j * stride;
            if run >= 8 {
                // Slice mode: the run's member slices ([rb+off[j],
                // rb+off[j]+run) for each local index j) are contiguous,
                // so every op is a vectorisable span-to-span operation
                // and no amplitude is gathered or scattered at all. Long
                // runs are processed in cache-sized sub-blocks so the 2^k
                // slices stay hot across the whole op sequence — the
                // fused sweep then moves each amplitude through the
                // memory hierarchy once, however many gates the block
                // holds.
                const SUB: usize = 1usize << 12;
                let mut sub = 0usize;
                while sub < run {
                    let sr = (run - sub).min(SUB);
                    // Member slice `j` of this sub-block (no carries:
                    // `off` bits sit above the run's low bits, and the
                    // group stride stays below the next pinned bit).
                    let member = |j: u8| rb + off[j as usize] + sub;
                    for op in &ops {
                        match op {
                            // Distinct local indices name disjoint member
                            // slices.
                            LocalOp::Swap(pairs) => {
                                for &(a, b) in pairs {
                                    let (ar, br) = two_spans(re, member(a), member(b), sr);
                                    ar.swap_with_slice(br);
                                    let (ai, bi) = two_spans(im, member(a), member(b), sr);
                                    ai.swap_with_slice(bi);
                                }
                            }
                            LocalOp::Butterfly(pairs) => {
                                for &(a, b) in pairs {
                                    let (ar, br) = two_spans(re, member(a), member(b), sr);
                                    butterfly_span(ar, br);
                                    let (ai, bi) = two_spans(im, member(a), member(b), sr);
                                    butterfly_span(ai, bi);
                                }
                            }
                            LocalOp::Scale(sel, w) => {
                                for &jj in sel {
                                    let m = member(jj)..member(jj) + sr;
                                    scale_span(&mut re[m.clone()], &mut im[m], *w);
                                }
                            }
                            LocalOp::Negate(sel) => {
                                for &jj in sel {
                                    let m = member(jj)..member(jj) + sr;
                                    negate_span(&mut re[m.clone()], &mut im[m]);
                                }
                            }
                        }
                    }
                    sub += sr;
                }
            } else {
                // Gather mode for short runs (the block pins low bits):
                // pull each 2^k group into SoA locals, apply every op,
                // scatter back.
                for gbase in rb..rb + run {
                    let mut lre = [0.0f64; 16];
                    let mut lim = [0.0f64; 16];
                    for (jj, &o) in off.iter().enumerate().take(dim) {
                        lre[jj] = re[gbase | o];
                        lim[jj] = im[gbase | o];
                    }
                    apply_local_ops(&mut lre, &mut lim, &ops);
                    for (jj, &o) in off.iter().enumerate().take(dim) {
                        re[gbase | o] = lre[jj];
                        im[gbase | o] = lim[jj];
                    }
                }
            }
        }
    });
    Ok(())
}

/// A maximal run of consecutive pinned bit positions, shared by the
/// extract/spread bit-field walks of the permutation kernel: support bits
/// `shift..shift+width` of a local pattern live at absolute bits
/// `start..start+width`.
struct BitSeg {
    start: usize,
    shift: usize,
    mask: usize,
}

/// Decomposes ascending `positions` into maximal contiguous segments.
// Same address-geometry rule as `Pins`: the segments this produces are
// composed into raw gather indices, so no silent wrap is tolerable.
#[deny(clippy::arithmetic_side_effects)]
fn bit_segments(positions: &[usize]) -> Vec<BitSeg> {
    let mut segs = Vec::new();
    let mut k0 = 0usize;
    while k0 < positions.len() {
        // `k1 ≤ len` throughout and positions ascend, so the saturating
        // steps are exact; the contiguity test via `wrapping_sub` equals
        // `positions[k1] == positions[k1-1] + 1` for ascending input.
        let mut k1 = k0.saturating_add(1);
        while k1 < positions.len()
            && positions[k1].wrapping_sub(positions[k1.saturating_sub(1)]) == 1
        {
            k1 = k1.saturating_add(1);
        }
        segs.push(BitSeg {
            start: positions[k0],
            shift: k0,
            // The shifted value is ≥ 1, so the wrapping decrement is exact.
            mask: (1usize << k1.saturating_sub(k0)).wrapping_sub(1),
        });
        k0 = k1;
    }
    segs
}

/// The fused permutation-block kernel: applies a compiled fusion block
/// whose gates are all classical basis permutations (`X`, `CX`, `CCX`,
/// `SWAP`; see `Gate::is_permutation`) — `gates` with local operands over
/// the (ascending) physical bit `positions` — in a single sweep, however
/// many gates the block holds.
///
/// The block's composed action factorises as `identity` on the non-block
/// bits times a permutation `G` of the `2^k` block-bit patterns, so the
/// kernel precomputes the *inverse* local map as a `2^k`-entry table of
/// already-deposited bit patterns and streams the state once:
/// `new[j] = old[(j & !support) | table[extract(j)]]` — sequential writes
/// into `scratch`, gathered reads from `amps`, then the buffers swap.
/// Every amplitude is **moved**, never recombined: zero floating-point
/// arithmetic, so the sweep is bit-identical to gate-by-gate execution by
/// construction.
///
/// `scratch` is the caller's reusable destination buffer (resized here as
/// needed); on success it holds the *previous* amplitudes.
///
/// # Errors
///
/// The block descriptor is caller-supplied, so it is validated up front —
/// in release builds too — instead of trusted: a block spanning 0 or more
/// than [`mbu_circuit::MAX_PERM_FUSED_QUBITS`] qubits, non-ascending
/// positions, a position outside the state, a gate operand outside the
/// block, or a non-permutation gate returns
/// [`SimError::InvalidFusedBlock`] and leaves the state untouched.
pub(crate) fn permute(
    amps: &mut Amps,
    scratch: &mut Amps,
    positions: &[usize],
    gates: &[Gate],
) -> Result<(), SimError> {
    let invalid = |why: String| SimError::InvalidFusedBlock { why };
    let k = positions.len();
    if !(1..=mbu_circuit::MAX_PERM_FUSED_QUBITS).contains(&k) {
        return Err(invalid(format!(
            "permutation block spans {k} qubits (supported: 1..={})",
            mbu_circuit::MAX_PERM_FUSED_QUBITS
        )));
    }
    if !positions.windows(2).all(|w| w[0] < w[1]) {
        return Err(invalid(format!(
            "block positions {positions:?} are not strictly ascending"
        )));
    }
    if !amps.len().is_power_of_two() || positions[k - 1] >= amps.len().trailing_zeros() as usize {
        return Err(invalid(format!(
            "block position {} outside a {}-amplitude state",
            positions[k - 1],
            amps.len()
        )));
    }
    for g in gates {
        if !g.is_permutation() {
            return Err(invalid(format!("gate {g:?} is not a basis permutation")));
        }
        let mut in_block = true;
        let _ = g.map_qubits(|q| {
            in_block &= q.index() < k;
            q
        });
        if !in_block {
            return Err(invalid(format!(
                "gate {g:?} has an operand outside the {k}-qubit block"
            )));
        }
    }

    let segs = bit_segments(positions);
    let support: usize = segs.iter().map(|s| s.mask << s.start).sum();
    let extract = |j: usize| -> usize {
        segs.iter()
            .map(|s| ((j >> s.start) & s.mask) << s.shift)
            .sum()
    };
    let table = inverse_table(positions, gates);

    let len = amps.len();
    scratch.resize_zeroed(len);
    let (sre, sim) = amps.parts();
    let (dre, dim_) = scratch.parts_mut();
    // Below the lowest pinned bit, source and destination indices advance
    // in lockstep, so whole runs copy as spans (`len` is a multiple of the
    // run length: both are powers of two and the block lies inside the
    // state).
    let run_len = 1usize << positions[0];
    if run_len >= LANES {
        for j in (0..len).step_by(run_len) {
            let i = (j & !support) | table[extract(j)];
            dre[j..j + run_len].copy_from_slice(&sre[i..i + run_len]);
            dim_[j..j + run_len].copy_from_slice(&sim[i..i + run_len]);
        }
    } else {
        for j in 0..len {
            let i = (j & !support) | table[extract(j)];
            dre[j] = sre[i];
            dim_[j] = sim[i];
        }
    }
    std::mem::swap(amps, scratch);
    Ok(())
}

/// The bits of the local patterns `base..base + 64`, one `u64` lane per
/// pattern, for the six local bits that vary inside such a window.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The inverse local map of a validated permutation block, deposited:
/// `table[v]` is the support-bit pattern (at the absolute `positions`) of
/// the source index feeding destination pattern `v`. All block gates are
/// self-inverse, so `G⁻¹` is the gates applied in reverse order.
///
/// Built bit-sliced, 64 patterns at a time: slice `b` holds local bit `b`
/// of 64 consecutive patterns, one per `u64` lane, so each gate acts on
/// all 64 as one bitwise operation — `X` a not, `CX` a xor, `CCX` the xor
/// of an and, `SWAP` an exchange of two slices — instead of being replayed
/// on every pattern one at a time.
fn inverse_table(positions: &[usize], gates: &[Gate]) -> Vec<usize> {
    let k = positions.len();
    let dim = 1usize << k;
    let mut table = vec![0usize; dim];
    let mut slices = [0u64; mbu_circuit::MAX_PERM_FUSED_QUBITS];
    for (chunk, out) in table.chunks_mut(64).enumerate() {
        let base = chunk * 64;
        for (b, s) in slices.iter_mut().enumerate().take(k) {
            *s = match LANE_BITS.get(b) {
                Some(&lanes) => lanes,
                None if (base >> b) & 1 == 1 => u64::MAX,
                None => 0,
            };
        }
        for g in gates.iter().rev() {
            let m = |q: mbu_circuit::QubitId| q.index();
            match *g {
                Gate::X(t) => slices[m(t)] = !slices[m(t)],
                Gate::Cx(c, t) => slices[m(t)] ^= slices[m(c)],
                Gate::Ccx(c1, c2, t) => slices[m(t)] ^= slices[m(c1)] & slices[m(c2)],
                Gate::Swap(a, b) => slices.swap(m(a), m(b)),
                _ => unreachable!("validated: permutation gates only"),
            }
        }
        for (lane, entry) in out.iter_mut().enumerate() {
            *entry = positions
                .iter()
                .zip(&slices)
                .map(|(&p, &s)| (((s >> lane) & 1) as usize) << p)
                .sum();
        }
    }
    table
}

/// Reclamation kernel: projects bit `p` onto the definite value `keep` and
/// compacts the array to half its length, so the state no longer
/// represents the dropped qubit at all.
///
/// Pure amplitude moves — the surviving entries are copied bit-for-bit
/// (`amps[i] ← amps[insert_bit(i, p, keep)]`), never rescaled, so for an
/// exactly-projected qubit (the post-measurement case reclamation targets)
/// the compact state is numerically identical to the full one restricted
/// to its support. The copy runs forward in place: every source index is
/// at or ahead of its destination.
pub(crate) fn compact_bit(amps: &mut Amps, p: usize, keep: bool) {
    let half = amps.len() / 2;
    let low_mask = (1usize << p) - 1;
    let kept = usize::from(keep) << p;
    {
        let (re, im) = amps.parts_mut();
        for i in 0..half {
            let src = ((i & !low_mask) << 1) | kept | (i & low_mask);
            re[i] = re[src];
            im[i] = im[src];
        }
    }
    amps.truncate(half);
}

/// Reclamation kernel: brings factored-out qubits back into the array in
/// one pass. `inserted` lists each fresh bit as `(position, value)`, by
/// ascending position in the grown array (a qubit's *order-preserving*
/// position, so the live-qubit layout never accumulates a permutation).
///
/// The grown array is allocated zeroed once and the live core scattered
/// into it: old index bits keep their order, each shifted up past the
/// fresh positions below it, and the fresh bits hold their values. Pure
/// moves, bitwise what one `expand_bit` doubling per inserted bit leaves
/// (it zeroes every vacated entry): only `+0.0` entries are
/// skipped — the grown array holds them already — while `-0.0` ones move
/// like any other amplitude.
pub(crate) fn expand_bits(amps: &Amps, inserted: &[(usize, bool)]) -> Amps {
    let mut out = Amps::zeroed(amps.len() << inserted.len());
    // The old index bits split into runs that stay contiguous: `(mask,
    // shift)` moves the run `mask` up past the `shift` fresh bits below
    // it.
    let mut fresh = 0usize;
    let mut runs = Vec::with_capacity(inserted.len() + 1);
    let mut lo = 0usize;
    for (shift, &(pos, value)) in inserted.iter().enumerate() {
        fresh |= usize::from(value) << pos;
        let hi = pos - shift;
        runs.push((((1usize << hi) - 1) & !((1usize << lo) - 1), shift));
        lo = hi;
    }
    runs.push((!((1usize << lo) - 1), inserted.len()));
    let (re, im) = amps.parts();
    let (ore, oim) = out.parts_mut();
    for (i, (&r, &m)) in re.iter().zip(im).enumerate() {
        if r.to_bits() | m.to_bits() == 0 {
            continue;
        }
        let j = runs
            .iter()
            .fold(fresh, |j, &(mask, shift)| j | ((i & mask) << shift));
        ore[j] = r;
        oim[j] = m;
    }
    out
}

/// The exact inverse of [`compact_bit`], one bit at a time: doubles the
/// state by inserting a fresh bit holding `value` at position `p`. The
/// reference [`expand_bits`] is held to.
///
/// Pure moves, backward in place: every destination index is at or ahead
/// of its source, and vacated sources are zeroed. At the top position with
/// `value = 0` this degenerates to a plain zero-extension.
#[cfg(test)]
pub(crate) fn expand_bit(amps: &mut Amps, p: usize, value: bool) {
    let old = amps.len();
    amps.resize_zeroed(old * 2);
    let low_mask = (1usize << p) - 1;
    let vbit = usize::from(value) << p;
    let (re, im) = amps.parts_mut();
    for i in (0..old).rev() {
        let dst = ((i & !low_mask) << 1) | vbit | (i & low_mask);
        if dst != i {
            re[dst] = re[i];
            re[i] = 0.0;
            im[dst] = im[i];
            im[i] = 0.0;
        }
    }
}

/// Branch-tree kernel: the both-branch projection of a Z-basis
/// measurement on bit mask `m` (`1usize << p`), in **one sweep** over the
/// parent state. The parent collapses in place to the outcome-0 branch
/// (bit-clear amplitudes rescaled by `scale0`, bit-set zeroed) while the
/// returned array holds the outcome-1 branch (bit-set rescaled by
/// `scale1`, bit-clear zeroed).
///
/// The per-amplitude arithmetic — componentwise rescale on survivors,
/// exact zeros elsewhere, in ascending index order — is exactly the
/// projection loop of the sampling measurement path, so each branch is
/// bit-identical to what a forced-outcome `measure` would have left
/// behind.
pub(crate) fn split_bit(amps: &mut Amps, m: usize, scale0: f64, scale1: f64) -> Amps {
    let mut one = Amps::zeroed(amps.len());
    {
        let (ore, oim) = one.parts_mut();
        let (re, im) = amps.parts_mut();
        let mut base = 0usize;
        while base < re.len() {
            for i in base..base + m {
                re[i] *= scale0;
                im[i] *= scale0;
            }
            for i in base + m..base + (m << 1) {
                ore[i] = re[i] * scale1;
                oim[i] = im[i] * scale1;
                re[i] = 0.0;
                im[i] = 0.0;
            }
            base += m << 1;
        }
    }
    one
}

/// Measurement kernel: projects bit `p` onto `outcome`, rescaling the
/// surviving amplitudes by `scale` (componentwise, exactly
/// `a.scale(scale)`) and zeroing the rest — one block-structured sweep,
/// identical arithmetic and order to a per-index
/// `if bit matches { rescale } else { zero }` scan.
pub(crate) fn project_bit(amps: &mut Amps, p: usize, outcome: bool, scale: f64) {
    let m = 1usize << p;
    let (re, im) = amps.parts_mut();
    let mut base = 0usize;
    while base < re.len() {
        let (keep, kill) = if outcome {
            (base + m, base)
        } else {
            (base, base + m)
        };
        for i in keep..keep + m {
            re[i] *= scale;
            im[i] *= scale;
        }
        re[kill..kill + m].fill(0.0);
        im[kill..kill + m].fill(0.0);
        base += m << 1;
    }
}

/// Projection without renormalisation: zeroes every amplitude whose bit
/// `p` is set and leaves the rest **bitwise untouched** (no multiply by
/// 1.0 — survivors keep their exact representation). Used when the
/// discarded branch already carries zero probability mass.
pub(crate) fn zero_where_bit(amps: &mut Amps, p: usize) {
    let m = 1usize << p;
    let (re, im) = amps.parts_mut();
    let mut base = 0usize;
    while base < re.len() {
        re[base + m..base + (m << 1)].fill(0.0);
        im[base + m..base + (m << 1)].fill(0.0);
        base += m << 1;
    }
}

/// The probability mass carried by amplitudes whose bit `p` is set — a
/// serial reduction in ascending index order, identical to a filtered
/// per-index `norm_sqr` sum (parallel or reordered partial sums would
/// re-associate floating-point addition).
pub(crate) fn prob_of_set_bit(amps: &Amps, p: usize) -> f64 {
    let m = 1usize << p;
    let (re, im) = amps.parts();
    let mut mass = 0.0;
    let mut base = 0usize;
    while base < re.len() {
        for i in base + m..base + (m << 1) {
            mass += re[i] * re[i] + im[i] * im[i];
        }
        base += m << 1;
    }
    mass
}

/// The probability masses `(mass₀, mass₁)` carried by amplitudes whose bit
/// `p` is clear / set — the definiteness check a [`compact_bit`] drop is
/// gated on. (A serial reduction: parallel partial sums would re-associate
/// floating-point addition.)
pub(crate) fn bit_masses(amps: &Amps, p: usize) -> (f64, f64) {
    let m = 1usize << p;
    let (re, im) = amps.parts();
    let mut m0 = 0.0;
    let mut m1 = 0.0;
    let mut base = 0usize;
    while base < re.len() {
        for i in base..base + m {
            m0 += re[i] * re[i] + im[i] * im[i];
        }
        for i in base + m..base + (m << 1) {
            m1 += re[i] * re[i] + im[i] * im[i];
        }
        base += m << 1;
    }
    (m0, m1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::QubitId;

    /// Expands one enumeration of `drive` into sorted absolute indices,
    /// asserting no index is delivered twice.
    fn indices_with(par: Par, len: usize, pins: &[(usize, usize)]) -> Vec<usize> {
        let mut amps = Amps::zeroed(len);
        let mut v = Vec::new();
        drive(par, &mut amps, pins, |_, _, base, run, stride, count| {
            for j in 0..count {
                v.extend(base + j * stride..base + j * stride + run);
            }
        });
        v.sort_unstable();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "duplicate index");
        v
    }

    /// Both enumeration strategies must visit the same index set.
    fn indices(len: usize, pins: &[(usize, usize)]) -> Vec<usize> {
        let grouped = indices_with(Par::serial(), len, pins);
        let scalar = indices_with(Par::scalar(), len, pins);
        assert_eq!(grouped, scalar, "grouped and scalar enumerations diverge");
        grouped
    }

    #[test]
    fn two_spans_hand_back_the_requested_order() {
        // Every kernel that can ask for a partner below its first span
        // swaps the two, which is symmetric, so only this test pins the
        // order for a caller whose operation is not.
        let mut buf: Vec<f64> = (0..16u8).map(f64::from).collect();
        for (a, b) in [(2usize, 9usize), (9, 2), (0, 4), (12, 8)] {
            let (x, y) = two_spans(&mut buf, a, b, 4);
            assert_eq!(x, [a, a + 1, a + 2, a + 3].map(|i| i as f64), "({a}, {b})");
            assert_eq!(y, [b, b + 1, b + 2, b + 3].map(|i| i as f64), "({a}, {b})");
        }
        for (a, b) in [(2usize, 5usize), (5, 2), (3, 3)] {
            let overlap = std::panic::catch_unwind(|| {
                let mut buf = [0.0f64; 16];
                let _ = two_spans(&mut buf, a, b, 4);
            });
            assert!(overlap.is_err(), "({a}, {b}) overlap must panic");
        }
    }

    #[test]
    fn run2_enumerates_the_whole_subspace_once() {
        // Every index with bit 2 = 1 and bit 0 = 0 in a 4-qubit space,
        // exactly once — in any pin order.
        for pins in [[(2, 1), (0, 0)], [(0, 0), (2, 1)]] {
            assert_eq!(indices(16, &pins), vec![0b0100, 0b0110, 0b1100, 0b1110]);
        }
    }

    #[test]
    fn run3_enumerates_the_whole_subspace_once() {
        // Bits 0 and 3 pinned to 1, bit 1 pinned to 0, in a 5-qubit space:
        // 2^(5-3) = 4 indices.
        assert_eq!(
            indices(32, &[(3, 1), (0, 1), (1, 0)]),
            vec![0b01001, 0b01101, 0b11001, 0b11101]
        );
    }

    #[test]
    fn run_iteration_matches_mask_filter_exhaustively() {
        // Cross-check against the naive definition for every pin layout in
        // a 6-qubit space, for 1, 2 and 3 pins — on both enumeration
        // strategies (the `indices` helper asserts they agree).
        let len = 64usize;
        for p0 in 0..6 {
            for v0 in [0usize, 1] {
                let want: Vec<usize> = (0..len).filter(|i| i >> p0 & 1 == v0).collect();
                assert_eq!(indices(len, &[(p0, v0)]), want, "pin ({p0},{v0})");
            }
            for p1 in 0..6 {
                if p0 == p1 {
                    continue;
                }
                for (v0, v1) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let want: Vec<usize> = (0..len)
                        .filter(|i| i >> p0 & 1 == v0 && i >> p1 & 1 == v1)
                        .collect();
                    assert_eq!(
                        indices(len, &[(p0, v0), (p1, v1)]),
                        want,
                        "pins ({p0},{v0}) ({p1},{v1})"
                    );
                }
                for p2 in 0..6 {
                    if p2 == p0 || p2 == p1 {
                        continue;
                    }
                    let want: Vec<usize> = (0..len)
                        .filter(|i| i >> p0 & 1 == 1 && i >> p1 & 1 == 0 && i >> p2 & 1 == 1)
                        .collect();
                    assert_eq!(
                        indices(len, &[(p0, 1), (p1, 0), (p2, 1)]),
                        want,
                        "pins {p0} {p1} {p2}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_pins_enumerate_correctly() {
        let len = 64usize;
        let want: Vec<usize> = (0..len)
            .filter(|i| i >> 1 & 1 == 1 && i >> 2 & 1 == 0 && i >> 4 & 1 == 1 && i >> 5 & 1 == 0)
            .collect();
        assert_eq!(indices(len, &[(5, 0), (1, 1), (4, 1), (2, 0)]), want);
    }

    #[test]
    fn x_kernel_on_high_bit() {
        let mut amps = Amps::zeroed(8);
        amps.set(0b001, Complex::ONE);
        x(Par::serial(), &mut amps, 2);
        assert_eq!(amps.get(0b101), Complex::ONE);
        assert_eq!(amps.get(0b001), Complex::ZERO);
    }

    /// A deterministic, non-degenerate test state.
    fn ramp(len: usize) -> Amps {
        Amps::from_complex(
            &(0..len)
                .map(|i| Complex::new(1.0 + i as f64, -0.5 * i as f64))
                .collect::<Vec<_>>(),
        )
    }

    fn assert_bit_identical(a: &Amps, b: &Amps, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re of amp {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im of amp {i}");
        }
    }

    type Kernel = Box<dyn Fn(Par, &mut Amps)>;

    /// Every kernel family over an `n`-qubit state (requires `n ≥ 10`):
    /// low-bit, high-bit and mixed operands, so runs of length 1 up to
    /// half the array all occur.
    fn kernel_suite(n: usize) -> Vec<(&'static str, Kernel)> {
        assert!(n >= 10);
        let w = Complex::cis(0.3);
        type K = Kernel;
        let kernels: Vec<(&'static str, K)> = vec![
            ("x lo", Box::new(|p, a: &mut Amps| x(p, a, 0))),
            ("x hi", Box::new(move |p, a: &mut Amps| x(p, a, n - 1))),
            ("h lo", Box::new(|p, a: &mut Amps| h(p, a, 1))),
            ("h hi", Box::new(move |p, a: &mut Amps| h(p, a, n - 1))),
            ("z", Box::new(|p, a: &mut Amps| z(p, a, 3))),
            (
                "phase1",
                Box::new(move |p, a: &mut Amps| phase1(p, a, 2, w)),
            ),
            (
                "cx lo-hi",
                Box::new(move |p, a: &mut Amps| cx(p, a, 0, n - 1)),
            ),
            (
                "cx hi-lo",
                Box::new(move |p, a: &mut Amps| cx(p, a, n - 1, 0)),
            ),
            ("cx adjacent", Box::new(|p, a: &mut Amps| cx(p, a, 0, 1))),
            (
                "ccx",
                Box::new(move |p, a: &mut Amps| ccx(p, a, 2, n - 2, 5)),
            ),
            (
                "ccx lo target",
                Box::new(move |p, a: &mut Amps| ccx(p, a, 4, n - 1, 0)),
            ),
            ("cz", Box::new(move |p, a: &mut Amps| cz(p, a, 1, n - 1))),
            (
                "phase2",
                Box::new(move |p, a: &mut Amps| phase2(p, a, 4, 9, w)),
            ),
            (
                "ccz",
                Box::new(move |p, a: &mut Amps| ccz(p, a, 0, 7, n - 1)),
            ),
            (
                "phase3",
                Box::new(move |p, a: &mut Amps| phase3(p, a, 3, 8, n - 2, w)),
            ),
            (
                "swap",
                Box::new(move |p, a: &mut Amps| swap(p, a, 2, n - 1)),
            ),
            (
                "swap adjacent",
                Box::new(|p, a: &mut Amps| swap(p, a, 7, 8)),
            ),
            (
                "swap high-low",
                Box::new(move |p, a: &mut Amps| swap(p, a, n - 1, 0)),
            ),
        ];
        kernels
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        // Every kernel family on a 15-qubit array must produce
        // bitwise-identical amplitudes on the lane-grouped enumeration and
        // the scalar reference, including high-bit operands where a run
        // spans a huge contiguous range.
        let n = 15usize;
        let len = 1usize << n;
        for (name, kernel) in &kernel_suite(n) {
            let mut scalar = ramp(len);
            kernel(Par::scalar(), &mut scalar);
            let mut got = ramp(len);
            kernel(Par::serial(), &mut got);
            assert_bit_identical(&scalar, &got, name);
        }
    }

    #[test]
    fn simd_matches_scalar_on_tiny_states() {
        // States no longer than one lane chunk must take the span helpers'
        // scalar tails and still agree bitwise with the scalar path: every
        // kernel at every width from one qubit up to the kernel's arity.
        let w = Complex::cis(1.1);
        type K = Box<dyn Fn(Par, &mut Amps)>;
        for n in [1usize, 2, 3] {
            let len = 1usize << n;
            // `z` acts on qubit 1 once it exists, on qubit 0 at n = 1.
            let z_q = (n - 1).min(1);
            let mut kernels: Vec<(&'static str, K)> = vec![
                ("x", Box::new(|p, a: &mut Amps| x(p, a, 0))),
                ("h", Box::new(|p, a: &mut Amps| h(p, a, 0))),
                ("z", Box::new(move |p, a: &mut Amps| z(p, a, z_q))),
                (
                    "phase1",
                    Box::new(move |p, a: &mut Amps| phase1(p, a, 0, w)),
                ),
            ];
            if n >= 2 {
                kernels.extend::<[(&'static str, K); 4]>([
                    ("cx", Box::new(move |p, a: &mut Amps| cx(p, a, 0, n - 1))),
                    ("cz", Box::new(move |p, a: &mut Amps| cz(p, a, 0, n - 1))),
                    (
                        "phase2",
                        Box::new(move |p, a: &mut Amps| phase2(p, a, n - 1, 0, w)),
                    ),
                    (
                        "swap",
                        Box::new(move |p, a: &mut Amps| swap(p, a, 0, n - 1)),
                    ),
                ]);
            }
            if n >= 3 {
                kernels.extend::<[(&'static str, K); 3]>([
                    ("ccx", Box::new(|p, a: &mut Amps| ccx(p, a, 0, 2, 1))),
                    ("ccz", Box::new(|p, a: &mut Amps| ccz(p, a, 2, 0, 1))),
                    (
                        "phase3",
                        Box::new(move |p, a: &mut Amps| phase3(p, a, 1, 2, 0, w)),
                    ),
                ]);
            }
            for (name, kernel) in &kernels {
                let mut scalar = ramp(len);
                let mut simd = ramp(len);
                kernel(Par::scalar(), &mut scalar);
                kernel(Par::serial(), &mut simd);
                assert_bit_identical(&scalar, &simd, &format!("{name} @ len {len}"));
            }
        }
    }

    #[test]
    fn fused_kernel_equals_sequential_application_bitwise() {
        // A 3-qubit block on non-contiguous positions of a 15-qubit state,
        // on both enumerations, against one-gate-at-a-time execution.
        let q = |i: u32| QubitId(i);
        let theta = mbu_circuit::Angle::turn_over_power_of_two(3);
        // Local gates over local operands l0, l1, l2.
        let gates = vec![
            Gate::H(q(0)),
            Gate::Ccx(q(0), q(2), q(1)),
            Gate::Phase(q(1), theta),
            Gate::Cx(q(1), q(0)),
            Gate::X(q(2)),
            Gate::Cz(q(0), q(2)),
            Gate::Swap(q(1), q(2)),
        ];
        let positions = [1usize, 6, 14];
        let len = 1usize << 15;

        // Reference: each local gate applied gate-at-a-time with operands
        // mapped onto the physical positions, on the scalar path.
        let mut reference = ramp(len);
        for g in &gates {
            let phys = g.map_qubits(|lq| QubitId(u32::try_from(positions[lq.index()]).unwrap()));
            match phys {
                Gate::X(a) => x(Par::scalar(), &mut reference, a.index()),
                Gate::H(a) => h(Par::scalar(), &mut reference, a.index()),
                Gate::Phase(a, t) => phase1(
                    Par::scalar(),
                    &mut reference,
                    a.index(),
                    Complex::cis(t.radians()),
                ),
                Gate::Cx(c, t) => cx(Par::scalar(), &mut reference, c.index(), t.index()),
                Gate::Ccx(c1, c2, t) => ccx(
                    Par::scalar(),
                    &mut reference,
                    c1.index(),
                    c2.index(),
                    t.index(),
                ),
                Gate::Cz(a, b) => cz(Par::scalar(), &mut reference, a.index(), b.index()),
                Gate::Swap(a, b) => swap(Par::scalar(), &mut reference, a.index(), b.index()),
                _ => unreachable!(),
            }
        }

        for par in [Par::scalar(), Par::serial()] {
            let mut fused_amps = ramp(len);
            fused(par, &mut fused_amps, &positions, &gates).unwrap();
            assert_bit_identical(&reference, &fused_amps, "fused");
        }
    }

    #[test]
    fn fused_gather_mode_agrees_with_slice_mode_geometry() {
        // Low positions force gather mode (runs of 1–2); the same block on
        // shifted-up positions runs slice mode. Both against the unfused
        // reference on a small state.
        let q = |i: u32| QubitId(i);
        let gates = vec![Gate::H(q(0)), Gate::Cx(q(0), q(1)), Gate::Z(q(1))];
        for positions in [[0usize, 1], [5, 7]] {
            let len = 1usize << 9;
            let mut reference = ramp(len);
            h(Par::scalar(), &mut reference, positions[0]);
            cx(Par::scalar(), &mut reference, positions[0], positions[1]);
            z(Par::scalar(), &mut reference, positions[1]);
            for par in [Par::scalar(), Par::serial()] {
                let mut got = ramp(len);
                fused(par, &mut got, &positions, &gates).unwrap();
                assert_bit_identical(&reference, &got, &format!("positions {positions:?}"));
            }
        }
    }

    #[test]
    fn fused_rejects_malformed_blocks_in_release_builds_too() {
        // Regression for the release-vanishing `debug_assert!` guards:
        // each malformed descriptor must come back as a typed error (and
        // leave the state untouched), never index out of bounds.
        let q = |i: u32| QubitId(i);
        let pristine = ramp(16);
        let expect_invalid = |positions: &[usize], gates: &[Gate], what: &str| {
            let mut amps = ramp(16);
            let err = fused(Par::serial(), &mut amps, positions, gates).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidFusedBlock { .. }),
                "{what}: got {err:?}"
            );
            assert_bit_identical(&pristine, &amps, what);
        };
        expect_invalid(&[], &[], "empty block");
        expect_invalid(&[0, 1, 2, 3, 4], &[], "five-qubit block");
        expect_invalid(&[2, 1], &[Gate::X(q(0))], "descending positions");
        expect_invalid(&[1, 1], &[Gate::X(q(0))], "duplicate positions");
        expect_invalid(&[0, 4], &[Gate::X(q(0))], "position beyond the state");
        expect_invalid(
            &[0, 1],
            &[Gate::Cx(q(0), q(2))],
            "gate operand outside the block",
        );
        // The in-range shapes still work.
        let mut amps = ramp(16);
        fused(Par::serial(), &mut amps, &[0, 3], &[Gate::X(q(1))]).unwrap();
    }

    #[test]
    fn compact_and_expand_round_trip() {
        // A 3-qubit state with bit 1 pinned to 1: dropping bit 1 then
        // re-inserting it at the same position must reproduce the state
        // exactly.
        let mut amps = Amps::zeroed(8);
        amps.set(0b010, Complex::new(0.6, 0.0));
        amps.set(0b111, Complex::new(0.0, 0.8));
        let original = amps.to_vec();

        let (m0, m1) = bit_masses(&amps, 1);
        assert_eq!(m0, 0.0);
        assert!((m1 - 1.0).abs() < 1e-12);

        compact_bit(&mut amps, 1, true);
        assert_eq!(amps.len(), 4);
        assert_eq!(amps.get(0b00), Complex::new(0.6, 0.0)); // was |010⟩
        assert_eq!(amps.get(0b11), Complex::new(0.0, 0.8)); // was |111⟩

        expand_bit(&mut amps, 1, true);
        assert_eq!(amps.to_vec(), original);
    }

    #[test]
    fn expand_bit_inverts_compact_bit_everywhere() {
        // Exhaustive over a 4-qubit array and every (position, value):
        // expand ∘ compact restricted to the kept half is the projector.
        for p in 0..4usize {
            for v in [false, true] {
                let full: Vec<Complex> = (0..16)
                    .map(|i| Complex::new(f64::from(i + 1), -0.5 * f64::from(i)))
                    .collect();
                let projected: Vec<Complex> = (0..16usize)
                    .map(|i| {
                        if (i >> p) & 1 == usize::from(v) {
                            full[i]
                        } else {
                            Complex::ZERO
                        }
                    })
                    .collect();
                let mut amps = Amps::from_complex(&full);
                compact_bit(&mut amps, p, v);
                expand_bit(&mut amps, p, v);
                assert_eq!(amps.to_vec(), projected, "p={p} v={v}");
            }
        }
    }

    #[test]
    fn compact_bit_is_a_pure_move_for_every_position() {
        // Exhaustive over a 4-qubit array: compacting position p with kept
        // value v must gather exactly the matching half, in index order.
        for p in 0..4usize {
            for v in [false, true] {
                let mut amps = Amps::from_complex(
                    &(0..16)
                        .map(|i| Complex::new(f64::from(i), -f64::from(i)))
                        .collect::<Vec<_>>(),
                );
                let want: Vec<Complex> = (0..16usize)
                    .filter(|i| (i >> p) & 1 == usize::from(v))
                    .map(|i| Complex::new(i as f64, -(i as f64)))
                    .collect();
                compact_bit(&mut amps, p, v);
                assert_eq!(amps.to_vec(), want, "p={p} v={v}");
            }
        }
    }

    #[test]
    fn expand_zero_and_one_at_the_top() {
        let mut amps = Amps::from_complex(&[Complex::ONE]);
        expand_bit(&mut amps, 0, false);
        assert_eq!(amps.to_vec(), vec![Complex::ONE, Complex::ZERO]);
        expand_bit(&mut amps, 1, true);
        assert_eq!(
            amps.to_vec(),
            vec![Complex::ZERO, Complex::ZERO, Complex::ONE, Complex::ZERO]
        );
    }

    /// `expand_bits` brings several qubits in at once; it must leave
    /// bitwise what one `expand_bit` per inserted bit (ascending) leaves,
    /// on random layouts whose amplitudes mix `+0.0`, `-0.0` and nonzero
    /// components.
    #[test]
    fn expand_bits_matches_the_doubling_cascade() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let component = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -0.0,
            _ => (f64::from(rng.gen_range(0..2000u32)) - 999.5) / 1000.0,
        };
        for case in 0..400 {
            let live = rng.gen_range(0..7usize);
            let fresh = rng.gen_range(0..5usize);
            let width = live + fresh;
            // The fresh bits' positions in the grown array: `fresh`
            // distinct positions out of `width`, ascending.
            let mut positions: Vec<usize> = (0..width).collect();
            while positions.len() > fresh {
                positions.remove(rng.gen_range(0..positions.len()));
            }
            let inserted: Vec<(usize, bool)> =
                positions.iter().map(|&p| (p, rng.gen_bool(0.5))).collect();
            let src: Vec<Complex> = (0..1usize << live)
                .map(|_| Complex::new(component(&mut rng), component(&mut rng)))
                .collect();
            let src = Amps::from_complex(&src);

            let mut cascade = src.clone();
            for &(p, value) in &inserted {
                expand_bit(&mut cascade, p, value);
            }
            let grown = expand_bits(&src, &inserted);
            assert_eq!(grown.len(), cascade.len(), "case {case}");
            assert_bit_identical(&grown, &cascade, &format!("case {case}: {inserted:?}"));
        }
    }

    #[test]
    fn phase_kernels_touch_only_the_pinned_subspace() {
        let mut amps = Amps::from_complex(&[Complex::ONE; 16]);
        phase2(Par::serial(), &mut amps, 3, 1, Complex::I);
        for (i, a) in amps.to_vec().iter().enumerate() {
            let expect = if i & 0b1010 == 0b1010 {
                Complex::I
            } else {
                Complex::ONE
            };
            assert_eq!(*a, expect, "index {i:04b}");
        }
    }

    #[test]
    fn measurement_sweeps_match_their_per_index_definitions() {
        // project_bit / zero_where_bit / split_bit / prob_of_set_bit /
        // bit_masses against the naive per-index loops they replace, for
        // every bit of a 4-qubit ramp.
        let len = 16usize;
        let state: Vec<Complex> = (0..len)
            .map(|i| Complex::new(0.3 + i as f64, 1.0 - 0.25 * i as f64))
            .collect();
        for p in 0..4usize {
            let m = 1usize << p;
            // prob_of_set_bit: ascending filtered sum.
            let amps = Amps::from_complex(&state);
            let mut want = 0.0;
            for (i, a) in state.iter().enumerate() {
                if i & m != 0 {
                    want += a.norm_sqr();
                }
            }
            assert_eq!(
                prob_of_set_bit(&amps, p).to_bits(),
                want.to_bits(),
                "prob p={p}"
            );

            // bit_masses: block-interleaved sums (same as the seed order).
            let (m0, m1) = bit_masses(&amps, p);
            assert!((m0 + m1 - state.iter().map(|a| a.norm_sqr()).sum::<f64>()).abs() < 1e-9);

            // project_bit.
            for outcome in [false, true] {
                let scale = 1.25;
                let mut amps = Amps::from_complex(&state);
                project_bit(&mut amps, p, outcome, scale);
                for (i, a) in state.iter().enumerate() {
                    let want = if (i & m != 0) == outcome {
                        a.scale(scale)
                    } else {
                        Complex::ZERO
                    };
                    assert_eq!(amps.get(i), want, "project p={p} outcome={outcome} i={i}");
                }
            }

            // zero_where_bit leaves survivors bitwise untouched.
            let mut amps = Amps::from_complex(&state);
            zero_where_bit(&mut amps, p);
            for (i, a) in state.iter().enumerate() {
                if i & m != 0 {
                    assert_eq!(amps.get(i), Complex::ZERO, "zeroed p={p} i={i}");
                } else {
                    assert_eq!(amps.get(i).re.to_bits(), a.re.to_bits(), "kept p={p} i={i}");
                    assert_eq!(amps.get(i).im.to_bits(), a.im.to_bits(), "kept p={p} i={i}");
                }
            }

            // split_bit.
            let mut zero_branch = Amps::from_complex(&state);
            let one_branch = split_bit(&mut zero_branch, m, 0.5, 2.0);
            for (i, a) in state.iter().enumerate() {
                if i & m != 0 {
                    assert_eq!(one_branch.get(i), a.scale(2.0), "one branch i={i}");
                    assert_eq!(zero_branch.get(i), Complex::ZERO, "zero branch i={i}");
                } else {
                    assert_eq!(zero_branch.get(i), a.scale(0.5), "zero branch i={i}");
                    assert_eq!(one_branch.get(i), Complex::ZERO, "one branch i={i}");
                }
            }
        }
    }

    /// Reference: a permutation gate's classical action on a basis index
    /// with *global* operands.
    fn perm_image(i: usize, g: &Gate) -> usize {
        let m = |q: QubitId| q.index();
        let mut i = i;
        match *g {
            Gate::X(t) => i ^= 1usize << m(t),
            Gate::Cx(c, t) => i ^= ((i >> m(c)) & 1) << m(t),
            Gate::Ccx(c1, c2, t) => i ^= ((i >> m(c1)) & (i >> m(c2)) & 1) << m(t),
            Gate::Swap(a, b) => {
                let x = ((i >> m(a)) ^ (i >> m(b))) & 1;
                i ^= (x << m(a)) | (x << m(b));
            }
            _ => unreachable!("permutation gates only"),
        }
        i
    }

    /// `permute` against the naive per-index definition, across gate
    /// sequences whose support (6 qubits) exceeds the dense-fusion arity,
    /// with non-contiguous positions so the extract/spread segment walk is
    /// exercised — once from bit 0 (the per-amplitude path) and once from
    /// bit 3 (runs of [`LANES`] amplitudes: the span-copy path).
    #[test]
    fn permute_matches_naive_index_map() {
        let q = |i: usize| QubitId(u32::try_from(i).unwrap());
        // Local gates over 6 block qubits mapped to scattered positions.
        let gates = vec![
            Gate::Cx(q(0), q(3)),
            Gate::Ccx(q(1), q(2), q(0)),
            Gate::X(q(4)),
            Gate::Swap(q(2), q(5)),
            Gate::Cx(q(5), q(1)),
            Gate::Ccx(q(3), q(4), q(2)),
            Gate::X(q(0)),
            Gate::Swap(q(0), q(3)),
        ];
        for (n, positions) in [(9usize, [0usize, 1, 3, 4, 5, 7]), (12, [3, 4, 6, 7, 8, 10])] {
            let len = 1usize << n;
            // The same gates with global operands, for the reference walk.
            let global: Vec<Gate> = gates
                .iter()
                .map(|g| g.map_qubits(|lq| q(positions[lq.index()])))
                .collect();
            let mut want = vec![Complex::ZERO; len];
            let src = ramp(len);
            for i in 0..len {
                let mut j = i;
                for g in &global {
                    j = perm_image(j, g);
                }
                want[j] = src.get(i);
            }
            let want = Amps::from_complex(&want);

            let mut amps = ramp(len);
            let mut scratch = Amps::zeroed(0);
            permute(&mut amps, &mut scratch, &positions, &gates).unwrap();
            assert_bit_identical(&amps, &want, &format!("permute on {positions:?}"));
            // Old amplitudes land in the swapped-out scratch.
            assert_bit_identical(&scratch, &ramp(len), "swapped-out source");
        }
    }

    /// The bit-sliced inverse table against replaying the reversed gates
    /// on every local pattern one at a time, at every block width from a
    /// partial 64-pattern window (k < 6) up to the 16-qubit cap, with
    /// scattered positions.
    #[test]
    fn inverse_table_matches_the_per_pattern_replay() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let q = |i: usize| QubitId(u32::try_from(i).unwrap());
        for k in (1..=10).chain([16]) {
            let mut positions: Vec<usize> = (0..k + 3).collect();
            while positions.len() > k {
                positions.remove(rng.gen_range(0..positions.len()));
            }
            let mut gates = Vec::new();
            for _ in 0..40 {
                let a = rng.gen_range(0..k);
                let b = (a + rng.gen_range(1..k.max(2))) % k;
                let c = (0..k).find(|&c| c != a && c != b);
                gates.push(match (rng.gen_range(0..4u32), c) {
                    (1, _) if a != b => Gate::Cx(q(a), q(b)),
                    (2, Some(c)) if a != b => Gate::Ccx(q(a), q(c), q(b)),
                    (3, _) if a != b => Gate::Swap(q(a), q(b)),
                    _ => Gate::X(q(a)),
                });
            }
            let table = inverse_table(&positions, &gates);
            for (v, &entry) in table.iter().enumerate() {
                let mut w = v;
                for g in gates.iter().rev() {
                    w = perm_image(w, g);
                }
                let deposited = scatter_bits(w, &positions);
                assert_eq!(entry, deposited, "k={k} pattern {v}");
            }
        }
    }

    /// Bit `j` of `w` lands at `positions[j]`.
    fn scatter_bits(w: usize, positions: &[usize]) -> usize {
        positions
            .iter()
            .enumerate()
            .map(|(j, &p)| ((w >> j) & 1) << p)
            .sum()
    }

    /// Malformed permutation blocks are rejected with a typed error — in
    /// release builds too — leaving the state untouched.
    #[test]
    fn permute_rejects_malformed_blocks() {
        let q = |i: usize| QubitId(u32::try_from(i).unwrap());
        let check = |positions: &[usize], gates: &[Gate]| {
            let before = ramp(16);
            let mut amps = ramp(16);
            let mut scratch = Amps::zeroed(0);
            let err = permute(&mut amps, &mut scratch, positions, gates);
            assert!(
                matches!(err, Err(SimError::InvalidFusedBlock { .. })),
                "expected rejection for positions {positions:?}"
            );
            assert_bit_identical(&amps, &before, "state untouched after rejection");
        };
        let cx = [Gate::Cx(q(0), q(1))];
        // Empty block.
        check(&[], &cx);
        // Non-ascending positions.
        check(&[2, 1], &cx);
        // Position outside the 4-qubit state.
        check(&[1, 4], &cx);
        // Operand outside the block.
        check(&[0, 1], &[Gate::Cx(q(0), q(2))]);
        // Non-permutation gate.
        check(&[0, 1], &[Gate::H(q(0)), Gate::Cx(q(0), q(1))]);
        // Wider than the remap-table cap.
        let wide: Vec<usize> = (0..17).collect();
        let mut amps = Amps::zeroed(1usize << 18);
        let mut scratch = Amps::zeroed(0);
        assert!(matches!(
            permute(&mut amps, &mut scratch, &wide, &cx),
            Err(SimError::InvalidFusedBlock { .. })
        ));
    }
}
