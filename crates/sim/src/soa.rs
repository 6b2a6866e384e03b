//! Structure-of-arrays amplitude storage.
//!
//! The stride kernels of [`crate::kernels`] spend their time in tight
//! per-amplitude loops — scale, negate, butterfly, swap — whose arithmetic
//! is componentwise over the real and imaginary parts. An array-of-structs
//! `Vec<Complex>` interleaves those components, so an 8-lane vector
//! register loads four amplitudes' worth of mixed re/im data and every
//! componentwise op needs a shuffle. [`Amps`] stores the two components in
//! separate [`AlignedF64`] buffers instead: each inner loop reads one
//! homogeneous `f64` stream, which LLVM autovectorizes into full-width
//! packed ops with no shuffles, and cache-line alignment keeps the lane
//! chunks the kernels process from straddling line boundaries.
//!
//! The split changes **layout only**. Every accessor round-trips through
//! [`Complex`] with the exact component values — no arithmetic happens in
//! this module — so the bit-identity contracts of the kernel layer are
//! unaffected by the storage representation.

use crate::complex::Complex;

/// f64 lanes per cache line (64 bytes).
const LINE_F64S: usize = 8;

/// One cache line of `f64`s. `repr(C)` over a plain array, so a
/// `Vec<CacheLine>` is layout-identical to a `Vec<f64>` of 8× the length,
/// with every element 64-byte aligned.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
struct CacheLine([f64; LINE_F64S]);

const ZERO_LINE: CacheLine = CacheLine([0.0; LINE_F64S]);

/// A cache-line-aligned growable `f64` buffer.
///
/// Invariant: `len <= lines.len() * LINE_F64S`. Elements past `len` (the
/// tail of the last partial line, plus any lines retained by
/// [`truncate`](Self::truncate)) hold unspecified stale values and are
/// re-zeroed by [`resize_zeroed`](Self::resize_zeroed) before they become
/// visible again.
#[derive(Clone, Debug)]
struct AlignedF64 {
    lines: Vec<CacheLine>,
    len: usize,
}

impl AlignedF64 {
    fn zeroed(len: usize) -> Self {
        Self {
            lines: vec![ZERO_LINE; len.div_ceil(LINE_F64S)],
            len,
        }
    }

    fn as_slice(&self) -> &[f64] {
        // SAFETY: `CacheLine` is `repr(C)` over `[f64; LINE_F64S]`, so the
        // line buffer is `lines.len() * LINE_F64S` contiguous, initialised
        // `f64`s; `len` never exceeds that (struct invariant), and `f64`'s
        // alignment is satisfied by the stricter line alignment.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.lines.as_ptr().cast::<f64>(), self.len)
        }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`; `&mut self` gives exclusive access.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<f64>(), self.len)
        }
    }

    /// Shrinks the logical length (capacity and tail contents retained).
    fn truncate(&mut self, new_len: usize) {
        assert!(new_len <= self.len);
        self.len = new_len;
    }

    /// Grows (or shrinks) to `new_len`, zeroing every newly exposed
    /// element — including stale tails left behind by earlier truncations.
    fn resize_zeroed(&mut self, new_len: usize) {
        self.lines.resize(new_len.div_ceil(LINE_F64S), ZERO_LINE);
        let old = self.len;
        self.len = new_len;
        if new_len > old {
            self.as_mut_slice()[old..].fill(0.0);
        }
    }

    /// Releases surplus line capacity.
    fn shrink_to_fit(&mut self) {
        self.lines.truncate(self.len.div_ceil(LINE_F64S));
        self.lines.shrink_to_fit();
    }

    /// Current capacity in elements.
    fn capacity(&self) -> usize {
        self.lines.capacity() * LINE_F64S
    }
}

/// The structure-of-arrays amplitude array: parallel re/im buffers.
#[derive(Clone, Debug)]
pub(crate) struct Amps {
    re: AlignedF64,
    im: AlignedF64,
}

impl Amps {
    /// All-zero amplitudes of the given length.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self {
            re: AlignedF64::zeroed(len),
            im: AlignedF64::zeroed(len),
        }
    }

    /// Converts from an interleaved amplitude vector.
    pub(crate) fn from_complex(amps: &[Complex]) -> Self {
        let mut out = Self::zeroed(amps.len());
        let (re, im) = out.parts_mut();
        for (i, a) in amps.iter().enumerate() {
            re[i] = a.re;
            im[i] = a.im;
        }
        out
    }

    /// Materialises the interleaved form.
    pub(crate) fn to_vec(&self) -> Vec<Complex> {
        self.iter().collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.re.len
    }

    /// The amplitude at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn get(&self, i: usize) -> Complex {
        Complex::new(self.re.as_slice()[i], self.im.as_slice()[i])
    }

    /// Stores the amplitude at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn set(&mut self, i: usize, a: Complex) {
        self.re.as_mut_slice()[i] = a.re;
        self.im.as_mut_slice()[i] = a.im;
    }

    /// Zeroes every amplitude.
    pub(crate) fn fill_zero(&mut self) {
        self.re.as_mut_slice().fill(0.0);
        self.im.as_mut_slice().fill(0.0);
    }

    /// The component buffers, read-only.
    pub(crate) fn parts(&self) -> (&[f64], &[f64]) {
        (self.re.as_slice(), self.im.as_slice())
    }

    /// The component buffers, mutable.
    pub(crate) fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (self.re.as_mut_slice(), self.im.as_mut_slice())
    }

    /// Iterates the amplitudes in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        let (re, im) = self.parts();
        re.iter().zip(im).map(|(&r, &i)| Complex::new(r, i))
    }

    /// Shrinks the logical length (capacity retained for re-expansion).
    pub(crate) fn truncate(&mut self, new_len: usize) {
        self.re.truncate(new_len);
        self.im.truncate(new_len);
    }

    /// Resizes, zeroing newly exposed amplitudes.
    pub(crate) fn resize_zeroed(&mut self, new_len: usize) {
        self.re.resize_zeroed(new_len);
        self.im.resize_zeroed(new_len);
    }

    /// Releases surplus capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.re.shrink_to_fit();
        self.im.shrink_to_fit();
    }

    /// Current capacity in amplitudes.
    pub(crate) fn capacity(&self) -> usize {
        self.re.capacity().min(self.im.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_cache_line_aligned() {
        for len in [1usize, 7, 8, 9, 64, 1000] {
            let a = Amps::zeroed(len);
            let (re, im) = a.parts();
            assert_eq!(re.as_ptr() as usize % 64, 0, "re of len {len}");
            assert_eq!(im.as_ptr() as usize % 64, 0, "im of len {len}");
            assert_eq!(re.len(), len);
            assert_eq!(im.len(), len);
        }
    }

    #[test]
    fn complex_round_trip_is_bit_exact() {
        let src: Vec<Complex> = (0..37)
            .map(|i| Complex::new(1.5 + i as f64, -0.25 * i as f64))
            .collect();
        let amps = Amps::from_complex(&src);
        assert_eq!(amps.to_vec(), src);
        for (i, a) in src.iter().enumerate() {
            assert_eq!(amps.get(i).re.to_bits(), a.re.to_bits());
            assert_eq!(amps.get(i).im.to_bits(), a.im.to_bits());
        }
    }

    #[test]
    fn resize_after_truncate_zeroes_the_stale_tail() {
        // Truncation keeps stale component values in the hidden tail;
        // growing back must expose zeros, not the old amplitudes.
        let mut amps = Amps::from_complex(&[
            Complex::new(1.0, 2.0),
            Complex::new(3.0, 4.0),
            Complex::new(5.0, 6.0),
            Complex::new(7.0, 8.0),
        ]);
        amps.truncate(2);
        assert_eq!(amps.len(), 2);
        amps.resize_zeroed(6);
        assert_eq!(amps.get(0), Complex::new(1.0, 2.0));
        assert_eq!(amps.get(1), Complex::new(3.0, 4.0));
        for i in 2..6 {
            assert_eq!(amps.get(i), Complex::ZERO, "index {i}");
        }
    }

    #[test]
    fn set_and_fill() {
        let mut amps = Amps::zeroed(4);
        amps.set(1, Complex::new(-1.0, 0.5));
        amps.set(3, Complex::I);
        assert_eq!(amps.get(1), Complex::new(-1.0, 0.5));
        assert_eq!(amps.get(2), Complex::ZERO);
        assert_eq!(amps.get(3), Complex::I);
        amps.fill_zero();
        assert!(amps.iter().all(|a| a == Complex::ZERO));
    }

    #[test]
    fn shrink_keeps_contents_and_signals_capacity() {
        let mut amps = Amps::from_complex(
            &(0..64)
                .map(|i| Complex::new(i as f64, 0.0))
                .collect::<Vec<_>>(),
        );
        amps.truncate(8);
        amps.shrink_to_fit();
        assert!(amps.capacity() >= 8);
        for i in 0..8 {
            assert_eq!(amps.get(i), Complex::new(i as f64, 0.0));
        }
    }
}
