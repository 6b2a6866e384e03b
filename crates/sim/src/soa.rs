//! Structure-of-arrays amplitude storage.
//!
//! The stride kernels of [`crate::kernels`] spend their time in tight
//! per-amplitude loops — scale, negate, butterfly, swap — whose arithmetic
//! is componentwise over the real and imaginary parts. An array-of-structs
//! `Vec<Complex>` interleaves those components, so an 8-lane vector
//! register loads four amplitudes' worth of mixed re/im data and every
//! componentwise op needs a shuffle. [`Amps`] stores the two components in
//! separate `Vec<f64>` buffers instead: each inner loop reads one
//! homogeneous `f64` stream, which LLVM autovectorizes into full-width
//! packed ops with no shuffles.
//!
//! The split changes **layout only**. Every accessor round-trips through
//! [`Complex`] with the exact component values — no arithmetic happens in
//! this module — so the bit-identity contracts of the kernel layer are
//! unaffected by the storage representation.

use crate::complex::Complex;

/// The structure-of-arrays amplitude array: parallel re/im buffers of
/// equal length.
#[derive(Clone, Debug)]
pub(crate) struct Amps {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Amps {
    /// All-zero amplitudes of the given length, written up front.
    ///
    /// `vec![0.0; len]` would take zeroed memory from the allocator, whose
    /// pages the operating system maps on first touch: a read maps the
    /// shared zero page, and the first write after it takes a second,
    /// copy-on-write fault. Writing the zeros here makes the first touch of
    /// every page a write, so a fresh array pays one fault per page however
    /// its kernel walks it — a sparse scatter into it
    /// ([`expand_bits`](crate::kernels::expand_bits)), or a permutation
    /// sweep that reads and then rewrites it in place.
    pub(crate) fn zeroed(len: usize) -> Self {
        let zeros = || {
            let mut v = Vec::with_capacity(len);
            v.resize(len, 0.0);
            v
        };
        Self {
            re: zeros(),
            im: zeros(),
        }
    }

    /// Converts from an interleaved amplitude vector.
    pub(crate) fn from_complex(amps: &[Complex]) -> Self {
        Self {
            re: amps.iter().map(|a| a.re).collect(),
            im: amps.iter().map(|a| a.im).collect(),
        }
    }

    /// Materialises the interleaved form.
    pub(crate) fn to_vec(&self) -> Vec<Complex> {
        self.iter().collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.re.len()
    }

    /// The amplitude at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn get(&self, i: usize) -> Complex {
        Complex::new(self.re[i], self.im[i])
    }

    /// Stores the amplitude at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub(crate) fn set(&mut self, i: usize, a: Complex) {
        self.re[i] = a.re;
        self.im[i] = a.im;
    }

    /// The component buffers, read-only.
    pub(crate) fn parts(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// The component buffers, mutable.
    pub(crate) fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Iterates the amplitudes in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| Complex::new(r, i))
    }

    /// Shrinks the length (capacity retained for re-expansion).
    pub(crate) fn truncate(&mut self, new_len: usize) {
        self.re.truncate(new_len);
        self.im.truncate(new_len);
    }

    /// Resizes, zeroing newly exposed amplitudes (for the one-bit
    /// `expand_bit` reference of the kernel tests).
    #[cfg(test)]
    pub(crate) fn resize_zeroed(&mut self, new_len: usize) {
        self.re.resize(new_len, 0.0);
        self.im.resize(new_len, 0.0);
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
        // Truncation keeps the capacity (and the stale values in it);
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
        assert!(amps.iter().all(|a| a == Complex::ZERO));
        amps.set(1, Complex::new(-1.0, 0.5));
        amps.set(3, Complex::I);
        assert_eq!(amps.get(1), Complex::new(-1.0, 0.5));
        assert_eq!(amps.get(2), Complex::ZERO);
        assert_eq!(amps.get(3), Complex::I);
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
