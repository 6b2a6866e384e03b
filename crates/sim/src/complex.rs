//! A minimal complex-number type (keeps the dependency set to the allowed
//! list; no `num-complex`).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use mbu_circuit::Angle;

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use mbu_sim::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, -Complex::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Creates `re + im·i`.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}` for `θ` in radians.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbu_sim::Complex;
    ///
    /// let minus_one = Complex::cis(std::f64::consts::PI);
    /// assert!((minus_one - (-Complex::ONE)).norm() < 1e-12);
    /// ```
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// The dyadic angle `θ` with `cis(θ) ≈ self`, snapped to 2^-24 of a
    /// turn: the amplitude backends' global-phase read-out. `None` unless
    /// `self` is of unit norm and the snapped angle reproduces it, both
    /// within `1e-6`.
    pub(crate) fn dyadic_phase(self) -> Option<Angle> {
        if (self.norm() - 1.0).abs() > 1e-6 {
            return None;
        }
        const LOG2_DENOM: u32 = 24;
        let turns = (self.im.atan2(self.re) / std::f64::consts::TAU).rem_euclid(1.0);
        let scaled = (turns * f64::from(1u32 << LOG2_DENOM)).round();
        let numerator = (scaled as u128) % (1u128 << LOG2_DENOM);
        let angle = Angle::from_fraction(numerator, LOG2_DENOM);
        ((Self::cis(angle.radians()) - self).norm() < 1e-6).then_some(angle)
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[must_use]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, Complex::new(1.0, 1.0));
        assert_eq!(a - b, Complex::new(2.0, -5.0));
        // (1.5 − 2i)(−0.5 + 3i) = −0.75 + 4.5i + 1i + 6 = 5.25 + 5.5i
        assert_eq!(a * b, Complex::new(5.25, 5.5));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert!((z * z.conj() - Complex::new(25.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn cis_on_axis_angles() {
        use std::f64::consts::FRAC_PI_2;
        assert!((Complex::cis(0.0) - Complex::ONE).norm() < 1e-12);
        assert!((Complex::cis(FRAC_PI_2) - Complex::I).norm() < 1e-12);
    }

    #[test]
    fn display_shows_both_parts() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex::new(0.5, 0.25).to_string(), "0.5+0.25i");
    }
}
