//! Exact dyadic rotation angles.

use std::fmt;

/// A rotation angle that is an exact dyadic fraction of a full turn:
/// `θ = 2π · numerator / 2^{log2_denom}`.
///
/// Every rotation in the paper's circuits is dyadic: the QFT and Draper's
/// `ΦADD` use `θ_k = 2π/2^k` (Figure 3), and the merged constant-addition
/// rotations `U_{a,i}` (Equation (7)) are sums of those, which stay dyadic.
/// Storing angles exactly keeps gate counting exact (rotations with equal
/// angles compare equal) and lets the state-vector simulator cancel
/// rotations without floating-point drift.
///
/// Angles are kept in a canonical form: reduced (odd numerator unless zero)
/// and normalised to `[0, 2π)`. The numerator is a `u128`, but the
/// denominator exponent is unbounded — a QFT over a 1024-bit register emits
/// rotations down to `2π/2^{1025}`, which are exactly representable because
/// their reduced numerator is 1. Angles whose canonical numerator does not
/// fit 128 bits carry a *negated* marker instead: `−x` is stored as the
/// pair `(x, negated)` whenever the equivalent `1 − x` numerator would
/// overflow (only possible past `2^128` denominators, where the two forms
/// never collide). Addition is [`Angle::checked_add`], which reports sums
/// that cannot be represented exactly as `None`.
///
/// # Examples
///
/// ```
/// use mbu_circuit::Angle;
///
/// let eighth = Angle::turn_over_power_of_two(3); // 2π/8 = π/4 (a T gate)
/// let quarter = eighth.checked_add(eighth).unwrap();
/// assert_eq!(quarter, Angle::turn_over_power_of_two(2));
/// assert_eq!((-quarter).checked_add(quarter).unwrap(), Angle::ZERO);
///
/// // Deep-QFT angles far past u128 denominators stay exact.
/// let deep = Angle::turn_over_power_of_two(1025);
/// assert_eq!((-deep).checked_add(deep).unwrap(), Angle::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Angle {
    /// Numerator of the fraction of a full turn; odd unless the angle is 0.
    numerator: u128,
    /// `log2` of the denominator.
    log2_denom: u32,
    /// When set, the stored fraction is *subtracted* from a full turn:
    /// the angle's value is `2π(1 − numerator/2^{log2_denom})`. Canonical
    /// form keeps this `false` whenever `log2_denom ≤ 128` (the positive
    /// numerator fits), so it can only be set for deeper denominators —
    /// where positive forms are `< π` and negated forms `> π`, making the
    /// representation unique and derived equality exact.
    negated: bool,
}

impl Angle {
    /// The zero angle.
    pub const ZERO: Self = Self {
        numerator: 0,
        log2_denom: 0,
        negated: false,
    };

    /// A half turn, `π` — the angle of a `Z` gate.
    pub const HALF_TURN: Self = Self {
        numerator: 1,
        log2_denom: 1,
        negated: false,
    };

    /// Canonicalises `(numerator, log2_denom, negated)`: reduces to an odd
    /// numerator and rewrites negated forms as positive whenever the
    /// complement numerator fits (always, for denominators up to `2^128`).
    fn canonical(mut numerator: u128, mut log2_denom: u32, negated: bool) -> Self {
        while numerator != 0 && numerator.is_multiple_of(2) {
            numerator /= 2;
            log2_denom -= 1;
        }
        if numerator == 0 {
            return Self::ZERO;
        }
        if negated && log2_denom <= 128 {
            // 1 − num/2^d = (2^d − num)/2^d; the complement of an odd
            // numerator is odd, so no re-reduction is needed.
            numerator = if log2_denom == 128 {
                numerator.wrapping_neg()
            } else {
                (1u128 << log2_denom) - numerator
            };
            return Self {
                numerator,
                log2_denom,
                negated: false,
            };
        }
        Self {
            numerator,
            log2_denom,
            negated,
        }
    }

    /// Creates the paper's `θ_k = 2π / 2^k` (Figure 3), for any `k` — the
    /// reduced numerator is 1, so arbitrarily deep QFT rotations are exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbu_circuit::Angle;
    ///
    /// assert_eq!(Angle::turn_over_power_of_two(1), Angle::HALF_TURN);
    /// assert!(!Angle::turn_over_power_of_two(1025).is_zero());
    /// ```
    #[must_use]
    pub fn turn_over_power_of_two(k: u32) -> Self {
        if k == 0 {
            return Self::ZERO; // a full turn is the identity
        }
        Self {
            numerator: 1,
            log2_denom: k,
            negated: false,
        }
    }

    /// Creates `2π · numerator / 2^{log2_denom}`, normalising to canonical
    /// form. Denominator exponents past 128 are accepted (the fraction is
    /// already below one turn there, so no wrapping is needed).
    ///
    /// # Examples
    ///
    /// ```
    /// use mbu_circuit::Angle;
    ///
    /// // 6/8 of a turn reduces to 3/4.
    /// let a = Angle::from_fraction(6, 3);
    /// assert_eq!(a, Angle::from_fraction(3, 2));
    /// ```
    #[must_use]
    pub fn from_fraction(numerator: u128, log2_denom: u32) -> Self {
        // Wrap into [0, 1) of a turn; past 2^128 denominators the u128
        // numerator is already below the denominator.
        let num = if log2_denom >= 128 {
            numerator
        } else {
            numerator & ((1u128 << log2_denom) - 1)
        };
        Self::canonical(num, log2_denom, false)
    }

    /// The numerator of the canonical fraction of a full turn. For a
    /// [negated](Self::is_negated) angle this is the numerator of the
    /// *complement*: the value is `2π(1 − numerator/2^{log2_denom})`.
    #[must_use]
    pub fn numerator(&self) -> u128 {
        self.numerator
    }

    /// `log2` of the canonical denominator.
    #[must_use]
    pub fn log2_denom(&self) -> u32 {
        self.log2_denom
    }

    /// Whether the stored fraction is subtracted from a full turn (see
    /// [`numerator`](Self::numerator)). Only ever `true` for denominators
    /// past `2^128`, where the complement numerator cannot be stored.
    #[must_use]
    pub fn is_negated(&self) -> bool {
        self.negated
    }

    /// Whether this is the zero angle (identity rotation).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.numerator == 0
    }

    /// The angle in radians, for simulation.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbu_circuit::Angle;
    ///
    /// assert!((Angle::HALF_TURN.radians() - std::f64::consts::PI).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn radians(&self) -> f64 {
        if !self.negated && self.log2_denom <= 127 {
            return 2.0 * std::f64::consts::PI * (self.numerator as f64)
                / 2f64.powi(self.log2_denom as i32);
        }
        let x = (self.numerator as f64) * f64::exp2(-f64::from(self.log2_denom));
        let frac = if self.negated { 1.0 - x } else { x };
        2.0 * std::f64::consts::PI * frac
    }

    /// Shifts `num` from denominator `2^from` to `2^to`, or `None` when
    /// the shifted numerator would not fit 128 bits.
    fn rescale(num: u128, from: u32, to: u32) -> Option<u128> {
        let s = to - from;
        if s == 0 || num == 0 {
            Some(num)
        } else if s >= 128 || num >> (128 - s) != 0 {
            None
        } else {
            Some(num << s)
        }
    }

    /// Adds two non-negated fractions `a/2^d + b/2^d` mod one turn.
    fn pos_sum(a: u128, b: u128, d: u32) -> Option<Self> {
        if d == 0 {
            return Some(Self::ZERO);
        }
        if d <= 127 {
            let m = 1u128 << d;
            return Some(Self::canonical((a + b) % m, d, false));
        }
        if d == 128 {
            return Some(Self::canonical(a.wrapping_add(b), d, false));
        }
        let (sum, carried) = a.overflowing_add(b);
        if !carried {
            Some(Self::canonical(sum, d, false))
        } else if sum.is_multiple_of(2) {
            // True sum is 2^128 + sum < 2^d: halve once to refit.
            Some(Self::canonical((1u128 << 127) | (sum >> 1), d - 1, false))
        } else {
            None
        }
    }

    /// The exact sum of two angles mod a full turn, or `None` when the
    /// reduced numerator of the sum does not fit 128 bits (only possible
    /// when mixing wildly different denominators past `2^128`, e.g.
    /// `π + 2π/2^{1025}`). The compile-time rotation-merge pass skips
    /// unmergeable pairs through this, and the basis tracker reports them
    /// as a typed error.
    #[must_use]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        let d = self.log2_denom.max(rhs.log2_denom);
        let a = Self::rescale(self.numerator, self.log2_denom, d)?;
        let b = Self::rescale(rhs.numerator, rhs.log2_denom, d)?;
        match (self.negated, rhs.negated) {
            (false, false) => Self::pos_sum(a, b, d),
            (true, true) => Self::pos_sum(a, b, d).map(Neg::neg),
            (false, true) | (true, false) => {
                let (pos, neg) = if self.negated { (b, a) } else { (a, b) };
                if pos >= neg {
                    Some(Self::canonical(pos - neg, d, false))
                } else {
                    Some(Self::canonical(neg - pos, d, true))
                }
            }
        }
    }

    /// The exact difference `self − rhs` mod a full turn, under the same
    /// representability conditions as [`Angle::checked_add`].
    #[must_use]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        self.checked_add(-rhs)
    }

    /// Whether the angle, as a fraction of a turn in `[0, 1)`, is at
    /// least half a turn (`π` radians). The static verifier's symbolic
    /// ring folds such phases through `e^{iθ} = −e^{i(θ−π)}` to keep its
    /// term keys canonical.
    #[must_use]
    pub fn is_at_least_half_turn(&self) -> bool {
        if self.numerator == 0 {
            false
        } else if self.negated {
            // Complement form 1 − x: x = num/2^d with num < 2^128 and
            // d > 128 forces x < 1/2, so the value exceeds half a turn.
            true
        } else if self.log2_denom == 0 || self.log2_denom > 128 {
            // Denominator 1 holds only zero; past 2^128 the (non-negated)
            // numerator is below 2^{d−1}.
            false
        } else {
            self.numerator >> (self.log2_denom - 1) != 0
        }
    }
}

use std::ops::Neg;

impl Neg for Angle {
    type Output = Self;

    fn neg(self) -> Self {
        if self.numerator == 0 {
            return Self::ZERO;
        }
        if self.log2_denom <= 128 {
            return Self::canonical(self.numerator, self.log2_denom, true);
        }
        Self {
            numerator: self.numerator,
            log2_denom: self.log2_denom,
            negated: !self.negated,
        }
    }
}

impl fmt::Debug for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Angle({self})")
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.negated { "-" } else { "" };
        if self.numerator == 0 {
            write!(f, "0")
        } else if self.numerator == 1 {
            write!(f, "{sign}2π/2^{}", self.log2_denom)
        } else {
            write!(f, "{sign}2π·{}/2^{}", self.numerator, self.log2_denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_reduces() {
        assert_eq!(Angle::from_fraction(4, 4), Angle::from_fraction(1, 2));
        assert_eq!(Angle::from_fraction(0, 10), Angle::ZERO);
        assert_eq!(Angle::from_fraction(8, 3), Angle::ZERO); // full turn wraps
    }

    #[test]
    fn addition_wraps_a_full_turn() {
        let three_quarters = Angle::from_fraction(3, 2);
        let half = Angle::HALF_TURN;
        // 3/4 + 1/2 = 5/4 ≡ 1/4.
        assert_eq!(
            three_quarters.checked_add(half).unwrap(),
            Angle::from_fraction(1, 2)
        );
    }

    #[test]
    fn negation_is_additive_inverse() {
        for (num, denom) in [(1u128, 1u32), (3, 3), (5, 4), (0, 0), (7, 5)] {
            let a = Angle::from_fraction(num, denom);
            assert_eq!(a.checked_add(-a).unwrap(), Angle::ZERO, "{a}");
        }
    }

    #[test]
    fn radians_of_known_angles() {
        use std::f64::consts::PI;
        assert_eq!(Angle::ZERO.radians(), 0.0);
        assert!((Angle::turn_over_power_of_two(2).radians() - PI / 2.0).abs() < 1e-12);
        assert!((Angle::turn_over_power_of_two(3).radians() - PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn equation_7_merged_rotation_is_dyadic() {
        // U_{a,i} = R(Σ_k a_k θ_{i-k+1}) stays dyadic for any constant a.
        let a_bits = [true, false, true, true];
        let i = 3u32;
        let mut theta = Angle::ZERO;
        for (k, &bit) in a_bits.iter().enumerate() {
            if bit {
                theta = theta
                    .checked_add(Angle::turn_over_power_of_two(i - k as u32 + 1))
                    .unwrap();
            }
        }
        // Σ = 2π(2^0 + 2^2 + 2^3)/2^4 = 2π·13/16.
        assert_eq!(theta, Angle::from_fraction(13, 4));
    }

    #[test]
    fn deep_denominators_stay_exact() {
        // QFT rotations past the u128 denominator range: numerator 1,
        // arbitrarily deep, with exact negation and cancellation.
        for k in [128u32, 129, 300, 1025, 4097] {
            let a = Angle::turn_over_power_of_two(k);
            assert!(!a.is_zero());
            assert_eq!(a.numerator(), 1);
            assert_eq!(a.log2_denom(), k);
            let neg = -a;
            assert_eq!(-neg, a, "double negation at 2^{k}");
            assert_eq!(
                a.checked_add(neg).unwrap(),
                Angle::ZERO,
                "cancellation at 2^{k}"
            );
            // a + a halves the denominator exactly.
            assert_eq!(
                a.checked_add(a).unwrap(),
                Angle::turn_over_power_of_two(k - 1)
            );
            assert!(a.radians() >= 0.0);
        }
    }

    #[test]
    fn deep_negated_sums_accumulate_like_an_iqft_column() {
        // Σ_{j} −2π/2^{k_j}, the IQFT's rotation column at one target.
        let mut acc = Angle::ZERO;
        for k in [1025u32, 1024, 1023] {
            acc = acc.checked_add(-Angle::turn_over_power_of_two(k)).unwrap();
        }
        // −(1 + 2 + 4)/2^1025 = −7/2^1025.
        let expected = -Angle::from_fraction(7, 1025);
        assert_eq!(acc, expected);
        // And the forward column cancels it exactly.
        for k in [1025u32, 1024, 1023] {
            acc = acc.checked_add(Angle::turn_over_power_of_two(k)).unwrap();
        }
        assert_eq!(acc, Angle::ZERO);
    }

    #[test]
    fn unrepresentable_sums_are_reported_not_mangled() {
        // π + 2π/2^1025 has a reduced numerator of 2^1024 + 1: too wide.
        let half = Angle::HALF_TURN;
        let deep = Angle::turn_over_power_of_two(1025);
        assert!(half.checked_add(deep).is_none());
        assert!(deep.checked_add(half).is_none());
        // But representable mixes still work: both deep, close exponents.
        assert_eq!(
            Angle::turn_over_power_of_two(200)
                .checked_add(Angle::turn_over_power_of_two(201))
                .unwrap(),
            Angle::from_fraction(3, 201)
        );
    }

    #[test]
    fn denominator_128_boundary_wraps_to_positive_form() {
        // Negation at exactly 2^128 uses the wrapping complement and stays
        // in positive canonical form.
        let a = Angle::turn_over_power_of_two(128);
        let neg = -a;
        assert!(!neg.is_negated());
        assert_eq!(neg.numerator(), u128::MAX);
        assert_eq!(neg.log2_denom(), 128);
        assert_eq!(a.checked_add(neg).unwrap(), Angle::ZERO);
    }

    #[test]
    fn half_turn_threshold_is_exact() {
        assert!(!Angle::ZERO.is_at_least_half_turn());
        assert!(Angle::HALF_TURN.is_at_least_half_turn());
        assert!(!Angle::turn_over_power_of_two(2).is_at_least_half_turn());
        assert!(Angle::from_fraction(3, 2).is_at_least_half_turn());
        // One ulp under half a turn at the 128-bit boundary.
        assert!(!Angle::from_fraction((1u128 << 127) - 1, 128).is_at_least_half_turn());
        assert!(Angle::from_fraction(1u128 << 127, 128).is_at_least_half_turn());
        // Deep positive angles are tiny; deep negated ones are complements.
        assert!(!Angle::turn_over_power_of_two(1025).is_at_least_half_turn());
        assert!((-Angle::turn_over_power_of_two(1025)).is_at_least_half_turn());
    }

    #[test]
    fn checked_sub_folds_past_half_turn() {
        // 3/4 − 1/2 = 1/4 of a turn, exactly.
        assert_eq!(
            Angle::from_fraction(3, 2).checked_sub(Angle::HALF_TURN),
            Some(Angle::turn_over_power_of_two(2))
        );
        assert_eq!(
            Angle::HALF_TURN.checked_sub(Angle::HALF_TURN),
            Some(Angle::ZERO)
        );
        // A deep complement angle cannot shift π onto its denominator.
        assert_eq!(
            (-Angle::turn_over_power_of_two(1025)).checked_sub(Angle::HALF_TURN),
            None
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Angle::ZERO.to_string(), "0");
        assert_eq!(Angle::HALF_TURN.to_string(), "2π/2^1");
        assert_eq!(Angle::from_fraction(3, 3).to_string(), "2π·3/2^3");
        assert_eq!(
            (-Angle::turn_over_power_of_two(1025)).to_string(),
            "-2π/2^1025"
        );
    }
}
