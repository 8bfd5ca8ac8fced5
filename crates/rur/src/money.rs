//! Fixed-point Grid currency.
//!
//! The paper stores balances as MySQL `FLOAT` and prices CPU time in
//! "G$ (Grid currency) per CPU hour". Floating-point money cannot support
//! the conservation invariants our property tests check (transfers must
//! move value exactly), so [`Credits`] is an `i128` count of **micro-G$**
//! (1 G$ = 1,000,000 µG$). All arithmetic is checked; rate×usage charging
//! uses a widened multiply-then-divide so a µG$-per-hour rate applied to a
//! millisecond duration rounds deterministically (half-up at the µG$).

// The fixed-point definition module builds the checked helpers from raw
// i128 ops, under proptest coverage, so it alone is exempt from the
// workspace clippy wall: everything downstream goes through the checked
// API built here, and outside `gridbank-rur` no product code reads the
// raw integer (`scripts/check.sh`, "one money accessor").
#![allow(clippy::arithmetic_side_effects)]

use std::fmt;
use std::iter::Sum;
use std::ops::Neg;
use std::str::FromStr;

use crate::error::RurError;

/// Micro-G$ per G$.
pub const MICRO_PER_GD: i128 = 1_000_000;

/// An exact amount of Grid currency, in micro-G$.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Credits(i128);

impl Credits {
    /// Zero credits.
    pub const ZERO: Credits = Credits(0);
    /// The largest representable amount.
    pub const MAX: Credits = Credits(i128::MAX);

    /// Constructs from whole Grid dollars.
    pub const fn from_gd(gd: i64) -> Credits {
        Credits(gd as i128 * MICRO_PER_GD)
    }

    /// Constructs from micro-G$ directly.
    pub const fn from_micro(micro: i128) -> Credits {
        Credits(micro)
    }

    /// Constructs from milli-G$ (handy for price tables).
    pub const fn from_milli(milli: i64) -> Credits {
        Credits(milli as i128 * 1_000)
    }

    /// Raw micro-G$ value.
    pub const fn micro(self) -> i128 {
        self.0
    }

    /// Whole-G$ part, truncated toward zero.
    pub const fn whole_gd(self) -> i128 {
        self.0 / MICRO_PER_GD
    }

    /// Approximate f64 value in G$ — for display and metrics only.
    pub fn as_gd_f64(self) -> f64 {
        self.0 as f64 / MICRO_PER_GD as f64
    }

    /// True if strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// True if exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True if strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Credits) -> Result<Credits, RurError> {
        self.0.checked_add(rhs.0).map(Credits).ok_or(RurError::Overflow("credits addition"))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Credits) -> Result<Credits, RurError> {
        self.0.checked_sub(rhs.0).map(Credits).ok_or(RurError::Overflow("credits subtraction"))
    }

    /// Checked integer scaling.
    pub fn checked_mul(self, factor: i128) -> Result<Credits, RurError> {
        self.0.checked_mul(factor).map(Credits).ok_or(RurError::Overflow("credits multiplication"))
    }

    /// Saturating addition (metrics accumulation only).
    pub fn saturating_add(self, rhs: Credits) -> Credits {
        Credits(self.0.saturating_add(rhs.0))
    }

    /// `self * numerator / denominator` with half-up rounding, the charging
    /// primitive: e.g. `rate.mul_ratio(usage_ms, MS_PER_HOUR)` prices a
    /// per-hour rate over a millisecond duration.
    pub fn mul_ratio(self, numerator: u64, denominator: u64) -> Result<Credits, RurError> {
        if denominator == 0 {
            return Err(RurError::Invalid { field: "denominator", why: "zero".into() });
        }
        let wide = self
            .0
            .checked_mul(numerator as i128)
            .ok_or(RurError::Overflow("credits ratio multiply"))?;
        let den = denominator as i128;
        // Half-up rounding that works for negative amounts too.
        let half = if wide >= 0 { den / 2 } else { -(den / 2) };
        let rounded =
            wide.checked_add(half).ok_or(RurError::Overflow("credits ratio round"))? / den;
        Ok(Credits(rounded))
    }

    /// The amount as a non-negative `u64` of micro-G$ for counters and
    /// histograms: negative amounts clamp to zero, amounts beyond
    /// `u64::MAX` saturate. Telemetry only — never accounting — like
    /// [`Credits::as_gd_f64`]; this is the one sanctioned way to turn
    /// money into a metric value.
    pub const fn metric_micro(self) -> u64 {
        if self.0 < 0 {
            0
        } else if self.0 > u64::MAX as i128 {
            u64::MAX
        } else {
            self.0 as u64
        }
    }

    /// How many `unit`s cover the amount: ⌈self / unit⌉ for a positive
    /// amount, 0 otherwise. A `unit` below 1 µG$ counts as 1 µG$.
    pub fn div_ceil(self, unit: Credits) -> u128 {
        if self.0 <= 0 {
            return 0;
        }
        self.0.unsigned_abs().div_ceil(unit.0.max(1).unsigned_abs())
    }

    /// The mean of `(amount, weight)` pairs weighted by `weight`,
    /// truncated toward zero; `None` when the weights sum to zero. The
    /// sums saturate: this is for estimates, never for balances.
    pub fn weighted_mean(pairs: impl IntoIterator<Item = (Credits, u64)>) -> Option<Credits> {
        let (mut sum, mut total) = (0i128, 0i128);
        for (amount, weight) in pairs {
            let weight = i128::from(weight);
            sum = sum.saturating_add(amount.0.saturating_mul(weight));
            total = total.saturating_add(weight);
        }
        sum.checked_div(total).map(Credits)
    }

    /// The amount's 16 little-endian bytes, for digests over ledger
    /// state.
    pub const fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Absolute value.
    pub fn abs(self) -> Credits {
        Credits(self.0.abs())
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Credits) -> Credits {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two amounts.
    pub fn max(self, other: Credits) -> Credits {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Neg for Credits {
    type Output = Credits;
    fn neg(self) -> Credits {
        Credits(-self.0)
    }
}

impl Credits {
    /// Negation as a method: call sites outside this module sit behind
    /// the workspace arithmetic wall, which bans the unary operator.
    pub const fn negated(self) -> Credits {
        Credits(-self.0)
    }
}

impl Sum for Credits {
    /// Sums with saturation; use `checked_add` loops when exactness is
    /// load-bearing (account arithmetic does).
    fn sum<I: Iterator<Item = Credits>>(iter: I) -> Credits {
        iter.fold(Credits::ZERO, Credits::saturating_add)
    }
}

impl fmt::Debug for Credits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Credits({self})")
    }
}

impl fmt::Display for Credits {
    /// Renders as `G$<whole>.<6-digit-fraction>`, e.g. `G$1.250000`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let whole = abs / MICRO_PER_GD as u128;
        let frac = abs % MICRO_PER_GD as u128;
        write!(f, "{sign}G${whole}.{frac:06}")
    }
}

impl FromStr for Credits {
    type Err = RurError;

    /// Parses `G$` written as decimal digits, an optional leading `-`
    /// and at most six fraction digits: `12`, `12.5`, `-3.25`,
    /// `0.000001`. Nothing else is accepted — no `+`, no sign after the
    /// point, no empty part on either side of it.
    fn from_str(s: &str) -> Result<Credits, RurError> {
        let bad = |why: &str| RurError::Invalid { field: "amount", why: format!("`{s}`: {why}") };
        let (negative, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let (whole, frac) = body.split_once('.').unwrap_or((body, "0"));
        let digits = |part: &str| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit());
        if !digits(whole) || !digits(frac) {
            return Err(bad("expected digits, an optional leading `-` and at most one `.`"));
        }
        if frac.len() > 6 {
            return Err(bad("at most 6 decimal places (µG$ precision)"));
        }
        // Whole digits then the fraction right-padded to six: µG$.
        let micro: i128 =
            format!("{whole}{frac:0<6}").parse().map_err(|_| bad("amount out of range"))?;
        Ok(Credits(if negative { -micro } else { micro }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Credits::from_gd(3).micro(), 3_000_000);
        assert_eq!(Credits::from_milli(1500).micro(), 1_500_000);
        assert_eq!(Credits::from_micro(42).micro(), 42);
        assert_eq!(Credits::from_gd(7).whole_gd(), 7);
        assert!(Credits::from_gd(-1).is_negative());
        assert!(Credits::ZERO.is_zero());
        assert!(Credits::from_micro(1).is_positive());
    }

    #[test]
    fn display_format() {
        assert_eq!(Credits::from_gd(1).to_string(), "G$1.000000");
        assert_eq!(Credits::from_micro(1_250_000).to_string(), "G$1.250000");
        assert_eq!(Credits::from_micro(-42).to_string(), "-G$0.000042");
        assert_eq!(Credits::ZERO.to_string(), "G$0.000000");
    }

    #[test]
    fn checked_arithmetic() {
        let a = Credits::from_gd(5);
        let b = Credits::from_gd(3);
        assert_eq!(a.checked_add(b).unwrap(), Credits::from_gd(8));
        assert_eq!(a.checked_sub(b).unwrap(), Credits::from_gd(2));
        assert_eq!(b.checked_sub(a).unwrap(), Credits::from_gd(-2));
        assert_eq!(a.checked_mul(4).unwrap(), Credits::from_gd(20));
        assert!(Credits::MAX.checked_add(Credits::from_micro(1)).is_err());
        assert!(Credits::MAX.checked_mul(2).is_err());
    }

    #[test]
    fn ratio_pricing_rounds_half_up() {
        // 1 G$ per hour, for 30 minutes => 0.5 G$.
        let rate = Credits::from_gd(1);
        let cost = rate.mul_ratio(1_800_000, 3_600_000).unwrap();
        assert_eq!(cost, Credits::from_micro(500_000));
        // 1 µG$ * 1/2 rounds up to 1.
        assert_eq!(Credits::from_micro(1).mul_ratio(1, 2).unwrap(), Credits::from_micro(1));
        // 1 µG$ * 1/3 rounds down to 0.
        assert_eq!(Credits::from_micro(1).mul_ratio(1, 3).unwrap(), Credits::ZERO);
        // Negative amounts round symmetrically.
        assert_eq!(Credits::from_micro(-1).mul_ratio(1, 2).unwrap(), Credits::from_micro(-1));
        assert!(rate.mul_ratio(1, 0).is_err());
    }

    #[test]
    fn min_max_abs_neg() {
        let a = Credits::from_gd(2);
        let b = Credits::from_gd(-3);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(b.abs(), Credits::from_gd(3));
        assert_eq!(-a, Credits::from_gd(-2));
    }

    #[test]
    fn sum_saturates() {
        let total: Credits = vec![Credits::MAX, Credits::from_gd(1)].into_iter().sum();
        assert_eq!(total, Credits::MAX);
    }

    #[test]
    fn amounts_parse_from_decimal_text() {
        assert_eq!("12".parse::<Credits>().unwrap(), Credits::from_gd(12));
        assert_eq!("12.5".parse::<Credits>().unwrap(), Credits::from_micro(12_500_000));
        assert_eq!("0.000001".parse::<Credits>().unwrap(), Credits::from_micro(1));
        assert_eq!("-3.25".parse::<Credits>().unwrap(), Credits::from_micro(-3_250_000));
        assert_eq!("-0.5".parse::<Credits>().unwrap(), Credits::from_micro(-500_000));
        for refused in ["1.-5", "1.+5", "1.", ".", ".5", "+1", "-", "", "1.0000001", "abc", "1e3"] {
            assert!(refused.parse::<Credits>().is_err(), "{refused:?} must be refused");
        }
        let max = i128::MAX / MICRO_PER_GD;
        assert!(format!("{max}").parse::<Credits>().is_ok());
        assert!(format!("{}", max + 1).parse::<Credits>().is_err());
    }

    #[test]
    fn ceiling_division_and_weighted_mean() {
        let word = Credits::from_micro(300);
        assert_eq!(Credits::from_micro(900).div_ceil(word), 3);
        assert_eq!(Credits::from_micro(901).div_ceil(word), 4);
        assert_eq!(Credits::ZERO.div_ceil(word), 0);
        assert_eq!(Credits::from_micro(-5).div_ceil(word), 0);
        assert_eq!(Credits::from_micro(7).div_ceil(Credits::ZERO), 7);
        let pairs = [(Credits::from_micro(100), 1), (Credits::from_micro(200), 3)];
        assert_eq!(Credits::weighted_mean(pairs), Some(Credits::from_micro(175)));
        assert_eq!(Credits::weighted_mean([(Credits::from_micro(5), 0)]), None);
        assert_eq!(Credits::from_micro(-2).to_le_bytes(), (-2i128).to_le_bytes());
    }

    proptest! {
        #[test]
        fn add_sub_round_trips(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let ca = Credits::from_micro(a as i128);
            let cb = Credits::from_micro(b as i128);
            let sum = ca.checked_add(cb).unwrap();
            prop_assert_eq!(sum.checked_sub(cb).unwrap(), ca);
        }

        #[test]
        fn ratio_is_monotone_in_numerator(
            rate in 0i64..10_000_000,
            n1 in 0u64..1_000_000,
            n2 in 0u64..1_000_000,
            den in 1u64..1_000_000,
        ) {
            let r = Credits::from_micro(rate as i128);
            let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
            let a = r.mul_ratio(lo, den).unwrap();
            let b = r.mul_ratio(hi, den).unwrap();
            prop_assert!(a <= b);
        }

        #[test]
        fn ratio_full_denominator_is_identity(amount in -1_000_000_000i64..1_000_000_000, den in 1u64..1_000_000) {
            let c = Credits::from_micro(amount as i128);
            prop_assert_eq!(c.mul_ratio(den, den).unwrap(), c);
        }
    }
}
