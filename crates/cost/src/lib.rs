//! Cost model for approximate tree-pattern queries.
//!
//! This crate implements Definition 6 of Schlieder (EDBT 2002): every basic
//! query transformation (node insertion, deletion, renaming) has a
//! non-negative cost, and — in the "simplest variant" chosen by the paper —
//! costs are *bound to the labels* of the involved nodes.
//!
//! The defaults mirror Section 6 of the paper:
//!
//! * all unlisted **insert** costs are `1`,
//! * all unlisted **delete** and **rename** costs are *infinite*.
//!
//! [`Cost`] is a saturating integral cost with an explicit infinity, so the
//! bottom-up evaluation algorithms can add costs freely without overflow and
//! can represent "transformation not allowed" uniformly.

mod model;
mod parse;
pub mod tables;

pub use model::{CostModel, CostModelBuilder, CostModelError, NodeType};
pub use parse::{parse_cost_file, write_cost_file, CostFileError};

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A non-negative transformation or embedding cost with an explicit infinity.
///
/// Internally a `u64` where `u64::MAX` is reserved for [`Cost::INFINITY`].
/// Addition saturates at infinity, which models "a forbidden transformation
/// stays forbidden no matter what is added to it".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cost(u64);

impl Cost {
    /// The zero cost (an exact match / the empty transformation sequence).
    pub const ZERO: Cost = Cost(0);
    /// The cost of a forbidden transformation.
    pub const INFINITY: Cost = Cost(u64::MAX);

    /// Creates a finite cost. Panics if `v` equals the infinity sentinel.
    #[inline]
    pub fn finite(v: u64) -> Cost {
        assert!(
            v != u64::MAX,
            "Cost::finite called with the infinity sentinel"
        );
        Cost(v)
    }

    /// Creates a cost from a raw value; `u64::MAX` maps to infinity.
    #[inline]
    pub const fn from_raw(v: u64) -> Cost {
        Cost(v)
    }

    /// Returns `true` unless this is [`Cost::INFINITY`].
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.0 != u64::MAX
    }

    /// Returns the finite value, or `None` for infinity.
    #[inline]
    pub const fn value(self) -> Option<u64> {
        if self.is_finite() {
            Some(self.0)
        } else {
            None
        }
    }

    /// Raw representation (infinity is `u64::MAX`).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating addition: anything plus infinity is infinity.
    #[inline]
    pub fn saturating_add(self, rhs: Cost) -> Cost {
        // Infinity is `u64::MAX`: an infinite operand, an overflow and a sum
        // of exactly `u64::MAX` all saturate to it.
        Cost(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction between finite costs.
    ///
    /// Used for the `distance` computation of Section 6.2, where
    /// `pathcost(v) - pathcost(u) - inscost(u)` is taken between encoded
    /// nodes on the same root path. Returns `None` if either operand is
    /// infinite or the difference would be negative.
    #[inline]
    pub fn checked_sub(self, rhs: Cost) -> Option<Cost> {
        if self.is_finite() && rhs.is_finite() {
            self.0.checked_sub(rhs.0).map(Cost)
        } else {
            None
        }
    }

    /// The smaller of two costs.
    #[inline]
    pub fn min(self, rhs: Cost) -> Cost {
        Cost(self.0.min(rhs.0))
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::add)
    }
}

impl From<u64> for Cost {
    fn from(v: u64) -> Cost {
        Cost::finite(v)
    }
}

impl fmt::Debug for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "inf")
        }
    }
}

impl std::str::FromStr for Cost {
    type Err = std::num::ParseIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("inf") || s.eq_ignore_ascii_case("infinity") {
            return Ok(Cost::INFINITY);
        }
        s.parse::<u64>().map(Cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_finite() {
        assert!(Cost::ZERO.is_finite());
        assert_eq!(Cost::ZERO.value(), Some(0));
    }

    #[test]
    fn infinity_is_not_finite() {
        assert!(!Cost::INFINITY.is_finite());
        assert_eq!(Cost::INFINITY.value(), None);
    }

    #[test]
    fn addition_saturates_at_infinity() {
        assert_eq!(Cost::finite(3) + Cost::finite(4), Cost::finite(7));
        assert_eq!(Cost::finite(3) + Cost::INFINITY, Cost::INFINITY);
        assert_eq!(Cost::INFINITY + Cost::finite(3), Cost::INFINITY);
        assert_eq!(Cost::INFINITY + Cost::INFINITY, Cost::INFINITY);
    }

    #[test]
    fn addition_overflow_saturates() {
        let near_max = Cost::finite(u64::MAX - 2);
        assert_eq!(near_max + Cost::finite(100), Cost::INFINITY);
    }

    #[test]
    fn addition_and_min_at_the_boundaries() {
        let max_finite = Cost::finite(u64::MAX - 1);
        let below_max = Cost::finite(u64::MAX - 2);
        // Infinite operands.
        assert_eq!(Cost::INFINITY + Cost::ZERO, Cost::INFINITY);
        assert_eq!(Cost::ZERO + Cost::INFINITY, Cost::INFINITY);
        assert_eq!(max_finite + Cost::INFINITY, Cost::INFINITY);
        // The largest finite sum stays finite.
        assert_eq!(below_max + Cost::finite(1), max_finite);
        assert!((below_max + Cost::finite(1)).is_finite());
        assert_eq!(max_finite + Cost::ZERO, max_finite);
        // A sum landing exactly on the sentinel, and one past it.
        assert_eq!(below_max + Cost::finite(2), Cost::INFINITY);
        assert_eq!(max_finite + Cost::finite(1), Cost::INFINITY);
        assert_eq!(max_finite + max_finite, Cost::INFINITY);
        // `min` at the same boundaries.
        assert_eq!(max_finite.min(Cost::INFINITY), max_finite);
        assert_eq!(Cost::INFINITY.min(max_finite), max_finite);
        assert_eq!(Cost::INFINITY.min(Cost::INFINITY), Cost::INFINITY);
        assert_eq!(below_max.min(max_finite), below_max);
        assert_eq!(Cost::ZERO.min(Cost::ZERO), Cost::ZERO);
    }

    #[test]
    fn ordering_puts_infinity_last() {
        assert!(Cost::finite(1_000_000) < Cost::INFINITY);
        assert!(Cost::ZERO < Cost::finite(1));
    }

    #[test]
    fn checked_sub_between_finite() {
        assert_eq!(
            Cost::finite(9).checked_sub(Cost::finite(3)),
            Some(Cost::finite(6))
        );
        assert_eq!(Cost::finite(3).checked_sub(Cost::finite(9)), None);
        assert_eq!(Cost::INFINITY.checked_sub(Cost::finite(1)), None);
        assert_eq!(Cost::finite(1).checked_sub(Cost::INFINITY), None);
    }

    #[test]
    fn sum_of_costs() {
        let s: Cost = [1u64, 2, 3].into_iter().map(Cost::finite).sum();
        assert_eq!(s, Cost::finite(6));
        let s: Cost = [Cost::finite(1), Cost::INFINITY].into_iter().sum();
        assert_eq!(s, Cost::INFINITY);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        assert_eq!(format!("{}", Cost::finite(42)), "42");
        assert_eq!(format!("{}", Cost::INFINITY), "inf");
        assert_eq!("42".parse::<Cost>().unwrap(), Cost::finite(42));
        assert_eq!("inf".parse::<Cost>().unwrap(), Cost::INFINITY);
        assert_eq!("Infinity".parse::<Cost>().unwrap(), Cost::INFINITY);
    }

    #[test]
    #[should_panic]
    fn finite_rejects_sentinel() {
        let _ = Cost::finite(u64::MAX);
    }

    #[test]
    fn min_picks_smaller() {
        assert_eq!(Cost::finite(3).min(Cost::finite(5)), Cost::finite(3));
        assert_eq!(Cost::INFINITY.min(Cost::finite(5)), Cost::finite(5));
    }
}
