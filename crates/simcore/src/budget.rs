//! Watchdog cycle budgets: a hard upper bound on simulated work.
//!
//! Fault injection (and plain configuration mistakes) can push an engine
//! into pathological schedules — retry storms, oversized workloads — that
//! would otherwise run unboundedly long. A [`CycleBudget`] is the
//! engines' watchdog: every run loop checks its accumulated simulated
//! cycles against the budget and aborts with
//! [`SimError::BudgetExceeded`] instead of hanging.

use crate::error::SimError;

/// A hard limit on simulated cycles for one kernel run.
///
/// The default is [`CycleBudget::UNLIMITED`], so existing configurations
/// change behaviour only when a driver opts in. Checks are a single
/// compare against a plain `u64`, cheap enough for per-operation use in
/// engine hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleBudget {
    limit: u64,
}

impl CycleBudget {
    /// No limit: the watchdog never fires.
    pub const UNLIMITED: CycleBudget = CycleBudget { limit: u64::MAX };

    /// A budget of exactly `limit` simulated cycles.
    #[must_use]
    pub fn limited(limit: u64) -> Self {
        CycleBudget { limit }
    }

    /// The raw limit (`u64::MAX` means unlimited).
    #[must_use]
    pub fn limit(self) -> u64 {
        self.limit
    }

    /// True when this budget can never fire.
    #[must_use]
    pub fn is_unlimited(self) -> bool {
        self.limit == u64::MAX
    }

    /// Checks `spent` simulated cycles against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] once `spent` passes the limit.
    #[inline]
    pub fn check(self, spent: u64) -> Result<(), SimError> {
        if spent > self.limit {
            Err(SimError::BudgetExceeded { spent, limit: self.limit })
        } else {
            Ok(())
        }
    }
}

impl Default for CycleBudget {
    fn default() -> Self {
        CycleBudget::UNLIMITED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fires() {
        let b = CycleBudget::default();
        assert!(b.is_unlimited());
        assert!(b.check(0).is_ok());
        assert!(b.check(u64::MAX).is_ok());
    }

    #[test]
    fn limited_fires_only_past_the_limit() {
        let b = CycleBudget::limited(100);
        assert!(!b.is_unlimited());
        assert!(b.check(99).is_ok());
        assert!(b.check(100).is_ok());
        let err = b.check(101).unwrap_err();
        assert_eq!(err, SimError::BudgetExceeded { spent: 101, limit: 100 });
        assert!(err.to_string().contains("101"));
        assert!(err.to_string().contains("100"));
    }

    #[test]
    fn limit_roundtrips() {
        assert_eq!(CycleBudget::limited(7).limit(), 7);
        assert_eq!(CycleBudget::UNLIMITED.limit(), u64::MAX);
    }
}
