//! The one retry policy in the codebase: deterministic seeded
//! exponential backoff with equal jitter.
//!
//! Both retry sites — servectl reconnecting to a daemon that has not
//! bound yet, and resubmitting after a typed `queue-full` rejection —
//! share this policy, so there is exactly one place that decides how
//! long to wait. Determinism is load-bearing, like everywhere else in
//! the workspace: for a fixed seed the schedule is byte-identical
//! across runs and platforms, so tests pin it exactly instead of
//! asserting "roughly exponential".
//!
//! The jitter is *equal jitter*: attempt `n` waits somewhere in
//! `[exp/2, exp]` where `exp = min(base << n, cap)`. That keeps the
//! lower bound growing (so retries genuinely back off) while decorrelating
//! a thundering herd of clients that all saw the same rejection.
//! The per-attempt draw comes from splitmix64 over `(seed, attempt)` —
//! the same generator family the fault-injection subsystem uses, and
//! dependency-free.

use std::time::Duration;

/// A bounded, deterministic retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// How many retries (attempts after the first try) are allowed.
    pub retries: u32,
    /// The delay scale for attempt 0.
    pub base: Duration,
    /// The exponential growth ceiling.
    pub cap: Duration,
    /// The jitter seed.
    pub seed: u64,
}

/// splitmix64: a tiny, high-quality 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Backoff {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> Backoff {
        Backoff::exponential(0, Duration::ZERO, 0)
    }

    /// A seeded exponential policy with equal jitter, capped at
    /// `base * 64`.
    #[must_use]
    pub fn exponential(retries: u32, base: Duration, seed: u64) -> Backoff {
        Backoff { retries, base, cap: base.saturating_mul(64), seed }
    }

    /// The wait before retry `attempt` (0-based). Deterministic: the
    /// same `(policy, attempt)` always yields the same duration.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp =
            self.base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX)).min(self.cap);
        // Equal jitter: draw uniformly from [exp/2, exp].
        let span = exp.as_nanos() as u64 / 2;
        let draw = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x1000_0000_01b3));
        let jitter = if span == 0 { 0 } else { draw % (span + 1) };
        exp / 2 + Duration::from_nanos(jitter)
    }

    /// The full schedule, one entry per allowed retry. Tests pin this
    /// byte-for-byte for fixed seeds.
    #[must_use]
    pub fn schedule(&self) -> Vec<Duration> {
        (0..self.retries).map(|attempt| self.delay(attempt)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_has_an_empty_schedule() {
        assert_eq!(Backoff::none().schedule(), Vec::<Duration>::new());
        assert_eq!(Backoff::none().retries, 0);
    }

    #[test]
    fn exponential_delays_grow_and_stay_within_the_jitter_window() {
        let b = Backoff::exponential(8, Duration::from_millis(10), 7);
        for attempt in 0..8 {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(640));
            let d = b.delay(attempt);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // The cap holds: far-out attempts never exceed base * 64.
        assert!(b.delay(30) <= Duration::from_millis(640));
    }

    #[test]
    fn schedules_are_byte_identical_for_a_fixed_seed() {
        let a = Backoff::exponential(5, Duration::from_millis(100), 42).schedule();
        let b = Backoff::exponential(5, Duration::from_millis(100), 42).schedule();
        assert_eq!(a, b);
        // And differ (somewhere) for a different seed — jitter is real.
        let c = Backoff::exponential(5, Duration::from_millis(100), 43).schedule();
        assert_ne!(a, c);
    }

    /// The connect budget scripts use (`--retries 7` at the default
    /// 100 ms base) waits 6.35–12.7 s in total whatever the seed: half
    /// and all of 100 + 200 + … + 6400 ms, the last step at the cap.
    #[test]
    fn seven_retries_at_the_default_base_wait_between_6_35_and_12_7_seconds() {
        for seed in 0..64 {
            let schedule = Backoff::exponential(7, Duration::from_millis(100), seed).schedule();
            assert_eq!(schedule.len(), 7);
            let total: Duration = schedule.iter().sum();
            assert!(
                total >= Duration::from_millis(6_350) && total <= Duration::from_millis(12_700),
                "seed {seed}: {total:?}"
            );
        }
    }

    /// The canonical servectl policy (`--retries 5 --backoff-ms 100`,
    /// seed 42) pinned exactly. If the generator, the jitter rule, or
    /// the mixing constant changes, this fails — deliberately: the
    /// schedule is part of the deterministic surface.
    #[test]
    fn the_default_servectl_schedule_is_pinned() {
        let schedule = Backoff::exponential(5, Duration::from_millis(100), 42).schedule();
        let nanos: Vec<u128> = schedule.iter().map(Duration::as_nanos).collect();
        assert_eq!(nanos, vec![66_130_230, 189_038_237, 381_112_060, 551_184_956, 872_999_372]);
    }
}
