//! Retry policy for transient backend failures: capped exponential
//! backoff with deterministic jitter.
//!
//! Ops are pure call descriptions and a transient
//! [`adsala_blas3::Blas3Error::BackendFault`] is raised **before** any
//! operand is written (see `adsala_blas3::fault`), so re-executing the
//! identical call is safe. What is *not* free is capacity: a retry
//! occupies the tenant's backlog budget again for the attempt's duration
//! ([`crate::TenantConfig::backlog_budget_secs`]), so a tenant hammering
//! a failing path pays for its own retries instead of billing the
//! service.
//!
//! The backoff math lives here as pure functions of
//! `(policy, attempt, seed)` — no RNG state, no clock — so the jitter
//! bounds and cap monotonicity are property-testable and a replayed
//! fault schedule produces a replayed retry schedule.

use std::time::Duration;

/// Knobs of the transient-failure retry loop, set per service through
/// [`crate::ServeConfig::retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total execution attempts per job, the first included (`1` disables
    /// retries; `0` is treated as `1`). Only transient failures retry —
    /// fatal faults and validation errors settle immediately.
    pub max_attempts: u32,
    /// Backoff before the first retry; attempt `n` waits
    /// `base * 2^(n-1)`, capped.
    pub base: Duration,
    /// Ceiling on any single backoff delay.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: attempt `n`'s delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1]`, de-synchronising
    /// retry herds without giving up replayability.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(500),
            cap: Duration::from_millis(50),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Deterministic unit draw in `[0, 1)` — the SplitMix64 finalizer over
/// `(seed, attempt)`, dependency-free and identical across platforms.
fn unit(seed: u64, attempt: u32) -> f64 {
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The delay before retry `attempt` (1-based: `1` is the first retry,
/// after the first failed attempt). Pure in `(policy, attempt, seed)`.
///
/// Guarantees, property-tested below:
/// * never exceeds `policy.cap`;
/// * with `jitter == 0`, exactly `min(base * 2^(attempt-1), cap)`, which
///   is monotone non-decreasing in `attempt`;
/// * with jitter, within `[undithered * (1 - jitter), undithered]`.
pub fn backoff_delay(policy: &RetryPolicy, attempt: u32, seed: u64) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    // 2^31 already saturates any sane base/cap pair; clamping the shift
    // keeps the arithmetic defined for absurd attempt numbers.
    let exp = (attempt - 1).min(31);
    let raw = policy.base.saturating_mul(1u32 << exp).min(policy.cap);
    let jitter = policy.jitter.clamp(0.0, 1.0);
    if jitter == 0.0 {
        return raw;
    }
    let factor = 1.0 - jitter * unit(seed, attempt);
    raw.mul_f64(factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{TenantConfig, TenantId, TenantState};
    use proptest::prelude::*;

    #[test]
    fn zero_attempt_and_disabled_policy_are_inert() {
        let p = RetryPolicy::default();
        assert_eq!(backoff_delay(&p, 0, 7), Duration::ZERO);
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn jitter_free_backoff_doubles_then_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            jitter: 0.0,
        };
        let delays: Vec<Duration> = (1..=5).map(|a| backoff_delay(&p, a, 0)).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(1),
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(5), // capped (would be 8)
                Duration::from_millis(5),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cap is a hard ceiling for every (attempt, seed, jitter).
        #[test]
        fn delay_never_exceeds_cap(
            attempt in 1u32..200,
            seed in any::<u64>(),
            base_us in 1u64..10_000,
            cap_us in 1u64..100_000,
            jitter in 0.0f64..=1.0,
        ) {
            let p = RetryPolicy {
                max_attempts: u32::MAX,
                base: Duration::from_micros(base_us),
                cap: Duration::from_micros(cap_us),
                jitter,
            };
            prop_assert!(backoff_delay(&p, attempt, seed) <= p.cap);
        }

        /// Without jitter the schedule is monotone non-decreasing — the
        /// "cap monotonicity" contract: capping can flatten the curve but
        /// never bend it back down.
        #[test]
        fn unjittered_schedule_is_monotone(
            base_us in 1u64..10_000,
            cap_us in 1u64..100_000,
        ) {
            let p = RetryPolicy {
                max_attempts: u32::MAX,
                base: Duration::from_micros(base_us),
                cap: Duration::from_micros(cap_us),
                jitter: 0.0,
            };
            let mut prev = Duration::ZERO;
            for attempt in 1..64 {
                let d = backoff_delay(&p, attempt, 0);
                prop_assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
                prev = d;
            }
        }

        /// Jitter only ever shortens the delay, and by at most the jitter
        /// fraction: delay ∈ [undithered * (1 - jitter), undithered].
        #[test]
        fn jitter_stays_in_its_band(
            attempt in 1u32..64,
            seed in any::<u64>(),
            jitter in 0.0f64..=1.0,
        ) {
            let mut p = RetryPolicy {
                max_attempts: u32::MAX,
                base: Duration::from_micros(700),
                cap: Duration::from_millis(80),
                jitter,
            };
            let jittered = backoff_delay(&p, attempt, seed);
            p.jitter = 0.0;
            let undithered = backoff_delay(&p, attempt, 0);
            prop_assert!(jittered <= undithered);
            // Strict lower bound with a small epsilon for the f64 round
            // trip through mul_f64.
            let floor = undithered.mul_f64((1.0 - jitter).max(0.0));
            prop_assert!(jittered + Duration::from_nanos(2) >= floor);
        }

        /// Same coordinates, same delay — the schedule is replayable.
        #[test]
        fn delay_is_deterministic(attempt in 1u32..64, seed in any::<u64>()) {
            let p = RetryPolicy::default();
            prop_assert_eq!(
                backoff_delay(&p, attempt, seed),
                backoff_delay(&p, attempt, seed)
            );
        }

        /// Budget accounting round-trips: each retry charges the tenant's
        /// backlog gauge for the attempt and settles it after, so after
        /// any charge/settle ladder of a retried job the gauge is exactly
        /// back to the admission charge — and zero once that settles too.
        #[test]
        fn retry_budget_accounting_round_trips(
            retries in 0usize..10,
            secs in 1e-6f64..10.0,
        ) {
            let t = TenantState::new(TenantId(0), TenantConfig::default());
            t.charge(secs); // admission
            for _ in 0..retries {
                t.charge(secs); // retry occupies the budget again...
                prop_assert!(t.queued_secs() >= 2.0 * secs - 1e-6);
                t.settle(secs); // ...and releases it when the attempt ends
            }
            let after_retries = t.queued_secs();
            prop_assert!((after_retries - secs).abs() < 1e-6);
            t.settle(secs); // final settle of the admission charge
            prop_assert!(t.queued_secs() < 1e-9);
        }
    }
}
