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
//! Retries are on by default and switched off with
//! [`crate::ServeConfig::retry`]; the schedule itself is fixed:
//! [`RETRY_ATTEMPTS`] attempts per job, the `n`-th retry waiting
//! `500 µs * 2^(n-1)` capped at 50 ms, shortened by up to half by a
//! deterministic jitter factor.
//!
//! The backoff math lives here as a pure function of `(attempt, seed)` —
//! no RNG state, no clock — so the jitter bounds and the cap are
//! property-testable and a replayed fault schedule produces a replayed
//! retry schedule.

use std::time::Duration;

/// Total execution attempts per job, the first included. Only transient
/// failures retry — fatal faults and validation errors settle immediately.
pub(crate) const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry; retry `n` waits `RETRY_BASE * 2^(n-1)`,
/// capped at [`RETRY_CAP`].
const RETRY_BASE: Duration = Duration::from_micros(500);
/// Ceiling on any single backoff delay.
const RETRY_CAP: Duration = Duration::from_millis(50);
/// Jitter fraction: retry `n`'s delay is scaled by a deterministic factor
/// drawn from `[1 - RETRY_JITTER, 1]`, de-synchronising retry herds
/// without giving up replayability.
const RETRY_JITTER: f64 = 0.5;

/// Deterministic unit draw in `[0, 1)` — the SplitMix64 finalizer over
/// `(seed, attempt)`, dependency-free and identical across platforms.
fn unit(seed: u64, attempt: u32) -> f64 {
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The un-jittered delay before retry `attempt` (1-based):
/// `min(RETRY_BASE * 2^(attempt-1), RETRY_CAP)`.
fn undithered(attempt: u32) -> Duration {
    // 2^31 already saturates the cap; clamping the shift keeps the
    // arithmetic defined for absurd attempt numbers.
    let exp = attempt.saturating_sub(1).min(31);
    RETRY_BASE.saturating_mul(1u32 << exp).min(RETRY_CAP)
}

/// The delay before retry `attempt` (1-based: `1` is the first retry,
/// after the first failed attempt). Pure in `(attempt, seed)`.
///
/// Guarantees, property-tested below:
/// * never exceeds [`RETRY_CAP`];
/// * within `[undithered * (1 - RETRY_JITTER), undithered]`, where the
///   un-jittered schedule doubles from [`RETRY_BASE`] until it caps.
pub(crate) fn backoff_delay(attempt: u32, seed: u64) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    undithered(attempt).mul_f64(1.0 - RETRY_JITTER * unit(seed, attempt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{TenantConfig, TenantId, TenantState};
    use proptest::prelude::*;

    #[test]
    fn zero_attempt_is_inert() {
        assert_eq!(backoff_delay(0, 7), Duration::ZERO);
    }

    #[test]
    fn undithered_schedule_doubles_then_caps() {
        let delays: Vec<u64> = (1..=9).map(|a| undithered(a).as_micros() as u64).collect();
        // 500 µs doubling, capped at 50 ms from the eighth retry on (the
        // shipped RETRY_ATTEMPTS only ever reaches the first two).
        assert_eq!(
            delays,
            vec![500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 50_000, 50_000]
        );
        // Capping flattens the curve but never bends it back down.
        for attempt in 1..64 {
            assert!(undithered(attempt + 1) >= undithered(attempt));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cap is a hard ceiling for every (attempt, seed).
        #[test]
        fn delay_never_exceeds_cap(attempt in 1u32..200, seed in any::<u64>()) {
            prop_assert!(backoff_delay(attempt, seed) <= RETRY_CAP);
        }

        /// Jitter only ever shortens the delay, and by at most the jitter
        /// fraction: delay ∈ [undithered * (1 - jitter), undithered].
        #[test]
        fn jitter_stays_in_its_band(attempt in 1u32..64, seed in any::<u64>()) {
            let jittered = backoff_delay(attempt, seed);
            let undithered = undithered(attempt);
            prop_assert!(jittered <= undithered);
            // Strict lower bound with a small epsilon for the f64 round
            // trip through mul_f64.
            let floor = undithered.mul_f64(1.0 - RETRY_JITTER);
            prop_assert!(jittered + Duration::from_nanos(2) >= floor);
        }

        /// Same coordinates, same delay — the schedule is replayable.
        #[test]
        fn delay_is_deterministic(attempt in 1u32..64, seed in any::<u64>()) {
            prop_assert_eq!(backoff_delay(attempt, seed), backoff_delay(attempt, seed));
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
