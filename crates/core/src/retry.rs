//! The member session's retry budget: seeded, bounded, with exponential
//! backoff.
//!
//! A CF command over TCP is retried in exactly one place: the member
//! session (`sysplex_services::transport::RemoteSysplex::connect_resilient`),
//! which re-dials, re-admits with its resume token and re-sends, up to
//! [`RetryPolicy::budget`] sends per request in all. The connections and
//! transports below it issue each command once and hand back whatever
//! came of it. One budget with backoff, not a product of nested ones, is
//! what the distributed-locking retry analysis in PAPERS.md reasons
//! about: a link fault costs at most `budget` sends and
//! `budget - 1` backoffs, and a struggling server is not stampeded.
//!
//! Only link faults are retried. An answer — a structure error,
//! `Denied`, `Fenced` — is sent once and surfaces as it came.
//!
//! Policies are seeded: the jitter stream derives from a SplitMix64-style
//! mix of the seed, so a chaos campaign that pins its seeds replays the
//! same backoff schedule. A policy prints as a copy-pasteable builder
//! chain (`RetryPolicy::seeded(0xC0FFEE).attempts(5).backoff_ms(2,
//! 250)`), mirroring the harness fault-plan DSL.
//!
//! **At most once.** A re-send keeps the number of its first send, and
//! the server answers a repeat of the last request it served from the
//! stored reply, so within one incarnation a command is served at most
//! once however often it is sent. A command whose every send failed may
//! or may not have been served: exploiters that retry uniquely-keyed work
//! under a new incarnation must reconcile duplicates by key — the
//! debit-credit campaigns do exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The session's retry budget: how many sends a request gets, and the
/// backoff between them.
#[derive(Debug)]
pub struct RetryPolicy {
    seed: u64,
    attempts: u32,
    base_backoff_ms: u64,
    max_backoff_ms: u64,
    /// Jitter stream position; advancing it is the only mutation `delay`
    /// performs, so policies are shared behind `&self`.
    salt: AtomicU64,
}

impl RetryPolicy {
    /// A policy with the default budget (5 sends, 2 ms..250 ms backoff)
    /// and a seeded jitter stream.
    pub fn seeded(seed: u64) -> Self {
        RetryPolicy { seed, attempts: 5, base_backoff_ms: 2, max_backoff_ms: 250, salt: AtomicU64::new(0) }
    }

    /// Builder: total sends per request. A budget of 1 means a single
    /// try with no retry.
    pub fn attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Builder: backoff window. The n-th retry sleeps an exponentially
    /// grown slice of `base`, jittered, capped at `max`.
    pub fn backoff_ms(mut self, base: u64, max: u64) -> Self {
        self.base_backoff_ms = base;
        self.max_backoff_ms = max.max(base);
        self
    }

    /// Total sends per request.
    pub fn budget(&self) -> u32 {
        self.attempts
    }

    // SplitMix64 output function over (seed, position): the same mixer the
    // harness RNG uses, inlined here because core cannot depend on the
    // harness crate. Identical seeds replay identical jitter.
    fn next_jitter(&self) -> u64 {
        let position = self.salt.fetch_add(1, Ordering::Relaxed);
        let mut z = self.seed.wrapping_add(position.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Backoff before retry number `attempt` (1-based): exponential with
    /// half jitter — `cap/2 + uniform(0, cap/2)` where `cap = min(base *
    /// 2^(attempt-1), max)`. Advances the jitter stream.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let cap = self.base_backoff_ms.saturating_mul(1u64 << exp).min(self.max_backoff_ms);
        if cap == 0 {
            return Duration::ZERO;
        }
        let half = cap / 2;
        let jitter = if cap - half == 0 { 0 } else { self.next_jitter() % (cap - half + 1) };
        Duration::from_millis(half + jitter)
    }
}

impl std::fmt::Display for RetryPolicy {
    /// Copy-pasteable builder chain, mirroring the fault-plan DSL.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RetryPolicy::seeded({:#x}).attempts({}).backoff_ms({}, {})",
            self.seed, self.attempts, self.base_backoff_ms, self.max_backoff_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let a = RetryPolicy::seeded(0xC0FFEE).backoff_ms(2, 250);
        let b = RetryPolicy::seeded(0xC0FFEE).backoff_ms(2, 250);
        for attempt in 1..=10 {
            let da = a.delay(attempt);
            let db = b.delay(attempt);
            assert_eq!(da, db, "same seed, same jitter stream");
            assert!(da <= Duration::from_millis(250), "capped at max");
        }
        let c = RetryPolicy::seeded(0xDEAD_BEEF).backoff_ms(2, 250);
        let d = RetryPolicy::seeded(0xC0FFEE).backoff_ms(2, 250);
        let differs = (1..=10).any(|i| d.delay(i) != c.delay(i));
        assert!(differs, "different seeds should diverge somewhere");
    }

    #[test]
    fn display_is_copy_pasteable_builder_syntax() {
        let p = RetryPolicy::seeded(0xC0FFEE).attempts(5).backoff_ms(2, 250);
        assert_eq!(p.to_string(), "RetryPolicy::seeded(0xc0ffee).attempts(5).backoff_ms(2, 250)");
    }
}
