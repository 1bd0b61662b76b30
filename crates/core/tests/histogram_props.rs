//! Property tests for `HistogramSnapshot` and `ClassSnapshot` algebra.
//!
//! The sysplex-wide RMF report leans on exactly three facts about
//! snapshots: `merge` behaves like recording the concatenated sample
//! streams, `delta` followed by `merge` reconstructs the later snapshot's
//! distribution, and percentiles are monotone. These pin all three.
//!
//! One documented caveat: `delta` reports an interval `max_ns` that is
//! *bounded* (top non-empty delta bucket) rather than exact when the
//! interval did not raise the cumulative high-water mark — so the
//! delta-then-merge identity is exact on buckets/samples/total_ns, while
//! the max is only guaranteed to be a conservative upper bound.
//!
//! `ClassSnapshot` — one command class's accounting row — is cut, summed
//! and checked by `delta`, `merge` and `balanced` alone, everywhere from
//! the member meter to the RMF roll-up; the last three properties are
//! what those callers assume of them.

use proptest::prelude::*;
use sysplex_core::connection::ClassSnapshot;
use sysplex_core::stats::{Histogram, HistogramSnapshot};

/// Record every sample into a fresh histogram and snapshot it.
fn record_all(ns: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &n in ns {
        h.record_ns(n);
    }
    h.snapshot()
}

/// Latency samples spanning the interesting range: sub-µs bit tests up
/// through multi-second stalls.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000_000_000, 0..48)
}

/// A balanced accounting row: one latency sample per command, `converted`
/// of them (at most all) counted asynchronous, some faulted.
fn class_rows() -> impl Strategy<Value = ClassSnapshot> {
    (samples(), any::<u8>(), any::<u8>()).prop_map(|(ns, converted, faulted)| {
        let issued = ns.len() as u64;
        let async_converted = issued.min(converted as u64);
        ClassSnapshot {
            issued,
            sync: issued - async_converted,
            async_converted,
            faulted: issued.min(faulted as u64),
            latency: record_all(&ns),
        }
    })
}

/// The fields `delta` reconstructs exactly (`max_ns` is only bounded).
fn exact(row: &ClassSnapshot) -> ([u64; 6], [u64; 64]) {
    let l = &row.latency;
    ([row.issued, row.sync, row.async_converted, row.faulted, l.samples, l.total_ns], l.buckets)
}

proptest! {
    #[test]
    fn class_delta_undoes_merge(a in class_rows(), b in class_rows()) {
        let mut later = b.clone();
        later.merge(&a);
        prop_assert_eq!(exact(&later.delta(&b)), exact(&a));
    }

    #[test]
    fn class_delta_never_underflows(a in class_rows(), b in class_rows()) {
        // Whichever reading is "ahead" in whichever field, the interval
        // is a count, never a wrapped subtraction.
        let d = a.delta(&b);
        prop_assert!(d.issued <= a.issued && d.sync <= a.sync);
        prop_assert!(d.async_converted <= a.async_converted && d.faulted <= a.faulted);
        prop_assert!(d.latency.samples <= a.latency.samples && d.latency.total_ns <= a.latency.total_ns);
        prop_assert_eq!(exact(&b.delta(&b)), exact(&ClassSnapshot::default()));
    }

    #[test]
    fn balanced_survives_merge_and_delta(a in class_rows(), b in class_rows()) {
        prop_assert!(a.balanced() && b.balanced());
        let mut sum = a.clone();
        sum.merge(&b);
        prop_assert!(sum.balanced());
        prop_assert!(sum.delta(&a).balanced());
        // And the predicate is not vacuous: a lost sample unbalances it.
        let mut short = sum.clone();
        short.issued += 1;
        prop_assert!(!short.balanced());
    }

    #[test]
    fn merge_equals_recording_concatenated_samples(a in samples(), b in samples()) {
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, record_all(&concat));
    }

    #[test]
    fn delta_then_merge_rebuilds_the_later_distribution(a in samples(), b in samples()) {
        let h = Histogram::new();
        for &n in &a {
            h.record_ns(n);
        }
        let earlier = h.snapshot();
        for &n in &b {
            h.record_ns(n);
        }
        let later = h.snapshot();
        let delta = later.delta(&earlier);

        // The interval delta is exactly the second batch's distribution.
        prop_assert_eq!(&delta.buckets, &record_all(&b).buckets);
        prop_assert_eq!(delta.samples, b.len() as u64);
        prop_assert_eq!(delta.total_ns, b.iter().sum::<u64>());
        // Its max is a conservative bound on every interval sample.
        for &n in &b {
            prop_assert!(delta.max_ns >= n, "delta max {} < sample {}", delta.max_ns, n);
        }

        // Merging the delta back onto the baseline reconstructs the later
        // snapshot's distribution exactly (max is only bounded, see above).
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(&rebuilt.buckets, &later.buckets);
        prop_assert_eq!(rebuilt.samples, later.samples);
        prop_assert_eq!(rebuilt.total_ns, later.total_ns);
        prop_assert!(rebuilt.max_ns >= later.max_ns);
    }

    #[test]
    fn percentiles_are_monotone(a in samples()) {
        let snap = record_all(&a);
        let p50 = snap.quantile_ns(0.50);
        let p95 = snap.quantile_ns(0.95);
        let p99 = snap.quantile_ns(0.99);
        prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        prop_assert!(p99 <= snap.max_ns.max(1), "p99 {p99} above max {}", snap.max_ns);
    }
}
