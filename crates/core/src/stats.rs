//! Contention-free statistics counters and the shared latency histogram.
//!
//! The experiments (E10, E11, E2/E3) report rates such as the fraction of
//! lock requests granted CPU-synchronously. Counters sit on the hot path of
//! every CF command, so what matters is *which cache line* a count lands
//! on. Three shapes, all relaxed atomics:
//!
//! * [`Counter`] — a standalone event counter on its own line, for stats
//!   blocks one component owns (IRLM, buffer manager, database).
//! * [`PackedCounter`] and [`Histogram`] — unpadded words, meant to sit
//!   *inside* a line-aligned cell that one issuer writes (the
//!   per-subchannel accounting cell of `connection.rs`).
//! * [`SlotCounter`] — one structure-wide event counter kept as 32
//!   per-connector-slot words; the slots of all counters of one stats
//!   block share a row per connector, one 128-byte line each, and the rare
//!   reader sums them (the distributed-counter idiom: physical counters
//!   spread over the participants).
//!
//! [`Histogram`] is the single log₂-bucketed latency histogram shared by the
//! subchannel command path, the workload drivers, and the Monitor's CF
//! Activity Report. Interval reporting goes through [`Histogram::snapshot`] /
//! [`HistogramSnapshot::delta`] so per-interval percentiles and `max` are
//! not contaminated by earlier intervals.
//!
//! A snapshot copies every bucket, so nothing on a command path takes
//! one. The command accounting's histograms are snapshotted as part of a
//! [`ClassSnapshot`](crate::connection::ClassSnapshot) — the one row type
//! that embeds a `HistogramSnapshot` — by whoever produces a record, a
//! report or a bench phase, at that moment only.

use crate::types::{ConnId, MAX_CONNECTORS};
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A single monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(CachePadded<AtomicU64>);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(CachePadded::new(AtomicU64::new(0)))
    }

    /// Record one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (between benchmark phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A [`Counter`] without a cache line of its own: one word of a
/// line-aligned cell whose owner decides what it shares a line with.
#[derive(Debug, Default)]
pub struct PackedCounter(AtomicU64);

impl PackedCounter {
    /// New counter at zero.
    pub const fn new() -> Self {
        PackedCounter(AtomicU64::new(0))
    }

    /// Record one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Counters per [`SlotCounter`] block: one connector's row is 64 bytes of
/// words inside its own 128-byte line.
const SLOT_ROW_WORDS: usize = 8;

type SlotRows = [CachePadded<[AtomicU64; SLOT_ROW_WORDS]>; MAX_CONNECTORS];

/// One structure-wide event counter kept per connector slot.
///
/// Every structure operation names its connector, so the count lands in
/// that connector's row and two connectors never write the same line;
/// [`SlotCounter::get`] sums the 32 slots. The counters of one stats block
/// ([`SlotCounter::block`]) are columns of one shared row set, so a block
/// costs 32 lines however many counters it has.
pub struct SlotCounter {
    rows: Arc<SlotRows>,
    col: usize,
}

impl SlotCounter {
    /// The `N` counters of one stats block, all at zero.
    pub fn block<const N: usize>() -> [SlotCounter; N] {
        const { assert!(N <= SLOT_ROW_WORDS) };
        let rows: Arc<SlotRows> = Arc::new(std::array::from_fn(|_| CachePadded::new(Default::default())));
        std::array::from_fn(|col| SlotCounter { rows: Arc::clone(&rows), col })
    }

    #[inline]
    fn word(&self, conn: ConnId) -> &AtomicU64 {
        &self.rows[conn.index() % MAX_CONNECTORS][self.col]
    }

    /// Record one event by `conn`.
    #[inline]
    pub fn incr(&self, conn: ConnId) {
        self.word(conn).fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` events by `conn`.
    #[inline]
    pub fn add(&self, conn: ConnId, n: u64) {
        self.word(conn).fetch_add(n, Ordering::Relaxed);
    }

    /// Structure-wide value: the sum over every connector slot.
    pub fn get(&self) -> u64 {
        self.rows.iter().map(|row| row[self.col].load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for SlotCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotCounter({})", self.get())
    }
}

/// Ratio helper: `num / den` as a fraction, 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Number of power-of-two buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds; bucket 0 additionally absorbs 0–1 ns.
/// 64 buckets cover the full `u64` nanosecond range, so nothing saturates
/// into a lower bucket.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free power-of-two latency histogram.
///
/// Relaxed atomics, safe to record into from any thread, and unpadded:
/// 67 adjacent words, the scalars first so a sample touches two or three
/// lines. Writers that must not disturb each other get a histogram each
/// and merge on read ([`Histogram::absorb`], [`HistogramSnapshot::merge`]).
/// Resolution is one binary order of magnitude, which is plenty to
/// separate the paper's cost tiers (ns local bit tests, µs sync CF
/// commands, tens of µs async completions, ms DASD I/O).
#[derive(Debug)]
pub struct Histogram {
    total_ns: AtomicU64,
    samples: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub const fn new() -> Self {
        Histogram {
            total_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    fn bucket_of(ns: u64) -> usize {
        63 - ns.max(1).leading_zeros() as usize
    }

    fn bucket_bound_ns(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Record one observed latency.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one observed latency in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        // A new high-water mark is rare: pay the RMW only then.
        if ns > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Add every sample of `other` (counts and buckets add, `max` is the
    /// larger): how per-writer histograms become one on the read side.
    pub fn absorb(&self, other: &HistogramSnapshot) {
        for (b, n) in self.buckets.iter().zip(other.buckets.iter()) {
            b.fetch_add(*n, Ordering::Relaxed);
        }
        self.total_ns.fetch_add(other.total_ns, Ordering::Relaxed);
        self.samples.fetch_add(other.samples, Ordering::Relaxed);
        self.max.fetch_max(other.max_ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Number of recorded samples (workload-style name).
    pub fn count(&self) -> u64 {
        self.samples()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns.load(Ordering::Relaxed), self.samples())
    }

    /// Mean sample as a duration.
    pub fn mean(&self) -> Duration {
        match self.samples() {
            0 => Duration::ZERO,
            n => Duration::from_nanos(self.total_ns.load(Ordering::Relaxed) / n),
        }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns())
    }

    /// Upper bound (ns) of the bucket containing the `p`-quantile,
    /// `0.0 < p <= 1.0`. Returns 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        self.snapshot().quantile_ns(p)
    }

    /// Approximate percentile, `0.0 < p <= 100.0` (upper bound of the
    /// bucket containing it, clamped to the observed max).
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(self.quantile_ns(p / 100.0))
    }

    /// Point-in-time copy of the histogram for interval math and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            samples: self.samples(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns(),
        }
    }

    /// Reset all buckets (between benchmark phases).
    pub fn reset(&self) {
        for b in self.buckets.iter().chain([&self.total_ns, &self.samples, &self.max]) {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Summary row over a measured wall-clock interval.
    pub fn summary(&self, wall: Duration) -> Summary {
        self.snapshot().summary(wall)
    }
}

/// An owned, immutable copy of a [`Histogram`] at one instant.
///
/// Snapshots subtract ([`delta`](Self::delta)) and add
/// ([`merge`](Self::merge)), which is what the Monitor uses to report
/// per-interval percentiles instead of cumulative ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub samples: u64,
    /// Sum of all samples in nanoseconds.
    pub total_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub const fn empty() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], samples: 0, total_ns: 0, max_ns: 0 }
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Accumulate another snapshot into this one (cross-system roll-ups).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += n;
        }
        self.samples += other.samples;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded between `earlier` and `self` (interval delta).
    ///
    /// `max_ns` is exact when the interval raised the high-water mark;
    /// otherwise it is bounded by the top non-empty delta bucket, so an old
    /// outlier from a previous interval is never re-reported.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut top = None;
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
            if *slot > 0 {
                top = Some(i);
            }
        }
        let max_ns = if self.max_ns > earlier.max_ns {
            self.max_ns
        } else {
            top.map(Histogram::bucket_bound_ns).unwrap_or(0)
        };
        HistogramSnapshot {
            buckets,
            samples: self.samples.saturating_sub(earlier.samples),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            max_ns,
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns, self.samples)
    }

    /// Upper bound (ns) of the bucket containing the `p`-quantile,
    /// `0.0 < p <= 1.0`, clamped to the observed max. Returns 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((self.samples as f64 * p).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_bound_ns(i).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Approximate percentile, `0.0 < p <= 100.0`.
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(self.quantile_ns(p / 100.0))
    }

    /// Summary row over a measured wall-clock interval.
    pub fn summary(&self, wall: Duration) -> Summary {
        Summary {
            count: self.samples,
            mean: Duration::from_nanos(self.mean_ns() as u64),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: Duration::from_nanos(self.max_ns),
            throughput_per_s: if wall.is_zero() { 0.0 } else { self.samples as f64 / wall.as_secs_f64() },
        }
    }
}

/// Experiment-report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Median (bucketed).
    pub p50: Duration,
    /// 95th percentile (bucketed).
    pub p95: Duration,
    /// 99th percentile (bucketed).
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
    /// Completions per second over the measured wall time.
    pub throughput_per_s: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} tps={:.0} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}",
            self.count, self.throughput_per_s, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Duration::from_micros(220));
        assert_eq!(h.max(), Duration::from_micros(1000));
        let s = h.summary(Duration::from_secs(1));
        assert_eq!(s.count, 5);
        assert!((s.throughput_per_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_bracket_samples() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.percentile(50.0);
        // Exact p50 is 500µs; bucketed answer lands within its power of 2.
        assert!(p50 >= Duration::from_micros(256) && p50 <= Duration::from_micros(1024), "{p50:?}");
        assert!(h.percentile(99.0) >= h.percentile(50.0));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(99.0), Duration::ZERO);
        assert_eq!(h.summary(Duration::from_secs(1)).throughput_per_s, 0.0);
    }

    #[test]
    fn reset_clears_including_max() {
        let h = Histogram::new();
        h.record(Duration::from_millis(5));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn snapshot_delta_isolates_intervals() {
        let h = Histogram::new();
        // Interval 1: one huge outlier.
        h.record(Duration::from_secs(2));
        let s1 = h.snapshot();
        assert_eq!(s1.max_ns, 2_000_000_000);
        // Interval 2: only fast samples.
        for _ in 0..100 {
            h.record(Duration::from_micros(3));
        }
        let s2 = h.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.samples, 100);
        // The 2 s outlier from interval 1 must not leak into interval 2's
        // percentiles or max (the pre-unification reset-less bug).
        assert!(d.percentile(99.0) < Duration::from_millis(1), "{:?}", d.percentile(99.0));
        assert!(d.max_ns < 1_000_000, "{}", d.max_ns);
        // A new high-water mark in the interval is reported exactly.
        h.record(Duration::from_secs(4));
        let d2 = h.snapshot().delta(&s2);
        assert_eq!(d2.max_ns, 4_000_000_000);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.samples, 2);
        assert_eq!(m.max_ns, 1_000_000);
        assert_eq!(m.total_ns, 1_010_000);
    }

    /// The read-side sum of N per-writer histograms is the histogram one
    /// shared writer would have produced: same buckets, counts and max.
    #[test]
    fn merged_cells_equal_one_histogram_fed_the_same_samples() {
        let cells: Vec<Histogram> = (0..5).map(|_| Histogram::new()).collect();
        let one = Histogram::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..10_000 {
            // xorshift: samples spread over ~40 octaves.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = x >> (x % 40 + 20);
            cells[i % cells.len()].record_ns(ns);
            one.record_ns(ns);
        }
        let mut merged = HistogramSnapshot::empty();
        let absorbed = Histogram::new();
        for cell in &cells {
            merged.merge(&cell.snapshot());
            absorbed.absorb(&cell.snapshot());
        }
        assert_eq!(merged, one.snapshot());
        assert_eq!(absorbed.snapshot(), one.snapshot());
        // And the snapshot/delta contract holds on the merged view.
        let before = merged.clone();
        cells[0].record_ns(7);
        let mut after = HistogramSnapshot::empty();
        cells.iter().for_each(|c| after.merge(&c.snapshot()));
        let d = after.delta(&before);
        assert_eq!((d.samples, d.total_ns, d.buckets[2]), (1, 7, 1));
    }

    #[test]
    fn max_is_raised_only_by_larger_samples() {
        let h = Histogram::new();
        for ns in [5u64, 900, 30, 900, 2] {
            h.record_ns(ns);
        }
        assert_eq!(h.max_ns(), 900);
        h.record_ns(901);
        assert_eq!(h.max_ns(), 901);
    }

    #[test]
    fn slot_counters_sum_over_connectors() {
        let [a, b]: [SlotCounter; 2] = SlotCounter::block();
        std::thread::scope(|s| {
            for slot in 0..4u8 {
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    let conn = ConnId::from_raw(slot * 7);
                    for _ in 0..10_000 {
                        a.incr(conn);
                    }
                    b.add(conn, slot as u64);
                });
            }
        });
        assert_eq!(a.get(), 40_000);
        assert_eq!(b.get(), 1 + 2 + 3);
        assert_eq!(format!("{a:?}"), "SlotCounter(40000)");
    }

    /// Placement: the counters of one block share a connector's row, and
    /// two connectors' rows never share a 128-byte line.
    #[test]
    fn connector_slots_sit_on_their_own_lines() {
        let [first, last]: [SlotCounter; 2] = SlotCounter::block();
        let line = |c: &SlotCounter, slot: usize| {
            c.word(ConnId::from_raw(slot as u8)) as *const AtomicU64 as usize / 128
        };
        let lines: std::collections::HashSet<usize> = (0..MAX_CONNECTORS).map(|s| line(&first, s)).collect();
        assert_eq!(lines.len(), MAX_CONNECTORS, "one line per connector slot");
        for slot in 0..MAX_CONNECTORS {
            assert_eq!(line(&first, slot), line(&last, slot), "a block's counters share the slot's row");
        }
        assert_eq!(std::mem::size_of::<SlotRows>(), MAX_CONNECTORS * 128);
        // Unpadded where padding buys nothing: a histogram is its words.
        assert_eq!(std::mem::size_of::<Histogram>(), (HIST_BUCKETS + 3) * 8);
        assert_eq!(std::mem::size_of::<PackedCounter>(), 8);
    }

    #[test]
    fn concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        h.record(Duration::from_micros(100));
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
