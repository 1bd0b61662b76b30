//! The Sysplex Timer — a common time reference for all systems.
//!
//! §3.1: "The sysplex timer serves as a synchronizing time reference source
//! for systems in the sysplex, so that local processor timestamps can be
//! relied upon for consistency with respect to timestamps obtained on other
//! systems."
//!
//! The substitution for the 9037 Sysplex Timer hardware is a shared atomic
//! TOD register: every reading is strictly greater than every earlier
//! reading **sysplex-wide**, which is the architectural guarantee database
//! logs and recovery depend on (log records from different systems merge in
//! timestamp order).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysplex_core::wire::{Wire, WireError, WireReader, WireWriter};

/// A TOD clock value: microseconds since timer initialisation, strictly
/// unique sysplex-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tod(pub u64);

impl Tod {
    /// Microseconds between two TOD readings (saturating).
    pub fn micros_since(self, earlier: Tod) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// On the wire a TOD is its `u64`.
impl Wire for Tod {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(self.0);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_u64().map(Tod)
    }
}

impl std::fmt::Display for Tod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TOD+{}us", self.0)
    }
}

/// Where the timer's base reading comes from.
///
/// `Wall` is the production source: the host monotonic clock, standing in
/// for the 9037 hardware. `Virtual` is the deterministic-harness source: a
/// counter that only moves when the simulation driver calls
/// [`SysplexTimer::advance`], so timeout-driven paths (heartbeat fencing,
/// CDS lease expiry, lock waits) become replayable from a seed instead of
/// depending on wall-clock margins.
#[derive(Debug)]
enum TimeSource {
    Wall(Instant),
    Virtual(AtomicU64),
}

/// The shared time reference.
#[derive(Debug)]
pub struct SysplexTimer {
    source: TimeSource,
    last: AtomicU64,
}

impl SysplexTimer {
    /// Initialise the timer at the current instant (wall-clock source).
    pub fn new() -> Arc<Self> {
        Arc::new(SysplexTimer { source: TimeSource::Wall(Instant::now()), last: AtomicU64::new(0) })
    }

    /// Initialise a virtual timer starting at TOD 0. Time only moves via
    /// [`SysplexTimer::advance`] (plus the per-reading uniqueness bump), so
    /// every component clocked by the timer is deterministic.
    pub fn new_virtual() -> Arc<Self> {
        Arc::new(SysplexTimer { source: TimeSource::Virtual(AtomicU64::new(0)), last: AtomicU64::new(0) })
    }

    /// Whether this timer runs on virtual (simulation-driven) time.
    pub fn is_virtual(&self) -> bool {
        matches!(self.source, TimeSource::Virtual(_))
    }

    #[inline]
    fn source_us(&self) -> u64 {
        match &self.source {
            TimeSource::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            TimeSource::Virtual(us) => us.load(Ordering::Acquire),
        }
    }

    /// Read the TOD clock. Monotonic and unique across all callers on all
    /// systems: concurrent readings never return the same value.
    pub fn tod(&self) -> Tod {
        self.tod_block(1)
    }

    /// Read `n` consecutive TOD values at once (`n ≥ 1`): the first is
    /// returned, and the `n - 1` after it are the caller's too. One clock
    /// reading for all of them, and the same guarantee as `n` calls to
    /// [`SysplexTimer::tod`]: no other reading, on any system, falls in the
    /// block, and every later one is greater than all of it.
    pub fn tod_block(&self, n: u64) -> Tod {
        assert!(n > 0, "an empty TOD block");
        let base = self.source_us();
        let mut prev = self.last.load(Ordering::Relaxed);
        loop {
            let first = base.max(prev + 1);
            match self.last.compare_exchange_weak(prev, first + n - 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return Tod(first),
                Err(p) => prev = p,
            }
        }
    }

    /// Move a virtual timer forward by `delta` and return the new base
    /// reading. Panics on a wall-clock timer: real time cannot be steered,
    /// and silently ignoring the call would hide a mis-wired harness.
    pub fn advance(&self, delta: Duration) -> Tod {
        match &self.source {
            TimeSource::Wall(_) => panic!("SysplexTimer::advance on a wall-clock timer"),
            TimeSource::Virtual(us) => {
                let now = us.fetch_add(delta.as_micros() as u64, Ordering::AcqRel) + delta.as_micros() as u64;
                Tod(now)
            }
        }
    }

    /// Wait `us` microseconds of timer time. On a wall-clock timer this
    /// sleeps (yielding for zero); on a virtual timer it advances the clock,
    /// so retry loops written against the timer terminate deterministically
    /// without any thread ever blocking.
    pub fn park_us(&self, us: u64) {
        match &self.source {
            TimeSource::Wall(_) => {
                if us == 0 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            TimeSource::Virtual(_) => {
                self.advance(Duration::from_micros(us.max(1)));
            }
        }
    }

    /// Elapsed timer time since initialisation (no uniqueness bump).
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.source_us())
    }
}

/// The Sysplex Timer is the component tracer's time source: every trace
/// entry's TOD word is a strictly monotonic, sysplex-unique reading, so
/// entries from different systems' rings merge in causal stamp order —
/// exactly what §3.1 promises log merges.
impl sysplex_core::trace::TraceClock for SysplexTimer {
    fn now_us(&self) -> u64 {
        self.tod().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tod_is_strictly_monotonic() {
        let t = SysplexTimer::new();
        let mut prev = t.tod();
        for _ in 0..10_000 {
            let cur = t.tod();
            assert!(cur > prev);
            prev = cur;
        }
    }

    #[test]
    fn tod_unique_across_concurrent_readers() {
        let t = SysplexTimer::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || (0..5_000).map(|_| t.tod()).collect::<Vec<_>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for tod in h.join().unwrap() {
                assert!(all.insert(tod), "duplicate TOD {tod}");
            }
        }
        assert_eq!(all.len(), 40_000);
    }

    #[test]
    fn tod_blocks_are_unique_and_monotonic_among_concurrent_readers() {
        // Half the readers take blocks of 1..=7 values, half single TODs:
        // every value handed out is distinct, and each reader's values rise.
        let t = SysplexTimer::new();
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    for k in 0..4_000u64 {
                        let n = if i % 2 == 0 { 1 + (k + i) % 7 } else { 1 };
                        let first = if i % 2 == 0 { t.tod_block(n) } else { t.tod() };
                        mine.extend((0..n).map(|j| first.0 + j));
                    }
                    mine
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            let mine = h.join().unwrap();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "a reader's values went back");
            for tod in mine {
                assert!(all.insert(tod), "TOD {tod} handed out twice");
            }
        }
        assert!(t.tod().0 > *all.iter().max().unwrap(), "a later reading lies past every block");
    }

    #[test]
    fn virtual_timer_only_moves_on_advance() {
        let t = SysplexTimer::new_virtual();
        assert!(t.is_virtual());
        let a = t.tod();
        let b = t.tod();
        // Uniqueness bump only: no wall time leaks in.
        assert_eq!(b.0, a.0 + 1);
        t.advance(Duration::from_millis(5));
        let c = t.tod();
        // The base moved to exactly 5000 us; the bumped readings (1, 2)
        // stay below it, so the next reading is the base itself.
        assert_eq!(c.0, 5_000);
        assert_eq!(t.elapsed(), Duration::from_millis(5));
    }

    #[test]
    fn virtual_park_advances_instead_of_sleeping() {
        let t = SysplexTimer::new_virtual();
        let before = t.elapsed();
        t.park_us(250);
        assert_eq!(t.elapsed() - before, Duration::from_micros(250));
    }

    #[test]
    #[should_panic(expected = "wall-clock timer")]
    fn advance_on_wall_timer_panics() {
        let t = SysplexTimer::new();
        t.advance(Duration::from_millis(1));
    }

    #[test]
    fn tod_tracks_wall_time() {
        let t = SysplexTimer::new();
        let a = t.tod();
        std::thread::sleep(Duration::from_millis(20));
        let b = t.tod();
        assert!(b.micros_since(a) >= 15_000, "TOD advanced with wall time");
    }
}
