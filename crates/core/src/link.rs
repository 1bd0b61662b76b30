//! Coupling links and CF command execution modes (§3.3).
//!
//! "Coupling Facilities are physically attached to S/390 processors via
//! high-speed coupling links ... fiber-optic channels providing either 50
//! MegaBytes/second or 100 MB/second data transfer rates. Commands to the
//! CF can be executed synchronously or asynchronously, with cpu-synchronous
//! command completion times measured in micro-seconds, thereby avoiding the
//! asynchronous execution overheads associated with task switching and
//! processor cache disruptions."
//!
//! [`CfLink`] models that cost structure, always on the issuing thread: a
//! command spins the CPU for the simulated round trip (microseconds) with
//! the structure operation run inline in the middle. "Asynchronous" is a
//! term of the latency model only — a command the subchannel converts is
//! charged [`LinkConfig::async_overhead_ns`] on top, the task-switch cost
//! the paper says synchronous execution avoids. [`LinkConfig::instant`]
//! turns the latency model off for purely functional use.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency/bandwidth model for one coupling link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Payload transfer rate in MB/s (paper: 50 or 100).
    pub transfer_mb_per_s: u32,
    /// Fixed per-command round-trip latency in nanoseconds.
    pub base_latency_ns: u64,
    /// Additional latency charged to an asynchronous completion (task
    /// switch + cache disruption on redispatch).
    pub async_overhead_ns: u64,
    /// When false, no delays are simulated (functional mode).
    pub simulate: bool,
}

impl LinkConfig {
    /// A 50 MB/s first-generation coupling link with ~15 µs command latency.
    pub fn mb50() -> Self {
        LinkConfig {
            transfer_mb_per_s: 50,
            base_latency_ns: 15_000,
            async_overhead_ns: 40_000,
            simulate: true,
        }
    }

    /// A 100 MB/s coupling link with ~10 µs command latency.
    pub fn mb100() -> Self {
        LinkConfig {
            transfer_mb_per_s: 100,
            base_latency_ns: 10_000,
            async_overhead_ns: 40_000,
            simulate: true,
        }
    }

    /// No simulated latency: commands cost only their real compute time.
    pub fn instant() -> Self {
        LinkConfig { transfer_mb_per_s: 100, base_latency_ns: 0, async_overhead_ns: 0, simulate: false }
    }

    /// Simulated service time for a command moving `payload` bytes.
    pub fn service_time(&self, payload: usize) -> Duration {
        if !self.simulate {
            return Duration::ZERO;
        }
        let transfer_ns = payload as u64 * 1_000 / self.transfer_mb_per_s as u64;
        Duration::from_nanos(self.base_latency_ns + transfer_ns)
    }

    /// Simulated redispatch cost of an asynchronously-converted command.
    pub fn async_overhead(&self) -> Duration {
        if !self.simulate {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.async_overhead_ns)
    }
}

/// Spin-wait with microsecond precision. `thread::sleep` has scheduler
/// granularity far coarser than a CF command; the paper's synchronous
/// commands *spin the CPU*, which is exactly what we reproduce.
pub(crate) fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A coupling link from one system to one facility.
#[derive(Debug, Clone)]
pub struct CfLink {
    config: LinkConfig,
    /// The facility's outage flag, shared with every link attached to it.
    down: Arc<AtomicBool>,
}

impl CfLink {
    pub(crate) fn new(config: LinkConfig, down: Arc<AtomicBool>) -> Self {
        CfLink { config, down }
    }

    /// The link's latency/bandwidth model.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Whether the facility end of this link has been shut down. One
    /// Acquire load — cheap enough for the per-command path.
    #[inline]
    pub fn is_shut_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Execute a CF command **CPU-synchronously**: the issuing processor
    /// spins for the simulated round trip with the payload in flight, then
    /// observes the result. Completion is measured in microseconds and
    /// involves no task switch.
    pub fn execute_sync<R>(&self, payload_bytes: usize, op: impl FnOnce() -> R) -> R {
        let d = self.config.service_time(payload_bytes);
        // Half the round trip carries the command, half the response.
        spin_for(d / 2);
        let r = op();
        spin_for(d / 2);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(config: LinkConfig) -> CfLink {
        CfLink::new(config, Arc::new(AtomicBool::new(false)))
    }

    #[test]
    fn instant_link_adds_no_measurable_delay() {
        let l = link(LinkConfig::instant());
        let t0 = Instant::now();
        for _ in 0..1000 {
            l.execute_sync(4096, || ());
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn sync_latency_is_microsecond_scale() {
        let l = link(LinkConfig::mb100());
        let t0 = Instant::now();
        let n = 50;
        for _ in 0..n {
            l.execute_sync(0, || ());
        }
        let per_cmd = t0.elapsed() / n;
        assert!(per_cmd >= Duration::from_micros(9), "per-command {per_cmd:?} below base latency");
        assert!(per_cmd < Duration::from_millis(2), "per-command {per_cmd:?} absurdly slow");
    }

    #[test]
    fn transfer_time_scales_with_payload_and_rate() {
        let c50 = LinkConfig::mb50();
        let c100 = LinkConfig::mb100();
        let small50 = c50.service_time(0);
        let big50 = c50.service_time(1 << 20);
        let big100 = c100.service_time(1 << 20);
        assert!(big50 > small50);
        // 1 MiB at 50 MB/s ≈ 21 ms of transfer; at 100 MB/s half that.
        let t50 = (big50 - Duration::from_nanos(c50.base_latency_ns)).as_nanos();
        let t100 = (big100 - Duration::from_nanos(c100.base_latency_ns)).as_nanos();
        let ratio = t50 as f64 / t100 as f64;
        assert!((ratio - 2.0).abs() < 0.01, "50 MB/s takes 2x the time of 100 MB/s, got {ratio}");
    }
}
