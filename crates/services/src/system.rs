//! An MVS system image: a tightly-coupled multiprocessor running work.
//!
//! §3.1: "There can be up to 32 processing nodes where each node can be a
//! tightly coupled multiprocessor containing between 1 and 10 processors."
//!
//! A [`System`] owns a pool of worker threads (one per CPU) consuming a
//! shared dispatch queue. The lifecycle mirrors the paper's §2.4/§2.5
//! scenarios: non-disruptive IPL into a running sysplex, planned *quiesce*
//! (drain and stop), and abrupt *failure* (in-flight work is abandoned;
//! queued work is discarded; I/O effects of any zombie thread are stopped
//! by the DASD fence, not by this object).

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use sysplex_core::SystemId;

/// Configuration of one system image.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// System identity (0..32).
    pub id: SystemId,
    /// CPUs in the TCMP (1..=10 per the initial architecture).
    pub cpus: usize,
    /// Capacity per CPU in MIPS (a 1996 9672 CMOS engine ≈ 60 MIPS).
    pub mips_per_cpu: f64,
}

impl SystemConfig {
    /// A CMOS system with `cpus` engines at 60 MIPS each.
    pub fn cmos(id: SystemId, cpus: usize) -> Self {
        assert!((1..=10).contains(&cpus), "1..=10 cpus per system");
        SystemConfig { id, cpus, mips_per_cpu: 60.0 }
    }

    /// Total configured MIPS.
    pub fn total_mips(&self) -> f64 {
        self.cpus as f64 * self.mips_per_cpu
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemState {
    /// Accepting and running work.
    Active,
    /// Draining; no new work accepted.
    Quiescing,
    /// Drained and stopped (planned removal complete).
    Stopped,
    /// Failed abruptly.
    Failed,
}

const ST_ACTIVE: u8 = 0;
const ST_QUIESCING: u8 = 1;
const ST_STOPPED: u8 = 2;
const ST_FAILED: u8 = 3;

/// Errors from work submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The system is not accepting work (quiescing, stopped, or failed).
    NotAccepting(SystemState),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NotAccepting(s) => write!(f, "system not accepting work: {s:?}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// A dispatched unit: its work runs on a CPU and returns the reply, which
/// the CPU runs only after it is idle again and has counted the unit, so
/// whoever the reply wakes sees the finished work as finished, not as load.
type Job = Box<dyn FnOnce() -> Reply + Send>;
type Reply = Box<dyn FnOnce() + Send>;

/// A running system image.
pub struct System {
    config: SystemConfig,
    state: Arc<AtomicU8>,
    tx: Mutex<Option<Sender<Job>>>,
    busy: Arc<AtomicUsize>,
    queued: Arc<AtomicUsize>,
    completed: Arc<AtomicU64>,
    discarded: Arc<AtomicU64>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl System {
    /// IPL a system: spawn one worker thread per CPU.
    pub fn ipl(config: SystemConfig) -> Arc<Self> {
        let (tx, rx) = unbounded::<Job>();
        let sys = Arc::new(System {
            config,
            state: Arc::new(AtomicU8::new(ST_ACTIVE)),
            tx: Mutex::new(Some(tx)),
            busy: Arc::new(AtomicUsize::new(0)),
            queued: Arc::new(AtomicUsize::new(0)),
            completed: Arc::new(AtomicU64::new(0)),
            discarded: Arc::new(AtomicU64::new(0)),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = sys.workers.lock();
        for cpu in 0..config.cpus {
            let rx: Receiver<Job> = rx.clone();
            let busy = Arc::clone(&sys.busy);
            let queued = Arc::clone(&sys.queued);
            let completed = Arc::clone(&sys.completed);
            let discarded = Arc::clone(&sys.discarded);
            let state = Arc::clone(&sys.state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{}-cpu{cpu}", config.id))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            queued.fetch_sub(1, Ordering::Relaxed);
                            if state.load(Ordering::Acquire) == ST_FAILED {
                                // Abrupt failure: discard queued work.
                                discarded.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            busy.fetch_add(1, Ordering::Relaxed);
                            let reply = job();
                            busy.fetch_sub(1, Ordering::Relaxed);
                            completed.fetch_add(1, Ordering::Relaxed);
                            reply();
                        }
                    })
                    .expect("spawn cpu worker"),
            );
        }
        drop(workers);
        sys
    }

    /// This system's configuration.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// System identity.
    pub fn id(&self) -> SystemId {
        self.config.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SystemState {
        match self.state.load(Ordering::Acquire) {
            ST_ACTIVE => SystemState::Active,
            ST_QUIESCING => SystemState::Quiescing,
            ST_STOPPED => SystemState::Stopped,
            _ => SystemState::Failed,
        }
    }

    /// Dispatch a unit of work onto this system's CPUs. `reply` gets the
    /// work's result once the CPU that ran it is idle and the unit is
    /// counted in [`completed`](System::completed).
    pub fn submit<R: Send + 'static>(
        &self,
        work: impl FnOnce() -> R + Send + 'static,
        reply: impl FnOnce(R) + Send + 'static,
    ) -> Result<(), SystemError> {
        if self.state() != SystemState::Active {
            return Err(SystemError::NotAccepting(self.state()));
        }
        let tx = self.tx.lock();
        match tx.as_ref() {
            Some(tx) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                let job: Job = Box::new(move || {
                    let result = work();
                    Box::new(move || reply(result))
                });
                tx.send(job).expect("workers alive while sender held");
                Ok(())
            }
            None => Err(SystemError::NotAccepting(self.state())),
        }
    }

    /// Dispatch and wait for the result (convenience for tests/examples).
    pub fn execute<R: Send + 'static>(
        &self,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Result<R, SystemError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.submit(job, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(rx.recv().expect("job completes"))
    }

    /// CPU utilization in `[0, 1]`: busy engines / configured engines.
    pub fn utilization(&self) -> f64 {
        (self.busy.load(Ordering::Relaxed) as f64 / self.config.cpus as f64).min(1.0)
    }

    /// Units of work completed.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Units of queued work discarded by a failure.
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }

    /// Planned removal: stop accepting, run everything already queued,
    /// stop the CPUs. Blocks until drained.
    pub fn quiesce(&self) {
        let _ = self.state.compare_exchange(ST_ACTIVE, ST_QUIESCING, Ordering::AcqRel, Ordering::Acquire);
        *self.tx.lock() = None; // closes the queue; workers drain and exit
        let mut workers = self.workers.lock();
        for h in workers.drain(..) {
            let _ = h.join();
        }
        self.state.store(ST_STOPPED, Ordering::Release);
    }

    /// Abrupt failure: new and queued work is discarded. In-flight jobs
    /// cannot be preempted (they are host threads), but their external
    /// effects are stopped by the I/O fence the heartbeat raised before
    /// anyone calls this.
    pub fn fail(&self) {
        self.state.store(ST_FAILED, Ordering::Release);
        *self.tx.lock() = None;
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("id", &self.config.id)
            .field("cpus", &self.config.cpus)
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn two_cpu() -> Arc<System> {
        System::ipl(SystemConfig::cmos(SystemId::new(0), 2))
    }

    #[test]
    fn executes_submitted_work() {
        let s = two_cpu();
        assert_eq!(s.execute(|| 6 * 7).unwrap(), 42);
        assert_eq!(s.completed(), 1, "counted before the result was delivered");
        s.quiesce();
    }

    /// The reply runs after its CPU went idle and counted the unit: a
    /// caller woken by it (a routed transaction's waiter, then a WLM
    /// tick) never reads the finished unit as load.
    #[test]
    fn a_reply_runs_after_its_cpu_is_idle_and_counted() {
        let s = System::ipl(SystemConfig::cmos(SystemId::new(3), 1));
        let (tx, rx) = crossbeam::channel::bounded(1);
        let seen = Arc::clone(&s);
        s.submit(
            || 6 * 7,
            move |answer| {
                let _ = tx.send((answer, seen.utilization(), seen.completed()));
            },
        )
        .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), (42, 0.0, 1));
        s.quiesce();
    }

    #[test]
    fn parallelism_matches_cpu_count() {
        use std::sync::atomic::AtomicUsize;
        let s = System::ipl(SystemConfig::cmos(SystemId::new(1), 4));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        for _ in 0..32 {
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            let done = done_tx.clone();
            s.submit(
                move || {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                    let _ = done.send(());
                },
                drop,
            )
            .unwrap();
        }
        for _ in 0..32 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4, "never more than 4 concurrent");
        assert!(peak.load(Ordering::SeqCst) >= 2, "work did run in parallel");
        s.quiesce();
    }

    #[test]
    fn quiesce_drains_queued_work() {
        let s = two_cpu();
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let count = Arc::clone(&count);
            s.submit(
                move || {
                    count.fetch_add(1, Ordering::Relaxed);
                },
                drop,
            )
            .unwrap();
        }
        s.quiesce();
        assert_eq!(count.load(Ordering::Relaxed), 50, "all queued work ran before stop");
        assert_eq!(s.state(), SystemState::Stopped);
        assert!(matches!(s.submit(|| {}, drop), Err(SystemError::NotAccepting(SystemState::Stopped))));
    }

    #[test]
    fn failure_discards_queued_work() {
        let s = System::ipl(SystemConfig::cmos(SystemId::new(2), 1));
        let gate = Arc::new(AtomicU8::new(0));
        {
            let gate = Arc::clone(&gate);
            s.submit(
                move || {
                    while gate.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                },
                drop,
            )
            .unwrap();
        }
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            s.submit(
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
                drop,
            )
            .unwrap();
        }
        s.fail();
        gate.store(1, Ordering::Release); // release the in-flight job
                                          // Give workers a moment to drain/discard.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.discarded() < 10 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "queued work discarded on failure");
        // 10 queued jobs, plus possibly the gate job itself if the worker
        // had not yet dispatched it when fail() landed.
        assert!(s.discarded() >= 10, "discarded {}", s.discarded());
        assert!(matches!(s.submit(|| {}, drop), Err(SystemError::NotAccepting(SystemState::Failed))));
    }

    #[test]
    fn utilization_reflects_busy_engines() {
        let s = two_cpu();
        assert_eq!(s.utilization(), 0.0);
        let gate = Arc::new(AtomicU8::new(0));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            s.submit(
                move || {
                    while gate.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                },
                drop,
            )
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.utilization() < 1.0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(s.utilization(), 1.0);
        gate.store(1, Ordering::Release);
        s.quiesce();
    }
}
