//! The measured window: client threads, the coordinator that times them,
//! and what each client records.
//!
//! Every workload runs the same protocol. Clients warm the rig up with a
//! fixed *count* of transactions (so the state at the start of the window,
//! memory included, does not depend on how fast the host is), meet the
//! coordinator at a barrier while it reads the public counters, then run
//! until the coordinator raises `stop`. In a traced run the window's
//! [`RATE_SLICE`]s alternate untraced, traced, traced, untraced, so traced
//! and untraced transactions come from interleaved slices of one rig, each
//! kind centred on the same instants: what the traced ones take longer is
//! the tracing overhead, free of drift within the run and between two
//! separate runs.

use crate::rigs::Counters;
use crate::trace::SpanLog;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans (in the traced slices) and run the probes.
    pub trace: bool,
    /// Calls per probe.
    pub probe_calls: usize,
}

/// Completions are also counted per slice of this length, for the
/// diagnostics: how throughput moved within the window.
pub const RATE_SLICE: Duration = Duration::from_millis(100);

/// Whether slice `index` of a traced run records spans.
fn traced_slice(index: usize) -> bool {
    matches!(index % 4, 1 | 2)
}

struct Control {
    epoch: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    trace: bool,
}

/// What one client thread recorded.
#[derive(Debug)]
pub struct ClientLog {
    /// Sent on a schedule and timed from the due time, see
    /// [`open_loop_send`] (else closed loop, timed from the send).
    pub open_loop: bool,
    /// Latency of every transaction of the measured window that succeeded,
    /// those sent in untraced slices apart from those sent in traced ones.
    pub latencies_ns: [Vec<u32>; 2],
    /// The same latencies at the host's quiet speed (see [`Reference`]).
    pub calibrated_ns: Vec<u32>,
    /// What each reading of the [`Reference`] was, warm-up included, and
    /// what it is on the quiet host.
    pub reference_ns: Vec<u32>,
    pub reference_quiet_ns: f64,
    /// Open loop only: how late each transaction was sent.
    pub lateness_ns: Vec<u32>,
    /// Transactions that succeeded in each [`RATE_SLICE`] of the window.
    pub per_slice: Vec<u32>,
    /// Operations that returned `Err` or failed an inline check, warm-up
    /// included.
    pub failed: u64,
    /// Time spent generating inputs, and for how many transactions.
    pub gen_ns: u64,
    pub gen_calls: u64,
    pub spans: SpanLog,
}

impl ClientLog {
    /// Transactions that succeeded in the window.
    pub fn completed(&self) -> u64 {
        self.latencies_ns.iter().map(|kind| kind.len() as u64).sum()
    }
}

/// A client thread's handle on the window.
pub struct Client<'a> {
    ctl: &'a Control,
    pub index: usize,
    window_start: Instant,
    requests: u32,
    /// In a traced slice every n-th transaction records spans. 1 unless
    /// the transaction is so short that the clock reads of its spans would
    /// be what the traced run measures.
    pub trace_every: u32,
    /// The client's reading of the host's speed; every workload's client
    /// sets one up before its warm-up.
    pub reference: Option<Reference>,
    /// Quiet-host time per measured time, as [`Client::calibrate`] last
    /// read it.
    pub scale: Option<f64>,
    pub log: ClientLog,
}

impl Client<'_> {
    /// Warm-up is over: wait for the coordinator to read its counters,
    /// then start the window.
    pub fn start_window(&mut self) {
        self.ctl.barrier.wait();
        self.ctl.barrier.wait();
        self.window_start = Instant::now();
    }

    pub fn running(&self) -> bool {
        !self.ctl.stop.load(Ordering::Relaxed)
    }

    /// Between two transactions, at `now`: read the host's speed if a
    /// reading is due.
    pub fn calibrate(&mut self, now: Instant) {
        let Some(reference) = self.reference.as_mut() else { return };
        if let Some(scale) = reference.sample(now, &mut self.log.reference_ns) {
            self.scale = Some(scale);
            self.log.reference_quiet_ns = reference.quiet_ns;
        }
    }

    pub fn window_start(&self) -> Instant {
        self.window_start
    }

    fn slice_of(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.window_start).as_nanos() / RATE_SLICE.as_nanos()) as usize
    }

    /// Whether a transaction sent at `at` falls in a traced slice.
    pub fn tracing(&self, at: Instant) -> bool {
        self.ctl.trace && traced_slice(self.slice_of(at))
    }

    /// Count a transaction sent at `at`; returns its request identifier
    /// if it is to record spans: it falls in a traced slice and is the
    /// `trace_every`-th since the last that did.
    pub fn sample(&mut self, at: Instant) -> Option<u32> {
        self.requests = self.requests.wrapping_add(1);
        (self.requests.is_multiple_of(self.trace_every) && self.tracing(at)).then_some(self.requests)
    }

    /// Record one measured transaction. `from` is the send time (closed
    /// loop) or the due time (open loop). Only a transaction that succeeded
    /// has a latency and counts towards throughput: one that failed fast
    /// must not read as a fast one.
    pub fn record(&mut self, from: Instant, end: Instant, ok: bool) {
        if !ok {
            self.log.failed += 1;
            return;
        }
        let ns = end.saturating_duration_since(from).as_nanos();
        let traced = self.tracing(from);
        let ns = ns.min(u32::MAX as u128) as u32;
        self.log.latencies_ns[traced as usize].push(ns);
        if let Some(scale) = self.scale {
            self.log.calibrated_ns.push((ns as f64 * scale) as u32);
        }
        let slice = self.slice_of(end);
        if slice >= self.log.per_slice.len() {
            self.log.per_slice.resize(slice + 1, 0);
        }
        self.log.per_slice[slice] += 1;
    }
}

/// The measured window as the coordinator saw it.
#[derive(Debug)]
pub struct Window {
    pub elapsed_s: f64,
    /// Public counters, end of window minus start of window.
    pub delta: Counters,
    /// `VmHWM` when the window started: after set-up and the fixed-count
    /// warm-up, so it does not grow with the host's speed.
    pub rss_mb: f64,
    /// Of the CPU time this guest asked for during the window (all CPUs,
    /// all processes), the share the hypervisor gave to another guest.
    pub steal_share: f64,
}

/// Run `clients` client threads through warm-up and one measured window.
/// `body` is each client's whole life: warm up, call
/// [`Client::start_window`], loop while [`Client::running`].
pub fn drive<R: Send>(
    clients: usize,
    plan: &Plan,
    snapshot: &(dyn Fn() -> Counters + Sync),
    body: &(dyn Fn(&mut Client) -> R + Sync),
) -> (Window, Vec<(ClientLog, R)>) {
    let ctl = Control {
        epoch: Instant::now(),
        barrier: Barrier::new(clients + 1),
        stop: AtomicBool::new(false),
        trace: plan.trace,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let ctl = &ctl;
                scope.spawn(move || {
                    let mut client = Client {
                        ctl,
                        index,
                        window_start: ctl.epoch,
                        requests: 0,
                        trace_every: 1,
                        reference: None,
                        scale: None,
                        log: ClientLog {
                            open_loop: false,
                            latencies_ns: [Vec::with_capacity(1 << 20), Vec::new()],
                            calibrated_ns: Vec::with_capacity(1 << 20),
                            reference_ns: Vec::new(),
                            reference_quiet_ns: 0.0,
                            lateness_ns: Vec::new(),
                            per_slice: Vec::new(),
                            failed: 0,
                            gen_ns: 0,
                            gen_calls: 0,
                            spans: SpanLog::new(ctl.epoch),
                        },
                    };
                    let result = body(&mut client);
                    (client.log, result)
                })
            })
            .collect();

        ctl.barrier.wait();
        let before = snapshot();
        let rss_mb = vm_hwm_mb();
        ctl.barrier.wait();
        let start = Instant::now();
        let ticks = cpu_ticks();
        sleep_until(start + Duration::from_secs_f64(plan.seconds));
        ctl.stop.store(true, Ordering::Relaxed);
        let elapsed_s = start.elapsed().as_secs_f64();
        let (stolen, wanted) = cpu_ticks();
        let steal_share = (stolen - ticks.0) as f64 / (wanted - ticks.1).max(1) as f64;
        let logs = handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let delta = snapshot().since(&before);
        (Window { elapsed_s, delta, rss_mb, steal_share }, logs)
    })
}

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// `(stolen, wanted)` CPU ticks since boot, from the first line of
/// `/proc/stat`: `wanted` is every tick the guest was not idle, the stolen
/// ones included. Zeros where there is no such file.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> =
        stat.lines().next().unwrap_or("").split_whitespace().skip(1).flat_map(str::parse).collect();
    // user nice system idle iowait irq softirq steal; the guest columns
    // after them are already part of user and nice.
    let tick = |i: usize| fields.get(i).copied().unwrap_or(0);
    (tick(7), tick(0) + tick(1) + tick(2) + tick(5) + tick(6) + tick(7))
}

/// Peak resident set of this process so far, from `/proc/self/status`.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins the calling thread to one CPU until dropped.
///
/// Only the two ends of the socket workload are pinned, both to the same
/// CPU. Left to the scheduler, a run's client and server threads either
/// share a CPU (a loopback round trip is then ~15 us) or sit on two
/// (~70 us: each hop wakes an idle virtual CPU), and which one a run gets
/// is the scheduler's choice, so unpinned results are bimodal. Pinned to
/// two CPUs the median is steady but nothing else is: in twelve runs the
/// cycle's p50 read 431 to 474 us, its p90 535 to 5 815 us and `tps` 320
/// to 2 150, because some wake-ups of the idle CPU take milliseconds, and
/// that is the hypervisor's time, not the program's. On one CPU the
/// workload measures the program's own socket path (syscalls, codec,
/// context switches), which is what batching or pipelining saves: a
/// command's own work is under 1 us of the ~15 us, so there is next to
/// nothing for two CPUs to overlap. Clients of the other workloads must
/// stay free to move: their rigs run background threads (castout, IRLM
/// negotiation), and a pinned client cannot step aside when one of those
/// lands on its CPU (pinned, `inquiry` `update_p50_us` read 40 us in six
/// runs and 90 to 470 us in four).
pub struct Pinned {
    original: CpuMask,
}

const CPU_MASK_WORDS: usize = 16;
type CpuMask = [u64; CPU_MASK_WORDS];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuMask;

    extern "C" {
        // From the C library std already links; pid 0 is the calling thread.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<CpuMask> {
        let mut mask = CpuMask::default();
        // SAFETY: the pointer is to a live array of exactly the size
        // passed; the call writes nothing else and keeps no pointer.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) == 0 };
        ok.then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: as in `get`; the call only reads the array.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_: &CpuMask) -> bool {
        false
    }
}

/// The CPU for both ends of a socket: the highest the kernel allows this
/// thread (under a cpuset, CPU numbers need not start at 0). The highest,
/// because the lowest usually takes the device interrupts: six runs read
/// a cycle p50 of 80 to 87 us on CPU 1 and 78 to 113 us on CPU 0. `None`
/// off Linux; the run then goes on unpinned and says so.
pub fn socket_cpu() -> Option<usize> {
    let mask = affinity::get()?;
    (0..CPU_MASK_WORDS * 64).rev().find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

impl Pinned {
    /// Pin to `cpu`; `None` when the kernel refuses.
    pub fn to(cpu: usize) -> Option<Pinned> {
        let original = affinity::get()?;
        let mut wanted = CpuMask::default();
        *wanted.get_mut(cpu / 64)? = 1 << (cpu % 64);
        affinity::set(&wanted).then_some(Pinned { original })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        affinity::set(&self.original);
    }
}

/// The host's speed on the kind of work a client's workload does, read
/// between the client's own transactions.
///
/// This shared host runs the same code at two speeds that have nothing to
/// do with the program. For minutes on end it is quiet: nothing is stolen,
/// three processes one after the other agree within 3 to 5 %, `dc-affinity`
/// makes 32 to 35 k txn/s, `cf-direct` 600 k cycles/s, a 4 KiB round trip
/// over a loopback socket takes 3.4 us. Then, for seconds to minutes, a
/// neighbour is busy (a tick stolen now and then is all that shows of it)
/// and the same read 23 to 25 k, 350 to 590 k and 5.0 to 5.5 us; a
/// dependent chain of multiplications hardly moves (345 to 413 ns), so a
/// neighbour on the core's other hardware thread would fit. Sets of ten
/// runs of one commit spread (interquartile range over median) by 17 to
/// 25 % on `dc-single`, 20 to 25 % on `cf-direct` and 21 to 46 % on
/// `cf-tcp`, and the medians of two sets a quarter of an hour apart differed
/// by 36 % on `dc-affinity` (`tps`), where the benchmark contract allows a
/// bound of 25 % at most. No statistic of a run takes that out: the fastest
/// 100 ms slice of a slow run is slow.
///
/// So each client times a fixed piece of the same kind of work, which no
/// change to the program can move, every [`REFERENCE_INTERVAL`], between
/// two transactions, warm-up included: first an untimed pass to bring the
/// work back into the caches the transactions since the last reading pushed
/// it out of, then the timed one. A transaction's latency is multiplied by
/// the reading of the quiet host over the median of the last
/// [`REFERENCE_RECENT`] readings: the time it would have taken with the host
/// quiet. On a quiet host the factor is 1. The raw percentiles, the median
/// reading and the mean factor are in the diagnostics (`calibration`).
///
/// * The socket client's work is [`SOCKET_TRIPS`] round trips of
///   [`SOCKET_BYTES`] each way (a cycle moves two 4 KiB blocks) over a
///   loopback pair, both ends its own. Ten runs each, spread of the
///   calibrated p50 against 30 to 52 % uncalibrated: 6.0 % as built; 4.7 %
///   without the untimed trip (but then a reading depends on what the
///   cycles in between left in the caches: 10 % higher at every 64 cycles
///   than at every 16); 14.8 % with 64 bytes, which stays fast in some of
///   the states that slow the cycle.
/// * An in-process client's is [`MIXED_STEPS`] steps of [`Mixed`]: what a
///   command to the facility is made of. Twelve runs each, spread
///   uncalibrated and calibrated: `dc-single` p50 15.1 and 7.5 %, p90 19.3
///   and 9.4 %, `tps` 18.4 and 8.4 %; `cf-direct` p50 6.0 and 4.4 % (range
///   23.6 and 9.1 %), `tps` 12.5 and 7.9 %. Five narrower pieces of work
///   (independent integer chains, copies within 256 KiB, dependent look-ups
///   in 1 MiB, copies and a pointer chase over 64 MiB), read cold, did not
///   follow the transaction: p50 over reading spread as much as p50.
pub struct Reference {
    work: Work,
    quiet_ns: f64,
    due: Instant,
    recent: [u32; REFERENCE_RECENT],
    taken: usize,
}

enum Work {
    Socket { near: TcpStream, far: TcpStream },
    InProcess(Box<Mixed>),
}

/// One socket round trip, and one step of [`Mixed`], on this host when it is
/// quiet. They fix the unit of the calibrated latencies and cancel out of
/// every comparison between two commits.
pub const SOCKET_QUIET_NS: f64 = 3_400.0;
pub const MIXED_QUIET_NS: f64 = 1_000.0;
pub const SOCKET_BYTES: usize = 4096;
pub const SOCKET_TRIPS: u32 = 4;
pub const MIXED_STEPS: u32 = 8;
/// A reading costs an in-process client 0.5 % of its time, the socket
/// client 1.2 %.
pub const REFERENCE_INTERVAL: Duration = Duration::from_millis(2);
const REFERENCE_RECENT: usize = 15;

const MIXED_SLOTS: usize = 1024;
const MIXED_BLOCK: usize = 4096;

/// The in-process reference work: a compare-and-swap on a lock word, a
/// 4 KiB block copied out of a 4 MiB table and back into it, a 64-byte
/// entry allocated, queued, taken and freed, the lock word stored.
struct Mixed {
    table: Vec<Box<[u8; MIXED_BLOCK]>>,
    locks: Vec<AtomicU64>,
    queue: VecDeque<Vec<u8>>,
    local: [u8; MIXED_BLOCK],
    n: u64,
}

impl Mixed {
    fn new() -> Mixed {
        Mixed {
            table: (0..MIXED_SLOTS).map(|i| Box::new([i as u8; MIXED_BLOCK])).collect(),
            locks: (0..MIXED_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            queue: VecDeque::from([vec![0; 64]]),
            local: [0; MIXED_BLOCK],
            n: 0,
        }
    }

    fn step(&mut self) {
        self.n += 1;
        // Fibonacci hashing: the slots come in no order a prefetcher knows.
        let slot = (self.n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize % MIXED_SLOTS;
        let _ = self.locks[slot].compare_exchange(0, self.n, Ordering::AcqRel, Ordering::Relaxed);
        self.local.copy_from_slice(&*self.table[slot]);
        self.local[..8].copy_from_slice(&self.n.to_be_bytes());
        self.table[slot].copy_from_slice(&self.local);
        self.queue.push_back(self.local[..64].to_vec());
        std::hint::black_box(self.queue.pop_front());
        self.locks[slot].store(0, Ordering::Release);
    }
}

impl Reference {
    /// For the client of a socket.
    pub fn socket() -> std::io::Result<Reference> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok(Reference::of(Work::Socket { near, far }, SOCKET_QUIET_NS))
    }

    /// For a client that calls the program in its own process.
    pub fn in_process() -> Reference {
        Reference::of(Work::InProcess(Box::new(Mixed::new())), MIXED_QUIET_NS)
    }

    fn of(work: Work, quiet_ns: f64) -> Reference {
        Reference { work, quiet_ns, due: Instant::now(), recent: [0; REFERENCE_RECENT], taken: 0 }
    }

    /// One untimed pass, one timed: nanoseconds per trip or step.
    fn read(&mut self) -> std::io::Result<u128> {
        match &mut self.work {
            Work::Socket { near, far } => {
                let mut buf = [0x5a_u8; SOCKET_BYTES];
                let mut trip = || {
                    near.write_all(&buf)?;
                    far.read_exact(&mut buf)?;
                    far.write_all(&buf)?;
                    near.read_exact(&mut buf)
                };
                trip()?;
                let start = Instant::now();
                for _ in 0..SOCKET_TRIPS {
                    trip()?;
                }
                Ok(start.elapsed().as_nanos() / SOCKET_TRIPS as u128)
            }
            Work::InProcess(mixed) => {
                mixed.step();
                mixed.step();
                let start = Instant::now();
                for _ in 0..MIXED_STEPS {
                    mixed.step();
                }
                Ok(start.elapsed().as_nanos() / MIXED_STEPS as u128)
            }
        }
    }

    /// If a reading is due at `now`, take it and log it; the scale then in
    /// force.
    fn sample(&mut self, now: Instant, log: &mut Vec<u32>) -> Option<f64> {
        if now < self.due {
            return None;
        }
        let ns = self.read().expect("reference work").min(u32::MAX as u128) as u32;
        self.due = Instant::now() + REFERENCE_INTERVAL;
        log.push(ns);
        self.recent[self.taken % REFERENCE_RECENT] = ns;
        self.taken += 1;
        let mut seen = self.recent;
        let seen = &mut seen[..self.taken.min(REFERENCE_RECENT)];
        seen.sort_unstable();
        Some(self.quiet_ns / seen[seen.len() / 2].max(1) as f64)
    }
}

/// An open-loop transaction was due at `due_ns`, the one before it ended
/// at `previous_end_ns` and the generator sent it at `sent_ns`: how late
/// the generator itself was, and the time the latency counts from.
///
/// The program could have taken the transaction once it was due and the
/// previous one was out of the way. Waiting for the previous one is the
/// program's stall and is charged to this transaction, as an open loop
/// must. Anything after that is the generator waking late (on a shared
/// host a timer wake-up can be hundreds of microseconds late, and ten
/// `inquiry` runs read an updater median of 37 to 314 us when that was
/// charged too): it is reported as the generator's lateness and left out
/// of the latency. Pure, so the self-check can drive it with a fake clock.
pub fn open_loop_send(due_ns: u64, previous_end_ns: u64, sent_ns: u64) -> (u64, u64) {
    let late = sent_ns.saturating_sub(due_ns.max(previous_end_ns));
    (late, due_ns + late)
}
