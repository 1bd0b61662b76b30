//! Wire-level fault injection: a chaos proxy for SPLX frame streams.
//!
//! The campaign harness injects faults *above* the wire — [`crate::plan`]
//! drives the in-process link-fault hook. This module injects them *in*
//! the wire: a [`ChaosProxy`] sits between a TCP member and the sysplex
//! server, takes the stream apart into SPLX frames, and
//! applies a seeded [`ChaosPlan`] of [`WireFault`]s to individual frames —
//! delay, drop, duplicate, truncate mid-frame, garble the payload, stall
//! the link, or partition the member outright.
//!
//! Frames are counted by a single proxy-global index across both
//! directions. A member's RPC stream is strictly lockstep (request frame,
//! response frame, request frame, ...), so with one proxy per member the
//! index sequence — and therefore the fault schedule — is deterministic
//! at the plan level: the same `ChaosPlan` hits the same frames. What the
//! *victim does about it* (retry, reconnect, back off) is the system
//! under test.
//!
//! Plans mirror the [`crate::plan::FaultPlan`] DSL: built with
//! [`ChaosPlan::at`], shrunk with [`ChaosPlan::without`], derived from a
//! [`SplitMix64`] seed with [`ChaosPlan::random`], and printed as a
//! copy-pasteable builder chain.

use crate::rng::SplitMix64;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use sysplex_core::wire::{FrameStream, FRAME_HEADER_BYTES};

/// One misfortune applied to a single SPLX frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Hold the frame for the given milliseconds, then forward it.
    DelayMs(u64),
    /// Swallow the frame. The victim's command times out, and a resilient
    /// session sends it again under its number (see `RetryPolicy`); the
    /// server serves it once.
    Drop,
    /// Forward the frame twice. A duplicated response carries a sequence
    /// number that is no longer outstanding, so the client skips it; a
    /// duplicated request is answered twice and served once.
    Duplicate,
    /// Forward the header and half the body, then kill the connection —
    /// the receiver sees EOF mid-frame (a dead peer, not a clean close).
    Truncate,
    /// XOR the body so framing survives but the payload fails to decode:
    /// the receiver reports an interface control check.
    Garble,
    /// Stall the link (both directions) for the given milliseconds. The
    /// frame is forwarded after the stall passes.
    StallMs(u64),
    /// Partition the member for the given milliseconds: swallow the
    /// frame, kill every connection, and refuse new ones until the
    /// deadline passes.
    PartitionMs(u64),
}

/// An ordered schedule of `(frame_index, fault)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    faults: Vec<(u64, WireFault)>,
}

impl ChaosPlan {
    /// The empty plan (faithful proxy).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Builder: schedule `fault` for the `frame`-th frame through the
    /// proxy (both directions share one counter).
    pub fn at(mut self, frame: u64, fault: WireFault) -> Self {
        self.faults.push((frame, fault));
        self.faults.sort_by_key(|(f, _)| *f);
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The raw schedule, ordered by frame index.
    pub fn faults(&self) -> &[(u64, WireFault)] {
        &self.faults
    }

    /// Faults scheduled for exactly frame `frame`, in insertion order.
    pub fn at_frame(&self, frame: u64) -> impl Iterator<Item = WireFault> + '_ {
        self.faults.iter().filter(move |(f, _)| *f == frame).map(|(_, f)| f).copied()
    }

    /// The plan with the fault at `index` removed (shrinking).
    pub fn without(&self, index: usize) -> ChaosPlan {
        let mut faults = self.faults.clone();
        faults.remove(index);
        ChaosPlan { faults }
    }

    /// Derive a random plan from `rng` for roughly `frames` frames of
    /// traffic. The mix skews toward survivable noise — delays, drops,
    /// duplicates, garbles — plus the occasional stall and at most one
    /// partition, scheduled in the first two-thirds so the heal and
    /// re-admission play out inside the campaign.
    pub fn random(rng: &mut SplitMix64, frames: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::new();
        let span = frames.max(4);
        for _ in 0..(2 + rng.below(6)) {
            let fault = match rng.below(5) {
                0 => WireFault::DelayMs(1 + rng.below(20)),
                1 => WireFault::Drop,
                2 => WireFault::Duplicate,
                3 => WireFault::Garble,
                _ => WireFault::Truncate,
            };
            plan = plan.at(rng.below(span), fault);
        }
        if rng.chance(1, 2) {
            plan = plan.at(rng.below(span), WireFault::StallMs(5 + rng.below(40)));
        }
        if rng.chance(1, 2) {
            plan = plan.at(rng.below(span * 2 / 3 + 1), WireFault::PartitionMs(30 + rng.below(120)));
        }
        plan
    }
}

impl std::fmt::Display for ChaosPlan {
    /// Copy-pasteable builder chain: `ChaosPlan::new().at(12,
    /// WireFault::Drop)...`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChaosPlan::new()")?;
        for (frame, fault) in &self.faults {
            write!(f, ".at({frame}, WireFault::{fault:?})")?;
        }
        Ok(())
    }
}

struct ProxyShared {
    plan: ChaosPlan,
    upstream: SocketAddr,
    epoch: Instant,
    /// Proxy-global frame counter, both directions.
    frames: AtomicU64,
    /// Link-stall deadline in ms since `epoch` (0 = no stall).
    stall_until_ms: AtomicU64,
    /// Partition deadline in ms since `epoch` (0 = none scheduled).
    partition_until_ms: AtomicU64,
    /// Operator-held partition ([`ChaosProxy::partition`]).
    manual_partition: AtomicBool,
    stop: AtomicBool,
    /// Faults actually applied, with the frame they hit.
    applied: Mutex<Vec<(u64, WireFault)>>,
    /// Clones of every live stream, for shutdown on stop/partition.
    conns: Mutex<Vec<TcpStream>>,
}

impl ProxyShared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn partitioned(&self) -> bool {
        self.manual_partition.load(Ordering::Relaxed)
            || self.now_ms() < self.partition_until_ms.load(Ordering::Relaxed)
    }

    /// Block while a link stall is in force.
    fn wait_stall(&self) {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let deadline = self.stall_until_ms.load(Ordering::Relaxed);
            let now = self.now_ms();
            if now >= deadline {
                return;
            }
            thread::sleep(Duration::from_millis((deadline - now).min(5)));
        }
    }

    /// Kill every tracked connection (the streams' pump threads exit on
    /// the resulting read/write errors).
    fn sever_all(&self) {
        for stream in self.conns.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A fault-injecting TCP proxy for SPLX frame streams.
///
/// `start` binds an ephemeral loopback port; point one member's
/// `RemoteSysplex`/`TcpTransport` at [`ChaosProxy::addr`] instead of the
/// real server and the plan's faults land on that member's wire. Stop it
/// with [`ChaosProxy::stop`] (also runs on drop).
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy forwarding to `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            plan,
            upstream,
            epoch: Instant::now(),
            frames: AtomicU64::new(0),
            stall_until_ms: AtomicU64::new(0),
            partition_until_ms: AtomicU64::new(0),
            manual_partition: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            applied: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn chaos accept thread");
        Ok(ChaosProxy { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The proxy's listen address — hand this to the member.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames seen so far (both directions).
    pub fn frames(&self) -> u64 {
        self.shared.frames.load(Ordering::Relaxed)
    }

    /// Faults actually applied, with the frame index each one hit.
    pub fn applied(&self) -> Vec<(u64, WireFault)> {
        self.shared.applied.lock().unwrap().clone()
    }

    /// Hold the member in a partition until [`ChaosProxy::heal`]:
    /// existing connections die, new ones are refused.
    pub fn partition(&self) {
        self.shared.manual_partition.store(true, Ordering::Relaxed);
        self.shared.sever_all();
    }

    /// Release an operator-held partition.
    pub fn heal(&self) {
        self.shared.manual_partition.store(false, Ordering::Relaxed);
        self.shared.partition_until_ms.store(0, Ordering::Relaxed);
    }

    /// True while a manual or scheduled partition is in force.
    pub fn is_partitioned(&self) -> bool {
        self.shared.partitioned()
    }

    /// Stop the proxy: kill all connections and join the accept loop.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.sever_all();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                // A partitioned member's dial succeeds at the TCP level
                // and dies immediately — the classic half-open blip that
                // exercises the reconnect backoff, not a connection
                // refusal it could special-case.
                if shared.partitioned() {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let upstream = match TcpStream::connect(shared.upstream) {
                    Ok(s) => s,
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                let (c2, u2) = match (client.try_clone(), upstream.try_clone()) {
                    (Ok(c), Ok(u)) => (c, u),
                    _ => continue,
                };
                {
                    let mut conns = shared.conns.lock().unwrap();
                    if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                        conns.push(c);
                        conns.push(u);
                    }
                }
                let s1 = Arc::clone(&shared);
                let s2 = Arc::clone(&shared);
                let _ =
                    thread::Builder::new().name("chaos-up".into()).spawn(move || pump(s1, client, upstream));
                let _ = thread::Builder::new().name("chaos-down".into()).spawn(move || pump(s2, u2, c2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Forward frames `src` → `dst`, applying the plan's faults. Exits (and
/// severs both streams) on stream error, partition, or a killing fault.
fn pump(shared: Arc<ProxyShared>, src: TcpStream, mut dst: TcpStream) {
    let mut src = FrameStream::new(src);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // Header (sequence number included) and body travel on as they came.
        let mut frame = match src.recv() {
            Ok(frame) => frame.raw.to_vec(),
            Err(_) => break,
        };
        let index = shared.frames.fetch_add(1, Ordering::Relaxed);

        shared.wait_stall();
        if shared.partitioned() {
            break;
        }

        let mut forward = true;
        let mut duplicate = false;
        let mut truncate = false;
        let mut kill = false;
        for fault in shared.plan.at_frame(index) {
            shared.applied.lock().unwrap().push((index, fault));
            match fault {
                WireFault::DelayMs(ms) => thread::sleep(Duration::from_millis(ms)),
                WireFault::Drop => forward = false,
                WireFault::Duplicate => duplicate = true,
                WireFault::Truncate => truncate = true,
                WireFault::Garble => {
                    for byte in &mut frame[FRAME_HEADER_BYTES..] {
                        *byte ^= 0xA5;
                    }
                }
                WireFault::StallMs(ms) => {
                    shared.stall_until_ms.store(shared.now_ms() + ms, Ordering::Relaxed);
                }
                WireFault::PartitionMs(ms) => {
                    shared.partition_until_ms.store(shared.now_ms() + ms, Ordering::Relaxed);
                    forward = false;
                    kill = true;
                }
            }
        }
        // A stall scheduled on this very frame delays it too.
        shared.wait_stall();

        if truncate {
            let _ = dst.write_all(&frame[..FRAME_HEADER_BYTES + (frame.len() - FRAME_HEADER_BYTES) / 2]);
            forward = false;
            kill = true;
        }
        if forward {
            if dst.write_all(&frame).is_err() {
                break;
            }
            if duplicate {
                let _ = dst.write_all(&frame);
            }
        }
        if kill {
            break;
        }
    }
    // Tear down the pair: a mid-stream exit here must look like a dead
    // peer to both ends, and on partition the other pump must exit too.
    let _ = src.get_ref().shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
    if shared.partitioned() {
        shared.sever_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::lock::{LockMode, LockParams};
    use sysplex_core::transport::{
        serve_cf_stream, CfTransport, InProcessTransport, RemoteLockConnection, TcpTransport,
    };
    use sysplex_core::CfError;

    /// One-shot CF server: accept TCP sessions and serve the wire
    /// protocol against a real facility until the listener is dropped.
    fn spawn_cf_server() -> (SocketAddr, StdArc<CouplingFacility>) {
        let cf = CouplingFacility::new(CfConfig::named("CF-CHAOS"));
        cf.allocate_lock_structure("CHAOS_LOCK", LockParams::with_entries(64)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = StdArc::clone(&cf);
        thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let cf = StdArc::clone(&served);
                thread::spawn(move || {
                    let per_conn = InProcessTransport::new(&cf);
                    let _ = serve_cf_stream(&per_conn, stream);
                });
            }
        });
        (addr, cf)
    }

    #[test]
    fn display_is_copy_pasteable_builder_syntax() {
        let p = ChaosPlan::new().at(12, WireFault::Drop).at(3, WireFault::DelayMs(5));
        assert_eq!(p.to_string(), "ChaosPlan::new().at(3, WireFault::DelayMs(5)).at(12, WireFault::Drop)");
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = ChaosPlan::random(&mut SplitMix64::new(77), 100);
        let b = ChaosPlan::random(&mut SplitMix64::new(77), 100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn without_removes_exactly_one() {
        let p = ChaosPlan::new().at(1, WireFault::Drop).at(2, WireFault::Garble);
        let q = p.without(0);
        assert_eq!(q.faults(), &[(2, WireFault::Garble)]);
    }

    #[test]
    fn faithful_proxy_passes_commands_through() {
        let (addr, _cf) = spawn_cf_server();
        let proxy = ChaosProxy::start(addr, ChaosPlan::new()).unwrap();
        let transport = TcpTransport::connect(proxy.addr()).unwrap();
        let transport: StdArc<dyn CfTransport> = StdArc::new(transport);
        let lock = RemoteLockConnection::attach(transport, "CHAOS_LOCK").unwrap();
        let entry = lock.hash_resource(b"RES-1");
        assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        assert!(proxy.frames() >= 4, "attach + request, each a round trip");
    }

    #[test]
    fn garbled_frame_surfaces_as_interface_control_check() {
        let (addr, _cf) = spawn_cf_server();
        // Frames 0..=3: attach round trip + first request round trip.
        // Garble frame 5 — the response to the second request.
        let plan = ChaosPlan::new().at(5, WireFault::Garble);
        let proxy = ChaosProxy::start(addr, plan).unwrap();
        let transport = TcpTransport::connect(proxy.addr()).unwrap();
        let transport: StdArc<dyn CfTransport> = StdArc::new(transport);
        let lock = RemoteLockConnection::attach(StdArc::clone(&transport), "CHAOS_LOCK").unwrap();
        lock.request_lock(lock.hash_resource(b"RES-A"), LockMode::Exclusive).unwrap();
        let err = lock.request_lock(lock.hash_resource(b"RES-B"), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, CfError::InterfaceControlCheck(_)), "got {err:?}");
        assert_eq!(proxy.applied(), vec![(5, WireFault::Garble)]);
    }

    #[test]
    fn partition_kills_and_heal_restores() {
        let (addr, _cf) = spawn_cf_server();
        let proxy = ChaosProxy::start(addr, ChaosPlan::new()).unwrap();
        let transport = StdArc::new(TcpTransport::connect(proxy.addr()).unwrap());
        let t: StdArc<dyn CfTransport> = StdArc::clone(&transport) as _;
        let lock = RemoteLockConnection::attach(t, "CHAOS_LOCK").unwrap();
        proxy.partition();
        assert!(proxy.is_partitioned());
        let err = lock.request_lock(lock.hash_resource(b"RES-P"), LockMode::Exclusive);
        assert!(err.is_err(), "partitioned link must fault");
        proxy.heal();
        assert!(!proxy.is_partitioned());
        // The old TcpTransport's stream is dead; a fresh dial through the
        // healed proxy works again.
        let t2: StdArc<dyn CfTransport> = StdArc::new(TcpTransport::connect(proxy.addr()).unwrap());
        let lock2 = RemoteLockConnection::attach(t2, "CHAOS_LOCK").unwrap();
        assert!(lock2.request_lock(lock2.hash_resource(b"RES-Q"), LockMode::Exclusive).unwrap().is_granted());
    }

    #[test]
    fn dropped_response_then_retry_recovers_with_policy() {
        use sysplex_core::connection::CommandClass;
        use sysplex_core::{RetryPolicy, SystemId};
        use sysplex_services::sysplex::{Sysplex, SysplexConfig};
        use sysplex_services::transport::{RemoteSysplex, SysplexServer};

        let plex = Sysplex::new(SysplexConfig::functional("CHAOSPLEX"));
        let cf = plex.add_cf("CF01");
        cf.allocate_lock_structure("CHAOS_LOCK", LockParams::with_entries(64)).unwrap();
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        // Frames 0..=5: Hello, the admission pulse and the attach, each a
        // round trip. Drop frame 7 (the response to the first lock
        // request); the session's next send must succeed and the stream
        // must stay in step afterwards.
        let plan = ChaosPlan::new().at(7, WireFault::Drop);
        let proxy = ChaosProxy::start(server.local_addr(), plan).unwrap();
        let remote = RemoteSysplex::connect_resilient(
            &proxy.addr().to_string(),
            SystemId::new(1),
            "SYS01",
            100.0,
            RetryPolicy::seeded(0xBEEF).attempts(3).backoff_ms(1, 4),
            Duration::from_millis(150),
        )
        .unwrap();
        let lock = remote.connect_lock("CHAOS_LOCK").unwrap();
        assert!(lock.request_lock(lock.hash_resource(b"RES-R"), LockMode::Exclusive).unwrap().is_granted());
        assert!(lock.request_lock(lock.hash_resource(b"RES-S"), LockMode::Exclusive).unwrap().is_granted());
        assert_eq!(proxy.applied(), vec![(7, WireFault::Drop)]);
        assert_eq!(cf.command_stats().class(CommandClass::LockRequest).issued.get(), 2, "RES-R served once");
        remote.goodbye().unwrap();
    }
}
