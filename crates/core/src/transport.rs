//! Pluggable CF transports: the same command surface over a function call
//! or a socket.
//!
//! The paper's CF is reached over dedicated fiber links from *separate
//! machines* (§3.3); this reproduction historically collapsed that into
//! in-process method calls. This module restores the boundary without
//! giving up the in-process fast path:
//!
//! * [`CfTransport`] is the carrier contract: one [`WireRequest`] in, one
//!   [`WireResponse`] out, with transport faults surfacing as the typed
//!   [`CfError::LinkTimeout`] / [`CfError::InterfaceControlCheck`] the
//!   LinkFault machinery already produces.
//! * [`InProcessTransport`] dispatches into the native connection layer.
//!   Commands retain their exact subchannel accounting, conversion and
//!   trace events, so a sysplex assembled over it is bit-for-bit the
//!   sysplex the deterministic harness replays. It doubles as the serving
//!   end of every wire backend ([`serve_cf_stream`]).
//! * [`TcpTransport`] frames requests over a socket to a CF served in
//!   another OS process. A dead socket maps to `LinkTimeout`, a garbled
//!   frame to `InterfaceControlCheck` — indistinguishable, by design, from
//!   an injected link fault or a facility shutdown.
//!
//! [`RemoteLockConnection`], [`RemoteCacheConnection`] and
//! [`RemoteListConnection`] put the familiar connection API on top of any
//! transport. They are additive: native connections are untouched, and
//! exploiters that hold them keep their zero-cost path.

use crate::cache::{BlockName, RegisterResult, WriteKind, WriteResult};
use crate::connection::{
    CacheConnection, CfCommand, CfSubchannel, CommandClass, ConnectionStats, ListConnection, LockConnection,
};
use crate::error::{CfError, CfResult};
use crate::facility::CouplingFacility;
use crate::hashing::hash_to_slot;
use crate::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use crate::lock::{DisconnectMode, LockMode, LockResponse, RetainedLock};
use crate::retry::RetryPolicy;
use crate::stats::{Counter, HistogramSnapshot};
use crate::types::{ConnId, ConnMask};
use crate::wire::{
    parse_frame_header, read_frame, write_frame, WireHandle, WireRequest, WireResponse, FRAME_HEADER_BYTES,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which carrier a transport runs over. Recorded in every BENCH_*.json so
/// numbers from different backends are never compared blind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportBackend {
    /// Native function calls into an in-process facility (deterministic,
    /// zero wire cost).
    InProcess,
    /// Framed TCP to a facility served by another OS process.
    Tcp,
}

impl TransportBackend {
    /// Stable report name.
    pub const fn name(self) -> &'static str {
        match self {
            TransportBackend::InProcess => "in-process",
            TransportBackend::Tcp => "tcp",
        }
    }
}

/// A carrier for CF command traffic.
///
/// `call` is a synchronous RPC: transport-level faults (dead link, garbled
/// frame) come back as `Err`; structure-level outcomes — including typed
/// structure errors — come back inside the [`WireResponse`].
pub trait CfTransport: Send + Sync + std::fmt::Debug {
    /// Which backend this transport is.
    fn backend(&self) -> TransportBackend;

    /// Issue one request and wait for its response.
    fn call(&self, req: WireRequest) -> CfResult<WireResponse>;
}

/// One attached endpoint at the serving end of a transport.
#[derive(Debug, Clone)]
enum Endpoint {
    Lock(LockConnection),
    Cache(CacheConnection),
    List(ListConnection),
}

/// The in-process backend: dispatches wire requests straight into the
/// native connection layer of a local [`CouplingFacility`].
///
/// Every request travels the same subchannel as a native call — identical
/// accounting, conversion, fault injection and trace events — so
/// the in-process backend adds no behavior, only the request/response
/// shape. It is also the execution engine of the TCP server: each accepted
/// socket gets one `InProcessTransport` and pumps decoded frames through
/// it.
#[derive(Debug)]
pub struct InProcessTransport {
    cf: Arc<CouplingFacility>,
    sub: CfSubchannel,
    endpoints: Mutex<HashMap<WireHandle, Endpoint>>,
    next_handle: AtomicU32,
}

impl InProcessTransport {
    /// A transport into `cf`, issuing through one subchannel (one system's
    /// worth of links).
    pub fn new(cf: &Arc<CouplingFacility>) -> Self {
        InProcessTransport::with_subchannel(cf, cf.subchannel())
    }

    /// A transport issuing through a caller-scoped subchannel (e.g. one
    /// already attributed to a system id for tracing).
    pub fn with_subchannel(cf: &Arc<CouplingFacility>, sub: CfSubchannel) -> Self {
        InProcessTransport {
            cf: Arc::clone(cf),
            sub,
            endpoints: Mutex::new(HashMap::new()),
            next_handle: AtomicU32::new(1),
        }
    }

    /// The facility this transport serves.
    pub fn facility(&self) -> &Arc<CouplingFacility> {
        &self.cf
    }

    fn insert(&self, ep: Endpoint) -> WireHandle {
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.endpoints.lock().insert(handle, ep);
        handle
    }

    fn lock_ep(&self, handle: WireHandle) -> CfResult<LockConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::Lock(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    fn cache_ep(&self, handle: WireHandle) -> CfResult<CacheConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::Cache(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    fn list_ep(&self, handle: WireHandle) -> CfResult<ListConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::List(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    fn remove(&self, handle: WireHandle) {
        self.endpoints.lock().remove(&handle);
    }

    /// Detach every endpoint still attached (connection teardown — the
    /// wire equivalent of a system dropping off its links). Abnormal for
    /// lock endpoints, so their interest is retained for recovery.
    pub fn detach_all(&self) {
        let eps: Vec<(WireHandle, Endpoint)> = self.endpoints.lock().drain().collect();
        for (_, ep) in eps {
            match ep {
                Endpoint::Lock(c) => {
                    let _ = c.detach(DisconnectMode::Abnormal);
                }
                Endpoint::Cache(c) => {
                    let _ = c.detach();
                }
                Endpoint::List(c) => {
                    let _ = c.detach();
                }
            }
        }
    }

    /// Execute one request to completion, folding structure errors into
    /// the response. Infallible at the transport level — this is the
    /// serving half every wire backend reuses.
    pub fn dispatch(&self, req: WireRequest) -> WireResponse {
        match self.try_dispatch(req) {
            Ok(resp) => resp,
            Err(e) => WireResponse::Error(e),
        }
    }

    fn try_dispatch(&self, req: WireRequest) -> CfResult<WireResponse> {
        use WireRequest as R;
        Ok(match req {
            R::AttachLock { structure } => {
                let s = self.cf.lock_structure(&structure)?;
                let c = LockConnection::attach(&s, self.sub.clone())?;
                let (conn, geometry) = (c.conn_id(), s.entries() as u64);
                WireResponse::Attached { handle: self.insert(Endpoint::Lock(c)), conn, geometry }
            }
            R::AttachLockSlot { structure, slot } => {
                let s = self.cf.lock_structure(&structure)?;
                let c = LockConnection::attach_slot(&s, self.sub.clone(), slot)?;
                let (conn, geometry) = (c.conn_id(), s.entries() as u64);
                WireResponse::Attached { handle: self.insert(Endpoint::Lock(c)), conn, geometry }
            }
            R::AttachCache { structure, vector_len } => {
                let s = self.cf.cache_structure(&structure)?;
                let c = CacheConnection::attach(&s, self.sub.clone(), vector_len as usize)?;
                let conn = c.conn_id();
                WireResponse::Attached { handle: self.insert(Endpoint::Cache(c)), conn, geometry: 0 }
            }
            R::AttachList { structure, vector_len } => {
                let s = self.cf.list_structure(&structure)?;
                let c = ListConnection::attach(&s, self.sub.clone(), vector_len as usize)?;
                let conn = c.conn_id();
                WireResponse::Attached { handle: self.insert(Endpoint::List(c)), conn, geometry: 0 }
            }
            R::LockRequest { handle, entry, mode } => {
                WireResponse::Lock(self.lock_ep(handle)?.request_lock(entry as usize, mode)?)
            }
            R::LockForce { handle, entry, mode } => {
                self.lock_ep(handle)?.force_interest(entry as usize, mode)?;
                WireResponse::Unit
            }
            R::LockRelease { handle, entry } => {
                self.lock_ep(handle)?.release_lock(entry as usize)?;
                WireResponse::Unit
            }
            R::LockHolders { handle, entry } => {
                let (mask, exclusive) = self.lock_ep(handle)?.holders(entry as usize)?;
                WireResponse::Holders { mask, exclusive }
            }
            R::LockIsNegotiate { handle, entry } => {
                WireResponse::Bool(self.lock_ep(handle)?.is_negotiate(entry as usize)?)
            }
            R::LockWriteRecord { handle, resource, mode, payload } => {
                self.lock_ep(handle)?.write_lock_record(&resource, mode, &payload)?;
                WireResponse::Unit
            }
            R::LockDeleteRecord { handle, resource } => {
                self.lock_ep(handle)?.delete_lock_record(&resource)?;
                WireResponse::Unit
            }
            R::LockRetainedOf { handle, peer } => {
                WireResponse::Retained(self.lock_ep(handle)?.retained_locks_of(peer)?)
            }
            R::LockIsFailedPersistent { handle, peer } => {
                WireResponse::Bool(self.lock_ep(handle)?.is_failed_persistent(peer)?)
            }
            R::LockRecoveryComplete { handle, peer } => {
                self.lock_ep(handle)?.recovery_complete_for(peer)?;
                WireResponse::Unit
            }
            R::LockDetach { handle, mode } => {
                let c = self.lock_ep(handle)?;
                c.detach(mode)?;
                self.remove(handle);
                WireResponse::Unit
            }
            R::LockDetachPeer { handle, peer, mode } => {
                self.lock_ep(handle)?.detach_peer(peer, mode)?;
                WireResponse::Unit
            }
            R::CacheRead { handle, name, vector_index } => {
                WireResponse::Register(self.cache_ep(handle)?.register_read(name, vector_index)?)
            }
            R::CacheWrite { handle, name, data, kind } => {
                WireResponse::Write(self.cache_ep(handle)?.write_invalidate(name, &data, kind)?)
            }
            R::CacheUnregister { handle, name } => {
                self.cache_ep(handle)?.unregister(name)?;
                WireResponse::Unit
            }
            R::CacheCastoutCandidates { handle, max } => {
                WireResponse::Blocks(self.cache_ep(handle)?.castout_candidates(max as usize)?)
            }
            R::CacheCastoutRead { handle, name } => {
                let (data, version) = self.cache_ep(handle)?.castout_read(name)?;
                WireResponse::Data { data: (*data).clone(), version }
            }
            R::CacheCastoutComplete { handle, name, version } => {
                self.cache_ep(handle)?.castout_complete(name, version)?;
                WireResponse::Unit
            }
            R::CacheIsValid { handle, vector_index } => {
                // The "local" bit vector lives at the serving end for a
                // remote connector, so this costs a round trip (documented
                // trade-off vs. the nanosecond native path).
                WireResponse::Bool(self.cache_ep(handle)?.is_valid(vector_index))
            }
            R::CacheDetach { handle } => {
                let c = self.cache_ep(handle)?;
                c.detach()?;
                self.remove(handle);
                WireResponse::Unit
            }
            R::ListEnqueue { handle, header, key, data, position, cond } => WireResponse::Entry(
                self.list_ep(handle)?.enqueue(header as usize, key, &data, position, cond)?,
            ),
            R::ListUpdate { handle, id, key, data, expected_version, cond } => {
                WireResponse::U64(self.list_ep(handle)?.update(id, key, &data, expected_version, cond)?)
            }
            R::ListReadEntry { handle, id } => {
                WireResponse::OptEntry(Some(self.list_ep(handle)?.read_entry(id)?))
            }
            R::ListDelete { handle, id, cond } => {
                self.list_ep(handle)?.delete(id, cond)?;
                WireResponse::Unit
            }
            R::ListMoveTo { handle, id, to_header, position, cond } => {
                self.list_ep(handle)?.move_to(id, to_header as usize, position, cond)?;
                WireResponse::Unit
            }
            R::ListTransfer { handle, id, from_header, to_header, position, cond } => {
                WireResponse::Bool(self.list_ep(handle)?.transfer(
                    id,
                    from_header as usize,
                    to_header as usize,
                    position,
                    cond,
                )?)
            }
            R::ListClaimFirst { handle, from, to, end, position, cond } => WireResponse::OptEntry(
                self.list_ep(handle)?.claim_first(from as usize, to as usize, end, position, cond)?,
            ),
            R::ListTake { handle, header, end, cond } => {
                WireResponse::OptEntry(self.list_ep(handle)?.take(header as usize, end, cond)?)
            }
            R::ListScan { handle, header } => {
                WireResponse::Entries(self.list_ep(handle)?.scan(header as usize)?)
            }
            R::ListHeaderLen { handle, header } => {
                WireResponse::U64(self.list_ep(handle)?.header_len(header as usize)? as u64)
            }
            R::ListLockAcquire { handle, entry } => {
                WireResponse::Bool(self.list_ep(handle)?.acquire_list_lock(entry as usize)?)
            }
            R::ListLockRelease { handle, entry } => {
                self.list_ep(handle)?.release_list_lock(entry as usize)?;
                WireResponse::Unit
            }
            R::ListLockHolder { handle, entry } => {
                WireResponse::OptConn(self.list_ep(handle)?.list_lock_holder(entry as usize)?)
            }
            R::ListMonitor { handle, header, vector_index } => {
                self.list_ep(handle)?.register_monitor(header as usize, vector_index)?;
                WireResponse::Unit
            }
            R::ListDeregisterMonitor { handle, header } => {
                self.list_ep(handle)?.deregister_monitor(header as usize)?;
                WireResponse::Unit
            }
            R::ListIsSignaled { handle, vector_index } => {
                WireResponse::Bool(self.list_ep(handle)?.is_signaled(vector_index))
            }
            R::ListDetach { handle } => {
                let c = self.list_ep(handle)?;
                c.detach()?;
                self.remove(handle);
                WireResponse::Unit
            }
            R::Probe(cmd) => {
                self.sub.issue(cmd, || Ok(()))?;
                WireResponse::Unit
            }
        })
    }
}

impl CfTransport for InProcessTransport {
    fn backend(&self) -> TransportBackend {
        TransportBackend::InProcess
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        Ok(self.dispatch(req))
    }
}

/// Map a transport I/O failure to the typed link error the LinkFault
/// machinery already teaches exploiters to handle: garbled data is a
/// channel malfunction (IFCC), anything else is a command that went out
/// with nothing coming back (timeout).
pub fn io_to_cf_error(e: &std::io::Error, class_name: &'static str) -> CfError {
    if e.kind() == ErrorKind::InvalidData {
        CfError::InterfaceControlCheck(class_name)
    } else {
        CfError::LinkTimeout(class_name)
    }
}

/// Mid-frame stall budget for serving loops: how long a peer may pause
/// *inside* a frame before the reader declares the link dead. Between
/// frames a session may idle indefinitely — liveness between commands is
/// the heartbeat monitor's job, not the reader's.
pub const DEFAULT_MID_FRAME_STALL: Duration = Duration::from_secs(1);

/// Read one frame off a blocking socket, tolerating a slow writer.
///
/// A peer that dribbles a frame byte-by-byte is slow, not dead: each
/// partial read just has to land within `mid_frame_stall` of the last.
/// The reader blocks without a deadline for the *first* byte of a frame
/// (an idle session is a healthy session), then arms the stall budget for
/// the remainder. Outcomes:
///
/// * clean EOF at a frame boundary → `UnexpectedEof` (orderly end);
/// * EOF mid-frame → `ConnectionAborted` (peer died mid-command);
/// * silence mid-frame past the budget → `TimedOut` (stalled link);
/// * framing violations → `InvalidData`, as with [`read_frame`].
///
/// The socket's read timeout is restored to "block forever" on success.
pub fn read_frame_patient(stream: &mut TcpStream, mid_frame_stall: Duration) -> std::io::Result<Vec<u8>> {
    fn fill(stream: &mut TcpStream, buf: &mut [u8], in_frame: bool) -> std::io::Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(if in_frame {
                        std::io::Error::new(ErrorKind::ConnectionAborted, "eof mid-frame")
                    } else {
                        std::io::Error::new(ErrorKind::UnexpectedEof, "clean end of stream")
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "peer stalled mid-frame"));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    // Phase 1: wait (unbounded) for the first header byte.
    stream.set_read_timeout(None)?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut first = [0u8; 1];
    fill(stream, &mut first, false)?;
    header[0] = first[0];
    // Phase 2: a frame has started — every further read must make
    // progress within the stall budget.
    stream.set_read_timeout(Some(mid_frame_stall))?;
    let result = (|| {
        fill(stream, &mut header[1..], true)?;
        let len = parse_frame_header(&header)?;
        let mut body = vec![0u8; len];
        fill(stream, &mut body, true)?;
        Ok(body)
    })();
    // Back to idle: block forever awaiting the next frame.
    let _ = stream.set_read_timeout(None);
    result
}

/// The TCP backend: one framed request/response stream to a CF served in
/// another process (see [`serve_cf_stream`] for the serving half).
///
/// Calls serialize on the stream — one in flight per transport, matching
/// a subchannel's synchronous command model. Spin up more transports for
/// parallel links, exactly as a system configures multiple physical
/// coupling links.
#[derive(Debug)]
pub struct TcpTransport {
    stream: Mutex<TcpStream>,
    peer: String,
}

impl TcpTransport {
    /// Connect to a CF server at `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(TcpTransport::from_stream(stream))
    }

    /// Wrap an already-connected stream (e.g. from a sysplex session
    /// handshake). Disables Nagle: CF commands are latency-bound small
    /// frames.
    pub fn from_stream(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string());
        TcpTransport { stream: Mutex::new(stream), peer }
    }

    /// The peer address, for diagnostics.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Bound how long a call waits for its response frame. `None` (the
    /// default) blocks forever — appropriate on a clean network; under a
    /// hostile one a dropped response would otherwise hang the caller
    /// instead of surfacing as the retryable `LinkTimeout`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.lock().set_read_timeout(timeout)
    }
}

/// Discard any bytes already readable on `stream`. The request/response
/// protocol has exactly zero bytes in flight at call start, so anything
/// readable is stale: a duplicated or late response a fault (or an
/// abandoned retry) left behind. Draining before each request re-aligns
/// the stream instead of paying the desync forward one call at a time.
fn drain_stale_input(stream: &TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    let mut s = stream;
    while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    let _ = stream.set_nonblocking(false);
}

impl CfTransport for TcpTransport {
    fn backend(&self) -> TransportBackend {
        TransportBackend::Tcp
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        let class_name = req.class().name();
        let mut stream = self.stream.lock();
        drain_stale_input(&stream);
        write_frame(&mut *stream, &req.encode()).map_err(|e| io_to_cf_error(&e, class_name))?;
        let body = read_frame(&mut *stream).map_err(|e| io_to_cf_error(&e, class_name))?;
        WireResponse::decode(&body).map_err(|_| CfError::InterfaceControlCheck(class_name))
    }
}

/// Serve CF wire requests on `stream` until the peer hangs up: the serving
/// half of [`TcpTransport`]. Each decoded request dispatches through
/// `transport` (one per connection, so handles are per-peer). Returns when
/// the stream closes; endpoints left attached are torn down abnormally so
/// lock interest is retained for recovery, exactly like a system dropping
/// off its links.
///
/// Frames are read with [`read_frame_patient`]: a peer dribbling a frame
/// byte-by-byte is served normally, while one that goes silent mid-frame
/// for [`DEFAULT_MID_FRAME_STALL`] is treated as a dead link.
pub fn serve_cf_stream(transport: &InProcessTransport, stream: TcpStream) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let result = loop {
        let body = match read_frame_patient(&mut stream, DEFAULT_MID_FRAME_STALL) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => break Ok(()),
            Err(e) => break Err(e),
        };
        let resp = match WireRequest::decode(&body) {
            Ok(req) => transport.dispatch(req),
            Err(_) => WireResponse::Error(CfError::InterfaceControlCheck("wire-protocol")),
        };
        if let Err(e) = write_frame(&mut stream, &resp.encode()) {
            break Err(e);
        }
    };
    transport.detach_all();
    result
}

fn protocol_error(class_name: &'static str) -> CfError {
    CfError::InterfaceControlCheck(class_name)
}

/// Issue `req` over `transport`, retrying transport-level faults under
/// `policy` when one is set. Structure errors inside the response are
/// never retried — they are answers, not faults.
fn transport_call(
    transport: &Arc<dyn CfTransport>,
    policy: &Option<Arc<RetryPolicy>>,
    req: WireRequest,
) -> CfResult<WireResponse> {
    match policy {
        None => transport.call(req)?.into_result(),
        Some(p) => p.run(|_| transport.call(req.clone()))?.into_result(),
    }
}

/// A lock-structure connection over any [`CfTransport`] — the remote
/// counterpart of [`LockConnection`], method for method.
#[derive(Debug, Clone)]
pub struct RemoteLockConnection {
    transport: Arc<dyn CfTransport>,
    handle: WireHandle,
    conn: ConnId,
    /// Lock-table entry count shipped at attach, so resource hashing stays
    /// a host-side nanosecond operation even over a wire.
    entries: usize,
    policy: Option<Arc<RetryPolicy>>,
}

impl RemoteLockConnection {
    /// Attach to the named lock structure over `transport`.
    pub fn attach(transport: Arc<dyn CfTransport>, structure: &str) -> CfResult<Self> {
        Self::attach_req(transport, WireRequest::AttachLock { structure: structure.to_string() })
    }

    /// Attach claiming a specific connector slot (recovery rejoin).
    pub fn attach_slot(transport: Arc<dyn CfTransport>, structure: &str, slot: ConnId) -> CfResult<Self> {
        Self::attach_req(transport, WireRequest::AttachLockSlot { structure: structure.to_string(), slot })
    }

    fn attach_req(transport: Arc<dyn CfTransport>, req: WireRequest) -> CfResult<Self> {
        match transport.call(req)?.into_result()? {
            WireResponse::Attached { handle, conn, geometry } => {
                Ok(RemoteLockConnection { transport, handle, conn, entries: geometry as usize, policy: None })
            }
            _ => Err(protocol_error("lock-admin")),
        }
    }

    /// Retry transport faults on every command under `policy` (see
    /// [`RetryPolicy`] for the idempotency caveat).
    pub fn with_policy(mut self, policy: Arc<RetryPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        transport_call(&self.transport, &self.policy, req)
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.conn
    }

    /// The transport carrying this connection.
    pub fn transport(&self) -> &Arc<dyn CfTransport> {
        &self.transport
    }

    /// Hash a resource name to its lock-table entry — host-side compute,
    /// identical to the native connection's hash.
    pub fn hash_resource(&self, resource: &[u8]) -> usize {
        hash_to_slot(resource, self.entries)
    }

    /// Request `mode` interest in lock-table entry `entry`.
    pub fn request_lock(&self, entry: usize, mode: LockMode) -> CfResult<LockResponse> {
        match self.call(WireRequest::LockRequest { handle: self.handle, entry: entry as u64, mode })? {
            WireResponse::Lock(r) => Ok(r),
            _ => Err(protocol_error("lock-request")),
        }
    }

    /// Record `mode` interest unconditionally (post-negotiation).
    pub fn force_interest(&self, entry: usize, mode: LockMode) -> CfResult<()> {
        self.call(WireRequest::LockForce { handle: self.handle, entry: entry as u64, mode })?;
        Ok(())
    }

    /// Release this connection's interest in entry `entry`.
    pub fn release_lock(&self, entry: usize) -> CfResult<()> {
        self.call(WireRequest::LockRelease { handle: self.handle, entry: entry as u64 })?;
        Ok(())
    }

    /// Holders of entry `entry`: `(all interested, exclusive holder)`.
    pub fn holders(&self, entry: usize) -> CfResult<(ConnMask, Option<ConnId>)> {
        match self.call(WireRequest::LockHolders { handle: self.handle, entry: entry as u64 })? {
            WireResponse::Holders { mask, exclusive } => Ok((mask, exclusive)),
            _ => Err(protocol_error("lock-admin")),
        }
    }

    /// Whether entry `entry` is in negotiation.
    pub fn is_negotiate(&self, entry: usize) -> CfResult<bool> {
        match self.call(WireRequest::LockIsNegotiate { handle: self.handle, entry: entry as u64 })? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("lock-admin")),
        }
    }

    /// Write persistent record data for `resource` held in `mode`.
    pub fn write_lock_record(&self, resource: &[u8], mode: LockMode, payload: &[u8]) -> CfResult<()> {
        self.call(WireRequest::LockWriteRecord {
            handle: self.handle,
            resource: resource.to_vec(),
            mode,
            payload: payload.to_vec(),
        })?;
        Ok(())
    }

    /// Delete the persistent record for `resource`.
    pub fn delete_lock_record(&self, resource: &[u8]) -> CfResult<()> {
        self.call(WireRequest::LockDeleteRecord { handle: self.handle, resource: resource.to_vec() })?;
        Ok(())
    }

    /// Retained (failed-persistent) locks of connector `peer`.
    pub fn retained_locks_of(&self, peer: ConnId) -> CfResult<Vec<RetainedLock>> {
        match self.call(WireRequest::LockRetainedOf { handle: self.handle, peer })? {
            WireResponse::Retained(locks) => Ok(locks),
            _ => Err(protocol_error("lock-admin")),
        }
    }

    /// Whether connector `peer` is failed-persistent awaiting recovery.
    pub fn is_failed_persistent(&self, peer: ConnId) -> CfResult<bool> {
        match self.call(WireRequest::LockIsFailedPersistent { handle: self.handle, peer })? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("lock-admin")),
        }
    }

    /// Declare peer recovery complete: purges `peer`'s retained state.
    pub fn recovery_complete_for(&self, peer: ConnId) -> CfResult<()> {
        self.call(WireRequest::LockRecoveryComplete { handle: self.handle, peer })?;
        Ok(())
    }

    /// Disconnect this connection.
    pub fn detach(&self, mode: DisconnectMode) -> CfResult<()> {
        self.call(WireRequest::LockDetach { handle: self.handle, mode })?;
        Ok(())
    }

    /// Disconnect a peer's slot (surviving system marking a dead peer
    /// failed-persistent).
    pub fn detach_peer(&self, peer: ConnId, mode: DisconnectMode) -> CfResult<()> {
        self.call(WireRequest::LockDetachPeer { handle: self.handle, peer, mode })?;
        Ok(())
    }
}

/// A cache-structure connection over any [`CfTransport`] — the remote
/// counterpart of [`CacheConnection`].
///
/// One semantic difference is unavoidable: over a wire, the "local" bit
/// vector lives at the serving end, so [`RemoteCacheConnection::is_valid`]
/// costs a round trip instead of a nanosecond register test. Exploiters
/// that live on the latency of that test belong on the in-process backend.
#[derive(Debug, Clone)]
pub struct RemoteCacheConnection {
    transport: Arc<dyn CfTransport>,
    handle: WireHandle,
    conn: ConnId,
    policy: Option<Arc<RetryPolicy>>,
}

impl RemoteCacheConnection {
    /// Attach to the named cache structure over `transport` with a
    /// serving-side bit vector of `vector_len` entries.
    pub fn attach(transport: Arc<dyn CfTransport>, structure: &str, vector_len: usize) -> CfResult<Self> {
        let req =
            WireRequest::AttachCache { structure: structure.to_string(), vector_len: vector_len as u64 };
        match transport.call(req)?.into_result()? {
            WireResponse::Attached { handle, conn, .. } => {
                Ok(RemoteCacheConnection { transport, handle, conn, policy: None })
            }
            _ => Err(protocol_error("cache-admin")),
        }
    }

    /// Retry transport faults on every command under `policy` (see
    /// [`RetryPolicy`] for the idempotency caveat).
    pub fn with_policy(mut self, policy: Arc<RetryPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        transport_call(&self.transport, &self.policy, req)
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.conn
    }

    /// Read block `name` and register interest at `vector_index`.
    pub fn register_read(&self, name: BlockName, vector_index: u32) -> CfResult<RegisterResult> {
        match self.call(WireRequest::CacheRead { handle: self.handle, name, vector_index })? {
            WireResponse::Register(r) => Ok(r),
            _ => Err(protocol_error("cache-read")),
        }
    }

    /// Write block `name` and cross-invalidate other registered connectors.
    pub fn write_invalidate(&self, name: BlockName, data: &[u8], kind: WriteKind) -> CfResult<WriteResult> {
        let req = WireRequest::CacheWrite { handle: self.handle, name, data: data.to_vec(), kind };
        match self.call(req)? {
            WireResponse::Write(w) => Ok(w),
            _ => Err(protocol_error("cache-write")),
        }
    }

    /// Drop this connection's registered interest in block `name`.
    pub fn unregister(&self, name: BlockName) -> CfResult<()> {
        self.call(WireRequest::CacheUnregister { handle: self.handle, name })?;
        Ok(())
    }

    /// Changed blocks eligible for castout, oldest first.
    pub fn castout_candidates(&self, max: usize) -> CfResult<Vec<BlockName>> {
        match self.call(WireRequest::CacheCastoutCandidates { handle: self.handle, max: max as u64 })? {
            WireResponse::Blocks(names) => Ok(names),
            _ => Err(protocol_error("cache-castout")),
        }
    }

    /// Read a changed block for castout to DASD.
    pub fn castout_read(&self, name: BlockName) -> CfResult<(Vec<u8>, u64)> {
        match self.call(WireRequest::CacheCastoutRead { handle: self.handle, name })? {
            WireResponse::Data { data, version } => Ok((data, version)),
            _ => Err(protocol_error("cache-castout")),
        }
    }

    /// Mark a castout complete (block hardened to DASD at `version`).
    pub fn castout_complete(&self, name: BlockName, version: u64) -> CfResult<()> {
        self.call(WireRequest::CacheCastoutComplete { handle: self.handle, name, version })?;
        Ok(())
    }

    /// Test buffer validity. Remote: a wire round trip, not a register
    /// test (see the type-level docs).
    pub fn is_valid(&self, vector_index: u32) -> CfResult<bool> {
        match self.call(WireRequest::CacheIsValid { handle: self.handle, vector_index })? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("cache-admin")),
        }
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.call(WireRequest::CacheDetach { handle: self.handle })?;
        Ok(())
    }
}

/// A list-structure connection over any [`CfTransport`] — the remote
/// counterpart of [`ListConnection`]. Notification-vector tests cost a
/// round trip over a wire (same trade-off as the cache bit vector).
#[derive(Debug, Clone)]
pub struct RemoteListConnection {
    transport: Arc<dyn CfTransport>,
    handle: WireHandle,
    conn: ConnId,
    policy: Option<Arc<RetryPolicy>>,
}

impl RemoteListConnection {
    /// Attach to the named list structure over `transport`.
    pub fn attach(transport: Arc<dyn CfTransport>, structure: &str, vector_len: usize) -> CfResult<Self> {
        let req = WireRequest::AttachList { structure: structure.to_string(), vector_len: vector_len as u64 };
        match transport.call(req)?.into_result()? {
            WireResponse::Attached { handle, conn, .. } => {
                Ok(RemoteListConnection { transport, handle, conn, policy: None })
            }
            _ => Err(protocol_error("list-admin")),
        }
    }

    /// Retry transport faults on every command under `policy` (see
    /// [`RetryPolicy`] for the idempotency caveat).
    pub fn with_policy(mut self, policy: Arc<RetryPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        transport_call(&self.transport, &self.policy, req)
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.conn
    }

    /// Write a new entry to `header`.
    pub fn enqueue(
        &self,
        header: usize,
        key: u64,
        data: &[u8],
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<EntryId> {
        let req = WireRequest::ListEnqueue {
            handle: self.handle,
            header: header as u64,
            key,
            data: data.to_vec(),
            position,
            cond,
        };
        match self.call(req)? {
            WireResponse::Entry(id) => Ok(id),
            _ => Err(protocol_error("list-write")),
        }
    }

    /// Update entry `id` in place, optionally version-conditional.
    pub fn update(
        &self,
        id: EntryId,
        key: u64,
        data: &[u8],
        expected_version: Option<u64>,
        cond: LockCondition,
    ) -> CfResult<u64> {
        let req = WireRequest::ListUpdate {
            handle: self.handle,
            id,
            key,
            data: data.to_vec(),
            expected_version,
            cond,
        };
        match self.call(req)? {
            WireResponse::U64(v) => Ok(v),
            _ => Err(protocol_error("list-write")),
        }
    }

    /// Read entry `id`.
    pub fn read_entry(&self, id: EntryId) -> CfResult<EntryView> {
        match self.call(WireRequest::ListReadEntry { handle: self.handle, id })? {
            WireResponse::OptEntry(Some(e)) => Ok(e),
            _ => Err(protocol_error("list-read")),
        }
    }

    /// Delete entry `id`.
    pub fn delete(&self, id: EntryId, cond: LockCondition) -> CfResult<()> {
        self.call(WireRequest::ListDelete { handle: self.handle, id, cond })?;
        Ok(())
    }

    /// Atomically move entry `id` to `to_header`.
    pub fn move_to(
        &self,
        id: EntryId,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<()> {
        self.call(WireRequest::ListMoveTo {
            handle: self.handle,
            id,
            to_header: to_header as u64,
            position,
            cond,
        })?;
        Ok(())
    }

    /// Conditionally move entry `id` between headers; `Ok(false)` = claim
    /// race lost, nothing moved.
    pub fn transfer(
        &self,
        id: EntryId,
        from_header: usize,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<bool> {
        let req = WireRequest::ListTransfer {
            handle: self.handle,
            id,
            from_header: from_header as u64,
            to_header: to_header as u64,
            position,
            cond,
        };
        match self.call(req)? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("list-move")),
        }
    }

    /// Atomically take the first entry of `from` and move it to `to`.
    pub fn claim_first(
        &self,
        from: usize,
        to: usize,
        end: DequeueEnd,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<Option<EntryView>> {
        let req = WireRequest::ListClaimFirst {
            handle: self.handle,
            from: from as u64,
            to: to as u64,
            end,
            position,
            cond,
        };
        match self.call(req)? {
            WireResponse::OptEntry(e) => Ok(e),
            _ => Err(protocol_error("list-move")),
        }
    }

    /// Dequeue one entry from `header`.
    pub fn take(&self, header: usize, end: DequeueEnd, cond: LockCondition) -> CfResult<Option<EntryView>> {
        match self.call(WireRequest::ListTake { handle: self.handle, header: header as u64, end, cond })? {
            WireResponse::OptEntry(e) => Ok(e),
            _ => Err(protocol_error("list-move")),
        }
    }

    /// Read every entry of `header`, in order.
    pub fn scan(&self, header: usize) -> CfResult<Vec<EntryView>> {
        match self.call(WireRequest::ListScan { handle: self.handle, header: header as u64 })? {
            WireResponse::Entries(es) => Ok(es),
            _ => Err(protocol_error("list-read")),
        }
    }

    /// Number of entries currently on `header`.
    pub fn header_len(&self, header: usize) -> CfResult<usize> {
        match self.call(WireRequest::ListHeaderLen { handle: self.handle, header: header as u64 })? {
            WireResponse::U64(n) => Ok(n as usize),
            _ => Err(protocol_error("list-read")),
        }
    }

    /// Try to acquire serializing lock entry `entry`.
    pub fn acquire_list_lock(&self, entry: usize) -> CfResult<bool> {
        match self.call(WireRequest::ListLockAcquire { handle: self.handle, entry: entry as u64 })? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("list-admin")),
        }
    }

    /// Release serializing lock entry `entry`.
    pub fn release_list_lock(&self, entry: usize) -> CfResult<()> {
        self.call(WireRequest::ListLockRelease { handle: self.handle, entry: entry as u64 })?;
        Ok(())
    }

    /// Current holder of serializing lock entry `entry`.
    pub fn list_lock_holder(&self, entry: usize) -> CfResult<Option<ConnId>> {
        match self.call(WireRequest::ListLockHolder { handle: self.handle, entry: entry as u64 })? {
            WireResponse::OptConn(c) => Ok(c),
            _ => Err(protocol_error("list-admin")),
        }
    }

    /// Monitor `header` for empty→non-empty transitions at `vector_index`.
    pub fn register_monitor(&self, header: usize, vector_index: u32) -> CfResult<()> {
        self.call(WireRequest::ListMonitor { handle: self.handle, header: header as u64, vector_index })?;
        Ok(())
    }

    /// Stop monitoring `header`.
    pub fn deregister_monitor(&self, header: usize) -> CfResult<()> {
        self.call(WireRequest::ListDeregisterMonitor { handle: self.handle, header: header as u64 })?;
        Ok(())
    }

    /// Test the list-notification vector. Remote: a wire round trip.
    pub fn is_signaled(&self, vector_index: u32) -> CfResult<bool> {
        match self.call(WireRequest::ListIsSignaled { handle: self.handle, vector_index })? {
            WireResponse::Bool(b) => Ok(b),
            _ => Err(protocol_error("list-admin")),
        }
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.call(WireRequest::ListDetach { handle: self.handle })?;
        Ok(())
    }
}

/// Issue a no-op command of `cmd`'s shape over `transport` purely for its
/// service time — the remote member's CF latency probe.
pub fn probe(transport: &dyn CfTransport, cmd: CfCommand) -> CfResult<()> {
    transport.call(WireRequest::Probe(cmd))?.into_result()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Member-side metering: the SMF record source
// ---------------------------------------------------------------------------

/// The accounting-relevant shape of one request, extracted **before** the
/// request value is moved into a transport call.
///
/// A meter cannot inspect the request after `call` consumes it, so the
/// shape (class, conversion verdict, structure handle, attach target) is
/// captured up front and paired with the response afterwards.
#[derive(Debug, Clone)]
pub struct CmdShape {
    class: CommandClass,
    converts: bool,
    handle: Option<WireHandle>,
    attach_name: Option<String>,
    is_force: bool,
    is_detach: bool,
}

impl CmdShape {
    /// Extract the shape of `req`.
    pub fn of(req: &WireRequest) -> CmdShape {
        use WireRequest as R;
        let cmd = req.command();
        CmdShape {
            class: cmd.class,
            converts: cmd.converts_async(),
            handle: req.structure_handle(),
            attach_name: match req {
                R::AttachLock { structure }
                | R::AttachLockSlot { structure, .. }
                | R::AttachCache { structure, .. }
                | R::AttachList { structure, .. } => Some(structure.clone()),
                _ => None,
            },
            is_force: matches!(req, R::LockForce { .. }),
            is_detach: matches!(req, R::LockDetach { .. } | R::CacheDetach { .. } | R::ListDetach { .. }),
        }
    }

    /// Command class the request is accounted under.
    pub fn class(&self) -> CommandClass {
        self.class
    }
}

/// Cumulative per-structure counters the meter accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StructureTally {
    requests: u64,
    contentions: u64,
    force_interests: u64,
    faulted: u64,
}

/// Per-class cumulative values at the last record cut.
#[derive(Debug, Clone, Default)]
struct ClassCut {
    issued: u64,
    sync: u64,
    async_converted: u64,
    faulted: u64,
    observed: HistogramSnapshot,
}

#[derive(Debug)]
struct MeterInner {
    /// Live attach handle → structure name.
    handles: HashMap<WireHandle, String>,
    /// Cumulative per-structure counters (survive detach).
    tallies: HashMap<String, StructureTally>,
    /// Interval baseline consumed by [`TransportMeter::cut_record`].
    cut: CutState,
}

#[derive(Debug)]
struct CutState {
    seq: u32,
    at: std::time::Instant,
    classes: Vec<ClassCut>,
    structures: HashMap<String, StructureTally>,
}

/// Member-side command accounting over any transport: the data source for
/// SMF-style interval records.
///
/// The meter mirrors the serving subchannel's accounting rules for
/// tunnelled commands — `issued` always, `sync` vs `async_converted` by
/// the descriptor the CF issues the command under ([`WireRequest::command`]),
/// `faulted` only on transport-level errors, latency recorded for every
/// command — so a member's records reconcile against the facility's own
/// counters the way the paper's SMF records reconcile against RMF.
#[derive(Debug)]
pub struct TransportMeter {
    stats: ConnectionStats,
    retries: Counter,
    inner: Mutex<MeterInner>,
}

impl TransportMeter {
    /// A fresh meter.
    pub fn new() -> Arc<TransportMeter> {
        Arc::new(TransportMeter {
            stats: ConnectionStats::new(),
            retries: Counter::new(),
            inner: Mutex::new(MeterInner {
                handles: HashMap::new(),
                tallies: HashMap::new(),
                cut: CutState {
                    seq: 0,
                    at: std::time::Instant::now(),
                    classes: vec![ClassCut::default(); CommandClass::COUNT],
                    structures: HashMap::new(),
                },
            }),
        })
    }

    /// Cumulative command accounting (same block shape as a subchannel's).
    pub fn stats(&self) -> &ConnectionStats {
        &self.stats
    }

    /// Note one wire-level redial/retry (commands the server may have seen
    /// without the member recording an outcome).
    pub fn note_retry(&self) {
        self.retries.incr();
    }

    /// Cumulative wire-level retries noted so far.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Account one completed command: `shape` captured before the call,
    /// `result` and issuer-observed `elapsed` afterwards.
    pub fn observe(&self, shape: &CmdShape, result: &CfResult<WireResponse>, elapsed: Duration) {
        let c = self.stats.class(shape.class);
        c.issued.incr();
        if shape.converts {
            c.async_converted.incr();
        } else {
            c.sync.incr();
        }
        let faulted = result.is_err();
        if faulted {
            c.faulted.incr();
        }
        c.latency.record(elapsed);

        let mut inner = self.inner.lock();
        if let (Some(name), Ok(WireResponse::Attached { handle, .. })) = (&shape.attach_name, result) {
            inner.handles.insert(*handle, name.clone());
        }
        if let Some(handle) = shape.handle {
            if let Some(name) = inner.handles.get(&handle).cloned() {
                let row = inner.tallies.entry(name).or_default();
                row.requests += 1;
                if faulted {
                    row.faulted += 1;
                }
                if shape.is_force {
                    row.force_interests += 1;
                }
                if matches!(result, Ok(WireResponse::Lock(LockResponse::Contention { .. }))) {
                    row.contentions += 1;
                }
                if shape.is_detach && matches!(result, Ok(resp) if !matches!(resp, WireResponse::Error(_))) {
                    inner.handles.remove(&handle);
                }
            }
        }
    }

    /// Cut one SMF-style interval record: per-class and per-structure
    /// activity since the previous cut (or meter creation), plus the
    /// member's cumulative trace-ring accounting from `tracer` (a member
    /// without local tracing reports zeros, which still reconcile).
    pub fn cut_record(
        &self,
        system: u8,
        member: &str,
        tracer: Option<&crate::trace::Tracer>,
        final_interval: bool,
    ) -> crate::wire::SmfRecord {
        let mut inner = self.inner.lock();
        let MeterInner { tallies, cut, .. } = &mut *inner;
        let now = std::time::Instant::now();
        let interval_us = now.duration_since(cut.at).as_micros().min(u64::MAX as u128) as u64;
        cut.at = now;
        let seq = cut.seq;
        cut.seq += 1;

        let mut classes = Vec::new();
        for class in CommandClass::ALL {
            let s = self.stats.class(class);
            let curr = ClassCut {
                issued: s.issued.get(),
                sync: s.sync.get(),
                async_converted: s.async_converted.get(),
                faulted: s.faulted.get(),
                observed: s.latency.snapshot(),
            };
            let prev = &cut.classes[class.index()];
            let row = crate::wire::SmfClassRow {
                issued: curr.issued.saturating_sub(prev.issued),
                sync: curr.sync.saturating_sub(prev.sync),
                async_converted: curr.async_converted.saturating_sub(prev.async_converted),
                faulted: curr.faulted.saturating_sub(prev.faulted),
                observed: curr.observed.delta(&prev.observed),
            };
            cut.classes[class.index()] = curr;
            if row.issued > 0 {
                classes.push((class, row));
            }
        }

        let mut structures = Vec::new();
        let mut names: Vec<String> = tallies.keys().cloned().collect();
        names.sort();
        for name in names {
            let t = tallies[&name];
            let prev = cut.structures.get(&name).copied().unwrap_or_default();
            if t != prev {
                structures.push(crate::wire::SmfStructureRow {
                    name,
                    requests: t.requests.saturating_sub(prev.requests),
                    contentions: t.contentions.saturating_sub(prev.contentions),
                    force_interests: t.force_interests.saturating_sub(prev.force_interests),
                    faulted: t.faulted.saturating_sub(prev.faulted),
                });
            }
        }
        cut.structures = tallies.clone();

        let (emitted, dropped) = tracer.map(|t| (t.total_emitted(), t.total_dropped())).unwrap_or((0, 0));
        crate::wire::SmfRecord {
            system,
            member: member.to_string(),
            seq,
            interval_us,
            final_interval,
            wire_retries: self.retries.get(),
            classes,
            structures,
            trace_emitted: emitted,
            trace_dropped: dropped,
            trace_retained: emitted.saturating_sub(dropped),
        }
    }
}

/// A transport wrapper metering every command: the in-process path to the
/// same records the TCP members ship, so the deterministic harness can
/// assert on them without sockets.
#[derive(Debug)]
pub struct MeteredTransport {
    inner: Arc<dyn CfTransport>,
    meter: Arc<TransportMeter>,
}

impl MeteredTransport {
    /// Meter every command through `inner` into `meter`.
    pub fn new(inner: Arc<dyn CfTransport>, meter: Arc<TransportMeter>) -> MeteredTransport {
        MeteredTransport { inner, meter }
    }

    /// The meter accumulating this transport's accounting.
    pub fn meter(&self) -> &Arc<TransportMeter> {
        &self.meter
    }
}

impl CfTransport for MeteredTransport {
    fn backend(&self) -> TransportBackend {
        self.inner.backend()
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        let shape = CmdShape::of(&req);
        let t0 = std::time::Instant::now();
        let result = self.inner.call(req);
        self.meter.observe(&shape, &result, t0.elapsed());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use crate::facility::{CfConfig, CouplingFacility};
    use crate::list::ListParams;
    use crate::lock::LockParams;
    use std::net::TcpListener;

    fn cf() -> Arc<CouplingFacility> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("L", LockParams::with_entries(64)).unwrap();
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        cf.allocate_list_structure("WQ", ListParams::with_headers(4)).unwrap();
        cf
    }

    fn exercise(transport: Arc<dyn CfTransport>, cf: &Arc<CouplingFacility>) {
        // Lock: hash parity with the native connection, grant, contention.
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let native = cf.connect_lock("L").unwrap();
        let entry = lock.hash_resource(b"ACCT.1");
        assert_eq!(entry, native.hash_resource(b"ACCT.1"), "remote hashing matches native");
        assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        match native.request_lock(entry, LockMode::Exclusive).unwrap() {
            LockResponse::Contention { exclusive, .. } => assert_eq!(exclusive, Some(lock.conn_id())),
            LockResponse::Granted => panic!("native must contend with the remote holder"),
        }
        lock.release_lock(entry).unwrap();
        lock.write_lock_record(b"ACCT.1", LockMode::Exclusive, b"undo").unwrap();
        lock.delete_lock_record(b"ACCT.1").unwrap();
        lock.detach(DisconnectMode::Normal).unwrap();

        // Cache: write on the remote cross-invalidates the native copy.
        let cache = RemoteCacheConnection::attach(Arc::clone(&transport), "GBP", 16).unwrap();
        let native = cf.connect_cache("GBP", 16).unwrap();
        let name = BlockName::from_parts(1, 7);
        native.register_read(name, 0).unwrap();
        cache.register_read(name, 0).unwrap();
        let w = cache.write_invalidate(name, &[9; 128], WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 1);
        assert!(!native.is_valid(0), "native copy cross-invalidated by remote write");
        let got = native.register_read(name, 0).unwrap();
        assert_eq!(got.data.as_deref().map(|d| d[0]), Some(9));
        cache.detach().unwrap();

        // List: remote enqueue visible to the native consumer.
        let list = RemoteListConnection::attach(Arc::clone(&transport), "WQ", 8).unwrap();
        let native = cf.connect_list("WQ", 8).unwrap();
        let id = list.enqueue(0, 5, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        assert_eq!(list.header_len(0).unwrap(), 1);
        assert_eq!(list.read_entry(id).unwrap().data, b"job");
        let taken = native.take(0, DequeueEnd::Head, LockCondition::None).unwrap().unwrap();
        assert_eq!(taken.id, id);
        list.detach().unwrap();

        // Probe: accounted like any other command.
        let before = cf.command_stats().issued();
        probe(&*transport, CfCommand::new(crate::connection::CommandClass::LockRequest, 64)).unwrap();
        assert!(cf.command_stats().issued() > before);
    }

    #[test]
    fn in_process_backend_carries_all_three_models() {
        let cf = cf();
        let transport: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        assert_eq!(transport.backend(), TransportBackend::InProcess);
        exercise(transport, &cf);
    }

    #[test]
    fn tcp_backend_carries_all_three_models() {
        let cf = cf();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_cf = Arc::clone(&cf);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let per_conn = InProcessTransport::new(&server_cf);
            let _ = serve_cf_stream(&per_conn, stream);
        });
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        assert_eq!(transport.backend(), TransportBackend::Tcp);
        exercise(Arc::clone(&transport), &cf);
        drop(transport);
        server.join().unwrap();
    }

    #[test]
    fn structure_errors_cross_the_wire_typed() {
        let cf = cf();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_cf = Arc::clone(&cf);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let per_conn = InProcessTransport::new(&server_cf);
            let _ = serve_cf_stream(&per_conn, stream);
        });
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        assert_eq!(
            RemoteLockConnection::attach(Arc::clone(&transport), "NOPE").unwrap_err(),
            CfError::NoSuchStructure("NOPE".to_string())
        );
        let list = RemoteListConnection::attach(Arc::clone(&transport), "WQ", 8).unwrap();
        assert_eq!(list.read_entry(EntryId(999)).unwrap_err(), CfError::NoSuchEntry);
        drop(list);
        drop(transport);
        server.join().unwrap();
    }

    #[test]
    fn server_disappearing_maps_to_link_timeout() {
        let cf = cf();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_cf = Arc::clone(&cf);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Serve exactly one request, then hang up mid-session.
            let per_conn = InProcessTransport::new(&server_cf);
            let mut stream = stream;
            let body = read_frame(&mut stream).unwrap();
            let resp = per_conn.dispatch(WireRequest::decode(&body).unwrap());
            write_frame(&mut stream, &resp.encode()).unwrap();
            drop(stream);
            per_conn.detach_all();
        });
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        server.join().unwrap();
        // The link is dead: the same typed timeout an injected LinkFault
        // or a facility shutdown produces.
        assert_eq!(lock.request_lock(3, LockMode::Shared).unwrap_err(), CfError::LinkTimeout("lock-request"));
    }

    #[test]
    fn abandoned_session_retains_lock_interest_for_recovery() {
        let cf = cf();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_cf = Arc::clone(&cf);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let per_conn = InProcessTransport::new(&server_cf);
            let _ = serve_cf_stream(&per_conn, stream);
        });
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let slot = lock.conn_id();
        assert!(lock.request_lock(7, LockMode::Exclusive).unwrap().is_granted());
        lock.write_lock_record(b"ACCT.9", LockMode::Exclusive, b"undo").unwrap();
        // Client process "dies": socket drops with the lock still held.
        drop(lock);
        drop(transport);
        server.join().unwrap();
        // Serving end detached the endpoint abnormally: failed-persistent,
        // retained locks readable by a surviving system.
        let survivor = cf.connect_lock("L").unwrap();
        assert!(survivor.is_failed_persistent(slot).unwrap());
        let retained = survivor.retained_locks_of(slot).unwrap();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].resource, b"ACCT.9");
        survivor.recovery_complete_for(slot).unwrap();
        assert!(!survivor.is_failed_persistent(slot).unwrap());
    }

    #[test]
    fn meter_mirrors_cf_accounting() {
        // Every tunnelled command through a metered in-process transport
        // must account identically at the member meter and at the serving
        // subchannel: same per-class issued/sync/async splits. This pins
        // WireRequest::command against the descriptors the native
        // connection methods issue under.
        let cf = cf();
        let meter = TransportMeter::new();
        let inner: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        let transport: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(inner, Arc::clone(&meter)));

        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let entry = lock.hash_resource(b"ACCT.1");
        assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        lock.write_lock_record(b"ACCT.1", LockMode::Exclusive, b"undo").unwrap();
        lock.release_lock(entry).unwrap();
        let cache = RemoteCacheConnection::attach(Arc::clone(&transport), "GBP", 16).unwrap();
        let name = BlockName::from_parts(1, 7);
        cache.register_read(name, 0).unwrap();
        cache.write_invalidate(name, &[9; 128], WriteKind::ChangedData).unwrap();
        cache.write_invalidate(name, &[9; 8192], WriteKind::ChangedData).unwrap();
        let list = RemoteListConnection::attach(Arc::clone(&transport), "WQ", 8).unwrap();
        list.enqueue(0, 5, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        let entries = list.scan(0).unwrap();
        assert_eq!(entries.len(), 1);
        // An oversized update converts like an oversized enqueue; a
        // retained-locks read does not (it is not bulk).
        list.update(entries[0].id, 5, &[7; 8192], None, LockCondition::None).unwrap();
        lock.retained_locks_of(lock.conn_id()).unwrap();
        probe(&*transport, CfCommand::new(CommandClass::CacheRead, 64)).unwrap();
        lock.detach(DisconnectMode::Normal).unwrap();
        cache.detach().unwrap();
        list.detach().unwrap();

        let served = cf.command_stats();
        for class in CommandClass::ALL {
            let m = meter.stats().class(class);
            let s = served.class(class);
            assert_eq!(m.issued.get(), s.issued.get(), "{}: issued", class.name());
            assert_eq!(m.sync.get(), s.sync.get(), "{}: sync", class.name());
            assert_eq!(m.async_converted.get(), s.async_converted.get(), "{}: async_converted", class.name());
            assert_eq!(m.latency.samples(), m.issued.get(), "{}: one sample per command", class.name());
        }
        let writes = served.class(CommandClass::ListWrite);
        assert_eq!(
            (writes.sync.get(), writes.async_converted.get()),
            (1, 1),
            "enqueue sync, update converted"
        );
        assert_eq!(served.class(CommandClass::LockAdmin).async_converted.get(), 0);
    }

    #[test]
    fn meter_cuts_interval_records_with_structure_rows() {
        let cf = cf();
        let meter = TransportMeter::new();
        let inner: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        let transport: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(inner, Arc::clone(&meter)));

        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let native = cf.connect_lock("L").unwrap();
        let entry = lock.hash_resource(b"ACCT.1");
        native.request_lock(entry, LockMode::Exclusive).unwrap();
        // A contended request and a forced interest both land in the
        // structure row.
        assert!(!lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        lock.force_interest(entry, LockMode::Exclusive).unwrap();

        let first = meter.cut_record(3, "SYS03", None, false);
        assert_eq!(first.system, 3);
        assert_eq!(first.seq, 0);
        assert!(!first.final_interval);
        for (_, row) in &first.classes {
            assert_eq!(row.issued, row.sync + row.async_converted);
            assert_eq!(row.observed.samples, row.issued);
        }
        let row = first.structures.iter().find(|s| s.name == "L").expect("lock structure row");
        assert_eq!(row.requests, 2, "contended request + force (the attach mints the handle)");
        assert_eq!(row.contentions, 1);
        assert_eq!(row.force_interests, 1);
        // The record survives its own wire codec.
        assert_eq!(crate::wire::SmfRecord::decode(&first.encode()).unwrap(), first);

        // A quiet interval cuts an empty record; new traffic appears in
        // (only) the following one.
        let second = meter.cut_record(3, "SYS03", None, false);
        assert_eq!(second.seq, 1);
        assert!(second.classes.is_empty(), "no traffic since the last cut");
        assert!(second.structures.is_empty());
        lock.release_lock(entry).unwrap();
        let third = meter.cut_record(3, "SYS03", None, true);
        assert!(third.final_interval);
        assert_eq!(third.classes.iter().map(|(_, r)| r.issued).sum::<u64>(), 1);
    }
}
