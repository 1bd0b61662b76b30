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
//! * [`InProcessTransport`] dispatches into the native connection layer
//!   by the serving column of the command table in [`crate::wire`].
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
//! transport: each method builds its row's [`WireRequest`] and extracts
//! the payload its return type names. They are additive: native
//! connections are untouched, and exploiters that hold them keep their
//! zero-cost path.

use crate::cache::{BlockName, RegisterResult, WriteKind, WriteResult, WriteSetResult};
use crate::connection::{
    CacheConnection, CfCommand, CfSubchannel, CommandClass, ConnectionSnapshot, ConnectionStats,
    ListConnection, LockConnection,
};
use crate::error::{CfError, CfResult};
use crate::facility::CouplingFacility;
use crate::hashing::{hash_to_slot, ResourceName};
use crate::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use crate::lock::{DisconnectMode, LockMode, LockResponse, RetainedLock};
use crate::types::{ConnId, ConnMask};
use crate::wire::{Flag, FrameStream, SmfRecord, SmfStructureRow, WireHandle, WireRequest, WireResponse};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::ErrorKind;
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

    fn attached(&self, conn: ConnId, geometry: u64, ep: Endpoint) -> WireResponse {
        let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.endpoints.lock().insert(handle, ep);
        WireResponse::Attached { handle, conn, geometry }
    }

    /// Serve an attach to lock structure `structure`, claiming `slot` if
    /// one is named.
    pub(crate) fn attach_lock(&self, structure: &str, slot: Option<ConnId>) -> CfResult<WireResponse> {
        let s = self.cf.lock_structure(structure)?;
        let c = match slot {
            None => LockConnection::attach(&s, self.sub.clone())?,
            Some(slot) => LockConnection::attach_slot(&s, self.sub.clone(), slot)?,
        };
        Ok(self.attached(c.conn_id(), s.entries() as u64, Endpoint::Lock(c)))
    }

    /// Serve an attach to cache structure `structure`.
    pub(crate) fn attach_cache(&self, structure: &str, vector_len: u64) -> CfResult<WireResponse> {
        let s = self.cf.cache_structure(structure)?;
        let c = CacheConnection::attach(&s, self.sub.clone(), vector_bits(vector_len))?;
        Ok(self.attached(c.conn_id(), 0, Endpoint::Cache(c)))
    }

    /// Serve an attach to list structure `structure`.
    pub(crate) fn attach_list(&self, structure: &str, vector_len: u64) -> CfResult<WireResponse> {
        let s = self.cf.list_structure(structure)?;
        let c = ListConnection::attach(&s, self.sub.clone(), vector_bits(vector_len))?;
        Ok(self.attached(c.conn_id(), 0, Endpoint::List(c)))
    }

    /// The lock connection attached as `handle`.
    pub(crate) fn lock(&self, handle: WireHandle) -> CfResult<LockConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::Lock(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    /// The cache connection attached as `handle`.
    pub(crate) fn cache(&self, handle: WireHandle) -> CfResult<CacheConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::Cache(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    /// The list connection attached as `handle`.
    pub(crate) fn list(&self, handle: WireHandle) -> CfResult<ListConnection> {
        match self.endpoints.lock().get(&handle) {
            Some(Endpoint::List(c)) => Ok(c.clone()),
            _ => Err(CfError::BadConnector),
        }
    }

    /// Issue a no-op command of `cmd`'s shape through the serving
    /// subchannel.
    pub(crate) fn probe(&self, cmd: CfCommand) -> CfResult<()> {
        self.sub.issue(cmd, || Ok(()))
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

    /// Execute one request to completion — the serving column of its row
    /// of the command table — folding structure errors into the response,
    /// and retire the handle of a `[Detach]` row that succeeded. Infallible
    /// at the transport level — this is the serving half every wire
    /// backend reuses.
    pub fn dispatch(&self, req: WireRequest) -> WireResponse {
        let row = req.row();
        let retired = row.handle.filter(|_| row.flag == Some(Flag::Detach));
        match req.serve(self) {
            Ok(resp) => {
                if let Some(handle) = retired {
                    self.endpoints.lock().remove(&handle);
                }
                resp
            }
            Err(e) => WireResponse::Error(e),
        }
    }
}

/// A vector length from an attach frame as the `usize` the structures
/// take. One too large for the platform saturates, and the structure's
/// own bound ([`crate::types::MAX_VECTOR_BITS`]) then refuses it.
fn vector_bits(vector_len: u64) -> usize {
    usize::try_from(vector_len).unwrap_or(usize::MAX)
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

/// The TCP backend: one framed request/response stream to a CF served in
/// another process (see [`serve_cf_stream`] for the serving half).
///
/// Calls serialize on the stream — one in flight per transport, matching
/// a subchannel's synchronous command model. Spin up more transports for
/// parallel links, exactly as a system configures multiple physical
/// coupling links.
#[derive(Debug)]
pub struct TcpTransport {
    /// The stream and the number its next request goes under.
    link: Mutex<(FrameStream<TcpStream>, u32)>,
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
        TcpTransport { link: Mutex::new((FrameStream::new(stream), 0)), peer }
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
        self.link.lock().0.get_ref().set_read_timeout(timeout)
    }
}

impl CfTransport for TcpTransport {
    fn backend(&self) -> TransportBackend {
        TransportBackend::Tcp
    }

    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        let class_name = req.class().name();
        let mut guard = self.link.lock();
        let (link, next_seq) = &mut *guard;
        let seq = *next_seq;
        *next_seq = seq.wrapping_add(1);
        let body = link.call(seq, |w| req.encode_into(w)).map_err(|e| io_to_cf_error(&e, class_name))?;
        WireResponse::decode(body).map_err(|_| CfError::InterfaceControlCheck(class_name))
    }
}

/// Serve CF wire requests on `stream` until the peer hangs up: the serving
/// half of [`TcpTransport`]. Each decoded request dispatches through
/// `transport` (one per connection, so handles are per-peer). Returns when
/// the stream closes; endpoints left attached are torn down abnormally so
/// lock interest is retained for recovery, exactly like a system dropping
/// off its links.
///
/// Frames are taken with [`FrameStream::recv_patient`]: a peer dribbling
/// a frame byte-by-byte is served normally, while one that goes silent
/// mid-frame for [`MID_FRAME_STALL`](crate::wire::MID_FRAME_STALL) is
/// treated as a dead link. Each response echoes its request's sequence
/// number. A request numbered like the last one answered is a repeat
/// (a duplicated frame): the stored answer is sent again and the request
/// is not served twice.
pub fn serve_cf_stream(transport: &InProcessTransport, stream: TcpStream) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut link = FrameStream::new(stream);
    let mut answered = None;
    let result = loop {
        let (seq, req) = match link.recv_patient() {
            Ok(frame) if answered == Some(frame.seq) => {
                if let Err(e) = link.resend() {
                    break Err(e);
                }
                continue;
            }
            Ok(frame) => (frame.seq, WireRequest::decode(frame.body())),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => break Ok(()),
            Err(e) => break Err(e),
        };
        let resp = match req {
            Ok(req) => transport.dispatch(req),
            Err(_) => WireResponse::Error(CfError::InterfaceControlCheck("wire-protocol")),
        };
        if let Err(e) = link.send(seq, |w| resp.encode_into(w)) {
            break Err(e);
        }
        answered = Some(seq);
    };
    transport.detach_all();
    result
}

/// The payload a [`WireResponse`] carries for a caller expecting `Self`;
/// `None` when the response is some other variant.
trait FromResponse: Sized {
    fn from_response(resp: WireResponse) -> Option<Self>;
}

/// A command that returns nothing has nothing to extract: any answer that
/// is not an error is its success.
impl FromResponse for () {
    fn from_response(_: WireResponse) -> Option<Self> {
        Some(())
    }
}

/// `type: response pattern => payload`, one [`FromResponse`] impl each.
macro_rules! from_response {
    ($($ty:ty: $pat:pat => $out:expr;)*) => {$(
        impl FromResponse for $ty {
            fn from_response(resp: WireResponse) -> Option<Self> {
                match resp {
                    $pat => Some($out),
                    _ => None,
                }
            }
        }
    )*};
}

from_response! {
    bool: WireResponse::Bool(b) => b;
    u64: WireResponse::U64(v) => v;
    usize: WireResponse::U64(v) => v as usize;
    LockResponse: WireResponse::Lock(outcome) => outcome;
    (ConnMask, Option<ConnId>): WireResponse::Holders { mask, exclusive } => (mask, exclusive);
    Vec<RetainedLock>: WireResponse::Retained(locks) => locks;
    RegisterResult: WireResponse::Register(reg) => reg;
    WriteResult: WireResponse::Write(res) => res;
    WriteSetResult: WireResponse::WriteSet(res) => res;
    Vec<BlockName>: WireResponse::Blocks(names) => names;
    (Vec<u8>, u64): WireResponse::Data { data, version } => (data, version);
    EntryId: WireResponse::Entry(id) => id;
    EntryView: WireResponse::OptEntry(Some(entry)) => entry;
    Option<EntryView>: WireResponse::OptEntry(entry) => entry;
    Vec<EntryView>: WireResponse::Entries(entries) => entries;
    Option<ConnId>: WireResponse::OptConn(conn) => conn;
}

/// What the three remote connections are made of: the carrier and the
/// handle and slot an attach minted.
#[derive(Debug, Clone)]
struct RemoteLink {
    transport: Arc<dyn CfTransport>,
    handle: WireHandle,
    conn: ConnId,
}

impl RemoteLink {
    /// Issue the attach request `req`; the link it minted, plus the
    /// response's geometry word.
    fn attach(transport: Arc<dyn CfTransport>, req: WireRequest) -> CfResult<(RemoteLink, u64)> {
        let class_name = req.class().name();
        match transport.call(req)?.into_result()? {
            WireResponse::Attached { handle, conn, geometry } => {
                Ok((RemoteLink { transport, handle, conn }, geometry))
            }
            _ => Err(CfError::InterfaceControlCheck(class_name)),
        }
    }

    /// Issue `req` once and extract the payload the caller's return type
    /// names. A link fault surfaces as it came: retrying is the carrier's
    /// business (a member session's), never the connection's. A response
    /// of the wrong shape is a protocol error, labelled with the request's
    /// class like any link fault.
    fn call<T: FromResponse>(&self, req: WireRequest) -> CfResult<T> {
        let class_name = req.class().name();
        T::from_response(self.transport.call(req)?.into_result()?)
            .ok_or(CfError::InterfaceControlCheck(class_name))
    }
}

/// A lock-structure connection over any [`CfTransport`] — the remote
/// counterpart of [`LockConnection`].
#[derive(Debug, Clone)]
pub struct RemoteLockConnection {
    link: RemoteLink,
    /// Lock-table entry count shipped at attach, so resource hashing stays
    /// a host-side nanosecond operation even over a wire.
    entries: usize,
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
        let (link, geometry) = RemoteLink::attach(transport, req)?;
        Ok(RemoteLockConnection { link, entries: geometry as usize })
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.link.conn
    }

    /// The transport carrying this connection.
    pub fn transport(&self) -> &Arc<dyn CfTransport> {
        &self.link.transport
    }

    /// Hash a resource name to its lock-table entry — host-side compute,
    /// identical to the native connection's hash.
    pub fn hash_resource(&self, resource: &[u8]) -> usize {
        hash_to_slot(resource, self.entries)
    }

    /// Request `mode` interest in lock-table entry `entry`.
    pub fn request_lock(&self, entry: usize, mode: LockMode) -> CfResult<LockResponse> {
        self.link.call(WireRequest::LockRequest { handle: self.link.handle, entry: entry as u64, mode })
    }

    /// Record `mode` interest unconditionally (post-negotiation).
    pub fn force_interest(&self, entry: usize, mode: LockMode) -> CfResult<()> {
        self.link.call(WireRequest::LockForce { handle: self.link.handle, entry: entry as u64, mode })
    }

    /// Record `mode` interest after negotiating with `negotiated`; refused
    /// (`Ok(false)`) when a holder outside that set has appeared since the
    /// contention response, or when the entry `generation` it quoted has
    /// moved — see [`LockConnection::force_interest_negotiated`].
    pub fn force_interest_negotiated(
        &self,
        entry: usize,
        mode: LockMode,
        negotiated: ConnMask,
        generation: u16,
    ) -> CfResult<bool> {
        self.link.call(WireRequest::LockForceNegotiated {
            handle: self.link.handle,
            entry: entry as u64,
            mode,
            negotiated,
            generation,
        })
    }

    /// Request `mode` interest in `entry`, writing the record for `resource`
    /// in the same command if it is granted — see
    /// [`LockConnection::request_lock_recorded`].
    pub fn request_lock_recorded(
        &self,
        entry: usize,
        mode: LockMode,
        resource: &[u8],
        payload: &[u8],
    ) -> CfResult<LockResponse> {
        self.link.call(WireRequest::LockRequestRecorded {
            handle: self.link.handle,
            entry: entry as u64,
            mode,
            resource: resource.to_vec(),
            payload: payload.to_vec(),
        })
    }

    /// Release this connection's interest in entry `entry`.
    pub fn release_lock(&self, entry: usize) -> CfResult<()> {
        self.link.call(WireRequest::LockRelease { handle: self.link.handle, entry: entry as u64 })
    }

    /// Delete this connection's records for `records` and release its
    /// interest in `entries`, as one command — see
    /// [`LockConnection::release_set`].
    pub fn release_set(&self, entries: &[usize], records: &[ResourceName]) -> CfResult<()> {
        self.link.call(WireRequest::LockReleaseSet {
            handle: self.link.handle,
            entries: entries.to_vec(),
            records: records.iter().map(|r| r.as_bytes().to_vec()).collect(),
        })
    }

    /// Holders of entry `entry`: `(all interested, exclusive holder)`.
    pub fn holders(&self, entry: usize) -> CfResult<(ConnMask, Option<ConnId>)> {
        self.link.call(WireRequest::LockHolders { handle: self.link.handle, entry: entry as u64 })
    }

    /// Write persistent records for `records` as one command — see
    /// [`LockConnection::write_lock_record_set`].
    pub fn write_lock_record_set<P: AsRef<[u8]>>(
        &self,
        records: &[(ResourceName, LockMode, P)],
    ) -> CfResult<()> {
        self.link.call(WireRequest::LockRecordSet {
            handle: self.link.handle,
            records: records
                .iter()
                .map(|(name, mode, payload)| (name.as_bytes().to_vec(), *mode, payload.as_ref().to_vec()))
                .collect(),
        })
    }

    /// Retained (failed-persistent) locks of connector `peer`.
    pub fn retained_locks_of(&self, peer: ConnId) -> CfResult<Vec<RetainedLock>> {
        self.link.call(WireRequest::LockRetainedOf { handle: self.link.handle, peer })
    }

    /// Whether connector `peer` is failed-persistent awaiting recovery.
    pub fn is_failed_persistent(&self, peer: ConnId) -> CfResult<bool> {
        self.link.call(WireRequest::LockIsFailedPersistent { handle: self.link.handle, peer })
    }

    /// Declare peer recovery complete: purges `peer`'s retained state.
    pub fn recovery_complete_for(&self, peer: ConnId) -> CfResult<()> {
        self.link.call(WireRequest::LockRecoveryComplete { handle: self.link.handle, peer })
    }

    /// Disconnect this connection.
    pub fn detach(&self, mode: DisconnectMode) -> CfResult<()> {
        self.link.call(WireRequest::LockDetach { handle: self.link.handle, mode })
    }

    /// Disconnect a peer's slot (surviving system marking a dead peer
    /// failed-persistent).
    pub fn detach_peer(&self, peer: ConnId, mode: DisconnectMode) -> CfResult<()> {
        self.link.call(WireRequest::LockDetachPeer { handle: self.link.handle, peer, mode })
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
    link: RemoteLink,
}

impl RemoteCacheConnection {
    /// Attach to the named cache structure over `transport` with a
    /// serving-side bit vector of `vector_len` entries.
    pub fn attach(transport: Arc<dyn CfTransport>, structure: &str, vector_len: usize) -> CfResult<Self> {
        let req =
            WireRequest::AttachCache { structure: structure.to_string(), vector_len: vector_len as u64 };
        Ok(RemoteCacheConnection { link: RemoteLink::attach(transport, req)?.0 })
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.link.conn
    }

    /// Read block `name` and register interest at `vector_index`.
    pub fn register_read(&self, name: BlockName, vector_index: u32) -> CfResult<RegisterResult> {
        self.link.call(WireRequest::CacheRead { handle: self.link.handle, name, vector_index })
    }

    /// Register `name` into a stolen buffer, dropping the registration of
    /// `replaced`, its previous tenant, in the same command.
    pub fn register_read_replacing(
        &self,
        name: BlockName,
        vector_index: u32,
        replaced: Option<BlockName>,
    ) -> CfResult<RegisterResult> {
        let handle = self.link.handle;
        self.link.call(WireRequest::CacheReadReplacing { handle, name, vector_index, replaced })
    }

    /// Write block `name` and cross-invalidate other registered connectors.
    pub fn write_invalidate(&self, name: BlockName, data: &[u8], kind: WriteKind) -> CfResult<WriteResult> {
        self.link.call(WireRequest::CacheWrite { handle: self.link.handle, name, data: data.to_vec(), kind })
    }

    /// Write `blocks` in order, cross-invalidating each, as one command —
    /// see [`CacheConnection::write_invalidate_set`].
    pub fn write_invalidate_set<B: AsRef<[u8]>>(
        &self,
        blocks: &[(BlockName, Option<u64>, B)],
        kind: WriteKind,
    ) -> CfResult<WriteSetResult> {
        self.link.call(WireRequest::CacheWriteSet {
            handle: self.link.handle,
            blocks: blocks
                .iter()
                .map(|(name, expect, data)| (*name, *expect, data.as_ref().to_vec()))
                .collect(),
            kind,
        })
    }

    /// Changed blocks eligible for castout, oldest first.
    pub fn castout_candidates(&self, max: usize) -> CfResult<Vec<BlockName>> {
        self.link.call(WireRequest::CacheCastoutCandidates { handle: self.link.handle, max: max as u64 })
    }

    /// Read a changed block for castout to DASD.
    pub fn castout_read(&self, name: BlockName) -> CfResult<(Vec<u8>, u64)> {
        self.link.call(WireRequest::CacheCastoutRead { handle: self.link.handle, name })
    }

    /// Mark a castout complete (block hardened to DASD at `version`).
    pub fn castout_complete(&self, name: BlockName, version: u64) -> CfResult<()> {
        self.link.call(WireRequest::CacheCastoutComplete { handle: self.link.handle, name, version })
    }

    /// Test buffer validity. Remote: a wire round trip, not a register
    /// test (see the type-level docs).
    pub fn is_valid(&self, vector_index: u32) -> CfResult<bool> {
        self.link.call(WireRequest::CacheIsValid { handle: self.link.handle, vector_index })
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.link.call(WireRequest::CacheDetach { handle: self.link.handle })
    }
}

/// A list-structure connection over any [`CfTransport`] — the remote
/// counterpart of [`ListConnection`]. Notification-vector tests cost a
/// round trip over a wire (same trade-off as the cache bit vector).
#[derive(Debug, Clone)]
pub struct RemoteListConnection {
    link: RemoteLink,
}

impl RemoteListConnection {
    /// Attach to the named list structure over `transport`.
    pub fn attach(transport: Arc<dyn CfTransport>, structure: &str, vector_len: usize) -> CfResult<Self> {
        let req = WireRequest::AttachList { structure: structure.to_string(), vector_len: vector_len as u64 };
        Ok(RemoteListConnection { link: RemoteLink::attach(transport, req)?.0 })
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.link.conn
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
        self.link.call(WireRequest::ListEnqueue {
            handle: self.link.handle,
            header: header as u64,
            key,
            data: data.to_vec(),
            position,
            cond,
        })
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
        self.link.call(WireRequest::ListUpdate {
            handle: self.link.handle,
            id,
            key,
            data: data.to_vec(),
            expected_version,
            cond,
        })
    }

    /// Read entry `id`.
    pub fn read_entry(&self, id: EntryId) -> CfResult<EntryView> {
        self.link.call(WireRequest::ListReadEntry { handle: self.link.handle, id })
    }

    /// Delete entry `id`.
    pub fn delete(&self, id: EntryId, cond: LockCondition) -> CfResult<()> {
        self.link.call(WireRequest::ListDelete { handle: self.link.handle, id, cond })
    }

    /// Atomically move entry `id` to `to_header`.
    pub fn move_to(
        &self,
        id: EntryId,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<()> {
        self.link.call(WireRequest::ListMoveTo {
            handle: self.link.handle,
            id,
            to_header: to_header as u64,
            position,
            cond,
        })
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
        self.link.call(WireRequest::ListTransfer {
            handle: self.link.handle,
            id,
            from_header: from_header as u64,
            to_header: to_header as u64,
            position,
            cond,
        })
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
        self.link.call(WireRequest::ListClaimFirst {
            handle: self.link.handle,
            from: from as u64,
            to: to as u64,
            end,
            position,
            cond,
        })
    }

    /// Dequeue one entry from `header`.
    pub fn take(&self, header: usize, end: DequeueEnd, cond: LockCondition) -> CfResult<Option<EntryView>> {
        self.link.call(WireRequest::ListTake { handle: self.link.handle, header: header as u64, end, cond })
    }

    /// Read every entry of `header`, in order.
    pub fn scan(&self, header: usize) -> CfResult<Vec<EntryView>> {
        self.link.call(WireRequest::ListScan { handle: self.link.handle, header: header as u64 })
    }

    /// Number of entries currently on `header`.
    pub fn header_len(&self, header: usize) -> CfResult<usize> {
        self.link.call(WireRequest::ListHeaderLen { handle: self.link.handle, header: header as u64 })
    }

    /// Try to acquire serializing lock entry `entry`.
    pub fn acquire_list_lock(&self, entry: usize) -> CfResult<bool> {
        self.link.call(WireRequest::ListLockAcquire { handle: self.link.handle, entry: entry as u64 })
    }

    /// Release serializing lock entry `entry`.
    pub fn release_list_lock(&self, entry: usize) -> CfResult<()> {
        self.link.call(WireRequest::ListLockRelease { handle: self.link.handle, entry: entry as u64 })
    }

    /// Current holder of serializing lock entry `entry`.
    pub fn list_lock_holder(&self, entry: usize) -> CfResult<Option<ConnId>> {
        self.link.call(WireRequest::ListLockHolder { handle: self.link.handle, entry: entry as u64 })
    }

    /// Monitor `header` for empty→non-empty transitions at `vector_index`.
    pub fn register_monitor(&self, header: usize, vector_index: u32) -> CfResult<()> {
        self.link.call(WireRequest::ListMonitor {
            handle: self.link.handle,
            header: header as u64,
            vector_index,
        })
    }

    /// Stop monitoring `header`.
    pub fn deregister_monitor(&self, header: usize) -> CfResult<()> {
        self.link.call(WireRequest::ListDeregisterMonitor { handle: self.link.handle, header: header as u64 })
    }

    /// Test the list-notification vector. Remote: a wire round trip.
    pub fn is_signaled(&self, vector_index: u32) -> CfResult<bool> {
        self.link.call(WireRequest::ListIsSignaled { handle: self.link.handle, vector_index })
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.link.call(WireRequest::ListDetach { handle: self.link.handle })
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
    /// Extract the shape of `req` from its row of the command table.
    pub fn of(req: &WireRequest) -> CmdShape {
        let row = req.row();
        CmdShape {
            class: row.cmd.class,
            converts: row.cmd.converts_async(),
            handle: row.handle,
            attach_name: row.attach.map(str::to_string),
            is_force: row.flag == Some(Flag::Force),
            is_detach: row.flag == Some(Flag::Detach),
        }
    }
}

#[derive(Debug)]
struct MeterInner {
    /// Live attach handle → structure name.
    handles: HashMap<WireHandle, String>,
    /// Cumulative per-structure counters (survive detach), keyed by the
    /// structure name; a row's own `name` is filled in when a record is
    /// cut, so counting a command never clones it.
    tallies: HashMap<String, SmfStructureRow>,
    /// Interval baseline consumed by [`TransportMeter::cut_record`].
    cut: CutState,
}

/// Where the previous record was cut: everything it already reported.
#[derive(Debug)]
struct CutState {
    seq: u32,
    at: std::time::Instant,
    classes: ConnectionSnapshot,
    structures: HashMap<String, SmfStructureRow>,
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
    inner: Mutex<MeterInner>,
}

impl TransportMeter {
    /// A fresh meter.
    pub fn new() -> Arc<TransportMeter> {
        Arc::new(TransportMeter {
            stats: ConnectionStats::new(),
            inner: Mutex::new(MeterInner {
                handles: HashMap::new(),
                tallies: HashMap::new(),
                cut: CutState {
                    seq: 0,
                    at: std::time::Instant::now(),
                    classes: ConnectionSnapshot::default(),
                    structures: HashMap::new(),
                },
            }),
        })
    }

    /// Cumulative command accounting (same block shape as a subchannel's).
    pub fn stats(&self) -> &ConnectionStats {
        &self.stats
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
                // A refused negotiated force recorded nothing.
                if shape.is_force && !matches!(result, Ok(WireResponse::Bool(false))) {
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
    /// activity since the previous cut (or meter creation) — a snapshot of
    /// the live counters, its `delta` against the last cut, and the
    /// snapshot kept as the next baseline. This is the only place the
    /// meter copies its histograms.
    pub fn cut_record(&self, system: u8, member: &str, final_interval: bool) -> SmfRecord {
        let mut inner = self.inner.lock();
        let MeterInner { tallies, cut, .. } = &mut *inner;
        let at = std::time::Instant::now();
        let interval_us = at.duration_since(cut.at).as_micros().min(u64::MAX as u128) as u64;
        let seq = cut.seq;

        let now = self.stats.snapshot();
        let classes = now.delta(&cut.classes).into_rows().collect();
        let unseen = SmfStructureRow::default();
        let mut structures: Vec<SmfStructureRow> = tallies
            .iter()
            .map(|(name, tally)| SmfStructureRow {
                name: name.clone(),
                ..tally.delta(cut.structures.get(name).unwrap_or(&unseen))
            })
            .filter(|row| row.requests > 0)
            .collect();
        structures.sort_by(|a, b| a.name.cmp(&b.name));
        *cut = CutState { seq: seq + 1, at, classes: now, structures: tallies.clone() };

        SmfRecord {
            system,
            member: member.to_string(),
            seq,
            interval_us,
            final_interval,
            classes,
            structures,
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
        cf.allocate_list_structure("WQ", ListParams::with_headers(4).with_locks(1)).unwrap();
        cf
    }

    /// Serve one TCP session on `cf`; the address to dial and the thread
    /// to join once the client has hung up.
    fn serve_one(cf: &Arc<CouplingFacility>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cf = Arc::clone(cf);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = serve_cf_stream(&InProcessTransport::new(&cf), stream);
        });
        (addr, server)
    }

    /// What [`exercise`] did that a meter on the transport and the
    /// facility count differently.
    struct Exercised {
        /// Commands the native peers issued: the facility counts them, a
        /// meter on the transport never sees them.
        native: ConnectionStats,
        /// Vector tests sent over the transport: a synchronous round trip
        /// to the meter, no CF command to the facility.
        wire_only: ConnectionStats,
    }

    /// Every `Remote*` method at least once over `transport`, each against
    /// a native peer on the same structure where there is something to
    /// observe from the other side.
    fn exercise(transport: Arc<dyn CfTransport>, cf: &Arc<CouplingFacility>) -> Exercised {
        let did = Exercised { native: ConnectionStats::new(), wire_only: ConnectionStats::new() };
        let vector_test = |class| {
            did.wire_only.class(class).issued.incr();
            did.wire_only.class(class).sync.incr();
        };
        let (x, none) = (LockMode::Exclusive, LockCondition::None);

        // Lock: hash parity with the native connection, grant, contention.
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        assert_eq!(lock.transport().backend(), transport.backend());
        let native = cf.connect_lock("L").unwrap();
        let entry = lock.hash_resource(b"ACCT.1");
        assert_eq!(entry, native.hash_resource(b"ACCT.1"), "remote hashing matches native");
        assert!(lock.request_lock(entry, x).unwrap().is_granted());
        assert_eq!(lock.holders(entry).unwrap(), (0, Some(lock.conn_id())));
        assert!(!native.structure().is_negotiate(entry));
        match native.request_lock(entry, x).unwrap() {
            LockResponse::Contention { exclusive, .. } => assert_eq!(exclusive, Some(lock.conn_id())),
            LockResponse::Granted => panic!("native must contend with the remote holder"),
        }
        lock.release_lock(entry).unwrap();
        // Negotiation: contend with the native holder, then record the
        // interest with the holders and generation the response quoted.
        let contended = (entry + 1) % 64;
        assert!(native.request_lock(contended, x).unwrap().is_granted());
        let LockResponse::Contention { holders, generation, .. } = lock.request_lock(contended, x).unwrap()
        else {
            panic!("remote must contend with the native holder");
        };
        assert!(lock.force_interest_negotiated(contended, x, holders, generation).unwrap());
        assert!(native.structure().is_negotiate(contended));
        lock.release_lock(contended).unwrap();
        native.release_lock(contended).unwrap();
        let imported = (entry + 2) % 64;
        lock.force_interest(imported, LockMode::Shared).unwrap();
        assert_eq!(native.holders(imported).unwrap(), (lock.conn_id().mask(), None));
        lock.release_lock(imported).unwrap();
        lock.write_lock_record_set(&[(ResourceName::new(b"ACCT.1"), x, b"undo")]).unwrap();
        lock.release_set(&[], &[ResourceName::new(b"ACCT.1")]).unwrap();
        // A recorded request writes its record only when granted, and a
        // release set gives the record and the interest back together.
        assert!(native.request_lock(contended, x).unwrap().is_granted());
        assert!(!lock.request_lock_recorded(contended, x, b"ACCT.2", b"undo").unwrap().is_granted());
        assert!(lock.request_lock_recorded(entry, x, b"ACCT.1", b"undo").unwrap().is_granted());
        assert_eq!(cf.lock_structure("L").unwrap().record_count(), 1);
        lock.release_set(&[entry], &[ResourceName::new(b"ACCT.1")]).unwrap();
        assert_eq!(native.holders(entry).unwrap(), (0, None));
        assert_eq!(cf.lock_structure("L").unwrap().record_count(), 0);
        native.release_lock(contended).unwrap();
        // Peer recovery: a second connector claims a slot, writes a record
        // and is declared dead by the first.
        let slot = ConnId::from_raw(31);
        let peer = RemoteLockConnection::attach_slot(Arc::clone(&transport), "L", slot).unwrap();
        assert_eq!(peer.conn_id(), slot);
        peer.write_lock_record_set(&[(ResourceName::new(b"ACCT.9"), x, b"undo")]).unwrap();
        lock.detach_peer(slot, DisconnectMode::Abnormal).unwrap();
        assert!(lock.is_failed_persistent(slot).unwrap());
        let retained = lock.retained_locks_of(slot).unwrap();
        assert_eq!(retained.iter().map(|l| l.resource.as_slice()).collect::<Vec<_>>(), [b"ACCT.9"]);
        lock.recovery_complete_for(slot).unwrap();
        assert!(!lock.is_failed_persistent(slot).unwrap());
        lock.detach(DisconnectMode::Normal).unwrap();
        did.native.absorb(&native.stats().snapshot());

        // Cache: write on the remote cross-invalidates the native copy.
        let cache = RemoteCacheConnection::attach(Arc::clone(&transport), "GBP", 16).unwrap();
        let native = cf.connect_cache("GBP", 16).unwrap();
        assert_ne!(cache.conn_id(), native.conn_id());
        let name = BlockName::from_parts(1, 7);
        native.register_read(name, 0).unwrap();
        cache.register_read(name, 0).unwrap();
        assert!(cache.is_valid(0).unwrap());
        vector_test(CommandClass::CacheAdmin);
        let w = cache.write_invalidate(name, &[9; 128], WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 1);
        assert!(!native.is_valid(0), "native copy cross-invalidated by remote write");
        let got = native.register_read(name, 0).unwrap();
        assert_eq!(got.data.as_deref().map(|d| d[0]), Some(9));
        // Castout of the changed block, then an oversized (converted) write.
        assert_eq!(cache.castout_candidates(8).unwrap(), [name]);
        let (data, version) = cache.castout_read(name).unwrap();
        assert_eq!((data.as_slice(), version), (&[9u8; 128][..], w.version));
        cache.castout_complete(name, version).unwrap();
        assert!(cache.castout_candidates(8).unwrap().is_empty());
        cache.write_invalidate(name, &[9; 8192], WriteKind::ChangedData).unwrap();
        native.write_invalidate(name, &[8; 128], WriteKind::ChangedData).unwrap();
        assert!(!cache.is_valid(0).unwrap(), "remote copy cross-invalidated by native write");
        vector_test(CommandClass::CacheAdmin);
        let next = BlockName::from_parts(1, 8);
        cache.register_read(name, 1).unwrap();
        cache.register_read_replacing(next, 1, Some(name)).unwrap();
        assert_eq!(
            cf.cache_structure("GBP").unwrap().interest_of(name),
            Some(vec![]),
            "dropped by the steal"
        );
        cache.detach().unwrap();
        did.native.absorb(&native.stats().snapshot());

        // List: monitors, the serializing lock, and every entry operation.
        let list = RemoteListConnection::attach(Arc::clone(&transport), "WQ", 8).unwrap();
        let native = cf.connect_list("WQ", 8).unwrap();
        assert_ne!(list.conn_id(), native.conn_id());
        list.register_monitor(1, 3).unwrap();
        assert!(!list.is_signaled(3).unwrap());
        vector_test(CommandClass::ListAdmin);
        native.enqueue(1, 1, b"wake", WritePosition::Tail, none).unwrap();
        assert!(list.is_signaled(3).unwrap(), "native enqueue signals the remote's monitor");
        vector_test(CommandClass::ListAdmin);
        list.deregister_monitor(1).unwrap();
        assert_eq!(list.take(1, DequeueEnd::Head, none).unwrap().unwrap().data, b"wake");
        assert!(list.acquire_list_lock(0).unwrap());
        assert_eq!(native.list_lock_holder(0).unwrap(), Some(list.conn_id()));
        list.release_list_lock(0).unwrap();
        assert_eq!(list.list_lock_holder(0).unwrap(), None);
        let id = list.enqueue(0, 5, b"job", WritePosition::Tail, none).unwrap();
        assert_eq!(list.header_len(0).unwrap(), 1);
        assert_eq!(list.read_entry(id).unwrap().data, b"job");
        let version = list.update(id, 6, &[7; 8192], None, none).unwrap();
        assert_eq!(
            list.scan(0).unwrap().iter().map(|e| (e.id, e.key, e.version)).collect::<Vec<_>>(),
            [(id, 6, version)]
        );
        list.move_to(id, 2, WritePosition::Tail, none).unwrap();
        assert!(list.transfer(id, 2, 3, WritePosition::Tail, none).unwrap());
        assert!(!list.transfer(id, 2, 3, WritePosition::Tail, none).unwrap(), "no longer on header 2");
        let claimed = list.claim_first(3, 0, DequeueEnd::Head, WritePosition::Tail, none).unwrap();
        assert_eq!(claimed.map(|e| e.id), Some(id));
        let taken = native.take(0, DequeueEnd::Head, none).unwrap().unwrap();
        assert_eq!(taken.id, id, "remote entry visible to the native consumer");
        let doomed = list.enqueue(0, 1, b"x", WritePosition::Head, none).unwrap();
        list.delete(doomed, none).unwrap();
        assert_eq!(list.read_entry(doomed).unwrap_err(), CfError::NoSuchEntry);
        list.detach().unwrap();
        did.native.absorb(&native.stats().snapshot());

        // Probe: accounted like any other command.
        let before = cf.command_stats().issued();
        probe(&*transport, CfCommand::new(CommandClass::LockRequest, 64)).unwrap();
        assert!(cf.command_stats().issued() > before);
        did
    }

    /// A steal over the wire is the native steal: the same register
    /// results, the same registrations after it and the same commands.
    #[test]
    fn remote_replacing_register_matches_native() {
        let steal = |remote: bool| {
            let cf = cf();
            let (old, new) = (BlockName::from_parts(1, 1), BlockName::from_parts(1, 2));
            let peer = cf.connect_cache("GBP", 16).unwrap();
            peer.write_invalidate(new, &[5; 64], WriteKind::ChangedData).unwrap();
            peer.register_read(old, 0).unwrap();
            let issued = |cf: &CouplingFacility| {
                let stats = cf.command_stats();
                CommandClass::ALL.map(|c| stats.class(c).issued.get())
            };
            let (me, before, results) = if remote {
                let t: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
                let c = RemoteCacheConnection::attach(t, "GBP", 16).unwrap();
                let before = issued(&cf);
                let r =
                    [c.register_read(old, 3).unwrap(), c.register_read_replacing(new, 3, Some(old)).unwrap()];
                (c.conn_id(), before, r)
            } else {
                let c = cf.connect_cache("GBP", 16).unwrap();
                let before = issued(&cf);
                let r =
                    [c.register_read(old, 3).unwrap(), c.register_read_replacing(new, 3, Some(old)).unwrap()];
                (c.conn_id(), before, r)
            };
            let after = issued(&cf);
            let structure = cf.cache_structure("GBP").unwrap();
            assert_eq!(structure.interest_of(old), Some(vec![peer.conn_id()]), "the steal dropped only mine");
            assert_eq!(structure.interest_of(new), Some(vec![me]));
            let counts: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            (me, results, counts)
        };
        let native = steal(false);
        assert_eq!(native.2.iter().sum::<u64>(), 2, "two registers, nothing else");
        assert_eq!(native.2[CommandClass::CacheRead.index()], 2);
        assert_eq!(native, steal(true));
    }

    #[test]
    fn in_process_backend_carries_all_three_models() {
        let cf = cf();
        let transport: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        assert_eq!(transport.backend(), TransportBackend::InProcess);
        exercise(transport, &cf);
    }

    /// Ids drawn through the wire are the structure's: unique across a
    /// remote connector's detach and reattach to the same slot.
    #[test]
    fn remote_entry_ids_stay_unique_across_reattach() {
        let cf = cf();
        let transport: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let list = RemoteListConnection::attach(Arc::clone(&transport), "WQ", 8).unwrap();
            for i in 0..100 {
                let id = list.enqueue(0, i, b"x", WritePosition::Tail, LockCondition::None).unwrap();
                assert!(seen.insert(id), "{id:?} drawn twice");
                list.take(0, DequeueEnd::Head, LockCondition::None).unwrap();
            }
            list.detach().unwrap();
        }
    }

    #[test]
    fn tcp_backend_carries_all_three_models() {
        let cf = cf();
        let (addr, server) = serve_one(&cf);
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        assert_eq!(transport.backend(), TransportBackend::Tcp);
        exercise(Arc::clone(&transport), &cf);
        drop(transport);
        server.join().unwrap();
    }

    /// `lock.rs`'s refused and accepted negotiated-force cases, restated
    /// for a remote connector: `b` learns holders and generation from its
    /// contention response, as a negotiating member does.
    fn negotiated_force_cases(transport: Arc<dyn CfTransport>, cf: &Arc<CouplingFacility>) {
        let x = LockMode::Exclusive;
        let a = cf.connect_lock("L").unwrap();
        let c = cf.connect_lock("L").unwrap();
        let b = RemoteLockConnection::attach(transport, "L").unwrap();
        let contend = |entry| match b.request_lock(entry, x).unwrap() {
            LockResponse::Contention { holders, generation, .. } => (holders, generation),
            LockResponse::Granted => panic!("entry {entry} must be held"),
        };

        // While b negotiated with {a}, a released and c was granted the
        // freed entry: the negotiation says nothing about c.
        assert!(a.request_lock(4, x).unwrap().is_granted());
        let (holders, generation) = contend(4);
        assert_eq!(holders, a.conn_id().mask());
        a.release_lock(4).unwrap();
        assert!(c.request_lock(4, x).unwrap().is_granted());
        assert!(!b.force_interest_negotiated(4, x, holders, generation).unwrap());
        assert_eq!(b.holders(4).unwrap(), (0, Some(c.conn_id())), "refused write left the entry untouched");

        // a released and re-acquired: same holder set, moved generation.
        assert!(a.request_lock(7, x).unwrap().is_granted());
        let (holders, stale) = contend(7);
        a.release_lock(7).unwrap();
        assert!(a.request_lock(7, x).unwrap().is_granted());
        assert!(!b.force_interest_negotiated(7, x, holders, stale).unwrap());
        assert_eq!(b.holders(7).unwrap(), (0, Some(a.conn_id())), "a's re-acquired grant untouched");
        // Renegotiating quotes the current generation and is accepted.
        let (holders, current) = contend(7);
        assert_ne!(current, stale, "departure bumps the generation");
        assert!(b.force_interest_negotiated(7, x, holders, current).unwrap());
        assert!(a.structure().is_negotiate(7));
        assert_eq!(b.holders(7).unwrap(), (b.conn_id().mask(), Some(a.conn_id())));
    }

    #[test]
    fn remote_negotiated_force_is_refused_and_accepted_like_native() {
        let cf = cf();
        negotiated_force_cases(Arc::new(InProcessTransport::new(&cf)), &cf);
        let cf = self::cf();
        let (addr, server) = serve_one(&cf);
        negotiated_force_cases(Arc::new(TcpTransport::connect(addr).unwrap()), &cf);
        server.join().unwrap();
    }

    /// A vector length is outside input: an attach frame claiming more
    /// than `MAX_VECTOR_BITS` is answered with the typed error and the
    /// session carries on.
    #[test]
    fn oversized_vector_len_is_refused_and_the_session_survives() {
        let cf = cf();
        let (addr, server) = serve_one(&cf);
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        for req in [
            WireRequest::AttachCache { structure: "GBP".into(), vector_len: u64::MAX },
            WireRequest::AttachList { structure: "WQ".into(), vector_len: u64::MAX },
            WireRequest::AttachCache {
                structure: "GBP".into(),
                vector_len: crate::types::MAX_VECTOR_BITS as u64 + 1,
            },
        ] {
            let refused = transport.call(req).unwrap().into_result().unwrap_err();
            assert!(matches!(refused, CfError::BadParameter(_)), "got {refused:?}");
        }
        let cache = RemoteCacheConnection::attach(Arc::clone(&transport), "GBP", 16).unwrap();
        let name = BlockName::from_parts(1, 7);
        assert_eq!(cache.write_invalidate(name, &[1; 64], WriteKind::ChangedData).unwrap().invalidated, 0);
        drop((cache, transport));
        server.join().unwrap();
    }

    #[test]
    fn structure_errors_cross_the_wire_typed() {
        let cf = cf();
        let (addr, server) = serve_one(&cf);
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
            let mut link = FrameStream::new(stream);
            let frame = link.recv().unwrap();
            let (seq, req) = (frame.seq, WireRequest::decode(frame.body()).unwrap());
            let resp = per_conn.dispatch(req);
            link.send(seq, |w| resp.encode_into(w)).unwrap();
            drop(link);
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
        let (addr, server) = serve_one(&cf);
        let transport: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let slot = lock.conn_id();
        assert!(lock.request_lock(7, LockMode::Exclusive).unwrap().is_granted());
        lock.write_lock_record_set(&[(ResourceName::new(b"ACCT.9"), LockMode::Exclusive, b"undo")]).unwrap();
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
        // must account identically at the member meter and at the
        // facility: same per-class issued/sync/async splits, for every
        // row `exercise` reaches. The meter classifies by the command
        // table's descriptor column, the facility by the descriptor the
        // native method issues under, so agreement pins them to the same
        // constants.
        let cf = cf();
        let meter = TransportMeter::new();
        let inner: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        let transport: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(inner, Arc::clone(&meter)));
        let did = exercise(transport, &cf);

        let served = cf.command_stats();
        for class in CommandClass::ALL {
            let (m, s) = (meter.stats().class(class), served.class(class));
            let (native, wire_only) = (did.native.class(class), did.wire_only.class(class));
            let name = class.name();
            assert_eq!(
                m.issued.get() - wire_only.issued.get() + native.issued.get(),
                s.issued.get(),
                "{name}: issued"
            );
            assert_eq!(m.sync.get() - wire_only.sync.get() + native.sync.get(), s.sync.get(), "{name}: sync");
            assert_eq!(
                m.async_converted.get() + native.async_converted.get(),
                s.async_converted.get(),
                "{name}: async_converted"
            );
            assert_eq!(m.latency.samples(), m.issued.get(), "{name}: one sample per command");
        }
        // An oversized update converts like an oversized write; a
        // retained-locks read does not (it is not bulk).
        let writes = meter.stats().class(CommandClass::ListWrite);
        assert_eq!((writes.sync.get(), writes.async_converted.get()), (3, 1), "only the update converted");
        assert_eq!(meter.stats().class(CommandClass::CacheWrite).async_converted.get(), 1);
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

        let first = meter.cut_record(3, "SYS03", false);
        assert_eq!(first.system, 3);
        assert_eq!(first.seq, 0);
        assert!(!first.final_interval);
        for (_, row) in &first.classes {
            assert!(row.balanced());
        }
        let row = first.structures.iter().find(|s| s.name == "L").expect("lock structure row");
        assert_eq!(row.requests, 2, "contended request + force (the attach mints the handle)");
        assert_eq!(row.contentions, 1);
        assert_eq!(row.force_interests, 1);
        // The record survives its own wire codec.
        assert_eq!(SmfRecord::decode(&first.encode()).unwrap(), first);

        // A quiet interval cuts an empty record; new traffic appears in
        // (only) the following one.
        let second = meter.cut_record(3, "SYS03", false);
        assert_eq!(second.seq, 1);
        assert!(second.classes.is_empty(), "no traffic since the last cut");
        assert!(second.structures.is_empty());
        lock.release_lock(entry).unwrap();
        let third = meter.cut_record(3, "SYS03", true);
        assert!(third.final_interval);
        assert_eq!(third.classes.iter().map(|(_, r)| r.issued).sum::<u64>(), 1);
    }

    /// A transport whose next call is lost on the wire once `lose_next`
    /// is set: the only way a meter sees a faulted command.
    #[derive(Debug)]
    struct Lossy {
        inner: Arc<dyn CfTransport>,
        lose_next: std::sync::atomic::AtomicBool,
    }

    impl CfTransport for Lossy {
        fn backend(&self) -> TransportBackend {
            self.inner.backend()
        }
        fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
            if self.lose_next.swap(false, Ordering::Relaxed) {
                return Err(CfError::LinkTimeout(req.class().name()));
            }
            self.inner.call(req)
        }
    }

    /// The class and structure rows of three cuts over a fixed command
    /// sequence, pinned from before the row became one type (counts and
    /// sample counts; interval lengths and latencies are wall-clock). And
    /// the algebra a store relies on: the three interval records merge to
    /// the one record a meter cut once over the whole run ships.
    #[test]
    fn three_cuts_are_pinned_and_merge_to_one_cut_over_the_run() {
        let cf = cf();
        let lossy = Arc::new(Lossy {
            inner: Arc::new(InProcessTransport::new(&cf)),
            lose_next: std::sync::atomic::AtomicBool::new(false),
        });
        let (whole, parts) = (TransportMeter::new(), TransportMeter::new());
        let inner: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(lossy.clone(), Arc::clone(&whole)));
        let transport: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(inner, Arc::clone(&parts)));
        type Rows = (Vec<(&'static str, [u64; 5])>, Vec<(String, [u64; 4])>);
        let rows = |rec: &SmfRecord| -> Rows {
            let class = |(c, r): &(CommandClass, crate::connection::ClassSnapshot)| {
                (c.name(), [r.issued, r.sync, r.async_converted, r.faulted, r.latency.samples])
            };
            let structure = |s: &SmfStructureRow| {
                (s.name.clone(), [s.requests, s.contentions, s.force_interests, s.faulted])
            };
            (rec.classes.iter().map(class).collect(), rec.structures.iter().map(structure).collect())
        };
        let x = LockMode::Exclusive;

        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "L").unwrap();
        let native = cf.connect_lock("L").unwrap();
        native.request_lock(5, x).unwrap();
        assert!(!lock.request_lock(5, x).unwrap().is_granted());
        lock.force_interest(5, x).unwrap();
        let cache = RemoteCacheConnection::attach(Arc::clone(&transport), "GBP", 16).unwrap();
        let name = BlockName::from_parts(1, 7);
        cache.write_invalidate(name, &[9; 8192], WriteKind::ChangedData).unwrap();
        let first = parts.cut_record(3, "SYS03", false);
        assert_eq!(
            rows(&first),
            (
                vec![
                    ("lock-request", [2, 2, 0, 0, 2]),
                    ("lock-admin", [1, 1, 0, 0, 1]),
                    ("cache-write", [1, 0, 1, 0, 1]),
                    ("cache-admin", [1, 1, 0, 0, 1]),
                ],
                vec![("GBP".to_string(), [1, 0, 0, 0]), ("L".to_string(), [2, 1, 1, 0])],
            )
        );

        lock.release_lock(5).unwrap();
        lossy.lose_next.store(true, Ordering::Relaxed);
        assert_eq!(lock.request_lock(6, x).unwrap_err(), CfError::LinkTimeout("lock-request"));
        assert!(lock.request_lock(6, x).unwrap().is_granted());
        cache.write_invalidate(name, &[9; 64], WriteKind::ChangedData).unwrap();
        let second = parts.cut_record(3, "SYS03", false);
        assert_eq!(
            rows(&second),
            (
                vec![
                    ("lock-request", [2, 2, 0, 1, 2]),
                    ("lock-release", [1, 1, 0, 0, 1]),
                    ("cache-write", [1, 1, 0, 0, 1]),
                ],
                vec![("GBP".to_string(), [1, 0, 0, 0]), ("L".to_string(), [3, 0, 0, 1])],
            )
        );

        lock.release_lock(6).unwrap();
        cache.detach().unwrap();
        lock.detach(DisconnectMode::Normal).unwrap();
        let third = parts.cut_record(3, "SYS03", true);
        assert_eq!(
            rows(&third),
            (
                vec![
                    ("lock-release", [1, 1, 0, 0, 1]),
                    ("lock-admin", [1, 1, 0, 0, 1]),
                    ("cache-admin", [1, 1, 0, 0, 1]),
                ],
                vec![("GBP".to_string(), [1, 0, 0, 0]), ("L".to_string(), [2, 0, 0, 0])],
            )
        );

        let one = whole.cut_record(3, "SYS03", true);
        assert_eq!(
            rows(&one),
            (
                vec![
                    ("lock-request", [4, 4, 0, 1, 4]),
                    ("lock-release", [2, 2, 0, 0, 2]),
                    ("lock-admin", [2, 2, 0, 0, 2]),
                    ("cache-write", [2, 1, 1, 0, 2]),
                    ("cache-admin", [2, 2, 0, 0, 2]),
                ],
                vec![("GBP".to_string(), [3, 0, 0, 0]), ("L".to_string(), [7, 1, 1, 1])],
            )
        );
        let mut classes = ConnectionSnapshot::default();
        let mut structures: Vec<SmfStructureRow> = Vec::new();
        for rec in [&first, &second, &third] {
            for (class, row) in &rec.classes {
                classes.class_mut(*class).merge(row);
            }
            for s in &rec.structures {
                match structures.iter_mut().find(|t| t.name == s.name) {
                    Some(t) => t.merge(s),
                    None => structures.push(s.clone()),
                }
            }
        }
        let merged = SmfRecord { classes: classes.into_rows().collect(), structures, ..one.clone() };
        assert_eq!(rows(&merged), rows(&one));
        assert!(merged.classes.iter().all(|(_, row)| row.balanced()));
    }
}
