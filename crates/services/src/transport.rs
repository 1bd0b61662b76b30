//! Sysplex wire transport: remote members over TCP.
//!
//! The core crate's [`sysplex_core::transport`] carries **CF structure
//! commands** for a single structure connector. This module layers the
//! rest of what a *member system* needs on the same framing
//! ([`sysplex_core::wire`]): an admission handshake, XCF group
//! signalling, and heartbeat pulses — so a system image running in a
//! **different OS process** can participate in the sysplex exactly like
//! a thread-local one.
//!
//! The protocol is a strict request/response envelope ([`SxRequest`] /
//! [`SxResponse`]) over the same `SPLX` frames the CF protocol uses. Each
//! is one [`wire_enum!`] table — a row is a tag, a variant and its fields
//! in wire order — built on core's `Wire` kit, so the enum and its codec
//! cannot disagree and a new request is one row plus its serving arm.
//! One TCP connection == one member session, and an admitted session
//! serves one member *incarnation*:
//!
//! * `Hello` admits the member (WLM capacity + heartbeat registration
//!   via [`Sysplex::register_remote_member`]), or with a resume token
//!   hands the existing incarnation to the new connection.
//! * `Cf(...)` tunnels a core [`WireRequest`] to the incarnation's
//!   [`InProcessTransport`] serving the chosen coupling facility.
//! * `XcfJoin`/`XcfSend`/`XcfPoll`/… proxy the XCF member API; member
//!   handles are incarnation-scoped integers.
//! * `Pulse` writes the member's heartbeat to the couple data set.
//! * `Goodbye` is an orderly departure ([`Sysplex::deregister_remote_member`]).
//!
//! **Failure model.** The server keeps one incarnation per system, behind
//! one lock: its resume token, XCF members, CF endpoints and live stream.
//! A socket that dies without a `Goodbye` drops only the stream; the
//! member may resume, and its CF handles and XCF members answer as
//! before. A fresh `Hello` (re-IPL), a `Goodbye` and a fence each
//! *retire* the incarnation before they return: the stream is severed,
//! the CF endpoints detach abnormally (held locks become failed-persistent
//! retained locks) and the XCF members leave. A frame being served
//! finishes first, and none is served after — the crash-stop rule. The
//! member numbers its requests per session, and the incarnation keeps its
//! last answer: a request sent again under that number, after a lost
//! answer and a resume, is answered from it and not served twice. The
//! server's accept loop keeps sweeping
//! [`HeartbeatMonitor::check_once`](crate::heartbeat::HeartbeatMonitor::check_once),
//! so the overdue pulse of a member that never comes back runs the
//! standard failure choreography: fence first, then XCF `MemberFailed`
//! events to surviving peers — identical to a local system going silent.
//! A broken wire is indistinguishable from a dead system, which is
//! precisely the S/390 status-monitoring contract.

use crate::heartbeat::HealthState;
use crate::smf::SmfStore;
use crate::sysplex::Sysplex;
use crate::xcf::{GroupEvent, MemberInfo, XcfError, XcfItem, XcfMember};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sysplex_core::error::{CfError, CfResult};
use sysplex_core::facility::CouplingFacility;
use sysplex_core::retry::RetryPolicy;
use sysplex_core::transport::{
    CfTransport, InProcessTransport, MeteredTransport, RemoteCacheConnection, RemoteListConnection,
    RemoteLockConnection, TransportBackend, TransportMeter,
};
use sysplex_core::types::SystemId;
use sysplex_core::wire::{FrameStream, SmfRecord, WireRequest, WireResponse};
use sysplex_core::{wire_enum, wire_struct};
use sysplex_dasd::fence::FenceControl;

// ---------------------------------------------------------------------------
// Envelope protocol
// ---------------------------------------------------------------------------

wire_enum!(impl Wire for GroupEvent("group-event") {
    0 MemberJoined { member: String, system: SystemId },
    1 MemberLeft { member: String },
    2 MemberFailed { member: String, system: SystemId },
});
wire_enum!(impl Wire for XcfItem("xcf-item") {
    0 Message { from: String, payload: Vec<u8> },
    1 Event(e: GroupEvent),
});
wire_enum!(impl Wire for XcfError("xcf-error") {
    0 DuplicateMember(m: String),
    1 NoSuchMember(m: String),
    2 StaleHandle,
});
wire_struct! { MemberInfo { name, system } }

wire_enum! {
    /// A member-session request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SxRequest("sx-request") {
        /// Admission handshake: must be the first request on a session.
        0 Hello {
            /// System identity the member claims.
            system: SystemId,
            /// Human-readable system name (for reports).
            name: String,
            /// Capacity the member contributes to WLM routing.
            mips_bits: u64,
            /// Resume token from a previous [`SxResponse::Admitted`]: a
            /// reconnecting member takes its incarnation back (heartbeat and
            /// WLM registrations, XCF memberships, CF handles) instead of
            /// being admitted — and counted — twice. `None` is a fresh
            /// incarnation (an IPL, or a re-IPL after a fence), which
            /// retires the system's current one first.
            resume: Option<u64>,
        },
        /// A tunnelled CF structure command.
        1 Cf(req: WireRequest),
        /// Join an XCF group.
        2 XcfJoin {
            /// Group name.
            group: String,
            /// Member name (unique within the group).
            member: String,
        },
        /// Orderly leave of a joined member.
        3 XcfLeave {
            /// Incarnation-scoped member handle from `Joined`.
            handle: u32,
        },
        /// Point-to-point signal.
        4 XcfSend {
            /// Incarnation-scoped member handle.
            handle: u32,
            /// Target member name.
            to: String,
            /// Signal payload.
            payload: Vec<u8>,
        },
        /// Broadcast to all group peers.
        5 XcfBroadcast {
            /// Incarnation-scoped member handle.
            handle: u32,
            /// Signal payload.
            payload: Vec<u8>,
        },
        /// Non-blocking poll of the member's signal queue.
        6 XcfPoll {
            /// Incarnation-scoped member handle.
            handle: u32,
        },
        /// Current group membership.
        7 XcfPeers {
            /// Incarnation-scoped member handle.
            handle: u32,
        },
        /// Heartbeat pulse for the admitted system.
        8 Pulse,
        /// Orderly departure; the server responds `Ok` then closes.
        9 Goodbye,
        /// Ship one SMF-style interval record for the admitted system. The
        /// server validates the record's system identity against the
        /// session's and retains it in the [`SmfStore`].
        10 SmfShip(record: SmfRecord),
        /// Fetch the retained records for a system (any session may ask —
        /// records are observability data, not secrets).
        11 SmfPull {
            /// System whose records to fetch.
            system: SystemId,
        },
    }
}

wire_enum! {
    /// A member-session response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum SxResponse("sx-response") {
        /// Success with nothing to return.
        0 Ok,
        /// Response to a tunnelled CF command (errors travel inside).
        1 Cf(resp: WireResponse),
        /// Successful `XcfJoin`.
        2 Joined {
            /// Incarnation-scoped member handle for subsequent XCF requests.
            handle: u32,
        },
        /// Result of `XcfPoll`.
        3 Item(item: Option<XcfItem>),
        /// Result of `XcfPeers`.
        4 Peers(peers: Vec<MemberInfo>),
        /// Result of `XcfBroadcast`: receivers signalled.
        5 Count(n: u64),
        /// An XCF service error.
        6 XcfFail(e: XcfError),
        /// Admission/protocol refusal with a reason.
        7 Denied(reason: String),
        /// Successful `Hello`: the session's resume token. Present it in a
        /// later `Hello` to reclaim this session after a link blip.
        8 Admitted {
            /// Opaque resume token, unique per admission.
            token: u64,
        },
        /// Result of `SmfPull`: the retained records, oldest first.
        9 SmfRecords(records: Vec<SmfRecord>),
        /// Re-admission refused because the member's system was fenced
        /// while it was away; the client surfaces it as
        /// [`SxError::Fenced`]. The text says which check refused.
        10 Fenced(reason: String),
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Client-side error for remote sysplex operations.
#[derive(Debug)]
pub enum SxError {
    /// The TCP link failed (or the peer spoke garbage).
    Io(io::Error),
    /// The server executed the request and XCF refused it.
    Xcf(XcfError),
    /// The server refused the request (admission, ordering).
    Denied(String),
    /// The server refused re-admission because this member's system was
    /// fenced while it was away. This is the member *observing its own
    /// fence*: the only correct reaction is to fail-stop this incarnation
    /// (abandon in-flight work; a fresh `Hello` without a resume token
    /// re-IPLs as a new incarnation).
    Fenced(String),
    /// The server answered with a response of the wrong shape.
    Protocol,
}

impl std::fmt::Display for SxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SxError::Io(e) => write!(f, "sysplex link error: {e}"),
            SxError::Xcf(e) => write!(f, "xcf: {e}"),
            SxError::Denied(msg) => write!(f, "denied: {msg}"),
            SxError::Fenced(msg) => write!(f, "fenced: {msg}"),
            SxError::Protocol => write!(f, "protocol violation: unexpected response shape"),
        }
    }
}

impl std::error::Error for SxError {}

impl From<io::Error> for SxError {
    fn from(e: io::Error) -> Self {
        SxError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Serves one sysplex to remote member processes.
///
/// Owns a listening socket and an accept loop. Each accepted connection
/// gets a session thread; an admitted session serves one member
/// incarnation, whose [`InProcessTransport`] issues its CF commands
/// through the exact same dispatch engine (and subchannel accounting) as
/// core's `serve_cf_stream`.
///
/// The accept loop doubles as the **status monitor sweep**: between
/// accepts it runs [`check_once`](crate::heartbeat::HeartbeatMonitor::check_once),
/// which is what turns a remote member's missed pulses into the
/// fence-first failure choreography.
#[derive(Debug)]
pub struct SysplexServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    smf: Arc<SmfStore>,
}

/// One admitted member incarnation: everything the server holds for a
/// system from its fresh `Hello` to its retirement. A resume hands it to
/// a new stream; a re-IPL, a fence or a `Goodbye` retires it. The session
/// threads that serve it come and go with its streams.
struct Incarnation {
    system: SystemId,
    /// Resume token, unique per admission.
    token: u64,
    /// Its CF endpoints. They survive a resume, and so do their handles.
    transport: InProcessTransport,
    state: Mutex<IncarnationState>,
}

struct IncarnationState {
    /// The stream it answers on, with that stream's session number.
    /// `None` after an unclean end until a resume, and for good once
    /// retired.
    live: Option<(u64, TcpStream)>,
    /// The number of the last request served and its answer: a request
    /// sent again under that number is answered from here, not served
    /// again.
    last: Option<(u32, SxResponse)>,
    /// XCF members by the handle `Joined` gave out.
    members: HashMap<u32, XcfMember>,
    next_handle: u32,
}

impl IncarnationState {
    fn serves(&self, session: u64) -> bool {
        self.live.as_ref().is_some_and(|(s, _)| *s == session)
    }
}

impl Incarnation {
    /// Crash-stop: sever the live stream, detach the CF endpoints
    /// abnormally (held locks become failed-persistent retained locks)
    /// and leave the XCF groups. A frame being served finishes first, and
    /// once this returns the incarnation takes no further step.
    fn retire(&self) {
        let mut state = self.state.lock();
        if let Some((_, stream)) = state.live.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.transport.detach_all();
        for (_, m) in state.members.drain() {
            let _ = m.leave();
        }
    }
}

/// The server's incarnations, one per admitted system. Whatever retires
/// or re-hands an incarnation takes this lock first and the
/// incarnation's second; a session thread serving a frame holds only the
/// incarnation's.
struct Registry {
    /// Source of resume tokens and session numbers.
    next_id: AtomicU64,
    incarnations: Mutex<HashMap<SystemId, Arc<Incarnation>>>,
}

impl Registry {
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Fresh `Hello` (an IPL, or a re-IPL after a fence): the system's
    /// current incarnation retires before the new one is admitted on
    /// `live`.
    fn admit(
        &self,
        plex: &Sysplex,
        cf: &Arc<CouplingFacility>,
        system: SystemId,
        mips: f64,
        live: (u64, TcpStream),
    ) -> Result<Arc<Incarnation>, String> {
        let mut incarnations = self.incarnations.lock();
        if let Some(old) = incarnations.remove(&system) {
            old.retire();
        }
        plex.readmit_remote_member(system, mips).map_err(|e| format!("admission failed: {e}"))?;
        let inc = Arc::new(Incarnation {
            system,
            token: self.next_id(),
            transport: InProcessTransport::new(cf),
            state: Mutex::new(IncarnationState {
                live: Some(live),
                last: None,
                members: HashMap::new(),
                next_handle: 1,
            }),
        });
        incarnations.insert(system, Arc::clone(&inc));
        Ok(inc)
    }

    /// Resume: `system`'s incarnation, if `token` is its, answers on
    /// `live` from now on; the stream it replaces is severed.
    fn resume(&self, system: SystemId, token: u64, live: (u64, TcpStream)) -> Option<Arc<Incarnation>> {
        let incarnations = self.incarnations.lock();
        let inc = incarnations.get(&system).filter(|inc| inc.token == token)?;
        if let Some((_, old)) = inc.state.lock().live.replace(live) {
            let _ = old.shutdown(Shutdown::Both);
        }
        Some(Arc::clone(inc))
    }

    /// SFM failed `system`: retire its incarnation, unless a re-IPL has
    /// lifted the fence since (and retired it itself). True if it was
    /// still fenced.
    fn fence(&self, system: SystemId, fence: &FenceControl) -> bool {
        let mut incarnations = self.incarnations.lock();
        if !fence.is_fenced(system.0) {
            return false;
        }
        if let Some(old) = incarnations.remove(&system) {
            old.retire();
        }
        true
    }

    /// `Goodbye` on `session`: retire `inc` and deregister its system, if
    /// that session still serves it. The stream stays open for the
    /// answer.
    fn depart(&self, plex: &Sysplex, inc: &Incarnation, session: u64) -> bool {
        let mut incarnations = self.incarnations.lock();
        {
            let mut state = inc.state.lock();
            if !state.serves(session) {
                return false;
            }
            state.live = None;
        }
        incarnations.remove(&inc.system);
        inc.retire();
        plex.deregister_remote_member(inc.system);
        true
    }
}

/// What every session thread serves from.
struct Served {
    plex: Arc<Sysplex>,
    cf: Arc<CouplingFacility>,
    registry: Arc<Registry>,
    smf: Arc<SmfStore>,
}

impl SysplexServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `plex`, with CF commands routed to `cf`.
    pub fn start<A: ToSocketAddrs>(
        plex: &Arc<Sysplex>,
        cf: &Arc<CouplingFacility>,
        addr: A,
    ) -> io::Result<SysplexServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry =
            Arc::new(Registry { next_id: AtomicU64::new(1), incarnations: Mutex::new(HashMap::new()) });
        let smf = SmfStore::new();
        {
            // Fail-stop over the wire: by the time SFM's failure
            // declaration returns, the fenced incarnation is retired. Its
            // SMF rows flip to departed — history stays in the report.
            let registry = Arc::clone(&registry);
            let smf = Arc::clone(&smf);
            let fence = Arc::clone(plex.farm.fence());
            plex.heartbeat.on_failure(move |sys| {
                if registry.fence(sys, &fence) {
                    smf.mark_departed(sys.0);
                }
            });
        }
        let served =
            Arc::new(Served { plex: Arc::clone(plex), cf: Arc::clone(cf), registry, smf: Arc::clone(&smf) });
        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new().name("sysplex-server".into()).spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let served = Arc::clone(&served);
                            let _ = std::thread::Builder::new()
                                .name("sysplex-session".into())
                                .spawn(move || serve_session(&served, stream));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            served.plex.heartbeat.check_once();
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })?
        };
        Ok(SysplexServer { local_addr, stop, accept_thread: Some(accept_thread), smf })
    }

    /// The address members should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's SMF record store: every member's shipped interval
    /// records plus the server-side service clock, ready for
    /// [`Monitor::sysplex_report`](crate::monitor::Monitor::sysplex_report).
    pub fn smf(&self) -> &Arc<SmfStore> {
        &self.smf
    }

    /// Stop accepting new members and join the accept loop. Live member
    /// sessions run until their sockets close.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Accept loop polls every 2ms; nothing to kick.
    }
}

impl Drop for SysplexServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Answer request `seq` on `link`.
fn respond(link: &mut FrameStream<TcpStream>, seq: u32, resp: &SxResponse) -> io::Result<()> {
    link.send(seq, |w| resp.encode_into(w))
}

fn serve_session(sv: &Served, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let session = sv.registry.next_id();
    let mut link = FrameStream::new(stream);
    let mut bound: Option<Arc<Incarnation>> = None;

    // Clean EOF and broken links end the session alike; a slow writer
    // dribbling a frame is served, a peer silent mid-frame is declared
    // dead after the stall budget.
    while let Ok(frame) = link.recv_patient() {
        let seq = frame.seq;
        let Ok(req) = SxRequest::decode(frame.body()) else {
            if respond(&mut link, seq, &SxResponse::Denied("garbled frame".into())).is_err() {
                break;
            }
            continue;
        };
        let resp = match (req, bound.as_deref()) {
            (SxRequest::Hello { .. }, Some(_)) => SxResponse::Denied("already admitted".into()),
            (SxRequest::Hello { system, name, mips_bits, resume }, None) => {
                match hello(sv, session, link.get_ref(), system, &name, mips_bits, resume) {
                    Ok(inc) => {
                        let token = inc.token;
                        bound = Some(inc);
                        SxResponse::Admitted { token }
                    }
                    Err(refusal) => refusal,
                }
            }
            // Records are observability data, not secrets: any session
            // may ask.
            (SxRequest::SmfPull { system }, _) => SxResponse::SmfRecords(sv.smf.records(system.0)),
            (_, None) => SxResponse::Denied("not admitted".into()),
            (SxRequest::Goodbye, Some(inc)) => {
                if sv.registry.depart(&sv.plex, inc, session) {
                    sv.smf.mark_departed(inc.system.0);
                    let _ = respond(&mut link, seq, &SxResponse::Ok);
                }
                break;
            }
            (req, Some(inc)) => {
                let mut state = inc.state.lock();
                // A superseded or retired stream serves nothing more.
                if !state.serves(session) {
                    break;
                }
                match &state.last {
                    Some((served, answer)) if *served == seq => answer.clone(),
                    _ => {
                        let answer = serve(sv, inc, &mut state, req);
                        state.last = Some((seq, answer.clone()));
                        answer
                    }
                }
            }
        };
        if respond(&mut link, seq, &resp).is_err() {
            break;
        }
    }

    // An unclean end drops the stream and nothing else: the incarnation
    // keeps its CF endpoints and XCF members for a resume, until a
    // re-IPL or a fence retires it.
    if let Some(inc) = bound {
        let mut state = inc.state.lock();
        if state.serves(session) {
            state.live = None;
        }
    }
}

/// Answer a `Hello` on `stream`: a fresh incarnation without a resume
/// token, the existing one with it.
fn hello(
    sv: &Served,
    session: u64,
    stream: &TcpStream,
    system: SystemId,
    name: &str,
    mips_bits: u64,
    resume: Option<u64>,
) -> Result<Arc<Incarnation>, SxResponse> {
    let stream = stream.try_clone().map_err(|e| SxResponse::Denied(format!("session stream: {e}")))?;
    let Some(token) = resume else {
        let inc = sv
            .registry
            .admit(&sv.plex, &sv.cf, system, f64::from_bits(mips_bits), (session, stream))
            .map_err(SxResponse::Denied)?;
        sv.smf.mark_admitted(system.0, name);
        return Ok(inc);
    };
    if sv.plex.heartbeat.state_of(system) == Some(HealthState::Failed) {
        // The member was fenced while away; this denial is how the
        // zombie incarnation observes its own fence.
        return Err(SxResponse::Fenced(format!("system {} was isolated during the outage", system.0)));
    }
    if sv.plex.heartbeat.pulse(system).is_err() {
        return Err(SxResponse::Fenced(format!("system {} status write rejected", system.0)));
    }
    let inc = sv
        .registry
        .resume(system, token, (session, stream))
        .ok_or_else(|| SxResponse::Denied("unknown resume token".into()))?;
    sv.smf.mark_active(system.0, name);
    Ok(inc)
}

/// Serve one request of an admitted session, under its incarnation's
/// lock.
fn serve(sv: &Served, inc: &Incarnation, state: &mut IncarnationState, req: SxRequest) -> SxResponse {
    let xcf = |handle: u32, op: &dyn Fn(&XcfMember) -> SxResponse| match state.members.get(&handle) {
        Some(m) => op(m),
        None => SxResponse::XcfFail(XcfError::StaleHandle),
    };
    match req {
        SxRequest::Cf(wreq) => {
            // Time the dispatch: this is the CF *service time* as the
            // server sees it, paired in the merged report with the
            // member's own end-to-end clock to expose wire time.
            let class = wreq.class();
            let t0 = std::time::Instant::now();
            let wresp = inc.transport.dispatch(wreq);
            sv.smf.observe_service(inc.system.0, class, t0.elapsed());
            SxResponse::Cf(wresp)
        }
        SxRequest::XcfJoin { group, member } => match sv.plex.xcf.join(&group, &member, inc.system) {
            Ok(m) => {
                let handle = state.next_handle;
                state.next_handle += 1;
                state.members.insert(handle, m);
                SxResponse::Joined { handle }
            }
            Err(e) => SxResponse::XcfFail(e),
        },
        SxRequest::XcfLeave { handle } => match state.members.remove(&handle) {
            Some(m) => match m.leave() {
                Ok(()) => SxResponse::Ok,
                Err(e) => SxResponse::XcfFail(e),
            },
            None => SxResponse::XcfFail(XcfError::StaleHandle),
        },
        SxRequest::XcfSend { handle, to, payload } => xcf(handle, &|m| match m.send_to(&to, &payload) {
            Ok(()) => SxResponse::Ok,
            Err(e) => SxResponse::XcfFail(e),
        }),
        SxRequest::XcfBroadcast { handle, payload } => {
            xcf(handle, &|m| SxResponse::Count(m.broadcast(&payload) as u64))
        }
        SxRequest::XcfPoll { handle } => xcf(handle, &|m| SxResponse::Item(m.try_recv())),
        SxRequest::XcfPeers { handle } => xcf(handle, &|m| SxResponse::Peers(m.peers())),
        SxRequest::Pulse => match sv.plex.heartbeat.pulse(inc.system) {
            Ok(()) => SxResponse::Ok,
            Err(e) => SxResponse::Denied(format!("pulse rejected: {e}")),
        },
        SxRequest::SmfShip(record) if record.system != inc.system.0 => SxResponse::Denied(format!(
            "smf record claims system {} but session is system {}",
            record.system, inc.system.0
        )),
        SxRequest::SmfShip(record) => {
            sv.smf.ship(record);
            SxResponse::Ok
        }
        SxRequest::Hello { .. } | SxRequest::Goodbye | SxRequest::SmfPull { .. } => {
            unreachable!("serve_session answers {req:?} itself")
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Reconnection parameters for a resilient session.
#[derive(Debug)]
struct Reconnector {
    addr: String,
    system: SystemId,
    name: String,
    mips_bits: u64,
    /// Sends per request and the backoff between them: the only retry a
    /// CF command over this session gets.
    policy: RetryPolicy,
    /// Per-RPC read deadline: a black-holed link surfaces as a timeout
    /// (and a retry) instead of hanging the caller forever.
    rpc_timeout: Duration,
}

/// One envelope exchange: `req` out under number `seq`, the response that
/// answers it back.
fn exchange(link: &mut FrameStream<TcpStream>, seq: u32, req: &SxRequest) -> Result<SxResponse, SxError> {
    let body = link.call(seq, |w| req.encode_into(w)).map_err(SxError::Io)?;
    SxResponse::decode(body)
        .map_err(|e| SxError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))
}

/// Run the admission handshake on a fresh stream, the `Hello` numbered
/// `seq`; returns the session's resume token.
fn handshake(
    link: &mut FrameStream<TcpStream>,
    seq: u32,
    system: SystemId,
    name: &str,
    mips_bits: u64,
    resume: Option<u64>,
) -> Result<u64, SxError> {
    let hello = SxRequest::Hello { system, name: name.to_string(), mips_bits, resume };
    match exchange(link, seq, &hello)? {
        SxResponse::Admitted { token } => Ok(token),
        SxResponse::Fenced(msg) => Err(SxError::Fenced(msg)),
        SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
        _ => Err(SxError::Protocol),
    }
}

/// A session's stream, while it has one, and the number its next request
/// goes under. The numbers are the session's, not a stream's: a request
/// sent again after a redial keeps the number of its first send, which is
/// how the server tells the repeat from a new request.
#[derive(Debug)]
struct SessionLink {
    stream: Option<FrameStream<TcpStream>>,
    next_seq: u32,
}

impl SessionLink {
    fn number(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        seq
    }
}

#[derive(Debug)]
struct Conn {
    link: Mutex<SessionLink>,
    token: Mutex<Option<u64>>,
    /// `Some` for resilient sessions; `None` sessions fail on first fault.
    reconnect: Option<Reconnector>,
    /// Set by `goodbye` before the wire exchange: no thread may dial or
    /// pulse on behalf of a departed member.
    departed: AtomicBool,
    /// Member-side command accounting across every transport minted from
    /// this session: the source of this member's SMF records.
    meter: Arc<TransportMeter>,
}

impl Conn {
    /// A non-resilient session over a stream admitted by a `Hello`
    /// numbered 0.
    fn established(link: FrameStream<TcpStream>, token: u64) -> Conn {
        Conn {
            link: Mutex::new(SessionLink { stream: Some(link), next_seq: 1 }),
            token: Mutex::new(Some(token)),
            reconnect: None,
            departed: AtomicBool::new(false),
            meter: TransportMeter::new(),
        }
    }

    /// Dial + handshake, storing the admitted stream in `link`.
    fn establish(&self, link: &mut SessionLink) -> Result<(), SxError> {
        if link.stream.is_some() {
            return Ok(());
        }
        let rc = self
            .reconnect
            .as_ref()
            .ok_or_else(|| SxError::Io(io::Error::new(io::ErrorKind::NotConnected, "session closed")))?;
        let stream = TcpStream::connect(rc.addr.as_str()).map_err(SxError::Io)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(rc.rpc_timeout)).map_err(SxError::Io)?;
        let mut stream = FrameStream::new(stream);
        let resume = *self.token.lock();
        let token = handshake(&mut stream, link.number(), rc.system, &rc.name, rc.mips_bits, resume)?;
        *self.token.lock() = Some(token);
        link.stream = Some(stream);
        Ok(())
    }

    fn rpc(&self, req: &SxRequest) -> Result<SxResponse, SxError> {
        self.rpc_inner(req, false)
    }

    /// One request/response exchange. With a reconnector, link faults are
    /// retried up to the policy's budget of sends, re-dialing (and
    /// re-admitting with the resume token) as needed; `Fenced`/`Denied`
    /// answers are never retried. Without one, the first fault surfaces.
    /// Every send carries the request's one number, so the server serves
    /// it at most once and answers a repeat from its stored reply.
    fn rpc_inner(&self, req: &SxRequest, allow_departed: bool) -> Result<SxResponse, SxError> {
        if !allow_departed && self.departed.load(Ordering::Acquire) {
            return Err(SxError::Io(io::Error::new(io::ErrorKind::NotConnected, "member departed")));
        }
        let mut link = self.link.lock();
        let seq = link.number();
        let budget = self.reconnect.as_ref().map_or(1, |rc| rc.policy.budget());
        let mut attempt: u32 = 0;
        loop {
            let result = (|| {
                self.establish(&mut link)?;
                exchange(link.stream.as_mut().expect("established"), seq, req)
            })();
            match result {
                Ok(resp) => return Ok(resp),
                Err(SxError::Io(e)) => {
                    // The stream is suspect: sever it so the next attempt
                    // re-dials and re-admits.
                    if let Some(stream) = link.stream.take() {
                        let _ = stream.get_ref().shutdown(Shutdown::Both);
                    }
                    attempt += 1;
                    if attempt >= budget || self.reconnect.is_none() {
                        return Err(SxError::Io(e));
                    }
                    if !allow_departed && self.departed.load(Ordering::Acquire) {
                        return Err(SxError::Io(e));
                    }
                    let rc = self.reconnect.as_ref().expect("checked above");
                    std::thread::sleep(rc.policy.delay(attempt));
                }
                // Fenced / refused admission / protocol violations are
                // answers, not link faults: surface immediately.
                Err(other) => return Err(other),
            }
        }
    }
}

/// A member-process handle to a sysplex served by [`SysplexServer`].
///
/// One TCP connection carries everything the member does: CF structure
/// commands (via [`RemoteSysplex::transport`] and the `connect_*`
/// helpers), XCF signalling ([`RemoteSysplex::join`]), and heartbeat
/// pulses ([`RemoteSysplex::pulse`]).
#[derive(Debug)]
pub struct RemoteSysplex {
    conn: Arc<Conn>,
    system: SystemId,
    name: String,
}

impl RemoteSysplex {
    /// Connect and run the admission handshake. The session is
    /// **non-resilient**: the first link fault surfaces to the caller.
    /// See [`RemoteSysplex::connect_resilient`] for bounded-retry
    /// sessions that survive a hostile network.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        system: SystemId,
        name: &str,
        mips: f64,
    ) -> Result<Self, SxError> {
        let stream = TcpStream::connect(addr).map_err(SxError::Io)?;
        stream.set_nodelay(true).map_err(SxError::Io)?;
        let mut link = FrameStream::new(stream);
        let token = handshake(&mut link, 0, system, name, mips.to_bits(), None)?;
        Ok(RemoteSysplex { conn: Arc::new(Conn::established(link, token)), system, name: name.to_string() })
    }

    /// Connect with **bounded-retry resilience**: every RPC (including
    /// the keepalive's pulses) that hits a link fault re-dials, re-admits
    /// with the session's resume token, and is sent again, at most
    /// `policy`'s budget of sends in all, with its seeded exponential
    /// backoff between them. This is the only place a CF command over
    /// TCP is retried. Each RPC's response read is bounded by
    /// `rpc_timeout`, so a black-holed link surfaces as a retryable fault
    /// instead of a hang.
    ///
    /// Non-retryable answers pass straight through — in particular
    /// [`SxError::Fenced`], which a reconnecting member receives when SFM
    /// isolated it during the outage (the member observing its own
    /// fence).
    pub fn connect_resilient(
        addr: &str,
        system: SystemId,
        name: &str,
        mips: f64,
        policy: RetryPolicy,
        rpc_timeout: Duration,
    ) -> Result<Self, SxError> {
        let conn = Conn {
            link: Mutex::new(SessionLink { stream: None, next_seq: 0 }),
            token: Mutex::new(None),
            reconnect: Some(Reconnector {
                addr: addr.to_string(),
                system,
                name: name.to_string(),
                mips_bits: mips.to_bits(),
                policy,
                rpc_timeout,
            }),
            departed: AtomicBool::new(false),
            meter: TransportMeter::new(),
        };
        let rs = RemoteSysplex { conn: Arc::new(conn), system, name: name.to_string() };
        // Establish eagerly so admission refusals surface here, not on
        // the first command.
        rs.pulse()?;
        Ok(rs)
    }

    /// The system identity this member was admitted as.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// A CF transport tunnelling structure commands over this session's
    /// socket. Usable with the core `Remote*Connection` types. Every
    /// command is metered into [`RemoteSysplex::meter`], so whatever mix
    /// of transports a member mints, its SMF records stay complete.
    pub fn transport(&self) -> Arc<dyn CfTransport> {
        let tunnel = Arc::new(SxCfTransport { conn: Arc::clone(&self.conn) });
        Arc::new(MeteredTransport::new(tunnel, Arc::clone(&self.conn.meter)))
    }

    /// The member-side command meter: cumulative per-class accounting of
    /// every tunnelled CF command, as observed from this process
    /// (end-to-end, wire included).
    pub fn meter(&self) -> &Arc<TransportMeter> {
        &self.conn.meter
    }

    /// Cut one SMF-style interval record from the member meter: activity
    /// since the previous cut.
    pub fn cut_smf_record(&self, final_interval: bool) -> SmfRecord {
        self.conn.meter.cut_record(self.system.0, &self.name, final_interval)
    }

    /// Ship one SMF record to the server's store.
    pub fn smf_ship(&self, record: SmfRecord) -> Result<(), SxError> {
        match self.conn.rpc(&SxRequest::SmfShip(record))? {
            SxResponse::Ok => Ok(()),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            _ => Err(SxError::Protocol),
        }
    }

    /// Fetch the server's retained records for `system`, oldest first.
    pub fn smf_pull(&self, system: SystemId) -> Result<Vec<SmfRecord>, SxError> {
        match self.conn.rpc(&SxRequest::SmfPull { system })? {
            SxResponse::SmfRecords(records) => Ok(records),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            _ => Err(SxError::Protocol),
        }
    }

    /// Start a background thread that cuts and ships an SMF interval
    /// record at once and then every `interval`, until the handle is
    /// stopped/dropped, the session departs, or a ship fails terminally.
    /// Like [`RemoteSysplex::keepalive`], the thread holds only a `Weak`
    /// session reference — it can never outlive or revive the member.
    ///
    /// The final partial interval is **not** this thread's job:
    /// [`RemoteSysplex::goodbye`] cuts and ships it during departure.
    pub fn smf_autoship(&self, interval: Duration) -> PulseHandle {
        let (system, name) = (self.system.0, self.name.clone());
        self.every("sysplex-smf", interval, move |conn| {
            let record = conn.meter.cut_record(system, &name, false);
            matches!(conn.rpc(&SxRequest::SmfShip(record)), Ok(SxResponse::Ok))
        })
    }

    /// Run `beat` on a thread named `name` at once and then every
    /// `interval`, until the handle is stopped or dropped, the session is
    /// dropped or departs, or a beat fails. The thread holds only a `Weak`
    /// session reference, upgraded per beat: a dropped or departed session
    /// ends the loop, it does not keep it alive.
    fn every(
        &self,
        name: &str,
        interval: Duration,
        beat: impl Fn(&Conn) -> bool + Send + 'static,
    ) -> PulseHandle {
        let conn = Arc::downgrade(&self.conn);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    let alive = conn
                        .upgrade()
                        .is_some_and(|conn| !conn.departed.load(Ordering::Acquire) && beat(&conn));
                    if !alive {
                        break;
                    }
                    // Sleep in short slices so stop() stays prompt even
                    // with a long cadence.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !flag.load(Ordering::Acquire) {
                        let step = (interval - slept).min(Duration::from_millis(10));
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("spawn session background thread");
        PulseHandle { stop, thread: Some(thread) }
    }

    /// Attach to a lock structure over the wire.
    pub fn connect_lock(&self, structure: &str) -> CfResult<RemoteLockConnection> {
        RemoteLockConnection::attach(self.transport(), structure)
    }

    /// Attach to a cache structure over the wire.
    pub fn connect_cache(&self, structure: &str, vector_len: usize) -> CfResult<RemoteCacheConnection> {
        RemoteCacheConnection::attach(self.transport(), structure, vector_len)
    }

    /// Attach to a list structure over the wire.
    pub fn connect_list(&self, structure: &str, vector_len: usize) -> CfResult<RemoteListConnection> {
        RemoteListConnection::attach(self.transport(), structure, vector_len)
    }

    /// Join an XCF group as this system.
    pub fn join(&self, group: &str, member: &str) -> Result<RemoteXcfMember, SxError> {
        match self.conn.rpc(&SxRequest::XcfJoin { group: group.to_string(), member: member.to_string() })? {
            SxResponse::Joined { handle } => Ok(RemoteXcfMember {
                conn: Arc::clone(&self.conn),
                handle,
                name: member.to_string(),
                group: group.to_string(),
            }),
            SxResponse::XcfFail(e) => Err(SxError::Xcf(e)),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            _ => Err(SxError::Protocol),
        }
    }

    /// Write a heartbeat pulse for this system.
    pub fn pulse(&self) -> Result<(), SxError> {
        match self.conn.rpc(&SxRequest::Pulse)? {
            SxResponse::Ok => Ok(()),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            _ => Err(SxError::Protocol),
        }
    }

    /// Start a background heartbeat that pulses the server at once and
    /// then every `interval`, until the returned handle is stopped or
    /// dropped.
    ///
    /// A member that goes head-down into a long computation without
    /// pulsing is indistinguishable from a dead one — SFM will fence it
    /// (that is the point of the failure model). The keepalive makes the
    /// alive/dead distinction honest: the pulse thread shares the
    /// session socket, so the pulses stop the moment the process — or
    /// the link — actually dies, and the thread exits on the first
    /// failed or rejected pulse and lets SFM take over.
    ///
    /// The thread holds only a `Weak` reference to the session and checks
    /// the departed flag each cycle: after [`RemoteSysplex::goodbye`] (or
    /// once the `RemoteSysplex` is dropped) the pulses stop, so a
    /// departed member can never keep pulsing and mask its own departure.
    pub fn keepalive(&self, interval: Duration) -> PulseHandle {
        self.every("sysplex-pulse", interval, |conn| {
            matches!(conn.rpc(&SxRequest::Pulse), Ok(SxResponse::Ok))
        })
    }

    /// Orderly departure: deregisters the system and ends the session.
    ///
    /// Before the Goodbye itself, the member flushes its **final SMF
    /// interval** — the partial interval since the last cut — marked
    /// `final_interval`, so the server's merged report covers the
    /// member's whole life. The flush is best-effort: a dead link loses
    /// the tail interval, never the departure.
    pub fn goodbye(self) -> Result<(), SxError> {
        // Mark departed BEFORE the wire exchange: from this point no
        // background pulse thread may pulse or reconnect, so the server's
        // deregistration cannot be undone by a racing re-admission.
        self.conn.departed.store(true, Ordering::Release);
        let last = self.conn.meter.cut_record(self.system.0, &self.name, true);
        let _ = self.conn.rpc_inner(&SxRequest::SmfShip(last), true);
        match self.conn.rpc_inner(&SxRequest::Goodbye, true)? {
            SxResponse::Ok => Ok(()),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            _ => Err(SxError::Protocol),
        }
    }
}

/// Handle for a [`RemoteSysplex::keepalive`] pulse thread. Stopping (or
/// dropping) the handle joins the thread; it does not end the session.
#[derive(Debug)]
pub struct PulseHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl PulseHandle {
    /// Stop pulsing and join the thread.
    pub fn stop(self) {}

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PulseHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// CF transport that tunnels [`WireRequest`]s inside [`SxRequest::Cf`]
/// envelopes on a member session. The bare tunnel:
/// [`RemoteSysplex::transport`] wraps it in a [`MeteredTransport`] over
/// the session's [`TransportMeter`] — the member-observed end-to-end
/// clock the SMF records carry.
#[derive(Debug)]
struct SxCfTransport {
    conn: Arc<Conn>,
}

impl CfTransport for SxCfTransport {
    fn backend(&self) -> TransportBackend {
        TransportBackend::Tcp
    }

    /// One command, retried by the session alone. A `Fenced` or `Denied`
    /// answer is never re-sent; it surfaces as a link timeout, the
    /// broken-link error every `Remote*` method returns.
    fn call(&self, req: WireRequest) -> CfResult<WireResponse> {
        let class = req.class().name();
        match self.conn.rpc(&SxRequest::Cf(req)) {
            Ok(SxResponse::Cf(resp)) => Ok(resp),
            Ok(_) => Err(CfError::InterfaceControlCheck(class)),
            Err(SxError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => {
                Err(CfError::InterfaceControlCheck(class))
            }
            Err(_) => Err(CfError::LinkTimeout(class)),
        }
    }
}

/// A remote XCF group member: the wire projection of
/// [`XcfMember`].
#[derive(Debug)]
pub struct RemoteXcfMember {
    conn: Arc<Conn>,
    handle: u32,
    name: String,
    group: String,
}

impl RemoteXcfMember {
    /// Member name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    fn xcf_rpc(&self, req: &SxRequest) -> Result<SxResponse, SxError> {
        match self.conn.rpc(req)? {
            SxResponse::XcfFail(e) => Err(SxError::Xcf(e)),
            SxResponse::Denied(msg) => Err(SxError::Denied(msg)),
            other => Ok(other),
        }
    }

    /// Send a signal to a named peer.
    pub fn send_to(&self, to: &str, payload: Vec<u8>) -> Result<(), SxError> {
        match self.xcf_rpc(&SxRequest::XcfSend { handle: self.handle, to: to.to_string(), payload })? {
            SxResponse::Ok => Ok(()),
            _ => Err(SxError::Protocol),
        }
    }

    /// Broadcast a signal to all peers; returns receivers signalled.
    pub fn broadcast(&self, payload: Vec<u8>) -> Result<u64, SxError> {
        match self.xcf_rpc(&SxRequest::XcfBroadcast { handle: self.handle, payload })? {
            SxResponse::Count(n) => Ok(n),
            _ => Err(SxError::Protocol),
        }
    }

    /// Non-blocking poll of this member's signal queue.
    pub fn try_recv(&self) -> Result<Option<XcfItem>, SxError> {
        match self.xcf_rpc(&SxRequest::XcfPoll { handle: self.handle })? {
            SxResponse::Item(it) => Ok(it),
            _ => Err(SxError::Protocol),
        }
    }

    /// Poll until an item arrives or `timeout` elapses (wire polling —
    /// a queued signal costs at most one extra round trip plus 200 µs).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<XcfItem>, SxError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(it) = self.try_recv()? {
                return Ok(Some(it));
            }
            if std::time::Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Current group membership.
    pub fn peers(&self) -> Result<Vec<MemberInfo>, SxError> {
        match self.xcf_rpc(&SxRequest::XcfPeers { handle: self.handle })? {
            SxResponse::Peers(p) => Ok(p),
            _ => Err(SxError::Protocol),
        }
    }

    /// Orderly leave.
    pub fn leave(self) -> Result<(), SxError> {
        match self.xcf_rpc(&SxRequest::XcfLeave { handle: self.handle })? {
            SxResponse::Ok => Ok(()),
            _ => Err(SxError::Protocol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysplex::SysplexConfig;
    use sysplex_core::lock::{LockMode, LockParams};

    fn dial(addr: SocketAddr) -> FrameStream<TcpStream> {
        FrameStream::new(TcpStream::connect(addr).unwrap())
    }

    fn roundtrip_req(req: SxRequest) {
        assert_eq!(SxRequest::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: SxResponse) {
        assert_eq!(SxResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn envelope_round_trips() {
        roundtrip_req(SxRequest::Hello {
            system: SystemId::new(3),
            name: "SYSC".into(),
            mips_bits: 812.5f64.to_bits(),
            resume: None,
        });
        roundtrip_req(SxRequest::Hello {
            system: SystemId::new(3),
            name: "SYSC".into(),
            mips_bits: 812.5f64.to_bits(),
            resume: Some(0xFEED_F00D),
        });
        roundtrip_req(SxRequest::XcfJoin { group: "DB2GRP".into(), member: "DB2A".into() });
        roundtrip_req(SxRequest::XcfSend { handle: 7, to: "DB2B".into(), payload: vec![1, 2, 3] });
        roundtrip_req(SxRequest::XcfBroadcast { handle: 7, payload: vec![] });
        roundtrip_req(SxRequest::XcfPoll { handle: 7 });
        roundtrip_req(SxRequest::XcfPeers { handle: 7 });
        roundtrip_req(SxRequest::XcfLeave { handle: 7 });
        roundtrip_req(SxRequest::Pulse);
        roundtrip_req(SxRequest::Goodbye);

        roundtrip_resp(SxResponse::Ok);
        roundtrip_resp(SxResponse::Joined { handle: 9 });
        roundtrip_resp(SxResponse::Item(None));
        roundtrip_resp(SxResponse::Item(Some(XcfItem::Message {
            from: "DB2B".into(),
            payload: vec![0xFF; 64],
        })));
        roundtrip_resp(SxResponse::Item(Some(XcfItem::Event(GroupEvent::MemberFailed {
            member: "DB2C".into(),
            system: SystemId::new(2),
        }))));
        roundtrip_resp(SxResponse::Peers(vec![
            MemberInfo { name: "DB2A".into(), system: SystemId::new(0) },
            MemberInfo { name: "DB2B".into(), system: SystemId::new(1) },
        ]));
        roundtrip_resp(SxResponse::Count(5));
        roundtrip_resp(SxResponse::XcfFail(XcfError::DuplicateMember("DB2A".into())));
        roundtrip_resp(SxResponse::Denied("not admitted".into()));
        roundtrip_resp(SxResponse::Fenced("system 7 was isolated".into()));
        roundtrip_resp(SxResponse::Admitted { token: u64::MAX });
    }

    #[test]
    fn remote_member_full_lifecycle() {
        let plex = Sysplex::new(SysplexConfig::functional("WIREPLEX"));
        let cf = plex.add_cf("CF01");
        cf.allocate_lock_structure("IRLM_LOCK1", LockParams::with_entries(256)).unwrap();
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Local member to witness the remote one.
        let local = plex.xcf.join("GRP", "LOCAL", SystemId::new(0)).unwrap();

        let remote = RemoteSysplex::connect(addr, SystemId::new(5), "SYSR", 400.0).unwrap();
        remote.pulse().unwrap();
        let member = remote.join("GRP", "REMOTE").unwrap();

        // Membership is visible both ways.
        let peers = member.peers().unwrap();
        assert!(peers.iter().any(|p| p.name == "LOCAL"));
        assert!(plex.xcf.members("GRP").iter().any(|m| m.name == "REMOTE" && m.system == SystemId::new(5)));

        // Signals cross the wire in both directions.
        local.send_to("REMOTE", b"ping").unwrap();
        let got = member.recv_timeout(Duration::from_secs(5)).unwrap();
        match got {
            Some(XcfItem::Message { from, payload }) => {
                assert_eq!(from, "LOCAL");
                assert_eq!(payload, b"ping");
            }
            other => panic!("expected ping, got {other:?}"),
        }
        member.send_to("LOCAL", b"pong".to_vec()).unwrap();
        // Skip membership events (the remote's join is queued ahead).
        loop {
            match local.recv_timeout(Duration::from_secs(5)).unwrap() {
                XcfItem::Message { from, payload } => {
                    assert_eq!(from, "REMOTE");
                    assert_eq!(payload, b"pong");
                    break;
                }
                XcfItem::Event(_) => continue,
            }
        }

        // CF structure commands tunnel on the same session.
        let lock = remote.connect_lock("IRLM_LOCK1").unwrap();
        let slot = lock.hash_resource(b"ACCT.42");
        assert!(lock.request_lock(slot, LockMode::Exclusive).unwrap().is_granted());
        lock.release_lock(slot).unwrap();
        lock.detach(sysplex_core::lock::DisconnectMode::Normal).unwrap();

        // Orderly departure: the local member sees MemberLeft, not failure.
        member.leave().unwrap();
        remote.goodbye().unwrap();
        let mut saw_left = false;
        for _ in 0..2 {
            if let Ok(XcfItem::Event(GroupEvent::MemberLeft { member })) =
                local.recv_timeout(Duration::from_secs(5))
            {
                assert_eq!(member, "REMOTE");
                saw_left = true;
                break;
            }
        }
        assert!(saw_left, "local member observed the remote member leave");
        server.stop();
    }

    #[test]
    fn vanished_member_is_fenced_and_failed() {
        let plex = Sysplex::new(SysplexConfig::functional("SFMPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();

        let local = plex.xcf.join("GRP", "LOCAL", SystemId::new(0)).unwrap();
        let remote = RemoteSysplex::connect(server.local_addr(), SystemId::new(6), "SYSV", 100.0).unwrap();
        let _member = remote.join("GRP", "VICTIM").unwrap();
        // Drain the join event.
        let _ = local.recv_timeout(Duration::from_secs(5)).unwrap();

        // Kill the process's connection without a Goodbye: the server's
        // heartbeat sweep must declare the system failed and surviving
        // members must see MemberFailed. (Functional config heartbeats
        // are wall-clock; force the declaration rather than waiting out
        // the interval.)
        drop(remote);
        assert!(plex.heartbeat.declare_failed(SystemId::new(6)));
        match local.recv_timeout(Duration::from_secs(5)).unwrap() {
            XcfItem::Event(GroupEvent::MemberFailed { member, system }) => {
                assert_eq!(member, "VICTIM");
                assert_eq!(system, SystemId::new(6));
            }
            other => panic!("expected MemberFailed, got {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn unadmitted_sessions_are_denied() {
        let plex = Sysplex::new(SysplexConfig::functional("DENYPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();

        let conn = Conn::established(dial(server.local_addr()), 0);
        match conn.rpc(&SxRequest::Pulse).unwrap() {
            SxResponse::Denied(msg) => assert!(msg.contains("not admitted")),
            other => panic!("expected denial, got {other:?}"),
        }
        match conn.rpc(&SxRequest::XcfJoin { group: "G".into(), member: "M".into() }).unwrap() {
            SxResponse::Denied(_) => {}
            other => panic!("expected denial, got {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn resume_token_reclaims_session_without_double_counting() {
        let plex = Sysplex::new(SysplexConfig::functional("RESUMEPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let sys = SystemId::new(4);

        // First incarnation: admit, join a group.
        let mut s1 = dial(addr);
        let token = handshake(&mut s1, 0, sys, "SYSR", 100.0f64.to_bits(), None).unwrap();
        let conn = Conn::established(s1, token);
        let handle = match conn.rpc(&SxRequest::XcfJoin { group: "G".into(), member: "R".into() }).unwrap() {
            SxResponse::Joined { handle } => handle,
            other => panic!("join failed: {other:?}"),
        };
        let local = plex.xcf.join("G", "LOCAL", sys_zero()).unwrap();

        // The link dies uncleanly; a peer sends while the member is away.
        let dead = conn.link.lock().stream.take().expect("established");
        dead.get_ref().shutdown(Shutdown::Both).unwrap();
        local.send_to("R", b"while-you-were-out").unwrap();

        // Resume with the token on a fresh stream, numbering on: the first
        // attempt succeeds, whether or not the server has seen the old one
        // end.
        let mut s2 = dial(addr);
        let hello = conn.link.lock().number();
        let t2 = handshake(&mut s2, hello, sys, "SYSR", 100.0f64.to_bits(), Some(token)).expect("resume");
        assert_eq!(t2, token, "resume keeps the same token");
        conn.link.lock().stream = Some(s2);

        // Not double-counted: exactly one membership for "R", and the
        // pre-blip handle still addresses it.
        let members = plex.xcf.members("G");
        assert_eq!(members.iter().filter(|m| m.name == "R").count(), 1, "members: {members:?}");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match conn.rpc(&SxRequest::XcfPoll { handle }).unwrap() {
                SxResponse::Item(Some(XcfItem::Message { from, payload })) => {
                    assert_eq!(from, "LOCAL");
                    assert_eq!(payload, b"while-you-were-out", "queue buffered across the blip");
                    break;
                }
                SxResponse::Item(_) => {
                    assert!(std::time::Instant::now() < deadline, "message lost across resume");
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => panic!("poll failed: {other:?}"),
            }
        }
        server.stop();
    }

    fn sys_zero() -> SystemId {
        SystemId::new(0)
    }

    /// A sysplex with lock structure `L`, served.
    fn served_lock_plex(name: &str) -> (Arc<Sysplex>, Arc<sysplex_core::lock::LockStructure>, SysplexServer) {
        let plex = Sysplex::new(SysplexConfig::functional(name));
        let cf = plex.add_cf("CF01");
        let structure = cf.allocate_lock_structure("L", LockParams::with_entries(64)).unwrap();
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        (plex, structure, server)
    }

    #[test]
    fn cf_handles_survive_an_unclean_disconnect_and_resume() {
        use sysplex_core::retry::RetryPolicy;

        let (_plex, structure, server) = served_lock_plex("KEEPPLEX");
        let remote = RemoteSysplex::connect_resilient(
            &server.local_addr().to_string(),
            SystemId::new(3),
            "SYS3",
            100.0,
            RetryPolicy::seeded(0x3).attempts(3).backoff_ms(1, 10),
            Duration::from_millis(500),
        )
        .unwrap();
        let lock = remote.connect_lock("L").unwrap();
        assert!(lock.request_lock(5, LockMode::Exclusive).unwrap().is_granted());

        // The link dies without a Goodbye; the next command redials and
        // resumes, and the handle attached before the blip answers it.
        let link = remote.conn.link.lock().stream.take().expect("established");
        link.get_ref().shutdown(Shutdown::Both).unwrap();
        assert!(lock.request_lock(6, LockMode::Exclusive).unwrap().is_granted());
        assert!(!structure.is_failed_persistent(lock.conn_id()), "the slot stays active");
        assert_eq!(structure.holders(5).1, Some(lock.conn_id()), "the lock held across the blip");
        lock.detach(sysplex_core::lock::DisconnectMode::Normal).unwrap();
        remote.goodbye().unwrap();
    }

    /// A recovery whose answer was lost is sent again under its number
    /// after a resume, by which time its slot has been taken by another
    /// connector that failed in turn. The re-send is answered from the
    /// first send's reply: the later connector's retained lock stays.
    #[test]
    fn a_resent_recovery_leaves_the_next_tenant_of_its_slot_alone() {
        use sysplex_core::lock::DisconnectMode;

        let (_plex, structure, server) = served_lock_plex("REUSEPLEX");
        let fail_holding = |entry| {
            let conn = structure.connect().unwrap();
            assert!(structure.request(conn, entry, LockMode::Exclusive).unwrap().is_granted());
            structure.disconnect(conn, DisconnectMode::Abnormal).unwrap();
            conn
        };
        let slot = fail_holding(3);

        let sys = SystemId::new(2);
        let mut link = dial(server.local_addr());
        let token = handshake(&mut link, 0, sys, "SYS2", 0, None).unwrap();
        let attach = SxRequest::Cf(WireRequest::AttachLock { structure: "L".into() });
        let Ok(SxResponse::Cf(WireResponse::Attached { handle, .. })) = exchange(&mut link, 1, &attach)
        else {
            panic!("attach refused");
        };
        // The recovery is served, and its answer is lost with the link.
        let recover = SxRequest::Cf(WireRequest::LockRecoveryComplete { handle, peer: slot });
        link.send(2, |w| recover.encode_into(w)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while structure.is_failed_persistent(slot) {
            assert!(std::time::Instant::now() < deadline, "the recovery was never served");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(link);

        // Another connector takes the freed slot and fails holding a lock.
        assert_eq!(fail_holding(9), slot, "the next connector reuses the slot");

        let mut link = dial(server.local_addr());
        assert_eq!(handshake(&mut link, 3, sys, "SYS2", 0, Some(token)).unwrap(), token);
        let answer = exchange(&mut link, 2, &recover).unwrap();
        assert!(matches!(answer, SxResponse::Cf(ref resp) if !matches!(resp, WireResponse::Error(_))));
        assert!(structure.is_failed_persistent(slot), "the later tenant is still awaiting recovery");
        assert_eq!(structure.interest_entries(slot), [9], "its retained lock survives");
    }

    #[test]
    fn a_fresh_hello_retires_the_open_session_before_it_answers() {
        use std::io::Read;

        let (_plex, structure, server) = served_lock_plex("REIPLPLEX");
        let sys = SystemId::new(4);
        let first = RemoteSysplex::connect(server.local_addr(), sys, "SYS4", 100.0).unwrap();
        let lock = first.connect_lock("L").unwrap();
        assert!(lock.request_lock(5, LockMode::Exclusive).unwrap().is_granted());

        // A re-IPL of the same system while the first session is open.
        let mut s2 = dial(server.local_addr());
        handshake(&mut s2, 0, sys, "SYS4", 100.0f64.to_bits(), None).unwrap();
        assert!(structure.is_failed_persistent(lock.conn_id()), "the old slot is retained");
        let old = first.conn.link.lock().stream.take().expect("established");
        old.get_ref().set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(old.get_ref().read(&mut byte).unwrap(), 0, "the old stream is closed");
    }

    #[test]
    fn declare_failed_retires_the_fenced_incarnation_before_it_returns() {
        let (plex, structure, server) = served_lock_plex("FAILPLEX");
        let sys = SystemId::new(5);
        let remote = RemoteSysplex::connect(server.local_addr(), sys, "SYS5", 100.0).unwrap();
        let locks: Vec<_> = (0..8).map(|_| remote.connect_lock("L").unwrap()).collect();
        for (entry, lock) in locks.iter().enumerate() {
            assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        }
        assert!(plex.heartbeat.declare_failed(sys));
        for lock in &locks {
            assert!(structure.is_failed_persistent(lock.conn_id()), "fenced, so its locks are retained");
        }
    }

    #[test]
    fn fenced_member_observes_its_own_fence_on_resume() {
        use crate::heartbeat::HealthState;

        let plex = Sysplex::new(SysplexConfig::functional("FENCEPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let sys = SystemId::new(7);

        let mut s1 = dial(addr);
        let token = handshake(&mut s1, 0, sys, "SYS7", 100.0f64.to_bits(), None).unwrap();

        // SFM isolates the member during its "partition".
        plex.kill(sys);
        assert!(plex.farm.fence().is_fenced(7));

        // The zombie incarnation tries to resume: denied as fenced — this
        // is how it observes its own fence.
        let mut s2 = dial(addr);
        match handshake(&mut s2, 0, sys, "SYS7", 100.0f64.to_bits(), Some(token)) {
            Err(SxError::Fenced(_)) => {}
            other => panic!("expected Fenced, got {other:?}"),
        }

        // A fresh Hello is a re-IPL: the new incarnation is admitted and
        // the stale fence is lifted.
        let mut s3 = dial(addr);
        let t3 = handshake(&mut s3, 0, sys, "SYS7", 100.0f64.to_bits(), None).unwrap();
        assert_ne!(t3, token, "new incarnation, new token");
        assert!(!plex.farm.fence().is_fenced(7), "re-IPL lifts the fence");
        assert_eq!(plex.heartbeat.state_of(sys), Some(HealthState::Active));
        server.stop();
    }

    /// Offer `header` (its length word patched), a pulse's body and eight
    /// zero bytes to a fresh session server; every byte it answers.
    fn session_answer(header: &[u8]) -> Vec<u8> {
        use std::io::{Read, Write};
        let plex = Sysplex::new(SysplexConfig::functional("VERPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let body = SxRequest::Pulse.encode();
        let mut frame = header.to_vec();
        frame[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        // Pad past a full header so a short one still has one to refuse.
        frame.extend_from_slice(&[0; 8]);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&frame).unwrap();
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).unwrap();
        server.stop();
        answer
    }

    /// A version-1 frame (9-byte header, no sequence field) is refused at
    /// the header: the session ends without an answer, rather than the
    /// first four body bytes being taken for a sequence number.
    #[test]
    fn version_1_frame_ends_the_session_unanswered() {
        let answer = session_answer(b"SPLX\x01\0\0\0\0");
        assert!(answer.is_empty(), "a refused frame gets no response, got {answer:?}");
    }

    /// A version-2 frame has today's header layout but not today's
    /// version: the session ends without an answer.
    #[test]
    fn version_2_frame_ends_the_session_unanswered() {
        let answer = session_answer(b"SPLX\x02\0\0\0\0\x07\0\0\0");
        assert!(answer.is_empty(), "a refused frame gets no response, got {answer:?}");
    }

    #[test]
    fn only_the_fenced_variant_is_a_fence() {
        // The refusal is typed: a denial whose text merely begins with
        // "fenced" must not make the member fail-stop its incarnation.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for answer in
                [SxResponse::Denied("fenced off by policy".into()), SxResponse::Fenced("isolated".into())]
            {
                let mut link = FrameStream::new(listener.accept().unwrap().0);
                let seq = link.recv().unwrap().seq;
                link.send(seq, |w| answer.encode_into(w)).unwrap();
            }
        });
        let resume = || handshake(&mut dial(addr), 0, SystemId::new(1), "SYS1", 0, Some(9));
        assert!(matches!(resume(), Err(SxError::Denied(m)) if m == "fenced off by policy"));
        assert!(matches!(resume(), Err(SxError::Fenced(m)) if m == "isolated"));
        server.join().unwrap();
    }

    #[test]
    fn departed_member_cannot_keep_pulsing() {
        use crate::heartbeat::HealthState;
        use sysplex_core::retry::RetryPolicy;

        let mut config = SysplexConfig::functional("BYEPLEX");
        config.heartbeat.interval = Duration::from_millis(20);
        config.heartbeat.failure_threshold = Duration::from_millis(200);
        let plex = Sysplex::new(config);
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let sys = SystemId::new(8);

        let remote = RemoteSysplex::connect_resilient(
            &server.local_addr().to_string(),
            sys,
            "SYS8",
            100.0,
            RetryPolicy::seeded(0xB0B).attempts(3).backoff_ms(1, 10),
            Duration::from_millis(500),
        )
        .unwrap();
        let pulse = remote.keepalive(Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(plex.heartbeat.state_of(sys), Some(HealthState::Active));

        // Goodbye while the pulse thread is still running. Regression:
        // a resilient pulse thread used to be able to reconnect with a
        // fresh Hello and re-register the departed member, masking the
        // departure.
        remote.goodbye().unwrap();
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(
            plex.heartbeat.state_of(sys),
            Some(HealthState::Removed),
            "departed member must stay departed — no zombie pulses"
        );
        drop(pulse);
        server.stop();
    }

    #[test]
    fn dropped_session_stops_pulsing_and_sfm_fences() {
        use crate::heartbeat::HealthState;

        let mut config = SysplexConfig::functional("DROPPLEX");
        config.heartbeat.interval = Duration::from_millis(25);
        config.heartbeat.failure_threshold = Duration::from_millis(250);
        let plex = Sysplex::new(config);
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let sys = SystemId::new(6);

        let remote = RemoteSysplex::connect(server.local_addr(), sys, "SYS6", 100.0).unwrap();
        let pulse = remote.keepalive(Duration::from_millis(25));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(plex.heartbeat.state_of(sys), Some(HealthState::Active));

        // Drop the session but keep the PulseHandle alive. Regression:
        // the pulse thread used to hold a strong reference to the
        // session, keeping the socket open and the pulses flowing after
        // the member object was gone — masking the death of the member.
        drop(remote);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while plex.heartbeat.state_of(sys) != Some(HealthState::Failed) {
            assert!(std::time::Instant::now() < deadline, "SFM never fenced the dropped member");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(plex.farm.fence().is_fenced(6), "fail-stop: fenced before anything else");
        drop(pulse);
        server.stop();
    }

    #[test]
    fn smf_envelope_variants_round_trip() {
        use sysplex_core::connection::{ClassSnapshot, CommandClass};
        use sysplex_core::wire::SmfStructureRow;

        let record = SmfRecord {
            system: 7,
            member: "SYS07".into(),
            seq: 3,
            interval_us: 50_000,
            final_interval: true,
            classes: vec![(CommandClass::LockRequest, ClassSnapshot::default())],
            structures: vec![SmfStructureRow {
                name: "IRLM1".into(),
                requests: 9,
                contentions: 1,
                force_interests: 0,
                faulted: 0,
            }],
        };
        roundtrip_req(SxRequest::SmfShip(record.clone()));
        roundtrip_req(SxRequest::SmfPull { system: SystemId::new(7) });
        roundtrip_resp(SxResponse::SmfRecords(vec![]));
        roundtrip_resp(SxResponse::SmfRecords(vec![record.clone(), record]));
    }

    #[test]
    fn smf_records_ship_and_merge_into_sysplex_report() {
        use crate::monitor::{Monitor, SysplexSection};
        use sysplex_core::connection::CommandClass;
        use sysplex_core::lock::DisconnectMode;

        let plex = Sysplex::new(SysplexConfig::functional("SMFPLEX"));
        let cf = plex.add_cf("CF01");
        cf.allocate_lock_structure("IRLM1", LockParams::with_entries(256)).unwrap();
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Two members with traffic; one departs cleanly, one stays.
        let m1 = RemoteSysplex::connect(addr, SystemId::new(3), "SYSA", 100.0).unwrap();
        let m2 = RemoteSysplex::connect(addr, SystemId::new(4), "SYSB", 100.0).unwrap();
        let lock1 = m1.connect_lock("IRLM1").unwrap();
        for i in 0..10 {
            assert!(lock1.request_lock(i, LockMode::Exclusive).unwrap().is_granted());
            lock1.release_lock(i).unwrap();
        }
        lock1.detach(DisconnectMode::Normal).unwrap();
        let lock2 = m2.connect_lock("IRLM1").unwrap();
        for i in 0..5 {
            assert!(lock2.request_lock(100 + i, LockMode::Shared).unwrap().is_granted());
        }

        // The live member ships a mid-life interval explicitly.
        let rec = m2.cut_smf_record(false);
        assert!(rec.classes.iter().any(|(c, _)| *c == CommandClass::LockRequest));
        m2.smf_ship(rec).unwrap();

        // The other member departs: goodbye flushes its final interval.
        m1.goodbye().unwrap();

        let monitor = Monitor::for_sysplex(&plex);
        let report = monitor.sysplex_report(server.smf());
        let sx = report.sysplex.as_ref().expect("merged report carries the sysplex section");
        assert_eq!(sx.members.len(), 2);

        let a = sx.members.iter().find(|m| m.system == 3).unwrap();
        assert_eq!(a.name, "SYSA");
        assert!(a.departed && a.final_seen, "clean departure closes the books");
        assert!(a.served_metered);
        // Clean books: the server dispatched exactly what the member
        // issued, per class — attach, requests, releases, detach.
        for (class, t) in &a.classes {
            assert_eq!(t.served, t.member.issued, "tunnel skew in {}", class.name());
            assert_eq!(t.member.latency.samples, t.member.issued);
        }
        assert!(SysplexSection::member_reconciles(a));
        assert_eq!(a.structures.len(), 1, "IRLM1 row shipped");
        assert_eq!(a.structures[0].requests, 21, "10 requests + 10 releases + detach");

        let b = sx.members.iter().find(|m| m.system == 4).unwrap();
        assert!(!b.departed, "live member is not marked departed");
        assert!(!b.final_seen);

        // The sysplex rollup decomposes latency: both clocks populated,
        // and the member-observed p95 dominates the CF service p95.
        let (_, t) = sx.classes.iter().find(|(c, _)| *c == CommandClass::LockRequest).unwrap();
        assert_eq!(t.member.issued, 15, "10 exclusive + 5 shared");
        assert!(t.member.latency.samples == 15 && t.service.samples == 15);
        assert!(t.member.latency.quantile_ns(0.95) >= t.service.quantile_ns(0.95));
        assert!(report.reconciles(), "merged report must reconcile:\n{report}");

        // Raw records are pullable over the wire by any session.
        let pulled = m2.smf_pull(SystemId::new(3)).unwrap();
        assert!(pulled.iter().any(|r| r.final_interval), "final record retained");
        server.stop();
    }

    #[test]
    fn departed_member_rows_are_marked_not_dropped() {
        use crate::monitor::Monitor;

        let plex = Sysplex::new(SysplexConfig::functional("DEPTPLEX"));
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Clean departure: Goodbye flips the row to departed.
        let m1 = RemoteSysplex::connect(addr, SystemId::new(5), "SYSD", 100.0).unwrap();
        m1.pulse().unwrap();
        m1.goodbye().unwrap();

        // Unclean death: the fence choreography flips the row.
        let m2 = RemoteSysplex::connect(addr, SystemId::new(6), "SYSF", 100.0).unwrap();
        m2.pulse().unwrap();
        drop(m2);
        assert!(plex.heartbeat.declare_failed(SystemId::new(6)));

        let monitor = Monitor::for_sysplex(&plex);
        let report = monitor.sysplex_report(server.smf());
        let sx = report.sysplex.as_ref().unwrap();
        assert_eq!(sx.members.len(), 2, "departed members stay listed");
        assert!(sx.members.iter().all(|m| m.departed), "both rows marked departed");
        assert_eq!(sx.departed_count(), 2);
        assert!(report.reconciles());

        // A re-IPL under the same system id reads as active again.
        let m3 = RemoteSysplex::connect(addr, SystemId::new(6), "SYSF", 100.0).unwrap();
        m3.pulse().unwrap();
        let report = monitor.sysplex_report(server.smf());
        let sx = report.sysplex.as_ref().unwrap();
        let row = sx.members.iter().find(|m| m.system == 6).unwrap();
        assert!(!row.departed, "re-admission reactivates the row");
        assert!(row.interrupted, "re-IPL over a crashed incarnation's open books flags the ledger");
        let clean = sx.members.iter().find(|m| m.system == 5).unwrap();
        assert!(!clean.interrupted, "a goodbye'd member's books closed cleanly");
        assert!(report.reconciles());
        server.stop();
    }

    #[test]
    fn smf_autoship_ships_periodic_records_until_stopped() {
        let plex = Sysplex::new(SysplexConfig::functional("AUTOPLEX"));
        let cf = plex.add_cf("CF01");
        cf.allocate_lock_structure("IRLM1", LockParams::with_entries(64)).unwrap();
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();
        let sys = SystemId::new(2);

        let remote = RemoteSysplex::connect(server.local_addr(), sys, "SYS2", 100.0).unwrap();
        let lock = remote.connect_lock("IRLM1").unwrap();
        let shipper = remote.smf_autoship(Duration::from_millis(15));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.smf().records(sys.0).len() < 3 {
            assert!(std::time::Instant::now() < deadline, "autoship never shipped 3 records");
            let _ = lock.request_lock(1, LockMode::Shared);
            let _ = lock.release_lock(1);
            std::thread::sleep(Duration::from_millis(5));
        }
        shipper.stop();
        let n = server.smf().records(sys.0).len();
        // Goodbye still flushes the final partial interval on top.
        remote.goodbye().unwrap();
        let records = server.smf().records(sys.0);
        assert!(records.len() > n, "goodbye shipped the tail interval");
        assert!(records.last().unwrap().final_interval);
        // Sequence numbers are the member's cut order, strictly rising.
        for w in records.windows(2) {
            assert!(w[1].seq > w[0].seq, "seq must rise: {} then {}", w[0].seq, w[1].seq);
        }
        server.stop();
    }

    #[test]
    fn keepalive_outlives_the_sfm_deadline() {
        use crate::heartbeat::HealthState;

        let mut config = SysplexConfig::functional("PULSEPLEX");
        config.heartbeat.interval = Duration::from_millis(50);
        config.heartbeat.failure_threshold = Duration::from_millis(500);
        let plex = Sysplex::new(config);
        let cf = plex.add_cf("CF01");
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").unwrap();

        let remote = RemoteSysplex::connect(server.local_addr(), SystemId::new(9), "SYSP", 100.0).unwrap();
        remote.pulse().unwrap();
        let pulse = remote.keepalive(Duration::from_millis(50));

        // Head-down for several SFM deadlines: the keepalive thread alone
        // must keep the system Active through the server's sweep.
        std::thread::sleep(Duration::from_millis(1200));
        assert_eq!(plex.heartbeat.state_of(SystemId::new(9)), Some(HealthState::Active));

        pulse.stop();
        remote.goodbye().unwrap();
        server.stop();
    }
}
