//! Transport-layer regression tests across both backends.
//!
//! The unified broken-link contract: a command submitted after the CF was
//! shut down (in-process backend) and a command submitted on a
//! TCP link whose peer vanished must surface the **same typed error** —
//! `CfError::LinkTimeout` — so exploiters run one recovery path for
//! "facility gone" regardless of how the commands travelled. Garbled
//! frames, by contrast, are interface control checks, matching the
//! injected-IFCC machinery.

use parallel_sysplex::cf::error::CfError;
use parallel_sysplex::cf::facility::{CfConfig, CouplingFacility};
use parallel_sysplex::cf::hashing::ResourceName;
use parallel_sysplex::cf::lock::{LockMode, LockParams};
use parallel_sysplex::cf::transport::{
    serve_cf_stream, CfTransport, InProcessTransport, RemoteCacheConnection, RemoteLockConnection,
    TcpTransport, TransportBackend,
};
use parallel_sysplex::cf::wire::{FrameStream, WireError};
use parallel_sysplex::cf::{WireRequest, WireResponse};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Take one request off `link`: its sequence number and what
/// `transport` answers to it.
fn serve_next(link: &mut FrameStream<TcpStream>, transport: &InProcessTransport) -> (u32, WireResponse) {
    let frame = link.recv().unwrap();
    (frame.seq, transport.dispatch(WireRequest::decode(frame.body()).unwrap()))
}

fn cf_with_lock() -> Arc<CouplingFacility> {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("IRLM1", LockParams::with_entries(64)).unwrap();
    cf
}

/// Both failure modes yield LinkTimeout with the issuing command class.
#[test]
fn shutdown_and_dead_link_surface_the_same_typed_error() {
    // Backend 1: in-process, facility shut down mid-session.
    let cf = cf_with_lock();
    let native = cf.connect_lock("IRLM1").unwrap();
    let slot = native.hash_resource(b"ACCT.1");
    assert!(native.request_lock(slot, LockMode::Exclusive).unwrap().is_granted());
    cf.shutdown();
    let in_process_err = native.request_lock(slot, LockMode::Exclusive).unwrap_err();

    // Backend 2: TCP, server hangs up after the first command.
    let cf2 = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut link = FrameStream::new(listener.accept().unwrap().0);
        let transport = InProcessTransport::new(&cf2);
        // Serve exactly one request, then vanish without closing cleanly.
        let (seq, resp) = serve_next(&mut link, &transport);
        link.send(seq, |w| resp.encode_into(w)).unwrap();
        drop(link);
    });
    let tcp = Arc::new(TcpTransport::connect(addr).unwrap());
    assert_eq!(tcp.backend(), TransportBackend::Tcp);
    let remote = RemoteLockConnection::attach(tcp, "IRLM1").unwrap();
    server.join().unwrap();
    let tcp_err = remote.request_lock(slot, LockMode::Exclusive).unwrap_err();

    // The regression: both backends, one error type.
    assert!(
        matches!(in_process_err, CfError::LinkTimeout("lock-request")),
        "in-process post-shutdown error: {in_process_err:?}"
    );
    assert!(matches!(tcp_err, CfError::LinkTimeout("lock-request")), "tcp dead-link error: {tcp_err:?}");
}

/// The in-process backend reports the shutdown on every command class
/// and keeps the fault visible in the subchannel accounting.
#[test]
fn post_shutdown_submits_fail_and_are_accounted() {
    let cf = cf_with_lock();
    let lock = cf.connect_lock("IRLM1").unwrap();
    let slot = lock.hash_resource(b"ACCT.2");
    assert!(lock.request_lock(slot, LockMode::Shared).unwrap().is_granted());
    cf.shutdown();
    assert!(cf.is_shut_down());
    assert!(matches!(lock.request_lock(slot, LockMode::Shared), Err(CfError::LinkTimeout(_))));
    assert!(matches!(lock.release_lock(slot), Err(CfError::LinkTimeout(_))));
    let faulted = cf.command_stats().faulted();
    assert!(faulted >= 2, "post-shutdown submits must count as faulted, got {faulted}");
}

/// A garbled frame is an interface control check — distinct from the
/// dead-link timeout, same as a corrupted-link fault injection.
#[test]
fn garbled_frame_is_an_interface_control_check() {
    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut link = FrameStream::new(listener.accept().unwrap().0);
        // Answer the attach properly so the client holds a live handle...
        let transport = InProcessTransport::new(&cf);
        let (seq, resp) = serve_next(&mut link, &transport);
        link.send(seq, |w| resp.encode_into(w)).unwrap();
        // ...then answer the next command with a valid frame holding junk.
        let seq = link.recv().unwrap().seq;
        link.send(seq, |w| w.put_raw(&[0xDE, 0xAD, 0xBE, 0xEF])).unwrap();
    });
    let tcp = Arc::new(TcpTransport::connect(addr).unwrap());
    let remote = RemoteLockConnection::attach(tcp, "IRLM1").unwrap();
    let err = remote.request_lock(3, LockMode::Exclusive).unwrap_err();
    server.join().unwrap();
    assert!(
        matches!(err, CfError::InterfaceControlCheck(_)),
        "garbled response frame must be an IFCC, got {err:?}"
    );
}

/// A slow writer that dribbles a request one byte at a time is served
/// normally: the mid-frame stall allowance tolerates partial frames, so
/// a congested (but live) link never tears the session down.
#[test]
fn served_session_tolerates_a_dribbling_writer() {
    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let cf = Arc::clone(&cf);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = InProcessTransport::new(&cf);
            serve_cf_stream(&transport, stream).unwrap();
        })
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Render the attach request into a full frame, then trickle it out
    // byte by byte with pauses well inside the per-read stall allowance.
    let mut framed = FrameStream::new(Vec::new());
    framed.send(41, |w| WireRequest::AttachLock { structure: "IRLM1".to_string() }.encode_into(w)).unwrap();
    for byte in &framed.into_inner() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let mut link = FrameStream::new(stream);
    let reply = link.recv().unwrap();
    assert_eq!(reply.seq, 41, "the response echoes its request's number");
    let response = WireResponse::decode(reply.body()).unwrap();
    assert!(
        matches!(response, WireResponse::Attached { .. }),
        "dribbled attach must be served normally, got {response:?}"
    );
    drop(link);
    server.join().unwrap();
}

/// The multi-process smoke in miniature: a served CF session carries a
/// full lock round trip, and the session's abnormal end retains locks.
#[test]
fn served_session_end_to_end() {
    let cf = cf_with_lock();
    let native = cf.connect_lock("IRLM1").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let cf = Arc::clone(&cf);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = InProcessTransport::new(&cf);
            serve_cf_stream(&transport, stream).unwrap();
        })
    };
    let tcp = Arc::new(TcpTransport::connect(addr).unwrap());
    let remote = RemoteLockConnection::attach(tcp, "IRLM1").unwrap();
    let peer = remote.conn_id();
    let slot = remote.hash_resource(b"ACCT.3");
    assert_eq!(slot, native.hash_resource(b"ACCT.3"), "remote hashing matches native");
    assert!(remote.request_lock(slot, LockMode::Exclusive).unwrap().is_granted());
    remote.write_lock_record_set(&[(ResourceName::new(b"ACCT.3"), LockMode::Exclusive, b"TXN-9")]).unwrap();
    drop(remote); // socket gone mid-transaction
    server.join().unwrap();

    // The dead session's lock interest survived as failed-persistent.
    assert!(native.is_failed_persistent(peer).unwrap());
    let retained = native.retained_locks_of(peer).unwrap();
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].resource, b"ACCT.3");
    native.recovery_complete_for(peer).unwrap();
    assert!(!native.is_failed_persistent(peer).unwrap());
}

/// A recorded request and a release set mean the same over a socket as
/// over a function call: one sequence of grants, records and release sets,
/// driven through each backend against its own facility, leaves the same
/// records and interest behind.
#[test]
fn recorded_requests_and_release_sets_agree_across_backends() {
    use parallel_sysplex::cf::hashing::ResourceName;
    use parallel_sysplex::cf::lock::RetainedLock;

    fn drive(
        cf: &Arc<CouplingFacility>,
        transport: Arc<dyn CfTransport>,
    ) -> (Vec<RetainedLock>, usize, usize) {
        let (x, s) = (LockMode::Exclusive, LockMode::Shared);
        let lock = RemoteLockConnection::attach(transport, "IRLM1").unwrap();
        let peer = cf.connect_lock("IRLM1").unwrap();
        assert!(lock.request_lock_recorded(1, x, b"ACCT.1", b"T1").unwrap().is_granted());
        assert!(lock.request_lock_recorded(2, s, b"ACCT.2", b"T1").unwrap().is_granted());
        assert!(lock.request_lock(3, x).unwrap().is_granted());
        // Contended: the record is not written.
        assert!(peer.request_lock(4, x).unwrap().is_granted());
        assert!(!lock.request_lock_recorded(4, x, b"ACCT.4", b"T1").unwrap().is_granted());
        // A name with no record in the set is skipped.
        let names = [ResourceName::new(b"ACCT.1"), ResourceName::new(b"ACCT.9")];
        lock.release_set(&[3, 1], &names).unwrap();
        let structure = cf.lock_structure("IRLM1").unwrap();
        let left = (
            lock.retained_locks_of(lock.conn_id()).unwrap(),
            structure.record_count(),
            structure.interest_count(lock.conn_id()),
        );
        peer.release_lock(4).unwrap();
        left
    }

    let in_process = cf_with_lock();
    let local = drive(&in_process, Arc::new(InProcessTransport::new(&in_process)));

    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let cf = Arc::clone(&cf);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_cf_stream(&InProcessTransport::new(&cf), stream).unwrap();
        })
    };
    let remote = drive(&cf, Arc::new(TcpTransport::connect(addr).unwrap()));
    server.join().unwrap();

    assert_eq!(remote, local);
    let (retained, records, interest) = local;
    assert_eq!(retained.iter().map(|l| l.resource.as_slice()).collect::<Vec<_>>(), [b"ACCT.2"]);
    assert_eq!((records, interest), (1, 1));
}

/// A record set and a cache write set answer the same natively and over
/// the wire, one command each: the same results — sets the structures stop
/// part-way, at a full record area and a full data area — and the same
/// records, cross-invalidates and command counts left behind.
#[test]
fn record_sets_and_write_sets_agree_across_backends() {
    use parallel_sysplex::cf::cache::{BlockName, CacheParams, WriteKind};
    use parallel_sysplex::cf::connection::CommandClass;
    use parallel_sysplex::cf::hashing::ResourceName;

    let cf = || {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("IRLM1", LockParams { entries: 64, record_capacity: 2 }).unwrap();
        let gbp = CacheParams { data_capacity: 2 * 4096, ..CacheParams::store_in(8) };
        cf.allocate_cache_structure("GBP1", gbp).unwrap();
        cf
    };
    let records = [
        (ResourceName::new(b"ACCT.1"), LockMode::Exclusive, *b"T1"),
        (ResourceName::new(b"ACCT.2"), LockMode::Shared, *b"T1"),
        (ResourceName::new(b"ACCT.3"), LockMode::Exclusive, *b"T1"),
    ];
    let blocks: Vec<(BlockName, Vec<u8>)> =
        (1..=3u8).map(|b| (BlockName::from_parts(1, b as u64), vec![b; 4096])).collect();
    // What one run leaves: the two results, the records written, which of
    // a peer's registered buffers were cross-invalidated, and the commands
    // of each class the facility ran.
    macro_rules! drive {
        ($cf:expr, $lock:expr, $cache:expr) => {{
            let (cf, lock, cache) = ($cf, $lock, $cache);
            let peer = cf.connect_cache("GBP1", 4).unwrap();
            for (i, (name, _)) in blocks.iter().enumerate() {
                peer.register_read(*name, i as u32).unwrap();
            }
            let before = cf.command_stats();
            let recorded = lock.write_lock_record_set(&records);
            let written = cache.write_invalidate_set(&blocks, WriteKind::ChangedData).unwrap();
            let after = cf.command_stats();
            let issued: Vec<u64> = CommandClass::ALL
                .iter()
                .map(|&c| after.class(c).issued.get() - before.class(c).issued.get())
                .collect();
            let retained = lock.retained_locks_of(lock.conn_id()).unwrap();
            (recorded, written, retained, (0..3).map(|i| peer.is_valid(i)).collect::<Vec<_>>(), issued)
        }};
    }

    let native = cf();
    let local =
        drive!(&native, native.connect_lock("IRLM1").unwrap(), native.connect_cache("GBP1", 4).unwrap());
    let served = cf();
    let transport: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&served));
    let remote = drive!(
        &served,
        RemoteLockConnection::attach(Arc::clone(&transport), "IRLM1").unwrap(),
        RemoteCacheConnection::attach(transport, "GBP1", 4).unwrap()
    );
    assert_eq!(remote, local);

    let (recorded, written, retained, valid, issued) = local;
    assert_eq!(recorded, Err(CfError::StructureFull), "the third record does not fit");
    assert_eq!(retained.iter().map(|l| l.resource.as_slice()).collect::<Vec<_>>(), [b"ACCT.1", b"ACCT.2"]);
    assert_eq!(written.error, Some(CfError::StructureFull), "the third block does not fit");
    assert_eq!(written.written.iter().map(|w| w.invalidated).collect::<Vec<_>>(), [1, 1]);
    assert_eq!(valid, [false, false, true], "the blocks written, and only those, cross-invalidated the peer");
    let one_each = |class: CommandClass| issued[class.index()];
    assert_eq!((one_each(CommandClass::LockRecord), one_each(CommandClass::CacheWrite)), (1, 1));
    assert_eq!(issued.iter().sum::<u64>(), 2);
}

/// A server that answers every request twice (the wire `Duplicate` fault,
/// on every frame): each call must still return its own response. Before
/// frames carried a sequence number the second `Attached` was adopted as
/// the answer to the next command whenever it landed after the pre-send
/// drain — another endpoint's handle, then `BadConnector`.
#[test]
fn duplicated_responses_are_skipped_by_identity() {
    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const CALLS: usize = 40;
    let server = std::thread::spawn(move || {
        let mut link = FrameStream::new(listener.accept().unwrap().0);
        let transport = InProcessTransport::new(&cf);
        for _ in 0..CALLS {
            let (seq, resp) = serve_next(&mut link, &transport);
            link.send(seq, |w| resp.encode_into(w)).unwrap();
            link.send(seq, |w| resp.encode_into(w)).unwrap();
        }
    });
    let tcp: Arc<dyn CfTransport> = Arc::new(TcpTransport::connect(addr).unwrap());
    // Alternate attaches (whose stale duplicate would hand over a wrong
    // handle) with lock requests (whose stale duplicate would be the
    // wrong variant altogether).
    for i in 0..CALLS / 2 {
        let remote = RemoteLockConnection::attach(Arc::clone(&tcp), "IRLM1").unwrap();
        let granted =
            remote.request_lock(i, LockMode::Exclusive).unwrap_or_else(|e| panic!("call {i}: {e:?}"));
        assert!(granted.is_granted(), "call {i}: entry {i} is free, got {granted:?}");
    }
    server.join().unwrap();
}

/// A request frame that arrives twice on one stream (the wire `Duplicate`
/// fault) is served once: the second copy gets the first copy's answer,
/// and the facility counts one command.
#[test]
fn a_duplicated_request_is_served_once() {
    use parallel_sysplex::cf::CommandClass;

    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let cf = Arc::clone(&cf);
        std::thread::spawn(move || {
            serve_cf_stream(&InProcessTransport::new(&cf), listener.accept().unwrap().0)
        })
    };
    let mut link = FrameStream::new(TcpStream::connect(addr).unwrap());
    let attach = WireRequest::AttachLock { structure: "IRLM1".to_string() };
    let handle = match WireResponse::decode(link.call(0, |w| attach.encode_into(w)).unwrap()).unwrap() {
        WireResponse::Attached { handle, .. } => handle,
        other => panic!("attach: {other:?}"),
    };
    let issued = || cf.command_stats().class(CommandClass::LockRequest).issued.get();
    let before = issued();
    let request = WireRequest::LockRequest { handle, entry: 5, mode: LockMode::Exclusive };
    for _ in 0..2 {
        link.send(1, |w| request.encode_into(w)).unwrap();
    }
    let mut answer = || {
        let frame = link.recv().unwrap();
        (frame.seq, frame.body().to_vec())
    };
    let first = answer();
    assert_eq!(answer(), first, "the second copy is answered like the first");
    assert_eq!(issued() - before, 1, "and served once");
    drop(link);
    server.join().unwrap().unwrap();
}

/// A server that answers each request one request late: the response to
/// request N arrives after the client gave up on N and sent N+1. The
/// late answer must be skipped and N+1 get its own.
#[test]
fn late_responses_are_skipped_by_identity() {
    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut link = FrameStream::new(listener.accept().unwrap().0);
        let transport = InProcessTransport::new(&cf);
        let (seq, resp) = serve_next(&mut link, &transport);
        link.send(seq, |w| resp.encode_into(w)).unwrap();
        // Sit on the answer to the first lock request until the second
        // has arrived, then send both, oldest first.
        let (late_seq, late) = serve_next(&mut link, &transport);
        let (seq, resp) = serve_next(&mut link, &transport);
        link.send(late_seq, |w| late.encode_into(w)).unwrap();
        link.send(seq, |w| resp.encode_into(w)).unwrap();
    });
    let tcp = Arc::new(TcpTransport::connect(addr).unwrap());
    tcp.set_read_timeout(Some(std::time::Duration::from_millis(100))).unwrap();
    let remote = RemoteLockConnection::attach(tcp, "IRLM1").unwrap();
    // Entry 5 is granted at the server, but the client never hears.
    assert_eq!(
        remote.request_lock(5, LockMode::Exclusive).unwrap_err(),
        CfError::LinkTimeout("lock-request")
    );
    // The late `Granted` reaches the client ahead of this query's answer.
    // Adopted, it would be a response of the wrong kind; skipped, the
    // query reads its own: the first request did take the entry.
    assert_eq!(remote.holders(5).unwrap().1, Some(remote.conn_id()));
    server.join().unwrap();
}

/// Offer `header` followed by an attach request's body to a fresh CF
/// server; the error its serving loop ends with.
fn refusal_of(header: &[u8]) -> std::io::Error {
    let cf = cf_with_lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        serve_cf_stream(&InProcessTransport::new(&cf), stream)
    });
    let body = WireRequest::AttachLock { structure: "IRLM1".to_string() }.encode();
    let mut frame = header.to_vec();
    frame[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&frame).unwrap();
    let refused = server.join().unwrap().unwrap_err();
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    refused
}

fn wire_cause(e: &std::io::Error) -> Option<&WireError> {
    e.get_ref().and_then(|e| e.downcast_ref::<WireError>())
}

/// A version-1 frame (9-byte header, no sequence field) offered to this
/// version's server is refused at the header as `BadVersion(1)`; its
/// first body bytes are never read as a sequence number.
#[test]
fn version_1_frame_is_refused_as_bad_version() {
    let refused = refusal_of(b"SPLX\x01\0\0\0\0");
    assert_eq!(wire_cause(&refused), Some(&WireError::BadVersion(1)));
}

/// A version-2 frame has today's header layout, but version 2 numbered
/// the command table's rows differently: it is refused at the header,
/// never decoded.
#[test]
fn version_2_frame_is_refused_as_bad_version() {
    let refused = refusal_of(b"SPLX\x02\0\0\0\0\x07\0\0\0");
    assert_eq!(wire_cause(&refused), Some(&WireError::BadVersion(2)));
}
