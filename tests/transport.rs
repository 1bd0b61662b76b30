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
use parallel_sysplex::cf::lock::{LockMode, LockParams};
use parallel_sysplex::cf::transport::{
    serve_cf_stream, CfTransport, InProcessTransport, RemoteLockConnection, TcpTransport, TransportBackend,
};
use parallel_sysplex::cf::wire::{read_frame, write_frame};
use parallel_sysplex::cf::WireRequest;
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;

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
        let (mut stream, _) = listener.accept().unwrap();
        let transport = InProcessTransport::new(&cf2);
        // Serve exactly one request, then vanish without closing cleanly.
        let body = read_frame(&mut stream).unwrap();
        let req = WireRequest::decode(&body).unwrap();
        write_frame(&mut stream, &transport.dispatch(req).encode()).unwrap();
        drop(stream);
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
        let (mut stream, _) = listener.accept().unwrap();
        // Answer the attach properly so the client holds a live handle...
        let transport = InProcessTransport::new(&cf);
        let body = read_frame(&mut stream).unwrap();
        let req = WireRequest::decode(&body).unwrap();
        write_frame(&mut stream, &transport.dispatch(req).encode()).unwrap();
        // ...then answer the next command with a valid frame holding junk.
        let _ = read_frame(&mut stream).unwrap();
        write_frame(&mut stream, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
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

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    // Render the attach request into a full frame, then trickle it out
    // byte by byte with pauses well inside the per-read stall allowance.
    let body = WireRequest::AttachLock { structure: "IRLM1".to_string() }.encode();
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();
    for byte in &framed {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let reply = read_frame(&mut stream).unwrap();
    let response = parallel_sysplex::cf::WireResponse::decode(&reply).unwrap();
    assert!(
        matches!(response, parallel_sysplex::cf::WireResponse::Attached { .. }),
        "dribbled attach must be served normally, got {response:?}"
    );
    drop(stream);
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
    remote.write_lock_record(b"ACCT.3", LockMode::Exclusive, b"TXN-9").unwrap();
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
