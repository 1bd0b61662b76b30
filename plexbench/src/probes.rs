//! Isolated layer probes: one layer's public function, one thread, a
//! fresh rig of the workloads' sizing, the median of many calls.
//!
//! Nanosecond-scale calls are timed in batches of [`BATCH`] (one clock
//! read pair costs more than some of them), so a probe's value is the
//! median over batches of the mean call in a batch. Socket round trips
//! are timed one by one.

use crate::harness::{socket_cpu, Pinned};
use crate::rigs::{CfRig, DbRig, CACHE_STRUCTURE, LIST_STRUCTURE, LOCK_STRUCTURE};
use crate::stats::median;
use parallel_sysplex::cf::cache::{BlockName, WriteKind};
use parallel_sysplex::cf::connection::{CfCommand, CommandClass};
use parallel_sysplex::cf::list::{DequeueEnd, LockCondition, WritePosition};
use parallel_sysplex::cf::lock::{LockMode, LockResponse};
use parallel_sysplex::cf::transport::{probe, serve_cf_stream};
use parallel_sysplex::cf::{InProcessTransport, SystemId, TcpTransport, WireRequest, WireResponse};
use parallel_sysplex::db::log::LogRecord;
use parallel_sysplex::db::pagestore::Page;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::services::timer::Tod;
use parallel_sysplex::services::transport::{RemoteSysplex, SysplexServer};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 16;
/// The session round trip can take ~0.5 ms; a fifth of the calls keeps
/// the probe inside a second.
const SESSION_CALLS_DIVISOR: usize = 5;

/// Median nanoseconds per call of `op`, over `calls` calls in batches.
/// `op` receives the call's index.
fn batched_ns(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    let mut samples: Vec<f64> = (0..calls.div_ceil(BATCH))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                op(i);
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&mut samples)
}

/// Median nanoseconds of `op`, each call timed on its own.
fn each_ns(calls: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Run every probe; returns `(per-layer metric name, value)` pairs.
pub fn run_all(calls: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    db_probes(calls, &mut out);
    core_probes(calls, &mut out);
    transport_probes(calls, &mut out);
    out
}

fn db_probes(calls: usize, out: &mut Vec<(&'static str, f64)>) {
    let rig = DbRig::build(1, 1024);
    let db = &rig.members[0];
    let irlm = db.irlm();

    // Lock + unlock of one resource the member has sole interest in: after
    // the first grant every pair is a local re-grant, no CF command.
    let before = irlm.stats.regrants_local.get();
    let pair = |resource: &[u8]| {
        irlm.lock(1, resource, LockMode::Exclusive, false).expect("probe lock");
        irlm.unlock(1, resource).expect("probe unlock");
    };
    pair(b"PROBE.REGRANT");
    out.push(("db.irlm.probe_regrant_ns", batched_ns(calls, |_| pair(b"PROBE.REGRANT"))));
    assert!(irlm.stats.regrants_local.get() - before >= calls as u64, "regrant probe left the fast path");

    // The same pair on a resource never seen before: a CF lock request
    // each time (and a release once the parked interest is evicted).
    let before = irlm.stats.grants_cf_sync.get();
    let names: Vec<Vec<u8>> =
        (0..calls.next_multiple_of(BATCH)).map(|i| format!("PROBE.CF.{i:08}").into_bytes()).collect();
    out.push(("db.irlm.probe_cf_grant_ns", batched_ns(calls, |i| pair(&names[i]))));
    assert!(
        irlm.stats.grants_cf_sync.get() - before >= calls as u64 * 9 / 10,
        "CF-grant probe was served locally"
    );

    // Buffer manager: a one-record page, hit in the local pool; refreshed
    // from the CF (cycling over twice the pool misses every time); written.
    let buf = db.buffers();
    let mut page = Page::new();
    page.set(7, &0i64.to_be_bytes());
    let frames = 1024u64;
    for p in 0..2 * frames {
        buf.put_page(p, &page).expect("probe preload");
    }
    buf.get_page(2 * frames - 1).expect("probe warm");
    let hits = buf.stats.local_hits.get();
    out.push((
        "db.bufmgr.probe_get_hit_ns",
        batched_ns(calls, |_| drop(black_box(buf.get_page(2 * frames - 1)))),
    ));
    assert!(buf.stats.local_hits.get() - hits >= calls as u64, "hit probe missed");
    let refreshes = buf.stats.cf_refreshes.get();
    out.push((
        "db.bufmgr.probe_get_refresh_ns",
        batched_ns(calls, |i| drop(black_box(buf.get_page(i as u64 % (2 * frames))))),
    ));
    assert!(buf.stats.cf_refreshes.get() - refreshes >= calls as u64, "refresh probe hit");
    out.push(("db.bufmgr.probe_put_ns", batched_ns(calls, |_| buf.put_page(0, &page).expect("probe put"))));

    // The log work of one debit-credit commit: four update records forced,
    // then the commit record forced.
    let log = db.log();
    let image = Some(0i64.to_be_bytes().to_vec());
    out.push((
        "db.log.probe_force_ns",
        batched_ns(calls, |i| {
            for key in 0..4 {
                log.append(LogRecord::Update {
                    lsn: Tod(i as u64),
                    txn: i as u64,
                    page: key,
                    key,
                    before: image.clone(),
                    after: image.clone(),
                });
            }
            log.force().expect("probe force");
            log.append(LogRecord::Commit { lsn: Tod(i as u64), txn: i as u64 });
            log.force().expect("probe force");
        }),
    ));
    rig.teardown();
}

fn core_probes(calls: usize, out: &mut Vec<(&'static str, f64)>) {
    let rig = CfRig::build(1);
    let cf = &rig.cf;

    // Bare structure operations, no subchannel.
    let lock = cf.lock_structure(LOCK_STRUCTURE).expect("lock structure");
    let conn = lock.connect().expect("lock connect");
    let bare = batched_ns(calls, |i| {
        let granted = lock.request(conn, i % 1024, LockMode::Exclusive).expect("probe request");
        debug_assert_eq!(granted, LockResponse::Granted);
        lock.release(conn, i % 1024).expect("probe release");
    });
    out.push(("core.lock.probe_req_rel_ns", bare));

    // The same pair through a LockConnection: the difference, per
    // command, is what the connection layer (subchannel accounting, two
    // clock reads, trace hook) adds.
    let connection = cf.connect_lock(LOCK_STRUCTURE).expect("attach lock");
    let through = batched_ns(calls, |i| {
        connection.request_lock(2048 + i % 1024, LockMode::Exclusive).expect("probe request");
        connection.release_lock(2048 + i % 1024).expect("probe release");
    });
    out.push(("core.connection.probe_overhead_ns", (through - bare) / 2.0));

    let cache = cf.cache_structure(CACHE_STRUCTURE).expect("cache structure");
    let token = cache.connect(1024).expect("cache connect");
    let block = vec![0xA5u8; 4096];
    let name = |i: usize| BlockName::from_parts(77, (i % 1024) as u64);
    out.push((
        "core.cache.probe_write_4k_ns",
        batched_ns(calls.max(1024), |i| {
            cache.write_and_invalidate(&token, name(i), &block, WriteKind::ChangedData).expect("probe write");
        }),
    ));
    out.push((
        "core.cache.probe_read_ns",
        batched_ns(calls, |i| {
            black_box(cache.read_and_register(&token, name(i), (i % 1024) as u32).expect("probe read"));
        }),
    ));

    let list = cf.list_structure(LIST_STRUCTURE).expect("list structure");
    let member = list.connect(8).expect("list connect");
    let entry = [0x5Au8; 64];
    out.push((
        "core.list.probe_enq_deq_ns",
        batched_ns(calls, |i| {
            list.write_entry(&member, 0, i as u64, &entry, WritePosition::Tail, LockCondition::None)
                .expect("probe enqueue");
            black_box(
                list.dequeue(&member, 0, DequeueEnd::Head, LockCondition::None).expect("probe dequeue"),
            );
        }),
    ));

    // Wire codec: encode + decode of a request and of its response.
    let codec = |req: &WireRequest, resp: &WireResponse| {
        black_box(WireRequest::decode(&req.encode()).expect("request decodes"));
        black_box(WireResponse::decode(&resp.encode()).expect("response decodes"));
    };
    let small = WireRequest::LockRequest { handle: 1, entry: 42, mode: LockMode::Exclusive };
    let small_resp = WireResponse::Lock(LockResponse::Granted);
    out.push(("core.wire.probe_codec_small_ns", batched_ns(calls, |_| codec(&small, &small_resp))));
    let big = WireRequest::CacheWrite {
        handle: 1,
        name: name(0),
        data: block.clone(),
        kind: WriteKind::ChangedData,
    };
    let big_resp = WireResponse::Register(cache.read_and_register(&token, name(0), 0).expect("probe read"));
    out.push(("core.wire.probe_codec_4k_ns", batched_ns(calls, |_| codec(&big, &big_resp))));
}

fn transport_probes(calls: usize, out: &mut Vec<(&'static str, f64)>) {
    let mut config = SysplexConfig::functional("PROBEPLEX");
    // The session member pulses from a keepalive thread; on a busy small
    // host that thread can be starved past the functional 200 ms SFM
    // deadline, and a fenced probe is a false alarm.
    config.heartbeat.interval = Duration::from_millis(250);
    config.heartbeat.failure_threshold = Duration::from_secs(5);
    let plex = Sysplex::new(config);
    let cf = plex.add_cf("CF01");
    let command = CfCommand::new(CommandClass::LockRequest, 64);

    let in_process = InProcessTransport::new(&cf);
    out.push((
        "core.transport.probe_inproc_ns",
        batched_ns(calls, |_| probe(&in_process, command).expect("probe")),
    ));

    // The same no-op command over loopback TCP, served in this process,
    // the two ends placed as in the cf-tcp workload.
    let cpu = socket_cpu();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let server = {
        let cf = Arc::clone(&cf);
        std::thread::spawn(move || {
            let _pin = cpu.and_then(Pinned::to);
            let (stream, _) = listener.accept().expect("accept");
            serve_cf_stream(&InProcessTransport::new(&cf), stream)
        })
    };
    let tcp = TcpTransport::connect(addr).expect("connect loopback");
    {
        let _pin = cpu.and_then(Pinned::to);
        out.push((
            "core.transport.probe_tcp_rtt_us",
            each_ns(calls, || probe(&tcp, command).expect("probe")) / 1e3,
        ));
    }
    drop(tcp);
    server.join().expect("server thread").expect("serve_cf_stream");

    // And through a full member session: SysplexServer + RemoteSysplex,
    // keepalive pulsing.
    let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").expect("bind sysplex server");
    let remote =
        RemoteSysplex::connect(server.local_addr(), SystemId::new(1), "PROBE01", 100.0).expect("session");
    let pulse = remote.keepalive(Duration::from_millis(100));
    let transport = remote.transport();
    out.push((
        "services.transport.probe_session_rtt_us",
        each_ns(calls / SESSION_CALLS_DIVISOR, || probe(transport.as_ref(), command).expect("probe")) / 1e3,
    ));
    pulse.stop();
    drop(transport);
    remote.goodbye().expect("goodbye");
    server.stop();

    // XCF signal, in process: send_to a peer and receive it.
    let a = plex.xcf.join("PROBE", "A", SystemId::new(2)).expect("join");
    let b = plex.xcf.join("PROBE", "B", SystemId::new(3)).expect("join");
    while a.try_recv().is_some() {} // B's join event
    out.push((
        "services.xcf.probe_signal_us",
        batched_ns(calls, |_| {
            a.send_to("B", b"probe").expect("signal");
            black_box(b.try_recv().expect("delivered"));
        }) / 1e3,
    ));
    a.leave().expect("leave");
    b.leave().expect("leave");
}
