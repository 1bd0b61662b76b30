//! The unified CF command path under load and under faults.
//!
//! Every CF operation an exploiter issues — lock, cache, or list — flows
//! through a [`parallel_sysplex::cf::CfSubchannel`], which accounts it as
//! synchronous or async-converted (§3.3's two execution modes) from its
//! descriptor, keeps per-class latency, and surfaces injected link
//! malfunctions as typed errors.
//! These tests drive the full stack from N emulated systems and reconcile
//! the facility-wide books.

use parallel_sysplex::cf::cache::{CacheParams, WriteKind};
use parallel_sysplex::cf::list::{DequeueEnd, ListParams, LockCondition, WritePosition};
use parallel_sysplex::cf::lock::{LockMode, LockParams};
use parallel_sysplex::cf::SystemId;
use parallel_sysplex::cf::{CfConfig, CfError, CouplingFacility, LinkFault};
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;
use std::time::Duration;

/// N systems hammer all three structure models concurrently; afterwards
/// the facility-wide accounting must reconcile exactly: every command was
/// issued through a subchannel and ran in exactly one of the two modes.
#[test]
fn mixed_sync_async_traffic_reconciles_across_systems() {
    const SYSTEMS: usize = 4;
    const OPS: usize = 200;

    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("LOCK1", LockParams::with_entries(256)).unwrap();
    cf.allocate_cache_structure("GBP0", CacheParams::store_in(512)).unwrap();
    cf.allocate_list_structure("WORKQ", ListParams::with_headers(2)).unwrap();

    let handles: Vec<_> = (0..SYSTEMS)
        .map(|sys| {
            let cf = Arc::clone(&cf);
            std::thread::spawn(move || {
                let lock = cf.connect_lock("LOCK1").unwrap();
                let cache = cf.connect_cache("GBP0", 64).unwrap();
                let list = cf.connect_list("WORKQ", 1).unwrap();
                let blk = parallel_sysplex::cf::cache::BlockName::from_parts(sys as u32, 1);
                // An oversized payload: its descriptor converts it.
                let big = vec![0u8; 16 * 1024];
                for i in 0..OPS {
                    let entry = (sys * OPS + i) % 256;
                    lock.request_lock(entry, LockMode::Shared).unwrap();
                    lock.release_lock(entry).unwrap();
                    cache.register_read(blk, 0).unwrap();
                    if i % 10 == 0 {
                        cache.write_invalidate(blk, &big, WriteKind::ChangedData).unwrap();
                    } else {
                        cache.write_invalidate(blk, b"small", WriteKind::ChangedData).unwrap();
                    }
                    let id =
                        list.enqueue(0, i as u64, b"item", WritePosition::Tail, LockCondition::None).unwrap();
                    if i % 7 == 0 {
                        // Bulk scan: always async-converted.
                        list.scan(0).unwrap();
                    }
                    list.delete(id, LockCondition::None).unwrap();
                }
                // Drain check on the untouched header: nothing there.
                assert!(list.take(1, DequeueEnd::Head, LockCondition::None).unwrap().is_none());
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = cf.command_stats();
    // The invariant the connection layer maintains: every issued command
    // ran in exactly one mode, per class and in total.
    for (class, issued, sync, async_converted, _mean_ns) in stats.report() {
        assert_eq!(issued, sync + async_converted, "{class}: issued == sync + async");
    }
    assert_eq!(stats.issued(), stats.sync() + stats.async_converted());
    // Both execution modes actually happened: small commands stayed
    // CPU-synchronous, bulk scans and oversized writes converted.
    assert!(stats.sync() > 0, "sync commands ran");
    assert!(stats.async_converted() > 0, "async conversions happened");
    // Lower bound on traffic: 2 lock + 2 cache + 2 list commands per op.
    assert!(stats.issued() >= (SYSTEMS * OPS * 6) as u64, "issued={}", stats.issued());
}

/// An injected link malfunction surfaces as a typed [`CfError`] on the
/// issuing exploiter — never a panic, and the facility keeps serving
/// subsequent commands.
#[test]
fn injected_link_faults_surface_as_typed_errors() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("LOCK1", LockParams::with_entries(16)).unwrap();
    let conn = cf.connect_lock("LOCK1").unwrap();

    // Lost command: the issuer times out.
    cf.inject_fault(LinkFault::Timeout);
    let err = conn.request_lock(3, LockMode::Exclusive).unwrap_err();
    assert!(matches!(err, CfError::LinkTimeout(_)), "got {err:?}");

    // Channel subsystem malfunction mid-command.
    cf.inject_fault(LinkFault::InterfaceControlCheck);
    let err = conn.request_lock(3, LockMode::Exclusive).unwrap_err();
    assert!(matches!(err, CfError::InterfaceControlCheck(_)), "got {err:?}");

    // A degraded link only delays; the command still completes.
    cf.inject_fault(LinkFault::Delay(Duration::from_micros(50)));
    assert!(conn.request_lock(3, LockMode::Exclusive).unwrap().is_granted());
    conn.release_lock(3).unwrap();

    // The books record the faults without breaking the mode invariant.
    let stats = cf.command_stats();
    assert_eq!(stats.faulted(), 2);
    assert_eq!(stats.issued(), stats.sync() + stats.async_converted());
}

/// Faults injected under a live data-sharing group surface as clean
/// database errors on the member that hit them; the group keeps running.
#[test]
fn database_member_survives_injected_cf_fault() {
    let plex = Sysplex::new(SysplexConfig::functional("FIPLEX"));
    let cf = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(200);
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    let db = group.add_member(SystemId::new(0)).unwrap();
    db.run(10, |db, txn| db.write(txn, 1, Some(b"before"))).unwrap();

    // One lost command somewhere in the next transaction's CF traffic.
    cf.inject_fault(LinkFault::Timeout);
    let _ = db.run(0, |db, txn| db.write(txn, 2, Some(b"during")));

    // The member (and the facility) keep serving.
    db.run(10, |db, txn| db.write(txn, 3, Some(b"after"))).unwrap();
    let v = db.run(10, |db, txn| db.read(txn, 1)).unwrap().unwrap();
    assert_eq!(v, b"before");
    assert!(cf.command_stats().faulted() >= 1);
    group.remove_member(SystemId::new(0));
}
