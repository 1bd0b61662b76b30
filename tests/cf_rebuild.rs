//! CF structure rebuild — "Multiple CF's can be connected for
//! availability, performance, and capacity reasons" (§3.3).
//!
//! A data-sharing group migrates its lock and cache structures from CF01
//! to CF02 while transactions hold locks and changed data sits in the
//! group buffer. Everything the old structures protected must stay
//! protected, and everything readable must stay readable.

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::error::DbError;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;
use std::time::Duration;

fn rig() -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("RBPLEX"));
    let cf1 = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(150);
    let group =
        DataSharingGroup::new(config, &cf1, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    group.add_member(SystemId::new(0)).unwrap();
    group.add_member(SystemId::new(1)).unwrap();
    (plex, group)
}

#[test]
fn rebuild_preserves_data_and_held_locks() {
    let (plex, group) = rig();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();

    // Committed data + changed pages in the old group buffer.
    a.run(10, |db, txn| {
        for k in 0..20u64 {
            db.write(txn, k, Some(format!("value-{k}").as_bytes()))?;
        }
        Ok(())
    })
    .unwrap();
    assert!(group.cache_structure().changed_count() > 0);

    // An open transaction holds an exclusive (persistent) lock.
    let mut open_txn = a.begin();
    a.write(&mut open_txn, 5, Some(b"uncommitted")).unwrap();

    let old_lock = group.lock_structure();
    let old_cache = group.cache_structure();

    // Rebuild onto CF02.
    let cf2 = plex.add_cf("CF02");
    group.rebuild_into(&cf2).unwrap();
    assert!(!Arc::ptr_eq(&old_lock, &group.lock_structure()));
    assert!(!Arc::ptr_eq(&old_cache, &group.cache_structure()));
    assert_eq!(old_cache.changed_count(), 0, "changed data destaged before the move");

    // The held lock migrated: b still cannot write record 5.
    let mut tb = b.begin();
    assert!(matches!(b.write(&mut tb, 5, Some(b"x")), Err(DbError::LockTimeout { .. })));
    b.abort(&mut tb).unwrap();

    // Committed data readable through the new structures (from DASD, since
    // the new group buffer starts clean).
    for k in 0..20u64 {
        if k == 5 {
            continue; // exclusively held by the open transaction
        }
        let v = b.run(10, move |db, txn| db.read(txn, k)).unwrap().unwrap();
        assert_eq!(v, format!("value-{k}").as_bytes());
    }

    // Commit through the new structures; now b can take the lock.
    a.commit(&mut open_txn).unwrap();
    let v = b.run(10, |db, txn| db.read(txn, 5)).unwrap().unwrap();
    assert_eq!(v, b"uncommitted");

    // New traffic lands on the new structure only.
    let before = group.lock_structure().stats.requests.get();
    b.run(10, |db, txn| db.write(txn, 30, Some(b"post-rebuild"))).unwrap();
    assert!(group.lock_structure().stats.requests.get() > before);

    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn rebuild_migrates_persistent_records_for_recovery() {
    let (plex, group) = rig();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();

    // a holds a persistent update lock, then the structures move.
    let mut ta = a.begin();
    a.write(&mut ta, 7, Some(b"in-flight")).unwrap();
    let cf2 = plex.add_cf("CF02");
    group.rebuild_into(&cf2).unwrap();

    // a crashes AFTER the rebuild: retained state must exist in the NEW
    // structure for peer recovery to work.
    plex.kill(SystemId::new(0));
    let failed = group.crash_member(SystemId::new(0)).unwrap();
    let retained = b.irlm().retained_locks_of(failed.lock_conn);
    assert!(!retained.unwrap().is_empty(), "persistent records migrated with the rebuild");
    let report = group.recover_on(SystemId::new(1), &failed).unwrap();
    assert!(report.retained_released >= 1);
    b.run(10, |db, txn| db.write(txn, 7, Some(b"recovered"))).unwrap();
    group.remove_member(SystemId::new(1));
}

#[test]
fn concurrent_traffic_stalls_through_rebuild_and_resumes() {
    let (plex, group) = rig();
    let b = group.member(SystemId::new(1)).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let b = Arc::clone(&b);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                b.run(100, |db, txn| db.write(txn, n % 40, Some(&n.to_be_bytes()))).unwrap();
                n += 1;
            }
            n
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    let cf2 = plex.add_cf("CF02");
    group.rebuild_into(&cf2).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let written = writer.join().unwrap();
    assert!(written > 0, "writer made progress across the rebuild");
    // Integrity: every record readable.
    let a = group.member(SystemId::new(0)).unwrap();
    a.run(10, |db, txn| {
        for k in 0..40u64 {
            let _ = db.read(txn, k)?;
        }
        Ok(())
    })
    .unwrap();
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

/// Regression for the cached-structure-handle fast path: connections
/// cache an `Arc` to their structure so the per-command path never takes
/// the facility registry lock. A rebuild swaps those Arcs via reattach —
/// afterwards every member's commands must land on the new structure's
/// counters while the old structure stays completely frozen.
#[test]
fn post_rebuild_cached_handles_hit_the_new_structure() {
    let (plex, group) = rig();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    a.run(10, |db, txn| db.write(txn, 1, Some(b"seed"))).unwrap();

    let old_lock = group.lock_structure();
    let old_cache = group.cache_structure();
    let cf2 = plex.add_cf("CF02");
    group.rebuild_into(&cf2).unwrap();
    let new_lock = group.lock_structure();
    let new_cache = group.cache_structure();
    assert!(!Arc::ptr_eq(&old_lock, &new_lock));
    assert!(!Arc::ptr_eq(&old_cache, &new_cache));

    let old_lock_reqs = old_lock.stats.requests.get();
    let old_cache_reqs = old_cache.stats.reads.get();
    let new_lock_before = new_lock.stats.requests.get();
    let new_cache_before = new_cache.stats.reads.get();

    // Both members drive commands through whatever handles their
    // connections cached.
    a.run(10, |db, txn| db.write(txn, 2, Some(b"via-a"))).unwrap();
    b.run(10, |db, txn| db.read(txn, 1).map(|_| ())).unwrap();

    assert!(
        new_lock.stats.requests.get() > new_lock_before,
        "post-rebuild lock commands advance the NEW structure"
    );
    assert!(
        new_cache.stats.reads.get() > new_cache_before,
        "post-rebuild cache commands advance the NEW structure"
    );
    assert_eq!(old_lock.stats.requests.get(), old_lock_reqs, "old lock structure is frozen");
    assert_eq!(old_cache.stats.reads.get(), old_cache_reqs, "old cache structure is frozen");

    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn rebuilt_connections_keep_their_system_in_the_trace() {
    use parallel_sysplex::cf::trace::{TraceEvent, TRACE_SYSTEM_CF};

    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.rebuild_into(&cf2).unwrap();
    group.resize_lock_table(&cf2, 4096).unwrap();

    // One transaction per member after the rebuilds, on disjoint records:
    // every lock grant and cache registration it causes must be filed
    // under the member's own system, not the facility's pseudo-system.
    plex.tracer.enable();
    for sys in 0..2u8 {
        let db = group.member(SystemId::new(sys)).unwrap();
        db.run(10, move |db, txn| db.write(txn, 100 + u64::from(sys), Some(b"traced"))).unwrap();
    }
    plex.tracer.disable();

    let member_event =
        |e: &TraceEvent| matches!(e, TraceEvent::LockGrant { .. } | TraceEvent::CacheRegister { .. });
    for sys in 0..2u8 {
        let own = plex.tracer.snapshot(sys);
        assert!(
            own.iter().any(|r| matches!(r.event, TraceEvent::LockGrant { .. })),
            "SYS{sys:02} lock grants"
        );
        assert!(
            own.iter().any(|r| matches!(r.event, TraceEvent::CacheRegister { .. })),
            "SYS{sys:02} cache registrations"
        );
    }
    let stray: Vec<_> =
        plex.tracer.snapshot(TRACE_SYSTEM_CF).into_iter().filter(|r| member_event(&r.event)).collect();
    assert!(stray.is_empty(), "member events filed under the facility ring: {stray:?}");

    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}
