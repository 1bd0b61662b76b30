//! System-managed CF structure duplexing — instant failover with no
//! rebuild and no destage (the strongest reading of §3.3's "Multiple CF's
//! can be connected for availability, performance, and capacity reasons").
//!
//! Contrast with `tests/cf_rebuild.rs`: a *rebuild* re-creates state from
//! members' storage and DASD; *duplexing* keeps a synchronous mirror, so
//! a CF loss costs one pointer swap. The tests assert the availability
//! difference explicitly: after failover, changed data is served from the
//! promoted structure even though DASD was never brought current.

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::error::DbError;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;
use std::time::Duration;

fn rig() -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("DXPLEX"));
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
fn duplexed_writes_mirror_to_the_secondary() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    assert!(!group.is_duplexed());
    group.enable_duplexing(&cf2).unwrap();
    assert!(group.is_duplexed());

    let a = group.member(SystemId::new(0)).unwrap();
    let mut open = a.begin();
    a.write(&mut open, 5, Some(b"held")).unwrap();
    a.run(10, |db, txn| db.write(txn, 6, Some(b"committed"))).unwrap();

    // The secondary structures on CF02 carry the mirrored state.
    let sec_lock = cf2.lock_structure("DSG_LOCK1_DX1").unwrap();
    let sec_cache = cf2.cache_structure("DSG_GBP0_DX1").unwrap();
    assert!(sec_lock.record_count() >= 1, "persistent lock mirrored");
    assert!(sec_cache.changed_count() >= 1, "changed data mirrored");
    a.commit(&mut open).unwrap();
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn failover_preserves_held_locks_and_changed_data_without_dasd() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");

    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();

    // Pre-duplex state is carried into the mirror at enable time.
    a.run(10, |db, txn| db.write(txn, 1, Some(b"pre-duplex"))).unwrap();
    group.enable_duplexing(&cf2).unwrap();

    // Post-duplex: a holds a lock and a committed-but-not-castout update.
    let mut open = a.begin();
    a.write(&mut open, 2, Some(b"held")).unwrap();
    a.run(10, |db, txn| db.write(txn, 3, Some(b"only-in-cf"))).unwrap();
    // Deliberately do NOT cast out: DASD stays stale for keys 1 and 3.

    // CF01 "fails": promote the secondaries. No recovery, no destage.
    group.cf_failover().unwrap();
    assert!(!group.is_duplexed(), "now simplex on the survivor CF");

    // Held lock still enforced through the promoted structure.
    let mut tb = b.begin();
    assert!(matches!(b.write(&mut tb, 2, Some(b"steal")), Err(DbError::LockTimeout { .. })));
    b.abort(&mut tb).unwrap();

    // Changed data served from the promoted group buffer — DASD never had
    // it.
    let page3 = group.store.page_of(3);
    assert_eq!(group.store.read_page(1, page3).unwrap().get(3), None, "DASD is stale by construction");
    let v = b.run(10, |db, txn| db.read(txn, 3)).unwrap().unwrap();
    assert_eq!(v, b"only-in-cf", "served from the duplexed changed data");
    let v = b.run(10, |db, txn| db.read(txn, 1)).unwrap().unwrap();
    assert_eq!(v, b"pre-duplex", "pre-duplex changed data was copied at enable time");

    // The open transaction commits normally on the promoted structure.
    a.commit(&mut open).unwrap();
    let v = b.run(10, |db, txn| db.read(txn, 2)).unwrap().unwrap();
    assert_eq!(v, b"held");

    // Castout now works against the promoted structure.
    b.buffers().castout(1000).unwrap();
    assert_eq!(group.cache_structure().changed_count(), 0);
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

/// Records now ride in lock requests and die in release sets; the mirror
/// must get both. After committed transactions (records written and
/// deleted) and two open ones (records held), the secondary holds exactly
/// the primary's records — and after failover the promoted structure does.
#[test]
fn recorded_grants_and_release_sets_mirror_exactly() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    for k in 0..8u64 {
        a.run(10, |db, txn| {
            db.write(txn, k, Some(b"v"))?;
            db.write(txn, 100 + k % 2, Some(b"w"))
        })
        .unwrap();
    }
    let mut open_a = a.begin();
    a.write(&mut open_a, 200, Some(b"held")).unwrap();
    a.write(&mut open_a, 201, Some(b"held")).unwrap();
    let mut open_b = b.begin();
    b.write(&mut open_b, 300, Some(b"held")).unwrap();

    let primary = group.lock_structure();
    let secondary = cf2.lock_structure("DSG_LOCK1_DX1").unwrap();
    let records = primary.records_snapshot();
    assert_eq!(records.len(), 3, "the open transactions' records, nothing the commits left");
    let retained = |s: &parallel_sysplex::cf::lock::LockStructure| {
        [a.irlm().conn(), b.irlm().conn()].map(|conn| s.retained_locks(conn))
    };
    assert_eq!(secondary.records_snapshot(), records);
    assert_eq!(retained(&secondary), retained(&primary), "payloads mirrored too");

    group.cf_failover().unwrap();
    assert!(Arc::ptr_eq(&group.lock_structure(), &secondary));
    assert_eq!(group.lock_structure().records_snapshot(), records);
    a.commit(&mut open_a).unwrap();
    b.commit(&mut open_b).unwrap();
    assert!(group.lock_structure().records_snapshot().is_empty());
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn duplexing_enables_and_fails_over_under_live_traffic() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    let b = group.member(SystemId::new(1)).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let b = Arc::clone(&b);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                b.run(200, |db, txn| db.write(txn, n % 30, Some(&n.to_be_bytes()))).unwrap();
                n += 1;
            }
            n
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    group.enable_duplexing(&cf2).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    group.cf_failover().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let written = writer.join().unwrap();
    assert!(written > 0);
    // Integrity: every record readable through the promoted structures.
    let a = group.member(SystemId::new(0)).unwrap();
    a.run(10, |db, txn| {
        for k in 0..30u64 {
            let _ = db.read(txn, k)?;
        }
        Ok(())
    })
    .unwrap();
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn duplexing_requires_matching_geometry() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    // Allocate a mismatched secondary by hand and try to enable against it
    // through the member API.
    let wrong = cf2
        .allocate_lock_structure("WRONG", parallel_sysplex::cf::lock::LockParams::with_entries(8))
        .unwrap();
    let members = group.members();
    let irlms: Vec<_> = members.iter().map(|d| Arc::clone(d.irlm())).collect();
    let err = parallel_sysplex::db::Irlm::enable_duplexing(&irlms, wrong, &cf2.subchannel()).unwrap_err();
    assert!(matches!(err, DbError::Cf(parallel_sysplex::cf::CfError::BadParameter(_))));
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn failover_then_reduplex_onto_a_third_cf() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    let cf3 = plex.add_cf("CF03");
    let a = group.member(SystemId::new(0)).unwrap();

    group.enable_duplexing(&cf2).unwrap();
    a.run(10, |db, txn| db.write(txn, 7, Some(b"v1"))).unwrap();
    group.cf_failover().unwrap(); // CF01 lost; running on CF02
    a.run(10, |db, txn| db.write(txn, 7, Some(b"v2"))).unwrap();
    group.enable_duplexing(&cf3).unwrap(); // re-establish the mirror
    assert!(group.is_duplexed());
    a.run(10, |db, txn| db.write(txn, 7, Some(b"v3"))).unwrap();
    group.cf_failover().unwrap(); // CF02 lost; running on CF03
    let b = group.member(SystemId::new(1)).unwrap();
    let v = b.run(10, |db, txn| db.read(txn, 7)).unwrap().unwrap();
    assert_eq!(v, b"v3", "state survived two CF losses");
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}
