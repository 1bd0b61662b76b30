//! System-managed CF structure duplexing — instant failover with no
//! rebuild and no destage (the strongest reading of §3.3's "Multiple CF's
//! can be connected for availability, performance, and capacity reasons").
//!
//! Contrast with `tests/cf_rebuild.rs`: a *rebuild* re-creates state from
//! members' storage and DASD; *duplexing* keeps a synchronous mirror, so
//! a CF loss costs one pointer swap. The tests assert the availability
//! difference explicitly: after failover, changed data is served from the
//! promoted structure even though DASD was never brought current.

use parallel_sysplex::cf::{LinkFault, SystemId};
use parallel_sysplex::db::database::Database;
use parallel_sysplex::db::error::DbError;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rig() -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    rig_of(2)
}

fn rig_of(members: u8) -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("DXPLEX"));
    let cf1 = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(150);
    let group =
        DataSharingGroup::new(config, &cf1, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    for i in 0..members {
        group.add_member(SystemId::new(i)).unwrap();
    }
    (plex, group)
}

/// Wait until `db` has committed `n` transactions more than it had.
fn await_commits(db: &Database, n: u64) {
    let (target, deadline) = (db.stats.commits.get() + n, Instant::now() + Duration::from_secs(30));
    while db.stats.commits.get() < target {
        assert!(Instant::now() < deadline, "the writer stopped committing");
        std::thread::yield_now();
    }
}

/// Whether the group, and every member's IRLM and buffer manager, agree
/// that the group is duplexed.
fn duplexed_everywhere(group: &DataSharingGroup) -> Option<bool> {
    let views: Vec<bool> = std::iter::once(group.is_duplexed())
        .chain(group.members().iter().flat_map(|d| [d.irlm().is_duplexed(), d.buffers().is_duplexed()]))
        .collect();
    views.iter().all(|&v| v == views[0]).then_some(views[0])
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
    await_commits(&b, 20);
    group.enable_duplexing(&cf2).unwrap();
    await_commits(&b, 20);
    group.cf_failover().unwrap();
    await_commits(&b, 20);
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

/// One member's commit under duplexing costs one mirror command per
/// primary command: its record set, its page write set and its release set
/// each go to CF01 once and to CF02 once.
#[test]
fn a_duplexed_commit_mirrors_each_command_once() {
    let (plex, group) = rig_of(1);
    let (cf1, cf2) = (plex.cf("CF01").unwrap(), plex.add_cf("CF02"));
    group.enable_duplexing(&cf2).unwrap();
    let a = group.member(SystemId::new(0)).unwrap();
    let txn = |n: u64| {
        a.run(10, |db, txn| {
            db.write(txn, 1, Some(&n.to_be_bytes()))?;
            db.write(txn, 2, Some(&n.to_be_bytes()))
        })
        .unwrap()
    };
    // Warm: the hot rows' lock classes cached and their page pooled.
    (0..20).for_each(txn);
    let issued = || (cf1.command_stats().issued(), cf2.command_stats().issued());
    let before = issued();
    (0..400).for_each(txn);
    let after = issued();
    let per_txn = |i: usize| [after.0 - before.0, after.1 - before.1][i] as f64 / 400.0;
    assert_eq!((per_txn(0), per_txn(1)), (3.0, 3.0));
    group.remove_member(SystemId::new(0));
}

/// A mirror that fails breaks the pair at once: the group reads simplex,
/// and a failover, which would promote a secondary missing a held lock,
/// is refused and changes nothing. The group rebuilds instead, and the
/// held lock survives that.
#[test]
fn a_failed_mirror_breaks_the_pair_and_failover_refuses_it() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    cf2.inject_fault(LinkFault::InterfaceControlCheck);
    let mut held = a.begin();
    a.write(&mut held, 2, Some(b"held")).unwrap();
    assert!(!group.is_duplexed() && !a.irlm().is_duplexed() && !b.irlm().is_duplexed());

    let primary = group.lock_structure();
    assert!(group.cf_failover().is_err());
    assert!(Arc::ptr_eq(&group.lock_structure(), &primary));
    assert!(b.buffers().is_duplexed(), "the group buffer's pair is intact and was not promoted");

    let cf3 = plex.add_cf("CF03");
    group.rebuild_into(&cf3).unwrap();
    let mut tb = b.begin();
    assert!(matches!(b.write(&mut tb, 2, Some(b"steal")), Err(DbError::LockTimeout { .. })));
    b.abort(&mut tb).unwrap();
    a.commit(&mut held).unwrap();
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

/// A member's orderly departure detaches it from the secondary too, so a
/// failover finds none of its parked interest there.
#[test]
fn a_departed_member_leaves_no_interest_on_the_secondary() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    b.run(10, |db, txn| db.write(txn, 5, Some(b"from-b"))).unwrap();
    let b_conn = b.irlm().conn();
    group.remove_member(SystemId::new(1));
    assert_eq!(cf2.lock_structure("DSG_LOCK1_DX1").unwrap().interest_count(b_conn), 0);

    group.cf_failover().unwrap();
    a.run(10, |db, txn| db.write(txn, 5, Some(b"from-a"))).unwrap();
    assert_eq!(a.run(10, |db, txn| db.read(txn, 5)).unwrap().unwrap(), b"from-a");
    group.remove_member(SystemId::new(0));
}

/// A member that joins a duplexed group joins the pair, so a failover
/// moves every member and a lock it holds still excludes the newcomer.
#[test]
fn a_member_added_after_enable_joins_the_pair() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    let a = group.member(SystemId::new(0)).unwrap();
    let c = group.add_member(SystemId::new(2)).unwrap();
    assert_eq!(duplexed_everywhere(&group), Some(true));

    let mut held = a.begin();
    a.write(&mut held, 7, Some(b"from-a")).unwrap();
    group.cf_failover().unwrap();
    for d in group.members() {
        assert_eq!(d.irlm().structure().name(), "DSG_LOCK1_DX1");
    }
    let mut tc = c.begin();
    assert!(matches!(c.write(&mut tc, 7, Some(b"from-c")), Err(DbError::LockTimeout { .. })));
    c.abort(&mut tc).unwrap();
    a.commit(&mut held).unwrap();
    for i in 0..3 {
        group.remove_member(SystemId::new(i));
    }
}

/// A rebuild ends duplexing of both structures, and every view agrees.
#[test]
fn a_rebuild_leaves_the_whole_group_simplex() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    group.rebuild_into(&plex.add_cf("CF03")).unwrap();
    assert_eq!(duplexed_everywhere(&group), Some(false));
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

/// A lock-table resize ends duplexing of both structures: every view
/// agrees, and nothing more reaches the old secondary's facility.
#[test]
fn a_resize_leaves_the_whole_group_simplex() {
    let (plex, group) = rig();
    let cf2 = plex.add_cf("CF02");
    group.enable_duplexing(&cf2).unwrap();
    group.resize_lock_table(&plex.cf("CF01").unwrap(), 8192).unwrap();
    assert_eq!(duplexed_everywhere(&group), Some(false));
    let a = group.member(SystemId::new(0)).unwrap();
    let before = cf2.command_stats().issued();
    for k in 0..10u64 {
        a.run(10, |db, txn| db.write(txn, k, Some(b"after"))).unwrap();
    }
    assert_eq!(cf2.command_stats().issued(), before);
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}
