//! Failure-injection suite: the reliability features §3.1–3.2 list,
//! exercised under adversity — channel path loss, couple-data-set member
//! loss, zombie systems after fencing, and structure-full conditions
//! (which drive the commit-failure backout path).

use parallel_sysplex::cf::{CfError, CommandClass, LinkFault, SystemId};
use parallel_sysplex::db::error::DbError;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::log::LogManager;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;
use std::time::Duration;

fn plex_group(systems: u8, config: GroupConfig) -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("FIPLEX"));
    let cf = plex.add_cf("CF01");
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    for i in 0..systems {
        group.add_member(SystemId::new(i)).unwrap();
    }
    (plex, group)
}

fn short_timeout_config() -> GroupConfig {
    let mut c = GroupConfig::default();
    c.db.lock_timeout = Duration::from_millis(150);
    c
}

#[test]
fn dasd_path_failures_are_transparent_until_the_last_path() {
    let (_plex, group) = plex_group(1, short_timeout_config());
    let db = group.member(SystemId::new(0)).unwrap();
    db.run(10, |db, txn| db.write(txn, 1, Some(b"seed"))).unwrap();
    db.buffers().castout(100).unwrap();

    let vol = group.farm.volume("DSGDB01").unwrap();
    // Knock out 3 of 4 channel paths: I/O keeps flowing.
    vol.fail_path(0);
    vol.fail_path(1);
    vol.fail_path(2);
    db.run(10, |db, txn| db.write(txn, 2, Some(b"still-works"))).unwrap();
    assert!(vol.redrives.load(std::sync::atomic::Ordering::Relaxed) > 0, "redrives happened");

    // Last path gone: the error surfaces cleanly (no panic, no corruption)…
    vol.fail_path(3);
    // Pages already buffered still read fine (no DASD involved).
    let v = db.run(10, |db, txn| db.read(txn, 1)).unwrap().unwrap();
    assert_eq!(v, b"seed");
    // …and a cold read of an unbuffered page reports the I/O failure.
    let err = db.run(0, |db, txn| db.read(txn, 77)).unwrap_err();
    assert!(matches!(err, DbError::Io(_)), "got {err:?}");

    // Path restored: service resumes.
    vol.restore_path(2);
    db.run(10, |db, txn| db.write(txn, 77, Some(b"recovered"))).unwrap();
    group.remove_member(SystemId::new(0));
}

#[test]
fn cds_member_loss_under_heartbeat_traffic_hot_switches() {
    let plex = Sysplex::new(SysplexConfig::functional("FIPLEX2"));
    for i in 0..3u8 {
        plex.ipl(parallel_sysplex::services::system::SystemConfig::cmos(SystemId::new(i), 1));
    }
    // Drive heartbeats while the CDS primary dies and a fresh alternate is
    // introduced.
    for round in 0..30 {
        assert!(plex.tick().is_empty(), "no false failure declarations");
        if round == 10 {
            plex.cds.pair().hot_switch().unwrap();
        }
        if round == 20 {
            let fresh = Arc::new(parallel_sysplex::dasd::volume::Volume::new(
                "CDS03",
                1024,
                parallel_sysplex::dasd::volume::IoModel::instant(),
            ));
            plex.cds.pair().replace_alternate(fresh).unwrap();
            assert!(plex.cds.pair().is_duplexed());
        }
    }
    assert_eq!(plex.cds.pair().switches.load(std::sync::atomic::Ordering::Relaxed), 1);
    for i in 0..3u8 {
        plex.remove_planned(SystemId::new(i));
    }
}

#[test]
fn fenced_zombie_cannot_damage_shared_state() {
    let (plex, group) = plex_group(2, short_timeout_config());
    for i in 0..2u8 {
        plex.ipl(parallel_sysplex::services::system::SystemConfig::cmos(SystemId::new(i), 1));
    }
    let zombie = group.member(SystemId::new(0)).unwrap();
    let healthy = group.member(SystemId::new(1)).unwrap();
    healthy.run(10, |db, txn| db.write(txn, 5, Some(b"good"))).unwrap();
    healthy.buffers().castout(100).unwrap();

    // Declare system 0 failed: the fence rises first. Its threads are
    // still running — the zombie scenario the paper's fail-stop design
    // guards against.
    plex.kill(SystemId::new(0));
    // Zombie DASD I/O is rejected…
    let err = group.store.write_image(0, 0, b"corruption").unwrap_err();
    assert!(matches!(err, DbError::Io(parallel_sysplex::dasd::IoError::Fenced(0))));
    // …zombie transactions fail (fenced log force or DASD read)…
    let r = zombie.run(0, |db, txn| db.write(txn, 5, Some(b"evil")));
    assert!(r.is_err(), "zombie write must not succeed: {r:?}");
    // …and the shared data is untouched and available to survivors.
    let v = healthy.run(10, |db, txn| db.read(txn, 5)).unwrap().unwrap();
    assert_eq!(v, b"good");
    group.remove_member(SystemId::new(1));
    plex.remove_planned(SystemId::new(1));
}

#[test]
fn group_buffer_full_aborts_cleanly_and_recovers_by_castout() {
    // A group buffer too small for the working set: once every directory
    // entry holds changed data, further writes must fail the transaction
    // cleanly (commit backout path) — and a castout sweep must restore
    // service.
    let mut config = short_timeout_config();
    config.cache_entries = 4;
    config.pages = 64;
    let (_plex, group) = plex_group(1, config);
    let db = group.member(SystemId::new(0)).unwrap();

    // Fill the tiny structure with changed pages.
    let mut filled = 0u64;
    let mut failed_key = None;
    for k in 0..16u64 {
        match db.run(0, move |db, txn| db.write(txn, k, Some(b"dirty"))) {
            Ok(()) => filled += 1,
            Err(DbError::Cf(e)) => {
                assert_eq!(e, parallel_sysplex::cf::CfError::StructureFull);
                failed_key = Some(k);
                break;
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    let failed_key = failed_key.expect("the tiny structure must fill");
    assert!(filled >= 3, "several pages fit before exhaustion");

    // Castout drains the structure; service resumes. (While jammed, even
    // registration for reads is refused — that is the point of the test.)
    db.buffers().castout(100).unwrap();

    // The failed transaction backed out: its lock is free (no leak) and
    // its record absent.
    let v = db.run(10, move |db, txn| db.read(txn, failed_key)).unwrap();
    assert_eq!(v, None, "failed write left nothing behind");
    db.run(10, move |db, txn| db.write(txn, failed_key, Some(b"after-castout"))).unwrap();
    // Everything previously committed is intact.
    for k in 0..filled {
        let v = db.run(10, move |db, txn| db.read(txn, k)).unwrap().unwrap();
        assert_eq!(v, b"dirty");
    }
    group.remove_member(SystemId::new(0));
}

#[test]
fn castout_daemon_and_peer_recovery_coexist() {
    use parallel_sysplex::db::castout::{CastoutConfig, CastoutDaemon};
    let (plex, group) = plex_group(2, short_timeout_config());
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    // The survivor runs a castout daemon throughout.
    let daemon =
        CastoutDaemon::start(Arc::clone(&b), CastoutConfig { interval: Duration::from_millis(2), batch: 64 });
    a.run(10, |db, txn| db.write(txn, 9, Some(b"committed"))).unwrap();
    // a dies holding a lock with an externalised torn update.
    let mut ta = a.begin();
    a.write(&mut ta, 9, Some(b"torn")).unwrap();
    a.log().append(parallel_sysplex::db::log::LogRecord::Update {
        lsn: group.timer.tod(),
        txn: ta.id(),
        page: group.store.page_of(9),
        key: 9,
        before: Some(b"committed".to_vec()),
        after: Some(b"torn".to_vec()),
    });
    a.log().force().unwrap();
    let page_no = group.store.page_of(9);
    let mut page = a.buffers().get_page(page_no).unwrap();
    page.set(9, b"torn");
    a.buffers().put_page(page_no, &page).unwrap();
    plex.kill(SystemId::new(0));
    let failed = group.crash_member(SystemId::new(0)).unwrap();
    // Recovery runs while the daemon keeps sweeping.
    let report = group.recover_on(SystemId::new(1), &failed).unwrap();
    assert_eq!(report.undone_updates, 1);
    // Let the daemon drain everything; DASD converges to the committed
    // value despite the concurrent backout.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while group.cache_structure().changed_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(group.cache_structure().changed_count(), 0);
    assert_eq!(group.store.read_page(1, page_no).unwrap().get(9).unwrap(), b"committed");
    let v = b.run(10, |db, txn| db.read(txn, 9)).unwrap().unwrap();
    assert_eq!(v, b"committed");
    daemon.stop();
    group.remove_member(SystemId::new(1));
}

#[test]
fn lock_record_exhaustion_fails_the_request_not_the_structure() {
    let mut config = short_timeout_config();
    config.lock_entries = 64; // record capacity follows entries
    let (_plex, group) = plex_group(1, config);
    let db = group.member(SystemId::new(0)).unwrap();
    let irlm = db.irlm();
    // One transaction takes persistent locks on more rows than the record
    // area holds. A CF-granted one carries its record and is refused when
    // the area is full; a local re-grant's record waits for the commit,
    // whose record set is refused instead.
    let mut txn = db.begin();
    let refused = match (0..200u64).try_for_each(|k| db.write(&mut txn, k, Some(b"x"))) {
        Err(e) => {
            db.abort(&mut txn).unwrap();
            Err(e)
        }
        Ok(()) => db.commit(&mut txn),
    };
    assert!(
        matches!(refused, Err(DbError::Cf(CfError::StructureFull))),
        "record capacity must be enforceable: {refused:?}"
    );
    // Either way the transaction ends cleanly: nothing written, no record
    // left behind, and the structure serves new work.
    assert!(irlm.retained_locks_of(irlm.conn()).unwrap().is_empty());
    assert_eq!(db.run(10, |db, txn| db.read(txn, 7)).unwrap(), None);
    db.run(10, |db, txn| db.write(txn, 0, Some(b"fresh"))).unwrap();
    group.remove_member(SystemId::new(0));
}

/// Once the commit record is forced the transaction is committed: a lost
/// `lock_release` while its locks are being dropped is reported, but the
/// pages it externalised are not backed out and no Abort is logged.
#[test]
fn release_error_after_the_commit_record_does_not_back_out() {
    // The fault queue is consumed one command at a time, so the lost
    // command is positioned by padding it with no-op delays. How many CF
    // commands a transaction issues before its first lock release is not
    // this test's business: try paddings until the fault lands on one.
    for padding in 0..200 {
        let plex = Sysplex::new(SysplexConfig::functional("FIPLEX"));
        let cf = plex.add_cf("CF01");
        let group = DataSharingGroup::new(
            short_timeout_config(),
            &cf,
            plex.farm.clone(),
            plex.timer.clone(),
            plex.xcf.clone(),
        )
        .unwrap();
        let a = group.add_member(SystemId::new(0)).unwrap();
        let b = group.add_member(SystemId::new(1)).unwrap();
        a.run(0, |db, txn| {
            db.write(txn, 1, Some(b"old-1"))?;
            db.write(txn, 2, Some(b"old-2"))
        })
        .unwrap();

        // Key 3 is only read, and was never written: its Shared grant is
        // not cached, so it is released by a CF command — the first of
        // `unlock_all` (every Exclusive grant of a lone member is parked,
        // not released).
        let mut txn = a.begin();
        assert_eq!(a.read(&mut txn, 3).unwrap(), None);
        a.write(&mut txn, 1, Some(b"new-1")).unwrap();
        a.write(&mut txn, 2, Some(b"new-2")).unwrap();
        for _ in 0..padding {
            cf.inject_fault(LinkFault::Delay(Duration::ZERO));
        }
        cf.inject_fault(LinkFault::Timeout);
        let outcome = a.commit(&mut txn);
        if cf.command_stats().class(CommandClass::LockRelease).faulted.get() == 0 {
            // Landed on an earlier command (a legitimate abort) or on none.
            group.remove_member(SystemId::new(0));
            group.remove_member(SystemId::new(1));
            continue;
        }

        assert_eq!(outcome, Err(DbError::Cf(CfError::LinkTimeout("lock-release"))));
        assert_eq!(a.stats.commits.get(), 2, "the transaction counts as committed");
        assert_eq!(a.stats.aborts.get(), 0);
        assert!(a.irlm().held_by(txn.id()).is_empty(), "every lock was dropped despite the error");
        let records = LogManager::read_log(1, &plex.farm, "DSGLOG00").unwrap();
        let (committed, aborted, inflight) = LogManager::analyze(&records);
        assert!(committed.contains(&txn.id()), "commit record is durable");
        assert!(aborted.is_empty() && inflight.is_empty(), "aborted {aborted:?} inflight {inflight:?}");
        // The committed values are what the rest of the sysplex sees.
        let seen = b.run(10, |db, txn| Ok((db.read(txn, 1)?, db.read(txn, 2)?))).unwrap();
        assert_eq!(seen, (Some(b"new-1".to_vec()), Some(b"new-2".to_vec())));
        group.remove_member(SystemId::new(0));
        group.remove_member(SystemId::new(1));
        return;
    }
    panic!("no padding put the fault on a lock release");
}
