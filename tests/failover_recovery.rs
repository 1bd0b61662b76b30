//! §2.5 end to end: unscheduled outage with work in flight, fail-stop
//! fencing, ARM-driven peer recovery, retained-lock release, and the 1/N
//! spare-capacity arithmetic.

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::error::DbError;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::log::{LogManager, LogRecord};
use parallel_sysplex::services::arm::ElementSpec;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::services::system::SystemConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn plex_and_group(systems: u8) -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("HAPLEX"));
    let cf = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(150);
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    for i in 0..systems {
        plex.ipl(SystemConfig::cmos(SystemId::new(i), 1));
        group.add_member(SystemId::new(i)).unwrap();
    }
    (plex, group)
}

/// The worst-case §2.5 scenario: a system dies after externalising an
/// uncommitted page change. Peer recovery must back it out and free the
/// retained locks, after which the record is consistent and available.
#[test]
fn mid_commit_failure_is_backed_out_by_peer() {
    let (plex, group) = plex_and_group(2);
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();

    a.run(10, |db, txn| db.write(txn, 5, Some(b"committed-value"))).unwrap();

    // Manually drive a's commit to the most dangerous point: WAL forced,
    // lock records written, page externalised to the group buffer, no
    // commit record.
    let mut ta = a.begin();
    a.write(&mut ta, 5, Some(b"torn-update")).unwrap();
    let page_no = group.store.page_of(5);
    a.log().append(LogRecord::Update {
        lsn: group.timer.tod(),
        txn: ta.id(),
        page: page_no,
        key: 5,
        before: Some(b"committed-value".to_vec()),
        after: Some(b"torn-update".to_vec()),
    });
    a.log().force().unwrap();
    a.irlm().write_records(ta.id()).unwrap();
    let mut page = a.buffers().get_page(page_no).unwrap();
    page.set(5, b"torn-update");
    a.buffers().put_page(page_no, &page).unwrap();

    // The system dies. Fence first (heartbeat), then crash the member.
    plex.kill(SystemId::new(0));
    let failed = group.crash_member(SystemId::new(0)).unwrap();

    // Survivor is blocked by the retained lock until recovery.
    let mut tb = b.begin();
    assert!(matches!(b.write(&mut tb, 5, Some(b"x")), Err(DbError::LockTimeout { .. })));
    b.abort(&mut tb).unwrap();

    let report = group.recover_on(SystemId::new(1), &failed).unwrap();
    assert_eq!(report.backed_out_txns, 1);
    assert_eq!(report.undone_updates, 1, "the externalised torn update was undone");
    assert!(report.retained_released >= 1);

    // Consistent, available, writable.
    let v = b.run(10, |db, txn| db.read(txn, 5)).unwrap().unwrap();
    assert_eq!(v, b"committed-value");
    b.run(10, |db, txn| db.write(txn, 5, Some(b"after-recovery"))).unwrap();
    plex.remove_planned(SystemId::new(1));
}

/// Recovery finishes with the log it backed out: a member that fails a
/// second time — having re-joined and logged nothing — must not have its
/// first life's in-flight transaction backed out again, over a value a
/// survivor has committed since.
#[test]
fn a_recovered_log_is_not_replayed_by_a_second_failure() {
    let (plex, group) = plex_and_group(2);
    let (sys_a, sys_b) = (SystemId::new(0), SystemId::new(1));
    let a = group.member(sys_a).unwrap();
    let b = group.member(sys_b).unwrap();
    a.run(10, |db, txn| db.write(txn, 5, Some(b"committed-value"))).unwrap();

    // A dies with an uncommitted update logged and externalised.
    let mut ta = a.begin();
    a.write(&mut ta, 5, Some(b"torn-update")).unwrap();
    let page_no = group.store.page_of(5);
    a.log().append(LogRecord::Update {
        lsn: group.timer.tod(),
        txn: ta.id(),
        page: page_no,
        key: 5,
        before: Some(b"committed-value".to_vec()),
        after: Some(b"torn-update".to_vec()),
    });
    a.log().force().unwrap();
    let mut page = a.buffers().get_page(page_no).unwrap();
    page.set(5, b"torn-update");
    a.buffers().put_page(page_no, &page).unwrap();
    let failed = group.crash_member(sys_a).unwrap();
    plex.xcf.fail_system(sys_a);

    let report = group.recover_on(sys_b, &failed).unwrap();
    assert_eq!((report.backed_out_txns, report.undone_updates), (1, 1));
    assert!(
        LogManager::read_log(1, &plex.farm, &failed.log_volume).unwrap().is_empty(),
        "a backed-out log is discarded by the recovery that backed it out"
    );
    assert_eq!(b.active_transactions(), 0, "recovery is not a transaction of the survivor");

    // A re-joins and logs nothing; B commits, as its own, the value A's
    // first life logged as an uncommitted after-image; A fails again.
    group.add_member(sys_a).unwrap();
    b.run(10, |db, txn| db.write(txn, 5, Some(b"torn-update"))).unwrap();
    let failed = group.crash_member(sys_a).unwrap();
    plex.xcf.fail_system(sys_a);

    let report = group.recover_on(sys_b, &failed).unwrap();
    assert_eq!(
        (report.backed_out_txns, report.undone_updates),
        (0, 0),
        "the second recovery replayed the first life's log"
    );
    let v = b.run(10, |db, txn| db.read(txn, 5)).unwrap().unwrap();
    assert_eq!(v, b"torn-update", "B's committed write survives A's second failure");
    plex.remove_planned(sys_b);
}

/// A member's log holds only what overlapped its last idle moment. After a
/// thousand truncated cycles of 1–13 commits each — an open transaction
/// holds the member busy through a cycle, and its end truncates — a crash
/// mid-commit is recovered with exactly the one in-flight transaction
/// backed out, and every committed value stands.
#[test]
fn a_crash_after_a_thousand_truncated_cycles_backs_out_only_the_one_in_flight() {
    let (plex, group) = plex_and_group(2);
    let a = group.member(SystemId::new(0)).unwrap();
    let b = group.member(SystemId::new(1)).unwrap();
    for cycle in 0..1000u64 {
        let mut open = a.begin();
        for key in 0..1 + cycle * 7 % 13 {
            a.run(10, |db, txn| db.write(txn, key, Some(&cycle.to_be_bytes()))).unwrap();
        }
        a.commit(&mut open).unwrap();
    }
    assert_eq!(a.log().truncations().load(Ordering::Relaxed), 1000);
    // Cycle 999 wrote keys 0..13; cycle 998 keys 0..6.
    let records = LogManager::read_log(1, &plex.farm, "DSGLOG00").unwrap();
    let (committed, aborted, inflight) = LogManager::analyze(&records);
    assert_eq!((committed.len(), aborted.len(), inflight.len()), (13, 0, 0), "the last cycle, complete");

    // Key 3 is torn mid-commit: logged, its lock record written, its page
    // externalised, no commit record.
    let mut ta = a.begin();
    a.write(&mut ta, 3, Some(b"torn-update")).unwrap();
    let page_no = group.store.page_of(3);
    a.log().append(LogRecord::Update {
        lsn: group.timer.tod(),
        txn: ta.id(),
        page: page_no,
        key: 3,
        before: Some(999u64.to_be_bytes().to_vec()),
        after: Some(b"torn-update".to_vec()),
    });
    a.log().force().unwrap();
    a.irlm().write_records(ta.id()).unwrap();
    let mut page = a.buffers().get_page(page_no).unwrap();
    page.set(3, b"torn-update");
    a.buffers().put_page(page_no, &page).unwrap();
    plex.kill(SystemId::new(0));
    let failed = group.crash_member(SystemId::new(0)).unwrap();

    let report = group.recover_on(SystemId::new(1), &failed).unwrap();
    assert_eq!((report.backed_out_txns, report.undone_updates), (1, 1));
    let values =
        b.run(10, |db, txn| (0..13).map(|key| db.read(txn, key)).collect::<Result<Vec<_>, _>>()).unwrap();
    for (key, value) in values.into_iter().enumerate() {
        assert_eq!(value.unwrap(), 999u64.to_be_bytes(), "key {key}");
    }
    plex.remove_planned(SystemId::new(1));
}

/// Data the failed system was NOT touching stays available the whole time
/// — the heart of the continuous-availability claim.
#[test]
fn untouched_data_never_blocks_during_recovery() {
    let (plex, group) = plex_and_group(3);
    let a = group.member(SystemId::new(0)).unwrap();
    let c = group.member(SystemId::new(2)).unwrap();
    // a holds a lock on key 1 and dies with it.
    let mut ta = a.begin();
    a.write(&mut ta, 1, Some(b"held")).unwrap();
    plex.kill(SystemId::new(0));
    let failed = group.crash_member(SystemId::new(0)).unwrap();

    // Before recovery even starts, every other key is fully available.
    for k in 2..20u64 {
        c.run(10, move |db, txn| db.write(txn, k, Some(b"fine"))).unwrap();
    }
    let report = group.recover_on(SystemId::new(2), &failed).unwrap();
    assert!(report.retained_released >= 1);
    // Now key 1 is available too.
    c.run(10, |db, txn| db.write(txn, 1, Some(b"released"))).unwrap();
    plex.remove_planned(SystemId::new(1));
    plex.remove_planned(SystemId::new(2));
}

/// ARM choreography through the Sysplex runtime: the heartbeat callback
/// plans restarts on the WLM-chosen survivor and the handler confirms.
#[test]
fn arm_restarts_elements_on_survivors() {
    let (plex, group) = plex_and_group(3);
    let restarted = Arc::new(AtomicU64::new(u64::MAX));
    {
        let group = Arc::clone(&group);
        let plexc = Arc::clone(&plex);
        let restarted = Arc::clone(&restarted);
        plex.arm
            .register(
                ElementSpec {
                    name: "DBM01".into(),
                    restart_group: "DB".into(),
                    sequence: 1,
                    affinity_to: None,
                },
                SystemId::new(1),
                move |target| {
                    if let Some(failed) = group.crash_member(SystemId::new(1)) {
                        group.recover_on(target, &failed).unwrap();
                    }
                    plexc.arm.confirm_restart("DBM01", target).unwrap();
                    restarted.store(target.0 as u64, Ordering::SeqCst);
                },
            )
            .unwrap();
    }
    plex.kill(SystemId::new(1));
    let target = restarted.load(Ordering::SeqCst);
    assert!(target == 0 || target == 2, "restarted on a survivor, got {target}");
    assert_eq!(
        plex.arm.whereabouts("DBM01").unwrap().1,
        parallel_sysplex::services::arm::ElementState::Running
    );
    plex.remove_planned(SystemId::new(0));
    plex.remove_planned(SystemId::new(2));
}

/// §2.5's capacity arithmetic: "each individual system only requires 1/N
/// spare system capacity ... for all remaining systems to continue
/// execution of critical workloads" — with N systems at (N-1)/N
/// utilization, the survivors exactly absorb a failure.
#[test]
fn one_over_n_spare_capacity_absorbs_a_failure() {
    use parallel_sysplex::sim::queueing::{run, Node, QueueSimConfig};
    let n = 4usize;
    let cap = 100.0;
    let offered_total = cap * (n as f64 - 1.0); // each node at 75% = 1-1/N
    let cfg = QueueSimConfig { dt_s: 0.1, steps: 400, seed: 5 };
    // Node 0 dies halfway; its load redistributes to the survivors.
    let outcome = run(cfg, (0..n).map(|_| Node::new(cap)).collect(), move |step, _q| {
        if step < 200 {
            vec![offered_total / n as f64; n]
        } else {
            let mut v = vec![offered_total / (n - 1) as f64; n];
            v[0] = 0.0;
            v
        }
    });
    // Survivors run at exactly ρ = 1 after the failure, so Poisson noise
    // leaves a small transient backlog; service is sustained within it.
    assert!(outcome.completion_ratio > 0.985, "no observable loss of service: {outcome:?}");
    assert!(outcome.final_backlog < offered_total, "backlog bounded, not diverging: {outcome:?}");
    // Survivors ended up fully loaded but not over capacity.
    for u in &outcome.utilization[1..] {
        assert!(*u > 0.80 && *u <= 1.0, "survivor utilization {u}");
    }
}
