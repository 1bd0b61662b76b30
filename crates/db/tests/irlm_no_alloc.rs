//! Allocation gate for the IRLM request path: once its tables are warm, a
//! lock request, a release, a release of a set of names, the write of a
//! transaction's owed records and a whole-transaction release of names
//! that fit the inline key (≤ 32 bytes — every name the database builds)
//! never reach the heap. Longer names still work; they take the heap path.
//!
//! The count is per thread, so nothing else the test process runs is
//! charged to a request, and every table on the path hashes without a
//! per-process seed, so the same names fill the same buckets on every run:
//! a pass here is a pass everywhere.

mod alloc_count;

use alloc_count::allocations_in;
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::lock::{LockMode, LockParams};
use sysplex_core::SystemId;
use sysplex_db::irlm::{Irlm, LockOutcome};
use sysplex_services::timer::SysplexTimer;
use sysplex_services::xcf::Xcf;

fn row(key: u64) -> Vec<u8> {
    format!("ROW.{key:016x}").into_bytes()
}

/// One round of the traffic the gate measures, on names and transaction
/// ids of its own: returns the allocations of each step.
struct Round {
    cf_grant_with_record: u64,
    local_grant: u64,
    unlock: u64,
    cached_regrant: u64,
    write_records: u64,
    unlock_set_of_four: u64,
    unlock_all_of_eight: u64,
}

fn round(irlm: &Irlm, n: u64) -> Round {
    let stats = &irlm.stats;
    let (txn_a, txn_b, txn_c) = (1000 + 3 * n, 1001 + 3 * n, 1002 + 3 * n);
    // Names are built before anything is measured.
    let single = row(n << 32);
    let eight: Vec<Vec<u8>> = (1..=8).map(|i| row(n << 32 | i)).collect();
    let four: Vec<Vec<u8>> = (9..=12).map(|i| row(n << 32 | i)).collect();

    let before = stats.grants_cf_sync.get();
    let (cf_grant_with_record, outcome) =
        allocations_in(|| irlm.lock(txn_a, &single, LockMode::Exclusive, true).unwrap());
    assert_eq!(outcome, LockOutcome::Granted);
    assert_eq!(stats.grants_cf_sync.get() - before, 1, "a fresh name goes to the CF");

    let before = stats.grants_local.get();
    let (local_grant, _) = allocations_in(|| irlm.lock(txn_a, &single, LockMode::Shared, false).unwrap());
    assert_eq!(stats.grants_local.get() - before, 1, "covered by the hold above");

    let (unlock, _) = allocations_in(|| irlm.unlock(txn_a, &single).unwrap());
    assert!(irlm.held_by(txn_a).is_empty());

    let before = stats.regrants_local.get();
    let (cached_regrant, _) =
        allocations_in(|| irlm.lock(txn_b, &single, LockMode::Exclusive, true).unwrap());
    assert_eq!(stats.regrants_local.get() - before, 1, "the parked entry re-grants locally");
    let (write_records, _) = allocations_in(|| irlm.write_records(txn_b).unwrap());

    let txn_d = 5000 + n;
    for name in &four {
        irlm.lock(txn_d, name, LockMode::Exclusive, false).unwrap();
    }
    let (unlock_set_of_four, _) = allocations_in(|| irlm.unlock_set(txn_d, &four).unwrap());
    assert!(irlm.held_by(txn_d).is_empty());

    for name in &eight {
        irlm.lock(txn_c, name, LockMode::Exclusive, true).unwrap();
    }
    assert_eq!(irlm.held_by(txn_c).len(), 8);
    let (unlock_all_of_eight, _) = allocations_in(|| irlm.unlock_all(txn_c).unwrap());
    assert!(irlm.held_by(txn_c).is_empty());
    irlm.unlock_all(txn_b).unwrap();
    Round {
        cf_grant_with_record,
        local_grant,
        unlock,
        cached_regrant,
        write_records,
        unlock_set_of_four,
        unlock_all_of_eight,
    }
}

#[test]
fn warm_request_paths_do_not_allocate_and_long_names_still_work() {
    let xcf = Xcf::new(SysplexTimer::new());
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("IRLMLOCK1", LockParams::with_entries(1 << 16)).unwrap();
    let irlm = Irlm::start(SystemId::new(0), cf.connect_lock("IRLMLOCK1").unwrap(), &xcf).unwrap();

    // Warm-up. One wide transaction sizes the member's tables, the
    // structure's record shards and the parked-entry FIFO well past what a
    // round needs (the FIFO and the entry table keep one slot per hash
    // class ever parked, so they are sized for the rounds to come, not just
    // for the widest transaction); three rounds then leave held lists of
    // the right capacity in the spare pool.
    for key in 0..200 {
        irlm.lock(1, &row(u64::MAX - key), LockMode::Exclusive, true).unwrap();
    }
    irlm.unlock_all(1).unwrap();
    for n in 1..=3 {
        round(&irlm, n);
    }

    let r = round(&irlm, 4);
    assert_eq!(r.cf_grant_with_record, 0, "CF-synchronous grant with persistent record");
    assert_eq!(r.local_grant, 0, "local grant");
    assert_eq!(r.unlock, 0, "unlock");
    assert_eq!(r.cached_regrant, 0, "cached re-grant");
    assert_eq!(r.write_records, 0, "write_records of a re-grant's record");
    assert_eq!(r.unlock_set_of_four, 0, "unlock_set of four");
    assert_eq!(r.unlock_all_of_eight, 0, "unlock_all of an 8-lock transaction");

    // A name past the inline limit takes the heap path and behaves the same.
    let long = vec![b'L'; 200];
    let (allocations, outcome) = allocations_in(|| irlm.lock(9, &long, LockMode::Exclusive, true).unwrap());
    assert_eq!(outcome, LockOutcome::Granted);
    assert!(allocations > 0, "a 200-byte name cannot be inline");
    assert_eq!(irlm.held_by(9), vec![(long.clone(), LockMode::Exclusive)]);
    let retained = irlm.retained_locks_of(irlm.conn()).unwrap();
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].resource, long);
    assert_eq!(retained[0].payload, 9u64.to_be_bytes());
    irlm.unlock_all(9).unwrap();
    assert!(irlm.retained_locks_of(irlm.conn()).unwrap().is_empty());
    irlm.shutdown();
}
