//! Concurrency and determinism tests for the sharded record-data table.
//!
//! The record table is sharded by `hash_to_slot(resource)` with a
//! lock-free shared element counter; these tests pin down the invariants
//! the sharding must preserve: no lost or duplicated records under
//! concurrent mutation, exactly-once sorted recovery enumeration, sorted
//! whole-table snapshots regardless of insert order, and exact capacity
//! enforcement under racing writers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{DisconnectMode, LockMode, LockParams, LockStructure};
use sysplex_core::{CfResult, ConnId};

fn structure(entries: usize, record_capacity: usize) -> LockStructure {
    let mut params = LockParams::with_entries(entries);
    params.record_capacity = record_capacity;
    LockStructure::new("SHARDTEST", &params).unwrap()
}

/// Write one record, as a one-record set.
fn write(s: &LockStructure, conn: ConnId, name: &[u8], mode: LockMode, payload: &[u8]) -> CfResult<()> {
    s.write_record_set(conn, &[(ResourceName::new(name), mode, payload)])
}

/// Concurrent write/delete/enumerate never loses or duplicates a record.
///
/// Each thread churns its own disjoint resource set (write, delete,
/// rewrite) while snapshot readers run concurrently; when the dust
/// settles, the table holds exactly the final parity of every thread's
/// churn, in sorted order, and the lock-free element counter agrees.
#[test]
fn concurrent_churn_never_loses_or_duplicates_records() {
    const THREADS: usize = 8;
    const RESOURCES: usize = 64;
    const ROUNDS: usize = 40;

    let s = structure(256, THREADS * RESOURCES);
    let conns: Vec<_> = (0..THREADS).map(|_| s.connect().unwrap()).collect();
    // 8 churners + 2 snapshot readers + the main thread releasing them.
    let barrier = Barrier::new(THREADS + 3);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let churners: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(t, &conn)| {
                let s = &s;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for r in 0..RESOURCES {
                            let name = format!("T{t:02}.R{r:03}");
                            if round % 2 == 0 {
                                write(s, conn, name.as_bytes(), LockMode::Exclusive, &[t as u8, r as u8])
                                    .unwrap();
                            } else {
                                s.release_set(conn, &[], &[ResourceName::new(name.as_bytes())]).unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        // Two concurrent snapshot readers: merges must stay internally
        // consistent (sorted, no duplicates) even mid-churn. Bounded
        // iteration with a yield per snapshot — an unbounded spin loop
        // starves the churners outright on a single-core host.
        for _ in 0..2 {
            let s = &s;
            let barrier = &barrier;
            let done = &done;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..200 {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let snap = s.records_snapshot();
                    for w in snap.windows(2) {
                        assert!(
                            (&w[0].0, w[0].1) < (&w[1].0, w[1].1),
                            "snapshot must be strictly sorted with no duplicates"
                        );
                    }
                    std::thread::yield_now();
                }
            });
        }
        barrier.wait();
        for h in churners {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    // ROUNDS is even: every resource's last action was a delete.
    assert_eq!(s.record_count(), 0, "even churn rounds end empty");
    assert!(s.records_snapshot().is_empty());

    // One more odd half-round: leave everything written.
    for (t, &conn) in conns.iter().enumerate() {
        for r in 0..RESOURCES {
            let name = format!("T{t:02}.R{r:03}");
            write(&s, conn, name.as_bytes(), LockMode::Shared, &[]).unwrap();
        }
    }
    let snap = s.records_snapshot();
    assert_eq!(snap.len(), THREADS * RESOURCES, "every record exactly once");
    assert_eq!(s.record_count(), THREADS * RESOURCES);
    for w in snap.windows(2) {
        assert!((&w[0].0, w[0].1) < (&w[1].0, w[1].1), "sorted, duplicate-free");
    }
}

/// After a simulated system failure, recovery enumeration returns every
/// retained record exactly once, in sorted resource order.
#[test]
fn retained_locks_after_failure_are_exactly_once_and_sorted() {
    const RESOURCES: usize = 200;
    let s = structure(64, RESOURCES);
    let victim = s.connect().unwrap();
    let survivor = s.connect().unwrap();

    // Insert in a scrambled order so sortedness can't come for free.
    for i in 0..RESOURCES {
        let r = (i * 7919) % RESOURCES;
        let name = format!("DB2.TS{r:04}");
        write(&s, victim, name.as_bytes(), LockMode::Exclusive, &r.to_le_bytes()).unwrap();
    }
    s.disconnect(victim, DisconnectMode::Abnormal).unwrap();
    assert!(s.is_failed_persistent(victim));

    let retained = s.retained_locks(victim);
    assert_eq!(retained.len(), RESOURCES, "every retained record exactly once");
    for w in retained.windows(2) {
        assert!(w[0].resource < w[1].resource, "recovery enumeration is strictly sorted");
    }
    for (i, lock) in retained.iter().enumerate() {
        assert_eq!(lock.resource, format!("DB2.TS{i:04}").into_bytes());
        assert_eq!(lock.mode, LockMode::Exclusive);
    }
    // A second enumeration (idempotent recovery retry) sees the same set.
    assert_eq!(s.retained_locks(victim), retained);
    let _ = survivor;
}

/// Whole-table snapshots are sorted regardless of insert order — the
/// sorted merge across shards is what keeps seeded harness replays
/// bit-for-bit stable.
#[test]
fn records_snapshot_is_sorted_for_any_insert_order() {
    const N: usize = 300;
    let s = structure(64, N);
    let conn = s.connect().unwrap();
    for i in 0..N {
        let scrambled = (i * 5851) % N;
        write(&s, conn, format!("K{scrambled:05}").as_bytes(), LockMode::Shared, &[]).unwrap();
    }
    let snap = s.records_snapshot();
    assert_eq!(snap.len(), N);
    for w in snap.windows(2) {
        assert!((&w[0].0, w[0].1) < (&w[1].0, w[1].1), "strictly sorted");
    }
}

/// The lock-free capacity reservation admits exactly `capacity` records
/// under racing writers — it can never over-admit, and with more
/// attempts than capacity it fills the table exactly.
#[test]
fn capacity_is_exact_under_racing_writers() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 32;
    const CAPACITY: usize = 64; // THREADS * PER_THREAD = 256 attempts for 64 slots

    let s = structure(64, CAPACITY);
    let conns: Vec<_> = (0..THREADS).map(|_| s.connect().unwrap()).collect();
    let barrier = Barrier::new(THREADS);

    let admitted: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(t, &conn)| {
                let s = &s;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..PER_THREAD)
                        .filter(|r| {
                            write(s, conn, format!("T{t:02}.R{r:03}").as_bytes(), LockMode::Exclusive, &[])
                                .is_ok()
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    assert_eq!(admitted, CAPACITY, "exactly `capacity` writes admitted, no more, no fewer");
    assert_eq!(s.record_count(), CAPACITY);
    assert_eq!(s.records_snapshot().len(), CAPACITY);

    // The table is full: one more distinct write must be rejected...
    let full = write(&s, conns[0], b"OVERFLOW", LockMode::Shared, &[]);
    assert!(full.is_err(), "table at capacity rejects new records");
    // ...but replacing an existing record is not a new element.
    let existing =
        s.records_snapshot().first().map(|(resource, conn_raw, _)| (resource.clone(), *conn_raw)).unwrap();
    let owner = conns.iter().copied().find(|c| c.raw() == existing.1).unwrap();
    write(&s, owner, &existing.0, LockMode::Shared, b"replaced").unwrap();
    assert_eq!(s.record_count(), CAPACITY, "in-place replace does not consume capacity");
}
