//! Negative tests: prove each oracle invariant actually fires.
//!
//! A trace oracle that never fails is worthless, so every invariant gets
//! a known-bad run built from the `test-hooks`-gated fault hooks in the
//! CF structures themselves (this crate's dev-dependency on itself turns
//! the feature on). Each test drives the *real* structure code through a
//! protocol violation the hardware model normally forbids, then asserts
//! the oracle convicts it.

use sysplex_core::cache::{BlockName, CacheParams, WriteKind};
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{DisconnectMode, LockMode, LockParams};
use sysplex_core::trace::TraceEvent;
use sysplex_core::{CacheConnection, CfConfig, CouplingFacility, LockConnection, SystemId, Tracer};
use sysplex_harness::oracle::{check_lock_structure, check_rings, check_trace, OracleConfig};
use sysplex_harness::Violation;

fn cf() -> std::sync::Arc<CouplingFacility> {
    let cf = CouplingFacility::new(CfConfig::named("CFNEG"));
    cf.tracer().enable();
    cf
}

/// Invariant (a): two exclusive grants on one lock entry.
#[test]
fn oracle_convicts_double_exclusive_grant() {
    let cf = cf();
    let lock = cf.allocate_lock_structure("LOCK1", LockParams::with_entries(64)).unwrap();
    let a = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(0))).unwrap();
    let b = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(1))).unwrap();

    a.request_lock(5, LockMode::Exclusive).unwrap();
    // Sanity: without the hook the structure correctly blocks conn b, so
    // a clean trace passes.
    assert!(check_trace(&cf.tracer().snapshot_all(), OracleConfig::default()).is_empty());

    // Arm the known-bad path: the lock table grants regardless of
    // existing incompatible interest (a broken compatibility matrix).
    lock.arm_force_grant();
    b.request_lock(5, LockMode::Exclusive).unwrap();

    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert!(
        violations.iter().any(|v| matches!(v, Violation::LockExclusivity { entry: 5, .. })),
        "expected a LockExclusivity violation, got {violations:?}"
    );
}

/// Invariant (b): a cross-invalidate that fails to flip the reader's
/// local vector bit leaves a stale fast-path read behind.
#[test]
fn oracle_convicts_stale_read_after_lost_xi() {
    let cf = cf();
    let cache = cf.allocate_cache_structure("CACHE1", CacheParams::store_in(64)).unwrap();
    let writer = CacheConnection::attach(&cache, cf.subchannel().with_system(SystemId(0)), 16).unwrap();
    let reader = CacheConnection::attach(&cache, cf.subchannel().with_system(SystemId(1)), 16).unwrap();
    let name = BlockName::from_bytes(b"BLK1");

    writer.write_invalidate(name, b"v1", WriteKind::CleanData).unwrap();
    reader.register_read(name, 3).unwrap();
    assert!(reader.is_valid_block(3, name));
    assert!(check_trace(&cf.tracer().snapshot_all(), OracleConfig::default()).is_empty());

    // Arm the known-bad path: the next write's cross-invalidate is
    // recorded in the directory (and traced) but never reaches the
    // reader's local vector — a lost XI signal.
    cache.arm_lose_xi();
    writer.write_invalidate(name, b"v2", WriteKind::CleanData).unwrap();

    // The reader's fast path still says "valid": a stale read.
    assert!(reader.is_valid_block(3, name), "hook should have kept the bit set");
    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert!(
        violations.iter().any(|v| matches!(v, Violation::StaleRead { system: 1, .. })),
        "expected a StaleRead violation, got {violations:?}"
    );
}

/// Invariant (c): one ready-list entry dispatched to two consumers.
/// The known-bad schedule: a consumer "returns" its claimed entry with a
/// bare move instead of the claim protocol, so the next claim_first
/// hands the same entry out a second time with no requeue on record.
#[test]
fn oracle_convicts_double_claim() {
    use sysplex_core::list::{DequeueEnd, ListParams, LockCondition, WritePosition};
    use sysplex_core::ListConnection;

    let cf = cf();
    let list = cf.allocate_list_structure("LIST1", ListParams::with_headers(4)).unwrap();
    let conn = ListConnection::attach(&list, cf.subchannel().with_system(SystemId(0)), 8).unwrap();

    let id = conn.enqueue(0, 1, b"work", WritePosition::Tail, LockCondition::None).unwrap();
    let claimed = conn.claim_first(0, 1, DequeueEnd::Head, WritePosition::Tail, LockCondition::None).unwrap();
    assert_eq!(claimed.unwrap().id, id);

    // Known-bad: sneak the entry back onto the ready header with a raw
    // move (no traced claim from the in-flight header), then claim again.
    conn.move_to(id, 0, WritePosition::Tail, LockCondition::None).unwrap();
    let again = conn.claim_first(0, 1, DequeueEnd::Head, WritePosition::Tail, LockCondition::None).unwrap();
    assert_eq!(again.unwrap().id, id);

    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert!(
        violations.iter().any(|v| matches!(v, Violation::DuplicateClaim { .. })),
        "expected a DuplicateClaim violation, got {violations:?}"
    );
}

/// Invariant (c), drained flavor: an enqueued entry nobody ever claims.
#[test]
fn oracle_convicts_unclaimed_entry_when_drain_expected() {
    use sysplex_core::list::{ListParams, LockCondition, WritePosition};
    use sysplex_core::ListConnection;

    let cf = cf();
    let list = cf.allocate_list_structure("LIST2", ListParams::with_headers(4)).unwrap();
    let conn = ListConnection::attach(&list, cf.subchannel().with_system(SystemId(0)), 8).unwrap();
    conn.enqueue(0, 1, b"orphan", WritePosition::Tail, LockCondition::None).unwrap();

    let config = OracleConfig { ready_header: 0, expect_drained: true };
    let violations = check_trace(&cf.tracer().snapshot_all(), config);
    assert!(
        violations.iter().any(|v| matches!(v, Violation::UnclaimedEntry { .. })),
        "expected an UnclaimedEntry violation, got {violations:?}"
    );
}

/// Invariant (d): ring retention accounting. A torn slot (writer died
/// mid-store) makes the decoded snapshot shorter than the retained
/// counter claims.
#[test]
fn oracle_convicts_torn_trace_slot() {
    let tracer = Tracer::new();
    tracer.enable();
    for i in 0..5u64 {
        tracer.emit(2, 1, TraceEvent::ListEnqueue { header: 0, entry: i + 1 });
    }
    assert!(check_rings(&tracer).is_empty(), "intact ring must pass");

    tracer.poison_slot(2, 1);
    let violations = check_rings(&tracer);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::RingAccounting { system: 2, retained: 5, snapshot_len: 4 })),
        "expected a RingAccounting violation, got {violations:?}"
    );
}

/// Invariant (e): post-recovery lock-structure consistency. A recovery
/// that frees the dead peer's slot but leaks its record data leaves
/// orphan records owned by a connector that no longer exists.
#[test]
fn oracle_convicts_leaky_recovery() {
    let cf = cf();
    let lock = cf.allocate_lock_structure("LOCK2", LockParams::with_entries(64)).unwrap();
    let survivor = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(0))).unwrap();
    let victim = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(1))).unwrap();

    let entry = victim.hash_resource(b"RES1");
    victim.request_lock(entry, LockMode::Exclusive).unwrap();
    victim.write_lock_record_set(&[(ResourceName::new(b"RES1"), LockMode::Exclusive, b"txn")]).unwrap();
    // System failure: interest and records are retained failed-persistent.
    victim.detach(DisconnectMode::Abnormal).unwrap();
    assert!(check_lock_structure(&lock).is_empty(), "failed-persistent records are legitimate");

    // Known-bad: recovery completion frees the slot but leaks the
    // records instead of purging them.
    lock.arm_leaky_recovery();
    survivor.recovery_complete_for(victim.conn_id()).unwrap();

    let violations = check_lock_structure(&lock);
    assert!(
        violations.iter().any(|v| matches!(v, Violation::OrphanLockRecord { .. })),
        "expected an OrphanLockRecord violation, got {violations:?}"
    );
}
