//! Oracle-branch coverage: each known-bad path lights its own bit.
//!
//! The coverage map reserves one bit per oracle-violation arm (DESIGN.md
//! §12). If two arms ever hashed to the same bit — or an arm stopped
//! lighting its bit at all — the guided sweep would go blind to a whole
//! class of bug while still reporting healthy coverage. So this mirrors
//! the `oracle_negative` known-bad runs (built from the `test-hooks`
//! fault hooks) and asserts every one of them lights exactly its own
//! oracle-branch bit, and that the bits are pairwise distinct.

use sysplex_core::cache::{BlockName, CacheParams, WriteKind};
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{DisconnectMode, LockMode, LockParams};
use sysplex_core::trace::TraceEvent;
use sysplex_core::{CacheConnection, CfConfig, CouplingFacility, LockConnection, SystemId, Tracer};
use sysplex_harness::coverage::{branch, BRANCH_RESERVED};
use sysplex_harness::oracle::{check_lock_structure, check_rings, check_trace, OracleConfig};
use sysplex_harness::{CoverageMap, Violation};

const ORACLE_BRANCHES: [(&str, usize); 6] = [
    ("LockExclusivity", branch::LOCK_EXCLUSIVITY),
    ("StaleRead", branch::STALE_READ),
    ("DuplicateClaim", branch::DUPLICATE_CLAIM),
    ("UnclaimedEntry", branch::UNCLAIMED_ENTRY),
    ("RingAccounting", branch::RING_ACCOUNTING),
    ("OrphanLockRecord", branch::ORPHAN_LOCK_RECORD),
];

/// Which of the six oracle-branch bits a violation list lights.
fn lit(violations: &[Violation]) -> Vec<&'static str> {
    assert!(!violations.is_empty(), "known-bad run must convict");
    let mut map = CoverageMap::new();
    map.add_violations(violations);
    ORACLE_BRANCHES.iter().filter(|(_, bit)| map.get(*bit)).map(|(name, _)| *name).collect()
}

fn cf() -> std::sync::Arc<CouplingFacility> {
    let cf = CouplingFacility::new(CfConfig::named("CFCOV"));
    cf.tracer().enable();
    cf
}

#[test]
fn oracle_branch_bits_are_distinct_and_reserved() {
    for (i, (name_a, bit_a)) in ORACLE_BRANCHES.iter().enumerate() {
        assert!(*bit_a < BRANCH_RESERVED, "{name_a} bit must live in the reserved branch range");
        for (name_b, bit_b) in &ORACLE_BRANCHES[i + 1..] {
            assert_ne!(bit_a, bit_b, "{name_a} and {name_b} collide");
        }
    }
}

#[test]
fn force_grant_lights_only_lock_exclusivity() {
    let cf = cf();
    let lock = cf.allocate_lock_structure("LOCK1", LockParams::with_entries(64)).unwrap();
    let a = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(0))).unwrap();
    let b = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(1))).unwrap();
    a.request_lock(5, LockMode::Exclusive).unwrap();
    lock.arm_force_grant();
    b.request_lock(5, LockMode::Exclusive).unwrap();

    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert_eq!(lit(&violations), ["LockExclusivity"]);
}

#[test]
fn lost_xi_lights_only_stale_read() {
    let cf = cf();
    let cache = cf.allocate_cache_structure("CACHE1", CacheParams::store_in(64)).unwrap();
    let writer = CacheConnection::attach(&cache, cf.subchannel().with_system(SystemId(0)), 16).unwrap();
    let reader = CacheConnection::attach(&cache, cf.subchannel().with_system(SystemId(1)), 16).unwrap();
    let name = BlockName::from_bytes(b"BLK1");
    writer.write_invalidate(name, b"v1", WriteKind::CleanData).unwrap();
    reader.register_read(name, 3).unwrap();
    cache.arm_lose_xi();
    writer.write_invalidate(name, b"v2", WriteKind::CleanData).unwrap();
    // The stale fast-path read is what the oracle convicts.
    assert!(reader.is_valid_block(3, name), "hook should have kept the bit set");

    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert_eq!(lit(&violations), ["StaleRead"]);
}

#[test]
fn raw_move_double_claim_lights_only_duplicate_claim() {
    use sysplex_core::list::{DequeueEnd, ListParams, LockCondition, WritePosition};
    use sysplex_core::ListConnection;

    let cf = cf();
    let list = cf.allocate_list_structure("LIST1", ListParams::with_headers(4)).unwrap();
    let conn = ListConnection::attach(&list, cf.subchannel().with_system(SystemId(0)), 8).unwrap();
    let id = conn.enqueue(0, 1, b"work", WritePosition::Tail, LockCondition::None).unwrap();
    conn.claim_first(0, 1, DequeueEnd::Head, WritePosition::Tail, LockCondition::None).unwrap();
    conn.move_to(id, 0, WritePosition::Tail, LockCondition::None).unwrap();
    conn.claim_first(0, 1, DequeueEnd::Head, WritePosition::Tail, LockCondition::None).unwrap();

    let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
    assert_eq!(lit(&violations), ["DuplicateClaim"]);
}

#[test]
fn undrained_entry_lights_only_unclaimed_entry() {
    use sysplex_core::list::{ListParams, LockCondition, WritePosition};
    use sysplex_core::ListConnection;

    let cf = cf();
    let list = cf.allocate_list_structure("LIST2", ListParams::with_headers(4)).unwrap();
    let conn = ListConnection::attach(&list, cf.subchannel().with_system(SystemId(0)), 8).unwrap();
    conn.enqueue(0, 1, b"orphan", WritePosition::Tail, LockCondition::None).unwrap();

    let config = OracleConfig { ready_header: 0, expect_drained: true };
    let violations = check_trace(&cf.tracer().snapshot_all(), config);
    assert_eq!(lit(&violations), ["UnclaimedEntry"]);
}

#[test]
fn poisoned_slot_lights_only_ring_accounting() {
    let tracer = Tracer::new();
    tracer.enable();
    for i in 0..5u64 {
        tracer.emit(2, 1, TraceEvent::ListEnqueue { header: 0, entry: i + 1 });
    }
    tracer.poison_slot(2, 1);
    assert_eq!(lit(&check_rings(&tracer)), ["RingAccounting"]);
}

#[test]
fn leaky_recovery_lights_only_orphan_lock_record() {
    let cf = cf();
    let lock = cf.allocate_lock_structure("LOCK2", LockParams::with_entries(64)).unwrap();
    let survivor = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(0))).unwrap();
    let victim = LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(1))).unwrap();
    let entry = victim.hash_resource(b"RES1");
    victim.request_lock(entry, LockMode::Exclusive).unwrap();
    victim.write_lock_record_set(&[(ResourceName::new(b"RES1"), LockMode::Exclusive, b"txn")]).unwrap();
    victim.detach(DisconnectMode::Abnormal).unwrap();
    lock.arm_leaky_recovery();
    survivor.recovery_complete_for(victim.conn_id()).unwrap();

    assert_eq!(lit(&check_lock_structure(&lock)), ["OrphanLockRecord"]);
}
