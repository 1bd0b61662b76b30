//! Trace oracle: machine-verifiable invariants over merged trace streams.
//!
//! The oracle replays the causally-ordered merge of every system's trace
//! ring ([`Tracer::snapshot_all`]) and checks five invariants that the
//! paper's correctness story rests on:
//!
//! 1. **Lock exclusivity** — between grant and release, an exclusive
//!    lock-table entry has exactly one holder ([`Violation::LockExclusivity`]).
//! 2. **No stale fast-path reads** — after a block's cross-invalidate, no
//!    system sees its local validity bit as valid without re-registering
//!    ([`Violation::StaleRead`]).
//! 3. **Exactly-once claiming** — a list entry leaves the ready header at
//!    most once, and (for drained campaigns) every enqueued entry is
//!    eventually claimed ([`Violation::DuplicateClaim`], [`Violation::UnclaimedEntry`]).
//! 4. **Ring accounting** — each ring's `retained == emitted - dropped`
//!    and its snapshot decodes exactly `retained` records
//!    ([`Violation::RingAccounting`]).
//! 5. **Recovery completeness** — every persistent lock record belongs to
//!    a connector that is attached or failed-persistent awaiting recovery;
//!    completed recoveries leak nothing ([`Violation::OrphanLockRecord`]).
//!
//! The trace checks read the merge in `seq` order. Invariant 1 holds for
//! concurrent runs too: a grant is traced after the structure grants and
//! a release before it lets go, so a traced hold lies inside the real one
//! and two threads' traced holds overlap only if the real ones did.
//! Invariant 2 still assumes a single driver thread (or a quiesced run):
//! a `LocalVectorCheck` is traced after its bit test, so a cross-invalidate
//! on another thread can be traced between the test and its record.

use std::collections::HashMap;
use sysplex_core::lock::LockStructure;
use sysplex_core::trace::{TraceEvent, TraceRecord, Tracer};

/// One invariant violation, with enough context to debug from the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Invariant 1: an incompatible lock grant while the entry was held.
    LockExclusivity {
        /// Interned structure id.
        structure: u32,
        /// Lock-table entry.
        entry: u64,
        /// Connector already holding the entry.
        holder: u8,
        /// Connector that was (wrongly) granted.
        granted: u8,
        /// Sequence number of the offending grant.
        seq: u64,
    },
    /// Invariant 2: a fast-path read of a block after its cross-invalidate
    /// with no re-registration in between.
    StaleRead {
        /// System that read stale data.
        system: u8,
        /// Block-name digest.
        block: u64,
        /// Sequence number of the stale local-vector check.
        seq: u64,
    },
    /// Invariant 3: a ready-header entry claimed twice.
    DuplicateClaim {
        /// Entry id.
        entry: u64,
        /// Sequence number of the first claim.
        first_seq: u64,
        /// Sequence number of the duplicate claim.
        second_seq: u64,
    },
    /// Invariant 3 (drained campaigns): an enqueued entry never claimed.
    UnclaimedEntry {
        /// Entry id.
        entry: u64,
        /// Sequence number of the enqueue.
        enqueue_seq: u64,
    },
    /// Invariant 4: a trace ring's books don't balance.
    RingAccounting {
        /// System id of the ring.
        system: u8,
        /// `emitted - dropped` per the counters.
        retained: u64,
        /// Records actually decodable from the ring.
        snapshot_len: u64,
    },
    /// Invariant 5: a persistent lock record owned by a connector that is
    /// neither attached nor awaiting recovery.
    OrphanLockRecord {
        /// Resource name bytes.
        resource: Vec<u8>,
        /// Raw connector id owning the orphan.
        conn: u8,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::LockExclusivity { structure, entry, holder, granted, seq } => write!(
                f,
                "lock exclusivity: entry {entry} of structure {structure} granted to conn {granted} \
                 while held by conn {holder} (seq {seq})"
            ),
            Violation::StaleRead { system, block, seq } => write!(
                f,
                "stale read: system {system} saw block {block:#x} locally valid after its \
                 cross-invalidate (seq {seq})"
            ),
            Violation::DuplicateClaim { entry, first_seq, second_seq } => write!(
                f,
                "duplicate claim: list entry {entry} claimed at seq {first_seq} and again at seq \
                 {second_seq}"
            ),
            Violation::UnclaimedEntry { entry, enqueue_seq } => {
                write!(f, "unclaimed entry: list entry {entry} (enqueued at seq {enqueue_seq}) never claimed")
            }
            Violation::RingAccounting { system, retained, snapshot_len } => write!(
                f,
                "ring accounting: system {system} retained counter says {retained} but snapshot \
                 decodes {snapshot_len} records"
            ),
            Violation::OrphanLockRecord { resource, conn } => write!(
                f,
                "orphan lock record: resource {resource:02x?} owned by conn {conn}, which is neither \
                 active nor failed-persistent"
            ),
        }
    }
}

/// How the trace checks interpret list traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleConfig {
    /// The list header that holds ready (unclaimed) work. Claims from any
    /// other header are recovery requeues and reset the claim state.
    pub ready_header: u64,
    /// When true, every entry enqueued on the ready header must have been
    /// claimed by the end of the trace (the campaign drained its queues).
    pub expect_drained: bool,
}

/// Run invariants 1-3 over a causally-ordered record stream.
pub fn check_trace(records: &[TraceRecord], config: OracleConfig) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_lock_exclusivity(records, &mut violations);
    check_no_stale_reads(records, &mut violations);
    check_claim_once(records, config, &mut violations);
    violations
}

/// Invariant 1. Holder sets are reconstructed from grant/release events
/// only, so untraced interest (recovery override, rebuild repopulation)
/// makes the check lenient, never false-positive.
fn check_lock_exclusivity(records: &[TraceRecord], out: &mut Vec<Violation>) {
    // (structure, entry) -> conn -> holds exclusively
    let mut held: HashMap<(u32, u64), HashMap<u8, bool>> = HashMap::new();
    for r in records {
        match r.event {
            // A local re-grant is a grant for exclusivity purposes: the
            // IRLM served it from cached sole CF interest, so it claims
            // exactly what a CF-synchronous grant claims and must be held
            // to the same invariant.
            TraceEvent::LockGrant { entry, conn, exclusive }
            | TraceEvent::LockLocalRegrant { entry, conn, exclusive } => {
                let holders = held.entry((r.structure, entry)).or_default();
                let conflict =
                    holders.iter().find(|(c, ex)| **c != conn && (exclusive || **ex)).map(|(c, _)| *c);
                if let Some(holder) = conflict {
                    out.push(Violation::LockExclusivity {
                        structure: r.structure,
                        entry,
                        holder,
                        granted: conn,
                        seq: r.seq,
                    });
                }
                holders.insert(conn, exclusive);
            }
            TraceEvent::LockRelease { entry: u64::MAX, conn } => {
                // Release-all: normal detach or recovery completion.
                for ((s, _), holders) in held.iter_mut() {
                    if *s == r.structure {
                        holders.remove(&conn);
                    }
                }
            }
            TraceEvent::LockRelease { entry, conn } => {
                if let Some(holders) = held.get_mut(&(r.structure, entry)) {
                    holders.remove(&conn);
                }
            }
            _ => {}
        }
    }
}

/// Invariant 2. A cross-invalidate of block B by system W makes B stale
/// for every other system until that system re-registers; a local-vector
/// check that still reports "valid" in the stale window is a violation.
/// Coherency is a per-structure protocol, so all state is keyed by
/// (structure, block): a duplexed secondary's mirror writes invalidate
/// only readers registered on the secondary, not the primary's. Checks
/// with an unknown block digest (0) are skipped.
fn check_no_stale_reads(records: &[TraceRecord], out: &mut Vec<Violation>) {
    // (structure, block) -> (xi seq, writing system)
    let mut last_xi: HashMap<(u32, u64), (u64, u8)> = HashMap::new();
    // (structure, system, block) -> registration seq
    let mut last_reg: HashMap<(u32, u8, u64), u64> = HashMap::new();
    for r in records {
        match r.event {
            TraceEvent::CrossInvalidate { block, .. } => {
                last_xi.insert((r.structure, block), (r.seq, r.system));
            }
            TraceEvent::CacheRegister { block, .. } => {
                last_reg.insert((r.structure, r.system, block), r.seq);
            }
            TraceEvent::LocalVectorCheck { block, valid: true } if block != 0 => {
                if let Some(&(xi_seq, writer)) = last_xi.get(&(r.structure, block)) {
                    let registered_after =
                        last_reg.get(&(r.structure, r.system, block)).is_some_and(|&reg| reg > xi_seq);
                    if writer != r.system && !registered_after {
                        out.push(Violation::StaleRead { system: r.system, block, seq: r.seq });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Invariant 3. Entry ids are never reused, so a ready-header entry may
/// be claimed at most once — unless a recovery requeue (a claim from an
/// in-flight header) put it back first.
fn check_claim_once(records: &[TraceRecord], config: OracleConfig, out: &mut Vec<Violation>) {
    // entry -> seq of its live claim (None = on the ready list)
    let mut claimed: HashMap<u64, Option<u64>> = HashMap::new();
    let mut enqueued: Vec<(u64, u64)> = Vec::new(); // (entry, seq)
    for r in records {
        match r.event {
            TraceEvent::ListEnqueue { header, entry } if header == config.ready_header => {
                enqueued.push((entry, r.seq));
            }
            TraceEvent::ListClaim { header, entry } if entry != 0 => {
                if header == config.ready_header {
                    if let Some(Some(first_seq)) = claimed.insert(entry, Some(r.seq)) {
                        out.push(Violation::DuplicateClaim { entry, first_seq, second_seq: r.seq });
                    }
                } else {
                    // Claim off an in-flight header: a peer requeued the
                    // dead consumer's work back to ready.
                    claimed.insert(entry, None);
                }
            }
            _ => {}
        }
    }
    if config.expect_drained {
        for (entry, enqueue_seq) in enqueued {
            if !matches!(claimed.get(&entry), Some(Some(_))) {
                out.push(Violation::UnclaimedEntry { entry, enqueue_seq });
            }
        }
    }
}

/// Invariant 4: per-ring accounting, checked against live counters. Only
/// meaningful when the sysplex is quiescent (no emitter mid-push).
pub fn check_rings(tracer: &Tracer) -> Vec<Violation> {
    let mut out = Vec::new();
    for system in tracer.active_systems() {
        let retained = tracer.retained(system);
        if retained != tracer.emitted(system) - tracer.dropped(system) {
            out.push(Violation::RingAccounting { system, retained, snapshot_len: u64::MAX });
            continue;
        }
        let snapshot_len = tracer.snapshot(system).len() as u64;
        if snapshot_len != retained {
            out.push(Violation::RingAccounting { system, retained, snapshot_len });
        }
    }
    out
}

/// Invariant 5: persistent record data vs connector state. After every
/// recovery completes, no record may belong to a connector that is
/// neither attached nor failed-persistent.
pub fn check_lock_structure(lock: &LockStructure) -> Vec<Violation> {
    let live = lock.active_mask() | lock.failed_persistent_mask();
    lock.records_snapshot()
        .into_iter()
        .filter(|(_, conn, _)| live & (1u32 << *conn) == 0)
        .map(|(resource, conn, _)| Violation::OrphanLockRecord { resource, conn })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, system: u8, structure: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, tod_us: seq, system, structure, event }
    }

    /// Three threads contend for one entry of a correct lock model, 20
    /// rounds of 200 ms. A release traced after the structure let go
    /// would let a peer's grant land inside the releaser's traced hold,
    /// and invariant 1 would convict the model.
    #[test]
    fn concurrent_contenders_never_convict_a_correct_lock_model() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use sysplex_core::lock::{LockMode, LockParams};
        use sysplex_core::{CfConfig, CouplingFacility, LockConnection, SystemId};

        for round in 0..20 {
            let cf = CouplingFacility::new(CfConfig::named("CFRACE"));
            cf.tracer().enable();
            let lock = cf.allocate_lock_structure("L", LockParams::with_entries(8)).unwrap();
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for system in 0..3 {
                    let conn =
                        LockConnection::attach(&lock, cf.subchannel().with_system(SystemId(system))).unwrap();
                    let stop = &stop;
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            if conn.request_lock(0, LockMode::Exclusive).unwrap().is_granted() {
                                conn.release_lock(0).unwrap();
                            }
                        }
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
                stop.store(true, Ordering::Relaxed);
            });
            let violations = check_trace(&cf.tracer().snapshot_all(), OracleConfig::default());
            assert!(
                violations.is_empty(),
                "round {round}: {} convictions, first {}",
                violations.len(),
                violations[0]
            );
        }
    }

    #[test]
    fn clean_lock_sequence_passes() {
        let records = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 9, conn: 0, exclusive: true }),
            rec(2, 0, 7, TraceEvent::LockRelease { entry: 9, conn: 0 }),
            rec(3, 1, 7, TraceEvent::LockGrant { entry: 9, conn: 1, exclusive: true }),
            rec(4, 1, 7, TraceEvent::LockRelease { entry: u64::MAX, conn: 1 }),
            rec(5, 0, 7, TraceEvent::LockGrant { entry: 9, conn: 0, exclusive: false }),
            rec(6, 1, 7, TraceEvent::LockGrant { entry: 9, conn: 1, exclusive: false }),
        ];
        assert!(check_trace(&records, OracleConfig::default()).is_empty());
    }

    #[test]
    fn double_exclusive_grant_is_flagged() {
        let records = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: true }),
            rec(2, 1, 7, TraceEvent::LockGrant { entry: 3, conn: 1, exclusive: true }),
        ];
        let v = check_trace(&records, OracleConfig::default());
        assert!(matches!(v.as_slice(), [Violation::LockExclusivity { entry: 3, holder: 0, granted: 1, .. }]));
    }

    #[test]
    fn shared_grant_during_exclusive_is_flagged_but_not_vice_versa_after_release() {
        let records = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: true }),
            rec(2, 1, 7, TraceEvent::LockGrant { entry: 3, conn: 1, exclusive: false }),
        ];
        assert_eq!(check_trace(&records, OracleConfig::default()).len(), 1);
    }

    #[test]
    fn local_regrant_is_held_to_the_exclusivity_invariant() {
        // Lazy release retains the hold; a local re-grant by the same
        // conn is clean.
        let good = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: true }),
            rec(2, 0, 7, TraceEvent::LockLazyRelease { entry: 3, conn: 0 }),
            rec(3, 0, 7, TraceEvent::LockLocalRegrant { entry: 3, conn: 0, exclusive: true }),
            rec(4, 0, 7, TraceEvent::LockRelease { entry: 3, conn: 0 }),
        ];
        assert!(check_trace(&good, OracleConfig::default()).is_empty());

        // A re-grant claiming an entry someone else holds exclusively is
        // exactly as damning as a double CF grant.
        let bad = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: true }),
            rec(2, 1, 7, TraceEvent::LockLocalRegrant { entry: 3, conn: 1, exclusive: true }),
        ];
        let v = check_trace(&bad, OracleConfig::default());
        assert!(matches!(v.as_slice(), [Violation::LockExclusivity { holder: 0, granted: 1, .. }]));
    }

    #[test]
    fn same_conn_upgrade_is_not_a_conflict() {
        let records = vec![
            rec(1, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: false }),
            rec(2, 0, 7, TraceEvent::LockGrant { entry: 3, conn: 0, exclusive: true }),
        ];
        assert!(check_trace(&records, OracleConfig::default()).is_empty());
    }

    #[test]
    fn stale_read_detected_and_reregistration_clears_it() {
        let bad = vec![
            rec(1, 1, 5, TraceEvent::CacheRegister { block: 0xAA, hit: true }),
            rec(2, 0, 5, TraceEvent::CrossInvalidate { block: 0xAA, invalidated: 1 }),
            rec(3, 1, 5, TraceEvent::LocalVectorCheck { block: 0xAA, valid: true }),
        ];
        let v = check_trace(&bad, OracleConfig::default());
        assert!(matches!(v.as_slice(), [Violation::StaleRead { system: 1, block: 0xAA, .. }]));

        let good = vec![
            rec(1, 1, 5, TraceEvent::CacheRegister { block: 0xAA, hit: true }),
            rec(2, 0, 5, TraceEvent::CrossInvalidate { block: 0xAA, invalidated: 1 }),
            rec(3, 1, 5, TraceEvent::CacheRegister { block: 0xAA, hit: true }),
            rec(4, 1, 5, TraceEvent::LocalVectorCheck { block: 0xAA, valid: true }),
        ];
        assert!(check_trace(&good, OracleConfig::default()).is_empty());
    }

    #[test]
    fn writers_own_check_is_not_stale() {
        let records = vec![
            rec(1, 0, 5, TraceEvent::CrossInvalidate { block: 0xBB, invalidated: 0 }),
            rec(2, 0, 5, TraceEvent::LocalVectorCheck { block: 0xBB, valid: true }),
        ];
        assert!(check_trace(&records, OracleConfig::default()).is_empty());
    }

    #[test]
    fn duplicate_claim_detected_requeue_resets() {
        let cfg = OracleConfig::default();
        let dup = vec![
            rec(1, 0, 2, TraceEvent::ListEnqueue { header: 0, entry: 10 }),
            rec(2, 1, 2, TraceEvent::ListClaim { header: 0, entry: 10 }),
            rec(3, 2, 2, TraceEvent::ListClaim { header: 0, entry: 10 }),
        ];
        let v = check_trace(&dup, cfg);
        assert!(matches!(v.as_slice(), [Violation::DuplicateClaim { entry: 10, .. }]));

        // Requeue from a dead consumer's in-flight header legitimizes a
        // second ready-header claim.
        let requeued = vec![
            rec(1, 0, 2, TraceEvent::ListEnqueue { header: 0, entry: 10 }),
            rec(2, 1, 2, TraceEvent::ListClaim { header: 0, entry: 10 }),
            rec(3, 2, 2, TraceEvent::ListClaim { header: 4, entry: 10 }),
            rec(4, 2, 2, TraceEvent::ListClaim { header: 0, entry: 10 }),
        ];
        assert!(check_trace(&requeued, cfg).is_empty());
    }

    #[test]
    fn drained_campaign_requires_every_entry_claimed() {
        let cfg = OracleConfig { ready_header: 0, expect_drained: true };
        let records = vec![
            rec(1, 0, 2, TraceEvent::ListEnqueue { header: 0, entry: 10 }),
            rec(2, 0, 2, TraceEvent::ListEnqueue { header: 0, entry: 11 }),
            rec(3, 1, 2, TraceEvent::ListClaim { header: 0, entry: 10 }),
        ];
        let v = check_trace(&records, cfg);
        assert!(matches!(v.as_slice(), [Violation::UnclaimedEntry { entry: 11, .. }]));
    }

    #[test]
    fn failed_claims_are_ignored() {
        let records = vec![rec(1, 0, 2, TraceEvent::ListClaim { header: 0, entry: 0 })];
        assert!(check_trace(&records, OracleConfig::default()).is_empty());
    }
}
