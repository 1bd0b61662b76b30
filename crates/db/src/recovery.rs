//! Peer recovery — §2.5's continuous-availability mechanics.
//!
//! "Peer instances of a failing subsystem(s) executing on remaining
//! healthy systems can take over recovery responsibility for resources
//! held by the failing instance." Concretely, when a system dies
//! mid-transaction:
//!
//! 1. Its lock-structure connector is marked **failed persistent**: every
//!    lock it held keeps blocking normal traffic, so nobody can see
//!    uncommitted data.
//! 2. A surviving system reads the dead member's log from shared DASD and
//!    splits its transactions into committed / aborted / in-flight.
//! 3. In-flight updates are **backed out** in reverse order: for each, the
//!    survivor takes the page P-lock *overriding only the dead member's
//!    retained interest* (it acts on the dead member's behalf), restores
//!    the before-image when the update had reached shared storage, and
//!    re-externalises the page.
//! 4. The dead member's log is discarded (its epoch bumped), so what has
//!    been backed out is never backed out again.
//! 5. The dead connector's retained locks and records are released; the
//!    group buffer's orphaned changed pages are cast out by the survivor.
//!
//! From the outside, data the failed system was *not* touching stayed
//! available throughout; data it was touching becomes available the moment
//! backout completes.

use crate::database::{page_resource, Database};
use crate::error::{DbError, DbResult};
use crate::log::{LogManager, LogRecord};
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::cache::CacheStructure;
use sysplex_core::lock::LockMode;
use sysplex_core::{CfError, ConnId};
use sysplex_dasd::farm::DasdFarm;

/// What peer recovery accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// In-flight transactions backed out.
    pub backed_out_txns: usize,
    /// Record updates undone (those that had reached shared storage).
    pub undone_updates: usize,
    /// Retained locks released at completion.
    pub retained_released: usize,
    /// Orphaned changed pages cast out to DASD.
    pub pages_cast_out: usize,
}

/// Identity of a failed member, as the recovery coordinator needs it.
#[derive(Debug, Clone)]
pub struct FailedMember {
    /// The dead member's lock-structure connector.
    pub lock_conn: ConnId,
    /// The dead member's cache-structure connector.
    pub cache_conn: ConnId,
    /// The dead member's log volume.
    pub log_volume: String,
}

/// How long a backout waits for a page P-lock before recovery gives up:
/// the deadlock breaker of the recovery "transaction".
const BACKOUT_WAIT: Duration = Duration::from_secs(10);

/// Run peer recovery for `failed` on the `survivor` instance.
pub fn recover_peer(
    survivor: &Database,
    farm: &Arc<DasdFarm>,
    cache: &Arc<CacheStructure>,
    failed: &FailedMember,
) -> DbResult<RecoveryReport> {
    let irlm = survivor.irlm();

    // 1. Freeze the dead member's footprint (idempotent: the coordinator
    //    may run after a partial earlier attempt).
    match irlm.mark_peer_failed(failed.lock_conn) {
        Ok(()) | Err(DbError::Cf(CfError::BadConnector)) => {}
        Err(e) => return Err(e),
    }
    match cache.disconnect_by_id(failed.cache_conn) {
        Ok(()) | Err(CfError::BadConnector) => {}
        Err(e) => return Err(e.into()),
    }

    // 2. Read and analyze the dead member's log.
    let records = LogManager::read_log(survivor.system().0, farm, &failed.log_volume)?;
    let (_committed, _aborted, inflight) = LogManager::analyze(&records);

    // 3. Back out in-flight updates, newest first. The lock owner is a
    //    fresh TOD, not a `begin()`: recovery is not one of the survivor's
    //    transactions and must not hold its checkpoint gate shut.
    let rtxn = survivor.timer().tod().0;
    let mut undone = 0;
    let mut backed_out: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for rec in records.iter().rev() {
        let LogRecord::Update { txn, page, key, before, after, .. } = rec else { continue };
        if !inflight.contains(txn) {
            continue;
        }
        backed_out.insert(*txn);
        let plock = page_resource(survivor.store().db_id(), *page);
        irlm.lock_wait(rtxn, &plock, LockMode::Exclusive, false, Some(failed.lock_conn), BACKOUT_WAIT)?;
        let result = (|| -> DbResult<bool> {
            let mut image = survivor.buffers().get_page(*page)?;
            if image.get(*key) != after.as_deref() {
                // The update never reached shared storage (crash before
                // externalisation): nothing to undo.
                return Ok(false);
            }
            image.write(*key, before.as_deref());
            survivor.buffers().put_page(*page, &image)?;
            Ok(true)
        })();
        irlm.unlock(rtxn, &plock)?;
        if result? {
            undone += 1;
        }
    }
    irlm.unlock_all(rtxn)?;

    // 4. The log has been backed out: discard it, so that a second failure
    //    of the same member (or of this recovery, re-run) finds nothing to
    //    back out a second time. It must precede the release: once the
    //    retained locks are gone a peer may commit the very values this log
    //    calls uncommitted. Interrupted before the discard, a re-run backs
    //    out again (idempotent: only an update still in place is undone);
    //    interrupted after it, a re-run reads an empty log and releases.
    LogManager::discard_log(survivor.system().0, farm, &failed.log_volume)?;

    // 5. Release the retained locks and drain orphaned changed pages.
    let retained = irlm.retained_locks_of(failed.lock_conn)?.len();
    irlm.complete_peer_recovery(failed.lock_conn)?;
    let pages_cast_out = survivor.buffers().castout(usize::MAX >> 1)?;

    Ok(RecoveryReport {
        backed_out_txns: backed_out.len(),
        undone_updates: undone,
        retained_released: retained,
        pages_cast_out,
    })
}
