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
//!    survivor restores the before-image when the update had reached
//!    shared storage and re-externalises the page, with the version-checked
//!    rewrite a commit uses (`BufferManager::update_pages`). No lock is
//!    taken: the dead member's retained record locks keep the record
//!    still, and a peer's concurrent write of another record on the page
//!    makes the rewrite read and merge again.
//! 4. The dead member's log is discarded (its epoch bumped), so what has
//!    been backed out is never backed out again.
//! 5. The dead connector's retained locks and records are released; the
//!    group buffer's orphaned changed pages are cast out by the survivor.
//!
//! From the outside, data the failed system was *not* touching stayed
//! available throughout; data it was touching becomes available the moment
//! backout completes.

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::log::{LogManager, LogRecord};
use std::sync::Arc;
use sysplex_core::cache::CacheStructure;
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

    // 3. Back out in-flight updates, newest first.
    let mut undone = 0;
    let mut backed_out: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for rec in records.iter().rev() {
        let LogRecord::Update { txn, page, key, before, after, .. } = rec else { continue };
        if !inflight.contains(txn) {
            continue;
        }
        backed_out.insert(*txn);
        // An update that never reached shared storage (a crash before
        // externalisation) has nothing to undo. The last edit is the one
        // written.
        let mut reached = false;
        survivor.buffers().update_pages(&[*page], |_, image| {
            reached = image.get(*key) == after.as_deref();
            if reached {
                image.write(*key, before.as_deref());
            }
            reached
        })?;
        undone += usize::from(reached);
    }

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
