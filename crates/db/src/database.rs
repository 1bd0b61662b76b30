//! The transactional record interface — Figure 2 made executable.
//!
//! One [`Database`] instance runs per system; all instances share the page
//! store (DASD), the group buffer (CF cache structure) and the global lock
//! space (CF lock structure via the IRLM). The protocol per transaction:
//!
//! * **Read** — take a Shared record *L-lock*, then read the page through
//!   the coherent buffer pool. No P-lock: the page image is fetched
//!   atomically and the locked record cannot change under us.
//! * **Write** — take an Exclusive, *persistent* L-lock (recorded in CF
//!   record data for recoverability), capture the before-image, and stage
//!   the change in the transaction's private workspace.
//! * **Commit** — force the undo/redo log (WAL) and write the lock records
//!   the transaction still owes, then externalise the touched pages under
//!   short page *P-locks* (read-merge-write against concurrent updates of
//!   *other* records on the same page, exactly DB2's data-sharing page
//!   physical locks) in one CF write, force the commit record, release all
//!   locks.
//! * **Abort** — discard the workspace and release locks; nothing was
//!   externalised, so no undo is needed. Undo *is* needed when a whole
//!   system dies mid-commit — that is [`crate::recovery`]'s job, using the
//!   log and the CF's retained locks.
//!
//! The last transaction to end on a member truncates its log (no I/O, see
//! [`LogManager::checkpoint_if`]), so the log holds only the records of
//! work in flight and of transactions that overlapped it.

use crate::bufmgr::BufferManager;
use crate::error::{DbError, DbResult};
use crate::irlm::Irlm;
use crate::log::{LogManager, LogRecord};
use crate::pagestore::PageStore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::lock::LockMode;
use sysplex_core::stats::Counter;
use sysplex_core::SystemId;
use sysplex_services::timer::{SysplexTimer, Tod};

/// Per-database tuning.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// The longest any one lock wait lasts: what ends waits on holders that
    /// are silent, gone or failed-persistent. Upgrades are ordered without
    /// it (see [`Irlm::lock_wait`]).
    pub lock_timeout: Duration,
    /// Local buffer pool frames.
    pub buffer_frames: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig { lock_timeout: Duration::from_secs(5), buffer_frames: 256 }
    }
}

/// Counters published by a database instance.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Record reads.
    pub reads: Counter,
    /// Record writes (staged).
    pub writes: Counter,
    /// Commits.
    pub commits: Counter,
    /// Aborts.
    pub aborts: Counter,
}

#[derive(Debug, Clone)]
struct StagedWrite {
    page: u64,
    before: Option<Vec<u8>>,
    after: Option<Vec<u8>>,
}

/// An open transaction. Obtain with [`Database::begin`]; must end with
/// [`Database::commit`] or [`Database::abort`].
#[derive(Debug)]
pub struct Txn {
    id: u64,
    complete: bool,
    /// key -> staged change (latest wins; before-image from first touch).
    /// In key order, so commit logs update records — and draws their LSNs —
    /// in the same order on every run.
    writes: BTreeMap<u64, StagedWrite>,
}

impl Txn {
    /// The transaction id (a sysplex-unique TOD).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-system database manager over the shared data.
pub struct Database {
    system: SystemId,
    irlm: Arc<Irlm>,
    buf: BufferManager,
    log: LogManager,
    store: Arc<PageStore>,
    timer: Arc<SysplexTimer>,
    config: DbConfig,
    /// Transactions begun but not yet committed/aborted (the log's
    /// truncation gate).
    active_txns: AtomicU64,
    /// Published counters.
    pub stats: DbStats,
}

/// Fill `out` with the zero-padded lower-case hex of `v` (`{v:0Nx}` for
/// `N = out.len()`).
fn hex_into(out: &mut [u8], mut v: u64) {
    for b in out.iter_mut().rev() {
        *b = b"0123456789abcdef"[(v & 0xf) as usize];
        v >>= 4;
    }
}

// Lock-name helpers shared with recovery. Names are built on the stack —
// the lock manager copies what it keeps.

/// `ROW.{key:016x}`
pub(crate) fn row_resource(key: u64) -> [u8; 20] {
    let mut name = *b"ROW.0000000000000000";
    hex_into(&mut name[4..], key);
    name
}

/// `PAGE.{db_id:08x}.{page:016x}`
pub(crate) fn page_resource(db_id: u32, page: u64) -> [u8; 30] {
    let mut name = *b"PAGE.00000000.0000000000000000";
    hex_into(&mut name[5..13], db_id as u64);
    hex_into(&mut name[14..], page);
    name
}

/// Parse a ROW lock resource back to its key (recovery/diagnostic tooling
/// inspecting retained locks).
pub fn key_of_row_resource(resource: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(resource).ok()?;
    let hex = s.strip_prefix("ROW.")?;
    u64::from_str_radix(hex, 16).ok()
}

impl Database {
    /// Assemble a database instance on `system`.
    pub fn new(
        system: SystemId,
        irlm: Arc<Irlm>,
        buf: BufferManager,
        log: LogManager,
        store: Arc<PageStore>,
        timer: Arc<SysplexTimer>,
        config: DbConfig,
    ) -> Self {
        Database {
            system,
            irlm,
            buf,
            log,
            store,
            timer,
            config,
            active_txns: AtomicU64::new(0),
            stats: DbStats::default(),
        }
    }

    /// The system this instance runs on.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// The lock manager (shared with recovery).
    pub fn irlm(&self) -> &Arc<Irlm> {
        &self.irlm
    }

    /// The buffer manager (castout sweeps, stats).
    pub fn buffers(&self) -> &BufferManager {
        &self.buf
    }

    /// The page store.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The Sysplex Timer clocking this member (wall or virtual).
    pub fn timer(&self) -> Arc<SysplexTimer> {
        Arc::clone(&self.timer)
    }

    /// The log manager (diagnostics).
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Begin a transaction. The id is a sysplex-unique TOD, so ids are
    /// globally ordered without coordination.
    pub fn begin(&self) -> Txn {
        self.active_txns.fetch_add(1, Ordering::AcqRel);
        Txn { id: self.timer.tod().0, complete: false, writes: BTreeMap::new() }
    }

    /// Transactions currently in flight on this member.
    pub fn active_transactions(&self) -> u64 {
        self.active_txns.load(Ordering::Acquire)
    }

    /// Count a transaction's end. The last one out truncates the log:
    /// everything in it then belongs to completed transactions, which never
    /// need backout. The log checks idleness again under its latch, so a
    /// transaction that begins meanwhile appends into the new cycle.
    fn end(&self) {
        if self.active_txns.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.log.checkpoint_if(|| self.active_txns.load(Ordering::Acquire) == 0);
        }
    }

    /// Wait for `mode` on `resource` up to the configured lock timeout.
    fn lock_wait(&self, txn: u64, resource: &[u8], mode: LockMode, persistent: bool) -> DbResult<()> {
        self.irlm.lock_wait(txn, resource, mode, persistent, None, self.config.lock_timeout)
    }

    fn check_open(txn: &Txn) -> DbResult<()> {
        if txn.complete {
            Err(DbError::TxnComplete)
        } else {
            Ok(())
        }
    }

    /// Read a record under a Shared lock (repeatable read: the lock is
    /// held to commit).
    pub fn read(&self, txn: &mut Txn, key: u64) -> DbResult<Option<Vec<u8>>> {
        Self::check_open(txn)?;
        self.stats.reads.incr();
        // Read-your-writes.
        if let Some(w) = txn.writes.get(&key) {
            return Ok(w.after.clone());
        }
        self.lock_wait(txn.id, &row_resource(key), LockMode::Shared, false)?;
        let page = self.buf.get_page(self.store.page_of(key))?;
        Ok(page.get(key).map(|v| v.to_vec()))
    }

    /// Stage a record write (`None` deletes) under an Exclusive persistent
    /// lock. Nothing is externalised until commit.
    pub fn write(&self, txn: &mut Txn, key: u64, value: Option<&[u8]>) -> DbResult<()> {
        Self::check_open(txn)?;
        self.stats.writes.incr();
        self.lock_wait(txn.id, &row_resource(key), LockMode::Exclusive, true)?;
        let after = value.map(|v| v.to_vec());
        if let Some(w) = txn.writes.get_mut(&key) {
            w.after = after; // keep the original before-image
            return Ok(());
        }
        // First touch: capture the committed before-image (stable — we hold
        // the exclusive record lock).
        let page_no = self.store.page_of(key);
        let page = self.buf.get_page(page_no)?;
        let before = page.get(key).map(|v| v.to_vec());
        txn.writes.insert(key, StagedWrite { page: page_no, before, after });
        Ok(())
    }

    /// Commit: WAL force, externalise pages under P-locks, commit record,
    /// release locks.
    ///
    /// A failure before the commit record is durable (e.g. a P-lock timeout
    /// under heavy contention) backs out whatever was already externalised
    /// — the held L-locks make that safe — logs an Abort, and releases
    /// everything; the error is then surfaced. Once the commit record is
    /// forced the transaction *is* committed: an error releasing its locks
    /// is surfaced too, but nothing is undone.
    pub fn commit(&self, txn: &mut Txn) -> DbResult<()> {
        Self::check_open(txn)?;
        txn.complete = true;
        let result = match self.commit_inner(txn) {
            Ok(()) => {
                self.stats.commits.incr();
                self.irlm.unlock_all(txn.id)
            }
            Err(e) => {
                self.backout_externalised(txn);
                self.log.append(LogRecord::Abort { lsn: self.timer.tod(), txn: txn.id });
                let _ = self.log.force();
                let _ = self.irlm.unlock_all(txn.id);
                self.stats.aborts.incr();
                Err(e)
            }
        };
        self.end();
        result
    }

    /// Everything up to and including the durable commit record; the
    /// caller releases the locks.
    fn commit_inner(&self, txn: &mut Txn) -> DbResult<()> {
        if txn.writes.is_empty() {
            return Ok(());
        }
        // One clock reading for the commit's LSNs: its update records', in
        // key order, then its commit record's.
        let lsn = self.timer.tod_block(txn.writes.len() as u64 + 1).0;
        // 1. Undo/redo records become durable before any page change
        //    reaches shared storage (WAL).
        for (i, (key, w)) in txn.writes.iter().enumerate() {
            self.log.append_update(
                Tod(lsn + i as u64),
                txn.id,
                w.page,
                *key,
                w.before.as_deref(),
                w.after.as_deref(),
            );
        }
        self.log.force()?;
        // 2. So do the lock records the transaction's grants still owe: a
        //    record exists before anything it protects reaches shared
        //    storage.
        self.irlm.write_records(txn.id)?;
        // 3. Externalise: take every touched page's P-lock in ascending
        //    page order (no P-lock deadlocks between committers), merge each
        //    page with concurrent changes to other records on it, and write
        //    them all in one command; then release the P-locks together.
        let mut by_page: Vec<(u64, u64, &StagedWrite)> =
            txn.writes.iter().map(|(key, w)| (w.page, *key, w)).collect();
        by_page.sort_unstable_by_key(|&(page, key, _)| (page, key));
        let mut plocks = Vec::new();
        let result = (|| -> DbResult<()> {
            let mut pages = Vec::new();
            for writes in by_page.chunk_by(|a, b| a.0 == b.0) {
                let page_no = writes[0].0;
                let plock = page_resource(self.store.db_id(), page_no);
                self.lock_wait(txn.id, &plock, LockMode::Exclusive, false)?;
                plocks.push(plock);
                let mut page = self.buf.get_page(page_no)?;
                for &(_, key, w) in writes {
                    page.write(key, w.after.as_deref());
                }
                pages.push((page_no, page));
            }
            self.buf.put_pages(&pages)
        })();
        self.irlm.unlock_set(txn.id, &plocks)?;
        result?;
        // 4. Commit record durable.
        self.log.append(LogRecord::Commit { lsn: Tod(lsn + txn.writes.len() as u64), txn: txn.id });
        self.log.force()?;
        Ok(())
    }

    /// Best-effort in-place undo of staged writes that reached shared
    /// storage (commit-failure path; the L-locks are still held, so the
    /// record values cannot have moved under us).
    fn backout_externalised(&self, txn: &Txn) {
        for (key, w) in &txn.writes {
            let plock = page_resource(self.store.db_id(), w.page);
            if self.lock_wait(txn.id, &plock, LockMode::Exclusive, false).is_err() {
                continue;
            }
            let _ = (|| -> DbResult<()> {
                let mut page = self.buf.get_page(w.page)?;
                if page.get(*key) == w.after.as_deref() {
                    page.write(*key, w.before.as_deref());
                    self.buf.put_page(w.page, &page)?;
                }
                Ok(())
            })();
            let _ = self.irlm.unlock(txn.id, &plock);
        }
    }

    /// Abort: nothing was externalised, so just drop the workspace and the
    /// locks (logging the abort for the record). The locks go and the
    /// transaction ends whatever the force did; the first error is
    /// surfaced.
    pub fn abort(&self, txn: &mut Txn) -> DbResult<()> {
        Self::check_open(txn)?;
        txn.complete = true;
        let forced = if txn.writes.is_empty() {
            Ok(())
        } else {
            self.log.append(LogRecord::Abort { lsn: self.timer.tod(), txn: txn.id });
            self.log.force().map(drop)
        };
        txn.writes.clear();
        let unlocked = self.irlm.unlock_all(txn.id);
        self.stats.aborts.incr();
        self.end();
        forced.and(unlocked)
    }

    /// Convenience: run `f` in a transaction, retrying up to `retries`
    /// times when a lock wait times out or the transaction is a deadlock
    /// victim. Either aborts and runs `f` again at once, in a new
    /// transaction. A victim's retry first takes the resource it lost in
    /// Exclusive, holding nothing else, so it queues behind the older
    /// transaction's commit instead of taking the resource Shared again
    /// ahead of it (a later [`Database::write`] of it is a local grant that
    /// makes the hold persistent).
    pub fn run<R>(
        &self,
        retries: usize,
        mut f: impl FnMut(&Database, &mut Txn) -> DbResult<R>,
    ) -> DbResult<R> {
        let (mut retried, mut lost) = (0, None::<Vec<u8>>);
        loop {
            let mut txn = self.begin();
            let first =
                lost.as_deref().map_or(Ok(()), |r| self.lock_wait(txn.id, r, LockMode::Exclusive, false));
            let result =
                first.and_then(|()| f(self, &mut txn)).and_then(|r| self.commit(&mut txn).map(|_| r));
            let Err(e) = result else { return result };
            if !txn.complete {
                let _ = self.abort(&mut txn);
            }
            match &e {
                DbError::DeadlockVictim { resource, .. } => lost = Some(resource.clone()),
                DbError::LockTimeout { .. } => {}
                _ => return Err(e),
            }
            if retried == retries {
                return Err(e);
            }
            retried += 1;
        }
    }

    /// Orderly shutdown of this instance (planned removal).
    pub fn shutdown(&self) {
        self.buf.detach();
        self.irlm.shutdown();
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("system", &self.system).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_names_roundtrip() {
        assert_eq!(key_of_row_resource(&row_resource(42)), Some(42));
        assert_eq!(key_of_row_resource(&row_resource(u64::MAX)), Some(u64::MAX));
        assert_eq!(key_of_row_resource(b"PAGE.x"), None);
        assert_eq!(key_of_row_resource(b"ROW.zz"), None);
        assert_ne!(page_resource(1, 2), page_resource(1, 3));
        // Byte for byte what `format!` produced: hash classes, traces and
        // seeded runs depend on the names.
        for key in [0, 1, 42, 0xdead_beef, u64::MAX] {
            assert_eq!(&row_resource(key)[..], format!("ROW.{key:016x}").as_bytes());
            assert_eq!(&page_resource(7, key)[..], format!("PAGE.{:08x}.{key:016x}", 7).as_bytes());
        }
        assert_eq!(&page_resource(u32::MAX, 3)[..], format!("PAGE.{:08x}.{:016x}", u32::MAX, 3).as_bytes());
    }
}
