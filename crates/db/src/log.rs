//! Per-system write-ahead logs on shared DASD.
//!
//! Every system journals its updates to its own log volume *before*
//! externalising page changes to the group buffer (WAL). Because the log
//! volumes live on the fully-connected DASD farm, any surviving system can
//! read a failed member's log — the mechanism behind §2.5's "peer instances
//! of a failing subsystem ... take over recovery responsibility". Log
//! records carry sysplex-timer TODs, so logs from different systems merge
//! in a consistent global order.

use crate::error::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use sysplex_dasd::farm::DasdFarm;
use sysplex_services::timer::Tod;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A record-level change (undo/redo pair).
    Update {
        /// Sysplex-timer timestamp.
        lsn: Tod,
        /// Owning transaction.
        txn: u64,
        /// Page the record lives on.
        page: u64,
        /// Record key.
        key: u64,
        /// Before image (`None` = record did not exist).
        before: Option<Vec<u8>>,
        /// After image (`None` = record deleted).
        after: Option<Vec<u8>>,
    },
    /// Transaction committed (all its updates are now permanent).
    Commit {
        /// Sysplex-timer timestamp.
        lsn: Tod,
        /// Committing transaction.
        txn: u64,
    },
    /// Transaction rolled back by its own system.
    Abort {
        /// Sysplex-timer timestamp.
        lsn: Tod,
        /// Aborting transaction.
        txn: u64,
    },
}

impl LogRecord {
    /// The record's timestamp.
    pub fn lsn(&self) -> Tod {
        match self {
            LogRecord::Update { lsn, .. } | LogRecord::Commit { lsn, .. } | LogRecord::Abort { lsn, .. } => {
                *lsn
            }
        }
    }

    /// The record's transaction.
    pub fn txn(&self) -> u64 {
        match self {
            LogRecord::Update { txn, .. } | LogRecord::Commit { txn, .. } | LogRecord::Abort { txn, .. } => {
                *txn
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        fn put_opt(out: &mut Vec<u8>, v: &Option<Vec<u8>>) {
            match v {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
                    out.extend_from_slice(b);
                }
            }
        }
        let mut out = Vec::with_capacity(48);
        match self {
            LogRecord::Update { lsn, txn, page, key, before, after } => {
                out.push(1);
                out.extend_from_slice(&lsn.0.to_be_bytes());
                out.extend_from_slice(&txn.to_be_bytes());
                out.extend_from_slice(&page.to_be_bytes());
                out.extend_from_slice(&key.to_be_bytes());
                put_opt(&mut out, before);
                put_opt(&mut out, after);
            }
            LogRecord::Commit { lsn, txn } => {
                out.push(2);
                out.extend_from_slice(&lsn.0.to_be_bytes());
                out.extend_from_slice(&txn.to_be_bytes());
            }
            LogRecord::Abort { lsn, txn } => {
                out.push(3);
                out.extend_from_slice(&lsn.0.to_be_bytes());
                out.extend_from_slice(&txn.to_be_bytes());
            }
        }
        out
    }

    fn decode(data: &[u8]) -> DbResult<Self> {
        fn get_opt(data: &[u8], off: &mut usize) -> DbResult<Option<Vec<u8>>> {
            let flag = *data.get(*off).ok_or(DbError::LogCorrupt)?;
            *off += 1;
            if flag == 0 {
                return Ok(None);
            }
            if data.len() < *off + 4 {
                return Err(DbError::LogCorrupt);
            }
            let len = u32::from_be_bytes(data[*off..*off + 4].try_into().unwrap()) as usize;
            *off += 4;
            if data.len() < *off + len {
                return Err(DbError::LogCorrupt);
            }
            let v = data[*off..*off + len].to_vec();
            *off += len;
            Ok(Some(v))
        }
        fn get_u64(data: &[u8], off: &mut usize) -> DbResult<u64> {
            if data.len() < *off + 8 {
                return Err(DbError::LogCorrupt);
            }
            let v = u64::from_be_bytes(data[*off..*off + 8].try_into().unwrap());
            *off += 8;
            Ok(v)
        }
        let tag = *data.first().ok_or(DbError::LogCorrupt)?;
        let mut off = 1;
        let lsn = Tod(get_u64(data, &mut off)?);
        let txn = get_u64(data, &mut off)?;
        match tag {
            1 => {
                let page = get_u64(data, &mut off)?;
                let key = get_u64(data, &mut off)?;
                let before = get_opt(data, &mut off)?;
                let after = get_opt(data, &mut off)?;
                Ok(LogRecord::Update { lsn, txn, page, key, before, after })
            }
            2 => Ok(LogRecord::Commit { lsn, txn }),
            3 => Ok(LogRecord::Abort { lsn, txn }),
            _ => Err(DbError::LogCorrupt),
        }
    }
}

/// A per-system log.
///
/// Block 0 holds a header (`first_active`, `next_block`); records occupy
/// consecutive blocks from 1, one record per block (a simplification that
/// keeps torn writes impossible). Checkpointing empties the log: once a
/// member has no in-flight transactions, nothing logged so far can ever be
/// needed for backout, so the log restarts at block 1 and later records
/// overwrite the old ones in place — the stand-in for MVS log archival. A
/// log volume therefore needs room for the longest run of records between
/// two checkpoints, not for the member's lifetime. (`first_active` is
/// always 1 in a header this code writes; readers still honour it.)
pub struct LogManager {
    system: u8,
    farm: Arc<DasdFarm>,
    volume: String,
    inner: Mutex<LogInner>,
}

#[derive(Debug)]
struct LogInner {
    pending: Vec<LogRecord>,
    next_block: u64,
}

const FIRST_RECORD_BLOCK: u64 = 1;

fn encode_header(next_block: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(16);
    h.extend_from_slice(&FIRST_RECORD_BLOCK.to_be_bytes());
    h.extend_from_slice(&next_block.to_be_bytes());
    h
}

fn decode_header(data: &[u8]) -> (u64, u64) {
    if data.len() < 16 {
        return (FIRST_RECORD_BLOCK, FIRST_RECORD_BLOCK);
    }
    (u64::from_be_bytes(data[0..8].try_into().unwrap()), u64::from_be_bytes(data[8..16].try_into().unwrap()))
}

impl LogManager {
    /// Open the log of `system` on `volume`.
    pub fn new(system: u8, farm: Arc<DasdFarm>, volume: &str) -> Self {
        LogManager {
            system,
            farm,
            volume: volume.to_string(),
            inner: Mutex::new(LogInner { pending: Vec::new(), next_block: FIRST_RECORD_BLOCK }),
        }
    }

    /// Buffer a record (not yet durable).
    pub fn append(&self, record: LogRecord) {
        self.inner.lock().pending.push(record);
    }

    /// Force all buffered records to DASD (WAL force point). Returns how
    /// many records were written.
    pub fn force(&self) -> DbResult<usize> {
        let mut inner = self.inner.lock();
        let n = inner.pending.len();
        if n == 0 {
            return Ok(0);
        }
        let records: Vec<LogRecord> = inner.pending.drain(..).collect();
        for rec in records {
            let block = inner.next_block;
            self.farm.write(self.system, &self.volume, block, &rec.encode())?;
            inner.next_block += 1;
        }
        self.farm.write(self.system, &self.volume, 0, &encode_header(inner.next_block))?;
        Ok(n)
    }

    /// Durable records currently active (not yet truncated).
    pub fn durable_count(&self) -> u64 {
        self.inner.lock().next_block - FIRST_RECORD_BLOCK
    }

    /// Checkpoint: discard the entire active log *iff* `idle` confirms (the
    /// caller promises no transaction of this member is in flight while the
    /// predicate runs — everything logged so far belongs to completed
    /// transactions and can never be needed for backout). Returns whether
    /// the log truncated.
    pub fn checkpoint_if(&self, idle: impl FnOnce() -> bool) -> DbResult<bool> {
        let mut inner = self.inner.lock();
        if !idle() || !inner.pending.is_empty() {
            return Ok(false);
        }
        if inner.next_block == FIRST_RECORD_BLOCK {
            return Ok(false);
        }
        // Readers go by the header alone, so the one header write both
        // discards the old records and hands their blocks back for reuse.
        self.farm.write(self.system, &self.volume, 0, &encode_header(FIRST_RECORD_BLOCK))?;
        inner.next_block = FIRST_RECORD_BLOCK;
        Ok(true)
    }

    /// Read the active portion of a log from DASD — usable by *any* system
    /// (a survivor reads the failed member's log with its own identity).
    pub fn read_log(reader_system: u8, farm: &DasdFarm, volume: &str) -> DbResult<Vec<LogRecord>> {
        let (first_active, next_block) = decode_header(&farm.read(reader_system, volume, 0)?);
        let mut out = Vec::with_capacity((next_block - first_active) as usize);
        for block in first_active..next_block {
            let data = farm.read(reader_system, volume, block)?;
            if data.is_empty() {
                return Err(DbError::LogCorrupt);
            }
            out.push(LogRecord::decode(&data)?);
        }
        Ok(out)
    }

    /// Split a log into committed, aborted, and in-flight transaction sets.
    pub fn analyze(records: &[LogRecord]) -> (HashSet<u64>, HashSet<u64>, HashSet<u64>) {
        let mut committed = HashSet::new();
        let mut aborted = HashSet::new();
        let mut seen = HashSet::new();
        for r in records {
            seen.insert(r.txn());
            match r {
                LogRecord::Commit { txn, .. } => {
                    committed.insert(*txn);
                }
                LogRecord::Abort { txn, .. } => {
                    aborted.insert(*txn);
                }
                LogRecord::Update { .. } => {}
            }
        }
        let finished: HashSet<u64> = committed.union(&aborted).copied().collect();
        let inflight = seen.difference(&finished).copied().collect();
        (committed, aborted, inflight)
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager").field("system", &self.system).field("volume", &self.volume).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_dasd::volume::IoModel;

    fn farm() -> Arc<DasdFarm> {
        let f = DasdFarm::new(IoModel::instant());
        f.add_volume("LOG00", 1024, 2).unwrap();
        f
    }

    fn upd(lsn: u64, txn: u64, key: u64, before: Option<&[u8]>, after: Option<&[u8]>) -> LogRecord {
        LogRecord::Update {
            lsn: Tod(lsn),
            txn,
            page: key % 10,
            key,
            before: before.map(|b| b.to_vec()),
            after: after.map(|a| a.to_vec()),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in [
            upd(1, 7, 3, None, Some(b"new")),
            upd(2, 7, 3, Some(b"old"), Some(b"new")),
            upd(3, 7, 3, Some(b"old"), None),
            LogRecord::Commit { lsn: Tod(4), txn: 7 },
            LogRecord::Abort { lsn: Tod(5), txn: 8 },
        ] {
            assert_eq!(LogRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn corrupt_records_rejected() {
        assert!(matches!(LogRecord::decode(&[]), Err(DbError::LogCorrupt)));
        assert!(matches!(LogRecord::decode(&[9, 0, 0]), Err(DbError::LogCorrupt)));
        let mut good = upd(1, 1, 1, Some(b"x"), None).encode();
        good.truncate(good.len() - 1);
        assert!(matches!(LogRecord::decode(&good), Err(DbError::LogCorrupt)));
    }

    #[test]
    fn force_makes_records_readable_by_any_system() {
        let f = farm();
        let log = LogManager::new(0, Arc::clone(&f), "LOG00");
        log.append(upd(1, 10, 5, None, Some(b"v")));
        log.append(LogRecord::Commit { lsn: Tod(2), txn: 10 });
        assert_eq!(log.durable_count(), 0, "append alone is not durable");
        assert_eq!(log.force().unwrap(), 2);
        assert_eq!(log.durable_count(), 2);
        // Another system reads the log.
        let records = LogManager::read_log(3, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].txn(), 10);
    }

    #[test]
    fn analyze_splits_transaction_fates() {
        let records = vec![
            upd(1, 100, 1, None, Some(b"a")),
            LogRecord::Commit { lsn: Tod(2), txn: 100 },
            upd(3, 200, 2, None, Some(b"b")),
            LogRecord::Abort { lsn: Tod(4), txn: 200 },
            upd(5, 300, 3, None, Some(b"c")), // in flight at crash
        ];
        let (committed, aborted, inflight) = LogManager::analyze(&records);
        assert!(committed.contains(&100));
        assert!(aborted.contains(&200));
        assert_eq!(inflight, HashSet::from([300]));
    }

    #[test]
    fn multiple_forces_extend_the_log() {
        let f = farm();
        let log = LogManager::new(0, Arc::clone(&f), "LOG00");
        log.append(upd(1, 1, 1, None, Some(b"1")));
        log.force().unwrap();
        log.append(upd(2, 2, 2, None, Some(b"2")));
        log.force().unwrap();
        let records = LogManager::read_log(0, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].txn(), 2);
    }

    #[test]
    fn checkpoint_truncates_only_when_idle() {
        let f = farm();
        let log = LogManager::new(0, Arc::clone(&f), "LOG00");
        log.append(upd(1, 1, 1, None, Some(b"1")));
        log.force().unwrap();
        assert_eq!(log.durable_count(), 1);
        // Predicate says busy: no truncation.
        assert!(!log.checkpoint_if(|| false).unwrap());
        assert_eq!(LogManager::read_log(0, &f, "LOG00").unwrap().len(), 1);
        // Idle: truncates.
        assert!(log.checkpoint_if(|| true).unwrap());
        assert_eq!(log.durable_count(), 0);
        assert!(LogManager::read_log(0, &f, "LOG00").unwrap().is_empty());
        // Second checkpoint is a no-op.
        assert!(!log.checkpoint_if(|| true).unwrap());
        // New records reuse the truncated space and are readable.
        log.append(upd(2, 2, 2, None, Some(b"2")));
        log.force().unwrap();
        let records = LogManager::read_log(0, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].txn(), 2);
    }

    #[test]
    fn checkpointed_log_space_is_reused() {
        const SPAN: u64 = 100; // transactions between checkpoints, two records each
        let f = DasdFarm::new(IoModel::instant());
        let paths = f.add_volume("LOGSMALL", 512, 2).unwrap();
        let log = LogManager::new(0, Arc::clone(&f), "LOGSMALL");
        let mut since_checkpoint = Vec::new();
        for txn in 0..10_000u64 {
            let records =
                [upd(2 * txn, txn, txn, None, Some(b"v")), LogRecord::Commit { lsn: Tod(2 * txn + 1), txn }];
            for rec in records {
                log.append(rec.clone());
                since_checkpoint.push(rec);
            }
            log.force().unwrap();
            if (txn + 1) % SPAN == 0 {
                // A survivor sees exactly the records since the last
                // checkpoint, never a stale one from an overwritten lap.
                assert_eq!(LogManager::read_log(3, &f, "LOGSMALL").unwrap(), since_checkpoint);
                assert!(log.checkpoint_if(|| true).unwrap());
                assert!(LogManager::read_log(3, &f, "LOGSMALL").unwrap().is_empty());
                since_checkpoint.clear();
            }
        }
        log.append(upd(1 << 40, 10_000, 1, Some(b"v"), None));
        log.force().unwrap();
        assert_eq!(LogManager::read_log(3, &f, "LOGSMALL").unwrap().len(), 1);
        // The header block plus the largest inter-checkpoint span.
        assert!(paths.volume().blocks_in_use() as u64 <= 2 * SPAN + 1, "{}", paths.volume().blocks_in_use());
    }

    #[test]
    fn checkpoint_refuses_with_pending_records() {
        let f = farm();
        let log = LogManager::new(0, Arc::clone(&f), "LOG00");
        log.append(upd(1, 1, 1, None, Some(b"1")));
        assert!(!log.checkpoint_if(|| true).unwrap(), "buffered records are not yet durable");
    }

    #[test]
    fn empty_log_reads_empty() {
        let f = farm();
        assert!(LogManager::read_log(0, &f, "LOG00").unwrap().is_empty());
    }
}
