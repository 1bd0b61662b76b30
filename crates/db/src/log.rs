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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysplex_core::wire::{Wire, WireError, WireReader, WireWriter};
use sysplex_dasd::farm::{DasdFarm, VolumeHandle};
use sysplex_dasd::volume::BLOCK_SIZE;
use sysplex_dasd::IoError;
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

    /// Decode one record: what `LogInner::append` wrote behind the length.
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        let lsn = Tod(r.get_u64()?);
        let txn = r.get_u64()?;
        match tag {
            TAG_UPDATE => Ok(LogRecord::Update {
                lsn,
                txn,
                page: r.get_u64()?,
                key: r.get_u64()?,
                before: Wire::get(r)?,
                after: Wire::get(r)?,
            }),
            TAG_COMMIT => Ok(LogRecord::Commit { lsn, txn }),
            TAG_ABORT => Ok(LogRecord::Abort { lsn, txn }),
            _ => Err(WireError::BadTag("log-record")),
        }
    }
}

const TAG_UPDATE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;

/// A per-system log.
///
/// **Layout.** Block 0 names the log's *life* (`u64`). Records live in
/// blocks 1.., each `epoch u64 | block_no u64 | count u32 | (len u32 |
/// record)*` in the byte conventions of [`sysplex_core::wire`]
/// (little-endian words, `u32` length prefixes, a presence byte before an
/// optional image), read back through [`WireReader`]. The log *is* the run
/// of blocks from 1 whose stamp carries block 1's epoch and their own block
/// number, where block 1's epoch must be one of the life's; the first block
/// that does not — never written, or left by an earlier cycle or life —
/// ends it.
///
/// **One block per force.** A force packs everything appended since the
/// last one into one new block (more only when the records exceed
/// [`BLOCK_SIZE`]). No block is rewritten within an epoch, so a write torn
/// by a failure can only damage the force that was in progress, never an
/// earlier, acknowledged one.
///
/// **The epoch** is how records are discarded without touching them. The
/// epochs of life `L` are `cycle << 32 | L`, one per cycle of the log. A
/// *checkpoint* ([`LogManager::checkpoint_if`]) moves to the next cycle in
/// memory and hands block 1 back: once a member has no in-flight
/// transactions, nothing logged so far can ever be needed for backout —
/// the stand-in for MVS log archival, and the reason a log volume needs
/// room for the longest run of overlapping transactions, not for the
/// member's lifetime. It writes nothing; the next force's block 1 ends the
/// run before the old cycle's leftovers. Until then a reader still finds
/// the old cycle, whose transactions are all complete. Block 0 moves to a
/// new life, one atomic update, at the *first write of a member's life* (a
/// log left by a previous life on the same volume is not this member's) and
/// at the *end of peer recovery* ([`LogManager::discard_log`]: a backed-out
/// log must not be backed out again, and a dead member still forcing
/// writes epochs no reader accepts).
pub struct LogManager {
    system: u8,
    vol: VolumeHandle,
    inner: Mutex<LogInner>,
    /// Records forced since the last checkpoint: written under `inner`,
    /// read without it.
    durable: AtomicU64,
    /// Checkpoints that truncated the log.
    truncations: Arc<AtomicU64>,
}

#[derive(Debug)]
struct LogInner {
    /// What the next force writes: room for a stamp, then `(len u32 |
    /// record)*` encoded as appended. One buffer for the log's life.
    pending: WireWriter,
    /// The epoch this cycle stamps its blocks with; `None` until the life's
    /// first write claims one.
    epoch: Option<u64>,
    next_block: u64,
}

const FIRST_RECORD_BLOCK: u64 = 1;
/// Bytes of a record block's stamp.
const STAMP_BYTES: usize = 20;
/// Bytes of a record's length prefix.
const LEN_BYTES: usize = 4;
/// An epoch's cycle sits above this bit, its life below.
const CYCLE_SHIFT: u32 = 32;

impl LogInner {
    /// Append one record behind its length: `tag u8 | lsn u64 | txn u64 |
    /// body`.
    fn append(&mut self, tag: u8, lsn: Tod, txn: u64, body: impl FnOnce(&mut WireWriter)) {
        self.pending.put_len_prefixed(|w| {
            w.put_u8(tag);
            w.put_u64(lsn.0);
            w.put_u64(txn);
            body(w);
        });
    }
}

/// Read a log's life from block 0 (0 on a volume never written).
fn decode_life(header: &[u8]) -> DbResult<u64> {
    if header.is_empty() {
        return Ok(0);
    }
    let mut r = WireReader::new(header);
    let life = r.get_u64().map_err(|_| DbError::LogCorrupt)?;
    r.finish().map_err(|_| DbError::LogCorrupt)?;
    Ok(life)
}

/// Whether `epoch` is one of the epochs of `life`: the low half of an
/// epoch names its life (a stale block would have to outlast 2^32 lives of
/// its volume to pass for a current one).
fn of_life(epoch: u64, life: u64) -> bool {
    epoch as u32 == life as u32
}

/// Move a log to its next life, as `system`: one atomic update of block 0.
/// Returns the life, which is also its first epoch.
fn claim_life(vol: &VolumeHandle, system: u8) -> DbResult<u64> {
    vol.update(system, 0, |header| {
        let life = decode_life(header)? + 1;
        header.clear();
        header.extend_from_slice(&life.to_le_bytes());
        Ok(life)
    })?
}

impl LogManager {
    /// Open the log of `system` on `volume`.
    pub fn new(system: u8, farm: &DasdFarm, volume: &str) -> DbResult<Self> {
        Ok(LogManager {
            system,
            vol: farm.open(volume)?,
            inner: Mutex::new(LogInner {
                pending: {
                    let mut pending = WireWriter::new();
                    pending.put_raw(&[0; STAMP_BYTES]);
                    pending
                },
                epoch: None,
                next_block: FIRST_RECORD_BLOCK,
            }),
            durable: AtomicU64::new(0),
            truncations: Arc::default(),
        })
    }

    /// Buffer a record (not yet durable).
    pub fn append(&self, record: LogRecord) {
        match record {
            LogRecord::Update { lsn, txn, page, key, before, after } => {
                self.append_update(lsn, txn, page, key, before.as_deref(), after.as_deref())
            }
            LogRecord::Commit { lsn, txn } => self.inner.lock().append(TAG_COMMIT, lsn, txn, |_| {}),
            LogRecord::Abort { lsn, txn } => self.inner.lock().append(TAG_ABORT, lsn, txn, |_| {}),
        }
    }

    /// Buffer a [`LogRecord::Update`] from borrowed images.
    pub fn append_update(
        &self,
        lsn: Tod,
        txn: u64,
        page: u64,
        key: u64,
        before: Option<&[u8]>,
        after: Option<&[u8]>,
    ) {
        self.inner.lock().append(TAG_UPDATE, lsn, txn, |w| {
            w.put_u64(page);
            w.put_u64(key);
            w.put_opt_bytes(before);
            w.put_opt_bytes(after);
        });
    }

    /// Force all buffered records to DASD (WAL force point). Returns how
    /// many records were written. A force that fails drops its records:
    /// the caller is told, and does not go on as if they were durable.
    pub fn force(&self) -> DbResult<usize> {
        let mut inner = self.inner.lock();
        let result = self.write_pending(&mut inner);
        inner.pending.truncate(STAMP_BYTES);
        result
    }

    fn write_pending(&self, inner: &mut LogInner) -> DbResult<usize> {
        if inner.pending.len() == STAMP_BYTES {
            return Ok(0);
        }
        let epoch = match inner.epoch {
            Some(epoch) => epoch,
            None => *inner.epoch.insert(claim_life(&self.vol, self.system)?),
        };
        let mut forced = 0;
        let mut start = STAMP_BYTES;
        while start < inner.pending.len() {
            // As many of the remaining records as one block takes.
            let (mut end, mut count) = (start, 0u32);
            while end < inner.pending.len() {
                let len = inner.pending.as_bytes()[end..end + LEN_BYTES].try_into().expect("4 length bytes");
                let next = end + LEN_BYTES + u32::from_le_bytes(len) as usize;
                let block_bytes = STAMP_BYTES + (next - start);
                if block_bytes <= BLOCK_SIZE {
                    (end, count) = (next, count + 1);
                } else if count == 0 {
                    return Err(IoError::BlockTooLarge(block_bytes).into());
                } else {
                    break;
                }
            }
            // The stamp goes in front of the records, over bytes the
            // previous block has already taken to DASD.
            let at = start - STAMP_BYTES;
            inner.pending.patch_u64(at, epoch);
            inner.pending.patch_u64(at + 8, inner.next_block);
            inner.pending.patch_u32(at + 16, count);
            self.vol.write(self.system, inner.next_block, &inner.pending.as_bytes()[at..end])?;
            inner.next_block += 1;
            self.durable.fetch_add(u64::from(count), Ordering::Relaxed);
            forced += count as usize;
            start = end;
        }
        Ok(forced)
    }

    /// Records made durable since the last checkpoint.
    pub fn durable_count(&self) -> u64 {
        self.durable.load(Ordering::Relaxed)
    }

    /// Checkpoints that truncated this log, counted since it was opened.
    pub fn truncations(&self) -> &Arc<AtomicU64> {
        &self.truncations
    }

    /// Checkpoint: discard the entire active log *iff* `idle` confirms (the
    /// caller promises no transaction of this member is in flight while the
    /// predicate runs — everything logged so far belongs to completed
    /// transactions and can never be needed for backout). Returns whether
    /// the log truncated. No I/O: the next force starts the new cycle at
    /// block 1. A log with nothing forced since the last checkpoint is left
    /// alone without taking the latch, so a read-only transaction that ends
    /// last pays one load; the caller's ordering of its in-flight count
    /// makes every force of a transaction that ended before it visible.
    pub fn checkpoint_if(&self, idle: impl FnOnce() -> bool) -> bool {
        if self.durable.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        if !idle() || inner.pending.len() > STAMP_BYTES || inner.next_block == FIRST_RECORD_BLOCK {
            return false;
        }
        // A life whose cycles run out claims a new one at its next force.
        inner.epoch = inner.epoch.and_then(|epoch| epoch.checked_add(1 << CYCLE_SHIFT));
        inner.next_block = FIRST_RECORD_BLOCK;
        self.durable.store(0, Ordering::Relaxed);
        self.truncations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Discard every record of the log on `volume`, acting as `system`: the
    /// last step of peer recovery, by the survivor, so that neither a
    /// second failure of the same member nor a re-run of the recovery
    /// replays what has been backed out.
    pub fn discard_log(system: u8, farm: &DasdFarm, volume: &str) -> DbResult<()> {
        claim_life(&farm.open(volume)?, system).map(drop)
    }

    /// Read the active portion of a log from DASD — usable by *any* system
    /// (a survivor reads the failed member's log with its own identity).
    pub fn read_log(reader_system: u8, farm: &DasdFarm, volume: &str) -> DbResult<Vec<LogRecord>> {
        let corrupt = |_: WireError| DbError::LogCorrupt;
        let vol = farm.open(volume)?;
        let life = decode_life(&vol.read(reader_system, 0)?)?;
        // The run's epoch: block 1's, and one of the life's.
        let mut epoch = None;
        let mut out = Vec::new();
        for block_no in FIRST_RECORD_BLOCK..vol.paths().volume().capacity() {
            let block = vol.read(reader_system, block_no)?;
            let mut r = WireReader::new(&block);
            let (Ok(e), Ok(b)) = (r.get_u64(), r.get_u64()) else { break };
            if b != block_no || e != *epoch.get_or_insert(e) || !of_life(e, life) {
                break;
            }
            for _ in 0..r.get_u32().map_err(corrupt)? {
                let mut record = WireReader::new(r.get_slice().map_err(corrupt)?);
                out.push(LogRecord::decode(&mut record).map_err(corrupt)?);
                record.finish().map_err(corrupt)?;
            }
            r.finish().map_err(corrupt)?;
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
        f.debug_struct("LogManager")
            .field("system", &self.system)
            .field("volume", &self.vol.paths().volume().name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use sysplex_dasd::path::PathSet;
    use sysplex_dasd::volume::IoModel;

    fn farm() -> Arc<DasdFarm> {
        let f = DasdFarm::new(IoModel::instant());
        f.add_volume("LOG00", 1024, 2).unwrap();
        f
    }

    fn open(f: &DasdFarm) -> LogManager {
        LogManager::new(0, f, "LOG00").unwrap()
    }

    fn writes(paths: &PathSet) -> u64 {
        paths.volume().stats.writes.load(Ordering::Relaxed)
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

    /// The log work of one debit-credit commit: four updates forced, then
    /// the commit record forced.
    fn commit(log: &LogManager, txn: u64) {
        for key in 0..4 {
            log.append(upd(10 * txn + key, txn, key, Some(&[0; 8]), Some(&[1; 8])));
        }
        assert_eq!(log.force().unwrap(), 4);
        log.append(LogRecord::Commit { lsn: Tod(10 * txn + 4), txn });
        assert_eq!(log.force().unwrap(), 1);
    }

    /// A record block as core's `WireWriter` builds it.
    fn block(epoch: u64, block_no: u64, records: &[&[u8]]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(epoch);
        w.put_u64(block_no);
        w.put_u32(records.len() as u32);
        for r in records {
            w.put_bytes(r);
        }
        w.into_bytes()
    }

    fn record(rec: &LogRecord) -> Vec<u8> {
        let mut w = WireWriter::new();
        match rec {
            LogRecord::Update { lsn, txn, page, key, before, after } => {
                w.put_u8(TAG_UPDATE);
                for word in [lsn.0, *txn, *page, *key] {
                    w.put_u64(word);
                }
                before.put(&mut w);
                after.put(&mut w);
            }
            LogRecord::Commit { lsn, txn } | LogRecord::Abort { lsn, txn } => {
                w.put_u8(if matches!(rec, LogRecord::Commit { .. }) { TAG_COMMIT } else { TAG_ABORT });
                w.put_u64(lsn.0);
                w.put_u64(*txn);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn records_round_trip_and_the_block_is_in_the_wire_kits_layout() {
        let f = farm();
        let log = open(&f);
        let records = [
            upd(1, 7, 3, None, Some(b"new")),
            upd(2, 7, 3, Some(b"old"), Some(b"new")),
            upd(3, 7, 3, Some(b"old"), None),
            LogRecord::Commit { lsn: Tod(4), txn: 7 },
            LogRecord::Abort { lsn: Tod(5), txn: 8 },
        ];
        for rec in &records {
            log.append(rec.clone());
        }
        assert_eq!(log.force().unwrap(), 5);
        assert_eq!(LogManager::read_log(3, &f, "LOG00").unwrap(), records);
        // Byte for byte what `WireWriter` and the `Wire` impls produce, so
        // `WireReader` is the whole decoder.
        let encoded: Vec<Vec<u8>> = records.iter().map(record).collect();
        let encoded: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        assert_eq!(f.read(0, "LOG00", 1).unwrap(), block(1, 1, &encoded));
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 1u64.to_le_bytes());
    }

    #[test]
    fn a_stale_stamp_ends_the_log_and_a_cut_body_is_corrupt() {
        let f = farm();
        let log = open(&f);
        log.append(upd(1, 1, 1, Some(b"x"), None));
        log.force().unwrap();
        let good = record(&upd(2, 2, 2, None, Some(b"y")));
        let read = || LogManager::read_log(3, &f, "LOG00");
        // An older epoch, or another block's number: not part of this log.
        for stale in [block(0, 2, &[&good]), block(1, 3, &[&good]), vec![1, 2, 3]] {
            f.write(0, "LOG00", 2, &stale).unwrap();
            assert_eq!(read().unwrap().len(), 1);
        }
        f.write(0, "LOG00", 2, &block(1, 2, &[&good])).unwrap();
        assert_eq!(read().unwrap().len(), 2);
        // The stamp says "mine"; everything after it must then parse.
        let whole = block(1, 2, &[&good]);
        for cut in STAMP_BYTES - 4..whole.len() {
            f.write(0, "LOG00", 2, &whole[..cut]).unwrap();
            assert_eq!(read().unwrap_err(), DbError::LogCorrupt, "cut at {cut}");
        }
        let mut bad_tag = good.clone();
        bad_tag[0] = 9;
        let mut cut_record = good.clone();
        cut_record.pop();
        let trailing = [&whole[..], &[0]].concat();
        for bad in [block(1, 2, &[&bad_tag]), block(1, 2, &[&cut_record]), block(1, 2, &[&[]]), trailing] {
            f.write(0, "LOG00", 2, &bad).unwrap();
            assert_eq!(read().unwrap_err(), DbError::LogCorrupt);
        }
        f.write(0, "LOG00", 0, &[1, 2, 3]).unwrap();
        assert_eq!(read().unwrap_err(), DbError::LogCorrupt, "a header that is not an epoch");
    }

    #[test]
    fn force_makes_records_readable_by_any_system() {
        let f = farm();
        let log = open(&f);
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
    fn a_force_is_one_block_write_and_never_the_header() {
        let f = farm();
        let paths = f.volume("LOG00").unwrap();
        let log = open(&f);
        commit(&log, 0); // claims the life's epoch: the one header write
        let header = f.read(0, "LOG00", 0).unwrap();
        let before = writes(&paths);
        for txn in 1..=50 {
            commit(&log, txn);
        }
        assert_eq!(writes(&paths) - before, 2 * 50, "one block per force, two forces per commit");
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), header, "block 0 is not rewritten by a force");
        assert_eq!(paths.volume().blocks_in_use(), 1 + 2 * 51);
        assert_eq!(log.durable_count(), 5 * 51);
        assert_eq!(log.force().unwrap(), 0, "nothing pending: no I/O");
        assert_eq!(writes(&paths) - before, 2 * 50);
        let records = LogManager::read_log(0, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 5 * 51);
        assert!(records.windows(2).all(|w| w[0].lsn() < w[1].lsn()), "in append order across blocks");
    }

    #[test]
    fn a_force_larger_than_a_block_spills_in_order() {
        let f = farm();
        let paths = f.volume("LOG00").unwrap();
        let log = open(&f);
        commit(&log, 0);
        let image = vec![0xAB; 1000];
        let big: Vec<LogRecord> = (0..9).map(|i| upd(100 + i, 1, i, Some(&image), Some(&image))).collect();
        let before = writes(&paths);
        for rec in &big {
            log.append(rec.clone());
        }
        assert_eq!(log.force().unwrap(), 9);
        // 2 047 bytes a framed record: one fits a 4 KiB block beside the stamp.
        assert_eq!(writes(&paths) - before, 9);
        commit(&log, 2);
        let records = LogManager::read_log(0, &f, "LOG00").unwrap();
        assert_eq!(records[5..14], big[..]);
        assert_eq!(records.len(), 5 + 9 + 5);
        // A record no block can hold fails the force, and only that force.
        let huge = vec![0; BLOCK_SIZE];
        log.append(upd(200, 3, 1, None, Some(&huge)));
        assert!(matches!(log.force(), Err(DbError::Io(IoError::BlockTooLarge(_)))));
        commit(&log, 4);
        assert_eq!(LogManager::read_log(0, &f, "LOG00").unwrap().len(), 5 + 9 + 5 + 5);
    }

    #[test]
    fn checkpoint_truncates_only_when_idle() {
        let f = farm();
        let paths = f.volume("LOG00").unwrap();
        let log = open(&f);
        log.append(upd(1, 1, 1, None, Some(b"1")));
        log.append(upd(2, 1, 2, None, Some(b"1")));
        log.force().unwrap();
        log.append(LogRecord::Commit { lsn: Tod(3), txn: 1 });
        log.force().unwrap();
        assert_eq!(log.durable_count(), 3);
        // Predicate says busy: no truncation.
        assert!(!log.checkpoint_if(|| false));
        // Idle: truncates, in memory. Until the next force a reader still
        // finds the old cycle, whose transactions are all complete.
        let before = writes(&paths);
        assert!(log.checkpoint_if(|| true));
        assert_eq!(writes(&paths), before, "a checkpoint is no I/O");
        assert_eq!(log.durable_count(), 0);
        assert_eq!(log.truncations().load(Ordering::Relaxed), 1);
        assert_eq!(LogManager::read_log(0, &f, "LOG00").unwrap().len(), 3);
        // Second checkpoint is a no-op.
        assert!(!log.checkpoint_if(|| true));
        // The next force reuses block 1 and ends the run before the old
        // cycle's block 2.
        log.append(upd(4, 2, 2, None, Some(b"2")));
        log.force().unwrap();
        let records = LogManager::read_log(0, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].txn(), 2);
        assert_eq!(log.truncations().load(Ordering::Relaxed), 1);
    }

    #[test]
    fn checkpointed_log_space_is_reused() {
        const SPAN: u64 = 100; // transactions between checkpoints, one force each
        let f = DasdFarm::new(IoModel::instant());
        let paths = f.add_volume("LOGSMALL", 512, 2).unwrap();
        let log = LogManager::new(0, &f, "LOGSMALL").unwrap();
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
                assert_eq!(log.durable_count(), 2 * SPAN);
                assert!(log.checkpoint_if(|| true));
                // Nothing written: the completed cycle is read until the
                // next force.
                assert_eq!(LogManager::read_log(3, &f, "LOGSMALL").unwrap(), since_checkpoint);
                since_checkpoint.clear();
            }
        }
        log.append(upd(1 << 40, 10_000, 1, Some(b"v"), None));
        log.force().unwrap();
        assert_eq!(LogManager::read_log(3, &f, "LOGSMALL").unwrap().len(), 1);
        // The header block plus one block per force of the longest span.
        assert_eq!(paths.volume().blocks_in_use() as u64, SPAN + 1);
    }

    #[test]
    fn checkpoint_refuses_with_pending_records() {
        let f = farm();
        let log = open(&f);
        log.append(upd(1, 1, 1, None, Some(b"1")));
        assert!(!log.checkpoint_if(|| true), "nothing durable to discard");
        log.force().unwrap();
        log.append(upd(2, 2, 2, None, Some(b"2")));
        assert!(!log.checkpoint_if(|| true), "buffered records are not yet durable");
    }

    #[test]
    fn a_new_life_and_a_discard_each_start_a_fresh_epoch() {
        let f = farm();
        let first = open(&f);
        commit(&first, 1);
        commit(&first, 2);
        drop(first);
        // The next life on the same volume: the old records stay readable
        // until it writes (a survivor may still need them) ...
        let second = open(&f);
        assert_eq!(LogManager::read_log(3, &f, "LOG00").unwrap().len(), 10);
        assert_eq!(second.durable_count(), 0);
        assert!(!second.checkpoint_if(|| true), "nothing of this life to discard");
        // ... and its first force, to block 1, does not splice its one
        // block onto the old life's second.
        commit(&second, 3);
        let records = LogManager::read_log(3, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.txn() == 3));
        // A survivor discards the log; the owner, were it still running and
        // unfenced, would be writing into a dead epoch.
        LogManager::discard_log(3, &f, "LOG00").unwrap();
        assert!(LogManager::read_log(3, &f, "LOG00").unwrap().is_empty());
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 3u64.to_le_bytes());
    }

    #[test]
    fn a_fenced_system_cannot_force_or_checkpoint() {
        let f = farm();
        let log = open(&f);
        commit(&log, 1);
        f.fence().fence(0);
        log.append(LogRecord::Commit { lsn: Tod(99), txn: 2 });
        assert_eq!(log.force().unwrap_err(), DbError::Io(IoError::Fenced(0)));
        // A checkpoint writes nothing: the cycle it starts would reach DASD
        // with the next force, which the fence refuses.
        assert!(log.checkpoint_if(|| true));
        log.append(upd(100, 3, 1, None, Some(b"3")));
        assert_eq!(log.force().unwrap_err(), DbError::Io(IoError::Fenced(0)));
        assert_eq!(LogManager::read_log(0, &f, "LOG00").unwrap_err(), DbError::Io(IoError::Fenced(0)));
        assert_eq!(
            LogManager::read_log(1, &f, "LOG00").unwrap().len(),
            5,
            "the zombie's forces never landed"
        );
        assert_eq!(log.durable_count(), 0);
    }

    /// Runs a thousand checkpointed cycles of 1, 8, 2, 9, … 13 commits,
    /// from transaction `txn` on, so a short cycle ends where an earlier,
    /// longer one's blocks go on; returns the next transaction id. Every
    /// cycle reads back as exactly its own commits.
    fn thousand_cycles(f: &DasdFarm, log: &LogManager, mut txn: u64) -> u64 {
        for cycle in 0..1000 {
            let len = 1 + cycle * 7 % 13;
            for _ in 0..len {
                commit(log, txn);
                txn += 1;
            }
            let records = LogManager::read_log(3, f, "LOG00").unwrap();
            assert_eq!(records.len() as u64, 5 * len, "cycle {cycle}");
            assert_eq!(records[0].txn(), txn - len, "cycle {cycle}");
            assert!(log.checkpoint_if(|| true));
        }
        txn
    }

    #[test]
    fn a_new_lifes_first_force_never_splices_a_stale_lap() {
        let f = farm();
        let first = open(&f);
        let txn = thousand_cycles(&f, &first, 0);
        assert_eq!(first.truncations().load(Ordering::Relaxed), 1000);
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 1u64.to_le_bytes(), "no checkpoint wrote block 0");
        drop(first);
        // The last cycle, 13 commits over 26 blocks, is still there for a
        // survivor; the next life's one block ends the run before it.
        assert_eq!(LogManager::read_log(3, &f, "LOG00").unwrap().len(), 5 * 13);
        let second = open(&f);
        second.append(upd(10 * txn, txn, 1, None, Some(b"v")));
        second.force().unwrap();
        let records = LogManager::read_log(3, &f, "LOG00").unwrap();
        assert_eq!(records, [upd(10 * txn, txn, 1, None, Some(b"v"))]);
        assert!(second.checkpoint_if(|| true));
        thousand_cycles(&f, &second, txn + 1);
    }

    #[test]
    fn a_zombie_forcing_after_a_discard_writes_into_a_dead_range() {
        let f = farm();
        let zombie = open(&f);
        let mut txn = thousand_cycles(&f, &zombie, 0);
        // A survivor recovers the member; the member, unfenced, goes on
        // committing and truncating through cycles of every length.
        LogManager::discard_log(3, &f, "LOG00").unwrap();
        for len in 1..=13 {
            for _ in 0..len {
                commit(&zombie, txn);
                txn += 1;
            }
            assert!(LogManager::read_log(3, &f, "LOG00").unwrap().is_empty(), "{len} commits landed");
            assert!(zombie.checkpoint_if(|| true));
        }
        // The member's next life claims a range past the discard.
        let next = open(&f);
        commit(&next, txn);
        assert_eq!(LogManager::read_log(3, &f, "LOG00").unwrap().len(), 5);
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 3u64.to_le_bytes());
    }

    #[test]
    fn a_life_whose_cycles_run_out_claims_the_next_at_its_next_force() {
        let f = farm();
        let log = open(&f);
        commit(&log, 0);
        // Fast-forward to the life's last cycle but one.
        log.inner.lock().epoch = Some((u64::from(u32::MAX) - 1) << CYCLE_SHIFT | 1);
        assert!(log.checkpoint_if(|| true));
        commit(&log, 1);
        assert_eq!(LogManager::read_log(3, &f, "LOG00").unwrap().len(), 5, "its last cycle reads");
        assert!(log.checkpoint_if(|| true));
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 1u64.to_le_bytes(), "a checkpoint writes nothing");
        commit(&log, 2);
        assert_eq!(f.read(0, "LOG00", 0).unwrap(), 2u64.to_le_bytes(), "claimed at the force");
        let records = LogManager::read_log(3, &f, "LOG00").unwrap();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.txn() == 2));
    }

    #[test]
    fn empty_log_reads_empty() {
        let f = farm();
        assert!(LogManager::read_log(0, &f, "LOG00").unwrap().is_empty());
        assert!(matches!(LogManager::new(0, &f, "NOPE"), Err(DbError::Io(IoError::NoSuchVolume(_)))));
    }
}
