//! The log's decisions as a sans-I/O core, with no volume, latch or
//! counter of its own (DESIGN.md §14): the block layout and record codec,
//! how a force packs records into blocks, the writer's life, cycle and
//! blocks, and what a reader accepts. A force is a run of [`Step`]s that a
//! shell performs one at a time: `LogManager` under its latch, and
//! `crates/db/tests/log_interleavings.rs`, which crashes the writer
//! between any two.

use super::LogRecord;
use crate::error::{DbError, DbResult};
use sysplex_core::wire::{Wire, WireError, WireReader, WireWriter};
use sysplex_core::wire_enum;
use sysplex_dasd::volume::BLOCK_SIZE;
use sysplex_dasd::IoError;
use sysplex_services::timer::Tod;

wire_enum!(impl Wire for LogRecord("log-record") {
    1 Update { lsn: Tod, txn: u64, page: u64, key: u64, before: Option<Vec<u8>>, after: Option<Vec<u8>> },
    2 Commit { lsn: Tod, txn: u64 },
    3 Abort { lsn: Tod, txn: u64 },
});
/// The `Update` row's tag, for [`Writer::append_update`], its one encoder.
const TAG_UPDATE: u8 = 1;
/// The first block that holds records.
pub const FIRST_RECORD_BLOCK: u64 = 1;
/// Bytes of a record block's stamp, and of a record's length prefix.
const STAMP_BYTES: usize = 20;
const LEN_BYTES: usize = 4;
/// An epoch's cycle sits above this bit, its life below.
const CYCLE_SHIFT: u32 = 32;

/// What the shell does next for a force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// The force is over.
    Done,
    /// Move block 0 from life `from` to the next ([`claim`]) and give the
    /// life to [`Writer::claimed`].
    Claim { from: u64 },
    /// Write [`Writer::pending`]`[at..end]`, `count` records, as block
    /// `block`; then call [`Writer::written`] with `end`.
    Write { block: u64, at: usize, end: usize, count: u32 },
}

/// One member's log writer. Block 0 names the log's *life*; record blocks
/// from 1 are `epoch u64 | block_no u64 | count u32 | (len u32 |
/// record)*`, life `L`'s epochs being `cycle << 32 | L`.
#[derive(Debug, Default)]
pub struct Writer {
    /// Room for a stamp, then `(len u32 | record)*` encoded as appended;
    /// empty when nothing is. One buffer for the log's life.
    pending: WireWriter,
    /// This cycle's epoch; `None` until a write claims a life.
    pub(super) epoch: Option<u64>,
    /// The life block 0 named when the log opened, then the one this
    /// writer claimed: a claim moves block 0 only from it.
    life: u64,
    /// Blocks this cycle has written.
    blocks: u64,
    /// Where the unwritten records of the force in progress begin.
    start: usize,
    /// Known-bad switch: a checkpoint keeps its cycle's epoch.
    #[cfg(feature = "test-hooks")]
    pub reuse_cycle: bool,
}

impl Writer {
    /// The writer of a log whose block 0 names `life` as it opens.
    pub fn opened(life: u64) -> Self {
        Writer { life, ..Writer::default() }
    }

    /// Buffer a record (not yet durable).
    pub fn append(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Update { lsn, txn, page, key, before, after } => {
                self.append_update(*lsn, *txn, *page, *key, before.as_deref(), after.as_deref())
            }
            record => self.push(|w| record.put(w)),
        }
    }

    /// Buffer a [`LogRecord::Update`] from borrowed images, field by field
    /// in the order of its `wire_enum!` row, which decodes it.
    pub fn append_update(
        &mut self,
        lsn: Tod,
        txn: u64,
        page: u64,
        key: u64,
        before: Option<&[u8]>,
        after: Option<&[u8]>,
    ) {
        self.push(|w| {
            w.put_u8(TAG_UPDATE);
            for word in [lsn.0, txn, page, key] {
                w.put_u64(word);
            }
            w.put_opt_bytes(before);
            w.put_opt_bytes(after);
        });
    }

    /// Append one record behind its length, after room for a stamp when it
    /// is the first.
    fn push(&mut self, record: impl FnOnce(&mut WireWriter)) {
        if self.pending.is_empty() {
            self.pending.put_raw(&[0; STAMP_BYTES]);
        }
        self.pending.put_len_prefixed(record);
    }

    /// What the force in progress writes, from the stamp of its block.
    pub fn pending(&self) -> &[u8] {
        self.pending.as_bytes()
    }

    /// Begin forcing everything appended since the last force.
    pub fn force(&mut self) -> DbResult<Step> {
        self.start = STAMP_BYTES;
        self.next()
    }

    /// Block 0 names `life`, claimed for this writer: its first epoch.
    pub fn claimed(&mut self, life: u64) -> DbResult<Step> {
        (self.epoch, self.life) = (Some(life), life);
        self.next()
    }

    /// The last [`Step::Write`]'s block, up to its `end`, is on DASD.
    pub fn written(&mut self, end: usize) -> DbResult<Step> {
        self.blocks += 1;
        self.start = end;
        self.next()
    }

    /// Drop what the force in progress has not written, when it fails.
    pub fn settle(&mut self) {
        self.pending.clear();
    }

    fn next(&mut self) -> DbResult<Step> {
        let start = self.start;
        if start >= self.pending.len() {
            self.settle();
            return Ok(Step::Done);
        }
        let Some(epoch) = self.epoch else { return Ok(Step::Claim { from: self.life }) };
        // As many of the remaining records as one block takes.
        let (mut end, mut count) = (start, 0u32);
        while end < self.pending.len() {
            let len = self.pending.as_bytes()[end..end + LEN_BYTES].try_into().expect("4 length bytes");
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
        // The stamp goes in front of the records, over bytes the previous
        // block has already taken to DASD.
        let (at, block) = (start - STAMP_BYTES, FIRST_RECORD_BLOCK + self.blocks);
        self.pending.patch_u64(at, epoch);
        self.pending.patch_u64(at + 8, block);
        self.pending.patch_u32(at + 16, count);
        Ok(Step::Write { block, at, end, count })
    }

    /// Move to the next cycle, in memory: what was written so far goes once
    /// the next force writes block 1. Refused, `false`, with records
    /// pending or nothing written this cycle.
    pub fn checkpoint(&mut self) -> bool {
        if !self.pending.is_empty() || self.blocks == 0 {
            return false;
        }
        let cycle = 1 << CYCLE_SHIFT;
        #[cfg(feature = "test-hooks")]
        let cycle = if self.reuse_cycle { 0 } else { cycle };
        // A life whose cycles run out claims a new one at its next force.
        self.epoch = self.epoch.and_then(|epoch| epoch.checked_add(cycle));
        self.blocks = 0;
        true
    }
}

/// Move block 0, `header`, from life `from` to the next, a writer's claim:
/// [`DbError::LogDiscarded`] when block 0 names another life — peer
/// recovery discarded the log since the writer opened it, and the writer
/// is a crashed member's that lives on.
pub fn claim(header: &mut Vec<u8>, from: u64) -> DbResult<u64> {
    if life_of(header)? != from {
        return Err(DbError::LogDiscarded);
    }
    next_life(header)
}

/// Move block 0, `header`, to the next life, which is also its first epoch.
pub fn next_life(header: &mut Vec<u8>) -> DbResult<u64> {
    let life = life_of(header)? + 1;
    header.clear();
    header.extend_from_slice(&life.to_le_bytes());
    Ok(life)
}

/// The life block 0, `header`, names (0 on a volume never written).
pub fn life_of(header: &[u8]) -> DbResult<u64> {
    match header {
        [] => Ok(0),
        life => Ok(u64::from_le_bytes(life.try_into().map_err(|_| DbError::LogCorrupt)?)),
    }
}

/// `read_log`'s acceptance rule. The log is the run of blocks from 1
/// stamped with their own number and block 1's epoch, which must be one of
/// the life's: a stale block would have to outlast 2^32 lives of its
/// volume to pass for a current one.
#[derive(Debug, Default)]
pub struct Reader {
    /// Known-bad switch: block 1 may be of any life.
    #[cfg(feature = "test-hooks")]
    pub skip_life_check: bool,
}

impl Reader {
    /// The records of the run in `blocks`, read from block 1 on, of a log
    /// whose block 0 names `life`. A block in the run must parse exactly.
    pub fn read(
        &self,
        life: u64,
        blocks: impl IntoIterator<Item = DbResult<Vec<u8>>>,
    ) -> DbResult<Vec<LogRecord>> {
        let corrupt = |_: WireError| DbError::LogCorrupt;
        let (mut first, mut out) = (None, Vec::new());
        for (number, block) in (FIRST_RECORD_BLOCK..).zip(blocks) {
            let block = block?;
            let mut r = WireReader::new(&block);
            let (Ok(epoch), Ok(stamped)) = (r.get_u64(), r.get_u64()) else { break };
            let first = *first.get_or_insert(epoch);
            let of_life = first as u32 == life as u32;
            #[cfg(feature = "test-hooks")]
            let of_life = of_life || self.skip_life_check;
            if stamped != number || epoch != first || !of_life {
                break;
            }
            for _ in 0..r.get_u32().map_err(corrupt)? {
                let mut record = WireReader::new(r.get_slice().map_err(corrupt)?);
                out.push(Wire::get(&mut record).map_err(corrupt)?);
                record.finish().map_err(corrupt)?;
            }
            r.finish().map_err(corrupt)?;
        }
        Ok(out)
    }
}
