//! CF list structures (§3.3.3).
//!
//! A list structure holds a program-specified number of *list headers*.
//! Entries are created when first written and queued to a header in
//! LIFO/FIFO order or in collating sequence by key, can carry a data block,
//! and can be read, updated, deleted, or **moved between headers
//! atomically** — no software multi-system serialization is needed for
//! queue manipulation. This is the substrate for shared work queues,
//! inter-system message passing, and shared control-block state (VTAM
//! generic resources, IMS shared queues, JES2 checkpoint...).
//!
//! Two auxiliary mechanisms from the paper are reproduced:
//!
//! * **Serialized lists** — an optional array of lock entries. Mainline
//!   commands can be made *conditional* on a lock being free; a recovery
//!   process needing a static view sets the lock, causing mainline
//!   operations to be rejected with [`CfError::LockHeld`] rather than
//!   forcing every mainline request to acquire/release the lock.
//! * **List transition monitoring** — a connector registers interest in a
//!   header; when the header goes empty→non-empty the CF sets a bit in the
//!   connector's list-notification vector (and pulses its wakeup event),
//!   "providing an indication observed via local system polling that there
//!   is work to be processed". No interrupt reaches the target.

use crate::bitvec::BitVector;
use crate::error::{CfError, CfResult};
use crate::slots::ConnectorSlots;
use crate::stats::SlotCounter;
use crate::types::{ConnId, MAX_CONNECTORS};
use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Allocation-time geometry of a list structure.
#[derive(Debug, Clone)]
pub struct ListParams {
    /// Number of list headers.
    pub headers: usize,
    /// Number of serializing lock entries (0 = unserialised structure).
    pub lock_entries: usize,
    /// Maximum number of list entries across all headers.
    pub max_entries: usize,
}

impl ListParams {
    /// `headers` headers, no lock entries, a generous entry budget.
    pub fn with_headers(headers: usize) -> Self {
        ListParams { headers, lock_entries: 0, max_entries: headers.max(1) * 4096 }
    }

    /// Add serializing lock entries.
    pub fn with_locks(mut self, lock_entries: usize) -> Self {
        self.lock_entries = lock_entries;
        self
    }
}

/// Where a write places the new entry within the target header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePosition {
    /// Push at the head (LIFO when paired with head dequeue).
    Head,
    /// Push at the tail (FIFO when paired with head dequeue).
    Tail,
    /// Insert in ascending key collating sequence (FIFO within equal keys).
    Keyed,
}

/// Which end a dequeue takes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueEnd {
    /// Take the head entry.
    Head,
    /// Take the tail entry.
    Tail,
}

/// Condition attached to a mainline command on a serialized list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockCondition {
    /// Execute unconditionally.
    None,
    /// Execute only while lock entry `index` is **free** (mainline side of
    /// the §3.3.3 recovery protocol).
    LockFree(usize),
    /// Execute only while the issuer itself holds lock entry `index`
    /// (recovery side).
    HeldBySelf(usize),
}

/// A unique, never-reused entry identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u64);

/// A read-only view of a list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryView {
    /// Entry identity.
    pub id: EntryId,
    /// Collating key.
    pub key: u64,
    /// Attached data block.
    pub data: Vec<u8>,
    /// Header the entry is currently queued to.
    pub header: usize,
    /// Version, incremented on every update.
    pub version: u64,
}

#[derive(Debug)]
struct StoredEntry {
    id: EntryId,
    key: u64,
    data: Vec<u8>,
    version: u64,
}

#[derive(Debug)]
struct MonitorReg {
    conn: ConnId,
    vector: Arc<BitVector>,
    vector_index: u32,
    event: Arc<ConnEvent>,
}

#[derive(Debug, Default)]
struct Header {
    entries: VecDeque<StoredEntry>,
    monitors: Vec<MonitorReg>,
}

/// Per-connection wakeup event: lets an emulated system block on "any
/// monitored list went non-empty" instead of spinning on its vector.
#[derive(Debug, Default)]
pub struct ConnEvent {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl ConnEvent {
    /// Current generation (pass to [`ConnEvent::wait_newer`]).
    pub fn generation(&self) -> u64 {
        *self.gen.lock()
    }

    fn pulse(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_all();
    }

    /// Wait until the generation exceeds `seen` or the timeout elapses.
    /// Returns true when a new pulse arrived.
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> bool {
        let mut gen = self.gen.lock();
        if *gen > seen {
            return true;
        }
        self.cv.wait_for(&mut gen, timeout);
        *gen > seen
    }
}

/// One connector's attachment to a list structure.
#[derive(Debug, Clone)]
pub struct ListConnection {
    /// Connector slot in the structure.
    pub id: ConnId,
    /// List-notification vector: bit set = monitored header non-empty.
    pub vector: Arc<BitVector>,
    /// Wakeup event pulsed on every empty→non-empty transition of a
    /// monitored header.
    pub event: Arc<ConnEvent>,
}

/// Counters published by a list structure: counted per connector slot,
/// read as structure-wide sums.
#[derive(Debug)]
pub struct ListStats {
    /// Entries written.
    pub writes: SlotCounter,
    /// Entries deleted (including dequeues).
    pub deletes: SlotCounter,
    /// Atomic moves between headers.
    pub moves: SlotCounter,
    /// Dequeue commands that returned an entry.
    pub dequeues: SlotCounter,
    /// Empty→non-empty transition signals delivered (counted against the
    /// connector whose write caused them).
    pub transitions: SlotCounter,
    /// Mainline commands rejected by a held serializing lock.
    pub lock_rejections: SlotCounter,
}

impl Default for ListStats {
    fn default() -> Self {
        let [writes, deletes, moves, dequeues, transitions, lock_rejections] = SlotCounter::block();
        ListStats { writes, deletes, moves, dequeues, transitions, lock_rejections }
    }
}

/// Entry ids a connector slot draws at a time. Slot `s`'s `k`-th block
/// is block `(k + 1) * MAX_CONNECTORS + s`: no two slots ever draw from
/// one block, no counter hands blocks out, and no id is 0 (the trace's
/// "no entry").
const ID_BLOCK: u64 = 64;
/// Entry-index shards: one per connector slot, and an id's shard is its
/// block's slot, so a connector's own entries index under its own lock.
const INDEX_SHARDS: usize = MAX_CONNECTORS;
/// Entry capacity a slot takes from the shared pool at a time.
const QUOTA_CHUNK: u64 = 64;

/// Entry id -> current header, for the ids of one slot's blocks.
type IndexShard = CachePadded<Mutex<HashMap<EntryId, usize>>>;

/// What a connector slot owns of the structure, on a line of its own.
#[derive(Debug, Default)]
struct SlotShare {
    /// Entry ids the slot has drawn. Survives detach, so a slot's next
    /// owner goes on where the last one stopped.
    ids_drawn: AtomicU64,
    /// Entries the slot may still create without touching the pool. A
    /// delete credits the deleting slot.
    quota: AtomicU64,
}

/// A CF list structure.
#[derive(Debug)]
pub struct ListStructure {
    name: String,
    headers: Box<[CachePadded<Mutex<Header>>]>,
    /// Serializing lock entries: 0 = free, otherwise connector slot + 1.
    locks: Box<[AtomicU32]>,
    /// Entry id -> current header, sharded by the id's block (maintained
    /// after header mutation; shard locks are leaf locks, taken either
    /// under the owning header lock or in their own statement).
    index: Box<[IndexShard]>,
    /// Attached connectors. Their vectors and events are reached through
    /// the monitors registered on each header, so a slot keeps nothing.
    connectors: ConnectorSlots<()>,
    /// Per-slot id cursors and capacity quotas.
    shares: Box<[CachePadded<SlotShare>]>,
    /// Entry capacity no slot holds. Entries + pool + every slot's quota
    /// is `max_entries` at all times; quota moves between pool and slots,
    /// or slot to slot, only under this lock.
    pool: CachePadded<Mutex<u64>>,
    /// Component tracer plus this structure's interned id, wired by the
    /// owning facility so transition signals show up in the trace.
    /// Set once; unset costs the hot path one atomic load.
    trace: OnceLock<(Arc<crate::trace::Tracer>, u32)>,
    /// Published counters.
    pub stats: ListStats,
}

impl ListStructure {
    /// Build a standalone structure (facilities use this; also handy in tests).
    pub fn new(name: &str, params: &ListParams) -> CfResult<Self> {
        if params.headers == 0 {
            return Err(CfError::BadParameter("list structure needs at least one header"));
        }
        let headers = (0..params.headers).map(|_| CachePadded::new(Mutex::new(Header::default()))).collect();
        let locks = (0..params.lock_entries).map(|_| AtomicU32::new(0)).collect();
        Ok(ListStructure {
            name: name.to_string(),
            headers,
            locks,
            index: (0..INDEX_SHARDS).map(|_| CachePadded::new(Mutex::new(HashMap::new()))).collect(),
            connectors: ConnectorSlots::new(),
            shares: (0..MAX_CONNECTORS).map(|_| CachePadded::new(SlotShare::default())).collect(),
            pool: CachePadded::new(Mutex::new(params.max_entries as u64)),
            trace: OnceLock::new(),
            stats: ListStats::default(),
        })
    }

    /// Route transition-signal trace events to `tracer` under structure
    /// id `sid`. Called once, by the allocating facility; a later call
    /// leaves the first tracer in place.
    pub fn set_tracer(&self, tracer: Arc<crate::trace::Tracer>, sid: u32) {
        let _ = self.trace.set((tracer, sid));
    }

    /// Shard of the entry index covering `id`.
    #[inline]
    fn index_shard(&self, id: EntryId) -> &Mutex<HashMap<EntryId, usize>> {
        &self.index[(id.0 / ID_BLOCK) as usize % INDEX_SHARDS]
    }

    /// The next id of `conn`'s slot: its own cursor, no shared word.
    #[inline]
    fn next_id(&self, conn: ConnId) -> EntryId {
        let n = self.shares[conn.index()].ids_drawn.fetch_add(1, Ordering::Relaxed);
        let block = (n / ID_BLOCK + 1) * MAX_CONNECTORS as u64 + conn.index() as u64;
        EntryId(block * ID_BLOCK + n % ID_BLOCK)
    }

    /// Admit one new entry against `conn`'s quota, refilling it from the
    /// pool when it is spent.
    #[inline]
    fn admit(&self, conn: ConnId) -> CfResult<()> {
        let quota = &self.shares[conn.index()].quota;
        if quota.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| q.checked_sub(1)).is_ok() {
            return Ok(());
        }
        self.refill(conn)
    }

    /// Admission's slow path: a chunk from the pool or, once the pool is
    /// dry, every slot's unused quota. Quota leaves a slot only through
    /// its own admissions or under the pool lock, so finding none anywhere
    /// means the structure is full.
    fn refill(&self, conn: ConnId) -> CfResult<()> {
        let mut pool = self.pool.lock();
        let got = if *pool > 0 {
            let chunk = (*pool).min(QUOTA_CHUNK);
            *pool -= chunk;
            chunk
        } else {
            self.shares.iter().map(|s| s.quota.swap(0, Ordering::Relaxed)).sum()
        };
        if got == 0 {
            return Err(CfError::StructureFull);
        }
        // One credit admits this entry; the rest is the slot's.
        self.shares[conn.index()].quota.fetch_add(got - 1, Ordering::Relaxed);
        Ok(())
    }

    /// An entry is gone: its capacity goes to the slot that removed it.
    #[inline]
    fn credit(&self, conn: ConnId) {
        self.shares[conn.index()].quota.fetch_add(1, Ordering::Relaxed);
    }

    /// Structure name as allocated in the facility.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of list headers.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Number of serializing lock entries.
    pub fn lock_entry_count(&self) -> usize {
        self.locks.len()
    }

    /// Attach a connector, allocating a list-notification vector of
    /// `vector_len` bits (at most [`crate::types::MAX_VECTOR_BITS`]).
    pub fn connect(&self, vector_len: usize) -> CfResult<ListConnection> {
        let (id, vector) = self.connectors.connect(vector_len, |_| ())?;
        Ok(ListConnection { id, vector, event: Arc::new(ConnEvent::default()) })
    }

    #[inline]
    fn check_active(&self, conn: ConnId) -> CfResult<()> {
        self.connectors.check_active(conn)
    }

    #[inline]
    fn check_header(&self, header: usize) -> CfResult<()> {
        if header >= self.headers.len() {
            Err(CfError::BadParameter("header index out of range"))
        } else {
            Ok(())
        }
    }

    fn check_condition(&self, conn: ConnId, cond: LockCondition) -> CfResult<()> {
        match cond {
            LockCondition::None => Ok(()),
            LockCondition::LockFree(idx) => {
                let raw = self
                    .locks
                    .get(idx)
                    .ok_or(CfError::BadParameter("lock entry index out of range"))?
                    .load(Ordering::Acquire);
                if raw == 0 {
                    Ok(())
                } else {
                    self.stats.lock_rejections.incr(conn);
                    Err(CfError::LockHeld { holder: ConnId::from_raw((raw - 1) as u8) })
                }
            }
            LockCondition::HeldBySelf(idx) => {
                let raw = self
                    .locks
                    .get(idx)
                    .ok_or(CfError::BadParameter("lock entry index out of range"))?
                    .load(Ordering::Acquire);
                if raw == conn.raw() as u32 + 1 {
                    Ok(())
                } else {
                    Err(CfError::NotLockHolder)
                }
            }
        }
    }

    /// Signal monitors after an empty→non-empty transition (header mutex
    /// must be held by the caller).
    fn signal_transition(&self, by: ConnId, header_idx: usize, header: &Header) {
        for m in &header.monitors {
            m.vector.set(m.vector_index as usize);
            m.event.pulse();
            self.stats.transitions.incr(by);
        }
        if !header.monitors.is_empty() {
            // One relaxed-cost atomic load when no tracer is attached.
            if let Some((tracer, sid)) = self.trace.get() {
                tracer.emit(
                    crate::trace::TRACE_SYSTEM_CF,
                    *sid,
                    crate::trace::TraceEvent::ListTransition { header: header_idx as u64 },
                );
            }
        }
    }

    fn signal_empty(&self, header: &Header) {
        for m in &header.monitors {
            m.vector.clear(m.vector_index as usize);
        }
    }

    /// Create a new entry on `header`.
    pub fn write_entry(
        &self,
        conn: &ListConnection,
        header: usize,
        key: u64,
        data: &[u8],
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<EntryId> {
        self.check_active(conn.id)?;
        self.check_header(header)?;
        self.check_condition(conn.id, cond)?;
        self.admit(conn.id)?;
        let id = self.next_id(conn.id);
        let entry = StoredEntry { id, key, data: data.to_vec(), version: 1 };
        let mut h = self.headers[header].lock();
        let was_empty = h.entries.is_empty();
        match position {
            WritePosition::Head => h.entries.push_front(entry),
            WritePosition::Tail => h.entries.push_back(entry),
            WritePosition::Keyed => {
                // Ascending key order, FIFO among equal keys.
                let pos = h.entries.partition_point(|e| e.key <= key);
                h.entries.insert(pos, entry);
            }
        }
        self.stats.writes.incr(conn.id);
        if was_empty {
            self.signal_transition(conn.id, header, &h);
        }
        // Publish the location while the header is still locked: a consumer
        // woken by the transition signal may claim (move) this entry the
        // instant the lock drops, and its index update must not be
        // overwritten by ours.
        self.index_shard(id).lock().insert(id, header);
        Ok(id)
    }

    /// Replace the data (and key) of an existing entry, with an optional
    /// version check for optimistic concurrency.
    pub fn update_entry(
        &self,
        conn: &ListConnection,
        id: EntryId,
        key: u64,
        data: &[u8],
        expected_version: Option<u64>,
        cond: LockCondition,
    ) -> CfResult<u64> {
        self.check_active(conn.id)?;
        self.check_condition(conn.id, cond)?;
        loop {
            let header = *self.index_shard(id).lock().get(&id).ok_or(CfError::NoSuchEntry)?;
            let mut h = self.headers[header].lock();
            let Some(pos) = h.entries.iter().position(|e| e.id == id) else {
                continue; // moved between index read and header lock; retry
            };
            let e = &mut h.entries[pos];
            if let Some(exp) = expected_version {
                if e.version != exp {
                    return Err(CfError::VersionMismatch { expected: exp, found: e.version });
                }
            }
            e.key = key;
            e.data = data.to_vec();
            e.version += 1;
            return Ok(e.version);
        }
    }

    /// Read an entry by identity.
    pub fn read_entry(&self, conn: &ListConnection, id: EntryId) -> CfResult<EntryView> {
        self.check_active(conn.id)?;
        loop {
            let header = *self.index_shard(id).lock().get(&id).ok_or(CfError::NoSuchEntry)?;
            let h = self.headers[header].lock();
            if let Some(e) = h.entries.iter().find(|e| e.id == id) {
                return Ok(EntryView {
                    id: e.id,
                    key: e.key,
                    data: e.data.clone(),
                    header,
                    version: e.version,
                });
            }
        }
    }

    /// Delete an entry by identity.
    pub fn delete_entry(&self, conn: &ListConnection, id: EntryId, cond: LockCondition) -> CfResult<()> {
        self.check_active(conn.id)?;
        self.check_condition(conn.id, cond)?;
        loop {
            let header = *self.index_shard(id).lock().get(&id).ok_or(CfError::NoSuchEntry)?;
            let mut h = self.headers[header].lock();
            let Some(pos) = h.entries.iter().position(|e| e.id == id) else {
                continue;
            };
            h.entries.remove(pos);
            if h.entries.is_empty() {
                self.signal_empty(&h);
            }
            self.index_shard(id).lock().remove(&id);
            drop(h);
            self.credit(conn.id);
            self.stats.deletes.incr(conn.id);
            return Ok(());
        }
    }

    /// Atomically move an entry to another header. The entry is never
    /// observable on zero or two headers: both header mutexes are held
    /// (in index order) for the transfer.
    pub fn move_entry(
        &self,
        conn: &ListConnection,
        id: EntryId,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<()> {
        self.check_active(conn.id)?;
        self.check_header(to_header)?;
        self.check_condition(conn.id, cond)?;
        loop {
            let from_header = *self.index_shard(id).lock().get(&id).ok_or(CfError::NoSuchEntry)?;
            if from_header == to_header {
                return Ok(());
            }
            let (lo, hi) =
                if from_header < to_header { (from_header, to_header) } else { (to_header, from_header) };
            let mut h_lo = self.headers[lo].lock();
            let mut h_hi = self.headers[hi].lock();
            let (src, dst) =
                if from_header == lo { (&mut *h_lo, &mut *h_hi) } else { (&mut *h_hi, &mut *h_lo) };
            let Some(pos) = src.entries.iter().position(|e| e.id == id) else {
                continue;
            };
            let entry = src.entries.remove(pos).unwrap();
            if src.entries.is_empty() {
                self.signal_empty(src);
            }
            let was_empty = dst.entries.is_empty();
            match position {
                WritePosition::Head => dst.entries.push_front(entry),
                WritePosition::Tail => dst.entries.push_back(entry),
                WritePosition::Keyed => {
                    let key = entry.key;
                    let pos = dst.entries.partition_point(|e| e.key <= key);
                    dst.entries.insert(pos, entry);
                }
            }
            if was_empty {
                self.signal_transition(conn.id, to_header, dst);
            }
            self.index_shard(id).lock().insert(id, to_header);
            drop(h_lo);
            drop(h_hi);
            self.stats.moves.incr(conn.id);
            return Ok(());
        }
    }

    /// Atomically move an entry to another header **only if it currently
    /// sits on `expected_from`** — the conditional claim exploiters use
    /// when selecting a specific entry (not just the head) from a shared
    /// queue: two claimants race, exactly one sees the entry still on the
    /// source header and wins. Returns whether the move happened.
    pub fn move_entry_from(
        &self,
        conn: &ListConnection,
        id: EntryId,
        expected_from: usize,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<bool> {
        self.check_active(conn.id)?;
        self.check_header(expected_from)?;
        self.check_header(to_header)?;
        self.check_condition(conn.id, cond)?;
        if expected_from == to_header {
            return Ok(true);
        }
        let (lo, hi) =
            if expected_from < to_header { (expected_from, to_header) } else { (to_header, expected_from) };
        let mut h_lo = self.headers[lo].lock();
        let mut h_hi = self.headers[hi].lock();
        let (src, dst) =
            if expected_from == lo { (&mut *h_lo, &mut *h_hi) } else { (&mut *h_hi, &mut *h_lo) };
        let Some(pos) = src.entries.iter().position(|e| e.id == id) else {
            return Ok(false); // not on the expected header: somebody else won
        };
        let entry = src.entries.remove(pos).unwrap();
        if src.entries.is_empty() {
            self.signal_empty(src);
        }
        let was_empty = dst.entries.is_empty();
        match position {
            WritePosition::Head => dst.entries.push_front(entry),
            WritePosition::Tail => dst.entries.push_back(entry),
            WritePosition::Keyed => {
                let key = entry.key;
                let pos = dst.entries.partition_point(|e| e.key <= key);
                dst.entries.insert(pos, entry);
            }
        }
        if was_empty {
            self.signal_transition(conn.id, to_header, dst);
        }
        self.index_shard(id).lock().insert(id, to_header);
        drop(h_lo);
        drop(h_hi);
        self.stats.moves.incr(conn.id);
        Ok(true)
    }

    /// Atomically move the entry at one end of `from` onto `to`: the
    /// combined READ_NEXT+MOVE exploiters use to claim a work item onto a
    /// private in-flight list with no window in which the item exists on
    /// zero lists (a consumer crash mid-claim can always be recovered by
    /// scanning its in-flight header).
    pub fn move_first(
        &self,
        conn: &ListConnection,
        from: usize,
        to: usize,
        end: DequeueEnd,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<Option<EntryView>> {
        self.check_active(conn.id)?;
        self.check_header(from)?;
        self.check_header(to)?;
        self.check_condition(conn.id, cond)?;
        if from == to {
            return Err(CfError::BadParameter("move_first requires distinct headers"));
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let mut h_lo = self.headers[lo].lock();
        let mut h_hi = self.headers[hi].lock();
        let (src, dst) = if from == lo { (&mut *h_lo, &mut *h_hi) } else { (&mut *h_hi, &mut *h_lo) };
        let entry = match end {
            DequeueEnd::Head => src.entries.pop_front(),
            DequeueEnd::Tail => src.entries.pop_back(),
        };
        let Some(entry) = entry else { return Ok(None) };
        if src.entries.is_empty() {
            self.signal_empty(src);
        }
        let view = EntryView {
            id: entry.id,
            key: entry.key,
            data: entry.data.clone(),
            header: to,
            version: entry.version,
        };
        let was_empty = dst.entries.is_empty();
        match position {
            WritePosition::Head => dst.entries.push_front(entry),
            WritePosition::Tail => dst.entries.push_back(entry),
            WritePosition::Keyed => {
                let key = view.key;
                let pos = dst.entries.partition_point(|e| e.key <= key);
                dst.entries.insert(pos, entry);
            }
        }
        if was_empty {
            self.signal_transition(conn.id, to, dst);
        }
        self.index_shard(view.id).lock().insert(view.id, to);
        drop(h_lo);
        drop(h_hi);
        self.stats.moves.incr(conn.id);
        Ok(Some(view))
    }

    /// Remove and return the entry at one end of a header (shared work
    /// queue consumption).
    pub fn dequeue(
        &self,
        conn: &ListConnection,
        header: usize,
        end: DequeueEnd,
        cond: LockCondition,
    ) -> CfResult<Option<EntryView>> {
        self.check_active(conn.id)?;
        self.check_header(header)?;
        self.check_condition(conn.id, cond)?;
        let mut h = self.headers[header].lock();
        let entry = match end {
            DequeueEnd::Head => h.entries.pop_front(),
            DequeueEnd::Tail => h.entries.pop_back(),
        };
        let Some(e) = entry else { return Ok(None) };
        if h.entries.is_empty() {
            self.signal_empty(&h);
        }
        self.index_shard(e.id).lock().remove(&e.id);
        drop(h);
        self.credit(conn.id);
        self.stats.dequeues.incr(conn.id);
        self.stats.deletes.incr(conn.id);
        Ok(Some(EntryView { id: e.id, key: e.key, data: e.data, header, version: e.version }))
    }

    /// Snapshot every entry on a header, in queue order.
    pub fn read_list(&self, conn: &ListConnection, header: usize) -> CfResult<Vec<EntryView>> {
        self.check_active(conn.id)?;
        self.check_header(header)?;
        let h = self.headers[header].lock();
        Ok(h.entries
            .iter()
            .map(|e| EntryView { id: e.id, key: e.key, data: e.data.clone(), header, version: e.version })
            .collect())
    }

    /// Entries currently queued to a header.
    pub fn header_len(&self, header: usize) -> CfResult<usize> {
        self.check_header(header)?;
        Ok(self.headers[header].lock().entries.len())
    }

    /// Total entries in the structure (exact once writers are quiet).
    pub fn entry_count(&self) -> usize {
        self.index.iter().map(|shard| shard.lock().len()).sum()
    }

    // ----- serializing lock entries -----

    /// Try to acquire a serializing lock entry. Returns false when held by
    /// another connector. Re-acquisition by the holder is idempotent.
    pub fn acquire_lock(&self, conn: &ListConnection, lock_index: usize) -> CfResult<bool> {
        self.check_active(conn.id)?;
        let slot =
            self.locks.get(lock_index).ok_or(CfError::BadParameter("lock entry index out of range"))?;
        let me = conn.id.raw() as u32 + 1;
        match slot.compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Ok(true),
            Err(cur) => Ok(cur == me),
        }
    }

    /// Release a serializing lock entry held by this connector.
    pub fn release_lock(&self, conn: &ListConnection, lock_index: usize) -> CfResult<()> {
        self.check_active(conn.id)?;
        let slot =
            self.locks.get(lock_index).ok_or(CfError::BadParameter("lock entry index out of range"))?;
        let me = conn.id.raw() as u32 + 1;
        slot.compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(|_| CfError::NotLockHolder)
    }

    /// Current holder of a lock entry.
    pub fn lock_holder(&self, lock_index: usize) -> CfResult<Option<ConnId>> {
        let slot =
            self.locks.get(lock_index).ok_or(CfError::BadParameter("lock entry index out of range"))?;
        let raw = slot.load(Ordering::Acquire);
        Ok(if raw == 0 { None } else { Some(ConnId::from_raw((raw - 1) as u8)) })
    }

    // ----- transition monitoring -----

    /// Register interest in a header's empty/non-empty state. The bit at
    /// `vector_index` immediately reflects the current state.
    pub fn register_monitor(&self, conn: &ListConnection, header: usize, vector_index: u32) -> CfResult<()> {
        self.check_active(conn.id)?;
        self.check_header(header)?;
        if vector_index as usize >= conn.vector.len() {
            return Err(CfError::BadParameter("vector index out of range"));
        }
        let mut h = self.headers[header].lock();
        h.monitors.retain(|m| m.conn != conn.id);
        h.monitors.push(MonitorReg {
            conn: conn.id,
            vector: Arc::clone(&conn.vector),
            vector_index,
            event: Arc::clone(&conn.event),
        });
        if h.entries.is_empty() {
            conn.vector.clear(vector_index as usize);
        } else {
            conn.vector.set(vector_index as usize);
        }
        Ok(())
    }

    /// Remove this connector's monitor on a header.
    pub fn deregister_monitor(&self, conn: &ListConnection, header: usize) -> CfResult<()> {
        self.check_active(conn.id)?;
        self.check_header(header)?;
        self.headers[header].lock().monitors.retain(|m| m.conn != conn.id);
        Ok(())
    }

    /// Copy every entry (in order) and every held serializing lock into
    /// `target` — structure rebuild for list exploiters moving to another
    /// CF. Entry identities are NOT preserved (the target assigns fresh
    /// ids); exploiters re-resolve by key/content, as VTAM and the shared
    /// queues do. The source should be quiesced by the caller.
    pub fn copy_into(&self, target: &ListStructure) -> CfResult<usize> {
        if target.header_count() < self.header_count() || target.lock_entry_count() < self.locks.len() {
            return Err(CfError::BadParameter("target geometry too small"));
        }
        // A temporary connector performs the writes.
        let conn = target.connect(1)?;
        let mut copied = 0;
        for h in 0..self.header_count() {
            let entries: Vec<EntryView> = {
                let hdr = self.headers[h].lock();
                hdr.entries
                    .iter()
                    .map(|e| EntryView {
                        id: e.id,
                        key: e.key,
                        data: e.data.clone(),
                        header: h,
                        version: e.version,
                    })
                    .collect()
            };
            for e in entries {
                target.write_entry(&conn, h, e.key, &e.data, WritePosition::Tail, LockCondition::None)?;
                copied += 1;
            }
        }
        // Disconnect the temporary connector first: disconnect releases
        // any lock entries held by its slot, which must not clobber the
        // holder state copied below.
        target.disconnect(&conn)?;
        for (i, l) in self.locks.iter().enumerate() {
            let raw = l.load(Ordering::Acquire);
            if raw != 0 {
                target.locks[i].store(raw, Ordering::Release);
            }
        }
        Ok(copied)
    }

    /// Detach a connector: releases its serializing locks and monitors,
    /// and returns its unused quota to the pool. List entries persist —
    /// lists hold shared state, not per-connector state.
    pub fn disconnect(&self, conn: &ListConnection) -> CfResult<()> {
        self.check_active(conn.id)?;
        let me = conn.id.raw() as u32 + 1;
        for l in self.locks.iter() {
            let _ = l.compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire);
        }
        for h in self.headers.iter() {
            h.lock().monitors.retain(|m| m.conn != conn.id);
        }
        self.connectors.release(conn.id);
        let mut pool = self.pool.lock();
        *pool += self.shares[conn.id.index()].quota.swap(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure(headers: usize) -> ListStructure {
        ListStructure::new("Q", &ListParams::with_headers(headers).with_locks(4)).unwrap()
    }

    #[test]
    fn fifo_and_lifo_ordering() {
        let s = structure(2);
        let c = s.connect(8).unwrap();
        for i in 1..=3u64 {
            s.write_entry(&c, 0, i, &i.to_be_bytes(), WritePosition::Tail, LockCondition::None).unwrap();
        }
        // FIFO: tail-write + head-dequeue.
        let got: Vec<u64> = (0..3)
            .map(|_| s.dequeue(&c, 0, DequeueEnd::Head, LockCondition::None).unwrap().unwrap().key)
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
        // LIFO: head-write + head-dequeue.
        for i in 1..=3u64 {
            s.write_entry(&c, 1, i, b"", WritePosition::Head, LockCondition::None).unwrap();
        }
        let got: Vec<u64> = (0..3)
            .map(|_| s.dequeue(&c, 1, DequeueEnd::Head, LockCondition::None).unwrap().unwrap().key)
            .collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn keyed_insert_collates_with_fifo_within_key() {
        let s = structure(1);
        let c = s.connect(8).unwrap();
        let e5a = s.write_entry(&c, 0, 5, b"a", WritePosition::Keyed, LockCondition::None).unwrap();
        let _e9 = s.write_entry(&c, 0, 9, b"", WritePosition::Keyed, LockCondition::None).unwrap();
        let _e1 = s.write_entry(&c, 0, 1, b"", WritePosition::Keyed, LockCondition::None).unwrap();
        let e5b = s.write_entry(&c, 0, 5, b"b", WritePosition::Keyed, LockCondition::None).unwrap();
        let keys: Vec<(u64, EntryId)> =
            s.read_list(&c, 0).unwrap().into_iter().map(|e| (e.key, e.id)).collect();
        assert_eq!(keys.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1, 5, 5, 9]);
        assert_eq!(keys[1].1, e5a, "first-written key-5 entry comes first");
        assert_eq!(keys[2].1, e5b);
    }

    #[test]
    fn move_is_atomic_and_signals_target_monitors() {
        let s = structure(2);
        let producer = s.connect(8).unwrap();
        let consumer = s.connect(8).unwrap();
        s.register_monitor(&consumer, 1, 0).unwrap();
        assert!(!consumer.vector.test(0));
        let id = s.write_entry(&producer, 0, 1, b"work", WritePosition::Tail, LockCondition::None).unwrap();
        s.move_entry(&producer, id, 1, WritePosition::Tail, LockCondition::None).unwrap();
        assert_eq!(s.header_len(0).unwrap(), 0);
        assert_eq!(s.header_len(1).unwrap(), 1);
        assert!(consumer.vector.test(0), "empty→non-empty transition signalled");
        let e = s.read_entry(&consumer, id).unwrap();
        assert_eq!(e.header, 1);
        assert_eq!(e.data, b"work");
    }

    #[test]
    fn move_first_claims_atomically_under_racing_consumers() {
        let s = Arc::new(structure(3)); // 0 = ready, 1..=2 = per-consumer
        let p = s.connect(8).unwrap();
        let total = 500u64;
        for i in 0..total {
            s.write_entry(&p, 0, i, b"w", WritePosition::Tail, LockCondition::None).unwrap();
        }
        let mut handles = Vec::new();
        for me in 1..=2usize {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let c = s.connect(8).unwrap();
                let mut claimed = 0u64;
                while s
                    .move_first(&c, 0, me, DequeueEnd::Head, WritePosition::Tail, LockCondition::None)
                    .unwrap()
                    .is_some()
                {
                    claimed += 1;
                }
                claimed
            }));
        }
        let claims: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(claims.iter().sum::<u64>(), total, "every item claimed exactly once");
        assert_eq!(s.header_len(0).unwrap(), 0);
        assert_eq!(
            s.header_len(1).unwrap() + s.header_len(2).unwrap(),
            total as usize,
            "all items live on in-flight headers"
        );
        assert_eq!(s.entry_count(), total as usize, "no entry lost or duplicated");
    }

    #[test]
    fn move_entry_from_is_a_conditional_claim() {
        let s = Arc::new(structure(3));
        let c = s.connect(8).unwrap();
        let id = s.write_entry(&c, 0, 5, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        // Claimant A wins.
        assert!(s.move_entry_from(&c, id, 0, 1, WritePosition::Keyed, LockCondition::None).unwrap());
        // Claimant B expected it on header 0: loses cleanly, no steal.
        assert!(!s.move_entry_from(&c, id, 0, 2, WritePosition::Tail, LockCondition::None).unwrap());
        assert_eq!(s.header_len(1).unwrap(), 1);
        assert_eq!(s.header_len(2).unwrap(), 0);
        // Racing claimants: exactly one wins.
        let total = 200u64;
        let ids: Vec<EntryId> = (0..total)
            .map(|i| s.write_entry(&c, 0, i, b"w", WritePosition::Tail, LockCondition::None).unwrap())
            .collect();
        let mut handles = Vec::new();
        for me in 1..=2usize {
            let s = Arc::clone(&s);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                let conn = s.connect(8).unwrap();
                ids.iter()
                    .filter(|id| {
                        s.move_entry_from(&conn, **id, 0, me, WritePosition::Tail, LockCondition::None)
                            .unwrap()
                    })
                    .count()
            }));
        }
        let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(wins as u64, total, "every entry claimed exactly once");
        assert_eq!(s.header_len(0).unwrap(), 0);
    }

    #[test]
    fn move_first_rejects_same_header_and_empty_source() {
        let s = structure(2);
        let c = s.connect(8).unwrap();
        assert!(matches!(
            s.move_first(&c, 0, 0, DequeueEnd::Head, WritePosition::Tail, LockCondition::None),
            Err(CfError::BadParameter(_))
        ));
        assert_eq!(
            s.move_first(&c, 0, 1, DequeueEnd::Head, WritePosition::Tail, LockCondition::None).unwrap(),
            None
        );
    }

    #[test]
    fn transition_signal_fires_on_empty_to_nonempty_only() {
        let s = structure(1);
        let p = s.connect(8).unwrap();
        let m = s.connect(8).unwrap();
        s.register_monitor(&m, 0, 3).unwrap();
        s.write_entry(&p, 0, 1, b"", WritePosition::Tail, LockCondition::None).unwrap();
        assert_eq!(s.stats.transitions.get(), 1);
        // Second write: header already non-empty, no new signal.
        s.write_entry(&p, 0, 2, b"", WritePosition::Tail, LockCondition::None).unwrap();
        assert_eq!(s.stats.transitions.get(), 1);
        // Drain: bit clears when list goes empty.
        s.dequeue(&p, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        assert!(m.vector.test(3));
        s.dequeue(&p, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        assert!(!m.vector.test(3));
    }

    #[test]
    fn monitor_wakeup_event_unblocks_waiter() {
        let s = Arc::new(structure(1));
        let p = s.connect(8).unwrap();
        let m = s.connect(8).unwrap();
        s.register_monitor(&m, 0, 0).unwrap();
        let seen = m.event.generation();
        let waiter = {
            let m = m.clone();
            std::thread::spawn(move || m.event.wait_newer(seen, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        s.write_entry(&p, 0, 1, b"", WritePosition::Tail, LockCondition::None).unwrap();
        assert!(waiter.join().unwrap(), "waiter woken by transition");
    }

    #[test]
    fn serialized_list_recovery_protocol() {
        let s = structure(1);
        let mainline = s.connect(8).unwrap();
        let recovery = s.connect(8).unwrap();
        // Mainline writes conditionally on lock 0 being free.
        s.write_entry(&mainline, 0, 1, b"", WritePosition::Tail, LockCondition::LockFree(0)).unwrap();
        // Recovery takes the lock for a static view.
        assert!(s.acquire_lock(&recovery, 0).unwrap());
        let err =
            s.write_entry(&mainline, 0, 2, b"", WritePosition::Tail, LockCondition::LockFree(0)).unwrap_err();
        assert_eq!(err, CfError::LockHeld { holder: recovery.id });
        // Recovery-side ops require holding the lock.
        s.dequeue(&recovery, 0, DequeueEnd::Head, LockCondition::HeldBySelf(0)).unwrap();
        assert_eq!(
            s.dequeue(&mainline, 0, DequeueEnd::Head, LockCondition::HeldBySelf(0)).unwrap_err(),
            CfError::NotLockHolder
        );
        s.release_lock(&recovery, 0).unwrap();
        s.write_entry(&mainline, 0, 3, b"", WritePosition::Tail, LockCondition::LockFree(0)).unwrap();
        assert_eq!(s.stats.lock_rejections.get(), 1);
    }

    #[test]
    fn lock_entry_ownership() {
        let s = structure(1);
        let a = s.connect(8).unwrap();
        let b = s.connect(8).unwrap();
        assert!(s.acquire_lock(&a, 2).unwrap());
        assert!(s.acquire_lock(&a, 2).unwrap(), "re-acquire by holder is idempotent");
        assert!(!s.acquire_lock(&b, 2).unwrap());
        assert_eq!(s.release_lock(&b, 2).unwrap_err(), CfError::NotLockHolder);
        assert_eq!(s.lock_holder(2).unwrap(), Some(a.id));
        s.release_lock(&a, 2).unwrap();
        assert_eq!(s.lock_holder(2).unwrap(), None);
    }

    /// A connector slot is free to claim only once its disconnect is
    /// complete: a disconnect racing the slot's next owner must never
    /// deactivate that owner.
    #[test]
    fn slot_reuse_races_no_late_disconnect() {
        let s = structure(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..40_000 {
                        let c = s.connect(1).unwrap();
                        assert!(s.read_list(&c, 0).is_ok(), "slot {} deactivated under its owner", c.id);
                        s.disconnect(&c).unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn disconnect_releases_locks_but_keeps_entries() {
        let s = structure(1);
        let a = s.connect(8).unwrap();
        let b = s.connect(8).unwrap();
        s.acquire_lock(&a, 0).unwrap();
        s.write_entry(&a, 0, 1, b"persist", WritePosition::Tail, LockCondition::None).unwrap();
        s.disconnect(&a).unwrap();
        assert_eq!(s.lock_holder(0).unwrap(), None, "failed connector's lock freed");
        assert_eq!(s.header_len(0).unwrap(), 1, "entries persist");
        let e = s.dequeue(&b, 0, DequeueEnd::Head, LockCondition::None).unwrap().unwrap();
        assert_eq!(e.data, b"persist");
    }

    #[test]
    fn copy_into_preserves_order_and_locks() {
        let src = structure(2);
        let c = src.connect(4).unwrap();
        for i in [3u64, 1, 2] {
            src.write_entry(&c, 0, i, &i.to_be_bytes(), WritePosition::Keyed, LockCondition::None).unwrap();
        }
        src.write_entry(&c, 1, 9, b"other", WritePosition::Tail, LockCondition::None).unwrap();
        src.acquire_lock(&c, 2).unwrap();

        let dst = ListStructure::new("Q2", &ListParams::with_headers(2).with_locks(4)).unwrap();
        assert_eq!(src.copy_into(&dst).unwrap(), 4);
        let c2 = dst.connect(4).unwrap();
        let keys: Vec<u64> = dst.read_list(&c2, 0).unwrap().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3], "order preserved");
        assert_eq!(dst.read_list(&c2, 1).unwrap()[0].data, b"other");
        assert_eq!(dst.lock_holder(2).unwrap(), Some(c.id), "held lock carried over");
        // Geometry checks.
        let tiny = ListStructure::new("T", &ListParams::with_headers(1)).unwrap();
        assert!(matches!(src.copy_into(&tiny), Err(CfError::BadParameter(_))));
    }

    #[test]
    fn update_entry_versioning() {
        let s = structure(1);
        let c = s.connect(8).unwrap();
        let id = s.write_entry(&c, 0, 1, b"v1", WritePosition::Tail, LockCondition::None).unwrap();
        let v2 = s.update_entry(&c, id, 1, b"v2", Some(1), LockCondition::None).unwrap();
        assert_eq!(v2, 2);
        assert!(matches!(
            s.update_entry(&c, id, 1, b"v3", Some(1), LockCondition::None),
            Err(CfError::VersionMismatch { expected: 1, found: 2 })
        ));
        assert_eq!(s.read_entry(&c, id).unwrap().data, b"v2");
    }

    #[test]
    fn entry_budget_enforced() {
        let s = ListStructure::new("Q", &ListParams { headers: 1, lock_entries: 0, max_entries: 2 }).unwrap();
        let c = s.connect(8).unwrap();
        s.write_entry(&c, 0, 1, b"", WritePosition::Tail, LockCondition::None).unwrap();
        s.write_entry(&c, 0, 2, b"", WritePosition::Tail, LockCondition::None).unwrap();
        assert_eq!(
            s.write_entry(&c, 0, 3, b"", WritePosition::Tail, LockCondition::None).unwrap_err(),
            CfError::StructureFull
        );
        s.dequeue(&c, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        s.write_entry(&c, 0, 3, b"", WritePosition::Tail, LockCondition::None).unwrap();
    }

    /// Eight writers racing at the limit admit exactly `max_entries`: no
    /// more (the quota makes admission exact), no fewer (a dry pool steals
    /// spare quota before it says full).
    #[test]
    fn capacity_is_exact_under_racing_writers() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 40;
        const CAPACITY: usize = 100;
        let s =
            ListStructure::new("Q", &ListParams { headers: THREADS, lock_entries: 0, max_entries: CAPACITY })
                .unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        let admitted: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, barrier) = (&s, &barrier);
                    scope.spawn(move || {
                        let c = s.connect(1).unwrap();
                        barrier.wait();
                        (0..PER_THREAD)
                            .filter(|&i| {
                                s.write_entry(&c, t, i as u64, b"", WritePosition::Tail, LockCondition::None)
                                    .is_ok()
                            })
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(admitted, CAPACITY, "exactly `max_entries` writes admitted");
        assert_eq!(s.entry_count(), CAPACITY);
        let c = s.connect(1).unwrap();
        assert_eq!(
            s.write_entry(&c, 0, 0, b"", WritePosition::Tail, LockCondition::None).unwrap_err(),
            CfError::StructureFull
        );
    }

    /// Slot A holds spare quota it will not use; slot B still fills the
    /// structure exactly, and A's detach returns what it held.
    #[test]
    fn a_dry_pool_steals_spare_quota() {
        let s =
            ListStructure::new("Q", &ListParams { headers: 1, lock_entries: 0, max_entries: 10 }).unwrap();
        let a = s.connect(1).unwrap();
        let b = s.connect(1).unwrap();
        let write =
            |c: &ListConnection| s.write_entry(c, 0, 0, b"", WritePosition::Tail, LockCondition::None);
        // A's first write takes the whole pool (10 < one chunk) and keeps 9.
        write(&a).unwrap();
        for _ in 0..9 {
            write(&b).unwrap();
        }
        assert_eq!(write(&b).unwrap_err(), CfError::StructureFull);
        assert_eq!(write(&a).unwrap_err(), CfError::StructureFull);
        assert_eq!(s.entry_count(), 10);
        // B's dequeues credit B; the slot A held, reattached, steals them.
        s.dequeue(&b, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        s.dequeue(&b, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        s.disconnect(&a).unwrap();
        let a = s.connect(1).unwrap();
        write(&a).unwrap();
        write(&a).unwrap();
        assert_eq!(write(&a).unwrap_err(), CfError::StructureFull);
        // A detach with quota in hand returns it to the pool.
        s.dequeue(&a, 0, DequeueEnd::Head, LockCondition::None).unwrap();
        s.disconnect(&a).unwrap();
        assert_eq!(*s.pool.lock(), 1);
        write(&b).unwrap();
        assert_eq!(s.entry_count(), 10);
    }

    /// A slot's ids come in blocks no other slot draws from; refilling a
    /// block never repeats an id, and every id indexes in its slot's shard.
    #[test]
    fn entry_ids_stay_unique_across_block_refills() {
        let s = structure(1);
        let a = s.connect(1).unwrap();
        let b = s.connect(1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 * ID_BLOCK {
            for c in [&a, &b] {
                let id = s.write_entry(c, 0, i, b"", WritePosition::Tail, LockCondition::None).unwrap();
                assert!(seen.insert(id), "{id:?} issued twice");
                assert_eq!((id.0 / ID_BLOCK) as usize % INDEX_SHARDS, c.id.index(), "{id:?} off its shard");
                s.dequeue(c, 0, DequeueEnd::Head, LockCondition::None).unwrap();
            }
        }
        assert!(!seen.contains(&EntryId(0)));
    }

    /// The id cursor belongs to the slot, not the attachment: a slot's next
    /// owner goes on where the last one stopped.
    #[test]
    fn entry_ids_stay_unique_across_detach_and_reattach() {
        let s = structure(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let c = s.connect(1).unwrap();
            assert_eq!(c.id.index(), 0, "the same slot every time");
            for i in 0..ID_BLOCK / 2 + 1 {
                let id = s.write_entry(&c, 0, i, b"", WritePosition::Tail, LockCondition::None).unwrap();
                assert!(seen.insert(id), "{id:?} reissued after reattach");
            }
            s.disconnect(&c).unwrap();
        }
    }

    #[test]
    fn concurrent_producers_consumers_conserve_entries() {
        let s = Arc::new(structure(2));
        let total = 4000u64;
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let c = s.connect(8).unwrap();
                for i in 0..total / 4 {
                    s.write_entry(&c, 0, t * 1_000_000 + i, b"w", WritePosition::Tail, LockCondition::None)
                        .unwrap();
                }
            }));
        }
        let consumed = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let s = Arc::clone(&s);
            let consumed = Arc::clone(&consumed);
            handles.push(std::thread::spawn(move || {
                let c = s.connect(8).unwrap();
                loop {
                    match s.dequeue(&c, 0, DequeueEnd::Head, LockCondition::None).unwrap() {
                        Some(_) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if consumed.load(Ordering::Relaxed) >= total {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), total);
        assert_eq!(s.entry_count(), 0);
    }
}
