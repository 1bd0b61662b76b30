//! CF cache structures (§3.3.2).
//!
//! A cache structure is a multi-system shared-cache coherency manager. Its
//! **global buffer directory** tracks, per uniquely-named data block, which
//! connectors hold a copy in their local buffer pools. The protocol:
//!
//! 1. A buffer manager brings a block from DASD into a local buffer and
//!    *registers* interest, passing the block name and the index of the
//!    local-bit-vector bit it associated with that buffer
//!    ([`CacheStructure::read_and_register`]).
//! 2. Before reusing a local copy it *tests the bit locally* — an operation
//!    that never contacts the CF ([`CacheConnection::is_valid`]).
//! 3. When a peer updates the block it issues a single CF command; the CF
//!    consults the directory and sends **cross-invalidate signals in
//!    parallel to only those systems with registered interest**, each signal
//!    clearing the registered bit *without any processor interrupt or
//!    software involvement on the target* ([`CacheStructure::write_and_invalidate`]).
//! 4. A connector that finds its bit off re-registers; the CF may return a
//!    current copy from the structure's global data area, avoiding DASD I/O
//!    ("high-speed local buffer refresh").
//!
//! The structure can also hold **changed data** (store-in caching): commits
//! write to the CF instead of DASD and a background *castout* process later
//! destages to DASD. Changed data deliberately survives connector failure —
//! surviving members cast it out during recovery.

use crate::bitvec::BitVector;
use crate::error::{CfError, CfResult};
use crate::hashing::{fnv1a64, mix64};
use crate::slots::ConnectorSlots;
use crate::stats::SlotCounter;
use crate::types::{conns_in_mask, ConnId, ConnMask, MAX_CONNECTORS, MAX_VECTOR_BITS};
use crossbeam::utils::CachePadded;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Directory shard count. Must stay a power of two: `shard_of` reduces
/// the mixed hash with a mask, not a divide, on the per-command path.
const SHARD_COUNT: usize = 64;
const _: () = assert!(SHARD_COUNT.is_power_of_two());

/// The directory shard `name` lives in, for every life of its entry.
#[inline]
fn shard_index(name: &BlockName) -> usize {
    (mix64(fnv1a64(name.as_bytes())) as usize) & (SHARD_COUNT - 1)
}

/// A fixed 16-byte block name, as used by DB2/IMS buffer managers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockName([u8; 16]);

impl BlockName {
    /// Name from raw bytes (must be 16 bytes or fewer; zero-padded).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 16, "block names are at most 16 bytes");
        let mut buf = [0u8; 16];
        buf[..bytes.len()].copy_from_slice(bytes);
        BlockName(buf)
    }

    /// Name from a (database id, page number) pair.
    pub fn from_parts(db: u32, page: u64) -> Self {
        let mut buf = [0u8; 16];
        buf[..4].copy_from_slice(&db.to_be_bytes());
        buf[4..12].copy_from_slice(&page.to_be_bytes());
        BlockName(buf)
    }

    /// Raw bytes of the name.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Stable 64-bit digest of the name, for trace payload words. Non-zero
    /// for every name (0 is the "no block" sentinel in trace events).
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.0) | 1
    }
}

impl fmt::Debug for BlockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockName({:02x?})", &self.0)
    }
}

/// Caching discipline of the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheModel {
    /// Directory only: the CF tracks interest but caches no data. Refresh
    /// after invalidation re-reads DASD.
    DirectoryOnly,
    /// Data cached in the CF; changed data is also written to DASD by the
    /// connector at commit, so CF data is never the only copy.
    StoreThrough,
    /// Changed data lives only in the CF until cast out to DASD.
    StoreIn,
}

/// Allocation-time geometry of a cache structure.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Maximum directory entries.
    pub directory_entries: usize,
    /// Maximum bytes of cached block data.
    pub data_capacity: usize,
    /// Caching discipline.
    pub model: CacheModel,
}

impl CacheParams {
    /// A store-in cache with `entries` directory slots and a data area
    /// sized for `entries` 4 KiB blocks.
    pub fn store_in(entries: usize) -> Self {
        CacheParams { directory_entries: entries, data_capacity: entries * 4096, model: CacheModel::StoreIn }
    }

    /// A directory-only cache with `entries` slots.
    pub fn directory_only(entries: usize) -> Self {
        CacheParams { directory_entries: entries, data_capacity: 0, model: CacheModel::DirectoryOnly }
    }
}

/// Result of [`CacheStructure::read_and_register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterResult {
    /// The block data, when the structure holds a current copy.
    pub data: Option<Arc<Vec<u8>>>,
    /// Directory version of the block: its shard's clock when the entry
    /// was created or last written. A name always hashes to one shard and
    /// a shard's clock never goes back, so versions of one name only rise,
    /// across reclaim and re-creation too.
    pub version: u64,
    /// Whether the CF copy is changed data awaiting castout.
    pub changed: bool,
}

/// Result of [`CacheStructure::write_and_invalidate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResult {
    /// Number of peer connectors that received a cross-invalidate signal.
    pub invalidated: usize,
    /// New directory version of the block.
    pub version: u64,
}

/// The version a write gives its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteVersion {
    /// The shard's next tick, whatever the entry was at.
    Blind,
    /// The shard's next tick, and only while the entry is still at this
    /// version: a version-checked write.
    Expect(u64),
    /// This one — a duplex primary's — with the shard clock moved up to
    /// at least it, so a later write here still versions above it.
    Take(u64),
}

/// A write set's `(name, expected version, data)` blocks as the CF writes
/// them: version-checked where they name a version, blind elsewhere.
pub(crate) fn set_versions<B: AsRef<[u8]>>(
    blocks: &[(BlockName, Option<u64>, B)],
) -> impl Iterator<Item = (BlockName, WriteVersion, &[u8])> + Clone {
    blocks.iter().map(|(name, expect, data)| {
        (*name, expect.map_or(WriteVersion::Blind, WriteVersion::Expect), data.as_ref())
    })
}

/// Result of [`CacheStructure::write_and_invalidate_set`]: what each block
/// written got, in order, and the error that stopped the set before the
/// rest, if one did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSetResult {
    /// One result per block written, in the order the set named them.
    pub written: Vec<WriteResult>,
    /// Why the block after the last one written was not; `None` when all
    /// were.
    pub error: Option<CfError>,
}

/// One directory entry, as [`CacheStructure::directory`] shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryView {
    pub name: BlockName,
    /// Each registered connector slot, with the vector index it named.
    pub registered: Vec<(usize, u32)>,
    pub data: Option<Arc<Vec<u8>>>,
    pub changed: bool,
    pub version: u64,
    pub lru_tick: u64,
}

/// What a write stores in the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Store the block in the CF data area as *unchanged* (a DASD-consistent
    /// copy kept purely for high-speed refresh).
    CleanData,
    /// Store the block as *changed* — it must be cast out to DASD later.
    ChangedData,
    /// Directory-only invalidation: the data went straight to DASD.
    InvalidateOnly,
}

/// Counters published by a cache structure: counted per connector slot
/// (the connector whose command did the work), read as structure-wide sums.
#[derive(Debug)]
pub struct CacheStats {
    /// `read_and_register` commands.
    pub reads: SlotCounter,
    /// Reads satisfied from the CF data area (no DASD I/O needed).
    pub read_hits: SlotCounter,
    /// `write_and_invalidate` commands.
    pub writes: SlotCounter,
    /// Cross-invalidate signals sent to peer connectors.
    pub xi_signals: SlotCounter,
    /// Directory entries reclaimed to make room.
    pub reclaims: SlotCounter,
    /// Castout operations completed.
    pub castouts: SlotCounter,
}

impl Default for CacheStats {
    fn default() -> Self {
        let [reads, read_hits, writes, xi_signals, reclaims, castouts] = SlotCounter::block();
        CacheStats { reads, read_hits, writes, xi_signals, reclaims, castouts }
    }
}

/// A registration packed in one word: the connector slot above the
/// local-vector index (a slot is < 32, an index < `MAX_VECTOR_BITS`).
const SLOT_SHIFT: u32 = 24;
const INDEX_MASK: u32 = (1 << SLOT_SHIFT) - 1;
const _: () = assert!(MAX_VECTOR_BITS <= 1 << SLOT_SHIFT && MAX_CONNECTORS <= 1 << (32 - SLOT_SHIFT));

#[inline]
fn pack(slot: usize, index: u32) -> u32 {
    (slot as u32) << SLOT_SHIFT | index
}

/// One directory entry: with its name, one 64-byte line.
///
/// Interest is a connector mask plus the index each registrant named.
/// A block is held by one or two members almost always, so the first two
/// registrations sit inline; a third spills every registration to a
/// table indexed by slot, kept until a write leaves one registrant.
#[derive(Debug)]
struct DirEntry {
    /// Bit `s`: connector slot `s` is registered.
    mask: ConnMask,
    /// Unspilled: the registrations, [`pack`]ed, in the first
    /// `mask.count_ones()` cells.
    inline: [u32; 2],
    /// Spilled: each registered slot's index, at its slot.
    spill: Option<Box<[u32; MAX_CONNECTORS]>>,
    data: Option<Arc<Vec<u8>>>,
    changed: bool,
    /// The castout lock: the slot whose castout read the entry and has not
    /// completed it.
    castout: Option<u8>,
    version: u64,
    /// Shard clock at the last command that touched the entry.
    lru_tick: u64,
}

const _: () = assert!(std::mem::size_of::<(BlockName, DirEntry)>() <= 64);

impl DirEntry {
    fn new(tick: u64) -> Self {
        DirEntry {
            mask: 0,
            inline: [0; 2],
            spill: None,
            data: None,
            changed: false,
            castout: None,
            version: tick,
            lru_tick: tick,
        }
    }

    /// The inline cell holding `slot`'s registration (unspilled only).
    fn cell(&self, slot: usize) -> Option<usize> {
        let n = self.mask.count_ones() as usize;
        self.inline[..n].iter().position(|&p| p >> SLOT_SHIFT == slot as u32)
    }

    /// The index `slot` registered, if it is registered.
    fn index_of(&self, slot: usize) -> Option<u32> {
        if self.mask & 1 << slot == 0 {
            return None;
        }
        match &self.spill {
            Some(table) => Some(table[slot]),
            None => self.cell(slot).map(|c| self.inline[c] & INDEX_MASK),
        }
    }

    /// Register `slot` at `index`, replacing any index it registered before.
    fn register(&mut self, slot: usize, index: u32) {
        if let Some(table) = &mut self.spill {
            table[slot] = index;
        } else if let Some(c) = self.cell(slot) {
            self.inline[c] = pack(slot, index);
        } else if let Some(free) = self.inline.get_mut(self.mask.count_ones() as usize) {
            *free = pack(slot, index);
        } else {
            let mut table = Box::new([0; MAX_CONNECTORS]);
            for p in self.inline {
                table[(p >> SLOT_SHIFT) as usize] = p & INDEX_MASK;
            }
            table[slot] = index;
            self.spill = Some(table);
        }
        self.mask |= 1 << slot;
    }

    /// Drop `slot`'s registration, if any.
    fn unregister(&mut self, slot: usize) {
        if self.spill.is_none() {
            if let Some(cell) = self.cell(slot) {
                self.inline.swap(cell, self.mask.count_ones() as usize - 1);
            }
        }
        self.mask &= !(1 << slot);
    }

    /// Every registration, in ascending slot order.
    fn registrations(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            let slot = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            self.index_of(slot).map(|index| (slot, index))
        })
    }

    /// Drop every registration but `keep`'s, handing each to `signal` in
    /// ascending slot order; how many went. What is left fits inline.
    fn take_peers(&mut self, keep: usize, mut signal: impl FnMut(usize, u32)) -> usize {
        if self.mask & !(1 << keep) == 0 {
            return 0;
        }
        let mut taken = 0;
        for (slot, index) in self.registrations().filter(|&(slot, _)| slot != keep) {
            signal(slot, index);
            taken += 1;
        }
        let kept = self.index_of(keep);
        self.mask &= 1 << keep;
        self.spill = None;
        if let Some(index) = kept {
            self.inline[0] = pack(keep, index);
        }
        taken
    }
}

/// One shard of the global buffer directory.
#[derive(Debug, Default)]
struct Directory {
    entries: HashMap<BlockName, DirEntry>,
    /// Bumped by every command that touches an entry here, under the
    /// shard's write lock: the LRU stamp and the version source, with no
    /// word shared across shards.
    clock: u64,
}

impl Directory {
    /// The next tick, and at least `floor`.
    fn tick(&mut self, floor: u64) -> u64 {
        self.clock = (self.clock + 1).max(floor);
        self.clock
    }

    /// Refuse a version-checked write of `name` unless its entry is at
    /// `expected`; a missing entry is found at the version a new one
    /// would get.
    fn expect(&self, name: BlockName, expected: u64) -> CfResult<()> {
        match self.entries.get(&name).map(|e| e.version) {
            Some(found) if found == expected => Ok(()),
            found => Err(CfError::VersionMismatch { expected, found: found.unwrap_or(self.clock + 1) }),
        }
    }
}

/// Each on its own line, so two connectors working through different
/// shards write nothing in common.
type Shard = CachePadded<RwLock<Directory>>;

/// A handle representing one connector's attachment to a cache structure.
///
/// Holds the connector's local bit vector — the piece of "protected
/// processor storage" that coupling-link hardware updates on invalidation.
#[derive(Debug, Clone)]
pub struct CacheConnection {
    /// Connector slot in the structure.
    pub id: ConnId,
    vector: Arc<BitVector>,
}

impl CacheConnection {
    /// Test buffer validity locally. Never contacts the CF — this is the
    /// new-CPU-instruction path of §3.3.2 and costs nanoseconds.
    #[inline]
    pub fn is_valid(&self, vector_index: u32) -> bool {
        self.vector.test(vector_index as usize)
    }

    /// Scrub the local validity bit for `vector_index`. Host-side, not a
    /// CF command: a buffer manager does this when it reassigns a frame so
    /// the new tenant can never inherit the old tenant's validity.
    #[inline]
    pub fn invalidate_local(&self, vector_index: u32) {
        self.vector.clear(vector_index as usize);
    }

    /// The raw vector (tests, diagnostics).
    pub fn vector(&self) -> &Arc<BitVector> {
        &self.vector
    }
}

/// A CF cache structure.
pub struct CacheStructure {
    name: String,
    shards: Box<[Shard]>,
    /// Attached connectors and their local vectors (cross-invalidate
    /// clears bits in a peer's).
    connectors: ConnectorSlots<Arc<BitVector>>,
    model: CacheModel,
    directory_capacity: usize,
    data_capacity: usize,
    entry_count: AtomicU64,
    data_bytes: AtomicU64,
    /// Next shard reclaim looks in; only reclaim moves it.
    reclaim_cursor: AtomicUsize,
    /// Published counters.
    pub stats: CacheStats,
    /// The duplex pair every connection joins (`crate::duplex`).
    pub(crate) duplex: crate::duplex::DuplexSlot<CacheStructure>,
    /// Known-bad hook: drop the cross-invalidate signal on the floor. The
    /// registration is still removed (the directory believes it signalled),
    /// but the peer's validity bit is left set — a lost XI, exactly the
    /// hardware fault the coherence protocol assumes cannot happen. Armed
    /// only by the harness's negative oracle tests.
    #[cfg(feature = "test-hooks")]
    lose_xi: std::sync::atomic::AtomicBool,
    /// Test pause: run once between a duplexed castout's completion here
    /// and its mirror, the window a peer's rewrite can land in.
    #[cfg(feature = "test-hooks")]
    castout_pause: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Known-bad hook: a write set's blocks are written whatever version
    /// their writer read them at — the lost update a conditional write
    /// exists to refuse.
    #[cfg(feature = "test-hooks")]
    ignore_expected: std::sync::atomic::AtomicBool,
}

impl fmt::Debug for CacheStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheStructure")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("entries", &self.entry_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl CacheStructure {
    /// Build a standalone structure (facilities use this; also handy in tests).
    pub fn new(name: &str, params: &CacheParams) -> CfResult<Self> {
        if params.directory_entries == 0 {
            return Err(CfError::BadParameter("cache must have at least one directory entry"));
        }
        if params.model != CacheModel::DirectoryOnly && params.data_capacity == 0 {
            return Err(CfError::BadParameter("data-caching model requires a data area"));
        }
        let shards = (0..SHARD_COUNT).map(|_| CachePadded::new(RwLock::default())).collect();
        Ok(CacheStructure {
            name: name.to_string(),
            shards,
            connectors: ConnectorSlots::new(),
            model: params.model,
            directory_capacity: params.directory_entries,
            data_capacity: params.data_capacity,
            entry_count: AtomicU64::new(0),
            data_bytes: AtomicU64::new(0),
            reclaim_cursor: AtomicUsize::new(0),
            stats: CacheStats::default(),
            duplex: Default::default(),
            #[cfg(feature = "test-hooks")]
            lose_xi: std::sync::atomic::AtomicBool::new(false),
            #[cfg(feature = "test-hooks")]
            castout_pause: parking_lot::Mutex::new(None),
            #[cfg(feature = "test-hooks")]
            ignore_expected: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Arm the version-ignoring known-bad hook (see field doc).
    #[cfg(feature = "test-hooks")]
    pub fn arm_ignore_expected(&self) {
        self.ignore_expected.store(true, Ordering::Relaxed);
    }

    /// Arm the lost-cross-invalidate known-bad hook (see field doc).
    #[cfg(feature = "test-hooks")]
    pub fn arm_lose_xi(&self) {
        self.lose_xi.store(true, Ordering::Relaxed);
    }

    /// Test hook: run `window` once, on the completing thread, after the
    /// next castout completion on this structure and before the
    /// connection mirrors it to a duplex secondary.
    #[cfg(feature = "test-hooks")]
    pub fn arm_castout_pause(&self, window: impl FnOnce() + Send + 'static) {
        *self.castout_pause.lock() = Some(Box::new(window));
    }

    /// Run the armed castout pause, if any (see [`Self::arm_castout_pause`]).
    #[cfg(feature = "test-hooks")]
    pub(crate) fn castout_paused(&self) {
        let window = self.castout_pause.lock().take();
        if let Some(window) = window {
            window();
        }
    }

    /// Structure name as allocated in the facility.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Caching discipline.
    pub fn model(&self) -> CacheModel {
        self.model
    }

    /// Attach a connector, allocating its local bit vector of `vector_len`
    /// bits (one per local buffer, at most
    /// [`crate::types::MAX_VECTOR_BITS`]). All bits start invalid.
    pub fn connect(&self, vector_len: usize) -> CfResult<CacheConnection> {
        let (id, vector) = self.connectors.connect(vector_len, Arc::clone)?;
        Ok(CacheConnection { id, vector })
    }

    #[inline]
    fn check_active(&self, conn: ConnId) -> CfResult<()> {
        self.connectors.check_active(conn)
    }

    #[inline]
    fn shard_of(&self, name: &BlockName) -> &Shard {
        &self.shards[shard_index(name)]
    }

    /// Run `f` on `name`'s entry with its shard's next tick, at least
    /// `floor`, creating the entry on a miss once room is made (counted
    /// against `by`). A hit hashes and probes the name once.
    fn with_entry<R>(
        &self,
        by: ConnId,
        name: BlockName,
        floor: u64,
        f: impl FnOnce(&mut DirEntry, u64) -> R,
    ) -> CfResult<R> {
        let mut shard = self.shard_of(&name).write();
        let Directory { entries, clock } = &mut *shard;
        if let Some(entry) = entries.get_mut(&name) {
            *clock = (*clock + 1).max(floor);
            return Ok(f(entry, *clock));
        }
        drop(shard);
        self.make_room_for_entry(by)?;
        let mut shard = self.shard_of(&name).write();
        let tick = shard.tick(floor);
        let entry = shard.entries.entry(name).or_insert_with(|| {
            self.entry_count.fetch_add(1, Ordering::Relaxed);
            DirEntry::new(tick)
        });
        Ok(f(entry, tick))
    }

    /// Register interest in `name`, associating local buffer bit
    /// `vector_index`, and return any current CF-cached copy.
    ///
    /// On return the connector's bit is **set** (valid): from this moment
    /// any peer write will clear it via a cross-invalidate signal. The
    /// caller must (re)fill its buffer from the returned data or from DASD
    /// *after* this call, never before.
    pub fn read_and_register(
        &self,
        conn: &CacheConnection,
        name: BlockName,
        vector_index: u32,
    ) -> CfResult<RegisterResult> {
        self.read_and_register_replacing(conn, name, vector_index, None)
    }

    /// [`CacheStructure::read_and_register`] for a buffer steal: also drop
    /// this connector's registration of `replaced`, the buffer's previous
    /// tenant, if it names `vector_index` — one command, not two.
    ///
    /// `name` is registered first, so a command that fails leaves the old
    /// registration standing: a later write of `replaced` may clear the
    /// bit spuriously, but no write can ever miss it.
    pub fn read_and_register_replacing(
        &self,
        conn: &CacheConnection,
        name: BlockName,
        vector_index: u32,
        replaced: Option<BlockName>,
    ) -> CfResult<RegisterResult> {
        self.check_active(conn.id)?;
        if vector_index as usize >= conn.vector.len() {
            return Err(CfError::BadParameter("vector index out of range"));
        }
        self.stats.reads.incr(conn.id);
        let slot = conn.id.index();
        let r = self.with_entry(conn.id, name, 0, |entry, tick| {
            entry.register(slot, vector_index);
            entry.lru_tick = tick;
            conn.vector.set(vector_index as usize);
            if entry.data.is_some() {
                self.stats.read_hits.incr(conn.id);
            }
            RegisterResult { data: entry.data.clone(), version: entry.version, changed: entry.changed }
        })?;
        if let Some(old) = replaced.filter(|&old| old != name) {
            let mut shard = self.shard_of(&old).write();
            if let Some(entry) = shard.entries.get_mut(&old) {
                if entry.index_of(slot) == Some(vector_index) {
                    entry.unregister(slot);
                }
            }
        }
        Ok(r)
    }

    /// Write a block and cross-invalidate every other registered connector.
    ///
    /// A blind write: the CF serialises it with every other write of the
    /// block and versions it, but takes its bytes whatever the writer read
    /// them at (a version-checked write goes through
    /// [`CacheStructure::write_and_invalidate_set`]). Signals are
    /// delivered by clearing each interested peer's registered bit — the
    /// peer is not interrupted and its registration is removed (it must
    /// re-register to become current again). The writer's own registration,
    /// if any, remains valid.
    pub fn write_and_invalidate(
        &self,
        conn: &CacheConnection,
        name: BlockName,
        data: &[u8],
        kind: WriteKind,
    ) -> CfResult<WriteResult> {
        self.write_at(conn, name, data, kind, WriteVersion::Blind)
    }

    /// [`CacheStructure::write_and_invalidate`] at `version`. An
    /// [`WriteVersion::Expect`] write is refused with
    /// [`CfError::VersionMismatch`], changing nothing — no room made, no
    /// entry created — unless the entry is still at that version: a
    /// writer's image read at an older one would overwrite what a later
    /// writer put there. An entry reclaimed since the read is refused too,
    /// `found` being the version a new entry would get.
    pub(crate) fn write_at(
        &self,
        conn: &CacheConnection,
        name: BlockName,
        data: &[u8],
        kind: WriteKind,
        version: WriteVersion,
    ) -> CfResult<WriteResult> {
        self.check_active(conn.id)?;
        match (self.model, kind) {
            (CacheModel::DirectoryOnly, WriteKind::CleanData | WriteKind::ChangedData) => {
                return Err(CfError::WrongModel)
            }
            (CacheModel::StoreThrough, WriteKind::ChangedData) => return Err(CfError::WrongModel),
            _ => {}
        }
        self.stats.writes.incr(conn.id);
        #[cfg(feature = "test-hooks")]
        let version = match version {
            WriteVersion::Expect(_) if self.ignore_expected.load(Ordering::Relaxed) => WriteVersion::Blind,
            version => version,
        };
        if let WriteVersion::Expect(expected) = version {
            self.shard_of(&name).read().expect(name, expected)?;
        }
        if kind != WriteKind::InvalidateOnly {
            self.make_room_for_data(conn.id, data.len())?;
        }
        let write = |entry: &mut DirEntry, tick: u64| {
            // The structure-wide vector table is locked only once a peer
            // turns out to be registered on this block: a write nobody else
            // has interest in signals nobody and shares nothing but its
            // shard.
            #[cfg(feature = "test-hooks")]
            let deliver = !self.lose_xi.load(Ordering::Relaxed);
            #[cfg(not(feature = "test-hooks"))]
            let deliver = true;
            let mut vectors = None;
            let invalidated = entry.take_peers(conn.id.index(), |slot, idx| {
                // The cross-invalidate signal: specialised link hardware
                // clears the bit; no interrupt, no software on the target.
                if deliver {
                    if let Some(v) = &vectors.get_or_insert_with(|| self.connectors.lock())[slot] {
                        v.clear(idx as usize);
                    }
                }
            });
            drop(vectors);
            if invalidated > 0 {
                self.stats.xi_signals.add(conn.id, invalidated as u64);
            }
            entry.version = match version {
                WriteVersion::Take(v) => v,
                WriteVersion::Blind | WriteVersion::Expect(_) => tick,
            };
            entry.lru_tick = tick;
            let new_data = (kind != WriteKind::InvalidateOnly).then(|| Arc::new(data.to_vec()));
            let (old_len, new_len) =
                (entry.data.as_ref().map_or(0, |d| d.len()), new_data.as_ref().map_or(0, |d| d.len()));
            entry.data = new_data;
            entry.changed = kind == WriteKind::ChangedData;
            // One net adjustment of the shared byte count, and none when a
            // block is replaced by one of the same size (every page rewrite).
            if new_len > old_len {
                self.data_bytes.fetch_add((new_len - old_len) as u64, Ordering::Relaxed);
            } else if old_len > new_len {
                self.data_bytes.fetch_sub((old_len - new_len) as u64, Ordering::Relaxed);
            }
            // Writer stays registered and valid.
            if let Some(idx) = entry.index_of(conn.id.index()) {
                conn.vector.set(idx as usize);
            }
            WriteResult { invalidated, version: entry.version }
        };
        match version {
            WriteVersion::Blind => self.with_entry(conn.id, name, 0, write),
            WriteVersion::Take(v) => self.with_entry(conn.id, name, v, write),
            // Checked again: making room may have reclaimed the entry, and
            // another writer may have got there since.
            WriteVersion::Expect(expected) => {
                let mut shard = self.shard_of(&name).write();
                shard.expect(name, expected)?;
                let tick = shard.tick(0);
                Ok(write(shard.entries.get_mut(&name).expect("the entry just checked"), tick))
            }
        }
    }

    /// Write `blocks` — `(name, expected version, data)` — in order, each
    /// exactly as [`write_and_invalidate`] would — its own
    /// cross-invalidates, its own version — as one command. A block with
    /// an expected version is written only if its entry is still at it
    /// (a version-checked write; `None` writes blind). A block that fails,
    /// a version that moved included, stops the set: the blocks before it
    /// stay written.
    ///
    /// [`write_and_invalidate`]: CacheStructure::write_and_invalidate
    pub fn write_and_invalidate_set<B: AsRef<[u8]>>(
        &self,
        conn: &CacheConnection,
        blocks: &[(BlockName, Option<u64>, B)],
        kind: WriteKind,
    ) -> WriteSetResult {
        self.write_set_at(conn, set_versions(blocks), kind)
    }

    /// [`CacheStructure::write_and_invalidate_set`] of `(name, version,
    /// data)` blocks, each at its own [`WriteVersion`].
    pub(crate) fn write_set_at<'a>(
        &self,
        conn: &CacheConnection,
        blocks: impl IntoIterator<Item = (BlockName, WriteVersion, &'a [u8])>,
        kind: WriteKind,
    ) -> WriteSetResult {
        let blocks = blocks.into_iter();
        let mut written = Vec::with_capacity(blocks.size_hint().0);
        for (name, version, data) in blocks {
            match self.write_at(conn, name, data, kind, version) {
                Ok(w) => written.push(w),
                Err(e) => return WriteSetResult { written, error: Some(e) },
            }
        }
        WriteSetResult { written, error: None }
    }

    /// Enumerate changed blocks awaiting castout, up to `max`, least
    /// recently touched first: by `(shard clock, shard, name)`, an order
    /// the command sequence alone decides.
    pub fn castout_candidates(&self, max: usize) -> Vec<BlockName> {
        let mut out: Vec<(u64, usize, BlockName)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.read();
            out.extend(
                shard.entries.iter().filter(|(_, e)| e.changed).map(|(name, e)| (e.lru_tick, si, *name)),
            );
        }
        // Only the `max` oldest are sorted: a sweep asks for a few hundred
        // of a directory's thousands.
        if max < out.len() {
            out.select_nth_unstable(max);
            out.truncate(max);
        }
        out.sort_unstable();
        out.into_iter().map(|(_, _, n)| n).collect()
    }

    /// Read a changed block for castout, returning its data and version,
    /// and take its castout lock: until this connector completes the
    /// castout, another's castout read finds no entry. Two castouts of one
    /// block would otherwise race their DASD writes, the older landing
    /// last over an image the CF has marked clean.
    pub fn read_for_castout(&self, conn: &CacheConnection, name: BlockName) -> CfResult<(Arc<Vec<u8>>, u64)> {
        self.check_active(conn.id)?;
        let slot = conn.id.index() as u8;
        let mut shard = self.shard_of(&name).write();
        let entry = shard.entries.get_mut(&name).ok_or(CfError::NoSuchEntry)?;
        if !entry.changed || entry.castout.is_some_and(|owner| owner != slot) {
            return Err(CfError::NoSuchEntry);
        }
        let data = entry.data.clone().ok_or(CfError::NoSuchEntry)?;
        entry.castout = Some(slot);
        Ok((data, entry.version))
    }

    /// A changed block's data and version, taking no lock: the copy that
    /// establishes a duplex pair.
    pub(crate) fn read_changed(&self, name: BlockName) -> CfResult<(Arc<Vec<u8>>, u64)> {
        let shard = self.shard_of(&name).read();
        let entry = shard.entries.get(&name).filter(|e| e.changed).ok_or(CfError::NoSuchEntry)?;
        Ok((entry.data.clone().ok_or(CfError::NoSuchEntry)?, entry.version))
    }

    /// Complete a castout: release the connector's castout lock, and mark
    /// the block unchanged if nobody re-wrote it since `version` was read
    /// (otherwise the newer version stays changed).
    pub fn complete_castout(&self, conn: &CacheConnection, name: BlockName, version: u64) -> CfResult<()> {
        self.check_active(conn.id)?;
        let mut shard = self.shard_of(&name).write();
        let entry = shard.entries.get_mut(&name).ok_or(CfError::NoSuchEntry)?;
        if entry.castout == Some(conn.id.index() as u8) {
            entry.castout = None;
        }
        if entry.version != version {
            return Err(CfError::VersionMismatch { expected: version, found: entry.version });
        }
        entry.changed = false;
        self.stats.castouts.incr(conn.id);
        Ok(())
    }

    /// Detach a connector. Its registrations disappear; **changed data
    /// stays** so surviving members can cast it out (§2.5 recovery).
    pub fn disconnect(&self, conn: &CacheConnection) -> CfResult<()> {
        self.disconnect_by_id(conn.id)
    }

    /// Detach a connector by slot — used by peer recovery, which holds no
    /// [`CacheConnection`] for the failed system.
    pub fn disconnect_by_id(&self, conn: ConnId) -> CfResult<()> {
        self.check_active(conn)?;
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            for e in shard.entries.values_mut() {
                e.unregister(conn.index());
                if e.castout == Some(conn.index() as u8) {
                    e.castout = None;
                }
            }
        }
        self.connectors.release(conn);
        Ok(())
    }

    /// Version everything from now on above every version `old` has given
    /// out: a structure that takes over from another (a rebuild, a
    /// promoted duplex secondary) continues its versions, so an image read
    /// at the old one's never matches a version-checked write here.
    pub fn raise_clock_above(&self, old: &CacheStructure) {
        let floor = old.shards.iter().map(|s| s.read().clock).max().unwrap_or(0);
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            shard.clock = shard.clock.max(floor);
        }
    }

    /// Number of directory entries in use.
    pub fn entry_count(&self) -> usize {
        self.entry_count.load(Ordering::Relaxed) as usize
    }

    /// Bytes of block data cached.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes.load(Ordering::Relaxed) as usize
    }

    /// Count of changed blocks awaiting castout.
    pub fn changed_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().entries.values().filter(|e| e.changed).count()).sum()
    }

    /// Registered interest for a block (tests/diagnostics).
    pub fn interest_of(&self, name: BlockName) -> Option<Vec<ConnId>> {
        let shard = self.shard_of(&name).read();
        shard.entries.get(&name).map(|e| conns_in_mask(e.mask).collect())
    }

    /// Every directory entry, by shard and then name, and the shard the
    /// next reclaim looks in first: all a model checker must tell apart
    /// (tests, diagnostics).
    pub fn directory(&self) -> (usize, Vec<EntryView>) {
        let cursor = self.reclaim_cursor.load(Ordering::Relaxed) % SHARD_COUNT;
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            let start = out.len();
            out.extend(shard.entries.iter().map(|(name, e)| EntryView {
                name: *name,
                registered: e.registrations().collect(),
                data: e.data.clone(),
                changed: e.changed,
                version: e.version,
                lru_tick: e.lru_tick,
            }));
            out[start..].sort_by_key(|e| e.name);
        }
        (cursor, out)
    }

    // ----- capacity management -----

    fn make_room_for_entry(&self, by: ConnId) -> CfResult<()> {
        while self.entry_count.load(Ordering::Relaxed) as usize >= self.directory_capacity {
            if !self.reclaim_one(by, false) {
                return Err(CfError::StructureFull);
            }
        }
        Ok(())
    }

    fn make_room_for_data(&self, by: ConnId, incoming: usize) -> CfResult<()> {
        if incoming > self.data_capacity {
            return Err(CfError::StructureFull);
        }
        while self.data_bytes.load(Ordering::Relaxed) as usize + incoming > self.data_capacity {
            if !self.reclaim_one(by, true) {
                return Err(CfError::StructureFull);
            }
        }
        Ok(())
    }

    /// Reclaim one unchanged directory entry, cross-invalidating any
    /// registered connectors: the least recently touched one of the next
    /// shard at the reclaim cursor that has one. Changed entries are never
    /// reclaimed — they hold the only current copy of the data. Counted
    /// against `by`, the connector whose command needed the room.
    fn reclaim_one(&self, by: ConnId, needs_data: bool) -> bool {
        let e = (0..SHARD_COUNT).find_map(|_| {
            let si = self.reclaim_cursor.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
            let mut shard = self.shards[si].write();
            let victim = shard
                .entries
                .iter()
                .filter(|(_, e)| !e.changed && (!needs_data || e.data.is_some()))
                .min_by_key(|(name, e)| (e.lru_tick, **name))
                .map(|(name, _)| *name)?;
            shard.entries.remove(&victim)
        });
        let Some(e) = e else { return false };
        let mut vectors = None;
        for (slot, idx) in e.registrations() {
            if let Some(v) = &vectors.get_or_insert_with(|| self.connectors.lock())[slot] {
                v.clear(idx as usize);
            }
            self.stats.xi_signals.incr(by);
        }
        drop(vectors);
        if let Some(d) = e.data {
            self.data_bytes.fetch_sub(d.len() as u64, Ordering::Relaxed);
        }
        self.entry_count.fetch_sub(1, Ordering::Relaxed);
        self.stats.reclaims.incr(by);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_in(entries: usize) -> CacheStructure {
        CacheStructure::new("C", &CacheParams::store_in(entries)).unwrap()
    }

    #[test]
    fn block_name_forms() {
        let a = BlockName::from_bytes(b"DB.P1");
        let b = BlockName::from_bytes(b"DB.P1");
        assert_eq!(a, b);
        assert_ne!(BlockName::from_parts(1, 2), BlockName::from_parts(1, 3));
    }

    #[test]
    fn register_then_peer_write_invalidates_without_target_involvement() {
        let c = store_in(64);
        let a = c.connect(128).unwrap();
        let b = c.connect(128).unwrap();
        let blk = BlockName::from_parts(1, 42);

        let r = c.read_and_register(&a, blk, 7).unwrap();
        assert!(r.data.is_none(), "cold miss: CF has no copy yet");
        assert!(a.is_valid(7), "registration validates the local bit");

        // Peer writes the block: a's bit must be cleared; a does nothing.
        let w = c.write_and_invalidate(&b, blk, b"v2", WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 1);
        assert!(!a.is_valid(7), "cross-invalidate cleared the bit");

        // a re-registers and refreshes from the CF copy: no DASD I/O.
        let r = c.read_and_register(&a, blk, 7).unwrap();
        assert_eq!(r.data.as_deref().map(|d| d.as_slice()), Some(&b"v2"[..]));
        assert!(r.changed);
        assert!(a.is_valid(7));
    }

    /// A connector slot is free to claim only once its disconnect is
    /// complete: a disconnect racing the slot's next owner must never
    /// deactivate that owner.
    #[test]
    fn slot_reuse_races_no_late_disconnect() {
        let c = store_in(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = &c;
                scope.spawn(move || {
                    for _ in 0..40_000 {
                        let conn = c.connect(1).unwrap();
                        let read = c.read_and_register(&conn, BlockName::from_parts(t, 0), 0);
                        assert!(read.is_ok(), "slot {} deactivated under its owner", conn.id);
                        c.disconnect(&conn).unwrap();
                    }
                });
            }
        });
    }

    /// With its name, an entry is one 64-byte line, and one or two
    /// registrants allocate nothing beside it.
    #[test]
    fn a_directory_entry_fits_one_line() {
        assert!(std::mem::size_of::<(BlockName, DirEntry)>() <= 64);
        let mut e = DirEntry::new(1);
        e.register(9, 900);
        e.register(4, 400);
        assert!(e.spill.is_none(), "two registrants stay inline");
        assert_eq!(e.registrations().collect::<Vec<_>>(), [(4, 400), (9, 900)]);
    }

    /// A third registrant spills every registration to the slot table;
    /// re-registering, unregistering and cross-invalidating work the same
    /// on either form.
    #[test]
    fn a_third_registrant_spills() {
        for registrants in [&[7usize, 2][..], &[7, 2, 31, 0]] {
            let mut e = DirEntry::new(1);
            for &slot in registrants {
                e.register(slot, slot as u32 * 10);
            }
            assert_eq!(e.spill.is_some(), registrants.len() > 2);
            e.register(7, (1 << SLOT_SHIFT) - 1);
            assert_eq!(e.index_of(7), Some(INDEX_MASK), "the widest index survives packing");
            assert_eq!(e.index_of(2), Some(20));
            e.unregister(2);
            e.unregister(2);
            assert_eq!(e.index_of(2), None);
            e.register(2, 21);
            let mut signalled = Vec::new();
            let taken = e.take_peers(2, |slot, idx| signalled.push((slot, idx)));
            let mut expected: Vec<(usize, u32)> =
                registrants.iter().filter(|&&s| s != 2).map(|&s| (s, s as u32 * 10)).collect();
            expected.sort_unstable();
            expected.iter_mut().filter(|(s, _)| *s == 7).for_each(|e| e.1 = INDEX_MASK);
            assert_eq!((taken, signalled), (expected.len(), expected));
            assert_eq!(e.registrations().collect::<Vec<_>>(), [(2, 21)], "the writer keeps its own");
            assert!(e.spill.is_none());
        }
    }

    /// Every slot registered on one block: one write signals the other 31
    /// in ascending slot order, and the signal count is exact.
    #[test]
    fn a_write_invalidates_31_peers_in_slot_order() {
        let c = store_in(64);
        let conns: Vec<_> = (0..MAX_CONNECTORS).map(|_| c.connect(64).unwrap()).collect();
        let blk = BlockName::from_parts(8, 8);
        // Registered in descending slot order, each at its own bit.
        let register_all = || {
            for (i, conn) in conns.iter().enumerate().rev() {
                c.read_and_register(conn, blk, i as u32 + 1).unwrap();
            }
        };
        register_all();
        {
            let mut shard = c.shard_of(&blk).write();
            let entry = shard.entries.get_mut(&blk).unwrap();
            assert!(entry.spill.is_some());
            let mut order = Vec::new();
            entry.take_peers(13, |slot, index| order.push((slot, index)));
            let upward: Vec<_> =
                (0..MAX_CONNECTORS).filter(|&s| s != 13).map(|s| (s, s as u32 + 1)).collect();
            assert_eq!(order, upward, "the entry walks its mask upward");
        }
        register_all();
        let writer = &conns[13];
        let w = c.write_and_invalidate(writer, blk, b"x", WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, MAX_CONNECTORS - 1);
        assert_eq!(c.stats.xi_signals.get(), MAX_CONNECTORS as u64 - 1);
        for (i, conn) in conns.iter().enumerate() {
            assert_eq!(conn.is_valid(i as u32 + 1), i == 13, "slot {i}");
        }
        assert_eq!(c.interest_of(blk), Some(vec![writer.id]));
    }

    /// Reclaim signals and peer recovery unregisters on both forms of an
    /// entry: two registrants inline, three spilled.
    #[test]
    fn reclaim_and_disconnect_work_on_both_forms() {
        let c = CacheStructure::new(
            "C",
            &CacheParams { directory_entries: 2, data_capacity: 1 << 20, model: CacheModel::StoreIn },
        )
        .unwrap();
        let conns: Vec<_> = (0..3).map(|_| c.connect(16).unwrap()).collect();
        let inline = BlockName::from_parts(1, 1);
        let spilled = (2..)
            .map(|p| BlockName::from_parts(1, p))
            .find(|b| shard_index(b) == shard_index(&inline))
            .unwrap();
        for (i, conn) in conns.iter().enumerate() {
            c.read_and_register(conn, spilled, i as u32).unwrap();
        }
        c.read_and_register(&conns[0], inline, 5).unwrap();
        c.read_and_register(&conns[2], inline, 6).unwrap();
        c.disconnect_by_id(conns[1].id).unwrap();
        assert_eq!(c.interest_of(spilled), Some(vec![conns[0].id, conns[2].id]));
        assert_eq!(c.interest_of(inline), Some(vec![conns[0].id, conns[2].id]));
        c.disconnect_by_id(conns[0].id).unwrap();
        assert_eq!(c.interest_of(inline), Some(vec![conns[2].id]));
        // A third block reclaims `spilled`, the shard's older entry: its one
        // remaining registrant is told, and nobody else.
        c.read_and_register(&conns[2], BlockName::from_parts(2, 0), 9).unwrap();
        assert_eq!(c.interest_of(spilled), None);
        assert_eq!(c.stats.xi_signals.get(), 1);
        assert!(!conns[2].is_valid(2) && conns[2].is_valid(6) && conns[2].is_valid(9));
    }

    /// A replacing register drops the old tenant's registration only where
    /// it names the same bit, and never the block it registers.
    #[test]
    fn a_replacing_register_drops_only_the_frames_old_tenant() {
        let c = store_in(64);
        let (a, b) = (c.connect(16).unwrap(), c.connect(16).unwrap());
        let (old, other, new) =
            (BlockName::from_parts(1, 1), BlockName::from_parts(1, 2), BlockName::from_parts(1, 3));
        c.read_and_register(&a, old, 4).unwrap();
        c.read_and_register(&b, old, 4).unwrap();
        c.read_and_register(&a, other, 5).unwrap();
        c.read_and_register_replacing(&a, new, 4, Some(old)).unwrap();
        assert_eq!(c.interest_of(old), Some(vec![b.id]), "a's registration went, b's stayed");
        c.read_and_register_replacing(&a, new, 6, Some(other)).unwrap();
        assert_eq!(c.interest_of(other), Some(vec![a.id]), "`other` lives in another buffer");
        c.read_and_register_replacing(&a, new, 6, Some(new)).unwrap();
        assert_eq!(c.interest_of(new), Some(vec![a.id]));
        // A peer's write to the old block no longer reaches a's buffer.
        c.write_and_invalidate(&b, old, b"x", WriteKind::ChangedData).unwrap();
        assert!(a.is_valid(4));
    }

    #[test]
    fn xi_fans_out_only_to_registered_connectors() {
        let c = store_in(64);
        let conns: Vec<_> = (0..4).map(|_| c.connect(16).unwrap()).collect();
        let blk = BlockName::from_parts(2, 7);
        // Only conns 0 and 2 register.
        c.read_and_register(&conns[0], blk, 0).unwrap();
        c.read_and_register(&conns[2], blk, 0).unwrap();
        let w = c.write_and_invalidate(&conns[3], blk, b"x", WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 2, "only the two registered peers are signalled");
        assert!(!conns[0].is_valid(0));
        assert!(!conns[1].is_valid(0), "never registered, bit never set");
        assert!(!conns[2].is_valid(0));
    }

    #[test]
    fn writer_keeps_its_own_registration_valid() {
        let c = store_in(64);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(3, 1);
        c.read_and_register(&a, blk, 5).unwrap();
        let w = c.write_and_invalidate(&a, blk, b"mine", WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 0);
        assert!(a.is_valid(5), "writer's own copy stays valid");
    }

    #[test]
    fn versions_increase_per_write() {
        let c = store_in(64);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(1, 1);
        let w1 = c.write_and_invalidate(&a, blk, b"1", WriteKind::ChangedData).unwrap();
        let w2 = c.write_and_invalidate(&a, blk, b"2", WriteKind::ChangedData).unwrap();
        assert!(w2.version > w1.version);
    }

    /// A version-checked set writes a block only while its entry is at
    /// the version the writer read, and stops at the first that moved:
    /// what came before stays written, nothing after is touched, and the
    /// refused block keeps the other writer's bytes and its peers' bits.
    #[test]
    fn a_write_set_stops_at_the_first_block_whose_version_moved() {
        let c = store_in(64);
        let (a, b) = (c.connect(16).unwrap(), c.connect(16).unwrap());
        let names = [1, 2, 3].map(|p| BlockName::from_parts(4, p));
        let read: Vec<u64> = names
            .iter()
            .enumerate()
            .map(|(i, &n)| c.read_and_register(&a, n, i as u32).unwrap().version)
            .collect();
        c.read_and_register(&b, names[1], 0).unwrap();
        let moved = c.write_and_invalidate(&b, names[1], b"b", WriteKind::ChangedData).unwrap().version;
        let blocks: Vec<_> = names.iter().zip(&read).map(|(&n, &v)| (n, Some(v), b"a".to_vec())).collect();
        let set = c.write_and_invalidate_set(&a, &blocks, WriteKind::ChangedData);
        assert_eq!(set.written.len(), 1);
        assert_eq!(set.error, Some(CfError::VersionMismatch { expected: read[1], found: moved }));
        let data = |n| c.directory().1.into_iter().find(|e| e.name == n).and_then(|e| e.data);
        assert_eq!(data(names[0]).as_deref().map(Vec::as_slice), Some(&b"a"[..]));
        assert_eq!(data(names[1]).as_deref().map(Vec::as_slice), Some(&b"b"[..]));
        assert_eq!(data(names[2]), None, "nothing after the refused block is written");
        assert!(b.is_valid(0), "a refused write signals nobody");
        // Re-read at the moved version, the rest goes through; blind
        // blocks go through whatever their version.
        let rest = [(names[1], Some(moved), b"a".to_vec()), (names[2], None, b"a".to_vec())];
        assert_eq!(c.write_and_invalidate_set(&a, &rest, WriteKind::ChangedData).error, None);
        assert!(!b.is_valid(0));
    }

    /// A version-checked write of an entry reclaimed since the writer read
    /// it is refused, found at a later version, and makes no entry.
    #[test]
    fn a_version_checked_write_of_a_reclaimed_entry_is_refused() {
        let c = store_in(2);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(5, 1);
        let read = c.read_and_register(&a, blk, 0).unwrap().version;
        for p in 2..6 {
            c.read_and_register(&a, BlockName::from_parts(5, p), p as u32).unwrap();
        }
        assert_eq!(c.interest_of(blk), None, "the entry was reclaimed");
        let set = c.write_and_invalidate_set(&a, &[(blk, Some(read), b"x")], WriteKind::ChangedData);
        assert!(
            matches!(set.error, Some(CfError::VersionMismatch { expected, found }) if expected == read && found > read)
        );
        assert!(set.written.is_empty());
        assert_eq!(c.interest_of(blk), None, "a refused write makes no entry");
    }

    /// A write whose version moved is refused before the CF makes room
    /// for it: with the data area full of changed blocks it reads
    /// VersionMismatch, which a committer retries, not StructureFull.
    #[test]
    fn a_moved_version_is_refused_before_room_is_made() {
        let c = store_in(2);
        let a = c.connect(16).unwrap();
        let [x, y] = [1, 2].map(|p| BlockName::from_parts(7, p));
        let page = vec![0u8; 4096];
        let read = c.write_and_invalidate(&a, x, &page, WriteKind::ChangedData).unwrap().version;
        c.write_and_invalidate(&a, x, &page, WriteKind::ChangedData).unwrap();
        c.write_and_invalidate(&a, y, &page, WriteKind::ChangedData).unwrap();
        let set = c.write_and_invalidate_set(&a, &[(x, Some(read), page.as_slice())], WriteKind::ChangedData);
        assert!(
            matches!(set.error, Some(CfError::VersionMismatch { expected, .. }) if expected == read),
            "{:?}",
            set.error
        );
    }

    /// The candidates a sweep gets are the `max` oldest changed blocks in
    /// the order a sort of the whole directory gives, for every `max`.
    #[test]
    fn castout_candidates_are_the_oldest_in_full_sort_order() {
        let c = store_in(512);
        let a = c.connect(16).unwrap();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kind = if x.is_multiple_of(5) { WriteKind::CleanData } else { WriteKind::ChangedData };
            c.write_and_invalidate(&a, BlockName::from_parts(6, x % 400), b"x", kind).unwrap();
        }
        let mut all: Vec<(u64, usize, BlockName)> = c
            .directory()
            .1
            .into_iter()
            .filter(|e| e.changed)
            .map(|e| (e.lru_tick, shard_index(&e.name), e.name))
            .collect();
        all.sort_unstable();
        let all: Vec<BlockName> = all.into_iter().map(|(_, _, n)| n).collect();
        assert!(all.len() > 200, "{} changed blocks", all.len());
        for max in [0, 1, 7, 256, all.len() - 1, all.len(), all.len() + 5] {
            assert_eq!(c.castout_candidates(max), all[..max.min(all.len())], "max {max}");
        }
    }

    #[test]
    fn castout_cycle() {
        let c = store_in(64);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(9, 9);
        c.write_and_invalidate(&a, blk, b"dirty", WriteKind::ChangedData).unwrap();
        assert_eq!(c.changed_count(), 1);
        let cands = c.castout_candidates(10);
        assert_eq!(cands, vec![blk]);
        let (data, ver) = c.read_for_castout(&a, blk).unwrap();
        assert_eq!(data.as_slice(), b"dirty");
        c.complete_castout(&a, blk, ver).unwrap();
        assert_eq!(c.changed_count(), 0);
        assert!(c.read_for_castout(&a, blk).is_err(), "no longer changed");
    }

    #[test]
    fn castout_detects_concurrent_rewrite() {
        let c = store_in(64);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(9, 10);
        c.write_and_invalidate(&a, blk, b"v1", WriteKind::ChangedData).unwrap();
        let (_, ver) = c.read_for_castout(&a, blk).unwrap();
        c.write_and_invalidate(&a, blk, b"v2", WriteKind::ChangedData).unwrap();
        assert!(matches!(c.complete_castout(&a, blk, ver), Err(CfError::VersionMismatch { .. })));
        assert_eq!(c.changed_count(), 1, "newer version still awaiting castout");
    }

    /// One castout of a block at a time: a second connector's read waits
    /// for the first's completion, matched or not, or its disconnect.
    #[test]
    fn a_castout_lock_keeps_a_second_castout_out() {
        let c = store_in(64);
        let (a, b) = (c.connect(16).unwrap(), c.connect(16).unwrap());
        let blk = BlockName::from_parts(9, 11);
        c.write_and_invalidate(&a, blk, b"v1", WriteKind::ChangedData).unwrap();
        let (_, ver) = c.read_for_castout(&a, blk).unwrap();
        c.write_and_invalidate(&b, blk, b"v2", WriteKind::ChangedData).unwrap();
        assert_eq!(c.read_for_castout(&b, blk), Err(CfError::NoSuchEntry));
        assert!(c.read_for_castout(&a, blk).is_ok(), "the owner reads again");
        assert!(matches!(c.complete_castout(&a, blk, ver), Err(CfError::VersionMismatch { .. })));
        let (data, _) = c.read_for_castout(&b, blk).unwrap();
        assert_eq!(data.as_slice(), b"v2");
        c.disconnect(&b).unwrap();
        assert!(c.read_for_castout(&a, blk).is_ok(), "a disconnect releases its locks");
    }

    #[test]
    fn changed_data_survives_disconnect() {
        let c = store_in(64);
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(4, 4);
        c.write_and_invalidate(&a, blk, b"dirty", WriteKind::ChangedData).unwrap();
        c.disconnect(&a).unwrap();
        let b = c.connect(16).unwrap();
        let r = c.read_and_register(&b, blk, 0).unwrap();
        assert_eq!(r.data.as_deref().map(|d| d.as_slice()), Some(&b"dirty"[..]));
        assert!(r.changed, "survivor can cast out the failed member's data");
    }

    #[test]
    fn directory_only_model_rejects_data_writes() {
        let c = CacheStructure::new("D", &CacheParams::directory_only(16)).unwrap();
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(1, 1);
        assert_eq!(c.write_and_invalidate(&a, blk, b"x", WriteKind::ChangedData), Err(CfError::WrongModel));
        // InvalidateOnly works and still signals peers.
        let b = c.connect(16).unwrap();
        c.read_and_register(&b, blk, 3).unwrap();
        let w = c.write_and_invalidate(&a, blk, b"", WriteKind::InvalidateOnly).unwrap();
        assert_eq!(w.invalidated, 1);
        assert!(!b.is_valid(3));
    }

    #[test]
    fn reclaim_evicts_unchanged_lru_and_signals() {
        let c = CacheStructure::new(
            "C",
            &CacheParams { directory_entries: 2, data_capacity: 1 << 20, model: CacheModel::StoreIn },
        )
        .unwrap();
        let a = c.connect(16).unwrap();
        let b1 = BlockName::from_parts(1, 1);
        // b2 shares b1's shard, so that shard is the only one reclaim can
        // pick from, and b1 is its least recently touched entry.
        let b2 =
            (2..).map(|p| BlockName::from_parts(1, p)).find(|b| shard_index(b) == shard_index(&b1)).unwrap();
        let b3 = BlockName::from_parts(2, 3);
        c.read_and_register(&a, b1, 0).unwrap();
        c.read_and_register(&a, b2, 1).unwrap();
        // Third entry forces reclaim of b1 (oldest, unchanged).
        c.read_and_register(&a, b3, 2).unwrap();
        assert_eq!(c.entry_count(), 2);
        assert!(!a.is_valid(0), "evicted entry cross-invalidated its registrant");
        assert!(a.is_valid(1) && a.is_valid(2));
    }

    /// Reclaim order is a function of the command sequence alone: two
    /// structures (whose hash maps iterate in different orders) fed the
    /// same commands evict the same blocks in the same order.
    #[test]
    fn reclaim_order_is_deterministic() {
        let evictions = || {
            let c = CacheStructure::new(
                "C",
                &CacheParams { directory_entries: 16, data_capacity: 1 << 20, model: CacheModel::StoreIn },
            )
            .unwrap();
            let a = c.connect(256).unwrap();
            let names: Vec<BlockName> = (0..256).map(|p| BlockName::from_parts(3, p)).collect();
            let (mut resident, mut victims): (Vec<BlockName>, Vec<BlockName>) = (Vec::new(), Vec::new());
            for (i, &name) in names.iter().enumerate() {
                c.read_and_register(&a, name, i as u32).unwrap();
                if i % 3 == 0 {
                    c.write_and_invalidate(&a, names[i / 2], b"x", WriteKind::CleanData).unwrap();
                }
                let now: Vec<BlockName> =
                    names[..=i].iter().copied().filter(|n| c.interest_of(*n).is_some()).collect();
                victims.extend(resident.iter().filter(|n| !now.contains(*n)));
                resident = now;
            }
            victims
        };
        let first = evictions();
        assert!(first.len() >= 200, "a 16-entry directory reclaimed {} of 256", first.len());
        assert_eq!(first, evictions(), "same commands, same victims");
    }

    /// A reclaimed entry's next life takes its version from the same shard
    /// clock, so it orders above every version of every earlier life.
    #[test]
    fn a_recreated_entry_versions_above_its_earlier_lives() {
        let c = CacheStructure::new(
            "C",
            &CacheParams { directory_entries: 1, data_capacity: 1 << 20, model: CacheModel::StoreIn },
        )
        .unwrap();
        let a = c.connect(16).unwrap();
        let blk = BlockName::from_parts(5, 5);
        let mut highest = 0;
        for life in 0..4 {
            let r = c.read_and_register(&a, blk, 0).unwrap();
            assert!(
                r.data.is_none() && r.version > highest,
                "life {life} starts at {} <= {highest}",
                r.version
            );
            for _ in 0..3 {
                let w = c.write_and_invalidate(&a, blk, b"v", WriteKind::ChangedData).unwrap();
                assert!(w.version > highest);
                highest = w.version;
            }
            let (_, v) = c.read_for_castout(&a, blk).unwrap();
            c.complete_castout(&a, blk, v).unwrap();
            // The one-entry directory reclaims `blk` for another block.
            c.read_and_register(&a, BlockName::from_parts(6, life), 1).unwrap();
            assert_eq!(c.interest_of(blk), None);
        }
    }

    #[test]
    fn changed_entries_are_never_reclaimed() {
        let c = CacheStructure::new(
            "C",
            &CacheParams { directory_entries: 1, data_capacity: 1 << 20, model: CacheModel::StoreIn },
        )
        .unwrap();
        let a = c.connect(16).unwrap();
        c.write_and_invalidate(&a, BlockName::from_parts(1, 1), b"dirty", WriteKind::ChangedData).unwrap();
        assert_eq!(
            c.read_and_register(&a, BlockName::from_parts(1, 2), 1).unwrap_err(),
            CfError::StructureFull,
            "the only entry is changed and cannot be evicted"
        );
    }

    #[test]
    fn data_capacity_enforced() {
        let c = CacheStructure::new(
            "C",
            &CacheParams { directory_entries: 64, data_capacity: 10, model: CacheModel::StoreIn },
        )
        .unwrap();
        let a = c.connect(16).unwrap();
        assert_eq!(
            c.write_and_invalidate(&a, BlockName::from_parts(1, 1), &[0u8; 11], WriteKind::ChangedData),
            Err(CfError::StructureFull)
        );
    }

    #[test]
    fn stale_connection_rejected() {
        let c = store_in(16);
        let a = c.connect(16).unwrap();
        c.disconnect(&a).unwrap();
        assert_eq!(
            c.read_and_register(&a, BlockName::from_parts(1, 1), 0).unwrap_err(),
            CfError::BadConnector
        );
    }

    #[test]
    fn concurrent_writers_readers_converge() {
        use std::sync::Arc as StdArc;
        let c = StdArc::new(store_in(256));
        let blk = BlockName::from_parts(7, 7);
        let writer_conn = c.connect(16).unwrap();
        let reader_conns: Vec<_> = (0..4).map(|_| c.connect(16).unwrap()).collect();
        let mut handles = Vec::new();
        {
            let c = StdArc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    c.write_and_invalidate(&writer_conn, blk, &i.to_be_bytes(), WriteKind::ChangedData)
                        .unwrap();
                }
            }));
        }
        for conn in reader_conns {
            let c = StdArc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut last = 0u32;
                for _ in 0..500 {
                    if !conn.is_valid(0) {
                        let r = c.read_and_register(&conn, blk, 0).unwrap();
                        if let Some(d) = r.data {
                            let v = u32::from_be_bytes(d.as_slice().try_into().unwrap());
                            assert!(v >= last, "versions move forward: {v} >= {last}");
                            last = v;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_read = c.connect(16).unwrap();
        let r = c.read_and_register(&final_read, blk, 0).unwrap();
        assert_eq!(
            r.data.as_deref().map(|d| d.as_slice()),
            Some(&499u32.to_be_bytes()[..]),
            "last write is the visible copy"
        );
    }
}
