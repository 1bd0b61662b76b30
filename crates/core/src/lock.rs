//! CF lock structures (§3.3.1).
//!
//! A lock structure is a program-sized table of *lock table entries*. A
//! software lock manager (e.g. the IRLM) hashes each resource name to an
//! entry and asks the CF to record shared or exclusive interest. The CF
//! grants compatible requests **CPU-synchronously**; on incompatibility it
//! returns the identity of the connectors currently holding the entry so
//! the requester can negotiate with exactly those peers ("selective
//! cross-system communication for lock negotiation").
//!
//! Because many resources hash to one entry, a returned contention can be
//! *false*: the holders' lock managers check their local tables for a real
//! conflict on the specific resource name, and when none exists the
//! requester records interest anyway with [`LockStructure::force_interest`].
//! Interest in an entry therefore over-approximates real resource-level
//! conflicts — which can cost extra negotiation messages but can never admit
//! an unsafe grant. Experiment E10 measures how table size controls the
//! false-contention rate.
//!
//! The structure also stores **record data**: persistent descriptions of
//! modify-mode locks, written by the request that grants the lock
//! ([`LockStructure::request_recorded`]) or on their own, and deleted with
//! the release that gives it up ([`LockStructure::release_set`]). Records
//! survive an abnormal disconnection, which is
//! what enables peer systems to perform *fast lock recovery* after an MVS
//! failure (§2.5): the records name exactly the resources the dead system
//! held, and the corresponding table interest is retained ("failed
//! persistent") until recovery completes.

use crate::error::{CfError, CfResult};
use crate::hashing::{hash_to_slot, slot_of, InlineBytes, PrehashedMap, ResourceName};
use crate::stats::SlotCounter;
use crate::types::{ConnId, ConnMask, MAX_CONNECTORS};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
#[cfg(feature = "test-hooks")]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Requested lock compatibility class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Compatible with other shared interest.
    Shared,
    /// Incompatible with any other interest.
    Exclusive,
}

/// Allocation-time geometry of a lock structure.
#[derive(Debug, Clone)]
pub struct LockParams {
    /// Number of lock table entries. The paper calls this "a
    /// program-specifiable number of lock table entries".
    pub entries: usize,
    /// Maximum number of record-data elements (persistent locks).
    pub record_capacity: usize,
}

impl LockParams {
    /// Geometry with `entries` table entries and a proportional record area.
    pub fn with_entries(entries: usize) -> Self {
        LockParams { entries, record_capacity: entries.max(64) }
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockResponse {
    /// Interest recorded; the request completed CPU-synchronously.
    Granted,
    /// Incompatible interest exists. The CF returns the identity of the
    /// holders so the requester can negotiate with exactly those systems.
    Contention {
        /// Every connector with interest in the entry (excluding requester).
        holders: ConnMask,
        /// The exclusive holder, if the entry is held exclusively.
        exclusive: Option<ConnId>,
        /// Entry generation at response time (bumped whenever interest
        /// departs the entry, and by the first grant after a contention).
        /// A negotiated interest write quotes it so the CF can refuse a
        /// *stale* negotiation — one whose holder released and re-acquired,
        /// or was granted more, since: either invalidates the verdict.
        generation: u16,
    },
}

impl LockResponse {
    /// True when the request was granted synchronously.
    #[inline]
    pub fn is_granted(&self) -> bool {
        matches!(self, LockResponse::Granted)
    }
}

/// How a connector leaves the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectMode {
    /// Orderly shutdown: all interest and records are purged.
    Normal,
    /// System failure: table interest and record data are **retained**
    /// ("failed persistent") until a peer completes recovery.
    Abnormal,
}

/// Counters published by a lock structure: counted per connector slot,
/// read as structure-wide sums.
#[derive(Debug)]
pub struct LockStats {
    /// Total lock requests.
    pub requests: SlotCounter,
    /// Requests granted CPU-synchronously.
    pub sync_grants: SlotCounter,
    /// Requests that hit entry-level contention.
    pub contentions: SlotCounter,
    /// Interest recorded after software negotiation (false contention
    /// resolved, or compatible-at-resource-level grants).
    pub forced_interests: SlotCounter,
    /// Release commands processed.
    pub releases: SlotCounter,
    /// Record-data elements written.
    pub records_written: SlotCounter,
}

impl Default for LockStats {
    fn default() -> Self {
        let [requests, sync_grants, contentions, forced_interests, releases, records_written] =
            SlotCounter::block();
        LockStats { requests, sync_grants, contentions, forced_interests, releases, records_written }
    }
}

/// Snapshot of the derived rates (for experiment output).
#[derive(Debug, Clone, Copy)]
pub struct LockRates {
    /// Fraction of requests granted synchronously.
    pub sync_grant_fraction: f64,
    /// Fraction of requests that saw entry contention.
    pub contention_fraction: f64,
}

// Lock table entry packing (one AtomicU64):
//   bits 0..=31   shared-interest mask, one bit per connector slot
//   bits 32..=39  exclusive owner slot + 1 (0 = none)
//   bits 40..=55  generation: bumped (mod 2^16) every time a connector's
//                 interest *departs* the entry, and by the first grant after
//                 a contention (bit 62). Quoted in contention responses and
//                 checked by negotiated interest writes, so a
//                 departed-and-rejoined holder, or one granted more since,
//                 invalidates any negotiation conducted before.
//   bit 62        CONTENDED: a request saw contention since the last grant;
//                 the next grant (synchronous or negotiated) also bumps the
//                 generation, so a negotiation answered before it refuses.
//   bit 63        NEGOTIATE: the entry's interest under-represents the real
//                 resource-level locks (a forced-exclusive was recorded as
//                 shared interest); every request with foreign interest
//                 present must negotiate. Cleared when the entry empties or
//                 a sole remaining connector is granted exclusive interest.
const EXCL_SHIFT: u32 = 32;
const EXCL_MASK: u64 = 0xFF << EXCL_SHIFT;
const SHARE_MASK: u64 = 0xFFFF_FFFF;
const GEN_SHIFT: u32 = 40;
const GEN_MASK: u64 = 0xFFFF << GEN_SHIFT;
const NEG_FLAG: u64 = 1 << 63;
const CONTENDED_FLAG: u64 = 1 << 62;

#[inline]
fn gen_of(word: u64) -> u16 {
    ((word & GEN_MASK) >> GEN_SHIFT) as u16
}

#[inline]
fn bump_gen(word: u64) -> u64 {
    let next = (gen_of(word) as u64).wrapping_add(1) & 0xFFFF;
    (word & !GEN_MASK) | next << GEN_SHIFT
}

#[inline]
fn excl_of(word: u64) -> Option<ConnId> {
    let raw = ((word & EXCL_MASK) >> EXCL_SHIFT) as u8;
    if raw == 0 {
        None
    } else {
        Some(ConnId::from_raw(raw - 1))
    }
}

#[inline]
fn share_of(word: u64) -> ConnMask {
    (word & SHARE_MASK) as ConnMask
}

#[derive(Debug, Clone)]
struct LockRecord {
    mode: LockMode,
    payload: InlineBytes,
}

/// A record is owned by one connector for one resource. The key reuses the
/// name's one hash (offset by the connector slot), so a record command
/// hashes its name once — for the shard and the bucket — and a name and
/// payload that fit [`crate::hashing::INLINE_BYTES`] never reach the
/// allocator.
#[derive(Debug, PartialEq, Eq)]
struct RecordKey {
    name: ResourceName,
    conn: u8,
}

impl Hash for RecordKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.name.hash().wrapping_add(self.conn as u64 + 1));
    }
}

/// One shard of the record-data table.
type RecordMap = PrehashedMap<RecordKey, LockRecord>;

/// Number of record-data shards. Power of two so `slot_of`'s
/// multiply-shift reduction spreads resources evenly; 16 shards keep
/// writer collisions rare at the connector counts the structure supports
/// (≤ 32) without bloating the per-structure footprint.
const RECORD_SHARDS: usize = 16;

/// A persistent lock record returned by recovery queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedLock {
    /// Resource name the failed connector held.
    pub resource: Vec<u8>,
    /// Mode it held the resource in.
    pub mode: LockMode,
    /// Lock-manager payload (e.g. owning transaction id).
    pub payload: Vec<u8>,
}

/// A CF lock structure.
#[derive(Debug)]
pub struct LockStructure {
    name: String,
    table: Box<[AtomicU64]>,
    /// Connector slots currently attached.
    active: AtomicU32,
    /// Connector slots that failed and whose interest is retained.
    failed_persistent: AtomicU32,
    /// Persistent record data, sharded by resource hash so concurrent
    /// record writes from different systems don't serialize on one mutex.
    /// Whole-table reads merge the shards in sorted order (the harness's
    /// deterministic traces depend on that, not on shard iteration order).
    records: Box<[Mutex<RecordMap>]>,
    record_capacity: usize,
    record_count: AtomicU64,
    /// Published counters.
    pub stats: LockStats,
    /// The duplex pair every connection joins (`crate::duplex`).
    pub(crate) duplex: crate::duplex::DuplexSlot<LockStructure>,
    #[cfg(feature = "test-hooks")]
    hooks: LockHooks,
}

/// Runtime-armed known-bad switches for negative oracle tests. Every hook
/// defaults to off, so merely compiling the feature changes nothing.
#[cfg(feature = "test-hooks")]
#[derive(Debug, Default)]
struct LockHooks {
    /// Grant every request, ignoring compatibility (breaks exclusivity).
    force_grant: AtomicBool,
    /// `recovery_complete` frees the slot but leaks interest and records.
    leaky_recovery: AtomicBool,
    /// A grant after a contention leaves the generation alone, so a
    /// negotiation answered before it can still land (a dual grant).
    stale_negotiation: AtomicBool,
}

impl LockStructure {
    /// Build a standalone structure (facilities use this; also handy in tests).
    pub fn new(name: &str, params: &LockParams) -> CfResult<Self> {
        if params.entries == 0 {
            return Err(CfError::BadParameter("lock table must have at least one entry"));
        }
        let table = (0..params.entries).map(|_| AtomicU64::new(0)).collect();
        Ok(LockStructure {
            name: name.to_string(),
            table,
            active: AtomicU32::new(0),
            failed_persistent: AtomicU32::new(0),
            records: (0..RECORD_SHARDS).map(|_| Mutex::new(RecordMap::default())).collect(),
            record_capacity: params.record_capacity,
            record_count: AtomicU64::new(0),
            stats: LockStats::default(),
            duplex: Default::default(),
            #[cfg(feature = "test-hooks")]
            hooks: LockHooks::default(),
        })
    }

    /// Structure name as allocated in the facility.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of lock table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Attach a new connector, assigning the lowest free slot.
    pub fn connect(&self) -> CfResult<ConnId> {
        loop {
            let active = self.active.load(Ordering::Acquire);
            let fp = self.failed_persistent.load(Ordering::Acquire);
            let used = active | fp;
            if used == u32::MAX {
                return Err(CfError::NoConnectorSlots);
            }
            let slot = used.trailing_ones() as u8;
            if slot as usize >= MAX_CONNECTORS {
                return Err(CfError::NoConnectorSlots);
            }
            let bit = 1u32 << slot;
            if self.active.compare_exchange(active, active | bit, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                return Ok(ConnId::from_raw(slot));
            }
        }
    }

    /// Attach claiming a *specific* slot — used by structure rebuild so a
    /// connector keeps its identity (peer lock managers address each other
    /// by connector slot).
    pub fn connect_slot(&self, slot: ConnId) -> CfResult<ConnId> {
        let bit = slot.mask();
        if self.failed_persistent.load(Ordering::Acquire) & bit != 0 {
            return Err(CfError::NoConnectorSlots);
        }
        let prev = self.active.fetch_or(bit, Ordering::AcqRel);
        if prev & bit != 0 {
            return Err(CfError::NoConnectorSlots);
        }
        Ok(slot)
    }

    #[inline]
    fn check_active(&self, conn: ConnId) -> CfResult<()> {
        if self.active.load(Ordering::Relaxed) & conn.mask() == 0 {
            Err(CfError::BadConnector)
        } else {
            Ok(())
        }
    }

    /// Hash a resource name to its lock table entry.
    #[inline]
    pub fn hash_resource(&self, name: &[u8]) -> usize {
        hash_to_slot(name, self.table.len())
    }

    /// Lock table entry of an already hashed name — the same entry
    /// [`LockStructure::hash_resource`] gives its bytes.
    #[inline]
    pub fn entry_of(&self, name: &ResourceName) -> usize {
        slot_of(name.hash(), self.table.len())
    }

    /// Shard holding the record data for `name`.
    #[inline]
    fn record_shard(&self, name: &ResourceName) -> &Mutex<RecordMap> {
        &self.records[slot_of(name.hash(), RECORD_SHARDS)]
    }

    /// Request interest in a lock table entry and, when the CF grants it,
    /// write `conn`'s persistent record for `resource` in the same command
    /// — §3.3.1's lock request that carries its record data. Contention
    /// writes no record. The record's element is reserved before any
    /// interest is written, so a full record area fails the whole command
    /// ([`CfError::StructureFull`]) and leaves the entry untouched.
    pub fn request_recorded(
        &self,
        conn: ConnId,
        entry: usize,
        mode: LockMode,
        resource: &[u8],
        payload: &[u8],
    ) -> CfResult<LockResponse> {
        self.check_active(conn)?;
        let key = RecordKey { name: ResourceName::new(resource), conn: conn.raw() };
        let mut shard = self.record_shard(&key.name).lock();
        let reserved = !shard.contains_key(&key);
        if reserved {
            self.reserve_record()?;
        }
        let response = self.request(conn, entry, mode);
        if let Ok(LockResponse::Granted) = response {
            shard.insert(key, LockRecord { mode, payload: InlineBytes::new(payload) });
            self.stats.records_written.incr(conn);
        } else if reserved {
            self.record_count.fetch_sub(1, Ordering::Relaxed);
        }
        response
    }

    /// Request interest in a lock table entry.
    ///
    /// Compatible requests are granted synchronously; incompatible requests
    /// return [`LockResponse::Contention`] carrying the holder set for
    /// selective negotiation. The CF never blocks a requester.
    pub fn request(&self, conn: ConnId, entry: usize, mode: LockMode) -> CfResult<LockResponse> {
        self.check_active(conn)?;
        if entry >= self.table.len() {
            return Err(CfError::BadParameter("entry index out of range"));
        }
        self.stats.requests.incr(conn);
        let slot = &self.table[entry];
        let me = conn.mask();
        // One load before the loop; a failed CAS hands back the observed
        // word, so retries re-decode without an extra atomic load.
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let others_share = share_of(cur) & !me;
            let foreign_excl = excl_of(cur).filter(|&e| e != conn);
            let holders = others_share | foreign_excl.map_or(0, ConnId::mask);
            let compatible = match mode {
                LockMode::Shared => foreign_excl.is_none(),
                LockMode::Exclusive => foreign_excl.is_none() && others_share == 0,
            };
            #[cfg(feature = "test-hooks")]
            let compatible = compatible || self.hooks.force_grant.load(Ordering::Relaxed);
            // An entry in NEGOTIATE state hides the real modes behind the
            // interest bits: any foreign interest forces negotiation.
            if cur & NEG_FLAG != 0 && holders != 0 || !compatible {
                // A flag set on a word that moved on since `cur` only costs
                // the entry's next grant a generation bump.
                if cur & CONTENDED_FLAG == 0 {
                    slot.fetch_or(CONTENDED_FLAG, Ordering::AcqRel);
                }
                self.stats.contentions.incr(conn);
                return Ok(LockResponse::Contention {
                    holders,
                    exclusive: foreign_excl,
                    generation: gen_of(cur),
                });
            }
            // An exclusive grant is exact: sole interest covers whatever
            // this connector holds, so the NEGOTIATE flag (set here only
            // when holders == 0) drops. A shared one keeps it — the flag
            // may stand for this connector's own forced exclusive hold,
            // which a shared bit would under-represent to the next peer.
            let new = match mode {
                LockMode::Shared => cur | me as u64,
                LockMode::Exclusive => {
                    (cur & (SHARE_MASK | GEN_MASK | CONTENDED_FLAG)) | ((conn.raw() as u64 + 1) << EXCL_SHIFT)
                }
            };
            let new = self.after_grant(cur, new);
            match slot.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.stats.sync_grants.incr(conn);
                    return Ok(LockResponse::Granted);
                }
                Err(observed) => cur = observed,
            }
        }
    }

    /// Record interest unconditionally — for state-import paths (structure
    /// rebuild, duplex mirroring) that re-create interest *already known to
    /// be held*. A negotiating requester must use
    /// [`LockStructure::force_interest_negotiated`] instead: between the
    /// contention response and this write the entry can empty and be
    /// granted fresh to a third connector, and an unconditional write here
    /// would stack a second "owner" on top of it.
    ///
    /// Exclusive interest that cannot be represented exactly (some other
    /// connector already has interest) is recorded as shared interest
    /// **plus the NEGOTIATE flag**: from then on every request against the
    /// entry with foreign interest present is forced through negotiation,
    /// so the under-representation can never admit an unsafe synchronous
    /// grant. The flag clears when the entry empties.
    pub fn force_interest(&self, conn: ConnId, entry: usize, mode: LockMode) -> CfResult<()> {
        self.force(conn, entry, mode, None).map(|_| ())
    }

    /// Record interest after software negotiation resolved a contention
    /// (false contention, or resource-level compatibility) — but only if
    /// the entry's holder set is still covered by `negotiated`, the set the
    /// requester actually negotiated with.
    ///
    /// Returns `Ok(false)` without recording anything in two cases. First,
    /// when a connector *outside* the negotiated set has acquired interest
    /// since the contention response: its grant may be a fresh synchronous
    /// exclusive taken after an old holder released, and it never agreed to
    /// share. Second, when the entry `generation` no longer matches the one
    /// quoted in the contention response — some holder's interest departed
    /// since, and a holder that released and *re-acquired* is
    /// indistinguishable from one that held throughout, yet its fresh grant
    /// (possibly a locally cached sole-exclusive) was never consulted. In
    /// both cases the caller must renegotiate against the current holders.
    /// The checks and the write are one CAS on the entry word, so a holder
    /// cannot slip in between them.
    pub fn force_interest_negotiated(
        &self,
        conn: ConnId,
        entry: usize,
        mode: LockMode,
        negotiated: ConnMask,
        generation: u16,
    ) -> CfResult<bool> {
        self.force(conn, entry, mode, Some((negotiated, generation)))
    }

    /// Write `mode` interest — when `negotiated` is given, only if the
    /// entry's generation and holder set still match it (see
    /// [`LockStructure::force_interest_negotiated`]). Returns whether it
    /// wrote.
    fn force(
        &self,
        conn: ConnId,
        entry: usize,
        mode: LockMode,
        negotiated: Option<(ConnMask, u16)>,
    ) -> CfResult<bool> {
        self.check_active(conn)?;
        if entry >= self.table.len() {
            return Err(CfError::BadParameter("entry index out of range"));
        }
        self.stats.forced_interests.incr(conn);
        let slot = &self.table[entry];
        let me = conn.mask();
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let foreign_excl = excl_of(cur).filter(|&e| e != conn);
            let others_share = share_of(cur) & !me;
            if let Some((negotiated, generation)) = negotiated {
                let others = others_share | foreign_excl.map_or(0, ConnId::mask);
                if gen_of(cur) != generation || others & !negotiated != 0 {
                    return Ok(false);
                }
            }
            let new = match mode {
                LockMode::Exclusive if foreign_excl.is_none() && others_share == 0 => {
                    (cur & (SHARE_MASK | GEN_MASK | CONTENDED_FLAG)) | ((conn.raw() as u64 + 1) << EXCL_SHIFT)
                }
                LockMode::Exclusive => cur | me as u64 | NEG_FLAG,
                LockMode::Shared => cur | me as u64,
            };
            let new = self.after_grant(cur, new);
            match slot.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(true),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Release this connector's interest in an entry.
    ///
    /// A connector's shared and exclusive interest are released together:
    /// entry-level interest only says "this system may hold locks that hash
    /// here", and the software lock manager calls release only when its last
    /// resource-level lock hashing to the entry is gone.
    pub fn release(&self, conn: ConnId, entry: usize) -> CfResult<()> {
        self.check_active(conn)?;
        if entry >= self.table.len() {
            return Err(CfError::BadParameter("entry index out of range"));
        }
        self.stats.releases.incr(conn);
        self.clear_conn_from_entry(conn, entry);
        Ok(())
    }

    /// Give up, in one command, everything a lock manager's unlock gave
    /// up: delete `conn`'s records for `records` (a name with no record is
    /// skipped), then release its interest in every entry of `entries`.
    /// Nothing changes when an entry index is out of range.
    pub fn release_set(&self, conn: ConnId, entries: &[usize], records: &[ResourceName]) -> CfResult<()> {
        self.check_active(conn)?;
        if entries.iter().any(|&entry| entry >= self.table.len()) {
            return Err(CfError::BadParameter("entry index out of range"));
        }
        for name in records {
            self.remove_record(conn, name.clone());
        }
        self.stats.releases.incr(conn);
        for &entry in entries {
            self.clear_conn_from_entry(conn, entry);
        }
        Ok(())
    }

    fn clear_conn_from_entry(&self, conn: ConnId, entry: usize) {
        let slot = &self.table[entry];
        let me = conn.mask();
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let mut new = cur & !(me as u64);
            if excl_of(cur) == Some(conn) {
                new &= !EXCL_MASK;
            }
            if new == cur {
                return;
            }
            // Interest departed: bump the generation so any negotiation
            // conducted against the old holder set refuses instead of
            // writing over a re-acquired (possibly locally cached) grant.
            new = bump_gen(new);
            // Entry emptied: the NEGOTIATE flag (if any) has nothing left
            // to protect; the generation survives the emptying.
            if share_of(new) == 0 && excl_of(new).is_none() {
                new &= GEN_MASK;
            }
            match slot.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Read the raw holder set of an entry (diagnostics / tests).
    pub fn holders(&self, entry: usize) -> (ConnMask, Option<ConnId>) {
        let cur = self.table[entry].load(Ordering::Acquire);
        (share_of(cur), excl_of(cur))
    }

    /// Whether the entry is in NEGOTIATE state (diagnostics / tests).
    pub fn is_negotiate(&self, entry: usize) -> bool {
        self.table[entry].load(Ordering::Acquire) & NEG_FLAG != 0
    }

    /// Whether a request saw contention on the entry since its last grant
    /// (diagnostics / tests).
    pub fn is_contended(&self, entry: usize) -> bool {
        self.table[entry].load(Ordering::Acquire) & CONTENDED_FLAG != 0
    }

    /// Current entry generation — the value a contention response would
    /// quote right now (diagnostics / tests).
    pub fn generation(&self, entry: usize) -> u16 {
        gen_of(self.table[entry].load(Ordering::Acquire))
    }

    /// Per-system interest summary: sorted entry indexes in which `conn`
    /// holds interest (shared bit set or exclusive ownership). Table scan,
    /// ascending order — the resize audit compares this across the old and
    /// new tables and the walk must be deterministic.
    pub fn interest_entries(&self, conn: ConnId) -> Vec<usize> {
        let me = conn.mask();
        (0..self.table.len())
            .filter(|&i| {
                let cur = self.table[i].load(Ordering::Acquire);
                share_of(cur) & me != 0 || excl_of(cur) == Some(conn)
            })
            .collect()
    }

    /// Number of entries in which `conn` holds interest (see
    /// [`LockStructure::interest_entries`]).
    pub fn interest_count(&self, conn: ConnId) -> usize {
        self.interest_entries(conn).len()
    }

    // ----- record data (persistent locks) -----

    /// Write (or replace) `conn`'s persistent record for `name`. Records
    /// make modify-mode locks recoverable after a failure.
    fn put_record(&self, conn: ConnId, name: ResourceName, mode: LockMode, payload: &[u8]) -> CfResult<()> {
        let key = RecordKey { name, conn: conn.raw() };
        let record = LockRecord { mode, payload: InlineBytes::new(payload) };
        match self.record_shard(&key.name).lock().entry(key) {
            // Replacing an existing record is not a new element.
            Entry::Occupied(mut e) => {
                e.insert(record);
            }
            Entry::Vacant(e) => {
                self.reserve_record()?;
                e.insert(record);
            }
        }
        self.stats.records_written.incr(conn);
        Ok(())
    }

    /// Write `conn`'s records for `records` — `(resource, mode, payload)`
    /// each — in order, as one command. Stops at the first that fails
    /// (record area full): the ones before it are written, the rest are not.
    pub fn write_record_set<P: AsRef<[u8]>>(
        &self,
        conn: ConnId,
        records: &[(ResourceName, LockMode, P)],
    ) -> CfResult<()> {
        self.check_active(conn)?;
        for (name, mode, payload) in records {
            self.put_record(conn, name.clone(), *mode, payload.as_ref())?;
        }
        Ok(())
    }

    /// Claim one element of the record area for a new record. Capacity is
    /// checked without a global lock: optimistically reserve an element on
    /// the shared counter and roll back on overflow. A reservation that
    /// loses the race can transiently inflate the count, which only ever
    /// *rejects* a racer — never over-admits.
    fn reserve_record(&self) -> CfResult<()> {
        let prev = self.record_count.fetch_add(1, Ordering::Relaxed);
        if prev as usize >= self.record_capacity {
            self.record_count.fetch_sub(1, Ordering::Relaxed);
            return Err(CfError::StructureFull);
        }
        Ok(())
    }

    /// Remove `conn`'s record for `name`, if it has one.
    fn remove_record(&self, conn: ConnId, name: ResourceName) -> bool {
        let key = RecordKey { name, conn: conn.raw() };
        let removed = self.record_shard(&key.name).lock().remove(&key).is_some();
        if removed {
            self.record_count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Enumerate the retained locks of a connector. Peers call this during
    /// recovery to learn exactly which resources the failed system held.
    pub fn retained_locks(&self, conn: ConnId) -> Vec<RetainedLock> {
        let mut out: Vec<RetainedLock> = Vec::new();
        for shard in self.records.iter() {
            let records = shard.lock();
            out.extend(records.iter().filter(|(key, _)| key.conn == conn.raw()).map(|(key, r)| {
                RetainedLock {
                    resource: key.name.as_bytes().to_vec(),
                    mode: r.mode,
                    payload: r.payload.as_bytes().to_vec(),
                }
            }));
        }
        // Sorted merge across shards: recovery output (and the harness's
        // bit-for-bit replay) must not depend on shard or HashMap order.
        out.sort_by(|a, b| a.resource.cmp(&b.resource));
        out
    }

    /// Current number of record-data elements.
    pub fn record_count(&self) -> usize {
        self.record_count.load(Ordering::Relaxed) as usize
    }

    // ----- connector lifecycle -----

    /// Detach a connector.
    ///
    /// `Normal` purges all of its interest and records. `Abnormal` (system
    /// failure) retains both: the slot becomes *failed persistent* and
    /// incompatible requests keep seeing the dead connector in holder sets
    /// until [`LockStructure::recovery_complete`] runs.
    pub fn disconnect(&self, conn: ConnId, mode: DisconnectMode) -> CfResult<()> {
        self.check_active(conn)?;
        match mode {
            DisconnectMode::Normal => {
                self.purge_conn(conn);
                self.active.fetch_and(!conn.mask(), Ordering::AcqRel);
            }
            DisconnectMode::Abnormal => {
                self.failed_persistent.fetch_or(conn.mask(), Ordering::AcqRel);
                self.active.fetch_and(!conn.mask(), Ordering::AcqRel);
            }
        }
        Ok(())
    }

    /// Declare recovery for a failed-persistent connector complete: purge
    /// its retained interest and records and free the slot.
    pub fn recovery_complete(&self, conn: ConnId) -> CfResult<()> {
        if self.failed_persistent.load(Ordering::Acquire) & conn.mask() == 0 {
            return Err(CfError::BadConnector);
        }
        #[cfg(feature = "test-hooks")]
        if self.hooks.leaky_recovery.load(Ordering::Relaxed) {
            // Known-bad: free the slot but leak the dead connector's
            // interest and records.
            self.failed_persistent.fetch_and(!conn.mask(), Ordering::AcqRel);
            return Ok(());
        }
        self.purge_conn(conn);
        self.failed_persistent.fetch_and(!conn.mask(), Ordering::AcqRel);
        Ok(())
    }

    /// True when the slot's interest is retained pending recovery.
    pub fn is_failed_persistent(&self, conn: ConnId) -> bool {
        self.failed_persistent.load(Ordering::Acquire) & conn.mask() != 0
    }

    fn purge_conn(&self, conn: ConnId) {
        for entry in 0..self.table.len() {
            self.clear_conn_from_entry(conn, entry);
        }
        for shard in self.records.iter() {
            let mut records = shard.lock();
            let before = records.len();
            records.retain(|key, _| key.conn != conn.raw());
            self.record_count.fetch_sub((before - records.len()) as u64, Ordering::Relaxed);
        }
    }

    /// Bitmask of connector slots currently attached.
    pub fn active_mask(&self) -> ConnMask {
        self.active.load(Ordering::Acquire)
    }

    /// Bitmask of failed-persistent connector slots awaiting recovery.
    pub fn failed_persistent_mask(&self) -> ConnMask {
        self.failed_persistent.load(Ordering::Acquire)
    }

    /// Snapshot of the persistent record data as `(resource, connector
    /// raw id, mode)` triples, sorted. Recovery audits (and the harness
    /// trace oracle) compare this against the lock-table interest.
    pub fn records_snapshot(&self) -> Vec<(Vec<u8>, u8, LockMode)> {
        let mut out: Vec<(Vec<u8>, u8, LockMode)> = Vec::new();
        for shard in self.records.iter() {
            let records = shard.lock();
            out.extend(records.iter().map(|(key, r)| (key.name.as_bytes().to_vec(), key.conn, r.mode)));
        }
        // Sorted merge across shards — load-bearing for deterministic replay.
        out.sort();
        out
    }

    /// Test hook: grant every subsequent request regardless of
    /// compatibility — the exclusivity-invariant violation the trace
    /// oracle must catch.
    #[cfg(feature = "test-hooks")]
    pub fn arm_force_grant(&self) {
        self.hooks.force_grant.store(true, Ordering::Relaxed);
    }

    /// Test hook: make `recovery_complete` leak the failed connector's
    /// interest and records while freeing its slot.
    #[cfg(feature = "test-hooks")]
    pub fn arm_leaky_recovery(&self) {
        self.hooks.leaky_recovery.store(true, Ordering::Relaxed);
    }

    /// Test hook: let negotiations answered before a grant still land.
    #[cfg(feature = "test-hooks")]
    pub fn arm_stale_negotiation(&self) {
        self.hooks.stale_negotiation.store(true, Ordering::Relaxed);
    }

    /// A grant on an entry that reported contention since its last grant
    /// moves the generation (and clears the flag): the contending
    /// requester's negotiation was answered against the holders' resources
    /// *before* this grant, and a holder that already had interest in the
    /// entry may have been granted the very resource it answered "no
    /// conflict" about — by a synchronous request or by its own negotiated
    /// write — with no other change to the word. Any negotiated write
    /// quoting the old generation must then refuse and renegotiate.
    #[inline]
    fn after_grant(&self, cur: u64, new: u64) -> u64 {
        #[cfg(feature = "test-hooks")]
        if self.hooks.stale_negotiation.load(Ordering::Relaxed) {
            return new & !CONTENDED_FLAG;
        }
        if cur & CONTENDED_FLAG == 0 {
            new
        } else {
            bump_gen(new & !CONTENDED_FLAG)
        }
    }

    /// Derived grant/contention rates (experiment output).
    pub fn rates(&self) -> LockRates {
        let req = self.stats.requests.get();
        LockRates {
            sync_grant_fraction: crate::stats::ratio(self.stats.sync_grants.get(), req),
            contention_fraction: crate::stats::ratio(self.stats.contentions.get(), req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure(entries: usize) -> LockStructure {
        LockStructure::new("L", &LockParams::with_entries(entries)).unwrap()
    }

    /// Write one record, as a one-record set.
    fn record(s: &LockStructure, conn: ConnId, name: &[u8], mode: LockMode, payload: &[u8]) -> CfResult<()> {
        s.write_record_set(conn, &[(ResourceName::new(name), mode, payload)])
    }

    #[test]
    fn shared_requests_coexist() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request(a, 3, LockMode::Shared).unwrap().is_granted());
        assert!(s.request(b, 3, LockMode::Shared).unwrap().is_granted());
        let (share, excl) = s.holders(3);
        assert_eq!(share, a.mask() | b.mask());
        assert_eq!(excl, None);
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request(a, 0, LockMode::Shared).unwrap().is_granted());
        match s.request(b, 0, LockMode::Exclusive).unwrap() {
            LockResponse::Contention { holders, exclusive, .. } => {
                assert_eq!(holders, a.mask());
                assert_eq!(exclusive, None);
            }
            other => panic!("expected contention, got {other:?}"),
        }
    }

    #[test]
    fn exclusive_conflicts_with_exclusive_and_names_holder() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request(a, 5, LockMode::Exclusive).unwrap().is_granted());
        match s.request(b, 5, LockMode::Exclusive).unwrap() {
            LockResponse::Contention { holders, exclusive, .. } => {
                assert_eq!(holders, a.mask());
                assert_eq!(exclusive, Some(a));
            }
            other => panic!("expected contention, got {other:?}"),
        }
    }

    #[test]
    fn shared_blocked_by_foreign_exclusive_but_not_own() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request(a, 7, LockMode::Exclusive).unwrap().is_granted());
        // Own exclusive does not block own shared.
        assert!(s.request(a, 7, LockMode::Shared).unwrap().is_granted());
        assert!(!s.request(b, 7, LockMode::Shared).unwrap().is_granted());
    }

    #[test]
    fn release_frees_entry() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request(a, 2, LockMode::Exclusive).unwrap().is_granted());
        s.release(a, 2).unwrap();
        assert!(s.request(b, 2, LockMode::Exclusive).unwrap().is_granted());
    }

    #[test]
    fn force_interest_after_false_contention_overapproximates() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        let c = s.connect().unwrap();
        assert!(s.request(a, 4, LockMode::Exclusive).unwrap().is_granted());
        // b negotiates a false contention and records interest anyway.
        s.force_interest(b, 4, LockMode::Exclusive).unwrap();
        let (share, excl) = s.holders(4);
        assert_eq!(excl, Some(a), "exclusive owner unchanged");
        assert_eq!(share, b.mask(), "b recorded as shared interest");
        // c now sees both in the holder set.
        match s.request(c, 4, LockMode::Exclusive).unwrap() {
            LockResponse::Contention { holders, .. } => assert_eq!(holders, a.mask() | b.mask()),
            other => panic!("expected contention, got {other:?}"),
        }
    }

    #[test]
    fn forced_exclusive_sets_negotiate_and_blocks_sync_shared_grants() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        let c = s.connect().unwrap();
        // a truly owns the entry; b forces an exclusive it holds on some
        // other resource in the class (false contention resolution).
        assert!(s.request(a, 4, LockMode::Exclusive).unwrap().is_granted());
        s.force_interest(b, 4, LockMode::Exclusive).unwrap();
        assert!(s.is_negotiate(4));
        // a releases: the entry now shows only b's *shared* bit, but b's
        // real lock is exclusive — a shared request MUST negotiate, not
        // grant synchronously.
        s.release(a, 4).unwrap();
        match s.request(c, 4, LockMode::Shared).unwrap() {
            LockResponse::Contention { holders, .. } => assert_eq!(holders, b.mask()),
            other => panic!("expected negotiation, got {other:?}"),
        }
        // Once b releases too, the entry empties and the flag clears.
        s.release(b, 4).unwrap();
        assert!(!s.is_negotiate(4));
        assert!(s.request(c, 4, LockMode::Shared).unwrap().is_granted());
    }

    #[test]
    fn a_sole_holders_shared_grant_keeps_negotiate() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        let c = s.connect().unwrap();
        // b's forced exclusive is recorded as a shared bit under a; a
        // leaves, and b is granted Shared on another resource of the class.
        s.request(a, 2, LockMode::Exclusive).unwrap();
        s.force_interest(b, 2, LockMode::Exclusive).unwrap();
        s.release(a, 2).unwrap();
        assert!(s.request(b, 2, LockMode::Shared).unwrap().is_granted());
        // b may still hold its exclusive lock: c must negotiate for Shared.
        assert!(s.is_negotiate(2));
        assert!(!s.request(c, 2, LockMode::Shared).unwrap().is_granted());
    }

    #[test]
    fn sole_holder_request_clears_negotiate() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        s.request(a, 2, LockMode::Exclusive).unwrap();
        s.force_interest(b, 2, LockMode::Exclusive).unwrap();
        s.release(a, 2).unwrap();
        // b is now sole interest; its own re-request normalises the entry.
        assert!(s.request(b, 2, LockMode::Exclusive).unwrap().is_granted());
        assert!(!s.is_negotiate(2));
        // b keeps its own share bit alongside the exclusive ownership.
        assert_eq!(s.holders(2), (b.mask(), Some(b)));
    }

    #[test]
    fn force_interest_takes_exclusive_when_entry_free() {
        let s = structure(16);
        let a = s.connect().unwrap();
        s.force_interest(a, 9, LockMode::Exclusive).unwrap();
        assert_eq!(s.holders(9), (0, Some(a)));
    }

    #[test]
    fn negotiated_force_refuses_holders_it_never_negotiated_with() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        let c = s.connect().unwrap();
        // b's contention response named {a}; while b negotiated, a released
        // and c was granted the freed entry synchronously. b's negotiation
        // says nothing about c — the write must refuse, not stack a second
        // owner on the entry.
        assert!(s.request(a, 4, LockMode::Exclusive).unwrap().is_granted());
        let negotiated = a.mask();
        let generation = s.generation(4);
        s.release(a, 4).unwrap();
        assert!(s.request(c, 4, LockMode::Exclusive).unwrap().is_granted());
        assert!(!s.force_interest_negotiated(b, 4, LockMode::Exclusive, negotiated, generation).unwrap());
        assert_eq!(s.holders(4), (0, Some(c)), "refused write left the entry untouched");

        // Negotiated holders still present (generation unchanged): recorded
        // as shared + NEGOTIATE, exactly like the unconditional form.
        assert!(s.request(a, 11, LockMode::Exclusive).unwrap().is_granted());
        let generation = s.generation(11);
        assert!(s.force_interest_negotiated(b, 11, LockMode::Exclusive, a.mask(), generation).unwrap());
        assert!(s.is_negotiate(11));
        assert_eq!(s.holders(11), (b.mask(), Some(a)));
    }

    #[test]
    fn negotiated_force_refuses_when_generation_moved() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        // b's contention response named {a} at generation g. a then released
        // and RE-ACQUIRED: the holder set looks identical, but a's fresh
        // sole-exclusive grant (which a may now be serving from its local
        // cache) was never part of b's negotiation. The departure bumped the
        // generation, so the stale write must refuse.
        assert!(s.request(a, 7, LockMode::Exclusive).unwrap().is_granted());
        let g0 = s.generation(7);
        s.release(a, 7).unwrap();
        assert!(s.request(a, 7, LockMode::Exclusive).unwrap().is_granted());
        assert_ne!(s.generation(7), g0, "departure bumps the generation");
        assert!(!s.force_interest_negotiated(b, 7, LockMode::Exclusive, a.mask(), g0).unwrap());
        assert_eq!(s.holders(7), (0, Some(a)), "a's re-acquired grant untouched");

        // A *departed* holder likewise refuses now (the generation moved);
        // the requester renegotiates and the fresh contention-free request
        // is granted synchronously instead.
        assert!(s.request(a, 9, LockMode::Exclusive).unwrap().is_granted());
        let g1 = s.generation(9);
        s.release(a, 9).unwrap();
        assert!(!s.force_interest_negotiated(b, 9, LockMode::Exclusive, a.mask(), g1).unwrap());
        assert!(s.request(b, 9, LockMode::Exclusive).unwrap().is_granted());

        // Quoting the *current* generation succeeds while holders persist.
        assert!(s.request(a, 12, LockMode::Exclusive).unwrap().is_granted());
        match s.request(b, 12, LockMode::Exclusive).unwrap() {
            LockResponse::Contention { generation, holders, .. } => {
                assert_eq!(holders, a.mask());
                assert!(s
                    .force_interest_negotiated(b, 12, LockMode::Exclusive, holders, generation)
                    .unwrap());
            }
            other => panic!("expected contention, got {other:?}"),
        }
    }

    #[test]
    fn records_survive_abnormal_disconnect() {
        let s = structure(16);
        let a = s.connect().unwrap();
        record(&s, a, b"ACCT.1", LockMode::Exclusive, b"TXN42").unwrap();
        record(&s, a, b"ACCT.2", LockMode::Shared, b"TXN42").unwrap();
        s.disconnect(a, DisconnectMode::Abnormal).unwrap();
        assert!(s.is_failed_persistent(a));
        let retained = s.retained_locks(a);
        assert_eq!(retained.len(), 2);
        assert_eq!(retained[0].resource, b"ACCT.1");
        assert_eq!(retained[0].payload, b"TXN42");
        // Recovery completes: records purged, slot reusable.
        s.recovery_complete(a).unwrap();
        assert!(s.retained_locks(a).is_empty());
        assert!(!s.is_failed_persistent(a));
        let again = s.connect().unwrap();
        assert_eq!(again, a, "slot is reusable after recovery");
    }

    #[test]
    fn normal_disconnect_purges_everything() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        s.request(a, 1, LockMode::Exclusive).unwrap();
        record(&s, a, b"R", LockMode::Exclusive, b"").unwrap();
        s.disconnect(a, DisconnectMode::Normal).unwrap();
        assert_eq!(s.record_count(), 0);
        assert!(s.request(b, 1, LockMode::Exclusive).unwrap().is_granted());
        assert_eq!(s.request(a, 1, LockMode::Shared), Err(CfError::BadConnector));
    }

    #[test]
    fn retained_interest_still_blocks_until_recovery() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        s.request(a, 6, LockMode::Exclusive).unwrap();
        s.disconnect(a, DisconnectMode::Abnormal).unwrap();
        // b still sees a's retained interest — cannot grab exclusively.
        assert!(!s.request(b, 6, LockMode::Exclusive).unwrap().is_granted());
        s.recovery_complete(a).unwrap();
        assert!(s.request(b, 6, LockMode::Exclusive).unwrap().is_granted());
    }

    #[test]
    fn record_capacity_enforced() {
        let s = LockStructure::new("L", &LockParams { entries: 4, record_capacity: 2 }).unwrap();
        let a = s.connect().unwrap();
        record(&s, a, b"1", LockMode::Shared, b"").unwrap();
        record(&s, a, b"2", LockMode::Shared, b"").unwrap();
        assert_eq!(record(&s, a, b"3", LockMode::Shared, b""), Err(CfError::StructureFull));
        // Replacement of an existing record is not a new element.
        record(&s, a, b"2", LockMode::Exclusive, b"x").unwrap();
        s.release_set(a, &[], &[ResourceName::new(b"1")]).unwrap();
        record(&s, a, b"3", LockMode::Shared, b"").unwrap();
    }

    #[test]
    fn a_recorded_request_writes_its_record_only_when_granted() {
        let s = LockStructure::new("L", &LockParams { entries: 16, record_capacity: 2 }).unwrap();
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        assert!(s.request_recorded(a, 3, LockMode::Exclusive, b"ROW.A", b"T1").unwrap().is_granted());
        assert_eq!(s.retained_locks(a)[0].payload, b"T1");
        // Contention: no record, and the reservation is handed back.
        assert!(!s.request_recorded(b, 3, LockMode::Shared, b"ROW.B", b"T2").unwrap().is_granted());
        assert!(s.retained_locks(b).is_empty());
        // Replacing a record needs no new element.
        assert!(s.request_recorded(a, 3, LockMode::Exclusive, b"ROW.A", b"T3").unwrap().is_granted());
        assert_eq!((s.record_count(), s.retained_locks(a)[0].payload.as_slice()), (1, &b"T3"[..]));
        // A full record area fails the whole command: no interest either.
        record(&s, a, b"ROW.D", LockMode::Exclusive, b"T1").unwrap();
        assert_eq!(
            s.request_recorded(b, 5, LockMode::Exclusive, b"ROW.C", b"T4"),
            Err(CfError::StructureFull)
        );
        assert_eq!((s.holders(5), s.record_count()), ((0, None), 2));
        assert_eq!(s.stats.records_written.get(), 3);
    }

    #[test]
    fn a_release_set_deletes_records_then_releases_entries() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        for (entry, name) in [(1, &b"ROW.1"[..]), (2, b"ROW.2")] {
            assert!(s.request_recorded(a, entry, LockMode::Exclusive, name, b"T").unwrap().is_granted());
        }
        record(&s, b, b"ROW.1", LockMode::Shared, b"U").unwrap();
        let names = [ResourceName::new(b"ROW.1"), ResourceName::new(b"ROW.9")];
        // An out-of-range entry refuses the whole set.
        assert!(matches!(s.release_set(a, &[1, 16], &names), Err(CfError::BadParameter(_))));
        assert_eq!(s.record_count(), 3);
        // A name without a record is skipped; another connector's record
        // for the same name stays.
        s.release_set(a, &[1, 2], &names).unwrap();
        assert_eq!(s.records_snapshot().len(), 2);
        assert_eq!(s.retained_locks(a).len(), 1, "ROW.2 was not in the set");
        assert_eq!(s.retained_locks(b).len(), 1);
        assert_eq!(s.interest_count(a), 0);
        assert_eq!(s.stats.releases.get(), 1, "one command");
    }

    #[test]
    fn stats_track_grants_and_contention() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        s.request(a, 0, LockMode::Exclusive).unwrap();
        s.request(b, 0, LockMode::Exclusive).unwrap(); // contention
        s.request(b, 1, LockMode::Shared).unwrap();
        let r = s.rates();
        assert!((r.sync_grant_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.contention_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn bad_parameters_rejected() {
        let s = structure(4);
        let a = s.connect().unwrap();
        assert!(matches!(s.request(a, 4, LockMode::Shared), Err(CfError::BadParameter(_))));
        assert!(LockStructure::new("Z", &LockParams::with_entries(0)).is_err());
    }

    #[test]
    fn connector_slots_exhaust_and_recycle() {
        let s = structure(4);
        let conns: Vec<_> = (0..MAX_CONNECTORS).map(|_| s.connect().unwrap()).collect();
        assert_eq!(s.connect(), Err(CfError::NoConnectorSlots));
        s.disconnect(conns[10], DisconnectMode::Normal).unwrap();
        assert_eq!(s.connect().unwrap().raw(), 10);
    }

    #[test]
    fn concurrent_exclusive_requests_grant_exactly_one() {
        use std::sync::Arc;
        let s = Arc::new(structure(1));
        let conns: Vec<_> = (0..8).map(|_| s.connect().unwrap()).collect();
        let mut handles = Vec::new();
        for &c in &conns {
            let s = Arc::clone(&s);
            handles
                .push(std::thread::spawn(move || s.request(c, 0, LockMode::Exclusive).unwrap().is_granted()));
        }
        let granted = handles.into_iter().map(|h| h.join().unwrap()).filter(|&g| g).count();
        assert_eq!(granted, 1, "exactly one racer wins the entry");
    }

    #[test]
    fn interest_summary_walks_sorted_and_counts_both_modes() {
        let s = structure(16);
        let a = s.connect().unwrap();
        let b = s.connect().unwrap();
        s.request(a, 9, LockMode::Shared).unwrap();
        s.request(a, 3, LockMode::Exclusive).unwrap();
        s.request(b, 5, LockMode::Shared).unwrap();
        assert_eq!(s.interest_entries(a), vec![3, 9]);
        assert_eq!(s.interest_count(a), 2);
        assert_eq!(s.interest_entries(b), vec![5]);
        s.release(a, 3).unwrap();
        assert_eq!(s.interest_entries(a), vec![9]);
    }

    #[test]
    fn concurrent_shared_requests_all_grant() {
        use std::sync::Arc;
        let s = Arc::new(structure(1));
        let conns: Vec<_> = (0..8).map(|_| s.connect().unwrap()).collect();
        let mut handles = Vec::new();
        for &c in &conns {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || s.request(c, 0, LockMode::Shared).unwrap().is_granted()));
        }
        assert!(handles.into_iter().all(|h| h.join().unwrap()));
        let (share, excl) = s.holders(0);
        assert_eq!(share.count_ones(), 8);
        assert_eq!(excl, None);
    }
}
