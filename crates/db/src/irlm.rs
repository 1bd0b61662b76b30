//! IRLM — the distributed lock manager on the CF lock structure.
//!
//! §3.3.1: "The CF lock structure provides a hardware-assisted global lock
//! contention detection mechanism for use by distributed lock managers,
//! such as the IMS Resource Lock Manager (IRLM). ... This allows the
//! majority of requests for locks to be granted cpu-synchronously to the
//! requesting system ... Only in exception cases involving lock contention
//! is lock negotiation required. In such cases, the CF returns the identity
//! of the system or systems currently holding locks in an incompatible
//! state ... to enable selective cross-system communication for lock
//! negotiation."
//!
//! Each system runs one [`Irlm`] instance per lock structure. The grant
//! hierarchy, cheapest first:
//!
//! 1. **Local grant** — the system already holds covering interest in the
//!    resource's hash class; no CF command at all.
//! 2. **CF-synchronous grant** — one lock-structure command, microseconds.
//! 3. **Negotiated grant** — the CF reported contention; the requester
//!    queries exactly the holder systems over XCF. When none actually
//!    holds *this* resource in a conflicting mode the contention was
//!    *false* (hash collision) and interest is recorded anyway.
//! 4. **Busy** — a real resource-level conflict; the caller backs off.
//!
//! Exclusive locks taken for updates also write CF **record data** so that,
//! after a system failure, survivors can read exactly which resources the
//! dead system held ([`Irlm::retained_locks_of`]) and release them once
//! backout completes ([`Irlm::complete_peer_recovery`]). A member's record
//! for a resource exists only while it has a persistent local holder of it,
//! and before anything that holder protects reaches shared storage: a
//! CF-granted request carries the record in its own command; any other
//! grant queues it on the transaction, and the transaction's records go to
//! the CF as one command when it is about to externalise
//! ([`Irlm::write_records`]). An unlock gives up records and interest
//! together, in one command.

use crate::error::{DbError, DbResult};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;
use sysplex_core::connection::{CfSubchannel, LockConnection};
use sysplex_core::duplex::DuplexPair;
use sysplex_core::hashing::{PrehashedMap, ResourceName};
use sysplex_core::lock::{DisconnectMode, LockMode, LockResponse, LockStructure, RetainedLock};
use sysplex_core::stats::Counter;
use sysplex_core::types::{conns_in_mask, ConnId};
use sysplex_core::wire::{from_bytes, to_bytes};
use sysplex_core::{wire_enum, CfError, SystemId};
use sysplex_services::timer::SysplexTimer;
use sysplex_services::xcf::{Xcf, XcfError, XcfItem, XcfMember};

/// Outcome of a single (non-waiting) lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held.
    Granted,
    /// A real conflict exists; retry later or give up.
    Busy,
}

/// Counters published by an IRLM instance.
#[derive(Debug, Default)]
pub struct IrlmStats {
    /// All lock requests.
    pub requests: Counter,
    /// Granted without any CF command (covering local interest).
    pub grants_local: Counter,
    /// Granted by a CPU-synchronous CF command.
    pub grants_cf_sync: Counter,
    /// Requests that saw CF entry contention.
    pub contentions: Counter,
    /// Contentions resolved as false (hash collision only).
    pub false_contentions: Counter,
    /// Contentions confirmed as real resource conflicts.
    pub real_conflicts: Counter,
    /// Conflicts detected locally (two transactions, same system).
    pub local_conflicts: Counter,
    /// Negotiation queries answered for peers.
    pub queries_served: Counter,
    /// Re-granted from cached sole CF interest — no CF command at all.
    pub regrants_local: Counter,
    /// Last local hold released with CF interest parked, not released.
    pub lazy_releases: Counter,
    /// Cached or parked interest recalled by a peer's negotiation query.
    pub recalls: Counter,
}

#[derive(Debug, Clone, Copy)]
struct Holder {
    txn: u64,
    mode: LockMode,
    persistent: bool,
}

/// The local holders of one resource. The first lives in the table slot
/// itself: the common case — one transaction per resource — never reaches
/// the allocator. `rest` is empty whenever `first` is.
#[derive(Debug, Default)]
struct Holders {
    first: Option<Holder>,
    rest: Vec<Holder>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = &Holder> {
        self.first.iter().chain(&self.rest)
    }

    fn get_mut(&mut self, txn: u64) -> Option<&mut Holder> {
        self.first.iter_mut().chain(&mut self.rest).find(|h| h.txn == txn)
    }

    fn insert(&mut self, holder: Holder) {
        match self.first {
            None => self.first = Some(holder),
            Some(_) => self.rest.push(holder),
        }
    }

    fn remove(&mut self, txn: u64) -> Option<Holder> {
        if self.first.is_some_and(|h| h.txn == txn) {
            return std::mem::replace(&mut self.first, self.rest.pop());
        }
        let at = self.rest.iter().position(|h| h.txn == txn)?;
        Some(self.rest.swap_remove(at))
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Can `txn` acquire `mode` alongside the current local holders?
    fn compatible_for(&self, txn: u64, mode: LockMode) -> bool {
        self.iter().all(|h| h.txn == txn || matches!((h.mode, mode), (LockMode::Shared, LockMode::Shared)))
    }

    /// Would a *foreign-system* request of `mode` conflict with any holder?
    fn conflicts_with_peer(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Exclusive => !self.is_empty(),
            LockMode::Shared => self.strongest() == Some(LockMode::Exclusive),
        }
    }

    fn strongest(&self) -> Option<LockMode> {
        self.iter().map(|h| h.mode).max()
    }

    /// The strongest persistent holder: the hold this member's record for
    /// the resource describes.
    fn recorded(&self) -> Option<Holder> {
        self.iter().filter(|h| h.persistent).max_by_key(|h| h.mode).copied()
    }
}

/// Everything this member tracks about one lock-table entry (hash class),
/// in one record so a request reaches all of it with one lookup. The record
/// exists while any field is set ([`LocalState::settle`] drops it).
#[derive(Debug, Clone, Copy, Default)]
struct EntryRecord {
    /// Distinct local resources hashing to this entry. CF interest in the
    /// entry is released when this drops to zero — unless the entry is
    /// parked (lazy release).
    count: u32,
    /// This system observed a sole-interest exclusive CF grant for the
    /// entry and no peer has negotiated since. While set, re-grants
    /// against the entry complete locally: any foreign acquisition must
    /// negotiate with us first, and the recall clears the flag before the
    /// answer goes out.
    cached: bool,
    /// `count == 0` but CF interest is retained so a re-acquire can take
    /// the local fast path. Surrendered on recall or FIFO eviction — but
    /// never while a request is registered on the entry
    /// ([`LocalState::in_flight`]).
    parked: bool,
    /// A peer recently negotiated on this hash class: inter-system
    /// interest exists there, so sole-interest caching would only bounce —
    /// every grant parks at unlock and forces the next peer through a
    /// recall round trip, and on a hot shared class the whole group
    /// degenerates into negotiation storms. A queried entry skips the
    /// cached fast path for this many further CF grants (set to
    /// [`RECALL_COOLDOWN`], refreshed by further queries); genuinely local
    /// classes are never queried and keep caching.
    cool: u32,
    /// The ticket of the park that put the entry at its live FIFO position
    /// (meaningful while `parked`): any other position of it is stale.
    ticket: u32,
}

/// One request in phase 2 — between leaving the local table and recording
/// its grant — and what it is asking for: the request's one registration.
/// Until the grant exists this is the only place a peer's negotiation
/// query, a sibling's unlock or an eviction can see the claim. Phase 1
/// pushes the row under its own latch acquisition and the winning attempt
/// removes it under phase 3's ([`Phase2::finish_in`]), so a CF-granted
/// request takes the latch twice; every other exit removes it on drop.
#[derive(Debug)]
struct Wanted {
    txn: u64,
    name: ResourceName,
    /// The lock-table entry `name` hashes to. A registered entry is never
    /// surrendered: the request may be granted on this member's retained
    /// interest, and a concurrent release would wipe the grant.
    entry: usize,
    mode: LockMode,
    /// Inside a *grant window*: the CF command that writes interest is
    /// executing, or it succeeded and phase 3 has not yet recorded the
    /// grant. A peer's query on the entry must report conflict here — the
    /// resource scan cannot see the pending grant, and "no conflict" would
    /// let the peer's negotiated write bypass it (dual exclusive holders,
    /// lost update). Only here: negotiating is slow, and reporting conflict
    /// for all of it starves a wide member group; the window is
    /// microseconds.
    critical: bool,
    /// A peer that outranks us asked for the same resource while we were
    /// negotiating, and was told "no conflict": this request must not open
    /// another grant window (see [`LocalState::contest`]).
    yielded: bool,
    /// A sibling gave up this member's record for `name` while the request
    /// was in phase 2, possibly after the request's CF command wrote it:
    /// a winning grant writes its record again (see [`LocalState::unrecord`]).
    unrecorded: bool,
    /// `recall_seq` when the request registered: a CF grant caches its
    /// entry only when no recall raced it — a query racing phase 2/3 might
    /// concern interest we are about to record, and its recall must win.
    recall_snapshot: u64,
}

/// Cap on parked (lazily released) entries per IRLM. Eviction is FIFO so
/// replayed runs surrender the same victims in the same order.
const PARK_CAP: usize = 1024;

#[derive(Debug, Default)]
struct LocalState {
    resources: PrehashedMap<ResourceName, Holders>,
    entries: PrehashedMap<usize, EntryRecord>,
    /// What each open transaction holds, so releasing a transaction walks
    /// its own locks and nothing else. Unordered; `unlock_all` sorts.
    held: PrehashedMap<u64, Vec<ResourceName>>,
    /// Emptied `held` lists, reused so a transaction's first lock does not
    /// allocate. At most as many as transactions were ever open at once.
    spare_lists: Vec<Vec<ResourceName>>,
    /// FIFO of parked entry indexes, each with the ticket of the park that
    /// queued it. A position is live while its entry is parked under that
    /// ticket (`parked` is the source of truth, `parked_live` the live
    /// count); eviction skips the rest, so an entry parked again — a hot
    /// class, re-granted and released every transaction — is evicted at its
    /// newest position, not its oldest. Stale positions are dropped in bulk
    /// once they outnumber the live ones ([`LocalState::park`]).
    parked: VecDeque<(usize, u32)>,
    parked_live: usize,
    /// Tickets drawn by parks so far (wrapping).
    park_tickets: u32,
    /// Bumped by every peer negotiation query (see
    /// [`Wanted::recall_snapshot`]).
    recall_seq: u64,
    /// This member's requests in phase 2; as many as it has threads
    /// requesting at once.
    wanted: Vec<Wanted>,
    /// What the unlock under way gives up — records to delete, then
    /// entries to release, each in the order given up — sent as one
    /// command before the latch is let go ([`Irlm::send_release_set`]).
    /// Empty whenever the latch is free; reused, so a release never
    /// allocates.
    release_records: Vec<ResourceName>,
    release_entries: Vec<usize>,
    /// Resources whose record a grant owes the CF — one whose own command
    /// wrote none — in grant order: written by the next
    /// [`Irlm::write_records`] of a persistent holder, dropped with the
    /// last persistent hold.
    queued_records: Vec<ResourceName>,
    /// The record set [`Irlm::write_records`] is sending. Empty whenever
    /// the latch is free; reused, like the release set.
    record_set: Vec<(ResourceName, LockMode, [u8; 8])>,
}

impl LocalState {
    /// Drop `entry`'s record once nothing is tracked in it.
    fn settle(&mut self, entry: usize) {
        if let Some(e) = self.entries.get(&entry) {
            if e.count == 0 && !e.cached && !e.parked && e.cool == 0 {
                self.entries.remove(&entry);
            }
        }
    }

    /// Is a phase-2 request registered on `entry`?
    fn in_flight(&self, entry: usize) -> bool {
        self.wanted.iter().any(|w| w.entry == entry)
    }

    /// Settle a peer's query for `mode` on `name` against our own requests
    /// for the same resource that are still negotiating — neither held nor
    /// inside a grant window, so nothing else would report them. Two
    /// members that want one resource at the same moment each query the
    /// other in exactly that state; answered from held locks alone, both
    /// hear "no conflict" and both write interest. So one of them yields,
    /// by an order both sides compute alike: when `outranked` (the peer's
    /// member name sorts first) our requests are marked `yielded` and will
    /// refuse their next grant window, and the peer may proceed; otherwise
    /// we keep the claim and the peer is told it conflicts. Either side's
    /// query may come first — the yield and the grant-window entry are
    /// both made under the latch, so exactly one request goes on.
    fn contest(&mut self, name: &ResourceName, mode: LockMode, outranked: bool) -> bool {
        let mut contested = false;
        for rival in self.wanted.iter_mut().filter(|w| w.name == *name) {
            if rival.mode == LockMode::Exclusive || mode == LockMode::Exclusive {
                contested = true;
                rival.yielded |= outranked;
            }
        }
        contested && !outranked
    }

    /// Tell `conn` — a rebuilt structure or a new duplex secondary — what
    /// this member holds: every held resource in name order, in its
    /// strongest mode, then one record set naming, for each resource with a
    /// persistent holder, its strongest one (the commands are traced, so
    /// the sequence must replay). Returns the entry table describing that
    /// interest in `conn`'s geometry.
    fn replay_onto(&self, conn: &LockConnection) -> DbResult<PrehashedMap<usize, EntryRecord>> {
        let mut held: Vec<(&ResourceName, &Holders)> = self.resources.iter().collect();
        held.sort_by_key(|(name, _)| *name);
        let mut entries: PrehashedMap<usize, EntryRecord> = PrehashedMap::default();
        let mut records = Vec::new();
        for (name, rh) in held {
            let Some(mode) = rh.strongest() else { continue };
            let entry = conn.entry_of(name);
            conn.force_interest(entry, mode)?;
            entries.entry(entry).or_default().count += 1;
            if let Some(h) = rh.recorded() {
                records.push((name.clone(), h.mode, h.txn.to_be_bytes()));
            }
        }
        if !records.is_empty() {
            conn.write_lock_record_set(&records)?;
        }
        Ok(entries)
    }

    /// Record that `txn` holds `name` in (at least) `mode`. Returns whether
    /// the grant changed what this member's record for `name` must say:
    /// the first persistent hold of the resource, or one stronger than any
    /// persistent hold before it.
    fn record_grant(
        &mut self,
        txn: u64,
        name: &ResourceName,
        entry: usize,
        mode: LockMode,
        persistent: bool,
    ) -> bool {
        let holder = Holder { txn, mode, persistent };
        // The strongest persistent hold before this grant: what the record
        // says, if there is one.
        let mut recorded = None;
        let (is_new_resource, is_new_holder, held) = match self.resources.entry(name.clone()) {
            Entry::Occupied(slot) => {
                let rh = slot.into_mut();
                recorded = rh.recorded().map(|h| h.mode);
                match rh.get_mut(txn) {
                    Some(h) => {
                        // Strengthen, never weaken.
                        h.mode = h.mode.max(mode);
                        h.persistent |= persistent;
                        (false, false, h.mode)
                    }
                    None => {
                        rh.insert(holder);
                        (false, true, mode)
                    }
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Holders { first: Some(holder), rest: Vec::new() });
                (true, true, mode)
            }
        };
        if is_new_holder {
            let spare = &mut self.spare_lists;
            self.held.entry(txn).or_insert_with(|| spare.pop().unwrap_or_default()).push(name.clone());
        }
        let e = self.entries.entry(entry).or_default();
        if is_new_resource {
            e.count += 1;
        }
        // A parked entry is live again; its FIFO position goes stale and
        // eviction will skip it.
        if e.parked && e.count > 0 {
            e.parked = false;
            self.parked_live -= 1;
        }
        persistent && recorded < Some(held)
    }

    /// The last persistent holder of `name` is gone: queue the delete of
    /// this member's record for it, and forget a write of it still queued.
    /// A request for `name` still in phase 2 may have written that record
    /// with its own CF command — before the delete or after — so it is
    /// marked to write it again if it wins.
    fn unrecord(&mut self, name: ResourceName) {
        for rival in self.wanted.iter_mut().filter(|w| w.name == name) {
            rival.unrecorded = true;
        }
        self.queued_records.retain(|q| *q != name);
        self.release_records.push(name);
    }

    /// Owe the CF this member's record for `name`.
    fn queue_record(&mut self, name: &ResourceName) {
        if !self.queued_records.contains(name) {
            self.queued_records.push(name.clone());
        }
    }

    /// Park `entry`: keep this member's CF interest in it, with no local
    /// resource held there, until a recall or FIFO eviction surrenders it.
    /// The park draws a ticket that makes this the entry's live position.
    fn park(&mut self, entry: usize) {
        self.park_tickets = self.park_tickets.wrapping_add(1);
        let ticket = self.park_tickets;
        let e = self.entries.entry(entry).or_default();
        e.parked = true;
        e.ticket = ticket;
        self.parked_live += 1;
        self.parked.push_back((entry, ticket));
        if self.parked.len() > 2 * PARK_CAP.max(self.parked_live) {
            // Keep the live positions, in order: the same ones on every run.
            let entries = &self.entries;
            self.parked.retain(|&position| Self::live(entries, position));
        }
    }

    /// Is `(entry, ticket)` its entry's live FIFO position?
    fn live(entries: &PrehashedMap<usize, EntryRecord>, (entry, ticket): (usize, u32)) -> bool {
        entries.get(&entry).is_some_and(|e| e.parked && e.ticket == ticket)
    }
}

/// CF grants on a recalled hash class that must complete before the
/// class may be cached (and hence parked) again.
const RECALL_COOLDOWN: u32 = 8;

wire_enum! {
    /// What one IRLM asks another, carried as an XCF call. The holder's
    /// message exit answers with one encoded `bool`: does it conflict?
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum IrlmSignal("irlm-signal") {
        /// "Does anything you hold conflict with `mode` on `resource`?"
        0 Query { mode: LockMode, resource: Vec<u8> },
    }
}

/// The drop guard of one request's [`Wanted`] row: the request's grant
/// windows are opened and closed through it, and however the request ends
/// its registration ends with it.
struct Phase2<'a> {
    irlm: &'a Irlm,
    txn: u64,
}

impl Phase2<'_> {
    fn row<'l>(&self, local: &'l mut LocalState) -> &'l mut Wanted {
        local.wanted.iter_mut().find(|w| w.txn == self.txn).expect("registered until the guard is gone")
    }

    /// Open a grant window — unless the request yielded to a peer while it
    /// was outside one (`false`: the caller reports Busy and the retry
    /// negotiates afresh against the peer's by then settled state).
    #[must_use]
    fn enter_critical(&self) -> bool {
        let mut local = self.irlm.local.lock();
        let row = self.row(&mut local);
        row.critical = !row.yielded;
        row.critical
    }

    /// A failed attempt leaves the window at once: negotiation itself must
    /// not read as a conflict or a wide member group storms itself into
    /// timeouts.
    fn exit_critical(&self) {
        self.row(&mut self.irlm.local.lock()).critical = false;
    }

    fn remove_row(&self, local: &mut LocalState) {
        if let Some(at) = local.wanted.iter().position(|w| w.txn == self.txn) {
            local.wanted.swap_remove(at);
        }
    }

    /// End the registration under an already-held latch.
    fn finish_in(self, local: &mut LocalState) {
        self.remove_row(local);
        std::mem::forget(self);
    }
}

impl Drop for Phase2<'_> {
    fn drop(&mut self) {
        self.remove_row(&mut self.irlm.local.lock());
    }
}

/// A per-system IRLM instance.
pub struct Irlm {
    system: SystemId,
    /// Current structure + connector. Every CF-touching operation holds a
    /// read guard; structure rebuild, duplex enable and failover hold the
    /// write guard, which both quiesces in-flight CF operations and
    /// publishes the new connection.
    cf: RwLock<LockConnection>,
    member: Arc<XcfMember>,
    /// The one latch over the member's lock tables. It stays single: every
    /// critical section under it is a few table probes (or a CF command
    /// that must be ordered against them), and a request's cost is the
    /// work inside, not waiting for the latch.
    local: Mutex<LocalState>,
    /// Set by [`Irlm::shutdown`] and [`Irlm::crash`]: the message exit
    /// answers nothing from then on.
    stop: AtomicBool,
    /// Time reference for lock-wait timeouts: the XCF service's timer, so
    /// under the deterministic harness's virtual timer deadlock-breaker
    /// expiry is driven by simulated time.
    timer: Arc<SysplexTimer>,
    /// Published counters.
    pub stats: Arc<IrlmStats>,
}

impl Irlm {
    /// XCF group used by the IRLMs of one lock structure.
    pub fn group_name(structure: &LockStructure) -> String {
        format!("IRLM.{}", structure.name())
    }

    /// XCF member name of the IRLM holding connector `conn`.
    pub fn member_name(conn: ConnId) -> String {
        format!("IRLM{:02}", conn.raw())
    }

    /// Start an IRLM on `system`: the caller supplies a [`LockConnection`]
    /// (the unified CF command path); the IRLM joins the negotiation group
    /// with an XCF message exit, so peers' queries are answered on the
    /// thread that signals them and the IRLM owns no thread of its own.
    pub fn start(system: SystemId, conn: LockConnection, xcf: &Arc<Xcf>) -> DbResult<Arc<Self>> {
        // The exit must exist before the instance it calls into does.
        // Nothing can be addressed to this member before `start` returns:
        // a query goes to a holder, and it holds nothing yet.
        let this = Arc::new(OnceLock::<Weak<Irlm>>::new());
        let exit = {
            let this = Arc::clone(&this);
            Arc::new(move |item| this.get().and_then(Weak::upgrade)?.message_exit(item))
        };
        let group = Self::group_name(conn.structure());
        let member = Arc::new(
            xcf.join_with_exit(&group, &Self::member_name(conn.conn_id()), system, exit)
                .map_err(|_| DbError::NegotiationFailed)?,
        );
        let irlm = Arc::new(Irlm {
            system,
            cf: RwLock::new(conn),
            member,
            local: Mutex::new(LocalState::default()),
            stop: AtomicBool::new(false),
            timer: Arc::clone(xcf.timer()),
            stats: Arc::new(IrlmStats::default()),
        });
        let _ = this.set(Arc::downgrade(&irlm));
        Ok(irlm)
    }

    /// The system this IRLM serves.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// This IRLM's lock-structure connector.
    pub fn conn(&self) -> ConnId {
        self.cf.read().conn_id()
    }

    /// The lock structure currently attached.
    pub fn structure(&self) -> Arc<LockStructure> {
        Arc::clone(self.cf.read().structure())
    }

    /// The subchannel this IRLM's connection issues through.
    pub fn subchannel(&self) -> CfSubchannel {
        self.cf.read().subchannel().clone()
    }

    /// This member's XCF message exit. It runs on the *signalling* thread —
    /// a peer's requester in phase 2 — so it keeps the XCF exit contract:
    /// its own rebuild gate is taken with `try_read` only, it never blocks,
    /// never negotiates and never signals; the verdict is its return value,
    /// computed under `local` and handed back once `local` is released. A
    /// requester (which holds its *own* `cf.read()` and no `local` while it
    /// negotiates) therefore cannot deadlock against a rebuild writer or a
    /// symmetric negotiation. A stopped member — shut down, or crashed and
    /// not yet failed out of the group — answers nothing.
    fn message_exit(&self, item: XcfItem) -> Option<Vec<u8>> {
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        match item {
            XcfItem::Message { from, payload } => self.answer_query(&from, &payload),
            XcfItem::Event(_) => None, // recovery is driven at the Database layer
        }
    }

    /// Answer a peer's negotiation query: `Some` encoded "does anything
    /// here conflict?", or `None` to bytes that are not a query any IRLM
    /// sends (truncated, unknown tag or mode) — which the asker reads as a
    /// conflict.
    fn answer_query(&self, from: &str, payload: &[u8]) -> Option<Vec<u8>> {
        let IrlmSignal::Query { mode, resource } = IrlmSignal::decode(payload).ok()?;
        let name = ResourceName::new(&resource);
        // A peer negotiating on this hash class is about to gain foreign
        // interest: recall our cached fast path for the entry — and
        // surrender parked interest — *before* the answer releases the
        // peer, so a local re-grant can never race the peer's negotiated
        // write. `try_read` keeps the signalling thread from blocking
        // against a rebuild writer; a rebuild rebuilds the cache away
        // anyway.
        let cf = self.cf.try_read();
        let mut local = self.local.lock();
        let state = &mut *local;
        state.recall_seq += 1;
        // A request of our own inside a grant window is invisible to the
        // resource scan below, so it is reported as a conflict and the peer
        // retries against our settled state (see [`Wanted::critical`]).
        let in_window = match &cf {
            Some(cf) => {
                let entry = cf.entry_of(&name);
                let registered = state.in_flight(entry);
                let e = state.entries.entry(entry).or_default();
                if e.cached || e.parked {
                    self.stats.recalls.incr();
                }
                e.cached = false;
                e.cool = RECALL_COOLDOWN;
                if e.parked && e.count == 0 && !registered {
                    // Release under the local latch: a racing requester
                    // must observe either the parked entry or the released
                    // one, never both.
                    e.parked = false;
                    state.parked_live -= 1;
                    let _ = cf.release_lock(entry);
                }
                state.wanted.iter().any(|w| w.entry == entry && w.critical)
            }
            None => {
                // Rebuild in progress: geometry unknown, so conservatively
                // drop every cached flag and treat any grant-window request
                // as a conflict.
                for e in state.entries.values_mut() {
                    e.cached = false;
                }
                state.wanted.iter().any(|w| w.critical)
            }
        };
        let conflict = in_window
            || state.resources.get(&name).is_some_and(|r| r.conflicts_with_peer(mode))
            || state.contest(&name, mode, from < self.member.name());
        self.stats.queries_served.incr();
        Some(to_bytes(&conflict))
    }

    /// Ask each holder whether it really conflicts on `resource`. Returns
    /// `Ok(true)` when the contention was false (nobody conflicts).
    ///
    /// `ignore` names a failed connector whose retained interest is being
    /// recovered *by the caller* — acting on the dead system's behalf, the
    /// recovery coordinator may pass through its retained locks.
    fn negotiate(
        &self,
        cf: &LockConnection,
        holders: u32,
        resource: &[u8],
        mode: LockMode,
        ignore: Option<ConnId>,
    ) -> DbResult<bool> {
        let query = IrlmSignal::Query { mode, resource: resource.to_vec() }.encode();
        for holder in conns_in_mask(holders & !cf.conn_id().mask()) {
            if Some(holder) == ignore {
                continue;
            }
            if cf.is_failed_persistent(holder)? {
                // Retained interest of a dead system conflicts until peer
                // recovery completes.
                return Ok(false);
            }
            match self.member.call(&Self::member_name(holder), &query) {
                Ok(Some(answer)) if matches!(from_bytes(&answer), Ok(false)) => {}
                // It conflicts — or it said nothing (stopped, not yet failed
                // out of the group), said something that is not a verdict,
                // or vanished between the CF response and the query (its
                // interest is going away). None of these is "no conflict":
                // the caller retries, by which time cleanup is done.
                Ok(_) | Err(XcfError::NoSuchMember(_)) => return Ok(false),
                Err(_) => return Err(DbError::NegotiationFailed),
            }
        }
        Ok(true)
    }

    /// Request `mode` on `resource` for transaction `txn` without waiting.
    ///
    /// `persistent` records the lock in CF record data (set for update
    /// locks so they are recoverable after a system failure).
    pub fn lock(&self, txn: u64, resource: &[u8], mode: LockMode, persistent: bool) -> DbResult<LockOutcome> {
        self.lock_inner(txn, resource, mode, persistent, None, &mut None)
    }

    /// [`Irlm::lock`], but negotiation passes through the retained interest
    /// of `recovering` — used only by the peer-recovery coordinator, which
    /// acts on the failed connector's behalf.
    pub fn lock_recover(
        &self,
        txn: u64,
        resource: &[u8],
        mode: LockMode,
        recovering: ConnId,
    ) -> DbResult<LockOutcome> {
        self.lock_inner(txn, resource, mode, false, Some(recovering), &mut None)
    }

    /// Start a waiter's clock unless it is already running. Called where a
    /// request first leaves the fast path — CF contention (before the
    /// negotiation, the one slow step of an attempt) or a Busy verdict — so
    /// a granted request, nearly every one, never touches the clock.
    fn wait_start(&self, waiting: &mut Option<Duration>) -> Duration {
        // Measured with `elapsed()` (the raw time source), not `tod()`: the
        // TOD uniqueness bump inflates under concurrent readers, which
        // would shrink every waiter's timeout exactly when contention is
        // worst.
        *waiting.get_or_insert_with(|| self.timer.elapsed())
    }

    fn lock_inner(
        &self,
        txn: u64,
        resource: &[u8],
        mode: LockMode,
        persistent: bool,
        ignore: Option<ConnId>,
        waiting: &mut Option<Duration>,
    ) -> DbResult<LockOutcome> {
        self.stats.requests.incr();
        // The request's one hash pass: entry index and every table key
        // below derive from it.
        let name = ResourceName::new(resource);
        // Hold the rebuild gate across the whole request: entry indexes
        // are only meaningful against one structure generation.
        let cf = self.cf.read();
        let entry = cf.entry_of(&name);

        // Phase 1: local table under the latch. A grant is local (no CF
        // command) only when this system *already holds the same resource*
        // in a covering way: negotiation soundness guarantees no foreign
        // system can then hold a conflicting mode on it. Entry-level
        // shortcuts are sound in exactly one case — the `cached` fast
        // path below, where a sole-interest exclusive CF grant proved no
        // foreign interest exists and every foreign acquisition since
        // would have recalled the flag before completing.
        let phase2 = {
            let mut local = self.local.lock();
            let state = &mut *local;
            let mut granted = false;
            if let Some(rh) = state.resources.get(&name) {
                if !rh.compatible_for(txn, mode) {
                    self.stats.local_conflicts.incr();
                    return Ok(LockOutcome::Busy);
                }
                let own_exclusive = rh.iter().any(|h| h.txn == txn && h.mode == LockMode::Exclusive);
                if mode == LockMode::Shared || own_exclusive {
                    self.stats.grants_local.incr();
                    granted = true;
                }
            }
            // Local-interest re-grant fast path: the CF hash slot records
            // only this system's (exclusive) interest — new resources,
            // upgrades, and re-acquires of parked locks in the hash class
            // complete with no CF command. Local compatibility was checked
            // above; a resource absent from the local table has no holders.
            if !granted && state.entries.get(&entry).is_some_and(|e| e.cached) {
                self.stats.regrants_local.incr();
                cf.subchannel().emit(sysplex_core::trace::TraceEvent::LockLocalRegrant {
                    entry: entry as u64,
                    conn: cf.conn_id().raw(),
                    exclusive: mode == LockMode::Exclusive,
                });
                granted = true;
            }
            if granted {
                if state.record_grant(txn, &name, entry, mode, persistent) {
                    state.queue_record(&name);
                }
                return Ok(LockOutcome::Granted);
            }
            // Going to the CF: register the request, so a concurrent
            // recall cannot surrender retained interest it may be granted
            // on, with its first grant window already open.
            state.wanted.push(Wanted {
                txn,
                name: name.clone(),
                entry,
                mode,
                critical: true,
                yielded: false,
                unrecorded: false,
                recall_snapshot: state.recall_seq,
            });
            Phase2 { irlm: self, txn }
        };

        // Phase 2: CF command (local latch released — our message exit
        // must be able to answer our peers' queries while we negotiate).
        // Negotiation loop: a successful negotiation is only valid against
        // the holder set it was conducted with. If a *new* holder acquires
        // the entry between the contention response and our interest write
        // (e.g. the old holder released and a third system was granted the
        // freed entry synchronously), the conditional write refuses and we
        // renegotiate against the current holders. Bounded: on a hot entry
        // we eventually report Busy and let the caller's retry loop pace
        // us instead of spinning here.
        let mut renegotiations = 4u32;
        let synchronous = loop {
            // Inside a grant window here: phase 1 opened the first, a
            // renegotiation re-enters at the bottom.
            // A persistent request carries `txn`'s record, written only if
            // it is granted.
            let response = if persistent {
                cf.request_lock_recorded(entry, mode, resource, &txn.to_be_bytes())?
            } else {
                cf.request_lock(entry, mode)?
            };
            match response {
                LockResponse::Granted => {
                    self.stats.grants_cf_sync.incr();
                    break true;
                }
                LockResponse::Contention { holders, generation, .. } => {
                    phase2.exit_critical();
                    self.stats.contentions.incr();
                    self.wait_start(waiting);
                    // No holder conflicts — and no holder's own request
                    // for this resource made ours yield meanwhile.
                    if !self.negotiate(&cf, holders, resource, mode, ignore)? || !phase2.enter_critical() {
                        self.stats.real_conflicts.incr();
                        return Ok(LockOutcome::Busy);
                    }
                    self.stats.false_contentions.incr();
                    cf.subchannel().emit(sysplex_core::trace::TraceEvent::LockFalseContend {
                        entry: entry as u64,
                        holders: holders as u64,
                    });
                    // Quote the contention-time generation: if any holder's
                    // interest departed while we negotiated (it may have
                    // re-acquired — and locally cached — the entry since),
                    // the write refuses and we renegotiate fresh.
                    if cf.force_interest_negotiated(entry, mode, holders, generation)? {
                        break false;
                    }
                    phase2.exit_critical();
                    if renegotiations == 0 || !phase2.enter_critical() {
                        return Ok(LockOutcome::Busy);
                    }
                    renegotiations -= 1;
                }
            }
        };
        self.finish_cf_grant(&cf, phase2, &name, mode, persistent, synchronous)
    }

    /// Phase 3: re-validate locally and record a grant the CF made — by a
    /// `synchronous` request, whose command also wrote a persistent
    /// request's record, or by a negotiated write, which wrote none and so
    /// queues the record the grant needs. The
    /// phase-2 registration ends under the same latch acquisition that
    /// records the grant: from a peer's perspective the entry goes
    /// conflict-by-window to conflict-by-resource with no observable gap.
    fn finish_cf_grant(
        &self,
        cf: &LockConnection,
        phase2: Phase2<'_>,
        name: &ResourceName,
        mode: LockMode,
        persistent: bool,
        synchronous: bool,
    ) -> DbResult<LockOutcome> {
        let txn = phase2.txn;
        let recorded_by_request = synchronous && persistent;
        let mut local = self.local.lock();
        let state = &mut *local;
        let &mut Wanted { entry, unrecorded, recall_snapshot, .. } = phase2.row(state);
        phase2.finish_in(state);
        if state.resources.get(name).is_some_and(|rh| !rh.compatible_for(txn, mode)) {
            // A sibling transaction on this system won the race. Our CF
            // interest stays: the sibling's hold needs it, and the
            // resource scan now covers the entry.
            self.stats.local_conflicts.incr();
            if recorded_by_request {
                self.settle_lost_record(state, cf, name);
            }
            return Ok(LockOutcome::Busy);
        }
        let record = state.record_grant(txn, name, entry, mode, persistent);
        // A synchronous exclusive grant proves zero foreign interest in
        // the entry at this instant — the only state the local fast path
        // may be built on.
        if synchronous && mode == LockMode::Exclusive && state.recall_seq == recall_snapshot {
            let e = state.entries.entry(entry).or_default();
            // A hash class with recent inter-system interest is not
            // worth caching: parking it would just trigger another
            // recall. Burn one cooldown credit instead.
            if e.cool > 0 {
                e.cool -= 1;
            } else {
                e.cached = true;
            }
        }
        // The request's own command wrote its record — over any write of it
        // still queued — unless a sibling's release may have deleted it
        // since: then it is owed again.
        if recorded_by_request && !unrecorded {
            state.queued_records.retain(|q| q != name);
        } else if recorded_by_request || record {
            state.queue_record(name);
        }
        Ok(LockOutcome::Granted)
    }

    /// A persistent request lost phase 3 to a sibling after its own CF
    /// command wrote this member's record for `name`, so the record names
    /// the loser. It must say what the remaining holders hold: rewritten to
    /// the strongest persistent one, or deleted when none is persistent.
    /// Either goes out under the latch, so no later grant or release of
    /// `name` is overtaken by it; an error leaves a record behind, which
    /// over-retains (safe).
    fn settle_lost_record(&self, state: &mut LocalState, cf: &LockConnection, name: &ResourceName) {
        match state.resources.get(name).and_then(Holders::recorded) {
            Some(h) => {
                let _ = cf.write_lock_record_set(&[(name.clone(), h.mode, h.txn.to_be_bytes())]);
            }
            None => {
                state.unrecord(name.clone());
                let _ = Self::send_release_set(state, cf);
            }
        }
    }

    /// Request with retry until `timeout` (the deadlock breaker: waits that
    /// exceed it abort the transaction).
    pub fn lock_wait(
        &self,
        txn: u64,
        resource: &[u8],
        mode: LockMode,
        persistent: bool,
        timeout: Duration,
    ) -> DbResult<()> {
        let mut waiting = None;
        loop {
            match self.lock_inner(txn, resource, mode, persistent, None, &mut waiting)? {
                LockOutcome::Granted => return Ok(()),
                LockOutcome::Busy => {
                    let clock = &self.timer;
                    let waited = clock.elapsed().saturating_sub(self.wait_start(&mut waiting));
                    if waited >= timeout {
                        return Err(DbError::LockTimeout { resource: resource.to_vec(), waited });
                    }
                    // Virtual clock: each retry burns 1ms of simulated time,
                    // so the deadlock breaker fires after a bounded number of
                    // deterministic iterations. Wall clock: a short real
                    // sleep, not a yield — IRLM suspends a blocked
                    // requestor. A pure yield-spin lets N waiters starve
                    // the holder on an oversubscribed host: nobody commits
                    // inside anyone's timeout window and a wide member
                    // group livelocks in abort/retry cycles on the hottest
                    // row.
                    clock.park_us(if clock.is_virtual() { 1_000 } else { 200 });
                }
            }
        }
    }

    /// Release `txn`'s hold on `resource`.
    ///
    /// The last local hold on a *cached* entry is released lazily: CF
    /// interest is parked so a re-acquire in the hash class stays a local
    /// re-grant, and the interest is surrendered only on a peer's recall
    /// or FIFO eviction past [`PARK_CAP`] — which runs when a transaction
    /// ends, so an unlock that leaves `txn` holding nothing evicts too.
    /// What the unlock gives up goes to the CF as at most one command.
    pub fn unlock(&self, txn: u64, resource: &[u8]) -> DbResult<()> {
        self.unlock_set(txn, &[resource])
    }

    /// Release `txn`'s holds on `names` under one latch acquisition, in
    /// order, exactly as that many [`Irlm::unlock`]s would — with at most
    /// one CF command for all of them. Names `txn` does not hold are
    /// skipped.
    pub fn unlock_set<N: AsRef<[u8]>>(&self, txn: u64, names: &[N]) -> DbResult<()> {
        let cf = self.cf.read();
        let mut local = self.local.lock();
        let state = &mut *local;
        for name in names {
            let name = ResourceName::new(name.as_ref());
            let Entry::Occupied(mut held) = state.held.entry(txn) else { break };
            // Newest first: a lock released by name is nearly always one
            // taken last (a commit's page P-locks).
            let Some(at) = held.get().iter().rposition(|held| *held == name) else { continue };
            held.get_mut().swap_remove(at);
            let ended = held.get().is_empty();
            if ended {
                state.spare_lists.push(held.remove());
            }
            self.release_one(state, &cf, txn, name);
            if ended {
                Self::evict_parked(state);
            }
        }
        Self::send_release_set(state, &cf)
    }

    /// Write the records still owed for resources `txn` holds persistently
    /// — owed by grants whose own command wrote none, local re-grants
    /// above all — as one command, under the latch, so no release of the
    /// same names overtakes it. Each says the strongest persistent hold of
    /// its resource and names `txn`. A commit calls it before its first
    /// page write: a record must exist before anything it protects can
    /// reach shared storage, and until then a crash has externalised
    /// nothing it would have to cover. Nothing owed, no command. A failed
    /// set may have written some of the records: the holds still own them,
    /// and their release deletes them.
    pub fn write_records(&self, txn: u64) -> DbResult<()> {
        let cf = self.cf.read();
        let mut local = self.local.lock();
        let state = &mut *local;
        let (set, resources) = (&mut state.record_set, &state.resources);
        state.queued_records.retain(|name| {
            let mine = |rh: &&Holders| rh.iter().any(|h| h.txn == txn && h.persistent);
            let Some(recorded) = resources.get(name).filter(mine).and_then(Holders::recorded) else {
                return true;
            };
            set.push((name.clone(), recorded.mode, txn.to_be_bytes()));
            false
        });
        if set.is_empty() {
            return Ok(());
        }
        let result = cf.write_lock_record_set(set);
        set.clear();
        Ok(result?)
    }

    /// Release everything `txn` holds (commit/abort) with at most one CF
    /// command: the local tables settle whatever it returns, and its error
    /// is reported. A record still owed goes with the last persistent hold
    /// of its resource.
    pub fn unlock_all(&self, txn: u64) -> DbResult<()> {
        let cf = self.cf.read();
        let mut local = self.local.lock();
        let state = &mut *local;
        let Some(mut list) = state.held.remove(&txn) else { return Ok(()) };
        // Release in resource order, not acquisition order: the release
        // set is trace-visible, and replayable simulation runs must produce
        // it identically.
        list.sort_unstable();
        // Eviction is deferred to here, but picks the victims it picked
        // when every park evicted at once: first for what the
        // transaction's own unlocks parked — its other locks still held,
        // as they were then — then after each release. (A FIFO position
        // is only skipped while its entry is not parked, so the moment
        // decides the victim.)
        Self::evict_parked(state);
        for name in list.drain(..) {
            self.release_one(state, &cf, txn, name);
            Self::evict_parked(state);
        }
        state.spare_lists.push(list);
        Self::send_release_set(state, &cf)
    }

    /// Drop `txn`'s hold on `name` (already off its `held` list), adding
    /// what follows from it to the release set: the record, when `txn` was
    /// the last persistent holder, and the entry, when `name` was the last
    /// resource in it and the entry does not park.
    fn release_one(&self, state: &mut LocalState, cf: &LockConnection, txn: u64, name: ResourceName) {
        let Entry::Occupied(mut slot) = state.resources.entry(name) else { return };
        let Some(holder) = slot.get_mut().remove(txn) else { return };
        let unrecord = holder.persistent && !slot.get().iter().any(|h| h.persistent);
        let name = if slot.get().is_empty() {
            let (name, _) = slot.remove_entry();
            self.release_entry_use(state, cf, cf.entry_of(&name));
            name
        } else if unrecord {
            slot.key().clone()
        } else {
            return;
        };
        if unrecord {
            state.unrecord(name);
        }
    }

    /// The last local holder of one resource hashing to `entry` is gone:
    /// queue the entry's release when it was the last resource — or park
    /// it.
    fn release_entry_use(&self, state: &mut LocalState, cf: &LockConnection, entry: usize) {
        let registered = state.in_flight(entry);
        let e = state.entries.get_mut(&entry).expect("a held resource counts in its entry");
        e.count -= 1;
        if e.count > 0 {
            return;
        }
        // A sibling request in phase 2/3 may already have written CF
        // interest for this entry that it has not yet recorded locally;
        // releasing the entry here would yank that interest out from under
        // the grant and let a peer acquire a conflicting lock. Park instead
        // — the recall/eviction machinery surrenders the interest once
        // nothing is in flight.
        if e.cached || registered {
            state.park(entry);
            self.stats.lazy_releases.incr();
            cf.subchannel().emit(sysplex_core::trace::TraceEvent::LockLazyRelease {
                entry: entry as u64,
                conn: cf.conn_id().raw(),
            });
        } else {
            state.settle(entry);
            state.release_entries.push(entry);
        }
    }

    /// Evict FIFO past [`PARK_CAP`] into the release set, skipping
    /// positions that are not live; an in-flight victim rotates to the
    /// back.
    fn evict_parked(state: &mut LocalState) {
        let mut budget = state.parked.len();
        while state.parked_live > PARK_CAP && budget > 0 {
            budget -= 1;
            let Some(position) = state.parked.pop_front() else { break };
            if !LocalState::live(&state.entries, position) {
                continue;
            }
            let victim = position.0;
            if state.in_flight(victim) {
                state.parked.push_back(position);
                continue;
            }
            let v = state.entries.get_mut(&victim).expect("a live position has its entry");
            v.parked = false;
            v.cached = false;
            state.parked_live -= 1;
            state.settle(victim);
            state.release_entries.push(victim);
        }
    }

    /// Send the release set gathered under this latch acquisition, if any,
    /// as one command. Runs under the latch: a racing requester must
    /// observe either our live interest or the released entry, never have
    /// its phase-2 interest revoked after the fact, and a sibling granted a
    /// resource next must write its record after ours is deleted. When the
    /// command fails, the CF may or may not have executed it: its entries
    /// are parked again — uncached, so they never grant locally, and the
    /// next recall or eviction surrenders them — and its records stay
    /// behind, which over-retains (safe).
    fn send_release_set(state: &mut LocalState, cf: &LockConnection) -> DbResult<()> {
        if state.release_entries.is_empty() && state.release_records.is_empty() {
            return Ok(());
        }
        let result = cf.release_set(&state.release_entries, &state.release_records);
        if result.is_err() {
            for at in 0..state.release_entries.len() {
                state.park(state.release_entries[at]);
            }
        }
        state.release_entries.clear();
        state.release_records.clear();
        Ok(result?)
    }

    /// Resources `txn` currently holds, with modes (diagnostics).
    pub fn held_by(&self, txn: u64) -> Vec<(Vec<u8>, LockMode)> {
        let local = self.local.lock();
        let mut v: Vec<(Vec<u8>, LockMode)> = local
            .held
            .get(&txn)
            .into_iter()
            .flatten()
            .filter_map(|name| {
                let holder = local.resources.get(name)?.iter().find(|h| h.txn == txn)?;
                Some((name.as_bytes().to_vec(), holder.mode))
            })
            .collect();
        v.sort();
        v
    }

    /// Strongest local mode on a resource (diagnostics).
    pub fn local_mode(&self, resource: &[u8]) -> Option<LockMode> {
        self.local.lock().resources.get(&ResourceName::new(resource)).and_then(|rh| rh.strongest())
    }

    // ----- failure & recovery -----

    /// Mark a peer's connector failed-persistent (called by the recovery
    /// coordinator when the heartbeat declares that system dead).
    pub fn mark_peer_failed(&self, peer: ConnId) -> DbResult<()> {
        Ok(self.cf.read().detach_peer(peer, DisconnectMode::Abnormal)?)
    }

    /// The retained (persistent) locks of a failed connector.
    pub fn retained_locks_of(&self, peer: ConnId) -> DbResult<Vec<RetainedLock>> {
        Ok(self.cf.read().retained_locks_of(peer)?)
    }

    /// Peer recovery finished: free the dead connector's interest/records.
    pub fn complete_peer_recovery(&self, peer: ConnId) -> DbResult<()> {
        Ok(self.cf.read().recovery_complete_for(peer)?)
    }

    /// Whether this member's connection mirrors into an intact duplex
    /// pair.
    pub fn is_duplexed(&self) -> bool {
        self.cf.read().is_duplexed()
    }

    /// Enable duplexing for a whole group: quiesce, join every member's
    /// connection to one pair onto `secondary` (same connector slots;
    /// identical geometry required) and replay its interest and records
    /// there. Every connection mirrors from then on, a member's that
    /// attaches later included.
    pub fn enable_duplexing(
        members: &[Arc<Irlm>],
        secondary: Arc<LockStructure>,
        sub: &CfSubchannel,
    ) -> DbResult<()> {
        let mut guards: Vec<_> = members.iter().map(|m| m.cf.write()).collect();
        let pair = DuplexPair::new(secondary, sub);
        for (member, guard) in members.iter().zip(guards.iter_mut()) {
            // Same geometry: the secondary's entry table is the member's own.
            member.local.lock().replay_onto(guard.duplex_into(&pair)?)?;
        }
        Ok(())
    }

    /// The primary CF is gone: with every member's gate held, promote
    /// every member's secondary connection — unless one is simplex or
    /// `then` (the group's other structure) fails, when nothing changes.
    /// Nothing is lost and nothing needs recovery — the §3.3 availability
    /// argument for multiple CFs, in its strongest form.
    pub fn failover_all(members: &[Arc<Irlm>], then: impl FnOnce() -> DbResult<()>) -> DbResult<()> {
        let mut guards: Vec<_> = members.iter().map(|m| m.cf.write()).collect();
        let promoted: Option<Vec<_>> = guards.iter().map(|g| g.promote()).collect();
        let promoted = promoted.ok_or(DbError::Cf(CfError::WrongModel))?;
        then()?;
        for (guard, conn) in guards.iter_mut().zip(promoted) {
            **guard = conn;
        }
        Ok(())
    }

    /// Rebuild the lock space of a whole data-sharing group into a fresh
    /// structure (typically on another CF — planned CF maintenance or CF
    /// failure, §3.3: "Multiple CF's can be connected for availability").
    ///
    /// Protocol: every member's rebuild gate is taken (quiescing all CF
    /// lock traffic group-wide), then each member re-creates its interest
    /// and persistent records in the new structure *from its local tables*
    /// — the same in-storage-rebuild the real XES performs — keeping its
    /// connector slot so peer addressing is unchanged. Members with
    /// failed-persistent state must be recovered before rebuilding.
    pub fn rebuild_all(members: &[Arc<Irlm>], new: Arc<LockStructure>, sub: &CfSubchannel) -> DbResult<()> {
        // Quiesce the whole group before any member swaps: lock spaces of
        // different generations must never coexist.
        let mut guards: Vec<_> = members.iter().map(|m| m.cf.write()).collect();
        for (member, guard) in members.iter().zip(guards.iter_mut()) {
            let new_conn =
                LockConnection::attach_slot(&new, sub.sibling().with_system(member.system), guard.conn_id())?;
            let mut local = member.local.lock();
            // Fresh entries carry no cached flags (foreign interest is
            // re-imported unconditionally, so no sole-interest proof
            // exists) and no cooldown (its indexes are against the old
            // geometry), and no request is registered on the old ones (the
            // rebuild gate admits none in flight); parked interest is
            // simply not re-created — the old structure's Normal detach
            // below surrenders it.
            local.entries = local.replay_onto(&new_conn)?;
            local.parked.clear();
            local.parked_live = 0;
            drop(local);
            // The old structure (or its CF) may already be gone. The new
            // one is simplex: re-enable duplexing afterwards if desired.
            let _ = guard.detach(DisconnectMode::Normal);
            **guard = new_conn;
        }
        Ok(())
    }

    /// Grow (or shrink) the lock table online: rebuild the whole group
    /// into `new` — the same §3.3 quiesced-rebuild machinery; every live
    /// resource is rehashed against the new geometry — and emit the
    /// table-resize trace event once the swap completes. Held locks and
    /// persistent records carry over exactly; parked (lazily released)
    /// interest is deliberately not re-created.
    pub fn resize_all(members: &[Arc<Irlm>], new: Arc<LockStructure>, sub: &CfSubchannel) -> DbResult<()> {
        let from = members.first().map(|m| m.structure().entries()).unwrap_or(0);
        let to = new.entries();
        Self::rebuild_all(members, new, sub)?;
        sub.emit(sysplex_core::trace::TraceEvent::LockTableResize {
            from_entries: from as u64,
            to_entries: to as u64,
        });
        Ok(())
    }

    /// Orderly shutdown: silence the message exit, leave the group,
    /// disconnect from the structure.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.member.leave();
        let cf = self.cf.read();
        let _ = cf.detach(DisconnectMode::Normal);
    }

    /// Abandon the instance as a failed system would: silence the message
    /// exit *without* cleaning up CF state — the structure keeps this
    /// connector's interest until [`Irlm::mark_peer_failed`] /
    /// [`Irlm::complete_peer_recovery`] run on a survivor.
    pub fn crash(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Adaptive lock-table sizing policy (§3.3.1 / experiment E10): watch the
/// observed false-contention rate per interval and recommend growing the
/// table while the rate stays above threshold. The caller owns *when* to
/// observe (per RMF interval, per N operations, …) and *how* to execute
/// the grow ([`Irlm::resize_all`] / `DataSharingGroup::resize_lock_table`).
#[derive(Debug, Clone)]
pub struct LockResizePolicy {
    /// Grow when an interval's false contentions exceed this fraction of
    /// its lock requests (e.g. `0.01` for the 1% target).
    pub threshold: f64,
    /// Never recommend a table larger than this.
    pub max_entries: usize,
    /// Ignore intervals with fewer requests than this — too little signal.
    pub min_interval_requests: u64,
    last_requests: u64,
    last_false: u64,
}

impl LockResizePolicy {
    /// Policy with the given threshold fraction and size ceiling.
    pub fn new(threshold: f64, max_entries: usize) -> Self {
        LockResizePolicy {
            threshold,
            max_entries,
            min_interval_requests: 256,
            last_requests: 0,
            last_false: 0,
        }
    }

    /// Feed the *cumulative* request / false-contention counters (e.g.
    /// [`IrlmStats`] sums across a group) plus the current table size.
    /// Returns `Some(new_entries)` when the interval since the previous
    /// call ran hot enough to justify doubling the table.
    pub fn observe(
        &mut self,
        requests: u64,
        false_contentions: u64,
        current_entries: usize,
    ) -> Option<usize> {
        let dr = requests.saturating_sub(self.last_requests);
        let df = false_contentions.saturating_sub(self.last_false);
        self.last_requests = requests;
        self.last_false = false_contentions;
        if dr < self.min_interval_requests || current_entries >= self.max_entries {
            return None;
        }
        if df as f64 / dr as f64 > self.threshold {
            Some((current_entries.saturating_mul(2)).min(self.max_entries))
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Irlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Irlm").field("system", &self.system).field("conn", &self.conn()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::lock::LockParams;

    struct Rig {
        irlms: Vec<Arc<Irlm>>,
        cf: Arc<CouplingFacility>,
        xcf: Arc<Xcf>,
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            for i in &self.irlms {
                i.shutdown();
            }
        }
    }

    fn rig(n: usize, entries: usize) -> Rig {
        let xcf = Xcf::new(SysplexTimer::new());
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("IRLMLOCK1", LockParams::with_entries(entries)).unwrap();
        let irlms = (0..n)
            .map(|i| {
                let conn = cf.connect_lock("IRLMLOCK1").unwrap();
                Irlm::start(SystemId::new(i as u8), conn, &xcf).unwrap()
            })
            .collect();
        Rig { irlms, cf, xcf }
    }

    #[test]
    fn malformed_signals_are_dropped_not_guessed_at() {
        let query = IrlmSignal::Query { mode: LockMode::Exclusive, resource: b"ROW.1".to_vec() };
        // Tag, mode byte, then the resource's length word.
        const MODE_AT: usize = 1;
        let full = query.encode();
        assert_eq!(IrlmSignal::decode(&full).unwrap(), query);
        let mut malformed: Vec<Vec<u8>> = (0..full.len()).map(|cut| full[..cut].to_vec()).collect();
        let mut lying = full.clone();
        lying[MODE_AT + 1..MODE_AT + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        malformed.push(lying);
        // Neither Shared nor Exclusive: must not be served as a Shared query.
        let mut bad_mode = full.clone();
        bad_mode[MODE_AT] = 2;
        malformed.push(bad_mode);
        // A tag no signal has.
        malformed.push(vec![1, 0]);

        let r = rig(2, 1024);
        let peer = Irlm::member_name(r.irlms[1].conn());
        for bytes in &malformed {
            assert!(IrlmSignal::decode(bytes).is_err(), "{bytes:02x?} decoded");
            assert_eq!(r.irlms[0].answer_query(&peer, bytes), None);
        }
        assert_eq!(r.irlms[0].stats.queries_served.get(), 0);
        assert_eq!(r.irlms[0].answer_query(&peer, &full), Some(to_bytes(&false)));
        assert_eq!(r.irlms[0].stats.queries_served.get(), 1);
    }

    #[test]
    fn only_a_well_formed_no_conflict_answer_is_no_conflict() {
        // One entry, held at the CF by a connector whose XCF member is not
        // an IRLM: its exit answers every query with the bytes under test.
        let r = rig(1, 1);
        let a = &r.irlms[0];
        let holder = r.cf.connect_lock("IRLMLOCK1").unwrap();
        assert_eq!(holder.request_lock(0, LockMode::Exclusive).unwrap(), LockResponse::Granted);
        let answer = Arc::new(Mutex::new(None));
        let exit = {
            let answer = Arc::clone(&answer);
            Arc::new(move |_| answer.lock().clone())
        };
        let group = Irlm::group_name(holder.structure());
        let _member = r
            .xcf
            .join_with_exit(&group, &Irlm::member_name(holder.conn_id()), SystemId::new(9), exit)
            .unwrap();
        let garbled = [None, Some(vec![]), Some(vec![2]), Some(vec![0, 0]), Some(vec![1, 0]), Some(vec![1])];
        for (txn, bytes) in garbled.into_iter().enumerate() {
            *answer.lock() = bytes.clone();
            let outcome = a.lock(txn as u64, b"ROW.1", LockMode::Exclusive, false).unwrap();
            assert_eq!(outcome, LockOutcome::Busy, "answer {bytes:02x?} read as no conflict");
        }
        assert_eq!(a.stats.real_conflicts.get(), 6);
        *answer.lock() = Some(to_bytes(&false));
        assert_eq!(a.lock(9, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.false_contentions.get(), 1);
    }

    #[test]
    fn uncontended_exclusive_is_cf_synchronous() {
        let r = rig(2, 1024);
        let a = &r.irlms[0];
        assert_eq!(a.lock(1, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.grants_cf_sync.get(), 1);
        assert_eq!(a.stats.contentions.get(), 0);
    }

    #[test]
    fn second_lock_in_same_hash_class_is_local() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        a.lock(1, b"ROW.1", LockMode::Exclusive, false).unwrap();
        // Different txn, different resource — but covering CF interest
        // exists only if the hash classes collide; force same resource
        // to exercise the local path with a shared re-grant by same txn.
        assert_eq!(a.lock(1, b"ROW.1", LockMode::Shared, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.grants_local.get(), 1, "covered by existing interest: no CF command");
    }

    #[test]
    fn real_conflict_across_systems_is_busy_and_resolves_on_release() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.7", LockMode::Exclusive, true).unwrap();
        assert_eq!(b.lock(2, b"ROW.7", LockMode::Exclusive, true).unwrap(), LockOutcome::Busy);
        assert_eq!(b.stats.real_conflicts.get(), 1);
        // A contended request carries its record, but writes none.
        assert!(b.retained_locks_of(b.conn()).unwrap().is_empty());
        a.unlock(1, b"ROW.7").unwrap();
        assert_eq!(b.lock(2, b"ROW.7", LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        let owners: Vec<u8> = a.structure().records_snapshot().into_iter().map(|(_, conn, _)| conn).collect();
        assert_eq!(owners, [b.conn().raw()], "a's record went with its release");
    }

    #[test]
    fn shared_locks_coexist_across_systems() {
        let r = rig(3, 1024);
        for (i, irlm) in r.irlms.iter().enumerate() {
            assert_eq!(
                irlm.lock(i as u64 + 1, b"ROW.42", LockMode::Shared, false).unwrap(),
                LockOutcome::Granted,
                "system {i}"
            );
        }
    }

    #[test]
    fn false_contention_detected_and_granted() {
        // One lock table entry: every resource collides.
        let r = rig(2, 1);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.A", LockMode::Exclusive, false).unwrap();
        // Different resource, same (only) entry: CF sees contention, but
        // negotiation discovers a lives on ROW.A — false contention.
        assert_eq!(b.lock(2, b"ROW.B", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(b.stats.contentions.get(), 1);
        assert_eq!(b.stats.false_contentions.get(), 1);
        assert_eq!(b.stats.real_conflicts.get(), 0);
        assert_eq!(a.stats.queries_served.get(), 1, "peer answered the negotiation query");
        // And a real conflict on the same entry still caught.
        assert_eq!(b.lock(2, b"ROW.A", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
    }

    #[test]
    fn local_conflict_detected_without_cf() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        a.lock(1, b"ROW.5", LockMode::Exclusive, false).unwrap();
        let before = a.stats.contentions.get();
        assert_eq!(a.lock(2, b"ROW.5", LockMode::Shared, false).unwrap(), LockOutcome::Busy);
        assert_eq!(a.stats.local_conflicts.get(), 1);
        assert_eq!(a.stats.contentions.get(), before, "no CF contention for a local conflict");
    }

    #[test]
    fn upgrade_shared_to_exclusive() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.9", LockMode::Shared, false).unwrap();
        b.lock(2, b"ROW.9", LockMode::Shared, false).unwrap();
        // Upgrade blocked by b's shared hold.
        assert_eq!(a.lock(1, b"ROW.9", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        b.unlock(2, b"ROW.9").unwrap();
        assert_eq!(a.lock(1, b"ROW.9", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.local_mode(b"ROW.9"), Some(LockMode::Exclusive));
    }

    #[test]
    fn lock_wait_times_out_on_real_conflict() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.1", LockMode::Exclusive, false).unwrap();
        let err =
            b.lock_wait(2, b"ROW.1", LockMode::Exclusive, false, Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }));
    }

    #[test]
    fn unlock_all_releases_everything() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        for k in 0..10u64 {
            a.lock(1, format!("ROW.{k}").as_bytes(), LockMode::Exclusive, false).unwrap();
        }
        assert_eq!(a.held_by(1).len(), 10);
        a.unlock_all(1).unwrap();
        assert!(a.held_by(1).is_empty());
        for k in 0..10u64 {
            assert_eq!(
                b.lock(2, format!("ROW.{k}").as_bytes(), LockMode::Exclusive, false).unwrap(),
                LockOutcome::Granted
            );
        }
    }

    #[test]
    fn unlock_all_releases_everything_despite_a_failed_release() {
        use sysplex_core::connection::LinkFault;
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        // Shared grants are never cached, so unlock_all releases all five
        // entries — and deletes ROW.4's record — in its one command.
        let rows: Vec<Vec<u8>> = (0..5u64).map(|k| format!("ROW.{k}").into_bytes()).collect();
        for (k, row) in rows.iter().enumerate() {
            a.lock(1, row, LockMode::Shared, k == 4).unwrap();
        }
        r.cf.inject_fault(LinkFault::Timeout);
        let err = a.unlock_all(1).unwrap_err();
        assert!(
            matches!(err, DbError::Cf(sysplex_core::CfError::LinkTimeout("lock-release"))),
            "got {err:?}"
        );
        // The release set was lost: the local tables settle all the same,
        // the interest and the record stay behind at the CF.
        assert!(a.held_by(1).is_empty());
        assert!(rows.iter().all(|row| a.local_mode(row).is_none()));
        assert_eq!(a.structure().interest_count(a.conn()), 5);
        assert_eq!(a.structure().record_count(), 1, "over-retained, which is safe");
        // The entries are parked, not cached: a re-acquire still asks the
        // CF, and a peer's recall surrenders them — the lost release does
        // not leak interest for good.
        let before = a.stats.grants_cf_sync.get();
        assert_eq!(a.lock(2, &rows[0], LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.grants_cf_sync.get(), before + 1);
        a.unlock_all(2).unwrap();
        for row in &rows {
            assert_eq!(b.lock(3, row, LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        }
        assert_eq!(a.structure().interest_count(a.conn()), 0);
        assert_eq!(a.stats.local_conflicts.get(), 0);
    }

    #[test]
    fn a_record_lives_while_any_persistent_holder_does() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        // Two persistent holders of ROW.1; ROW.2's second holder is not
        // persistent.
        for (txn, persistent) in [(1, true), (2, true)] {
            a.lock(txn, b"ROW.1", LockMode::Shared, persistent).unwrap();
        }
        for (txn, persistent) in [(1, true), (2, false)] {
            a.lock(txn, b"ROW.2", LockMode::Shared, persistent).unwrap();
        }
        assert_eq!(a.structure().record_count(), 2, "one record a resource, however many holders");
        a.unlock(1, b"ROW.1").unwrap();
        a.unlock(1, b"ROW.2").unwrap();
        a.crash();
        b.mark_peer_failed(a.conn()).unwrap();
        // Txn 2 still holds ROW.1 persistently: recovery must retain it.
        let retained = b.retained_locks_of(a.conn()).unwrap();
        assert_eq!(retained.iter().map(|l| l.resource.as_slice()).collect::<Vec<_>>(), [b"ROW.1"]);
    }

    /// Register `txn`'s request for `name` as phase 1 does, so a test can
    /// play the request's CF command and phase 3 in an order of its own.
    fn register<'a>(irlm: &'a Irlm, txn: u64, name: &ResourceName, mode: LockMode) -> Phase2<'a> {
        let entry = irlm.cf.read().entry_of(name);
        let mut local = irlm.local.lock();
        let recall_snapshot = local.recall_seq;
        local.wanted.push(Wanted {
            txn,
            name: name.clone(),
            entry,
            mode,
            critical: true,
            yielded: false,
            unrecorded: false,
            recall_snapshot,
        });
        Phase2 { irlm, txn }
    }

    /// Who the member's records for `a` name: `(resource, txn)` pairs.
    fn records_of(a: &Irlm) -> Vec<(Vec<u8>, u64)> {
        let records = a.retained_locks_of(a.conn()).unwrap();
        records.into_iter().map(|l| (l.resource, u64::from_be_bytes(l.payload.try_into().unwrap()))).collect()
    }

    #[test]
    fn a_lost_phase_3_leaves_the_record_to_the_winner() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        let name = ResourceName::new(b"ROW.1");
        let x = LockMode::Exclusive;
        for winner_persistent in [true, false] {
            // Txn 2 registers and goes to the CF; meanwhile its sibling,
            // txn 1, is granted the resource outright; then txn 2's command
            // lands, writing its record over txn 1's.
            let phase2 = register(a, 2, &name, x);
            assert_eq!(a.lock(1, name.as_bytes(), x, winner_persistent).unwrap(), LockOutcome::Granted);
            let entry = a.cf.read().entry_of(&name);
            assert!(a
                .cf
                .read()
                .request_lock_recorded(entry, x, name.as_bytes(), &2u64.to_be_bytes())
                .unwrap()
                .is_granted());
            assert_eq!(records_of(a), [(b"ROW.1".to_vec(), 2)]);
            // Phase 3 finds txn 1 holding: txn 2 loses, and the record is
            // the winner's — or gone, when the winner keeps no record.
            let outcome = a.finish_cf_grant(&a.cf.read(), phase2, &name, x, true, true).unwrap();
            assert_eq!(outcome, LockOutcome::Busy);
            let want: Vec<(Vec<u8>, u64)> =
                if winner_persistent { vec![(b"ROW.1".to_vec(), 1)] } else { vec![] };
            assert_eq!(records_of(a), want);
            a.unlock_all(1).unwrap();
            assert!(records_of(a).is_empty());
        }
    }

    #[test]
    fn a_record_deleted_under_a_phase_2_request_is_written_again() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        let name = ResourceName::new(b"ROW.1");
        let x = LockMode::Exclusive;
        // Txn 2's command writes its record; before its phase 3, sibling
        // txn 1 takes the resource, writes its own record, and releases
        // it — deleting the record txn 2's grant is about to rely on. The
        // grant owes its record again, and the transaction's record set
        // writes it.
        let phase2 = register(a, 2, &name, x);
        let entry = a.cf.read().entry_of(&name);
        assert!(a
            .cf
            .read()
            .request_lock_recorded(entry, x, name.as_bytes(), &2u64.to_be_bytes())
            .unwrap()
            .is_granted());
        assert_eq!(a.lock(1, name.as_bytes(), x, true).unwrap(), LockOutcome::Granted);
        a.unlock_all(1).unwrap();
        assert!(records_of(a).is_empty());
        let outcome = a.finish_cf_grant(&a.cf.read(), phase2, &name, x, true, true).unwrap();
        assert_eq!(outcome, LockOutcome::Granted);
        a.write_records(2).unwrap();
        assert_eq!(records_of(a), [(b"ROW.1".to_vec(), 2)]);
        a.unlock_all(2).unwrap();
        assert!(records_of(a).is_empty());
    }

    #[test]
    fn long_names_take_the_heap_path_and_round_trip() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        let long = vec![b'n'; 200];
        assert_eq!(a.lock(7, &long, LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        assert_eq!(a.held_by(7), vec![(long.clone(), LockMode::Exclusive)]);
        assert_eq!(b.lock(8, &long, LockMode::Shared, false).unwrap(), LockOutcome::Busy);
        a.crash();
        b.mark_peer_failed(a.conn()).unwrap();
        let retained = b.retained_locks_of(a.conn()).unwrap();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].resource, long);
        assert_eq!(retained[0].payload, 7u64.to_be_bytes());
    }

    #[test]
    fn persistent_locks_are_retained_after_crash() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(77, b"ROW.PAY", LockMode::Exclusive, true).unwrap();
        a.crash();
        b.mark_peer_failed(a.conn()).unwrap();
        // Survivor sees the retained lock and who held it.
        let retained = b.retained_locks_of(a.conn()).unwrap();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].resource, b"ROW.PAY");
        assert_eq!(retained[0].payload, 77u64.to_be_bytes());
        // The resource is still protected until recovery completes.
        assert_eq!(b.lock(2, b"ROW.PAY", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        b.complete_peer_recovery(a.conn()).unwrap();
        assert_eq!(b.lock(2, b"ROW.PAY", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
    }

    #[test]
    fn nonpersistent_locks_vanish_with_normal_shutdown() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.X", LockMode::Exclusive, false).unwrap();
        a.shutdown();
        assert_eq!(b.lock(2, b"ROW.X", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
    }

    #[test]
    fn regrant_fast_path_skips_cf_commands() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        a.lock(1, b"ROW.1", LockMode::Exclusive, false).unwrap();
        assert_eq!(a.stats.grants_cf_sync.get(), 1);
        // Last hold drops: CF interest is parked, not released.
        a.unlock(1, b"ROW.1").unwrap();
        assert_eq!(a.stats.lazy_releases.get(), 1);
        assert_eq!(a.structure().interest_count(a.conn()), 1, "interest retained at the CF");
        // Re-acquire (different txn): served from the cached sole-interest
        // grant — no CF command of any kind.
        assert_eq!(a.lock(2, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.regrants_local.get(), 1);
        assert_eq!(a.stats.grants_cf_sync.get(), 1, "no second CF grant");
        // A new resource in the same hash class also rides the fast path.
        let colliding = (0..10_000u32)
            .map(|i| format!("ROW.C{i}").into_bytes())
            .find(|n| {
                n != b"ROW.1" && a.structure().hash_resource(n) == a.structure().hash_resource(b"ROW.1")
            })
            .expect("some resource collides");
        assert_eq!(a.lock(2, &colliding, LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.regrants_local.get(), 2);
    }

    #[test]
    fn recall_surrenders_parked_interest() {
        let r = rig(2, 1);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.A", LockMode::Exclusive, false).unwrap();
        a.unlock(1, b"ROW.A").unwrap();
        assert_eq!(a.stats.lazy_releases.get(), 1);
        assert_eq!(a.structure().interest_count(a.conn()), 1);
        // b's negotiation recalls a's parked interest; the surrender (and
        // the generation bump it causes) forces b through one renegotiation
        // and it lands a clean synchronous grant on the emptied entry.
        assert_eq!(b.lock(2, b"ROW.B", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.recalls.get(), 1);
        assert_eq!(a.structure().interest_count(a.conn()), 0, "parked interest surrendered");
    }

    #[test]
    fn exclusivity_holds_through_regrants_after_recall() {
        let r = rig(2, 1);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.A", LockMode::Exclusive, false).unwrap();
        a.unlock(1, b"ROW.A").unwrap();
        // b takes the very resource a had parked. The recall surrendered
        // a's interest, so a's next request must go to the CF and lose.
        assert_eq!(b.lock(2, b"ROW.A", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.lock(3, b"ROW.A", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        assert_eq!(a.stats.regrants_local.get(), 0, "fast path never fired after the recall");
    }

    #[test]
    fn negotiation_completes_on_the_calling_thread() {
        let r = rig(2, 1);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        b.lock(1, b"ROW.B", LockMode::Exclusive, false).unwrap();
        b.unlock(1, b"ROW.B").unwrap();
        assert_eq!(b.structure().interest_count(b.conn()), 1, "b is parked on the entry");
        // This thread is the only one the test has: whatever b did for
        // a's request, a's own call did it.
        assert_eq!(a.lock(2, b"ROW.A", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(b.stats.queries_served.get(), 1);
        assert_eq!(b.stats.recalls.get(), 1);
        assert_eq!(b.structure().interest_count(b.conn()), 0);
        // And no IRLM owns a thread (a task's `comm` is its thread name).
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
            assert!(!comm.starts_with("irlm-"), "an IRLM spawned a service thread: {comm}");
        }
    }

    #[test]
    fn crashed_holder_is_silent_until_failed_out_of_xcf() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.1", LockMode::Exclusive, false).unwrap();
        a.crash();
        // Still a group member, so the query is delivered — and answered
        // with nothing, at once: silence is a conflict, not a wait.
        let asked = std::time::Instant::now();
        assert_eq!(b.lock(2, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        assert!(
            asked.elapsed() < Duration::from_millis(100),
            "waited {:?} on a silent holder",
            asked.elapsed()
        );
        assert_eq!(a.stats.queries_served.get(), 0);
        assert_eq!(b.stats.real_conflicts.get(), 1);
        // Failed out of the group, the holder is undeliverable: the same.
        r.xcf.fail_system(a.system());
        assert_eq!(b.lock(2, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        assert_eq!(b.stats.real_conflicts.get(), 2);
    }

    #[test]
    fn a_registered_entry_is_parked_not_released_and_never_surrendered() {
        // One entry, two members. A sibling of txn 1 on `a` sits between
        // phase 1 and phase 3 — registered, outside a grant window — for
        // as long as the test leaves its row in `wanted`.
        let r = rig(2, 1);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        let interest = |i: &Irlm| i.structure().interest_count(i.conn());
        let sibling = |critical| Wanted {
            txn: 2,
            name: ResourceName::new(b"ROW.S"),
            entry: 0,
            mode: LockMode::Shared,
            critical,
            yielded: false,
            unrecorded: false,
            recall_snapshot: 0,
        };
        // Shared grants are never cached: without the sibling this unlock
        // would release the entry.
        a.lock(1, b"ROW.A", LockMode::Shared, false).unwrap();
        a.local.lock().wanted.push(sibling(false));
        a.unlock(1, b"ROW.A").unwrap();
        assert_eq!(a.stats.lazy_releases.get(), 1, "the last local unlock parked the entry");
        assert_eq!(interest(a), 1, "the sibling may be granted on this interest");
        // A peer's query recalls the entry but must not surrender it.
        assert_eq!(b.lock(3, b"ROW.B", LockMode::Shared, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.queries_served.get(), 0, "Shared on Shared is no contention");
        assert_eq!(b.lock(3, b"ROW.B", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!((a.stats.queries_served.get(), a.stats.recalls.get()), (1, 1));
        assert_eq!(interest(a), 1, "recalled, not surrendered: a request is registered on it");
        // Merely negotiating does not read as a conflict (the grant above);
        // inside a grant window it does, whatever the resource.
        a.local.lock().wanted[0].critical = true;
        assert_eq!(b.lock(4, b"ROW.C", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        // With the registration gone the next recall surrenders.
        a.local.lock().wanted.clear();
        assert_eq!(b.lock(4, b"ROW.C", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(interest(a), 0);
    }

    #[test]
    fn exclusivity_holds_under_symmetric_negotiation_and_rebuild() {
        // One entry: each member's own row falsely contends with the
        // peer's held or parked interest, so both requesters run the
        // other's message exit at once, while a third thread takes every
        // rebuild gate twice. ROW.X is the racy cell's lock.
        const ROUNDS: u64 = 10_000;
        let r = rig(2, 1);
        let counter = AtomicU64::new(0);
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for (i, irlm) in r.irlms.iter().enumerate() {
                let (counter, done) = (&counter, &done);
                scope.spawn(move || {
                    let own = format!("ROW.{i}");
                    for t in 0..ROUNDS {
                        let txn = (i as u64) << 32 | t;
                        let wait = Duration::from_secs(60);
                        irlm.lock_wait(txn, own.as_bytes(), LockMode::Exclusive, false, wait).unwrap();
                        irlm.lock_wait(txn, b"ROW.X", LockMode::Exclusive, false, wait).unwrap();
                        let v = counter.load(Ordering::Relaxed);
                        std::thread::yield_now();
                        counter.store(v + 1, Ordering::Relaxed);
                        irlm.unlock_all(txn).unwrap();
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            scope.spawn(|| {
                for generation in 1..=2 {
                    while done.load(Ordering::Relaxed) < generation * ROUNDS / 2 {
                        std::thread::yield_now();
                    }
                    let name = format!("IRLMLOCK1_G{generation}");
                    let new = r.cf.allocate_lock_structure(&name, LockParams::with_entries(1)).unwrap();
                    Irlm::rebuild_all(&r.irlms, new, &r.cf.subchannel()).unwrap();
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2 * ROUNDS);
        let served: u64 = r.irlms.iter().map(|i| i.stats.queries_served.get()).sum();
        assert!(served > 0, "the members negotiated");
    }

    #[test]
    fn persistent_regrant_stays_recoverable_after_crash() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        a.lock(1, b"ROW.P", LockMode::Exclusive, true).unwrap();
        a.unlock(1, b"ROW.P").unwrap();
        // Fast-path re-grant of a persistent lock must still write the CF
        // record before the transaction externalises anything — the cached
        // grant is worthless if a fenced holder's locks can't be
        // reconstructed by survivors.
        assert_eq!(a.lock(2, b"ROW.P", LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.regrants_local.get(), 1);
        a.write_records(2).unwrap();
        a.crash();
        b.mark_peer_failed(a.conn()).unwrap();
        let retained = b.retained_locks_of(a.conn()).unwrap();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].resource, b"ROW.P");
        assert_eq!(retained[0].payload, 2u64.to_be_bytes());
        assert_eq!(b.lock(9, b"ROW.P", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy);
        b.complete_peer_recovery(a.conn()).unwrap();
        assert_eq!(b.lock(9, b"ROW.P", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
    }

    #[test]
    fn a_regrant_record_is_written_by_write_records_not_by_the_grant() {
        use sysplex_core::connection::CommandClass;
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        let records = || r.cf.command_stats().class(CommandClass::LockRecord).issued.get();
        a.lock(1, b"ROW.P", LockMode::Exclusive, true).unwrap();
        a.lock(1, b"ROW.Q", LockMode::Exclusive, true).unwrap();
        a.unlock_all(1).unwrap();
        // Two local re-grants queue their records: no command yet, and
        // none for a transaction that owes nothing.
        for row in [&b"ROW.P"[..], b"ROW.Q"] {
            assert_eq!(a.lock(2, row, LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        }
        assert_eq!(a.stats.regrants_local.get(), 2);
        let before = records();
        a.write_records(3).unwrap();
        assert_eq!((records() - before, records_of(a)), (0, vec![]));
        // Both go as one command.
        a.write_records(2).unwrap();
        assert_eq!(records() - before, 1);
        assert_eq!(records_of(a), [(b"ROW.P".to_vec(), 2), (b"ROW.Q".to_vec(), 2)]);
        a.write_records(2).unwrap();
        assert_eq!(records() - before, 1, "the queue was drained");
        // A crash retains every row `write_records` wrote, and nothing for
        // a row re-granted since: nothing that row protects was
        // externalised.
        a.unlock_all(2).unwrap();
        assert_eq!(a.lock(3, b"ROW.P", LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        a.write_records(3).unwrap();
        assert_eq!(a.lock(3, b"ROW.Q", LockMode::Exclusive, true).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.regrants_local.get(), 4);
        a.crash();
        b.mark_peer_failed(a.conn()).unwrap();
        let retained = b.retained_locks_of(a.conn()).unwrap();
        assert_eq!(retained.iter().map(|l| l.resource.as_slice()).collect::<Vec<_>>(), [b"ROW.P"]);
    }

    #[test]
    fn a_rebuild_or_duplex_enable_imports_a_members_records_in_one_command() {
        use sysplex_core::connection::CommandClass;
        let r = rig(2, 1024);
        let a = &r.irlms[0];
        let records = || r.cf.command_stats().class(CommandClass::LockRecord).issued.get();
        a.lock(1, b"ROW.A", LockMode::Exclusive, true).unwrap();
        a.lock(1, b"ROW.B", LockMode::Exclusive, true).unwrap();
        a.lock(2, b"ROW.C", LockMode::Shared, true).unwrap();
        a.lock(3, b"ROW.C", LockMode::Shared, true).unwrap();
        a.lock(3, b"ROW.D", LockMode::Shared, false).unwrap();
        a.write_records(3).unwrap();
        let before = records();
        let new = r.cf.allocate_lock_structure("IRLMLOCK1_G1", LockParams::with_entries(1024)).unwrap();
        Irlm::rebuild_all(&r.irlms, new, &r.cf.subchannel()).unwrap();
        // a's three records in one command; b holds nothing and sends none.
        assert_eq!(records() - before, 1);
        let expected = [(b"ROW.A".to_vec(), 1), (b"ROW.B".to_vec(), 1), (b"ROW.C".to_vec(), 3)];
        assert_eq!(records_of(a), expected);
        let sec = r.cf.allocate_lock_structure("IRLMLOCK1_DUP", LockParams::with_entries(1024)).unwrap();
        Irlm::enable_duplexing(&r.irlms, Arc::clone(&sec), &r.cf.subchannel()).unwrap();
        assert_eq!(records() - before, 2);
        let mirrored: Vec<Vec<u8>> = sec.records_snapshot().into_iter().map(|(name, _, _)| name).collect();
        assert_eq!(mirrored, expected.map(|(name, _)| name));
    }

    #[test]
    fn an_aborted_regrant_drops_its_queued_record() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        a.lock(1, b"ROW.P", LockMode::Exclusive, true).unwrap();
        a.unlock_all(1).unwrap();
        a.lock(2, b"ROW.P", LockMode::Exclusive, true).unwrap();
        a.unlock_all(2).unwrap();
        assert!(a.local.lock().queued_records.is_empty());
        a.write_records(2).unwrap();
        assert!(records_of(a).is_empty());
    }

    #[test]
    fn a_queued_record_passes_to_the_remaining_persistent_holder() {
        let r = rig(1, 1024);
        let a = &r.irlms[0];
        // Cache the class, then two persistent Shared holders re-grant
        // locally: one record is owed, by the first.
        a.lock(1, b"ROW.S", LockMode::Exclusive, false).unwrap();
        a.unlock_all(1).unwrap();
        a.lock(2, b"ROW.S", LockMode::Shared, true).unwrap();
        a.lock(3, b"ROW.S", LockMode::Shared, true).unwrap();
        a.unlock_all(2).unwrap();
        a.write_records(3).unwrap();
        assert_eq!(records_of(a), [(b"ROW.S".to_vec(), 3)]);
        a.unlock_all(3).unwrap();
        assert!(records_of(a).is_empty());
    }

    /// Names of `n` resources in pairwise distinct hash classes of `a`'s
    /// table, none in `taken`'s.
    fn distinct_classes(a: &Irlm, n: usize, taken: &[u8]) -> Vec<Vec<u8>> {
        let s = a.structure();
        let mut seen = std::collections::HashSet::from([s.hash_resource(taken)]);
        (0..)
            .map(|k| format!("ROW.{k:05}").into_bytes())
            .filter(|r| seen.insert(s.hash_resource(r)))
            .take(n)
            .collect()
    }

    #[test]
    fn the_park_fifo_stays_bounded_when_the_same_entries_park_again() {
        let r = rig(1, 1 << 16);
        let a = &r.irlms[0];
        let rows = distinct_classes(a, 4, b"");
        for t in 0..100_000u64 {
            let row = &rows[t as usize % rows.len()];
            a.lock(t, row, LockMode::Exclusive, false).unwrap();
            a.unlock(t, row).unwrap();
        }
        let local = a.local.lock();
        assert_eq!(local.parked_live, rows.len());
        assert!(
            local.parked.len() <= 2 * PARK_CAP,
            "{} FIFO positions for 4 parked entries",
            local.parked.len()
        );
    }

    #[test]
    fn a_re_parked_hot_entry_outlives_a_colder_one() {
        let r = rig(1, 1 << 16);
        let a = &r.irlms[0];
        let hot = b"ROW.HOT".to_vec();
        let cold = distinct_classes(a, PARK_CAP, &hot);
        let park = |txn: u64, row: &[u8]| {
            a.lock(txn, row, LockMode::Exclusive, false).unwrap();
            a.unlock(txn, row).unwrap();
        };
        // The hot entry parks first, then enough cold ones to fill the cap;
        // then the hot one is re-granted and parks again.
        park(0, &hot);
        for (k, row) in cold[..PARK_CAP - 1].iter().enumerate() {
            park(1 + k as u64, row);
        }
        park(u64::MAX, &hot);
        assert_eq!(a.stats.regrants_local.get(), 1);
        // One more parked entry evicts one: the oldest live position is the
        // first cold entry's, not the hot entry's first.
        park(u64::MAX - 1, &cold[PARK_CAP - 1]);
        let retained = a.structure().interest_entries(a.conn());
        assert_eq!(retained.len(), PARK_CAP);
        assert!(retained.contains(&a.structure().hash_resource(&hot)), "the hot entry was evicted");
        assert!(!retained.contains(&a.structure().hash_resource(&cold[0])), "the coldest entry was kept");
    }

    #[test]
    fn park_cap_evicts_fifo_and_bounds_retained_interest() {
        // A table wide enough that the resources below park more than
        // `PARK_CAP` distinct entries.
        let r = rig(1, 1 << 16);
        let a = &r.irlms[0];
        let n = PARK_CAP + 100;
        let resource = |k: usize| format!("ROW.{k:05}").into_bytes();
        let entries: Vec<usize> = (0..n).map(|k| a.structure().hash_resource(&resource(k))).collect();
        // The two oldest entries no later resource shares (and re-parks):
        // the FIFO's first victims. A sibling request is registered on the
        // first, which eviction must pass over.
        let mut alone = entries.iter().filter(|e| entries.iter().filter(|other| other == e).count() == 1);
        let (registered, oldest) = (*alone.next().unwrap(), *alone.next().unwrap());
        a.local.lock().wanted.push(Wanted {
            txn: u64::MAX,
            name: ResourceName::new(b"ROW.S"),
            entry: registered,
            mode: LockMode::Shared,
            critical: false,
            yielded: false,
            unrecorded: false,
            recall_snapshot: 0,
        });
        for k in 0..n {
            a.lock(k as u64, &resource(k), LockMode::Exclusive, false).unwrap();
            a.unlock(k as u64, &resource(k)).unwrap();
        }
        assert_eq!(a.stats.lazy_releases.get(), n as u64);
        assert!(
            a.structure().interest_count(a.conn()) <= PARK_CAP,
            "eviction keeps parked interest under the cap, got {}",
            a.structure().interest_count(a.conn())
        );
        let retained = a.structure().interest_entries(a.conn());
        assert!(!retained.contains(&oldest), "the oldest unregistered entry was evicted");
        assert!(retained.contains(&registered), "an entry with a request registered on it was not");
        a.local.lock().wanted.clear();
    }

    #[test]
    fn concurrent_increments_under_locks_are_serialized() {
        let r = rig(4, 64);
        // A racy read-yield-write cell: correct final count only if the
        // IRLM exclusive lock actually serializes the critical sections.
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for (i, irlm) in r.irlms.iter().enumerate() {
            let irlm = Arc::clone(irlm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for t in 0..50u64 {
                    let txn = (i as u64) << 32 | t;
                    irlm.lock_wait(txn, b"COUNTER", LockMode::Exclusive, false, Duration::from_secs(10))
                        .unwrap();
                    let v = counter.load(Ordering::Relaxed);
                    std::thread::yield_now();
                    counter.store(v + 1, Ordering::Relaxed);
                    irlm.unlock(txn, b"COUNTER").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }
}
