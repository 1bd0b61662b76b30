//! IRLM's lock protocol as a sans-I/O core: the states one member keeps
//! and the transitions that move them, with no connection, no XCF member,
//! no clock and no latch of its own (DESIGN.md §13).
//!
//! The state is [`LocalState`]: the local holders of each resource
//! ([`Holders`]), what the member tracks per lock-table entry
//! ([`EntryRecord`]), one [`Wanted`] row per request in phase 2, the
//! ticketed FIFO of parked entries, and the reusable buffers a transition
//! fills for the shell to send — the release set, the record set and the
//! trace events. A transition is one method call under the shell's latch:
//!
//! - [`LocalState::request`] (phase 1) grants locally, reports a local
//!   conflict, or registers the request and asks for its CF command
//!   ([`Step::Request`]);
//! - [`LocalState::answered`] takes the CF's answer: a grant runs phase 3,
//!   contention asks for a negotiation ([`Step::Negotiate`]);
//! - [`LocalState::negotiated`] takes the holders' verdict and asks for the
//!   negotiated interest write ([`Step::Force`]), whose result
//!   [`LocalState::forced`] takes;
//! - [`LocalState::answer`] serves a peer's negotiation query;
//! - [`LocalState::stop_waiting`] ends a transaction's wait;
//! - [`LocalState::unlock`], [`LocalState::unlock_all`] and
//!   [`LocalState::write_records`] fill the release and record sets;
//! - [`LocalState::replay`] and [`LocalState::rebuilt`] carry the member's
//!   holds onto a rebuilt structure or a new duplex secondary.
//!
//! The shell (`Irlm`) performs what a transition returns and what it left
//! in the buffers, under the same latch acquisition where the protocol
//! needs that, and feeds each result to the next transition. The state is
//! public so that another driver can do the same: one thread, one atomic
//! action at a time, walks every interleaving of two members
//! (`crates/db/tests/irlm_interleavings.rs`).

use super::IrlmStats;
use crate::error::{Blocker, Winner};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;
use sysplex_core::hashing::{slot_of, PrehashedMap, ResourceName};
use sysplex_core::lock::{LockMode, LockResponse};
use sysplex_core::trace::TraceEvent;
use sysplex_core::types::{conns_in_mask, ConnId, ConnMask};

/// Cap on parked (lazily released) entries per IRLM. Eviction is FIFO so
/// replayed runs surrender the same victims in the same order.
pub const PARK_CAP: usize = 1024;

/// CF grants on a recalled hash class that must complete before the
/// class may be cached (and hence parked) again.
const RECALL_COOLDOWN: u32 = 8;

/// How a request ended: granted, or refused.
pub type Verdict = Result<(), Refusal>;

/// Why a request was not granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A real conflict, with what blocked it: wait and ask again.
    Busy(Blocker),
    /// A waiting request met an older waiting transaction in its way: the
    /// deadlock victim, it stops waiting at once.
    Victim(Winner),
}

/// What a negotiation found: no holder conflicts, or the first that does
/// (or cannot say) and the oldest waiting transaction it reported in the
/// way.
pub type Negotiation = Result<(), (ConnId, Option<u64>)>;

/// What a member re-creates on a new structure: interest in each entry,
/// then the record set.
pub type Replay = (Vec<(usize, LockMode)>, Vec<(ResourceName, LockMode, [u8; 8])>);

/// What the shell does next for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The request is over.
    Done(Verdict),
    /// Send the request's CF command for this entry — carrying its record
    /// when the request is persistent — and give the answer to
    /// [`LocalState::answered`].
    Request(usize),
    /// Ask every connector in `holders` but this member whether it
    /// conflicts, and give the verdict to [`LocalState::negotiated`].
    Negotiate { holders: ConnMask, generation: u16 },
    /// Write interest negotiated with `holders` at `generation`, and give
    /// the result to [`LocalState::forced`].
    Force { entry: usize, holders: ConnMask, generation: u16 },
}

#[derive(Debug, Clone, Copy)]
pub struct Holder {
    pub txn: u64,
    pub mode: LockMode,
    pub persistent: bool,
}

/// The local holders of one resource. The first lives in the table slot
/// itself: the common case — one transaction per resource — never reaches
/// the allocator. `rest` is empty whenever `first` is.
#[derive(Debug, Default)]
pub struct Holders {
    first: Option<Holder>,
    rest: Vec<Holder>,
}

impl Holders {
    pub fn iter(&self) -> impl Iterator<Item = &Holder> {
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

    /// The holder a request for `mode` by `txn` (`None`: a peer's
    /// transaction) conflicts with, and whether its transaction is one of
    /// `waiting` — the oldest waiting one first — or `None` when the
    /// request can be granted alongside them.
    fn blocker(&self, txn: Option<u64>, mode: LockMode, waiting: &[u64]) -> Option<(u64, bool)> {
        let shared = |h: &&Holder| matches!((h.mode, mode), (LockMode::Shared, LockMode::Shared));
        let blockers = self.iter().filter(|h| Some(h.txn) != txn && !shared(h));
        blockers.map(|h| (h.txn, waiting.contains(&h.txn))).min_by_key(|&(txn, waits)| (!waits, txn))
    }

    pub fn strongest(&self) -> Option<LockMode> {
        self.iter().map(|h| h.mode).max()
    }

    /// The strongest persistent holder: the hold this member's record for
    /// the resource describes.
    pub fn recorded(&self) -> Option<Holder> {
        self.iter().filter(|h| h.persistent).max_by_key(|h| h.mode).copied()
    }
}

/// Everything this member tracks about one lock-table entry (hash class),
/// in one record so a request reaches all of it with one lookup. The record
/// exists while any field is set (`LocalState::settle` drops it).
#[derive(Debug, Clone, Copy, Default)]
pub struct EntryRecord {
    /// Distinct local resources hashing to this entry. CF interest in the
    /// entry is released when this drops to zero — unless the entry is
    /// parked (lazy release).
    pub count: u32,
    /// This system observed a sole-interest exclusive CF grant for the
    /// entry and no peer has negotiated since. While set, re-grants
    /// against the entry complete locally: any foreign acquisition must
    /// negotiate with us first, and the recall clears the flag before the
    /// answer goes out.
    pub cached: bool,
    /// `count == 0` but CF interest is retained so a re-acquire can take
    /// the local fast path. Surrendered on recall or FIFO eviction — but
    /// never while a request is registered on the entry
    /// (`LocalState::in_flight`).
    pub parked: bool,
    /// A peer recently negotiated on this hash class: inter-system
    /// interest exists there, so sole-interest caching would only bounce —
    /// every grant parks at unlock and forces the next peer through a
    /// recall round trip, and on a hot shared class the whole group
    /// degenerates into negotiation storms. A queried entry skips the
    /// cached fast path for this many further CF grants (set to
    /// `RECALL_COOLDOWN`, refreshed by further queries); genuinely local
    /// classes are never queried and keep caching.
    pub cool: u32,
    /// The ticket of the park that put the entry at its live FIFO position
    /// (meaningful while `parked`): any other position of it is stale.
    pub ticket: u32,
}

/// One request in phase 2 — between leaving the local table and recording
/// its grant — and what it is asking for: the request's one registration
/// and its whole state. Until the grant exists this is the only place a
/// peer's negotiation query, a sibling's unlock or an eviction can see the
/// claim. Phase 1 pushes the row and phase 3 removes it, each in its own
/// transition, so a CF-granted request takes the latch twice; every other
/// exit removes it in the transition that ends the request, and the shell
/// withdraws it when a command fails.
#[derive(Debug)]
pub struct Wanted {
    pub txn: u64,
    pub name: ResourceName,
    /// The lock-table entry `name` hashes to. A registered entry is never
    /// surrendered: the request may be granted on this member's retained
    /// interest, and a concurrent release would wipe the grant.
    pub entry: usize,
    pub mode: LockMode,
    pub persistent: bool,
    /// Inside a *grant window*: the CF command that writes interest is
    /// executing, or it succeeded and phase 3 has not yet recorded the
    /// grant. A peer's query on the entry must report conflict here — the
    /// resource scan cannot see the pending grant, and "no conflict" would
    /// let the peer's negotiated write bypass it (dual exclusive holders,
    /// lost update). Only here: negotiating is slow, and reporting conflict
    /// for all of it starves a wide member group; the window is
    /// microseconds.
    pub critical: bool,
    /// A sibling gave up this member's record for `name` while the request
    /// was in phase 2, possibly after the request's CF command wrote it:
    /// a winning grant writes its record again (see `LocalState::unrecord`).
    pub unrecorded: bool,
    /// `recall_seq` when the request registered: a CF grant caches its
    /// entry only when no recall raced it — a query racing phase 2/3 might
    /// concern interest we are about to record, and its recall must win.
    pub recall_snapshot: u64,
    /// Renegotiations left: a negotiated write refused because the holder
    /// set changed sends the request back to the CF this many more times,
    /// then reports Busy and lets the caller's retry loop pace it.
    pub retries: u32,
    /// The caller waits on a refusal (see [`LocalState::request`]).
    pub wait: bool,
}

impl Wanted {
    /// A request leaving phase 1, its first grant window already open.
    pub fn new(txn: u64, name: &ResourceName, entry: usize, mode: LockMode, persistent: bool) -> Self {
        let (name, critical, unrecorded, recall_snapshot, retries, wait) =
            (name.clone(), true, false, 0, 4, false);
        Wanted { txn, name, entry, mode, persistent, critical, unrecorded, recall_snapshot, retries, wait }
    }
}

#[derive(Debug, Default)]
pub struct LocalState {
    /// Entries in the structure's lock table: the geometry every resource
    /// hashes against ([`LocalState::entry_of`]).
    pub table_len: usize,
    /// This member's connector, as its trace events name it.
    conn: u8,
    pub stats: Arc<IrlmStats>,
    pub resources: PrehashedMap<ResourceName, Holders>,
    pub entries: PrehashedMap<usize, EntryRecord>,
    /// What each open transaction holds, so releasing a transaction walks
    /// its own locks and nothing else. Unordered; `unlock_all` sorts.
    pub held: PrehashedMap<u64, Vec<ResourceName>>,
    /// Emptied `held` lists, reused so a transaction's first lock does not
    /// allocate. At most as many as transactions were ever open at once.
    spare_lists: Vec<Vec<ResourceName>>,
    /// FIFO of parked entry indexes, each with the ticket of the park that
    /// queued it. A position is live while its entry is parked under that
    /// ticket (`parked` is the source of truth, `parked_live` the live
    /// count); eviction skips the rest, so an entry parked again — a hot
    /// class, re-granted and released every transaction — is evicted at its
    /// newest position, not its oldest. Stale positions are dropped in bulk
    /// once they outnumber the live ones (`LocalState::park`).
    pub parked: VecDeque<(usize, u32)>,
    pub parked_live: usize,
    /// Tickets drawn by parks so far (wrapping).
    park_tickets: u32,
    /// Bumped by every peer negotiation query (see
    /// [`Wanted::recall_snapshot`]).
    pub recall_seq: u64,
    /// This member's requests in phase 2; as many as it has threads
    /// requesting at once.
    pub wanted: Vec<Wanted>,
    /// What the transition under way gives up — records to delete, then
    /// entries to release, each in the order given up — for the shell to
    /// send as one command before the latch is let go. Empty whenever the
    /// latch is free; reused, so a release never allocates.
    pub release_records: Vec<ResourceName>,
    pub release_entries: Vec<usize>,
    /// Resources whose record a grant owes the CF — one whose own command
    /// wrote none — in grant order: written by the next
    /// [`LocalState::write_records`] of a persistent holder, dropped with
    /// the last persistent hold.
    pub queued_records: Vec<ResourceName>,
    /// The record set the transition under way sends. Empty whenever the
    /// latch is free; reused, like the release set.
    pub record_set: Vec<(ResourceName, LockMode, [u8; 8])>,
    /// Trace events of the transition under way, emitted by the shell
    /// before its commands. Empty whenever the latch is free.
    pub events: Vec<TraceEvent>,
    /// The parked entry a peer's recall surrenders, released by the shell
    /// (one release command) before the answer goes out.
    pub surrender: Option<usize>,
    /// Known-bad switch: a phase-3 loser leaves its record naming itself.
    #[cfg(feature = "test-hooks")]
    pub keep_lost_record: bool,
    /// This member's waiting transactions: refused at least once by a
    /// request that waits, and not granted, a victim, timed out or over
    /// since (see [`LocalState::request`]). As many as it has threads
    /// waiting at once.
    pub waiting: Vec<u64>,
    /// Known-bad switch: a waiting holder never makes a victim.
    #[cfg(feature = "test-hooks")]
    pub ignore_waiting: bool,
}

impl LocalState {
    /// The state of a member holding connector `conn` in a structure of
    /// `table_len` entries, counting into `stats`.
    pub fn new(table_len: usize, conn: ConnId, stats: Arc<IrlmStats>) -> Self {
        LocalState { table_len, conn: conn.raw(), stats, ..Default::default() }
    }

    /// The lock-table entry `name` hashes to.
    pub fn entry_of(&self, name: &ResourceName) -> usize {
        slot_of(name.hash(), self.table_len)
    }

    fn row(wanted: &mut [Wanted], txn: u64) -> &mut Wanted {
        wanted.iter_mut().find(|w| w.txn == txn).expect("registered until the request ends")
    }

    /// End `txn`'s phase-2 registration, returning it.
    fn take(&mut self, txn: u64) -> Wanted {
        let at = self.wanted.iter().position(|w| w.txn == txn).expect("registered until the request ends");
        self.wanted.swap_remove(at)
    }

    /// Phase 1: the local table. A grant is local (no CF command) only
    /// when this system *already holds the same resource* in a covering
    /// way: negotiation soundness guarantees no foreign system can then
    /// hold a conflicting mode on it. Entry-level shortcuts are sound in
    /// exactly one case — the `cached` fast path, where a sole-interest
    /// exclusive CF grant proved no foreign interest exists and every
    /// foreign acquisition since would have recalled the flag before
    /// completing. Anything else registers the request, so a concurrent
    /// recall cannot surrender retained interest it may be granted on, and
    /// goes to the CF. `persistent` requests carry `txn`'s record.
    ///
    /// A request whose caller will `wait` on a refusal marks `txn`
    /// waiting at its first refusal; the grant, a victim verdict,
    /// [`LocalState::stop_waiting`] and the transaction's end clear it. A
    /// waiting request refused by a holder — local, or reported by a
    /// peer's answer — whose transaction is older and itself waiting is
    /// the deadlock victim, when `txn` holds locks: in a cycle of waits the
    /// oldest waits and the others give way, in TOD order, with no timeout
    /// and no randomness. An upgrade standoff — every holder of Shared on
    /// a row wants Exclusive — is the commonest such cycle.
    pub fn request(
        &mut self,
        txn: u64,
        name: &ResourceName,
        mode: LockMode,
        persistent: bool,
        wait: bool,
    ) -> Step {
        self.stats.requests.incr();
        let entry = self.entry_of(name);
        let covered = match self.resources.get(name) {
            Some(rh) => match rh.blocker(Some(txn), mode, &self.waiting) {
                Some(blocker) => {
                    self.stats.local_conflicts.incr();
                    return self.refused_locally(txn, wait, blocker);
                }
                None => {
                    mode == LockMode::Shared
                        || rh.iter().any(|h| h.txn == txn && h.mode == LockMode::Exclusive)
                }
            },
            None => false,
        };
        if covered {
            self.stats.grants_local.incr();
        } else if self.entries.get(&entry).is_some_and(|e| e.cached) {
            // Local-interest re-grant fast path: the CF hash slot records
            // only this system's (exclusive) interest — new resources,
            // upgrades, and re-acquires of parked locks in the hash class
            // complete with no CF command. A resource absent from the local
            // table has no holders.
            self.stats.regrants_local.incr();
            let (entry, conn, exclusive) = (entry as u64, self.conn, mode == LockMode::Exclusive);
            self.events.push(TraceEvent::LockLocalRegrant { entry, conn, exclusive });
        } else {
            let row = Wanted::new(txn, name, entry, mode, persistent);
            self.wanted.push(Wanted { recall_snapshot: self.recall_seq, wait, ..row });
            return Step::Request(entry);
        }
        if self.record_grant(txn, name, mode, persistent) {
            self.queue_record(name);
        }
        Step::Done(Ok(()))
    }

    /// The CF answered the request's command: a synchronous grant goes to
    /// phase 3; contention leaves the grant window — negotiation itself
    /// must not read as a conflict, or a wide member group storms itself
    /// into timeouts — and asks the holders.
    pub fn answered(&mut self, txn: u64, response: LockResponse) -> Step {
        match response {
            LockResponse::Granted => {
                self.stats.grants_cf_sync.incr();
                self.finish(txn, true)
            }
            LockResponse::Contention { holders, generation, .. } => {
                Self::row(&mut self.wanted, txn).critical = false;
                self.stats.contentions.incr();
                Step::Negotiate { holders, generation }
            }
        }
    }

    /// The holders answered the negotiation: `Err` names the one that
    /// conflicts and the waiting transaction it reported. With none, the request
    /// re-enters a grant window and writes its interest, quoting the
    /// contention-time generation: if any holder's interest departed while
    /// we negotiated (it may have re-acquired — and locally cached — the
    /// entry since), or any holder was granted more in the entry since the
    /// contention (perhaps the very resource it just answered for), the
    /// write refuses.
    pub fn negotiated(&mut self, txn: u64, said: Negotiation, holders: ConnMask, generation: u16) -> Step {
        if let Err((peer, waiter)) = said {
            self.stats.real_conflicts.incr();
            let wait = self.take(txn).wait;
            return self.refused(
                txn,
                wait,
                Blocker::Peer(peer),
                waiter.map(|txn| Winner { txn, peer: Some(peer) }),
            );
        }
        let row = Self::row(&mut self.wanted, txn);
        row.critical = true;
        let entry = row.entry;
        self.stats.false_contentions.incr();
        self.events.push(TraceEvent::LockFalseContend { entry: entry as u64, holders: holders as u64 });
        Step::Force { entry, holders, generation }
    }

    /// The negotiated write landed (`written`) — phase 3 records it — or a
    /// holder came, went or was granted more since the contention:
    /// renegotiate against the current holders, within the request's
    /// retries.
    pub fn forced(&mut self, txn: u64, written: bool, holders: ConnMask) -> Step {
        if written {
            return self.finish(txn, false);
        }
        let row = Self::row(&mut self.wanted, txn);
        row.critical = row.retries > 0;
        if !row.critical {
            let wait = self.take(txn).wait;
            return self.refused(txn, wait, Blocker::Peer(first(holders)), None);
        }
        row.retries -= 1;
        Step::Request(row.entry)
    }

    /// End `txn`'s phase-2 registration without a grant: a Busy verdict,
    /// or a failed command.
    pub fn withdraw(&mut self, txn: u64) {
        if let Some(at) = self.wanted.iter().position(|w| w.txn == txn) {
            self.wanted.swap_remove(at);
        }
    }

    /// Phase 3: re-validate locally and record a grant the CF made — by a
    /// `synchronous` request, whose command also wrote a persistent
    /// request's record, or by a negotiated write, which wrote none and so
    /// queues the record the grant needs. The phase-2 registration ends in
    /// the same transition that records the grant: from a peer's
    /// perspective the entry goes conflict-by-window to
    /// conflict-by-resource with no observable gap.
    fn finish(&mut self, txn: u64, synchronous: bool) -> Step {
        let Wanted { name, entry, mode, persistent, unrecorded, recall_snapshot, wait, .. } = self.take(txn);
        let recorded_by_request = synchronous && persistent;
        if let Some(winner) =
            self.resources.get(&name).and_then(|rh| rh.blocker(Some(txn), mode, &self.waiting))
        {
            // A sibling transaction on this system won the race. Our CF
            // interest stays: the sibling's hold needs it, and the resource
            // scan now covers the entry.
            self.stats.local_conflicts.incr();
            let step = self.refused_locally(txn, wait, winner);
            if recorded_by_request {
                self.settle_lost_record(name);
            }
            return step;
        }
        let record = self.record_grant(txn, &name, mode, persistent);
        // A synchronous exclusive grant proves zero foreign interest in the
        // entry at this instant — the only state the local fast path may be
        // built on.
        if synchronous && mode == LockMode::Exclusive && self.recall_seq == recall_snapshot {
            let e = self.entries.entry(entry).or_default();
            // A hash class with recent inter-system interest is not worth
            // caching: parking it would just trigger another recall. Burn
            // one cooldown credit instead.
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
            self.queued_records.retain(|q| *q != name);
        } else if recorded_by_request || record {
            self.queue_record(&name);
        }
        Step::Done(Ok(()))
    }

    /// End `txn`'s request, refused by `by`. A request that waits, with
    /// an older waiting transaction (`older`) in its way, is its deadlock
    /// victim when `txn` holds locks, and its wait ends; any other refusal
    /// is Busy, and the request's `txn` waits when it does.
    fn refused(&mut self, txn: u64, wait: bool, by: Blocker, older: Option<Winner>) -> Step {
        #[cfg(feature = "test-hooks")]
        let older = older.filter(|_| !self.ignore_waiting);
        let victim = older.filter(|winner| wait && winner.txn < txn && self.held.contains_key(&txn));
        self.stop_waiting(txn);
        if wait && victim.is_none() {
            self.waiting.push(txn);
        }
        Step::Done(Err(victim.map_or(Refusal::Busy(by), Refusal::Victim)))
    }

    /// [`LocalState::refused`] by a local holder and whether it waits.
    fn refused_locally(&mut self, txn: u64, wait: bool, (holder, waits): (u64, bool)) -> Step {
        let older = waits.then_some(Winner { txn: holder, peer: None });
        self.refused(txn, wait, Blocker::Local(holder), older)
    }

    /// `txn` no longer waits: granted, a victim, timed out, or over.
    pub fn stop_waiting(&mut self, txn: u64) {
        if let Some(at) = self.waiting.iter().position(|&t| t == txn) {
            self.waiting.swap_remove(at);
        }
    }

    /// A persistent request lost phase 3 to a sibling after its own CF
    /// command wrote this member's record for `name`, so the record names
    /// the loser. It must say what the remaining holders hold: rewritten to
    /// the strongest persistent one, or deleted when none is persistent.
    /// Either goes out under the latch, so no later grant or release of
    /// `name` is overtaken by it; an error leaves a record behind, which
    /// over-retains (safe).
    fn settle_lost_record(&mut self, name: ResourceName) {
        #[cfg(feature = "test-hooks")]
        if self.keep_lost_record {
            return;
        }
        match self.resources.get(&name).and_then(Holders::recorded) {
            Some(h) => self.record_set.push((name, h.mode, h.txn.to_be_bytes())),
            None => self.unrecord(name),
        }
    }

    /// Answer a peer's query for `mode` on `name`. A peer negotiating on
    /// this hash class is about to gain foreign interest: recall our cached
    /// fast path for the entry — and surrender parked interest, left in
    /// `surrender` for the shell to release under the latch — *before* the
    /// answer releases the peer, so a local re-grant can never race the
    /// peer's negotiated write. A request of our own inside a grant window
    /// is invisible to the resource scan, so it is reported as a conflict
    /// and the peer retries against our settled state. One of our own that
    /// is still negotiating is not: two members that want one resource at
    /// once each hear "no conflict", and the CF lets at most one of their
    /// negotiated writes land — the first grant after a contention moves
    /// the entry's generation, so the other write refuses and renegotiates
    /// against the winner's hold. `open` is false while a rebuild holds the
    /// gate: the geometry is in flux, so every cached flag drops and any
    /// grant window conflicts. Beside the verdict goes the oldest waiting
    /// transaction among the holders of `name` in the peer's way.
    pub fn answer(&mut self, name: &ResourceName, mode: LockMode, open: bool) -> (bool, Option<u64>) {
        self.recall_seq += 1;
        let in_window = if open {
            let entry = self.entry_of(name);
            let registered = self.in_flight(entry);
            let e = self.entries.entry(entry).or_default();
            if e.cached || e.parked {
                self.stats.recalls.incr();
            }
            e.cached = false;
            e.cool = RECALL_COOLDOWN;
            if e.parked && e.count == 0 && !registered {
                e.parked = false;
                self.parked_live -= 1;
                self.surrender = Some(entry);
            }
            self.wanted.iter().any(|w| w.entry == entry && w.critical)
        } else {
            for e in self.entries.values_mut() {
                e.cached = false;
            }
            self.wanted.iter().any(|w| w.critical)
        };
        self.stats.queries_served.incr();
        let blocker = self.resources.get(name).and_then(|rh| rh.blocker(None, mode, &self.waiting));
        (in_window || blocker.is_some(), blocker.filter(|&(_, waits)| waits).map(|(txn, _)| txn))
    }

    /// Release `txn`'s hold on `name`, if it holds it. What it gives up
    /// lands in the release set.
    pub fn unlock(&mut self, txn: u64, name: &[u8]) {
        let name = ResourceName::new(name);
        let Entry::Occupied(mut held) = self.held.entry(txn) else { return };
        // Newest first: a lock released by name is nearly always one taken
        // last.
        let Some(at) = held.get().iter().rposition(|held| *held == name) else { return };
        held.get_mut().swap_remove(at);
        let ended = held.get().is_empty();
        if ended {
            self.spare_lists.push(held.remove());
        }
        self.release_one(txn, name);
        if ended {
            self.evict_parked();
        }
    }

    /// Release everything `txn` holds into the release set.
    pub fn unlock_all(&mut self, txn: u64) {
        self.stop_waiting(txn);
        let Some(mut list) = self.held.remove(&txn) else { return };
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
        self.evict_parked();
        for name in list.drain(..) {
            self.release_one(txn, name);
            self.evict_parked();
        }
        self.spare_lists.push(list);
    }

    /// Put the records still owed for resources `txn` holds persistently
    /// in the record set, each saying the strongest persistent hold of its
    /// resource and naming `txn`.
    pub fn write_records(&mut self, txn: u64) {
        let (set, resources) = (&mut self.record_set, &self.resources);
        self.queued_records.retain(|name| {
            let mine = |rh: &&Holders| rh.iter().any(|h| h.txn == txn && h.persistent);
            let Some(recorded) = resources.get(name).filter(mine).and_then(Holders::recorded) else {
                return true;
            };
            set.push((name.clone(), recorded.mode, txn.to_be_bytes()));
            false
        });
    }

    /// The shell sent the sets this transition filled: clear them. A
    /// release set that failed may or may not have executed: its entries
    /// are parked again — uncached, so they never grant locally, and the
    /// next recall or eviction surrenders them — and its records stay
    /// behind, which over-retains (safe).
    pub fn sent(&mut self, released: bool) {
        if !released {
            for at in 0..self.release_entries.len() {
                self.park(self.release_entries[at]);
            }
        }
        self.release_entries.clear();
        self.release_records.clear();
        self.record_set.clear();
    }

    /// What this member must re-create on a rebuilt structure of
    /// `table_len` entries or a new duplex secondary: interest in every
    /// held resource's entry, in name order and in its strongest mode, and
    /// the record set naming, for each resource with a persistent holder,
    /// its strongest one (the commands are traced, so the sequence must
    /// replay).
    pub fn replay(&self, table_len: usize) -> Replay {
        let mut held: Vec<(&ResourceName, &Holders)> = self.resources.iter().collect();
        held.sort_by_key(|(name, _)| *name);
        let (mut interest, mut records) = (Vec::new(), Vec::new());
        for (name, rh) in held {
            let Some(mode) = rh.strongest() else { continue };
            interest.push((slot_of(name.hash(), table_len), mode));
            if let Some(h) = rh.recorded() {
                records.push((name.clone(), h.mode, h.txn.to_be_bytes()));
            }
        }
        (interest, records)
    }

    /// The group moved onto a structure of `table_len` entries holding
    /// `interest`. Fresh entries carry no cached flags (foreign interest is
    /// re-imported unconditionally, so no sole-interest proof exists) and
    /// no cooldown (its indexes are against the old geometry), and no
    /// request is registered on the old ones (the rebuild gate admits none
    /// in flight); parked interest is simply not re-created — the old
    /// structure's Normal detach surrenders it.
    pub fn rebuilt(&mut self, table_len: usize, interest: &[(usize, LockMode)]) {
        self.entries.clear();
        for &(entry, _) in interest {
            self.entries.entry(entry).or_default().count += 1;
        }
        self.parked.clear();
        self.parked_live = 0;
        self.table_len = table_len;
    }

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

    /// Record that `txn` holds `name` in (at least) `mode`. Returns whether
    /// the grant changed what this member's record for `name` must say:
    /// the first persistent hold of the resource, or one stronger than any
    /// persistent hold before it.
    fn record_grant(&mut self, txn: u64, name: &ResourceName, mode: LockMode, persistent: bool) -> bool {
        self.stop_waiting(txn);
        let rh = self.resources.entry(name.clone()).or_default();
        // The strongest persistent hold before this grant: what the record
        // says, if there is one.
        let (is_new_resource, recorded) = (rh.is_empty(), rh.recorded().map(|h| h.mode));
        let held = match rh.get_mut(txn) {
            // Strengthen, never weaken.
            Some(h) => {
                h.mode = h.mode.max(mode);
                h.persistent |= persistent;
                h.mode
            }
            None => {
                rh.insert(Holder { txn, mode, persistent });
                let spare = &mut self.spare_lists;
                self.held.entry(txn).or_insert_with(|| spare.pop().unwrap_or_default()).push(name.clone());
                mode
            }
        };
        let e = self.entries.entry(self.entry_of(name)).or_default();
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

    /// Drop `txn`'s hold on `name` (already off its `held` list), adding
    /// what follows from it to the release set: the record, when `txn` was
    /// the last persistent holder, and the entry, when `name` was the last
    /// resource in it and the entry does not park.
    fn release_one(&mut self, txn: u64, name: ResourceName) {
        let Entry::Occupied(mut slot) = self.resources.entry(name) else { return };
        let Some(holder) = slot.get_mut().remove(txn) else { return };
        let unrecord = holder.persistent && !slot.get().iter().any(|h| h.persistent);
        let name = if slot.get().is_empty() {
            let (name, _) = slot.remove_entry();
            self.release_entry_use(self.entry_of(&name));
            name
        } else if unrecord {
            slot.key().clone()
        } else {
            return;
        };
        if unrecord {
            self.unrecord(name);
        }
    }

    /// The last local holder of one resource hashing to `entry` is gone:
    /// queue the entry's release when it was the last resource — or park
    /// it.
    fn release_entry_use(&mut self, entry: usize) {
        let registered = self.in_flight(entry);
        let e = self.entries.get_mut(&entry).expect("a held resource counts in its entry");
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
            self.park(entry);
            self.stats.lazy_releases.incr();
            self.events.push(TraceEvent::LockLazyRelease { entry: entry as u64, conn: self.conn });
        } else {
            self.settle(entry);
            self.release_entries.push(entry);
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
    pub fn live(entries: &PrehashedMap<usize, EntryRecord>, (entry, ticket): (usize, u32)) -> bool {
        entries.get(&entry).is_some_and(|e| e.parked && e.ticket == ticket)
    }

    /// Evict FIFO past [`PARK_CAP`] into the release set, skipping
    /// positions that are not live; an in-flight victim rotates to the
    /// back.
    fn evict_parked(&mut self) {
        let mut budget = self.parked.len();
        while self.parked_live > PARK_CAP && budget > 0 {
            budget -= 1;
            let Some(position) = self.parked.pop_front() else { break };
            if !Self::live(&self.entries, position) {
                continue;
            }
            let victim = position.0;
            if self.in_flight(victim) {
                self.parked.push_back(position);
                continue;
            }
            let v = self.entries.get_mut(&victim).expect("a live position has its entry");
            v.parked = false;
            v.cached = false;
            self.parked_live -= 1;
            self.settle(victim);
            self.release_entries.push(victim);
        }
    }
}

/// The peer a Busy verdict names when no single holder answered
/// "conflict": the lowest connector the contention reported.
fn first(holders: ConnMask) -> ConnId {
    conns_in_mask(holders).next().expect("a contention names its holders")
}
