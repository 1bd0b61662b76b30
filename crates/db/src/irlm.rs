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
//! 4. **Busy** — a real resource-level conflict; the caller waits —
//!    unless an older waiting transaction is in its way: then it is that
//!    transaction's deadlock victim.
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
//!
//! Every decision is the sans-I/O core's ([`protocol`]); [`Irlm`] is the
//! shell that performs the CF commands and XCF queries the core returns,
//! under the latch where the protocol needs them.

pub mod protocol;

use crate::error::{DbError, DbResult};
use parking_lot::{Mutex, RwLock};
use protocol::{LocalState, Negotiation, Refusal, Replay, Step, Verdict};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;
use sysplex_core::connection::{CfSubchannel, LockConnection};
use sysplex_core::duplex::DuplexPair;
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{DisconnectMode, LockMode, LockStructure, RetainedLock};
use sysplex_core::stats::Counter;
use sysplex_core::types::{conns_in_mask, ConnId, ConnMask};
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

wire_enum! {
    /// What one IRLM asks another, carried as an XCF call. The holder's
    /// message exit answers with an encoded `(bool, Option<u64>)`: does it
    /// conflict, and its oldest waiting transaction in the way.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum IrlmSignal("irlm-signal") {
        /// "Does anything you hold conflict with `mode` on `resource`?"
        0 Query { mode: LockMode, resource: Vec<u8> },
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
    /// The one latch over the member's protocol state. It stays single:
    /// every transition under it is a few table probes (plus the commands
    /// that must be ordered against them), and a request's cost is the
    /// work inside, not waiting for the latch.
    local: Mutex<LocalState>,
    /// Set by [`Irlm::shutdown`] and [`Irlm::crash`]: the message exit
    /// answers nothing from then on.
    stop: AtomicBool,
    /// Time reference for lock-wait timeouts: the XCF service's timer, so
    /// under the deterministic harness's virtual timer timeout
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
        let stats = Arc::new(IrlmStats::default());
        let local = LocalState::new(conn.structure().entries(), conn.conn_id(), Arc::clone(&stats));
        let irlm = Arc::new(Irlm {
            system,
            cf: RwLock::new(conn),
            member,
            local: Mutex::new(local),
            stop: AtomicBool::new(false),
            timer: Arc::clone(xcf.timer()),
            stats,
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
    /// here conflict, and which of its transactions waits?", or `None` to
    /// bytes that are not a query any IRLM sends (truncated, unknown tag or
    /// mode) — which the asker reads as a conflict. Parked interest the
    /// recall surrenders is released under the latch: a racing requester
    /// must observe either the parked entry or the released one, never
    /// both. `try_read` keeps the signalling thread from blocking against
    /// a rebuild writer; a rebuild rebuilds the cache away anyway. The
    /// answer does not depend on who asks.
    fn answer_query(&self, _from: &str, payload: &[u8]) -> Option<Vec<u8>> {
        let IrlmSignal::Query { mode, resource } = IrlmSignal::decode(payload).ok()?;
        let (cf, mut local) = (self.cf.try_read(), self.local.lock());
        let answer = local.answer(&ResourceName::new(&resource), mode, cf.is_some());
        if let Some(cf) = &cf {
            let _ = Self::perform(&mut local, cf);
        }
        Some(to_bytes(&answer))
    }

    /// Ask each holder but this member whether it really conflicts on
    /// `resource`: `Err` names the first that does, with the waiting
    /// transaction it reported — or the first that said nothing (stopped, not yet
    /// failed out of the group), said something that is not an answer,
    /// vanished between the CF response and the query (its interest is
    /// going away), or is failed-persistent (its retained interest
    /// conflicts until peer recovery completes), with none. None of these
    /// is "no conflict": the caller retries, by which time cleanup is done.
    fn negotiate(
        &self,
        cf: &LockConnection,
        holders: ConnMask,
        resource: &[u8],
        mode: LockMode,
    ) -> DbResult<Negotiation> {
        let query = IrlmSignal::Query { mode, resource: resource.to_vec() }.encode();
        for holder in conns_in_mask(holders & !cf.conn_id().mask()) {
            if cf.is_failed_persistent(holder)? {
                return Ok(Err((holder, None)));
            }
            let answer = match self.member.call(&Self::member_name(holder), &query) {
                Ok(answer) => answer.and_then(|answer| from_bytes::<(bool, Option<u64>)>(&answer).ok()),
                Err(XcfError::NoSuchMember(_)) => None,
                Err(_) => return Err(DbError::NegotiationFailed),
            };
            if !matches!(answer, Some((false, _))) {
                return Ok(Err((holder, answer.and_then(|(_, waiter)| waiter))));
            }
        }
        Ok(Ok(()))
    }

    /// Request `mode` on `resource` for transaction `txn` without waiting.
    ///
    /// `persistent` records the lock in CF record data (set for update
    /// locks so they are recoverable after a system failure).
    pub fn lock(&self, txn: u64, resource: &[u8], mode: LockMode, persistent: bool) -> DbResult<LockOutcome> {
        let verdict = self.attempt(txn, resource, mode, persistent, None)?;
        Ok(if verdict.is_ok() { LockOutcome::Granted } else { LockOutcome::Busy })
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

    /// One attempt: perform each step the core returns until it is done.
    /// `waiting` is the clock of a caller that waits on a refusal (which
    /// marks its transaction waiting), `None` for one that does not. The
    /// rebuild gate is held across the whole request: entry indexes are
    /// only meaningful against one structure generation. The latch is not
    /// held while a step's command runs — our message exit must be able to
    /// answer our peers' queries while we negotiate.
    fn attempt(
        &self,
        txn: u64,
        resource: &[u8],
        mode: LockMode,
        persistent: bool,
        mut waiting: Option<&mut Option<Duration>>,
    ) -> DbResult<Verdict> {
        // The request's one hash pass: entry index and every table key
        // derive from it.
        let name = ResourceName::new(resource);
        let cf = self.cf.read();
        let wait = waiting.is_some();
        let mut step = self.transition(&cf, |local| local.request(txn, &name, mode, persistent, wait)).0;
        // One step's command with the latch released, then the transition
        // that takes its result.
        let mut next = |step| -> DbResult<Step> {
            Ok(match step {
                Step::Request(entry) => {
                    let response = if persistent {
                        cf.request_lock_recorded(entry, mode, resource, &txn.to_be_bytes())?
                    } else {
                        cf.request_lock(entry, mode)?
                    };
                    self.transition(&cf, |local| local.answered(txn, response)).0
                }
                Step::Negotiate { holders, generation } => {
                    if let Some(waiting) = waiting.as_deref_mut() {
                        self.wait_start(waiting);
                    }
                    let said = self.negotiate(&cf, holders, resource, mode)?;
                    self.transition(&cf, |local| local.negotiated(txn, said, holders, generation)).0
                }
                Step::Force { entry, holders, generation } => {
                    let written = cf.force_interest_negotiated(entry, mode, holders, generation)?;
                    self.transition(&cf, |local| local.forced(txn, written, holders)).0
                }
                Step::Done(_) => step,
            })
        };
        loop {
            match step {
                Step::Done(verdict) => return Ok(verdict),
                // A failed command ends the registration with the request.
                _ => step = next(step).inspect_err(|_| self.local.lock().withdraw(txn))?,
            }
        }
    }

    /// Run one transition under the latch and perform what it left for
    /// the CF before letting go, returning both. In a request, that is a
    /// phase-3 loser's record repair, whose error leaves a record behind,
    /// which over-retains (safe).
    fn transition<R>(&self, cf: &LockConnection, f: impl FnOnce(&mut LocalState) -> R) -> (R, DbResult<()>) {
        let mut local = self.local.lock();
        let r = f(&mut local);
        (r, Self::perform(&mut local, cf))
    }

    /// Send what a transition left in the core's buffers, in order: its
    /// trace events, a recall's surrender, its record set, its release
    /// set. Runs under the latch: a racing requester must observe either
    /// our live interest or the released entry, never have its phase-2
    /// interest revoked after the fact, and a sibling granted a resource
    /// next must write its record after ours is deleted.
    fn perform(local: &mut LocalState, cf: &LockConnection) -> DbResult<()> {
        for event in local.events.drain(..) {
            cf.subchannel().emit(event);
        }
        if let Some(entry) = local.surrender.take() {
            let _ = cf.release_lock(entry);
        }
        if local.record_set.is_empty() && local.release_entries.is_empty() && local.release_records.is_empty()
        {
            return Ok(());
        }
        let written =
            if local.record_set.is_empty() { Ok(()) } else { cf.write_lock_record_set(&local.record_set) };
        let released = if local.release_entries.is_empty() && local.release_records.is_empty() {
            Ok(())
        } else {
            cf.release_set(&local.release_entries, &local.release_records)
        };
        local.sent(released.is_ok());
        Ok(written.and(released)?)
    }

    /// Request with retry until `timeout`. While it waits, `txn` is marked
    /// waiting; when an older waiting transaction is in its way, and `txn`
    /// holds locks, the wait ends at once with [`DbError::DeadlockVictim`]
    /// naming it — so every cycle of waits, an upgrade standoff first of
    /// all, is broken in TOD order. The timeout bounds every other wait —
    /// on holders that are silent, gone or failed-persistent above all —
    /// and ends it with [`DbError::LockTimeout`], naming what the last Busy
    /// answer reported.
    pub fn lock_wait(
        &self,
        txn: u64,
        resource: &[u8],
        mode: LockMode,
        persistent: bool,
        timeout: Duration,
    ) -> DbResult<()> {
        let mut waiting = None;
        // A wait that ends without a grant or a victim verdict ends here.
        let stop_waiting = || self.local.lock().stop_waiting(txn);
        loop {
            let verdict = self
                .attempt(txn, resource, mode, persistent, Some(&mut waiting))
                .inspect_err(|_| stop_waiting())?;
            let blocker = match verdict {
                Ok(()) => return Ok(()),
                Err(Refusal::Busy(blocker)) => blocker,
                Err(Refusal::Victim(winner)) => {
                    return Err(DbError::DeadlockVictim { resource: resource.to_vec(), winner })
                }
            };
            let clock = &self.timer;
            let waited = clock.elapsed().saturating_sub(self.wait_start(&mut waiting));
            if waited >= timeout {
                stop_waiting();
                return Err(DbError::LockTimeout { resource: resource.to_vec(), waited, blocker });
            }
            // Virtual clock: each retry burns 1ms of simulated time, so the
            // timeout fires after a bounded number of deterministic
            // iterations. Wall clock: a short real sleep, not
            // a yield — IRLM suspends a blocked requestor. A pure
            // yield-spin lets N waiters starve the holder on an
            // oversubscribed host: nobody commits inside anyone's timeout
            // window and a wide member group livelocks in abort/retry
            // cycles on the hottest row.
            clock.park_us(if clock.is_virtual() { 1_000 } else { 200 });
        }
    }

    /// Release `txn`'s hold on `resource`.
    ///
    /// The last local hold on a *cached* entry is released lazily: CF
    /// interest is parked so a re-acquire in the hash class stays a local
    /// re-grant, and the interest is surrendered only on a peer's recall
    /// or FIFO eviction past the park cap — which runs when a transaction
    /// ends, so an unlock that leaves `txn` holding nothing evicts too.
    /// What the unlock gives up goes to the CF as at most one command.
    pub fn unlock(&self, txn: u64, resource: &[u8]) -> DbResult<()> {
        self.transition(&self.cf.read(), |local| local.unlock(txn, resource)).1
    }

    /// Write the records still owed for resources `txn` holds persistently
    /// — owed by grants whose own command wrote none, local re-grants
    /// above all — as one command, under the latch, so no release of the
    /// same names overtakes it. A commit calls it before its first page
    /// write: a record must exist before anything it protects can reach
    /// shared storage, and until then a crash has externalised nothing it
    /// would have to cover. Nothing owed, no command. A failed set may
    /// have written some of the records: the holds still own them, and
    /// their release deletes them.
    pub fn write_records(&self, txn: u64) -> DbResult<()> {
        self.transition(&self.cf.read(), |local| local.write_records(txn)).1
    }

    /// Release everything `txn` holds (commit/abort) with at most one CF
    /// command: the local tables settle whatever it returns, and its error
    /// is reported. A record still owed goes with the last persistent hold
    /// of its resource.
    pub fn unlock_all(&self, txn: u64) -> DbResult<()> {
        self.transition(&self.cf.read(), |local| local.unlock_all(txn)).1
    }

    /// Resources `txn` currently holds, with modes (diagnostics).
    pub fn held_by(&self, txn: u64) -> Vec<(Vec<u8>, LockMode)> {
        let local = self.local.lock();
        let hold = |name: &ResourceName| Some(local.resources.get(name)?.iter().find(|h| h.txn == txn)?.mode);
        let names = local.held.get(&txn).into_iter().flatten();
        let mut v: Vec<_> = names.filter_map(|name| Some((name.as_bytes().to_vec(), hold(name)?))).collect();
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

    /// Re-create a replay's interest and then its records through `conn`.
    fn import(conn: &LockConnection, (interest, records): &Replay) -> DbResult<()> {
        for &(entry, mode) in interest {
            conn.force_interest(entry, mode)?;
        }
        if !records.is_empty() {
            conn.write_lock_record_set(records)?;
        }
        Ok(())
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
            let sec = guard.duplex_into(&pair)?;
            Self::import(sec, &member.local.lock().replay(sec.structure().entries()))?;
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
            let replay = local.replay(new.entries());
            Self::import(&new_conn, &replay)?;
            local.rebuilt(new.entries(), &replay.0);
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
    use super::protocol::{Wanted, PARK_CAP};
    use super::*;
    use crate::error::{Blocker, Winner};
    use std::sync::atomic::AtomicU64;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::lock::LockParams;
    use sysplex_core::lock::LockResponse;

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
        assert_eq!(r.irlms[0].answer_query(&peer, &full), Some(to_bytes(&(false, None::<u64>))));
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
        // Short, a bad verdict or presence byte, a cut waiter, trailing bytes.
        let older_waiter = to_bytes(&(true, Some(0u64)));
        let garbled = [
            None,
            Some(vec![]),
            Some(vec![2]),
            Some(vec![0]),
            Some(vec![1]),
            Some(vec![0, 2]),
            Some(older_waiter[..older_waiter.len() - 1].to_vec()),
            Some([&older_waiter[..], &[0]].concat()),
        ];
        for (txn, bytes) in garbled.iter().enumerate() {
            *answer.lock() = bytes.clone();
            let outcome = a.lock(txn as u64, b"ROW.1", LockMode::Exclusive, false).unwrap();
            assert_eq!(outcome, LockOutcome::Busy, "answer {bytes:02x?} read as no conflict");
        }
        assert_eq!(a.stats.real_conflicts.get(), garbled.len() as u64);
        // Nor as an older waiting transaction: an upgrade waits them out.
        let no_conflict = Some(to_bytes(&(false, None::<u64>)));
        *answer.lock() = no_conflict.clone();
        assert_eq!(a.lock(u64::MAX, b"ROW.1", LockMode::Shared, false).unwrap(), LockOutcome::Granted);
        for bytes in &garbled {
            *answer.lock() = bytes.clone();
            let wait = Duration::from_millis(2);
            let err = a.lock_wait(u64::MAX, b"ROW.1", LockMode::Exclusive, false, wait).unwrap_err();
            assert!(
                matches!(err, DbError::LockTimeout { .. }),
                "answer {bytes:02x?} read as a waiter: {err}"
            );
        }
        a.unlock_all(u64::MAX).unwrap();
        *answer.lock() = no_conflict;
        assert_eq!(a.lock(9, b"ROW.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);
        assert_eq!(a.stats.false_contentions.get(), 2);
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
        assert!(
            matches!(err, DbError::LockTimeout { blocker: Blocker::Peer(conn), .. } if conn == a.conn()),
            "{err}"
        );
    }

    #[test]
    fn an_upgrade_standoff_elects_the_oldest_by_tod() {
        let r = rig(2, 1024);
        let (a, b) = (&r.irlms[0], &r.irlms[1]);
        let (row, x, wait) = (b"ROW.9", LockMode::Exclusive, Duration::from_millis(20));
        let waits = |i: &Irlm, txn| i.local.lock().waiting.contains(&txn);
        a.lock(1, row, LockMode::Shared, false).unwrap();
        b.lock(2, row, LockMode::Shared, false).unwrap();
        // A wait that times out is over: the younger upgrade then waits
        // too, rather than giving way to nobody.
        let err = a.lock_wait(1, row, x, true, wait).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }), "{err}");
        assert!(!waits(a, 1));
        let err = b.lock_wait(2, row, x, true, wait).unwrap_err();
        assert!(matches!(err, DbError::LockTimeout { .. }), "{err}");
        // While the older waits, the younger is its victim at once.
        std::thread::scope(|scope| {
            let older = scope.spawn(|| a.lock_wait(1, row, x, true, Duration::from_secs(60)));
            let asked = std::time::Instant::now();
            while !waits(a, 1) {
                assert!(asked.elapsed() < Duration::from_secs(10), "the refused upgrade is not waiting");
                std::thread::yield_now();
            }
            let err = b.lock_wait(2, row, x, true, Duration::from_secs(60)).unwrap_err();
            let winner = Winner { txn: 1, peer: Some(a.conn()) };
            assert_eq!(err, DbError::DeadlockVictim { resource: row.to_vec(), winner });
            assert!(!waits(b, 2));
            b.unlock_all(2).unwrap();
            older.join().unwrap().unwrap();
        });
        assert_eq!((a.local_mode(row), waits(a, 1)), (Some(x), false), "granted, and no longer waiting");
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

    /// Register `txn`'s persistent request for `name` as phase 1 does, so
    /// a test can play the request's CF command and phase 3 in an order of
    /// its own.
    fn register(irlm: &Irlm, txn: u64, name: &ResourceName, mode: LockMode) -> u64 {
        let mut local = irlm.local.lock();
        let entry = local.entry_of(name);
        let recall_snapshot = local.recall_seq;
        local.wanted.push(Wanted { recall_snapshot, ..Wanted::new(txn, name, entry, mode, true) });
        txn
    }

    /// Phase 3 of `txn`'s registered request, its CF command having
    /// granted it synchronously.
    fn finish(irlm: &Irlm, txn: u64) -> DbResult<LockOutcome> {
        let (step, _) = irlm.transition(&irlm.cf.read(), |local| local.answered(txn, LockResponse::Granted));
        Ok(if step == Step::Done(Ok(())) { LockOutcome::Granted } else { LockOutcome::Busy })
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
            let outcome = finish(a, phase2).unwrap();
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
        let outcome = finish(a, phase2).unwrap();
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
            critical,
            ..Wanted::new(2, &ResourceName::new(b"ROW.S"), 0, LockMode::Shared, false)
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
        let row = Wanted::new(u64::MAX, &ResourceName::new(b"ROW.S"), registered, LockMode::Shared, false);
        a.local.lock().wanted.push(Wanted { critical: false, ..row });
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
