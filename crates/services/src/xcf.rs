//! XCF — cross-system coupling facility group services.
//!
//! §3.2, first building block: "a set of group membership services are
//! provided. These allow processes to join/leave groups, signal other group
//! members and be notified of events related to the group."
//!
//! Subsystem instances (IRLMs, transaction managers, VTAM nodes...) join
//! named groups; within a group they exchange point-to-point and broadcast
//! signals and receive membership events — including [`GroupEvent::MemberFailed`]
//! when the heartbeat service declares a whole system down, which is what
//! triggers peer recovery (§2.5).
//!
//! There is one delivery path: every signal and every membership event is
//! handed to the target member's [`MessageExit`], on the signalling
//! thread, after the group directory's mutex has been released. A member
//! that joins with [`Xcf::join`] gets the default exit — push into its
//! mailbox, drained with [`XcfMember::try_recv`] / [`XcfMember::recv_timeout`];
//! one that joins with [`Xcf::join_with_exit`] is called in place.
//!
//! **Exit contract.** An exit runs on a thread it does not own, so it must
//! take any lock its signaller may hold only with a `try_` acquisition,
//! never block and never signal: it answers by returning, and
//! [`XcfMember::call`] hands that value to the caller (every other path
//! drops it; the mailbox exit returns `None`). No exit then runs inside
//! another, and none can deadlock against its signaller.

use crate::timer::SysplexTimer;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use sysplex_core::trace::{TraceEvent, Tracer};
use sysplex_core::SystemId;

/// Errors from XCF services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XcfError {
    /// A member with this name already exists in the group.
    DuplicateMember(String),
    /// The named member is not (or no longer) in the group.
    NoSuchMember(String),
    /// The member handle is stale (left or failed).
    StaleHandle,
}

impl fmt::Display for XcfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcfError::DuplicateMember(m) => write!(f, "member already joined: {m}"),
            XcfError::NoSuchMember(m) => write!(f, "no such member: {m}"),
            XcfError::StaleHandle => write!(f, "member handle is stale"),
        }
    }
}

impl std::error::Error for XcfError {}

/// Membership event delivered to every surviving member of a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEvent {
    /// A member joined the group.
    MemberJoined {
        /// Member name.
        member: String,
        /// System the member runs on.
        system: SystemId,
    },
    /// A member left in an orderly way.
    MemberLeft {
        /// Member name.
        member: String,
    },
    /// A member was lost to a system failure; peers should begin recovery.
    MemberFailed {
        /// Member name.
        member: String,
        /// Failed system.
        system: SystemId,
    },
}

/// What a member's message exit is handed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XcfItem {
    /// A point-to-point or broadcast signal from a peer.
    Message {
        /// Sending member's name.
        from: String,
        /// Signal payload.
        payload: Vec<u8>,
    },
    /// A group membership event.
    Event(GroupEvent),
}

/// A member's message exit: called with every signal and membership event
/// addressed to the member, on the signalling thread; what it returns is
/// the member's answer to an [`XcfMember::call`]. See the module docs for
/// the contract it must keep.
pub type MessageExit = Arc<dyn Fn(XcfItem) -> Option<Vec<u8>> + Send + Sync>;

struct MemberSlot {
    token: u64,
    system: SystemId,
    exit: MessageExit,
}

#[derive(Default)]
struct Group {
    members: HashMap<String, MemberSlot>,
}

impl Group {
    /// Every current member's exit paired with `event`, for delivery once
    /// the directory mutex is released.
    fn notifications(&self, event: &GroupEvent) -> impl Iterator<Item = (MessageExit, XcfItem)> + '_ {
        let item = XcfItem::Event(event.clone());
        self.members.values().map(move |slot| (Arc::clone(&slot.exit), item.clone()))
    }
}

/// Run each exit with its item. Callers have released the directory mutex.
fn deliver(items: Vec<(MessageExit, XcfItem)>) {
    for (exit, item) in items {
        exit(item);
    }
}

/// Directory entry describing a current member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// Member name.
    pub name: String,
    /// System the member runs on.
    pub system: SystemId,
}

/// The XCF service instance for a sysplex.
pub struct Xcf {
    groups: Mutex<HashMap<String, Group>>,
    next_token: AtomicU64,
    timer: Arc<SysplexTimer>,
    /// Component tracer signal send/deliver events land in; unset (no
    /// tracing) until the sysplex wires its shared tracer.
    tracer: OnceLock<Arc<Tracer>>,
    /// Signals delivered (for the E2/E3 messaging-cost accounting).
    pub signals_sent: AtomicU64,
}

impl Xcf {
    /// Create the service.
    pub fn new(timer: Arc<SysplexTimer>) -> Arc<Self> {
        Arc::new(Xcf {
            groups: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            timer,
            tracer: OnceLock::new(),
            signals_sent: AtomicU64::new(0),
        })
    }

    /// Route signal trace events to the sysplex-wide component tracer.
    /// Called once, when the sysplex assembles its services; a later call
    /// leaves the first tracer in place.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The sysplex timer: the one clock of every member that joins here.
    pub fn timer(&self) -> &Arc<SysplexTimer> {
        &self.timer
    }

    /// One signal's `XcfSend`/`XcfDeliver` trace pair.
    fn trace_signal(&self, from_system: u8, to_system: u8, bytes: usize) {
        // Per-signal path: one atomic load for the attachment, one relaxed
        // load for the enabled check — no RwLock on the message path.
        let Some(tracer) = self.tracer.get() else { return };
        if !tracer.is_enabled() {
            return;
        }
        tracer.emit(from_system, 0, TraceEvent::XcfSend { bytes: bytes as u64 });
        tracer.emit(to_system, 0, TraceEvent::XcfDeliver { bytes: bytes as u64 });
    }

    /// Join `group` as `member` running on `system`, receiving through a
    /// mailbox (the default exit pushes into it).
    pub fn join(
        self: &Arc<Self>,
        group: &str,
        member: &str,
        system: SystemId,
    ) -> Result<XcfMember, XcfError> {
        let (tx, rx) = unbounded();
        let exit: MessageExit = Arc::new(move |item| {
            let _ = tx.send(item);
            None
        });
        self.join_member(group, member, system, exit, rx)
    }

    /// Join `group` as `member` running on `system`, receiving through
    /// `exit`. The returned handle's mailbox stays empty.
    pub fn join_with_exit(
        self: &Arc<Self>,
        group: &str,
        member: &str,
        system: SystemId,
        exit: MessageExit,
    ) -> Result<XcfMember, XcfError> {
        self.join_member(group, member, system, exit, unbounded().1)
    }

    fn join_member(
        self: &Arc<Self>,
        group: &str,
        member: &str,
        system: SystemId,
        exit: MessageExit,
        rx: Receiver<XcfItem>,
    ) -> Result<XcfMember, XcfError> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let joined = {
            let mut groups = self.groups.lock();
            let g = groups.entry(group.to_string()).or_default();
            if g.members.contains_key(member) {
                return Err(XcfError::DuplicateMember(member.to_string()));
            }
            // Existing members are notified; the newcomer is not.
            let ev = GroupEvent::MemberJoined { member: member.to_string(), system };
            let joined: Vec<_> = g.notifications(&ev).collect();
            g.members.insert(member.to_string(), MemberSlot { token, system, exit });
            joined
        };
        deliver(joined);
        Ok(XcfMember { xcf: Arc::clone(self), group: group.to_string(), name: member.to_string(), token, rx })
    }

    /// Current members of a group, sorted by name.
    pub fn members(&self, group: &str) -> Vec<MemberInfo> {
        let groups = self.groups.lock();
        let mut v: Vec<MemberInfo> = groups
            .get(group)
            .map(|g| {
                g.members.iter().map(|(n, s)| MemberInfo { name: n.clone(), system: s.system }).collect()
            })
            .unwrap_or_default();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Deliver one signal and hand back the target exit's answer — itself
    /// counted and traced as a signal, after whatever the exit traced. A
    /// sender no longer in the group signals nobody: it could not be answered.
    fn signal(&self, group: &str, from: &str, to: &str, payload: &[u8]) -> Result<Option<Vec<u8>>, XcfError> {
        let (exit, from_system, to_system) = {
            let groups = self.groups.lock();
            let g = groups.get(group).ok_or_else(|| XcfError::NoSuchMember(to.to_string()))?;
            let slot = g.members.get(to).ok_or_else(|| XcfError::NoSuchMember(to.to_string()))?;
            let from_system = g.members.get(from).ok_or(XcfError::StaleHandle)?.system.0;
            // Trace before delivery: once the signal is delivered the
            // receiver (and anything it unblocks) may emit trace records,
            // and those must sequence *after* the send/deliver pair or
            // replayed traces interleave differently run to run.
            self.trace_signal(from_system, slot.system.0, payload.len());
            (Arc::clone(&slot.exit), from_system, slot.system.0)
        };
        self.signals_sent.fetch_add(1, Ordering::Relaxed);
        let answer = exit(XcfItem::Message { from: from.to_string(), payload: payload.to_vec() });
        if let Some(answer) = &answer {
            self.trace_signal(to_system, from_system, answer.len());
            self.signals_sent.fetch_add(1, Ordering::Relaxed);
        }
        Ok(answer)
    }

    fn broadcast(&self, group: &str, from: &str, payload: &[u8]) -> usize {
        let signals: Vec<(MessageExit, XcfItem)> = {
            let groups = self.groups.lock();
            let Some(g) = groups.get(group) else { return 0 };
            let Some(from_system) = g.members.get(from).map(|s| s.system.0) else { return 0 };
            let others = g.members.iter().filter(|(name, _)| *name != from);
            others
                .map(|(_, slot)| {
                    // Same ordering rule as `signal`: trace, then deliver.
                    self.trace_signal(from_system, slot.system.0, payload.len());
                    let item = XcfItem::Message { from: from.to_string(), payload: payload.to_vec() };
                    (Arc::clone(&slot.exit), item)
                })
                .collect()
        };
        let n = signals.len();
        self.signals_sent.fetch_add(n as u64, Ordering::Relaxed);
        deliver(signals);
        n
    }

    fn leave(&self, group: &str, member: &str, token: u64) -> Result<(), XcfError> {
        let left = {
            let mut groups = self.groups.lock();
            let g = groups.get_mut(group).ok_or_else(|| XcfError::NoSuchMember(member.to_string()))?;
            match g.members.get(member) {
                Some(slot) if slot.token == token => {}
                Some(_) => return Err(XcfError::StaleHandle),
                None => return Err(XcfError::NoSuchMember(member.to_string())),
            }
            g.members.remove(member);
            g.notifications(&GroupEvent::MemberLeft { member: member.to_string() }).collect()
        };
        deliver(left);
        Ok(())
    }

    /// Remove every member running on a failed system, delivering
    /// [`GroupEvent::MemberFailed`] to all survivors in every affected
    /// group. Called by the heartbeat monitor's fail-stop path.
    pub fn fail_system(&self, system: SystemId) -> usize {
        let mut failed = 0;
        let mut events = Vec::new();
        {
            let mut groups = self.groups.lock();
            for g in groups.values_mut() {
                let dead: Vec<String> =
                    g.members.iter().filter(|(_, s)| s.system == system).map(|(n, _)| n.clone()).collect();
                for name in dead {
                    g.members.remove(&name);
                    failed += 1;
                    events.extend(g.notifications(&GroupEvent::MemberFailed { member: name, system }));
                }
            }
        }
        deliver(events);
        failed
    }
}

impl fmt::Debug for Xcf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Xcf").field("signals_sent", &self.signals_sent).finish_non_exhaustive()
    }
}

/// A joined member: the handle through which a process signals peers and
/// drains its mailbox.
#[derive(Debug)]
pub struct XcfMember {
    xcf: Arc<Xcf>,
    group: String,
    name: String,
    token: u64,
    rx: Receiver<XcfItem>,
}

impl XcfMember {
    /// This member's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The group joined.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Signal one peer; whatever its exit answers is dropped.
    pub fn send_to(&self, member: &str, payload: &[u8]) -> Result<(), XcfError> {
        self.call(member, payload).map(drop)
    }

    /// Signal one peer and return its exit's answer: `None` from a member
    /// that has nothing to say (a mailbox member never has).
    pub fn call(&self, member: &str, payload: &[u8]) -> Result<Option<Vec<u8>>, XcfError> {
        self.xcf.signal(&self.group, &self.name, member, payload)
    }

    /// Signal every other member; returns how many were signalled.
    pub fn broadcast(&self, payload: &[u8]) -> usize {
        self.xcf.broadcast(&self.group, &self.name, payload)
    }

    /// Non-blocking mailbox poll.
    pub fn try_recv(&self) -> Option<XcfItem> {
        self.rx.try_recv().ok()
    }

    /// Blocking mailbox receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<XcfItem, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Orderly departure: from then on signals to the member error with
    /// [`XcfError::NoSuchMember`], the handle's own with [`XcfError::StaleHandle`].
    pub fn leave(&self) -> Result<(), XcfError> {
        self.xcf.leave(&self.group, &self.name, self.token)
    }

    /// Peers currently in the group (excluding self).
    pub fn peers(&self) -> Vec<MemberInfo> {
        self.xcf.members(&self.group).into_iter().filter(|m| m.name != self.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xcf() -> Arc<Xcf> {
        Xcf::new(SysplexTimer::new())
    }

    #[test]
    fn join_signal_and_receive() {
        let x = xcf();
        let a = x.join("IRLMGRP", "IRLM_A", SystemId::new(0)).unwrap();
        let b = x.join("IRLMGRP", "IRLM_B", SystemId::new(1)).unwrap();
        a.send_to("IRLM_B", b"negotiate-lock").unwrap();
        match b.recv_timeout(Duration::from_secs(1)).unwrap() {
            XcfItem::Message { from, payload } => {
                assert_eq!(from, "IRLM_A");
                assert_eq!(payload, b"negotiate-lock");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_notifies_existing_members() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let _b = x.join("G", "B", SystemId::new(1)).unwrap();
        match a.recv_timeout(Duration::from_secs(1)).unwrap() {
            XcfItem::Event(GroupEvent::MemberJoined { member, system }) => {
                assert_eq!(member, "B");
                assert_eq!(system, SystemId::new(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_member_rejected() {
        let x = xcf();
        let _a = x.join("G", "A", SystemId::new(0)).unwrap();
        assert_eq!(x.join("G", "A", SystemId::new(1)).unwrap_err(), XcfError::DuplicateMember("A".into()));
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let b = x.join("G", "B", SystemId::new(1)).unwrap();
        let c = x.join("G", "C", SystemId::new(2)).unwrap();
        assert_eq!(a.broadcast(b"hello"), 2);
        for m in [&b, &c] {
            // Skip join events, find the message.
            loop {
                match m.recv_timeout(Duration::from_secs(1)).unwrap() {
                    XcfItem::Message { from, payload } => {
                        assert_eq!(from, "A");
                        assert_eq!(payload, b"hello");
                        break;
                    }
                    XcfItem::Event(_) => continue,
                }
            }
        }
        // Sender's mailbox may hold join events but never its own message.
        while let Some(item) = a.try_recv() {
            assert!(matches!(item, XcfItem::Event(_)), "sender received its own broadcast");
        }
    }

    #[test]
    fn leave_notifies_and_removes() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let b = x.join("G", "B", SystemId::new(1)).unwrap();
        drop(a.try_recv());
        b.leave().unwrap();
        loop {
            match a.recv_timeout(Duration::from_secs(1)).unwrap() {
                XcfItem::Event(GroupEvent::MemberLeft { member }) => {
                    assert_eq!(member, "B");
                    break;
                }
                _ => continue,
            }
        }
        assert_eq!(x.members("G").len(), 1);
        assert_eq!(a.send_to("B", b"x").unwrap_err(), XcfError::NoSuchMember("B".into()));
    }

    #[test]
    fn system_failure_fails_members_in_every_group() {
        let x = xcf();
        let a1 = x.join("G1", "A1", SystemId::new(0)).unwrap();
        let _f1 = x.join("G1", "F1", SystemId::new(9)).unwrap();
        let a2 = x.join("G2", "A2", SystemId::new(0)).unwrap();
        let _f2 = x.join("G2", "F2", SystemId::new(9)).unwrap();
        assert_eq!(x.fail_system(SystemId::new(9)), 2);
        for (survivor, dead) in [(&a1, "F1"), (&a2, "F2")] {
            loop {
                match survivor.recv_timeout(Duration::from_secs(1)).unwrap() {
                    XcfItem::Event(GroupEvent::MemberFailed { member, system }) => {
                        assert_eq!(member, dead);
                        assert_eq!(system, SystemId::new(9));
                        break;
                    }
                    _ => continue,
                }
            }
        }
        assert_eq!(x.members("G1").len(), 1);
    }

    /// What a recording exit was called with, and on which thread.
    type Seen = Arc<Mutex<Vec<(std::thread::ThreadId, XcfItem)>>>;

    /// Join with an exit that records its calls.
    fn recording_member(x: &Arc<Xcf>, name: &str, system: u8) -> (XcfMember, Seen) {
        let seen = Seen::default();
        let exit: MessageExit = {
            let seen = Arc::clone(&seen);
            Arc::new(move |item| {
                seen.lock().push((std::thread::current().id(), item));
                None
            })
        };
        (x.join_with_exit("G", name, SystemId::new(system), exit).unwrap(), seen)
    }

    #[test]
    fn exit_runs_on_the_senders_thread_before_send_returns() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let (b, seen) = recording_member(&x, "B", 1);
        a.send_to("B", b"query").unwrap();
        let expected = XcfItem::Message { from: "A".into(), payload: b"query".to_vec() };
        assert_eq!(*seen.lock(), vec![(std::thread::current().id(), expected.clone())]);
        assert_eq!(a.broadcast(b"query"), 1);
        assert_eq!(seen.lock().len(), 2);
        assert!(b.try_recv().is_none(), "an exit member's mailbox stays empty");
        // From another thread, the exit runs on that thread.
        let sender = std::thread::spawn(move || {
            a.send_to("B", b"query").unwrap();
            std::thread::current().id()
        });
        let sender = sender.join().unwrap();
        assert_eq!(seen.lock().last(), Some(&(sender, expected)));
    }

    /// Join "G" as `name` with an exit that answers a message with its
    /// payload reversed — but answers nothing to an empty one. The answer
    /// is computed through the group directory, so the test hangs if an
    /// exit is ever invoked with the directory mutex held.
    fn answering_member(x: &Arc<Xcf>, name: &str, system: u8) -> XcfMember {
        let exit: MessageExit = {
            let x = Arc::downgrade(x);
            Arc::new(move |item| match item {
                XcfItem::Message { payload, .. } if !payload.is_empty() => {
                    assert!(!x.upgrade().expect("service alive").members("G").is_empty());
                    Some(payload.into_iter().rev().collect())
                }
                _ => None,
            })
        };
        x.join_with_exit("G", name, SystemId::new(system), exit).unwrap()
    }

    #[test]
    fn call_returns_what_the_targets_exit_returned() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let _b = answering_member(&x, "B", 1);
        assert_eq!(a.call("B", b"abc").unwrap(), Some(b"cba".to_vec()));
        assert_eq!(x.signals_sent.load(Ordering::Relaxed), 2, "an answered call is two signals");
        assert_eq!(a.call("B", b"").unwrap(), None, "the exit had nothing to say");
        assert_eq!(x.signals_sent.load(Ordering::Relaxed), 3, "an unanswered call is one");
        a.send_to("B", b"abc").unwrap();
        assert_eq!(x.signals_sent.load(Ordering::Relaxed), 5, "`send_to` only drops the answer");
        while let Some(item) = a.try_recv() {
            assert!(matches!(item, XcfItem::Event(_)), "an answer is a return value, not a message");
        }
    }

    #[test]
    fn mailbox_and_departed_members_answer_nothing() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let b = x.join("G", "B", SystemId::new(1)).unwrap();
        assert_eq!(a.call("B", b"query").unwrap(), None);
        assert!(matches!(b.try_recv(), Some(XcfItem::Message { .. })), "the call was delivered as a signal");
        let c = answering_member(&x, "C", 2);
        c.leave().unwrap();
        assert_eq!(a.call("C", b"query").unwrap_err(), XcfError::NoSuchMember("C".into()));
        let _d = answering_member(&x, "D", 3);
        x.fail_system(SystemId::new(3));
        assert_eq!(a.call("D", b"query").unwrap_err(), XcfError::NoSuchMember("D".into()));
        assert_eq!(x.signals_sent.load(Ordering::Relaxed), 1);
        // A departed caller could not be answered, so it signals nobody.
        assert_eq!(c.call("B", b"query").unwrap_err(), XcfError::StaleHandle);
        assert_eq!(x.signals_sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_call_traces_one_pair_each_way() {
        let x = xcf();
        let tracer = Arc::new(Tracer::new());
        tracer.enable();
        x.set_tracer(Arc::clone(&tracer));
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let _b = answering_member(&x, "B", 1);
        let trace = |tracer: &Tracer| -> Vec<(u8, TraceEvent)> {
            tracer.snapshot_all().into_iter().map(|r| (r.system, r.event)).collect()
        };
        a.call("B", b"abcde").unwrap();
        let there = [(0, TraceEvent::XcfSend { bytes: 5 }), (1, TraceEvent::XcfDeliver { bytes: 5 })];
        let back = [(1, TraceEvent::XcfSend { bytes: 5 }), (0, TraceEvent::XcfDeliver { bytes: 5 })];
        assert_eq!(trace(&tracer), [there, back].concat(), "query pair, then answer pair");
        a.call("B", b"").unwrap();
        let unanswered = [(0, TraceEvent::XcfSend { bytes: 0 }), (1, TraceEvent::XcfDeliver { bytes: 0 })];
        assert_eq!(trace(&tracer)[4..], unanswered, "no answer, no second pair");
    }

    #[test]
    fn exit_is_never_called_after_leave_or_system_failure() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let (b, b_seen) = recording_member(&x, "B", 1);
        let (_c, c_seen) = recording_member(&x, "C", 2);
        a.send_to("B", b"1").unwrap();
        a.send_to("C", b"1").unwrap();
        b.leave().unwrap();
        assert_eq!(x.fail_system(SystemId::new(2)), 1);
        let (b_count, c_count) = (b_seen.lock().len(), c_seen.lock().len());
        assert_eq!(a.send_to("B", b"2").unwrap_err(), XcfError::NoSuchMember("B".into()));
        assert_eq!(a.send_to("C", b"2").unwrap_err(), XcfError::NoSuchMember("C".into()));
        assert_eq!(a.broadcast(b"2"), 0);
        let _d = x.join("G", "D", SystemId::new(3)).unwrap();
        assert_eq!(b_seen.lock().len(), b_count, "nothing reaches a member that left");
        assert_eq!(c_seen.lock().len(), c_count, "nothing reaches a failed member");
    }

    #[test]
    fn membership_events_arrive_through_the_exit() {
        let x = xcf();
        let (_a, seen) = recording_member(&x, "A", 0);
        let b = x.join("G", "B", SystemId::new(1)).unwrap();
        b.leave().unwrap();
        let _c = x.join("G", "C", SystemId::new(2)).unwrap();
        x.fail_system(SystemId::new(2));
        let events: Vec<XcfItem> = seen.lock().iter().map(|(_, item)| item.clone()).collect();
        let expected = [
            GroupEvent::MemberJoined { member: "B".into(), system: SystemId::new(1) },
            GroupEvent::MemberLeft { member: "B".into() },
            GroupEvent::MemberJoined { member: "C".into(), system: SystemId::new(2) },
            GroupEvent::MemberFailed { member: "C".into(), system: SystemId::new(2) },
        ];
        assert_eq!(events, expected.map(XcfItem::Event));
        let me = std::thread::current().id();
        assert!(seen.lock().iter().all(|(thread, _)| *thread == me), "on the thread that caused them");
    }

    #[test]
    fn peers_excludes_self() {
        let x = xcf();
        let a = x.join("G", "A", SystemId::new(0)).unwrap();
        let _b = x.join("G", "B", SystemId::new(1)).unwrap();
        let peers = a.peers();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].name, "B");
    }
}
