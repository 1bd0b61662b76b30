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

use crate::timer::SysplexTimer;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use sysplex_core::trace::{TraceEvent, Tracer, TRACE_SYSTEM_CF};
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

/// What arrives in a member's mailbox.
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

#[derive(Debug)]
struct MemberSlot {
    token: u64,
    system: SystemId,
    tx: Sender<XcfItem>,
}

#[derive(Debug, Default)]
struct Group {
    members: HashMap<String, MemberSlot>,
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
#[derive(Debug)]
pub struct Xcf {
    groups: Mutex<HashMap<String, Group>>,
    next_token: AtomicU64,
    #[allow(dead_code)]
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

    fn trace_signal(&self, g: &Group, from: &str, to_system: SystemId, bytes: usize) {
        // Per-signal path: one atomic load for the attachment, one relaxed
        // load for the enabled check — no RwLock on the message path.
        let Some(tracer) = self.tracer.get() else { return };
        if !tracer.is_enabled() {
            return;
        }
        let from_system = g.members.get(from).map_or(TRACE_SYSTEM_CF, |s| s.system.0);
        tracer.emit(from_system, 0, TraceEvent::XcfSend { bytes: bytes as u64 });
        tracer.emit(to_system.0, 0, TraceEvent::XcfDeliver { bytes: bytes as u64 });
    }

    /// Join `group` as `member` running on `system`.
    pub fn join(
        self: &Arc<Self>,
        group: &str,
        member: &str,
        system: SystemId,
    ) -> Result<XcfMember, XcfError> {
        let (tx, rx) = unbounded();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        {
            let mut groups = self.groups.lock();
            let g = groups.entry(group.to_string()).or_default();
            if g.members.contains_key(member) {
                return Err(XcfError::DuplicateMember(member.to_string()));
            }
            // Notify existing members first.
            let ev = GroupEvent::MemberJoined { member: member.to_string(), system };
            for slot in g.members.values() {
                let _ = slot.tx.send(XcfItem::Event(ev.clone()));
            }
            g.members.insert(member.to_string(), MemberSlot { token, system, tx });
        }
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

    fn signal(&self, group: &str, from: &str, to: &str, payload: &[u8]) -> Result<(), XcfError> {
        let groups = self.groups.lock();
        let g = groups.get(group).ok_or_else(|| XcfError::NoSuchMember(to.to_string()))?;
        let slot = g.members.get(to).ok_or_else(|| XcfError::NoSuchMember(to.to_string()))?;
        // Trace before the channel push: once the signal is delivered the
        // receiver (and anything it unblocks) may emit trace records, and
        // those must sequence *after* the send/deliver pair or replayed
        // traces interleave differently run to run.
        self.trace_signal(g, from, slot.system, payload.len());
        let _ = slot.tx.send(XcfItem::Message { from: from.to_string(), payload: payload.to_vec() });
        self.signals_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn broadcast(&self, group: &str, from: &str, payload: &[u8]) -> usize {
        let groups = self.groups.lock();
        let Some(g) = groups.get(group) else { return 0 };
        let mut n = 0;
        for (name, slot) in g.members.iter() {
            if name != from {
                // Same ordering rule as `signal`: trace, then deliver.
                self.trace_signal(g, from, slot.system, payload.len());
                let _ = slot.tx.send(XcfItem::Message { from: from.to_string(), payload: payload.to_vec() });
                n += 1;
            }
        }
        self.signals_sent.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    fn leave(&self, group: &str, member: &str, token: u64) -> Result<(), XcfError> {
        let mut groups = self.groups.lock();
        let g = groups.get_mut(group).ok_or_else(|| XcfError::NoSuchMember(member.to_string()))?;
        match g.members.get(member) {
            Some(slot) if slot.token == token => {}
            Some(_) => return Err(XcfError::StaleHandle),
            None => return Err(XcfError::NoSuchMember(member.to_string())),
        }
        g.members.remove(member);
        let ev = GroupEvent::MemberLeft { member: member.to_string() };
        for slot in g.members.values() {
            let _ = slot.tx.send(XcfItem::Event(ev.clone()));
        }
        Ok(())
    }

    /// Remove every member running on a failed system, delivering
    /// [`GroupEvent::MemberFailed`] to all survivors in every affected
    /// group. Called by the heartbeat monitor's fail-stop path.
    pub fn fail_system(&self, system: SystemId) -> usize {
        let mut groups = self.groups.lock();
        let mut failed = 0;
        for g in groups.values_mut() {
            let dead: Vec<String> =
                g.members.iter().filter(|(_, s)| s.system == system).map(|(n, _)| n.clone()).collect();
            for name in dead {
                g.members.remove(&name);
                failed += 1;
                let ev = GroupEvent::MemberFailed { member: name, system };
                for slot in g.members.values() {
                    let _ = slot.tx.send(XcfItem::Event(ev.clone()));
                }
            }
        }
        failed
    }
}

/// A joined member: the handle through which a process signals peers and
/// receives its mailbox.
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

    /// Signal one peer.
    pub fn send_to(&self, member: &str, payload: &[u8]) -> Result<(), XcfError> {
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

    /// Orderly departure. The handle becomes stale afterwards (signals
    /// error with [`XcfError::NoSuchMember`]).
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
