//! Every interleaving of two IRLM protocol cores, walked from one thread.
//!
//! Two [`LocalState`]s share one [`LockStructure`] of a single entry, so
//! every resource is in one hash class. Each member runs up to two
//! transactions, each a short script of requests and unlocks. One atomic
//! action is what the shell does in one piece: a transition under the
//! member's latch together with the commands it sends there, one CF
//! command, or one negotiation query — delivered as a call into the peer's
//! core, as the peer's XCF message exit would make it. The explorer
//! (`explore/mod.rs`) walks every choice of which transaction acts next,
//! and checks after every action that
//!
//! - no resource has conflicting holders on the two members, and
//! - each member's record for a resource names a transaction that has
//!   held the resource persistently there since that member's persistent
//!   hold of it began — or one whose request for it is in phase 2, whose
//!   own command may have written the record before phase 3, and
//! - no two transactions wait on each other: of two waiting ones, at most
//!   one has been answered Busy by the other's member while the other was
//!   waiting — the younger is the older's victim.
//!
//! A Busy or victim verdict moves a script on to its next step, so a
//! script retries a request by naming it again.

mod explore;

use explore::explore;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{LockMode, LockParams, LockResponse, LockStructure};
use sysplex_core::types::{conns_in_mask, ConnId};
use sysplex_db::irlm::protocol::{LocalState, Negotiation, Refusal, Step, Verdict};
use sysplex_db::Winner;

const S: LockMode = LockMode::Shared;
const X: LockMode = LockMode::Exclusive;

/// One step of a transaction's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Request a resource in a mode, persistent or not, as one attempt of
    /// a waiting caller: a refusal moves on to the next step, leaving the
    /// transaction waiting when it was Busy.
    Lock(&'static str, LockMode, bool),
    Unlock(&'static str),
    UnlockAll,
    WriteRecords,
}

/// A transaction: the member it runs on and its script.
struct Txn {
    member: usize,
    ops: &'static [Op],
}

/// What the shell observed performing a step, for the core to resume on.
#[derive(Debug, Clone, Copy)]
enum Io {
    Answer(LockResponse),
    Said(Negotiation),
    Written(bool),
}

/// Where one transaction is.
#[derive(Debug, Clone, Copy)]
enum At {
    /// About to run script step `.0`.
    Op(usize),
    /// Inside script step `.0`'s request: perform the step's command.
    Perform(usize, Step),
    /// Inside script step `.0`'s request: resume the core on the result.
    Resume(usize, Step, Io),
}

/// The known-bad switches the walk runs with.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(not(feature = "test-hooks"), allow(dead_code))]
struct Bugs {
    /// The structure lets a negotiation answered before a grant land.
    stale_negotiation: bool,
    /// A phase-3 loser leaves its record naming itself.
    keep_lost_record: bool,
    /// A waiting holder never makes a victim.
    ignore_waiting: bool,
}

struct World<'s> {
    txns: &'s [Txn],
    lock: LockStructure,
    conns: [ConnId; 2],
    cores: [LocalState; 2],
    at: Vec<At>,
    /// Per member and resource: the transactions that have held it
    /// persistently since the member's persistent hold of it began.
    held_since: [BTreeMap<Vec<u8>, BTreeSet<u64>>; 2],
    /// Per transaction: its last request was answered Busy by a peer that
    /// reported a waiting transaction in its way.
    against_waiter: Vec<bool>,
}

impl<'s> World<'s> {
    fn new(txns: &'s [Txn], bugs: Bugs) -> Self {
        for member in 0..2 {
            let ops: usize = txns.iter().filter(|t| t.member == member).map(|t| t.ops.len()).sum();
            assert!(ops <= 4, "at most four requests or unlocks per member");
        }
        let lock = LockStructure::new("IRLMLOCK1", &LockParams::with_entries(1)).unwrap();
        let conns = [lock.connect().unwrap(), lock.connect().unwrap()];
        #[allow(unused_mut)]
        let mut cores = conns.map(|conn| LocalState::new(lock.entries(), conn, Arc::default()));
        #[cfg(feature = "test-hooks")]
        {
            if bugs.stale_negotiation {
                lock.arm_stale_negotiation();
            }
            for core in &mut cores {
                core.keep_lost_record = bugs.keep_lost_record;
                core.ignore_waiting = bugs.ignore_waiting;
            }
        }
        let _ = bugs;
        let (at, against_waiter) = (vec![At::Op(0); txns.len()], vec![false; txns.len()]);
        World { txns, lock, conns, cores, at, held_since: Default::default(), against_waiter }
    }

    /// Transaction `t`'s id: distinct across members.
    fn id(t: usize) -> u64 {
        t as u64 + 1
    }

    fn next(pc: usize, step: Step) -> At {
        match step {
            Step::Done(_) => At::Op(pc + 1),
            step => At::Perform(pc, step),
        }
    }

    fn send(&mut self, m: usize) {
        send(&self.lock, self.conns[m], &mut self.cores[m]);
    }
}

impl explore::World for World<'_> {
    fn runnable(&self) -> Vec<usize> {
        (0..self.txns.len())
            .filter(|&t| !matches!(self.at[t], At::Op(pc) if pc == self.txns[t].ops.len()))
            .collect()
    }

    /// Run transaction `t`'s next atomic action; returns what it did.
    fn act(&mut self, t: usize) -> String {
        let (m, id) = (self.txns[t].member, Self::id(t));
        let (at, done) = match self.at[t] {
            At::Op(pc) => {
                let op = self.txns[t].ops[pc];
                let core = &mut self.cores[m];
                let step = match op {
                    Op::Lock(name, mode, persistent) => {
                        core.request(id, &ResourceName::new(name.as_bytes()), mode, persistent, true)
                    }
                    Op::Unlock(name) => {
                        core.unlock_set(id, &[name.as_bytes()]);
                        Step::Done(Ok(()))
                    }
                    Op::UnlockAll => {
                        core.unlock_all(id);
                        Step::Done(Ok(()))
                    }
                    Op::WriteRecords => {
                        core.write_records(id);
                        Step::Done(Ok(()))
                    }
                };
                self.send(m);
                self.against_waiter[t] &= !matches!(step, Step::Done(_));
                (Self::next(pc, step), format!("{op:?} -> {step:?}"))
            }
            At::Perform(pc, step) => {
                let Op::Lock(name, mode, persistent) = self.txns[t].ops[pc] else { unreachable!() };
                let (conn, peer) = (self.conns[m], 1 - m);
                let io = match step {
                    Step::Request(entry) if persistent => {
                        let payload = id.to_be_bytes();
                        Io::Answer(
                            self.lock.request_recorded(conn, entry, mode, name.as_bytes(), &payload).unwrap(),
                        )
                    }
                    Step::Request(entry) => Io::Answer(self.lock.request(conn, entry, mode).unwrap()),
                    Step::Negotiate { .. } => {
                        let resource = ResourceName::new(name.as_bytes());
                        let (conflict, claim) = self.cores[peer].answer(&resource, mode, true);
                        self.send(peer);
                        Io::Said(if conflict { Err((self.conns[peer], claim)) } else { Ok(()) })
                    }
                    Step::Force { entry, holders, generation } => Io::Written(
                        self.lock.force_interest_negotiated(conn, entry, mode, holders, generation).unwrap(),
                    ),
                    Step::Done(_) => unreachable!("a finished request performs nothing"),
                };
                (At::Resume(pc, step, io), format!("performs {step:?} -> {io:?}"))
            }
            At::Resume(pc, step, io) => {
                let core = &mut self.cores[m];
                let next = match (step, io) {
                    (_, Io::Answer(response)) => core.answered(id, response),
                    (Step::Negotiate { holders, generation }, Io::Said(said)) => {
                        core.negotiated(id, said, holders, generation)
                    }
                    (Step::Force { holders, .. }, Io::Written(written)) => core.forced(id, written, holders),
                    _ => unreachable!("a result answers the step that produced it"),
                };
                self.send(m);
                if let Step::Done(verdict) = next {
                    let waiter = matches!(io, Io::Said(Err((_, Some(_)))));
                    self.against_waiter[t] = waiter && matches!(verdict, Err(Refusal::Busy(_)));
                }
                (Self::next(pc, next), format!("resumes -> {next:?}"))
            }
        };
        self.at[t] = at;
        format!("txn {id} on member {m}: {done}")
    }

    /// The three invariants; also advances `held_since`.
    fn check(&mut self) -> Result<(), String> {
        for (core, since) in self.cores.iter().zip(&mut self.held_since) {
            since.retain(|name, _| {
                core.resources.get(&ResourceName::new(name)).is_some_and(|rh| rh.recorded().is_some())
            });
            for (name, rh) in &core.resources {
                for h in rh.iter().filter(|h| h.persistent) {
                    since.entry(name.as_bytes().to_vec()).or_default().insert(h.txn);
                }
            }
        }
        let [a, b] = &self.cores;
        for (name, rh) in &a.resources {
            let (ma, mb) = (rh.strongest(), b.resources.get(name).and_then(|rh| rh.strongest()));
            if let (Some(ma), Some(mb)) = (ma, mb) {
                if ma == X || mb == X {
                    let name = String::from_utf8_lossy(name.as_bytes());
                    return Err(format!(
                        "{name} has conflicting holders: {ma:?} on member 0, {mb:?} on member 1"
                    ));
                }
            }
        }
        for m in 0..2 {
            for record in self.lock.retained_locks(self.conns[m]) {
                let txn = u64::from_be_bytes(record.payload[..].try_into().unwrap());
                let held = self.held_since[m].get(&record.resource).is_some_and(|s| s.contains(&txn));
                let asked =
                    self.cores[m].wanted.iter().any(|w| w.txn == txn && w.name.as_bytes() == record.resource);
                if !held && !asked {
                    let name = String::from_utf8_lossy(&record.resource);
                    return Err(format!(
                        "member {m}'s record for {name} names txn {txn}, which has not held it persistently since the member's hold began"
                    ));
                }
            }
        }
        let waits = |t: usize| self.cores[self.txns[t].member].waiting.contains(&Self::id(t));
        let stuck: Vec<u64> =
            (0..self.txns.len()).filter(|&t| self.against_waiter[t] && waits(t)).map(Self::id).collect();
        if stuck.len() > 1 {
            return Err(format!(
                "standoff: txns {stuck:?} were each answered Busy while the other waited, and neither is a victim"
            ));
        }
        Ok(())
    }

    /// Generations and recall sequence numbers are kept relative, so paths
    /// that reach one state by different counts of releases or queries
    /// meet.
    fn fingerprint(&self) -> u64 {
        let gen = self.lock.generation(0);
        let relative = |step: Step| match step {
            Step::Negotiate { holders, generation } => {
                Step::Negotiate { holders, generation: gen.wrapping_sub(generation) }
            }
            Step::Force { entry, holders, generation } => {
                Step::Force { entry, holders, generation: gen.wrapping_sub(generation) }
            }
            step => step,
        };
        let mut out = String::new();
        for at in &self.at {
            let at = match *at {
                At::Perform(pc, step) => At::Perform(pc, relative(step)),
                At::Resume(
                    pc,
                    step,
                    Io::Answer(LockResponse::Contention { holders, exclusive, generation }),
                ) => {
                    let generation = gen.wrapping_sub(generation);
                    At::Resume(
                        pc,
                        relative(step),
                        Io::Answer(LockResponse::Contention { holders, exclusive, generation }),
                    )
                }
                At::Resume(pc, step, io) => At::Resume(pc, relative(step), io),
                at => at,
            };
            let _ = write!(out, "{at:?};");
        }
        for core in &self.cores {
            let mut resources: Vec<_> = core
                .resources
                .iter()
                .map(|(name, rh)| {
                    let mut holds: Vec<_> = rh.iter().map(|h| (h.txn, h.mode, h.persistent)).collect();
                    holds.sort_by_key(|h| h.0);
                    (name.as_bytes().to_vec(), holds)
                })
                .collect();
            resources.sort();
            let mut entries: Vec<_> =
                core.entries.iter().map(|(e, r)| (*e, r.count, r.cached, r.parked, r.cool)).collect();
            entries.sort();
            let mut held: Vec<_> = core
                .held
                .iter()
                .map(|(txn, names)| {
                    let mut names: Vec<_> = names.iter().map(|n| n.as_bytes().to_vec()).collect();
                    names.sort();
                    (*txn, names)
                })
                .collect();
            held.sort();
            let parked: Vec<_> =
                core.parked.iter().map(|&p| (p.0, LocalState::live(&core.entries, p))).collect();
            let mut wanted: Vec<_> = core
                .wanted
                .iter()
                .map(|w| {
                    let fresh = w.recall_snapshot == core.recall_seq;
                    (
                        w.txn,
                        w.name.as_bytes().to_vec(),
                        w.entry,
                        w.mode,
                        w.persistent,
                        w.critical,
                        w.unrecorded,
                        fresh,
                        w.retries,
                        w.wait,
                    )
                })
                .collect();
            wanted.sort_by_key(|w| w.0);
            let queued: Vec<_> = core.queued_records.iter().map(|n| n.as_bytes().to_vec()).collect();
            let mut waiting = core.waiting.clone();
            waiting.sort();
            let _ = write!(out, "{resources:?}{entries:?}{held:?}{parked:?}{wanted:?}{queued:?}{waiting:?};");
        }
        let records = self.conns.map(|conn| self.lock.retained_locks(conn));
        let _ = write!(
            out,
            "{:?}{}{}{records:?}{:?}{:?}",
            self.lock.holders(0),
            self.lock.is_negotiate(0),
            self.lock.is_contended(0),
            self.held_since,
            self.against_waiter
        );
        let mut hasher = DefaultHasher::new();
        out.hash(&mut hasher);
        hasher.finish()
    }
}

/// What the shell's `perform` sends for the member holding `conn`, against
/// the structure directly.
fn send(lock: &LockStructure, conn: ConnId, core: &mut LocalState) {
    core.events.clear();
    if let Some(entry) = core.surrender.take() {
        lock.release(conn, entry).unwrap();
    }
    if !core.record_set.is_empty() {
        lock.write_record_set(conn, &core.record_set).unwrap();
    }
    if !core.release_entries.is_empty() || !core.release_records.is_empty() {
        lock.release_set(conn, &core.release_entries, &core.release_records).unwrap();
    }
    core.sent(true);
}

/// Two members that each hold one resource of the class and then want the
/// same third one: each contends with the other's interest, so both
/// negotiate at once — the symmetric negotiation of DESIGN.md §13.
const SYMMETRIC: &[Txn] = &[
    Txn { member: 0, ops: &[Op::Lock("A", X, false), Op::Lock("R", X, false)] },
    Txn { member: 1, ops: &[Op::Lock("B", X, false), Op::Lock("R", X, false)] },
];

/// Two transactions on one member race for one row persistently, one of
/// them Shared, while the peer wants it too: a phase-3 loser's command may
/// have written the member's record.
const SIBLINGS: &[Txn] = &[
    Txn { member: 0, ops: &[Op::Lock("R", S, true), Op::UnlockAll] },
    Txn { member: 0, ops: &[Op::Lock("R", X, true), Op::UnlockAll] },
    Txn { member: 1, ops: &[Op::Lock("R", X, false), Op::UnlockAll] },
];

/// Both members hold a row Shared and upgrade it, recording the upgrade.
/// Whichever is refused first waits, so the other is Busy (when younger,
/// a victim) at once.
const UPGRADE: &[Txn] = &[
    Txn { member: 0, ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::UnlockAll] },
    Txn { member: 1, ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::UnlockAll] },
];

/// Both members hold a row Shared and upgrade it, each asking twice: a
/// second attempt sees whoever the first attempts left waiting, so the
/// younger upgrader gives way instead of both waiting on each other.
const STANDOFF: &[Txn] = &[
    Txn {
        member: 0,
        ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::Lock("R", X, true), Op::UnlockAll],
    },
    Txn {
        member: 1,
        ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::Lock("R", X, true), Op::UnlockAll],
    },
];

/// Each member holds one row and asks twice for the other's: the cycle
/// of waits is crossed rows, not one upgrade.
const CROSSED: &[Txn] = &[
    Txn {
        member: 0,
        ops: &[Op::Lock("A", X, false), Op::Lock("B", X, false), Op::Lock("B", X, false), Op::UnlockAll],
    },
    Txn {
        member: 1,
        ops: &[Op::Lock("B", X, false), Op::Lock("A", X, false), Op::Lock("A", X, false), Op::UnlockAll],
    },
];

/// A member parks the class and re-grants from it while the peer's
/// negotiation recalls it; the re-grant owes its record.
const RECALL: &[Txn] = &[
    Txn {
        member: 0,
        ops: &[Op::Lock("A", X, false), Op::Unlock("A"), Op::Lock("R", X, true), Op::WriteRecords],
    },
    Txn { member: 1, ops: &[Op::Lock("B", S, true), Op::Lock("R", S, true), Op::UnlockAll] },
];

/// A member negotiates an Exclusive hold of a row onto interest the
/// other member holds, so the word records it as a shared bit; the
/// other member leaves the class, and comes back for the row Shared
/// after the first took more of the class Shared.
const HIDDEN: &[Txn] = &[
    Txn { member: 0, ops: &[Op::Lock("A", X, false), Op::UnlockAll, Op::Lock("R", S, false)] },
    Txn { member: 1, ops: &[Op::Lock("R", X, false), Op::Lock("B", S, false)] },
];

#[test]
fn every_interleaving_of_two_members_keeps_exclusivity_and_records() {
    let scenarios = [
        ("symmetric", SYMMETRIC, 673),
        ("siblings", SIBLINGS, 1_075),
        ("upgrade", UPGRADE, 259),
        ("standoff", STANDOFF, 776),
        ("crossed", CROSSED, 1_682),
        ("recall", RECALL, 1_381),
        ("hidden", HIDDEN, 598),
    ];
    for (name, txns, states) in scenarios {
        match explore(|| World::new(txns, Bugs::default())) {
            Ok(reached) => assert_eq!(reached, states, "{name}: states reached"),
            Err(report) => panic!("{name}: {report}"),
        }
    }
}

#[cfg(feature = "test-hooks")]
fn convict(txns: &[Txn], bugs: Bugs) -> String {
    let report = explore(|| World::new(txns, bugs)).expect_err("the walk convicts the switch");
    println!("{report}");
    report
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_negotiation_answered_before_a_grant_is_found_as_a_dual_grant() {
    let report = convict(SYMMETRIC, Bugs { stale_negotiation: true, ..Bugs::default() });
    assert!(report.contains("conflicting holders"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_phase_3_loser_that_keeps_its_record_is_found() {
    let report = convict(SIBLINGS, Bugs { keep_lost_record: true, ..Bugs::default() });
    assert!(report.contains("record for R names txn 2"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn waiters_that_ignore_each_other_are_found_in_a_standoff() {
    for txns in [STANDOFF, CROSSED] {
        let report = convict(txns, Bugs { ignore_waiting: true, ..Bugs::default() });
        assert!(report.contains("standoff: txns [1, 2]"), "{report}");
    }
}

/// Run `txn`'s waiting request on member `m` to its end, one transition
/// after another: the structure answers its commands, and the other
/// members' cores its negotiation queries, in the order a negotiation asks
/// them.
fn run_request(
    lock: &LockStructure,
    conns: &[ConnId],
    cores: &mut [LocalState],
    (m, txn): (usize, u64),
    name: &ResourceName,
    mode: LockMode,
) -> Verdict {
    let mut step = cores[m].request(txn, name, mode, false, true);
    loop {
        send(lock, conns[m], &mut cores[m]);
        step = match step {
            Step::Done(verdict) => return verdict,
            Step::Request(entry) => cores[m].answered(txn, lock.request(conns[m], entry, mode).unwrap()),
            Step::Negotiate { holders, generation } => {
                let mut said = Ok(());
                for peer in conns_in_mask(holders).filter(|&c| c != conns[m]) {
                    let p = conns.iter().position(|&c| c == peer).expect("a holder is a member");
                    let (conflict, claim) = cores[p].answer(name, mode, true);
                    send(lock, peer, &mut cores[p]);
                    if conflict {
                        said = Err((peer, claim));
                        break;
                    }
                }
                cores[m].negotiated(txn, said, holders, generation)
            }
            Step::Force { entry, holders, generation } => {
                let written =
                    lock.force_interest_negotiated(conns[m], entry, mode, holders, generation).unwrap();
                cores[m].forced(txn, written, holders)
            }
        };
    }
}

#[test]
fn three_upgraders_of_one_row_give_way_to_the_oldest() {
    // Transactions 1 (the oldest), 2 and 3, on three members and then all
    // on one: each holds the row Shared, then asks for Exclusive.
    for members in [3, 1] {
        let lock = LockStructure::new("IRLMLOCK1", &LockParams::with_entries(1)).unwrap();
        let conns: Vec<ConnId> = (0..members).map(|_| lock.connect().unwrap()).collect();
        let mut cores: Vec<LocalState> =
            conns.iter().map(|&conn| LocalState::new(lock.entries(), conn, Arc::default())).collect();
        let row = ResourceName::new(b"R");
        let member = |txn: u64| (txn as usize - 1) % members;
        let ask = |cores: &mut [LocalState], txn, mode| {
            run_request(&lock, &conns, cores, (member(txn), txn), &row, mode)
        };
        for txn in 1..=3 {
            assert_eq!(ask(&mut cores, txn, S), Ok(()), "txn {txn} shares the row");
        }
        // The oldest is refused first and claims the row; the two younger
        // are then answered victim at once, each naming the oldest.
        assert!(matches!(ask(&mut cores, 1, X), Err(Refusal::Busy(_))), "{members} members");
        let peer = (members > 1).then_some(conns[0]);
        for txn in [2, 3] {
            let victim = Err(Refusal::Victim(Winner { txn: 1, peer }));
            assert_eq!(ask(&mut cores, txn, X), victim, "{members} members");
        }
        // Until the victims have let go, the oldest waits.
        assert!(matches!(ask(&mut cores, 1, X), Err(Refusal::Busy(_))));
        for txn in [2, 3] {
            cores[member(txn)].unlock_all(txn);
            send(&lock, conns[member(txn)], &mut cores[member(txn)]);
        }
        assert_eq!(ask(&mut cores, 1, X), Ok(()), "{members} members: the oldest is granted");
        let holder = cores[0].resources.get(&row).and_then(|rh| rh.iter().find(|h| h.txn == 1).copied());
        assert!(holder.is_some_and(|h| h.mode == X) && cores[0].waiting.is_empty(), "{holder:?}");
    }
}
