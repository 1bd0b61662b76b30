//! Every interleaving of two IRLM protocol cores, walked from one thread.
//!
//! Two [`LocalState`]s share one [`LockStructure`] of a single entry, so
//! every resource is in one hash class. Each member runs up to two
//! transactions, each a short script of requests and unlocks. One atomic
//! action is what the shell does in one piece: a transition under the
//! member's latch together with the commands it sends there, one CF
//! command, or one negotiation query — delivered as a call into the peer's
//! core, as the peer's XCF message exit would make it. The walk is
//! depth-first over which transaction acts next; a branch replays its
//! schedule into a fresh world, and a state already seen is not expanded
//! again. After every action it checks that
//!
//! - no resource has conflicting holders on the two members, and
//! - each member's record for a resource names a transaction that has
//!   held the resource persistently there since that member's persistent
//!   hold of it began — or one whose request for it is in phase 2, whose
//!   own command may have written the record before phase 3.
//!
//! A violation is reported with the schedule that reached it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{LockMode, LockParams, LockResponse, LockStructure};
use sysplex_core::types::ConnId;
use sysplex_db::irlm::protocol::{LocalState, Step, Verdict};
use sysplex_db::Blocker;

const S: LockMode = LockMode::Shared;
const X: LockMode = LockMode::Exclusive;

/// One step of a transaction's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Request a resource in a mode, persistent or not. A Busy verdict
    /// moves on to the next step: the walk is over the protocol, not over
    /// the caller's retries.
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
    Verdict(Verdict),
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
struct Bugs {
    /// The structure lets a negotiation answered before a grant land.
    stale_negotiation: bool,
    /// A phase-3 loser leaves its record naming itself.
    keep_lost_record: bool,
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
}

impl<'s> World<'s> {
    fn new(txns: &'s [Txn], bugs: Bugs) -> Self {
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
            }
        }
        let _ = bugs;
        let at = vec![At::Op(0); txns.len()];
        World { txns, lock, conns, cores, at, held_since: Default::default() }
    }

    fn replay(txns: &'s [Txn], bugs: Bugs, schedule: &[usize]) -> Self {
        let mut world = World::new(txns, bugs);
        for &t in schedule {
            world.act(t);
        }
        world
    }

    /// Transaction `t`'s id: distinct across members.
    fn id(t: usize) -> u64 {
        t as u64 + 1
    }

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
                        core.request(id, &ResourceName::new(name.as_bytes()), mode, persistent)
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
                        let conflict = self.cores[peer].answer(&resource, mode, true);
                        self.send(peer);
                        Io::Verdict(if conflict { Err(Blocker::Peer(self.conns[peer])) } else { Ok(()) })
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
                    (Step::Negotiate { holders, generation }, Io::Verdict(v)) => {
                        core.negotiated(id, v, holders, generation)
                    }
                    (Step::Force { holders, .. }, Io::Written(written)) => core.forced(id, written, holders),
                    _ => unreachable!("a result answers the step that produced it"),
                };
                self.send(m);
                (Self::next(pc, next), format!("resumes -> {next:?}"))
            }
        };
        self.at[t] = at;
        format!("txn {id} on member {m}: {done}")
    }

    fn next(pc: usize, step: Step) -> At {
        match step {
            Step::Done(_) => At::Op(pc + 1),
            step => At::Perform(pc, step),
        }
    }

    /// What the shell's `perform` sends for member `m`, against the
    /// structure directly.
    fn send(&mut self, m: usize) {
        let (core, conn) = (&mut self.cores[m], self.conns[m]);
        core.events.clear();
        if let Some(entry) = core.surrender.take() {
            self.lock.release(conn, entry).unwrap();
        }
        if !core.record_set.is_empty() {
            self.lock.write_record_set(conn, &core.record_set).unwrap();
        }
        if !core.release_entries.is_empty() || !core.release_records.is_empty() {
            self.lock.release_set(conn, &core.release_entries, &core.release_records).unwrap();
        }
        core.sent(true);
    }

    /// The two invariants; also advances `held_since`.
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
        Ok(())
    }

    /// Everything that decides what happens next, and nothing that only
    /// counts: two states with one fingerprint have the same futures.
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
                    )
                })
                .collect();
            wanted.sort_by_key(|w| w.0);
            let queued: Vec<_> = core.queued_records.iter().map(|n| n.as_bytes().to_vec()).collect();
            let _ = write!(out, "{resources:?}{entries:?}{held:?}{parked:?}{wanted:?}{queued:?};");
        }
        let records = self.conns.map(|conn| self.lock.retained_locks(conn));
        let _ = write!(
            out,
            "{:?}{}{}{records:?}{:?}",
            self.lock.holders(0),
            self.lock.is_negotiate(0),
            self.lock.is_contended(0),
            self.held_since
        );
        let mut hasher = DefaultHasher::new();
        out.hash(&mut hasher);
        hasher.finish()
    }
}

/// Walk every interleaving of `txns`: the number of distinct states
/// reached, or the first violation with the schedule that reached it.
fn explore(txns: &[Txn], bugs: Bugs) -> Result<usize, String> {
    for member in 0..2 {
        let ops: usize = txns.iter().filter(|t| t.member == member).map(|t| t.ops.len()).sum();
        assert!(ops <= 4, "at most four requests or unlocks per member");
    }
    let mut seen = HashSet::new();
    let mut schedule = Vec::new();
    walk(txns, bugs, World::new(txns, bugs), &mut schedule, &mut seen).map_err(|violation| {
        let mut world = World::new(txns, bugs);
        let mut report = format!("violation: {violation}\nschedule:\n");
        for &t in &schedule {
            let _ = writeln!(report, "  {}", world.act(t));
        }
        report
    })?;
    Ok(seen.len())
}

fn walk(
    txns: &[Txn],
    bugs: Bugs,
    world: World<'_>,
    schedule: &mut Vec<usize>,
    seen: &mut HashSet<u64>,
) -> Result<(), String> {
    let mut first = Some(world);
    for t in first.as_ref().expect("the world this node was reached in").runnable() {
        let mut world = first.take().unwrap_or_else(|| World::replay(txns, bugs, schedule));
        world.act(t);
        schedule.push(t);
        world.check()?;
        if seen.insert(world.fingerprint()) {
            walk(txns, bugs, world, schedule, seen)?;
        }
        schedule.pop();
    }
    Ok(())
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
const UPGRADE: &[Txn] = &[
    Txn { member: 0, ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::UnlockAll] },
    Txn { member: 1, ops: &[Op::Lock("R", S, false), Op::Lock("R", X, true), Op::UnlockAll] },
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
        ("symmetric", SYMMETRIC),
        ("siblings", SIBLINGS),
        ("upgrade", UPGRADE),
        ("recall", RECALL),
        ("hidden", HIDDEN),
    ];
    for (name, txns) in scenarios {
        match explore(txns, Bugs::default()) {
            Ok(states) => println!("{name}: {states} states"),
            Err(report) => panic!("{name}: {report}"),
        }
    }
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_negotiation_answered_before_a_grant_is_found_as_a_dual_grant() {
    let report = explore(SYMMETRIC, Bugs { stale_negotiation: true, ..Bugs::default() }).unwrap_err();
    println!("{report}");
    assert!(report.contains("conflicting holders"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_phase_3_loser_that_keeps_its_record_is_found() {
    let report = explore(SIBLINGS, Bugs { keep_lost_record: true, ..Bugs::default() }).unwrap_err();
    println!("{report}");
    assert!(report.contains("record for R names txn 2"), "{report}");
}
