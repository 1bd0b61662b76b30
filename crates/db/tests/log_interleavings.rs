//! Every schedule of one member's log writer against a crash, the
//! survivor's discard, a zombie and a re-IPL, walked from one thread.
//!
//! The log volume is a vector of blocks. The member's log is a [`Writer`]
//! core whose steps the walk performs as `LogManager` does, one atomic
//! action at a time: one core transition, one block write, or one block-0
//! update. The actors are
//!
//! - the member's forces: each incarnation runs [`FORCES`] in order, the
//!   second spilling into two blocks;
//! - a checkpoint between forces, at most two an incarnation (three
//!   cycles);
//! - a crash, once: the member stops, but its writer lives on as a zombie;
//! - the survivor's `discard_log` after the crash, one block-0 update;
//! - the zombie's next force after the discard, and the rest of the force
//!   the crash cut;
//! - a re-IPL after the crash: the next incarnation, with a fresh writer.
//!
//! The explorer (`explore/mod.rs`) walks every choice of which actor acts
//! next, and checks after every action that the reader's run over the
//! current blocks holds exactly the records of the blocks that the life
//! block 0 names wrote in its newest cycle that wrote one — nothing when
//! that life has written nothing. That check takes a zombie's records as
//! the log once the zombie owns the life block 0 names; a second, ignored
//! test checks that nothing the zombie writes after the discard is read.

mod explore;

use explore::explore;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use sysplex_db::log::protocol::{life_of, next_life, Reader, Step, Writer, FIRST_RECORD_BLOCK};
use sysplex_db::log::LogRecord;
use sysplex_services::timer::Tod;

/// Block 0 and the five blocks an incarnation's longest cycle writes.
const BLOCKS: usize = 6;

/// What each force appends: small records or big ones, two of which do not
/// fit one block.
const FORCES: [&[bool]; 4] = [&[false], &[true, true], &[false, false], &[false]];

const FORCE: usize = 0;
const CHECKPOINT: usize = 1;
const CRASH: usize = 2;
const DISCARD: usize = 3;
const ZOMBIE: usize = 4;
const REIPL: usize = 5;

/// The known-bad switches the walk runs with.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(not(feature = "test-hooks"), allow(dead_code))]
struct Bugs {
    /// A checkpoint keeps its cycle's epoch.
    reuse_cycle: bool,
    /// The reader takes a block 1 of any life.
    skip_life_check: bool,
}

/// Where an incarnation's force is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum At {
    Idle,
    /// Perform the step.
    Perform(Step),
    /// Resume the core on the life block 0 now names.
    Claimed(u64),
    /// Resume the core on a block write, up to its end.
    Written(usize),
}

/// One incarnation of the member.
struct Incarnation {
    id: u64,
    writer: Writer,
    at: At,
    forces: usize,
    checkpoints: usize,
    /// The life it claimed and its cycle since, as the walk counts them.
    life: u64,
    cycle: u64,
    /// The records of the force in progress not yet written.
    unwritten: VecDeque<LogRecord>,
}

impl Incarnation {
    fn new(id: u64, bugs: Bugs) -> Self {
        #[allow(unused_mut)]
        let mut writer = Writer::default();
        #[cfg(feature = "test-hooks")]
        {
            writer.reuse_cycle = bugs.reuse_cycle;
        }
        let _ = bugs;
        let (at, forces, checkpoints, life, cycle) = (At::Idle, 0, 0, 0, 0);
        Incarnation { id, writer, at, forces, checkpoints, life, cycle, unwritten: VecDeque::new() }
    }

    fn can_force(&self) -> bool {
        self.at != At::Idle || self.forces < FORCES.len()
    }
}

struct World {
    bugs: Bugs,
    disk: [Vec<u8>; BLOCKS],
    /// Per block: the life and cycle that wrote it, as the walk counts
    /// them, and its records.
    origin: [Option<(u64, u64, Vec<LogRecord>)>; BLOCKS],
    /// The life block 0 names, as the walk counts it.
    life: u64,
    member: Option<Incarnation>,
    zombie: Option<Incarnation>,
    crashed: bool,
    discarded: bool,
    /// Forces the zombie may still begin.
    zombie_forces: usize,
    /// When checked: the transactions whose records the zombie wrote after
    /// the discard, none of which the reader may return.
    late: Option<Vec<u64>>,
}

impl World {
    fn new(bugs: Bugs) -> Self {
        World {
            bugs,
            disk: Default::default(),
            origin: Default::default(),
            life: 0,
            member: Some(Incarnation::new(1, bugs)),
            zombie: None,
            crashed: false,
            discarded: false,
            zombie_forces: 0,
            late: None,
        }
    }

    /// Record `n` of force `f` of incarnation `id`: its transaction is
    /// unique in the walk.
    fn record(id: u64, f: usize, n: usize, big: bool) -> LogRecord {
        let txn = 100 * id + 10 * f as u64 + n as u64;
        match big {
            true => LogRecord::Update {
                lsn: Tod(txn),
                txn,
                page: 1,
                key: n as u64,
                before: Some(vec![0xAB; 1000]),
                after: Some(vec![0xCD; 1000]),
            },
            false => LogRecord::Commit { lsn: Tod(txn), txn },
        }
    }

    /// Run the member's next force action, or the zombie's.
    fn force(&mut self, zombie: bool) -> String {
        let inc = match zombie {
            true => self.zombie.as_mut(),
            false => self.member.as_mut(),
        }
        .expect("a runnable incarnation");
        let step = match inc.at {
            At::Idle => {
                let records = FORCES[inc.forces].iter().enumerate();
                inc.unwritten.extend(records.map(|(n, &big)| Self::record(inc.id, inc.forces, n, big)));
                inc.unwritten.iter().for_each(|r| inc.writer.append(r));
                inc.forces += 1;
                inc.writer.force()
            }
            At::Perform(Step::Claim) => {
                self.life += 1;
                let life = next_life(&mut self.disk[0]).expect("a life in block 0");
                (inc.life, inc.cycle, inc.at) = (self.life, 0, At::Claimed(life));
                return format!("incarnation {} claims life {life}", inc.id);
            }
            At::Perform(Step::Write { block, at, end, count }) => {
                self.disk[block as usize] = inc.writer.pending()[at..end].to_vec();
                let records: Vec<LogRecord> = inc.unwritten.drain(..count as usize).collect();
                if let Some(late) = self.late.as_mut().filter(|_| zombie && self.discarded) {
                    late.extend(records.iter().map(LogRecord::txn));
                }
                self.origin[block as usize] = Some((inc.life, inc.cycle, records));
                inc.at = At::Written(end);
                return format!("incarnation {} writes block {block}: {count} records", inc.id);
            }
            At::Perform(Step::Done) => unreachable!("a force that is done is idle"),
            At::Claimed(life) => inc.writer.claimed(life),
            At::Written(end) => inc.writer.written(end),
        };
        let step = step.expect("every record fits a block");
        inc.at = match step {
            Step::Done => At::Idle,
            step => At::Perform(step),
        };
        format!("incarnation {} -> {step:?}", inc.id)
    }

    /// The reader's run over the current blocks.
    fn read(&self) -> Result<Vec<LogRecord>, String> {
        #[allow(unused_mut)]
        let mut reader = Reader::default();
        #[cfg(feature = "test-hooks")]
        {
            reader.skip_life_check = self.bugs.skip_life_check;
        }
        let life = life_of(&self.disk[0]).map_err(|e| format!("block 0: {e:?}"))?;
        let blocks = self.disk[FIRST_RECORD_BLOCK as usize..].iter().cloned().map(Ok);
        reader.read(life, blocks).map_err(|e| format!("the reader: {e:?}"))
    }
}

impl explore::World for World {
    fn runnable(&self) -> Vec<usize> {
        let up = |a: usize| match &self.member {
            Some(m) if a == FORCE => m.can_force(),
            Some(m) if a == CHECKPOINT => m.at == At::Idle && m.checkpoints < 2,
            Some(_) => a == CRASH && !self.crashed,
            None if a == DISCARD => !self.discarded,
            None if a == ZOMBIE => self
                .zombie
                .as_ref()
                .is_some_and(|z| z.at != At::Idle || (self.zombie_forces > 0 && z.can_force())),
            None => a == REIPL,
        };
        (FORCE..=REIPL).filter(|&a| up(a)).collect()
    }

    fn act(&mut self, a: usize) -> String {
        match a {
            FORCE => self.force(false),
            CHECKPOINT => {
                let m = self.member.as_mut().expect("a running member");
                let took = m.writer.checkpoint();
                if took {
                    (m.checkpoints, m.cycle) = (m.checkpoints + 1, m.cycle + 1);
                }
                format!("incarnation {} checkpoints -> {took}", m.id)
            }
            CRASH => {
                self.zombie = self.member.take();
                self.crashed = true;
                "the member crashes".to_string()
            }
            DISCARD => {
                self.life += 1;
                let life = next_life(&mut self.disk[0]).expect("a life in block 0");
                (self.discarded, self.zombie_forces) = (true, 1);
                format!("the survivor discards the log: life {life}")
            }
            ZOMBIE => {
                let z = self.zombie.as_ref().expect("a zombie");
                if z.at == At::Idle {
                    self.zombie_forces -= 1;
                }
                format!("zombie: {}", self.force(true))
            }
            REIPL => {
                self.zombie = None;
                self.member = Some(Incarnation::new(2, self.bugs));
                "the member re-IPLs".to_string()
            }
            _ => unreachable!("actor {a}"),
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let got = self.read()?;
        let late = self.late.iter().flatten();
        if let Some(txn) = late.copied().find(|txn| got.iter().any(|r| r.txn() == *txn)) {
            return Err(format!(
                "the reader's run holds txn {txn}, which the zombie wrote after the discard"
            ));
        }
        let life = self.life;
        let cycle = self.origin.iter().flatten().filter(|o| o.0 == life).map(|o| o.1).max();
        let want: Vec<LogRecord> = self
            .origin
            .iter()
            .flatten()
            .filter(|o| o.0 == life && Some(o.1) == cycle)
            .flat_map(|o| o.2.iter().cloned())
            .collect();
        if got == want {
            return Ok(());
        }
        let txns = |records: &[LogRecord]| records.iter().map(LogRecord::txn).collect::<Vec<_>>();
        Err(match cycle {
            None => format!("the reader's run is txns {:?}, but life {life} has written nothing", txns(&got)),
            Some(_) => format!(
                "the reader's run is txns {:?}, but life {life}'s newest cycle wrote txns {:?}",
                txns(&got),
                txns(&want)
            ),
        })
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let origin: Vec<_> = self
            .origin
            .iter()
            .map(|o| o.as_ref().map(|(l, c, r)| (l, c, r.iter().map(LogRecord::txn).collect::<Vec<_>>())))
            .collect();
        (&self.disk, origin, self.life, self.crashed, self.discarded, self.zombie_forces, &self.late)
            .hash(&mut h);
        for inc in [&self.member, &self.zombie] {
            // The writer's `Debug` shows every field, private ones too.
            inc.as_ref()
                .map(|i| (i.id, format!("{:?}", i.writer), i.at, i.forces, i.checkpoints, i.life, i.cycle))
                .hash(&mut h);
            inc.as_ref().map(|i| i.unwritten.iter().map(LogRecord::txn).collect::<Vec<_>>()).hash(&mut h);
        }
        h.finish()
    }
}

#[test]
fn every_schedule_of_a_crashing_writer_reads_back_its_newest_cycle() {
    let states = explore(|| World::new(Bugs::default())).unwrap_or_else(|report| panic!("{report}"));
    assert_eq!(states, 1_422, "states reached");
}

/// A crash between a first force's `Step::Claim` and its block-0 update
/// leaves a zombie that claims the next life after the discard; its records
/// then read back as the log. Only the DASD fence keeps them out today.
#[test]
#[ignore = "ROADMAP 22: a zombie cut before its block-0 claim claims a life after the discard"]
fn no_record_a_zombie_writes_after_the_discard_is_read() {
    let walk = explore(|| World { late: Some(Vec::new()), ..World::new(Bugs::default()) });
    walk.unwrap_or_else(|report| panic!("{report}"));
}

#[cfg(feature = "test-hooks")]
fn convict(bugs: Bugs) -> String {
    let report = explore(|| World::new(bugs)).expect_err("the walk convicts the switch");
    println!("{report}");
    report
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_checkpoint_that_reuses_its_cycle_is_found_splicing_a_stale_lap() {
    let report = convict(Bugs { reuse_cycle: true, ..Bugs::default() });
    assert!(report.contains("newest cycle wrote"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_reader_that_skips_the_life_check_is_found_reading_a_discarded_log() {
    let report = convict(Bugs { skip_life_check: true, ..Bugs::default() });
    assert!(report.contains("has written nothing"), "{report}");
}
