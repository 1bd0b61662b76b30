//! Every interleaving of two buffer-pool protocol cores, walked from one
//! thread.
//!
//! Two [`Pool`]s, each with its own connection to one small store-in
//! [`CacheStructure`] — two to four directory entries, so registrations
//! reclaim each other's entries — and a DASD that maps each page to the
//! image last written there. Each member runs up to two actors, each a
//! script of at most four reads, write sets and castouts. One atomic
//! action is what the shell does in one piece: a transition under the
//! member's latch with the bit reads and scrubs it makes there, one CF
//! command, or one DASD read or write. A write set holds the P-locks of
//! its pages from its first action to its last, as a commit does. The
//! explorer (`explore/mod.rs`) walks every choice of which actor acts next,
//! and checks after every action that
//!
//! - no frame is under-registered: a ready frame whose bit is set belongs
//!   to a block the member is registered for, at that frame's index;
//! - no read is stale: a read returns its own page, at least as new as the
//!   newest write that finished before the read began — for the writer's
//!   peer, when the write's CF command finished; for the writer's own
//!   member, when its write set installed;
//! - DASD never holds an image newer than the newest the CF took for the
//!   page, nor one older than a castout the CF completed;
//! - no actor waits with nothing left to wake it.

mod explore;

use explore::explore;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use sysplex_core::cache::{BlockName, CacheConnection, CacheParams, CacheStructure, EntryView, WriteKind};
use sysplex_core::CfError;
use sysplex_db::bufmgr::protocol::{Fill, Lookup, Pool};
use sysplex_db::pagestore::Page;

/// Pages 1 to 4 (slot 0 unused).
const PAGES: usize = 5;

/// One step of an actor's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    /// Write these pages, ascending, as one set.
    Write(&'static [u64]),
    Castout,
}

struct Actor {
    member: usize,
    ops: &'static [Op],
}

/// A pool size, a directory size and the actors.
struct Scenario {
    frames: usize,
    entries: usize,
    actors: &'static [Actor],
}

/// Where one actor is inside script step `.0`. `.1` is a write set's
/// page position (0 for a read).
#[derive(Debug, Clone, Hash)]
enum At {
    /// About to start step `.0`.
    Op(usize),
    /// Look the page up.
    Lookup(usize, usize),
    /// Answered Wait: runnable again once one of the member's fills lands.
    Waiting(usize, usize),
    /// Send the fill's registration.
    Register(usize, usize, Fill),
    /// A read's registration found no CF copy at this version: read DASD.
    Dasd(usize, Fill, u64),
    /// End a read's fill, installing what it got: `(value, version)`, or
    /// nothing when its command failed.
    Install(usize, Fill, Option<(u64, u64)>),
    /// End a write set's fill; `false` when its registration failed.
    Land(usize, usize, Fill, bool),
    /// Send the write set's command.
    Write(usize),
    /// Install the images the set wrote: `(page, value, version)`.
    Written(usize, Vec<(u64, u64, u64)>),
    /// Read the first candidate for castout.
    CastoutRead(usize, Vec<u64>),
    /// Write `(page, value)` to DASD, read at `version`.
    CastoutWrite(usize, Vec<u64>, u64, u64, u64),
    /// Complete the castout of `page` at `version`, DASD holding `value`.
    CastoutComplete(usize, Vec<u64>, u64, u64, u64),
}

/// The known-bad switches the walk runs with.
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(not(feature = "test-hooks"), allow(dead_code))]
struct Bugs {
    /// A steal may take a frame whose fill is in flight.
    steal_filling: bool,
    /// An install ignores the version guard.
    ignore_version: bool,
    /// A lookup may start a second fill of a frame whose fill is in flight.
    second_fill: bool,
}

fn name(page: u64) -> BlockName {
    BlockName::from_parts(1, page)
}

/// The image of `page` holding write number `value` (0: as first loaded).
fn image(page: u64, value: u64) -> Page {
    let mut p = Page::new();
    p.set(page, &value.to_be_bytes());
    p
}

/// The page and write number an image holds.
fn decode(image: &Page) -> (u64, u64) {
    let (page, value) = image.iter().next().expect("one record per image");
    (page, u64::from_be_bytes(value.try_into().expect("an 8-byte value")))
}

fn cf_value(page: u64, data: &[u8]) -> u64 {
    decode(&Page::decode(data, page).expect("a valid image")).1
}

struct World<'s> {
    actors: &'s [Actor],
    cache: CacheStructure,
    conns: [CacheConnection; 2],
    pools: [Pool; 2],
    at: Vec<At>,
    /// Per actor: the newest write its current read must see.
    floor: Vec<u64>,
    /// Per member and page: the newest write finished for that member.
    finished: [[u64; PAGES]; 2],
    /// Per page: DASD's write number, the newest the CF took, the newest
    /// a completed castout marked clean, and the actor holding its P-lock.
    dasd: [u64; PAGES],
    newest: [u64; PAGES],
    cleaned: [u64; PAGES],
    plocks: [Option<usize>; PAGES],
    next_write: u64,
    /// A stale read the last action returned.
    stale: Option<String>,
    /// The structure's directory cursor and entries, as `check` last saw
    /// them.
    directory: (usize, Vec<EntryView>),
}

impl<'s> World<'s> {
    fn new(scenario: &'s Scenario, bugs: Bugs) -> Self {
        for member in 0..2 {
            let actors = scenario.actors.iter().filter(|a| a.member == member);
            assert!(actors.clone().count() <= 2, "at most two actors per member");
            assert!(actors.clone().all(|a| a.ops.len() <= 4), "at most four steps per actor");
        }
        assert!((1..=2).contains(&scenario.frames) && (2..=4).contains(&scenario.entries));
        let cache = CacheStructure::new("GBP0", &CacheParams::store_in(scenario.entries)).unwrap();
        let conns = [cache.connect(scenario.frames).unwrap(), cache.connect(scenario.frames).unwrap()];
        #[allow(unused_mut)]
        let mut pools = [Pool::new(scenario.frames), Pool::new(scenario.frames)];
        #[cfg(feature = "test-hooks")]
        for pool in &mut pools {
            pool.steal_filling = bugs.steal_filling;
            pool.ignore_version = bugs.ignore_version;
            pool.second_fill = bugs.second_fill;
        }
        let _ = bugs;
        let n = scenario.actors.len();
        World {
            actors: scenario.actors,
            cache,
            conns,
            pools,
            at: vec![At::Op(0); n],
            floor: vec![0; n],
            finished: [[0; PAGES]; 2],
            dasd: [0; PAGES],
            newest: [0; PAGES],
            cleaned: [0; PAGES],
            plocks: [None; PAGES],
            next_write: 1,
            stale: None,
            directory: (0, Vec::new()),
        }
    }

    fn done(&self, t: usize) -> bool {
        matches!(self.at[t], At::Op(pc) if pc == self.actors[t].ops.len())
    }

    /// The page step `pc` of actor `t` is at, `i` into a write set.
    fn page(&self, t: usize, pc: usize, i: usize) -> u64 {
        match self.actors[t].ops[pc] {
            Op::Read(page) => page,
            Op::Write(pages) => pages[i],
            Op::Castout => unreachable!("a castout looks nothing up"),
        }
    }

    /// Wake member `m`'s waiting actors when a landed fill says so.
    fn land(&mut self, m: usize, idx: usize) {
        if self.pools[m].landed(idx) {
            for t in (0..self.actors.len()).filter(|&t| self.actors[t].member == m) {
                if let At::Waiting(pc, i) = self.at[t] {
                    self.at[t] = At::Lookup(pc, i);
                }
            }
        }
    }

    /// The read of step `pc` returned `got`.
    fn read_returned(&mut self, t: usize, pc: usize, got: &Page) -> At {
        let page = self.page(t, pc, 0);
        let (on, value) = decode(got);
        if on != page || value < self.floor[t] {
            self.stale = Some(format!(
                "actor {t}'s read of page {page} returned page {on} at write {value}, began after write {}",
                self.floor[t]
            ));
        }
        At::Op(pc + 1)
    }

    /// Step `pc` of write-set actor `t` is over: let its P-locks go.
    fn unlock(&mut self, t: usize, pc: usize) -> At {
        for lock in self.plocks.iter_mut().filter(|l| **l == Some(t)) {
            *lock = None;
        }
        At::Op(pc + 1)
    }

    fn next_castout(&self, pc: usize, pages: Vec<u64>) -> At {
        match pages.is_empty() {
            true => At::Op(pc + 1),
            false => At::CastoutRead(pc, pages),
        }
    }

    /// Look up page `i` of actor `t`'s step `pc` under its member's latch.
    fn lookup(&mut self, t: usize, pc: usize, i: usize) -> String {
        let m = self.actors[t].member;
        let page = self.page(t, pc, i);
        let conn = &self.conns[m];
        let step = self.pools[m].lookup(&name(page), |idx| conn.is_valid(idx as u32));
        if let Lookup::Fill(Fill { idx, evicted: Some(_) }) = step {
            conn.invalidate_local(idx as u32);
        }
        let did = format!("looks up page {page} -> {:?}", map_page(&step));
        self.at[t] = match (step, self.actors[t].ops[pc]) {
            (Lookup::Wait, _) => At::Waiting(pc, i),
            (Lookup::Fill(fill), _) => At::Register(pc, i, fill),
            (Lookup::Hit(p), Op::Read(_)) => self.read_returned(t, pc, &p),
            (Lookup::Hit(_), Op::Write(pages)) if i + 1 < pages.len() => At::Lookup(pc, i + 1),
            (Lookup::Hit(_), _) => At::Write(pc),
        };
        format!("actor {t} on member {m}: {did}")
    }
}

impl explore::World for World<'_> {
    fn runnable(&self) -> Vec<usize> {
        (0..self.actors.len())
            .filter(|&t| match self.at[t] {
                _ if self.done(t) => false,
                At::Waiting(..) => false,
                At::Op(pc) => match self.actors[t].ops[pc] {
                    Op::Write(pages) => pages.iter().all(|&p| self.plocks[p as usize].is_none()),
                    _ => true,
                },
                _ => true,
            })
            .collect()
    }

    /// Run actor `t`'s next atomic action; returns what it did.
    fn act(&mut self, t: usize) -> String {
        let m = self.actors[t].member;
        let (next, did) = match self.at[t].clone() {
            At::Op(pc) => match self.actors[t].ops[pc] {
                Op::Read(page) => {
                    self.floor[t] = self.finished[m][page as usize];
                    return self.lookup(t, pc, 0);
                }
                Op::Write(pages) => {
                    for &p in pages {
                        self.plocks[p as usize] = Some(t);
                    }
                    return self.lookup(t, pc, 0);
                }
                Op::Castout => {
                    let names = self.cache.castout_candidates(PAGES);
                    let pages: Vec<u64> = names.iter().map(|n| page_of(*n)).collect();
                    let did = format!("castout candidates {pages:?}");
                    (self.next_castout(pc, pages), did)
                }
            },
            At::Lookup(pc, i) => return self.lookup(t, pc, i),
            At::Waiting(..) => unreachable!("a waiting actor is not runnable"),
            At::Register(pc, i, fill) => {
                let page = self.page(t, pc, i);
                let r = self.cache.read_and_register_replacing(
                    &self.conns[m],
                    name(page),
                    fill.idx as u32,
                    fill.evicted,
                );
                let did = format!(
                    "registers page {page} at frame {} -> {:?}",
                    fill.idx,
                    r.as_ref().map(|r| r.version)
                );
                let next = match (self.actors[t].ops[pc], r) {
                    (Op::Write(_), r) => At::Land(pc, i, fill, r.is_ok()),
                    (_, Err(_)) => At::Install(pc, fill, None),
                    (_, Ok(r)) => match r.data {
                        Some(data) => At::Install(pc, fill, Some((cf_value(page, &data), r.version))),
                        None => At::Dasd(pc, fill, r.version),
                    },
                };
                (next, did)
            }
            At::Dasd(pc, fill, version) => {
                let page = self.page(t, pc, 0);
                let value = self.dasd[page as usize];
                (
                    At::Install(pc, fill, Some((value, version))),
                    format!("reads page {page} from DASD: write {value}"),
                )
            }
            At::Install(pc, fill, got) => {
                let page = self.page(t, pc, 0);
                let valid = self.conns[m].is_valid(fill.idx as u32);
                let pool = &mut self.pools[m];
                let current =
                    got.map(|(value, version)| pool.installed(fill.idx, version, image(page, value), valid));
                self.land(m, fill.idx);
                let did = format!(
                    "installs {got:?} (bit {valid}) -> {:?}",
                    current.as_ref().map(|c| c.as_ref().map(decode))
                );
                let next = match current {
                    None => At::Op(pc + 1),
                    Some(None) => At::Lookup(pc, 0),
                    Some(Some(p)) => self.read_returned(t, pc, &p),
                };
                (next, did)
            }
            At::Land(pc, i, fill, ok) => {
                self.land(m, fill.idx);
                let Op::Write(pages) = self.actors[t].ops[pc] else { unreachable!() };
                let next = match ok {
                    false => self.unlock(t, pc),
                    true if i + 1 < pages.len() => At::Lookup(pc, i + 1),
                    true => At::Write(pc),
                };
                (next, format!("lands the fill of frame {}", fill.idx))
            }
            At::Write(pc) => {
                let Op::Write(pages) = self.actors[t].ops[pc] else { unreachable!() };
                let values: Vec<u64> = (self.next_write..).take(pages.len()).collect();
                self.next_write += pages.len() as u64;
                let blocks: Vec<(BlockName, Vec<u8>)> = pages
                    .iter()
                    .zip(&values)
                    .map(|(&p, &v)| (name(p), image(p, v).image().to_vec()))
                    .collect();
                let set =
                    self.cache.write_and_invalidate_set(&self.conns[m], &blocks, WriteKind::ChangedData);
                let mut written = Vec::new();
                for ((&page, &value), w) in pages.iter().zip(&values).zip(&set.written) {
                    self.newest[page as usize] = value;
                    self.finished[1 - m][page as usize] = value;
                    written.push((page, value, w.version));
                }
                let did = format!("writes {written:?} -> {:?}", set.error);
                (At::Written(pc, written), did)
            }
            At::Written(pc, written) => {
                let (pool, conn) = (&mut self.pools[m], &self.conns[m]);
                for &(page, value, version) in &written {
                    pool.written(name(page), version, &image(page, value), |idx| conn.is_valid(idx as u32));
                    self.finished[m][page as usize] = value;
                }
                (self.unlock(t, pc), "installs its write set".to_string())
            }
            At::CastoutRead(pc, mut pages) => {
                let page = pages.remove(0);
                match self.cache.read_for_castout(&self.conns[m], name(page)) {
                    Ok((data, version)) => {
                        let value = cf_value(page, &data);
                        let did = format!("reads page {page} for castout: write {value}");
                        (At::CastoutWrite(pc, pages, page, value, version), did)
                    }
                    Err(e) => {
                        (self.next_castout(pc, pages), format!("reads page {page} for castout -> {e:?}"))
                    }
                }
            }
            At::CastoutWrite(pc, pages, page, value, version) => {
                self.dasd[page as usize] = value;
                (
                    At::CastoutComplete(pc, pages, page, value, version),
                    format!("writes page {page} to DASD: write {value}"),
                )
            }
            At::CastoutComplete(pc, pages, page, value, version) => {
                let r = self.cache.complete_castout(&self.conns[m], name(page), version);
                match r {
                    Ok(()) => self.cleaned[page as usize] = self.cleaned[page as usize].max(value),
                    Err(CfError::VersionMismatch { .. }) => {}
                    Err(e) => panic!("castout complete: {e:?}"),
                }
                (self.next_castout(pc, pages), format!("completes the castout of page {page} -> {r:?}"))
            }
        };
        self.at[t] = next;
        format!("actor {t} on member {m}: {did}")
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(stale) = self.stale.take() {
            return Err(stale);
        }
        self.directory = self.cache.directory();
        let directory = &self.directory.1;
        for (m, (pool, conn)) in self.pools.iter().zip(&self.conns).enumerate() {
            for (idx, f) in pool.frames.iter().enumerate() {
                let (Some(n), Some(_)) = (f.name, &f.page) else { continue };
                if !conn.is_valid(idx as u32) {
                    continue;
                }
                let registered = directory
                    .iter()
                    .find(|e| e.name == n)
                    .is_some_and(|e| e.registered.contains(&(conn.id.index(), idx as u32)));
                if !registered {
                    return Err(format!(
                        "member {m}'s frame {idx} holds page {} with its bit set, but the member is not registered there",
                        page_of(n)
                    ));
                }
            }
        }
        for page in 1..PAGES {
            if self.dasd[page] > self.newest[page] || self.dasd[page] < self.cleaned[page] {
                return Err(format!(
                    "DASD holds write {} of page {page}: the CF took up to {}, a castout marked {} clean",
                    self.dasd[page], self.newest[page], self.cleaned[page]
                ));
            }
        }
        if self.runnable().is_empty() {
            if let Some(t) = (0..self.actors.len()).find(|&t| !self.done(t)) {
                return Err(format!("actor {t} waits at {:?} and nothing will wake it", self.at[t]));
            }
        }
        Ok(())
    }

    /// Directory versions and LRU ticks are kept as ranks, so paths that
    /// reach one state by different counts of commands meet.
    fn fingerprint(&self) -> u64 {
        let (cursor, directory) = &self.directory;
        let mut ticks: Vec<u64> = directory.iter().flat_map(|e| [e.version, e.lru_tick]).collect();
        ticks.extend(self.pools.iter().flat_map(|p| p.frames.iter().map(|f| f.version)));
        for at in &self.at {
            match at {
                At::Dasd(_, _, v) | At::Install(_, _, Some((_, v))) => ticks.push(*v),
                At::Written(_, w) => ticks.extend(w.iter().map(|x| x.2)),
                At::CastoutWrite(.., v) | At::CastoutComplete(.., v) => ticks.push(*v),
                _ => {}
            }
        }
        ticks.sort_unstable();
        ticks.dedup();
        let rank = |v: u64| ticks.binary_search(&v).expect("every tick collected") as u64;
        let mut h = DefaultHasher::new();
        for at in &self.at {
            match at.clone() {
                At::Dasd(pc, f, v) => At::Dasd(pc, f, rank(v)),
                At::Install(pc, f, got) => At::Install(pc, f, got.map(|(x, v)| (x, rank(v)))),
                At::Written(pc, w) => {
                    At::Written(pc, w.into_iter().map(|(p, x, v)| (p, x, rank(v))).collect())
                }
                At::CastoutWrite(pc, ps, p, x, v) => At::CastoutWrite(pc, ps, p, x, rank(v)),
                At::CastoutComplete(pc, ps, p, x, v) => At::CastoutComplete(pc, ps, p, x, rank(v)),
                at => at,
            }
            .hash(&mut h);
        }
        for (pool, conn) in self.pools.iter().zip(&self.conns) {
            for (idx, f) in pool.frames.iter().enumerate() {
                (f.name, f.page.as_ref().map(decode), rank(f.version), f.filling, conn.is_valid(idx as u32))
                    .hash(&mut h);
            }
            (pool.rotor % pool.frames.len(), pool.waiting).hash(&mut h);
        }
        for e in directory {
            let data = e.data.as_ref().map(|d| cf_value(page_of(e.name), d));
            (e.name, &e.registered, data, e.changed, rank(e.version), rank(e.lru_tick)).hash(&mut h);
        }
        (
            cursor,
            &self.floor,
            self.finished,
            self.dasd,
            self.newest,
            self.cleaned,
            self.plocks,
            self.next_write,
        )
            .hash(&mut h);
        h.finish()
    }
}

fn page_of(name: BlockName) -> u64 {
    (1..PAGES as u64).find(|&p| self::name(p) == name).expect("one of the walk's pages")
}

/// A lookup as the report prints it: a hit shows the page and write.
fn map_page(step: &Lookup) -> String {
    match step {
        Lookup::Hit(p) => format!("Hit{:?}", decode(p)),
        step => format!("{step:?}"),
    }
}

/// Two readers of one member steal two frames back and forth, one of
/// them back for the page another steal of it is evicting, while the
/// peer writes that page.
const STEAL: Scenario = Scenario {
    frames: 2,
    entries: 4,
    actors: &[
        Actor { member: 0, ops: &[Op::Read(1), Op::Read(3), Op::Read(2)] },
        Actor { member: 0, ops: &[Op::Read(4), Op::Read(1)] },
        Actor { member: 1, ops: &[Op::Write(&[1])] },
    ],
};

/// Two readers of one page refill it from DASD and the CF while the peer
/// writes it; the first reads it again.
const REFILL: Scenario = Scenario {
    frames: 1,
    entries: 4,
    actors: &[
        Actor { member: 0, ops: &[Op::Read(1), Op::Read(1)] },
        Actor { member: 0, ops: &[Op::Read(1)] },
        Actor { member: 1, ops: &[Op::Write(&[1])] },
    ],
};

/// A member writes a page while its other actor refreshes it; the peer
/// writes it next and reads it back.
const REWRITE: Scenario = Scenario {
    frames: 1,
    entries: 4,
    actors: &[
        Actor { member: 0, ops: &[Op::Write(&[1]), Op::Read(1)] },
        Actor { member: 0, ops: &[Op::Read(1), Op::Read(1)] },
        Actor { member: 1, ops: &[Op::Write(&[1]), Op::Read(1)] },
    ],
};

/// Both members write and cast out one page while it is read; a
/// two-entry directory reclaims it between lives.
const CASTOUT: Scenario = Scenario {
    frames: 1,
    entries: 2,
    actors: &[
        Actor { member: 0, ops: &[Op::Write(&[1]), Op::Castout, Op::Read(1)] },
        Actor { member: 1, ops: &[Op::Write(&[1]), Op::Castout] },
        Actor { member: 1, ops: &[Op::Read(2), Op::Read(3)] },
    ],
};

/// Write sets of two pages through a three-entry directory, one member
/// with a single frame: a set's own registrations steal each other's
/// frame, and the entries are reclaimed under it.
const SETS: Scenario = Scenario {
    frames: 1,
    entries: 3,
    actors: &[
        Actor { member: 0, ops: &[Op::Read(1), Op::Write(&[1, 2]), Op::Read(2)] },
        Actor { member: 1, ops: &[Op::Write(&[1, 2]), Op::Read(1), Op::Read(3)] },
    ],
};

/// Each scenario with the states its walk reaches.
const SCENARIOS: [(&str, &Scenario, usize); 5] = [
    ("steal", &STEAL, 4_109),
    ("refill", &REFILL, 309),
    ("rewrite", &REWRITE, 957),
    ("castout", &CASTOUT, 3_331),
    ("sets", &SETS, 487),
];

#[test]
fn every_interleaving_of_two_members_stays_coherent() {
    for (name, scenario, states) in SCENARIOS {
        match explore(|| World::new(scenario, Bugs::default())) {
            Ok(reached) => assert_eq!(reached, states, "{name}: states reached"),
            Err(report) => panic!("{name}: {report}"),
        }
    }
}

/// The first scenario the switches lose in, with its report.
#[cfg(feature = "test-hooks")]
fn convict(bugs: Bugs) -> String {
    let report = SCENARIOS
        .iter()
        .find_map(|(name, scenario, _)| {
            explore(|| World::new(scenario, bugs)).err().map(|r| format!("{name}: {r}"))
        })
        .expect("the walk convicts the switch");
    println!("{report}");
    report
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_frame_stolen_again_mid_steal_is_found_serving_another_page() {
    let report = convict(Bugs { steal_filling: true, ..Bugs::default() });
    assert!(report.contains("read of page 2 returned page 1"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn an_install_without_the_version_guard_is_found_serving_a_stale_page() {
    let report = convict(Bugs { ignore_version: true, ..Bugs::default() });
    assert!(report.contains("read of page"), "{report}");
}

#[cfg(feature = "test-hooks")]
#[test]
fn a_second_fill_in_flight_is_found_reviving_a_stale_refill() {
    let report = convict(Bugs { second_fill: true, ..Bugs::default() });
    assert!(report.contains("read of page"), "{report}");
}
