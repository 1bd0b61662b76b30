//! Every interleaving of two buffer-pool protocol cores, walked from one
//! thread.
//!
//! Two [`Pool`]s, each with its own connection to one small store-in
//! [`CacheStructure`] — two to four directory entries, so registrations
//! reclaim each other's entries — and a DASD that maps each page to the
//! image last written there. An image holds the record its page was
//! loaded with and one record per actor that has written the page, each
//! valued with a write number. Each member runs up to two actors, each a
//! script of at most four reads, write sets and castouts. A write set is
//! a commit's: it reads each of its pages through the pool, merges its own
//! record into each and sends them as one version-checked set; where the
//! set stops at a page another writer got to first, it reads the pages
//! from there on again and sends them again. No lock keeps writers apart.
//! One atomic action is what the shell does in one piece: a transition
//! under the member's latch with the bit reads and scrubs it makes there,
//! one CF command, or one DASD read or write. The explorer
//! (`explore/mod.rs`) walks every choice of which actor acts next, and
//! checks after every action that
//!
//! - (a) no frame is under-registered: a ready frame whose bit is set
//!   belongs to a block the member is registered for, at that frame's
//!   index;
//! - (b) no read is stale: a read returns its own page, at least as new as
//!   the newest write that finished before the read began — for the
//!   writer's peer, when the write's CF command finished; for the writer's
//!   own member, when its write set installed;
//! - (c) DASD never holds an image newer than the newest the CF took for
//!   the page, nor one older than a castout the CF completed;
//! - (d) no update is lost: a page's current image — the CF's copy, or
//!   DASD's where the CF holds none — keeps each actor's record at least
//!   as new as the last write set that wrote it;
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
/// Record keys per page: page `p`'s load record is `p * KEYS`, actor
/// `t`'s is `p * KEYS + 1 + t`.
const KEYS: u64 = 8;

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

/// Where one actor is inside script step `.0`. `.1` is a page's position
/// in the step: in a read or a write set's read, of the step's pages; in a
/// put, of the set being sent.
#[derive(Debug, Clone, Hash)]
enum At {
    /// About to start step `.0`.
    Op(usize),
    /// Look the page up to read it.
    Lookup(usize, usize),
    /// Look the page up to send it.
    Put(usize, usize),
    /// Answered Wait: runnable again once one of the member's fills lands;
    /// `true` in a put.
    Waiting(usize, usize, bool),
    /// Send the fill's registration; `true` in a put.
    Register(usize, usize, Fill, bool),
    /// A read's registration found no CF copy at this version: read DASD.
    Dasd(usize, usize, Fill, u64),
    /// End a read's fill, installing what it got: `(image, version)`, or
    /// nothing when its command failed.
    Install(usize, usize, Fill, Option<(Vec<u8>, u64)>),
    /// End a put's fill; `false` when its registration failed.
    Land(usize, usize, Fill, bool),
    /// Send the write set.
    Write(usize),
    /// Install the images the set wrote, `(page, image, version)`; then,
    /// when the set stopped at a version that moved, retire a frame older
    /// than the version found and read again from that position of the
    /// step's pages: `(position, page, found)`.
    Written(usize, Vec<(u64, Vec<u8>, u64)>, Option<(usize, u64, u64)>),
    /// Read the first candidate for castout.
    CastoutRead(usize, Vec<u64>),
    /// Write `page`'s image to DASD, read at `version`.
    CastoutWrite(usize, Vec<u64>, u64, Vec<u8>, u64),
    /// Complete the castout of `page` at `version`, DASD holding the image.
    CastoutComplete(usize, Vec<u64>, u64, Vec<u8>, u64),
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
    /// The CF writes a set's blocks whatever version they were read at.
    ignore_expected: bool,
}

fn name(page: u64) -> BlockName {
    BlockName::from_parts(1, page)
}

/// `page` as first loaded: its load record, write 0.
fn loaded(page: u64) -> Page {
    let mut p = Page::new();
    p.set(page * KEYS, &0u64.to_be_bytes());
    p
}

fn page_of_image(page: u64, image: &[u8]) -> Page {
    Page::decode(image, page).expect("a valid image")
}

fn value(v: &[u8]) -> u64 {
    u64::from_be_bytes(v.try_into().expect("an 8-byte value"))
}

/// The page an image's records belong to (0 when they are of several),
/// and the newest write number among them.
fn decode(image: &Page) -> (u64, u64) {
    let mut pages = image.iter().map(|(key, _)| key / KEYS);
    let first = pages.next().expect("a load record");
    let on = if pages.all(|p| p == first) { first } else { 0 };
    (on, image.iter().map(|(_, v)| value(v)).max().expect("a load record"))
}

/// `image` with actor `t`'s record of `page` set to write `v`.
fn merged(page: u64, image: &[u8], t: usize, v: u64) -> Vec<u8> {
    let mut p = page_of_image(page, image);
    p.set(page * KEYS + 1 + t as u64, &v.to_be_bytes());
    p.image().to_vec()
}

/// A page a write set read: `(page, image, version)`.
type ReadPage = (u64, Vec<u8>, Option<u64>);

struct World<'s> {
    actors: &'s [Actor],
    cache: CacheStructure,
    conns: [CacheConnection; 2],
    pools: [Pool; 2],
    at: Vec<At>,
    /// Per actor: the newest write its current read must see.
    floor: Vec<u64>,
    /// Per actor: the pages its write set has read, to send.
    set: Vec<Vec<ReadPage>>,
    /// Per member and page: the newest write finished for that member.
    finished: [[u64; PAGES]; 2],
    /// Per page: DASD's image, the newest write the CF took and the newest
    /// a completed castout marked clean.
    dasd: [Page; PAGES],
    newest: [u64; PAGES],
    cleaned: [u64; PAGES],
    /// Per actor and page: the write its record got from the last set that
    /// wrote the page (0: none).
    committed: Vec<[u64; PAGES]>,
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
        {
            for pool in &mut pools {
                pool.steal_filling = bugs.steal_filling;
                pool.ignore_version = bugs.ignore_version;
                pool.second_fill = bugs.second_fill;
            }
            if bugs.ignore_expected {
                cache.arm_ignore_expected();
            }
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
            set: vec![Vec::new(); n],
            finished: [[0; PAGES]; 2],
            dasd: std::array::from_fn(|page| loaded(page as u64)),
            newest: [0; PAGES],
            cleaned: [0; PAGES],
            committed: vec![[0; PAGES]; n],
            next_write: 1,
            stale: None,
            directory: (0, Vec::new()),
        }
    }

    fn done(&self, t: usize) -> bool {
        matches!(self.at[t], At::Op(pc) if pc == self.actors[t].ops.len())
    }

    /// The page step `pc` of actor `t` reads at position `i`, or sends at
    /// position `i` of its set.
    fn page(&self, t: usize, pc: usize, i: usize, put: bool) -> u64 {
        match self.actors[t].ops[pc] {
            _ if put => self.set[t][i].0,
            Op::Read(page) => page,
            Op::Write(pages) => pages[i],
            Op::Castout => unreachable!("a castout looks nothing up"),
        }
    }

    /// Wake member `m`'s waiting actors when a landed fill says so.
    fn land(&mut self, m: usize, idx: usize) {
        if self.pools[m].landed(idx) {
            for t in (0..self.actors.len()).filter(|&t| self.actors[t].member == m) {
                if let At::Waiting(pc, i, put) = self.at[t] {
                    self.at[t] = if put { At::Put(pc, i) } else { At::Lookup(pc, i) };
                }
            }
        }
    }

    /// The read of position `i` of step `pc` returned `got`: a read checks
    /// it; a write set keeps it to merge into, then sends the set once all
    /// its pages are read.
    fn read_returned(&mut self, t: usize, pc: usize, i: usize, got: &Page) -> At {
        match self.actors[t].ops[pc] {
            Op::Write(pages) => {
                self.set[t].push((pages[i], got.image().to_vec(), got.version()));
                if i + 1 < pages.len() {
                    At::Lookup(pc, i + 1)
                } else {
                    At::Put(pc, 0)
                }
            }
            _ => {
                let page = self.page(t, pc, i, false);
                let (on, value) = decode(got);
                if on != page || value < self.floor[t] {
                    self.stale = Some(format!(
                        "actor {t}'s read of page {page} returned page {on} at write {value}, began after write {}",
                        self.floor[t]
                    ));
                }
                At::Op(pc + 1)
            }
        }
    }

    fn next_castout(&self, pc: usize, pages: Vec<u64>) -> At {
        match pages.is_empty() {
            true => At::Op(pc + 1),
            false => At::CastoutRead(pc, pages),
        }
    }

    /// Look up position `i` of actor `t`'s step `pc` under its member's
    /// latch, to read it or, `put`, to send it.
    fn lookup(&mut self, t: usize, pc: usize, i: usize, put: bool) -> String {
        let m = self.actors[t].member;
        let page = self.page(t, pc, i, put);
        let conn = &self.conns[m];
        let step = self.pools[m].lookup(&name(page), |idx| conn.is_valid(idx as u32));
        if let Lookup::Fill(Fill { idx, evicted: Some(_) }) = step {
            conn.invalidate_local(idx as u32);
        }
        let did = format!("looks up page {page} -> {:?}", map_page(&step));
        self.at[t] = match step {
            Lookup::Wait => At::Waiting(pc, i, put),
            Lookup::Fill(fill) => At::Register(pc, i, fill, put),
            Lookup::Hit(p) if !put => self.read_returned(t, pc, i, &p),
            Lookup::Hit(_) if i + 1 < self.set[t].len() => At::Put(pc, i + 1),
            Lookup::Hit(_) => At::Write(pc),
        };
        format!("actor {t} on member {m}: {did}")
    }
}

impl explore::World for World<'_> {
    fn runnable(&self) -> Vec<usize> {
        (0..self.actors.len()).filter(|&t| !self.done(t) && !matches!(self.at[t], At::Waiting(..))).collect()
    }

    /// Run actor `t`'s next atomic action; returns what it did.
    fn act(&mut self, t: usize) -> String {
        let m = self.actors[t].member;
        let (next, did) = match self.at[t].clone() {
            At::Op(pc) => match self.actors[t].ops[pc] {
                Op::Read(page) => {
                    self.floor[t] = self.finished[m][page as usize];
                    return self.lookup(t, pc, 0, false);
                }
                Op::Write(_) => return self.lookup(t, pc, 0, false),
                Op::Castout => {
                    let names = self.cache.castout_candidates(PAGES);
                    let pages: Vec<u64> = names.iter().map(|n| page_of(*n)).collect();
                    let did = format!("castout candidates {pages:?}");
                    (self.next_castout(pc, pages), did)
                }
            },
            At::Lookup(pc, i) => return self.lookup(t, pc, i, false),
            At::Put(pc, i) => return self.lookup(t, pc, i, true),
            At::Waiting(..) => unreachable!("a waiting actor is not runnable"),
            At::Register(pc, i, fill, put) => {
                let page = self.page(t, pc, i, put);
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
                let next = match r {
                    _ if put => At::Land(pc, i, fill, r.is_ok()),
                    Err(_) => At::Install(pc, i, fill, None),
                    Ok(r) => match r.data {
                        Some(data) => At::Install(pc, i, fill, Some((data.to_vec(), r.version))),
                        None => At::Dasd(pc, i, fill, r.version),
                    },
                };
                (next, did)
            }
            At::Dasd(pc, i, fill, version) => {
                let page = self.page(t, pc, i, false);
                let image = &self.dasd[page as usize];
                let did = format!("reads page {page} from DASD: write {}", decode(image).1);
                (At::Install(pc, i, fill, Some((image.image().to_vec(), version))), did)
            }
            At::Install(pc, i, fill, got) => {
                let page = self.page(t, pc, i, false);
                let valid = self.conns[m].is_valid(fill.idx as u32);
                let pool = &mut self.pools[m];
                let current = got.as_ref().map(|(image, version)| {
                    pool.installed(fill.idx, *version, page_of_image(page, image), valid)
                });
                self.land(m, fill.idx);
                let did = format!(
                    "installs {:?} (bit {valid}) -> {:?}",
                    got.as_ref().map(|(image, v)| (decode(&page_of_image(page, image)).1, v)),
                    current.as_ref().map(|c| c.as_ref().map(decode))
                );
                let next = match current {
                    // A read that failed, or a write set given up.
                    None => At::Op(pc + 1),
                    Some(None) => At::Lookup(pc, i),
                    Some(Some(p)) => self.read_returned(t, pc, i, &p),
                };
                (next, did)
            }
            At::Land(pc, i, fill, ok) => {
                self.land(m, fill.idx);
                let next = match ok {
                    false => At::Op(pc + 1),
                    true if i + 1 < self.set[t].len() => At::Put(pc, i + 1),
                    true => At::Write(pc),
                };
                (next, format!("lands the fill of frame {}", fill.idx))
            }
            At::Write(pc) => {
                let Op::Write(pages) = self.actors[t].ops[pc] else { unreachable!() };
                let blocks: Vec<(BlockName, Option<u64>, Vec<u8>)> = (self.set[t].iter())
                    .zip(self.next_write..)
                    .map(|((page, image, version), v)| (name(*page), *version, merged(*page, image, t, v)))
                    .collect();
                self.next_write += blocks.len() as u64;
                let set =
                    self.cache.write_and_invalidate_set(&self.conns[m], &blocks, WriteKind::ChangedData);
                let mut written = Vec::new();
                for ((&(page, _, _), (_, _, image)), w) in self.set[t].iter().zip(&blocks).zip(&set.written) {
                    let value = decode(&page_of_image(page, image)).1;
                    self.newest[page as usize] = value;
                    let finished = &mut self.finished[1 - m][page as usize];
                    *finished = (*finished).max(value);
                    self.committed[t][page as usize] = value;
                    written.push((page, image.clone(), w.version));
                }
                let retry = match set.error {
                    Some(CfError::VersionMismatch { found, .. }) => {
                        let stopped = self.set[t][set.written.len()].0;
                        pages.iter().position(|&p| p == stopped).map(|i| (i, stopped, found))
                    }
                    _ => None,
                };
                let did = format!(
                    "writes {:?} -> {:?}",
                    written.iter().map(|(p, _, v)| (p, v)).collect::<Vec<_>>(),
                    set.error
                );
                (At::Written(pc, written, retry), did)
            }
            At::Written(pc, written, retry) => {
                let (pool, conn) = (&mut self.pools[m], &self.conns[m]);
                for (page, image, version) in &written {
                    let p = page_of_image(*page, image);
                    pool.written(name(*page), *version, &p, |idx| conn.is_valid(idx as u32));
                    let finished = &mut self.finished[m][*page as usize];
                    *finished = (*finished).max(decode(&p).1);
                }
                self.set[t].clear();
                match retry {
                    Some((i, page, found)) => {
                        pool.refused(&name(page), found);
                        (At::Lookup(pc, i), format!("installs its write set, reads again from page {page}"))
                    }
                    None => (At::Op(pc + 1), "installs its write set".to_string()),
                }
            }
            At::CastoutRead(pc, mut pages) => {
                let page = pages.remove(0);
                match self.cache.read_for_castout(&self.conns[m], name(page)) {
                    Ok((data, version)) => {
                        let did = format!(
                            "reads page {page} for castout: write {}",
                            decode(&page_of_image(page, &data)).1
                        );
                        (At::CastoutWrite(pc, pages, page, data.to_vec(), version), did)
                    }
                    Err(e) => {
                        (self.next_castout(pc, pages), format!("reads page {page} for castout -> {e:?}"))
                    }
                }
            }
            At::CastoutWrite(pc, pages, page, image, version) => {
                self.dasd[page as usize] = page_of_image(page, &image);
                let did =
                    format!("writes page {page} to DASD: write {}", decode(&page_of_image(page, &image)).1);
                (At::CastoutComplete(pc, pages, page, image, version), did)
            }
            At::CastoutComplete(pc, pages, page, image, version) => {
                let r = self.cache.complete_castout(&self.conns[m], name(page), version);
                let value = decode(&page_of_image(page, &image)).1;
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
            let dasd = decode(&self.dasd[page]).1;
            if dasd > self.newest[page] || dasd < self.cleaned[page] {
                return Err(format!(
                    "DASD holds write {dasd} of page {page}: the CF took up to {}, a castout marked {} clean",
                    self.newest[page], self.cleaned[page]
                ));
            }
            if self.committed.iter().all(|c| c[page] == 0) {
                continue;
            }
            let cf = directory.iter().find(|e| e.name == name(page as u64)).and_then(|e| e.data.as_deref());
            let current = cf.map_or_else(|| self.dasd[page].clone(), |data| page_of_image(page as u64, data));
            for (t, committed) in self.committed.iter().enumerate() {
                let want = committed[page];
                let has = current.get(page as u64 * KEYS + 1 + t as u64).map(value);
                if want > 0 && has.is_none_or(|has| has < want) {
                    return Err(format!(
                        "page {page} lost actor {t}'s write {want}: its current image holds {has:?} for it"
                    ));
                }
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
        ticks.extend(self.set.iter().flatten().filter_map(|x| x.2));
        for at in &self.at {
            match at {
                At::Dasd(.., v) | At::Install(.., Some((_, v))) => ticks.push(*v),
                At::Written(_, w, retry) => {
                    ticks.extend(w.iter().map(|x| x.2).chain(retry.map(|r| r.2)));
                }
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
                At::Dasd(pc, i, f, v) => At::Dasd(pc, i, f, rank(v)),
                At::Install(pc, i, f, got) => At::Install(pc, i, f, got.map(|(x, v)| (x, rank(v)))),
                At::Written(pc, w, retry) => At::Written(
                    pc,
                    w.into_iter().map(|(p, x, v)| (p, x, rank(v))).collect(),
                    retry.map(|(i, p, found)| (i, p, rank(found))),
                ),
                At::CastoutWrite(pc, ps, p, x, v) => At::CastoutWrite(pc, ps, p, x, rank(v)),
                At::CastoutComplete(pc, ps, p, x, v) => At::CastoutComplete(pc, ps, p, x, rank(v)),
                at => at,
            }
            .hash(&mut h);
        }
        for set in &self.set {
            for (page, image, version) in set {
                (page, image, version.map(rank)).hash(&mut h);
            }
            set.len().hash(&mut h);
        }
        for (pool, conn) in self.pools.iter().zip(&self.conns) {
            for (idx, f) in pool.frames.iter().enumerate() {
                (
                    f.name,
                    f.page.as_ref().map(Page::image),
                    rank(f.version),
                    f.filling,
                    conn.is_valid(idx as u32),
                )
                    .hash(&mut h);
            }
            (pool.rotor % pool.frames.len(), pool.waiting).hash(&mut h);
        }
        for e in directory {
            (e.name, &e.registered, &e.data, e.changed, rank(e.version), rank(e.lru_tick)).hash(&mut h);
        }
        (
            cursor,
            &self.floor,
            self.finished,
            self.dasd.iter().map(Page::image).collect::<Vec<_>>(),
            self.newest,
            self.cleaned,
            &self.committed,
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
/// writes it too, and both read it back.
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
/// two-entry directory reclaims it between lives, so the two castouts race
/// their DASD writes across a reclaim.
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
/// with a single frame: a set's pages steal each other's frame as it reads
/// and sends them, the two sets conflict, and the entries are reclaimed
/// under them.
const SETS: Scenario = Scenario {
    frames: 1,
    entries: 3,
    actors: &[
        Actor { member: 0, ops: &[Op::Read(1), Op::Write(&[1, 2]), Op::Read(2)] },
        Actor { member: 1, ops: &[Op::Write(&[1, 2]), Op::Read(1), Op::Read(3)] },
    ],
};

/// Two actors of one member commit different records of one page at
/// once while the peer reads it: the second to send must read again and
/// merge, not overwrite the first.
const LOCAL: Scenario = Scenario {
    frames: 1,
    entries: 2,
    actors: &[
        Actor { member: 0, ops: &[Op::Write(&[1])] },
        Actor { member: 0, ops: &[Op::Write(&[1])] },
        Actor { member: 1, ops: &[Op::Read(1)] },
    ],
};

/// Each scenario with the states its walk reaches.
const SCENARIOS: [(&str, &Scenario, usize); 6] = [
    ("steal", &STEAL, 4_919),
    ("refill", &REFILL, 351),
    ("rewrite", &REWRITE, 2_189),
    ("castout", &CASTOUT, 13_353),
    ("sets", &SETS, 2_455),
    ("local", &LOCAL, 864),
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

#[cfg(feature = "test-hooks")]
#[test]
fn a_cf_that_ignores_the_expected_version_is_found_losing_an_update() {
    let report = convict(Bugs { ignore_expected: true, ..Bugs::default() });
    assert!(report.contains("lost actor"), "{report}");
}
