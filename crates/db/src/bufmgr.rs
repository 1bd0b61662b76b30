//! The coherent local buffer pool — §3.3.2's protocol, end to end.
//!
//! Each system's [`BufferManager`] owns a pool of page frames; frame *i* is
//! permanently associated with bit *i* of the system's local bit vector.
//! The read path is exactly the paper's:
//!
//! 1. Hit + valid bit → return the local copy. **No CF access** — this is
//!    the nanosecond path that makes local caching of shared data viable.
//! 2. Hit + invalid bit → a peer updated the page; re-register with the CF
//!    and refresh from the CF's global copy (µs) or, failing that, DASD
//!    (ms).
//! 3. Miss → register and read from CF or DASD into a (possibly stolen)
//!    frame.
//!
//! Writes go to the CF as **changed data** (store-in): one command updates
//! the global copies of a commit's pages and cross-invalidates every peer
//! registered on each. A castout sweep later destages changed pages to
//! DASD.
//! The decisions are [`protocol`]'s; this module performs them.

pub mod protocol;

use crate::error::{DbError, DbResult};
use crate::pagestore::{Page, PageStore};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use protocol::{Fill, Lookup, Pool};
use std::sync::Arc;
use sysplex_core::cache::{BlockName, CacheStructure, WriteKind};
use sysplex_core::connection::{CacheConnection, CfSubchannel};
use sysplex_core::duplex::DuplexPair;
use sysplex_core::stats::Counter;
use sysplex_core::trace::TraceEvent;
use sysplex_core::{CfError, SystemId};

/// Counters published by a buffer manager.
#[derive(Debug, Default)]
pub struct BufStats {
    /// Reads satisfied by a valid local frame (no CF access).
    pub local_hits: Counter,
    /// Reads that found the local frame cross-invalidated.
    pub coherency_misses: Counter,
    /// Refreshes served by the CF global cache (no DASD I/O).
    pub cf_refreshes: Counter,
    /// Refreshes that had to read DASD.
    pub dasd_reads: Counter,
    /// Page writes (CF write + cross-invalidate).
    pub writes: Counter,
    /// Changed pages cast out to DASD.
    pub castouts: Counter,
}

/// A per-system buffer pool coherent across the data-sharing group: the
/// shell that performs what [`Pool`]'s transitions ask for.
pub struct BufferManager {
    system: SystemId,
    /// Current structure + connection; reads hold the read guard, group
    /// buffer rebuild, duplex enable and failover hold the write guard
    /// (quiescing CF traffic).
    cf: RwLock<CacheConnection>,
    store: Arc<PageStore>,
    // One latch for the pool: the protected work is pointer-sized (a hit
    // clones an `Arc`, a fill stores one) and the expensive operations (CF
    // commands, DASD reads) happen with the CF's own synchronisation,
    // re-validated against the bit vector afterwards.
    pool: Mutex<Pool>,
    /// Signalled when a fill lands while a lookup waits for one.
    landed: Condvar,
    /// Published counters.
    pub stats: BufStats,
}

impl BufferManager {
    /// Connect a pool of `frames` frames to the cache structure through
    /// `sub` (the unified CF command path).
    pub fn new(
        system: SystemId,
        cache: &Arc<CacheStructure>,
        sub: CfSubchannel,
        store: Arc<PageStore>,
        frames: usize,
    ) -> DbResult<Self> {
        assert!(frames > 0);
        let conn = CacheConnection::attach(cache, sub, frames)?;
        Ok(BufferManager {
            system,
            cf: RwLock::new(conn),
            store,
            pool: Mutex::new(Pool::new(frames)),
            landed: Condvar::new(),
            stats: BufStats::default(),
        })
    }

    /// The cache-structure connector slot (recovery bookkeeping).
    pub fn conn_id(&self) -> sysplex_core::ConnId {
        self.cf.read().conn_id()
    }

    /// The cache structure currently attached.
    pub fn structure(&self) -> Arc<CacheStructure> {
        Arc::clone(self.cf.read().structure())
    }

    /// Read a page, coherently. The page handed out is a snapshot: it
    /// shares the frame's image, and no later write changes those bytes.
    pub fn get_page(&self, page: u64) -> DbResult<Page> {
        let name = self.store.block_name(page);
        let cf = self.cf.read();
        loop {
            let mut pool = self.pool.lock();
            if let Some(p) = pool.hit(&name, |idx| cf.is_valid_block(idx as u32, name)) {
                self.stats.local_hits.incr();
                cf.subchannel().emit(TraceEvent::BufRead { page, local_hit: true });
                return Ok(p);
            }
            if let Some(fill) = self.fill(pool, &cf, name) {
                if let Some(p) = self.refresh(&cf, page, name, fill)? {
                    return Ok(p);
                }
                // A peer's write cleared the bit mid-refresh; go again.
                self.stats.coherency_misses.incr();
            }
        }
    }

    /// The fill [`Pool::lookup`] asks for, waiting while the frame is
    /// another's fill; `None` when it found a hit instead. A steal clears
    /// its frame's bit before the latch is let go: the bit may still be set
    /// for the evicted tenant.
    fn fill(&self, mut pool: MutexGuard<'_, Pool>, cf: &CacheConnection, name: BlockName) -> Option<Fill> {
        loop {
            match pool.lookup(&name, |idx| cf.is_valid_block(idx as u32, name)) {
                Lookup::Wait => self.landed.wait(&mut pool),
                Lookup::Hit(_) => return None,
                Lookup::Fill(fill) => {
                    if let Some(old) = fill.evicted {
                        cf.invalidate_local(fill.idx as u32);
                        if let Some(page) = self.store.page_of_block(&old) {
                            cf.subchannel().emit(TraceEvent::BufSteal { frame: fill.idx as u64, page });
                        }
                    }
                    return Some(fill);
                }
            }
        }
    }

    /// Perform `fill` for `name` and install what it read. `None` when the
    /// bit was cleared before the install.
    fn refresh(
        &self,
        cf: &CacheConnection,
        page: u64,
        name: BlockName,
        fill: Fill,
    ) -> DbResult<Option<Page>> {
        let fetched = self.fetch(cf, page, name, fill);
        let mut pool = self.pool.lock();
        let current = fetched.map(|(fresh, version)| {
            pool.installed(fill.idx, version, fresh, cf.is_valid_block(fill.idx as u32, name))
        });
        if pool.landed(fill.idx) {
            self.landed.notify_all();
        }
        current
    }

    /// Register `name` at `fill`'s frame and read its image, from the CF
    /// or else DASD, with the directory version it was registered at.
    fn fetch(&self, cf: &CacheConnection, page: u64, name: BlockName, fill: Fill) -> DbResult<(Page, u64)> {
        let reg = cf.register_read_replacing(name, fill.idx as u32, fill.evicted)?;
        let fresh = match reg.data {
            // The CF's copy is adopted, not copied: frame and directory
            // entry share the bytes, which neither ever changes in place.
            Some(image) => {
                self.stats.cf_refreshes.incr();
                cf.subchannel().emit(TraceEvent::BufRefresh { page, from_cf: true });
                Page::from_image(image, page)?
            }
            None => {
                self.stats.dasd_reads.incr();
                let p = self.store.read_page(self.system.0, page)?;
                cf.subchannel().emit(TraceEvent::BufRefresh { page, from_cf: false });
                p
            }
        };
        Ok((fresh, reg.version))
    }

    /// Write a page: [`BufferManager::put_pages`] of one.
    pub fn put_page(&self, page: u64, p: &Page) -> DbResult<()> {
        self.put_pages(&[(page, p.clone())])
    }

    /// Write pages: one CF changed-data write of all of them, in order,
    /// cross-invalidating each one's registered peers, then the local
    /// frames, which keep the caller's images (shared, not copied). The
    /// caller must hold every page's serialization (its P-lock). A set the
    /// CF stops part-way — the group buffer full at some page — still
    /// installs the frames of the pages it wrote: the CF holds their new
    /// images and this member's validity bits for them are set, so a frame
    /// left on the old image would serve stale bytes.
    pub fn put_pages(&self, pages: &[(u64, Page)]) -> DbResult<()> {
        let cf = self.cf.read();
        let mut blocks: Vec<(BlockName, &[u8])> = Vec::with_capacity(pages.len());
        for (page, p) in pages {
            let name = self.store.block_name(*page);
            // A hit proves the directory still tracks this member (DESIGN.md
            // §14); otherwise register first.
            if let Some(fill) = self.fill(self.pool.lock(), &cf, name) {
                let reg = cf.register_read_replacing(name, fill.idx as u32, fill.evicted);
                if self.pool.lock().landed(fill.idx) {
                    self.landed.notify_all();
                }
                reg?;
            }
            blocks.push((name, p.image()));
        }
        let set = cf.write_invalidate_set(&blocks, WriteKind::ChangedData)?;
        {
            let mut pool = self.pool.lock();
            for (w, ((name, _), (_, p))) in set.written.iter().zip(blocks.iter().zip(pages)) {
                pool.written(*name, w.version, p, |idx| cf.is_valid_block(idx as u32, *name));
            }
        }
        self.stats.writes.add(set.written.len() as u64);
        match set.error {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Destage up to `max` changed pages to DASD. Returns how many were
    /// cast out. Any member of the group can run this — including for
    /// pages a failed member left behind.
    pub fn castout(&self, max: usize) -> DbResult<usize> {
        let cf = self.cf.read();
        self.castout_inner(&cf, max)
    }

    fn castout_inner(&self, cf: &CacheConnection, max: usize) -> DbResult<usize> {
        let mut done = 0;
        for name in cf.castout_candidates(max)? {
            let Some(page) = self.store.page_of_block(&name) else { continue };
            let (data, version) = match cf.castout_read(name) {
                Ok(x) => x,
                Err(CfError::NoSuchEntry) => continue, // raced with another castout
                Err(e) => return Err(e.into()),
            };
            self.store.write_image(self.system.0, page, &data)?;
            match cf.castout_complete(name, version) {
                Ok(()) | Err(CfError::VersionMismatch { .. }) => {}
                Err(e) => return Err(e.into()),
            }
            done += 1;
            self.stats.castouts.incr();
            cf.subchannel().emit(TraceEvent::BufCastout { page });
        }
        Ok(done)
    }

    /// Whether this member's connection mirrors into an intact duplex
    /// pair.
    pub fn is_duplexed(&self) -> bool {
        self.cf.read().is_duplexed()
    }

    /// Enable group-buffer duplexing: quiesce, then join every member's
    /// connection to one pair onto `secondary`; the first copies the
    /// primary's changed data across. Every changed-data write is mirrored
    /// from then on, a member's that attaches later included.
    pub fn enable_duplexing(
        managers: &[&BufferManager],
        secondary: Arc<CacheStructure>,
        sub: &CfSubchannel,
    ) -> DbResult<()> {
        let mut guards: Vec<_> = managers.iter().map(|m| m.cf.write()).collect();
        let pair = DuplexPair::new(secondary, sub);
        for guard in guards.iter_mut() {
            guard.duplex_into(&pair)?;
        }
        Ok(())
    }

    /// The primary CF is gone: promote every member's secondary connection,
    /// or none when one is simplex. Changed data is already there; local
    /// pools are invalidated (their registrations died with the primary
    /// directory).
    pub fn failover_all(managers: &[&BufferManager]) -> DbResult<()> {
        let mut guards: Vec<_> = managers.iter().map(|m| m.cf.write()).collect();
        let promoted: Option<Vec<_>> = guards.iter().map(|g| g.promote()).collect();
        let promoted = promoted.ok_or(DbError::Cf(CfError::WrongModel))?;
        for ((manager, guard), conn) in managers.iter().zip(guards.iter_mut()).zip(promoted) {
            manager.pool.lock().clear();
            **guard = conn;
        }
        Ok(())
    }

    /// Rebuild the group buffer of a whole data-sharing group into a fresh
    /// cache structure (planned CF maintenance / CF failure).
    ///
    /// Protocol: quiesce every member's CF cache traffic, destage all
    /// changed data from the old structure to DASD (so the new structure
    /// starts clean and DASD is the source of truth), then reconnect every
    /// member and invalidate its local pool.
    pub fn rebuild_all(
        managers: &[&BufferManager],
        new: Arc<CacheStructure>,
        sub: &CfSubchannel,
    ) -> DbResult<()> {
        let mut guards: Vec<_> = managers.iter().map(|m| m.cf.write()).collect();
        // Drain changed data through every member's old attachment: a
        // castout that failed part-way left its entries locked to its own.
        for (manager, guard) in managers.iter().zip(&guards) {
            while manager.castout_inner(guard, 1024)? > 0 {}
        }
        for (manager, guard) in managers.iter().zip(guards.iter_mut()) {
            let _ = guard.detach();
            let sub = sub.sibling().with_system(manager.system);
            let conn = CacheConnection::attach(&new, sub, manager.pool.lock().frames.len())?;
            manager.pool.lock().clear();
            **guard = conn;
        }
        Ok(())
    }

    /// Orderly detach.
    pub fn detach(&self) {
        let cf = self.cf.read();
        let _ = cf.detach();
    }
}

impl std::fmt::Debug for BufferManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferManager").field("system", &self.system).field("conn", &self.conn_id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sysplex_core::cache::CacheParams;
    use sysplex_core::connection::{CommandClass, LinkFault};
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;

    struct Rig {
        cf: Arc<CouplingFacility>,
        cache: Arc<CacheStructure>,
        store: Arc<PageStore>,
    }

    fn rig() -> Rig {
        rig_with_directory(256)
    }

    fn rig_with_directory(entries: usize) -> Rig {
        let farm = DasdFarm::new(IoModel::instant());
        farm.add_volume("DB0001", 128, 4).unwrap();
        let store = PageStore::new(&farm, "DB0001", 1, 128).unwrap();
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let cache = cf.allocate_cache_structure("GBP0", CacheParams::store_in(entries)).unwrap();
        Rig { cf, cache, store }
    }

    fn bm(r: &Rig, sys: u8) -> BufferManager {
        BufferManager::new(SystemId::new(sys), &r.cache, r.cf.subchannel(), Arc::clone(&r.store), 32).unwrap()
    }

    #[test]
    fn cold_read_hits_dasd_then_local() {
        let r = rig();
        let mut page = Page::new();
        page.set(5, b"five");
        r.store.write_image(0, 5, page.image()).unwrap();
        let a = bm(&r, 0);
        assert_eq!(a.get_page(5).unwrap().get(5).unwrap(), b"five");
        assert_eq!(a.stats.dasd_reads.get(), 1);
        // Second read: pure local hit.
        a.get_page(5).unwrap();
        assert_eq!(a.stats.local_hits.get(), 1);
        assert_eq!(a.stats.dasd_reads.get(), 1);
    }

    #[test]
    fn peer_write_invalidates_and_refreshes_from_cf_not_dasd() {
        let r = rig();
        let a = bm(&r, 0);
        let b = bm(&r, 1);
        a.get_page(7).unwrap(); // registers a
        let mut p = Page::new();
        p.set(7, b"from-b");
        b.put_page(7, &p).unwrap();
        // a's next read must see b's version, served from the CF.
        let before_dasd = a.stats.dasd_reads.get();
        assert_eq!(a.get_page(7).unwrap().get(7).unwrap(), b"from-b");
        assert_eq!(a.stats.dasd_reads.get(), before_dasd, "refresh came from the CF global cache");
        assert!(a.stats.cf_refreshes.get() >= 1);
    }

    fn cache_reads(r: &Rig) -> u64 {
        r.cf.command_stats().class(CommandClass::CacheRead).issued.get()
    }

    fn one_record(key: u64, value: &[u8]) -> Page {
        let mut p = Page::new();
        p.set(key, value);
        p
    }

    /// A page handed out or handed in shares bytes with the frame; nobody's
    /// later update may reach through that sharing.
    #[test]
    fn pages_are_snapshots_not_aliases() {
        let r = rig();
        let a = bm(&r, 0);
        let b = bm(&r, 1);
        a.put_page(1, &one_record(1, b"v1")).unwrap();
        let held = a.get_page(1).unwrap();
        // The same member rewrites the page, starting from what it read.
        let mut next = a.get_page(1).unwrap();
        next.set(1, b"v2");
        a.put_page(1, &next).unwrap();
        assert_eq!(held.get(1).unwrap(), b"v1", "an earlier reader keeps the image it was given");
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"v2");
        // The writer goes on changing its page after the put: the frame
        // kept the image as put.
        next.set(1, b"v3");
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"v2");
        // A peer's frame adopts the CF's copy of the image; scribbling on
        // what it hands out changes neither its frame, the CF's copy, nor
        // the writer's frame.
        let mut at_b = b.get_page(1).unwrap();
        at_b.set(1, b"scribble");
        at_b.set(2, b"more");
        assert_eq!(b.get_page(1).unwrap(), a.get_page(1).unwrap());
        assert_eq!(bm(&r, 2).get_page(1).unwrap().iter().collect::<Vec<_>>(), vec![(1, &b"v2"[..])]);
    }

    /// `put_page` registers only when the directory may have lost track of
    /// this member: not after the member's own read, again after anything
    /// cleared the frame's validity bit.
    #[test]
    fn put_registers_only_when_the_validity_bit_is_clear() {
        let r = rig();
        let a = bm(&r, 0);
        let b = bm(&r, 1);
        let before = cache_reads(&r);
        a.put_page(1, &one_record(1, b"a0")).unwrap();
        assert_eq!(cache_reads(&r) - before, 1, "a fresh frame registers");
        let page = a.get_page(1).unwrap();
        assert_eq!(a.stats.local_hits.get(), 1);
        let before = cache_reads(&r);
        a.put_page(1, &page).unwrap();
        a.put_page(1, &page).unwrap();
        assert_eq!(cache_reads(&r) - before, 0, "ready and valid: the registration stands");
        // A peer's write cross-invalidates a and drops its registration.
        b.put_page(1, &one_record(1, b"b1")).unwrap();
        let before = cache_reads(&r);
        a.put_page(1, &one_record(1, b"a2")).unwrap();
        assert_eq!(cache_reads(&r) - before, 1, "bit cleared by the peer: register again");
        assert_eq!(b.get_page(1).unwrap().get(1).unwrap(), b"a2", "and the peer was invalidated in turn");
    }

    /// `by` reads pages from `others` through the directory until page
    /// `page`'s entry is reclaimed (its holders told).
    fn reclaim_page(r: &Rig, by: &BufferManager, page: u64, others: &mut impl Iterator<Item = u64>) {
        let name = r.store.block_name(page);
        for other in others.take(256) {
            by.get_page(other).unwrap();
            if r.cache.interest_of(name).is_none() {
                return;
            }
        }
        panic!("page {page}'s directory entry was never reclaimed");
    }

    #[test]
    fn put_registers_again_after_a_directory_reclaim() {
        let r = rig_with_directory(4);
        let a = bm(&r, 0);
        let page = a.get_page(1).unwrap();
        // More blocks through a four-entry directory: page 1's entry,
        // unchanged, is reclaimed and its holder told.
        let b = bm(&r, 1);
        reclaim_page(&r, &b, 1, &mut (10..100));
        let before = cache_reads(&r);
        a.put_page(1, &page).unwrap();
        assert_eq!(cache_reads(&r) - before, 1);
        assert_eq!(a.get_page(1).unwrap(), page);
    }

    /// Neither a refresh nor the member's own write may lose to the
    /// version a frame remembers from a reclaimed entry's previous life.
    #[test]
    fn a_reclaimed_directory_entry_restarts_the_version_guard() {
        let r = rig_with_directory(4);
        let a = bm(&r, 0);
        let b = bm(&r, 1);
        // Drive page 1's entry to a high version in `a`'s frame, destage
        // it (only unchanged entries are reclaimed), then push it out of
        // the four-entry directory; `a`'s bit is cleared.
        let mut others = 10..;
        let mut age_and_reclaim = |tag: &[u8]| {
            for _ in 0..5 {
                a.put_page(1, &one_record(1, tag)).unwrap();
            }
            a.castout(16).unwrap();
            reclaim_page(&r, &b, 1, &mut others);
        };
        age_and_reclaim(b"old");
        // A peer writes the page into a fresh entry and it is destaged;
        // `a` must refresh to those bytes, not keep its own.
        b.put_page(1, &one_record(1, b"peer")).unwrap();
        b.castout(16).unwrap();
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"peer", "refresh lost to a dead entry's version");
        // The same for `a`'s own write into a re-created entry.
        age_and_reclaim(b"older");
        a.put_page(1, &one_record(1, b"mine")).unwrap();
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"mine", "put lost to a dead entry's version");
        assert_eq!(b.get_page(1).unwrap().get(1).unwrap(), b"mine");
    }

    /// A refresh registered against an entry's earlier life — reclaimed
    /// since, and written into a new one whose image the pool took first —
    /// finishes last: it must not install the dead life's bytes. The
    /// directory versions every life of a name above the last.
    #[test]
    fn a_refresh_from_a_reclaimed_life_loses_to_the_next_life() {
        let name = BlockName::from_parts(1, 1);
        let (old, peer) = (one_record(1, b"old"), one_record(1, b"peer"));
        let mut pool = Pool::new(1);
        let Lookup::Fill(fill) = pool.lookup(&name, |_| unreachable!("no frame yet")) else { panic!() };
        pool.written(name, 9, &peer, |_| true);
        assert_eq!(pool.installed(fill.idx, 3, old, true), Some(peer.clone()));
        assert!(!pool.landed(fill.idx));
        assert_eq!(pool.lookup(&name, |_| true), Lookup::Hit(peer), "a dead life's bytes installed");
    }

    /// A refresh's bit checks name the block they guard, so the trace
    /// oracle's stale-read invariant sees them.
    #[test]
    fn a_cf_refresh_traces_the_blocks_bit_checks() {
        let r = rig();
        r.cf.tracer().enable();
        let (a, b) = (bm(&r, 0), bm(&r, 1));
        a.get_page(7).unwrap();
        b.put_page(7, &one_record(7, b"b")).unwrap();
        let since = r.cf.tracer().snapshot_all().last().map_or(0, |t| t.seq);
        a.get_page(7).unwrap();
        assert_eq!(a.stats.cf_refreshes.get(), 1);
        let checks: Vec<(u64, bool)> = (r.cf.tracer().snapshot_all().into_iter())
            .filter(|t| t.seq > since)
            .filter_map(|t| match t.event {
                TraceEvent::LocalVectorCheck { block, valid } => Some((block, valid)),
                _ => None,
            })
            .collect();
        let digest = r.store.block_name(7).digest();
        assert_eq!(checks, [(digest, false), (digest, true)], "the lookup's check, then the install's");
    }

    /// The group buffer fills at the third page of a write set: the first
    /// two reached the CF — the writer's bits for them stay set, its peers'
    /// were cleared — so the writer's frames must hold them, not the images
    /// they held before; the third page is unchanged everywhere.
    #[test]
    fn a_write_set_stopped_part_way_installs_the_pages_it_wrote() {
        let r = {
            let mut r = rig();
            let params = CacheParams { data_capacity: 2 * 4096, ..CacheParams::store_in(256) };
            r.cache = r.cf.allocate_cache_structure("GBP1", params).unwrap();
            r
        };
        let (a, b) = (bm(&r, 0), bm(&r, 1));
        for page in 1..=3 {
            a.get_page(page).unwrap();
            b.get_page(page).unwrap();
        }
        let big = |page: u64| one_record(page, &[page as u8; 3000]);
        let set: Vec<(u64, Page)> = (1..=3).map(|page| (page, big(page))).collect();
        let err = a.put_pages(&set).unwrap_err();
        assert!(matches!(err, DbError::Cf(CfError::StructureFull)), "got {err:?}");
        assert_eq!(a.stats.writes.get(), 2);
        let hits = a.stats.local_hits.get();
        for page in 1..=2 {
            assert_eq!(a.get_page(page).unwrap(), big(page), "page {page}: a stale local hit");
            assert_eq!(b.get_page(page).unwrap(), big(page));
        }
        assert_eq!(a.stats.local_hits.get() - hits, 2, "served from the installed frames");
        assert_eq!(a.get_page(3).unwrap(), Page::new());
        assert_eq!(b.get_page(3).unwrap(), Page::new());
        assert_no_under_registration(&r, &a);
    }

    #[test]
    fn castout_destages_to_dasd() {
        let r = rig();
        let a = bm(&r, 0);
        let mut p = Page::new();
        p.set(3, b"dirty");
        a.put_page(3, &p).unwrap();
        assert_eq!(r.cache.changed_count(), 1);
        assert_eq!(a.castout(16).unwrap(), 1);
        assert_eq!(r.cache.changed_count(), 0);
        // DASD now has the current image.
        assert_eq!(r.store.read_page(0, 3).unwrap().get(3).unwrap(), b"dirty");
    }

    #[test]
    fn survivor_casts_out_failed_members_pages() {
        let r = rig();
        let a = bm(&r, 0);
        let b = bm(&r, 1);
        let mut p = Page::new();
        p.set(9, b"orphaned");
        a.put_page(9, &p).unwrap();
        // a "fails": disconnect by id, as recovery would.
        r.cache.disconnect_by_id(a.conn_id()).unwrap();
        assert_eq!(b.castout(16).unwrap(), 1, "survivor destages the orphaned page");
        assert_eq!(r.store.read_page(1, 9).unwrap().get(9).unwrap(), b"orphaned");
    }

    #[test]
    fn frame_steal_recycles_pool() {
        let r = rig();
        let a = BufferManager::new(SystemId::new(0), &r.cache, r.cf.subchannel(), Arc::clone(&r.store), 4)
            .unwrap();
        for page in 0..16 {
            a.get_page(page).unwrap();
        }
        // All 16 pages were readable through only 4 frames.
        assert!(a.stats.dasd_reads.get() >= 16);
        // Re-reading the most recent page is still a hit.
        a.get_page(15).unwrap();
        assert_eq!(a.stats.local_hits.get(), 1);
    }

    fn one_frame(r: &Rig) -> BufferManager {
        BufferManager::new(SystemId::new(0), &r.cache, r.cf.subchannel(), Arc::clone(&r.store), 1).unwrap()
    }

    fn issued(r: &Rig) -> [u64; CommandClass::COUNT] {
        let stats = r.cf.command_stats();
        CommandClass::ALL.map(|c| stats.class(c).issued.get())
    }

    /// A steal is one `cache-read`: the refill's registration drops the
    /// evicted page's, so a peer's later write of that page leaves the new
    /// tenant alone.
    #[test]
    fn a_steal_is_one_command_and_unregisters_the_evicted_page() {
        let r = rig();
        let a = one_frame(&r);
        let b = bm(&r, 1);
        a.get_page(1).unwrap();
        let before = issued(&r);
        a.get_page(2).unwrap();
        let moved: Vec<(&str, u64)> = CommandClass::ALL
            .iter()
            .zip(issued(&r).iter().zip(before))
            .map(|(c, (after, before))| (c.name(), after - before))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(moved, [("cache-read", 1)]);
        assert_eq!(r.cache.interest_of(r.store.block_name(1)), Some(vec![]));
        assert_eq!(r.cache.interest_of(r.store.block_name(2)), Some(vec![a.conn_id()]));
        b.put_page(1, &one_record(1, b"peer")).unwrap();
        let before = issued(&r);
        a.get_page(2).unwrap();
        assert_eq!(a.stats.local_hits.get(), 1, "the new tenant's bit survived the write");
        assert_eq!(issued(&r), before);
    }

    /// A steal whose command fails leaves the evicted page registered (a
    /// spurious invalidation later, at worst) and the frame's bit clear:
    /// over-registered, never under-registered.
    #[test]
    fn a_failed_steal_can_only_over_register() {
        let r = rig();
        let a = one_frame(&r);
        let b = bm(&r, 1);
        a.put_page(2, &one_record(2, b"two")).unwrap();
        a.get_page(1).unwrap();
        r.cf.inject_fault(LinkFault::Timeout);
        assert!(a.get_page(2).is_err());
        assert_eq!(r.cache.interest_of(r.store.block_name(1)), Some(vec![a.conn_id()]));
        assert_eq!(r.cache.interest_of(r.store.block_name(2)), Some(vec![]));
        assert!(!a.cf.read().is_valid(0), "a bit set with no registration behind it");
        assert_eq!(a.get_page(2).unwrap().get(2).unwrap(), b"two");
        // The stale registration costs the new tenant one refresh.
        b.put_page(1, &one_record(1, b"peer")).unwrap();
        assert!(!a.cf.read().is_valid(0));
        assert_eq!(a.get_page(2).unwrap().get(2).unwrap(), b"two");
        assert_eq!(r.cache.interest_of(r.store.block_name(1)), Some(vec![b.conn_id()]));
    }

    /// Every ready frame whose validity bit is set has `a` registered on
    /// its page: a peer's write of that page would cross-invalidate it.
    fn assert_no_under_registration(r: &Rig, a: &BufferManager) {
        let bits = a.cf.read().token().clone();
        for (idx, f) in a.pool.lock().frames.iter().enumerate() {
            if let (Some(name), Some(_)) = (f.name, &f.page) {
                if bits.is_valid(idx as u32) {
                    let holders = r.cache.interest_of(name).unwrap_or_default();
                    assert!(holders.contains(&a.conn_id()), "frame {idx}: bit set, no registration");
                }
            }
        }
    }

    /// With every frame held by a stalled steal, a second steal waits for
    /// it to land rather than taking the frame from under it.
    #[test]
    fn a_steal_waits_when_every_frame_is_being_stolen() {
        let r = rig();
        r.store.write_image(0, 1, one_record(1, b"one").image()).unwrap();
        r.store.write_image(0, 2, one_record(2, b"two").image()).unwrap();
        let a = Arc::new(one_frame(&r));
        a.get_page(1).unwrap();
        r.cf.inject_fault(LinkFault::Delay(Duration::from_millis(150)));
        let t = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.get_page(2).unwrap())
        };
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"one");
        assert_eq!(t.join().unwrap().get(2).unwrap(), b"two");
        assert_no_under_registration(&r, &a);
    }

    /// Deterministic reproduction of a parallel-query read skew: with a
    /// 1-frame pool, a steal reassigns the frame to page 2 while the fill is
    /// stalled on the coupling link. A concurrent reader of page 2 must not
    /// be served page 1's bytes out of the half-reassigned frame (the old
    /// code's fast path trusted the stale local validity bit; the frame's
    /// `ready` flag plus the steal-time `invalidate_local` close the window).
    #[test]
    fn stolen_frame_never_serves_prior_tenants_bytes() {
        let r = rig();
        let mut p1 = Page::new();
        p1.set(1, b"one");
        r.store.write_image(0, 1, p1.image()).unwrap();
        let mut p2 = Page::new();
        p2.set(2, b"two");
        r.store.write_image(0, 2, p2.image()).unwrap();
        let a = Arc::new(
            BufferManager::new(SystemId::new(0), &r.cache, r.cf.subchannel(), Arc::clone(&r.store), 1)
                .unwrap(),
        );
        // Fill the single frame with page 1 (sets its validity bit).
        assert_eq!(a.get_page(1).unwrap().get(1).unwrap(), b"one");
        // Stall the stealing reader's one command, its register of page 2
        // (which drops page 1's registration), for long enough that the
        // main thread reads mid-fill.
        r.cf.inject_fault(LinkFault::Delay(Duration::from_millis(150)));
        let t = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.get_page(2).unwrap())
        };
        // Land inside the register delay: the map already says page 2 →
        // frame 0, but the frame still holds page 1's bytes.
        std::thread::sleep(Duration::from_millis(40));
        let main_read = a.get_page(2).unwrap();
        assert_eq!(main_read.get(2).unwrap(), b"two", "read-skew: served prior tenant's bytes");
        assert_eq!(t.join().unwrap().get(2).unwrap(), b"two");
    }

    #[test]
    fn concurrent_reader_never_sees_stale_data() {
        let r = rig();
        let writer = Arc::new(bm(&r, 0));
        let reader = Arc::new(bm(&r, 1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || {
                for i in 0..300u64 {
                    let mut p = Page::new();
                    p.set(1, &i.to_be_bytes());
                    writer.put_page(1, &p).unwrap();
                }
            })
        };
        let rd = {
            let reader = Arc::clone(&reader);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let p = reader.get_page(1).unwrap();
                    if let Some(v) = p.get(1) {
                        let v = u64::from_be_bytes(v.try_into().unwrap());
                        assert!(v >= last, "monotone: saw {v} after {last}");
                        last = v;
                    }
                }
                last
            })
        };
        w.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Release);
        let last = rd.join().unwrap();
        assert!(last <= 299);
        // Final read agrees with the last write.
        let p = reader.get_page(1).unwrap();
        assert_eq!(u64::from_be_bytes(p.get(1).unwrap().try_into().unwrap()), 299);
    }
}
