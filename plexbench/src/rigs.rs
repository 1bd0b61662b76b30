//! The rigs under test, built from the public API only, and the public
//! counters read off them. Every layer is measured from outside: by timing
//! calls into public functions and by diffing these counters across the
//! measured window.

use parallel_sysplex::cf::cache::{CacheParams, CacheStructure};
use parallel_sysplex::cf::facility::CouplingFacility;
use parallel_sysplex::cf::list::ListParams;
use parallel_sysplex::cf::lock::{LockParams, LockStructure};
use parallel_sysplex::cf::{CommandClass, SystemId};
use parallel_sysplex::db::castout::{CastoutConfig, CastoutDaemon};
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::Database;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

// Sizing shared by every rig, so numbers from different workloads and
// from the probes describe the same structures.
pub const LOCK_ENTRIES: usize = 65_536;
pub const CACHE_ENTRIES: usize = 16_384;
pub const PAGES: u64 = 16_384;
pub const LOG_BLOCKS: u64 = 1 << 22;
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(500);
/// `Database::run` retry budget.
pub const RETRIES: usize = 500;

pub const LOCK_STRUCTURE: &str = "PB_LOCK";
pub const CACHE_STRUCTURE: &str = "PB_CACHE";
pub const LIST_STRUCTURE: &str = "PB_LIST";
const DATA_VOLUME: &str = "DSGDB01";

/// Named counter values read at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn add(&mut self, key: impl Into<String>, value: u64) {
        *self.0.entry(key.into()).or_default() += value;
    }

    /// Value of `key` as a float (0 when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0) as f64
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0.iter().map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0))).collect(),
        )
    }
}

fn functional_plex() -> (Arc<Sysplex>, Arc<CouplingFacility>) {
    // Functional mode: instant links and DASD, so every microsecond
    // measured is the program's own. Component trace stays off.
    let plex = Sysplex::new(SysplexConfig::functional("PLEXBENCH"));
    let cf = plex.add_cf("CF01");
    (plex, cf)
}

/// Facility-wide command accounting and structure counters.
fn cf_counters(cf: &CouplingFacility, c: &mut Counters) {
    let stats = cf.command_stats();
    for class in CommandClass::ALL {
        let s = stats.class(class);
        let name = class.name();
        let total_ns = s.latency.snapshot().total_ns;
        c.add(format!("cmd.{name}.issued"), s.issued.get());
        c.add("cmd.issued", s.issued.get());
        c.add("cmd.sync", s.sync.get());
        c.add("cmd.async", s.async_converted.get());
        c.add("cmd.faulted", s.faulted.get());
        c.add("cmd.total_ns", total_ns);
    }
}

fn structure_counters(lock: &LockStructure, cache: &CacheStructure, c: &mut Counters) {
    c.add("lock.requests", lock.stats.requests.get());
    c.add("lock.sync_grants", lock.stats.sync_grants.get());
    c.add("lock.contentions", lock.stats.contentions.get());
    c.add("cache.reads", cache.stats.reads.get());
    c.add("cache.read_hits", cache.stats.read_hits.get());
    c.add("cache.writes", cache.stats.writes.get());
    c.add("cache.xi_signals", cache.stats.xi_signals.get());
    c.add("cache.reclaims", cache.stats.reclaims.get());
}

/// A data-sharing group with one castout daemon per member.
pub struct DbRig {
    // Field order is drop order: daemons stop before their members go.
    pub daemons: Vec<CastoutDaemon>,
    pub members: Vec<Arc<Database>>,
    pub group: Arc<DataSharingGroup>,
    pub cf: Arc<CouplingFacility>,
    _plex: Arc<Sysplex>,
}

impl DbRig {
    pub fn build(members: u8, buffer_frames: usize) -> DbRig {
        let (plex, cf) = functional_plex();
        let mut config = GroupConfig {
            lock_entries: LOCK_ENTRIES,
            cache_entries: CACHE_ENTRIES,
            pages: PAGES,
            log_blocks: LOG_BLOCKS,
            ..GroupConfig::default()
        };
        config.db.lock_timeout = LOCK_TIMEOUT;
        config.db.buffer_frames = buffer_frames;
        let group =
            DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone())
                .expect("allocate group structures");
        let members: Vec<_> =
            (0..members).map(|i| group.add_member(SystemId::new(i)).expect("join member")).collect();
        let daemons =
            members.iter().map(|m| CastoutDaemon::start(Arc::clone(m), CastoutConfig::default())).collect();
        DbRig { daemons, members, group, cf, _plex: plex }
    }

    /// Join one more member with no daemon and no client: the auditor,
    /// which reads back what the measured members wrote.
    pub fn add_auditor(&self) -> Arc<Database> {
        self.group.add_member(SystemId::new(self.members.len() as u8)).expect("join auditor")
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        cf_counters(&self.cf, &mut c);
        for (i, db) in self.members.iter().enumerate() {
            c.add("db.reads", db.stats.reads.get());
            c.add("db.writes", db.stats.writes.get());
            c.add("db.commits", db.stats.commits.get());
            c.add("db.aborts", db.stats.aborts.get());
            let irlm = &db.irlm().stats;
            c.add("irlm.requests", irlm.requests.get());
            c.add("irlm.no_cf_grants", irlm.grants_local.get() + irlm.regrants_local.get());
            c.add("irlm.grants_cf_sync", irlm.grants_cf_sync.get());
            c.add("irlm.contentions", irlm.contentions.get());
            c.add("irlm.false_contentions", irlm.false_contentions.get());
            c.add("irlm.real_conflicts", irlm.real_conflicts.get());
            c.add("irlm.queries_served", irlm.queries_served.get());
            c.add("irlm.lazy_releases", irlm.lazy_releases.get());
            c.add("irlm.recalls", irlm.recalls.get());
            let buf = &db.buffers().stats;
            c.add("buf.local_hits", buf.local_hits.get());
            c.add("buf.coherency_misses", buf.coherency_misses.get());
            c.add("buf.cf_refreshes", buf.cf_refreshes.get());
            c.add("buf.dasd_reads", buf.dasd_reads.get());
            c.add("buf.writes", buf.writes.get());
            let log = self.volume_writes(&format!("DSGLOG{:02}", db.system().0));
            c.add("log.writes", log);
            c.add(format!("log.writes.m{i}"), log);
        }
        let data = self.group.farm.volume(DATA_VOLUME).expect("data volume");
        c.add("dasd.data_reads", data.volume().stats.reads.load(Ordering::Relaxed));
        c.add("dasd.data_writes", data.volume().stats.writes.load(Ordering::Relaxed));
        for d in &self.daemons {
            c.add("castout.pages", d.pages_cast_out.load(Ordering::Relaxed));
            c.add("castout.checkpoints", d.checkpoints.load(Ordering::Relaxed));
        }
        structure_counters(&self.group.lock_structure(), &self.group.cache_structure(), &mut c);
        c
    }

    fn volume_writes(&self, volume: &str) -> u64 {
        self.group.farm.volume(volume).expect("log volume").volume().stats.writes.load(Ordering::Relaxed)
    }

    /// Stop the castout daemons (joins their threads).
    pub fn stop_daemons(&mut self) {
        for d in self.daemons.drain(..) {
            d.stop();
        }
    }

    /// Orderly shutdown: daemons join, members leave.
    pub fn teardown(mut self) {
        self.stop_daemons();
        for m in self.group.members() {
            self.group.remove_member(m.system());
        }
    }
}

/// One CF with a lock, a cache and a list structure and no database.
pub struct CfRig {
    pub cf: Arc<CouplingFacility>,
    _plex: Arc<Sysplex>,
}

impl CfRig {
    pub fn build(list_headers: usize) -> CfRig {
        let (plex, cf) = functional_plex();
        cf.allocate_lock_structure(LOCK_STRUCTURE, LockParams::with_entries(LOCK_ENTRIES))
            .expect("lock structure");
        cf.allocate_cache_structure(CACHE_STRUCTURE, CacheParams::store_in(CACHE_ENTRIES))
            .expect("cache structure");
        cf.allocate_list_structure(LIST_STRUCTURE, ListParams::with_headers(list_headers))
            .expect("list structure");
        CfRig { cf, _plex: plex }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        cf_counters(&self.cf, &mut c);
        let lock = self.cf.lock_structure(LOCK_STRUCTURE).expect("lock structure");
        let cache = self.cf.cache_structure(CACHE_STRUCTURE).expect("cache structure");
        structure_counters(&lock, &cache, &mut c);
        c
    }
}
