//! A data-sharing group: N database instances over one CF + one DASD farm.
//!
//! This is the assembly the paper's Figure 2 draws — database managers on
//! every system, their lock and buffer managers wired to the same CF lock
//! and cache structures, shared DASD underneath. Tests, examples and
//! benches use it to stand up an OLTP data-sharing group in a few lines.

use crate::bufmgr::BufferManager;
use crate::database::{Database, DbConfig};
use crate::error::{DbError, DbResult};
use crate::irlm::Irlm;
use crate::log::LogManager;
use crate::pagestore::PageStore;
use crate::recovery::{recover_peer, FailedMember, RecoveryReport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use sysplex_core::cache::{CacheParams, CacheStructure};
use sysplex_core::connection::{CfSubchannel, LockConnection};
use sysplex_core::facility::CouplingFacility;
use sysplex_core::lock::{LockParams, LockStructure};
use sysplex_core::{CfError, SystemId};
use sysplex_dasd::farm::DasdFarm;
use sysplex_services::timer::SysplexTimer;
use sysplex_services::xcf::Xcf;

/// Group-wide sizing.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Lock-table entries (E10 sweeps this).
    pub lock_entries: usize,
    /// Cache directory entries.
    pub cache_entries: usize,
    /// Database pages.
    pub pages: u64,
    /// Blocks per member log volume.
    pub log_blocks: u64,
    /// Per-instance database tuning.
    pub db: DbConfig,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            lock_entries: 4096,
            cache_entries: 4096,
            pages: 256,
            log_blocks: 65_536,
            db: DbConfig::default(),
        }
    }
}

/// The assembled data-sharing group.
///
/// ```
/// use sysplex_core::facility::{CfConfig, CouplingFacility};
/// use sysplex_core::SystemId;
/// use sysplex_dasd::{farm::DasdFarm, volume::IoModel};
/// use sysplex_db::group::{DataSharingGroup, GroupConfig};
/// use sysplex_services::{timer::SysplexTimer, xcf::Xcf};
///
/// let cf = CouplingFacility::new(CfConfig::named("CF01"));
/// let timer = SysplexTimer::new();
/// let xcf = Xcf::new(timer.clone());
/// let group = DataSharingGroup::new(
///     GroupConfig::default(), &cf, DasdFarm::new(IoModel::instant()), timer, xcf,
/// ).unwrap();
/// let a = group.add_member(SystemId::new(0)).unwrap();
/// let b = group.add_member(SystemId::new(1)).unwrap();
/// a.run(5, |db, txn| db.write(txn, 1, Some(b"shared"))).unwrap();
/// assert_eq!(b.run(5, |db, txn| db.read(txn, 1)).unwrap().unwrap(), b"shared");
/// group.remove_member(SystemId::new(0));
/// group.remove_member(SystemId::new(1));
/// ```
pub struct DataSharingGroup {
    config: GroupConfig,
    /// The shared DASD farm.
    pub farm: Arc<DasdFarm>,
    /// The sysplex timer.
    pub timer: Arc<SysplexTimer>,
    /// XCF (lock negotiation traffic).
    pub xcf: Arc<Xcf>,
    /// Current CF lock structure (swapped by [`DataSharingGroup::rebuild_into`]).
    lock_structure: parking_lot::RwLock<Arc<LockStructure>>,
    /// Current CF cache structure (group buffer pool).
    cache_structure: parking_lot::RwLock<Arc<CacheStructure>>,
    /// Command subchannel template for the CF currently hosting the
    /// structures; every member connection issues through a sibling of it
    /// (same facility, own accounting cell).
    subchannel: parking_lot::RwLock<CfSubchannel>,
    /// The shared page store.
    pub store: Arc<PageStore>,
    /// Rebuild generation counter (names the replacement structures).
    generation: std::sync::atomic::AtomicU32,
    /// Current lock-table entry count. Starts at the configured size and
    /// grows with [`DataSharingGroup::resize_lock_table`]; rebuilds and
    /// duplex secondaries allocate at this size, not the original one.
    lock_entries: std::sync::atomic::AtomicUsize,
    members: Mutex<HashMap<SystemId, Arc<Database>>>,
}

impl DataSharingGroup {
    /// Stand the group infrastructure up on a CF and a farm (no members
    /// yet). `timer` is the timer `xcf` was created with: IRLM lock waits
    /// run on the XCF service's clock, everything else on `timer`, and a
    /// virtual-timer group must break deadlocks on the same simulated time.
    pub fn new(
        config: GroupConfig,
        cf: &CouplingFacility,
        farm: Arc<DasdFarm>,
        timer: Arc<SysplexTimer>,
        xcf: Arc<Xcf>,
    ) -> DbResult<Arc<Self>> {
        debug_assert!(Arc::ptr_eq(&timer, xcf.timer()), "a group and its XCF service share one timer");
        let lock_structure =
            cf.allocate_lock_structure("DSG_LOCK1", LockParams::with_entries(config.lock_entries))?;
        let cache_structure =
            cf.allocate_cache_structure("DSG_GBP0", CacheParams::store_in(config.cache_entries))?;
        farm.add_volume("DSGDB01", config.pages, 4)?;
        let store = PageStore::new(&farm, "DSGDB01", 1, config.pages)?;
        let lock_entries = config.lock_entries;
        Ok(Arc::new(DataSharingGroup {
            config,
            farm,
            timer,
            xcf,
            lock_structure: parking_lot::RwLock::new(lock_structure),
            cache_structure: parking_lot::RwLock::new(cache_structure),
            subchannel: parking_lot::RwLock::new(cf.subchannel()),
            store,
            generation: std::sync::atomic::AtomicU32::new(0),
            lock_entries: std::sync::atomic::AtomicUsize::new(lock_entries),
            members: Mutex::new(HashMap::new()),
        }))
    }

    /// The CF lock structure currently in use.
    pub fn lock_structure(&self) -> Arc<LockStructure> {
        Arc::clone(&self.lock_structure.read())
    }

    /// The CF cache structure (group buffer pool) currently in use.
    pub fn cache_structure(&self) -> Arc<CacheStructure> {
        Arc::clone(&self.cache_structure.read())
    }

    fn log_volume(system: SystemId) -> String {
        format!("DSGLOG{:02}", system.0)
    }

    /// Join `system` to the group: IRLM + buffer pool + log + database.
    pub fn add_member(&self, system: SystemId) -> DbResult<Arc<Database>> {
        // Tag the member's subchannels so traced events carry the issuing
        // system's identity (the trace ring they land in).
        let sub = || self.subchannel.read().sibling().with_system(system);
        let lock_conn = LockConnection::attach(&self.lock_structure(), sub())?;
        let irlm = Irlm::start(system, lock_conn, &self.xcf)?;
        let frames = self.config.db.buffer_frames;
        let buf =
            BufferManager::new(system, &self.cache_structure(), sub(), Arc::clone(&self.store), frames)?;
        let volume = Self::log_volume(system);
        if self.farm.volume(&volume).is_err() {
            self.farm.add_volume(&volume, self.config.log_blocks, 2)?;
        }
        let log = LogManager::new(system.0, &self.farm, &volume)?;
        let db = Arc::new(Database::new(
            system,
            irlm,
            buf,
            log,
            Arc::clone(&self.store),
            Arc::clone(&self.timer),
            self.config.db,
        ));
        self.members.lock().insert(system, Arc::clone(&db));
        Ok(db)
    }

    /// Look up a member.
    pub fn member(&self, system: SystemId) -> Option<Arc<Database>> {
        self.members.lock().get(&system).cloned()
    }

    /// Active members, sorted by system.
    pub fn members(&self) -> Vec<Arc<Database>> {
        let mut v: Vec<Arc<Database>> = self.members.lock().values().cloned().collect();
        v.sort_by_key(|d| d.system());
        v
    }

    /// Orderly departure of a member (planned removal).
    pub fn remove_member(&self, system: SystemId) {
        if let Some(db) = self.members.lock().remove(&system) {
            db.shutdown();
        }
    }

    /// Crash a member: its IRLM service stops dead; **no CF cleanup
    /// happens** — exactly the state a system failure leaves behind.
    /// Returns the identity peer recovery will need.
    pub fn crash_member(&self, system: SystemId) -> Option<FailedMember> {
        let db = self.members.lock().remove(&system)?;
        db.irlm().crash();
        Some(FailedMember {
            lock_conn: db.irlm().conn(),
            cache_conn: db.buffers().conn_id(),
            log_volume: Self::log_volume(system),
        })
    }

    /// Run peer recovery for a crashed member on `survivor`.
    pub fn recover_on(&self, survivor: SystemId, failed: &FailedMember) -> DbResult<RecoveryReport> {
        let db = self.member(survivor).expect("survivor is a member");
        recover_peer(&db, &self.farm, &self.cache_structure(), failed)
    }

    /// Enable system-managed structure duplexing onto a second CF: every
    /// lock grant/release/record and every changed-data write is mirrored
    /// from now on, by every member's connections, a later member's too.
    /// The strongest form of "Multiple CF's can be connected for
    /// availability" — a CF loss then needs no rebuild and no destage,
    /// just [`DataSharingGroup::cf_failover`].
    pub fn enable_duplexing(&self, cf: &CouplingFacility) -> DbResult<()> {
        let generation = self.generation.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let members = self.members();
        let sec_lock = cf.allocate_lock_structure(
            &format!("DSG_LOCK1_DX{generation}"),
            LockParams::with_entries(self.lock_entries.load(std::sync::atomic::Ordering::Relaxed)),
        )?;
        let sec_cache = cf.allocate_cache_structure(
            &format!("DSG_GBP0_DX{generation}"),
            CacheParams::store_in(self.config.cache_entries),
        )?;
        let irlms: Vec<_> = members.iter().map(|d| Arc::clone(d.irlm())).collect();
        Irlm::enable_duplexing(&irlms, sec_lock, &cf.subchannel())?;
        let bufs: Vec<&BufferManager> = members.iter().map(|d| d.buffers()).collect();
        BufferManager::enable_duplexing(&bufs, sec_cache, &cf.subchannel())
    }

    /// The primary CF failed (or is being retired): promote the duplexed
    /// secondaries on every member, or — when either structure's pair is
    /// broken — change nothing and fail. Held locks stay held; changed
    /// data stays in the (new) group buffer; no recovery runs.
    pub fn cf_failover(&self) -> DbResult<()> {
        let members = self.members();
        let Some(first) = members.first() else { return Err(DbError::Cf(CfError::WrongModel)) };
        let irlms: Vec<_> = members.iter().map(|d| Arc::clone(d.irlm())).collect();
        let bufs: Vec<&BufferManager> = members.iter().map(|d| d.buffers()).collect();
        Irlm::failover_all(&irlms, || BufferManager::failover_all(&bufs))?;
        *self.lock_structure.write() = first.irlm().structure();
        *self.cache_structure.write() = first.buffers().structure();
        *self.subchannel.write() = first.irlm().subchannel();
        Ok(())
    }

    /// Whether structure duplexing is active: every member's connections
    /// to both structures mirror into intact pairs.
    pub fn is_duplexed(&self) -> bool {
        let members = self.members();
        !members.is_empty() && members.iter().all(|d| d.irlm().is_duplexed() && d.buffers().is_duplexed())
    }

    /// Rebuild both CF structures into `cf` (planned CF maintenance or CF
    /// failure, §3.3: "Multiple CF's can be connected for availability").
    ///
    /// All members are quiesced, the lock space is re-created from their
    /// in-storage lock tables, changed group-buffer data is destaged to
    /// DASD, and every member reconnects to the replacement structures.
    /// Transactions in flight simply stall for the (sub-millisecond here)
    /// rebuild window. Any failed-persistent member must be peer-recovered
    /// *before* rebuilding — its retained state lives only in the old
    /// structure. The group is simplex afterwards.
    pub fn rebuild_into(&self, cf: &CouplingFacility) -> DbResult<()> {
        let generation = self.generation.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let members = self.members();
        self.cache_structure().end_duplexing();
        let new_lock = cf.allocate_lock_structure(
            &format!("DSG_LOCK1_G{generation}"),
            LockParams::with_entries(self.lock_entries.load(std::sync::atomic::Ordering::Relaxed)),
        )?;
        let new_cache = cf.allocate_cache_structure(
            &format!("DSG_GBP0_G{generation}"),
            CacheParams::store_in(self.config.cache_entries),
        )?;
        let new_sub = cf.subchannel();
        let irlms: Vec<_> = members.iter().map(|d| Arc::clone(d.irlm())).collect();
        Irlm::rebuild_all(&irlms, Arc::clone(&new_lock), &new_sub)?;
        let bufs: Vec<&BufferManager> = members.iter().map(|d| d.buffers()).collect();
        BufferManager::rebuild_all(&bufs, Arc::clone(&new_cache), &new_sub)?;
        *self.lock_structure.write() = new_lock;
        *self.cache_structure.write() = new_cache;
        *self.subchannel.write() = new_sub;
        Ok(())
    }

    /// Lock-table entry count of the structure currently in use.
    pub fn lock_entries(&self) -> usize {
        self.lock_entries.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Grow the CF lock table online (adaptive sizing against false
    /// contention, §3.3.1): a quiesced group-wide rebuild into a fresh
    /// structure with `new_entries` entries on `cf` — the hosting CF; a
    /// resize does not migrate CFs — reusing the §3.3 rebuild machinery,
    /// so every live lock and persistent record is rehashed against the
    /// new geometry and nothing is lost or duplicated. Parked (lazily
    /// released) interest is not re-created. Duplexing of both structures
    /// ends with the resize; re-enable it afterwards if desired.
    pub fn resize_lock_table(&self, cf: &CouplingFacility, new_entries: usize) -> DbResult<()> {
        let generation = self.generation.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let members = self.members();
        self.cache_structure().end_duplexing();
        let new_lock = cf.allocate_lock_structure(
            &format!("DSG_LOCK1_G{generation}"),
            LockParams::with_entries(new_entries),
        )?;
        let new_sub = cf.subchannel();
        let irlms: Vec<_> = members.iter().map(|d| Arc::clone(d.irlm())).collect();
        Irlm::resize_all(&irlms, Arc::clone(&new_lock), &new_sub)?;
        *self.lock_structure.write() = new_lock;
        self.lock_entries.store(new_entries, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

impl std::fmt::Debug for DataSharingGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataSharingGroup").field("members", &self.members.lock().len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;
    use sysplex_core::facility::CfConfig;
    use sysplex_dasd::volume::IoModel;

    fn group() -> Arc<DataSharingGroup> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        // Tests break deadlocks fast; production keeps the longer default.
        let mut config = GroupConfig::default();
        config.db.lock_timeout = std::time::Duration::from_millis(150);
        DataSharingGroup::new(config, &cf, farm, timer, xcf).unwrap()
    }

    #[test]
    fn two_members_share_reads_and_writes() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let b = g.add_member(SystemId::new(1)).unwrap();

        // a writes, b reads — directly, concurrently, with integrity.
        a.run(0, |db, txn| {
            db.write(txn, 100, Some(b"balance=500"))?;
            db.write(txn, 200, Some(b"balance=700"))
        })
        .unwrap();
        let v = b.run(0, |db, txn| db.read(txn, 100)).unwrap();
        assert_eq!(v.unwrap(), b"balance=500");

        // b updates the same record; a sees the new value (coherency).
        b.run(0, |db, txn| db.write(txn, 100, Some(b"balance=450"))).unwrap();
        let v = a.run(0, |db, txn| db.read(txn, 100)).unwrap();
        assert_eq!(v.unwrap(), b"balance=450");
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn conflicting_writers_serialize_or_time_out() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let b = g.add_member(SystemId::new(1)).unwrap();
        let mut ta = a.begin();
        a.write(&mut ta, 5, Some(b"from-a")).unwrap();
        // b cannot write the same record while a holds the X lock.
        let mut tb = b.begin();
        let err = b.write(&mut tb, 5, Some(b"from-b"));
        assert!(matches!(err, Err(DbError::LockTimeout { .. })));
        b.abort(&mut tb).unwrap();
        a.commit(&mut ta).unwrap();
        // Now b can.
        b.run(0, |db, txn| db.write(txn, 5, Some(b"from-b"))).unwrap();
        let v = a.run(0, |db, txn| db.read(txn, 5)).unwrap();
        assert_eq!(v.unwrap(), b"from-b");
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn crash_mid_transaction_backs_out_and_frees_locks() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let b = g.add_member(SystemId::new(1)).unwrap();

        // Committed baseline.
        a.run(0, |db, txn| db.write(txn, 10, Some(b"committed"))).unwrap();
        g.members().iter().for_each(|m| {
            m.buffers().castout(100).unwrap();
        });

        // a dies mid-transaction, after staging + partially committing:
        // emulate the worst case by running the commit steps manually up
        // to page externalisation but not the commit record.
        let mut ta = a.begin();
        a.write(&mut ta, 10, Some(b"uncommitted")).unwrap();
        // Force the WAL, write the lock records and externalise the page
        // like commit would…
        a.log().append(crate::log::LogRecord::Update {
            lsn: g.timer.tod(),
            txn: ta.id(),
            page: g.store.page_of(10),
            key: 10,
            before: Some(b"committed".to_vec()),
            after: Some(b"uncommitted".to_vec()),
        });
        a.log().force().unwrap();
        a.irlm().write_records(ta.id()).unwrap();
        let page_no = g.store.page_of(10);
        let mut page = a.buffers().get_page(page_no).unwrap();
        page.set(10, b"uncommitted");
        a.buffers().put_page(page_no, &page).unwrap();
        // …and crash before the commit record.
        let failed = g.crash_member(SystemId::new(0)).unwrap();

        // The record is protected by the retained lock.
        let mut tb = b.begin();
        assert!(matches!(b.write(&mut tb, 10, Some(b"x")), Err(DbError::LockTimeout { .. })));
        b.abort(&mut tb).unwrap();

        // Peer recovery backs it out.
        let report = g.recover_on(SystemId::new(1), &failed).unwrap();
        assert_eq!(report.backed_out_txns, 1);
        assert_eq!(report.undone_updates, 1);
        assert!(report.retained_released >= 1);

        // The committed value is visible and writable again.
        let v = b.run(0, |db, txn| db.read(txn, 10)).unwrap();
        assert_eq!(v.unwrap(), b"committed");
        b.run(0, |db, txn| db.write(txn, 10, Some(b"post-recovery"))).unwrap();
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn a_crash_before_the_lock_records_are_written_leaves_nothing_to_back_out() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let b = g.add_member(SystemId::new(1)).unwrap();
        a.run(0, |db, txn| db.write(txn, 10, Some(b"committed"))).unwrap();

        // a's next write of the row is a local re-grant, its record owed;
        // a dies after forcing the WAL, before the commit writes the
        // record — so before any page could reach shared storage.
        let mut ta = a.begin();
        a.write(&mut ta, 10, Some(b"uncommitted")).unwrap();
        assert_eq!(a.irlm().stats.regrants_local.get(), 1);
        a.log().append(crate::log::LogRecord::Update {
            lsn: g.timer.tod(),
            txn: ta.id(),
            page: g.store.page_of(10),
            key: 10,
            before: Some(b"committed".to_vec()),
            after: Some(b"uncommitted".to_vec()),
        });
        a.log().force().unwrap();
        let failed = g.crash_member(SystemId::new(0)).unwrap();
        b.irlm().mark_peer_failed(failed.lock_conn).unwrap();
        assert!(b.irlm().retained_locks_of(failed.lock_conn).unwrap().is_empty(), "a record was retained");

        // Recovery finds the transaction in flight and nothing to undo.
        let report = g.recover_on(SystemId::new(1), &failed).unwrap();
        assert_eq!((report.backed_out_txns, report.undone_updates, report.retained_released), (1, 0, 0));
        assert_eq!(b.run(0, |db, txn| db.read(txn, 10)).unwrap().unwrap(), b"committed");
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn an_abort_writes_no_log_block() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let log_volume = g.farm.volume("DSGLOG00").unwrap();
        let writes = || log_volume.volume().stats.writes.load(std::sync::atomic::Ordering::Relaxed);
        let mut txn = a.begin();
        a.write(&mut txn, 7, Some(b"never")).unwrap();
        let before = writes();
        a.abort(&mut txn).unwrap();
        assert_eq!(writes(), before, "an abort has nothing in the log to end");
        // Nor does it need the log volume.
        log_volume.volume().set_online(false);
        let mut txn = a.begin();
        a.write(&mut txn, 7, Some(b"never")).unwrap();
        assert_eq!(a.abort(&mut txn), Ok(()));
        assert!(a.irlm().held_by(txn.id()).is_empty() && a.active_transactions() == 0);
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn a_commit_whose_force_fails_still_releases_and_ends() {
        let g = group();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let log_volume = g.farm.volume("DSGLOG00").unwrap();
        let mut txn = a.begin();
        a.write(&mut txn, 7, Some(b"never")).unwrap();
        log_volume.volume().set_online(false);
        assert_eq!(a.commit(&mut txn), Err(DbError::Io(sysplex_dasd::IoError::DeviceOffline)));
        assert!(a.irlm().held_by(txn.id()).is_empty(), "the failed transaction's locks leaked");
        assert_eq!(a.active_transactions(), 0, "the failed transaction is still in flight");
        // Nothing pins the member: once the volume is back, its next
        // transaction takes the lock and the log truncates behind it.
        log_volume.volume().set_online(true);
        a.run(0, |db, txn| db.write(txn, 7, Some(b"after"))).unwrap();
        assert_eq!(a.log().durable_count(), 0);
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn lock_table_resize_preserves_held_and_retained_locks() {
        use crate::irlm::LockOutcome;
        use sysplex_core::lock::LockMode;
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        // 64 entries: heavy collisions before the grow.
        let mut config = GroupConfig { lock_entries: 64, ..GroupConfig::default() };
        config.db.lock_timeout = std::time::Duration::from_millis(100);
        let g = DataSharingGroup::new(config, &cf, farm, timer, xcf).unwrap();
        let a = g.add_member(SystemId::new(0)).unwrap();
        let b = g.add_member(SystemId::new(1)).unwrap();
        let (ia, ib) = (a.irlm(), b.irlm());
        let resources: Vec<Vec<u8>> = (0..20).map(|k| format!("RES.{k:02}").into_bytes()).collect();
        for (k, r) in resources.iter().enumerate() {
            assert_eq!(ia.lock(1, r, LockMode::Exclusive, k % 2 == 0).unwrap(), LockOutcome::Granted);
        }
        // Parked interest (held-no-waiter) on top, to prove the quiesce
        // rule: parked interest is surrendered by the resize, not carried.
        ia.lock(2, b"PARKED.1", LockMode::Exclusive, false).unwrap();
        ia.unlock(2, b"PARKED.1").unwrap();

        g.resize_lock_table(&cf, 1024).unwrap();
        assert_eq!(g.lock_entries(), 1024);
        let s = g.lock_structure();
        assert_eq!(s.entries(), 1024);

        // No lost locks: every held resource still repels a foreign writer.
        for r in &resources {
            assert_eq!(ib.lock(9, r, LockMode::Exclusive, false).unwrap(), LockOutcome::Busy, "{r:?}");
        }
        // No duplicated or orphaned interest: a's entry set is exactly the
        // rehash of its held resources (the parked entry is gone).
        let mut expected: Vec<usize> = resources.iter().map(|r| s.hash_resource(r)).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(s.interest_entries(ia.conn()), expected);
        // Persistent records carried over exactly (the 10 even-indexed).
        assert_eq!(s.records_snapshot().len(), 10);
        // Parked resource is free for the taking now.
        assert_eq!(ib.lock(9, b"PARKED.1", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted);

        // And everything unwinds cleanly through the new structure.
        ia.unlock_all(1).unwrap();
        assert_eq!(s.records_snapshot().len(), 0);
        for r in &resources {
            assert_eq!(ib.lock(9, r, LockMode::Exclusive, false).unwrap(), LockOutcome::Granted, "{r:?}");
        }
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn concurrent_transfers_conserve_total() {
        // Transfers upgrade rows they both read (S, then X): the younger
        // upgrader of a row is the older's victim and reruns at once. A
        // short timeout and generous retries end the waits across rows
        // that age does not order, even on a loaded host.
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let mut config = GroupConfig::default();
        config.db.lock_timeout = std::time::Duration::from_millis(100);
        let g = DataSharingGroup::new(config, &cf, farm, timer, xcf).unwrap();
        let members: Vec<Arc<Database>> = (0..3).map(|i| g.add_member(SystemId::new(i)).unwrap()).collect();
        // 10 accounts with 100 units each.
        members[0]
            .run(0, |db, txn| {
                for acct in 0..10u64 {
                    db.write(txn, acct, Some(&100i64.to_be_bytes()))?;
                }
                Ok(())
            })
            .unwrap();
        let mut handles = Vec::new();
        for (i, m) in members.iter().enumerate() {
            let m = Arc::clone(m);
            handles.push(std::thread::spawn(move || {
                let mut rng: u64 = 0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for _ in 0..30 {
                    let from = next() % 10;
                    let to = next() % 10;
                    if from == to {
                        continue;
                    }
                    m.run(1000, |db, txn| {
                        // Lock in key order to avoid deadlocks.
                        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
                        let lo_v = i64::from_be_bytes(db.read(txn, lo)?.unwrap().try_into().unwrap());
                        let hi_v = i64::from_be_bytes(db.read(txn, hi)?.unwrap().try_into().unwrap());
                        let (mut f_v, mut t_v) = if lo == from { (lo_v, hi_v) } else { (hi_v, lo_v) };
                        f_v -= 7;
                        t_v += 7;
                        let (lo_n, hi_n) = if lo == from { (f_v, t_v) } else { (t_v, f_v) };
                        db.write(txn, lo, Some(&lo_n.to_be_bytes()))?;
                        db.write(txn, hi, Some(&hi_n.to_be_bytes()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = members[0]
            .run(0, |db, txn| {
                let mut sum = 0i64;
                for acct in 0..10u64 {
                    sum += i64::from_be_bytes(db.read(txn, acct)?.unwrap().try_into().unwrap());
                }
                Ok(sum)
            })
            .unwrap();
        assert_eq!(total, 1000, "money conserved under cross-system concurrency");
        for i in 0..3 {
            g.remove_member(SystemId::new(i));
        }
    }
}
