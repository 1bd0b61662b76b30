//! A RACF-style shared security manager on the directory-only cache (§5.1).
//!
//! Access-control profiles live in a shared security database on DASD;
//! every system caches the profiles it checks against. The cache must be
//! coherent sysplex-wide — a revoked permission must take effect on every
//! system at once — but the profiles are small and DASD-resident, so this
//! exploiter uses the **directory-only** cache model: the CF tracks who
//! caches what and delivers cross-invalidates, while the data itself is
//! re-read from DASD after an invalidation. (Contrast with the database's
//! store-in group buffer pool — this is the other §3.3.2 deployment.)

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use sysplex_core::cache::{BlockName, CacheParams, CacheStructure, WriteKind};
use sysplex_core::connection::{CacheConnection, CfSubchannel};
use sysplex_core::error::CfResult;
use sysplex_core::hashing::fnv1a64;
use sysplex_core::stats::Counter;
use sysplex_core::wire::{from_bytes, to_bytes};
use sysplex_core::{wire_enum, wire_struct, SystemId};
use sysplex_dasd::error::IoResult;
use sysplex_dasd::farm::DasdFarm;

/// Access levels, ordered by privilege.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Access {
    /// No access.
    None,
    /// Read only.
    Read,
    /// Read and update.
    Update,
    /// Full control.
    Alter,
}

wire_enum!(impl Wire for Access("racf-access") { 0 None, 1 Read, 2 Update, 3 Alter });

/// A resource profile: who may do what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Protected resource name (e.g. "PROD.PAYROLL.MASTER").
    pub resource: String,
    /// Access granted to users not on the ACL.
    pub universal_access: Access,
    /// Per-user grants.
    pub acl: Vec<(String, Access)>,
}

impl Profile {
    /// The access `user` holds under this profile.
    pub fn access_for(&self, user: &str) -> Access {
        self.acl.iter().find(|(u, _)| u == user).map(|(_, a)| *a).unwrap_or(self.universal_access)
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// `None` for anything that is not exactly one encoded profile — a
    /// never-written block included.
    pub(crate) fn decode(data: &[u8]) -> Option<Profile> {
        from_bytes(data).ok()
    }
}

wire_struct! { Profile { resource, universal_access, acl } }

/// The shared security database on DASD (open-addressed by resource hash).
pub struct SecurityDatabase {
    farm: Arc<DasdFarm>,
    volume: String,
    capacity: u64,
}

impl SecurityDatabase {
    /// Create over a fresh farm volume.
    pub fn create(farm: Arc<DasdFarm>, volume: &str, capacity: u64) -> IoResult<Arc<Self>> {
        farm.add_volume(volume, capacity, 4)?;
        Ok(Arc::new(SecurityDatabase { farm, volume: volume.to_string(), capacity }))
    }

    fn probe(&self, resource: &str) -> impl Iterator<Item = u64> + '_ {
        let start = fnv1a64(resource.as_bytes()) % self.capacity;
        let cap = self.capacity;
        (0..cap).map(move |i| (start + i) % cap)
    }

    /// Write (or replace) a profile.
    pub fn write_profile(&self, system: u8, profile: &Profile) -> IoResult<bool> {
        let encoded = profile.encode();
        for block in self.probe(&profile.resource) {
            let claimed =
                self.farm.update(system, &self.volume, block, |slot| match Profile::decode(slot) {
                    Some(p) if p.resource == profile.resource => {
                        slot.clear();
                        slot.extend_from_slice(&encoded);
                        true
                    }
                    Some(_) => false,
                    None => {
                        slot.clear();
                        slot.extend_from_slice(&encoded);
                        true
                    }
                })?;
            if claimed {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Read a profile.
    pub fn read_profile(&self, system: u8, resource: &str) -> IoResult<Option<Profile>> {
        for block in self.probe(resource) {
            let data = self.farm.read(system, &self.volume, block)?;
            match Profile::decode(&data) {
                Some(p) if p.resource == resource => return Ok(Some(p)),
                Some(_) => continue,
                None => return Ok(None),
            }
        }
        Ok(None)
    }
}

/// Cache geometry for the security manager's CF structure.
pub fn security_cache_params(entries: usize) -> CacheParams {
    CacheParams::directory_only(entries)
}

/// Counters published by a security node.
#[derive(Debug, Default)]
pub struct RacfStats {
    /// Authorization checks performed.
    pub checks: Counter,
    /// Checks served from the coherent local cache (no CF, no DASD).
    pub local_hits: Counter,
    /// Profile reads from DASD (cold or after invalidation).
    pub dasd_reads: Counter,
}

struct LocalCache {
    map: HashMap<String, (Option<Profile>, u32)>,
    index_of: HashMap<u32, String>,
    rotor: u32,
    size: u32,
}

/// A per-system security manager node.
pub struct RacfNode {
    system: SystemId,
    db: Arc<SecurityDatabase>,
    conn: CacheConnection,
    local: Mutex<LocalCache>,
    /// Published counters.
    pub stats: RacfStats,
}

fn block_of(resource: &str) -> BlockName {
    // 'RACF' discriminator + 64-bit hash of the resource name.
    BlockName::from_parts(0x5241_4346, fnv1a64(resource.as_bytes()))
}

impl RacfNode {
    /// Attach a node with a local cache of `slots` profiles, issuing CF
    /// commands through `sub`.
    pub fn start(
        system: SystemId,
        db: Arc<SecurityDatabase>,
        cache: &Arc<CacheStructure>,
        sub: CfSubchannel,
        slots: u32,
    ) -> CfResult<Self> {
        let conn = CacheConnection::attach(cache, sub, slots as usize)?;
        Ok(RacfNode {
            system,
            db,
            conn,
            local: Mutex::new(LocalCache {
                map: HashMap::new(),
                index_of: HashMap::new(),
                rotor: 0,
                size: slots,
            }),
            stats: RacfStats::default(),
        })
    }

    /// Authorization check: may `user` access `resource` at `requested`?
    /// Unprotected resources (no profile) are denied — protect-by-default.
    pub fn check(&self, user: &str, resource: &str, requested: Access) -> CfResult<bool> {
        self.stats.checks.incr();
        let profile = self.profile_for(resource)?;
        Ok(profile.map(|p| p.access_for(user) >= requested).unwrap_or(false))
    }

    fn profile_for(&self, resource: &str) -> CfResult<Option<Profile>> {
        {
            let local = self.local.lock();
            if let Some((profile, idx)) = local.map.get(resource) {
                if self.conn.is_valid(*idx) {
                    self.stats.local_hits.incr();
                    return Ok(profile.clone());
                }
            }
        }
        // Cold or invalidated: register, then read DASD (directory-only —
        // the CF never holds the data). The same command unregisters a
        // stolen slot's previous profile.
        let mut local = self.local.lock();
        let (idx, evicted) = match local.map.get(resource) {
            Some((_, idx)) => (*idx, None),
            None => {
                let idx = local.rotor % local.size;
                local.rotor += 1;
                let evicted = local.index_of.remove(&idx);
                if let Some(old) = &evicted {
                    local.map.remove(old);
                }
                local.index_of.insert(idx, resource.to_string());
                (idx, evicted.map(|old| block_of(&old)))
            }
        };
        self.conn.register_read_replacing(block_of(resource), idx, evicted)?;
        self.stats.dasd_reads.incr();
        let profile = self.db.read_profile(self.system.0, resource).unwrap_or(None);
        if !self.conn.is_valid(idx) {
            // Raced with an admin update; next check refetches.
            local.map.remove(resource);
            return Ok(profile);
        }
        local.map.insert(resource.to_string(), (profile.clone(), idx));
        Ok(profile)
    }

    /// Administrative update: write the profile to the shared database and
    /// cross-invalidate every node's cached copy — the revocation is
    /// sysplex-wide before this returns.
    pub fn admin_update(&self, profile: &Profile) -> CfResult<usize> {
        self.db
            .write_profile(self.system.0, profile)
            .map_err(|_| sysplex_core::CfError::StructureFull)
            .and_then(|ok| {
                if !ok {
                    return Err(sysplex_core::CfError::StructureFull);
                }
                let w = self.conn.write_invalidate(
                    block_of(&profile.resource),
                    &[],
                    WriteKind::InvalidateOnly,
                )?;
                // Drop our own stale copy too.
                self.local.lock().map.remove(&profile.resource);
                Ok(w.invalidated)
            })
    }
}

impl std::fmt::Debug for RacfNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RacfNode").field("system", &self.system).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_dasd::volume::IoModel;

    fn rig() -> (Arc<SecurityDatabase>, Arc<CouplingFacility>) {
        let farm = DasdFarm::new(IoModel::instant());
        let db = SecurityDatabase::create(farm, "RACFDB", 256).unwrap();
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_cache_structure("IRRXCF00", security_cache_params(256)).unwrap();
        (db, cf)
    }

    fn node(db: &Arc<SecurityDatabase>, cf: &Arc<CouplingFacility>, sys: u8, slots: u32) -> RacfNode {
        let cache = cf.cache_structure("IRRXCF00").unwrap();
        RacfNode::start(SystemId::new(sys), Arc::clone(db), &cache, cf.subchannel(), slots).unwrap()
    }

    fn profile(resource: &str, uacc: Access, acl: &[(&str, Access)]) -> Profile {
        Profile {
            resource: resource.into(),
            universal_access: uacc,
            acl: acl.iter().map(|(u, a)| (u.to_string(), *a)).collect(),
        }
    }

    #[test]
    fn profile_codec_roundtrip() {
        let p = profile("PROD.PAYROLL", Access::None, &[("ALICE", Access::Update), ("BOB", Access::Read)]);
        assert_eq!(Profile::decode(&p.encode()).unwrap(), p);
        assert_eq!(p.access_for("ALICE"), Access::Update);
        assert_eq!(p.access_for("EVE"), Access::None);
    }

    #[test]
    fn checks_enforce_acl_and_protect_by_default() {
        let (db, cf) = rig();
        let node = node(&db, &cf, 0, 32);
        node.admin_update(&profile("PROD.DATA", Access::Read, &[("ADMIN", Access::Alter)])).unwrap();
        assert!(node.check("ANYONE", "PROD.DATA", Access::Read).unwrap());
        assert!(!node.check("ANYONE", "PROD.DATA", Access::Update).unwrap());
        assert!(node.check("ADMIN", "PROD.DATA", Access::Alter).unwrap());
        assert!(!node.check("ANYONE", "UNPROTECTED", Access::Read).unwrap(), "protect by default");
    }

    #[test]
    fn repeated_checks_hit_the_local_cache() {
        let (db, cf) = rig();
        let node = node(&db, &cf, 0, 32);
        node.admin_update(&profile("APP.RES", Access::Read, &[])).unwrap();
        for _ in 0..10 {
            assert!(node.check("U", "APP.RES", Access::Read).unwrap());
        }
        assert_eq!(node.stats.dasd_reads.get(), 1, "one cold read, then cached");
        assert_eq!(node.stats.local_hits.get(), 9);
    }

    #[test]
    fn revocation_is_sysplex_wide_immediately() {
        let (db, cf) = rig();
        let a = node(&db, &cf, 0, 32);
        let b = node(&db, &cf, 1, 32);
        a.admin_update(&profile("SECRET", Access::None, &[("CONTRACTOR", Access::Read)])).unwrap();
        assert!(b.check("CONTRACTOR", "SECRET", Access::Read).unwrap());
        assert!(b.check("CONTRACTOR", "SECRET", Access::Read).unwrap(), "cached on B");
        // Admin on A revokes; B's cached copy is cross-invalidated.
        let invalidated = a.admin_update(&profile("SECRET", Access::None, &[])).unwrap();
        assert_eq!(invalidated, 1, "B's registration was signalled");
        assert!(!b.check("CONTRACTOR", "SECRET", Access::Read).unwrap(), "revoked everywhere at once");
        assert!(b.stats.dasd_reads.get() >= 2, "B re-read after invalidation");
    }

    #[test]
    fn cache_slot_recycling_keeps_correctness() {
        let (db, cf) = rig();
        let node = node(&db, &cf, 0, 4);
        for i in 0..20 {
            node.admin_update(&profile(&format!("RES.{i}"), Access::Read, &[])).unwrap();
        }
        for round in 0..2 {
            for i in 0..20 {
                assert!(node.check("U", &format!("RES.{i}"), Access::Read).unwrap(), "round {round} res {i}");
            }
        }
    }
}
