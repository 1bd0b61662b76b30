//! The Coupling Facility object: structure allocation and connectivity.
//!
//! "Logically, the CF storage resources can be dynamically partitioned and
//! allocated into CF 'structures', subscribing to one of three defined
//! behavior models: lock, cache, and list models. ... Multiple CF
//! structures of the same or different types can exist concurrently in the
//! same Coupling Facility." (§3.3)
//!
//! A [`CouplingFacility`] owns a registry of named structures. Systems
//! attach [`crate::link::CfLink`]s to reach it; multiple facilities can
//! coexist for availability and capacity, exactly as the paper allows.

use crate::cache::{CacheParams, CacheStructure};
use crate::connection::{
    CacheConnection, CfSubchannel, CommandAccounting, ConnectionStats, FaultInjector, LinkFault,
    ListConnection, LockConnection,
};
use crate::error::{CfError, CfResult};
use crate::link::{CfLink, LinkConfig};
use crate::list::{ListParams, ListStructure};
use crate::lock::{LockParams, LockStructure};
use crate::trace::Tracer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Facility-wide configuration.
#[derive(Debug, Clone)]
pub struct CfConfig {
    /// Facility name (e.g. "CF01").
    pub name: String,
    /// Latency model applied to links attached to this facility.
    pub link: LinkConfig,
    /// Maximum number of structures.
    pub max_structures: usize,
}

impl CfConfig {
    /// Functional-mode facility (no simulated link latency).
    pub fn named(name: &str) -> Self {
        CfConfig { name: name.to_string(), link: LinkConfig::instant(), max_structures: 64 }
    }

    /// Use a specific link latency model.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// A structure held in the facility registry.
#[derive(Debug, Clone)]
pub enum StructureHandle {
    /// Lock-model structure.
    Lock(Arc<LockStructure>),
    /// Cache-model structure.
    Cache(Arc<CacheStructure>),
    /// List-model structure.
    List(Arc<ListStructure>),
}

impl StructureHandle {
    /// Model name for reports.
    pub fn model(&self) -> &'static str {
        match self {
            StructureHandle::Lock(_) => "LOCK",
            StructureHandle::Cache(_) => "CACHE",
            StructureHandle::List(_) => "LIST",
        }
    }
}

/// A Coupling Facility.
#[derive(Debug)]
pub struct CouplingFacility {
    config: CfConfig,
    structures: Mutex<HashMap<String, StructureHandle>>,
    /// Set once by [`CouplingFacility::shutdown`]; every link shares it.
    down: Arc<AtomicBool>,
    accounting: Arc<CommandAccounting>,
    injector: Arc<FaultInjector>,
    tracer: Arc<Tracer>,
}

impl CouplingFacility {
    /// Power on a facility with its own (disabled) component tracer.
    pub fn new(config: CfConfig) -> Arc<Self> {
        CouplingFacility::with_tracer(config, Arc::new(Tracer::new()))
    }

    /// Power on a facility sharing a sysplex-wide component tracer.
    pub fn with_tracer(config: CfConfig, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(CouplingFacility {
            config,
            structures: Mutex::new(HashMap::new()),
            down: Arc::new(AtomicBool::new(false)),
            accounting: CommandAccounting::new(),
            injector: Arc::new(FaultInjector::new()),
            tracer,
        })
    }

    /// The component tracer events from this facility's subchannels and
    /// structures land in.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Facility name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Attach a coupling link to this facility (one per system in
    /// practice; links are cheap clones).
    pub fn link(&self) -> CfLink {
        CfLink::new(self.config.link, Arc::clone(&self.down))
    }

    /// A command subchannel over a fresh link, with its own accounting
    /// cell and the facility-wide fault hook. Every connection attached
    /// through this facility issues through one of these.
    pub fn subchannel(&self) -> CfSubchannel {
        CfSubchannel::with_shared(
            self.link(),
            Arc::clone(&self.accounting),
            Arc::clone(&self.injector),
            Arc::clone(&self.tracer),
        )
    }

    /// Facility-wide per-command-class accounting: the sum, taken now,
    /// over every subchannel this facility ever handed out. Take it once
    /// per report, not once per counter.
    pub fn command_stats(&self) -> ConnectionStats {
        self.accounting.sum()
    }

    /// Arm one link fault; the next command through any of this
    /// facility's subchannels consumes it.
    pub fn inject_fault(&self, fault: LinkFault) {
        self.injector.arm(fault);
    }

    /// Power the facility off: sever every attached link. Subsequent
    /// commands through any subchannel fail with [`CfError::LinkTimeout`]
    /// — the same typed error a lost in-flight command produces — so
    /// exploiter recovery paths see a facility outage exactly like a
    /// broken link. Idempotent.
    pub fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Whether [`CouplingFacility::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Connect to the named lock structure through a new subchannel.
    pub fn connect_lock(&self, name: &str) -> CfResult<LockConnection> {
        let s = self.lock_structure(name)?;
        LockConnection::attach(&s, self.subchannel())
    }

    /// Connect to the named cache structure through a new subchannel.
    pub fn connect_cache(&self, name: &str, vector_len: usize) -> CfResult<CacheConnection> {
        let s = self.cache_structure(name)?;
        CacheConnection::attach(&s, self.subchannel(), vector_len)
    }

    /// Connect to the named list structure through a new subchannel.
    pub fn connect_list(&self, name: &str, vector_len: usize) -> CfResult<ListConnection> {
        let s = self.list_structure(name)?;
        ListConnection::attach(&s, self.subchannel(), vector_len)
    }

    fn insert(&self, name: &str, handle: StructureHandle) -> CfResult<()> {
        let mut s = self.structures.lock();
        if s.len() >= self.config.max_structures {
            return Err(CfError::FacilityFull);
        }
        if s.contains_key(name) {
            return Err(CfError::StructureExists(name.to_string()));
        }
        s.insert(name.to_string(), handle);
        Ok(())
    }

    /// Allocate a lock-model structure.
    pub fn allocate_lock_structure(&self, name: &str, params: LockParams) -> CfResult<Arc<LockStructure>> {
        let s = Arc::new(LockStructure::new(name, &params)?);
        self.insert(name, StructureHandle::Lock(Arc::clone(&s)))?;
        Ok(s)
    }

    /// Allocate a cache-model structure.
    pub fn allocate_cache_structure(&self, name: &str, params: CacheParams) -> CfResult<Arc<CacheStructure>> {
        let s = Arc::new(CacheStructure::new(name, &params)?);
        self.insert(name, StructureHandle::Cache(Arc::clone(&s)))?;
        Ok(s)
    }

    /// Allocate a list-model structure. Transition signals it delivers
    /// are traced against this facility's tracer.
    pub fn allocate_list_structure(&self, name: &str, params: ListParams) -> CfResult<Arc<ListStructure>> {
        let s = Arc::new(ListStructure::new(name, &params)?);
        s.set_tracer(Arc::clone(&self.tracer), self.tracer.register_structure(name));
        self.insert(name, StructureHandle::List(Arc::clone(&s)))?;
        Ok(s)
    }

    /// Look up an allocated structure of any model.
    pub fn structure(&self, name: &str) -> CfResult<StructureHandle> {
        self.structures.lock().get(name).cloned().ok_or_else(|| CfError::NoSuchStructure(name.to_string()))
    }

    /// Look up a lock structure by name.
    pub fn lock_structure(&self, name: &str) -> CfResult<Arc<LockStructure>> {
        match self.structure(name)? {
            StructureHandle::Lock(s) => Ok(s),
            _ => Err(CfError::WrongModel),
        }
    }

    /// Look up a cache structure by name.
    pub fn cache_structure(&self, name: &str) -> CfResult<Arc<CacheStructure>> {
        match self.structure(name)? {
            StructureHandle::Cache(s) => Ok(s),
            _ => Err(CfError::WrongModel),
        }
    }

    /// Look up a list structure by name.
    pub fn list_structure(&self, name: &str) -> CfResult<Arc<ListStructure>> {
        match self.structure(name)? {
            StructureHandle::List(s) => Ok(s),
            _ => Err(CfError::WrongModel),
        }
    }

    /// Deallocate a structure. Existing `Arc` holders keep a functioning
    /// object (connectors drain naturally); the name becomes reusable.
    pub fn deallocate(&self, name: &str) -> CfResult<()> {
        self.structures
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| CfError::NoSuchStructure(name.to_string()))
    }

    /// Clone the whole registry in **one** lock acquisition, sorted by
    /// name. Observers (Monitor reports, consoles) walk this snapshot
    /// instead of re-locking the registry per structure: handles are
    /// `Arc` clones, so the walk — and any formatting — happens entirely
    /// outside the lock, off the per-command path.
    pub fn structures_snapshot(&self) -> Vec<(String, StructureHandle)> {
        let mut v: Vec<(String, StructureHandle)> = {
            let structures = self.structures.lock();
            structures.iter().map(|(n, h)| (n.clone(), h.clone())).collect()
        };
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Names and models of allocated structures, sorted by name.
    pub fn inventory(&self) -> Vec<(String, &'static str)> {
        self.structures_snapshot().into_iter().map(|(n, h)| (n, h.model())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_all_three_models_and_look_up() {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("IRLM1", LockParams::with_entries(64)).unwrap();
        cf.allocate_cache_structure("GBP0", CacheParams::store_in(64)).unwrap();
        cf.allocate_list_structure("ISTGR", ListParams::with_headers(4)).unwrap();
        assert_eq!(
            cf.inventory(),
            vec![("GBP0".to_string(), "CACHE"), ("IRLM1".to_string(), "LOCK"), ("ISTGR".to_string(), "LIST"),]
        );
        assert!(cf.lock_structure("IRLM1").is_ok());
        assert!(cf.cache_structure("GBP0").is_ok());
        assert!(cf.list_structure("ISTGR").is_ok());
    }

    #[test]
    fn wrong_model_lookup_rejected() {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("L", LockParams::with_entries(4)).unwrap();
        assert_eq!(cf.cache_structure("L").unwrap_err(), CfError::WrongModel);
        assert_eq!(cf.list_structure("L").unwrap_err(), CfError::WrongModel);
    }

    #[test]
    fn duplicate_names_rejected_until_deallocated() {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_lock_structure("L", LockParams::with_entries(4)).unwrap();
        assert!(matches!(
            cf.allocate_list_structure("L", ListParams::with_headers(1)),
            Err(CfError::StructureExists(_))
        ));
        cf.deallocate("L").unwrap();
        cf.allocate_list_structure("L", ListParams::with_headers(1)).unwrap();
    }

    #[test]
    fn missing_structure_errors() {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        assert!(matches!(cf.structure("NOPE"), Err(CfError::NoSuchStructure(_))));
        assert!(matches!(cf.deallocate("NOPE"), Err(CfError::NoSuchStructure(_))));
    }

    #[test]
    fn structure_budget_enforced() {
        let mut cfg = CfConfig::named("CF01");
        cfg.max_structures = 1;
        let cf = CouplingFacility::new(cfg);
        cf.allocate_lock_structure("A", LockParams::with_entries(4)).unwrap();
        assert_eq!(
            cf.allocate_lock_structure("B", LockParams::with_entries(4)).unwrap_err(),
            CfError::FacilityFull
        );
    }

    #[test]
    fn link_executes_commands_against_structures() {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let lock = cf.allocate_lock_structure("L", LockParams::with_entries(16)).unwrap();
        let conn = lock.connect().unwrap();
        let link = cf.link();
        let granted = link.execute_sync(64, || {
            lock.request(conn, 3, crate::lock::LockMode::Exclusive).unwrap().is_granted()
        });
        assert!(granted);
    }

    #[test]
    fn multiple_facilities_coexist() {
        let cf1 = CouplingFacility::new(CfConfig::named("CF01"));
        let cf2 = CouplingFacility::new(CfConfig::named("CF02"));
        cf1.allocate_lock_structure("L", LockParams::with_entries(4)).unwrap();
        cf2.allocate_lock_structure("L", LockParams::with_entries(4)).unwrap();
        assert_eq!(cf1.name(), "CF01");
        assert_eq!(cf2.name(), "CF02");
    }
}
