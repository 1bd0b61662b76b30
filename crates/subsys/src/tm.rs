//! A CICS-style transaction manager region.
//!
//! One [`CicsRegion`] runs per system (§5.2). It owns a dictionary of
//! transaction definitions — name, WLM service class, and the business
//! logic as a closure over the data-sharing [`Database`] — and executes
//! them with the standard OLTP retry loop (lock timeouts abort and rerun).
//! Completions are reported to WLM against the service class's
//! response-time goal; §2.3's point is that transactions "remain
//! unchanged" while the infrastructure spreads them across systems.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysplex_core::stats::{Counter, Histogram};
use sysplex_db::error::{DbError, DbResult};
use sysplex_db::{Database, Txn};
use sysplex_services::system::System;
use sysplex_services::wlm::Wlm;

/// The business logic of a transaction.
pub type TranHandler = Arc<dyn Fn(&Database, &mut Txn) -> DbResult<()> + Send + Sync>;

/// A transaction definition (the CICS PCT entry).
#[derive(Clone)]
pub struct TranDef {
    /// Transaction name (e.g. "PAYT").
    pub name: String,
    /// WLM service class the transaction reports to.
    pub service_class: String,
    /// The application program.
    pub handler: TranHandler,
}

impl std::fmt::Debug for TranDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranDef").field("name", &self.name).field("class", &self.service_class).finish()
    }
}

/// Counters published by a region.
#[derive(Debug, Default)]
pub struct RegionStats {
    /// Transactions started.
    pub started: Counter,
    /// Transactions completed successfully.
    pub completed: Counter,
    /// Transactions that failed after retries.
    pub failed: Counter,
    /// Response-time distribution of completed transactions.
    pub latency: Histogram,
}

/// Errors from region execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmError {
    /// The transaction name is not defined.
    UnknownTransaction(String),
    /// The database rejected the transaction after retries.
    Db(DbError),
}

impl std::fmt::Display for TmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmError::UnknownTransaction(t) => write!(f, "unknown transaction: {t}"),
            TmError::Db(e) => write!(f, "transaction failed: {e}"),
        }
    }
}

impl std::error::Error for TmError {}

/// A transaction-manager region on one system.
pub struct CicsRegion {
    system: Arc<System>,
    db: Arc<Database>,
    wlm: Arc<Wlm>,
    defs: RwLock<HashMap<String, TranDef>>,
    retries: usize,
    /// Published counters.
    pub stats: RegionStats,
}

impl CicsRegion {
    /// Bring up a region on `system` against `db`.
    pub fn new(system: Arc<System>, db: Arc<Database>, wlm: Arc<Wlm>) -> Arc<Self> {
        Arc::new(CicsRegion {
            system,
            db,
            wlm,
            defs: RwLock::new(HashMap::new()),
            retries: 10,
            stats: RegionStats::default(),
        })
    }

    /// The system this region runs on.
    pub fn system(&self) -> &Arc<System> {
        &self.system
    }

    /// The region's database instance.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Install a transaction definition.
    pub fn define(&self, def: TranDef) {
        self.defs.write().insert(def.name.clone(), def);
    }

    /// Installed transaction names, sorted.
    pub fn transactions(&self) -> Vec<String> {
        let mut v: Vec<String> = self.defs.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Execute a transaction on the calling thread (the router dispatches
    /// this onto the region's CPU pool). Reports the completion to WLM.
    pub fn execute_local(&self, name: &str) -> Result<Duration, TmError> {
        let def = self
            .defs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| TmError::UnknownTransaction(name.to_string()))?;
        self.stats.started.incr();
        let t0 = Instant::now();
        let handler = Arc::clone(&def.handler);
        match self.db.run(self.retries, move |db, txn| handler(db, txn)) {
            Ok(()) => {
                let elapsed = t0.elapsed();
                self.wlm.record_completion(&def.service_class, elapsed);
                self.stats.completed.incr();
                self.stats.latency.record(elapsed);
                Ok(elapsed)
            }
            Err(e) => {
                self.stats.failed.incr();
                Err(TmError::Db(e))
            }
        }
    }
}

impl std::fmt::Debug for CicsRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CicsRegion").field("system", &self.system.id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::SystemId;
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_db::group::{DataSharingGroup, GroupConfig};
    use sysplex_services::system::SystemConfig;
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::wlm::ServiceClass;
    use sysplex_services::xcf::Xcf;

    fn region() -> (Arc<CicsRegion>, Arc<DataSharingGroup>) {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let group = DataSharingGroup::new(GroupConfig::default(), &cf, farm, timer, xcf).unwrap();
        let db = group.add_member(SystemId::new(0)).unwrap();
        let sys = System::ipl(SystemConfig::cmos(SystemId::new(0), 2));
        let wlm = Arc::new(Wlm::new());
        wlm.define_class(ServiceClass {
            name: "OLTP".into(),
            goal: Duration::from_millis(100),
            importance: 1,
        });
        (CicsRegion::new(sys, db, wlm), group)
    }

    #[test]
    fn defined_transaction_runs_and_reports_to_wlm() {
        let (r, group) = region();
        r.define(TranDef {
            name: "DEPO".into(),
            service_class: "OLTP".into(),
            handler: Arc::new(|db, txn| db.write(txn, 1, Some(b"deposited"))),
        });
        r.execute_local("DEPO").unwrap();
        assert_eq!(r.stats.completed.get(), 1);
        assert_eq!(r.stats.latency.count(), 1);
        assert!(r.stats.latency.max() > Duration::ZERO);
        assert!(r.wlm.performance_index("OLTP").is_some());
        let v = r.database().run(0, |db, txn| db.read(txn, 1)).unwrap();
        assert_eq!(v.unwrap(), b"deposited");
        let _ = group;
    }

    #[test]
    fn unknown_transaction_rejected() {
        let (r, _group) = region();
        assert_eq!(r.execute_local("NOPE").unwrap_err(), TmError::UnknownTransaction("NOPE".into()));
    }

    #[test]
    fn transaction_dictionary_lists_definitions() {
        let (r, _group) = region();
        for name in ["B", "A"] {
            r.define(TranDef {
                name: name.into(),
                service_class: "OLTP".into(),
                handler: Arc::new(|_, _| Ok(())),
            });
        }
        assert_eq!(r.transactions(), vec!["A", "B"]);
    }
}
