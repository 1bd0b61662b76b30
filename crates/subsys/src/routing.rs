//! Dynamic transaction routing — §2.3's OLTP workload balancing.
//!
//! "Work requests submitted by a given user can be executed on any system
//! in the configuration based on available processing capacity, instead of
//! being bound to a specific system due to data-to-processor affinity."
//!
//! The [`TransactionRouter`] is the CICSPlex/SM piece: it holds the set of
//! regions, asks WLM for the next target (smooth weighted round-robin over
//! available capacity), dispatches the transaction onto that region's CPU
//! pool, and — the §2.5 availability half — *re-routes* to a survivor when
//! the chosen region's system stops accepting work.

use crate::tm::{CicsRegion, TmError};
use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::stats::Counter;
use sysplex_core::SystemId;
use sysplex_services::system::SystemError;
use sysplex_services::wlm::Wlm;

/// Errors from routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No region is accepting work.
    NoTargets,
    /// The transaction itself failed on the target region.
    Tm(TmError),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoTargets => write!(f, "no region accepting work"),
            RouteError::Tm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Counters published by the router.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Transactions routed.
    pub routed: Counter,
    /// Transactions re-routed after a target refused work.
    pub rerouted: Counter,
}

/// A pending routed transaction.
#[derive(Debug)]
pub struct PendingTran {
    rx: Receiver<Result<Duration, TmError>>,
    /// The system the transaction landed on.
    pub system: SystemId,
}

impl PendingTran {
    /// Wait for the transaction to complete.
    pub fn wait(self, timeout: Duration) -> Result<Duration, RouteError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(d)) => Ok(d),
            Ok(Err(e)) => Err(RouteError::Tm(e)),
            Err(_) => Err(RouteError::NoTargets),
        }
    }
}

/// The sysplex-wide transaction router.
pub struct TransactionRouter {
    wlm: Arc<Wlm>,
    regions: RwLock<HashMap<SystemId, Arc<CicsRegion>>>,
    /// Transactions landed per system (balance reporting).
    pub per_system: Mutex<HashMap<SystemId, u64>>,
    /// Published counters.
    pub stats: RouterStats,
}

impl TransactionRouter {
    /// Build the router over WLM.
    pub fn new(wlm: Arc<Wlm>) -> Arc<Self> {
        Arc::new(TransactionRouter {
            wlm,
            regions: RwLock::new(HashMap::new()),
            per_system: Mutex::new(HashMap::new()),
            stats: RouterStats::default(),
        })
    }

    /// A region becomes a routing target.
    pub fn register_region(&self, region: Arc<CicsRegion>) {
        self.regions.write().insert(region.system().id(), region);
    }

    /// Remove a region from routing (planned removal or failure).
    pub fn deregister_region(&self, system: SystemId) {
        self.regions.write().remove(&system);
    }

    /// Current routing targets, sorted.
    pub fn targets(&self) -> Vec<SystemId> {
        let mut v: Vec<SystemId> = self.regions.read().keys().copied().collect();
        v.sort();
        v
    }

    fn pick(&self, exclude: &[SystemId]) -> Option<Arc<CicsRegion>> {
        let regions = self.regions.read();
        // WLM recommendation first.
        for _ in 0..regions.len().max(1) {
            if let Some(target) = self.wlm.select_target() {
                if exclude.contains(&target) {
                    continue;
                }
                if let Some(r) = regions.get(&target) {
                    return Some(Arc::clone(r));
                }
            }
        }
        // Fallback: any registered region not excluded.
        regions
            .iter()
            .filter(|(id, _)| !exclude.contains(id))
            .min_by_key(|(id, _)| **id)
            .map(|(_, r)| Arc::clone(r))
    }

    /// Route one transaction: dispatch onto the recommended region's CPU
    /// pool, failing over to other regions if the target refuses work.
    pub fn submit(&self, tran: &str) -> Result<PendingTran, RouteError> {
        let mut excluded: Vec<SystemId> = Vec::new();
        loop {
            let Some(region) = self.pick(&excluded) else {
                return Err(RouteError::NoTargets);
            };
            let system = region.system().id();
            let (tx, rx) = bounded(1);
            let tran = tran.to_string();
            let region_for_job = Arc::clone(&region);
            match region.system().submit(
                move || region_for_job.execute_local(&tran),
                move |result| {
                    let _ = tx.send(result);
                },
            ) {
                Ok(()) => {
                    self.stats.routed.incr();
                    *self.per_system.lock().entry(system).or_insert(0) += 1;
                    return Ok(PendingTran { rx, system });
                }
                Err(SystemError::NotAccepting(_)) => {
                    // §2.5: redirect new work to the surviving systems.
                    self.stats.rerouted.incr();
                    excluded.push(system);
                    self.deregister_region(system);
                }
            }
        }
    }

    /// Route and wait (convenience).
    pub fn submit_and_wait(&self, tran: &str, timeout: Duration) -> Result<Duration, RouteError> {
        self.submit(tran)?.wait(timeout)
    }

    /// Distribution of routed transactions per system, sorted.
    pub fn distribution(&self) -> Vec<(SystemId, u64)> {
        let mut v: Vec<(SystemId, u64)> = self.per_system.lock().iter().map(|(k, v)| (*k, *v)).collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for TransactionRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionRouter").field("targets", &self.targets()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::TranDef;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_db::group::{DataSharingGroup, GroupConfig};
    use sysplex_services::system::{System, SystemConfig};
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::wlm::ServiceClass;
    use sysplex_services::xcf::Xcf;

    struct Rig {
        router: Arc<TransactionRouter>,
        regions: Vec<Arc<CicsRegion>>,
        wlm: Arc<Wlm>,
        #[allow(dead_code)]
        group: Arc<DataSharingGroup>,
    }

    fn rig(n: u8) -> Rig {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let group = DataSharingGroup::new(GroupConfig::default(), &cf, farm, timer, xcf).unwrap();
        let wlm = Arc::new(Wlm::new());
        wlm.define_class(ServiceClass {
            name: "OLTP".into(),
            goal: Duration::from_millis(100),
            importance: 1,
        });
        let router = TransactionRouter::new(Arc::clone(&wlm));
        let mut regions = Vec::new();
        for i in 0..n {
            let id = SystemId::new(i);
            let db = group.add_member(id).unwrap();
            let sys = System::ipl(SystemConfig::cmos(id, 2));
            wlm.set_capacity(id, sys.config().total_mips());
            let region = CicsRegion::new(sys, db, Arc::clone(&wlm));
            region.define(TranDef {
                name: "PING".into(),
                service_class: "OLTP".into(),
                handler: Arc::new(|_, _| Ok(())),
            });
            router.register_region(Arc::clone(&region));
            regions.push(region);
        }
        Rig { router, regions, wlm, group }
    }

    #[test]
    fn transactions_spread_across_equal_systems() {
        let r = rig(3);
        let pending: Vec<_> = (0..90).map(|_| r.router.submit("PING").unwrap()).collect();
        for p in pending {
            p.wait(Duration::from_secs(10)).unwrap();
        }
        let dist = r.router.distribution();
        assert_eq!(dist.len(), 3);
        for (_, n) in &dist {
            assert_eq!(*n, 30, "equal capacity → equal share: {dist:?}");
        }
        for region in &r.regions {
            region.system().quiesce();
        }
    }

    #[test]
    fn utilization_skews_routing_toward_idle_systems() {
        let r = rig(2);
        r.wlm.report_utilization(SystemId::new(0), 0.9);
        r.wlm.report_utilization(SystemId::new(1), 0.1);
        for _ in 0..100 {
            r.router.submit_and_wait("PING", Duration::from_secs(10)).unwrap();
        }
        let dist = r.router.distribution();
        let busy = dist.iter().find(|(id, _)| *id == SystemId::new(0)).map(|(_, n)| *n).unwrap_or(0);
        let idle = dist.iter().find(|(id, _)| *id == SystemId::new(1)).map(|(_, n)| *n).unwrap_or(0);
        assert!(idle > busy * 5, "idle system gets the bulk: busy={busy} idle={idle}");
        for region in &r.regions {
            region.system().quiesce();
        }
    }

    #[test]
    fn failed_region_is_bypassed_transparently() {
        let r = rig(2);
        // System 0 fails abruptly.
        r.regions[0].system().fail();
        r.wlm.set_online(SystemId::new(0), false);
        for _ in 0..20 {
            r.router.submit_and_wait("PING", Duration::from_secs(10)).unwrap();
        }
        let dist = r.router.distribution();
        assert_eq!(dist, vec![(SystemId::new(1), 20)], "all work flowed to the survivor");
        r.regions[1].system().quiesce();
    }

    #[test]
    fn no_targets_is_reported() {
        let r = rig(1);
        r.regions[0].system().fail();
        r.wlm.set_online(SystemId::new(0), false);
        assert_eq!(r.router.submit("PING").unwrap_err(), RouteError::NoTargets);
    }
}
