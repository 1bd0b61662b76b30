//! The castout daemon — background destaging of changed group-buffer data.
//!
//! §3.3.2's store-in model leaves committed pages as *changed data* in the
//! CF until somebody writes them to DASD. In DB2 this is the castout
//! engine; here a small per-member daemon sweeps periodically, and — once
//! its member is idle — checkpoints the member's log, bounding both the
//! group buffer's changed-data footprint and the log length recovery would
//! have to scan.

use crate::database::Database;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon tuning.
#[derive(Debug, Clone, Copy)]
pub struct CastoutConfig {
    /// Sweep interval.
    pub interval: Duration,
    /// Max pages destaged per sweep.
    pub batch: usize,
}

impl Default for CastoutConfig {
    fn default() -> Self {
        CastoutConfig { interval: Duration::from_millis(20), batch: 256 }
    }
}

/// A running castout daemon for one database member.
#[derive(Debug)]
pub struct CastoutDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Pages destaged since start.
    pub pages_cast_out: Arc<AtomicU64>,
    /// Log checkpoints taken since start.
    pub checkpoints: Arc<AtomicU64>,
}

impl CastoutDaemon {
    /// Start sweeping on behalf of `db`.
    pub fn start(db: Arc<Database>, config: CastoutConfig) -> CastoutDaemon {
        let stop = Arc::new(AtomicBool::new(false));
        let pages = Arc::new(AtomicU64::new(0));
        let checkpoints = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let pages = Arc::clone(&pages);
            let checkpoints = Arc::clone(&checkpoints);
            std::thread::Builder::new()
                .name(format!("castout-{}", db.system()))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        if let Ok(n) = db.buffers().castout(config.batch) {
                            pages.fetch_add(n as u64, Ordering::Relaxed);
                        }
                        if let Ok(true) = db.checkpoint_if_idle() {
                            checkpoints.fetch_add(1, Ordering::Relaxed);
                        }
                        std::thread::sleep(config.interval);
                    }
                })
                .expect("spawn castout daemon")
        };
        CastoutDaemon { stop, handle: Some(handle), pages_cast_out: pages, checkpoints }
    }

    /// Stop the daemon (joins the sweep thread, as dropping it does).
    pub fn stop(self) {}
}

impl Drop for CastoutDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{DataSharingGroup, GroupConfig};
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::SystemId;
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::xcf::Xcf;

    fn group() -> Arc<DataSharingGroup> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        DataSharingGroup::new(GroupConfig::default(), &cf, farm, timer, xcf).unwrap()
    }

    #[test]
    fn daemon_drains_changed_pages_and_checkpoints() {
        let g = group();
        let db = g.add_member(SystemId::new(0)).unwrap();
        let daemon = CastoutDaemon::start(
            Arc::clone(&db),
            CastoutConfig { interval: Duration::from_millis(5), batch: 64 },
        );
        db.run(10, |db, txn| {
            for k in 0..30u64 {
                db.write(txn, k, Some(b"dirty"))?;
            }
            Ok(())
        })
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (g.cache_structure().changed_count() > 0 || db.log().durable_count() > 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(g.cache_structure().changed_count(), 0, "changed data destaged");
        assert_eq!(db.log().durable_count(), 0, "log checkpointed once idle");
        assert!(daemon.pages_cast_out.load(Ordering::Relaxed) > 0);
        assert!(daemon.checkpoints.load(Ordering::Relaxed) > 0);
        // DASD caught up.
        let page = g.store.page_of(7);
        assert_eq!(g.store.read_page(0, page).unwrap().get(7).unwrap(), b"dirty");
        daemon.stop();
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn checkpoint_waits_for_open_transactions() {
        let g = group();
        let db = g.add_member(SystemId::new(0)).unwrap();
        db.run(10, |db, txn| db.write(txn, 1, Some(b"x"))).unwrap();
        assert!(db.log().durable_count() > 0);
        // Hold a transaction open: checkpoint must refuse.
        let mut open = db.begin();
        db.write(&mut open, 2, Some(b"y")).unwrap();
        assert!(!db.checkpoint_if_idle().unwrap());
        db.commit(&mut open).unwrap();
        assert!(db.checkpoint_if_idle().unwrap());
        assert_eq!(db.log().durable_count(), 0);
        g.remove_member(SystemId::new(0));
    }
}
