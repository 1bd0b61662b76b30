//! The assembled Parallel Sysplex runtime — Figure 1 in one object.
//!
//! [`Sysplex`] wires together everything §3.1 draws: up to 32 [`System`]
//! images, the shared [`DasdFarm`], the [`SysplexTimer`], one or more
//! [`CouplingFacility`] instances, and the base MVS multi-system services
//! (XCF, couple data sets, heartbeat, WLM, ARM). It owns the lifecycle
//! choreography the paper's §2.4/§2.5 describe:
//!
//! * **Non-disruptive growth** — [`Sysplex::ipl`] brings a new system into
//!   a running configuration; WLM immediately starts steering new work to
//!   it (E8).
//! * **Planned removal** — [`Sysplex::remove_planned`] quiesces a system,
//!   draining its work; no failure processing occurs.
//! * **Unplanned failure** — [`Sysplex::kill`] (or an overdue heartbeat
//!   discovered by [`Sysplex::tick`]) fences the system, fails its XCF
//!   members, removes it from WLM routing and hands its registered ARM
//!   elements to surviving systems (E7).

use crate::arm::Arm;
use crate::cds::CoupleDataSet;
use crate::heartbeat::{HeartbeatConfig, HeartbeatMonitor};
use crate::system::{System, SystemConfig, SystemState};
use crate::timer::SysplexTimer;
use crate::wlm::Wlm;
use crate::xcf::Xcf;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::link::LinkConfig;
use sysplex_core::trace::Tracer;
use sysplex_core::SystemId;
use sysplex_dasd::duplex::DuplexPair;
use sysplex_dasd::farm::DasdFarm;
use sysplex_dasd::volume::{IoModel, Volume};

/// Sysplex-wide configuration.
#[derive(Debug, Clone)]
pub struct SysplexConfig {
    /// Sysplex name.
    pub name: String,
    /// Service-time model for DASD volumes.
    pub io_model: IoModel,
    /// Latency model for coupling links.
    pub link: LinkConfig,
    /// Heartbeat policy.
    pub heartbeat: HeartbeatConfig,
    /// Couple-data-set record blocks.
    pub cds_blocks: u64,
}

impl SysplexConfig {
    /// Functional-mode configuration (no simulated latencies) — the right
    /// default for tests and examples.
    pub fn functional(name: &str) -> Self {
        SysplexConfig {
            name: name.to_string(),
            io_model: IoModel::instant(),
            link: LinkConfig::instant(),
            heartbeat: HeartbeatConfig::default(),
            cds_blocks: 1024,
        }
    }

    /// Timing-accurate configuration: 1996 disks, 100 MB/s links.
    pub fn timing(name: &str) -> Self {
        SysplexConfig {
            name: name.to_string(),
            io_model: IoModel::disk_1996(),
            link: LinkConfig::mb100(),
            heartbeat: HeartbeatConfig::default(),
            cds_blocks: 1024,
        }
    }
}

/// The assembled sysplex.
///
/// ```
/// use sysplex_services::sysplex::{Sysplex, SysplexConfig};
/// use sysplex_services::system::SystemConfig;
/// use sysplex_core::SystemId;
///
/// let plex = Sysplex::new(SysplexConfig::functional("PLEX01"));
/// let _cf = plex.add_cf("CF01");
/// let sys = plex.ipl(SystemConfig::cmos(SystemId::new(0), 2));
/// assert_eq!(sys.execute(|| 6 * 7).unwrap(), 42);
/// assert!(plex.tick().is_empty(), "everyone healthy");
/// plex.remove_planned(SystemId::new(0));
/// ```
pub struct Sysplex {
    config: SysplexConfig,
    /// The common time reference (§3.1).
    pub timer: Arc<SysplexTimer>,
    /// Shared DASD, fully connected (§3.1).
    pub farm: Arc<DasdFarm>,
    /// Group services (§3.2).
    pub xcf: Arc<Xcf>,
    /// Couple data sets (§3.2).
    pub cds: Arc<CoupleDataSet>,
    /// Heartbeat monitor (§3.2).
    pub heartbeat: Arc<HeartbeatMonitor>,
    /// Workload Manager (§2.1, §5.1).
    pub wlm: Arc<Wlm>,
    /// Automatic Restart Manager (§2.5).
    pub arm: Arc<Arm>,
    /// The sysplex-wide component tracer (disabled until
    /// [`Tracer::enable`]); every CF powered on through [`Sysplex::add_cf`]
    /// and the XCF/heartbeat services trace into it, stamped by the
    /// Sysplex Timer.
    pub tracer: Arc<Tracer>,
    cfs: Mutex<HashMap<String, Arc<CouplingFacility>>>,
    systems: Arc<Mutex<HashMap<SystemId, Arc<System>>>>,
}

impl Sysplex {
    /// Bring up the shared infrastructure (no systems yet).
    pub fn new(config: SysplexConfig) -> Arc<Self> {
        Sysplex::with_timer(config, SysplexTimer::new())
    }

    /// Bring up the shared infrastructure clocked by an existing timer.
    /// The deterministic harness passes a [`SysplexTimer::new_virtual`]
    /// timer here so heartbeat thresholds, CDS leases and trace stamps all
    /// run on simulation time.
    pub fn with_timer(config: SysplexConfig, timer: Arc<SysplexTimer>) -> Arc<Self> {
        let farm = DasdFarm::new(config.io_model);
        let xcf = Xcf::new(Arc::clone(&timer));
        let cds_primary = Arc::new(Volume::new("CDS01", config.cds_blocks, config.io_model));
        let cds_alternate = Arc::new(Volume::new("CDS02", config.cds_blocks, config.io_model));
        let cds = CoupleDataSet::new(
            DuplexPair::new(cds_primary, Some(cds_alternate)),
            Arc::clone(farm.fence()),
            Arc::clone(&timer),
            config.cds_blocks,
        );
        let heartbeat = HeartbeatMonitor::new(
            config.heartbeat,
            Arc::clone(&cds),
            Arc::clone(&timer),
            Arc::clone(farm.fence()),
            Arc::clone(&xcf),
        );
        let wlm = Arc::new(Wlm::new());
        let arm = Arm::new(Arc::clone(&wlm));
        let tracer = Arc::new(Tracer::new());
        tracer.set_clock(Arc::clone(&timer) as Arc<dyn sysplex_core::trace::TraceClock>);
        xcf.set_tracer(Arc::clone(&tracer));
        heartbeat.set_tracer(Arc::clone(&tracer));
        let systems: Arc<Mutex<HashMap<SystemId, Arc<System>>>> = Arc::new(Mutex::new(HashMap::new()));

        // Failure choreography: fence (done by the monitor) → stop the
        // image → drop from routing → ARM restarts on survivors.
        {
            let wlm = Arc::clone(&wlm);
            let arm = Arc::clone(&arm);
            let systems = Arc::clone(&systems);
            heartbeat.on_failure(move |sys| {
                if let Some(image) = systems.lock().get(&sys) {
                    image.fail();
                }
                wlm.set_online(sys, false);
                arm.handle_system_failure(sys);
            });
        }

        Arc::new(Sysplex {
            config,
            timer,
            farm,
            xcf,
            cds,
            heartbeat,
            wlm,
            arm,
            tracer,
            cfs: Mutex::new(HashMap::new()),
            systems,
        })
    }

    /// Sysplex name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The active configuration.
    pub fn config(&self) -> &SysplexConfig {
        &self.config
    }

    /// Power on a Coupling Facility and register it. The facility shares
    /// the sysplex-wide component tracer.
    pub fn add_cf(&self, name: &str) -> Arc<CouplingFacility> {
        let cf = CouplingFacility::with_tracer(
            CfConfig::named(name).with_link(self.config.link),
            Arc::clone(&self.tracer),
        );
        self.cfs.lock().insert(name.to_string(), Arc::clone(&cf));
        cf
    }

    /// Look up a CF by name.
    pub fn cf(&self, name: &str) -> Option<Arc<CouplingFacility>> {
        self.cfs.lock().get(name).cloned()
    }

    /// All registered CFs, sorted by name (report order).
    pub fn cfs(&self) -> Vec<Arc<CouplingFacility>> {
        let mut v: Vec<_> = self.cfs.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name().cmp(b.name()));
        v
    }

    /// IPL a system into the running sysplex (non-disruptive, §2.4).
    pub fn ipl(&self, config: SystemConfig) -> Arc<System> {
        let image = System::ipl(config);
        self.wlm.set_capacity(config.id, config.total_mips());
        self.heartbeat.register(config.id).expect("CDS reachable at IPL");
        self.systems.lock().insert(config.id, Arc::clone(&image));
        image
    }

    /// Admit a member running in **another OS process** (TCP transport):
    /// it receives WLM capacity and a heartbeat registration like any
    /// IPLed system, but owns no local [`System`] image — it pulses over
    /// the wire instead of via [`Sysplex::tick`], and an overdue pulse
    /// runs the exact same failure choreography (fence, XCF member
    /// failure, WLM removal, ARM restart) a local silent system does.
    pub fn register_remote_member(&self, id: SystemId, mips: f64) -> Result<(), crate::cds::CdsError> {
        self.wlm.set_capacity(id, mips);
        self.heartbeat.register(id)
    }

    /// Admit a remote member that may be a **new incarnation** of a
    /// previously fenced system. A plain `Hello` (no resume token) is the
    /// wire analogue of a re-IPL, and a re-IPL lifts the standing I/O
    /// fence before the system rejoins — otherwise its very first status
    /// pulse would bounce off its own old fence. Zombies of the *old*
    /// incarnation are unaffected: they only hold resume tokens, and
    /// resume of a fenced system is denied.
    pub fn readmit_remote_member(&self, id: SystemId, mips: f64) -> Result<(), crate::cds::CdsError> {
        if self.heartbeat.state_of(id) == Some(crate::heartbeat::HealthState::Failed) {
            self.farm.fence().unfence(id.0);
        }
        self.register_remote_member(id, mips)
    }

    /// Orderly departure of a remote member (the wire-side analogue of
    /// [`Sysplex::remove_planned`]): leave routing, stop expecting pulses.
    pub fn deregister_remote_member(&self, id: SystemId) {
        self.wlm.set_online(id, false);
        self.heartbeat.deregister(id);
    }

    /// Look up a system image.
    pub fn system(&self, id: SystemId) -> Option<Arc<System>> {
        self.systems.lock().get(&id).cloned()
    }

    /// Systems currently Active, sorted by id.
    pub fn active_systems(&self) -> Vec<Arc<System>> {
        let mut v: Vec<Arc<System>> =
            self.systems.lock().values().filter(|s| s.state() == SystemState::Active).cloned().collect();
        v.sort_by_key(|s| s.id());
        v
    }

    /// Planned removal (§2.5): leave routing, drain work, stop. No failure
    /// processing, no fencing.
    pub fn remove_planned(&self, id: SystemId) {
        self.wlm.set_online(id, false);
        self.heartbeat.deregister(id);
        if let Some(image) = self.system(id) {
            image.quiesce();
        }
    }

    /// Unplanned failure injection: the full §2.5 choreography.
    pub fn kill(&self, id: SystemId) {
        self.heartbeat.declare_failed(id);
    }

    /// One deterministic housekeeping step: every active system pulses its
    /// heartbeat and reports utilization to WLM; then the monitor sweeps.
    /// Returns systems newly declared failed.
    pub fn tick(&self) -> Vec<SystemId> {
        for image in self.active_systems() {
            let _ = self.heartbeat.pulse(image.id());
            self.wlm.report_utilization(image.id(), image.utilization());
        }
        self.heartbeat.check_once()
    }

    /// Total configured MIPS across Active systems.
    pub fn total_capacity_mips(&self) -> f64 {
        self.active_systems().iter().map(|s| s.config().total_mips()).sum()
    }
}

impl std::fmt::Debug for Sysplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sysplex")
            .field("name", &self.config.name)
            .field("systems", &self.systems.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn plex() -> Arc<Sysplex> {
        Sysplex::new(SysplexConfig::functional("PLEX1"))
    }

    #[test]
    fn bring_up_systems_and_cf() {
        let p = plex();
        let cf = p.add_cf("CF01");
        assert_eq!(cf.name(), "CF01");
        assert!(p.cf("CF01").is_some());
        let s0 = p.ipl(SystemConfig::cmos(SystemId::new(0), 2));
        let s1 = p.ipl(SystemConfig::cmos(SystemId::new(1), 2));
        assert_eq!(p.active_systems().len(), 2);
        assert_eq!(p.total_capacity_mips(), 240.0);
        assert_eq!(s0.execute(|| 1).unwrap() + s1.execute(|| 1).unwrap(), 2);
        assert!(p.tick().is_empty());
        p.remove_planned(SystemId::new(0));
        p.remove_planned(SystemId::new(1));
    }

    #[test]
    fn growth_is_nondisruptive_and_joins_routing() {
        let p = plex();
        let s0 = p.ipl(SystemConfig::cmos(SystemId::new(0), 2));
        p.tick();
        // Work keeps running while a new system IPLs.
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            s0.submit(
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                },
                drop,
            )
            .unwrap();
        }
        let _s1 = p.ipl(SystemConfig::cmos(SystemId::new(1), 2));
        p.tick();
        let targets: Vec<SystemId> = (0..4).map(|_| p.wlm.select_target().unwrap()).collect();
        assert!(targets.contains(&SystemId::new(1)), "new system receives work: {targets:?}");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::Relaxed) < 100 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100, "existing work unaffected by IPL");
        p.remove_planned(SystemId::new(0));
        p.remove_planned(SystemId::new(1));
    }

    #[test]
    fn kill_runs_full_failure_choreography() {
        let p = plex();
        let _s0 = p.ipl(SystemConfig::cmos(SystemId::new(0), 1));
        let _s1 = p.ipl(SystemConfig::cmos(SystemId::new(1), 1));
        let _member = p.xcf.join("G", "VICTIM", SystemId::new(1)).unwrap();
        let restarted = Arc::new(AtomicU64::new(u64::MAX));
        {
            let restarted = Arc::clone(&restarted);
            p.arm
                .register(
                    crate::arm::ElementSpec {
                        name: "ELEM".into(),
                        restart_group: "G".into(),
                        sequence: 1,
                        affinity_to: None,
                    },
                    SystemId::new(1),
                    move |target| restarted.store(target.0 as u64, Ordering::SeqCst),
                )
                .unwrap();
        }
        p.kill(SystemId::new(1));
        assert!(p.farm.fence().is_fenced(1), "failed system fenced");
        assert_eq!(p.system(SystemId::new(1)).unwrap().state(), SystemState::Failed);
        assert!(p.xcf.members("G").is_empty(), "XCF member failed out");
        assert_eq!(restarted.load(Ordering::SeqCst), 0, "ARM restarted the element on SYS00");
        assert_eq!(p.wlm.online_systems(), vec![SystemId::new(0)]);
        assert_eq!(p.active_systems().len(), 1);
        p.remove_planned(SystemId::new(0));
    }

    #[test]
    fn tick_detects_silent_system() {
        let mut cfg = SysplexConfig::functional("PLEX1");
        cfg.heartbeat = HeartbeatConfig {
            interval: Duration::from_millis(5),
            failure_threshold: Duration::from_millis(25),
            auto_failure: true,
        };
        let p = Sysplex::new(cfg);
        let _s0 = p.ipl(SystemConfig::cmos(SystemId::new(0), 1));
        let s1 = p.ipl(SystemConfig::cmos(SystemId::new(1), 1));
        // System 1's image stops pulsing: emulate by failing the image so
        // tick() skips it (state != Active) while the monitor still tracks
        // it as Active.
        s1.fail();
        std::thread::sleep(Duration::from_millis(50));
        let failed = p.tick();
        assert_eq!(failed, vec![SystemId::new(1)]);
        p.remove_planned(SystemId::new(0));
    }

    #[test]
    fn planned_removal_is_not_a_failure() {
        let p = plex();
        let _s0 = p.ipl(SystemConfig::cmos(SystemId::new(0), 1));
        let _s1 = p.ipl(SystemConfig::cmos(SystemId::new(1), 1));
        p.remove_planned(SystemId::new(1));
        assert!(!p.farm.fence().is_fenced(1), "no fence on planned removal");
        assert_eq!(p.wlm.online_systems(), vec![SystemId::new(0)]);
        assert!(p.tick().is_empty(), "monitor does not declare the removed system failed");
        p.remove_planned(SystemId::new(0));
    }
}
