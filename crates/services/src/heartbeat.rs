//! Heartbeat monitoring with fail-stop isolation.
//!
//! §3.2, third building block: "processor heartbeat monitoring is provided.
//! In addition to standard monitoring of each processor's health, functions
//! are also provided to automatically terminate a failed processor and
//! disconnect the processor from its I/O devices. This enables other
//! multi-system components to be designed with a 'fail-stop' strategy."
//!
//! Each active system periodically [`HeartbeatMonitor::pulse`]s, writing a
//! status record (its current TOD) to the couple data set. The monitor's
//! [`HeartbeatMonitor::check_once`] sweep declares any system whose status
//! is older than the failure threshold **failed**: it is fenced from all
//! I/O *first* (so a zombie that wakes up later can do no harm), its XCF
//! members are failed out of their groups, and failure callbacks (the ARM)
//! fire. The same path serves failure injection in tests and benches via
//! [`HeartbeatMonitor::declare_failed`].

use crate::cds::{CdsError, CoupleDataSet};
use crate::timer::SysplexTimer;
use crate::timer::Tod;
use crate::xcf::Xcf;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use sysplex_core::trace::{TraceEvent, Tracer, TRACE_SYSTEM_CF};
use sysplex_core::SystemId;
use sysplex_dasd::fence::FenceControl;

/// Monitoring policy (the SFM — sysplex failure management — policy).
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    /// Expected pulse interval.
    pub interval: Duration,
    /// Status older than this marks the system failed.
    pub failure_threshold: Duration,
    /// SFM automatic action: when true (ISOLATETIME-style policy) an
    /// overdue system is fenced and failed immediately; when false
    /// (PROMPT-style) it is parked as
    /// [`HealthState::PendingOperator`] until
    /// [`HeartbeatMonitor::confirm_failure`] or a fresh pulse clears it.
    pub auto_failure: bool,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(50),
            failure_threshold: Duration::from_millis(200),
            auto_failure: true,
        }
    }
}

/// Tracked health state of one system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Pulsing normally.
    Active,
    /// Overdue under a PROMPT-style SFM policy; awaiting the operator.
    PendingOperator,
    /// Declared failed (fenced, members failed out).
    Failed,
    /// Removed in a planned, orderly way.
    Removed,
}

type FailureCallback = Box<dyn Fn(SystemId) + Send + Sync>;

/// The sysplex heartbeat monitor.
pub struct HeartbeatMonitor {
    config: HeartbeatConfig,
    cds: Arc<CoupleDataSet>,
    timer: Arc<SysplexTimer>,
    fence: Arc<FenceControl>,
    xcf: Arc<Xcf>,
    tracked: Mutex<HashMap<SystemId, HealthState>>,
    callbacks: Mutex<Vec<FailureCallback>>,
    tracer: OnceLock<Arc<Tracer>>,
}

impl HeartbeatMonitor {
    /// Build the monitor over the shared services.
    pub fn new(
        config: HeartbeatConfig,
        cds: Arc<CoupleDataSet>,
        timer: Arc<SysplexTimer>,
        fence: Arc<FenceControl>,
        xcf: Arc<Xcf>,
    ) -> Arc<Self> {
        Arc::new(HeartbeatMonitor {
            config,
            cds,
            timer,
            fence,
            xcf,
            tracked: Mutex::new(HashMap::new()),
            callbacks: Mutex::new(Vec::new()),
            tracer: OnceLock::new(),
        })
    }

    /// Route miss/fence trace events to the sysplex-wide component tracer.
    /// Called once, when the sysplex assembles its services; a later call
    /// leaves the first tracer in place.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    /// The monitoring policy.
    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Subscribe to failure declarations (the ARM registers here).
    pub fn on_failure(&self, cb: impl Fn(SystemId) + Send + Sync + 'static) {
        self.callbacks.lock().push(Box::new(cb));
    }

    fn status_record(system: SystemId) -> String {
        format!("STATUS.{:02}", system.0)
    }

    /// Begin tracking a system (IPL); writes an initial pulse.
    pub fn register(&self, system: SystemId) -> Result<(), CdsError> {
        self.pulse(system)?;
        self.tracked.lock().insert(system, HealthState::Active);
        Ok(())
    }

    /// Orderly removal: stop tracking without a failure declaration.
    pub fn deregister(&self, system: SystemId) {
        self.tracked.lock().insert(system, HealthState::Removed);
    }

    /// Write this system's status record. A fenced zombie gets an I/O
    /// error here — its cue to fail-stop.
    pub fn pulse(&self, system: SystemId) -> Result<(), CdsError> {
        let tod = self.timer.tod();
        self.cds.write_record(system.0, &Self::status_record(system), &tod.0.to_be_bytes())
    }

    /// Last recorded pulse of a system.
    pub fn last_pulse(&self, system: SystemId) -> Result<Option<Tod>, CdsError> {
        let rec = self.cds.read_record(self.monitor_identity(), &Self::status_record(system))?;
        Ok(rec.filter(|r| r.len() == 8).map(|r| Tod(u64::from_be_bytes(r[..8].try_into().unwrap()))))
    }

    // The monitor role is distributed: every healthy system runs the sweep.
    // Reads are issued under the identity of the lowest-numbered active
    // (hence unfenced) system.
    fn monitor_identity(&self) -> u8 {
        self.tracked
            .lock()
            .iter()
            .filter(|(_, s)| **s == HealthState::Active)
            .map(|(id, _)| id.0)
            .min()
            .unwrap_or(0)
    }

    /// Health of a system as last assessed.
    pub fn state_of(&self, system: SystemId) -> Option<HealthState> {
        self.tracked.lock().get(&system).copied()
    }

    /// Sweep all tracked systems; handle overdue ones per the SFM policy
    /// (auto: declare failed; prompt: park for the operator; a parked
    /// system that pulses again returns to Active). Returns the newly
    /// failed systems.
    pub fn check_once(&self) -> Vec<SystemId> {
        let now = self.timer.tod();
        let threshold_us = self.config.failure_threshold.as_micros() as u64;
        let mut candidates: Vec<(SystemId, HealthState)> = {
            let tracked = self.tracked.lock();
            tracked
                .iter()
                .filter(|(_, s)| matches!(s, HealthState::Active | HealthState::PendingOperator))
                .map(|(id, s)| (*id, *s))
                .collect()
        };
        // Sweep in system order: the miss/fence sequence is trace-visible,
        // and deterministic replays need simultaneous expiries to fence in
        // the same order every run.
        candidates.sort_by_key(|(id, _)| *id);
        let mut failed = Vec::new();
        for (sys, state) in candidates {
            let overdue = match self.last_pulse(sys) {
                Ok(Some(t)) => now.micros_since(t) > threshold_us,
                Ok(None) => true,
                Err(_) => false, // CDS trouble is not a system failure
            };
            if overdue {
                // The miss is observed by the (distributed) monitor, not
                // by the silent system itself.
                if let Some(tracer) = self.tracer.get() {
                    tracer.emit(TRACE_SYSTEM_CF, 0, TraceEvent::HeartbeatMiss { system: sys.0 });
                }
            }
            match (overdue, state) {
                (true, _) if self.config.auto_failure => {
                    self.fail(sys);
                    failed.push(sys);
                }
                (true, HealthState::Active) => {
                    self.tracked.lock().insert(sys, HealthState::PendingOperator);
                }
                (true, _) => {} // still parked
                (false, HealthState::PendingOperator) => {
                    // It came back before the operator acted: no fail-stop
                    // hazard, because nothing was fenced yet and nothing
                    // reacted yet.
                    self.tracked.lock().insert(sys, HealthState::Active);
                }
                (false, _) => {}
            }
        }
        failed
    }

    /// Systems parked for operator action under a PROMPT policy.
    pub fn pending_operator(&self) -> Vec<SystemId> {
        let mut v: Vec<SystemId> = self
            .tracked
            .lock()
            .iter()
            .filter(|(_, s)| **s == HealthState::PendingOperator)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// The operator confirms a parked system is really down: run the full
    /// failure choreography.
    pub fn confirm_failure(&self, system: SystemId) -> bool {
        if self.state_of(system) == Some(HealthState::PendingOperator) {
            self.fail(system);
            true
        } else {
            false
        }
    }

    /// Immediately declare a system failed (failure injection, or an
    /// operator-initiated system reset).
    pub fn declare_failed(&self, system: SystemId) -> bool {
        let is_active = self.state_of(system) == Some(HealthState::Active);
        if is_active {
            self.fail(system);
        }
        is_active
    }

    fn fail(&self, system: SystemId) {
        // Order matters: fence FIRST (fail-stop), then fail XCF members,
        // then let subscribers (ARM) plan restarts.
        self.fence.fence(system.0);
        if let Some(tracer) = self.tracer.get() {
            tracer.emit(TRACE_SYSTEM_CF, 0, TraceEvent::Fence { system: system.0 });
        }
        self.tracked.lock().insert(system, HealthState::Failed);
        self.xcf.fail_system(system);
        for cb in self.callbacks.lock().iter() {
            cb(system);
        }
    }

    /// Systems currently tracked as active.
    pub fn active_systems(&self) -> Vec<SystemId> {
        let mut v: Vec<SystemId> = self
            .tracked
            .lock()
            .iter()
            .filter(|(_, s)| **s == HealthState::Active)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for HeartbeatMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatMonitor").field("config", &self.config).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_dasd::duplex::DuplexPair;
    use sysplex_dasd::volume::{IoModel, Volume};

    struct Rig {
        monitor: Arc<HeartbeatMonitor>,
        fence: Arc<FenceControl>,
        xcf: Arc<Xcf>,
        /// Virtual: tests steer time with `advance` instead of sleeping, so
        /// fencing outcomes do not depend on wall-clock margins.
        timer: Arc<SysplexTimer>,
    }

    fn rig(threshold: Duration) -> Rig {
        let timer = SysplexTimer::new_virtual();
        let fence = Arc::new(FenceControl::new());
        let cds = CoupleDataSet::new(
            DuplexPair::new(Arc::new(Volume::new("CDS01", 128, IoModel::instant())), None),
            Arc::clone(&fence),
            Arc::clone(&timer),
            128,
        );
        let xcf = Xcf::new(Arc::clone(&timer));
        let monitor = HeartbeatMonitor::new(
            HeartbeatConfig {
                interval: Duration::from_millis(5),
                failure_threshold: threshold,
                auto_failure: true,
            },
            cds,
            Arc::clone(&timer),
            Arc::clone(&fence),
            Arc::clone(&xcf),
        );
        Rig { monitor, fence, xcf, timer }
    }

    fn prompt_rig(threshold: Duration) -> Rig {
        let r = rig(threshold);
        let mut cfg = r.monitor.config();
        cfg.auto_failure = false;
        let monitor = HeartbeatMonitor::new(
            cfg,
            r.monitor.cds.clone(),
            r.monitor.timer.clone(),
            Arc::clone(&r.fence),
            Arc::clone(&r.xcf),
        );
        Rig { monitor, fence: Arc::clone(&r.fence), xcf: Arc::clone(&r.xcf), timer: Arc::clone(&r.timer) }
    }

    #[test]
    fn prompt_policy_parks_for_operator_and_recovers_on_pulse() {
        let r = prompt_rig(Duration::from_millis(20));
        r.monitor.register(SystemId::new(0)).unwrap();
        r.timer.advance(Duration::from_millis(40));
        assert!(r.monitor.check_once().is_empty(), "prompt policy never auto-fails");
        assert_eq!(r.monitor.pending_operator(), vec![SystemId::new(0)]);
        assert!(!r.fence.is_fenced(0), "nothing fenced while parked");
        // The system was merely slow: a pulse returns it to Active.
        r.monitor.pulse(SystemId::new(0)).unwrap();
        r.monitor.check_once();
        assert_eq!(r.monitor.state_of(SystemId::new(0)), Some(HealthState::Active));
        assert!(r.monitor.pending_operator().is_empty());
    }

    #[test]
    fn prompt_policy_operator_confirms_failure() {
        let r = prompt_rig(Duration::from_millis(20));
        r.monitor.register(SystemId::new(3)).unwrap();
        r.timer.advance(Duration::from_millis(40));
        r.monitor.check_once();
        assert_eq!(r.monitor.pending_operator(), vec![SystemId::new(3)]);
        assert!(r.monitor.confirm_failure(SystemId::new(3)));
        assert!(r.fence.is_fenced(3), "operator confirmation runs the full choreography");
        assert!(!r.monitor.confirm_failure(SystemId::new(3)), "idempotent");
    }

    #[test]
    fn healthy_systems_stay_active() {
        let r = rig(Duration::from_millis(100));
        r.monitor.register(SystemId::new(0)).unwrap();
        r.monitor.register(SystemId::new(1)).unwrap();
        assert!(r.monitor.check_once().is_empty());
        assert_eq!(r.monitor.active_systems(), vec![SystemId::new(0), SystemId::new(1)]);
    }

    #[test]
    fn silent_system_is_declared_failed_and_fenced() {
        let r = rig(Duration::from_millis(30));
        r.monitor.register(SystemId::new(0)).unwrap();
        r.monitor.register(SystemId::new(1)).unwrap();
        // System 1 goes silent; system 0 keeps pulsing.
        r.timer.advance(Duration::from_millis(50));
        r.monitor.pulse(SystemId::new(0)).unwrap();
        let failed = r.monitor.check_once();
        assert_eq!(failed, vec![SystemId::new(1)]);
        assert!(r.fence.is_fenced(1), "failed system fenced from I/O");
        assert!(!r.fence.is_fenced(0));
        assert_eq!(r.monitor.state_of(SystemId::new(1)), Some(HealthState::Failed));
        // Zombie pulse now fails — fail-stop works.
        assert!(r.monitor.pulse(SystemId::new(1)).is_err());
    }

    #[test]
    fn failure_fails_xcf_members_and_fires_callbacks() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let r = rig(Duration::from_millis(1));
        let fired = Arc::new(AtomicU8::new(255));
        {
            let fired = Arc::clone(&fired);
            r.monitor.on_failure(move |sys| fired.store(sys.0, Ordering::SeqCst));
        }
        let _m = r.xcf.join("G", "VICTIM", SystemId::new(2)).unwrap();
        r.monitor.register(SystemId::new(2)).unwrap();
        r.timer.advance(Duration::from_millis(10));
        assert_eq!(r.monitor.check_once(), vec![SystemId::new(2)]);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "ARM-style callback fired");
        assert!(r.xcf.members("G").is_empty(), "member failed out of the group");
    }

    #[test]
    fn declare_failed_is_idempotent() {
        let r = rig(Duration::from_secs(60));
        r.monitor.register(SystemId::new(0)).unwrap();
        assert!(r.monitor.declare_failed(SystemId::new(0)));
        assert!(!r.monitor.declare_failed(SystemId::new(0)), "second declaration is a no-op");
    }

    #[test]
    fn planned_removal_never_declares_failure() {
        let r = rig(Duration::from_millis(10));
        r.monitor.register(SystemId::new(0)).unwrap();
        r.monitor.deregister(SystemId::new(0));
        r.timer.advance(Duration::from_millis(30));
        assert!(r.monitor.check_once().is_empty());
        assert!(!r.fence.is_fenced(0));
        assert_eq!(r.monitor.state_of(SystemId::new(0)), Some(HealthState::Removed));
    }
}
