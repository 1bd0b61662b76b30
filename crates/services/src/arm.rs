//! ARM — the Automatic Restart Manager.
//!
//! §2.5: "the failing subsystem(s) can be automatically restarted on
//! still-healthy systems by the MVS Automatic Restart Manager (ARM)
//! component to perform recovery for work in progress at the time of the
//! failure. ... First, it utilizes the shared state support ... so at any
//! given point in time it is aware of the state of all processes on all
//! processors. Second, it is tied into the processor heartbeat functions.
//! Third, it is integrated with the WLM so that it can provide a target
//! restart system based on the current resource utilization. Finally, it
//! contains many features to provide improved restarts such as affinity of
//! related processes, restart sequencing, and recovery when subsequent
//! failures occur."
//!
//! Subsystems register *elements* with a restart group, a sequence number
//! and optional affinity to another element, plus a restart handler. When
//! the heartbeat declares a system failed, [`Arm::handle_system_failure`]
//! plans the restarts — WLM picks targets, affine elements follow their
//! anchors, groups restart in sequence order — and executes the handlers.
//! If a restart target fails before the element re-registers, the next
//! failure sweep re-plans it (recovery from subsequent failures).

use crate::wlm::Wlm;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysplex_core::wire::{from_bytes, to_bytes};
use sysplex_core::{wire_struct, SystemId};

/// Errors from ARM registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmError {
    /// An element with this name is already registered.
    DuplicateElement(String),
    /// The named element is not registered.
    NoSuchElement(String),
    /// Affinity names an unknown element.
    UnknownAffinity(String),
}

impl fmt::Display for ArmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmError::DuplicateElement(e) => write!(f, "element already registered: {e}"),
            ArmError::NoSuchElement(e) => write!(f, "no such element: {e}"),
            ArmError::UnknownAffinity(e) => write!(f, "affinity to unknown element: {e}"),
        }
    }
}

impl std::error::Error for ArmError {}

/// Registration-time description of a restartable element.
#[derive(Debug, Clone)]
pub struct ElementSpec {
    /// Element name (e.g. "IRLM_SYS02").
    pub name: String,
    /// Restart group: elements in the same group restart together, ordered
    /// by sequence.
    pub restart_group: String,
    /// Restart order within the group (lower first — e.g. the lock manager
    /// before the database manager that needs it).
    pub sequence: u32,
    /// Restart on the same target as this element (related-process
    /// affinity).
    pub affinity_to: Option<String>,
}

wire_struct! { ElementSpec { name, restart_group, sequence, affinity_to } }

/// Lifecycle of an element as ARM sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementState {
    /// Running normally.
    Running,
    /// Its system failed; restart planned/executed, not yet confirmed.
    Restarting,
}

type RestartHandler = Box<dyn Fn(SystemId) + Send + Sync>;

struct Element {
    spec: ElementSpec,
    system: SystemId,
    state: ElementState,
    handler: Option<RestartHandler>,
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Element")
            .field("spec", &self.spec)
            .field("system", &self.system)
            .field("state", &self.state)
            .finish()
    }
}

/// One planned restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartOrder {
    /// Element to restart.
    pub element: String,
    /// Chosen target system.
    pub target: SystemId,
    /// Group the element belongs to.
    pub group: String,
    /// Sequence within the group.
    pub sequence: u32,
}

/// The Automatic Restart Manager.
pub struct Arm {
    elements: Mutex<HashMap<String, Element>>,
    wlm: Arc<Wlm>,
    /// Restarts executed since IPL.
    pub restarts_executed: AtomicU64,
}

impl Arm {
    /// Build the ARM over the WLM (for target selection).
    pub fn new(wlm: Arc<Wlm>) -> Arc<Self> {
        Arc::new(Arm { elements: Mutex::new(HashMap::new()), wlm, restarts_executed: AtomicU64::new(0) })
    }

    /// Register an element running on `system` with its restart handler.
    /// The handler receives the chosen target system; it must bring the
    /// element back up there and then call [`Arm::confirm_restart`].
    pub fn register(
        &self,
        spec: ElementSpec,
        system: SystemId,
        handler: impl Fn(SystemId) + Send + Sync + 'static,
    ) -> Result<(), ArmError> {
        let mut els = self.elements.lock();
        if els.contains_key(&spec.name) {
            return Err(ArmError::DuplicateElement(spec.name));
        }
        if let Some(aff) = &spec.affinity_to {
            if !els.contains_key(aff) {
                return Err(ArmError::UnknownAffinity(aff.clone()));
            }
        }
        els.insert(
            spec.name.clone(),
            Element { spec, system, state: ElementState::Running, handler: Some(Box::new(handler)) },
        );
        Ok(())
    }

    /// Orderly deregistration (element shut down on purpose).
    pub fn deregister(&self, name: &str) -> Result<(), ArmError> {
        self.elements.lock().remove(name).map(|_| ()).ok_or_else(|| ArmError::NoSuchElement(name.to_string()))
    }

    /// The element's restart completed on `target`; it is Running again.
    pub fn confirm_restart(&self, name: &str, target: SystemId) -> Result<(), ArmError> {
        let mut els = self.elements.lock();
        let e = els.get_mut(name).ok_or_else(|| ArmError::NoSuchElement(name.to_string()))?;
        e.system = target;
        e.state = ElementState::Running;
        Ok(())
    }

    /// Where an element currently runs, and its state.
    pub fn whereabouts(&self, name: &str) -> Option<(SystemId, ElementState)> {
        self.elements.lock().get(name).map(|e| (e.system, e.state))
    }

    /// Plan restarts for every element stranded on `failed` (Running *or*
    /// already Restarting there — the "subsequent failures" case).
    ///
    /// Targets come from WLM available capacity; elements with affinity
    /// follow their anchor's target; orders are sorted by (group, sequence).
    pub fn plan_restarts(&self, failed: SystemId) -> Vec<RestartOrder> {
        let mut els = self.elements.lock();
        let stranded: Vec<String> =
            els.iter().filter(|(_, e)| e.system == failed).map(|(n, _)| n.clone()).collect();
        if stranded.is_empty() {
            return Vec::new();
        }
        // Assign targets: anchors first (no affinity, or affinity to an
        // element that is not itself stranded), then affine followers.
        let mut targets: HashMap<String, SystemId> = HashMap::new();
        let mut ordered = stranded.clone();
        ordered.sort_by_key(|n| {
            let e = &els[n];
            (e.spec.restart_group.clone(), e.spec.sequence, n.clone())
        });
        for name in &ordered {
            let e = &els[name];
            let target = match &e.spec.affinity_to {
                Some(anchor) => {
                    if let Some(t) = targets.get(anchor) {
                        *t // follow a stranded anchor's new target
                    } else if let Some(anchor_el) = els.get(anchor) {
                        anchor_el.system // anchor unaffected: join it there
                    } else {
                        self.wlm.least_utilized().unwrap_or(failed)
                    }
                }
                None => self.wlm.least_utilized().unwrap_or(failed),
            };
            targets.insert(name.clone(), target);
        }
        let mut plan = Vec::new();
        for name in ordered {
            let e = els.get_mut(&name).unwrap();
            e.state = ElementState::Restarting;
            plan.push(RestartOrder {
                element: name.clone(),
                target: targets[&name],
                group: e.spec.restart_group.clone(),
                sequence: e.spec.sequence,
            });
        }
        plan
    }

    /// Execute a plan: run each element's handler in plan order. Handlers
    /// are invoked with the elements lock released so they can re-register
    /// or confirm.
    pub fn execute_plan(&self, plan: &[RestartOrder]) {
        for order in plan {
            let handler = {
                let mut els = self.elements.lock();
                els.get_mut(&order.element).and_then(|e| e.handler.take())
            };
            if let Some(h) = handler {
                h(order.target);
                self.restarts_executed.fetch_add(1, Ordering::Relaxed);
                let mut els = self.elements.lock();
                if let Some(e) = els.get_mut(&order.element) {
                    e.handler = Some(h);
                }
            }
        }
    }

    /// Convenience wired to the heartbeat: plan and execute in one step.
    /// Returns the executed plan.
    pub fn handle_system_failure(&self, failed: SystemId) -> Vec<RestartOrder> {
        let plan = self.plan_restarts(failed);
        self.execute_plan(&plan);
        plan
    }

    /// Elements currently registered, sorted by name.
    pub fn element_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.elements.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Snapshot of every element's spec and current system, sorted by name.
    pub fn export_state(&self) -> Vec<(ElementSpec, SystemId)> {
        let els = self.elements.lock();
        let mut v: Vec<(ElementSpec, SystemId)> = els.values().map(|e| (e.spec.clone(), e.system)).collect();
        v.sort_by(|a, b| a.0.name.cmp(&b.0.name));
        v
    }

    /// Persist the element registry to the couple data set (§2.5: ARM
    /// "utilizes the shared state support described in Section 3.2").
    /// Handlers are code, not state — after a sysplex re-IPL the restart
    /// policy is [`Arm::load_from_cds`]-ed and subsystems re-attach their
    /// handlers as they come up.
    pub fn save_to_cds(
        &self,
        cds: &crate::cds::CoupleDataSet,
        as_system: u8,
    ) -> Result<(), crate::cds::CdsError> {
        cds.write_record(as_system, "ARM.POLICY", &to_bytes(&self.export_state()))
    }

    /// Load a previously saved element registry from the couple data set.
    /// Returns the specs with their recorded systems; an empty vector when
    /// no policy was saved.
    pub fn load_from_cds(
        cds: &crate::cds::CoupleDataSet,
        as_system: u8,
    ) -> Result<Vec<(ElementSpec, SystemId)>, crate::cds::CdsError> {
        let Some(data) = cds.read_record(as_system, "ARM.POLICY")? else {
            return Ok(Vec::new());
        };
        Ok(from_bytes(&data).unwrap_or_default())
    }
}

impl fmt::Debug for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arm").field("elements", &self.element_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    fn sys(n: u8) -> SystemId {
        SystemId::new(n)
    }

    fn wlm_three() -> Arc<Wlm> {
        let w = Arc::new(Wlm::new());
        for i in 0..3 {
            w.set_capacity(sys(i), 100.0);
        }
        w
    }

    fn spec(name: &str, group: &str, seq: u32) -> ElementSpec {
        ElementSpec { name: name.into(), restart_group: group.into(), sequence: seq, affinity_to: None }
    }

    #[test]
    fn restart_targets_least_utilized_system() {
        let w = wlm_three();
        w.report_utilization(sys(0), 0.2);
        w.report_utilization(sys(1), 0.9);
        w.report_utilization(sys(2), 0.4);
        w.set_online(sys(1), false); // the failing system leaves the pool
        let arm = Arm::new(Arc::clone(&w));
        arm.register(spec("DB2A", "DBGRP", 1), sys(1), |_| {}).unwrap();
        let plan = arm.plan_restarts(sys(1));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].target, sys(0), "most headroom wins");
    }

    #[test]
    fn groups_restart_in_sequence_order() {
        let w = wlm_three();
        let arm = Arm::new(Arc::clone(&w));
        let log = Arc::new(StdMutex::new(Vec::new()));
        for (name, seq) in [("DBM", 2u32), ("IRLM", 1), ("APP", 3)] {
            let log = Arc::clone(&log);
            let n = name.to_string();
            arm.register(spec(name, "DBGRP", seq), sys(2), move |_| log.lock().unwrap().push(n.clone()))
                .unwrap();
        }
        w.set_online(sys(2), false);
        let plan = arm.handle_system_failure(sys(2));
        assert_eq!(plan.iter().map(|o| o.sequence).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(*log.lock().unwrap(), vec!["IRLM", "DBM", "APP"], "handlers ran in sequence order");
    }

    #[test]
    fn affine_elements_follow_their_anchor() {
        let w = wlm_three();
        let arm = Arm::new(Arc::clone(&w));
        arm.register(spec("ANCHOR", "G", 1), sys(0), |_| {}).unwrap();
        arm.register(
            ElementSpec {
                name: "FOLLOWER".into(),
                restart_group: "G".into(),
                sequence: 2,
                affinity_to: Some("ANCHOR".into()),
            },
            sys(0),
            |_| {},
        )
        .unwrap();
        w.set_online(sys(0), false);
        let plan = arm.plan_restarts(sys(0));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].target, plan[1].target, "follower restarts with its anchor");
    }

    #[test]
    fn affinity_to_unaffected_anchor_joins_it() {
        let w = wlm_three();
        let arm = Arm::new(Arc::clone(&w));
        arm.register(spec("ANCHOR", "G", 1), sys(2), |_| {}).unwrap();
        arm.register(
            ElementSpec {
                name: "FOLLOWER".into(),
                restart_group: "G".into(),
                sequence: 2,
                affinity_to: Some("ANCHOR".into()),
            },
            sys(0),
            |_| {},
        )
        .unwrap();
        // Only the follower's system fails; anchor stays on sys 2.
        w.set_online(sys(0), false);
        let plan = arm.plan_restarts(sys(0));
        assert_eq!(
            plan,
            vec![RestartOrder { element: "FOLLOWER".into(), target: sys(2), group: "G".into(), sequence: 2 }]
        );
    }

    #[test]
    fn subsequent_failure_replans_restarting_elements() {
        let w = wlm_three();
        let arm = Arm::new(Arc::clone(&w));
        arm.register(spec("E", "G", 1), sys(0), |_| {}).unwrap();
        w.report_utilization(sys(1), 0.0);
        w.report_utilization(sys(2), 0.5);
        w.set_online(sys(0), false);
        let plan1 = arm.handle_system_failure(sys(0));
        assert_eq!(plan1[0].target, sys(1));
        // The handler "moved" the element but before confirm, sys(1) dies.
        arm.confirm_restart("E", sys(1)).unwrap();
        w.set_online(sys(1), false);
        let plan2 = arm.handle_system_failure(sys(1));
        assert_eq!(plan2[0].target, sys(2), "re-planned onto the remaining system");
        assert_eq!(arm.restarts_executed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn registration_errors() {
        let arm = Arm::new(wlm_three());
        arm.register(spec("A", "G", 1), sys(0), |_| {}).unwrap();
        assert_eq!(
            arm.register(spec("A", "G", 1), sys(0), |_| {}).unwrap_err(),
            ArmError::DuplicateElement("A".into())
        );
        assert_eq!(
            arm.register(
                ElementSpec {
                    name: "B".into(),
                    restart_group: "G".into(),
                    sequence: 1,
                    affinity_to: Some("ZZ".into())
                },
                sys(0),
                |_| {}
            )
            .unwrap_err(),
            ArmError::UnknownAffinity("ZZ".into())
        );
        arm.deregister("A").unwrap();
        assert_eq!(arm.deregister("A").unwrap_err(), ArmError::NoSuchElement("A".into()));
    }

    #[test]
    fn policy_roundtrips_through_the_couple_data_set() {
        use crate::cds::CoupleDataSet;
        use crate::timer::SysplexTimer;
        use sysplex_dasd::duplex::DuplexPair;
        use sysplex_dasd::fence::FenceControl;
        use sysplex_dasd::volume::{IoModel, Volume};

        let cds = CoupleDataSet::new(
            DuplexPair::new(Arc::new(Volume::new("CDS01", 128, IoModel::instant())), None),
            Arc::new(FenceControl::new()),
            SysplexTimer::new(),
            128,
        );
        let arm = Arm::new(wlm_three());
        arm.register(spec("IRLM", "DB", 1), sys(0), |_| {}).unwrap();
        arm.register(
            ElementSpec {
                name: "DBM".into(),
                restart_group: "DB".into(),
                sequence: 2,
                affinity_to: Some("IRLM".into()),
            },
            sys(1),
            |_| {},
        )
        .unwrap();
        arm.save_to_cds(&cds, 0).unwrap();

        let restored = Arm::load_from_cds(&cds, 2).unwrap();
        assert_eq!(restored.len(), 2);
        let dbm = restored.iter().find(|(s, _)| s.name == "DBM").unwrap();
        assert_eq!(dbm.0.affinity_to.as_deref(), Some("IRLM"));
        assert_eq!(dbm.0.sequence, 2);
        assert_eq!(dbm.1, sys(1));
        // Empty CDS → empty policy.
        let cds2 = CoupleDataSet::new(
            DuplexPair::new(Arc::new(Volume::new("CDS03", 64, IoModel::instant())), None),
            Arc::new(FenceControl::new()),
            SysplexTimer::new(),
            64,
        );
        assert!(Arm::load_from_cds(&cds2, 0).unwrap().is_empty());
    }

    #[test]
    fn confirm_restart_moves_whereabouts() {
        let arm = Arm::new(wlm_three());
        arm.register(spec("A", "G", 1), sys(0), |_| {}).unwrap();
        assert_eq!(arm.whereabouts("A"), Some((sys(0), ElementState::Running)));
        let _ = arm.plan_restarts(sys(0));
        assert_eq!(arm.whereabouts("A"), Some((sys(0), ElementState::Restarting)));
        arm.confirm_restart("A", sys(2)).unwrap();
        assert_eq!(arm.whereabouts("A"), Some((sys(2), ElementState::Running)));
    }
}
