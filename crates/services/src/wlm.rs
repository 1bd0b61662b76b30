//! WLM — the Workload Manager.
//!
//! §2.1: "the ability to dynamically and automatically manage system
//! resources is a key objective. A new component, the Workload Manager
//! (WLM), was designed to meet this objective." §5.1: "the MVS Workload
//! Manager component provides policy-driven system resource management for
//! customer workloads, and is a key component in sysplex-wide workload
//! balancing mechanisms."
//!
//! The reproduction provides the three services the rest of the stack
//! consumes:
//!
//! * a **capacity/utilization registry** — each system reports its
//!   configured capacity (MIPS) and current utilization;
//! * **routing recommendations** — a deterministic smooth-weighted
//!   round-robin over *available* capacity, used by VTAM generic resources
//!   for session placement and by CICS dynamic transaction routing
//!   (§2.3: "work can be directed to other less-utilized system nodes");
//! * a **policy of service classes with goals** — response-time goals with
//!   importance levels and the achieved *performance index*, plus target
//!   selection for ARM restarts.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;
use sysplex_core::SystemId;

/// A service class: a named goal for a slice of the workload.
#[derive(Debug, Clone)]
pub struct ServiceClass {
    /// Class name (e.g. "CICSHIGH").
    pub name: String,
    /// Response-time goal.
    pub goal: Duration,
    /// Importance 1 (highest) ..= 5 (lowest).
    pub importance: u8,
}

#[derive(Debug, Clone, Copy)]
struct SystemCapacity {
    mips: f64,
    utilization: f64,
    online: bool,
    /// Smooth weighted round-robin credit.
    credit: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct ClassPerf {
    completions: u64,
    total_response_us: u64,
}

/// One row of the routing report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingWeight {
    /// The system.
    pub system: SystemId,
    /// Available capacity in MIPS (weight).
    pub weight: f64,
}

/// The Workload Manager.
#[derive(Debug)]
pub struct Wlm {
    systems: Mutex<HashMap<SystemId, SystemCapacity>>,
    classes: Mutex<HashMap<String, (ServiceClass, ClassPerf)>>,
}

impl Default for Wlm {
    fn default() -> Self {
        Self::new()
    }
}

impl Wlm {
    /// An empty policy.
    pub fn new() -> Self {
        Wlm { systems: Mutex::new(HashMap::new()), classes: Mutex::new(HashMap::new()) }
    }

    // ----- capacity registry -----

    /// Register (or resize) a system's configured capacity. An IPL brings
    /// the system (back) online in the routing pool.
    pub fn set_capacity(&self, system: SystemId, mips: f64) {
        let mut s = self.systems.lock();
        let e =
            s.entry(system).or_insert(SystemCapacity { mips, utilization: 0.0, online: true, credit: 0.0 });
        e.mips = mips;
        e.online = true;
        e.utilization = 0.0;
    }

    /// Report a system's current utilization in `[0, 1]`.
    pub fn report_utilization(&self, system: SystemId, utilization: f64) {
        if let Some(e) = self.systems.lock().get_mut(&system) {
            e.utilization = utilization.clamp(0.0, 1.0);
        }
    }

    /// Take a system in or out of the routing pool (quiesce / failure).
    pub fn set_online(&self, system: SystemId, online: bool) {
        if let Some(e) = self.systems.lock().get_mut(&system) {
            e.online = online;
            e.credit = 0.0;
        }
    }

    /// Available capacity of one system in MIPS.
    pub fn available_capacity(&self, system: SystemId) -> Option<f64> {
        self.systems.lock().get(&system).filter(|e| e.online).map(|e| e.mips * (1.0 - e.utilization))
    }

    /// Current routing weights over online systems, sorted by system id.
    pub fn routing_weights(&self) -> Vec<RoutingWeight> {
        let s = self.systems.lock();
        let mut v: Vec<RoutingWeight> = s
            .iter()
            .filter(|(_, e)| e.online)
            .map(|(id, e)| RoutingWeight { system: *id, weight: (e.mips * (1.0 - e.utilization)).max(0.0) })
            .collect();
        v.sort_by_key(|w| w.system);
        v
    }

    /// Recommend the next routing target: deterministic smooth weighted
    /// round-robin, so a system with twice the available capacity receives
    /// twice the sessions/transactions, interleaved smoothly.
    pub fn select_target(&self) -> Option<SystemId> {
        let mut s = self.systems.lock();
        let total: f64 =
            s.values().filter(|e| e.online).map(|e| (e.mips * (1.0 - e.utilization)).max(0.0)).sum();
        if total <= 0.0 {
            // All saturated or none online: fall back to any online system.
            return s.iter().filter(|(_, e)| e.online).map(|(id, _)| *id).min();
        }
        let mut best: Option<SystemId> = None;
        let mut best_credit = f64::NEG_INFINITY;
        for (id, e) in s.iter_mut() {
            if !e.online {
                continue;
            }
            let w = (e.mips * (1.0 - e.utilization)).max(0.0);
            e.credit += w;
            if e.credit > best_credit || (e.credit == best_credit && Some(*id) < best) {
                best_credit = e.credit;
                best = Some(*id);
            }
        }
        if let Some(id) = best {
            s.get_mut(&id).unwrap().credit -= total;
        }
        best
    }

    /// The online system with the most available capacity (ARM restart
    /// target selection, §2.5: "a target restart system based on the
    /// current resource utilization across the available processors").
    pub fn least_utilized(&self) -> Option<SystemId> {
        self.routing_weights()
            .into_iter()
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())
            .map(|w| w.system)
    }

    /// Online systems, sorted.
    pub fn online_systems(&self) -> Vec<SystemId> {
        let mut v: Vec<SystemId> =
            self.systems.lock().iter().filter(|(_, e)| e.online).map(|(id, _)| *id).collect();
        v.sort();
        v
    }

    // ----- service-class policy -----

    /// Install (or replace) a service class.
    pub fn define_class(&self, class: ServiceClass) {
        self.classes.lock().insert(class.name.clone(), (class, ClassPerf::default()));
    }

    /// Record a completed unit of work against a class.
    pub fn record_completion(&self, class: &str, response: Duration) {
        if let Some((_, perf)) = self.classes.lock().get_mut(class) {
            perf.completions += 1;
            perf.total_response_us += response.as_micros() as u64;
        }
    }

    /// Performance index: achieved mean response / goal. `< 1.0` means the
    /// goal is being met. `None` until the class sees completions.
    pub fn performance_index(&self, class: &str) -> Option<f64> {
        let classes = self.classes.lock();
        let (c, perf) = classes.get(class)?;
        if perf.completions == 0 {
            return None;
        }
        let mean_us = perf.total_response_us as f64 / perf.completions as f64;
        Some(mean_us / c.goal.as_micros() as f64)
    }

    /// Importance of a class (used by routing tie-breaks and shed policies).
    pub fn importance(&self, class: &str) -> Option<u8> {
        self.classes.lock().get(class).map(|(c, _)| c.importance)
    }

    /// One report row per service class, sorted by importance then name —
    /// the RMF workload-activity view of the installed policy.
    pub fn class_reports(&self) -> Vec<ClassReport> {
        let classes = self.classes.lock();
        let mut v: Vec<ClassReport> = classes
            .values()
            .map(|(c, perf)| {
                let mean_response = perf
                    .total_response_us
                    .checked_div(perf.completions)
                    .map_or(Duration::ZERO, Duration::from_micros);
                let performance_index = if perf.completions == 0 {
                    None
                } else {
                    let mean_us = perf.total_response_us as f64 / perf.completions as f64;
                    Some(mean_us / c.goal.as_micros() as f64)
                };
                ClassReport {
                    name: c.name.clone(),
                    goal: c.goal,
                    importance: c.importance,
                    completions: perf.completions,
                    mean_response,
                    performance_index,
                }
            })
            .collect();
        v.sort_by(|a, b| (a.importance, &a.name).cmp(&(b.importance, &b.name)));
        v
    }
}

/// A service-class row of the workload-activity report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class name.
    pub name: String,
    /// Installed response-time goal.
    pub goal: Duration,
    /// Importance 1 (highest) ..= 5 (lowest).
    pub importance: u8,
    /// Completions recorded against the class.
    pub completions: u64,
    /// Achieved mean response time.
    pub mean_response: Duration,
    /// Achieved mean / goal; `< 1.0` meets the goal. `None` until the
    /// class sees completions.
    pub performance_index: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: u8) -> SystemId {
        SystemId::new(n)
    }

    #[test]
    fn weights_reflect_available_capacity() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 100.0);
        w.set_capacity(sys(1), 200.0);
        w.report_utilization(sys(1), 0.5);
        let weights = w.routing_weights();
        assert_eq!(weights.len(), 2);
        assert_eq!(weights[0].weight, 100.0);
        assert_eq!(weights[1].weight, 100.0, "200 MIPS at 50% = 100 available");
    }

    #[test]
    fn select_target_distributes_proportionally() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 300.0);
        w.set_capacity(sys(1), 100.0);
        let mut counts = HashMap::new();
        for _ in 0..400 {
            *counts.entry(w.select_target().unwrap()).or_insert(0) += 1;
        }
        assert_eq!(counts[&sys(0)], 300);
        assert_eq!(counts[&sys(1)], 100);
    }

    #[test]
    fn select_target_is_smooth_not_bursty() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 2.0);
        w.set_capacity(sys(1), 1.0);
        let seq: Vec<u8> = (0..6).map(|_| w.select_target().unwrap().0).collect();
        // Smooth WRR with weights 2:1 interleaves (0,0,1) rather than
        // sending long runs to one system.
        assert_eq!(seq, vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn offline_systems_excluded() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 100.0);
        w.set_capacity(sys(1), 100.0);
        w.set_online(sys(0), false);
        for _ in 0..10 {
            assert_eq!(w.select_target(), Some(sys(1)));
        }
        assert_eq!(w.online_systems(), vec![sys(1)]);
        assert_eq!(w.available_capacity(sys(0)), None);
    }

    #[test]
    fn saturated_pool_still_routes_somewhere() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 100.0);
        w.set_capacity(sys(1), 100.0);
        w.report_utilization(sys(0), 1.0);
        w.report_utilization(sys(1), 1.0);
        assert!(w.select_target().is_some());
    }

    #[test]
    fn least_utilized_picks_most_headroom() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 100.0);
        w.set_capacity(sys(1), 100.0);
        w.set_capacity(sys(2), 100.0);
        w.report_utilization(sys(0), 0.9);
        w.report_utilization(sys(1), 0.2);
        w.report_utilization(sys(2), 0.5);
        assert_eq!(w.least_utilized(), Some(sys(1)));
    }

    #[test]
    fn performance_index_tracks_goal() {
        let w = Wlm::new();
        w.define_class(ServiceClass { name: "OLTP".into(), goal: Duration::from_millis(100), importance: 1 });
        assert_eq!(w.performance_index("OLTP"), None);
        w.record_completion("OLTP", Duration::from_millis(50));
        w.record_completion("OLTP", Duration::from_millis(150));
        let pi = w.performance_index("OLTP").unwrap();
        assert!((pi - 1.0).abs() < 1e-9, "mean 100ms vs goal 100ms → PI 1.0, got {pi}");
        assert_eq!(w.importance("OLTP"), Some(1));
    }

    #[test]
    fn class_reports_sorted_by_importance() {
        let w = Wlm::new();
        w.define_class(ServiceClass { name: "BATCH".into(), goal: Duration::from_secs(5), importance: 3 });
        w.define_class(ServiceClass { name: "OLTP".into(), goal: Duration::from_millis(100), importance: 1 });
        w.record_completion("OLTP", Duration::from_millis(50));
        let rows = w.class_reports();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "OLTP");
        assert_eq!(rows[0].completions, 1);
        assert!((rows[0].performance_index.unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(rows[1].name, "BATCH");
        assert_eq!(rows[1].performance_index, None);
        assert_eq!(rows[1].mean_response, Duration::ZERO);
    }

    #[test]
    fn capacity_resize_takes_effect() {
        let w = Wlm::new();
        w.set_capacity(sys(0), 100.0);
        w.set_capacity(sys(0), 400.0);
        assert_eq!(w.available_capacity(sys(0)), Some(400.0));
    }
}
