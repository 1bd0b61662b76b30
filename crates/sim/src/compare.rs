//! Data-sharing vs data-partitioning under real-world demand (E6).
//!
//! §2.3's argument, quantified. Both designs get the same hardware (N
//! nodes of `cpus_per_node` engines) and the same offered load; they
//! differ in what a transaction costs and where it must run:
//!
//! * **Data-partitioning (shared nothing)** — a transaction runs on the
//!   node that owns its data: the offered rate per node follows the
//!   demand's partition shares, so skew and migrating hotspots pile work
//!   onto one node no matter how idle the others are. Transactions that
//!   touch several partitions pay the function-shipping message cost.
//!   Upside: no data-sharing overhead at all.
//! * **Data-sharing (Parallel Sysplex)** — any transaction runs anywhere:
//!   the router spreads load by current queue depth (WLM-style), so
//!   demand shape is irrelevant. Every transaction pays the CF
//!   data-sharing cost (§4's ≈ 17 % + ~0.4 %/member).
//!
//! The crossover the paper predicts: partitioning wins a few percent on a
//! perfectly uniform, perfectly tuned workload; the moment demand skews
//! or moves, the partitioned hot node saturates while the sysplex sails
//! on.

use crate::constants::{DEFAULT_MULTI_PARTITION_FRACTION, REMOTE_REQUEST_CPU_US};
use crate::datasharing::TxnCostModel;
use crate::mp::tcmp_effective_cpus;
use crate::queueing::{run, Node, QueueSimConfig, SimOutcome};
use sysplex_workload::hotspot::HotspotModel;

/// Which architecture to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// Parallel Sysplex: shared data, capacity-based routing.
    DataSharing,
    /// Shared nothing: partition-affinity routing, function shipping.
    DataPartitioning,
}

/// Comparison scenario.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Nodes (= partitions in the shared-nothing design).
    pub nodes: usize,
    /// Engines per node.
    pub cpus_per_node: usize,
    /// Demand shape over time.
    pub hotspot: HotspotModel,
    /// Offered load as a fraction of the *data-sharing* aggregate
    /// capacity (the same absolute tps is offered to both designs).
    pub load_fraction: f64,
    /// Fraction of transactions touching more than one partition.
    pub multi_partition_fraction: f64,
    /// Seconds per hotspot period.
    pub period_s: f64,
    /// Simulator clock.
    pub sim: QueueSimConfig,
    /// Cost model.
    pub model: TxnCostModel,
}

impl CompareConfig {
    /// A 4-node scenario under `hotspot` at 70 % load.
    pub fn new(nodes: usize, hotspot: HotspotModel) -> Self {
        CompareConfig {
            nodes,
            cpus_per_node: 10,
            hotspot,
            load_fraction: 0.70,
            multi_partition_fraction: DEFAULT_MULTI_PARTITION_FRACTION,
            period_s: 10.0,
            sim: QueueSimConfig::default(),
            model: TxnCostModel::default(),
        }
    }

    fn engines_per_node(&self) -> f64 {
        tcmp_effective_cpus(self.cpus_per_node)
    }

    /// Node capacity in tps under one design.
    pub fn node_capacity_tps(&self, design: Design) -> f64 {
        let cpu_us = match design {
            Design::DataSharing => self.model.cpu_per_txn_us(self.nodes, self.nodes >= 2),
            Design::DataPartitioning => {
                // No CF cost; multi-partition transactions function-ship.
                self.model.base_cpu_us + self.multi_partition_fraction * REMOTE_REQUEST_CPU_US
            }
        };
        self.engines_per_node() * 1_000_000.0 / cpu_us
    }

    /// The common offered load, tps.
    pub fn offered_tps(&self) -> f64 {
        self.load_fraction * self.nodes as f64 * self.node_capacity_tps(Design::DataSharing)
    }
}

/// Outcome of one design under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResult {
    /// The design simulated.
    pub design: Design,
    /// Offered load, tps.
    pub offered_tps: f64,
    /// Sustained throughput, tps.
    pub throughput_tps: f64,
    /// completed / offered.
    pub completion_ratio: f64,
    /// Mean queueing delay, milliseconds.
    pub avg_delay_ms: f64,
    /// Largest backlog seen on any node.
    pub peak_queue: f64,
    /// Raw simulator outcome.
    pub outcome: SimOutcome,
}

/// Simulate one design under the scenario.
pub fn run_comparison(config: &CompareConfig, design: Design) -> CompareResult {
    let offered = config.offered_tps();
    let cap = config.node_capacity_tps(design);
    let nodes: Vec<Node> = (0..config.nodes).map(|_| Node::new(cap)).collect();
    let n = config.nodes;
    let hotspot = config.hotspot;
    let dt = config.sim.dt_s;
    let period = config.period_s;
    let outcome = match design {
        Design::DataPartitioning => run(config.sim, nodes, move |step, _queues| {
            // Demand follows the data: partition shares map 1:1 to nodes.
            let t = (step as f64 * dt) / period;
            hotspot.shares_at(t).into_iter().map(|s| s * offered).collect()
        }),
        Design::DataSharing => run(config.sim, nodes, move |_step, queues| {
            // WLM-style routing: offered load splits inversely to backlog
            // (join-shorter-queues, smoothed).
            let weights: Vec<f64> = queues.iter().map(|q| 1.0 / (1.0 + q)).collect();
            let total_w: f64 = weights.iter().sum();
            weights.into_iter().map(|w| offered * w / total_w).collect::<Vec<f64>>()
        }),
    };
    let _ = n;
    let wall = config.sim.dt_s * config.sim.steps as f64;
    CompareResult {
        design,
        offered_tps: offered,
        throughput_tps: outcome.completed / wall,
        completion_ratio: outcome.completion_ratio,
        avg_delay_ms: outcome.avg_delay_s * 1_000.0,
        peak_queue: outcome.peak_queue,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_workload::hotspot::HotspotKind;

    fn scenario(kind: HotspotKind) -> CompareConfig {
        CompareConfig::new(4, HotspotModel { partitions: 4, kind })
    }

    #[test]
    fn uniform_load_partitioning_is_competitive() {
        let cfg = scenario(HotspotKind::Uniform);
        let sharing = run_comparison(&cfg, Design::DataSharing);
        let partitioned = run_comparison(&cfg, Design::DataPartitioning);
        // Both sustain the load...
        assert!(sharing.completion_ratio > 0.98, "{sharing:?}");
        assert!(partitioned.completion_ratio > 0.98, "{partitioned:?}");
        // ...and the well-tuned partitioned system has the raw-capacity
        // edge (no data-sharing overhead): §2.3's concession.
        assert!(cfg.node_capacity_tps(Design::DataPartitioning) > cfg.node_capacity_tps(Design::DataSharing));
    }

    #[test]
    fn static_skew_saturates_the_partitioned_hot_node() {
        let cfg = scenario(HotspotKind::Static { hot_share: 0.55 });
        let sharing = run_comparison(&cfg, Design::DataSharing);
        let partitioned = run_comparison(&cfg, Design::DataPartitioning);
        assert!(sharing.completion_ratio > 0.98, "sysplex unaffected by skew: {sharing:?}");
        assert!(partitioned.completion_ratio < 0.85, "hot partition over capacity: {partitioned:?}");
        assert!(partitioned.avg_delay_ms > sharing.avg_delay_ms * 10.0);
        // E6's heavy row: at 70 % skew the hot node completes under 75 %.
        let cfg = scenario(HotspotKind::Static { hot_share: 0.70 });
        let sharing = run_comparison(&cfg, Design::DataSharing);
        let partitioned = run_comparison(&cfg, Design::DataPartitioning);
        assert!(sharing.completion_ratio > 0.98, "sysplex unaffected by skew: {sharing:?}");
        assert!(partitioned.completion_ratio < 0.75, "hot partition saturated: {partitioned:?}");
    }

    #[test]
    fn migrating_hotspot_cannot_be_tuned_away() {
        let cfg = scenario(HotspotKind::Migrating { hot_share: 0.55 });
        let sharing = run_comparison(&cfg, Design::DataSharing);
        let partitioned = run_comparison(&cfg, Design::DataPartitioning);
        assert!(sharing.completion_ratio > 0.98);
        // The hot node saturates while hot and drains late after the
        // hotspot moves on: work completes eventually but response time
        // explodes — §2.3's "over- or under-utilization" in action.
        assert!(partitioned.completion_ratio < 0.99, "{partitioned:?}");
        assert!(
            partitioned.avg_delay_ms > sharing.avg_delay_ms * 20.0,
            "partitioned delay {} vs sharing {}",
            partitioned.avg_delay_ms,
            sharing.avg_delay_ms
        );
        assert!(partitioned.peak_queue > sharing.peak_queue * 10.0);
    }

    #[test]
    fn sharing_throughput_tracks_offered_load() {
        let cfg = scenario(HotspotKind::Bursty { hot_share: 0.8, duty: 0.3 });
        let sharing = run_comparison(&cfg, Design::DataSharing);
        assert!((sharing.throughput_tps / sharing.offered_tps) > 0.97);
    }

    #[test]
    fn offered_load_is_identical_across_designs() {
        let cfg = scenario(HotspotKind::Uniform);
        let a = run_comparison(&cfg, Design::DataSharing);
        let b = run_comparison(&cfg, Design::DataPartitioning);
        assert_eq!(a.offered_tps, b.offered_tps);
    }
}
