//! Response time vs offered load — the queueing knee.
//!
//! §2.3's argument is ultimately about response time: a partitioned system
//! whose hot node runs close to saturation sits on the steep part of the
//! queueing curve while its cold nodes idle. This module sweeps offered
//! load for both designs under a fixed demand shape and reports the mean
//! queueing delay, making the knee (and where each design hits it)
//! visible.

use crate::compare::{run_comparison, CompareConfig, Design};
use sysplex_workload::hotspot::HotspotModel;

/// One point of the response curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponsePoint {
    /// Offered load as a fraction of the data-sharing aggregate capacity.
    pub load_fraction: f64,
    /// Data-sharing mean queueing delay, ms.
    pub ds_delay_ms: f64,
    /// Data-sharing completion ratio.
    pub ds_completion: f64,
    /// Data-partitioning mean queueing delay, ms.
    pub dp_delay_ms: f64,
    /// Data-partitioning completion ratio.
    pub dp_completion: f64,
}

/// Sweep `loads` (fractions of aggregate capacity) for both designs under
/// one demand shape.
pub fn response_curve(nodes: usize, hotspot: HotspotModel, loads: &[f64]) -> Vec<ResponsePoint> {
    loads
        .iter()
        .map(|&load| {
            let mut cfg = CompareConfig::new(nodes, hotspot);
            cfg.load_fraction = load;
            let ds = run_comparison(&cfg, Design::DataSharing);
            let dp = run_comparison(&cfg, Design::DataPartitioning);
            ResponsePoint {
                load_fraction: load,
                ds_delay_ms: ds.avg_delay_ms,
                ds_completion: ds.completion_ratio,
                dp_delay_ms: dp.avg_delay_ms,
                dp_completion: dp.completion_ratio,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_workload::hotspot::HotspotKind;

    #[test]
    fn delay_has_a_knee_near_saturation() {
        let curve = response_curve(
            4,
            HotspotModel { partitions: 4, kind: HotspotKind::Uniform },
            &[0.3, 0.6, 0.9, 0.99],
        );
        // Monotone-ish growth with a sharp knee: the 99% point dwarfs 60%.
        assert!(curve[3].ds_delay_ms > curve[1].ds_delay_ms * 5.0 || curve[3].ds_delay_ms > 50.0);
        assert!(curve[0].ds_delay_ms < 20.0, "light load is fast: {:?}", curve[0]);
        for p in &curve[..3] {
            assert!(p.ds_completion > 0.98);
        }
    }

    #[test]
    fn skew_moves_the_partitioned_knee_left() {
        let loads = [0.5, 0.6, 0.7];
        let uniform = response_curve(4, HotspotModel { partitions: 4, kind: HotspotKind::Uniform }, &loads);
        let skewed = response_curve(
            4,
            HotspotModel { partitions: 4, kind: HotspotKind::Static { hot_share: 0.55 } },
            &loads,
        );
        // At 70% load: uniform partitioned is fine, skewed partitioned is
        // already saturated — the knee moved left. Data sharing is
        // unaffected by the shape.
        assert!(uniform[2].dp_completion > 0.98);
        assert!(skewed[2].dp_completion < 0.90, "{:?}", skewed[2]);
        assert!(skewed[2].ds_completion > 0.98);
        // At lighter load the skewed hot node sits near its own knee:
        // never faster than the balanced case.
        assert!(skewed[0].dp_delay_ms >= uniform[0].dp_delay_ms);
        // E6c's sweep: at 80 % load data sharing is still flat while the
        // partitioned delay has grown tenfold from its 30 % value.
        let sweep = response_curve(
            4,
            HotspotModel { partitions: 4, kind: HotspotKind::Static { hot_share: 0.55 } },
            &[0.3, 0.5, 0.6, 0.7, 0.8],
        );
        assert!(sweep[4].ds_delay_ms < 50.0, "sysplex still flat at 80 % load: {:?}", sweep[4]);
        assert!(sweep[4].dp_delay_ms > sweep[0].dp_delay_ms * 10.0, "partitioned knee inside the sweep");
    }
}
