//! Figure 3: effective capacity vs physical capacity.
//!
//! Three series over the number of physically configured CPUs:
//!
//! * **Ideal** — the 1:1 line.
//! * **TCMP** — every CPU added to one tightly-coupled system; the MP
//!   effect flattens the curve rapidly (it is drawn past the 10-engine
//!   product limit to show the asymptote, as the paper's figure does).
//! * **Parallel Sysplex** — CPUs arranged as data-sharing systems of
//!   `cpus_per_system` engines; each system pays the TCMP effect
//!   internally and the group pays the data-sharing cost, which grows
//!   under half a percent per member — near-linear growth to 32 systems.
//!
//! Effective capacity is expressed in single-engine units of *useful
//! transaction work*: engines × MP efficiency × (base cost / actual cost).

use crate::datasharing::TxnCostModel;
use crate::mp::tcmp_effective_cpus;

/// One point of the Figure 3 plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPoint {
    /// Physically configured CPUs.
    pub physical_cpus: usize,
    /// Ideal 1:1 effective capacity.
    pub ideal: f64,
    /// Single TCMP with this many engines.
    pub tcmp: f64,
    /// Parallel sysplex of `cpus_per_system`-way systems.
    pub sysplex: f64,
}

/// Effective capacity of a sysplex of `members` systems × `cpus` engines.
/// One non-sharing system is the paper's baseline configuration.
pub fn sysplex_effective(members: usize, cpus_per_system: usize, model: &TxnCostModel) -> f64 {
    if members == 0 {
        return 0.0;
    }
    let sharing = members >= 2;
    let engines = members as f64 * tcmp_effective_cpus(cpus_per_system);
    let cost_ratio = model.base_cpu_us / model.cpu_per_txn_us(members, sharing);
    engines * cost_ratio
}

/// Generate the Figure 3 series for 1..=`max_cpus` physical CPUs with
/// sysplex systems of `cpus_per_system` engines.
pub fn figure3_series(max_cpus: usize, cpus_per_system: usize, model: &TxnCostModel) -> Vec<CapacityPoint> {
    (1..=max_cpus)
        .map(|n| {
            let members = n.div_ceil(cpus_per_system);
            // Partial last system: spread engines evenly for a smooth curve.
            let full = n / cpus_per_system;
            let rem = n % cpus_per_system;
            let sysplex = if members <= 1 {
                sysplex_effective(1, n.min(cpus_per_system), model)
            } else {
                let sharing_cost = model.base_cpu_us / model.cpu_per_txn_us(members, true);
                let engines = full as f64 * tcmp_effective_cpus(cpus_per_system)
                    + if rem > 0 { tcmp_effective_cpus(rem) } else { 0.0 };
                engines * sharing_cost
            };
            CapacityPoint { physical_cpus: n, ideal: n as f64, tcmp: tcmp_effective_cpus(n), sysplex }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<CapacityPoint> {
        figure3_series(320, 10, &TxnCostModel::default())
    }

    #[test]
    fn ideal_dominates_everything() {
        for p in series() {
            assert!(p.tcmp <= p.ideal + 1e-9, "at {}", p.physical_cpus);
            assert!(p.sysplex <= p.ideal + 1e-9, "at {}", p.physical_cpus);
        }
    }

    #[test]
    fn sysplex_overtakes_tcmp_beyond_one_box() {
        let s = series();
        // Within a single 10-way box the two designs coincide (no sharing).
        let p10 = &s[9];
        assert!((p10.sysplex - p10.tcmp).abs() < 1e-9);
        // By 3 boxes the sysplex is clearly ahead of one giant TCMP.
        let p30 = &s[29];
        assert!(p30.sysplex > p30.tcmp * 1.5, "sysplex {} vs tcmp {}", p30.sysplex, p30.tcmp);
        // At 32 systems the TCMP asymptote is left far behind.
        let p320 = &s[319];
        assert!(p320.sysplex > p320.tcmp * 5.0);
        // Figure 3's shape: the sysplex keeps over 60 % of ideal, one
        // giant TCMP has long since fallen under 15 %.
        assert!(p320.sysplex / p320.ideal > 0.60, "sysplex {:.3} of ideal", p320.sysplex / p320.ideal);
        assert!(p320.tcmp / p320.ideal < 0.15, "tcmp {:.3} of ideal", p320.tcmp / p320.ideal);
    }

    #[test]
    fn sysplex_growth_is_near_linear() {
        let model = TxnCostModel::default();
        // Once the one-time data-sharing cost is paid (at 2 members), each
        // added system contributes nearly a full sharing-mode system's
        // capacity: the paper's "near-linear scalability".
        let per_sharing_system = sysplex_effective(2, 10, &model) / 2.0;
        let mut prev = sysplex_effective(2, 10, &model);
        for members in 3..=32 {
            let cur = sysplex_effective(members, 10, &model);
            let marginal = cur - prev;
            // Each added member costs every member <0.5% (E2), so by m
            // members the marginal system delivers at least
            // (1 - 0.005·m) of a sharing-mode system.
            let floor = per_sharing_system * (1.0 - 0.006 * members as f64);
            assert!(
                marginal > floor,
                "marginal system adds {marginal:.2}, floor {floor:.2}, at {members} members"
            );
            prev = cur;
        }
        // Total at 32 members stays within 15% of linear sharing-mode
        // scaling — "near-linear".
        let total = sysplex_effective(32, 10, &model);
        assert!(total > 32.0 * per_sharing_system * 0.85, "total {total:.1}");
    }

    #[test]
    fn several_thousand_mips_configurable() {
        // §2.4: "a total processing capacity of several thousand S/390
        // MIPS is configurable" with 32 CMOS systems.
        let total_engines = sysplex_effective(32, 10, &TxnCostModel::default());
        let mips = total_engines * crate::constants::MIPS_PER_CPU;
        assert!(mips > 10_000.0, "32x10 CMOS sysplex ≈ {mips:.0} effective MIPS");
    }

    #[test]
    fn single_system_baseline_pays_no_sharing_cost() {
        let model = TxnCostModel::default();
        let one = sysplex_effective(1, 10, &model);
        assert!((one - tcmp_effective_cpus(10)).abs() < 1e-9);
    }
}
