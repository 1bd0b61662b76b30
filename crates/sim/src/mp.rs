//! The tightly-coupled multiprocessor (MP) effect.
//!
//! §4: "TCMP systems provide maximum effective throughput at relatively
//! small numbers of engines, but as more cpus are added to the TCMP
//! system, incremental effective capacity begins to diminish rapidly,
//! limiting ultimate scalability. This is attributable to the overheads
//! associated with inter-processor serialization, memory
//! cross-invalidation and communication required in the hardware ...
//! In addition TCMP overheads are incurred in the system software."
//!
//! Each added engine delivers a geometrically decaying increment; past
//! the supported engine count ([`crate::constants::TCMP_SOFT_LIMIT_CPUS`])
//! the decay steepens — the Figure 3 curve that flattens.

use crate::constants::{TCMP_BEYOND_KNEE_FACTOR, TCMP_MP_FACTOR, TCMP_SOFT_LIMIT_CPUS};

/// Effective engine count of an `n`-way TCMP (in single-engine units).
pub fn tcmp_effective_cpus(n: usize) -> f64 {
    let mut total = 0.0;
    let mut increment = 1.0;
    for i in 0..n {
        total += increment;
        increment *= if i + 1 >= TCMP_SOFT_LIMIT_CPUS { TCMP_BEYOND_KNEE_FACTOR } else { TCMP_MP_FACTOR };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_engine_is_exact() {
        assert_eq!(tcmp_effective_cpus(1), 1.0);
        assert_eq!(tcmp_effective_cpus(0), 0.0);
    }

    #[test]
    fn two_way_matches_published_mp_ratios() {
        // S/390 2-ways delivered ~1.9-1.95 engines.
        let e = tcmp_effective_cpus(2);
        assert!((1.9..1.99).contains(&e), "2-way effective {e}");
    }

    #[test]
    fn ten_way_delivers_about_eight_engines() {
        let e = tcmp_effective_cpus(10);
        assert!((7.5..8.6).contains(&e), "10-way effective {e}");
    }

    #[test]
    fn increments_diminish_monotonically() {
        let mut prev_inc = f64::INFINITY;
        for n in 1..40 {
            let inc = tcmp_effective_cpus(n) - tcmp_effective_cpus(n - 1);
            assert!(inc < prev_inc + 1e-12, "increment grows at {n}");
            assert!(inc > 0.0);
            prev_inc = inc;
        }
    }

    #[test]
    fn curve_flattens_hard_past_the_knee() {
        let inc_at_8 = tcmp_effective_cpus(8) - tcmp_effective_cpus(7);
        let inc_at_20 = tcmp_effective_cpus(20) - tcmp_effective_cpus(19);
        assert!(inc_at_20 < inc_at_8 * 0.25, "post-knee increment collapses");
    }
}
