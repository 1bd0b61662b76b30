//! Standing CF hot-path throughput benchmark (DESIGN.md §8).
//!
//! Sweeps 1/2/4/8 worker threads through uncontended and Zipf-contended
//! lock/list/cache mixes — plus the IRLM `regrant` and `zipf-adaptive`
//! phases measuring the §13 local-interest fast path and online
//! lock-table resize — all through the real connection layer, and
//! writes the schema-stable `BENCH_cf_hotpath.json` the CI
//! `hotpath-bench` job checks. `HOTPATH_OPS` overrides the per-thread op
//! count (default 20 000); `HOTPATH_THREADS` overrides the sweep, e.g.
//! `HOTPATH_THREADS=1,4`.
//!
//! Run with: `cargo run --release --example cf_hotpath`

use sysplex_bench::hotpath;

fn main() {
    let ops: u64 = std::env::var("HOTPATH_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000);
    let threads: Vec<usize> = std::env::var("HOTPATH_THREADS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    let report = hotpath::run(ops, &threads);
    print!("{}", report.render_table());

    let json = report.to_json();
    std::fs::write("BENCH_cf_hotpath.json", &json).expect("write BENCH_cf_hotpath.json");
    println!("wrote BENCH_cf_hotpath.json ({} bytes)", json.len());

    assert!(
        report.counters_reconciled,
        "per-class counters must reconcile: issued == sync + async_converted, faulted == 0"
    );
    // Disjoint commands share no cache line, so a second hardware thread
    // must buy real throughput. The phase is a millisecond or two even at
    // its best of five, hence 1.5 and not the 1.7 the table prints.
    if report.hw_threads >= 2 {
        assert!(
            report.scaling_lock_uncontended_2_vs_1 >= 1.5,
            "uncontended lock throughput at 2 threads must be >= 1.5x single-thread, got {:.2}x",
            report.scaling_lock_uncontended_2_vs_1
        );
    }
    // The ≥3x scaling claim needs the hardware to actually run 8 threads;
    // on smaller hosts (laptops, 1-core CI shells) record the numbers but
    // don't assert what the machine can't express.
    if report.hw_threads >= report.max_threads && report.max_threads >= 8 {
        assert!(
            report.scaling_lock_uncontended >= 3.0,
            "uncontended lock throughput at {} threads must be >= 3x single-thread, got {:.2}x",
            report.max_threads,
            report.scaling_lock_uncontended
        );
        // §13 gates, same hardware proviso: a local re-grant must be at
        // least 10x cheaper than the CF round trip it avoids (calibrated
        // against the paper's 100 MB/s link model), the fast path must
        // dominate the re-grant phase, and adaptive resize must hold
        // Zipf false contention under the 1% target at full width.
        assert!(
            report.regrant_p50_speedup >= 10.0,
            "re-grant p50 must be >= 10x below the mb100 CF round trip, got {:.1}x",
            report.regrant_p50_speedup
        );
        for p in report.phases.iter().filter(|p| p.threads == report.max_threads) {
            match p.mode {
                "regrant" => assert!(
                    p.regrant_local_ratio > 0.5,
                    "re-grant phase must complete >50% of requests locally, got {:.3}",
                    p.regrant_local_ratio
                ),
                "zipf-adaptive" => assert!(
                    p.false_contention_pct < 1.0,
                    "adaptive resize must hold false contention under 1%, got {:.2}%",
                    p.false_contention_pct
                ),
                _ => {}
            }
        }
    }
}
