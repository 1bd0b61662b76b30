//! Parallel coverage-guided campaign sweep (DESIGN.md §12).
//!
//! Industrializes the deterministic harness: one parent process drives a
//! pool of worker processes (re-exec of this binary, like
//! `sysplex_scale.rs`), each running seeded fault campaigns pulled on
//! demand over a stdin/stdout pipe — a work-stealing shape where a fast
//! worker simply pulls more specs. Two sweeps run back to back over the
//! same per-mode budget:
//!
//! * **random** — pure `CampaignSpec::from_seed` sampling (the control);
//! * **guided** — the `SweepEngine` corpus: specs that set novel coverage
//!   bits get mutated (splice/shift/drop/add, duplex flips, reseeds),
//!   biased toward high-yield parents.
//!
//! Both record distinct-coverage-over-time curves side by side in the
//! schema-stable `BENCH_campaign_throughput.json`, making verification
//! speed a tracked perf surface. Any invariant violation found is
//! re-run, greedily shrunk, and printed as a copy-pasteable repro (also
//! written to the file named by `SYSPLEX_SHRINK_REPORT`); the example
//! then exits non-zero. The guided corpus is saved to
//! `CAMPAIGN_CORPUS.txt`, one `CampaignSpec::to_wire` line per entry.
//!
//! Environment knobs:
//!
//! * `SYSPLEX_SWEEP_SECS` — per-mode budget in seconds (default 8).
//! * `SYSPLEX_SWEEP_WORKERS` — worker processes (default min(cores, 4)).
//! * `SYSPLEX_SWEEP_SEED` — engine base seed (default 0xC0FFEE).
//!
//! Run with: `cargo run --release --example campaign_sweep`

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sysplex_harness::campaign::{downsample_curve, CampaignThroughputReport, CurvePoint, ModeResult};
use sysplex_harness::{shrink_plan, CampaignSpec, CoverageMap, SweepConfig, SweepEngine};

const CORPUS_PATH: &str = "CAMPAIGN_CORPUS.txt";
const CURVE_POINTS: usize = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    if std::env::var("SYSPLEX_SWEEP_WORKER").is_ok() {
        run_worker();
        return;
    }
    run_parent();
}

// ---------------------------------------------------------------------------
// Worker: run specs off stdin, report coverage on stdout
// ---------------------------------------------------------------------------

fn run_worker() {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.expect("worker: read spec line");
        if line.trim().is_empty() {
            continue;
        }
        let spec = CampaignSpec::from_wire(line.trim()).expect("worker: parse spec line");
        let outcome = spec.run();
        let coverage = CoverageMap::of(&outcome);
        writeln!(out, "RES {} {}", u8::from(outcome.passed()), coverage.to_wire())
            .and_then(|()| out.flush())
            .expect("worker: write result");
    }
}

// ---------------------------------------------------------------------------
// Parent: demand-driven scheduler over the worker pool
// ---------------------------------------------------------------------------

struct Shared {
    engine: SweepEngine,
    curve: Vec<CurvePoint>,
    /// Specs whose run violated an invariant (worker reported failure).
    violating: Vec<CampaignSpec>,
    /// Specs whose worker died mid-run (panic/abort — also a failure).
    crashed: Vec<CampaignSpec>,
}

fn spawn_worker(exe: &std::path::Path) -> Child {
    Command::new(exe)
        .env("SYSPLEX_SWEEP_WORKER", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sweep worker")
}

fn run_mode(
    mode: &'static str,
    config: SweepConfig,
    workers: usize,
    budget: Duration,
    exe: &std::path::Path,
) -> (ModeResult, Vec<CampaignSpec>, Vec<String>) {
    let shared = Mutex::new(Shared {
        engine: SweepEngine::new(config),
        curve: Vec::new(),
        violating: Vec::new(),
        crashed: Vec::new(),
    });
    let children: Vec<Child> = (0..workers).map(|_| spawn_worker(exe)).collect();
    let started = Instant::now();

    std::thread::scope(|scope| {
        for mut child in children {
            let shared = &shared;
            scope.spawn(move || {
                let mut stdin = child.stdin.take().expect("worker stdin");
                let mut reader = BufReader::new(child.stdout.take().expect("worker stdout"));
                while started.elapsed() < budget {
                    let spec = shared.lock().unwrap().engine.next_spec();
                    if writeln!(stdin, "{}", spec.to_wire()).is_err() {
                        shared.lock().unwrap().crashed.push(spec);
                        break;
                    }
                    let mut line = String::new();
                    let crashed = match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => true,
                        Ok(_) => false,
                    };
                    let Some(rest) = line.trim().strip_prefix("RES ").filter(|_| !crashed) else {
                        shared.lock().unwrap().crashed.push(spec);
                        break;
                    };
                    let (passed, coverage) = rest.split_once(' ').unwrap_or((rest, ""));
                    let coverage = CoverageMap::from_wire(coverage).expect("parse worker coverage");
                    let mut sh = shared.lock().unwrap();
                    sh.engine.record(&spec, &coverage);
                    let t_ms = started.elapsed().as_millis() as u64;
                    let bits = sh.engine.coverage().count() as u64;
                    sh.curve.push(CurvePoint { t_ms, bits });
                    if passed != "1" {
                        sh.violating.push(spec);
                    }
                }
                // Closing stdin is the shutdown signal; the worker's read
                // loop ends on EOF.
                drop(stdin);
                let _ = child.wait();
            });
        }
    });

    let elapsed_ms = started.elapsed().as_millis() as u64;
    let shared = shared.into_inner().unwrap();
    let mut curve = shared.curve;
    if curve.is_empty() {
        curve.push(CurvePoint { t_ms: elapsed_ms, bits: shared.engine.coverage().count() as u64 });
    }
    let mut failures = shared.violating;
    let crashed_count = shared.crashed.len();
    for spec in &shared.crashed {
        println!("[{mode}] WORKER CRASH on campaign — repro: {}", spec.repro());
    }
    failures.extend(shared.crashed);
    let result = ModeResult {
        mode,
        base_seed: config.base_seed,
        campaigns: shared.engine.campaigns(),
        elapsed_ms,
        coverage_bits: shared.engine.coverage().count() as u64,
        corpus_size: shared.engine.corpus().len(),
        violations: failures.len() as u64,
        curve: downsample_curve(&curve, CURVE_POINTS),
    };
    println!(
        "[{mode}] {} campaigns in {:.1} s ({:.1}/s), {} distinct coverage bits, corpus {}, {} \
         violation(s), {} worker crash(es)",
        result.campaigns,
        elapsed_ms as f64 / 1_000.0,
        result.campaigns_per_s(),
        result.coverage_bits,
        result.corpus_size,
        result.violations,
        crashed_count,
    );
    let corpus_wires = shared.engine.corpus().iter().map(|e| e.spec.to_wire()).collect();
    (result, failures, corpus_wires)
}

/// Re-run each failing spec in-process, shrink its plan to a minimal
/// repro, and return the report block (also printed).
fn shrink_failures(mode: &str, failures: &[CampaignSpec]) -> String {
    let mut out = String::new();
    for spec in failures {
        let outcome = spec.run();
        let block = if outcome.passed() {
            // A worker crash (panic/abort) rather than an oracle violation:
            // the spec itself is the repro; shrinking needs a failing run.
            format!("[{mode}] campaign crashed its worker; unshrunk repro: {}\n", spec.repro())
        } else {
            format!("[{mode}] {}", shrink_plan(spec).report())
        };
        print!("{block}");
        out.push_str(&block);
    }
    out
}

fn run_parent() {
    let budget = Duration::from_secs(env_u64("SYSPLEX_SWEEP_SECS", 8).max(1));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = env_u64("SYSPLEX_SWEEP_WORKERS", cores.min(4) as u64).clamp(1, 32) as usize;
    let base_seed = env_u64("SYSPLEX_SWEEP_SEED", 0xC0FFEE);
    let exe = std::env::current_exe().expect("current_exe");
    println!(
        "campaign sweep: {} worker(s), {} s per mode, base seed {base_seed:#x}",
        workers,
        budget.as_secs()
    );

    let (random, random_failures, _) =
        run_mode("random", SweepConfig::random(base_seed), workers, budget, &exe);
    let (guided, guided_failures, corpus) =
        run_mode("guided", SweepConfig::guided(base_seed), workers, budget, &exe);

    std::fs::write(CORPUS_PATH, corpus.join("\n") + "\n").expect("write corpus");
    println!("wrote {CORPUS_PATH} ({} corpus entries)", corpus.len());

    let report = CampaignThroughputReport {
        hw_threads: cores,
        transport: sysplex_core::TransportBackend::InProcess.name(),
        workers,
        budget_s: budget.as_secs(),
        modes: vec![random, guided],
    };
    print!("{}", report.render_table());
    let json = report.to_json();
    std::fs::write("BENCH_campaign_throughput.json", &json).expect("write BENCH_campaign_throughput.json");
    println!("wrote BENCH_campaign_throughput.json ({} bytes)", json.len());

    if !random_failures.is_empty() || !guided_failures.is_empty() {
        let mut report_text = shrink_failures("random", &random_failures);
        report_text.push_str(&shrink_failures("guided", &guided_failures));
        if let Ok(path) = std::env::var("SYSPLEX_SHRINK_REPORT") {
            std::fs::write(&path, &report_text).expect("write shrink report");
            println!("wrote {path}");
        }
        eprintln!(
            "sweep found {} violating campaign(s) — repros above",
            random_failures.len() + guided_failures.len()
        );
        std::process::exit(1);
    }
}
