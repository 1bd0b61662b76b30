//! plexbench: one end-to-end + per-layer benchmark of the data-sharing
//! stack. See `README.md` beside this package for the workloads, the
//! metrics and how they are predicted to interact.
//!
//! ```text
//! plexbench [--seed N] [--quick]                 every workload, untraced + traced
//! plexbench --workload W --seed N --seconds S --trace 0|1
//!                                                one run, result as the last stdout line
//!                                                (untraced: in PARTS fresh processes, see
//!                                                `run_in_parts`)
//! plexbench --compare A.json B.json              check B against A with the bounds
//! plexbench --manifest                           print BENCHMARK.json
//! ```
//!
//! `--probes-from FILE` is how the first form hands the values of the
//! layer probes, which it runs once, to each workload's traced run, and
//! `--part I` is how an untraced run starts each of its parts.

mod harness;
mod json;
mod metrics;
mod probes;
mod rigs;
mod stats;
mod trace;
mod workloads;

use harness::{hw_threads, Plan};
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::WORKLOADS;

const DEFAULT_SEED: u64 = 1996;
/// Measured window of one run; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u64 = 10;
const QUICK_SECONDS: [u64; 2] = [3, 1];
/// Fresh processes an untraced run is measured in, each for its share of
/// the run's seconds (see [`run_in_parts`]).
const PARTS: u64 = 3;
const PROBE_CALLS: usize = 10_000;
const QUICK_PROBE_CALLS: usize = 1_000;
/// `--compare` lets `setup_s` worsen by this much whatever its bound says.
const SETUP_SLACK_S: f64 = 0.005;
const DIAG_PREFIX: &str = "plexbench-diagnostics ";
const REPORT_FILE: &str = "BENCH_plexbench.json";
const PROBES_FILE: &str = "BENCH_plexbench_probes.json";
const MANIFEST_FILE: &str = "BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("plexbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag value`, parsed.
fn option<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            let text = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
            text.parse().map(Some).map_err(|_| format!("{flag}: cannot read `{text}`"))
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    const FLAGS: [&str; 9] = [
        "--part",
        "--seed",
        "--seconds",
        "--trace",
        "--workload",
        "--quick",
        "--compare",
        "--manifest",
        "--probes-from",
    ];
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str())) {
        return Err(format!("unknown option {unknown}; options are {}", FLAGS.join(" ")));
    }
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", manifest().render_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(base), Some(new)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs two report files".into());
        };
        return compare(base, new);
    }
    self_check()?;
    let seed = option(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let quick = args.iter().any(|a| a == "--quick");
    match option::<String>(args, "--workload")? {
        Some(workload) => {
            let trace = match option::<u8>(args, "--trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            let seconds = option::<f64>(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds must be in (0, 600], not {seconds}"));
            }
            if !WORKLOADS.iter().any(|w| w.0 == workload) {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                return Err(format!("no workload `{workload}`; workloads are {}", names.join(" ")));
            }
            let part = option::<u64>(args, "--part")?;
            if !trace && part.is_none() {
                return run_in_parts(&workload, seed, seconds, quick);
            }
            let plan = Plan {
                // Each part its own inputs, the same for the same seed.
                seed: seed.wrapping_add(PART_SEED_STRIDE.wrapping_mul(part.unwrap_or(0))),
                seconds,
                trace,
                probe_calls: if quick { QUICK_PROBE_CALLS } else { PROBE_CALLS },
            };
            run_workload(&workload, &plan, quick, option::<String>(args, "--probes-from")?.as_deref())
        }
        None => {
            // Without --workload every run's length and tracing are fixed.
            if let Some(flag) =
                ["--seconds", "--trace", "--probes-from"].into_iter().find(|f| args.iter().any(|a| a == f))
            {
                return Err(format!("{flag} is only for one run: it needs --workload"));
            }
            run_all(seed, quick)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, one run
// ---------------------------------------------------------------------------

fn metric_values(names: impl Iterator<Item = (&'static str, &'static str)>, values: Vec<f64>) -> Json {
    Json::obj(names.zip(values).map(|((name, unit), v)| {
        (name, Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]))
    }))
}

/// A layer probe, which measures a layer on its own rig, as against a
/// counter or span of the workload's run.
fn is_probe(per_layer_name: &str) -> bool {
    per_layer_name.contains(".probe_")
}

/// Probe values another process measured and wrote to `path`.
fn load_probes(path: &str) -> Result<Vec<(&'static str, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    PER_LAYER
        .iter()
        .filter(|m| is_probe(m.name))
        .map(|m| {
            let value = doc.get(m.name).and_then(Json::as_f64);
            value.map(|v| (m.name, v)).ok_or_else(|| format!("{path} has no {}", m.name))
        })
        .collect()
}

fn run_workload(
    workload: &str,
    plan: &Plan,
    quick: bool,
    probes_from: Option<&str>,
) -> Result<ExitCode, String> {
    let outcome = workloads::run(workload, plan).ok_or_else(|| format!("no workload `{workload}`"))?;
    let metrics = if plan.trace {
        let probes = match probes_from {
            Some(path) => load_probes(path)?,
            None => probes::run_all(plan.probe_calls),
        };
        let logs: Vec<_> = outcome.clients.iter().map(|c| &c.spans).collect();
        let path = format!("BENCH_plexbench_trace_{workload}.json");
        let doc = trace::to_json(workload, plan.seed, &logs);
        std::fs::write(&path, doc.render()).map_err(|e| format!("write {path}: {e}"))?;
        metric_values(PER_LAYER.iter().map(|m| (m.name, m.unit)), metrics::per_layer(&outcome, &probes))
    } else {
        metric_values(END_TO_END.iter().map(|m| (m.name, m.unit)), metrics::end_to_end(&outcome))
    };

    let failed_checks = outcome.checks.iter().filter(|c| !c.ok).count() as u64;
    let client_failures: u64 = outcome.clients.iter().map(|c| c.failed).sum();
    let attempted: u64 = outcome.clients.iter().map(|c| c.completed()).sum::<u64>()
        + client_failures
        + outcome.checks.len() as u64;
    let failed = client_failures + failed_checks;
    for c in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("plexbench: {workload}: check failed: {}: {}", c.name, c.detail);
    }

    println!("{DIAG_PREFIX}{}", diagnostics(&outcome, attempted, failed, quick).render());
    let result = Json::obj([
        ("correct", Json::Bool(failed_checks == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(if failed_checks == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The ungated numbers that qualify a run: sample counts, the tail, the
/// per-second spread, what the checks saw.
fn diagnostics(o: &workloads::Outcome, attempted: u64, failed: u64, quick: bool) -> Json {
    let txn = metrics::txn_latencies(o);
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let (tail_pct, tail_ns) = stats::tail_percentile(&txn).unwrap_or((0.0, 0));
    let mut rates = metrics::slice_rates(o);
    let tps_slices = rates.clone();
    let tps_quartiles = if rates.len() >= 2 { stats::quartiles(&mut rates).to_vec() } else { Vec::new() };
    let done = metrics::completed(o);
    let rss_end = harness::vm_hwm_mb();
    // The gated latencies and the window are at the host's quiet speed:
    // what the clock read, and the readings they were scaled by.
    let mut readings: Vec<u64> =
        o.clients.iter().flat_map(|c| c.reference_ns.iter().map(|&n| n as u64)).collect();
    readings.sort_unstable();
    let calibration = Json::obj([
        ("reference_quiet_ns", Json::Num(o.clients.first().map_or(0.0, |c| c.reference_quiet_ns))),
        ("reference_p50_ns", Json::Num(stats::percentile(&readings, 50.0) as f64)),
        ("reference_readings", Json::Num(readings.len() as f64)),
        ("mean_scale", Json::Num(metrics::mean_scale(o))),
        ("txn_p50_raw_us", us(stats::percentile(&txn, 50.0))),
        ("txn_p90_raw_us", us(stats::percentile(&txn, 90.0))),
        ("update_p50_raw_us", us(stats::percentile(&metrics::update_latencies(o, false), 50.0))),
    ]);
    Json::obj([
        ("quick", Json::Bool(quick)),
        ("degraded", Json::Bool(hw_threads() < 2)),
        ("pinned", Json::Bool(o.pinned)),
        ("calibration", calibration),
        ("samples", Json::Num(txn.len() as f64)),
        ("update_samples", Json::Num(metrics::update_latencies(o, false).len() as f64)),
        ("window_s", Json::Num(o.window.elapsed_s)),
        ("steal_pct", Json::Num(100.0 * o.window.steal_share)),
        ("txn_mean_us", Json::Num(stats::mean(&txn) / 1e3)),
        ("txn_ptail_pct", Json::Num(tail_pct)),
        ("txn_ptail_us", us(tail_ns)),
        ("txn_max_us", us(txn.last().copied().unwrap_or(0))),
        ("tps_mean", Json::Num(done as f64 / o.window.elapsed_s)),
        ("tps_slices", Json::Arr(tps_slices.into_iter().map(Json::Num).collect())),
        ("tps_slice_quartiles", Json::Arr(tps_quartiles.into_iter().map(Json::Num).collect())),
        ("fail_share", Json::Num(failed as f64 / attempted.max(1) as f64)),
        ("setups_s", Json::Arr(o.setups_s.iter().copied().map(Json::Num).collect())),
        ("rss_end_mb", Json::Num(rss_end)),
        ("rss_kb_per_ktxn", Json::Num((rss_end - o.window.rss_mb) * 1024.0 / (done.max(1) as f64 / 1e3))),
        (
            "checks",
            Json::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::Str(c.name.into())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Every workload: untraced, then traced + probes, each in a fresh child
// ---------------------------------------------------------------------------

/// One child run's parsed output.
struct ChildRun {
    ok: bool,
    result: Json,
    diagnostics: Json,
}

/// What a re-exec'd child is to do.
enum Child {
    /// One untraced run (which measures in parts of its own).
    Untraced,
    /// One traced run, with the probe values from [`PROBES_FILE`].
    Traced,
    /// Part `i` of an untraced run.
    Part(u64),
}

/// Re-exec this binary for one run, so peak RSS and allocator state are
/// per workload.
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    child: Child,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    match child {
        Child::Untraced => {}
        Child::Traced => {
            cmd.args(["--trace", "1", "--probes-from", PROBES_FILE]);
        }
        Child::Part(i) => {
            cmd.args(["--part", &i.to_string()]);
        }
    }
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| format!("{workload}: no output")).and_then(Json::parse)?;
    let diagnostics = lines
        .find_map(|l| l.strip_prefix(DIAG_PREFIX))
        .ok_or_else(|| format!("{workload}: no diagnostics line"))
        .and_then(Json::parse)?;
    Ok(ChildRun { ok: out.status.success(), result, diagnostics })
}

fn host_fingerprint() -> Json {
    let command_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(hw_threads() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Seeds of a run's parts are this far apart, so that no part's clients
/// (seeded `seed + client index`) draw the inputs of another's.
const PART_SEED_STRIDE: u64 = 7_919;

/// One untraced run: [`PARTS`] fresh processes one after the other, each
/// setting up its own rig and measuring for a third of the run's seconds.
/// Every end-to-end metric is the mean of the parts' values (`setup_s`: the
/// fastest set-up of all).
///
/// Why: most of what moves an in-process workload between two runs of one
/// commit on this host is fixed for the life of a process. Twenty 10 s
/// `dc-single` runs read a p50 of either 32 to 33 us or 38 to 42 us, each
/// at one level for all of its ten seconds (and two 30 s runs held 22 k and
/// 17.5 k txn/s for twenty seconds each), while runs 14 s apart fell on
/// either side with no memory of the one before; pinning the threads,
/// switching address-space randomisation off and transparent huge pages on
/// changed nothing, so it looks like the memory the process happens to be
/// given. A longer window in one process therefore averages nothing, and
/// sets of ten such runs spread by 17 to 25 % on `dc-single`, 25 % being
/// the widest bound the contract allows. The mean over three processes does
/// average it: three levels drawn at random are all alike one time in four.
fn run_in_parts(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<ExitCode, String> {
    let parts: Vec<ChildRun> = (0..PARTS)
        .map(|i| spawn_child(workload, seed, seconds / PARTS as f64, Child::Part(i), quick))
        .collect::<Result<_, _>>()?;
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;
    let values: Vec<f64> = END_TO_END
        .iter()
        .map(|m| {
            let of_parts: Vec<f64> = parts.iter().map(|p| value_of(p, m.name)).collect();
            if m.name == "setup_s" {
                of_parts.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                mean(&of_parts)
            }
        })
        .collect();
    let correct = parts.iter().all(|p| p.ok && p.result.get("correct") == Some(&Json::Bool(true)));
    let total = |key: &str| parts.iter().map(|p| num(&p.result, key)).sum::<f64>();

    // The qualifying numbers of the whole run, then each part's own.
    let diag = |key: &str| parts.iter().map(|p| num(&p.diagnostics, key)).collect::<Vec<f64>>();
    let tail = parts
        .iter()
        .map(|p| &p.diagnostics)
        .max_by(|a, b| num(a, "txn_ptail_us").total_cmp(&num(b, "txn_ptail_us")))
        .expect("at least one part");
    let all = |key: &str| Json::Bool(parts.iter().all(|p| p.diagnostics.get(key) == Some(&Json::Bool(true))));
    let calibration = match parts[0].diagnostics.get("calibration") {
        Some(Json::Obj(members)) => Json::obj(members.iter().map(|(key, _)| {
            let of_parts: Vec<f64> =
                parts.iter().filter_map(|p| p.diagnostics.get("calibration")).map(|c| num(c, key)).collect();
            (key.as_str(), Json::Num(mean(&of_parts)))
        })),
        _ => Json::Null,
    };
    let diagnostics = Json::obj([
        ("quick", Json::Bool(quick)),
        ("degraded", Json::Bool(hw_threads() < 2)),
        ("pinned", all("pinned")),
        ("calibration", calibration),
        ("samples", Json::Num(diag("samples").iter().sum())),
        ("update_samples", Json::Num(diag("update_samples").iter().sum())),
        ("window_s", Json::Num(diag("window_s").iter().sum())),
        ("steal_pct", Json::Num(mean(&diag("steal_pct")))),
        ("txn_ptail_pct", Json::Num(num(tail, "txn_ptail_pct"))),
        ("txn_ptail_us", Json::Num(num(tail, "txn_ptail_us"))),
        ("txn_max_us", Json::Num(diag("txn_max_us").into_iter().fold(0.0, f64::max))),
        ("txn_mean_us", Json::Num(mean(&diag("txn_mean_us")))),
        ("tps_mean", Json::Num(mean(&diag("tps_mean")))),
        ("parts", Json::Arr(parts.iter().map(|p| p.diagnostics.clone()).collect())),
    ]);
    println!("{DIAG_PREFIX}{}", diagnostics.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(total("attempted").max(1.0))),
        ("failed", Json::Num(total("failed"))),
        ("metrics", metric_values(END_TO_END.iter().map(|m| (m.name, m.unit)), values)),
    ]);
    println!("{}", result.render());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn value_of(run: &ChildRun, metric: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// A traced run's result line without the probe values, which the report
/// carries once.
fn without_probes(mut result: Json) -> Json {
    if let Json::Obj(members) = &mut result {
        for (key, value) in members {
            if let ("metrics", Json::Obj(metrics)) = (key.as_str(), value) {
                metrics.retain(|(name, _)| !is_probe(name));
            }
        }
    }
    result
}

fn run_all(seed: u64, quick: bool) -> Result<ExitCode, String> {
    let [untraced_s, traced_s] = if quick { QUICK_SECONDS } else { [RUN_SECONDS; 2] };
    let host = host_fingerprint();
    println!("plexbench seed {seed}{}  host {}", if quick { " (quick)" } else { "" }, host.render());
    if hw_threads() < 2 {
        println!("DEGRADED: one hardware thread; two-client workloads time-share it");
    }

    // The probes measure layers on rigs of their own, whatever the
    // workload: once, here, and every traced run takes the values from the
    // file.
    let measured = probes::run_all(if quick { QUICK_PROBE_CALLS } else { PROBE_CALLS });
    let probed: Vec<_> = PER_LAYER.iter().filter(|m| is_probe(m.name)).collect();
    let values: Vec<f64> = probed
        .iter()
        .map(|m| measured.iter().find(|(name, _)| *name == m.name).map_or(f64::NAN, |(_, v)| *v))
        .collect();
    let file = Json::obj(probed.iter().zip(&values).map(|(m, v)| (m.name, Json::Num(*v))));
    std::fs::write(PROBES_FILE, file.render()).map_err(|e| format!("write {PROBES_FILE}: {e}"))?;
    println!("\n== layer probes (median call on an isolated rig)");
    for (m, value) in probed.iter().zip(&values) {
        println!("    {:<42} {:>14.3} {}", m.name, value, m.unit);
    }
    let probes = metric_values(probed.iter().map(|m| (m.name, m.unit)), values);

    let mut all_ok = true;
    let mut reports = Vec::new();
    let mut tps = Vec::new();
    for (name, why) in WORKLOADS {
        println!("\n== {name}: {why}");
        let untraced = spawn_child(name, seed, untraced_s as f64, Child::Untraced, quick)?;
        let traced = spawn_child(name, seed, traced_s as f64, Child::Traced, quick)?;
        all_ok &= untraced.ok && traced.ok;

        let d = &untraced.diagnostics;
        println!(
            "  end to end ({} samples over {:.1} s, {} failed of {} attempted{})",
            num(d, "samples"),
            num(d, "window_s"),
            num(&untraced.result, "failed"),
            num(&untraced.result, "attempted"),
            if untraced.ok { "" } else { ", CHECKS FAILED" },
        );
        for m in END_TO_END.iter().filter(|m| m.defined_on(name)) {
            println!("    {:<42} {:>14.3} {}", m.name, value_of(&untraced, m.name), m.unit);
        }
        println!(
            "    {:<42} {:>14.3} us (p{:.3}), max {:.1} us",
            "txn_ptail_us",
            num(d, "txn_ptail_us"),
            num(d, "txn_ptail_pct"),
            num(d, "txn_max_us")
        );
        if let Some(c) = d.get("calibration") {
            println!(
                "    at the host's quiet speed: the clock read p50 {:.3} us, p90 {:.3} us; reference {:.0} ns (quiet {:.0}), mean factor {:.3}",
                num(c, "txn_p50_raw_us"),
                num(c, "txn_p90_raw_us"),
                num(c, "reference_p50_ns"),
                num(c, "reference_quiet_ns"),
                num(c, "mean_scale"),
            );
        }
        println!("  per layer (traced run{})", if traced.ok { "" } else { ", CHECKS FAILED" });
        for m in PER_LAYER.iter().filter(|m| !is_probe(m.name)) {
            println!("    {:<42} {:>14.3} {}", m.name, value_of(&traced, m.name), m.unit);
        }
        tps.push((name, value_of(&untraced, "tps")));
        reports.push(Json::obj([
            ("name", Json::Str(name.into())),
            ("why", Json::Str(why.into())),
            ("correct", Json::Bool(untraced.ok && traced.ok)),
            ("end_to_end", untraced.result),
            ("diagnostics", untraced.diagnostics),
            ("per_layer", without_probes(traced.result)),
            ("traced_diagnostics", traced.diagnostics),
        ]));
    }

    // The paper's data-sharing cost: what the second member fails to add.
    let tps_of =
        |workload: &str| tps.iter().find(|(name, _)| *name == workload).map_or(f64::NAN, |(_, v)| *v);
    let sharing_cost_pct = 100.0 * (1.0 - tps_of("dc-affinity") / (2.0 * tps_of("dc-single")));
    println!("\nsharing_cost_pct = 100 * (1 - tps[dc-affinity] / (2 * tps[dc-single])) = {sharing_cost_pct:.1} (paper: < 18)");
    println!(
        "cf-direct 2-thread over 1-thread throughput = {:.2} (2.0 = nothing shared)",
        tps_of("cf-direct-2t") / tps_of("cf-direct")
    );

    let report = Json::obj([
        ("schema", Json::Str("plexbench-report-1".into())),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("host", host),
        ("claim", Json::Null),
        ("sharing_cost_pct", Json::Num(sharing_cost_pct)),
        ("probes", probes),
        ("workloads", Json::Arr(reports)),
        ("definitions", definitions()),
    ]);
    std::fs::write(REPORT_FILE, report.render_pretty()).map_err(|e| format!("write {REPORT_FILE}: {e}"))?;
    println!("wrote {REPORT_FILE}");
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// ---------------------------------------------------------------------------
// --compare, --manifest
// ---------------------------------------------------------------------------

/// Check every end-to-end metric of report `new` against report `base`
/// with the bounds of [`END_TO_END`]; non-zero exit on a breach.
fn compare(base_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some("plexbench-report-1") {
            return Err(format!("{path} is not a plexbench report"));
        }
        if doc.get("quick") != Some(&Json::Bool(false)) {
            return Err(format!("{path} is a --quick report; quick runs are smoke tests, not measurements"));
        }
        // A run that failed a check (any failed operation fails one) has
        // no speed to compare: failing fast is not being fast.
        if let Some(w) = doc
            .get("workloads")
            .map_or(&[][..], Json::elements)
            .iter()
            .find(|w| w.get("correct") != Some(&Json::Bool(true)))
        {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("{path}: {name} failed its correctness checks"));
        }
        Ok(doc)
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    fn of<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
        let workloads = doc.get("workloads")?.elements();
        workloads.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
    }
    let value = |doc: &Json, workload: &str, metric: &str| {
        of(doc, workload)?.get("end_to_end")?.get("metrics")?.get(metric)?.get("value")?.as_f64()
    };
    // A socket cycle costs several times more unpinned than pinned.
    let pinned = |doc: &Json, workload: &str| of(doc, workload)?.get("diagnostics")?.get("pinned").cloned();
    if let Some((workload, _)) = WORKLOADS.iter().find(|(w, _)| pinned(&base, w) != pinned(&new, w)) {
        return Err(format!("{workload} ran pinned in one report and unpinned in the other"));
    }
    println!("{:<14} {:<16} {:>14} {:>14} {:>8}  verdict", "workload", "metric", "value", "base", "ratio");
    let mut breaches = 0;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.defined_on(workload)) {
            let (Some(a), Some(b)) = (value(&base, workload, m.name), value(&new, workload, m.name)) else {
                return Err(format!("{workload}.{} is missing from a report", m.name));
            };
            let worse_by = if m.better == "lower" { (b - a) / a } else { (a - b) / a };
            // A CF rig sets up in a millisecond or two, where a quarter is
            // less than two runs of one commit differ by.
            let negligible = m.name == "setup_s" && b - a <= SETUP_SLACK_S;
            let verdict = if worse_by > m.bound && !negligible {
                breaches += 1;
                format!("BREACH (worse by {:.1}%, bound {:.0}%)", 100.0 * worse_by, 100.0 * m.bound)
            } else {
                "ok".to_string()
            };
            println!("{workload:<14} {:<16} {b:>14.3} {a:>14.3} {:>8.3}  {verdict}", m.name, b / a);
        }
    }
    println!("{breaches} breach(es)");
    Ok(if breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// What each metric means and, per layer, which end-to-end metric it is
/// predicted to move: carried in every report so a reader of the numbers
/// has the predictions they are held to beside them.
fn definitions() -> Json {
    let text = |s: &str| Json::Str(s.into());
    let end_to_end = END_TO_END.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("unit", text(m.unit)),
                ("better", text(m.better)),
                ("bound", Json::Num(m.bound)),
                ("what", text(m.what)),
            ]),
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        let layer = m.name.rsplit_once('.').map_or(m.name, |(layer, _)| layer);
        (
            m.name,
            Json::obj([
                ("layer", text(layer)),
                ("unit", text(m.unit)),
                ("better", text(m.better)),
                ("moves", text(m.moves)),
            ]),
        )
    });
    Json::obj([("end_to_end", Json::obj(end_to_end)), ("per_layer", Json::obj(per_layer))])
}

/// The contents of `BENCHMARK.json`, from the same tables the runs use.
fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.into());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "plexbench/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![text("plexbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj([("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Start-up self-check of plexbench's own arithmetic
// ---------------------------------------------------------------------------

fn self_check() -> Result<(), String> {
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(format!("self-check failed: {what}")) };

    // The manifest that names this benchmark's workloads and metrics to
    // its users is the one these tables produce.
    let committed = std::fs::read_to_string(MANIFEST_FILE)
        .map_err(|e| format!("read {MANIFEST_FILE}: {e} (run plexbench from the repository root)"))?;
    ensure(
        Json::parse(&committed)? == manifest(),
        "BENCHMARK.json is what --manifest prints; regenerate it after changing a table",
    )?;

    // Exact percentiles on a known vector.
    let v: Vec<u64> = (1..=100).collect();
    ensure(
        stats::percentile(&v, 50.0) == 50 && stats::percentile(&v, 90.0) == 90,
        "nearest-rank p50/p90 of 1..=100",
    )?;
    ensure(stats::percentile(&v, 100.0) == 100 && stats::percentile(&v, 0.0) == 1, "percentile end points")?;
    ensure(stats::tail_percentile(&v) == Some((90.0, 90)), "tail percentile keeps ten samples beyond it")?;
    ensure(stats::tail_percentile(&v[..10]).is_none(), "no tail percentile under eleven samples")?;
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
    ensure(stats::quartiles(&mut ten) == [2.75, 5.5, 8.25], "quartiles match Python's exclusive method")?;
    ensure(stats::median(&mut [4.0, 1.0, 3.0, 2.0]) == 2.5, "median of an even count")?;

    // Span self time: a root of 100 with children of 20 and 30 keeps 50.
    let epoch = std::time::Instant::now();
    let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
    let mut log = trace::SpanLog::new(epoch);
    log.root(1, trace::Kind::Txn, at(1_000)).close_at(at(1_100));
    log.push(1, 0, trace::Kind::DbRead, 1_010, 1_030);
    log.push(1, 0, trace::Kind::DbWrite, 1_030, 1_060);
    ensure(
        trace::Kind::ALL.iter().enumerate().all(|(i, k)| *k as usize == i),
        "span kinds are listed in declaration order",
    )?;
    let t = trace::totals(&log.spans);
    let txn = t[0];
    ensure((txn.count, txn.total_ns, txn.self_ns) == (1, 100, 50), "root self time subtracts its children")?;
    ensure((t[1].total_ns, t[1].self_ns, t[2].self_ns) == (20, 20, 30), "leaf self time is its duration")?;

    // Open-loop timing on a fake clock, a transaction due at 3 000: sent
    // at 3 400 with the previous one long done, the generator is 400 late
    // and the latency counts from 3 400; sent at 3 400 because the previous
    // one ended at 3 300, the generator is 100 late and the latency counts
    // from 3 100, so the program's 300 stay in.
    ensure(harness::open_loop_send(3_000, 2_100, 3_400) == (400, 3_400), "a late generator is not charged")?;
    ensure(
        harness::open_loop_send(3_000, 3_300, 3_400) == (100, 3_100),
        "a stall of the program is charged",
    )?;
    ensure(
        harness::open_loop_send(3_000, 2_100, 3_000) == (0, 3_000),
        "an on-time send counts from its due time",
    )?;

    // A transaction that failed has no latency and no part in throughput.
    let plan = Plan { seed: 0, seconds: 0.0, trace: false, probe_calls: 0 };
    let (_, logs) = harness::drive(1, &plan, &rigs::Counters::default, &|c| {
        c.start_window();
        let now = std::time::Instant::now();
        c.record(now, now, false);
        c.record(now, now, true);
        // With a scale in force a transaction also has a calibrated latency.
        c.scale = Some(0.5);
        c.record(now, now + std::time::Duration::from_nanos(1_000), true);
    });
    let (log, ()) = &logs[0];
    ensure(
        (log.completed(), log.per_slice.iter().sum::<u32>(), log.failed) == (2, 2, 1),
        "a failed transaction is counted as failed and nowhere else",
    )?;
    ensure(
        log.latencies_ns[0] == [0, 1_000] && log.calibrated_ns == [500],
        "a calibrated latency is the measured one times the scale in force",
    )?;

    // The tables agree with themselves: names are unique and well formed.
    let mut names: Vec<&str> =
        END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
    names.extend(WORKLOADS.iter().map(|w| w.0));
    let well_formed =
        |n: &str| n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    ensure(names.iter().all(|n| well_formed(n)), "metric and workload names are well formed")?;
    ensure(WORKLOADS.iter().all(|w| w.1.len() <= 200), "workload reasons fit the manifest's 200 characters")?;
    names.sort_unstable();
    ensure(names.windows(2).all(|w| w[0] != w[1]), "metric and workload names are unique")?;
    Ok(())
}
