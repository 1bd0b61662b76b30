//! The metric tables (the source of `BENCHMARK.json`'s metric lists) and
//! the arithmetic that turns a workload's outcome into their values.

use crate::harness::{ClientLog, RATE_SLICE};
use crate::stats::{mean, percentile};
use crate::trace::{totals, Kind, KindTotals};
use crate::workloads::Outcome;

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the baseline's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    /// The one workload that defines it, if not all do. A run's result line
    /// carries every metric on every workload, as the benchmark contract
    /// wants; the tables and `--compare` leave out the rows where it only
    /// repeats another metric.
    pub only_on: Option<&'static str>,
    pub what: &'static str,
}

impl EndToEnd {
    pub fn defined_on(&self, workload: &str) -> bool {
        self.only_on.is_none_or(|w| w == workload)
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25, only_on: None, what: "rig construction + preload, before warm-up: the fastest of the set-ups of the run's three processes (24 of a DB rig, 129 of a CF rig)" },
    EndToEnd { name: "tps", unit: "txn/s", better: "higher", bound: 0.25, only_on: None, what: "mean over the run's three processes of: committed closed-loop transactions (cf-*: completed cycles; inquiry: reader transactions) per second of the window, the window counted at the host's quiet speed like the latencies, divided by the share of the CPU time the guest asked for that the hypervisor let it have (1 on a quiet host)" },
    EndToEnd { name: "txn_p50_us", unit: "us", better: "lower", bound: 0.25, only_on: None, what: "mean over the run's three processes of the median client-observed latency of one Database::run / one cycle, at the host's quiet speed: each latency times the quiet-host over the current cost of a fixed piece of work of the workload's kind, which the client times every 2 ms between transactions (what the clock read is in the diagnostics)" },
    EndToEnd { name: "txn_p90_us", unit: "us", better: "lower", bound: 0.25, only_on: None, what: "the same of the 90th percentile" },
    EndToEnd { name: "update_p50_us", unit: "us", better: "lower", bound: 0.25, only_on: Some("inquiry"), what: "median latency of the open-loop updater on inquiry, from its scheduled send time less the generator's own lateness, at the host's quiet speed (in the result line of the other workloads, where every transaction writes: txn_p50_us again)" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15, only_on: None, what: "VmHWM of the workload's process at the start of the window, after set-up and a fixed-count warm-up" },
];

/// A per-layer metric: `layer.metric`, with the end-to-end metric it is
/// predicted to move (the prediction later changes are held to).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const QUALIFIES: &str = "nothing: qualifies the other numbers";
const DB_PATH: &str = "txn_p50_us, tps on dc-*";
const IRLM_FAST: &str = "txn_p50_us on dc-single, inquiry";
const IRLM_SLOW: &str = "txn_p90_us then tps on dc-affinity; exactly 0 on dc-single";
const BUF_PATH: &str = "txn_p50_us on dc-* (pool << working set)";
const LOG_PATH: &str = "commit_us_per_txn -> txn_p50_us on dc-*; 0 on inquiry reader, cf-*";
const CASTOUT: &str = "txn_p90_us on dc-* (background stalls)";
const LEDGER: &str = "cost ledger only (instant I/O model)";
const CMD_PATH: &str = "tps on cf-direct strongly, dc-* by ~35x its size, cf-tcp ~0";
const CF_PATH: &str = "tps, txn_p50_us on cf-direct";
const XI: &str = "> 0 only on dc-affinity, inquiry";
const WIRE: &str = "cf-tcp txn_p50_us by < 5%; nothing elsewhere";
const SOCKET: &str = "cf-tcp txn_p50_us ~ 6 x probe_tcp_rtt_us; batching raises tps, leaves the probe flat";

pub const PER_LAYER: [PerLayer; 61] = [
    m("plexbench.trace_overhead_pct", "pct", "lower", QUALIFIES),
    m("plexbench.gen_ns_per_txn", "ns", "lower", QUALIFIES),
    m("plexbench.update_lag_p95_us", "us", "lower", QUALIFIES),
    m("plexbench.ledger_coverage", "ratio", "higher", QUALIFIES),
    m(
        "db.database.read_us_per_txn",
        "us",
        "lower",
        "txn_p50_us, tps on dc-*; the only db.database number that matters on inquiry",
    ),
    m("db.database.write_us_per_txn", "us", "lower", DB_PATH),
    m("db.database.commit_us_per_txn", "us", "lower", DB_PATH),
    m("db.database.attempts_per_commit", "ratio", "lower", DB_PATH),
    m("db.database.aborts_per_kcommit", "count", "lower", DB_PATH),
    m("db.irlm.requests_per_txn", "count", "lower", DB_PATH),
    m("db.irlm.regrant_share", "ratio", "higher", IRLM_FAST),
    m("db.irlm.cf_sync_share", "ratio", "lower", IRLM_FAST),
    m("db.irlm.contention_share", "ratio", "lower", IRLM_SLOW),
    m("db.irlm.false_contention_share", "ratio", "lower", IRLM_SLOW),
    m("db.irlm.real_conflicts_per_ktxn", "count", "lower", IRLM_SLOW),
    m("db.irlm.queries_per_ktxn", "count", "lower", IRLM_SLOW),
    m("db.irlm.recalls_per_ktxn", "count", "lower", IRLM_SLOW),
    m("db.irlm.lazy_releases_per_txn", "count", "higher", IRLM_FAST),
    m("db.irlm.probe_regrant_ns", "ns", "lower", IRLM_FAST),
    m("db.irlm.probe_cf_grant_ns", "ns", "lower", DB_PATH),
    m(
        "db.bufmgr.local_hit_share",
        "ratio",
        "higher",
        "txn_p50_us on dc-*; ~1 on inquiry, where only probe_get_hit_ns matters",
    ),
    m("db.bufmgr.cf_refreshes_per_txn", "count", "lower", BUF_PATH),
    m("db.bufmgr.dasd_reads_per_ktxn", "count", "lower", BUF_PATH),
    m("db.bufmgr.coherency_retries_per_ktxn", "count", "lower", "txn_p90_us on dc-affinity, inquiry"),
    m("db.bufmgr.writes_per_txn", "count", "lower", BUF_PATH),
    m("db.bufmgr.probe_get_hit_ns", "ns", "lower", "txn_p50_us on inquiry"),
    m("db.bufmgr.probe_get_refresh_ns", "ns", "lower", BUF_PATH),
    m("db.bufmgr.probe_put_ns", "ns", "lower", BUF_PATH),
    m("db.log.blocks_per_txn", "count", "lower", LOG_PATH),
    m("db.log.probe_force_ns", "ns", "lower", LOG_PATH),
    m("db.castout.pages_per_s", "1/s", "higher", CASTOUT),
    m("db.castout.checkpoints_per_s", "1/s", "higher", CASTOUT),
    m("dasd.data_reads_per_ktxn", "count", "lower", LEDGER),
    m("dasd.data_writes_per_txn", "count", "lower", LEDGER),
    m(
        "core.connection.cmds_per_txn",
        "count",
        "lower",
        "tps, txn_p50_us on dc-* (the paper counts 22 per transaction)",
    ),
    m("core.connection.cmd_us_per_txn", "us", "lower", DB_PATH),
    m("core.connection.async_share", "ratio", "lower", QUALIFIES),
    m("core.connection.lock_request_per_txn", "count", "lower", DB_PATH),
    m("core.connection.lock_release_per_txn", "count", "lower", DB_PATH),
    m("core.connection.lock_record_per_txn", "count", "lower", DB_PATH),
    m("core.connection.cache_read_per_txn", "count", "lower", DB_PATH),
    m("core.connection.cache_write_per_txn", "count", "lower", DB_PATH),
    m("core.connection.cache_castout_per_txn", "count", "lower", CASTOUT),
    m("core.connection.probe_overhead_ns", "ns", "lower", CMD_PATH),
    m("core.lock.probe_req_rel_ns", "ns", "lower", CF_PATH),
    m("core.lock.sync_grant_share", "ratio", "higher", CF_PATH),
    m("core.lock.contention_share", "ratio", "lower", IRLM_SLOW),
    m("core.cache.probe_read_ns", "ns", "lower", CF_PATH),
    m("core.cache.probe_write_4k_ns", "ns", "lower", CF_PATH),
    m("core.cache.read_hit_share", "ratio", "higher", CF_PATH),
    m("core.cache.xi_per_write", "ratio", "lower", XI),
    m("core.cache.reclaims_per_ktxn", "count", "lower", BUF_PATH),
    m("core.list.probe_enq_deq_ns", "ns", "lower", "tps on cf-direct, cf-tcp only"),
    m("core.wire.probe_codec_small_ns", "ns", "lower", WIRE),
    m("core.wire.probe_codec_4k_ns", "ns", "lower", WIRE),
    m("core.wire.bytes_per_txn", "B", "lower", WIRE),
    m("core.transport.probe_inproc_ns", "ns", "lower", "nothing measured here (floor of a no-op command)"),
    m("core.transport.probe_tcp_rtt_us", "us", "lower", SOCKET),
    m("core.transport.wire_us_per_cmd", "us", "lower", SOCKET),
    m(
        "services.transport.probe_session_rtt_us",
        "us",
        "lower",
        "reported only (bimodal between identical runs)",
    ),
    m("services.xcf.probe_signal_us", "us", "lower", "floor under queries_per_ktxn on dc-affinity"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sorted latencies of the open-loop or the closed-loop clients: as the
/// clock read them, or `calibrated` to the host's quiet speed (see
/// [`crate::harness::Reference`]).
fn latencies(clients: &[ClientLog], open_loop: bool, calibrated: bool) -> Vec<u64> {
    let mut all: Vec<u64> = clients
        .iter()
        .filter(|c| c.open_loop == open_loop)
        .flat_map(|c| -> Box<dyn Iterator<Item = &u32>> {
            if calibrated {
                Box::new(c.calibrated_ns.iter())
            } else {
                Box::new(c.latencies_ns.iter().flatten())
            }
        })
        .map(|&n| n as u64)
        .collect();
    all.sort_unstable();
    all
}

/// Latencies of the closed-loop clients, as the clock read them.
pub fn txn_latencies(o: &Outcome) -> Vec<u64> {
    latencies(&o.clients, false, false)
}

/// The same at the host's quiet speed: what `txn_p50_us` and `txn_p90_us`
/// are percentiles of.
pub fn txn_calibrated(o: &Outcome) -> Vec<u64> {
    latencies(&o.clients, false, true)
}

/// Quiet-host time per measured time over the window: the sum of the
/// closed-loop clients' calibrated latencies over the sum of their measured
/// ones.
pub fn mean_scale(o: &Outcome) -> f64 {
    let sum = |v: &[u64]| v.iter().map(|&n| n as f64).sum::<f64>();
    ratio(sum(&txn_calibrated(o)), sum(&txn_latencies(o)))
}

/// Latencies of the open-loop updater where there is one (`inquiry`), as
/// the clock read them or calibrated.
pub fn update_latencies(o: &Outcome, calibrated: bool) -> Vec<u64> {
    latencies(&o.clients, true, calibrated)
}

/// Closed-loop transactions completed in the window.
pub fn completed(o: &Outcome) -> u64 {
    o.clients.iter().filter(|c| !c.open_loop).map(|c| c.completed()).sum()
}

/// Closed-loop transactions per second in each whole [`RATE_SLICE`] of the
/// window, all clients together.
pub fn slice_rates(o: &Outcome) -> Vec<f64> {
    let slices = (o.window.elapsed_s / RATE_SLICE.as_secs_f64()).floor() as usize;
    (0..slices)
        .map(|i| {
            let done: u32 = o
                .clients
                .iter()
                .filter(|c| !c.open_loop)
                .map(|c| c.per_slice.get(i).copied().unwrap_or(0))
                .sum();
            done as f64 / RATE_SLICE.as_secs_f64()
        })
        .collect()
}

/// Throughput: transactions ÷ window, with the window taken at the host's
/// quiet speed like the latencies (it counts for its length times
/// [`mean_scale`]), and per unit of the CPU time the guest asked for that it
/// also got. On a quiet host that is transactions ÷ window. On a shared one
/// the hypervisor also takes CPU time away outright, in bursts that last
/// minutes; throughput follows while the latency percentiles do not (they
/// lose a few samples to each gap): ten `dc-single` runs read 19.1 to
/// 22.3 k/s with under 4 % of the time stolen and 17.6 and 15.0 k/s with 16
/// and 21 % stolen, all at one `txn_p50_us`. The stolen share is in the
/// diagnostics (`steal_pct`), and so is the uncorrected rate (`tps_mean`).
fn tps(o: &Outcome) -> f64 {
    completed(o) as f64 / (o.window.elapsed_s * mean_scale(o)) / (1.0 - o.window.steal_share.min(0.9))
}

/// Values of [`END_TO_END`], in table order.
pub fn end_to_end(o: &Outcome) -> Vec<f64> {
    let txn = txn_calibrated(o);
    // `update_p50_us` has a workload of its own; elsewhere it repeats
    // `txn_p50_us`.
    let update = if o.clients.iter().any(|c| c.open_loop) { update_latencies(o, true) } else { txn.clone() };
    vec![
        // The fastest set-up, not the median: most of a set-up is first
        // touches of fresh memory, whose cost on a shared host swings
        // severalfold from minute to minute, and interference only adds.
        o.setups_s.iter().copied().fold(f64::INFINITY, f64::min),
        tps(o),
        percentile(&txn, 50.0) as f64 / 1e3,
        percentile(&txn, 90.0) as f64 / 1e3,
        percentile(&update, 50.0) as f64 / 1e3,
        o.window.rss_mb,
    ]
}

/// Values of [`PER_LAYER`], in table order. Counters are deltas over the
/// measured window divided by the transactions committed in it.
pub fn per_layer(o: &Outcome, probes: &[(&'static str, f64)]) -> Vec<f64> {
    let d = &o.window.delta;
    let n = o.layer_txns;
    let per_txn = |key: &str| ratio(d.get(key), n);
    let per_ktxn = |key: &str| ratio(d.get(key) * 1e3, n);
    let share = |num: &str, den: &str| ratio(d.get(num), d.get(den));
    let lookup =
        |name: &str| probes.iter().chain(&o.extra).find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v);

    // Span totals over every client thread.
    let mut spans = [KindTotals::default(); Kind::ALL.len()];
    for c in &o.clients {
        for (sum, t) in spans.iter_mut().zip(totals(&c.spans.spans)) {
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
    }
    let of = |kind: Kind| spans[kind as usize];
    let traced_txns = of(Kind::Txn).count as f64;
    let span_us = |ns: u64| ratio(ns as f64 / 1e3, traced_txns);

    // Tracing overhead: how much longer a closed-loop transaction took in
    // the traced slices than in the untraced slices between them. The mean
    // of the fastest nine tenths, because the slowest tenth is the host's
    // preemptions, not the tracer, and a median would miss a cost that
    // only every n-th (sampled) transaction pays.
    let trimmed_mean = |traced: usize| {
        let mut ns: Vec<u32> = o
            .clients
            .iter()
            .filter(|c| !c.open_loop)
            .flat_map(|c| c.latencies_ns[traced].iter().copied())
            .collect();
        ns.sort_unstable();
        ns.truncate(ns.len() * 9 / 10);
        ratio(ns.iter().map(|&n| n as f64).sum(), ns.len() as f64)
    };
    let (untraced, traced) = (trimmed_mean(0), trimmed_mean(1));
    let overhead = if traced == 0.0 { 0.0 } else { 100.0 * (1.0 - untraced / traced) };
    let gen_ns: u64 = o.clients.iter().map(|c| c.gen_ns).sum();
    let gen_calls: u64 = o.clients.iter().map(|c| c.gen_calls).sum();

    // The ledger: what the probes predict for one transaction, from how
    // often it used each path, against what a transaction took. A
    // lock/unlock pair is charged per request, and the force probe (the log
    // work of one whole commit) once per commit that logged anything;
    // db.database's own work (page codec, workspace) has no probe, so 1.0
    // is not expected.
    let requests = per_txn("irlm.requests");
    let estimate_ns = requests
        * (share("irlm.no_cf_grants", "irlm.requests") * lookup("db.irlm.probe_regrant_ns")
            + (1.0 - share("irlm.no_cf_grants", "irlm.requests")) * lookup("db.irlm.probe_cf_grant_ns"))
        + per_txn("buf.local_hits") * lookup("db.bufmgr.probe_get_hit_ns")
        + (per_txn("buf.cf_refreshes") + per_txn("buf.dasd_reads"))
            * lookup("db.bufmgr.probe_get_refresh_ns")
        + per_txn("buf.writes") * lookup("db.bufmgr.probe_put_ns")
        + ratio(d.get("log.writes"), d.get("db.commits")).min(1.0) * lookup("db.log.probe_force_ns");
    let coverage = if d.get("db.commits") == 0.0 { 0.0 } else { ratio(estimate_ns, mean(&txn_latencies(o))) };

    PER_LAYER
        .iter()
        .map(|metric| match metric.name {
            "plexbench.trace_overhead_pct" => overhead,
            "plexbench.gen_ns_per_txn" => ratio(gen_ns as f64, gen_calls as f64),
            "plexbench.ledger_coverage" => coverage,
            "db.database.read_us_per_txn" => span_us(of(Kind::DbRead).total_ns),
            "db.database.write_us_per_txn" => span_us(of(Kind::DbWrite).total_ns),
            "db.database.commit_us_per_txn" => span_us(of(Kind::Txn).self_ns),
            "db.database.attempts_per_commit" => {
                ratio(d.get("db.commits") + d.get("db.aborts"), d.get("db.commits"))
            }
            "db.database.aborts_per_kcommit" => ratio(d.get("db.aborts") * 1e3, d.get("db.commits")),
            "db.irlm.requests_per_txn" => requests,
            "db.irlm.regrant_share" => share("irlm.no_cf_grants", "irlm.requests"),
            "db.irlm.cf_sync_share" => share("irlm.grants_cf_sync", "irlm.requests"),
            "db.irlm.contention_share" => share("irlm.contentions", "irlm.requests"),
            "db.irlm.false_contention_share" => share("irlm.false_contentions", "irlm.requests"),
            "db.irlm.real_conflicts_per_ktxn" => per_ktxn("irlm.real_conflicts"),
            "db.irlm.queries_per_ktxn" => per_ktxn("irlm.queries_served"),
            "db.irlm.recalls_per_ktxn" => per_ktxn("irlm.recalls"),
            "db.irlm.lazy_releases_per_txn" => per_txn("irlm.lazy_releases"),
            "db.bufmgr.local_hit_share" => ratio(
                d.get("buf.local_hits"),
                d.get("buf.local_hits") + d.get("buf.cf_refreshes") + d.get("buf.dasd_reads"),
            ),
            "db.bufmgr.cf_refreshes_per_txn" => per_txn("buf.cf_refreshes"),
            "db.bufmgr.dasd_reads_per_ktxn" => per_ktxn("buf.dasd_reads"),
            "db.bufmgr.coherency_retries_per_ktxn" => per_ktxn("buf.coherency_misses"),
            "db.bufmgr.writes_per_txn" => per_txn("buf.writes"),
            "db.log.blocks_per_txn" => per_txn("log.writes"),
            "db.castout.pages_per_s" => ratio(d.get("castout.pages"), o.window.elapsed_s),
            "db.castout.checkpoints_per_s" => ratio(d.get("castout.checkpoints"), o.window.elapsed_s),
            "dasd.data_reads_per_ktxn" => per_ktxn("dasd.data_reads"),
            "dasd.data_writes_per_txn" => per_txn("dasd.data_writes"),
            "core.connection.cmds_per_txn" => per_txn("cmd.issued"),
            "core.connection.cmd_us_per_txn" => per_txn("cmd.total_ns") / 1e3,
            "core.connection.async_share" => share("cmd.async", "cmd.issued"),
            "core.connection.lock_request_per_txn" => per_txn("cmd.lock-request.issued"),
            "core.connection.lock_release_per_txn" => per_txn("cmd.lock-release.issued"),
            "core.connection.lock_record_per_txn" => per_txn("cmd.lock-record.issued"),
            "core.connection.cache_read_per_txn" => per_txn("cmd.cache-read.issued"),
            "core.connection.cache_write_per_txn" => per_txn("cmd.cache-write.issued"),
            "core.connection.cache_castout_per_txn" => per_txn("cmd.cache-castout.issued"),
            "core.lock.sync_grant_share" => share("lock.sync_grants", "lock.requests"),
            "core.lock.contention_share" => share("lock.contentions", "lock.requests"),
            "core.cache.read_hit_share" => share("cache.read_hits", "cache.reads"),
            "core.cache.xi_per_write" => share("cache.xi_signals", "cache.writes"),
            "core.cache.reclaims_per_ktxn" => per_ktxn("cache.reclaims"),
            // Probes and the values only one workload can measure.
            name => lookup(name),
        })
        .collect()
}
