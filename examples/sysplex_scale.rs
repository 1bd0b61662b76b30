//! Multi-process sysplex scaling benchmark (DESIGN.md §9).
//!
//! The only example that runs the sysplex as **real OS processes**: the
//! parent holds the Coupling Facility behind a `SysplexServer`, then for
//! each member count 1..=N re-executes itself as that many child
//! processes. Each child IPLs as the harness's `TcpMember` (one resilient
//! `RemoteSysplex` session, joined to the member XCF group) and drives a
//! debit-credit burst through `TcpMember::debit_credit` against the CF's
//! lock/cache/list structures — every command a genuine wire round trip.
//! Members also measure their XCF signal RTT and raw CF probe service
//! time.
//!
//! Writes the schema-stable `BENCH_sysplex_scale.json` the CI
//! `sysplex-scale` job checks. Environment knobs:
//!
//! * `SYSPLEX_SCALE_MEMBERS` — widest member count swept (default 3).
//! * `SYSPLEX_SCALE_OPS` — transactions per member (default 400).
//!
//! Run with: `cargo run --release --example sysplex_scale`

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use sysplex_bench::scale::{percentile_us, MemberSample, ScaleReport};
use sysplex_core::connection::{CfCommand, CommandClass};
use sysplex_core::transport::probe;
use sysplex_core::SystemId;
use sysplex_harness::opsday::{allocate_structures, Rows, TcpMember, TxnOutcome};
use sysplex_services::monitor::Monitor;
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::transport::SysplexServer;
use sysplex_workload::debitcredit::{DebitCreditConfig, DebitCreditGenerator, KeyLayout};

const XCF_RTT_SAMPLES: usize = 48;
const CF_PROBE_SAMPLES: usize = 256;
/// Ceiling on a member's IPL and on each transaction's lock waits.
const CEILING: Duration = Duration::from_secs(30);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    if std::env::var("SYSPLEX_SCALE_MEMBER").is_ok() {
        run_member();
        return;
    }
    run_parent();
}

// ---------------------------------------------------------------------------
// Parent: CF owner, server, and curve driver
// ---------------------------------------------------------------------------

fn run_parent() {
    let max_members = env_u64("SYSPLEX_SCALE_MEMBERS", 3).clamp(1, 8) as usize;
    let ops = env_u64("SYSPLEX_SCALE_OPS", 400);
    let exe = std::env::current_exe().expect("current_exe");

    let mut runs: Vec<Vec<MemberSample>> = Vec::new();
    let mut observability: Vec<String> = Vec::new();
    let mut widest_rmf: Option<String> = None;
    for members in 1..=max_members {
        // A fresh sysplex per point keeps the structures cold and the
        // member counts honest. The SFM deadline is relaxed from the
        // functional default (200 ms): members pulse from a keepalive
        // thread, but on an oversubscribed host the OS can starve that
        // thread for longer than a production SFM policy would tolerate,
        // and a benchmark member fenced mid-burst is a false positive.
        let mut config = SysplexConfig::functional("SCALEPLEX");
        config.heartbeat.interval = Duration::from_millis(250);
        config.heartbeat.failure_threshold = Duration::from_secs(5);
        let plex = Sysplex::new(config);
        let cf = plex.add_cf("CF01");
        allocate_structures(&cf);
        let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").expect("bind sysplex server");
        let addr = server.local_addr().to_string();

        let children: Vec<_> = (1..=members)
            .map(|m| {
                Command::new(&exe)
                    .env("SYSPLEX_SCALE_MEMBER", m.to_string())
                    .env("SYSPLEX_SCALE_ADDR", &addr)
                    .env("SYSPLEX_SCALE_OPS", ops.to_string())
                    .env("SYSPLEX_SCALE_MEMBERS", members.to_string())
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("spawn member process")
            })
            .collect();

        let mut samples = Vec::with_capacity(members);
        for mut child in children {
            let stdout = child.stdout.take().expect("child stdout");
            for line in BufReader::new(stdout).lines() {
                let line = line.expect("read child stdout");
                if let Some(sample) = MemberSample::parse_line(&line) {
                    samples.push(sample);
                } else if !line.trim().is_empty() {
                    println!("  [member] {line}");
                }
            }
            let status = child.wait().expect("wait for member");
            assert!(status.success(), "member process failed: {status}");
        }
        assert_eq!(samples.len(), members, "every member must report a result line");
        samples.sort_by_key(|s| s.system);
        println!(
            "{} member(s): {:.1} ops/s total",
            members,
            samples.iter().map(|s| s.ops_per_s()).sum::<f64>()
        );
        runs.push(samples);

        // Every member shipped SMF interval records while it ran and
        // flushed a final partial interval with its goodbye; merge them
        // with the server's own service clock into one RMF-style view.
        let rmf = Monitor::for_sysplex(&plex).sysplex_report(server.smf());
        let section = rmf.sysplex.as_ref().expect("merged report carries the sysplex section");
        assert_eq!(section.members.len(), members, "every member must appear in the merged report");
        assert_eq!(section.departed_count(), members, "members departed cleanly via goodbye");
        assert!(rmf.reconciles(), "merged sysplex report must reconcile:\n{rmf}");
        println!(
            "  merged SMF: {} member(s), {} departed, reconciled",
            section.members.len(),
            section.departed_count()
        );
        observability.push(rmf.observability_json());
        if members == max_members {
            widest_rmf = Some(rmf.to_json());
        }
        server.stop();
    }

    let mut report = ScaleReport::from_runs(ops, runs);
    for (point, obs) in report.scaling.iter_mut().zip(observability) {
        point.observability = Some(obs);
    }
    print!("{}", report.render_table());
    let json = report.to_json();
    std::fs::write("BENCH_sysplex_scale.json", &json).expect("write BENCH_sysplex_scale.json");
    println!("wrote BENCH_sysplex_scale.json ({} bytes)", json.len());
    if let Some(rmf) = widest_rmf {
        std::fs::write("SYSPLEX_RMF_REPORT.json", &rmf).expect("write SYSPLEX_RMF_REPORT.json");
        println!("wrote SYSPLEX_RMF_REPORT.json ({} bytes)", rmf.len());
    }
}

// ---------------------------------------------------------------------------
// Member process: the harness's TCP member driving debit-credit
// ---------------------------------------------------------------------------

fn run_member() {
    let member = env_u64("SYSPLEX_SCALE_MEMBER", 1) as u8;
    let members = env_u64("SYSPLEX_SCALE_MEMBERS", 1);
    let ops = env_u64("SYSPLEX_SCALE_OPS", 400);
    let addr = std::env::var("SYSPLEX_SCALE_ADDR").expect("SYSPLEX_SCALE_ADDR");
    let name = format!("SYS{member:02}");

    let seed = 0xC0DE + member as u64;
    let tcp =
        TcpMember::ipl(&addr, SystemId::new(member), seed, None, Instant::now() + CEILING).expect("ipl");
    let remote = tcp.remote();
    // Ship SMF interval records while the burst runs; the goodbye below
    // flushes the final partial interval, so nothing is lost when the
    // shipper is stopped mid-interval.
    let smf = remote.smf_autoship(Duration::from_millis(50));
    let xcf_a = tcp.xcf().expect("joined the member group");
    let xcf_b = remote.join(xcf_a.group(), &format!("PRB{member:02}")).expect("join probe member");

    // XCF signal RTT: send MEM→PRB on the same session and poll until
    // delivery. Both hops cross the wire, so halve the round trip.
    let mut xcf_rtt = Vec::with_capacity(XCF_RTT_SAMPLES);
    for _ in 0..XCF_RTT_SAMPLES {
        let t0 = Instant::now();
        xcf_a.send_to(xcf_b.name(), b"rtt".to_vec()).expect("xcf send");
        loop {
            if xcf_b.try_recv().expect("xcf poll").is_some() {
                break;
            }
        }
        xcf_rtt.push(t0.elapsed().as_secs_f64() * 1_000_000.0 / 2.0);
    }

    // Raw CF command service time over the wire (64-byte lock-class probe).
    let mut probe_us = Vec::with_capacity(CF_PROBE_SAMPLES);
    for _ in 0..CF_PROBE_SAMPLES {
        let t0 = Instant::now();
        probe(remote.transport().as_ref(), CfCommand::new(CommandClass::LockRequest, 64)).expect("probe");
        probe_us.push(t0.elapsed().as_secs_f64() * 1_000_000.0);
    }

    // Debit-credit burst: the member's lock → cache write → history
    // enqueue → release transaction, every command a TCP round trip. The
    // shared generator config means members genuinely collide on
    // branches (the TPC-A 15% remote rule).
    let config = DebitCreditConfig {
        branches: members.max(1),
        tellers_per_branch: 5,
        accounts_per_branch: 100,
        remote_fraction: 0.15,
    };
    let layout = KeyLayout::new(config);
    let mut gen = DebitCreditGenerator::new(config, seed);
    let started = Instant::now();
    for _ in 0..ops {
        let txn = gen.next_txn();
        let rows = Rows {
            account: layout.account(txn.account_branch, txn.account),
            teller: layout.teller(txn.home_branch, txn.teller),
            branch: layout.branch(txn.home_branch),
        };
        let key = (u64::from(member) << 32) | txn.history_seq;
        let outcome = tcp.debit_credit(rows, key, Instant::now() + CEILING);
        assert_eq!(outcome, TxnOutcome::Committed, "transaction {key:#x}");
    }
    let elapsed = started.elapsed();

    let sample = MemberSample {
        system: member,
        name,
        ops,
        elapsed_us: elapsed.as_micros() as u64,
        xcf_rtt_us_p50: percentile_us(&mut xcf_rtt, 50.0),
        xcf_rtt_us_p95: percentile_us(&mut xcf_rtt, 95.0),
        cf_probe_us_p50: percentile_us(&mut probe_us, 50.0),
        cf_probe_us_p95: percentile_us(&mut probe_us, 95.0),
    };
    println!("{}", sample.to_line());

    xcf_b.leave().expect("leave");
    smf.stop();
    tcp.shutdown_clean();
}
