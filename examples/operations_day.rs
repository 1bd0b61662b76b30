//! A day in operations: the §5.1 base exploiters plus the §2.1 single
//! point of control.
//!
//! Demonstrates the JES2-style shared job queue (classes, priorities,
//! warm-start recovery, serialized checkpoint), the RACF-style coherent
//! security cache with sysplex-wide revocation, a PROMPT-mode SFM policy
//! with operator confirmation, and the console that ties it together.
//!
//! The day then turns hostile: three composed chaos campaigns run a
//! separate TCP sysplex through rolling restarts, a network partition
//! with heal, and an ARM-style restart storm, each under live
//! debit-credit traffic. Their verdicts (lost transactions must be
//! zero, trace oracle clean) and recovery metrics land in a
//! `"scenarios"` array inside `BENCH_operations_day.json`.
//!
//! Run with: `cargo run --example operations_day`

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::services::console::Console;
use parallel_sysplex::services::monitor::Monitor;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::services::system::SystemConfig;
use parallel_sysplex::subsys::jes::{job_queue_params, JobQueue};
use parallel_sysplex::subsys::racf::{security_cache_params, Access, Profile, RacfNode, SecurityDatabase};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // PROMPT-mode SFM: failures wait for the operator.
    let mut cfg = SysplexConfig::functional("OPSPLEX");
    cfg.heartbeat.auto_failure = false;
    cfg.heartbeat.failure_threshold = Duration::from_millis(30);
    let plex = Sysplex::new(cfg);
    // Component trace on for the whole day, so the closing RMF-style
    // activity report reconciles traced completions against the command
    // accounting.
    plex.tracer.enable();
    let cf = plex.add_cf("CF01");
    for i in 0..3u8 {
        plex.ipl(SystemConfig::cmos(SystemId::new(i), 2));
    }
    let console = Console::new(Arc::clone(&plex));
    let monitor = Monitor::for_sysplex(&plex);

    // --- JES2-style shared job queue -------------------------------------
    let jes_list = cf.allocate_list_structure("JES2CKPT", job_queue_params()).unwrap();
    let jes0 = JobQueue::open(&jes_list, cf.subchannel()).unwrap();
    let jes1 = JobQueue::open(&jes_list, cf.subchannel()).unwrap();
    jes0.submit("PAYROLL", 'A', 1).unwrap();
    jes0.submit("REPORTS", 'B', 5).unwrap();
    jes0.submit("CLEANUP", 'A', 9).unwrap();
    println!(
        "submitted 3 jobs; input queue: {:?}",
        jes0.input_jobs().unwrap().iter().map(|j| j.name.as_str()).collect::<Vec<_>>()
    );

    // Member 1 serves class A: selects PAYROLL (priority 1) first.
    let job = jes1.select(&['A']).unwrap().unwrap();
    println!("SYS01 initiator selected {} (class {}, prio {})", job.name, job.class, job.priority);

    // Member 1 dies mid-job; a peer warm-starts its work.
    let dead_slot = jes1.slot();
    drop(jes1);
    let recovered = jes0.recover_member(dead_slot).unwrap();
    println!("SYS01 lost; {recovered} executing job(s) requeued by a peer");
    let rerun = jes0.select(&['A']).unwrap().unwrap();
    assert_eq!(rerun.name, "PAYROLL");
    jes0.complete(&rerun).unwrap();
    let (input, executing, output) = jes0.checkpoint().unwrap();
    println!("JES checkpoint: input={input} executing={executing} output={output}");

    // --- RACF-style coherent security ------------------------------------
    let secdb = SecurityDatabase::create(plex.farm.clone(), "RACFDB", 512).unwrap();
    let seccache = cf.allocate_cache_structure("IRRXCF00", security_cache_params(512)).unwrap();
    let racf0 =
        RacfNode::start(SystemId::new(0), Arc::clone(&secdb), &seccache, cf.subchannel(), 64).unwrap();
    let racf2 =
        RacfNode::start(SystemId::new(2), Arc::clone(&secdb), &seccache, cf.subchannel(), 64).unwrap();
    racf0
        .admin_update(&Profile {
            resource: "PROD.PAYROLL.MASTER".into(),
            universal_access: Access::None,
            acl: vec![("CONTRACTOR".into(), Access::Read)],
        })
        .unwrap();
    assert!(racf2.check("CONTRACTOR", "PROD.PAYROLL.MASTER", Access::Read).unwrap());
    println!("CONTRACTOR can read PROD.PAYROLL.MASTER (cached on SYS02)");
    let invalidated = racf0
        .admin_update(&Profile {
            resource: "PROD.PAYROLL.MASTER".into(),
            universal_access: Access::None,
            acl: vec![],
        })
        .unwrap();
    assert!(!racf2.check("CONTRACTOR", "PROD.PAYROLL.MASTER", Access::Read).unwrap());
    println!("revoked on SYS00; {invalidated} cached cop(ies) cross-invalidated — denied on SYS02 instantly");

    // --- SFM PROMPT policy + console -------------------------------------
    plex.system(SystemId::new(1)).unwrap().fail(); // goes silent
    std::thread::sleep(Duration::from_millis(60));
    plex.tick();
    print!("{}", console.display_systems());
    println!("operator confirms the failure of SYS01…");
    assert!(console.confirm_failure(SystemId::new(1)));
    assert!(plex.farm.fence().is_fenced(1));
    print!("{}", console.display_structures(&["CF01"]));
    print!("{}", console.display_routing());

    console.vary_offline(SystemId::new(0));
    console.vary_offline(SystemId::new(2));

    // --- End-of-day RMF-style CF activity report --------------------------
    let report = monitor.report();
    print!("{report}");
    assert!(report.reconciles(), "activity report reconciles");

    // --- Composed chaos campaigns over TCP ---------------------------------
    // A second, wire-backed sysplex rides through the operations-day
    // failure drills. The seed pins the chaos plans, retry jitter, and
    // transaction streams; override with SYSPLEX_CHAOS_SEED to replay.
    let seed = std::env::var("SYSPLEX_CHAOS_SEED").ok().and_then(|s| parse_seed(&s)).unwrap_or(0xDEC1DED);
    println!("\nrunning chaos campaigns (seed {seed:#x})…");
    let outcomes = sysplex_harness::run_all(&sysplex_harness::OpsDayConfig::seeded(seed));
    for o in &outcomes {
        println!(
            "  {:<16} committed={:<4} lost={} duplicates={} reipls={} \
             fence={}µs readmit={}µs oracle_clean={} smf={}rec/{}mem reconciled={}",
            o.name,
            o.committed,
            o.lost,
            o.duplicates,
            o.reipls,
            o.time_to_fence_us,
            o.time_to_readmit_us,
            o.oracle_clean,
            o.smf_records,
            o.smf_members,
            o.smf_reconciled
        );
        o.assert_clean();
    }

    let json = sysplex_harness::opsday::splice_scenarios(
        &report.to_json(),
        &sysplex_harness::scenarios_json(&outcomes),
    );
    std::fs::write("BENCH_operations_day.json", json).unwrap();
    println!("wrote BENCH_operations_day.json ({} scenarios)", outcomes.len());
    println!("operations day complete");
}

/// Accept `0x…` hex or decimal.
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}
