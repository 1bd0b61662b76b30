//! E10 — lock structure: false contention vs table size (§3.3.1).
//!
//! "Through use of efficient hashing algorithms and granular serialization
//! scope, false lock resource contention is kept to a minimum." Two
//! members lock disjoint resource sets — every CF contention between them
//! is false by construction — across a sweep of lock-table sizes. The
//! false-contention rate must fall roughly as 1/table-size, and the
//! sync-grant rate must be "the majority" at production sizes. Criterion
//! times the raw lock commands.

use criterion::Criterion;
use sysplex_bench::{banner, command_path_report, report_activity, row, small_criterion, watch};
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::hashing::ResourceName;
use sysplex_core::lock::{LockMode, LockParams};
use sysplex_core::SystemId;
use sysplex_db::irlm::Irlm;
use sysplex_services::timer::SysplexTimer;
use sysplex_services::xcf::Xcf;

fn false_contention_sweep() {
    banner("E10: false contention vs lock-table size (2 members, disjoint resources)");
    row("table entries", &["requests", "contention %", "false %", "sync grant %"].map(String::from));
    for entries in [64usize, 256, 1024, 4096, 16384] {
        let xcf = Xcf::new(SysplexTimer::new());
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let structure = cf.allocate_lock_structure("SWEEP", LockParams::with_entries(entries)).unwrap();
        let a = Irlm::start(SystemId::new(0), cf.connect_lock("SWEEP").unwrap(), &xcf).unwrap();
        let b = Irlm::start(SystemId::new(1), cf.connect_lock("SWEEP").unwrap(), &xcf).unwrap();
        // Interleave: a locks evens, b locks odds — all cross-system
        // contention is false (different resources, shared hash classes).
        let resources = 600u64;
        for i in 0..resources {
            let txn = i + 1;
            let name = format!("ROW.{:08}", i * 2);
            a.lock(txn, name.as_bytes(), LockMode::Exclusive, false).unwrap();
            let name = format!("ROW.{:08}", i * 2 + 1);
            b.lock(txn, name.as_bytes(), LockMode::Exclusive, false).unwrap();
        }
        let req = structure.stats.requests.get();
        let cont = structure.stats.contentions.get();
        let false_n = a.stats.false_contentions.get() + b.stats.false_contentions.get();
        let sync = structure.stats.sync_grants.get();
        row(
            &format!("{entries}"),
            &[
                format!("{req}"),
                format!("{:.2}%", cont as f64 / req as f64 * 100.0),
                format!("{:.2}%", false_n as f64 / req as f64 * 100.0),
                format!("{:.1}%", sync as f64 / req as f64 * 100.0),
            ],
        );
        if entries >= 4096 {
            assert!((cont as f64 / req as f64) < 0.25, "production-size tables keep contention low");
        }
        a.shutdown();
        b.shutdown();
        if entries == 16384 {
            command_path_report(&cf);
        }
    }
    println!("\npaper §3.3.1: hashing keeps false contention to a minimum — rate falls with table size");
}

fn real_vs_false_classification() {
    banner("E10b: real conflicts are still always detected");
    let xcf = Xcf::new(SysplexTimer::new());
    // One entry: everything collides at the CF level.
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("TINY", LockParams::with_entries(1)).unwrap();
    let a = Irlm::start(SystemId::new(0), cf.connect_lock("TINY").unwrap(), &xcf).unwrap();
    let b = Irlm::start(SystemId::new(1), cf.connect_lock("TINY").unwrap(), &xcf).unwrap();
    a.lock(1, b"ROW.A", LockMode::Exclusive, false).unwrap();
    // False: different resource.
    assert!(matches!(
        b.lock(2, b"ROW.B", LockMode::Exclusive, false).unwrap(),
        sysplex_db::irlm::LockOutcome::Granted
    ));
    // Real: same resource.
    assert!(matches!(
        b.lock(2, b"ROW.A", LockMode::Exclusive, false).unwrap(),
        sysplex_db::irlm::LockOutcome::Busy
    ));
    row("false contention resolved", &[format!("{}", b.stats.false_contentions.get())]);
    row("real conflicts detected", &[format!("{}", b.stats.real_conflicts.get())]);
    assert_eq!(b.stats.real_conflicts.get(), 1);
    a.shutdown();
    b.shutdown();
}

fn lock_command_bench(c: &mut Criterion) {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    let monitor = watch("E10 lock commands", std::slice::from_ref(&cf));
    cf.allocate_lock_structure("BENCH", LockParams::with_entries(65536)).unwrap();
    let conn = cf.connect_lock("BENCH").unwrap();
    let mut group = c.benchmark_group("e10_lock_commands");
    let mut i = 0usize;
    group.bench_function("request_release_exclusive", |b| {
        b.iter(|| {
            i = (i + 1) % 65536;
            conn.request_lock(i, LockMode::Exclusive).unwrap();
            conn.release_lock(i).unwrap();
        })
    });
    group.bench_function("hash_resource", |b| {
        b.iter(|| std::hint::black_box(conn.hash_resource(b"DB2.TS000123.ROW00456789")))
    });
    let record = ResourceName::new(b"ROW.X");
    group.bench_function("write_record_set_release_set", |b| {
        b.iter(|| {
            conn.write_lock_record_set(&[(record.clone(), LockMode::Exclusive, b"TXN")]).unwrap();
            conn.release_set(&[], std::slice::from_ref(&record)).unwrap();
        })
    });
    group.finish();
    command_path_report(&cf);
    report_activity(&monitor, std::slice::from_ref(&cf));
}

fn main() {
    false_contention_sweep();
    real_vs_false_classification();
    let mut c = small_criterion();
    lock_command_bench(&mut c);
    c.final_summary();
}
