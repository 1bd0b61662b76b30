//! Figure 1 — the system model, exercised and timed.
//!
//! Brings up the full Figure 1 topology (32 systems, CF, sysplex timer,
//! fully-connected DASD) and measures the cost hierarchy the architecture
//! depends on: nanosecond TOD reads, microsecond CF commands over 50 and
//! 100 MB/s links (sync vs async), millisecond DASD I/O.

use criterion::Criterion;
use std::hint::black_box;
use sysplex_bench::{banner, command_path_report, row, small_criterion};
use sysplex_core::connection::CfCommand;
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::link::LinkConfig;
use sysplex_core::lock::{LockMode, LockParams};
use sysplex_core::SystemId;
use sysplex_dasd::farm::DasdFarm;
use sysplex_dasd::volume::IoModel;
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::system::SystemConfig;

fn topology_checks() {
    banner("Figure 1: system model bring-up (32 systems, CF, timer, shared DASD)");
    let plex = Sysplex::new(SysplexConfig::functional("FIG1PLEX"));
    let _cf = plex.add_cf("CF01");
    let _cf2 = plex.add_cf("CF02"); // multiple CFs for availability
    for i in 0..32u8 {
        plex.ipl(SystemConfig::cmos(SystemId::new(i), if i % 3 == 0 { 10 } else { 2 }));
    }
    assert_eq!(plex.active_systems().len(), 32);
    row("systems", &[format!("{}", plex.active_systems().len())]);
    row("total capacity MIPS", &[format!("{:.0}", plex.total_capacity_mips())]);

    // Full connectivity: every system reads a block any system wrote.
    plex.farm.add_volume("SHARED", 16, 8).unwrap();
    plex.farm.write(0, "SHARED", 0, b"from sys00").unwrap();
    for i in 0..32u8 {
        assert_eq!(plex.farm.read(i, "SHARED", 0).unwrap(), b"from sys00");
    }
    row("full DASD connectivity", &["32/32 systems".to_string()]);

    // Sysplex timer: strictly monotonic unique TODs across systems.
    let t1 = plex.timer.tod();
    let t2 = plex.timer.tod();
    assert!(t2 > t1);
    row("timer monotonicity", &["ok".to_string()]);
    assert!(plex.tick().is_empty());
    for i in 0..32u8 {
        plex.remove_planned(SystemId::new(i));
    }
}

fn link_benches(c: &mut Criterion) {
    let farm = DasdFarm::new(IoModel::disk_1996());
    farm.add_volume("VOL1", 64, 4).unwrap();

    let mut group = c.benchmark_group("fig1_cost_hierarchy");
    // TOD read: nanoseconds.
    let timer = sysplex_services::timer::SysplexTimer::new();
    group.bench_function("sysplex_timer_tod", |b| b.iter(|| black_box(timer.tod())));

    // CF sync command over each link class: microseconds. Commands go
    // through the unified subchannel layer like every exploiter's do.
    let mut facilities = Vec::new();
    for (name, link_cfg) in
        [("instant", LinkConfig::instant()), ("mb50", LinkConfig::mb50()), ("mb100", LinkConfig::mb100())]
    {
        let cf = CouplingFacility::new(CfConfig::named("CF01").with_link(link_cfg));
        cf.allocate_lock_structure("L", LockParams::with_entries(1024)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        let mut entry = 0usize;
        group.bench_function(format!("cf_sync_lock_cmd_{name}"), |b| {
            b.iter(|| {
                entry = (entry + 1) % 1024;
                conn.request_lock(entry, LockMode::Shared).unwrap();
                conn.release_lock(entry).unwrap();
            })
        });
        facilities.push((name, cf));
    }

    // The same request/release pair marked bulk on the 100 MB/s link: the
    // subchannel converts both, so each pays the task-switch overhead on
    // top of its round trip.
    {
        let (_, cf) = facilities.iter().find(|(name, _)| *name == "mb100").expect("mb100 facility");
        let conn = cf.connect_lock("L").unwrap();
        let (lock, id, sub) = (conn.structure(), conn.conn_id(), conn.subchannel());
        group.bench_function("cf_async_lock_cmd_mb100", |b| {
            b.iter(|| {
                sub.issue(CfCommand::LOCK_REQUEST.bulk(), || lock.request(id, 0, LockMode::Shared)).unwrap();
                sub.issue(CfCommand::LOCK_RELEASE.bulk(), || lock.release(id, 0)).unwrap();
            })
        });
    }

    // DASD I/O: milliseconds (1996 service time).
    group.sample_size(10);
    group.bench_function("dasd_read_1996", |b| b.iter(|| black_box(farm.read(0, "VOL1", 3).unwrap())));
    group.finish();
    // Per-class accounting for the mb100 facility: lock commands stay
    // CPU-synchronous on the unified command path unless marked bulk.
    for (name, cf) in &facilities {
        if *name == "mb100" {
            command_path_report(cf);
        }
    }
}

fn transfer_table() {
    banner("Coupling link transfer model (paper: 50 or 100 MB/s)");
    row("payload", &["mb50 svc time", "mb100 svc time"].map(String::from));
    for payload in [0usize, 256, 4096, 65_536] {
        row(
            &format!("{payload} B"),
            &[
                format!("{:?}", LinkConfig::mb50().service_time(payload)),
                format!("{:?}", LinkConfig::mb100().service_time(payload)),
            ],
        );
    }
}

fn main() {
    topology_checks();
    transfer_table();
    let mut c = small_criterion();
    link_benches(&mut c);
    c.final_summary();
}
