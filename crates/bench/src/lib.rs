//! Shared rigs and table helpers for the experiment benches.
//!
//! Every bench regenerates one figure or quantitative claim of the paper
//! (see DESIGN.md §3 for the index and EXPERIMENTS.md for paper-vs-measured
//! results). The rigs here stand up the live stack the way the examples
//! do, sized for a small host.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod hotpath;
pub mod opsday;
pub mod scale;

use std::sync::Arc;
use std::time::Duration;
use sysplex_core::facility::CouplingFacility;
use sysplex_core::trace::TraceKind;
use sysplex_core::SystemId;
use sysplex_db::group::{DataSharingGroup, GroupConfig};
use sysplex_db::Database;
use sysplex_services::monitor::{ActivityReport, Monitor};
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::timer::SysplexTimer;

/// A live sysplex + data-sharing group with `members` database members.
pub struct LiveRig {
    /// The sysplex runtime.
    pub plex: Arc<Sysplex>,
    /// The CF.
    pub cf: Arc<CouplingFacility>,
    /// The data-sharing group.
    pub group: Arc<DataSharingGroup>,
    /// Database members, indexed by system.
    pub dbs: Vec<Arc<Database>>,
    /// RMF-style monitor, measuring since rig construction.
    pub monitor: Arc<Monitor>,
}

impl LiveRig {
    /// Build a rig with `members` members and `lock_entries` lock-table
    /// entries.
    pub fn new(members: u8, lock_entries: usize) -> LiveRig {
        let plex = Sysplex::new(SysplexConfig::functional("BENCHPLEX"));
        // Component trace on from the first command, so end-of-run activity
        // reports can reconcile traced completions against the accounting.
        plex.tracer.enable();
        let cf = plex.add_cf("CF01");
        let mut config = GroupConfig {
            lock_entries,
            log_blocks: 1 << 22, // criterion loops commit many times
            ..GroupConfig::default()
        };
        config.db.lock_timeout = Duration::from_millis(500);
        let group =
            DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone())
                .expect("group");
        let dbs = (0..members).map(|i| group.add_member(SystemId::new(i)).expect("member")).collect();
        let monitor = Monitor::for_sysplex(&plex);
        LiveRig { plex, cf, group, dbs, monitor }
    }

    /// Tear down members (silences their IRLM message exits).
    pub fn shutdown(&self) {
        for db in &self.dbs {
            db.irlm().crash();
        }
    }
}

/// Print a rule line sized to the experiment banner.
pub fn banner(title: &str) {
    println!();
    println!("{}", "=".repeat(title.len().max(24)));
    println!("{title}");
    println!("{}", "=".repeat(title.len().max(24)));
}

/// Render one table row of f64 cells at fixed width.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<26}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Format helper.
pub fn f(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Print the unified command path's per-class accounting (§3.3's sync and
/// asynchronous execution modes) for one facility and assert that every
/// class reconciles `issued == sync + async_converted`.
pub fn command_path_report(cf: &CouplingFacility) {
    let stats = cf.command_stats();
    banner("CF command path (all subchannels of this facility)");
    row("class", &["issued", "sync", "async-converted", "sync %", "mean µs"].map(String::from));
    for (class, c) in stats.snapshot().into_rows() {
        assert!(c.balanced(), "{}: issued == sync + async, one sample per command", class.name());
        row(
            class.name(),
            &[
                format!("{}", c.issued),
                format!("{}", c.sync),
                format!("{}", c.async_converted),
                format!("{:.1}%", sysplex_core::stats::ratio(c.sync, c.issued) * 100.0),
                format!("{:.1}", c.latency.mean_ns() / 1000.0),
            ],
        );
    }
    println!(
        "  overall sync-grant ratio {:.1}% ({} async-converted of {} commands)",
        sysplex_core::stats::ratio(stats.sync(), stats.issued()) * 100.0,
        stats.async_converted(),
        stats.issued()
    );
}

/// Start watching `cfs` for an end-of-run activity report: enables their
/// component trace and opens a measurement interval. Call before driving
/// the workload so traced completions cover every issued command, then
/// finish with [`report_activity`].
pub fn watch(title: &str, cfs: &[Arc<CouplingFacility>]) -> Arc<Monitor> {
    for cf in cfs {
        cf.tracer().enable();
    }
    Monitor::new(title, SysplexTimer::new(), cfs.to_vec())
}

/// Print the RMF-style CF activity report for the interval opened by
/// [`watch`] and assert the observability invariants: per-class and total
/// `issued == sync + async_converted`, trace `retained == emitted − dropped`,
/// and — when tracing was on from the first command — a CMD-COMPL record for
/// every issued command.
pub fn report_activity(monitor: &Monitor, cfs: &[Arc<CouplingFacility>]) -> ActivityReport {
    print_reconciled(monitor.report(), cfs)
}

fn print_reconciled(report: ActivityReport, cfs: &[Arc<CouplingFacility>]) -> ActivityReport {
    println!("{report}");
    assert!(report.reconciles(), "activity report reconciles");
    for cf in cfs {
        let tracer = cf.tracer();
        if tracer.is_enabled() {
            assert_eq!(
                tracer.kind_count(TraceKind::CmdCompleted),
                cf.command_stats().issued(),
                "{}: every issued command left a CMD-COMPL trace record",
                cf.name()
            );
        }
    }
    report
}

/// A criterion instance tuned for a small single-core host.
#[must_use]
pub fn small_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
        .configure_from_args()
}
