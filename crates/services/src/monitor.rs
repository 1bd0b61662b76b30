//! RMF-style CF activity reporting (Tier 2 of the observability layer).
//!
//! The paper's installations watched the sysplex through RMF: interval
//! reports of CF structure activity, per-class command rates and service
//! times, subchannel busy, and WLM goal attainment (§2.1, §5.1). The
//! [`Monitor`] here plays that role for the reproduction: it snapshots the
//! unified command-path accounting and structure counters of every
//! registered [`CouplingFacility`] on demand (or on an interval thread) and
//! renders a **CF Activity Report** — as text for the console and as
//! hand-rolled JSON for the `BENCH_*.json` pipeline (no serde in the
//! dependency tree, so the writer is explicit).
//!
//! Interval semantics come from snapshot deltas: [`Monitor::report`] takes
//! one [`ConnectionSnapshot`] per facility — the only time the monitor
//! copies the accounting's histograms, never per command — and the
//! interval is its [`delta`](ConnectionSnapshot::delta) against the one
//! the previous report kept. Each report covers exactly the window since
//! the previous report, so per-interval percentiles and maxima are not
//! polluted by history — the property RMF interval reports have and
//! cumulative counters do not.
//!
//! ## The sysplex-wide merge
//!
//! A report from [`Monitor::report`] covers what *this process* can see:
//! the in-process facilities. [`Monitor::sysplex_report`] additionally
//! merges every member's shipped SMF records out of an [`SmfStore`] into
//! a [`SysplexSection`]: per-member rows, sysplex per-class totals (via
//! [`MemberClassTotals::merge`]), and the **end-to-end latency
//! decomposition** — each member's observed percentiles split into wire
//! time and CF service time using the server-side service clock. Member
//! rows are life-to-date (accumulated over every shipped interval), so a
//! departed member's history stays in the report, flagged `departed`,
//! instead of silently vanishing or reading as a live system.

use crate::smf::{MemberClassTotals, MemberLedger, SmfStore};
use crate::timer::SysplexTimer;
use crate::wlm::{ClassReport, Wlm};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::connection::{ClassSnapshot, CommandClass, ConnectionSnapshot};
use sysplex_core::facility::{CouplingFacility, StructureHandle};
use sysplex_core::stats::ratio;
use sysplex_core::trace::{Tracer, TRACE_SYSTEM_CF};

/// Interval baseline: everything the previous report already accounted for.
#[derive(Debug)]
struct Baseline {
    /// `timer.elapsed()` when this baseline was taken.
    at: Duration,
    /// Per facility (report order): its command accounting as last read.
    classes: Vec<ConnectionSnapshot>,
    /// Per `(facility index, structure name)`: its counters as last read.
    structures: HashMap<(usize, String), Vec<(&'static str, u64)>>,
    /// Per system id: traced subchannel busy time, ns.
    systems: HashMap<u8, u64>,
    /// Trace-kind totals (all tracers summed) for the lock-hierarchy
    /// section, in [`LOCK_HIERARCHY_KINDS`] order.
    lock_kinds: [u64; LOCK_HIERARCHY_KINDS.len()],
}

/// Trace kinds the lock-hierarchy section reports interval deltas of:
/// CF-synchronous grants, local re-grants served from cached interest,
/// lazy releases parked locally, and online table resizes.
const LOCK_HIERARCHY_KINDS: [sysplex_core::trace::TraceKind; 4] = [
    sysplex_core::trace::TraceKind::LockGrant,
    sysplex_core::trace::TraceKind::LockLocalRegrant,
    sysplex_core::trace::TraceKind::LockLazyRelease,
    sysplex_core::trace::TraceKind::LockTableResize,
];

/// Interval view of the hierarchical-locking fast path (§13): how many
/// grants the sysplex served without a CF round trip.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockHierarchyActivity {
    /// Grants that went to the CF (synchronous or negotiated).
    pub cf_grants: u64,
    /// Grants served entirely locally from cached sole interest.
    pub local_regrants: u64,
    /// Releases parked locally instead of surrendered to the CF.
    pub lazy_releases: u64,
    /// Online lock-table resizes completed.
    pub resizes: u64,
}

impl LockHierarchyActivity {
    /// Fraction of all grants served without a CF round trip.
    pub fn regrant_ratio(&self) -> f64 {
        ratio(self.local_regrants, self.local_regrants + self.cf_grants)
    }

    /// Whether the interval saw any hierarchical-locking activity at all.
    pub fn any(&self) -> bool {
        self.cf_grants + self.local_regrants + self.lazy_releases + self.resizes > 0
    }
}

/// One structure's activity over the interval.
#[derive(Debug, Clone)]
pub struct StructureActivity {
    /// Owning facility name.
    pub facility: String,
    /// Structure name.
    pub name: String,
    /// "LOCK" | "CACHE" | "LIST".
    pub model: &'static str,
    /// Mainline requests per second over the interval (lock requests,
    /// cache reads+writes, list writes+moves+dequeues).
    pub rate_per_s: f64,
    /// Interval deltas of the structure's counters, stable order per model.
    pub counters: Vec<(&'static str, u64)>,
}

impl StructureActivity {
    /// Look up one interval counter by name.
    pub fn counter(&self, name: &str) -> u64 {
        counter_named(&self.counters, name)
    }

    /// The interval's mainline requests, looked up by counter name: what
    /// `rate_per_s` is the rate of.
    pub fn mainline_requests(&self) -> u64 {
        mainline_counters(self.model).iter().map(|name| self.counter(name)).sum()
    }
}

/// One command class's activity over the interval (all facilities merged).
#[derive(Debug, Clone)]
pub struct ClassActivity {
    /// Stable class name.
    pub name: &'static str,
    /// Requests per second over the interval.
    pub rate_per_s: f64,
    /// The interval's counts and service-time distribution.
    pub interval: ClassSnapshot,
}

/// One system's trace/subchannel row.
#[derive(Debug, Clone)]
pub struct SystemActivity {
    /// Raw system id ([`TRACE_SYSTEM_CF`] = facility-side events).
    pub system: u8,
    /// Trace entries emitted (cumulative).
    pub emitted: u64,
    /// Entries dropped by ring wrap (cumulative).
    pub dropped: u64,
    /// Entries currently retained in the ring.
    pub retained: u64,
    /// Fraction of the interval the system's subchannels spent waiting on
    /// CF commands (from traced completion latencies; 0 with tracing off).
    pub busy_pct: f64,
}

impl SystemActivity {
    /// Report label: "SYS03", or "CF" for facility-side events.
    pub fn label(&self) -> String {
        if self.system == TRACE_SYSTEM_CF {
            "CF".to_string()
        } else {
            format!("SYS{:02}", self.system)
        }
    }
}

/// Report-wide totals and their reconciliation inputs.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// The interval's commands, all classes and all facilities merged.
    pub commands: ClassSnapshot,
    /// Trace entries emitted since enable (cumulative, all systems).
    pub trace_emitted: u64,
    /// Trace entries lost to ring wrap (cumulative).
    pub trace_dropped: u64,
    /// Trace entries currently retained.
    pub trace_retained: u64,
}

/// Schema version stamped into every JSON document this workspace emits
/// (`BENCH_*.json`, merged RMF reports). Bump when a field is renamed,
/// retyped, or removed — additions are compatible and do not bump it.
pub const SCHEMA_VERSION: u32 = 2;

/// The sysplex-wide half of a merged report: every member's shipped SMF
/// totals plus the per-class sysplex rollup with latency decomposition.
#[derive(Debug, Clone)]
pub struct SysplexSection {
    /// Per-member accumulated rows, ascending by system id. Departed
    /// members stay listed with `departed == true`.
    pub members: Vec<MemberLedger>,
    /// Sysplex per-class totals: every member's counts summed and their
    /// observed/service distributions merged.
    pub classes: Vec<(CommandClass, MemberClassTotals)>,
}

impl SysplexSection {
    /// Merge every member ledger in `smf` into a section.
    pub fn from_store(smf: &SmfStore) -> SysplexSection {
        let members = smf.ledgers();
        let mut classes: Vec<(CommandClass, MemberClassTotals)> = Vec::new();
        for class in CommandClass::ALL {
            let mut total = MemberClassTotals::default();
            for (_, t) in members.iter().flat_map(|m| &m.classes).filter(|(c, _)| *c == class) {
                total.merge(t);
            }
            if total.member.issued > 0 || total.served > 0 {
                classes.push((class, total));
            }
        }
        SysplexSection { members, classes }
    }

    /// Whether one member's shipped books balance.
    ///
    /// Always required: every class row is
    /// [`balanced`](ClassSnapshot::balanced). Once the member's **final**
    /// record arrived (its books are complete), the tunnel is reconciled
    /// against the server's service clock too, per class: a faulted
    /// command may have died on the wire (the server saw fewer), and a
    /// re-sent one is answered, not served again, so the server dispatched
    /// at least `issued − faulted` and at most `issued` — with no faults,
    /// *exactly* the commands issued.
    pub fn member_reconciles(m: &MemberLedger) -> bool {
        let classes_ok = m.classes.iter().all(|(_, t)| t.member.balanced());
        // Books still open (tail interval unshipped), shipped in-process
        // with no serving session to meter the other side of the tunnel,
        // or a crashed incarnation lost intervals for good: nothing sound
        // to reconcile against.
        let unmatched = !m.final_seen || !m.served_metered || m.interrupted;
        let tunnel_ok = unmatched
            || m.classes.iter().all(|(_, MemberClassTotals { member, served, .. })| {
                (member.issued.saturating_sub(member.faulted)..=member.issued).contains(served)
            });
        classes_ok && tunnel_ok
    }

    /// Whether every member's books balance ([`SysplexSection::member_reconciles`]).
    pub fn reconciles(&self) -> bool {
        self.members.iter().all(SysplexSection::member_reconciles)
    }

    /// Members currently departed.
    pub fn departed_count(&self) -> usize {
        self.members.iter().filter(|m| m.departed).count()
    }

    fn class_row_json(class: CommandClass, t: &MemberClassTotals) -> String {
        format!(
            "{{\"name\": {}, \"issued\": {}, \"sync\": {}, \"async_converted\": {}, \
             \"faulted\": {}, \"served\": {}, \
             \"observed_p50_us\": {}, \"observed_p95_us\": {}, \"observed_p99_us\": {}, \
             \"service_p50_us\": {}, \"service_p95_us\": {}, \"service_p99_us\": {}, \
             \"wire_p50_us\": {}, \"wire_p95_us\": {}, \"wire_p99_us\": {}}}",
            json_str(class.name()),
            t.member.issued,
            t.member.sync,
            t.member.async_converted,
            t.member.faulted,
            t.served,
            t.observed_quantile_ns(0.50) / 1000,
            t.observed_quantile_ns(0.95) / 1000,
            t.observed_quantile_ns(0.99) / 1000,
            t.service_quantile_ns(0.50) / 1000,
            t.service_quantile_ns(0.95) / 1000,
            t.service_quantile_ns(0.99) / 1000,
            t.wire_quantile_ns(0.50) / 1000,
            t.wire_quantile_ns(0.95) / 1000,
            t.wire_quantile_ns(0.99) / 1000,
        )
    }

    /// The section as one standalone JSON object: per-member rows, the
    /// sysplex class rollup with wire/service decomposition, and the
    /// reconciliation verdict. Embedded by [`ActivityReport::to_json`]
    /// and spliced into `BENCH_sysplex_scale.json` points.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"member_count\": {}, \"departed_count\": {}, \"members\": [",
            self.members.len(),
            self.departed_count()
        ));
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"system\": {}, \"name\": {}, \"departed\": {}, \"final_interval_seen\": {}, \
                 \"interrupted\": {}, \
                 \"records_shipped\": {}, \"records_evicted\": {}, \
                 \"interval_us\": {}, \"reconciled\": {}, \"classes\": [",
                m.system,
                json_str(&m.name),
                m.departed,
                m.final_seen,
                m.interrupted,
                m.records_shipped,
                m.records_evicted,
                m.interval_us,
                SysplexSection::member_reconciles(m)
            ));
            for (j, (class, t)) in m.classes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&SysplexSection::class_row_json(*class, t));
            }
            out.push_str("], \"structures\": [");
            for (j, s) in m.structures.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": {}, \"requests\": {}, \"contentions\": {}, \
                     \"force_interests\": {}, \"faulted\": {}}}",
                    json_str(&s.name),
                    s.requests,
                    s.contentions,
                    s.force_interests,
                    s.faulted
                ));
            }
            out.push_str("]}");
        }
        out.push_str("], \"classes\": [");
        for (i, (class, t)) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&SysplexSection::class_row_json(*class, t));
        }
        out.push_str(&format!("], \"reconciled\": {}}}", self.reconciles()));
        out
    }
}

/// One interval's CF Activity Report.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    /// Sysplex or rig name printed in the banner.
    pub title: String,
    /// Interval this report covers.
    pub interval: Duration,
    /// Per-structure activity, facility then structure order.
    pub structures: Vec<StructureActivity>,
    /// Per-command-class activity (classes with interval traffic).
    pub classes: Vec<ClassActivity>,
    /// Per-system trace/subchannel rows (systems with trace activity).
    pub systems: Vec<SystemActivity>,
    /// WLM service-class rows (empty without a WLM).
    pub wlm: Vec<ClassReport>,
    /// Report-wide totals.
    pub totals: Totals,
    /// Hierarchical-locking fast-path activity over the interval.
    pub lock_hierarchy: LockHierarchyActivity,
    /// The sysplex-wide merge over every member's shipped SMF records
    /// (`None` for a plain local report).
    pub sysplex: Option<SysplexSection>,
}

impl ActivityReport {
    /// Whether the report's own numbers reconcile: every class (and the
    /// totals) satisfies `issued == sync + async_converted`, the trace
    /// rings satisfy `retained == emitted − dropped`, and — when the
    /// report carries a sysplex merge — every member's shipped books
    /// balance too ([`SysplexSection::reconciles`]).
    pub fn reconciles(&self) -> bool {
        let classes_ok = self.classes.iter().all(|c| c.interval.balanced());
        let totals_ok = self.totals.commands.balanced();
        let trace_ok =
            self.totals.trace_retained == self.totals.trace_emitted.saturating_sub(self.totals.trace_dropped);
        let sysplex_ok = self.sysplex.as_ref().is_none_or(|s| s.reconciles());
        classes_ok && totals_ok && trace_ok && sysplex_ok
    }

    /// The sysplex observability fragment as a standalone JSON object
    /// (for splicing into other `BENCH_*.json` documents); `"null"` for
    /// a report without a sysplex merge.
    pub fn observability_json(&self) -> String {
        self.sysplex.as_ref().map_or_else(|| "null".to_string(), |s| s.to_json())
    }

    /// Serialize as a `BENCH_*.json`-style document (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str("  \"report\": \"cf_activity\",\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"hw_threads\": {},\n",
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        ));
        // The monitor observes an in-process CF; remote members are
        // measured at their own end (see BENCH_sysplex_scale.json).
        out.push_str(&format!(
            "  \"transport\": \"{}\",\n",
            sysplex_core::TransportBackend::InProcess.name()
        ));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"interval_ms\": {},\n", self.interval.as_millis()));

        out.push_str("  \"structures\": [");
        for (i, s) in self.structures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"facility\": {}, \"name\": {}, \"model\": {}, \"rate_per_s\": {}, \"counters\": {{",
                json_str(&s.facility),
                json_str(&s.name),
                json_str(s.model),
                json_f64(s.rate_per_s)
            ));
            for (j, (n, v)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {v}", json_str(n)));
            }
            out.push_str("}}");
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"command_classes\": [");
        for (i, ClassActivity { name, rate_per_s, interval: c }) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"issued\": {}, \"sync\": {}, \"async_converted\": {}, \
                 \"faulted\": {}, \"rate_per_s\": {}, \"sync_pct\": {}, \"mean_us\": {}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                json_str(name),
                c.issued,
                c.sync,
                c.async_converted,
                c.faulted,
                json_f64(*rate_per_s),
                json_f64(ratio(c.sync, c.issued) * 100.0),
                json_f64(c.latency.mean_ns() / 1000.0),
                c.latency.quantile_ns(0.50) / 1000,
                c.latency.quantile_ns(0.95) / 1000,
                c.latency.quantile_ns(0.99) / 1000,
                c.latency.max_ns / 1000
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"systems\": [");
        for (i, s) in self.systems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"system\": {}, \"emitted\": {}, \"dropped\": {}, \"retained\": {}, \
                 \"busy_pct\": {}}}",
                json_str(&s.label()),
                s.emitted,
                s.dropped,
                s.retained,
                json_f64(s.busy_pct * 100.0)
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"wlm\": [");
        for (i, c) in self.wlm.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"class\": {}, \"importance\": {}, \"goal_ms\": {}, \"completions\": {}, \
                 \"mean_response_ms\": {}, \"performance_index\": {}}}",
                json_str(&c.name),
                c.importance,
                json_f64(c.goal.as_secs_f64() * 1000.0),
                c.completions,
                json_f64(c.mean_response.as_secs_f64() * 1000.0),
                c.performance_index.map_or("null".to_string(), json_f64)
            ));
        }
        out.push_str("\n  ],\n");

        let lh = &self.lock_hierarchy;
        out.push_str(&format!(
            "  \"lock_hierarchy\": {{\"cf_grants\": {}, \"local_regrants\": {}, \
             \"regrant_ratio\": {}, \"lazy_releases\": {}, \"table_resizes\": {}}},\n",
            lh.cf_grants,
            lh.local_regrants,
            json_f64(lh.regrant_ratio()),
            lh.lazy_releases,
            lh.resizes
        ));

        let t = &self.totals;
        out.push_str(&format!(
            "  \"totals\": {{\"issued\": {}, \"sync\": {}, \"async_converted\": {}, \"faulted\": {}, \
             \"trace_emitted\": {}, \"trace_dropped\": {}, \"trace_retained\": {}}},\n",
            t.commands.issued,
            t.commands.sync,
            t.commands.async_converted,
            t.commands.faulted,
            t.trace_emitted,
            t.trace_dropped,
            t.trace_retained
        ));
        if let Some(s) = &self.sysplex {
            out.push_str(&format!("  \"sysplex\": {},\n", s.to_json()));
        }
        out.push_str(&format!("  \"reconciled\": {}\n", self.reconciles()));
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for ActivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "C F   A C T I V I T Y   R E P O R T    {}", self.title)?;
        writeln!(f, "  interval {:.3}s", self.interval.as_secs_f64())?;
        writeln!(f, "{}", "-".repeat(78))?;

        writeln!(f, "STRUCTURE ACTIVITY")?;
        writeln!(f, "  {:<10} {:<12} {:<6} {:>9}  detail", "facility", "structure", "model", "req/s")?;
        for s in &self.structures {
            let detail = match s.model {
                "LOCK" => format!(
                    "contention {:.1}%  false-contention-resolved {}  releases {}",
                    ratio(s.counter("contentions"), s.counter("requests")) * 100.0,
                    s.counter("false_contention_resolved"),
                    s.counter("releases")
                ),
                "CACHE" => format!(
                    "dir-hit {:.1}%  XI {}  reclaims {}  castouts {}",
                    ratio(s.counter("read_hits"), s.counter("reads")) * 100.0,
                    s.counter("xi_signals"),
                    s.counter("reclaims"),
                    s.counter("castouts")
                ),
                _ => format!(
                    "transitions {}  dequeues {}  lock-rejections {}",
                    s.counter("transitions"),
                    s.counter("dequeues"),
                    s.counter("lock_rejections")
                ),
            };
            writeln!(
                f,
                "  {:<10} {:<12} {:<6} {:>9.1}  {}",
                s.facility, s.name, s.model, s.rate_per_s, detail
            )?;
        }

        writeln!(f, "COMMAND CLASSES (unified subchannel path)")?;
        writeln!(
            f,
            "  {:<14} {:>9} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8}",
            "class", "req/s", "issued", "sync%", "async%", "p50 µs", "p95 µs", "p99 µs", "max µs"
        )?;
        for ClassActivity { name, rate_per_s, interval: c } in &self.classes {
            writeln!(
                f,
                "  {:<14} {:>9.1} {:>8} {:>6.1}% {:>6.1}% {:>8} {:>8} {:>8} {:>8}",
                name,
                rate_per_s,
                c.issued,
                ratio(c.sync, c.issued) * 100.0,
                ratio(c.async_converted, c.issued) * 100.0,
                c.latency.quantile_ns(0.50) / 1000,
                c.latency.quantile_ns(0.95) / 1000,
                c.latency.quantile_ns(0.99) / 1000,
                c.latency.max_ns / 1000
            )?;
        }

        if self.lock_hierarchy.any() {
            let lh = &self.lock_hierarchy;
            writeln!(f, "LOCK HIERARCHY (local-interest fast path)")?;
            writeln!(
                f,
                "  cf-grants {}  local-regrants {}  regrant-ratio {:.1}%  lazy-releases {}  \
                 table-resizes {}",
                lh.cf_grants,
                lh.local_regrants,
                lh.regrant_ratio() * 100.0,
                lh.lazy_releases,
                lh.resizes
            )?;
        }

        if !self.systems.is_empty() {
            writeln!(f, "SYSTEM TRACE / SUBCHANNEL")?;
            writeln!(
                f,
                "  {:<7} {:>9} {:>9} {:>9} {:>7}",
                "system", "emitted", "dropped", "retained", "busy%"
            )?;
            for s in &self.systems {
                writeln!(
                    f,
                    "  {:<7} {:>9} {:>9} {:>9} {:>6.1}%",
                    s.label(),
                    s.emitted,
                    s.dropped,
                    s.retained,
                    s.busy_pct * 100.0
                )?;
            }
        }

        if let Some(sx) = &self.sysplex {
            writeln!(f, "SYSPLEX MEMBERS (merged SMF records)")?;
            writeln!(
                f,
                "  {:<8} {:<12} {:<8} {:>7} {:>8}  latency decomposition (p95 µs)",
                "system", "member", "state", "records", "issued"
            )?;
            for m in &sx.members {
                let issued: u64 = m.classes.iter().map(|(_, t)| t.member.issued).sum();
                let mut decomp = String::new();
                for (class, t) in m.classes.iter().filter(|(_, t)| t.member.issued > 0).take(3) {
                    decomp.push_str(&format!(
                        "{}: {}={}+{}  ",
                        class.name(),
                        t.observed_quantile_ns(0.95) / 1000,
                        t.wire_quantile_ns(0.95) / 1000,
                        t.service_quantile_ns(0.95) / 1000
                    ));
                }
                writeln!(
                    f,
                    "  SYS{:02}    {:<12} {:<8} {:>7} {:>8}  {}",
                    m.system,
                    m.name,
                    if m.departed { "departed" } else { "active" },
                    m.records_shipped,
                    issued,
                    decomp
                )?;
            }
            writeln!(
                f,
                "  sysplex: {} member(s), {} departed, reconciled={}",
                sx.members.len(),
                sx.departed_count(),
                if sx.reconciles() { "yes" } else { "NO" }
            )?;
        }

        if !self.wlm.is_empty() {
            writeln!(f, "WLM SERVICE CLASSES")?;
            writeln!(
                f,
                "  {:<10} {:>3} {:>9} {:>12} {:>10} {:>6}",
                "class", "imp", "goal ms", "completions", "resp ms", "PI"
            )?;
            for c in &self.wlm {
                let pi = c.performance_index.map_or("  n/a".to_string(), |pi| format!("{pi:>6.2}"));
                writeln!(
                    f,
                    "  {:<10} {:>3} {:>9.1} {:>12} {:>10.2} {}",
                    c.name,
                    c.importance,
                    c.goal.as_secs_f64() * 1000.0,
                    c.completions,
                    c.mean_response.as_secs_f64() * 1000.0,
                    pi
                )?;
            }
        }

        let t = &self.totals;
        writeln!(
            f,
            "TOTALS issued={} sync={} async-converted={} faulted={} \
             trace-emitted={} trace-dropped={} trace-retained={} reconciled={}",
            t.commands.issued,
            t.commands.sync,
            t.commands.async_converted,
            t.commands.faulted,
            t.trace_emitted,
            t.trace_dropped,
            t.trace_retained,
            if self.reconciles() { "yes" } else { "NO" }
        )
    }
}

/// The RMF-style interval monitor.
pub struct Monitor {
    title: String,
    timer: Arc<SysplexTimer>,
    cfs: Vec<Arc<CouplingFacility>>,
    tracers: Vec<Arc<Tracer>>,
    wlm: Option<Arc<Wlm>>,
    baseline: Mutex<Baseline>,
    stop: Arc<AtomicBool>,
    /// Wakes the interval thread early so `stop()` never has to wait out a
    /// full interval sleep (the `stopped` mutex only guards the wait).
    wakeup: Arc<(Mutex<bool>, Condvar)>,
    ticker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("title", &self.title)
            .field("facilities", &self.cfs.len())
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// A monitor over `cfs` (report order preserved), clocked by `timer`.
    pub fn new(title: &str, timer: Arc<SysplexTimer>, cfs: Vec<Arc<CouplingFacility>>) -> Arc<Monitor> {
        // Facilities may share one sysplex-wide tracer; dedupe so systems
        // are not double-counted.
        let mut tracers: Vec<Arc<Tracer>> = Vec::new();
        for cf in &cfs {
            if !tracers.iter().any(|t| Arc::ptr_eq(t, cf.tracer())) {
                tracers.push(Arc::clone(cf.tracer()));
            }
        }
        let baseline = Baseline {
            at: timer.elapsed(),
            classes: vec![ConnectionSnapshot::default(); cfs.len()],
            structures: HashMap::new(),
            systems: HashMap::new(),
            lock_kinds: [0; LOCK_HIERARCHY_KINDS.len()],
        };
        Arc::new(Monitor {
            title: title.to_string(),
            timer,
            cfs,
            tracers,
            wlm: None,
            baseline: Mutex::new(baseline),
            stop: Arc::new(AtomicBool::new(false)),
            wakeup: Arc::new((Mutex::new(false), Condvar::new())),
            ticker: Mutex::new(None),
        })
    }

    /// A monitor over everything a [`crate::sysplex::Sysplex`] registered,
    /// including its WLM.
    pub fn for_sysplex(plex: &crate::sysplex::Sysplex) -> Arc<Monitor> {
        let mut m = Monitor::new(plex.name(), Arc::clone(&plex.timer), plex.cfs());
        Arc::get_mut(&mut m).expect("fresh monitor is unshared").wlm = Some(Arc::clone(&plex.wlm));
        m
    }

    /// Produce the report for the interval since the previous call (or
    /// since monitor creation) and advance the baseline.
    pub fn report(&self) -> ActivityReport {
        let mut base = self.baseline.lock();
        let now = self.timer.elapsed();
        let interval = now.saturating_sub(base.at).max(Duration::from_micros(1));
        let secs = interval.as_secs_f64();

        // Command classes: one snapshot of each facility's summed cells per
        // report — the only place the monitor copies histograms — and the
        // interval is its delta against the previous report's, merged
        // across facilities.
        let mut interval_classes = ConnectionSnapshot::default();
        for (cf, prev) in self.cfs.iter().zip(&mut base.classes) {
            let now = cf.command_stats().snapshot();
            interval_classes.merge(&now.delta(prev));
            *prev = now;
        }
        let mut classes = Vec::new();
        let mut totals = Totals::default();
        for (class, interval) in interval_classes.into_rows() {
            totals.commands.merge(&interval);
            classes.push(ClassActivity {
                name: class.name(),
                rate_per_s: interval.issued as f64 / secs,
                interval,
            });
        }

        // Structures: interval deltas of the raw counters. One registry
        // snapshot per facility — counter reads and formatting all happen
        // outside the registry lock.
        let mut structures = Vec::new();
        for (fi, cf) in self.cfs.iter().enumerate() {
            for (name, handle) in cf.structures_snapshot() {
                let (model, counters) = structure_counters(&handle);
                let prev = base.structures.insert((fi, name.clone()), counters.clone()).unwrap_or_default();
                let delta = counters.iter().map(|&(n, v)| (n, v.saturating_sub(counter_named(&prev, n))));
                let mut activity = StructureActivity {
                    facility: cf.name().to_string(),
                    name,
                    model,
                    rate_per_s: 0.0,
                    counters: delta.collect(),
                };
                activity.rate_per_s = activity.mainline_requests() as f64 / secs;
                structures.push(activity);
            }
        }

        // Systems: trace rings (cumulative counts, interval busy).
        let mut systems = Vec::new();
        let mut ids: Vec<u8> = self.tracers.iter().flat_map(|t| t.active_systems()).collect();
        ids.sort_unstable();
        ids.dedup();
        for sys in ids {
            let (mut emitted, mut dropped, mut retained, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
            for t in &self.tracers {
                emitted += t.emitted(sys);
                dropped += t.dropped(sys);
                retained += t.retained(sys);
                busy_ns += t.busy_ns(sys);
            }
            let prev_busy_ns = base.systems.insert(sys, busy_ns).unwrap_or(0);
            let busy_pct = (busy_ns.saturating_sub(prev_busy_ns) as f64 / 1e9) / secs;
            systems.push(SystemActivity { system: sys, emitted, dropped, retained, busy_pct });
        }
        for t in &self.tracers {
            totals.trace_emitted += t.total_emitted();
            totals.trace_dropped += t.total_dropped();
            totals.trace_retained += t.total_emitted().saturating_sub(t.total_dropped());
        }

        // Lock hierarchy: interval deltas of the fast-path trace kinds.
        let mut kinds = [0u64; LOCK_HIERARCHY_KINDS.len()];
        for (i, kind) in LOCK_HIERARCHY_KINDS.iter().enumerate() {
            kinds[i] = self.tracers.iter().map(|t| t.kind_count(*kind)).sum();
        }
        let lock_hierarchy = LockHierarchyActivity {
            cf_grants: kinds[0] - base.lock_kinds[0],
            local_regrants: kinds[1] - base.lock_kinds[1],
            lazy_releases: kinds[2] - base.lock_kinds[2],
            resizes: kinds[3] - base.lock_kinds[3],
        };
        base.lock_kinds = kinds;

        base.at = now;
        drop(base);

        ActivityReport {
            title: self.title.clone(),
            interval,
            structures,
            classes,
            systems,
            wlm: self.wlm.as_ref().map(|w| w.class_reports()).unwrap_or_default(),
            totals,
            lock_hierarchy,
            sysplex: None,
        }
    }

    /// Like [`Monitor::report`], but additionally merges every member's
    /// shipped SMF records (and the server-side service clock) out of
    /// `smf` into the report's [`SysplexSection`] — the sysplex-wide RMF
    /// view: per-member rows, sysplex class totals, and per-class
    /// end-to-end latency decomposed into wire vs CF service time.
    ///
    /// The local half keeps its interval semantics (and advances the
    /// baseline); the member half is life-to-date, because SMF records
    /// are deltas already accumulated by the store.
    pub fn sysplex_report(&self, smf: &SmfStore) -> ActivityReport {
        let mut report = self.report();
        report.sysplex = Some(SysplexSection::from_store(smf));
        report
    }

    /// Start an interval thread that prints a report every `interval`
    /// (RMF's Monitor III loop). Idempotent; [`Monitor::stop`] joins it.
    pub fn start(self: &Arc<Self>, interval: Duration) {
        let mut ticker = self.ticker.lock();
        if ticker.is_some() {
            return;
        }
        self.stop.store(false, Ordering::Relaxed);
        *self.wakeup.0.lock() = false;
        let monitor = Arc::clone(self);
        *ticker = Some(
            std::thread::Builder::new()
                .name("rmf-monitor".to_string())
                .spawn(move || {
                    while !monitor.stop.load(Ordering::Relaxed) {
                        // Interruptible interval wait: stop() flips the flag
                        // and notifies, so shutdown never blocks on a sleep.
                        let (lock, cvar) = &*monitor.wakeup;
                        let mut stopping = lock.lock();
                        if !*stopping {
                            cvar.wait_for(&mut stopping, interval);
                        }
                        let stop_now = *stopping;
                        drop(stopping);
                        if stop_now || monitor.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        println!("{}", monitor.report());
                    }
                })
                .expect("spawn monitor thread"),
        );
    }

    /// Stop and join the interval thread. Returns promptly even when the
    /// interval is long or a report is mid-print: the condvar interrupts the
    /// wait, and an in-flight report merely finishes its println.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let (lock, cvar) = &*self.wakeup;
        *lock.lock() = true;
        cvar.notify_all();
        if let Some(h) = self.ticker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let (lock, cvar) = &*self.wakeup;
        *lock.lock() = true;
        cvar.notify_all();
        if let Some(h) = self.ticker.get_mut().take() {
            let _ = h.join();
        }
    }
}

/// The value of the counter called `name` (0 when there is none).
fn counter_named(counters: &[(&'static str, u64)], name: &str) -> u64 {
    counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
}

/// The counters of [`structure_counters`] that are a model's mainline
/// requests: lock requests, cache reads + writes, list writes + moves +
/// dequeues.
fn mainline_counters(model: &str) -> &'static [&'static str] {
    match model {
        "LOCK" => &["requests"],
        "CACHE" => &["reads", "writes"],
        _ => &["writes", "moves", "dequeues"],
    }
}

/// Cumulative counters of a structure, in a stable per-model order (the
/// order they print in; nothing indexes into it).
fn structure_counters(handle: &StructureHandle) -> (&'static str, Vec<(&'static str, u64)>) {
    match handle {
        StructureHandle::Lock(s) => (
            "LOCK",
            vec![
                ("requests", s.stats.requests.get()),
                ("sync_grants", s.stats.sync_grants.get()),
                ("contentions", s.stats.contentions.get()),
                ("false_contention_resolved", s.stats.forced_interests.get()),
                ("releases", s.stats.releases.get()),
                ("records_written", s.stats.records_written.get()),
            ],
        ),
        StructureHandle::Cache(s) => (
            "CACHE",
            vec![
                ("reads", s.stats.reads.get()),
                ("read_hits", s.stats.read_hits.get()),
                ("writes", s.stats.writes.get()),
                ("xi_signals", s.stats.xi_signals.get()),
                ("reclaims", s.stats.reclaims.get()),
                ("castouts", s.stats.castouts.get()),
            ],
        ),
        StructureHandle::List(s) => (
            "LIST",
            vec![
                ("writes", s.stats.writes.get()),
                ("deletes", s.stats.deletes.get()),
                ("moves", s.stats.moves.get()),
                ("dequeues", s.stats.dequeues.get()),
                ("transitions", s.stats.transitions.get()),
                ("lock_rejections", s.stats.lock_rejections.get()),
            ],
        ),
    }
}

/// Escape `s` as a JSON string literal (quotes included). Public because
/// every hand-rolled `BENCH_*.json` emitter in the workspace must escape
/// interpolated names the same way — member names cross process
/// boundaries and are not guaranteed printable.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sysplex::{Sysplex, SysplexConfig};
    use sysplex_core::cache::CacheParams;
    use sysplex_core::list::{ListParams, LockCondition, WritePosition};
    use sysplex_core::lock::{LockMode, LockParams};

    fn plex_with_traffic() -> (Arc<Sysplex>, Arc<CouplingFacility>) {
        let plex = Sysplex::new(SysplexConfig::functional("RMFPLEX"));
        plex.tracer.enable();
        let cf = plex.add_cf("CF01");
        cf.allocate_lock_structure("IRLM1", LockParams::with_entries(64)).unwrap();
        cf.allocate_cache_structure("GBP0", CacheParams::store_in(64)).unwrap();
        cf.allocate_list_structure("WORKQ", ListParams::with_headers(4)).unwrap();
        let lock = cf.connect_lock("IRLM1").unwrap();
        let cache = cf.connect_cache("GBP0", 16).unwrap();
        let list = cf.connect_list("WORKQ", 8).unwrap();
        for i in 0..20 {
            let entry = lock.hash_resource(format!("RES{i}").as_bytes());
            lock.request_lock(entry, LockMode::Exclusive).unwrap();
            lock.release_lock(entry).unwrap();
            let name = sysplex_core::cache::BlockName::from_bytes(format!("PG{i}").as_bytes());
            cache.register_read(name, i % 16).unwrap();
            cache.write_invalidate(name, &[7; 64], sysplex_core::cache::WriteKind::ChangedData).unwrap();
            list.enqueue(0, i as u64, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        }
        (plex, cf)
    }

    #[test]
    fn report_reconciles_and_covers_all_sections() {
        let (plex, _cf) = plex_with_traffic();
        plex.wlm.define_class(crate::wlm::ServiceClass {
            name: "OLTP".into(),
            goal: Duration::from_millis(100),
            importance: 1,
        });
        plex.wlm.record_completion("OLTP", Duration::from_millis(20));
        let monitor = Monitor::for_sysplex(&plex);
        let report = monitor.report();
        assert!(report.reconciles(), "report must reconcile:\n{report}");
        assert_eq!(report.structures.len(), 3);
        assert!(report.classes.iter().any(|c| c.name == "lock-request"));
        assert!(!report.systems.is_empty(), "tracing was on, rings have entries");
        assert_eq!(report.wlm.len(), 1);
        assert!(report.totals.commands.issued > 0);
        let text = report.to_string();
        assert!(text.contains("C F   A C T I V I T Y"));
        assert!(text.contains("IRLM1"));
    }

    /// A structure's request rate is looked up by counter name: a known
    /// traffic mix gives the mainline count for each model, and shuffling
    /// the counter list cannot change it.
    #[test]
    fn structure_rate_counts_mainline_requests_by_name() {
        use sysplex_core::list::DequeueEnd;

        let (plex, cf) = plex_with_traffic();
        // On top of 20 enqueues: a move, two dequeues and a delete, so no
        // two list counters a positional sum could confuse are equal.
        let list = cf.connect_list("WORKQ", 8).unwrap();
        let none = LockCondition::None;
        let doomed = list.enqueue(1, 0, b"x", WritePosition::Tail, none).unwrap();
        list.delete(doomed, none).unwrap();
        list.claim_first(0, 2, DequeueEnd::Head, WritePosition::Tail, none).unwrap().unwrap();
        list.take(0, DequeueEnd::Head, none).unwrap().unwrap();
        list.take(0, DequeueEnd::Head, none).unwrap().unwrap();

        let report = Monitor::for_sysplex(&plex).report();
        let secs = report.interval.as_secs_f64();
        for (model, requests) in [("LOCK", 20), ("CACHE", 20 + 20), ("LIST", 21 + 1 + 2)] {
            let s = report.structures.iter().find(|s| s.model == model).unwrap();
            assert_eq!(s.mainline_requests(), requests, "{model}: {:?}", s.counters);
            assert!((s.rate_per_s * secs - requests as f64).abs() < 1e-6, "{model}: {}", s.rate_per_s);
            let mut reordered = s.clone();
            reordered.counters.reverse();
            assert_eq!(reordered.mainline_requests(), requests, "{model}: order must not matter");
        }
    }

    #[test]
    fn intervals_do_not_leak_history() {
        let (plex, cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        let first = monitor.report();
        assert!(first.totals.commands.issued > 0);
        // No traffic between reports: the next interval is empty.
        let second = monitor.report();
        assert_eq!(second.totals.commands.issued, 0, "interval deltas, not cumulative");
        assert!(second.classes.is_empty());
        assert!(second.reconciles());
        // New traffic appears in (only) the following interval.
        let lock = cf.connect_lock("IRLM1").unwrap();
        lock.request_lock(1, LockMode::Shared).unwrap();
        let third = monitor.report();
        let row = third.classes.iter().find(|c| c.name == "lock-request").unwrap();
        assert_eq!(row.interval.issued, 1);
        assert!(third.reconciles());
    }

    /// A connection's accounting cell outlives it. An interval that spans
    /// a detach — and the retirement of the detached cell into the
    /// facility's books — reports exactly the interval's commands; a sum
    /// that forgot the cell would make the delta negative.
    #[test]
    fn interval_across_a_connection_detach_never_goes_negative() {
        let (plex, cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        let lock = cf.connect_lock("IRLM1").unwrap();
        lock.request_lock(1, LockMode::Shared).unwrap();
        let first = monitor.report();
        assert!(first.totals.commands.issued > 0 && first.reconciles());

        lock.request_lock(2, LockMode::Shared).unwrap();
        lock.detach(sysplex_core::lock::DisconnectMode::Normal).unwrap();
        drop(lock);
        // Opening the next connection retires the dropped one's cell.
        let next = cf.connect_lock("IRLM1").unwrap();
        next.request_lock(3, LockMode::Shared).unwrap();
        let second = monitor.report();
        let issued = |name| {
            second
                .classes
                .iter()
                .find(|c| c.name == name)
                .map(|c| (c.interval.issued, c.interval.latency.samples))
        };
        assert_eq!(issued("lock-request"), Some((2, 2)));
        assert_eq!(issued("lock-admin"), Some((2, 2)), "the detach and the new attach");
        assert_eq!(second.totals.commands.issued, 4);
        assert!(second.reconciles());
        assert_eq!(monitor.report().totals.commands.issued, 0);
    }

    #[test]
    fn lock_hierarchy_section_reports_interval_deltas() {
        use sysplex_core::trace::TraceEvent;

        let (plex, _cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        let first = monitor.report();
        assert!(first.lock_hierarchy.cf_grants >= 20, "{:?}", first.lock_hierarchy);
        assert_eq!(first.lock_hierarchy.local_regrants, 0);

        // Fast-path traffic as the IRLM emits it.
        for _ in 0..30 {
            plex.tracer.emit(0, 7, TraceEvent::LockLocalRegrant { entry: 1, conn: 0, exclusive: true });
        }
        for _ in 0..5 {
            plex.tracer.emit(0, 7, TraceEvent::LockLazyRelease { entry: 1, conn: 0 });
        }
        plex.tracer.emit(0, 7, TraceEvent::LockTableResize { from_entries: 64, to_entries: 128 });

        let second = monitor.report();
        let lh = &second.lock_hierarchy;
        assert_eq!(
            (lh.cf_grants, lh.local_regrants, lh.lazy_releases, lh.resizes),
            (0, 30, 5, 1),
            "interval deltas, not cumulative"
        );
        assert!(lh.regrant_ratio() > 0.99);
        assert!(second.to_string().contains("LOCK HIERARCHY"));
        assert!(second.to_json().contains("\"lock_hierarchy\""));
        assert!(second.reconciles());
    }

    #[test]
    fn json_has_required_schema_fields() {
        let (plex, _cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        let json = monitor.report().to_json();
        for field in [
            "\"report\": \"cf_activity\"",
            "\"hw_threads\"",
            "\"transport\": \"in-process\"",
            "\"interval_ms\"",
            "\"structures\"",
            "\"command_classes\"",
            "\"systems\"",
            "\"wlm\"",
            "\"lock_hierarchy\"",
            "\"totals\"",
            "\"trace_emitted\"",
            "\"reconciled\": true",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn in_process_smf_records_merge_and_reconcile() {
        // The in-process backend ships through the same store as the TCP
        // path, but no serving session meters it: the tunnel check must
        // not demand served == issued for such members.
        use sysplex_core::transport::{CfTransport, InProcessTransport, MeteredTransport};
        use sysplex_core::transport::{RemoteLockConnection, TransportMeter};

        let (plex, cf) = plex_with_traffic();
        let meter = TransportMeter::new();
        let inner: Arc<dyn CfTransport> = Arc::new(InProcessTransport::new(&cf));
        let transport: Arc<dyn CfTransport> = Arc::new(MeteredTransport::new(inner, Arc::clone(&meter)));
        let lock = RemoteLockConnection::attach(Arc::clone(&transport), "IRLM1").unwrap();
        for i in 0..8u64 {
            let entry = lock.hash_resource(&i.to_be_bytes());
            assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
            lock.release_lock(entry).unwrap();
        }

        let store = SmfStore::new();
        store.mark_active(9, "SYS09");
        store.ship(meter.cut_record(9, "SYS09", true));

        let monitor = Monitor::for_sysplex(&plex);
        let report = monitor.sysplex_report(&store);
        let sx = report.sysplex.as_ref().unwrap();
        assert_eq!(sx.members.len(), 1);
        let m = &sx.members[0];
        assert!(m.departed && m.final_seen);
        assert!(!m.served_metered, "no serving session metered this member");
        let issued: u64 = m.classes.iter().map(|(_, t)| t.member.issued).sum();
        assert!(issued >= 17, "attach + 8 requests + 8 releases: {issued}");
        assert!(m.classes.iter().all(|(_, t)| t.served == 0));
        assert!(SysplexSection::member_reconciles(m), "served==0 must not fail the books");
        assert!(report.reconciles(), "merged report must reconcile:\n{report}");
        // The section renders in both the JSON and the RMF text report.
        let json = report.to_json();
        assert!(json.contains("\"sysplex\""));
        assert!(json.contains("\"member_count\": 1"));
        assert!(json.contains("\"wire_p95_us\""));
        assert!(report.to_string().contains("SYSPLEX MEMBERS"));
    }

    /// [`SysplexSection::to_json`] of the store `sysplex_section_json_is_pinned`
    /// builds, as the parent of the one-row change printed it.
    const PINNED_SECTION: &str = concat!(
        r#"{"member_count": 2, "departed_count": 2, "members": [{"system": 1, "name": "SYSA", "#,
        r#""departed": true, "final_interval_seen": true, "interrupted": true, "records_shipped": 2, "#,
        r#""records_evicted": 0, "interval_us": 100000, "reconciled": true, "#,
        r#""classes": [{"name": "lock-request", "issued": 5, "sync": 5, "async_converted": 0, "#,
        r#""faulted": 1, "served": 4, "observed_p50_us": 32, "observed_p95_us": 900, "#,
        r#""observed_p99_us": 900, "service_p50_us": 8, "service_p95_us": 8, "service_p99_us": 8, "#,
        r#""wire_p50_us": 24, "wire_p95_us": 892, "wire_p99_us": 892}, {"name": "cache-write", "#,
        r#""issued": 2, "sync": 1, "async_converted": 1, "faulted": 0, "served": 2, "#,
        r#""observed_p50_us": 65, "observed_p95_us": 700, "observed_p99_us": 700, "#,
        r#""service_p50_us": 32, "service_p95_us": 300, "service_p99_us": 300, "wire_p50_us": 32, "#,
        r#""wire_p95_us": 400, "wire_p99_us": 400}], "structures": [{"name": "GBP0", "requests": 2, "#,
        r#""contentions": 0, "force_interests": 0, "faulted": 0}, {"name": "IRLM1", "requests": 5, "#,
        r#""contentions": 1, "force_interests": 1, "faulted": 1}]}, {"system": 2, "name": "SYSB", "#,
        r#""departed": true, "final_interval_seen": true, "interrupted": false, "records_shipped": 1, "#,
        r#""records_evicted": 0, "interval_us": 50000, "reconciled": true, "#,
        r#""classes": [{"name": "lock-request", "issued": 4, "sync": 4, "async_converted": 0, "#,
        r#""faulted": 0, "served": 4, "observed_p50_us": 16, "observed_p95_us": 16, "#,
        r#""observed_p99_us": 16, "service_p50_us": 4, "service_p95_us": 6, "service_p99_us": 6, "#,
        r#""wire_p50_us": 11, "wire_p95_us": 10, "wire_p99_us": 10}], "structures": [{"name": "IRLM1", "#,
        r#""requests": 4, "contentions": 2, "force_interests": 0, "faulted": 0}]}], "#,
        r#""classes": [{"name": "lock-request", "issued": 9, "sync": 9, "async_converted": 0, "#,
        r#""faulted": 1, "served": 8, "observed_p50_us": 32, "observed_p95_us": 900, "#,
        r#""observed_p99_us": 900, "service_p50_us": 8, "service_p95_us": 8, "service_p99_us": 8, "#,
        r#""wire_p50_us": 24, "wire_p95_us": 892, "wire_p99_us": 892}, {"name": "cache-write", "#,
        r#""issued": 2, "sync": 1, "async_converted": 1, "faulted": 0, "served": 2, "#,
        r#""observed_p50_us": 65, "observed_p95_us": 700, "observed_p99_us": 700, "#,
        r#""service_p50_us": 32, "service_p95_us": 300, "service_p99_us": 300, "wire_p50_us": 32, "#,
        r#""wire_p95_us": 400, "wire_p99_us": 400}], "reconciled": true}"#,
    );

    /// The merged section of a fixed store, pinned as text from before the
    /// row became one type: two members, one of them re-IPLed over books
    /// a crash left open, one class with faults, and a server-side
    /// service clock. The JSON is what CI's `jq` steps and the
    /// `BENCH_*.json` consumers read, so any change to how rows are summed
    /// must reproduce it byte for byte.
    #[test]
    fn sysplex_section_json_is_pinned() {
        use sysplex_core::stats::Histogram;
        use sysplex_core::wire::{SmfRecord, SmfStructureRow};

        let row = |issued, sync, faulted, ns: &[u64]| {
            let h = Histogram::new();
            ns.iter().for_each(|&n| h.record_ns(n));
            ClassSnapshot { issued, sync, async_converted: issued - sync, faulted, latency: h.snapshot() }
        };
        let structure = |name: &str, requests, contentions, force_interests, faulted| SmfStructureRow {
            name: name.into(),
            requests,
            contentions,
            force_interests,
            faulted,
        };
        let record = |system, member: &str, final_interval, classes, structures| SmfRecord {
            system,
            member: member.into(),
            seq: 0,
            interval_us: 50_000,
            final_interval,
            classes,
            structures,
        };
        let (lock, write) = (CommandClass::LockRequest, CommandClass::CacheWrite);

        let store = SmfStore::new();
        // SYSA's first incarnation crashes with its books open...
        store.mark_admitted(1, "SYSA");
        let classes =
            vec![(lock, row(3, 3, 1, &[20_000, 30_000, 900_000])), (write, row(2, 1, 0, &[40_000, 700_000]))];
        let structures = vec![structure("IRLM1", 3, 1, 1, 1), structure("GBP0", 2, 0, 0, 0)];
        store.ship(record(1, "SYSA", false, classes, structures));
        // ...and its re-IPL ships a final record; SYSB lives one clean life.
        store.mark_admitted(1, "SYSA");
        let classes = vec![(lock, row(2, 2, 0, &[25_000, 35_000]))];
        store.ship(record(1, "SYSA", true, classes, vec![structure("IRLM1", 2, 0, 0, 0)]));
        store.mark_admitted(2, "SYSB");
        let classes = vec![(lock, row(4, 4, 0, &[10_000, 12_000, 14_000, 16_000]))];
        store.ship(record(2, "SYSB", true, classes, vec![structure("IRLM1", 4, 2, 0, 0)]));
        for (system, class, us) in
            [(1, lock, 5), (1, lock, 6), (1, lock, 7), (1, lock, 8), (1, write, 30), (1, write, 300)]
        {
            store.observe_service(system, class, Duration::from_micros(us));
        }
        for us in [3, 4, 5, 6] {
            store.observe_service(2, lock, Duration::from_micros(us));
        }

        assert_eq!(SysplexSection::from_store(&store).to_json(), PINNED_SECTION);
    }

    /// A re-sent command is answered from the server's stored reply, not
    /// served again, so the server serving more than the member issued
    /// is a fault in the books: there is no retry slack left to hide it.
    #[test]
    fn a_server_that_served_more_than_was_issued_fails_the_books() {
        use sysplex_core::stats::Histogram;
        use sysplex_core::wire::SmfRecord;

        let books = |served: u64| {
            let h = Histogram::new();
            (0..2).for_each(|_| h.record_ns(10_000));
            let store = SmfStore::new();
            store.mark_admitted(3, "SYSC");
            store.ship(SmfRecord {
                system: 3,
                member: "SYSC".into(),
                seq: 0,
                interval_us: 1_000,
                final_interval: true,
                classes: vec![(
                    CommandClass::LockRequest,
                    ClassSnapshot {
                        issued: 2,
                        sync: 2,
                        async_converted: 0,
                        faulted: 0,
                        latency: h.snapshot(),
                    },
                )],
                structures: Vec::new(),
            });
            for _ in 0..served {
                store.observe_service(3, CommandClass::LockRequest, Duration::from_micros(4));
            }
            SysplexSection::member_reconciles(&store.ledgers()[0])
        };
        assert!(books(2), "served exactly what was issued");
        assert!(!books(3), "one command served twice");
    }

    #[test]
    fn hostile_member_and_structure_names_stay_escaped_in_json() {
        use sysplex_core::wire::{SmfRecord, SmfStructureRow};

        let store = SmfStore::new();
        let name = "SYS\"A\\\n\u{1}";
        store.mark_active(2, name);
        store.ship(SmfRecord {
            system: 2,
            member: name.into(),
            seq: 0,
            interval_us: 1_000,
            final_interval: false,
            classes: Vec::new(),
            structures: vec![SmfStructureRow {
                name: "Q\"\u{7f}\\".into(),
                requests: 1,
                contentions: 0,
                force_interests: 0,
                faulted: 0,
            }],
        });

        let plex = Sysplex::new(SysplexConfig::functional("ESCPLEX"));
        let json = Monitor::for_sysplex(&plex).sysplex_report(&store).to_json();
        assert!(json.contains(r#""SYS\"A\\\n\u0001""#), "member name must escape: {json}");
        assert!(json.contains(r#""Q\""#), "structure name must escape");
        // No raw control characters survive anywhere in the document.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'), "raw control char leaked");
        // The escaper itself is part of the public surface now; pin it.
        assert_eq!(json_str("a\"b\\c\n\t\u{2}"), r#""a\"b\\c\n\t\u0002""#);
    }

    #[test]
    fn monitor_interval_thread_starts_and_stops() {
        let (plex, _cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        monitor.start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        monitor.stop();
        // A second stop is a no-op; a report after stopping still works.
        monitor.stop();
        assert!(monitor.report().reconciles());
    }

    #[test]
    fn stop_interrupts_a_long_interval_wait() {
        let (plex, _cf) = plex_with_traffic();
        let monitor = Monitor::for_sysplex(&plex);
        // An hour-long interval: stop() must not wait it out.
        monitor.start(Duration::from_secs(3600));
        let begun = std::time::Instant::now();
        monitor.stop();
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "stop() blocked on the interval sleep: {:?}",
            begun.elapsed()
        );
    }

    #[test]
    fn dropping_sysplex_with_reports_in_flight_does_not_panic() {
        // Reports fire as fast as the thread can run, then everything is
        // torn down with the ticker mid-loop: Monitor::drop must join
        // cleanly before the facility goes away.
        for _ in 0..10 {
            let (plex, cf) = plex_with_traffic();
            let monitor = Monitor::for_sysplex(&plex);
            monitor.start(Duration::from_micros(50));
            let lock = cf.connect_lock("IRLM1").unwrap();
            for i in 0..50u64 {
                let entry = lock.hash_resource(&i.to_be_bytes());
                lock.request_lock(entry, LockMode::Shared).unwrap();
                lock.release_lock(entry).unwrap();
            }
            drop(monitor); // Drop path joins the ticker (no explicit stop).
            drop(plex); // The facility outlives the monitor.
        }
    }
}
