//! Multi-process sysplex scaling report (`BENCH_sysplex_scale.json`).
//!
//! The `sysplex_scale` example stands up a real multi-process sysplex —
//! one parent holding the CF behind a `SysplexServer`, N member
//! processes connected over TCP — and drives a debit-credit-shaped
//! burst from every member. Each member prints one machine-parseable
//! result line on stdout ([`MemberSample`]); the parent aggregates the
//! lines into a [`ScaleReport`] with a members-vs-throughput scaling
//! curve, the wire analogue of the paper's Figure 3.
//!
//! Everything here is plain text and hand-rolled JSON: the workspace
//! carries no serde, and the member→parent channel must survive
//! whatever else the child writes to stdout.

/// Prefix member processes put in front of their result line.
pub const RESULT_PREFIX: &str = "SCALE-RESULT";

/// One member process's measurements, as passed over the stdout pipe.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSample {
    /// Raw system id the member was admitted as.
    pub system: u8,
    /// Member name (no whitespace).
    pub name: String,
    /// Debit-credit transactions completed.
    pub ops: u64,
    /// Wall time for the transaction burst, microseconds.
    pub elapsed_us: u64,
    /// XCF signal round trip, median, microseconds.
    pub xcf_rtt_us_p50: f64,
    /// XCF signal round trip, 95th percentile, microseconds.
    pub xcf_rtt_us_p95: f64,
    /// CF probe command service time, median, microseconds.
    pub cf_probe_us_p50: f64,
    /// CF probe command service time, 95th percentile, microseconds.
    pub cf_probe_us_p95: f64,
}

impl MemberSample {
    /// Transactions per second over the burst.
    pub fn ops_per_s(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.ops as f64 / (self.elapsed_us as f64 / 1_000_000.0)
        }
    }

    /// Render the stdout result line.
    pub fn to_line(&self) -> String {
        format!(
            "{RESULT_PREFIX} system={} name={} ops={} elapsed_us={} xcf_p50={:.2} xcf_p95={:.2} \
             probe_p50={:.2} probe_p95={:.2}",
            self.system,
            self.name,
            self.ops,
            self.elapsed_us,
            self.xcf_rtt_us_p50,
            self.xcf_rtt_us_p95,
            self.cf_probe_us_p50,
            self.cf_probe_us_p95,
        )
    }

    /// Parse a stdout line; `None` for anything that is not a result line.
    pub fn parse_line(line: &str) -> Option<MemberSample> {
        let rest = line.trim().strip_prefix(RESULT_PREFIX)?;
        let mut sample = MemberSample {
            system: 0,
            name: String::new(),
            ops: 0,
            elapsed_us: 0,
            xcf_rtt_us_p50: 0.0,
            xcf_rtt_us_p95: 0.0,
            cf_probe_us_p50: 0.0,
            cf_probe_us_p95: 0.0,
        };
        let mut seen = 0u32;
        for field in rest.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "system" => sample.system = value.parse().ok()?,
                "name" => sample.name = value.to_string(),
                "ops" => sample.ops = value.parse().ok()?,
                "elapsed_us" => sample.elapsed_us = value.parse().ok()?,
                "xcf_p50" => sample.xcf_rtt_us_p50 = value.parse().ok()?,
                "xcf_p95" => sample.xcf_rtt_us_p95 = value.parse().ok()?,
                "probe_p50" => sample.cf_probe_us_p50 = value.parse().ok()?,
                "probe_p95" => sample.cf_probe_us_p95 = value.parse().ok()?,
                _ => continue,
            }
            seen += 1;
        }
        if seen == 8 {
            Some(sample)
        } else {
            None
        }
    }
}

/// One point of the scaling curve: a whole N-member run.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Member processes in this run.
    pub members: usize,
    /// Sum of per-member throughput.
    pub total_ops_per_s: f64,
    /// Throughput over the 1-member run's (1.0 for the first point).
    pub speedup_vs_1: f64,
    /// The members' individual results.
    pub per_member: Vec<MemberSample>,
    /// Pre-rendered JSON object for the run's merged sysplex
    /// observability section ([`SysplexSection::to_json`] output): the
    /// parent snapshots its SMF store after the run and splices the
    /// document here verbatim. `None` renders as JSON `null`.
    ///
    /// [`SysplexSection::to_json`]: sysplex_services::SysplexSection
    pub observability: Option<String>,
}

/// The full report written to `BENCH_sysplex_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Hardware threads on the host (members are real processes; the
    /// curve flattens when they exhaust these).
    pub hw_threads: usize,
    /// Transport backend — always `"tcp"` for this bench.
    pub transport: &'static str,
    /// Debit-credit transactions each member drives.
    pub ops_per_member: u64,
    /// One point per member count swept, ascending.
    pub scaling: Vec<ScalePoint>,
}

impl ScaleReport {
    /// Assemble the report from per-run member samples (ascending member
    /// counts), computing throughput sums and speedups.
    pub fn from_runs(ops_per_member: u64, runs: Vec<Vec<MemberSample>>) -> ScaleReport {
        let mut scaling = Vec::with_capacity(runs.len());
        let mut base = 0.0f64;
        for per_member in runs {
            let total: f64 = per_member.iter().map(|m| m.ops_per_s()).sum();
            if scaling.is_empty() {
                base = total;
            }
            scaling.push(ScalePoint {
                members: per_member.len(),
                total_ops_per_s: total,
                speedup_vs_1: if base > 0.0 { total / base } else { 0.0 },
                per_member,
                observability: None,
            });
        }
        ScaleReport {
            hw_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            transport: sysplex_core::TransportBackend::Tcp.name(),
            ops_per_member,
            scaling,
        }
    }

    /// Render the schema-stable JSON consumed by the CI `sysplex-scale`
    /// job (see DESIGN.md §9 for the schema contract).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"sysplex_scale\",\n");
        out.push_str(&format!("  \"schema_version\": {},\n", sysplex_services::SCHEMA_VERSION));
        out.push_str(&format!("  \"hw_threads\": {},\n", self.hw_threads));
        out.push_str(&format!("  \"transport\": \"{}\",\n", self.transport));
        out.push_str(&format!("  \"ops_per_member\": {},\n", self.ops_per_member));
        out.push_str("  \"scaling\": [\n");
        for (i, p) in self.scaling.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"members\": {}, \"total_ops_per_s\": {:.1}, \"speedup_vs_1\": {:.3}, \
                 \"per_member\": [\n",
                p.members, p.total_ops_per_s, p.speedup_vs_1
            ));
            for (j, m) in p.per_member.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"system\": {}, \"name\": {}, \"ops\": {}, \"elapsed_ms\": {:.3}, \
                     \"ops_per_s\": {:.1}, \"xcf_rtt_us_p50\": {:.2}, \"xcf_rtt_us_p95\": {:.2}, \
                     \"cf_probe_us_p50\": {:.2}, \"cf_probe_us_p95\": {:.2}}}{}\n",
                    m.system,
                    sysplex_services::json_str(&m.name),
                    m.ops,
                    m.elapsed_us as f64 / 1_000.0,
                    m.ops_per_s(),
                    m.xcf_rtt_us_p50,
                    m.xcf_rtt_us_p95,
                    m.cf_probe_us_p50,
                    m.cf_probe_us_p95,
                    if j + 1 == p.per_member.len() { "" } else { "," }
                ));
            }
            out.push_str("    ], \"observability\": ");
            out.push_str(p.observability.as_deref().unwrap_or("null"));
            out.push_str(&format!("}}{}\n", if i + 1 == self.scaling.len() { "" } else { "," }));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable table (the example prints this alongside the JSON).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "SYSPLEX SCALE — {} transport, {} ops/member, {} hardware threads\n",
            self.transport, self.ops_per_member, self.hw_threads
        ));
        out.push_str(&format!(
            "{:<8} {:>14} {:>10}   per-member ops/s (xcf rtt p50 µs / cf probe p50 µs)\n",
            "members", "total ops/s", "speedup"
        ));
        for p in &self.scaling {
            let detail = p
                .per_member
                .iter()
                .map(|m| {
                    format!(
                        "{}: {:.0} ({:.0}/{:.0})",
                        m.name,
                        m.ops_per_s(),
                        m.xcf_rtt_us_p50,
                        m.cf_probe_us_p50
                    )
                })
                .collect::<Vec<_>>()
                .join("  ");
            out.push_str(&format!(
                "{:<8} {:>14.1} {:>9.2}x   {}\n",
                p.members, p.total_ops_per_s, p.speedup_vs_1, detail
            ));
        }
        out
    }
}

/// Percentile over an unsorted sample set (nearest-rank), in the
/// samples' own unit.
pub fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(system: u8, ops: u64, elapsed_us: u64) -> MemberSample {
        MemberSample {
            system,
            name: format!("SYS{system:02}"),
            ops,
            elapsed_us,
            xcf_rtt_us_p50: 12.5,
            xcf_rtt_us_p95: 31.25,
            cf_probe_us_p50: 8.0,
            cf_probe_us_p95: 16.0,
        }
    }

    #[test]
    fn result_line_round_trips() {
        let s = sample(3, 500, 250_000);
        assert_eq!(MemberSample::parse_line(&s.to_line()), Some(s));
        // Child noise on stdout is ignored.
        assert_eq!(MemberSample::parse_line("joining group SCALE"), None);
        assert_eq!(MemberSample::parse_line("SCALE-RESULT system=1"), None, "incomplete line rejected");
    }

    #[test]
    fn report_computes_totals_and_speedup() {
        // 500 ops in 0.25 s = 2000 ops/s per member.
        let runs =
            vec![vec![sample(1, 500, 250_000)], vec![sample(1, 500, 250_000), sample(2, 500, 250_000)]];
        let report = ScaleReport::from_runs(500, runs);
        assert_eq!(report.scaling.len(), 2);
        assert!((report.scaling[0].total_ops_per_s - 2000.0).abs() < 1e-6);
        assert!((report.scaling[1].speedup_vs_1 - 2.0).abs() < 1e-6);
        assert_eq!(report.transport, "tcp");

        let json = report.to_json();
        for key in [
            "\"report\": \"sysplex_scale\"",
            "\"schema_version\": 2",
            "\"hw_threads\"",
            "\"transport\": \"tcp\"",
            "\"ops_per_member\": 500",
            "\"scaling\"",
            "\"per_member\"",
            "\"xcf_rtt_us_p50\"",
            "\"cf_probe_us_p50\"",
            "\"speedup_vs_1\"",
            "\"observability\": null",
        ] {
            assert!(json.contains(key), "JSON missing {key}");
        }
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn hostile_member_names_are_escaped_and_observability_splices() {
        let mut evil = sample(1, 500, 250_000);
        evil.name = "SYS\"01\\".to_string();
        let mut report = ScaleReport::from_runs(500, vec![vec![evil]]);
        report.scaling[0].observability = Some("{\"member_count\": 1, \"reconciled\": true}".to_string());
        let json = report.to_json();
        assert!(json.contains(r#""name": "SYS\"01\\""#), "name must escape: {json}");
        assert!(json.contains("\"observability\": {\"member_count\": 1"));
        assert!(!json.contains("\"observability\": null"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_us(&mut v, 50.0), 3.0);
        assert_eq!(percentile_us(&mut v, 95.0), 5.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
    }
}
