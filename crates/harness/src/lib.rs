//! Deterministic sysplex simulation harness.
//!
//! The paper's availability claims — fail-stop fencing on missed
//! heartbeats, peer recovery of retained locks, structure rebuild,
//! couple-data-set duplexing — are exercised elsewhere by integration
//! tests with hand-picked schedules. This crate generalizes them into
//! **seeded fault campaigns**: a virtual Sysplex Timer replaces wall
//! clocks, a SplitMix64-driven scheduler replaces thread timing, and a
//! trace oracle replaces per-test assertions. One `u64` seed fully
//! determines a campaign; a failing seed replays bit-for-bit and its
//! fault plan shrinks to a minimal copy-pasteable repro.
//!
//! The pieces:
//!
//! * [`rng::SplitMix64`] — the seeded decision stream.
//! * [`plan::FaultPlan`] — the fault-schedule DSL (link faults, system
//!   stalls, structure loss, CDS primary failure).
//! * [`campaign::CampaignSpec`] — builds a virtual-clock sysplex and runs
//!   the seeded workload/fault schedule from a single driver thread.
//! * [`oracle`] — five machine-verified invariants over the merged trace
//!   and final structure state.
//! * [`shrink`] — greedy fault-plan minimization and the
//!   [`shrink::run_checked`] test entry point.
//! * [`coverage`] — the campaign coverage signal: trace n-grams, oracle
//!   branches, and recovery-path branches hashed into a fixed
//!   [`coverage::CoverageMap`].
//! * [`mutate`] — seeded splice/shift/drop/add plan mutators that turn an
//!   interesting spec into its schedule-space neighbors.
//! * [`campaign::SweepEngine`] — the coverage-guided scheduler: maintains
//!   a corpus of novelty-finding specs and biases generation toward
//!   mutating them; workers pull specs and push coverage back.
//! * [`opsday`] — composed operations-day scenarios over real TCP
//!   (rolling restart, partition + heal, ARM restart storm), with
//!   recovery-time metrics and a lost-transaction reconciliation.
//!
//! Replaying a CI failure: the panic message names the seed; run
//! `CampaignSpec::from_seed(seed).run()` (or paste the printed minimized
//! spec) in any test and the identical trace comes back.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod chaos;
pub mod coverage;
pub mod mutate;
pub mod opsday;
pub mod oracle;
pub mod plan;
pub mod rng;
pub mod shrink;

pub use campaign::{CampaignOutcome, CampaignSpec, CampaignStats, CorpusEntry, SweepConfig, SweepEngine};
pub use chaos::{ChaosPlan, ChaosProxy, WireFault};
pub use coverage::{violation_bit, CoverageMap};
pub use opsday::{
    default_chaos_plans, partition_heal, partition_heal_with_plans, restart_storm, rolling_restart, run_all,
    scenarios_json, OpsDayConfig, ScenarioOutcome,
};
pub use oracle::{OracleConfig, Violation};
pub use plan::{Fault, FaultPlan};
pub use rng::SplitMix64;
pub use shrink::{run_checked, shrink as shrink_plan, ShrunkFailure};
