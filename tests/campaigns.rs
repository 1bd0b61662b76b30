//! Seeded fault campaigns: fixed regression corpus plus a bounded
//! randomized sweep.
//!
//! Every campaign here is fully derived from a single `u64` seed
//! (member count, duplexing, fault plan, workload stream), runs on the
//! virtual Sysplex Timer, and is audited by the trace oracle. A failure
//! panics with the seed and a shrunk, copy-pasteable fault plan; replay
//! it with `SYSPLEX_SEED=<seed> cargo test --test campaigns`.

use std::time::{Duration, Instant};
use sysplex_harness::mutate::{add_fault, mutate_spec, MAX_FAULTS};
use sysplex_harness::{
    run_checked, CampaignSpec, CoverageMap, Fault, FaultPlan, SplitMix64, SweepConfig, SweepEngine,
};

/// Fixed corpus. The annotated seeds reproduced real bugs during
/// development; the rest spread coverage across member counts, duplexing,
/// and fault mixes. All must stay green forever.
const REGRESSION_SEEDS: &[u64] = &[
    0x51cc,             // duplexed mirror writes misattributed to the facility ring
    0xd0b1,             // duplex failover while a structure-loss fault is pending
    0x15792635cdd1887b, // wind-down drain abandoned the backlog on an armed link fault (guided sweep find)
    0x1,
    0x2a,
    0x12d687,
    0xdead_beef,
    0xfeed_f00d,
    0x5eed_c0de,
    0x0bad_cafe,
    0x7777_7777,
];

#[test]
fn regression_seed_corpus_stays_green() {
    for &seed in REGRESSION_SEEDS {
        let outcome = run_checked(CampaignSpec::from_seed(seed));
        assert!(outcome.stats.commits > 0, "seed {seed:#x} did no work: {:?}", outcome.stats);
    }
}

/// ISSUE acceptance: a single u64 seed reproduces a campaign bit-for-bit.
#[test]
fn acceptance_single_seed_reproduces_bit_for_bit() {
    let a = CampaignSpec::from_seed(0xacce97).run();
    let b = CampaignSpec::from_seed(0xacce97).run();
    let (la, lb) = (a.canonical_lines(), b.canonical_lines());
    for (i, (x, y)) in la.iter().zip(lb.iter()).enumerate() {
        assert_eq!(x, y, "merged traces diverge at record {i}");
    }
    assert_eq!(la.len(), lb.len());
    assert_eq!(a.digest, b.digest);
}

fn parse_u64(v: &str) -> u64 {
    let v = v.trim();
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .unwrap_or_else(|_| panic!("{v} is not a u64"))
}

/// Bounded coverage-guided sweep through the [`SweepEngine`].
/// `SYSPLEX_SWEEP_MS` sets the time budget (default 2 s locally; CI runs
/// 60 s); `SYSPLEX_SWEEP_BASE_SEED` pins the engine's whole decision
/// stream (fresh wall-clock entropy otherwise); `SYSPLEX_SEED` replays
/// exactly one `from_seed` campaign instead. Every run prints its base
/// seed as a copy-pasteable replay line, so a CI failure is reproducible
/// from the log alone — and `run_checked` additionally prints the shrunk
/// spec of the specific failing campaign.
#[test]
fn randomized_sweep_within_budget() {
    if let Ok(v) = std::env::var("SYSPLEX_SEED") {
        let seed = parse_u64(&v);
        println!("replaying seed {seed:#x}");
        run_checked(CampaignSpec::from_seed(seed));
        return;
    }
    let budget_ms: u64 = std::env::var("SYSPLEX_SWEEP_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000);
    // The engine is fully deterministic given the base seed: the same
    // base replays the same spec stream (fresh draws and mutants alike)
    // until the budget cuts it off.
    let base_seed = std::env::var("SYSPLEX_SWEEP_BASE_SEED").map(|v| parse_u64(&v)).unwrap_or_else(|_| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    });
    println!(
        "sweep base seed {base_seed:#x}, budget {budget_ms} ms — replay with \
         SYSPLEX_SWEEP_BASE_SEED={base_seed:#x} SYSPLEX_SWEEP_MS={budget_ms} cargo test --test \
         campaigns randomized_sweep"
    );
    let mut engine = SweepEngine::new(SweepConfig::guided(base_seed));
    let deadline = Instant::now() + Duration::from_millis(budget_ms);
    while Instant::now() < deadline {
        let spec = engine.next_spec();
        let outcome = run_checked(spec.clone());
        engine.record(&spec, &CoverageMap::of(&outcome));
    }
    println!(
        "sweep: {} campaigns, all invariants held; {} distinct coverage bits, corpus {}",
        engine.campaigns(),
        engine.coverage().count(),
        engine.corpus().len()
    );
    assert!(engine.campaigns() > 0);
}

/// ISSUE §13 acceptance: growing the CF lock table online — mid-campaign,
/// under live lock traffic, twice, and once more right after a fatal
/// member stall — must neither lose nor duplicate any held or retained
/// lock (the oracle audits exclusivity and orphan records over the whole
/// merged trace) and must stay bit-for-bit replayable.
#[test]
fn online_lock_table_resize_under_live_traffic() {
    use parallel_sysplex::cf::trace::TraceEvent;

    let spec = CampaignSpec {
        name: "resize-under-load".into(),
        seed: 0x9e512e,
        members: 3,
        steps: 300,
        plan: FaultPlan::new()
            .at(60, Fault::LockTableGrow)
            .at(90, Fault::SystemStall { system: 2, steps: 120 })
            .at(220, Fault::LockTableGrow),
        duplex: false,
    };
    let a = run_checked(spec.clone());
    assert!(a.stats.resizes >= 1, "no resize applied: {:?}", a.stats);
    assert!(a.stats.commits > 20, "workload barely ran: {:?}", a.stats);
    let resizes = a
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::LockTableResize { from_entries, to_entries } => Some((from_entries, to_entries)),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(resizes.len() as u64, a.stats.resizes, "every resize traces exactly once");
    for (from, to) in &resizes {
        assert!(to > from, "resize must grow the table: {from} -> {to}");
    }

    let b = run_checked(spec);
    assert_eq!(a.digest, b.digest, "resize campaign must replay bit-for-bit");
    assert_eq!(a.stats, b.stats);
}

/// The coverage signal is as deterministic as the campaigns it observes:
/// one seed always hashes to the same map, different seeds to different
/// ones, and `merge`/`novel_bits` agree with `count`.
#[test]
fn coverage_map_is_deterministic_per_seed() {
    let a = CoverageMap::of(&CampaignSpec::from_seed(0xC0DE).run());
    let b = CoverageMap::of(&CampaignSpec::from_seed(0xC0DE).run());
    assert_eq!(a.digest(), b.digest(), "same seed must produce an identical coverage map");
    assert!(a.count() > 0, "a real campaign lights some coverage");

    let c = CoverageMap::of(&CampaignSpec::from_seed(0xD1CE).run());
    assert_ne!(a.digest(), c.digest(), "different seeds should light different coverage");

    let mut merged = CoverageMap::new();
    assert_eq!(merged.merge(&a), a.count());
    assert_eq!(merged.merge(&a), 0, "re-merging the same map adds nothing");
    let expected_novel = merged.novel_bits(&c);
    assert!(expected_novel > 0);
    assert_eq!(merged.merge(&c), expected_novel, "novel_bits must predict what merge admits");
}

/// Mutator soundness: every mutated plan round-trips through its printed
/// builder-chain form, and mutated specs — including the empty-plan and
/// max-length extremes — run without panicking.
#[test]
fn mutated_plans_round_trip_and_run() {
    let mut rng = SplitMix64::new(0x5EED_50DA);
    for i in 0..200 {
        let parent = CampaignSpec::from_seed(rng.next_u64());
        let donor = CampaignSpec::from_seed(rng.next_u64());
        let child = mutate_spec(&mut rng, &parent, Some(&donor));
        let printed = child.plan.to_string();
        let parsed = FaultPlan::parse(&printed)
            .unwrap_or_else(|e| panic!("round {i}: printed plan failed to parse ({e}): {printed}"));
        assert_eq!(parsed.to_string(), printed, "round {i}: Display/parse round trip");
        assert!(child.plan.len() <= MAX_FAULTS, "round {i}: mutation respects the fault cap");
    }

    // Shorter campaigns keep the property-run part of this test cheap;
    // the faults all land inside the reduced horizon anyway.
    let mut extremes = Vec::new();
    let mut empty = CampaignSpec::from_seed(0xE3);
    empty.steps = 150;
    empty.plan = FaultPlan::new();
    extremes.push(empty);
    let mut maxed = CampaignSpec::from_seed(0xE4);
    maxed.steps = 150;
    while maxed.plan.len() < MAX_FAULTS {
        maxed.plan = add_fault(&mut rng, &maxed.plan, 150, maxed.members);
    }
    extremes.push(maxed);
    for _ in 0..6 {
        let mut parent = CampaignSpec::from_seed(rng.next_u64());
        parent.steps = 150;
        let donor = extremes[0].clone();
        extremes.push(mutate_spec(&mut rng, &parent, Some(&donor)));
    }
    for spec in extremes {
        run_checked(spec);
    }
}

/// The record table is sharded; whole-table enumerations (`retained_locks`,
/// `records_snapshot`) merge across shards with an explicit sort. That
/// sort is what keeps seeded campaigns bit-for-bit reproducible — this
/// test pins it down directly at the structure level.
#[test]
fn sharded_record_merges_stay_sorted() {
    use parallel_sysplex::cf::hashing::ResourceName;
    use parallel_sysplex::cf::lock::{DisconnectMode, LockMode, LockParams, LockStructure};

    let s = LockStructure::new("SORTCHK", &LockParams::with_entries(256)).unwrap();
    let conn = s.connect().unwrap();
    // Insert in a permuted order so shard iteration alone can't produce
    // sorted output by accident.
    const N: usize = 200;
    for i in 0..N {
        let r = (i * 7919) % N;
        let name = ResourceName::new(format!("RES{r:05}").as_bytes());
        s.write_record_set(conn, &[(name, LockMode::Exclusive, r.to_le_bytes())]).unwrap();
    }
    let snap = s.records_snapshot();
    assert_eq!(snap.len(), N);
    for w in snap.windows(2) {
        assert!((&w[0].0, w[0].1) < (&w[1].0, w[1].1), "records_snapshot strictly sorted");
    }

    // Same property through the recovery path after a simulated failure.
    s.disconnect(conn, DisconnectMode::Abnormal).unwrap();
    let retained = s.retained_locks(conn);
    assert_eq!(retained.len(), N, "every record exactly once");
    for w in retained.windows(2) {
        assert!(w[0].resource < w[1].resource, "retained_locks strictly sorted");
    }
    for (i, lock) in retained.iter().enumerate() {
        assert_eq!(lock.resource, format!("RES{i:05}").into_bytes());
    }
}
