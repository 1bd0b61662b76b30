//! The deterministic campaign driver.
//!
//! A campaign builds a whole sysplex — Sysplex Timer, CFs, couple data
//! sets, heartbeat monitor, a data-sharing group, and a shared work queue
//! — on a **virtual** clock, then runs a seeded workload from a single
//! driver thread. Each scheduler step advances virtual time by 1 ms,
//! pulses the heartbeats of every live (non-stalled) system, applies any
//! faults the [`FaultPlan`] schedules for that step, and runs one
//! PRNG-chosen workload action. Because the driver is the only thread
//! initiating operations (CF commands — including async-converted ones —
//! complete before returning to the caller) and every timeout is measured
//! against the virtual timer, two runs with the same seed produce the
//! same merged trace, event for event.
//!
//! Failure choreography inside a campaign is the paper's: a stalled
//! system misses heartbeats, crosses the SFM failure threshold, is
//! fenced; the driver then crashes its data-sharing member and has the
//! lowest-numbered survivor run peer recovery and requeue the dead
//! consumer's claimed work. Structure loss triggers a rebuild into a
//! fresh CF (or a duplex failover), and a CDS primary failure
//! hot-switches the couple-data-set pair.

use crate::oracle::{self, OracleConfig, Violation};
use crate::plan::{Fault, FaultPlan};
use crate::rng::SplitMix64;
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::connection::LinkFault;
use sysplex_core::trace::{TraceEvent, TraceRecord};
use sysplex_core::{ConnId, SystemId};
use sysplex_dasd::volume::{IoModel, Volume};
use sysplex_db::database::{Database, Txn};
use sysplex_db::group::{DataSharingGroup, GroupConfig};
use sysplex_services::heartbeat::HeartbeatConfig;
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::system::SystemConfig;
use sysplex_services::timer::SysplexTimer;
use sysplex_subsys::workq::{queue_params, SharedQueue};

/// Scheduler step length in virtual microseconds.
const STEP_US: u64 = 1_000;
/// Heartbeat sweep cadence, in steps.
const SWEEP_EVERY: u64 = 3;
/// SFM failure threshold, in steps. Stalls well past this fence; stalls
/// well short of it must not. Single workload actions may burn tens of
/// virtual milliseconds in lock-wait parking, so the threshold leaves
/// ample slack above the worst single action.
pub const FENCE_THRESHOLD_STEPS: u64 = 60;
/// Record keys the workload hammers.
const KEYS: u64 = 16;

/// A fully-specified campaign: everything needed to reproduce a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (test / report labelling).
    pub name: String,
    /// Seed driving every scheduling decision.
    pub seed: u64,
    /// Number of systems IPLed into the sysplex.
    pub members: u8,
    /// Scheduler steps to run.
    pub steps: u64,
    /// Scheduled faults.
    pub plan: FaultPlan,
    /// Enable CF structure duplexing at start (structure loss then
    /// exercises failover instead of rebuild).
    pub duplex: bool,
}

impl CampaignSpec {
    /// Derive a whole campaign — topology, duplexing, fault schedule —
    /// from a single seed. This is the replayable unit: publishing the
    /// seed publishes the campaign.
    pub fn from_seed(seed: u64) -> CampaignSpec {
        let mut rng = SplitMix64::new(seed);
        let members = 2 + rng.below(3) as u8;
        let steps = 400;
        let duplex = rng.chance(1, 4);
        let plan = FaultPlan::random(&mut rng, steps, members);
        CampaignSpec { name: format!("seed-{seed:#x}"), seed, members, steps, plan, duplex }
    }

    /// A fault-free baseline campaign.
    pub fn baseline(seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: format!("baseline-{seed:#x}"),
            seed,
            members: 3,
            steps: 300,
            plan: FaultPlan::new(),
            duplex: false,
        }
    }

    /// One-line reproduction recipe for a failing campaign.
    pub fn repro(&self) -> String {
        format!(
            "CampaignSpec {{ name: {:?}.into(), seed: {:#x}, members: {}, steps: {}, plan: {}, \
             duplex: {} }}.run()",
            self.name, self.seed, self.members, self.steps, self.plan, self.duplex
        )
    }

    /// Run the campaign to completion and check every oracle invariant.
    pub fn run(&self) -> CampaignOutcome {
        Driver::new(self).run()
    }

    /// One-line wire encoding for the sweep worker pipe and corpus files:
    /// `name;seed;members;steps;duplex;plan-display`. Names must not
    /// contain `;` (the engine's generated names never do).
    pub fn to_wire(&self) -> String {
        debug_assert!(!self.name.contains(';'), "spec names must not contain ';'");
        format!(
            "{};{:#x};{};{};{};{}",
            self.name, self.seed, self.members, self.steps, self.duplex, self.plan
        )
    }

    /// Decode [`CampaignSpec::to_wire`] output.
    pub fn from_wire(s: &str) -> Result<CampaignSpec, String> {
        let mut parts = s.trim().splitn(6, ';');
        let mut next = |what: &str| parts.next().ok_or_else(|| format!("spec line missing {what}"));
        let name = next("name")?.to_string();
        let seed_s = next("seed")?;
        let seed = seed_s
            .strip_prefix("0x")
            .ok_or_else(|| format!("seed {seed_s:?} missing 0x"))
            .and_then(|h| u64::from_str_radix(h, 16).map_err(|e| format!("bad seed {seed_s:?}: {e}")))?;
        let members: u8 = next("members")?.parse().map_err(|e| format!("bad members: {e}"))?;
        let steps: u64 = next("steps")?.parse().map_err(|e| format!("bad steps: {e}"))?;
        let duplex: bool = next("duplex")?.parse().map_err(|e| format!("bad duplex: {e}"))?;
        let plan = FaultPlan::parse(next("plan")?)?;
        if members < 2 {
            return Err(format!("campaigns need at least two systems, got {members}"));
        }
        Ok(CampaignSpec { name, seed, members, steps, plan, duplex })
    }
}

/// Counts of what a campaign actually exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (lock timeouts, injected faults).
    pub aborts: u64,
    /// Work items enqueued.
    pub enqueues: u64,
    /// Work items claimed.
    pub claims: u64,
    /// Systems fenced by the heartbeat monitor.
    pub fences: u64,
    /// Peer recoveries completed.
    pub recoveries: u64,
    /// Structure rebuilds into a fresh CF.
    pub rebuilds: u64,
    /// Duplex failovers.
    pub failovers: u64,
    /// Couple-data-set hot switches.
    pub cds_switches: u64,
    /// Online lock-table resizes (adaptive-growth fault).
    pub resizes: u64,
    /// Faults actually applied.
    pub faults_applied: u64,
}

/// Everything a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The spec that ran (for repro printing).
    pub spec: CampaignSpec,
    /// Oracle violations (empty = the run upheld every invariant).
    pub violations: Vec<Violation>,
    /// The causally-ordered merged trace.
    pub records: Vec<TraceRecord>,
    /// Digest of the canonical trace (see [`CampaignOutcome::canonical_lines`]).
    pub digest: u64,
    /// Activity counters.
    pub stats: CampaignStats,
}

impl CampaignOutcome {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The canonical (replay-comparable) rendering of the merged trace:
    /// one line per record, with the single wall-clock-dependent payload
    /// (`CmdCompleted::latency_ns`) masked so bit-for-bit comparison is
    /// meaningful across runs.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.records.iter().map(canonical_line).collect()
    }
}

fn canonical_line(r: &TraceRecord) -> String {
    let event = match r.event {
        TraceEvent::CmdCompleted { class, converted_async, .. } => {
            TraceEvent::CmdCompleted { class, converted_async, latency_ns: 0 }
        }
        e => e,
    };
    format!("seq={} tod={} sys={} structure={} {:?}", r.seq, r.tod_us, r.system, r.structure, event)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Member {
    id: SystemId,
    db: Arc<Database>,
    queue: SharedQueue,
    queue_slot: ConnId,
    live: bool,
    /// Steps of stall remaining (0 = pulsing normally).
    stalled_for: u32,
    /// Transaction deliberately left open across a stall, so a fence
    /// leaves retained locks for peer recovery to release.
    open_txn: Option<Txn>,
}

struct Driver<'a> {
    spec: &'a CampaignSpec,
    timer: Arc<SysplexTimer>,
    plex: Arc<Sysplex>,
    group: Arc<DataSharingGroup>,
    members: Vec<Member>,
    rng: SplitMix64,
    stats: CampaignStats,
    /// Monotonic name counter for replacement CFs / CDS volumes.
    next_name: u32,
    /// Name of the CF currently hosting the group's lock structure —
    /// resizes must allocate the grown table on the same facility.
    lock_cf: String,
}

impl<'a> Driver<'a> {
    fn new(spec: &'a CampaignSpec) -> Driver<'a> {
        assert!(spec.members >= 2, "campaigns need at least two systems");
        let timer = SysplexTimer::new_virtual();
        let mut config = SysplexConfig::functional("HARNESS");
        config.heartbeat = HeartbeatConfig {
            interval: Duration::from_micros(2 * STEP_US),
            failure_threshold: Duration::from_micros(FENCE_THRESHOLD_STEPS * STEP_US),
            auto_failure: true,
        };
        let plex = Sysplex::with_timer(config, Arc::clone(&timer));
        plex.tracer.enable_with_capacity(1 << 15);
        let cf = plex.add_cf("CF01");

        let mut gc = GroupConfig::default();
        // Short lock timeout: a blocked transaction burns bounded virtual
        // time (1 ms per retry) before timing out.
        gc.db.lock_timeout = Duration::from_millis(5);
        let group = DataSharingGroup::new(gc, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone())
            .expect("group allocation");
        let queue_list =
            cf.allocate_list_structure("HARNESS_WORKQ", queue_params()).expect("work queue allocation");

        let mut members = Vec::new();
        for i in 0..spec.members {
            let id = SystemId::new(i);
            plex.ipl(SystemConfig::cmos(id, 1));
            let db = group.add_member(id).expect("member join");
            let queue =
                SharedQueue::open(&queue_list, cf.subchannel().with_system(id)).expect("queue attach");
            let queue_slot = queue.slot();
            members.push(Member { id, db, queue, queue_slot, live: true, stalled_for: 0, open_txn: None });
        }
        if spec.duplex {
            let cf2 = plex.add_cf("CF02");
            group.enable_duplexing(&cf2).expect("duplex establish");
        }
        Driver {
            spec,
            timer,
            plex,
            group,
            members,
            rng: SplitMix64::new(spec.seed ^ 0xA5A5_A5A5_5A5A_5A5A),
            stats: CampaignStats::default(),
            next_name: 3,
            lock_cf: "CF01".to_string(),
        }
    }

    fn run(mut self) -> CampaignOutcome {
        for step in 0..self.spec.steps {
            self.timer.advance(Duration::from_micros(STEP_US));
            let faults: Vec<Fault> = self.spec.plan.at_step(step).collect();
            for fault in faults {
                self.apply_fault(fault);
            }
            self.pulse();
            if step % SWEEP_EVERY == 0 {
                self.sweep();
            }
            self.workload_action();
        }
        self.wind_down();
        self.verdict()
    }

    // ----- per-step machinery -----

    /// Heartbeat every live, non-stalled system; tick stall counters and
    /// commit the held-open transaction of a stall that ends short of the
    /// failure threshold (a near-miss: the system resumes unharmed).
    fn pulse(&mut self) {
        for m in &mut self.members {
            if !m.live {
                continue;
            }
            if m.stalled_for > 0 {
                m.stalled_for -= 1;
                if m.stalled_for == 0 {
                    if let Some(mut txn) = m.open_txn.take() {
                        match m.db.commit(&mut txn) {
                            Ok(()) => self.stats.commits += 1,
                            Err(_) => self.stats.aborts += 1,
                        }
                    }
                }
                continue;
            }
            let _ = self.plex.heartbeat.pulse(m.id);
        }
    }

    /// One SFM sweep; newly fenced systems get the full §2.5 treatment:
    /// crash the member, peer-recover its retained locks on the lowest
    /// live survivor, requeue its claimed work items.
    fn sweep(&mut self) {
        for id in self.plex.heartbeat.check_once() {
            self.stats.fences += 1;
            let Some(idx) = self.members.iter().position(|m| m.id == id) else { continue };
            self.members[idx].live = false;
            self.members[idx].stalled_for = 0;
            // The open transaction dies with the system; its locks are now
            // retained in the CF.
            drop(self.members[idx].open_txn.take());
            let dead_slot = self.members[idx].queue_slot;
            let failed = self.group.crash_member(id);
            let Some(survivor) = self.members.iter().find(|m| m.live) else { continue };
            if let Some(failed) = failed {
                if self.group.recover_on(survivor.id, &failed).is_ok() {
                    self.stats.recoveries += 1;
                }
            }
            let _ = survivor.queue.requeue_orphans(dead_slot);
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::LinkDelayUs(us) => {
                if let Some(cf) = self.plex.cf("CF01") {
                    cf.inject_fault(LinkFault::Delay(Duration::from_micros(us)));
                    self.stats.faults_applied += 1;
                }
            }
            Fault::LinkTimeout => {
                if let Some(cf) = self.plex.cf("CF01") {
                    cf.inject_fault(LinkFault::Timeout);
                    self.stats.faults_applied += 1;
                }
            }
            Fault::InterfaceControlCheck => {
                if let Some(cf) = self.plex.cf("CF01") {
                    cf.inject_fault(LinkFault::InterfaceControlCheck);
                    self.stats.faults_applied += 1;
                }
            }
            Fault::SystemStall { system, steps } => {
                let live_unstalled = self.members.iter().filter(|m| m.live && m.stalled_for == 0).count();
                if let Some(m) =
                    self.members.iter_mut().find(|m| m.id.0 == system && m.live && m.stalled_for == 0)
                {
                    // Never stall the last two healthy systems: recovery
                    // needs a coordinator and the workload needs a member.
                    if live_unstalled <= 2 {
                        return;
                    }
                    // Leave a transaction open across the stall so a fence
                    // retains locks for peer recovery to clean up.
                    let mut txn = m.db.begin();
                    let key = 1_000 + system as u64;
                    if m.db.write(&mut txn, key, Some(b"stall-holdout")).is_ok() {
                        m.open_txn = Some(txn);
                    } else {
                        let _ = m.db.abort(&mut txn);
                    }
                    m.stalled_for = steps;
                    self.stats.faults_applied += 1;
                }
            }
            Fault::StructureLoss => {
                if self.group.is_duplexed() {
                    if self.group.cf_failover().is_ok() {
                        self.stats.failovers += 1;
                        self.stats.faults_applied += 1;
                        // The duplexed secondaries were established on CF02
                        // at IPL; promotion moves the lock structure there.
                        self.lock_cf = "CF02".to_string();
                    }
                } else {
                    let name = format!("CF{:02}", self.next_name);
                    self.next_name += 1;
                    let fresh = self.plex.add_cf(&name);
                    if self.group.rebuild_into(&fresh).is_ok() {
                        self.stats.rebuilds += 1;
                        self.stats.faults_applied += 1;
                        self.lock_cf = name;
                    }
                }
            }
            Fault::LockTableGrow => {
                // Double the table on its hosting CF, capped so a mutation
                // lineage stacking grows cannot balloon the allocation.
                let new_entries = (self.group.lock_entries() * 2).min(1 << 16);
                if new_entries > self.group.lock_entries() {
                    if let Some(cf) = self.plex.cf(&self.lock_cf) {
                        // Fails (harmlessly) while a fenced member's state
                        // is still failed-persistent: rebuild requires the
                        // group be recovered first.
                        if self.group.resize_lock_table(&cf, new_entries).is_ok() {
                            self.stats.resizes += 1;
                            self.stats.faults_applied += 1;
                        }
                    }
                }
            }
            Fault::CdsPrimaryFailure => {
                if self.plex.cds.pair().hot_switch().is_ok() {
                    self.stats.cds_switches += 1;
                    self.stats.faults_applied += 1;
                    let name = format!("CDS{:02}", self.next_name);
                    self.next_name += 1;
                    let fresh = Arc::new(Volume::new(&name, 1024, IoModel::instant()));
                    let _ = self.plex.cds.pair().replace_alternate(fresh);
                }
            }
        }
    }

    /// One PRNG-chosen workload action on a PRNG-chosen healthy member.
    fn workload_action(&mut self) {
        let healthy: Vec<usize> = (0..self.members.len())
            .filter(|&i| self.members[i].live && self.members[i].stalled_for == 0)
            .collect();
        if healthy.is_empty() {
            return;
        }
        let m = healthy[self.rng.below(healthy.len() as u64) as usize];
        let action = self.rng.below(100);
        match action {
            // Update transaction: 1-2 writes, then commit.
            0..=44 => {
                let key = self.rng.below(KEYS);
                let value = self.rng.next_u64().to_be_bytes();
                let db = Arc::clone(&self.members[m].db);
                let mut txn = db.begin();
                let mut ok = db.write(&mut txn, key, Some(&value)).is_ok();
                if ok && self.rng.chance(1, 3) {
                    let key2 = self.rng.below(KEYS);
                    ok = db.write(&mut txn, key2, Some(&value)).is_ok();
                }
                if !ok {
                    // The failed write left the txn open; abort releases
                    // its locks. A failed commit cleans up after itself.
                    let _ = db.abort(&mut txn);
                    self.stats.aborts += 1;
                } else if db.commit(&mut txn).is_ok() {
                    self.stats.commits += 1;
                } else {
                    self.stats.aborts += 1;
                }
            }
            // Read transaction.
            45..=59 => {
                let key = self.rng.below(KEYS);
                let db = Arc::clone(&self.members[m].db);
                let mut txn = db.begin();
                if db.read(&mut txn, key).is_err() {
                    let _ = db.abort(&mut txn);
                    self.stats.aborts += 1;
                } else if db.commit(&mut txn).is_ok() {
                    self.stats.commits += 1;
                } else {
                    self.stats.aborts += 1;
                }
            }
            // Enqueue a work item.
            60..=71 => {
                let priority = self.rng.below(8);
                let payload = self.rng.next_u64().to_be_bytes();
                if self.members[m].queue.put(priority, &payload).is_ok() {
                    self.stats.enqueues += 1;
                }
            }
            // Claim (and immediately complete) a work item.
            72..=83 => {
                if let Ok(Some(item)) = self.members[m].queue.take() {
                    self.stats.claims += 1;
                    let _ = self.members[m].queue.complete(&item);
                }
            }
            // Castout sweep.
            84..=89 => {
                let _ = self.members[m].db.buffers().castout(8);
            }
            // Idle step.
            _ => {}
        }
    }

    /// Quiesce: end open transactions, run a final sweep, drain the work
    /// queue, cast out, and let the structures settle for the oracle.
    fn wind_down(&mut self) {
        // Let any in-progress stall either expire or cross the threshold.
        for _ in 0..(FENCE_THRESHOLD_STEPS + 2 * SWEEP_EVERY) {
            self.timer.advance(Duration::from_micros(STEP_US));
            self.pulse();
            self.sweep();
        }
        for m in &mut self.members {
            if let Some(mut txn) = m.open_txn.take() {
                if m.live {
                    match m.db.commit(&mut txn) {
                        Ok(()) => self.stats.commits += 1,
                        Err(_) => self.stats.aborts += 1,
                    }
                }
            }
        }
        // Drain ready work so every enqueued entry ends up claimed. Link
        // faults scheduled near the end of the run can still be armed on
        // the queue's CF (after a rebuild migrates the lock/cache traffic
        // away, nothing else consumes them); each is one-shot, so a
        // bounded retry — a real consumer's answer to a timed-out claim —
        // rides them out instead of abandoning the backlog. Found by the
        // coverage-guided sweep, seed 0x15792635cdd1887b.
        if let Some(coordinator) = self.members.iter().find(|m| m.live) {
            let mut retries = crate::mutate::MAX_FAULTS + 2;
            loop {
                match coordinator.queue.take() {
                    Ok(Some(item)) => {
                        self.stats.claims += 1;
                        let _ = coordinator.queue.complete(&item);
                    }
                    Ok(None) => break,
                    Err(_) if retries > 0 => retries -= 1,
                    Err(_) => break,
                }
            }
            let _ = coordinator.db.buffers().castout(usize::MAX >> 1);
        }
    }

    fn verdict(self) -> CampaignOutcome {
        let records = self.plex.tracer.snapshot_all();
        let mut violations =
            oracle::check_trace(&records, OracleConfig { ready_header: 0, expect_drained: true });
        violations.extend(oracle::check_rings(&self.plex.tracer));
        violations.extend(oracle::check_lock_structure(&self.group.lock_structure()));
        let mut digest_input = Vec::new();
        for r in &records {
            digest_input.extend_from_slice(canonical_line(r).as_bytes());
            digest_input.push(b'\n');
        }
        let digest = fnv1a64(&digest_input);
        // Planned teardown keeps Drop-order sanitizers happy.
        for m in &self.members {
            if m.live {
                self.plex.remove_planned(m.id);
            }
        }
        CampaignOutcome { spec: self.spec.clone(), violations, records, digest, stats: self.stats }
    }
}

// ---------------------------------------------------------------------------
// Coverage-guided sweep engine
// ---------------------------------------------------------------------------

/// Knobs for a [`SweepEngine`].
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Seed of the engine's own decision stream (spec generation, corpus
    /// picks, mutation draws). Publishing it makes the whole sweep
    /// replayable, not just individual campaigns.
    pub base_seed: u64,
    /// Corpus capacity; the lowest-yield entry is evicted past this.
    pub corpus_cap: usize,
    /// `1/fresh_every` of generated specs are fresh `from_seed` draws
    /// even when the corpus is hot, so mutation lineages never fully
    /// starve exploration. `1` disables guidance entirely (pure random
    /// sampling — the control arm the bench compares against).
    pub fresh_every: u64,
}

impl SweepConfig {
    /// Coverage-guided defaults.
    pub fn guided(base_seed: u64) -> SweepConfig {
        SweepConfig { base_seed, corpus_cap: 64, fresh_every: 4 }
    }

    /// Pure-random control: every spec is a fresh seed, coverage is still
    /// tracked (for the distinct-bits comparison) but never steers.
    pub fn random(base_seed: u64) -> SweepConfig {
        SweepConfig { base_seed, corpus_cap: 64, fresh_every: 1 }
    }
}

/// A corpus entry: a spec that discovered coverage nobody else had.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The interesting spec.
    pub spec: CampaignSpec,
    /// Bits this campaign was first to set (its mutation energy).
    pub novel_bits: usize,
    /// Children mutated from it so far (energy decays with use).
    pub children: u32,
}

impl CorpusEntry {
    /// Mutation-pick weight: high-yield entries breed more, but every
    /// child bred halves the appetite so a one-hit wonder cannot
    /// monopolize the sweep.
    fn energy(&self) -> u64 {
        ((self.novel_bits as u64) / (1 + self.children as u64)).max(1)
    }
}

/// The coverage-guided campaign scheduler.
///
/// The engine is single-threaded bookkeeping; parallelism comes from
/// running the specs it hands out wherever the caller likes — inline (the
/// root `campaigns.rs` sweep), or across worker processes pulling specs
/// on demand (the `campaign_sweep` example, one worker per core). Each
/// result is fed back via [`SweepEngine::record`]; specs whose coverage
/// contained novel bits join the corpus and future specs are biased
/// toward mutating them.
#[derive(Debug)]
pub struct SweepEngine {
    config: SweepConfig,
    rng: SplitMix64,
    global: crate::coverage::CoverageMap,
    corpus: Vec<CorpusEntry>,
    campaigns: u64,
}

impl SweepEngine {
    /// A fresh engine.
    pub fn new(config: SweepConfig) -> SweepEngine {
        assert!(config.fresh_every >= 1, "fresh_every is a chance denominator");
        assert!(config.corpus_cap >= 1);
        SweepEngine {
            rng: SplitMix64::new(config.base_seed ^ 0x5EED_E261_E000_0000),
            config,
            global: crate::coverage::CoverageMap::new(),
            corpus: Vec::new(),
            campaigns: 0,
        }
    }

    /// The next spec to run: a mutation of an energy-weighted corpus pick,
    /// or a fresh seeded draw when the corpus is dry (or the exploration
    /// coin says so).
    pub fn next_spec(&mut self) -> CampaignSpec {
        if self.corpus.is_empty() || self.rng.chance(1, self.config.fresh_every) {
            return CampaignSpec::from_seed(self.rng.next_u64());
        }
        let total: u64 = self.corpus.iter().map(CorpusEntry::energy).sum();
        let mut pick = self.rng.below(total);
        let mut idx = self.corpus.len() - 1;
        for (i, entry) in self.corpus.iter().enumerate() {
            let e = entry.energy();
            if pick < e {
                idx = i;
                break;
            }
            pick -= e;
        }
        let donor_idx = self.rng.below(self.corpus.len() as u64) as usize;
        self.corpus[idx].children += 1;
        let parent = self.corpus[idx].spec.clone();
        let donor = if donor_idx != idx { Some(self.corpus[donor_idx].spec.clone()) } else { None };
        crate::mutate::mutate_spec(&mut self.rng, &parent, donor.as_ref())
    }

    /// Feed back one campaign's coverage. Returns the number of novel bits
    /// it contributed; any novelty admits the spec to the corpus.
    pub fn record(&mut self, spec: &CampaignSpec, coverage: &crate::coverage::CoverageMap) -> usize {
        self.campaigns += 1;
        let novel = self.global.merge(coverage);
        if novel > 0 {
            self.corpus.push(CorpusEntry { spec: spec.clone(), novel_bits: novel, children: 0 });
            if self.corpus.len() > self.config.corpus_cap {
                let evict = self
                    .corpus
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.energy())
                    .map(|(i, _)| i)
                    .expect("corpus non-empty");
                self.corpus.remove(evict);
            }
        }
        novel
    }

    /// Distinct coverage accumulated across every recorded campaign.
    pub fn coverage(&self) -> &crate::coverage::CoverageMap {
        &self.global
    }

    /// The current corpus, in admission order.
    pub fn corpus(&self) -> &[CorpusEntry] {
        &self.corpus
    }

    /// Campaigns recorded so far.
    pub fn campaigns(&self) -> u64 {
        self.campaigns
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }
}

// ---------------------------------------------------------------------------
// The campaign-throughput report (`BENCH_campaign_throughput.json`): the
// `campaign_sweep` example runs a pure-random sweep and a coverage-guided
// one over the same budget and records them side by side, so "guided beats
// random on distinct bits" is a tracked number. Hand-rolled JSON (the
// workspace carries no serde).
// ---------------------------------------------------------------------------

/// One sampled point of a sweep's distinct-coverage curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvePoint {
    /// Milliseconds since the sweep started.
    pub t_ms: u64,
    /// Distinct coverage bits accumulated by then.
    pub bits: u64,
}

/// The outcome of one sweep mode (random control or coverage-guided).
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// `"random"` or `"guided"`.
    pub mode: &'static str,
    /// Engine base seed (publishes the sweep's decision stream).
    pub base_seed: u64,
    /// Campaigns completed inside the budget.
    pub campaigns: u64,
    /// Wall time actually spent, milliseconds.
    pub elapsed_ms: u64,
    /// Distinct coverage bits at the end of the sweep.
    pub coverage_bits: u64,
    /// Corpus entries alive at the end (the random control admits entries
    /// too — it just never draws from them).
    pub corpus_size: usize,
    /// Invariant-violating campaigns found (each printed with a shrunk
    /// repro by the example; any non-zero fails CI).
    pub violations: u64,
    /// Distinct-coverage-over-time curve, monotone non-decreasing.
    pub curve: Vec<CurvePoint>,
}

impl ModeResult {
    /// Verification throughput.
    pub fn campaigns_per_s(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.campaigns as f64 / (self.elapsed_ms as f64 / 1_000.0)
        }
    }
}

/// The full report written to `BENCH_campaign_throughput.json`.
#[derive(Debug, Clone)]
pub struct CampaignThroughputReport {
    /// Hardware threads on the host.
    pub hw_threads: usize,
    /// Campaign transport — always `"in-process"` (the deterministic
    /// harness never leaves the worker process; parallelism is one worker
    /// process per core).
    pub transport: &'static str,
    /// Worker processes per sweep.
    pub workers: usize,
    /// Per-mode time budget, seconds.
    pub budget_s: u64,
    /// Both sweep modes, random control first.
    pub modes: Vec<ModeResult>,
}

impl CampaignThroughputReport {
    /// `guided coverage_bits - random coverage_bits` (negative when the
    /// control won — a regression in the guidance itself).
    pub fn guided_advantage_bits(&self) -> i64 {
        let bits = |mode: &str| {
            self.modes.iter().find(|m| m.mode == mode).map(|m| m.coverage_bits as i64).unwrap_or(0)
        };
        bits("guided") - bits("random")
    }

    /// Render the schema-stable JSON consumed by the CI `campaign-sweep`
    /// job (see DESIGN.md §12 for the schema contract).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"campaign_throughput\",\n");
        out.push_str(&format!("  \"schema_version\": {},\n", sysplex_services::SCHEMA_VERSION));
        out.push_str(&format!("  \"hw_threads\": {},\n", self.hw_threads));
        out.push_str(&format!("  \"transport\": \"{}\",\n", self.transport));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"budget_s\": {},\n", self.budget_s));
        out.push_str(&format!("  \"guided_advantage_bits\": {},\n", self.guided_advantage_bits()));
        out.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"base_seed\": \"{:#x}\", \"campaigns\": {}, \
                 \"elapsed_ms\": {}, \"campaigns_per_s\": {:.2}, \"coverage_bits\": {}, \
                 \"corpus_size\": {}, \"violations\": {}, \"coverage_curve\": [",
                m.mode,
                m.base_seed,
                m.campaigns,
                m.elapsed_ms,
                m.campaigns_per_s(),
                m.coverage_bits,
                m.corpus_size,
                m.violations,
            ));
            for (j, p) in m.curve.iter().enumerate() {
                out.push_str(&format!(
                    "{}{{\"t_ms\": {}, \"bits\": {}}}",
                    if j == 0 { "" } else { ", " },
                    p.t_ms,
                    p.bits
                ));
            }
            out.push_str(&format!("]}}{}\n", if i + 1 == self.modes.len() { "" } else { "," }));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable table printed alongside the JSON.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "CAMPAIGN SWEEP — {} worker process(es), {} s/mode, {} hardware threads\n",
            self.workers, self.budget_s, self.hw_threads
        ));
        out.push_str(&format!(
            "{:<8} {:>10} {:>12} {:>14} {:>12} {:>11}\n",
            "mode", "campaigns", "campaigns/s", "coverage bits", "corpus", "violations"
        ));
        for m in &self.modes {
            out.push_str(&format!(
                "{:<8} {:>10} {:>12.1} {:>14} {:>12} {:>11}\n",
                m.mode,
                m.campaigns,
                m.campaigns_per_s(),
                m.coverage_bits,
                m.corpus_size,
                m.violations
            ));
        }
        out.push_str(&format!("guided advantage: {:+} distinct bits\n", self.guided_advantage_bits()));
        out
    }
}

/// Thin a raw curve down to at most `max_points` samples, always keeping
/// the first and last so the plotted span is exact.
pub fn downsample_curve(curve: &[CurvePoint], max_points: usize) -> Vec<CurvePoint> {
    let max_points = max_points.max(2);
    if curve.len() <= max_points {
        return curve.to_vec();
    }
    let mut out = Vec::with_capacity(max_points);
    let step = (curve.len() - 1) as f64 / (max_points - 1) as f64;
    for i in 0..max_points {
        out.push(curve[(i as f64 * step).round() as usize]);
    }
    *out.last_mut().expect("non-empty") = *curve.last().expect("non-empty");
    out
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::coverage::CoverageMap;

    #[test]
    fn spec_wire_round_trips() {
        let spec = CampaignSpec::from_seed(0xFACE);
        assert_eq!(CampaignSpec::from_wire(&spec.to_wire()), Ok(spec));
        let mutant = crate::mutate::mutate_spec(
            &mut SplitMix64::new(5),
            &CampaignSpec::from_seed(0xFACE),
            Some(&CampaignSpec::from_seed(0xCAFE)),
        );
        assert_eq!(CampaignSpec::from_wire(&mutant.to_wire()), Ok(mutant));
        assert!(CampaignSpec::from_wire("x;0x1;1;100;false;FaultPlan::new()").is_err(), "members >= 2");
        assert!(CampaignSpec::from_wire("nonsense").is_err());
    }

    #[test]
    fn engine_spec_stream_is_deterministic() {
        let run = |base: u64| {
            let mut engine = SweepEngine::new(SweepConfig::guided(base));
            let mut specs = Vec::new();
            for i in 0..8u64 {
                let spec = engine.next_spec();
                // Synthetic coverage: every third campaign finds novelty.
                let mut cov = CoverageMap::new();
                cov.set(100 + (i % 3) as usize * 7 + i as usize);
                engine.record(&spec, &cov);
                specs.push(spec.to_wire());
            }
            specs
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn novelty_admits_to_corpus_and_duplicates_do_not() {
        let mut engine = SweepEngine::new(SweepConfig::guided(7));
        let spec = engine.next_spec();
        let mut cov = CoverageMap::new();
        cov.set(500);
        assert_eq!(engine.record(&spec, &cov), 1);
        assert_eq!(engine.corpus().len(), 1);
        // Same coverage again: no novelty, no admission.
        assert_eq!(engine.record(&spec, &cov), 0);
        assert_eq!(engine.corpus().len(), 1);
        assert_eq!(engine.campaigns(), 2);
        assert_eq!(engine.coverage().count(), 1);
    }

    #[test]
    fn corpus_eviction_respects_cap() {
        let mut engine =
            SweepEngine::new(SweepConfig { base_seed: 1, corpus_cap: 4, fresh_every: 1_000_000 });
        for i in 0..20usize {
            let spec = engine.next_spec();
            let mut cov = CoverageMap::new();
            cov.set(1000 + i);
            engine.record(&spec, &cov);
            assert!(engine.corpus().len() <= 4);
        }
        assert_eq!(engine.corpus().len(), 4);
        assert_eq!(engine.coverage().count(), 20, "eviction never loses global coverage");
    }

    #[test]
    fn random_config_never_draws_from_corpus() {
        let mut engine = SweepEngine::new(SweepConfig::random(9));
        for i in 0..30usize {
            let spec = engine.next_spec();
            assert!(spec.name.starts_with("seed-"), "pure-random mode mutates nothing, got {}", spec.name);
            let mut cov = CoverageMap::new();
            cov.set(2000 + i);
            engine.record(&spec, &cov);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode(mode: &'static str, bits: u64) -> ModeResult {
        ModeResult {
            mode,
            base_seed: 0x5EED,
            campaigns: 120,
            elapsed_ms: 10_000,
            coverage_bits: bits,
            corpus_size: if mode == "guided" { 17 } else { 0 },
            violations: 0,
            curve: vec![CurvePoint { t_ms: 5, bits: bits / 2 }, CurvePoint { t_ms: 9_000, bits }],
        }
    }

    #[test]
    fn report_json_has_schema_keys_and_advantage() {
        let report = CampaignThroughputReport {
            hw_threads: 4,
            transport: "in-process",
            workers: 4,
            budget_s: 10,
            modes: vec![mode("random", 900), mode("guided", 1100)],
        };
        assert_eq!(report.guided_advantage_bits(), 200);
        let json = report.to_json();
        for key in [
            "\"report\": \"campaign_throughput\"",
            "\"schema_version\": 2",
            "\"hw_threads\": 4",
            "\"transport\": \"in-process\"",
            "\"workers\": 4",
            "\"budget_s\": 10",
            "\"guided_advantage_bits\": 200",
            "\"mode\": \"random\"",
            "\"mode\": \"guided\"",
            "\"base_seed\": \"0x5eed\"",
            "\"campaigns_per_s\": 12.00",
            "\"coverage_bits\": 1100",
            "\"corpus_size\": 17",
            "\"violations\": 0",
            "\"coverage_curve\": [{\"t_ms\": 5,",
        ] {
            assert!(json.contains(key), "JSON missing {key}: {json}");
        }
        assert!(!json.contains("NaN"));
        assert!(report.render_table().contains("guided advantage: +200"));
    }

    #[test]
    fn downsample_keeps_endpoints_and_monotonicity() {
        let raw: Vec<CurvePoint> = (0..1000).map(|i| CurvePoint { t_ms: i, bits: 100 + i / 3 }).collect();
        let thin = downsample_curve(&raw, 64);
        assert_eq!(thin.len(), 64);
        assert_eq!(thin[0], raw[0]);
        assert_eq!(*thin.last().unwrap(), *raw.last().unwrap());
        for w in thin.windows(2) {
            assert!(w[1].bits >= w[0].bits && w[1].t_ms >= w[0].t_ms);
        }
        assert_eq!(downsample_curve(&raw[..2], 64), raw[..2].to_vec());
    }
}
