//! Composed operations-day campaigns over real TCP.
//!
//! Where [`crate::campaign`] drives a virtual-clock sysplex from a
//! single thread, these campaigns run the **wire stack for real**:
//! member threads connect to a live [`SysplexServer`] over loopback TCP
//! (optionally through a per-member [`ChaosProxy`]) and drive
//! debit-credit traffic — lock, cache write, history enqueue, release —
//! while the coordinator composes operational misfortune on top:
//!
//! * [`rolling_restart`] — each member in turn departs cleanly and
//!   re-IPLs while the others keep committing. Capacity (systems with an
//!   `Active` heartbeat) must never drop below N−1.
//! * [`partition_heal`] — one member's link is partitioned until SFM
//!   fences it; the heal re-admits a fresh incarnation while the other
//!   members ride out seeded wire noise. Measures time-to-fence and
//!   time-to-readmit.
//! * [`restart_storm`] — two members crash at once (no goodbye, no
//!   detach); after SFM fences both, an ARM-style signal restarts them
//!   together and each recovers its own failed-persistent lock slot.
//!
//! Every scenario is named and seeded: the chaos plans, retry jitter,
//! and transaction streams all derive from one `u64`, and the plans are
//! recorded as copy-pasteable builder chains in the outcome. A
//! transaction whose commit went unacknowledged is retried by the next
//! incarnation and may land twice, so transaction keys are unique
//! (`system << 32 | seq`) and the verdict reconciles by key: an acked
//! transaction missing from the history structure is **lost** (must be
//! zero), an extra history entry for a key is a **duplicate** (allowed,
//! counted). The merged component trace must pass the oracle's
//! lock-exclusivity and accounting invariants, and the lock structure
//! must hold no orphan records once every incarnation's recovery has
//! run.

use crate::chaos::{ChaosPlan, ChaosProxy};
use crate::oracle::{self, OracleConfig};
use crate::rng::SplitMix64;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use sysplex_core::cache::{BlockName, CacheParams, WriteKind};
use sysplex_core::error::CfError;
use sysplex_core::facility::CouplingFacility;
use sysplex_core::list::{ListParams, LockCondition, WritePosition};
use sysplex_core::lock::{DisconnectMode, LockMode, LockParams, LockStructure};
use sysplex_core::transport::{
    InProcessTransport, RemoteCacheConnection, RemoteListConnection, RemoteLockConnection,
};
use sysplex_core::{ConnId, RetryPolicy, SystemId};
use sysplex_services::heartbeat::HealthState;
use sysplex_services::monitor::{json_str, Monitor};
use sysplex_services::sysplex::{Sysplex, SysplexConfig};
use sysplex_services::transport::{PulseHandle, RemoteSysplex, RemoteXcfMember, SxError, SysplexServer};

const GROUP: &str = "OPSDAY";
const LOCK_STRUCTURE: &str = "OPS_LOCK";
const CACHE_STRUCTURE: &str = "OPS_GBP";
const LIST_STRUCTURE: &str = "OPS_HIST";
const LIST_HEADERS: usize = 16;
/// Few branches on purpose: members must genuinely collide on the
/// branch lock for the exclusivity invariant to be load-bearing.
const BRANCHES: u64 = 4;
/// Wall-clock ceiling per member thread — generous for oversubscribed CI.
const MEMBER_DEADLINE: Duration = Duration::from_secs(120);
/// Ceiling on any single coordinator wait (fence, readmit, restart).
const WAIT_CEILING: Duration = Duration::from_secs(30);
/// Per-system trace-ring capacity. Drops past this are accounted, and
/// every oracle check stays lenient under them (rings retain newest).
const RING_CAPACITY: usize = 8192;

/// Knobs shared by all scenarios.
#[derive(Debug, Clone, Copy)]
pub struct OpsDayConfig {
    /// Root seed: chaos plans, retry jitter, and transaction streams all
    /// derive from it.
    pub seed: u64,
    /// Member count (the scenarios assume at least 3).
    pub members: u8,
    /// Committed-transaction quota each member must reach before the
    /// scenario is allowed to wrap up (members keep committing past it
    /// until the coordinator stops them).
    pub txns_per_member: u64,
}

impl Default for OpsDayConfig {
    fn default() -> Self {
        OpsDayConfig { seed: 0xDEC1DED, members: 3, txns_per_member: 40 }
    }
}

impl OpsDayConfig {
    /// The default shape with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        OpsDayConfig { seed, ..OpsDayConfig::default() }
    }
}

/// The verdict and recovery metrics of one composed scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (`rolling_restart`, `partition_heal`, `restart_storm`).
    pub name: String,
    /// The root seed the run derived everything from.
    pub seed: u64,
    /// Member count.
    pub members: u8,
    /// Unique transaction keys present in the history structure.
    pub committed: u64,
    /// Transactions the members saw commit acknowledgements for.
    pub acked: u64,
    /// Acked transactions missing from history — must be zero.
    pub lost: u64,
    /// Extra history entries for already-present keys (an unacked
    /// transaction retried by the next incarnation after its commit
    /// landed; reconciled away, never lost work).
    pub duplicates: u64,
    /// Re-admissions (clean restarts, crash re-IPLs, blip recoveries)
    /// across all members.
    pub reipls: u64,
    /// Partition/kill → SFM `Failed` state, in µs (0 when the scenario
    /// fences nobody).
    pub time_to_fence_us: u64,
    /// Heal/ARM/restart signal → heartbeat `Active` again, in µs.
    pub time_to_readmit_us: u64,
    /// Whether `Active` membership never dropped below the scenario's
    /// floor while the campaign ran.
    pub capacity_floor_ok: bool,
    /// Whether the trace oracle and structure checks all passed.
    pub oracle_clean: bool,
    /// Rendered oracle violations (empty when `oracle_clean`).
    pub violations: Vec<String>,
    /// Per-member chaos plans as copy-pasteable builder chains (empty
    /// when the scenario runs without wire faults).
    pub chaos_plan: String,
    /// Members in the merged SMF view (every system ever admitted).
    pub smf_members: u64,
    /// SMF interval records members shipped across the whole campaign.
    pub smf_records: u64,
    /// Whether the sysplex-wide merged report reconciled: every member's
    /// shipped counts balance internally and, where sound (books closed,
    /// no crashed incarnation), against the server's service clock.
    pub smf_reconciled: bool,
}

impl ScenarioOutcome {
    /// One schema-stable JSON object for the benchmark report splice.
    pub fn to_json_object(&self) -> String {
        let violations = self.violations.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"scenario\": {}, \"seed\": {}, \"members\": {}, \"committed\": {}, \
             \"acked\": {}, \"lost\": {}, \"duplicates\": {}, \"reipls\": {}, \
             \"time_to_fence_us\": {}, \"time_to_readmit_us\": {}, \"capacity_floor_ok\": {}, \
             \"oracle_clean\": {}, \"violations\": [{}], \"chaos_plan\": {}, \
             \"smf_members\": {}, \"smf_records\": {}, \"smf_reconciled\": {}}}",
            json_str(&self.name),
            self.seed,
            self.members,
            self.committed,
            self.acked,
            self.lost,
            self.duplicates,
            self.reipls,
            self.time_to_fence_us,
            self.time_to_readmit_us,
            self.capacity_floor_ok,
            self.oracle_clean,
            violations,
            json_str(&self.chaos_plan),
            self.smf_members,
            self.smf_records,
            self.smf_reconciled,
        )
    }

    /// Whether the scenario met the operations-day bar.
    pub fn is_clean(&self) -> bool {
        self.lost == 0 && self.capacity_floor_ok && self.oracle_clean && self.smf_reconciled
    }

    /// Panic unless [`ScenarioOutcome::is_clean`]: nothing lost, the
    /// capacity floor held, and the oracle found no violations.
    pub fn assert_clean(&self) {
        assert_eq!(
            self.lost, 0,
            "{}: {} acked transaction(s) missing from history (seed {:#x})",
            self.name, self.lost, self.seed
        );
        assert!(
            self.capacity_floor_ok,
            "{}: capacity fell below the floor (seed {:#x})",
            self.name, self.seed
        );
        assert!(
            self.oracle_clean,
            "{}: oracle violations (seed {:#x}): {:?}",
            self.name, self.seed, self.violations
        );
        assert!(
            self.smf_reconciled,
            "{}: merged SMF report failed to reconcile (seed {:#x})",
            self.name, self.seed
        );
    }
}

/// Render outcomes as the JSON array the activity-report splice embeds.
pub fn scenarios_json(outcomes: &[ScenarioOutcome]) -> String {
    let items =
        outcomes.iter().map(|o| format!("    {}", o.to_json_object())).collect::<Vec<_>>().join(",\n");
    format!("[\n{items}\n  ]")
}

/// Insert `"scenarios": <scenarios>` as the last key of the top-level
/// report object. `scenarios` must already be rendered JSON (use
/// [`scenarios_json`]).
///
/// Panics if `report_json` does not end with a `}` — the report writer
/// and this splice must agree on the document shape.
pub fn splice_scenarios(report_json: &str, scenarios: &str) -> String {
    let trimmed = report_json.trim_end();
    let body = trimmed.strip_suffix('}').expect("report JSON ends with an object close");
    let sep = if body.trim_end().ends_with(['{', ',']) { "" } else { "," };
    format!("{}{sep}\n  \"scenarios\": {scenarios}\n}}\n", body.trim_end())
}

/// Run all three scenarios under one config.
pub fn run_all(config: &OpsDayConfig) -> Vec<ScenarioOutcome> {
    vec![rolling_restart(config), partition_heal(config), restart_storm(config)]
}

// ---------------------------------------------------------------------------
// Member: a thread driving debit-credit over the wire, surviving faults
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemberShared {
    /// Keys of transactions this member saw commit acks for.
    acked: Mutex<Vec<u64>>,
    /// Re-admissions performed (any kind).
    reipls: AtomicU64,
    /// Longest clean-restart outage this member measured, µs.
    restart_us_max: AtomicU64,
    /// Coordinator signal: crash now (no goodbye, no detach), then wait
    /// for `arm` before re-IPLing.
    kill: AtomicBool,
    /// Coordinator signal: restart cleanly now.
    restart: AtomicBool,
    /// ARM restart gate after a `kill`.
    arm: AtomicBool,
    /// Coordinator signal: wrap up and leave.
    stop: AtomicBool,
}

/// Sends a member's session gives one request: the only retry a CF
/// command over TCP gets.
const SEND_BUDGET: u32 = 3;
/// Per-RPC read deadline of a member's session.
const RPC_TIMEOUT: Duration = Duration::from_millis(500);

/// The session a [`TcpMember`] runs on: seeded, resilient, and the one
/// place its commands are retried.
fn session(addr: &str, system: SystemId, seed: u64) -> Result<RemoteSysplex, SxError> {
    let policy = RetryPolicy::seeded(seed).attempts(SEND_BUDGET).backoff_ms(2, 40);
    RemoteSysplex::connect_resilient(addr, system, &format!("SYS{:02}", system.0), 100.0, policy, RPC_TIMEOUT)
}

/// Allocate in `cf` the structures a [`TcpMember`] attaches to; the lock
/// structure is returned for the oracle's orphan check.
pub fn allocate_structures(cf: &CouplingFacility) -> Arc<LockStructure> {
    let lock =
        cf.allocate_lock_structure(LOCK_STRUCTURE, LockParams::with_entries(512)).expect("lock structure");
    cf.allocate_cache_structure(CACHE_STRUCTURE, CacheParams::store_in(512)).expect("cache structure");
    cf.allocate_list_structure(LIST_STRUCTURE, ListParams::with_headers(LIST_HEADERS))
        .expect("list structure");
    lock
}

/// The rows one debit-credit transaction updates. Their lock names, the
/// account's page and the branch's history header derive from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rows {
    /// Account row.
    pub account: u64,
    /// Teller row.
    pub teller: u64,
    /// Branch row.
    pub branch: u64,
}

/// What came of one [`TcpMember::debit_credit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The history record is in the CF and every lock was released.
    Committed,
    /// The history record exists but the link died before every release
    /// acked: committed work, dead session.
    CommittedLinkDown,
    /// Not acknowledged: a lock still refused at the deadline, or a
    /// command that failed (an enqueue whose answer was lost may still
    /// have landed).
    Aborted,
}

/// A member system over TCP: one resilient session to a
/// [`SysplexServer`], attached to the lock, cache and history list
/// structures of [`allocate_structures`], joined to the member XCF group
/// and pulsing every 50 ms. Its CF commands are retried by the session
/// alone, at most three sends each, and served once.
pub struct TcpMember {
    remote: RemoteSysplex,
    _pulse: PulseHandle,
    xcf: Option<RemoteXcfMember>,
    lock: RemoteLockConnection,
    cache: RemoteCacheConnection,
    list: RemoteListConnection,
}

impl TcpMember {
    /// IPL (or re-IPL) `system` at `addr`: admit, attach the structures,
    /// run restart recovery for the previous incarnation's lock slot
    /// `recover`, join the group, start the keepalive. Retries the whole
    /// sequence until `deadline` — during a partition every attempt
    /// bounces until the heal.
    pub fn ipl(
        addr: &str,
        system: SystemId,
        seed: u64,
        mut recover: Option<ConnId>,
        deadline: Instant,
    ) -> Option<TcpMember> {
        let member_name = format!("MEM{:02}", system.0);
        while Instant::now() < deadline {
            let mut attempt = || -> Result<TcpMember, ()> {
                let remote = session(addr, system, seed).map_err(|_| ())?;
                let lock = remote.connect_lock(LOCK_STRUCTURE).map_err(|_| ())?;
                let cache = remote.connect_cache(CACHE_STRUCTURE, 1024).map_err(|_| ())?;
                let list = remote.connect_list(LIST_STRUCTURE, LIST_HEADERS).map_err(|_| ())?;
                // Restart recovery: the fresh Hello retired the dead
                // incarnation before it was answered, so its slot is
                // failed-persistent now. Purge its retained interest so the
                // plex stops serializing against a ghost. Once it succeeds
                // it is not sent again in this IPL: a later attempt is a
                // new incarnation, whose re-send the server cannot
                // recognise, and another connector may hold the slot by
                // then. `BadConnector` means there is nothing left to
                // recover.
                if let Some(prior) = recover {
                    match lock.recovery_complete_for(prior) {
                        Ok(()) | Err(CfError::BadConnector) => recover = None,
                        Err(_) => return Err(()),
                    }
                }
                let xcf = remote.join(GROUP, &member_name).ok();
                let pulse = remote.keepalive(Duration::from_millis(50));
                Ok(TcpMember { remote, _pulse: pulse, xcf, lock, cache, list })
            };
            match attempt() {
                Ok(member) => return Some(member),
                Err(()) => thread::sleep(Duration::from_millis(25)),
            }
        }
        None
    }

    /// The member's session.
    pub fn remote(&self) -> &RemoteSysplex {
        &self.remote
    }

    /// The member's XCF group member, if the join went through.
    pub fn xcf(&self) -> Option<&RemoteXcfMember> {
        self.xcf.as_ref()
    }

    /// The member's lock-structure slot: what a re-IPL recovers.
    pub fn lock_slot(&self) -> ConnId {
        self.lock.conn_id()
    }

    /// One debit-credit transaction on `rows` under history key `key`:
    /// exclusive account/teller/branch locks in ascending hashed-entry
    /// order, each retried every millisecond until `deadline`, a
    /// changed-data page write, a history enqueue (the commit point), then
    /// release in reverse.
    pub fn debit_credit(&self, rows: Rows, key: u64, deadline: Instant) -> TxnOutcome {
        let mut entries = vec![
            self.lock.hash_resource(format!("A{}", rows.account).as_bytes()),
            self.lock.hash_resource(format!("T{}", rows.teller).as_bytes()),
            self.lock.hash_resource(format!("B{}", rows.branch).as_bytes()),
        ];
        entries.sort_unstable();
        entries.dedup();

        let release_all = |held: &[usize]| {
            for &h in held.iter().rev() {
                let _ = self.lock.release_lock(h);
            }
        };

        let mut held: Vec<usize> = Vec::new();
        for &entry in &entries {
            loop {
                match self.lock.request_lock(entry, LockMode::Exclusive) {
                    Ok(r) if r.is_granted() => {
                        held.push(entry);
                        break;
                    }
                    Ok(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                    _ => {
                        release_all(&held);
                        return TxnOutcome::Aborted;
                    }
                }
            }
        }

        let mut page = [0u8; 128];
        page[..8].copy_from_slice(&key.to_le_bytes());
        let block = BlockName::from_parts(0, rows.account);
        if self.cache.write_invalidate(block, &page, WriteKind::ChangedData).is_err() {
            release_all(&held);
            return TxnOutcome::Aborted;
        }
        let header = (rows.branch % LIST_HEADERS as u64) as usize;
        if self.list.enqueue(header, key, &page[..32], WritePosition::Tail, LockCondition::None).is_err() {
            release_all(&held);
            return TxnOutcome::Aborted;
        }
        // Commit point: the history record is in the CF.
        let mut link_down = false;
        for &h in held.iter().rev() {
            if self.lock.release_lock(h).is_err() {
                link_down = true;
            }
        }
        if link_down {
            TxnOutcome::CommittedLinkDown
        } else {
            TxnOutcome::Committed
        }
    }

    /// Orderly departure: detach, leave the group, stop pulsing, goodbye.
    pub fn shutdown_clean(self) {
        let _ = self.list.detach();
        let _ = self.cache.detach();
        let _ = self.lock.detach(DisconnectMode::Normal);
        if let Some(x) = self.xcf {
            let _ = x.leave();
        }
        drop(self._pulse);
        let _ = self.remote.goodbye();
    }
}

fn member_main(addr: String, system: SystemId, seed: u64, shared: Arc<MemberShared>) {
    let mut rng = SplitMix64::new(seed);
    let deadline = Instant::now() + MEMBER_DEADLINE;
    let mut prior: Option<ConnId> = None;
    let mut session = TcpMember::ipl(&addr, system, rng.next_u64(), None, deadline);
    let mut seq: u64 = 0;
    while Instant::now() < deadline && !shared.stop.load(Ordering::Acquire) {
        if shared.kill.swap(false, Ordering::AcqRel) {
            // Crash: no goodbye, no detach, pulses stop — SFM will fence
            // us. Park until the ARM signal, then re-IPL and recover.
            if let Some(s) = session.take() {
                prior = Some(s.lock_slot());
                drop(s);
            }
            while !shared.arm.swap(false, Ordering::AcqRel) {
                if shared.stop.load(Ordering::Acquire) || Instant::now() > deadline {
                    return;
                }
                thread::sleep(Duration::from_millis(5));
            }
            session = TcpMember::ipl(&addr, system, rng.next_u64(), prior.take(), deadline);
            shared.reipls.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if shared.restart.swap(false, Ordering::AcqRel) {
            let t0 = Instant::now();
            if let Some(s) = session.take() {
                s.shutdown_clean();
            }
            session = TcpMember::ipl(&addr, system, rng.next_u64(), None, deadline);
            shared.reipls.fetch_add(1, Ordering::Relaxed);
            shared.restart_us_max.fetch_max(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            continue;
        }
        let Some(s) = session.as_ref() else {
            session = TcpMember::ipl(&addr, system, rng.next_u64(), prior.take(), deadline);
            shared.reipls.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let key = ((system.0 as u64) << 32) | seq;
        let branch = rng.below(BRANCHES);
        let rows = Rows { branch, teller: branch * 8 + rng.below(8), account: branch * 64 + rng.below(64) };
        match s.debit_credit(rows, key, Instant::now() + WAIT_CEILING) {
            TxnOutcome::Committed => {
                shared.acked.lock().unwrap().push(key);
                seq += 1;
                // Pace the stream so a campaign's trace volume stays in
                // the same order as the ring capacity.
                thread::sleep(Duration::from_millis(2));
            }
            TxnOutcome::CommittedLinkDown => {
                shared.acked.lock().unwrap().push(key);
                seq += 1;
                let s = session.take().expect("session present");
                prior = Some(s.lock_slot());
                drop(s);
            }
            TxnOutcome::Aborted => {
                // Could be a dead link or contention past the spin
                // ceiling; either way a fresh incarnation is the safe
                // recovery — the unacked key is retried under it.
                let s = session.take().expect("session present");
                prior = Some(s.lock_slot());
                drop(s);
            }
        }
    }
    if let Some(s) = session.take() {
        s.shutdown_clean();
    }
}

// ---------------------------------------------------------------------------
// Coordinator: rig, capacity sampling, scenario drivers, verdict
// ---------------------------------------------------------------------------

struct Rig {
    plex: Arc<Sysplex>,
    cf: Arc<CouplingFacility>,
    lock_structure: Arc<LockStructure>,
    server: SysplexServer,
}

fn rig(sfm_threshold: Duration) -> Rig {
    let mut config = SysplexConfig::functional("OPSPLEX");
    config.heartbeat.interval = Duration::from_millis(50);
    config.heartbeat.failure_threshold = sfm_threshold;
    config.heartbeat.auto_failure = true;
    let plex = Sysplex::new(config);
    plex.tracer.enable_with_capacity(RING_CAPACITY);
    let cf = plex.add_cf("CF01");
    let lock_structure = allocate_structures(&cf);
    let server = SysplexServer::start(&plex, &cf, "127.0.0.1:0").expect("bind sysplex server");
    Rig { plex, cf, lock_structure, server }
}

struct Campaign {
    rig: Rig,
    config: OpsDayConfig,
    systems: Vec<SystemId>,
    shared: Vec<Arc<MemberShared>>,
    threads: Vec<thread::JoinHandle<()>>,
    proxies: Vec<ChaosProxy>,
    chaos_plan: String,
}

/// Stand up the rig and the member threads. With `plans`, each member
/// dials through its own [`ChaosProxy`] running the matching plan;
/// otherwise members dial the server directly.
fn launch(config: &OpsDayConfig, plans: Option<Vec<ChaosPlan>>, sfm_threshold: Duration) -> Campaign {
    let rig = rig(sfm_threshold);
    let server_addr = rig.server.local_addr();
    let mut rng = SplitMix64::new(config.seed);
    let mut systems = Vec::new();
    let mut shared_all = Vec::new();
    let mut threads = Vec::new();
    let mut proxies = Vec::new();
    let mut plan_lines = Vec::new();
    for m in 1..=config.members {
        let system = SystemId::new(m);
        systems.push(system);
        let addr = match &plans {
            Some(ps) => {
                let plan = ps[(m - 1) as usize].clone();
                plan_lines.push(format!("SYS{m:02}: {plan}"));
                let proxy = ChaosProxy::start(server_addr, plan).expect("start chaos proxy");
                let addr = proxy.addr().to_string();
                proxies.push(proxy);
                addr
            }
            None => server_addr.to_string(),
        };
        let shared = Arc::new(MemberShared::default());
        shared_all.push(Arc::clone(&shared));
        let seed = rng.next_u64();
        threads.push(
            thread::Builder::new()
                .name(format!("opsday-mem{m}"))
                .spawn(move || member_main(addr, system, seed, shared))
                .expect("spawn member"),
        );
    }
    Campaign {
        rig,
        config: *config,
        systems,
        shared: shared_all,
        threads,
        proxies,
        chaos_plan: plan_lines.join(" | "),
    }
}

/// Derive the per-member chaos plans [`partition_heal`] uses by default.
pub fn default_chaos_plans(seed: u64, members: u8) -> Vec<ChaosPlan> {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5000);
    (0..members).map(|_| ChaosPlan::random(&mut rng.fork(), 400)).collect()
}

fn wait_all_state(plex: &Arc<Sysplex>, ids: &[SystemId], state: HealthState) -> Option<Duration> {
    let t0 = Instant::now();
    while t0.elapsed() < WAIT_CEILING {
        if ids.iter().all(|&id| plex.heartbeat.state_of(id) == Some(state)) {
            return Some(t0.elapsed());
        }
        thread::sleep(Duration::from_millis(2));
    }
    None
}

/// Block until every member's commit count reaches the config quota, so
/// a scenario never wraps up with trivially little traffic behind it.
fn wait_for_quota(campaign: &Campaign) {
    let deadline = Instant::now() + MEMBER_DEADLINE;
    while Instant::now() < deadline {
        let all_met = campaign
            .shared
            .iter()
            .all(|s| s.acked.lock().unwrap().len() as u64 >= campaign.config.txns_per_member);
        if all_met {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

struct CapacitySampler {
    floor_ok: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

/// Sample `Active` membership until stopped; trip if it ever falls below
/// `floor`.
fn sample_capacity(plex: &Arc<Sysplex>, systems: &[SystemId], floor: usize) -> CapacitySampler {
    let floor_ok = Arc::new(AtomicBool::new(true));
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let plex = Arc::clone(plex);
        let systems = systems.to_vec();
        let floor_ok = Arc::clone(&floor_ok);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("opsday-capacity".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let active = systems
                        .iter()
                        .filter(|&&id| plex.heartbeat.state_of(id) == Some(HealthState::Active))
                        .count();
                    if active < floor {
                        floor_ok.store(false, Ordering::Release);
                    }
                    thread::sleep(Duration::from_millis(5));
                }
            })
            .expect("spawn capacity sampler")
    };
    CapacitySampler { floor_ok, stop, thread }
}

impl CapacitySampler {
    fn finish(self) -> bool {
        self.stop.store(true, Ordering::Release);
        let _ = self.thread.join();
        self.floor_ok.load(Ordering::Acquire)
    }
}

/// Stop the members, join them, quiesce the rig, reconcile history by
/// key, and run the oracle.
fn verdict(
    mut campaign: Campaign,
    name: &str,
    time_to_fence_us: u64,
    time_to_readmit_us: u64,
    capacity_floor_ok: bool,
) -> ScenarioOutcome {
    for s in &campaign.shared {
        s.stop.store(true, Ordering::Release);
    }
    for t in campaign.threads.drain(..) {
        let _ = t.join();
    }
    for p in &mut campaign.proxies {
        p.stop();
    }
    campaign.rig.server.stop();

    let mut acked: Vec<u64> = Vec::new();
    let mut reipls = 0;
    for s in &campaign.shared {
        acked.extend(s.acked.lock().unwrap().iter().copied());
        reipls += s.reipls.load(Ordering::Relaxed);
    }
    let scanner = RemoteListConnection::attach(
        Arc::new(InProcessTransport::new(&campaign.rig.cf)),
        LIST_STRUCTURE,
        LIST_HEADERS,
    )
    .expect("attach history scanner");
    let mut keys: Vec<u64> = Vec::new();
    for h in 0..LIST_HEADERS {
        for e in scanner.scan(h).expect("scan history") {
            keys.push(e.key);
        }
    }
    let _ = scanner.detach();
    let unique: HashSet<u64> = keys.iter().copied().collect();
    let duplicates = (keys.len() - unique.len()) as u64;
    let lost = acked.iter().filter(|k| !unique.contains(k)).count() as u64;

    let records = campaign.rig.plex.tracer.snapshot_all();
    let mut violations =
        oracle::check_trace(&records, OracleConfig { ready_header: 0, expect_drained: false });
    violations.extend(oracle::check_rings(&campaign.rig.plex.tracer));
    violations.extend(oracle::check_lock_structure(&campaign.rig.lock_structure));

    // Merge the SMF records every member shipped (each clean goodbye
    // flushes a final interval) with the server's service clock: the
    // campaign's observability verdict rides next to the oracle's.
    let rmf = Monitor::for_sysplex(&campaign.rig.plex).sysplex_report(campaign.rig.server.smf());
    let (smf_members, smf_records, smf_reconciled) = match &rmf.sysplex {
        Some(s) => {
            (s.members.len() as u64, s.members.iter().map(|m| m.records_shipped).sum(), s.reconciles())
        }
        None => (0, 0, false),
    };

    ScenarioOutcome {
        name: name.to_string(),
        seed: campaign.config.seed,
        members: campaign.config.members,
        committed: unique.len() as u64,
        acked: acked.len() as u64,
        lost,
        duplicates,
        reipls,
        time_to_fence_us,
        time_to_readmit_us,
        capacity_floor_ok,
        oracle_clean: violations.is_empty(),
        violations: violations.iter().map(|v| v.to_string()).collect(),
        chaos_plan: campaign.chaos_plan.clone(),
        smf_members,
        smf_records,
        smf_reconciled,
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Rolling member restart under live debit-credit traffic: each member
/// in turn departs cleanly and re-IPLs while the others keep committing.
/// `Active` capacity must never fall below N−1.
pub fn rolling_restart(config: &OpsDayConfig) -> ScenarioOutcome {
    let campaign = launch(config, None, Duration::from_secs(5));
    wait_all_state(&campaign.rig.plex, &campaign.systems, HealthState::Active).expect("members admitted");
    let sampler = sample_capacity(&campaign.rig.plex, &campaign.systems, config.members as usize - 1);
    for m in 0..config.members as usize {
        thread::sleep(Duration::from_millis(100));
        let before = campaign.shared[m].reipls.load(Ordering::Acquire);
        campaign.shared[m].restart.store(true, Ordering::Release);
        let deadline = Instant::now() + WAIT_CEILING;
        while campaign.shared[m].reipls.load(Ordering::Acquire) == before {
            assert!(Instant::now() < deadline, "member {m} never completed its rolling restart");
            thread::sleep(Duration::from_millis(5));
        }
    }
    let time_to_readmit_us =
        campaign.shared.iter().map(|s| s.restart_us_max.load(Ordering::Relaxed)).max().unwrap_or(0);
    wait_for_quota(&campaign);
    let capacity_floor_ok = sampler.finish();
    verdict(campaign, "rolling_restart", 0, time_to_readmit_us, capacity_floor_ok)
}

/// Network partition + heal through the wire-level chaos proxies: the
/// last member is partitioned until SFM fences it (time-to-fence), the
/// heal lets a fresh incarnation re-IPL (time-to-readmit), and the other
/// members ride out seeded background noise the whole time.
pub fn partition_heal(config: &OpsDayConfig) -> ScenarioOutcome {
    partition_heal_with_plans(config, default_chaos_plans(config.seed, config.members))
}

/// [`partition_heal`] with explicit per-member chaos plans — the entry
/// point the chaos-smoke shrinker re-runs with reduced plans.
pub fn partition_heal_with_plans(config: &OpsDayConfig, plans: Vec<ChaosPlan>) -> ScenarioOutcome {
    assert_eq!(plans.len(), config.members as usize, "one chaos plan per member");
    let campaign = launch(config, Some(plans), Duration::from_millis(1200));
    wait_all_state(&campaign.rig.plex, &campaign.systems, HealthState::Active).expect("members admitted");
    let sampler = sample_capacity(&campaign.rig.plex, &campaign.systems, config.members as usize - 2);
    thread::sleep(Duration::from_millis(200));

    let victim_idx = config.members as usize - 1;
    let victim = campaign.systems[victim_idx];
    let t_partition = Instant::now();
    campaign.proxies[victim_idx].partition();
    wait_all_state(&campaign.rig.plex, &[victim], HealthState::Failed)
        .expect("SFM fences the partitioned member");
    let time_to_fence_us = t_partition.elapsed().as_micros() as u64;
    // Hold the partition briefly so the fenced incarnation's reconnect
    // attempts demonstrably bounce, then heal.
    thread::sleep(Duration::from_millis(100));
    campaign.proxies[victim_idx].heal();
    let t_heal = Instant::now();
    wait_all_state(&campaign.rig.plex, &[victim], HealthState::Active).expect("healed member re-admitted");
    let time_to_readmit_us = t_heal.elapsed().as_micros() as u64;

    wait_for_quota(&campaign);
    let capacity_floor_ok = sampler.finish();
    verdict(campaign, "partition_heal", time_to_fence_us, time_to_readmit_us, capacity_floor_ok)
}

/// ARM-style restart storm: the last two members crash simultaneously
/// (no goodbye, no detach). SFM fences both; the ARM signal restarts
/// them together, and each recovers its own failed-persistent lock slot
/// before taking new work.
pub fn restart_storm(config: &OpsDayConfig) -> ScenarioOutcome {
    assert!(config.members >= 3, "restart_storm needs a survivor");
    let campaign = launch(config, None, Duration::from_millis(1200));
    wait_all_state(&campaign.rig.plex, &campaign.systems, HealthState::Active).expect("members admitted");
    let sampler = sample_capacity(&campaign.rig.plex, &campaign.systems, config.members as usize - 2);
    thread::sleep(Duration::from_millis(200));

    let victims = [config.members as usize - 2, config.members as usize - 1];
    let victim_ids: Vec<SystemId> = victims.iter().map(|&i| campaign.systems[i]).collect();
    let t_kill = Instant::now();
    for &i in &victims {
        campaign.shared[i].kill.store(true, Ordering::Release);
    }
    wait_all_state(&campaign.rig.plex, &victim_ids, HealthState::Failed)
        .expect("SFM fences both crashed members");
    let time_to_fence_us = t_kill.elapsed().as_micros() as u64;

    let t_arm = Instant::now();
    for &i in &victims {
        campaign.shared[i].arm.store(true, Ordering::Release);
    }
    wait_all_state(&campaign.rig.plex, &victim_ids, HealthState::Active)
        .expect("restart storm re-admits both members");
    let time_to_readmit_us = t_arm.elapsed().as_micros() as u64;

    wait_for_quota(&campaign);
    let capacity_floor_ok = sampler.finish();
    verdict(campaign, "restart_storm", time_to_fence_us, time_to_readmit_us, capacity_floor_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> OpsDayConfig {
        OpsDayConfig { seed, members: 3, txns_per_member: 15 }
    }

    #[test]
    fn rolling_restart_keeps_capacity_and_loses_nothing() {
        let outcome = rolling_restart(&quick(0x0411ED));
        outcome.assert_clean();
        assert!(outcome.reipls >= 3, "every member restarted at least once");
        assert!(outcome.time_to_readmit_us > 0);
        assert!(outcome.acked >= 45, "every member reached its quota");
        assert_eq!(outcome.smf_members, 3, "every member in the merged SMF view");
        assert!(
            outcome.smf_records >= 6,
            "each restart and the final shutdown flush a final interval: {}",
            outcome.smf_records
        );
    }

    #[test]
    fn partition_heal_fences_then_readmits() {
        let outcome = partition_heal(&quick(0xFE11CE));
        outcome.assert_clean();
        assert!(outcome.time_to_fence_us > 0, "fence time measured");
        assert!(outcome.time_to_readmit_us > 0, "readmit time measured");
        assert!(!outcome.chaos_plan.is_empty(), "plans recorded for replay");
    }

    #[test]
    fn restart_storm_recovers_both_victims() {
        let outcome = restart_storm(&quick(0x570421));
        outcome.assert_clean();
        assert!(outcome.reipls >= 2, "both victims re-IPLed");
        assert!(outcome.time_to_fence_us > 0);
        assert!(outcome.time_to_readmit_us > 0);
    }

    /// Through a proxy that loses every response to it, one CF command of
    /// a member's session is sent [`SEND_BUDGET`] times and served once:
    /// every re-send is answered from the server's stored reply.
    #[test]
    fn a_lost_command_is_served_once_however_often_it_is_sent() {
        use crate::chaos::WireFault;
        use sysplex_core::connection::CommandClass;

        let rig = rig(Duration::from_secs(5));
        // Frames 0..=5: Hello, the admission pulse and the attach, each a
        // round trip. Then each send of the lock request loses its
        // response (7, 11, ...), and the session re-dials (a Hello and its
        // answer) before the next.
        let plan =
            (0..u64::from(SEND_BUDGET)).fold(ChaosPlan::new(), |p, i| p.at(7 + 4 * i, WireFault::Drop));
        let proxy = ChaosProxy::start(rig.server.local_addr(), plan).unwrap();
        let remote = session(&proxy.addr().to_string(), SystemId::new(1), 0x5E4D).unwrap();
        let lock = remote.connect_lock(LOCK_STRUCTURE).unwrap();
        let issued = || rig.cf.command_stats().class(CommandClass::LockRequest).issued.get();
        let before = issued();
        let err = lock.request_lock(1, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, CfError::LinkTimeout(_)), "got {err:?}");
        assert_eq!(issued() - before, 1, "one command, served once");
        assert_eq!(proxy.applied().len(), SEND_BUDGET as usize, "every response to it was lost");
    }

    /// Through a proxy that sends every request twice and loses the first
    /// answer to each, a session's commands are each served once: the
    /// second copy is answered from the reply to the first.
    #[test]
    fn duplicated_requests_with_lost_first_answers_are_served_once() {
        use crate::chaos::WireFault;
        use sysplex_core::connection::CommandClass;

        const N: u64 = 8;
        let rig = rig(Duration::from_secs(5));
        // Frames 0..=3: Hello and the admission pulse. From frame 4 each
        // command is three frames: the request (sent twice), the answer
        // to the first copy (lost) and the answer to the second.
        let commands = 2 + 2 * N;
        let plan = (0..commands).fold(ChaosPlan::new(), |p, i| {
            p.at(4 + 3 * i, WireFault::Duplicate).at(5 + 3 * i, WireFault::Drop)
        });
        let proxy = ChaosProxy::start(rig.server.local_addr(), plan).unwrap();
        let remote = session(&proxy.addr().to_string(), SystemId::new(1), 0xD0B1).unwrap();
        let lock = remote.connect_lock(LOCK_STRUCTURE).unwrap();
        let list = remote.connect_list(LIST_STRUCTURE, LIST_HEADERS).unwrap();
        for i in 0..N {
            assert!(lock.request_lock(i as usize, LockMode::Exclusive).unwrap().is_granted());
            list.enqueue(0, i, b"history", WritePosition::Tail, LockCondition::None).unwrap();
        }
        assert_eq!(proxy.applied().len() as u64, 2 * commands, "every planned fault hit");
        assert_eq!(list.header_len(0).unwrap() as u64, N, "one entry per enqueue");
        let served = rig.cf.command_stats();
        assert_eq!(served.class(CommandClass::LockRequest).issued.get(), N);
        for class in CommandClass::ALL {
            let sent = remote.meter().stats().class(class).issued.get();
            assert_eq!(served.class(class).issued.get(), sent, "{} served as often as sent", class.name());
        }
    }

    /// A poll whose answer is lost has dequeued its signal; the re-sent
    /// poll is answered with that signal, so the signal is not lost.
    #[test]
    fn a_lost_poll_answer_loses_no_signal() {
        use crate::chaos::WireFault;
        use sysplex_services::xcf::XcfItem;

        let rig = rig(Duration::from_secs(5));
        let local = rig.plex.xcf.join(GROUP, "LOCAL", SystemId::new(0)).unwrap();
        // Frames 0..=3: Hello and the admission pulse; 4 and 5: the join;
        // 6: the poll; 7: its answer, lost.
        let proxy =
            ChaosProxy::start(rig.server.local_addr(), ChaosPlan::new().at(7, WireFault::Drop)).unwrap();
        let remote = session(&proxy.addr().to_string(), SystemId::new(1), 0x9011).unwrap();
        let member = remote.join(GROUP, "REMOTE").unwrap();
        local.send_to("REMOTE", b"first").unwrap();
        local.send_to("REMOTE", b"second").unwrap();
        match member.try_recv().unwrap() {
            Some(XcfItem::Message { payload, .. }) => assert_eq!(payload, b"first"),
            other => panic!("the first signal was lost: {other:?}"),
        }
        assert_eq!(proxy.applied(), [(7, WireFault::Drop)]);
    }

    /// A member fenced while its session was live learns it from one
    /// `Fenced` answer to one resume: the answer is not sent again.
    #[test]
    fn a_fenced_answer_is_sent_once() {
        let rig = rig(Duration::from_secs(5));
        let proxy = ChaosProxy::start(rig.server.local_addr(), ChaosPlan::new()).unwrap();
        let system = SystemId::new(1);
        let remote = session(&proxy.addr().to_string(), system, 0xFE4CE).unwrap();
        let lock = remote.connect_lock(LOCK_STRUCTURE).unwrap();
        // SFM fences the member; its incarnation retires and the stream is
        // severed before `kill` returns.
        rig.plex.kill(system);
        let before = proxy.frames();
        let err = lock.request_lock(1, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, CfError::LinkTimeout(_)), "got {err:?}");
        // One resume Hello and its `Fenced` answer, and at most the request
        // the severed stream lost.
        let frames = proxy.frames() - before;
        assert!(frames <= 3, "{frames} frames: the fenced member dialled again after its answer");
    }

    #[test]
    fn chaos_plans_replay_deterministically() {
        let a = default_chaos_plans(0xC0FFEE, 3);
        let b = default_chaos_plans(0xC0FFEE, 3);
        assert_eq!(a, b, "same seed, same plans");
        let c = default_chaos_plans(0xC0FFEF, 3);
        assert_ne!(a, c, "different seed diverges");
    }

    #[test]
    fn outcome_json_is_schema_stable() {
        let o = ScenarioOutcome {
            name: "demo".into(),
            seed: 7,
            members: 3,
            committed: 10,
            acked: 10,
            lost: 0,
            duplicates: 1,
            reipls: 2,
            time_to_fence_us: 123,
            time_to_readmit_us: 456,
            capacity_floor_ok: true,
            oracle_clean: false,
            violations: vec!["lock exclusivity:\n\tgranted to \"conn 2\"".into()],
            chaos_plan: "SYS01: ChaosPlan::new()".into(),
            smf_members: 3,
            smf_records: 6,
            smf_reconciled: true,
        };
        let json = o.to_json_object();
        for key in [
            "\"scenario\"",
            "\"seed\"",
            "\"members\"",
            "\"committed\"",
            "\"acked\"",
            "\"lost\"",
            "\"duplicates\"",
            "\"reipls\"",
            "\"time_to_fence_us\"",
            "\"time_to_readmit_us\"",
            "\"capacity_floor_ok\"",
            "\"oracle_clean\"",
            "\"violations\"",
            "\"chaos_plan\"",
            "\"smf_members\": 3",
            "\"smf_records\": 6",
            "\"smf_reconciled\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains(r#""violations": ["lock exclusivity:\n\tgranted to \"conn 2\""]"#), "{json}");
        assert!(!json.chars().any(char::is_control), "raw control character in {json}");
        assert!(scenarios_json(&[o]).starts_with("[\n"));
    }

    #[test]
    fn splice_appends_scenarios_key_before_the_close() {
        let report = "{\n  \"report\": \"cf_activity\",\n  \"totals\": {\"issued\": 3}\n}\n";
        let out = splice_scenarios(report, "[\n    {\"scenario\": \"demo\"}\n  ]");
        assert!(out.contains("\"report\": \"cf_activity\""), "existing keys preserved");
        assert!(out.contains("\"scenarios\": ["), "scenarios key added");
        assert!(out.trim_end().ends_with('}'), "still one object");
        let open = out.matches('{').count();
        let close = out.matches('}').count();
        assert_eq!(open, close, "balanced braces");
    }

    #[test]
    fn splice_handles_an_empty_report_object() {
        let out = splice_scenarios("{}\n", "[]");
        assert_eq!(out, "{\n  \"scenarios\": []\n}\n");
    }
}
