//! The workloads. Each builds its rig from the public API, preloads it,
//! drives the measured window through [`crate::harness::drive`] and checks
//! that what the program produced is correct.
//!
//! Inputs come from generators seeded `seed + client index`; the program
//! under test sees only the generated transactions.

use crate::harness::{
    drive, open_loop_send, sleep_until, socket_cpu, Client, ClientLog, Pinned, Plan, Reference, Window,
};
use crate::rigs::{CfRig, Counters, DbRig, CACHE_STRUCTURE, LIST_STRUCTURE, LOCK_STRUCTURE, PAGES, RETRIES};
use crate::trace::{Kind, RootSpan};
use parallel_sysplex::cf::cache::{BlockName, RegisterResult, WriteKind, WriteResult};
use parallel_sysplex::cf::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use parallel_sysplex::cf::lock::{LockMode, LockResponse};
use parallel_sysplex::cf::transport::{serve_cf_stream, CfTransport};
use parallel_sysplex::cf::wire::FRAME_HEADER_BYTES;
use parallel_sysplex::cf::{
    CacheConnection, CfResult, InProcessTransport, ListConnection, LockConnection, RemoteCacheConnection,
    RemoteListConnection, RemoteLockConnection, TcpTransport, WireRequest,
};
use parallel_sysplex::db::error::DbResult;
use parallel_sysplex::db::{Database, Txn};
use parallel_sysplex::workload::debitcredit::{
    DebitCreditConfig, DebitCreditGenerator, DebitCreditTxn, KeyLayout,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and reason of every workload, in the order they run.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("dc-single", "One member, one client, debit-credit over 8 branches: pure path length of a transaction through db.* and core.* with no peer; contention, negotiation and XI must read 0."),
    ("dc-affinity", "Two members with branch affinity but shared pages: P-lock hand-offs, recalls, XCF negotiation and cross-invalidate do real work; against dc-single it gives the data-sharing cost."),
    ("inquiry", "Read-only reader on one member while a fixed-rate open-loop updater on the other cross-invalidates: S locks, local-vector checks, empty commits; the layers used the other way round."),
    ("cf-direct", "No DB: one thread runs the 6-command lock/cache/list cycle on its own connections; core.* does all the work, so this is CF command path length."),
    ("cf-direct-2t", "The same cycle on two threads over disjoint entries, blocks and headers: whatever they still share (the command accounting) limits it; bypassed by one-thread gains."),
    ("cf-tcp", "The same cycle through Remote* connections over loopback TCP: wire codec, transport and socket wake-ups dominate; structure gains must not show, batching shows only here."),
];

/// A correctness check on the program's outputs.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

fn check_eq<T: PartialEq + std::fmt::Debug>(name: &'static str, got: T, want: T) -> Check {
    check(name, got == want, format!("got {got:?}, want {want:?}"))
}

/// Everything a workload run produced.
pub struct Outcome {
    /// Seconds each build + preload took.
    pub setups_s: Vec<f64>,
    pub window: Window,
    pub clients: Vec<ClientLog>,
    pub checks: Vec<Check>,
    /// Transactions the per-layer counters are divided by.
    pub layer_txns: f64,
    /// Per-layer values only this workload can measure.
    pub extra: Vec<(&'static str, f64)>,
    /// Both ends of the socket ran pinned to the chosen CPU (`cf-tcp`
    /// only; no other workload pins anything).
    pub pinned: bool,
}

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, plan: &Plan) -> Option<Outcome> {
    let mut outcome = match name {
        "dc-single" => debit_credit(plan, 1),
        "dc-affinity" => debit_credit(plan, 2),
        "inquiry" => inquiry(plan),
        "cf-direct" => cf_direct(plan, 1),
        "cf-direct-2t" => cf_direct(plan, 2),
        "cf-tcp" => cf_tcp(plan),
        _ => return None,
    };
    // The workloads are chosen so that nothing fails: one operation that
    // returned `Err`, or one inline output check that did not hold (a lock
    // not granted, a wrong read-back, a value seen to go backwards), makes
    // the run incorrect.
    let failed: u64 = outcome.clients.iter().map(|c| c.failed).sum();
    outcome.checks.push(check_eq("no operation failed, no inline output check failed", failed, 0));
    Some(outcome)
}

/// Build and preload `repeats` times (once in a traced run, which does not
/// report `setup_s`), keeping the last rig. A fixed count, so that the
/// allocator has the same history at the start of every run's window.
fn set_up<R>(plan: &Plan, repeats: usize, build: impl Fn() -> R, discard: impl Fn(R)) -> (R, Vec<f64>) {
    let repeats = if plan.trace { 1 } else { repeats };
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let rig = build();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= repeats {
            return (rig, times);
        }
        discard(rig);
    }
}

/// Set-ups in each of a run's three processes. A DB rig builds and preloads
/// in 15 to 80 ms, a CF rig in 1 to 4 ms.
const DB_SETUPS: usize = 8;
const CF_SETUPS: usize = 43;

// ---------------------------------------------------------------------------
// dc-single, dc-affinity
// ---------------------------------------------------------------------------

const DC_SCHEMA: DebitCreditConfig = DebitCreditConfig {
    branches: 8,
    tellers_per_branch: 10,
    accounts_per_branch: 1000,
    remote_fraction: 0.15,
};
/// Accounts span ~8 000 pages: 8x the local pool, within the CF cache.
const DC_BUFFER_FRAMES: usize = 1024;
const DC_WARMUP_TXNS: usize = 20_000;

fn read_i64(db: &Database, txn: &mut Txn, key: u64) -> DbResult<i64> {
    Ok(db.read(txn, key)?.map_or(0, |v| i64::from_be_bytes(v[..8].try_into().expect("8-byte balance"))))
}

/// The spans of one request, when it is being traced.
type Spans<'a> = Option<RootSpan<'a>>;

/// Record the call of `kind` that has just returned, if tracing.
fn child(spans: &mut Spans, kind: Kind) {
    if let Some(root) = spans {
        root.child(kind);
    }
}

/// `Database::run` with every (re-)run of the closure starting its first
/// child span afresh, so retry back-off stays in the root's self time.
fn run_txn<R>(
    db: &Database,
    spans: &mut Spans,
    mut f: impl FnMut(&Database, &mut Txn, &mut Spans) -> DbResult<R>,
) -> DbResult<R> {
    db.run(RETRIES, |db, txn| {
        if let Some(root) = spans {
            root.skip_to_now();
        }
        f(db, txn, spans)
    })
}

/// The read-then-write profile of `tests/debit_credit.rs::apply`:
/// account, teller, branch, then the history insert. When tracing, every
/// `read`/`write` call is a child span of the transaction.
fn apply(db: &Database, keys: [u64; 3], history_key: u64, delta: i64, spans: &mut Spans) -> DbResult<()> {
    run_txn(db, spans, |db, txn, spans| {
        for k in keys {
            let v = read_i64(db, txn, k)?;
            child(spans, Kind::DbRead);
            db.write(txn, k, Some(&(v + delta).to_be_bytes()))?;
            child(spans, Kind::DbWrite);
        }
        db.write(txn, history_key, Some(&delta.to_be_bytes()))?;
        child(spans, Kind::DbWrite);
        Ok(())
    })
}

/// Run `op` as one transaction sent at `start` and timed from `from` (the
/// send time, or the due time of an open-loop client); in a traced slice
/// of the measured window it is the root span of its request.
fn timed_txn(
    c: &mut Client,
    measured: bool,
    start: Instant,
    from: Instant,
    op: impl FnOnce(&mut Spans) -> DbResult<()>,
) -> bool {
    let sampled = if measured { c.sample(start) } else { None };
    let mut spans = sampled.map(|request| c.log.spans.root(request, Kind::Txn, start));
    let ok = op(&mut spans).is_ok();
    let end = Instant::now();
    if let Some(root) = spans {
        root.close_at(end);
    }
    if measured {
        c.record(from, end, ok);
    } else {
        c.log.failed += !ok as u64;
    }
    c.calibrate(end);
    ok
}

fn debit_credit(plan: &Plan, members: usize) -> Outcome {
    let layout = KeyLayout::new(DC_SCHEMA);
    let (mut rig, setups_s) = set_up(
        plan,
        DB_SETUPS,
        || {
            let rig = DbRig::build(members as u8, DC_BUFFER_FRAMES);
            // Preload every fixed row with a zero balance so no page is
            // first created inside the window.
            let keys: Vec<u64> = (0..layout.fixed_keys()).collect();
            for chunk in keys.chunks(128) {
                rig.members[0]
                    .run(RETRIES, |db, txn| {
                        chunk.iter().try_for_each(|k| db.write(txn, *k, Some(&0i64.to_be_bytes())))
                    })
                    .expect("preload");
            }
            rig
        },
        DbRig::teardown,
    );

    // With two members, member i owns branches 4i..4i+3 (home and account
    // branch remapped into its partition, as affinity routing would), but
    // pages stay shared because page_of = key % pages.
    let span = DC_SCHEMA.branches / members as u64;
    let (window, results) = drive(members, plan, &|| rig.counters(), &|c: &mut Client| {
        let db = &rig.members[c.index];
        c.reference = Some(Reference::in_process());
        let base = c.index as u64 * span;
        let mut gen = DebitCreditGenerator::new(DC_SCHEMA, plan.seed + c.index as u64);
        let (mut committed, mut balance) = (0u64, 0i64);
        let mut one = |c: &mut Client, measured: bool| {
            let g0 = Instant::now();
            let t: DebitCreditTxn = gen.next_txn();
            let (home, acct) = (base + t.home_branch % span, base + t.account_branch % span);
            let keys = [layout.account(acct, t.account), layout.teller(home, t.teller), layout.branch(home)];
            // Unique per transaction across clients.
            let history = layout.history_base() + t.history_seq * members as u64 + c.index as u64;
            c.log.gen_ns += g0.elapsed().as_nanos() as u64;
            c.log.gen_calls += 1;
            let start = Instant::now();
            if timed_txn(c, measured, start, start, |spans| apply(db, keys, history, t.delta, spans)) {
                committed += 1;
                balance += t.delta;
            }
        };
        for _ in 0..DC_WARMUP_TXNS {
            one(c, false);
        }
        c.start_window();
        while c.running() {
            one(c, true);
        }
        (committed, balance)
    });
    let committed: u64 = results.iter().map(|(_, r)| r.0).sum();
    let balance: i64 = results.iter().map(|(_, r)| r.1).sum();

    // Audit from a member that wrote none of it: scan every page through
    // its coherent buffer pool (CF first, DASD behind it).
    let auditor = rig.add_auditor();
    let (mut accounts, mut tellers, mut branches, mut history_sum, mut history_rows) =
        (0i64, 0i64, 0i64, 0i64, 0u64);
    let teller_base = layout.teller(0, 0);
    let account_base = layout.account(0, 0);
    for page in 0..PAGES {
        for (key, value) in auditor.buffers().get_page(page).expect("audit page").iter() {
            let v = i64::from_be_bytes(value[..8].try_into().expect("8-byte balance"));
            if key < teller_base {
                branches += v;
            } else if key < account_base {
                tellers += v;
            } else if key < layout.history_base() {
                accounts += v;
            } else {
                history_sum += v;
                history_rows += 1;
            }
        }
    }
    let d = &window.delta;
    let mut checks = vec![
        check_eq("accounts balance to committed deltas", accounts, balance),
        check_eq("tellers balance to committed deltas", tellers, balance),
        check_eq("branches balance to committed deltas", branches, balance),
        check_eq("history sums to committed deltas", history_sum, balance),
        check_eq("one history row per commit", history_rows, committed),
        reconcile(&mut rig),
    ];
    if members == 1 {
        // The bypass workload: no peer, so no cross-system mechanism may
        // have fired at all.
        for key in ["irlm.contentions", "irlm.queries_served", "irlm.recalls", "cache.xi_signals"] {
            checks.push(check(
                "no cross-system work without a peer",
                d.get(key) == 0.0,
                format!("{key} = {}", d.get(key)),
            ));
        }
    }
    let layer_txns = d.get("db.commits");
    let clients = results.into_iter().map(|(log, _)| log).collect();
    rig.teardown();
    Outcome { setups_s, window, clients, checks, layer_txns, extra: Vec::new(), pinned: false }
}

/// `issued == sync + async_converted` and nothing faulted, over the rig's
/// whole life. Read with the castout daemons stopped: they issue commands
/// of their own, and counters read while a command is in flight can
/// disagree by that one command.
fn reconcile(rig: &mut DbRig) -> Check {
    rig.stop_daemons();
    reconciles(&rig.counters())
}

fn reconciles(totals: &Counters) -> Check {
    let (issued, sync, converted, faulted) = (
        totals.get("cmd.issued"),
        totals.get("cmd.sync"),
        totals.get("cmd.async"),
        totals.get("cmd.faulted"),
    );
    check(
        "command accounting reconciles",
        issued == sync + converted && faulted == 0.0,
        format!("issued {issued} sync {sync} async {converted} faulted {faulted}"),
    )
}

// ---------------------------------------------------------------------------
// inquiry
// ---------------------------------------------------------------------------

const INQ_ACCOUNTS: u64 = 2_000;
/// The accounts (one per page) fit the local pool.
const INQ_BUFFER_FRAMES: usize = 4096;
const INQ_READS_PER_TXN: usize = 4;
const INQ_READER_WARMUP_TXNS: usize = 20_000;
const INQ_UPDATER_WARMUP_TXNS: usize = 500;
/// Open-loop updater: one single-key read+write transaction per interval.
const INQ_UPDATE_INTERVAL: Duration = Duration::from_millis(1);
const INQ_SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// A reader transaction is ~6 us and its spans cost ~0.5 us.
const INQ_READER_TRACE_EVERY: u32 = 4;

/// Small deterministic generator for uniform keys (SplitMix64), so the
/// key stream depends on nothing but the seed.
struct KeyGen(u64);

impl KeyGen {
    fn next_below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn inquiry(plan: &Plan) -> Outcome {
    let (mut rig, setups_s) = set_up(
        plan,
        DB_SETUPS,
        || {
            let rig = DbRig::build(2, INQ_BUFFER_FRAMES);
            let keys: Vec<u64> = (0..INQ_ACCOUNTS).collect();
            for chunk in keys.chunks(128) {
                rig.members[1]
                    .run(RETRIES, |db, txn| {
                        chunk.iter().try_for_each(|k| db.write(txn, *k, Some(&0i64.to_be_bytes())))
                    })
                    .expect("preload");
            }
            rig
        },
        DbRig::teardown,
    );

    let (window, results) = drive(2, plan, &|| rig.counters(), &|c: &mut Client| {
        let mut keys = KeyGen(plan.seed + c.index as u64);
        c.reference = Some(Reference::in_process());
        if c.index == 0 {
            // Reader, closed loop: 4 uniform reads, nothing to commit.
            let db = &rig.members[0];
            c.trace_every = INQ_READER_TRACE_EVERY;
            let mut last_seen = vec![i64::MIN; INQ_ACCOUNTS as usize];
            let mut one = |c: &mut Client, measured: bool| {
                let g0 = Instant::now();
                let picks: [u64; INQ_READS_PER_TXN] = std::array::from_fn(|_| keys.next_below(INQ_ACCOUNTS));
                c.log.gen_ns += g0.elapsed().as_nanos() as u64;
                c.log.gen_calls += 1;
                let mut seen = [0i64; INQ_READS_PER_TXN];
                let start = Instant::now();
                let ok = timed_txn(c, measured, start, start, |spans| {
                    run_txn(db, spans, |db, txn, spans| {
                        for (slot, key) in seen.iter_mut().zip(picks) {
                            *slot = read_i64(db, txn, key)?;
                            child(spans, Kind::DbRead);
                        }
                        Ok(())
                    })
                });
                // Coherency: a committed value may never be seen to go back.
                for (v, key) in seen.into_iter().zip(picks) {
                    if ok && v < last_seen[key as usize] {
                        c.log.failed += 1;
                    }
                    last_seen[key as usize] = last_seen[key as usize].max(v);
                }
            };
            for _ in 0..INQ_READER_WARMUP_TXNS {
                one(c, false);
            }
            c.start_window();
            while c.running() {
                one(c, true);
            }
            0
        } else {
            // Updater, open loop on a schedule.
            let db = &rig.members[1];
            c.log.open_loop = true;
            let mut committed = 0u64;
            let update = |spans: &mut Spans, key: u64| {
                run_txn(db, spans, |db, txn, spans| {
                    let v = read_i64(db, txn, key)?;
                    child(spans, Kind::DbRead);
                    db.write(txn, key, Some(&(v + 1).to_be_bytes()))?;
                    child(spans, Kind::DbWrite);
                    Ok(())
                })
            };
            for _ in 0..INQ_UPDATER_WARMUP_TXNS {
                let key = keys.next_below(INQ_ACCOUNTS);
                let now = Instant::now();
                committed += timed_txn(c, false, now, now, |spans| update(spans, key)) as u64;
            }
            c.start_window();
            let start = c.window_start();
            let since_start = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
            let (mut due, mut previous_end) = (start, start);
            while c.running() {
                // Sleep to just short of the due time, then spin: a timer
                // wake-up is tens of microseconds late, as much as the
                // update itself takes.
                sleep_until(due - INQ_SPIN_BEFORE_DUE.min(due - start));
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                if !c.running() {
                    break;
                }
                let sent = Instant::now();
                let (late_ns, from_ns) =
                    open_loop_send(since_start(due), since_start(previous_end), since_start(sent));
                c.log.lateness_ns.push(late_ns.min(u32::MAX as u64) as u32);
                let key = keys.next_below(INQ_ACCOUNTS);
                let from = start + Duration::from_nanos(from_ns);
                committed += timed_txn(c, true, sent, from, |spans| update(spans, key)) as u64;
                previous_end = Instant::now();
                // The schedule slides by what the generator was late, or
                // the transactions behind this one would be charged for it.
                due += INQ_UPDATE_INTERVAL + Duration::from_nanos(late_ns);
            }
            committed
        }
    });
    let updates: u64 = results.iter().map(|(_, r)| *r).sum();

    // The reader's member wrote none of the rows: it audits them.
    let total = rig.members[0]
        .run(RETRIES, |db, txn| (0..INQ_ACCOUNTS).try_fold(0i64, |sum, k| Ok(sum + read_i64(db, txn, k)?)))
        .expect("audit");
    let d = &window.delta;
    let checks = vec![
        check_eq("final sum equals committed updates", total, updates as i64),
        reconcile(&mut rig),
        // Empty commits: the reader member's log takes at most a
        // checkpoint header in the window.
        check(
            "reader member logs nothing",
            d.get("log.writes.m0") <= 1.0,
            format!("{} log writes", d.get("log.writes.m0")),
        ),
    ];
    let mut lateness: Vec<u64> = results[1].0.lateness_ns.iter().map(|&n| n as u64).collect();
    lateness.sort_unstable();
    let extra = vec![("plexbench.update_lag_p95_us", crate::stats::percentile(&lateness, 95.0) as f64 / 1e3)];
    let layer_txns = d.get("db.commits");
    let clients = results.into_iter().map(|(log, _)| log).collect();
    rig.teardown();
    Outcome { setups_s, window, clients, checks, layer_txns, extra, pinned: false }
}

// ---------------------------------------------------------------------------
// cf-direct, cf-direct-2t, cf-tcp
// ---------------------------------------------------------------------------

const CF_BLOCK_BYTES: usize = 4096;
const CF_ENTRY_BYTES: usize = 64;
/// Lock entries, cache blocks and vector bits each thread cycles over.
const CF_SLOTS: usize = 1024;
const CF_DIRECT_WARMUP_CYCLES: usize = 50_000;
const CF_TCP_WARMUP_CYCLES: usize = 2_000;
/// An in-process cycle is ~2 us and the seven clock reads of its spans
/// cost ~0.3 us, so tracing each one would measure the tracer. (A socket
/// cycle is sixty times longer and traces every one.)
const CF_DIRECT_TRACE_EVERY: u32 = 8;

/// The six commands of the cycle, over native or remote connections.
trait Trio {
    fn request_lock(&self, entry: usize, mode: LockMode) -> CfResult<LockResponse>;
    fn register_read(&self, name: BlockName, index: u32) -> CfResult<RegisterResult>;
    fn write_invalidate(&self, name: BlockName, data: &[u8], kind: WriteKind) -> CfResult<WriteResult>;
    fn enqueue(&self, header: usize, key: u64, data: &[u8]) -> CfResult<EntryId>;
    fn take(&self, header: usize) -> CfResult<Option<EntryView>>;
    fn release_lock(&self, entry: usize) -> CfResult<()>;
}

macro_rules! impl_trio {
    ($lock:ty, $cache:ty, $list:ty) => {
        impl Trio for ($lock, $cache, $list) {
            fn request_lock(&self, entry: usize, mode: LockMode) -> CfResult<LockResponse> {
                self.0.request_lock(entry, mode)
            }
            fn register_read(&self, name: BlockName, index: u32) -> CfResult<RegisterResult> {
                self.1.register_read(name, index)
            }
            fn write_invalidate(
                &self,
                name: BlockName,
                data: &[u8],
                kind: WriteKind,
            ) -> CfResult<WriteResult> {
                self.1.write_invalidate(name, data, kind)
            }
            fn enqueue(&self, header: usize, key: u64, data: &[u8]) -> CfResult<EntryId> {
                self.2.enqueue(header, key, data, WritePosition::Tail, LockCondition::None)
            }
            fn take(&self, header: usize) -> CfResult<Option<EntryView>> {
                self.2.take(header, DequeueEnd::Head, LockCondition::None)
            }
            fn release_lock(&self, entry: usize) -> CfResult<()> {
                self.0.release_lock(entry)
            }
        }
    };
}
impl_trio!(LockConnection, CacheConnection, ListConnection);
impl_trio!(RemoteLockConnection, RemoteCacheConnection, RemoteListConnection);

fn native_trio(rig: &CfRig) -> (LockConnection, CacheConnection, ListConnection) {
    (
        rig.cf.connect_lock(LOCK_STRUCTURE).expect("attach lock"),
        rig.cf.connect_cache(CACHE_STRUCTURE, CF_SLOTS).expect("attach cache"),
        rig.cf.connect_list(LIST_STRUCTURE, CF_SLOTS).expect("attach list"),
    )
}

/// One client's view of the cycle: its own slice of entries, blocks and
/// one header, plus what it last wrote to each block.
struct Cycler<T: Trio> {
    trio: T,
    thread: usize,
    block: Vec<u8>,
    entry: [u8; CF_ENTRY_BYTES],
    /// Stamp last written to each block (0 = never).
    written: Vec<u64>,
    n: u64,
}

impl<T: Trio> Cycler<T> {
    fn new(trio: T, thread: usize, seed: u64) -> Self {
        let mut fill = KeyGen(seed);
        let block = (0..CF_BLOCK_BYTES).map(|_| fill.next_below(256) as u8).collect();
        let entry = std::array::from_fn(|_| fill.next_below(256) as u8);
        Cycler { trio, thread, block, entry, written: vec![0; CF_SLOTS], n: 0 }
    }

    /// One cycle; `Ok(false)` when an output was wrong. When tracing, each
    /// command is a child span of the cycle.
    fn cycle(&mut self, spans: &mut Spans) -> CfResult<bool> {
        self.n += 1;
        let slot = (self.n % CF_SLOTS as u64) as usize;
        let entry = self.thread * CF_SLOTS + slot;
        let name = BlockName::from_parts(self.thread as u32, slot as u64);
        let mut span = |kind: Kind| child(spans, kind);

        let mut good = self.trio.request_lock(entry, LockMode::Exclusive)?.is_granted();
        span(Kind::LockRequest);
        let read = self.trio.register_read(name, slot as u32)?;
        span(Kind::CacheRead);
        // The block must read back as the 4 KiB last written to it.
        let last = self.written[slot];
        if last != 0 {
            good &= read
                .data
                .as_deref()
                .is_some_and(|d| d[..8] == last.to_be_bytes() && d[8..] == self.block[8..]);
        }
        self.block[..8].copy_from_slice(&self.n.to_be_bytes());
        self.trio.write_invalidate(name, &self.block, WriteKind::ChangedData)?;
        span(Kind::CacheWrite);
        self.written[slot] = self.n;
        self.entry[..8].copy_from_slice(&self.n.to_be_bytes());
        self.trio.enqueue(self.thread, self.n, &self.entry)?;
        span(Kind::ListEnqueue);
        let taken = self.trio.take(self.thread)?;
        span(Kind::ListTake);
        good &= taken.is_some_and(|e| e.key == self.n && e.data == self.entry);
        self.trio.release_lock(entry)?;
        span(Kind::LockRelease);
        Ok(good)
    }
}

/// The shared client body of the CF workloads.
fn cf_client<T: Trio>(c: &mut Client, mut cycler: Cycler<T>, warmup: usize) {
    for _ in 0..warmup {
        if !matches!(cycler.cycle(&mut None), Ok(true)) {
            c.log.failed += 1;
        }
        c.calibrate(Instant::now());
    }
    c.start_window();
    while c.running() {
        let start = Instant::now();
        let mut spans = c.sample(start).map(|request| c.log.spans.root(request, Kind::Cycle, start));
        let good = matches!(cycler.cycle(&mut spans), Ok(true));
        let end = Instant::now();
        if let Some(root) = spans {
            root.close_at(end);
        }
        c.record(start, end, good);
        c.calibrate(end);
    }
}

fn cf_outcome(
    rig: &CfRig,
    setups_s: Vec<f64>,
    window: Window,
    clients: Vec<ClientLog>,
    extra: Vec<(&'static str, f64)>,
    pinned: bool,
) -> Outcome {
    // Over the rig's whole life, now that every thread that issued
    // commands has ended; a snapshot taken while the socket's server thread
    // is between a reply and its bookkeeping is off by that one command.
    let checks = vec![reconciles(&rig.counters())];
    let layer_txns = clients.iter().map(|c| c.completed()).sum::<u64>() as f64;
    Outcome { setups_s, window, clients, checks, layer_txns, extra, pinned }
}

/// Build the CF rig and preload every block the clients will cycle over,
/// so no block is first created inside the window.
fn build_cf_rig(threads: usize) -> CfRig {
    let rig = CfRig::build(threads);
    let (_, cache, _) = native_trio(&rig);
    let block = vec![0u8; CF_BLOCK_BYTES];
    for thread in 0..threads {
        for slot in 0..CF_SLOTS {
            cache
                .write_invalidate(
                    BlockName::from_parts(thread as u32, slot as u64),
                    &block,
                    WriteKind::ChangedData,
                )
                .expect("preload block");
        }
    }
    rig
}

fn cf_direct(plan: &Plan, threads: usize) -> Outcome {
    let (rig, setups_s) = set_up(plan, CF_SETUPS, || build_cf_rig(threads), drop);
    let (window, results) = drive(threads, plan, &|| rig.counters(), &|c: &mut Client| {
        let cycler = Cycler::new(native_trio(&rig), c.index, plan.seed + c.index as u64);
        c.trace_every = CF_DIRECT_TRACE_EVERY;
        c.reference = Some(Reference::in_process());
        cf_client(c, cycler, CF_DIRECT_WARMUP_CYCLES);
    });
    let clients = results.into_iter().map(|(log, ())| log).collect();
    cf_outcome(&rig, setups_s, window, clients, Vec::new(), false)
}

fn cf_tcp(plan: &Plan) -> Outcome {
    // Client and server on one CPU (see [`Pinned`] for why).
    let cpu = socket_cpu();
    // Set-up includes the listener, the served stream and the three
    // remote attaches: what a member pays before its first command.
    let build = || {
        let rig = build_cf_rig(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let cf = Arc::clone(&rig.cf);
        let server = std::thread::spawn(move || {
            let pin = cpu.and_then(Pinned::to);
            let (stream, _) = listener.accept().expect("accept");
            serve_cf_stream(&InProcessTransport::new(&cf), stream).map(|()| pin.is_some())
        });
        let transport: Arc<dyn CfTransport> =
            Arc::new(TcpTransport::connect(addr).expect("connect loopback"));
        let trio = (
            RemoteLockConnection::attach(Arc::clone(&transport), LOCK_STRUCTURE).expect("attach lock"),
            RemoteCacheConnection::attach(Arc::clone(&transport), CACHE_STRUCTURE, CF_SLOTS)
                .expect("attach cache"),
            RemoteListConnection::attach(transport, LIST_STRUCTURE, CF_SLOTS).expect("attach list"),
        );
        (rig, trio, server)
    };
    // Dropping the trio closes the stream, which ends the server thread.
    let discard = |(rig, trio, server): (CfRig, _, std::thread::JoinHandle<std::io::Result<bool>>)| {
        drop(trio);
        server.join().expect("server thread").expect("serve_cf_stream");
        drop(rig);
    };
    let ((rig, trio, server), setups_s) = set_up(plan, CF_SETUPS, build, discard);

    let trio = std::sync::Mutex::new(Some(trio));
    let (window, results) = drive(1, plan, &|| rig.counters(), &|c: &mut Client| {
        let trio = trio.lock().expect("trio lock").take().expect("one client");
        let pin = cpu.and_then(Pinned::to);
        c.reference = Some(Reference::socket().expect("loopback pair for the reference"));
        cf_client(c, Cycler::new(trio, 0, plan.seed), CF_TCP_WARMUP_CYCLES);
        pin.is_some()
    });
    let server_pinned = server.join().expect("server thread").expect("serve_cf_stream");
    let pinned = server_pinned && results.iter().all(|(_, client_pinned)| *client_pinned);
    let clients: Vec<ClientLog> = results.into_iter().map(|(log, _)| log).collect();

    let mut extra = Vec::new();
    if plan.trace {
        // What the wire adds per command: the socket cycle minus the same
        // cycle in process on this rig, over the six commands.
        let mut local = Cycler::new(native_trio(&rig), 0, plan.seed);
        let t = Instant::now();
        for _ in 0..CF_DIRECT_WARMUP_CYCLES {
            local.cycle(&mut None).expect("in-process cycle");
        }
        let local_ns = t.elapsed().as_nanos() as f64 / CF_DIRECT_WARMUP_CYCLES as f64;
        let tcp: Vec<u64> = clients[0].latencies_ns.iter().flatten().map(|&n| n as u64).collect();
        let tcp_ns = crate::stats::mean(&tcp);
        extra.push(("core.transport.wire_us_per_cmd", (tcp_ns - local_ns) / 6.0 / 1e3));
        extra.push(("core.wire.bytes_per_txn", cycle_wire_bytes(&rig) as f64));
    }
    cf_outcome(&rig, setups_s, window, clients, extra, pinned)
}

/// Bytes one cycle puts on the wire, both directions, frame headers
/// included: the six requests are encoded as the remote connections
/// encode them and answered by the same dispatcher the server runs.
fn cycle_wire_bytes(rig: &CfRig) -> usize {
    let transport = InProcessTransport::new(&rig.cf);
    let handle_of = |req: WireRequest| match transport.dispatch(req) {
        parallel_sysplex::cf::WireResponse::Attached { handle, .. } => handle,
        other => panic!("attach answered {other:?}"),
    };
    let lock = handle_of(WireRequest::AttachLock { structure: LOCK_STRUCTURE.into() });
    let cache = handle_of(WireRequest::AttachCache {
        structure: CACHE_STRUCTURE.into(),
        vector_len: CF_SLOTS as u64,
    });
    let list =
        handle_of(WireRequest::AttachList { structure: LIST_STRUCTURE.into(), vector_len: CF_SLOTS as u64 });
    let name = BlockName::from_parts(9, 9);
    let cycle = [
        WireRequest::LockRequest { handle: lock, entry: 9 * CF_SLOTS as u64, mode: LockMode::Exclusive },
        WireRequest::CacheWrite {
            handle: cache,
            name,
            data: vec![0; CF_BLOCK_BYTES],
            kind: WriteKind::ChangedData,
        },
        WireRequest::CacheRead { handle: cache, name, vector_index: 0 },
        WireRequest::ListEnqueue {
            handle: list,
            header: 0,
            key: 1,
            data: vec![0; CF_ENTRY_BYTES],
            position: WritePosition::Tail,
            cond: LockCondition::None,
        },
        WireRequest::ListTake { handle: list, header: 0, end: DequeueEnd::Head, cond: LockCondition::None },
        WireRequest::LockRelease { handle: lock, entry: 9 * CF_SLOTS as u64 },
    ];
    let bytes = cycle
        .into_iter()
        .map(|req| {
            let sent = req.encode().len();
            sent + transport.dispatch(req).encode().len() + 2 * FRAME_HEADER_BYTES
        })
        .sum();
    transport.detach_all();
    bytes
}
