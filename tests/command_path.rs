//! The unified CF command path under load and under faults.
//!
//! Every CF operation an exploiter issues — lock, cache, or list — flows
//! through a [`parallel_sysplex::cf::CfSubchannel`], which accounts it as
//! synchronous or async-converted (§3.3's two execution modes) from its
//! descriptor, keeps per-class latency, and surfaces injected link
//! malfunctions as typed errors.
//! These tests drive the full stack from N emulated systems and reconcile
//! the facility-wide books.

use parallel_sysplex::cf::cache::{BlockName, CacheParams, WriteKind};
use parallel_sysplex::cf::list::{DequeueEnd, ListParams, LockCondition, WritePosition};
use parallel_sysplex::cf::lock::{LockMode, LockParams};
use parallel_sysplex::cf::{CacheConnection, ListConnection, LockConnection, SystemId};
use parallel_sysplex::cf::{CfConfig, CfError, CommandClass, ConnectionStats, CouplingFacility, LinkFault};
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::workload::debitcredit::{DebitCreditConfig, DebitCreditGenerator};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// N systems hammer all three structure models concurrently; afterwards
/// the facility-wide accounting must reconcile exactly: every command was
/// issued through a subchannel and ran in exactly one of the two modes.
#[test]
fn mixed_sync_async_traffic_reconciles_across_systems() {
    const SYSTEMS: usize = 4;
    const OPS: usize = 200;

    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("LOCK1", LockParams::with_entries(256)).unwrap();
    cf.allocate_cache_structure("GBP0", CacheParams::store_in(512)).unwrap();
    cf.allocate_list_structure("WORKQ", ListParams::with_headers(2)).unwrap();

    let handles: Vec<_> = (0..SYSTEMS)
        .map(|sys| {
            let cf = Arc::clone(&cf);
            std::thread::spawn(move || {
                let lock = cf.connect_lock("LOCK1").unwrap();
                let cache = cf.connect_cache("GBP0", 64).unwrap();
                let list = cf.connect_list("WORKQ", 1).unwrap();
                let blk = parallel_sysplex::cf::cache::BlockName::from_parts(sys as u32, 1);
                // An oversized payload: its descriptor converts it.
                let big = vec![0u8; 16 * 1024];
                for i in 0..OPS {
                    let entry = (sys * OPS + i) % 256;
                    lock.request_lock(entry, LockMode::Shared).unwrap();
                    lock.release_lock(entry).unwrap();
                    cache.register_read(blk, 0).unwrap();
                    if i % 10 == 0 {
                        cache.write_invalidate(blk, &big, WriteKind::ChangedData).unwrap();
                    } else {
                        cache.write_invalidate(blk, b"small", WriteKind::ChangedData).unwrap();
                    }
                    let id =
                        list.enqueue(0, i as u64, b"item", WritePosition::Tail, LockCondition::None).unwrap();
                    if i % 7 == 0 {
                        // Bulk scan: always async-converted.
                        list.scan(0).unwrap();
                    }
                    list.delete(id, LockCondition::None).unwrap();
                }
                // Drain check on the untouched header: nothing there.
                assert!(list.take(1, DequeueEnd::Head, LockCondition::None).unwrap().is_none());
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = cf.command_stats();
    // The invariant the connection layer maintains: every issued command
    // ran in exactly one mode, per class and in total.
    for (class, issued, sync, async_converted, _mean_ns) in stats.report() {
        assert_eq!(issued, sync + async_converted, "{class}: issued == sync + async");
    }
    assert_eq!(stats.issued(), stats.sync() + stats.async_converted());
    // Both execution modes actually happened: small commands stayed
    // CPU-synchronous, bulk scans and oversized writes converted.
    assert!(stats.sync() > 0, "sync commands ran");
    assert!(stats.async_converted() > 0, "async conversions happened");
    // Lower bound on traffic: 2 lock + 2 cache + 2 list commands per op.
    assert!(stats.issued() >= (SYSTEMS * OPS * 6) as u64, "issued={}", stats.issued());
}

/// What one thread did, counted by the thread itself: the books the
/// facility-wide sums are reconciled against.
#[derive(Default)]
struct Tally {
    issued: [u64; CommandClass::COUNT],
    converted: [u64; CommandClass::COUNT],
    max_ns: [u64; CommandClass::COUNT],
    lock_requests: u64,
    lock_releases: u64,
    cache_reads: u64,
    cache_read_hits: u64,
    cache_writes: u64,
    list_writes: u64,
    list_dequeues: u64,
}

impl Tally {
    fn issue(&mut self, class: CommandClass, n: u64) {
        self.issued[class.index()] += n;
    }

    /// Fold in the high-water marks of one connection's own cell.
    fn note_max(&mut self, cell: &ConnectionStats) {
        for class in CommandClass::ALL {
            let max = &mut self.max_ns[class.index()];
            *max = (*max).max(cell.class(class).latency.max_ns());
        }
    }

    fn merge(&mut self, other: &Tally) {
        for i in 0..CommandClass::COUNT {
            self.issued[i] += other.issued[i];
            self.converted[i] += other.converted[i];
            self.max_ns[i] = self.max_ns[i].max(other.max_ns[i]);
        }
        self.lock_requests += other.lock_requests;
        self.lock_releases += other.lock_releases;
        self.cache_reads += other.cache_reads;
        self.cache_read_hits += other.cache_read_hits;
        self.cache_writes += other.cache_writes;
        self.list_writes += other.list_writes;
        self.list_dequeues += other.list_dequeues;
    }
}

type Trio = (LockConnection, CacheConnection, ListConnection);

fn attach_trio(cf: &CouplingFacility, tally: &mut Tally) -> Trio {
    tally.issue(CommandClass::LockAdmin, 1);
    tally.issue(CommandClass::CacheAdmin, 1);
    tally.issue(CommandClass::ListAdmin, 1);
    (
        cf.connect_lock("LOCK1").unwrap(),
        cf.connect_cache("GBP0", 64).unwrap(),
        cf.connect_list("WORKQ", 1).unwrap(),
    )
}

/// `cycles` rounds of the six-command cycle over `thread`'s own entries,
/// blocks and header, plus a bulk scan (async-converted) every 16th.
fn run_cycles(thread: usize, (lock, cache, list): &Trio, cycles: u64, tally: &mut Tally) {
    let page = vec![thread as u8; 4096];
    for n in 0..cycles {
        let slot = (n % 32) as usize;
        let entry = thread * 64 + slot;
        let blk = BlockName::from_parts(thread as u32, slot as u64);
        assert!(lock.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        tally.cache_read_hits += u64::from(cache.register_read(blk, slot as u32).unwrap().data.is_some());
        cache.write_invalidate(blk, &page, WriteKind::ChangedData).unwrap();
        list.enqueue(thread, n, b"item", WritePosition::Tail, LockCondition::None).unwrap();
        if n % 16 == 0 {
            assert_eq!(list.scan(thread).unwrap().len(), 1);
            tally.issue(CommandClass::ListRead, 1);
            tally.converted[CommandClass::ListRead.index()] += 1;
        }
        assert!(list.take(thread, DequeueEnd::Head, LockCondition::None).unwrap().is_some());
        lock.release_lock(entry).unwrap();
    }
    for class in [
        CommandClass::LockRequest,
        CommandClass::LockRelease,
        CommandClass::CacheRead,
        CommandClass::CacheWrite,
        CommandClass::ListWrite,
        CommandClass::ListMove,
    ] {
        tally.issue(class, cycles);
    }
    tally.lock_requests += cycles;
    tally.lock_releases += cycles;
    tally.cache_reads += cycles;
    tally.cache_writes += cycles;
    tally.list_writes += cycles;
    tally.list_dequeues += cycles;
    for cell in [lock.stats(), cache.stats(), list.stats()] {
        tally.note_max(cell);
    }
}

/// Accounting lives in one cell per connection and one row per connector
/// slot; the facility-wide and structure-wide numbers are sums taken on
/// read. The sums must be *exact*: four threads with their own connection
/// trios, one trio dropped and replaced mid-run (its cell is retired into
/// the facility's books), one connection cloned onto a second thread (two
/// writers, one cell) — afterwards every count equals what the threads
/// themselves counted.
#[test]
fn per_connection_cells_sum_exactly() {
    const THREADS: usize = 4;
    const CYCLES: u64 = 2_000;

    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    let lock = cf.allocate_lock_structure("LOCK1", LockParams::with_entries(512)).unwrap();
    let cache = cf.allocate_cache_structure("GBP0", CacheParams::store_in(512)).unwrap();
    let list = cf.allocate_list_structure("WORKQ", ListParams::with_headers(THREADS)).unwrap();

    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let cf = &cf;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let trio = attach_trio(cf, &mut tally);
                    match thread {
                        // A clone of this thread's lock connection works a
                        // second thread: same connector, same cell.
                        0 => {
                            let cloned = trio.0.clone();
                            let helper = std::thread::spawn(move || {
                                for n in 0..CYCLES {
                                    let entry = 384 + (n % 32) as usize;
                                    assert!(cloned
                                        .request_lock(entry, LockMode::Shared)
                                        .unwrap()
                                        .is_granted());
                                    cloned.release_lock(entry).unwrap();
                                }
                            });
                            run_cycles(thread, &trio, CYCLES, &mut tally);
                            helper.join().unwrap();
                            tally.issue(CommandClass::LockRequest, CYCLES);
                            tally.issue(CommandClass::LockRelease, CYCLES);
                            tally.lock_requests += CYCLES;
                            tally.lock_releases += CYCLES;
                            tally.note_max(trio.0.stats());
                        }
                        // This trio goes away mid-run; a fresh one carries on.
                        1 => {
                            run_cycles(thread, &trio, CYCLES / 2, &mut tally);
                            drop(trio);
                            let trio = attach_trio(cf, &mut tally);
                            run_cycles(thread, &trio, CYCLES / 2, &mut tally);
                        }
                        _ => run_cycles(thread, &trio, CYCLES, &mut tally),
                    }
                    tally
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut expected = Tally::default();
    tallies.iter().for_each(|t| expected.merge(t));

    let stats = cf.command_stats();
    for class in CommandClass::ALL {
        let (i, c) = (class.index(), stats.class(class));
        let name = class.name();
        assert_eq!(c.issued.get(), expected.issued[i], "{name}: issued");
        assert_eq!(c.async_converted.get(), expected.converted[i], "{name}: async_converted");
        assert_eq!(c.issued.get(), c.sync.get() + c.async_converted.get(), "{name}: issued == sync + async");
        assert_eq!(c.faulted.get(), 0, "{name}: faulted");
        let latency = c.latency.snapshot();
        assert_eq!(latency.samples, c.issued.get(), "{name}: one sample per command");
        assert_eq!(latency.buckets.iter().sum::<u64>(), latency.samples, "{name}: buckets hold every sample");
        assert_eq!(latency.max_ns, expected.max_ns[i], "{name}: max is the max over the cells");
    }
    assert_eq!(stats.issued(), expected.issued.iter().sum::<u64>());
    assert!(stats.async_converted() > 0 && stats.sync() > 0, "both modes ran");

    assert_eq!(lock.stats.requests.get(), expected.lock_requests);
    assert_eq!(lock.stats.sync_grants.get(), expected.lock_requests, "disjoint entries: all granted");
    assert_eq!(lock.stats.contentions.get(), 0);
    assert_eq!(lock.stats.releases.get(), expected.lock_releases);
    assert_eq!(cache.stats.reads.get(), expected.cache_reads);
    assert_eq!(cache.stats.read_hits.get(), expected.cache_read_hits);
    assert_eq!(cache.stats.writes.get(), expected.cache_writes);
    // The dropped trio never detached: its 32 registrations are
    // cross-invalidated by its replacement's first writes, and by nobody else.
    assert_eq!(cache.stats.xi_signals.get(), 32);
    assert_eq!(list.stats.writes.get(), expected.list_writes);
    assert_eq!(list.stats.dequeues.get(), expected.list_dequeues);
    assert_eq!(list.stats.deletes.get(), expected.list_dequeues);
}

/// Placement: every subchannel's cell starts on its own 128-byte line and
/// covers whole lines, so two connections never write the same line; and
/// a cell is its words (12 classes x 71 words), not a padded line each.
#[test]
fn accounting_cells_never_share_a_line() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    let subs: Vec<_> = (0..8).map(|_| cf.subchannel()).collect();
    let size = std::mem::size_of::<ConnectionStats>();
    assert_eq!(size, 6912, "12 x 71 x 8 B = 6816, rounded up to whole lines");
    assert_eq!(size % 128, 0);
    let mut lines = std::collections::HashSet::new();
    for sub in &subs {
        let start = Arc::as_ptr(sub.stats()) as usize;
        assert_eq!(start % 128, 0, "cell starts on a line boundary");
        assert!((start / 128..(start + size) / 128).all(|line| lines.insert(line)), "line shared");
    }
    // A clone is the same connection: same cell.
    assert!(Arc::ptr_eq(subs[0].stats(), subs[0].clone().stats()));
    assert!(!Arc::ptr_eq(subs[0].stats(), subs[0].sibling().stats()));
}

/// An injected link malfunction surfaces as a typed [`CfError`] on the
/// issuing exploiter — never a panic, and the facility keeps serving
/// subsequent commands.
#[test]
fn injected_link_faults_surface_as_typed_errors() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("LOCK1", LockParams::with_entries(16)).unwrap();
    let conn = cf.connect_lock("LOCK1").unwrap();

    // Lost command: the issuer times out.
    cf.inject_fault(LinkFault::Timeout);
    let err = conn.request_lock(3, LockMode::Exclusive).unwrap_err();
    assert!(matches!(err, CfError::LinkTimeout(_)), "got {err:?}");

    // Channel subsystem malfunction mid-command.
    cf.inject_fault(LinkFault::InterfaceControlCheck);
    let err = conn.request_lock(3, LockMode::Exclusive).unwrap_err();
    assert!(matches!(err, CfError::InterfaceControlCheck(_)), "got {err:?}");

    // A degraded link only delays; the command still completes.
    cf.inject_fault(LinkFault::Delay(Duration::from_micros(50)));
    assert!(conn.request_lock(3, LockMode::Exclusive).unwrap().is_granted());
    conn.release_lock(3).unwrap();

    // The books record the faults without breaking the mode invariant.
    let stats = cf.command_stats();
    assert_eq!(stats.faulted(), 2);
    assert_eq!(stats.issued(), stats.sync() + stats.async_converted());
}

/// Faults injected under a live data-sharing group surface as clean
/// database errors on the member that hit them; the group keeps running.
#[test]
fn database_member_survives_injected_cf_fault() {
    let plex = Sysplex::new(SysplexConfig::functional("FIPLEX"));
    let cf = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(200);
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    let db = group.add_member(SystemId::new(0)).unwrap();
    db.run(10, |db, txn| db.write(txn, 1, Some(b"before"))).unwrap();

    // One lost command somewhere in the next transaction's CF traffic.
    cf.inject_fault(LinkFault::Timeout);
    let _ = db.run(0, |db, txn| db.write(txn, 2, Some(b"during")));

    // The member (and the facility) keep serving.
    db.run(10, |db, txn| db.write(txn, 3, Some(b"after"))).unwrap();
    let v = db.run(10, |db, txn| db.read(txn, 1)).unwrap().unwrap();
    assert_eq!(v, b"before");
    assert!(cf.command_stats().faulted() >= 1);
    group.remove_member(SystemId::new(0));
}

/// The member-side lock path may get cheaper; what it asks of the CF may
/// not change unnoticed. 500 seeded debit-credit transactions on one
/// member (no castout daemon, so nothing free-running issues commands)
/// must produce exactly this command stream, class by class, and exactly
/// these lock-manager outcomes.
#[test]
fn single_member_debit_credit_traffic_is_pinned() {
    let plex = Sysplex::new(SysplexConfig::functional("PINPLEX"));
    let cf = plex.add_cf("CF01");
    let config = GroupConfig { pages: 512, ..GroupConfig::default() };
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    let db = group.add_member(SystemId::new(0)).unwrap();

    let schema = DebitCreditConfig {
        branches: 3,
        tellers_per_branch: 4,
        accounts_per_branch: 40,
        remote_fraction: 0.2,
    };
    let mut gen = DebitCreditGenerator::new(schema, 1996);
    let layout = gen.layout();
    let before = cf.command_stats();
    for _ in 0..500 {
        let t = gen.next_txn();
        db.run(0, |db, txn| {
            let keys = [
                layout.account(t.account_branch, t.account),
                layout.teller(t.home_branch, t.teller),
                layout.branch(t.home_branch),
            ];
            for k in keys {
                let v = db.read(txn, k)?.map_or(0, |v| i64::from_be_bytes(v[..8].try_into().unwrap()));
                db.write(txn, k, Some(&(v + t.delta).to_be_bytes()))?;
            }
            db.write(txn, layout.history_base() + t.history_seq, Some(&t.delta.to_be_bytes()))?;
            // One row nobody ever writes, read twice: a Shared grant is
            // never cached, so the first read's is released by a CF
            // command at commit — `unlock_all`'s releases are part of the
            // pinned stream — and the second read is a covered local grant.
            assert_eq!(db.read(txn, u64::MAX - t.history_seq)?, None);
            assert_eq!(db.read(txn, u64::MAX - t.history_seq)?, None);
            Ok(())
        })
        .unwrap();
    }
    let after = cf.command_stats();
    let issued: Vec<(&str, u64)> = CommandClass::ALL
        .iter()
        .map(|&c| (c.name(), after.class(c).issued.get() - before.class(c).issued.get()))
        .filter(|&(_, n)| n > 0)
        .collect();
    let irlm = &db.irlm().stats;
    let outcomes = [
        ("requests", irlm.requests.get()),
        ("grants_local", irlm.grants_local.get()),
        ("regrants_local", irlm.regrants_local.get()),
        ("grants_cf_sync", irlm.grants_cf_sync.get()),
        ("lazy_releases", irlm.lazy_releases.get()),
    ];
    // Captured at the parent of the change that rebuilt the IRLM's tables
    // on pre-hashed names (PR 16); identical before and after it. PR 23
    // moved one count, `cache-read` 2 938 -> 942: `put_page` no longer
    // re-registers a block whose frame the committer's own `get_page` has
    // just left ready and valid (1 996 writes, each of which used to cost a
    // registration; the 942 left are the reads that miss the pool). PR 25
    // moved two, the command packaging and nothing else: `lock-record`
    // 4 000 -> 1 454 (a CF-granted persistent request carries its record —
    // 546 of the 2 000 did — and the deletes ride in the release set) and
    // `lock-release` 433 -> 500 (every commit now sends exactly one release
    // set, since each gives up four records; 433 was the count of entries
    // released one command each). Moving FIFO eviction to the end of a
    // transaction left the outcome counts below exactly where they were.
    // The one-command buffer steal dropped a class, `cache-admin` 686 ->
    // absent: each of the 686 steals used to unregister the evicted page by
    // a command of its own; the refill's `cache-read` now drops that
    // registration, so `cache-read` stays 942 and nothing else moves.
    // The one-command commit moved two: `cache-write` 1 996 -> 500 (each
    // commit writes its pages as one set) and `lock-record` 1 454 -> 497
    // (a local re-grant's record waits for its commit's one record set;
    // 3 of the 500 commits owed none), and one outcome, `lazy_releases`
    // 4 062 -> 4 061: a commit now holds all its page P-locks to the end,
    // so where two of its pages share a hash class the class empties, and
    // parks, once rather than twice. The version-checked commit takes no
    // page P-lock at all: `lock-request` 1 562 -> 1 179, and of the
    // outcomes `requests` 6 496 -> 4 500 (the 1 996 page P-locks),
    // `regrants_local` 4 434 -> 2 821, `grants_cf_sync` 1 562 -> 1 179 and
    // `lazy_releases` 4 061 -> 2 033; nothing else moves.
    assert_eq!(
        issued,
        [
            ("lock-request", 1179),
            ("lock-release", 500),
            ("lock-record", 497),
            ("cache-read", 942),
            ("cache-write", 500),
        ]
    );
    assert_eq!(
        outcomes,
        [
            ("requests", 4500),
            ("grants_local", 500),
            ("regrants_local", 2821),
            ("grants_cf_sync", 1179),
            ("lazy_releases", 2033),
        ]
    );
    group.remove_member(SystemId::new(0));
}

// ----- IRLM vs a reference model -----

#[derive(Debug, Clone)]
enum IrlmOp {
    Lock { txn: u8, res: usize, exclusive: bool, persistent: bool },
    Unlock { txn: u8, res: usize },
    UnlockAll { txn: u8 },
    WriteRecords { txn: u8 },
}

fn irlm_op_strategy() -> impl Strategy<Value = IrlmOp> {
    prop_oneof![
        4 => (0u8..3, 0usize..6, any::<bool>(), any::<bool>()).prop_map(|(txn, res, exclusive, persistent)| {
            IrlmOp::Lock { txn, res, exclusive, persistent }
        }),
        2 => (0u8..3, 0usize..6).prop_map(|(txn, res)| IrlmOp::Unlock { txn, res }),
        1 => (0u8..3).prop_map(|txn| IrlmOp::UnlockAll { txn }),
        1 => (0u8..3).prop_map(|txn| IrlmOp::WriteRecords { txn }),
    ]
}

/// What one IRLM with no peer must do, written the slow obvious way.
#[derive(Default)]
struct IrlmModel {
    /// resource -> transaction -> (mode, asked for a record).
    holders: BTreeMap<usize, BTreeMap<u8, (LockMode, bool)>>,
    /// Resources with a CF record (one per connector, whoever wrote it).
    records: BTreeSet<usize>,
    /// Resources whose record a grant owes: one whose own command wrote
    /// none. Written by `write_records` of a persistent holder.
    owed: BTreeSet<usize>,
    /// Hash classes with CF interest, and those whose sole-interest
    /// exclusive grant is cached (kept, parked, when the class empties).
    interest: BTreeSet<usize>,
    cached: BTreeSet<usize>,
}

impl IrlmModel {
    fn lock(&mut self, class: usize, txn: u8, res: usize, mode: LockMode, persistent: bool) -> bool {
        let held = self.holders.entry(res).or_default();
        if held.iter().any(|(&t, &(m, _))| t != txn && LockMode::Exclusive == m.max(mode)) {
            return false;
        }
        let own_exclusive = held.get(&txn).is_some_and(|h| h.0 == LockMode::Exclusive);
        let covered = !held.is_empty() && (mode == LockMode::Shared || own_exclusive);
        let to_cf = !covered && !self.cached.contains(&class);
        if to_cf {
            // A CF request; alone in the structure it is always granted.
            self.interest.insert(class);
            if mode == LockMode::Exclusive {
                self.cached.insert(class);
            }
        }
        // What the record says before the grant: the strongest persistent
        // hold.
        let recorded = held.values().filter(|h| h.1).map(|h| h.0).max();
        let h = held.entry(txn).or_insert((mode, false));
        *h = (h.0.max(mode), h.1 || persistent);
        if persistent && to_cf {
            // The request's command carries the record.
            self.records.insert(res);
            self.owed.remove(&res);
        } else if persistent && recorded < Some(h.0) {
            self.owed.insert(res);
        }
        true
    }

    fn write_records(&mut self, txn: u8) {
        let holders = &self.holders;
        let mine: Vec<usize> = self
            .owed
            .iter()
            .copied()
            .filter(|r| holders.get(r).and_then(|held| held.get(&txn)).is_some_and(|h| h.1))
            .collect();
        for res in mine {
            self.owed.remove(&res);
            self.records.insert(res);
        }
    }

    fn unlock(&mut self, classes: &[usize], txn: u8, res: usize) {
        let Some(held) = self.holders.get_mut(&res) else { return };
        let Some((_, persistent)) = held.remove(&txn) else { return };
        // The record lives while any holder is persistent.
        if persistent && !held.values().any(|&(_, persistent)| persistent) {
            self.records.remove(&res);
            self.owed.remove(&res);
        }
        if held.is_empty() {
            self.holders.remove(&res);
            let class = classes[res];
            if !self.cached.contains(&class) && !self.holders.keys().any(|&r| classes[r] == class) {
                self.interest.remove(&class);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random lock / unlock / unlock_all sequences from three transactions
    /// over six resources — two of them in one hash class — leave the IRLM
    /// and the structure exactly where the model says, step by step.
    #[test]
    fn irlm_matches_reference_model(ops in proptest::collection::vec(irlm_op_strategy(), 0..80)) {
        use parallel_sysplex::db::irlm::{Irlm, LockOutcome};
        use parallel_sysplex::services::timer::SysplexTimer;
        use parallel_sysplex::services::xcf::Xcf;

        let xcf = Xcf::new(SysplexTimer::new());
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let structure = cf.allocate_lock_structure("IRLMLOCK1", LockParams::with_entries(4096)).unwrap();
        let irlm = Irlm::start(SystemId::new(0), cf.connect_lock("IRLMLOCK1").unwrap(), &xcf).unwrap();
        let mut names: Vec<Vec<u8>> = (0..5).map(|i| format!("RES.{i}").into_bytes()).collect();
        let collider = (0..).map(|i| format!("RES.X{i}").into_bytes())
            .find(|n| structure.hash_resource(n) == structure.hash_resource(&names[0]))
            .unwrap();
        names.push(collider);
        let classes: Vec<usize> = names.iter().map(|n| structure.hash_resource(n)).collect();
        prop_assert_eq!(classes.iter().collect::<BTreeSet<_>>().len(), 5);

        let mut model = IrlmModel::default();
        let txn_id = |txn: u8| 100 + txn as u64;
        let check = |model: &IrlmModel| {
            for txn in 0..3u8 {
                let want: Vec<(Vec<u8>, LockMode)> = {
                    let mut v: Vec<_> = model.holders.iter()
                        .filter_map(|(&r, held)| held.get(&txn).map(|h| (names[r].clone(), h.0)))
                        .collect();
                    v.sort();
                    v
                };
                assert_eq!(irlm.held_by(txn_id(txn)), want);
            }
            for (r, name) in names.iter().enumerate() {
                let want = model.holders.get(&r).and_then(|held| held.values().map(|h| h.0).max());
                assert_eq!(irlm.local_mode(name), want);
            }
            assert_eq!(structure.interest_count(irlm.conn()), model.interest.len());
            assert_eq!(structure.record_count(), model.records.len());
        };
        for op in ops {
            match op {
                IrlmOp::Lock { txn, res, exclusive, persistent } => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let want = model.lock(classes[res], txn, res, mode, persistent);
                    let got = irlm.lock(txn_id(txn), &names[res], mode, persistent).unwrap();
                    prop_assert_eq!(got == LockOutcome::Granted, want);
                }
                IrlmOp::Unlock { txn, res } => {
                    model.unlock(&classes, txn, res);
                    irlm.unlock(txn_id(txn), &names[res]).unwrap();
                }
                IrlmOp::UnlockAll { txn } => {
                    for res in 0..names.len() {
                        model.unlock(&classes, txn, res);
                    }
                    irlm.unlock_all(txn_id(txn)).unwrap();
                }
                IrlmOp::WriteRecords { txn } => {
                    model.write_records(txn);
                    irlm.write_records(txn_id(txn)).unwrap();
                }
            }
            check(&model);
        }
        for txn in 0..3u8 {
            for res in 0..names.len() {
                model.unlock(&classes, txn, res);
            }
            irlm.unlock_all(txn_id(txn)).unwrap();
        }
        check(&model);
        prop_assert!(model.holders.is_empty() && model.records.is_empty() && model.owed.is_empty());
        prop_assert_eq!(model.interest.clone(), model.cached.clone());
        irlm.shutdown();
    }
}
