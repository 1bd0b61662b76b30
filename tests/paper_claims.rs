//! The paper's count and shape claims, one test per row of EXPERIMENTS.md.
//!
//! Each test keeps the input, seed and bound its row was first measured
//! with, so a regression in the claim fails tier-1. What is not here:
//!
//! * rates (µs per CF command, ns per validity check, txn/s) — a tier-1
//!   assert on host timing only measures the host; plexbench's probes
//!   (`BENCHMARK.json`) time the same paths;
//! * model-only rows (Figure 3, the model halves of E2/E3, E6, E7's
//!   timeline) — `sysplex-sim`'s unit tests and
//!   `tests/failover_recovery.rs` assert them.
//!
//! One row has been false since `0a2468a` (hierarchical lock caching).
//! It is `#[ignore]`d with its measured values and runs with
//! `cargo test --test paper_claims -- --ignored`; it is un-ignored when
//! its bound holds again.

use parallel_sysplex::cf::cache::{BlockName, CacheParams, CacheStructure, WriteKind};
use parallel_sysplex::cf::facility::{CfConfig, CouplingFacility};
use parallel_sysplex::cf::link::LinkConfig;
use parallel_sysplex::cf::list::{ListParams, ListStructure, LockCondition, WritePosition};
use parallel_sysplex::cf::lock::{LockMode, LockParams};
use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::irlm::{Irlm, LockOutcome};
use parallel_sysplex::db::{Database, DbResult, Txn};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::services::system::SystemConfig;
use parallel_sysplex::services::timer::SysplexTimer;
use parallel_sysplex::services::wlm::{ServiceClass, Wlm};
use parallel_sysplex::services::xcf::Xcf;
use parallel_sysplex::sim::constants::{CF_OP_CPU_US, TXN_BASE_CPU_US};
use parallel_sysplex::sim::queueing::{run, Node, QueueSimConfig};
use parallel_sysplex::subsys::routing::TransactionRouter;
use parallel_sysplex::subsys::tm::{CicsRegion, TranDef};
use parallel_sysplex::subsys::vtam::{generic_resource_params, GenericResources};
use parallel_sysplex::subsys::workq::{queue_params, SharedQueue};
use parallel_sysplex::workload::debitcredit::{DebitCreditConfig, DebitCreditGenerator, KeyLayout};
use parallel_sysplex::workload::oltp::{OltpConfig, OltpGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A sysplex with one CF and a data-sharing group of `members` members.
struct Rig {
    plex: Arc<Sysplex>,
    group: Arc<DataSharingGroup>,
    dbs: Vec<Arc<Database>>,
}

impl Rig {
    fn new(members: u8, lock_entries: usize) -> Rig {
        let plex = Sysplex::new(SysplexConfig::functional("CLAIMPLEX"));
        let cf = plex.add_cf("CF01");
        let mut config = GroupConfig { lock_entries, ..GroupConfig::default() };
        config.db.lock_timeout = Duration::from_millis(500);
        let group =
            DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone())
                .expect("group");
        let dbs = (0..members).map(|i| group.add_member(SystemId::new(i)).expect("member")).collect();
        Rig { plex, group, dbs }
    }

    /// Run `txns` generated transactions round-robin over the members.
    fn drive(&self, gen: &mut OltpGenerator, txns: usize) {
        for (i, spec) in gen.batch(txns).into_iter().enumerate() {
            self.dbs[i % self.dbs.len()]
                .run(50, |db, txn| {
                    for k in &spec.reads {
                        db.read(txn, *k)?;
                    }
                    for (k, v) in &spec.writes {
                        db.write(txn, *k, Some(v))?;
                    }
                    Ok(())
                })
                .expect("txn");
        }
    }

    /// Lock requests, releases and record writes plus cache reads and
    /// writes: the CF operations a transaction costs.
    fn cf_ops(&self) -> u64 {
        let lock = self.group.lock_structure();
        let cache = self.group.cache_structure();
        lock.stats.requests.get()
            + lock.stats.releases.get()
            + lock.stats.records_written.get()
            + cache.stats.reads.get()
            + cache.stats.writes.get()
    }

    /// Silence the members' IRLM message exits.
    fn shutdown(&self) {
        for db in &self.dbs {
            db.irlm().crash();
        }
    }
}

/// An account's balance, read under the transaction's lock.
fn balance(db: &Database, txn: &mut Txn, key: u64) -> DbResult<i64> {
    Ok(i64::from_be_bytes(db.read(txn, key)?.expect("row")[..8].try_into().unwrap()))
}

/// Figure 1: 32 systems, two CFs, one timer and fully connected DASD come
/// up as one image; a 100 MB/s link moves any payload faster than 50 MB/s.
#[test]
fn fig1_32_systems_share_every_volume_and_one_timer() {
    let plex = Sysplex::new(SysplexConfig::functional("FIG1PLEX"));
    let _cf = plex.add_cf("CF01");
    let _cf2 = plex.add_cf("CF02");
    for i in 0..32u8 {
        plex.ipl(SystemConfig::cmos(SystemId::new(i), if i % 3 == 0 { 10 } else { 2 }));
    }
    assert_eq!(plex.active_systems().len(), 32);
    plex.farm.add_volume("SHARED", 16, 8).unwrap();
    plex.farm.write(0, "SHARED", 0, b"from sys00").unwrap();
    for i in 0..32u8 {
        assert_eq!(plex.farm.read(i, "SHARED", 0).unwrap(), b"from sys00");
    }
    let t1 = plex.timer.tod();
    let t2 = plex.timer.tod();
    assert!(t2 > t1);
    assert!(plex.tick().is_empty());
    for i in 0..32u8 {
        plex.remove_planned(SystemId::new(i));
    }

    let mut last = (Duration::ZERO, Duration::ZERO);
    for payload in [0usize, 256, 4096, 65_536] {
        let t = (LinkConfig::mb50().service_time(payload), LinkConfig::mb100().service_time(payload));
        assert!(t.1 <= t.0 && t.0 >= last.0 && t.1 >= last.1, "{payload} B: {t:?} after {last:?}");
        last = t;
    }
}

/// Figure 2 / §3.3.1: "the majority of requests for locks are granted
/// cpu-synchronously" under a mixed two-member workload.
#[test]
#[ignore = "fails since 0a2468a: 86.6 % sync grants, 13.43 % entry contention (83.6 %, 16.35 % before commits stopped taking page P-locks), from recalls of parked interest; ROADMAP 23"]
fn fig2_majority_of_lock_requests_granted_synchronously() {
    let rig = Rig::new(2, 4096);
    let mut gen = OltpGenerator::new(
        OltpConfig { keys: 1_000, reads_per_txn: 4, writes_per_txn: 2, skew: 0.5, value_len: 24 },
        11,
    );
    rig.drive(&mut gen, 400);
    let rates = rig.group.lock_structure().rates();
    rig.shutdown();
    assert!(
        rates.sync_grant_fraction > 0.9,
        "majority of lock requests granted synchronously: {:.1} % sync, {:.2} % entry contention",
        rates.sync_grant_fraction * 100.0,
        rates.contention_fraction * 100.0
    );
}

/// Figure 4 / §5.3: 6 000 logons to a generic name split by WLM capacity,
/// and re-logons after a system loss bind only to survivors.
#[test]
fn fig4_logons_track_capacity_and_rebind_after_a_failure() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    let list = cf.allocate_list_structure("ISTGENERIC", generic_resource_params()).unwrap();
    let wlm = Arc::new(Wlm::new());
    let capacities = [600.0, 300.0, 100.0];
    for (i, c) in capacities.iter().enumerate() {
        wlm.set_capacity(SystemId::new(i as u8), *c);
    }
    let gr = GenericResources::open(&list, cf.subchannel(), Arc::clone(&wlm)).unwrap();
    for i in 0..3u8 {
        gr.register_instance("CICS", &format!("CICS0{i}"), SystemId::new(i)).unwrap();
    }
    let logons = 6_000;
    for _ in 0..logons {
        gr.logon("CICS").unwrap();
    }
    let total_cap: f64 = capacities.iter().sum();
    for (inst, cap) in gr.instances("CICS").unwrap().iter().zip(capacities.iter()) {
        let share = inst.sessions as f64 / logons as f64;
        let cap_share = cap / total_cap;
        assert!(
            (share - cap_share).abs() < 0.02,
            "session share tracks capacity share: {share:.3} vs {cap_share:.3}"
        );
    }

    gr.fail_system(SystemId::new(0)).unwrap();
    wlm.set_online(SystemId::new(0), false);
    for _ in 0..1000 {
        assert_ne!(gr.logon("CICS").unwrap().system, SystemId::new(0));
    }
    assert_eq!(gr.instances("CICS").unwrap().len(), 2);
}

/// E2 / §4: "an incremental overhead cost of less than half a percent for
/// each system added". Live, CF operations (and XCF signals) per
/// transaction may grow by less than 2 % of the base transaction's CPU per
/// member added past two.
#[test]
fn e2_live_cf_ops_per_txn_grow_little_per_added_member() {
    let ops_per_txn = |members: u8| {
        let rig = Rig::new(members, 4096);
        let mut gen = OltpGenerator::new(
            OltpConfig { keys: 2_000, reads_per_txn: 3, writes_per_txn: 2, skew: 0.3, value_len: 16 },
            42,
        );
        let txns = 240;
        rig.drive(&mut gen, txns);
        let ops = rig.cf_ops() + rig.plex.xcf.signals_sent.load(Ordering::Relaxed);
        rig.shutdown();
        ops as f64 / txns as f64
    };
    let mut prev = ops_per_txn(2);
    for members in [3u8, 4] {
        let ops = ops_per_txn(members);
        assert!(
            (ops - prev) * CF_OP_CPU_US / TXN_BASE_CPU_US < 0.02,
            "live per-member growth stays small: {prev:.1} -> {ops:.1} ops/txn (+{:.2}) at {members} members",
            ops - prev
        );
        prev = ops;
    }
}

/// E3 / §4: "the initial data-sharing cost ... less than 18 %". Live, the
/// two-member group's CF operations, costed at the calibrated CPU per
/// operation, stay in the paper's regime.
#[test]
fn e3_live_implied_sharing_cost_stays_in_the_papers_regime() {
    let rig = Rig::new(2, 4096);
    let mut gen = OltpGenerator::new(
        OltpConfig { keys: 2_000, reads_per_txn: 3, writes_per_txn: 2, skew: 0.3, value_len: 16 },
        7,
    );
    let txns = 300;
    rig.drive(&mut gen, txns);
    let live_cost = rig.cf_ops() as f64 / txns as f64 * CF_OP_CPU_US / TXN_BASE_CPU_US;
    rig.shutdown();
    assert!(live_cost < 0.30, "live implied cost in the same regime as the paper: {live_cost:.3}");
}

/// E3b: the same on the debit/credit transaction (3 updates and a history
/// insert), the closest match to the paper's CICS/DBCTL testbed.
#[test]
fn e3b_debit_credit_implied_sharing_cost_stays_in_regime() {
    let rig = Rig::new(2, 4096);
    let cfg = DebitCreditConfig::default();
    let layout = KeyLayout::new(cfg);
    let mut gen = DebitCreditGenerator::new(cfg, 4);
    let txns = 300;
    for i in 0..txns {
        let t = gen.next_txn();
        rig.dbs[i % 2]
            .run(200, |db, txn| {
                for k in [
                    layout.account(t.account_branch, t.account),
                    layout.teller(t.home_branch, t.teller),
                    layout.branch(t.home_branch),
                ] {
                    let v =
                        db.read(txn, k)?.map(|v| i64::from_be_bytes(v[..8].try_into().unwrap())).unwrap_or(0);
                    db.write(txn, k, Some(&(v + t.delta).to_be_bytes()))?;
                }
                db.write(txn, layout.history_base() + t.history_seq, Some(&t.delta.to_be_bytes()))
            })
            .expect("debit/credit txn");
    }
    let live_cost = rig.cf_ops() as f64 / txns as f64 * CF_OP_CPU_US / TXN_BASE_CPU_US;
    rig.shutdown();
    assert!(live_cost < 0.40, "debit/credit cost in regime: {live_cost:.3}");
}

/// E7 / §2.5: one of three members dies holding a lock; a peer backs its
/// work out and frees the retained lock, the survivors commit every
/// transfer, and the books still balance.
#[test]
fn e7_killed_member_is_backed_out_and_survivors_keep_the_books() {
    let rig = Rig::new(3, 4096);
    let accounts = 60u64;
    rig.dbs[0]
        .run(10, |db, txn| {
            for a in 0..accounts {
                db.write(txn, a, Some(&100i64.to_be_bytes()))?;
            }
            Ok(())
        })
        .unwrap();
    let transfers = |dbs: &[Arc<Database>], n: usize| {
        (0..n)
            .filter(|&i| {
                let seed = i as u64 + 13;
                let (from, to) = (seed % accounts, (seed * 7 + 1) % accounts);
                let (lo, hi) = (from.min(to), from.max(to));
                dbs[i % dbs.len()]
                    .run(100, |db, txn| {
                        let (lo_v, hi_v) = (balance(db, txn, lo)?, balance(db, txn, hi)?);
                        let (lo_n, hi_n) =
                            if lo == from { (lo_v - 3, hi_v + 3) } else { (lo_v + 3, hi_v - 3) };
                        db.write(txn, lo, Some(&lo_n.to_be_bytes()))?;
                        db.write(txn, hi, Some(&hi_n.to_be_bytes()))
                    })
                    .is_ok()
            })
            .count()
    };
    transfers(&rig.dbs, 150);

    let victim = rig.dbs[2].clone();
    let mut stranded = victim.begin();
    victim.write(&mut stranded, 0, Some(&999i64.to_be_bytes())).unwrap();
    rig.plex.kill(SystemId::new(2));
    let failed = rig.group.crash_member(SystemId::new(2)).unwrap();
    let report = rig.group.recover_on(SystemId::new(0), &failed).unwrap();
    assert!(report.retained_released >= 1, "the stranded lock was retained and freed");

    assert_eq!(transfers(&rig.dbs[0..2], 150), 150, "service continues on the survivors");
    let total: i64 = rig.dbs[0].run(10, |db, txn| (0..accounts).map(|a| balance(db, txn, a)).sum()).unwrap();
    assert_eq!(total, accounts as i64 * 100);
    rig.dbs[0].irlm().crash();
    rig.dbs[1].irlm().crash();
}

/// E8 / §2.4: systems IPL into a running sysplex one at a time; each
/// newcomer receives routed work at once, and the last burst spreads
/// evenly over all four.
#[test]
fn e8_a_newcomer_gets_work_at_once_and_the_last_burst_spreads_evenly() {
    let plex = Sysplex::new(SysplexConfig::functional("E8PLEX"));
    let cf = plex.add_cf("CF01");
    let mut config = GroupConfig::default();
    config.db.lock_timeout = Duration::from_millis(300);
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    plex.wlm.define_class(ServiceClass {
        name: "OLTP".into(),
        goal: Duration::from_millis(100),
        importance: 2,
    });
    let router = TransactionRouter::new(plex.wlm.clone());
    let mut regions = Vec::new();
    let mut last_burst = Vec::new();
    for i in 0..4u8 {
        let id = SystemId::new(i);
        let image = plex.ipl(SystemConfig::cmos(id, 2));
        let region = CicsRegion::new(image, group.add_member(id).unwrap(), plex.wlm.clone());
        region.define(TranDef {
            name: "WORK".into(),
            service_class: "OLTP".into(),
            handler: Arc::new(move |db, txn| {
                let base = 100 * (txn.id() % 7);
                db.read(txn, base)?;
                db.write(txn, base + 1, Some(b"w"))
            }),
        });
        router.register_region(Arc::clone(&region));
        regions.push(region);
        // A routed transaction answers before its CPU is released, and WLM
        // weighs the whole next burst by the utilization sampled here:
        // sample only once every CPU has finished.
        while regions.iter().map(|r| r.system().completed()).sum::<u64>() < 80 * u64::from(i) {
            std::thread::yield_now();
        }
        plex.tick();

        let before = router.distribution();
        let pending: Vec<_> = (0..80).map(|_| router.submit("WORK").unwrap()).collect();
        for p in pending {
            p.wait(Duration::from_secs(120)).unwrap();
        }
        let count =
            |d: &[(SystemId, u64)], s: SystemId| d.iter().find(|(x, _)| *x == s).map_or(0, |(_, n)| *n);
        let after = router.distribution();
        last_burst = after.iter().map(|(s, n)| n - count(&before, *s)).collect();
        if i > 0 {
            assert!(count(&after, id) - count(&before, id) > 0, "newcomer receives work immediately");
        }
    }
    let (min, max) = (last_burst.iter().min().unwrap(), last_burst.iter().max().unwrap());
    assert!(max - min <= 2, "final burst is evenly spread: {last_burst:?}");
    for r in &regions {
        r.system().quiesce();
    }
}

/// E8b (ablation): on 600/300/100 tps nodes at 85 % load, WLM's capacity
/// weights sustain the load where round-robin and static affinity queue.
#[test]
fn e8b_wlm_weighted_routing_sustains_heterogeneous_capacity() {
    let caps = [600.0, 300.0, 100.0];
    let offered = 0.85 * caps.iter().sum::<f64>();
    let cfg = QueueSimConfig { dt_s: 0.1, steps: 600, seed: 11 };
    let nodes = || caps.iter().map(|&c| Node::new(c)).collect::<Vec<_>>();
    let wlm = run(cfg, nodes(), move |_, _| caps.iter().map(|c| offered * c / 1000.0).collect());
    let round_robin = run(cfg, nodes(), move |_, _| vec![offered / 3.0; 3]);
    let affinity = run(cfg, nodes(), move |_, _| vec![offered * 0.5, offered * 0.3, offered * 0.2]);
    assert!(wlm.completion_ratio > 0.99, "WLM weighting sustains the load");
    assert!(round_robin.completion_ratio < wlm.completion_ratio - 0.05, "round-robin drowns the small node");
    assert!(affinity.avg_delay_s > wlm.avg_delay_s * 5.0, "affinity routing queues on the overloaded owner");
}

/// E10 / §3.3.1: two members lock disjoint resources, so every CF
/// contention between them is false. It falls with every larger table
/// and from 4 096 entries up stays under a quarter of requests.
#[test]
fn e10_false_contention_falls_as_the_lock_table_grows() {
    let mut last = 1.0;
    for entries in [64usize, 256, 1024, 4096, 16384] {
        let xcf = Xcf::new(SysplexTimer::new());
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let structure = cf.allocate_lock_structure("SWEEP", LockParams::with_entries(entries)).unwrap();
        let a = Irlm::start(SystemId::new(0), cf.connect_lock("SWEEP").unwrap(), &xcf).unwrap();
        let b = Irlm::start(SystemId::new(1), cf.connect_lock("SWEEP").unwrap(), &xcf).unwrap();
        for i in 0..600u64 {
            a.lock(i + 1, format!("ROW.{:08}", i * 2).as_bytes(), LockMode::Exclusive, false).unwrap();
            b.lock(i + 1, format!("ROW.{:08}", i * 2 + 1).as_bytes(), LockMode::Exclusive, false).unwrap();
        }
        let contention = structure.stats.contentions.get() as f64 / structure.stats.requests.get() as f64;
        assert!(contention < last, "{entries} entries: contention {contention:.4} after {last:.4}");
        if entries >= 4096 {
            assert!(contention < 0.25, "production-size tables keep contention low");
        }
        last = contention;
        a.shutdown();
        b.shutdown();
    }
}

/// E10b: on a one-entry table every request collides at the CF, yet a
/// different resource is granted and the same resource is refused.
#[test]
fn e10b_real_conflicts_are_detected_on_a_one_entry_table() {
    let xcf = Xcf::new(SysplexTimer::new());
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_lock_structure("TINY", LockParams::with_entries(1)).unwrap();
    let a = Irlm::start(SystemId::new(0), cf.connect_lock("TINY").unwrap(), &xcf).unwrap();
    let b = Irlm::start(SystemId::new(1), cf.connect_lock("TINY").unwrap(), &xcf).unwrap();
    a.lock(1, b"ROW.A", LockMode::Exclusive, false).unwrap();
    assert!(matches!(b.lock(2, b"ROW.B", LockMode::Exclusive, false).unwrap(), LockOutcome::Granted));
    assert!(matches!(b.lock(2, b"ROW.A", LockMode::Exclusive, false).unwrap(), LockOutcome::Busy));
    assert_eq!(b.stats.real_conflicts.get(), 1);
    a.shutdown();
    b.shutdown();
}

/// E11 / §3.3.2: a write cross-invalidates exactly the registered peers.
#[test]
fn e11_cross_invalidate_signals_exactly_the_registered_peers() {
    for peers in [0usize, 1, 4, 16, 31] {
        let cache = CacheStructure::new("GBP", &CacheParams::store_in(1024)).unwrap();
        let writer = cache.connect(64).unwrap();
        let readers: Vec<_> = (0..peers).map(|_| cache.connect(64).unwrap()).collect();
        let blk = BlockName::from_parts(1, 1);
        let iters = 2_000;
        let mut signals = 0usize;
        for _ in 0..iters {
            for r in &readers {
                cache.read_and_register(r, blk, 0).unwrap();
            }
            signals +=
                cache.write_and_invalidate(&writer, blk, b"x", WriteKind::ChangedData).unwrap().invalidated;
        }
        assert_eq!(signals / iters, peers, "exactly the registered peers are signalled");
    }
}

/// E11 / §3.3.2: the local validity check "does not involve a CF access".
#[test]
fn e11_local_validity_check_issues_no_cf_command() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_cache_structure("GBP", CacheParams::store_in(4096)).unwrap();
    let a = cf.connect_cache("GBP", 256).unwrap();
    a.register_read(BlockName::from_parts(7, 7), 0).unwrap();
    let issued = cf.command_stats().issued();
    for _ in 0..1_000 {
        assert!(a.is_valid(0));
    }
    assert_eq!(cf.command_stats().issued(), issued);
}

/// E11b (ablation): after a cross-invalidate a store-in structure serves
/// the refresh from the CF; a directory-only one sends it back to DASD.
#[test]
fn e11b_store_in_refreshes_from_the_cf_directory_only_from_dasd() {
    let blk = BlockName::from_parts(1, 1);
    for (params, kind, from_cf) in [
        (CacheParams::store_in(256), WriteKind::ChangedData, true),
        (CacheParams::directory_only(256), WriteKind::InvalidateOnly, false),
    ] {
        let cache = CacheStructure::new("GBP", &params).unwrap();
        let writer = cache.connect(16).unwrap();
        let reader = cache.connect(16).unwrap();
        cache.read_and_register(&reader, blk, 0).unwrap();
        cache.write_and_invalidate(&writer, blk, b"v1", kind).unwrap();
        assert_eq!(cache.read_and_register(&reader, blk, 0).unwrap().data.is_some(), from_cf, "{kind:?}");
    }
}

/// E12 / §3.3.3: mainline writes condition on the list lock being free;
/// while recovery holds it they are rejected and recovery reads a static
/// list.
#[test]
fn e12_serialized_list_rejects_mainline_during_recovery() {
    let s = ListStructure::new("SERQ", &ListParams::with_headers(1).with_locks(1)).unwrap();
    let mainline = s.connect(4).unwrap();
    let recovery = s.connect(4).unwrap();
    for i in 0..500u64 {
        s.write_entry(&mainline, 0, i, b"w", WritePosition::Tail, LockCondition::LockFree(0)).unwrap();
    }
    s.acquire_lock(&recovery, 0).unwrap();
    let rejected = (0..100u64)
        .filter(|&i| {
            s.write_entry(&mainline, 0, i, b"w", WritePosition::Tail, LockCondition::LockFree(0)).is_err()
        })
        .count();
    let snapshot = s.read_list(&recovery, 0).unwrap().len();
    s.release_lock(&recovery, 0).unwrap();
    assert_eq!(rejected, 100);
    assert_eq!(snapshot, 500, "recovery saw a static view");
}

/// E12c: two producers and two consumers over one shared queue; every one
/// of 4 000 items is consumed exactly once.
#[test]
fn e12c_shared_queue_consumes_each_item_exactly_once() {
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    cf.allocate_list_structure("MSGQ2", queue_params()).unwrap();
    let total = 4_000u64;
    let produced = AtomicBool::new(false);
    let open = || SharedQueue::open(&cf.list_structure("MSGQ2").unwrap(), cf.subchannel()).unwrap();
    let drained: u64 = std::thread::scope(|scope| {
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let q = open();
                    let mut n = 0u64;
                    loop {
                        // An empty wait that began after the last put ends it.
                        let done = produced.load(Ordering::Acquire);
                        match q.take_wait(Duration::from_millis(300)).unwrap() {
                            Some(item) => {
                                q.complete(&item).unwrap();
                                n += 1;
                            }
                            None if done => return n,
                            None => {}
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                scope.spawn(move || {
                    let q = open();
                    for i in 0..total / 2 {
                        q.put(i % 5, &(p * total + i).to_be_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        produced.store(true, Ordering::Release);
        consumers.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(drained, total, "exactly-once consumption");
}
