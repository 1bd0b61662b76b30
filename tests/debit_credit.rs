//! The classic debit/credit (TPC-A-shaped) workload on the live stack —
//! the same workload family as the paper's §4 CICS/DBCTL measurements —
//! with full accounting invariants across systems and across a failure.

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::error::DbResult;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::Database;
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use parallel_sysplex::workload::debitcredit::{
    DebitCreditConfig, DebitCreditGenerator, DebitCreditTxn, KeyLayout,
};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> DebitCreditConfig {
    DebitCreditConfig { branches: 3, tellers_per_branch: 4, accounts_per_branch: 40, remote_fraction: 0.2 }
}

fn stack(members: u8) -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("TPCAPLEX"));
    let cf = plex.add_cf("CF01");
    let mut config = GroupConfig { pages: 512, ..GroupConfig::default() };
    config.db.lock_timeout = Duration::from_millis(150);
    let group =
        DataSharingGroup::new(config, &cf, plex.farm.clone(), plex.timer.clone(), plex.xcf.clone()).unwrap();
    for i in 0..members {
        group.add_member(SystemId::new(i)).unwrap();
    }
    (plex, group)
}

fn read_i64(db: &Database, txn: &mut parallel_sysplex::db::Txn, key: u64) -> DbResult<i64> {
    Ok(db.read(txn, key)?.map(|v| i64::from_be_bytes(v[..8].try_into().unwrap())).unwrap_or(0))
}

fn apply(db: &Database, layout: &KeyLayout, t: &DebitCreditTxn) -> DbResult<()> {
    db.run(500, |db, txn| {
        // Fixed key-acquisition order (account > teller > branch keys)
        // keeps the lock graph acyclic.
        let keys = [
            layout.account(t.account_branch, t.account),
            layout.teller(t.home_branch, t.teller),
            layout.branch(t.home_branch),
        ];
        for k in keys {
            let v = read_i64(db, txn, k)?;
            db.write(txn, k, Some(&(v + t.delta).to_be_bytes()))?;
        }
        db.write(txn, layout.history_base() + t.history_seq, Some(&t.delta.to_be_bytes()))
    })
}

#[test]
fn books_balance_across_systems() {
    let (_plex, group) = stack(2);
    let cfg = schema();
    let layout = KeyLayout::new(cfg);
    let mut gen = DebitCreditGenerator::new(cfg, 1996);
    let txns: Vec<DebitCreditTxn> = (0..120).map(|_| gen.next_txn()).collect();
    let expected_total: i64 = txns.iter().map(|t| t.delta).sum();

    // Round-robin the transactions over both members, concurrently.
    let members = group.members();
    let mut handles = Vec::new();
    for (i, member) in members.iter().enumerate() {
        let member = Arc::clone(member);
        let mine: Vec<DebitCreditTxn> = txns.iter().copied().skip(i).step_by(members.len()).collect();
        handles.push(std::thread::spawn(move || {
            for t in mine {
                apply(&member, &KeyLayout::new(schema()), &t).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Audit from either member: accounts ≡ tellers ≡ branches ≡ Σdeltas,
    // and the history is complete.
    let auditor = &members[0];
    let (accounts, tellers, branches, history_count) = auditor
        .run(10, |db, txn| {
            let mut accounts = 0i64;
            let mut tellers = 0i64;
            let mut branches = 0i64;
            for b in 0..cfg.branches {
                branches += read_i64(db, txn, layout.branch(b))?;
                for t in 0..cfg.tellers_per_branch {
                    tellers += read_i64(db, txn, layout.teller(b, t))?;
                }
                for a in 0..cfg.accounts_per_branch {
                    accounts += read_i64(db, txn, layout.account(b, a))?;
                }
            }
            let mut history_count = 0u64;
            for seq in 1..=120u64 {
                if db.read(txn, layout.history_base() + seq)?.is_some() {
                    history_count += 1;
                }
            }
            Ok((accounts, tellers, branches, history_count))
        })
        .unwrap();
    assert_eq!(accounts, expected_total, "account ledger balances");
    assert_eq!(tellers, expected_total, "teller ledger balances");
    assert_eq!(branches, expected_total, "branch ledger balances");
    assert_eq!(history_count, 120, "one history record per transaction");

    for m in group.members() {
        group.remove_member(m.system());
    }
}

#[test]
fn books_balance_across_a_mid_run_failure() {
    let (plex, group) = stack(3);
    let cfg = schema();
    let layout = KeyLayout::new(cfg);
    let mut gen = DebitCreditGenerator::new(cfg, 7);

    let members = group.members();
    let mut applied_deltas = 0i64;
    let mut applied = 0u64;
    for i in 0..60u64 {
        let t = gen.next_txn();
        if i == 30 {
            // System 2 dies between transactions; peer recovery runs.
            plex.kill(SystemId::new(2));
            let failed = group.crash_member(SystemId::new(2)).unwrap();
            group.recover_on(SystemId::new(0), &failed).unwrap();
        }
        let member = &members[(i % 2) as usize]; // route to survivors
        apply(member, &layout, &t).unwrap();
        applied_deltas += t.delta;
        applied += 1;
    }

    let auditor = &members[0];
    let total: i64 = auditor
        .run(10, |db, txn| {
            let mut sum = 0i64;
            for b in 0..cfg.branches {
                sum += read_i64(db, txn, layout.branch(b))?;
            }
            Ok(sum)
        })
        .unwrap();
    assert_eq!(total, applied_deltas, "branch totals match all {applied} applied transactions");
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

/// A member's log holds only its in-flight work: a lone client's every
/// commit ends the member's last transaction and truncates the log, so
/// ten thousand commits reuse blocks 1 and 2 (block 0, the life, is
/// written once).
#[test]
fn a_lone_clients_log_stays_at_one_commits_blocks() {
    let (plex, group) = stack(1);
    let layout = KeyLayout::new(schema());
    let mut gen = DebitCreditGenerator::new(schema(), 1996);
    let member = group.member(SystemId::new(0)).unwrap();
    for _ in 0..10_000 {
        apply(&member, &layout, &gen.next_txn()).unwrap();
    }
    assert_eq!(member.stats.commits.get(), 10_000);
    let log = plex.farm.volume("DSGLOG00").unwrap();
    assert!(log.volume().blocks_in_use() <= 3, "{} log blocks written", log.volume().blocks_in_use());
    group.remove_member(SystemId::new(0));
}
