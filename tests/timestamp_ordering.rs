//! §3.1's timer claim, verified through the logs: "local processor
//! timestamps can be relied upon for consistency with respect to
//! timestamps obtained on other systems."
//!
//! A causal chain of transactions alternates between two systems (each
//! reads what the previous one wrote before writing the next value). The
//! members' logs — timestamped independently, on different "processors" —
//! are then merged by LSN: the merged order must respect causality
//! exactly, which only holds if the shared TOD is monotonic sysplex-wide.

use parallel_sysplex::cf::SystemId;
use parallel_sysplex::db::group::{DataSharingGroup, GroupConfig};
use parallel_sysplex::db::log::{LogManager, LogRecord};
use parallel_sysplex::services::sysplex::{Sysplex, SysplexConfig};
use std::sync::Arc;

fn stack() -> (Arc<Sysplex>, Arc<DataSharingGroup>) {
    let plex = Sysplex::new(SysplexConfig::functional("TODPLEX"));
    let cf = plex.add_cf("CF01");
    let group = DataSharingGroup::new(
        GroupConfig::default(),
        &cf,
        plex.farm.clone(),
        plex.timer.clone(),
        plex.xcf.clone(),
    )
    .unwrap();
    group.add_member(SystemId::new(0)).unwrap();
    group.add_member(SystemId::new(1)).unwrap();
    (plex, group)
}

#[test]
fn merged_logs_respect_cross_system_causality() {
    let (_plex, group) = stack();
    let members = group.members();
    let chain_len = 40u64;
    // A member's last transaction to end truncates its log: an open one on
    // each keeps the whole chain in both logs.
    let mut open: Vec<_> = members.iter().map(|db| db.begin()).collect();

    // The causal chain: txn i reads counter==i then writes i+1, hopping
    // systems each step.
    for i in 0..chain_len {
        let db = &members[(i % 2) as usize];
        db.run(10, move |db, txn| {
            let cur = db.read(txn, 0)?.map(|v| u64::from_be_bytes(v[..8].try_into().unwrap())).unwrap_or(0);
            assert_eq!(cur, i, "causal chain intact");
            db.write(txn, 0, Some(&(i + 1).to_be_bytes()))
        })
        .unwrap();
    }

    // Merge both logs by LSN.
    let mut merged: Vec<(u64, u8, LogRecord)> = Vec::new();
    for (m, vol) in [(0u8, "DSGLOG00"), (1u8, "DSGLOG01")] {
        for rec in LogManager::read_log(0, &group.farm, vol).unwrap() {
            merged.push((rec.lsn().0, m, rec));
        }
    }
    merged.sort_by_key(|(lsn, _, _)| *lsn);

    // LSNs are unique sysplex-wide.
    for w in merged.windows(2) {
        assert!(w[0].0 < w[1].0, "duplicate or non-monotonic LSN");
    }

    // In merged order, the chain's update records carry strictly
    // increasing after-values, alternating systems — causality preserved
    // across processors.
    let updates: Vec<(u8, u64)> = merged
        .iter()
        .filter_map(|(_, m, rec)| match rec {
            LogRecord::Update { key: 0, after: Some(v), .. } => {
                Some((*m, u64::from_be_bytes(v[..8].try_into().unwrap())))
            }
            _ => None,
        })
        .collect();
    assert_eq!(updates.len(), chain_len as usize);
    for (i, (system, value)) in updates.iter().enumerate() {
        assert_eq!(*value, i as u64 + 1, "merged log order == causal order");
        assert_eq!(*system, (i % 2) as u8, "steps alternate systems");
    }

    // Commit records also interleave in causal order.
    let commits: Vec<u8> = merged
        .iter()
        .filter_map(|(_, m, rec)| matches!(rec, LogRecord::Commit { .. }).then_some(*m))
        .collect();
    assert_eq!(commits.len(), chain_len as usize);
    for (i, system) in commits.iter().enumerate() {
        assert_eq!(*system, (i % 2) as u8);
    }

    for (db, txn) in members.iter().zip(&mut open) {
        db.commit(txn).unwrap();
    }

    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}

#[test]
fn transaction_ids_are_globally_ordered_without_coordination() {
    let (_plex, group) = stack();
    let members = group.members();
    // Interleaved begins across systems yield strictly increasing ids.
    let mut last = 0u64;
    for i in 0..100 {
        let db = &members[i % 2];
        let mut txn = db.begin();
        assert!(txn.id() > last, "txn ids strictly increase sysplex-wide");
        last = txn.id();
        db.abort(&mut txn).unwrap();
    }
    group.remove_member(SystemId::new(0));
    group.remove_member(SystemId::new(1));
}
