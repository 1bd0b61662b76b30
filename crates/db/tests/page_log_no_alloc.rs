//! Allocation gate for the two things a transaction does most: reading a
//! record out of a page the local pool holds, and logging a commit.
//!
//! A local buffer hit hands out the frame's image by reference count and
//! `Page::get` walks it in place; the log encodes records as they are
//! appended into one buffer it keeps and writes each force from that
//! buffer. Neither reaches the heap. What a force *does* allocate is on the
//! far side of the I/O: the simulated volume's buffer for a block written
//! for the first time (a rewritten block keeps its buffer).

mod alloc_count;

use alloc_count::allocations_in;
use std::sync::Arc;
use sysplex_core::cache::CacheParams;
use sysplex_core::facility::{CfConfig, CouplingFacility};
use sysplex_core::SystemId;
use sysplex_dasd::farm::DasdFarm;
use sysplex_dasd::volume::IoModel;
use sysplex_db::bufmgr::BufferManager;
use sysplex_db::log::{LogManager, LogRecord};
use sysplex_db::pagestore::{Page, PageStore};
use sysplex_services::timer::Tod;

#[test]
fn a_local_hit_and_a_record_lookup_do_not_allocate() {
    let farm = DasdFarm::new(IoModel::instant());
    farm.add_volume("DB0001", 64, 2).unwrap();
    let store = PageStore::new(&farm, "DB0001", 1, 64).unwrap();
    let cf = CouplingFacility::new(CfConfig::named("CF01"));
    let cache = cf.allocate_cache_structure("GBP0", CacheParams::store_in(64)).unwrap();
    let buf = BufferManager::new(SystemId::new(0), &cache, cf.subchannel(), Arc::clone(&store), 16).unwrap();
    let mut page = Page::new();
    for key in 0..20u64 {
        page.set(3 + 64 * key, &key.to_be_bytes());
    }
    buf.put_page(3, &page).unwrap();
    drop(page);

    let hits = buf.stats.local_hits.get();
    let (allocations, value) = allocations_in(|| {
        let page = buf.get_page(3).unwrap();
        let value = u64::from_be_bytes(page.get(3 + 64 * 19).unwrap().try_into().unwrap());
        assert_eq!(page.get(4), None);
        value
    });
    assert_eq!(buf.stats.local_hits.get() - hits, 1);
    assert_eq!(value, 19);
    assert_eq!(allocations, 0, "local hit + record lookup");

    // Nor does the slow path copy the image: a refresh adopts the CF's.
    let peer = BufferManager::new(SystemId::new(1), &cache, cf.subchannel(), store, 16).unwrap();
    peer.get_page(9).unwrap(); // the frame map's first insert sizes it
    let (allocations, page) = allocations_in(|| peer.get_page(3).unwrap());
    assert_eq!(peer.stats.cf_refreshes.get(), 1);
    assert_eq!(page.len(), 20);
    assert_eq!(allocations, 0, "a CF refresh adopts the CF's image");
}

/// The log work of one debit-credit commit.
fn commit(log: &LogManager, txn: u64) {
    let (before, after) = (7i64.to_be_bytes(), 8i64.to_be_bytes());
    for key in 0..4 {
        log.append_update(Tod(10 * txn + key), txn, key, key, Some(&before), Some(&after));
    }
    assert_eq!(log.force().unwrap(), 4);
    log.append(LogRecord::Commit { lsn: Tod(10 * txn + 4), txn });
    assert_eq!(log.force().unwrap(), 1);
}

#[test]
fn logging_a_commit_allocates_only_a_new_blocks_buffer() {
    const LAP: u64 = 16;
    let farm = DasdFarm::new(IoModel::instant());
    farm.add_volume("LOG00", 256, 2).unwrap();
    let log = LogManager::new(0, &farm, "LOG00").unwrap();
    commit(&log, 0); // sizes the pending buffer, claims the epoch

    // First lap: every force writes a block the volume has not seen. One
    // buffer each, plus the volume's block map doubling a few times.
    let (allocations, ()) = allocations_in(|| (1..LAP).for_each(|txn| commit(&log, txn)));
    assert!(allocations >= 2 * (LAP - 1), "{allocations}");
    assert!(allocations <= 2 * (LAP - 1) + 6, "more than the new blocks' buffers: {allocations}");

    // Second lap, over the same blocks after a checkpoint: nothing at all.
    assert!(log.checkpoint_if(|| true).unwrap());
    let (allocations, ()) = allocations_in(|| (LAP..2 * LAP).for_each(|txn| commit(&log, txn)));
    assert_eq!(allocations, 0, "5 appends + 2 forces a commit, in steady state");
    assert_eq!(LogManager::read_log(1, &farm, "LOG00").unwrap().len() as u64, 5 * LAP);
}
