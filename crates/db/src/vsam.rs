//! VSAM record-level sharing (§5.2).
//!
//! "DFSMS support for multi-system data-sharing of VSAM files is currently
//! under development and will similarly exploit the Coupling Facility."
//! This module builds that promised exploiter: a KSDS-style keyed file —
//! string keys, variable-length records, ordered browse — layered on the
//! transactional record store, so it inherits record-level locking, group
//! buffer coherency, WAL recovery and peer backout from the same CF
//! structures DB2/IMS use.
//!
//! Layout inside a reserved region of the record key space:
//!
//! * `base`      — the index record: ordered (high-key → CI id) pairs, the
//!   last entry open-ended.
//! * `base+1+ci` — control intervals: sorted runs of (key, record) pairs.
//!
//! Inserts that overflow a CI split it — index and both CIs rewritten in
//! the same transaction, so a split is atomic sysplex-wide and recoverable
//! like any other update.

use crate::database::{Database, Txn};
use crate::error::{DbError, DbResult};
use sysplex_core::wire::{from_bytes, to_bytes};
use sysplex_core::wire_struct;

/// Records per control interval before a split.
pub const DEFAULT_CI_CAPACITY: usize = 16;

/// A shared KSDS (key-sequenced data set) handle for one system.
///
/// Every member opens its own handle over its own database member; the
/// file itself is one, shared, coherent.
#[derive(Debug)]
pub struct Ksds {
    db: std::sync::Arc<Database>,
    /// First record key of the file's region.
    base: u64,
    ci_capacity: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    /// Highest key this CI may hold; `None` = unbounded (last CI).
    high_key: Option<String>,
    ci: u64,
}

wire_struct! { IndexEntry { high_key, ci } }

/// The index record: its entries, then the next unused CI id.
type Index = (Vec<IndexEntry>, u64);
/// A control interval: its `(key, record)` pairs in key order.
type Ci = Vec<(String, Vec<u8>)>;

impl Ksds {
    /// Define (format) a new KSDS whose records live at `base..`. The
    /// region must not be used by anything else.
    pub fn define(db: std::sync::Arc<Database>, base: u64, ci_capacity: usize) -> DbResult<Ksds> {
        assert!(ci_capacity >= 2, "a CI must hold at least two records to split");
        let file = Ksds { db, base, ci_capacity };
        file.db.run(20, |db, txn| {
            let index: Index = (vec![IndexEntry { high_key: None, ci: 0 }], 1);
            db.write(txn, base, Some(&to_bytes(&index)))?;
            db.write(txn, base + 1, Some(&to_bytes(&Ci::new())))
        })?;
        Ok(file)
    }

    /// Open an existing KSDS (another member defined it).
    pub fn open(db: std::sync::Arc<Database>, base: u64, ci_capacity: usize) -> Ksds {
        Ksds { db, base, ci_capacity }
    }

    fn ci_key(&self, ci: u64) -> u64 {
        self.base + 1 + ci
    }

    fn load_index(&self, db: &Database, txn: &mut Txn) -> DbResult<Index> {
        let data = db.read(txn, self.base)?.ok_or(DbError::PageCorrupt(self.base))?;
        from_bytes(&data).map_err(|_| DbError::PageCorrupt(self.base))
    }

    fn load_ci(&self, db: &Database, txn: &mut Txn, ci: u64) -> DbResult<Ci> {
        let key = self.ci_key(ci);
        let data = db.read(txn, key)?.ok_or(DbError::PageCorrupt(key))?;
        from_bytes(&data).map_err(|_| DbError::PageCorrupt(key))
    }

    fn ci_for<'a>(index: &'a [IndexEntry], key: &str) -> &'a IndexEntry {
        index
            .iter()
            .find(|e| e.high_key.as_deref().map(|h| key <= h).unwrap_or(true))
            .expect("last index entry is unbounded")
    }

    /// Insert or replace a record.
    pub fn put(&self, key: &str, value: &[u8]) -> DbResult<()> {
        let key = key.to_string();
        let value = value.to_vec();
        self.db.run(50, |db, txn| {
            let (mut index, mut next_ci) = self.load_index(db, txn)?;
            let entry = Self::ci_for(&index, &key).clone();
            let mut records = self.load_ci(db, txn, entry.ci)?;
            match records.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
                Ok(i) => records[i].1 = value.clone(),
                Err(i) => records.insert(i, (key.clone(), value.clone())),
            }
            if records.len() <= self.ci_capacity {
                return db.write(txn, self.ci_key(entry.ci), Some(&to_bytes(&records)));
            }
            // Split: lower half moves to a fresh CI inserted before this
            // one; all three writes commit atomically.
            let mid = records.len() / 2;
            let right: Ci = records.split_off(mid);
            let left = records;
            let left_high = left.last().unwrap().0.clone();
            let left_ci = next_ci;
            next_ci += 1;
            let pos = index.iter().position(|e| e.ci == entry.ci).unwrap();
            index.insert(pos, IndexEntry { high_key: Some(left_high), ci: left_ci });
            db.write(txn, self.ci_key(left_ci), Some(&to_bytes(&left)))?;
            db.write(txn, self.ci_key(entry.ci), Some(&to_bytes(&right)))?;
            db.write(txn, self.base, Some(&to_bytes(&(index, next_ci))))
        })
    }

    /// Read a record.
    pub fn get(&self, key: &str) -> DbResult<Option<Vec<u8>>> {
        let key = key.to_string();
        self.db.run(50, |db, txn| {
            let (index, _) = self.load_index(db, txn)?;
            let entry = Self::ci_for(&index, &key);
            let records = self.load_ci(db, txn, entry.ci)?;
            Ok(records.binary_search_by(|(k, _)| k.as_str().cmp(&key)).ok().map(|i| records[i].1.clone()))
        })
    }

    /// Delete a record; returns whether it existed. (Empty CIs persist —
    /// VSAM reclaims them offline; lookups skip them naturally.)
    pub fn erase(&self, key: &str) -> DbResult<bool> {
        let key = key.to_string();
        self.db.run(50, |db, txn| {
            let (index, _) = self.load_index(db, txn)?;
            let entry = Self::ci_for(&index, &key).clone();
            let mut records = self.load_ci(db, txn, entry.ci)?;
            match records.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
                Ok(i) => {
                    records.remove(i);
                    db.write(txn, self.ci_key(entry.ci), Some(&to_bytes(&records)))?;
                    Ok(true)
                }
                Err(_) => Ok(false),
            }
        })
    }

    /// Browse: up to `limit` records with keys `>= from`, in key order —
    /// the KSDS sequential access VSAM applications rely on.
    pub fn browse(&self, from: &str, limit: usize) -> DbResult<Vec<(String, Vec<u8>)>> {
        let from = from.to_string();
        self.db.run(50, |db, txn| {
            let (index, _) = self.load_index(db, txn)?;
            let mut out = Vec::new();
            let start = index
                .iter()
                .position(|e| e.high_key.as_deref().map(|h| from.as_str() <= h).unwrap_or(true))
                .unwrap_or(index.len().saturating_sub(1));
            for entry in &index[start..] {
                if out.len() >= limit {
                    break;
                }
                for (k, v) in self.load_ci(db, txn, entry.ci)? {
                    if k.as_str() >= from.as_str() {
                        out.push((k, v));
                        if out.len() >= limit {
                            break;
                        }
                    }
                }
            }
            Ok(out)
        })
    }

    /// Total records (full scan; diagnostics).
    pub fn record_count(&self) -> DbResult<usize> {
        self.db.run(50, |db, txn| {
            let (index, _) = self.load_index(db, txn)?;
            let mut n = 0;
            for entry in &index {
                n += self.load_ci(db, txn, entry.ci)?.len();
            }
            Ok(n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{DataSharingGroup, GroupConfig};
    use std::sync::Arc;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::SystemId;
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::xcf::Xcf;

    fn group(members: u8) -> Arc<DataSharingGroup> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let mut config = GroupConfig::default();
        config.db.lock_timeout = std::time::Duration::from_millis(150);
        let g = DataSharingGroup::new(config, &cf, farm, timer, xcf).unwrap();
        for i in 0..members {
            g.add_member(SystemId::new(i)).unwrap();
        }
        g
    }

    const BASE: u64 = 1 << 20;

    #[test]
    fn codec_roundtrips() {
        let idx: Index =
            (vec![IndexEntry { high_key: Some("M".into()), ci: 3 }, IndexEntry { high_key: None, ci: 0 }], 7);
        let idx_bytes = to_bytes(&idx);
        assert_eq!(from_bytes::<Index>(&idx_bytes).unwrap(), idx);
        let ci: Ci = vec![("A".to_string(), b"1".to_vec()), ("B".to_string(), vec![])];
        let ci_bytes = to_bytes(&ci);
        assert_eq!(from_bytes::<Ci>(&ci_bytes).unwrap(), ci);
        // A malformed record is an error, never a panic: every strict
        // prefix fails to decode.
        for cut in 0..idx_bytes.len() {
            assert!(from_bytes::<Index>(&idx_bytes[..cut]).is_err(), "index cut at {cut}");
        }
        for cut in 0..ci_bytes.len() {
            assert!(from_bytes::<Ci>(&ci_bytes[..cut]).is_err(), "CI cut at {cut}");
        }
    }

    #[test]
    fn put_get_erase_roundtrip() {
        let g = group(1);
        let file = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        file.put("CUST.0002", b"two").unwrap();
        file.put("CUST.0001", b"one").unwrap();
        assert_eq!(file.get("CUST.0001").unwrap().unwrap(), b"one");
        assert_eq!(file.get("CUST.0003").unwrap(), None);
        file.put("CUST.0001", b"one-v2").unwrap();
        assert_eq!(file.get("CUST.0001").unwrap().unwrap(), b"one-v2");
        assert!(file.erase("CUST.0001").unwrap());
        assert!(!file.erase("CUST.0001").unwrap());
        assert_eq!(file.get("CUST.0001").unwrap(), None);
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn splits_preserve_order_and_completeness() {
        let g = group(1);
        let file = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        // Insert far more than one CI holds, in shuffled order.
        let mut keys: Vec<u32> = (0..60).collect();
        let mut state = 0x12345u32;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            keys.swap(i, (state as usize) % (i + 1));
        }
        for k in &keys {
            file.put(&format!("K{k:04}"), &k.to_be_bytes()).unwrap();
        }
        assert_eq!(file.record_count().unwrap(), 60);
        let all = file.browse("", 1000).unwrap();
        assert_eq!(all.len(), 60);
        let browsed: Vec<String> = all.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = browsed.clone();
        sorted.sort();
        assert_eq!(browsed, sorted, "browse returns key order across split CIs");
        for k in 0..60u32 {
            assert_eq!(
                file.get(&format!("K{k:04}")).unwrap().unwrap(),
                k.to_be_bytes(),
                "key K{k:04} survives splits"
            );
        }
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn browse_ranges_and_limits() {
        let g = group(1);
        let file = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        for k in 0..20u32 {
            file.put(&format!("R{k:03}"), b"v").unwrap();
        }
        let page = file.browse("R005", 5).unwrap();
        assert_eq!(
            page.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["R005", "R006", "R007", "R008", "R009"]
        );
        assert!(file.browse("R019", 10).unwrap().len() == 1);
        assert!(file.browse("ZZZ", 10).unwrap().is_empty());
        g.remove_member(SystemId::new(0));
    }

    #[test]
    fn record_level_sharing_across_systems() {
        let g = group(2);
        let a = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        let b = Ksds::open(g.member(SystemId::new(1)).unwrap(), BASE, 4);
        a.put("SHARED.KEY", b"from-a").unwrap();
        assert_eq!(b.get("SHARED.KEY").unwrap().unwrap(), b"from-a");
        b.put("SHARED.KEY", b"from-b").unwrap();
        assert_eq!(a.get("SHARED.KEY").unwrap().unwrap(), b"from-b");
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn a_file_stays_open_across_a_cf_failover() {
        let g = group(2);
        let a = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        let b = Ksds::open(g.member(SystemId::new(1)).unwrap(), BASE, 4);
        for k in 0..10u32 {
            a.put(&format!("CUST{k:03}"), b"v").unwrap();
        }
        g.enable_duplexing(&CouplingFacility::new(CfConfig::named("CF02"))).unwrap();
        a.put("CUST900", b"duplexed").unwrap();
        // The primary is lost: keyed access goes on, nothing is recovered
        // or reloaded.
        g.cf_failover().unwrap();
        assert_eq!(b.get("CUST900").unwrap().unwrap(), b"duplexed");
        b.put("CUST901", b"after").unwrap();
        assert_eq!(a.record_count().unwrap(), 12);
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }

    #[test]
    fn concurrent_multi_system_inserts_with_splits_lose_nothing() {
        let g = group(2);
        let _ = Ksds::define(g.member(SystemId::new(0)).unwrap(), BASE, 4).unwrap();
        let mut handles = Vec::new();
        for m in 0..2u8 {
            let db = g.member(SystemId::new(m)).unwrap();
            handles.push(std::thread::spawn(move || {
                let file = Ksds::open(db, BASE, 4);
                for i in 0..40u32 {
                    file.put(&format!("T{m}-{i:04}"), &i.to_be_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let auditor = Ksds::open(g.member(SystemId::new(0)).unwrap(), BASE, 4);
        assert_eq!(auditor.record_count().unwrap(), 80, "every insert survived concurrent splits");
        for m in 0..2u8 {
            for i in 0..40u32 {
                assert!(auditor.get(&format!("T{m}-{i:04}")).unwrap().is_some());
            }
        }
        g.remove_member(SystemId::new(0));
        g.remove_member(SystemId::new(1));
    }
}
