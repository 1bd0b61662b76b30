//! Parallel decision-support queries (§2.3).
//!
//! "Parallelism can be attained by breaking up complex queries into
//! smaller sub-queries, and distributing the component queries across
//! multiple processors (cpu) within a single system or across multiple
//! systems in a parallel sysplex. Once all sub-queries have completed, the
//! original query response can be constructed from the aggregate of the
//! sub-query answers and returned to the requester."
//!
//! [`ParallelQuery`] owns the split/dispatch/merge choreography over the
//! live data-sharing stack: sub-queries run as repeatable-read scans on
//! whichever systems host database members, a target that stops accepting
//! work simply loses its shards to the survivors, and the merged answer is
//! bit-identical to a sequential scan.

use crossbeam::channel::bounded;
use std::sync::Arc;
use std::time::Duration;
use sysplex_db::error::{DbError, DbResult};
use sysplex_db::Database;
use sysplex_services::system::System;
use sysplex_workload::decision::{merge, PartialAggregate, ScanQuery, SubQuery};

/// One executor: a system (CPUs) plus its database member.
#[derive(Clone)]
pub struct QueryTarget {
    /// CPUs to run sub-queries on.
    pub system: Arc<System>,
    /// Database member on that system.
    pub db: Arc<Database>,
}

/// The split/dispatch/merge coordinator.
pub struct ParallelQuery {
    targets: Vec<QueryTarget>,
    retries: usize,
}

/// Scan a key range as one repeatable-read transaction, folding the
/// aggregate. Records are interpreted as big-endian i64 in their first 8
/// bytes; shorter records are skipped.
pub fn scan_aggregate(db: &Database, from: u64, to: u64, retries: usize) -> DbResult<PartialAggregate> {
    db.run(retries, |db, txn| {
        let mut agg = PartialAggregate::empty();
        for k in from..to {
            if let Some(v) = db.read(txn, k)? {
                if v.len() >= 8 {
                    agg.add_row(i64::from_be_bytes(v[..8].try_into().unwrap()));
                }
            }
        }
        Ok(agg)
    })
}

impl ParallelQuery {
    /// Build a coordinator over the given executors.
    pub fn new(targets: Vec<QueryTarget>) -> Self {
        assert!(!targets.is_empty(), "need at least one query target");
        ParallelQuery { targets, retries: 20 }
    }

    /// Execute `query` as `shards` sub-queries distributed round-robin
    /// over the targets, merging the partial answers.
    pub fn execute(&self, query: ScanQuery, shards: usize) -> DbResult<PartialAggregate> {
        let subqueries = query.split(shards);
        if subqueries.is_empty() {
            return Ok(PartialAggregate::empty());
        }
        let (tx, rx) = bounded(subqueries.len());
        let mut dispatched = 0;
        for sub in &subqueries {
            self.dispatch(*sub, &tx, 0)?;
            dispatched += 1;
        }
        drop(tx);
        let mut parts = Vec::with_capacity(dispatched);
        for _ in 0..dispatched {
            let part =
                rx.recv_timeout(Duration::from_secs(300)).map_err(|_| DbError::NegotiationFailed)??;
            parts.push(part);
        }
        Ok(merge(parts))
    }

    /// Submit one shard, failing over across targets when a system refuses
    /// work (§2.5: new work redirected to survivors).
    fn dispatch(
        &self,
        sub: SubQuery,
        tx: &crossbeam::channel::Sender<DbResult<PartialAggregate>>,
        attempt: usize,
    ) -> DbResult<()> {
        if attempt >= self.targets.len() {
            return Err(DbError::NegotiationFailed);
        }
        let target = &self.targets[(sub.index + attempt) % self.targets.len()];
        let db = Arc::clone(&target.db);
        let job_tx = tx.clone();
        let retries = self.retries;
        match target.system.submit(
            move || scan_aggregate(&db, sub.from, sub.to, retries),
            move |part| {
                let _ = job_tx.send(part);
            },
        ) {
            Ok(()) => Ok(()),
            Err(_) => self.dispatch(sub, tx, attempt + 1),
        }
    }
}

impl std::fmt::Debug for ParallelQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelQuery").field("targets", &self.targets.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::SystemId;
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_db::group::{DataSharingGroup, GroupConfig};
    use sysplex_services::system::SystemConfig;
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::xcf::Xcf;

    fn rig(n: u8, rows: u64) -> (Arc<DataSharingGroup>, Vec<QueryTarget>) {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let group = DataSharingGroup::new(GroupConfig::default(), &cf, farm, timer, xcf).unwrap();
        let targets: Vec<QueryTarget> = (0..n)
            .map(|i| QueryTarget {
                system: sysplex_services::system::System::ipl(SystemConfig::cmos(SystemId::new(i), 2)),
                db: group.add_member(SystemId::new(i)).unwrap(),
            })
            .collect();
        // Load rows: value = 3k - 100.
        targets[0]
            .db
            .run(10, |db, txn| {
                for k in 0..rows {
                    db.write(txn, k, Some(&((3 * k as i64) - 100).to_be_bytes()))?;
                }
                Ok(())
            })
            .unwrap();
        (group, targets)
    }

    fn teardown(targets: &[QueryTarget]) {
        for t in targets {
            if t.system.state() == sysplex_services::system::SystemState::Active {
                t.system.quiesce();
            }
        }
    }

    #[test]
    fn parallel_answer_matches_sequential() {
        let (_group, targets) = rig(3, 300);
        let q = ScanQuery { from: 0, to: 300 };
        let sequential = scan_aggregate(&targets[0].db, 0, 300, 10).unwrap();
        let pq = ParallelQuery::new(targets.clone());
        let parallel = pq.execute(q, 6).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.rows, 300);
        assert_eq!(parallel.min, -100);
        teardown(&targets);
    }

    #[test]
    fn failed_target_loses_its_shards_to_survivors() {
        let (_group, targets) = rig(3, 120);
        targets[1].system.fail();
        let pq = ParallelQuery::new(targets.clone());
        let result = pq.execute(ScanQuery { from: 0, to: 120 }, 6).unwrap();
        assert_eq!(result.rows, 120, "all shards completed despite a dead target");
        teardown(&targets);
    }

    #[test]
    fn empty_query_is_empty() {
        let (_group, targets) = rig(1, 10);
        let pq = ParallelQuery::new(targets.clone());
        assert_eq!(pq.execute(ScanQuery { from: 5, to: 5 }, 4).unwrap(), PartialAggregate::empty());
        teardown(&targets);
    }
}
