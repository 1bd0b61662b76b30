//! Message-driven processing — IMS-style MPPs over the shared queue.
//!
//! §3.3.3's list structures serve "workload distribution \[and\]
//! inter-system message passing": transactions arrive as messages on a
//! shared queue, and message-processing regions on *any* system claim and
//! execute them. Because a claim is an atomic move onto the consumer's
//! in-flight list, a region (or its whole system) can die mid-message and
//! a peer requeues the orphan — at-least-once execution with no lost work.

use crate::tm::CicsRegion;
use crate::workq::{SharedQueue, WorkItem};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use sysplex_core::connection::CfSubchannel;
use sysplex_core::error::CfResult;
use sysplex_core::list::ListStructure;
use sysplex_core::wire::{WireReader, WireWriter};

/// Encode a queued transaction request: the transaction code, then its
/// input, each length-prefixed.
pub fn encode_message(tran: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(tran);
    w.put_bytes(payload);
    w.into_bytes()
}

/// Decode a queued transaction request; `None` unless `data` is exactly
/// one encoded request.
pub fn decode_message(data: &[u8]) -> Option<(String, &[u8])> {
    let mut r = WireReader::new(data);
    let message = (r.get_str().ok()?, r.get_slice().ok()?);
    r.finish().ok()?;
    Some(message)
}

/// A message-processing region: one consumer loop feeding a transaction
/// manager region.
pub struct MppRegion {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    slot: sysplex_core::ConnId,
    /// Messages processed successfully.
    pub processed: Arc<AtomicU64>,
    /// Messages whose transaction failed (completed and counted — poison
    /// messages must not wedge the queue).
    pub failed: Arc<AtomicU64>,
}

impl MppRegion {
    /// Start consuming `list` into `region`. The consumer claims one
    /// message at a time, executes it on the region's system, and
    /// completes it only after execution — a crash in between leaves the
    /// message on the in-flight list for peers to recover.
    pub fn start(
        list: &Arc<ListStructure>,
        sub: CfSubchannel,
        region: Arc<CicsRegion>,
    ) -> CfResult<MppRegion> {
        let queue = SharedQueue::open(list, sub)?;
        let slot = queue.slot();
        let stop = Arc::new(AtomicBool::new(false));
        let processed = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let processed = Arc::clone(&processed);
            let failed = Arc::clone(&failed);
            std::thread::Builder::new()
                .name(format!("mpp-{}", region.system().id()))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match queue.take_wait(Duration::from_millis(50)) {
                            Ok(Some(item)) => {
                                Self::process(&queue, &region, &item, &processed, &failed);
                            }
                            Ok(None) => {}
                            Err(_) => break, // structure gone (CF failure handled elsewhere)
                        }
                    }
                })
                .expect("spawn mpp consumer")
        };
        Ok(MppRegion { stop, handle: Some(handle), slot, processed, failed })
    }

    fn process(
        queue: &SharedQueue,
        region: &CicsRegion,
        item: &WorkItem,
        processed: &AtomicU64,
        failed: &AtomicU64,
    ) {
        match decode_message(&item.payload) {
            Some((tran, _payload)) => match region.execute_local(&tran) {
                Ok(_) => {
                    processed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            },
            None => {
                failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = queue.complete(item);
    }

    /// The consumer's connector slot (peers recover orphans by slot).
    pub fn slot(&self) -> sysplex_core::ConnId {
        self.slot
    }

    /// Stop consuming (drains the in-flight message first).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MppRegion {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for MppRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MppRegion")
            .field("slot", &self.slot)
            .field("processed", &self.processed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::TranDef;
    use crate::workq::queue_params;
    use sysplex_core::facility::{CfConfig, CouplingFacility};
    use sysplex_core::SystemId;
    use sysplex_dasd::farm::DasdFarm;
    use sysplex_dasd::volume::IoModel;
    use sysplex_db::group::{DataSharingGroup, GroupConfig};
    use sysplex_services::system::{System, SystemConfig};
    use sysplex_services::timer::SysplexTimer;
    use sysplex_services::wlm::Wlm;
    use sysplex_services::xcf::Xcf;

    fn region(group: &DataSharingGroup, i: u8) -> Arc<CicsRegion> {
        let id = SystemId::new(i);
        let db = group.add_member(id).unwrap();
        let sys = System::ipl(SystemConfig::cmos(id, 2));
        let region = CicsRegion::new(sys, db, Arc::new(Wlm::new()));
        region.define(TranDef {
            name: "TALLY".into(),
            service_class: "OLTP".into(),
            handler: Arc::new(|db, txn| {
                let cur =
                    db.read(txn, 0)?.map(|v| u64::from_be_bytes(v[..8].try_into().unwrap())).unwrap_or(0);
                db.write(txn, 0, Some(&(cur + 1).to_be_bytes()))
            }),
        });
        region
    }

    fn group() -> Arc<DataSharingGroup> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let farm = DasdFarm::new(IoModel::instant());
        let timer = SysplexTimer::new();
        let xcf = Xcf::new(Arc::clone(&timer));
        let mut config = GroupConfig::default();
        config.db.lock_timeout = Duration::from_millis(200);
        DataSharingGroup::new(config, &cf, farm, timer, xcf).unwrap()
    }

    #[test]
    fn message_codec_roundtrip() {
        let m = encode_message("PAYT", b"acct=7");
        let (tran, payload) = decode_message(&m).unwrap();
        assert_eq!(tran, "PAYT");
        assert_eq!(payload, b"acct=7");
        assert!(decode_message(&[0, 9]).is_none());
    }

    #[test]
    fn messages_processed_exactly_once_across_regions() {
        let g = group();
        let cf = CouplingFacility::new(CfConfig::named("CFQ"));
        let list = cf.allocate_list_structure("IMSMSGQ", queue_params()).unwrap();
        let r0 = region(&g, 0);
        let r1 = region(&g, 1);
        let producer = SharedQueue::open(&list, cf.subchannel()).unwrap();
        let mpp0 = MppRegion::start(&list, cf.subchannel(), Arc::clone(&r0)).unwrap();
        let mpp1 = MppRegion::start(&list, cf.subchannel(), Arc::clone(&r1)).unwrap();
        let total = 40u64;
        for i in 0..total {
            producer.put(i % 4, &encode_message("TALLY", &i.to_be_bytes())).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while mpp0.processed.load(Ordering::Relaxed) + mpp1.processed.load(Ordering::Relaxed) < total
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        mpp0.stop();
        mpp1.stop();
        // The shared tally equals the message count: each processed once.
        let v = r0.database().run(10, |db, txn| db.read(txn, 0)).unwrap().unwrap();
        assert_eq!(u64::from_be_bytes(v[..8].try_into().unwrap()), total);
        assert_eq!(list.entry_count(), 0, "queue fully drained");
        r0.system().quiesce();
        r1.system().quiesce();
    }

    #[test]
    fn unknown_transactions_are_poison_but_do_not_wedge() {
        let g = group();
        let cf = CouplingFacility::new(CfConfig::named("CFQ"));
        let list = cf.allocate_list_structure("IMSMSGQ", queue_params()).unwrap();
        let r0 = region(&g, 0);
        let producer = SharedQueue::open(&list, cf.subchannel()).unwrap();
        let mpp = MppRegion::start(&list, cf.subchannel(), Arc::clone(&r0)).unwrap();
        producer.put(0, &encode_message("NOPE", b"")).unwrap();
        producer.put(1, &encode_message("TALLY", b"")).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while mpp.processed.load(Ordering::Relaxed) < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(mpp.failed.load(Ordering::Relaxed), 1);
        assert_eq!(mpp.processed.load(Ordering::Relaxed), 1);
        mpp.stop();
        r0.system().quiesce();
    }
}
