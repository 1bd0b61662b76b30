//! Couple data sets — the shared state repository on DASD.
//!
//! §3.2, second building block: "the ability to provide efficient, shared
//! access to operating system resource state data is provided. This data is
//! located on shared disks and many advanced functions are provided
//! including serialized access to the data (with special time-out logic to
//! handle faulty processors) and duplexing of the disks containing the
//! state data."
//!
//! The repository is a named-record store on a [`DuplexPair`]:
//!
//! * **Serialized access** — a latch record with a *lease*: a holder that
//!   stops renewing (a faulty processor) loses the latch after the lease
//!   expires, so one sick system can never wedge sysplex-wide state.
//! * **Records** — name → bytes, placed by open-addressed hashing over the
//!   volume blocks so the directory itself lives on (duplexed) DASD and
//!   survives hot switches.
//! * **Fencing** — every access names the issuing system; fenced systems
//!   are rejected, which is how a zombie discovers it has been expelled.

use crate::timer::SysplexTimer;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::hashing::{fnv1a64, mix64};
use sysplex_core::wire::{WireReader, WireWriter};
use sysplex_dasd::duplex::DuplexPair;
use sysplex_dasd::error::IoError;
use sysplex_dasd::fence::FenceControl;
use sysplex_dasd::volume::BLOCK_SIZE;

/// Errors from couple-data-set operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdsError {
    /// Underlying I/O failed.
    Io(IoError),
    /// No free block for a new record.
    Full,
    /// Record name too long or data does not fit a block.
    RecordTooLarge,
    /// Serialization latch held by another system and lease not expired.
    Busy {
        /// The holding system.
        holder: u8,
    },
    /// Releasing a latch this system does not hold.
    NotHolder,
}

impl fmt::Display for CdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdsError::Io(e) => write!(f, "couple data set I/O: {e}"),
            CdsError::Full => write!(f, "couple data set full"),
            CdsError::RecordTooLarge => write!(f, "record exceeds block size"),
            CdsError::Busy { holder } => write!(f, "serialization held by SYS{holder:02}"),
            CdsError::NotHolder => write!(f, "latch not held by this system"),
        }
    }
}

impl std::error::Error for CdsError {}

impl From<IoError> for CdsError {
    fn from(e: IoError) -> Self {
        CdsError::Io(e)
    }
}

const LATCH_BLOCK: u64 = 0;
const FIRST_RECORD_BLOCK: u64 = 1;
const MAX_NAME: usize = 64;

/// A couple data set.
pub struct CoupleDataSet {
    pair: DuplexPair,
    fence: Arc<FenceControl>,
    timer: Arc<SysplexTimer>,
    capacity_blocks: u64,
}

impl CoupleDataSet {
    /// Format a couple data set over a duplexed pair with `capacity_blocks`
    /// record blocks.
    pub fn new(
        pair: DuplexPair,
        fence: Arc<FenceControl>,
        timer: Arc<SysplexTimer>,
        capacity_blocks: u64,
    ) -> Arc<Self> {
        assert!(capacity_blocks >= 2, "need at least a latch block and one record block");
        Arc::new(CoupleDataSet { pair, fence, timer, capacity_blocks })
    }

    /// The duplex pair (for hot-switch administration).
    pub fn pair(&self) -> &DuplexPair {
        &self.pair
    }

    fn check_fence(&self, system: u8) -> Result<(), CdsError> {
        self.fence.check(system).map_err(CdsError::Io)
    }

    // ----- serialized access -----

    /// Try to acquire the serialization latch for `lease`. Returns
    /// `Busy { holder }` while another system's unexpired lease holds it;
    /// an **expired** lease is taken over — the time-out logic that handles
    /// faulty processors.
    pub fn acquire_serialization(&self, system: u8, lease: Duration) -> Result<(), CdsError> {
        self.check_fence(system)?;
        let now = self.timer.tod();
        let expiry = now.0 + lease.as_micros() as u64;

        self.pair.update(LATCH_BLOCK, |data| {
            if data.len() < 16 {
                data.resize(16, 0);
            }
            let owner = u64::from_be_bytes(data[0..8].try_into().unwrap());
            let lease_end = u64::from_be_bytes(data[8..16].try_into().unwrap());
            if owner == 0 || owner == system as u64 + 1 || lease_end < now.0 {
                data[0..8].copy_from_slice(&(system as u64 + 1).to_be_bytes());
                data[8..16].copy_from_slice(&expiry.to_be_bytes());
                Ok(())
            } else {
                Err(CdsError::Busy { holder: (owner - 1) as u8 })
            }
        })?
    }

    /// Release the latch (no-op error if this system does not hold it).
    pub fn release_serialization(&self, system: u8) -> Result<(), CdsError> {
        self.check_fence(system)?;

        self.pair.update(LATCH_BLOCK, |data| {
            if data.len() < 16 {
                data.resize(16, 0);
            }
            let owner = u64::from_be_bytes(data[0..8].try_into().unwrap());
            if owner == system as u64 + 1 {
                data[0..16].fill(0);
                Ok(())
            } else {
                Err(CdsError::NotHolder)
            }
        })?
    }

    /// Run `f` under the serialization latch, spinning with backoff until
    /// acquired. The lease bounds how long a crashed holder can block us.
    pub fn with_serialization<R>(
        &self,
        system: u8,
        lease: Duration,
        f: impl FnOnce() -> R,
    ) -> Result<R, CdsError> {
        loop {
            match self.acquire_serialization(system, lease) {
                Ok(()) => break,
                // Timer-routed backoff: yields on a wall-clock timer, but
                // advances virtual time on a harness timer so a crashed
                // holder's lease actually expires under simulation.
                Err(CdsError::Busy { .. }) => self.timer.park_us(0),
                Err(e) => return Err(e),
            }
        }
        let r = f();
        self.release_serialization(system)?;
        Ok(r)
    }

    /// Current latch holder, if any (diagnostics).
    pub fn serialization_holder(&self) -> Result<Option<u8>, CdsError> {
        let data = self.pair.read(LATCH_BLOCK)?;
        if data.len() < 16 {
            return Ok(None);
        }
        let owner = u64::from_be_bytes(data[0..8].try_into().unwrap());
        let lease_end = u64::from_be_bytes(data[8..16].try_into().unwrap());
        if owner == 0 || lease_end < self.timer.tod().0 {
            Ok(None)
        } else {
            Ok(Some((owner - 1) as u8))
        }
    }

    // ----- record store -----

    fn probe_sequence(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let records = self.capacity_blocks - FIRST_RECORD_BLOCK;
        let start = mix64(fnv1a64(name.as_bytes())) % records;
        (0..records).map(move |i| FIRST_RECORD_BLOCK + (start + i) % records)
    }

    /// A record block is the record's name, then its data, each
    /// length-prefixed. A block that is empty, unnamed, or shorter than
    /// its own length words say is not a record: it reads as a free slot.
    fn decode(block: &[u8]) -> Option<(&str, &[u8])> {
        let mut r = WireReader::new(block);
        let name = std::str::from_utf8(r.get_slice().ok()?).ok()?;
        let data = r.get_slice().ok()?;
        (!name.is_empty()).then_some((name, data))
    }

    fn encode(name: &str, data: &[u8]) -> Result<Vec<u8>, CdsError> {
        if name.is_empty() || name.len() > MAX_NAME || 8 + name.len() + data.len() > BLOCK_SIZE {
            return Err(CdsError::RecordTooLarge);
        }
        let mut w = WireWriter::new();
        w.put_str(name);
        w.put_bytes(data);
        Ok(w.into_bytes())
    }

    /// Write (or replace) a named record.
    pub fn write_record(&self, system: u8, name: &str, data: &[u8]) -> Result<(), CdsError> {
        self.check_fence(system)?;
        let encoded = Self::encode(name, data)?;
        for block in self.probe_sequence(name) {
            let existing = self.pair.read(block)?;
            match Self::decode(&existing) {
                Some((n, _)) if n == name => {
                    self.pair.write(block, &encoded)?;
                    return Ok(());
                }
                Some(_) => continue, // occupied by another record
                None => {
                    // Empty slot: claim atomically so two writers of new
                    // records never collide on the same block.
                    let claimed = self.pair.update(block, |slot| match Self::decode(slot) {
                        Some((n, _)) if n == name => {
                            slot.clear();
                            slot.extend_from_slice(&encoded);
                            true
                        }
                        Some(_) => false,
                        None => {
                            slot.clear();
                            slot.extend_from_slice(&encoded);
                            true
                        }
                    })?;
                    if claimed {
                        return Ok(());
                    }
                }
            }
        }
        Err(CdsError::Full)
    }

    /// Read a named record.
    pub fn read_record(&self, system: u8, name: &str) -> Result<Option<Vec<u8>>, CdsError> {
        self.check_fence(system)?;
        for block in self.probe_sequence(name) {
            let existing = self.pair.read(block)?;
            match Self::decode(&existing) {
                Some((n, data)) if n == name => return Ok(Some(data.to_vec())),
                Some(_) => continue,
                None => return Ok(None),
            }
        }
        Ok(None)
    }

    /// Delete a named record. Returns whether it existed.
    ///
    /// The slot stays occupied with an empty payload: lookups stop at the
    /// first empty *block*, so vacating the slot would break the probe
    /// chains of records hashed behind it.
    pub fn delete_record(&self, system: u8, name: &str) -> Result<bool, CdsError> {
        match self.read_record(system, name)? {
            Some(_) => {
                self.write_record(system, name, &[])?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl fmt::Debug for CoupleDataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoupleDataSet").field("capacity_blocks", &self.capacity_blocks).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_dasd::volume::{IoModel, Volume};

    fn cds() -> Arc<CoupleDataSet> {
        let p = Arc::new(Volume::new("CDS01", 256, IoModel::instant()));
        let a = Arc::new(Volume::new("CDS02", 256, IoModel::instant()));
        CoupleDataSet::new(
            DuplexPair::new(p, Some(a)),
            Arc::new(FenceControl::new()),
            // Virtual: lease-expiry tests steer time instead of sleeping.
            SysplexTimer::new_virtual(),
            256,
        )
    }

    #[test]
    fn record_roundtrip_and_replace() {
        let c = cds();
        c.write_record(0, "STATUS.0", b"alive").unwrap();
        assert_eq!(c.read_record(1, "STATUS.0").unwrap().unwrap(), b"alive");
        c.write_record(0, "STATUS.0", b"alive-2").unwrap();
        assert_eq!(c.read_record(1, "STATUS.0").unwrap().unwrap(), b"alive-2");
        assert_eq!(c.read_record(1, "STATUS.1").unwrap(), None);
    }

    #[test]
    fn a_block_whose_length_word_overstates_its_payload_is_not_a_record() {
        let c = cds();
        let block = c.probe_sequence("STATUS.9").next().unwrap();
        // DASD blocks are stored at their written length, so nothing but
        // the decoder stands between this length word and the slice.
        let mut w = WireWriter::new();
        w.put_str("STATUS.9");
        w.put_u32(1000);
        w.put_raw(b"short");
        let raw = w.into_bytes();
        c.pair().write(block, &raw).unwrap();
        assert_eq!(c.read_record(0, "STATUS.9").unwrap(), None);
        c.write_record(0, "STATUS.9", b"alive").unwrap();
        assert_eq!(c.read_record(0, "STATUS.9").unwrap().unwrap(), b"alive");
    }

    /// The two record formats `services` keeps on the couple data set: a
    /// cut record, or one whose leading length word overstates what
    /// follows, is not a record.
    #[test]
    fn truncated_or_overlong_records_decode_to_nothing() {
        use crate::arm::ElementSpec;
        use sysplex_core::wire::{from_bytes, to_bytes};
        use sysplex_core::SystemId;

        type Decodes = fn(&[u8]) -> bool;
        let spec = ElementSpec {
            name: "IRLM_SYS02".into(),
            restart_group: "DB2".into(),
            sequence: 1,
            affinity_to: Some("DB2_SYS02".into()),
        };
        let formats: [(&str, Vec<u8>, Decodes); 2] = [
            ("cds record", CoupleDataSet::encode("STATUS.0", b"alive").unwrap(), |b| {
                CoupleDataSet::decode(b).is_some()
            }),
            ("arm policy", to_bytes(&vec![(spec, SystemId::new(2))]), |b| {
                from_bytes::<Vec<(ElementSpec, SystemId)>>(b).is_ok()
            }),
        ];
        for (what, full, decodes) in formats {
            assert!(decodes(&full), "{what}");
            for cut in 0..full.len() {
                assert!(!decodes(&full[..cut]), "{what} cut at {cut}");
            }
            let mut lying = full.clone();
            lying[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(!decodes(&lying), "{what} with a length of u32::MAX");
        }
    }

    #[test]
    fn many_records_coexist() {
        let c = cds();
        for i in 0..100 {
            c.write_record(0, &format!("REC.{i}"), format!("value-{i}").as_bytes()).unwrap();
        }
        for i in 0..100 {
            assert_eq!(
                c.read_record(0, &format!("REC.{i}")).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn delete_keeps_probe_chains_intact() {
        let c = cds();
        for i in 0..50 {
            c.write_record(0, &format!("K{i}"), b"v").unwrap();
        }
        assert!(c.delete_record(0, "K25").unwrap());
        assert_eq!(c.read_record(0, "K25").unwrap().unwrap(), b"", "empty payload after delete");
        for i in 0..50 {
            assert!(c.read_record(0, &format!("K{i}")).unwrap().is_some(), "K{i} still reachable");
        }
        assert!(!c.delete_record(0, "NOPE").unwrap());
    }

    #[test]
    fn serialization_excludes_and_releases() {
        let c = cds();
        c.acquire_serialization(0, Duration::from_secs(60)).unwrap();
        assert_eq!(
            c.acquire_serialization(1, Duration::from_secs(60)).unwrap_err(),
            CdsError::Busy { holder: 0 }
        );
        assert_eq!(c.serialization_holder().unwrap(), Some(0));
        // Re-acquire by holder renews the lease.
        c.acquire_serialization(0, Duration::from_secs(60)).unwrap();
        c.release_serialization(0).unwrap();
        c.acquire_serialization(1, Duration::from_secs(60)).unwrap();
        assert_eq!(c.release_serialization(0).unwrap_err(), CdsError::NotHolder);
    }

    #[test]
    fn expired_lease_is_taken_over() {
        let c = cds();
        // "Faulty processor": acquires with a tiny lease, never releases.
        c.acquire_serialization(0, Duration::from_millis(5)).unwrap();
        c.timer.advance(Duration::from_millis(20));
        c.acquire_serialization(1, Duration::from_secs(60)).unwrap();
        assert_eq!(c.serialization_holder().unwrap(), Some(1));
    }

    #[test]
    fn with_serialization_runs_mutually_exclusive_sections() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let c = cds();
        let concurrent = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..4u8)
            .map(|sys| {
                let c = Arc::clone(&c);
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        c.with_serialization(sys, Duration::from_secs(10), || {
                            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            concurrent.fetch_sub(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "critical sections never overlapped");
    }

    #[test]
    fn fenced_system_rejected_everywhere() {
        let p = Arc::new(Volume::new("CDS01", 64, IoModel::instant()));
        let fence = Arc::new(FenceControl::new());
        let c = CoupleDataSet::new(DuplexPair::new(p, None), Arc::clone(&fence), SysplexTimer::new(), 64);
        c.write_record(3, "R", b"x").unwrap();
        fence.fence(3);
        assert!(matches!(c.write_record(3, "R", b"y"), Err(CdsError::Io(IoError::Fenced(3)))));
        assert!(matches!(c.read_record(3, "R"), Err(CdsError::Io(IoError::Fenced(3)))));
        assert!(matches!(
            c.acquire_serialization(3, Duration::from_secs(1)),
            Err(CdsError::Io(IoError::Fenced(3)))
        ));
        assert_eq!(c.read_record(4, "R").unwrap().unwrap(), b"x", "healthy systems unaffected");
    }

    #[test]
    fn records_survive_hot_switch() {
        let p = Arc::new(Volume::new("CDS01", 128, IoModel::instant()));
        let a = Arc::new(Volume::new("CDS02", 128, IoModel::instant()));
        let c = CoupleDataSet::new(
            DuplexPair::new(Arc::clone(&p), Some(a)),
            Arc::new(FenceControl::new()),
            SysplexTimer::new(),
            128,
        );
        c.write_record(0, "POLICY", b"WLMPOL01").unwrap();
        p.set_online(false); // primary dies
        assert_eq!(c.read_record(0, "POLICY").unwrap().unwrap(), b"WLMPOL01");
        c.write_record(0, "POLICY", b"WLMPOL02").unwrap();
        assert_eq!(c.read_record(0, "POLICY").unwrap().unwrap(), b"WLMPOL02");
    }

    #[test]
    fn oversized_records_rejected() {
        let c = cds();
        assert_eq!(c.write_record(0, "BIG", &vec![0u8; BLOCK_SIZE]).unwrap_err(), CdsError::RecordTooLarge);
        let long_name = "N".repeat(MAX_NAME + 1);
        assert_eq!(c.write_record(0, &long_name, b"").unwrap_err(), CdsError::RecordTooLarge);
    }
}
