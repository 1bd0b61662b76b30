//! A block-addressed DASD volume.
//!
//! Substitutes for a 3390-style device behind ESCON channels. Service time
//! is simulated (default ~4 ms per I/O, 1996-era) so that experiments see
//! the paper's cost hierarchy: DASD I/O is three orders of magnitude more
//! expensive than a CF command.

use crate::error::{IoError, IoResult};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Maximum bytes per block (a 4 KiB page).
pub const BLOCK_SIZE: usize = 4096;

/// Service-time model for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoModel {
    /// Per-I/O service time in microseconds.
    pub service_us: u64,
    /// When false, I/O completes immediately (functional mode).
    pub simulate: bool,
}

impl IoModel {
    /// 1996-era disk: ~4 ms per I/O.
    pub fn disk_1996() -> Self {
        IoModel { service_us: 4_000, simulate: true }
    }

    /// No simulated delay.
    pub fn instant() -> Self {
        IoModel { service_us: 0, simulate: false }
    }

    pub(crate) fn charge(&self) {
        if self.simulate && self.service_us > 0 {
            // Millisecond-scale waits: sleep is accurate enough and does
            // not burn a host CPU the way the CF's µs spin-waits must.
            std::thread::sleep(Duration::from_micros(self.service_us));
        }
    }
}

/// Per-volume I/O counters.
#[derive(Debug, Default)]
pub struct VolumeStats {
    /// Completed reads.
    pub reads: AtomicU64,
    /// Completed writes.
    pub writes: AtomicU64,
}

/// A DASD volume: `capacity` blocks of up to [`BLOCK_SIZE`] bytes.
#[derive(Debug)]
pub struct Volume {
    name: String,
    capacity: u64,
    blocks: RwLock<HashMap<u64, Vec<u8>>>,
    model: IoModel,
    online: AtomicBool,
    /// Published counters.
    pub stats: VolumeStats,
}

impl Volume {
    /// Create an online volume.
    pub fn new(name: &str, capacity: u64, model: IoModel) -> Self {
        Volume {
            name: name.to_string(),
            capacity,
            blocks: RwLock::new(HashMap::new()),
            model,
            online: AtomicBool::new(true),
            stats: VolumeStats::default(),
        }
    }

    /// Volume serial.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Vary the device offline/online (failure injection).
    pub fn set_online(&self, online: bool) {
        self.online.store(online, Ordering::Release);
    }

    /// Whether the device accepts I/O.
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::Acquire)
    }

    fn check(&self, block: u64) -> IoResult<()> {
        if !self.is_online() {
            return Err(IoError::DeviceOffline);
        }
        if block >= self.capacity {
            return Err(IoError::OutOfExtent { block, capacity: self.capacity });
        }
        Ok(())
    }

    /// Read a block. Unwritten blocks read back as empty.
    pub fn read(&self, block: u64) -> IoResult<Vec<u8>> {
        self.check(block)?;
        self.model.charge();
        let data = self.blocks.read().get(&block).cloned().unwrap_or_default();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }

    /// Write a block.
    pub fn write(&self, block: u64, data: &[u8]) -> IoResult<()> {
        self.check(block)?;
        if data.len() > BLOCK_SIZE {
            return Err(IoError::BlockTooLarge(data.len()));
        }
        self.model.charge();
        // A rewritten block keeps its buffer.
        let mut blocks = self.blocks.write();
        let stored = blocks.entry(block).or_default();
        stored.clear();
        stored.extend_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically read-modify-write a block under the volume's write
    /// latch (controller-level compare-and-swap used by the couple data
    /// sets' serialized access protocol).
    pub fn update<R>(&self, block: u64, f: impl FnOnce(&mut Vec<u8>) -> R) -> IoResult<R> {
        self.check(block)?;
        self.model.charge();
        let mut blocks = self.blocks.write();
        let data = blocks.entry(block).or_default();
        let r = f(data);
        if data.len() > BLOCK_SIZE {
            data.truncate(BLOCK_SIZE);
            return Err(IoError::BlockTooLarge(BLOCK_SIZE + 1));
        }
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// Number of blocks ever written (diagnostics).
    pub fn blocks_in_use(&self) -> usize {
        self.blocks.read().len()
    }

    /// Copy every written block from `src` (duplex re-synchronisation).
    pub fn clone_contents_from(&self, src: &Volume) {
        let src_blocks = src.blocks.read();
        let mut dst = self.blocks.write();
        dst.clear();
        for (k, v) in src_blocks.iter() {
            dst.insert(*k, v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let v = Volume::new("VOL001", 100, IoModel::instant());
        v.write(5, b"hello").unwrap();
        assert_eq!(v.read(5).unwrap(), b"hello");
        assert_eq!(v.read(6).unwrap(), Vec::<u8>::new(), "unwritten block reads empty");
        assert_eq!(v.stats.reads.load(Ordering::Relaxed), 2);
        assert_eq!(v.stats.writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn extent_enforced() {
        let v = Volume::new("VOL001", 10, IoModel::instant());
        assert_eq!(v.read(10).unwrap_err(), IoError::OutOfExtent { block: 10, capacity: 10 });
        assert_eq!(v.write(11, b"").unwrap_err(), IoError::OutOfExtent { block: 11, capacity: 10 });
    }

    #[test]
    fn block_size_enforced() {
        let v = Volume::new("VOL001", 10, IoModel::instant());
        assert!(v.write(0, &vec![0u8; BLOCK_SIZE]).is_ok());
        assert_eq!(
            v.write(0, &vec![0u8; BLOCK_SIZE + 1]).unwrap_err(),
            IoError::BlockTooLarge(BLOCK_SIZE + 1)
        );
    }

    #[test]
    fn offline_device_rejects_io() {
        let v = Volume::new("VOL001", 10, IoModel::instant());
        v.set_online(false);
        assert_eq!(v.read(0).unwrap_err(), IoError::DeviceOffline);
        v.set_online(true);
        assert!(v.read(0).is_ok());
    }

    #[test]
    fn update_is_atomic_under_concurrency() {
        use std::sync::Arc;
        let v = Arc::new(Volume::new("VOL001", 10, IoModel::instant()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        v.update(0, |data| {
                            if data.is_empty() {
                                data.extend_from_slice(&0u64.to_be_bytes());
                            }
                            let n = u64::from_be_bytes(data[..8].try_into().unwrap());
                            data[..8].copy_from_slice(&(n + 1).to_be_bytes());
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let data = v.read(0).unwrap();
        assert_eq!(u64::from_be_bytes(data[..8].try_into().unwrap()), 8000);
    }

    #[test]
    fn simulated_latency_is_charged() {
        let v = Volume::new("VOL001", 10, IoModel { service_us: 2_000, simulate: true });
        let t0 = std::time::Instant::now();
        v.write(0, b"x").unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(1_800));
    }

    #[test]
    fn clone_contents_resynchronises() {
        let a = Volume::new("A", 10, IoModel::instant());
        let b = Volume::new("B", 10, IoModel::instant());
        a.write(1, b"one").unwrap();
        a.write(2, b"two").unwrap();
        b.write(3, b"stale").unwrap();
        b.clone_contents_from(&a);
        assert_eq!(b.read(1).unwrap(), b"one");
        assert_eq!(b.read(3).unwrap(), Vec::<u8>::new(), "stale data gone");
    }
}
