//! The shared DASD farm: full connectivity from every system.
//!
//! "The disks are fully connected to all processors" (§3.1) — the defining
//! physical property that makes the data-sharing design possible. The farm
//! is the single namespace of volumes; every I/O names the issuing system
//! so the fence can enforce fail-stop isolation.

use crate::error::{IoError, IoResult};
use crate::fence::FenceControl;
use crate::path::PathSet;
use crate::volume::{IoModel, Volume};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// The sysplex's shared disk farm.
#[derive(Debug)]
pub struct DasdFarm {
    volumes: RwLock<HashMap<String, Arc<PathSet>>>,
    fence: Arc<FenceControl>,
    default_model: IoModel,
}

impl DasdFarm {
    /// An empty farm whose volumes default to `model` service times.
    pub fn new(model: IoModel) -> Arc<Self> {
        Arc::new(DasdFarm {
            volumes: RwLock::new(HashMap::new()),
            fence: Arc::new(FenceControl::new()),
            default_model: model,
        })
    }

    /// The farm's fence switchgear (shared with the heartbeat monitor).
    pub fn fence(&self) -> &Arc<FenceControl> {
        &self.fence
    }

    /// Initialise a volume with `capacity` blocks behind `paths` channel
    /// paths.
    pub fn add_volume(&self, name: &str, capacity: u64, paths: u32) -> IoResult<Arc<PathSet>> {
        let mut vols = self.volumes.write();
        if vols.contains_key(name) {
            return Err(IoError::VolumeExists(name.to_string()));
        }
        let v = Arc::new(PathSet::new(Arc::new(Volume::new(name, capacity, self.default_model)), paths));
        vols.insert(name.to_string(), Arc::clone(&v));
        Ok(v)
    }

    /// Look up a volume.
    pub fn volume(&self, name: &str) -> IoResult<Arc<PathSet>> {
        self.volumes.read().get(name).cloned().ok_or_else(|| IoError::NoSuchVolume(name.to_string()))
    }

    /// Resolve a volume once, for a caller that does all its I/O on it.
    pub fn open(&self, name: &str) -> IoResult<VolumeHandle> {
        Ok(VolumeHandle { fence: Arc::clone(&self.fence), paths: self.volume(name)? })
    }

    /// Read a block as `system` (fence-checked).
    pub fn read(&self, system: u8, volume: &str, block: u64) -> IoResult<Vec<u8>> {
        self.open(volume)?.read(system, block)
    }

    /// Write a block as `system` (fence-checked).
    pub fn write(&self, system: u8, volume: &str, block: u64, data: &[u8]) -> IoResult<()> {
        self.open(volume)?.write(system, block, data)
    }

    /// Atomic read-modify-write as `system` (fence-checked).
    pub fn update<R>(
        &self,
        system: u8,
        volume: &str,
        block: u64,
        f: impl FnOnce(&mut Vec<u8>) -> R,
    ) -> IoResult<R> {
        self.open(volume)?.update(system, block, f)
    }
}

/// One volume of the farm, looked up once. Holding the handle saves the
/// name lookup, nothing else: every I/O still names the issuing system and
/// passes the fence and path selection, so a system fenced after it opened
/// the volume is refused like any other.
#[derive(Debug, Clone)]
pub struct VolumeHandle {
    fence: Arc<FenceControl>,
    paths: Arc<PathSet>,
}

impl VolumeHandle {
    /// The volume's channel paths (capacity, counters, failure injection).
    pub fn paths(&self) -> &Arc<PathSet> {
        &self.paths
    }

    /// Read a block as `system` (fence-checked).
    pub fn read(&self, system: u8, block: u64) -> IoResult<Vec<u8>> {
        self.fence.check(system)?;
        self.paths.read(block)
    }

    /// Write a block as `system` (fence-checked).
    pub fn write(&self, system: u8, block: u64, data: &[u8]) -> IoResult<()> {
        self.fence.check(system)?;
        self.paths.write(block, data)
    }

    /// Atomic read-modify-write as `system` (fence-checked).
    pub fn update<R>(&self, system: u8, block: u64, f: impl FnOnce(&mut Vec<u8>) -> R) -> IoResult<R> {
        self.fence.check(system)?;
        self.paths.update(block, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_full_connectivity() {
        let farm = DasdFarm::new(IoModel::instant());
        farm.add_volume("SYSPLX", 100, 4).unwrap();
        // Every system reads what any system wrote.
        farm.write(0, "SYSPLX", 1, b"shared").unwrap();
        for sys in 0..32 {
            assert_eq!(farm.read(sys, "SYSPLX", 1).unwrap(), b"shared");
        }
    }

    #[test]
    fn duplicate_volume_rejected() {
        let farm = DasdFarm::new(IoModel::instant());
        farm.add_volume("V", 10, 1).unwrap();
        assert_eq!(farm.add_volume("V", 10, 1).unwrap_err(), IoError::VolumeExists("V".into()));
    }

    #[test]
    fn missing_volume_errors() {
        let farm = DasdFarm::new(IoModel::instant());
        assert_eq!(farm.read(0, "NOPE", 0).unwrap_err(), IoError::NoSuchVolume("NOPE".into()));
    }

    #[test]
    fn fenced_system_cannot_touch_any_volume() {
        let farm = DasdFarm::new(IoModel::instant());
        farm.add_volume("A", 10, 1).unwrap();
        farm.add_volume("B", 10, 1).unwrap();
        farm.fence().fence(5);
        assert_eq!(farm.write(5, "A", 0, b"x").unwrap_err(), IoError::Fenced(5));
        assert_eq!(farm.read(5, "B", 0).unwrap_err(), IoError::Fenced(5));
        assert!(farm.write(6, "A", 0, b"x").is_ok(), "healthy systems unaffected");
    }

    #[test]
    fn a_handle_opened_before_the_fence_is_refused_after_it() {
        let farm = DasdFarm::new(IoModel::instant());
        let paths = farm.add_volume("A", 10, 2).unwrap();
        let vol = farm.open("A").unwrap();
        vol.write(5, 0, b"before").unwrap();
        farm.fence().fence(5);
        assert_eq!(vol.write(5, 0, b"zombie").unwrap_err(), IoError::Fenced(5));
        assert_eq!(vol.read(5, 0).unwrap_err(), IoError::Fenced(5));
        assert_eq!(vol.update(5, 0, |b| b.clear()).unwrap_err(), IoError::Fenced(5));
        assert_eq!(vol.read(6, 0).unwrap(), b"before", "the zombie's write never landed");
        // Path selection is per I/O too, not frozen at open.
        paths.fail_path(0);
        paths.fail_path(1);
        assert_eq!(vol.read(6, 0).unwrap_err(), IoError::NoPaths);
        assert_eq!(farm.open("NOPE").unwrap_err(), IoError::NoSuchVolume("NOPE".into()));
    }
}
