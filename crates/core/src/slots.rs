//! The connector-slot table the cache and list models share.
//!
//! Both structures attach up to [`MAX_CONNECTORS`] connectors, each with a
//! local bit vector, and both check "is this connector attached" on every
//! command. The protocol is the same and is easy to get subtly wrong, so
//! it lives here once: a slot is claimed and released under one lock, the
//! active bit is set after the slot is filled and cleared before it is
//! emptied, and the per-command check is a single relaxed load of the
//! active mask. (The lock model's slots are a different protocol — CAS
//! claimed, failed-persistent aware — and stay in `lock.rs`.)

use crate::bitvec::BitVector;
use crate::error::{CfError, CfResult};
use crate::types::{ConnId, MAX_CONNECTORS, MAX_VECTOR_BITS};
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Which connector slots are attached, and what the structure keeps for
/// each attached connector (`T`).
#[derive(Debug)]
pub(crate) struct ConnectorSlots<T> {
    slots: Mutex<[Option<T>; MAX_CONNECTORS]>,
    /// On its own line: every command reads it, and the slot lock beside
    /// it is written by every cross-invalidate that reaches a peer.
    active: CachePadded<AtomicU32>,
}

impl<T> ConnectorSlots<T> {
    /// A table with every slot free.
    pub(crate) fn new() -> Self {
        ConnectorSlots {
            slots: Mutex::new(std::array::from_fn(|_| None)),
            active: CachePadded::new(AtomicU32::new(0)),
        }
    }

    /// Attach a connector: allocate its local vector of `vector_len` bits
    /// (at least one, at most [`MAX_VECTOR_BITS`], all clear) and claim
    /// the lowest free slot, keeping `keep(&vector)` there.
    pub(crate) fn connect(
        &self,
        vector_len: usize,
        keep: impl FnOnce(&Arc<BitVector>) -> T,
    ) -> CfResult<(ConnId, Arc<BitVector>)> {
        if vector_len == 0 {
            return Err(CfError::BadParameter("vector must have at least one bit"));
        }
        if vector_len > MAX_VECTOR_BITS {
            return Err(CfError::BadParameter("vector longer than MAX_VECTOR_BITS"));
        }
        let mut slots = self.slots.lock();
        let slot = slots.iter().position(Option::is_none).ok_or(CfError::NoConnectorSlots)?;
        let vector = Arc::new(BitVector::new(vector_len));
        slots[slot] = Some(keep(&vector));
        self.active.fetch_or(1 << slot, Ordering::AcqRel);
        Ok((ConnId::from_raw(slot as u8), vector))
    }

    /// `BadConnector` unless `conn` is attached: one relaxed load.
    #[inline]
    pub(crate) fn check_active(&self, conn: ConnId) -> CfResult<()> {
        if self.active.load(Ordering::Relaxed) & conn.mask() == 0 {
            Err(CfError::BadConnector)
        } else {
            Ok(())
        }
    }

    /// Free `conn`'s slot. The active bit is cleared before the slot is
    /// free to be claimed, both under the lock `connect` claims it under:
    /// a late disconnect must not clear the active bit of whoever reuses
    /// the slot.
    pub(crate) fn release(&self, conn: ConnId) {
        let mut slots = self.slots.lock();
        self.active.fetch_and(!conn.mask(), Ordering::AcqRel);
        slots[conn.index()] = None;
    }

    /// What the structure keeps per slot, locked (cross-invalidate reads
    /// the peers' vectors through this).
    pub(crate) fn lock(&self) -> MutexGuard<'_, [Option<T>; MAX_CONNECTORS]> {
        self.slots.lock()
    }
}
