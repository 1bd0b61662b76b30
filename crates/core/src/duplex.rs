//! Structure duplexing below the connection (§3.3: "Multiple CF's can be
//! connected for availability"; DESIGN.md §13).
//!
//! A duplexed structure has one [`DuplexPair`], recorded on the primary
//! and joined by every connection to it, a later one at attach. Each
//! connection mirrors every command that changed the primary through its
//! own connection to the secondary. The first mirror that fails *breaks*
//! the pair for all ([`TraceEvent::DuplexBreak`]), and a broken pair is
//! never promoted: a failover cannot land on a secondary that missed one.

use crate::cache::CacheStructure;
use crate::connection::CfSubchannel;
use crate::trace::TraceEvent;
use crate::types::ConnId;
use crate::CfResult;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A primary structure's duplex pair: the secondary and whether the pair
/// still holds.
#[derive(Debug)]
pub struct DuplexPair<S> {
    pub(crate) secondary: Arc<S>,
    /// Template subchannel to the secondary's facility; each connection
    /// mirrors through a sibling of it, attributed to its own system.
    pub(crate) sub: CfSubchannel,
    /// Set once: by the first failed mirror, or when the pair is ended.
    simplex: AtomicBool,
}

impl<S> DuplexPair<S> {
    /// A pair onto `secondary`, reached through siblings of `sub`.
    pub fn new(secondary: Arc<S>, sub: &CfSubchannel) -> Arc<Self> {
        Arc::new(DuplexPair { secondary, sub: sub.clone(), simplex: AtomicBool::new(false) })
    }

    /// Whether every command so far has been mirrored.
    #[inline]
    pub(crate) fn is_intact(&self) -> bool {
        !self.simplex.load(Ordering::Acquire)
    }

    /// Break the pair: connector `id`'s command went unmirrored. Traced
    /// once, on `primary`, that connector's subchannel.
    pub(crate) fn break_on(&self, primary: &CfSubchannel, id: ConnId) {
        if !self.simplex.swap(true, Ordering::AcqRel) {
            primary.emit(TraceEvent::DuplexBreak { conn: id.raw() });
        }
    }
}

/// Where a primary structure records its pair.
pub(crate) type DuplexSlot<S> = Mutex<Option<Arc<DuplexPair<S>>>>;

/// The intact pair recorded in `slot`: what a new connection joins, or
/// breaks when it cannot reach the secondary.
pub(crate) fn recorded<S>(slot: &DuplexSlot<S>) -> Option<Arc<DuplexPair<S>>> {
    slot.lock().clone().filter(|pair| pair.is_intact())
}

impl CacheStructure {
    /// End this structure's duplex pair, if it has one: every connection
    /// goes simplex, with no trace event. (A lock structure's pair ends
    /// when a rebuild replaces its connections.)
    pub fn end_duplexing(&self) {
        if let Some(pair) = self.duplex.lock().take() {
            pair.simplex.store(true, Ordering::Release);
        }
    }
}

/// A connection's half of a pair: the pair and this connector's own
/// connection `C` to the secondary.
#[derive(Debug)]
pub(crate) struct Mirror<S, C> {
    pub(crate) pair: Arc<DuplexPair<S>>,
    pub(crate) conn: C,
}

impl<S, C> Mirror<S, C> {
    /// Mirror one command of connector `id`, issued on `primary`, while
    /// the pair holds; a failure breaks the pair.
    pub(crate) fn run(&self, primary: &CfSubchannel, id: ConnId, op: impl FnOnce(&C) -> CfResult<()>) {
        if self.pair.is_intact() && op(&self.conn).is_err() {
            self.pair.break_on(primary, id);
        }
    }

    /// The secondary connection, while the pair holds.
    pub(crate) fn intact(&self) -> Option<&C> {
        self.pair.is_intact().then_some(&self.conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::LinkFault;
    use crate::facility::{CfConfig, CouplingFacility};
    use crate::lock::{LockMode, LockParams};
    use crate::trace::TraceKind;

    #[test]
    fn the_first_failed_mirror_breaks_the_pair_once_for_every_connection() {
        let cf1 = CouplingFacility::new(CfConfig::named("CF01"));
        let cf2 = CouplingFacility::new(CfConfig::named("CF02"));
        cf1.allocate_lock_structure("LOCK", LockParams::with_entries(64)).unwrap();
        let secondary = cf2.allocate_lock_structure("LOCK_DX", LockParams::with_entries(64)).unwrap();
        cf1.tracer().enable_with_capacity(256);
        let mut a = cf1.connect_lock("LOCK").unwrap();
        a.duplex_into(&DuplexPair::new(Arc::clone(&secondary), &cf2.subchannel())).unwrap();
        // Attached after the pair was established: joins it.
        let b = cf1.connect_lock("LOCK").unwrap();
        assert!(a.is_duplexed() && b.is_duplexed());
        assert!(a.request_lock(1, LockMode::Exclusive).unwrap().is_granted());
        assert_eq!(secondary.interest_entries(a.conn_id()), [1]);

        cf2.inject_fault(LinkFault::InterfaceControlCheck);
        assert!(b.request_lock(2, LockMode::Exclusive).unwrap().is_granted(), "the primary's result stands");
        assert!(!a.is_duplexed() && !b.is_duplexed() && a.promote().is_none());
        a.release_lock(1).unwrap();
        assert_eq!(secondary.interest_entries(a.conn_id()), [1], "nothing is mirrored once broken");
        assert_eq!(cf1.tracer().kind_count(TraceKind::DuplexBreak), 1);
        assert!(!cf1.connect_lock("LOCK").unwrap().is_duplexed(), "a broken pair is not joined");
    }
}
