//! Common identifier types shared by every structure model.

use std::fmt;

/// Maximum number of systems in a Parallel Sysplex ("up to 32 systems
/// initially", paper §1/§2.4).
pub const MAX_SYSTEMS: usize = 32;

/// Maximum number of connectors to one CF structure. The initial
/// architecture tracked interest per connector in a 32-bit mask, one
/// connector per system image.
pub const MAX_CONNECTORS: usize = 32;

/// Largest local bit vector or list-notification vector a connector may
/// ask for at attach. The length arrives from outside (an attach frame),
/// so it is bounded before anything is allocated for it; the largest
/// in-repo caller uses 1 024.
pub const MAX_VECTOR_BITS: usize = 1 << 24;

/// Identity of one MVS system image in the sysplex (0..32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SystemId(pub u8);

impl SystemId {
    /// Construct, panicking if out of the architectural range.
    pub fn new(id: u8) -> Self {
        assert!((id as usize) < MAX_SYSTEMS, "system id {id} out of range");
        SystemId(id)
    }

    /// Index form for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SYS{:02}", self.0)
    }
}

/// Identity of one connection to one CF structure.
///
/// Connector slots are assigned by the structure at connect time and are the
/// unit of interest tracking: lock table entries, cache directory entries
/// and list monitors all record interest per `ConnId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub(crate) u8);

impl ConnId {
    /// Construct from a raw slot number (tests and recovery tooling).
    pub fn from_raw(slot: u8) -> Self {
        assert!((slot as usize) < MAX_CONNECTORS, "connector slot out of range");
        ConnId(slot)
    }

    /// The raw slot number.
    #[inline]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Index form for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Single-bit mask form for interest masks.
    #[inline]
    pub fn mask(self) -> ConnMask {
        1u32 << self.0
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CONN{:02}", self.0)
    }
}

/// A set of connectors, one bit per connector slot.
pub type ConnMask = u32;

/// Iterate the connector ids present in a mask.
pub fn conns_in_mask(mask: ConnMask) -> impl Iterator<Item = ConnId> {
    (0..MAX_CONNECTORS as u8).filter(move |i| mask & (1 << i) != 0).map(ConnId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_id_display_and_index() {
        let s = SystemId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.to_string(), "SYS07");
    }

    #[test]
    #[should_panic]
    fn system_id_out_of_range_panics() {
        SystemId::new(32);
    }

    #[test]
    fn conn_mask_roundtrip() {
        let mask = ConnId::from_raw(0).mask() | ConnId::from_raw(5).mask() | ConnId::from_raw(31).mask();
        let got: Vec<u8> = conns_in_mask(mask).map(|c| c.raw()).collect();
        assert_eq!(got, vec![0, 5, 31]);
    }

    #[test]
    fn conn_mask_empty() {
        assert_eq!(conns_in_mask(0).count(), 0);
    }
}
