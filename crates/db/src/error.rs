//! Error type for the database stack.

use std::fmt;
use std::time::Duration;
use sysplex_core::{CfError, ConnId};
use sysplex_dasd::IoError;

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

/// Errors surfaced by the data-sharing database stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A Coupling Facility command failed.
    Cf(CfError),
    /// A DASD I/O failed.
    Io(IoError),
    /// A lock could not be obtained within the deadlock timeout.
    LockTimeout {
        /// The contested resource.
        resource: Vec<u8>,
        /// How long we waited.
        waited: Duration,
        /// What the last Busy answer reported in the way.
        blocker: Blocker,
    },
    /// The transaction was already completed (commit/abort called twice).
    TxnComplete,
    /// Page image failed to decode (corruption or torn write).
    PageCorrupt(u64),
    /// Log record failed to decode.
    LogCorrupt,
    /// The lock-manager peer negotiation failed (peer gone mid-protocol).
    NegotiationFailed,
}

/// What a lock request found in its way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocker {
    /// A peer member's connector: it answered "conflict", said nothing or
    /// is failed-persistent awaiting recovery — or, when renegotiation ran
    /// out, the lowest holder the CF named.
    Peer(ConnId),
    /// A transaction on this member, by id.
    Local(u64),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Cf(e) => write!(f, "coupling facility: {e}"),
            DbError::Io(e) => write!(f, "dasd: {e}"),
            DbError::LockTimeout { resource, waited, blocker } => {
                let resource = String::from_utf8_lossy(resource);
                write!(f, "lock timeout after {waited:?} on {resource}, held by ")?;
                match blocker {
                    Blocker::Peer(conn) => write!(f, "connector {}", conn.raw()),
                    Blocker::Local(txn) => write!(f, "transaction {txn} on this member"),
                }
            }
            DbError::TxnComplete => write!(f, "transaction already complete"),
            DbError::PageCorrupt(p) => write!(f, "page {p} corrupt"),
            DbError::LogCorrupt => write!(f, "log record corrupt"),
            DbError::NegotiationFailed => write!(f, "lock negotiation failed"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CfError> for DbError {
    fn from(e: CfError) -> Self {
        DbError::Cf(e)
    }
}

impl From<IoError> for DbError {
    fn from(e: IoError) -> Self {
        DbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: DbError = CfError::StructureFull.into();
        assert_eq!(e.to_string(), "coupling facility: structure storage exhausted");
        let e: DbError = IoError::NoPaths.into();
        assert_eq!(e.to_string(), "dasd: no operational channel paths");
        let waited = Duration::from_millis(100);
        let e = DbError::LockTimeout { resource: b"ROW.7".to_vec(), waited, blocker: Blocker::Local(9) };
        assert!(e.to_string().contains("ROW.7"));
        assert!(e.to_string().ends_with("held by transaction 9 on this member"), "{e}");
        let e =
            DbError::LockTimeout { resource: vec![], waited, blocker: Blocker::Peer(ConnId::from_raw(3)) };
        assert!(e.to_string().ends_with("held by connector 3"), "{e}");
    }
}
