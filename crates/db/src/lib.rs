//! # sysplex-db — the data-sharing database stack
//!
//! The paper's §5.2 subsystems (DB2, IMS/DB and their IRLM lock manager)
//! exploit the Coupling Facility to provide "direct, concurrent read/write
//! access to shared data from all processing nodes ... without sacrificing
//! performance or data integrity". This crate is a working stand-in for
//! that stack, exercising exactly the CF protocols of §3.3:
//!
//! * [`irlm`] — a distributed lock manager on the CF **lock structure**:
//!   local grants when the system already holds covering interest,
//!   CPU-synchronous CF grants otherwise, XCF negotiation on contention
//!   (distinguishing real from *false* contention), persistent lock records
//!   for recovery.
//! * [`pagestore`] — the shared database on DASD: pages of keyed records,
//!   fully connected to all systems.
//! * [`bufmgr`] — a local buffer pool kept coherent through the CF **cache
//!   structure**: nanosecond local validity tests, cross-invalidation on
//!   update, refresh from the CF's global cache, castout to DASD.
//! * [`log`] — a per-system write-ahead log on DASD (undo/redo), merged
//!   across systems by sysplex-timer timestamps.
//! * [`database`] — the transactional record interface: 2PL with record
//!   L-locks and page P-locks, store-in group-buffer writes at commit.
//! * [`recovery`] — peer recovery (§2.5): a surviving system replays the
//!   failed member's log, backs out uncommitted work and frees its
//!   retained locks.
//! * [`group`] — helper assembling an N-system data-sharing group for
//!   tests, examples and benches.

#![forbid(unsafe_code)]

pub mod bufmgr;
pub mod castout;
pub mod database;
pub mod error;
pub mod group;
pub mod irlm;
pub mod log;
pub mod pagestore;
pub mod recovery;
pub mod vsam;

pub use database::{Database, Txn};
pub use error::{Blocker, DbError, DbResult};
pub use group::DataSharingGroup;
pub use irlm::{Irlm, LockOutcome};
pub use pagestore::{Page, PageStore};
