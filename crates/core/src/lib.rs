//! # sysplex-core — the Coupling Facility
//!
//! This crate implements the heart of the S/390 Parallel Sysplex coupling
//! technology described in Section 3.3 of Nick, Chung & Bowen (IPPS 1996):
//! the **Coupling Facility (CF)**, a shared-memory appliance providing
//! hardware assists for multi-system data sharing.
//!
//! The CF storage is partitioned into *structures*, each subscribing to one
//! of three behaviour models:
//!
//! * [`lock::LockStructure`] — a hashed global lock table with per-connector
//!   interest tracking, synchronous grant in the uncontended case, holder
//!   identity return for contention negotiation, and persistent *record
//!   data* enabling fast lock recovery after a system failure (§3.3.1).
//! * [`cache::CacheStructure`] — a global buffer directory for multi-system
//!   cache coherency: connectors register interest in named data blocks,
//!   updates cross-invalidate every other registered connector by flipping a
//!   bit in its *local bit vector* without interrupting it, and data can
//!   optionally be cached globally in the structure as a second-level cache
//!   between local memory and DASD (§3.3.2).
//! * [`list::ListStructure`] — general-purpose multi-system queues with
//!   FIFO/LIFO/keyed ordering, atomic entry movement, optional serializing
//!   lock entries, and empty→non-empty *list transition signals* (§3.3.3).
//!
//! Commands reach the CF over [`link::CfLink`]s modelling the 50/100 MB/s
//! fiber coupling links; commands execute either CPU-synchronously (the
//! caller spins for the µs-scale round trip) or asynchronously through a
//! completion queue, mirroring the execution modes in the paper.
//!
//! ## Hardware substitution
//!
//! The physical CF was a dedicated S/390 machine running specialised
//! microcode. Here the CF is an in-process concurrent object shared by
//! emulated systems (threads). What the reproduction preserves is the
//! architectural contract: atomic structure commands, interest tracking in
//! the structure rather than in the connectors, cross-invalidation that
//! never interrupts the target system (an atomic bit flip), and the relative
//! cost hierarchy — nanosecond local bit-vector tests, microsecond CF
//! commands, millisecond DASD I/O.
//!
//! ```
//! use sysplex_core::facility::{CouplingFacility, CfConfig};
//! use sysplex_core::lock::{LockParams, LockMode};
//!
//! let cf = CouplingFacility::new(CfConfig::named("CF01"));
//! let lock = cf.allocate_lock_structure("IRLM_LOCK1", LockParams::with_entries(1024)).unwrap();
//! let conn = lock.connect().unwrap();
//! let hash = lock.hash_resource(b"ACCT.00001234");
//! assert!(lock.request(conn, hash, LockMode::Exclusive).unwrap().is_granted());
//! ```

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod cache;
pub mod connection;
pub mod duplex;
pub mod error;
pub mod facility;
pub mod hashing;
pub mod link;
pub mod list;
pub mod lock;
pub mod retry;
mod slots;
pub mod stats;
pub mod trace;
pub mod transport;
pub mod types;
pub mod wire;

pub use connection::{
    CacheConnection, CfCommand, CfSubchannel, ClassSnapshot, CommandClass, ConnectionSnapshot,
    ConnectionStats, FaultInjector, LinkFault, ListConnection, LockConnection,
};
pub use error::{CfError, CfResult};
pub use facility::{CfConfig, CouplingFacility};
pub use retry::RetryPolicy;
pub use trace::{TraceClock, TraceEvent, TraceKind, TraceRecord, Tracer};
pub use transport::{
    CfTransport, CmdShape, InProcessTransport, MeteredTransport, RemoteCacheConnection, RemoteListConnection,
    RemoteLockConnection, TcpTransport, TransportBackend, TransportMeter,
};
pub use types::{ConnId, ConnMask, SystemId, MAX_CONNECTORS, MAX_SYSTEMS};
pub use wire::{SmfRecord, SmfStructureRow, WireError, WireRequest, WireResponse};
