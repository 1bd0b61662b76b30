//! # parallel-sysplex — facade crate
//!
//! A reproduction of *Overview of IBM System/390 Parallel Sysplex — A
//! Commercial Parallel Processing System* (Nick, Chung & Bowen, IPPS 1996).
//!
//! The workspace builds the full stack the paper describes; this crate
//! re-exports every layer under one roof:
//!
//! * [`cf`] — the Coupling Facility: lock, cache and list structure models
//!   with coupling links (§3.3).
//! * [`dasd`] — the shared DASD substrate: volumes, multipath, duplexing,
//!   I/O fencing (§3.1–3.2).
//! * [`services`] — base MVS multi-system services: sysplex timer, XCF
//!   group services, couple data sets, heartbeat monitoring, WLM, ARM and
//!   system images (§3.2, §2.1, §2.5).
//! * [`db`] — the data-sharing database stack: IRLM-style global lock
//!   manager, coherent buffer manager, record store, WAL and peer recovery
//!   (§3.3.1–3.3.2, §5.2).
//! * [`subsys`] — exploiting subsystems: CICS-style transaction management
//!   with dynamic routing, shared work queues, and VTAM generic resources
//!   (§5).
//! * [`workload`] — OLTP / decision-support workload generators and
//!   metrics (§2.3).
//! * [`sim`] — the discrete-event capacity simulator behind the Figure 3
//!   scalability study and the data-sharing vs data-partitioning
//!   comparison (§2.3, §4).
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harness regenerating every figure and quantitative claim.

#![forbid(unsafe_code)]

pub use sysplex_core as cf;
pub use sysplex_dasd as dasd;
pub use sysplex_db as db;
pub use sysplex_services as services;
pub use sysplex_sim as sim;
pub use sysplex_subsys as subsys;
pub use sysplex_workload as workload;
