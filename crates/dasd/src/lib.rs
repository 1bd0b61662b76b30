//! # sysplex-dasd — the shared DASD substrate
//!
//! §3.1 of the paper: "The disks are fully connected to all processors.
//! The I/O architecture has many advanced reliability and performance
//! features (e.g., multiple paths with automatic reconfiguration for
//! availability)." §3.2 adds duplexed state repositories with "hot
//! switching" and the heartbeat function's ability to "disconnect the
//! processor from its I/O devices" (fencing).
//!
//! This crate provides those pieces as an in-memory substitution for the
//! 1996 ESCON-attached disk farm:
//!
//! * [`volume::Volume`] — a block-addressed device with a simulated
//!   millisecond-scale service time.
//! * [`path::PathSet`] — multiple channel paths to one volume with
//!   automatic failover.
//! * [`duplex::DuplexPair`] — synchronous mirroring with hot-switch, used
//!   by the couple data sets.
//! * [`fence::FenceControl`] — the I/O fence: once a system is fenced every
//!   I/O it issues is rejected, enabling the fail-stop design of the
//!   sysplex monitoring services.
//! * [`farm::DasdFarm`] — the full-connectivity collection of volumes all
//!   systems share.

#![forbid(unsafe_code)]

pub mod duplex;
pub mod error;
pub mod farm;
pub mod fence;
pub mod path;
pub mod volume;

pub use error::{IoError, IoResult};
pub use farm::{DasdFarm, VolumeHandle};
pub use fence::FenceControl;
pub use volume::{IoModel, Volume};
