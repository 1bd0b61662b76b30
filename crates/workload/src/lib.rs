//! # sysplex-workload — workload generators
//!
//! §2.3 of the paper motivates the data-sharing design with two workload
//! families: **OLTP** ("many individual work requests ... each transaction
//! being relatively atomic") and **decision support** ("query requests,
//! wherein a given query can involve scanning multiple relational database
//! tables", parallelised by splitting into sub-queries). It also argues
//! that *real* commercial workloads have skew and "real-time spikes and
//! troughs" — the phenomena that break data-partitioned systems.
//!
//! This crate generates those workloads:
//!
//! * [`zipf`] — a Zipf(θ) sampler for access skew.
//! * [`oltp`] — debit/credit-style transaction specs over a keyed record
//!   space with configurable read/write mix and skew.
//! * [`decision`] — scan queries with split/merge parallelisation.
//! * [`hotspot`] — time-varying hotspot models (migrating hot partitions,
//!   demand spikes) for the E6 comparison.
//! * [`debitcredit`] — the TPC-A-flavoured debit/credit schema (branch /
//!   teller / account / history) matching the CICS/DBCTL shape of the §4
//!   study, with the 15 % remote-branch rule partitioned systems must
//!   function-ship.

#![forbid(unsafe_code)]

pub mod debitcredit;
pub mod decision;
pub mod hotspot;
pub mod oltp;
pub mod zipf;

pub use oltp::{OltpConfig, OltpGenerator, TxnSpec};
pub use zipf::Zipf;
