//! # sysplex-sim — capacity and comparison models
//!
//! The paper's §4 scalability study ran on a testbed of 9672 CMOS systems
//! we obviously don't have. This crate substitutes a simulator built from
//! **first-principles cost accounting** — per-transaction CPU path length,
//! CF command costs, multiprocessor (MP) effect, cross-invalidation
//! traffic — with every constant documented in [`constants`] and traced to
//! the paper or its cited references. The paper's headline numbers
//! (≤ 18 % initial data-sharing cost, ≤ 0.5 % per added system,
//! near-linear sysplex scaling vs. flattening TCMP) must *emerge* from the
//! accounting, not be pasted in; the benches assert that they do.
//!
//! * [`mp`] — the tightly-coupled multiprocessor effect (Figure 3's TCMP
//!   curve).
//! * [`datasharing`] — the per-transaction data-sharing cost model (E2,
//!   E3).
//! * [`capacity`] — the Figure 3 series generator: Ideal vs TCMP vs
//!   Parallel Sysplex effective capacity.
//! * [`queueing`] — a discrete-time stochastic multi-node queueing
//!   simulator (arrivals, service, routing, failures).
//! * [`compare`] — data-sharing vs data-partitioning under skewed and
//!   time-varying demand (E6), built on [`queueing`].

#![forbid(unsafe_code)]

pub mod capacity;
pub mod compare;
pub mod constants;
pub mod datasharing;
pub mod mp;
pub mod queueing;
pub mod response;

pub use capacity::{figure3_series, CapacityPoint};
pub use compare::{run_comparison, CompareConfig, CompareResult, Design};
pub use datasharing::TxnCostModel;
