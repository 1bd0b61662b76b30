//! # sysplex-services — base MVS multi-system services
//!
//! The operating-system layer of the Parallel Sysplex (paper §3.2, plus the
//! WLM of §2.1/§5.1 and the ARM of §2.5):
//!
//! * [`timer`] — the Sysplex Timer: one monotonic, sysplex-unique TOD
//!   reference for all systems.
//! * [`xcf`] — group membership services: join/leave, member signalling,
//!   membership events.
//! * [`cds`] — couple data sets: serialized shared state on duplexed DASD
//!   with lease-based takeover of latches held by faulty processors.
//! * [`heartbeat`] — status monitoring with fail-stop semantics: overdue
//!   systems are fenced from I/O *before* anything else reacts.
//! * [`wlm`] — the Workload Manager: capacity/utilization registry,
//!   smooth-weighted routing recommendations, service-class goals.
//! * [`monitor`] — RMF-style interval reporting: the CF Activity Report
//!   over the component tracer and command-path accounting.
//! * [`smf`] — SMF-style record collection: members ship interval
//!   records of their own activity; the store retains them per member
//!   and pairs them with the server-side service clock, feeding the
//!   sysplex-wide merged report.
//! * [`arm`] — the Automatic Restart Manager: restart groups, sequencing,
//!   affinity, WLM-driven target selection, re-planning on subsequent
//!   failures.
//! * [`system`] — a system image: a 1–10 CPU worker pool with the
//!   IPL / quiesce / fail lifecycle.
//! * [`sysplex`] — the assembled runtime wiring all of the above to the
//!   Coupling Facility and shared DASD crates.
//! * [`transport`] — the sysplex wire protocol: a [`SysplexServer`]
//!   admits member systems running in other OS processes, tunnelling CF
//!   commands, XCF signalling and heartbeat pulses over TCP.

#![forbid(unsafe_code)]

pub mod arm;
pub mod cds;
pub mod console;
pub mod heartbeat;
pub mod monitor;
pub mod smf;
pub mod sysplex;
pub mod system;
pub mod timer;
pub mod transport;
pub mod wlm;
pub mod xcf;

pub use arm::{Arm, ElementSpec};
pub use cds::CoupleDataSet;
pub use console::Console;
pub use heartbeat::{HeartbeatConfig, HeartbeatMonitor};
pub use monitor::{json_str, ActivityReport, Monitor, SysplexSection, SCHEMA_VERSION};
pub use smf::{MemberLedger, SmfStore};
pub use sysplex::{Sysplex, SysplexConfig};
pub use system::{System, SystemConfig, SystemState};
pub use timer::{SysplexTimer, Tod};
pub use transport::{
    PulseHandle, RemoteSysplex, RemoteXcfMember, SxError, SxRequest, SxResponse, SysplexServer,
};
pub use wlm::{ServiceClass, Wlm};
pub use xcf::{GroupEvent, Xcf, XcfItem, XcfMember};
