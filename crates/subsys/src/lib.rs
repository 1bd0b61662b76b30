//! # sysplex-subsys — the exploiting subsystems
//!
//! §5 of the paper: "Through exploitation and support of the Parallel
//! Sysplex data-sharing technology, MVS and its major subsystems have
//! combined to provide an industry-leading fully-integrated commercial
//! parallel processing system." This crate provides working stand-ins for
//! the subsystems in Figure 4:
//!
//! * [`tm`] — a CICS-style transaction manager: named transaction
//!   definitions with service classes, executed against the data-sharing
//!   database on a system's CPU pool.
//! * [`routing`] — CICSPlex/SM-style *dynamic transaction routing*:
//!   incoming transactions flow to the region WLM recommends, fail over to
//!   survivors when a region stops accepting work, and report completions
//!   back to WLM's service-class goals (§2.3's OLTP balancing).
//! * [`workq`] — IMS-style shared work queues on a CF list structure:
//!   keyed priority queueing, atomic claim onto per-consumer in-flight
//!   lists, transition-signal wakeups, and orphan requeue when a consumer
//!   dies (§3.3.3's "workload distribution" use).
//! * [`vtam`] — VTAM *generic resources* on a CF list structure: users log
//!   on to one generic name ("CICS") and are bound to an instance chosen
//!   by WLM recommendation and session counts — "single system image to
//!   the SNA network" (§5.3).

//! * [`query`] — the §2.3 decision-support coordinator: split a scan into
//!   sub-queries, fan them out over systems, merge the partial answers.
//! * [`mpp`] — IMS-style message-processing regions consuming the shared
//!   queue with at-least-once recovery semantics.

//! * [`jes`] — a JES2-style shared job queue with classes, priorities,
//!   per-member execution lists, warm-start recovery and serialized
//!   checkpoints (§5.1).
//! * [`racf`] — a RACF-style shared security manager on the
//!   *directory-only* cache model: coherent permission caching with
//!   sysplex-wide revocation (§5.1).

//! * [`distributor`] — the §6 future-work item built: a TCP/IP sysplex
//!   distributor with WLM placement, connection affinity, and CF-resident
//!   state so the distributor role itself fails over statelessly.

#![forbid(unsafe_code)]

pub mod distributor;
pub mod jes;
pub mod mpp;
pub mod query;
pub mod racf;
pub mod routing;
pub mod tm;
pub mod vtam;
pub mod workq;

pub use distributor::SysplexDistributor;
pub use jes::JobQueue;
pub use mpp::MppRegion;
pub use query::{ParallelQuery, QueryTarget};
pub use racf::RacfNode;
pub use routing::TransactionRouter;
pub use tm::{CicsRegion, TranDef};
pub use vtam::{GenericResources, SessionBind};
pub use workq::SharedQueue;

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::list::EntryId;
    use sysplex_core::SystemId;

    /// Every record format a subsystem keeps in a CF entry or on shared
    /// DASD: a valid encoding, where one of its length words sits, and
    /// whether a buffer decodes. Whatever else is in those bytes — a cut
    /// record, a length that overstates what follows — is not a record.
    #[test]
    fn truncated_or_overlong_records_decode_to_nothing() {
        type Decodes = fn(&[u8]) -> bool;
        let instance =
            vtam::InstanceInfo { instance: "CICS01".into(), system: SystemId::new(3), sessions: 7 };
        let profile = racf::Profile {
            resource: "PROD.PAYROLL".into(),
            universal_access: racf::Access::Read,
            acl: vec![("ALICE".into(), racf::Access::Alter), ("BOB".into(), racf::Access::None)],
        };
        let formats: [(&str, Vec<u8>, usize, Decodes); 4] = [
            ("jes job", jes::encode_job("PAYROLL", 'A', 5), 2, |b| jes::decode_job(EntryId(1), b).is_some()),
            ("vtam instance", vtam::encode("CICS", &instance), 0, |b| vtam::decode(b).is_some()),
            ("mpp message", mpp::encode_message("TALLY", b"input"), 0, |b| mpp::decode_message(b).is_some()),
            ("racf profile", profile.encode(), 0, |b| racf::Profile::decode(b).is_some()),
        ];
        for (what, full, length_at, decodes) in formats {
            assert!(decodes(&full), "{what}");
            for cut in 0..full.len() {
                assert!(!decodes(&full[..cut]), "{what} cut at {cut}");
            }
            let mut lying = full.clone();
            lying[length_at..length_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(!decodes(&lying), "{what} with a length of u32::MAX");
        }
        // A system id or access level no encoder produces is refused too,
        // not clamped into range.
        let mut bad_system = vtam::encode("CICS", &instance);
        let at = bad_system.len() - 5;
        bad_system[at] = 0xFF;
        assert!(vtam::decode(&bad_system).is_none());
    }
}
