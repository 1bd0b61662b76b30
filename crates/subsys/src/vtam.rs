//! VTAM generic resources — §5.3's single system image to the network.
//!
//! "VTAM provides single system image to the SNA network for the Parallel
//! Sysplex through its 'Generic Resource' support, enabling session binds
//! for user logons to be dynamically distributed for workload balancing
//! across the systems in the sysplex. VTAM provides the Generic Resource
//! facilities through exploitation of the CF list structure. ... CICS
//! users, for example, can simply logon to 'CICS' without having to
//! specify or be cognizant of which system their session will be
//! dynamically bound."
//!
//! Instances of an application register under a *generic name* in a CF
//! list structure; a logon to the generic name picks an instance by WLM
//! recommendation (available capacity), breaking ties toward the fewest
//! bound sessions, and bumps the instance's session count with an
//! optimistic version check so concurrent logons from different systems
//! never lose an update.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use sysplex_core::connection::{CfSubchannel, ListConnection};
use sysplex_core::error::{CfError, CfResult};
use sysplex_core::hashing::{fnv1a64, mix64};
use sysplex_core::list::{EntryId, ListParams, ListStructure, LockCondition, WritePosition};
use sysplex_core::wire::{from_bytes, Wire, WireWriter};
use sysplex_core::{wire_struct, SystemId};
use sysplex_services::wlm::Wlm;

/// List geometry for a generic-resource structure.
pub fn generic_resource_params() -> ListParams {
    ListParams { headers: 64, lock_entries: 0, max_entries: 1 << 16 }
}

/// A bound session, returned by logon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionBind {
    /// The generic name logged on to.
    pub generic: String,
    /// The concrete application instance chosen.
    pub instance: String,
    /// The system the instance runs on.
    pub system: SystemId,
}

/// One registered instance of a generic resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Instance name (e.g. "CICS01").
    pub instance: String,
    /// Hosting system.
    pub system: SystemId,
    /// Currently bound sessions.
    pub sessions: u32,
}

wire_struct! { InstanceInfo { instance, system, sessions } }

/// A registration entry is the pair `(generic name, instance)`.
pub(crate) fn encode(generic: &str, info: &InstanceInfo) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(generic);
    info.put(&mut w);
    w.into_bytes()
}

pub(crate) fn decode(data: &[u8]) -> Option<(String, InstanceInfo)> {
    from_bytes(data).ok()
}

/// The generic-resource service (one handle per VTAM node; all handles
/// share the list structure).
pub struct GenericResources {
    conn: ListConnection,
    wlm: Arc<Wlm>,
    /// instance -> entry id cache (correctness does not depend on it).
    ids: Mutex<HashMap<(String, String), EntryId>>,
}

impl GenericResources {
    /// Attach to the generic-resource structure through a command
    /// subchannel.
    pub fn open(list: &Arc<ListStructure>, sub: CfSubchannel, wlm: Arc<Wlm>) -> CfResult<Self> {
        let conn = ListConnection::attach(list, sub, 1)?;
        Ok(GenericResources { conn, wlm, ids: Mutex::new(HashMap::new()) })
    }

    fn header_of(&self, generic: &str) -> usize {
        (mix64(fnv1a64(generic.as_bytes())) % self.conn.structure().header_count() as u64) as usize
    }

    /// Register an application instance under a generic name.
    pub fn register_instance(&self, generic: &str, instance: &str, system: SystemId) -> CfResult<()> {
        let info = InstanceInfo { instance: instance.to_string(), system, sessions: 0 };
        let id = self.conn.enqueue(
            self.header_of(generic),
            system.0 as u64,
            &encode(generic, &info),
            WritePosition::Tail,
            LockCondition::None,
        )?;
        self.ids.lock().insert((generic.to_string(), instance.to_string()), id);
        Ok(())
    }

    /// Remove an instance (planned shutdown or system failure).
    pub fn deregister_instance(&self, generic: &str, instance: &str) -> CfResult<()> {
        let entries = self.entries_of(generic)?;
        for (id, _, info) in entries {
            if info.instance == instance {
                self.conn.delete(id, LockCondition::None)?;
                self.ids.lock().remove(&(generic.to_string(), instance.to_string()));
                return Ok(());
            }
        }
        Err(CfError::NoSuchEntry)
    }

    /// Remove every instance hosted on a failed system; their sessions are
    /// implicitly gone and users re-logon to surviving instances.
    pub fn fail_system(&self, system: SystemId) -> CfResult<usize> {
        let mut removed = 0;
        for header in 0..self.conn.structure().header_count() {
            for e in self.conn.scan(header)? {
                if let Some((_, info)) = decode(&e.data) {
                    if info.system == system && self.conn.delete(e.id, LockCondition::None).is_ok() {
                        removed += 1;
                    }
                }
            }
        }
        Ok(removed)
    }

    fn entries_of(&self, generic: &str) -> CfResult<Vec<(EntryId, u64, InstanceInfo)>> {
        Ok(self
            .conn
            .scan(self.header_of(generic))?
            .into_iter()
            .filter_map(|e| {
                decode(&e.data).and_then(|(g, info)| (g == generic).then_some((e.id, e.version, info)))
            })
            .collect())
    }

    /// Instances of a generic name with live session counts, sorted.
    pub fn instances(&self, generic: &str) -> CfResult<Vec<InstanceInfo>> {
        let mut v: Vec<InstanceInfo> = self.entries_of(generic)?.into_iter().map(|(_, _, i)| i).collect();
        v.sort_by(|a, b| a.instance.cmp(&b.instance));
        Ok(v)
    }

    /// Log a user on to `generic`: choose an instance and bump its session
    /// count atomically. The user never names a system (§5.3).
    pub fn logon(&self, generic: &str) -> CfResult<SessionBind> {
        loop {
            let entries = self.entries_of(generic)?;
            if entries.is_empty() {
                return Err(CfError::NoSuchEntry);
            }
            // WLM recommendation; tie-break toward fewest sessions.
            let recommended = self.wlm.select_target();
            let pick = entries
                .iter()
                .filter(|(_, _, i)| Some(i.system) == recommended)
                .min_by_key(|(_, _, i)| i.sessions)
                .or_else(|| entries.iter().min_by_key(|(_, _, i)| (i.sessions, i.system)))
                .unwrap();
            let (id, version, info) = pick;
            let mut updated = info.clone();
            updated.sessions += 1;
            match self.conn.update(
                *id,
                info.system.0 as u64,
                &encode(generic, &updated),
                Some(*version),
                LockCondition::None,
            ) {
                Ok(_) => {
                    self.conn
                        .subchannel()
                        .emit(sysplex_core::trace::TraceEvent::SessionPlace { target: updated.system.0 });
                    return Ok(SessionBind {
                        generic: generic.to_string(),
                        instance: updated.instance,
                        system: updated.system,
                    });
                }
                Err(CfError::VersionMismatch { .. }) | Err(CfError::NoSuchEntry) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// End a session.
    pub fn logoff(&self, bind: &SessionBind) -> CfResult<()> {
        loop {
            let entries = self.entries_of(&bind.generic)?;
            let Some((id, version, info)) = entries.into_iter().find(|(_, _, i)| i.instance == bind.instance)
            else {
                return Ok(()); // instance gone (failed system); nothing to do
            };
            let mut updated = info.clone();
            updated.sessions = updated.sessions.saturating_sub(1);
            match self.conn.update(
                id,
                info.system.0 as u64,
                &encode(&bind.generic, &updated),
                Some(version),
                LockCondition::None,
            ) {
                Ok(_) => return Ok(()),
                Err(CfError::VersionMismatch { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl std::fmt::Debug for GenericResources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenericResources").field("conn", &self.conn.conn_id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sysplex_core::facility::{CfConfig, CouplingFacility};

    struct Rig {
        gr: GenericResources,
        wlm: Arc<Wlm>,
        cf: Arc<CouplingFacility>,
    }

    fn rig(systems: u8) -> Rig {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        let list = cf.allocate_list_structure("ISTGR", generic_resource_params()).unwrap();
        let wlm = Arc::new(Wlm::new());
        for i in 0..systems {
            wlm.set_capacity(SystemId::new(i), 100.0);
        }
        let gr = GenericResources::open(&list, cf.subchannel(), Arc::clone(&wlm)).unwrap();
        Rig { gr, wlm, cf }
    }

    #[test]
    fn logon_binds_without_naming_a_system() {
        let r = rig(2);
        r.gr.register_instance("CICS", "CICS01", SystemId::new(0)).unwrap();
        r.gr.register_instance("CICS", "CICS02", SystemId::new(1)).unwrap();
        let bind = r.gr.logon("CICS").unwrap();
        assert_eq!(bind.generic, "CICS");
        assert!(["CICS01", "CICS02"].contains(&bind.instance.as_str()));
        let total: u32 = r.gr.instances("CICS").unwrap().iter().map(|i| i.sessions).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn equal_capacity_spreads_sessions_evenly() {
        let r = rig(4);
        for i in 0..4 {
            r.gr.register_instance("CICS", &format!("CICS0{i}"), SystemId::new(i)).unwrap();
        }
        for _ in 0..100 {
            r.gr.logon("CICS").unwrap();
        }
        let counts: Vec<u32> = r.gr.instances("CICS").unwrap().iter().map(|i| i.sessions).collect();
        assert_eq!(counts, vec![25, 25, 25, 25], "even spread: {counts:?}");
    }

    #[test]
    fn weighted_capacity_skews_binds() {
        let r = rig(2);
        r.gr.register_instance("CICS", "BIG", SystemId::new(0)).unwrap();
        r.gr.register_instance("CICS", "SMALL", SystemId::new(1)).unwrap();
        r.wlm.set_capacity(SystemId::new(0), 300.0);
        r.wlm.set_capacity(SystemId::new(1), 100.0);
        for _ in 0..80 {
            r.gr.logon("CICS").unwrap();
        }
        let inst = r.gr.instances("CICS").unwrap();
        let big = inst.iter().find(|i| i.instance == "BIG").unwrap().sessions;
        let small = inst.iter().find(|i| i.instance == "SMALL").unwrap().sessions;
        assert_eq!(big, 60);
        assert_eq!(small, 20);
    }

    #[test]
    fn failed_system_instances_vanish_and_logons_rebind() {
        let r = rig(2);
        r.gr.register_instance("CICS", "CICS01", SystemId::new(0)).unwrap();
        r.gr.register_instance("CICS", "CICS02", SystemId::new(1)).unwrap();
        assert_eq!(r.gr.fail_system(SystemId::new(0)).unwrap(), 1);
        r.wlm.set_online(SystemId::new(0), false);
        for _ in 0..10 {
            let bind = r.gr.logon("CICS").unwrap();
            assert_eq!(bind.instance, "CICS02");
        }
    }

    #[test]
    fn logoff_decrements_sessions() {
        let r = rig(1);
        r.gr.register_instance("TSO", "TSO01", SystemId::new(0)).unwrap();
        let bind = r.gr.logon("TSO").unwrap();
        assert_eq!(r.gr.instances("TSO").unwrap()[0].sessions, 1);
        r.gr.logoff(&bind).unwrap();
        assert_eq!(r.gr.instances("TSO").unwrap()[0].sessions, 0);
    }

    #[test]
    fn multiple_generics_coexist() {
        let r = rig(1);
        r.gr.register_instance("CICS", "CICS01", SystemId::new(0)).unwrap();
        r.gr.register_instance("IMS", "IMS01", SystemId::new(0)).unwrap();
        assert_eq!(r.gr.logon("CICS").unwrap().instance, "CICS01");
        assert_eq!(r.gr.logon("IMS").unwrap().instance, "IMS01");
        assert!(r.gr.logon("DB2").is_err(), "unregistered generic");
        let _ = r.cf;
    }

    #[test]
    fn concurrent_logons_from_many_nodes_never_lose_counts() {
        let r = rig(2);
        r.gr.register_instance("CICS", "CICS01", SystemId::new(0)).unwrap();
        r.gr.register_instance("CICS", "CICS02", SystemId::new(1)).unwrap();
        let cf = Arc::clone(&r.cf);
        let wlm = Arc::clone(&r.wlm);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cf = Arc::clone(&cf);
                let wlm = Arc::clone(&wlm);
                std::thread::spawn(move || {
                    let list = cf.list_structure("ISTGR").unwrap();
                    let gr = GenericResources::open(&list, cf.subchannel(), wlm).unwrap();
                    for _ in 0..50 {
                        gr.logon("CICS").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u32 = r.gr.instances("CICS").unwrap().iter().map(|i| i.sessions).sum();
        assert_eq!(total, 200, "optimistic session updates never lost");
    }

    #[test]
    fn deregister_removes_instance() {
        let r = rig(1);
        r.gr.register_instance("CICS", "CICS01", SystemId::new(0)).unwrap();
        r.gr.deregister_instance("CICS", "CICS01").unwrap();
        assert!(r.gr.instances("CICS").unwrap().is_empty());
        assert_eq!(r.gr.deregister_instance("CICS", "CICS01").unwrap_err(), CfError::NoSuchEntry);
    }
}
