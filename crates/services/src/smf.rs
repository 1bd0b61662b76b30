//! SMF-style record collection: the server side of sysplex observability.
//!
//! In the paper's environment every MVS image cuts **SMF interval
//! records** describing its own activity, and RMF post-processes the
//! records from *all* systems into one sysplex-wide report. This module
//! is that collection point: members periodically cut
//! [`SmfRecord`]s from their
//! [`TransportMeter`](sysplex_core::transport::TransportMeter) and ship
//! them over the session envelope; the [`SmfStore`] retains a bounded
//! window of raw records per member and — separately — **accumulates
//! totals at ship time**, so evicting an old record never loses
//! accounting.
//!
//! The store also carries the **server-side service clock**: the session
//! loop times every tunnelled CF dispatch and records it here under the
//! issuing system. A member's own latency histogram measures the whole
//! round trip (member → wire → CF → wire → member); the server's
//! histogram measures only the CF dispatch. The merged RMF report
//! subtracts one from the other to decompose end-to-end latency into
//! *wire time* and *CF service time* per command class.
//!
//! The store never subtracts and never snapshots a live counter block:
//! what arrives is already an interval
//! ([`ClassSnapshot::delta`], taken by the member's meter at its cut), and
//! booking it is [`ClassSnapshot::merge`] into the member's running total.
//! The only histograms it reads live are its own service clocks, once per
//! [`SmfStore::ledgers`] call.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use sysplex_core::connection::{ClassSnapshot, CommandClass, ConnectionSnapshot};
use sysplex_core::stats::{Histogram, HistogramSnapshot};
use sysplex_core::wire::{SmfRecord, SmfStructureRow};

/// Raw records retained per member before the oldest are evicted.
/// Totals are accumulated at ship time, so eviction only narrows the
/// window of *raw* records available to [`SmfStore::records`].
pub const DEFAULT_RECORD_CAP: usize = 64;

/// Everything the store knows about one member system.
#[derive(Debug, Default)]
struct MemberSlot {
    name: String,
    departed: bool,
    final_seen: bool,
    /// A fresh incarnation was admitted while the previous one's books
    /// were still open (crash without a final record): some member-side
    /// intervals are lost for good, so tunnel reconciliation is off.
    interrupted: bool,
    shipped: u64,
    evicted: u64,
    records: VecDeque<SmfRecord>,
    /// Per-class totals over every record the member ever shipped (not
    /// just the retained window).
    classes: ConnectionSnapshot,
    structure_totals: HashMap<String, SmfStructureRow>,
    /// Sum of shipped interval lengths.
    interval_us: u64,
}

impl MemberSlot {
    fn new(name: &str) -> MemberSlot {
        MemberSlot { name: name.to_string(), ..MemberSlot::default() }
    }
}

/// Server-side service time of one system's tunnelled commands, per
/// command class; a class's sample count is the commands served.
type ServedSlot = [Histogram; CommandClass::COUNT];

/// One member's accumulated observability state, as the RMF merge sees
/// it: shipped totals plus the server-side service clock.
#[derive(Debug, Clone)]
pub struct MemberLedger {
    /// System identity the member was admitted as.
    pub system: u8,
    /// Member name from the admission handshake (advisory, for reports).
    pub name: String,
    /// The member departed (clean Goodbye, final record, or fence).
    pub departed: bool,
    /// A `final_interval` record arrived: the shipped totals cover the
    /// member's whole life, so tunnel reconciliation is meaningful.
    pub final_seen: bool,
    /// A fresh incarnation was admitted over books a crashed predecessor
    /// left open: shipped totals undercount what the server actually
    /// served, and the tunnel check is skipped.
    pub interrupted: bool,
    /// The server-side service clock metered this system's dispatches.
    /// `false` for records shipped in-process (no serving session), in
    /// which case tunnel reconciliation does not apply.
    pub served_metered: bool,
    /// Records shipped / evicted from the raw-record window.
    pub records_shipped: u64,
    /// Raw records evicted (totals were accumulated first; nothing lost).
    pub records_evicted: u64,
    /// Sum of shipped interval lengths, µs.
    pub interval_us: u64,
    /// Accumulated member-observed per-class activity (only classes with
    /// `issued > 0`): counts plus the end-to-end latency distribution.
    pub classes: Vec<(CommandClass, MemberClassTotals)>,
    /// Accumulated per-structure counters, sorted by name.
    pub structures: Vec<SmfStructureRow>,
}

/// Accumulated per-class activity for one member: the member-observed
/// side and the server-observed side, paired for decomposition.
#[derive(Debug, Clone, Default)]
pub struct MemberClassTotals {
    /// What the member counted (sum of shipped records); its `latency` is
    /// the member-observed end-to-end time, wire included.
    pub member: ClassSnapshot,
    /// Commands the server dispatched for this system in this class.
    pub served: u64,
    /// Server-observed CF service time (excludes the wire).
    pub service: HistogramSnapshot,
}

impl MemberClassTotals {
    /// Add `other` (another member's totals for the same class) into this.
    pub fn merge(&mut self, other: &MemberClassTotals) {
        self.member.merge(&other.member);
        self.served += other.served;
        self.service.merge(&other.service);
    }

    /// Member-observed quantile, ns (end-to-end).
    pub fn observed_quantile_ns(&self, p: f64) -> u64 {
        self.member.latency.quantile_ns(p)
    }

    /// Server-observed quantile, ns (CF service time).
    pub fn service_quantile_ns(&self, p: f64) -> u64 {
        self.service.quantile_ns(p)
    }

    /// Wire-time quantile, ns: the member-observed quantile with the CF
    /// service quantile subtracted (saturating — quantiles of different
    /// distributions are not strictly ordered sample-by-sample).
    pub fn wire_quantile_ns(&self, p: f64) -> u64 {
        self.observed_quantile_ns(p).saturating_sub(self.service_quantile_ns(p))
    }
}

/// Bounded per-member retention of shipped SMF records plus the
/// server-side service clock — the data source for the sysplex-wide
/// RMF merge ([`Monitor::sysplex_report`](crate::monitor::Monitor::sysplex_report)).
///
/// Thread-safe and cheap to share: the server's session threads ship
/// records and record service times concurrently with report merges.
#[derive(Debug)]
pub struct SmfStore {
    cap: usize,
    members: Mutex<HashMap<u8, MemberSlot>>,
    served: Mutex<HashMap<u8, ServedSlot>>,
}

impl SmfStore {
    /// A store retaining [`DEFAULT_RECORD_CAP`] raw records per member.
    pub fn new() -> Arc<SmfStore> {
        SmfStore::with_capacity(DEFAULT_RECORD_CAP)
    }

    /// A store retaining at most `cap` raw records per member.
    pub fn with_capacity(cap: usize) -> Arc<SmfStore> {
        Arc::new(SmfStore {
            cap: cap.max(1),
            members: Mutex::new(HashMap::new()),
            served: Mutex::new(HashMap::new()),
        })
    }

    /// Register (or re-activate) a member under `system`. A reconnecting
    /// or re-IPLed member flips back to active; its accumulated totals
    /// keep growing across incarnations.
    pub fn mark_active(&self, system: u8, name: &str) {
        let mut members = self.members.lock();
        let slot = members.entry(system).or_insert_with(|| MemberSlot::new(name));
        slot.departed = false;
        if !name.is_empty() {
            slot.name = name.to_string();
        }
    }

    /// [`SmfStore::mark_active`] for a **fresh incarnation** (a new
    /// admission handshake, not a resume of an existing session). A fresh
    /// incarnation re-opens the member's books; if the previous
    /// incarnation never closed its own (no `final_interval` record — it
    /// crashed), the member-side intervals in flight at the crash are
    /// lost for good and the slot is marked interrupted: the merged
    /// report keeps reconciling counts *within* shipped records but stops
    /// demanding the tunnel balance against the server's service clock.
    pub fn mark_admitted(&self, system: u8, name: &str) {
        let mut members = self.members.lock();
        match members.entry(system) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(MemberSlot::new(name));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                if !slot.final_seen {
                    slot.interrupted = true;
                }
                slot.final_seen = false;
                slot.departed = false;
                if !name.is_empty() {
                    slot.name = name.to_string();
                }
            }
        }
    }

    /// Mark `system` departed (Goodbye, fence, or final record). The
    /// member's rows stay in the merged report, flagged as departed —
    /// they are history, not liveness.
    pub fn mark_departed(&self, system: u8) {
        if let Some(slot) = self.members.lock().get_mut(&system) {
            slot.departed = true;
        }
    }

    /// Accept one shipped record: accumulate its deltas into the member's
    /// totals, then retain the raw record (evicting the oldest past the
    /// cap). A `final_interval` record also marks the member departed.
    pub fn ship(&self, record: SmfRecord) {
        let mut members = self.members.lock();
        let slot = members.entry(record.system).or_insert_with(|| MemberSlot::new(&record.member));
        if !record.member.is_empty() {
            slot.name = record.member.clone();
        }
        for (class, row) in &record.classes {
            slot.classes.class_mut(*class).merge(row);
        }
        for s in &record.structures {
            let named = || SmfStructureRow { name: s.name.clone(), ..SmfStructureRow::default() };
            slot.structure_totals.entry(s.name.clone()).or_insert_with(named).merge(s);
        }
        slot.interval_us += record.interval_us;
        slot.shipped += 1;
        if record.final_interval {
            slot.final_seen = true;
            slot.departed = true;
        }
        slot.records.push_back(record);
        while slot.records.len() > self.cap {
            slot.records.pop_front();
            slot.evicted += 1;
        }
    }

    /// Record one server-side dispatch of a tunnelled command for
    /// `system`: the CF service time, excluding the wire.
    pub fn observe_service(&self, system: u8, class: CommandClass, elapsed: Duration) {
        self.served.lock().entry(system).or_default()[class.index()].record(elapsed);
    }

    /// The retained raw records for `system`, oldest first.
    pub fn records(&self, system: u8) -> Vec<SmfRecord> {
        self.members.lock().get(&system).map(|s| s.records.iter().cloned().collect()).unwrap_or_default()
    }

    /// Member systems known to the store, ascending.
    pub fn systems(&self) -> Vec<u8> {
        let mut v: Vec<u8> = self.members.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Snapshot every member's accumulated state, paired with the
    /// server-side service clock, ascending by system. This is the input
    /// to the sysplex-wide RMF merge.
    pub fn ledgers(&self) -> Vec<MemberLedger> {
        let members = self.members.lock();
        let served = self.served.lock();
        let mut out = Vec::with_capacity(members.len());
        let mut systems: Vec<u8> = members.keys().copied().collect();
        systems.sort_unstable();
        for sys in systems {
            let slot = &members[&sys];
            let sv = served.get(&sys);
            let mut classes = Vec::new();
            for class in CommandClass::ALL {
                let member = slot.classes.class(class);
                let service = sv.map_or_else(HistogramSnapshot::empty, |s| s[class.index()].snapshot());
                let served = service.samples;
                if member.issued > 0 || served > 0 {
                    classes.push((class, MemberClassTotals { member: member.clone(), served, service }));
                }
            }
            let mut structures: Vec<SmfStructureRow> = slot.structure_totals.values().cloned().collect();
            structures.sort_by(|a, b| a.name.cmp(&b.name));
            out.push(MemberLedger {
                system: sys,
                name: slot.name.clone(),
                departed: slot.departed,
                final_seen: slot.final_seen,
                interrupted: slot.interrupted,
                served_metered: sv.is_some(),
                records_shipped: slot.shipped,
                records_evicted: slot.evicted,
                interval_us: slot.interval_us,
                classes,
                structures,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(system: u8, seq: u32, issued: u64, final_interval: bool) -> SmfRecord {
        let h = Histogram::new();
        for i in 0..issued {
            h.record_ns(1_000 * (i + 1));
        }
        SmfRecord {
            system,
            member: format!("SYS{system:02}"),
            seq,
            interval_us: 50_000,
            final_interval,
            classes: vec![(
                CommandClass::LockRequest,
                ClassSnapshot { issued, sync: issued, async_converted: 0, faulted: 0, latency: h.snapshot() },
            )],
            structures: vec![SmfStructureRow {
                name: "IRLM1".into(),
                requests: issued,
                contentions: 1,
                force_interests: 0,
                faulted: 0,
            }],
        }
    }

    #[test]
    fn totals_survive_eviction() {
        let store = SmfStore::with_capacity(2);
        store.mark_active(3, "SYS03");
        for seq in 0..5 {
            store.ship(record(3, seq, 4, false));
        }
        assert_eq!(store.records(3).len(), 2, "window bounded");
        let ledgers = store.ledgers();
        assert_eq!(ledgers.len(), 1);
        let l = &ledgers[0];
        assert_eq!(l.records_shipped, 5);
        assert_eq!(l.records_evicted, 3);
        let (_, lock) = &l.classes[0];
        assert_eq!(lock.member.issued, 20, "totals accumulated before eviction");
        assert_eq!(lock.member.latency.samples, 20);
        assert_eq!(l.structures[0].requests, 20);
        assert_eq!(l.structures[0].contentions, 5);
        assert!(!l.departed);
    }

    #[test]
    fn final_record_marks_departure_and_reactivation_clears_it() {
        let store = SmfStore::new();
        store.mark_active(1, "SYSA");
        store.ship(record(1, 0, 2, true));
        let l = &store.ledgers()[0];
        assert!(l.departed && l.final_seen);
        // A re-IPL under the same system id flips back to active.
        store.mark_active(1, "SYSA");
        assert!(!store.ledgers()[0].departed);
        assert!(store.ledgers()[0].final_seen, "history is not rewritten");
    }

    #[test]
    fn a_crashed_incarnation_interrupts_the_books_and_totals_keep_growing() {
        let store = SmfStore::new();
        store.mark_admitted(4, "SYSD");
        store.ship(record(4, 0, 2, false));
        // A crash without a final record, then a fresh incarnation.
        store.mark_admitted(4, "SYSD");
        store.ship(record(4, 0, 5, true));
        let l = &store.ledgers()[0];
        assert!(l.interrupted, "books were open when the new incarnation arrived");
        assert!(l.final_seen && l.departed);
        assert_eq!(l.records_shipped, 2, "each incarnation's record is booked");
        assert_eq!(l.classes[0].1.member.issued, 7, "totals keep growing across incarnations");
    }

    #[test]
    fn service_clock_pairs_with_member_totals() {
        let store = SmfStore::new();
        store.mark_active(2, "SYSB");
        store.ship(record(2, 0, 3, false));
        for _ in 0..3 {
            store.observe_service(2, CommandClass::LockRequest, Duration::from_micros(5));
        }
        let l = &store.ledgers()[0];
        let (class, t) = &l.classes[0];
        assert_eq!(*class, CommandClass::LockRequest);
        assert_eq!(t.member.issued, 3);
        assert_eq!(t.served, 3);
        assert_eq!(t.service.samples, 3);
        assert!(t.observed_quantile_ns(0.5) >= t.wire_quantile_ns(0.5));
    }
}
