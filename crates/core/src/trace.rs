//! Sysplex component trace: lock-free per-system bounded trace rings.
//!
//! MVS keeps a system trace table of fixed-size entries that wraps when
//! full; RMF and IPCS read it after the fact to reconstruct *what happened
//! in what order*. This module is that facility for the reproduction: every
//! interesting event — CF command issued/completed, lock grant/contention,
//! cross-invalidate, list transition, buffer-manager steal, XCF signal,
//! heartbeat miss — is packed into a fixed five-word entry and pushed into
//! a per-system ring buffer.
//!
//! The events are written once, as the `trace_events!` table below: a row
//! gives an event's stable kind id, its mnemonic, its fields and the bits
//! of the two payload words each field occupies. [`TraceKind`],
//! [`TraceEvent`] and the slot codec are generated from the rows, so
//! adding an event is one row.
//!
//! Hot-path discipline matches `stats.rs`: when tracing is disabled the
//! only cost is **one relaxed atomic load** ([`Tracer::is_enabled`]).
//! When enabled, a push is a `fetch_add` to reserve a slot plus five
//! relaxed stores guarded by a per-slot sequence stamp (a seqlock), so
//! concurrent writers never block and readers never observe a torn entry.
//! Wrapping over an unread entry is counted, never silently absorbed:
//! `retained == emitted - dropped` holds exactly, which is what lets the
//! CF Activity Report reconcile traced completions against the subchannel
//! `issued` counters.

use crate::connection::CommandClass;
use crate::stats::Counter;
use crate::types::MAX_SYSTEMS;
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-system ring capacity (entries), rounded up to a power of two.
pub const TRACE_RING_DEFAULT: usize = 2048;

/// Ring index used for events not attributable to a member system
/// (facility-side work, unattached subchannels). One past the last system.
pub const TRACE_SYSTEM_CF: u8 = MAX_SYSTEMS as u8;

const RINGS: usize = MAX_SYSTEMS + 1;
const WORDS: usize = 5;

/// A value that packs into a bit range of one slot word.
trait SlotField: Sized {
    /// The value as the low bits of a word.
    fn to_bits(self) -> u64;
    /// The value those bits stand for; `None` when they stand for none.
    fn from_bits(bits: u64) -> Option<Self>;
}

impl SlotField for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Option<Self> {
        Some(bits)
    }
}

impl SlotField for u8 {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Option<Self> {
        Some(bits as u8)
    }
}

impl SlotField for bool {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Option<Self> {
        Some(bits == 1)
    }
}

impl SlotField for CommandClass {
    fn to_bits(self) -> u64 {
        self.index() as u64
    }
    fn from_bits(bits: u64) -> Option<Self> {
        CommandClass::ALL.get(bits as usize).copied()
    }
}

/// The two payload words of a slot, as the event table names them.
const A: usize = 0;
const B: usize = 1;

/// The low `n` bits set, for the `1..=64` bits a field occupies.
const fn low_bits(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

/// The trace events, one row per event:
///
/// ```text
/// /// doc
/// id Name "MNEMONIC" { /// doc
///                      field: Type = WORD[lo..hi], .. }
/// ```
///
/// `id` is the event's stable kind id, `MNEMONIC` its IPCS-style name, and
/// each field says which bits of payload word `A` or `B` it occupies.
/// Generated from the rows: [`TraceKind`] with `COUNT`, `ALL` and `name()`,
/// and [`TraceEvent`] with `kind()` and the slot codec — so an id, a
/// mnemonic and a packing are each written once. Rows are in id order;
/// a new event is one row with the next free id.
macro_rules! trace_events {
    ($(
        $(#[$m:meta])* $id:literal $name:ident $mnemonic:literal
        { $( $(#[$fm:meta])* $f:ident : $fty:ty = $w:ident [ $lo:literal .. $hi:literal ] ),* $(,)? }
    )*) => {
        /// Discriminant of a packed trace entry.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum TraceKind {
            $( $(#[$m])* $name = $id ),*
        }

        impl TraceKind {
            /// Number of kinds (for per-kind counters).
            pub const COUNT: usize = [$($id),*].len();

            /// All kinds, indexable by id.
            pub const ALL: [TraceKind; TraceKind::COUNT] = [$(TraceKind::$name),*];

            /// Stable wire/coverage id of this kind: the id its row gives
            /// it, which is also the packed-slot encoding and the token the
            /// harness's coverage n-gram hashing is built on. Appending new
            /// kinds is fine, renumbering existing ones is a breaking change
            /// (it silently remaps every stored coverage bitmap and corpus).
            pub const fn id(self) -> u8 {
                self as u8
            }

            /// Short mnemonic, IPCS-style.
            pub fn name(self) -> &'static str {
                match self {
                    $( TraceKind::$name => $mnemonic ),*
                }
            }
        }

        /// A typed trace event. Encodes to `(kind, a, b)` — two payload words —
        /// so every entry fits the fixed slot layout.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$m])* $name { $( $(#[$fm])* $f: $fty ),* } ),*
        }

        impl TraceEvent {
            /// Kind discriminant for this event.
            pub fn kind(&self) -> TraceKind {
                match self {
                    $( TraceEvent::$name { .. } => TraceKind::$name ),*
                }
            }

            fn encode(&self) -> (TraceKind, u64, u64) {
                let mut words = [0u64; 2];
                let kind = match *self {
                    $( TraceEvent::$name { $($f),* } => {
                        $( words[$w] |= SlotField::to_bits($f) << $lo; )*
                        TraceKind::$name
                    } )*
                };
                (kind, words[A], words[B])
            }

            fn decode(kind: u8, a: u64, b: u64) -> Option<TraceEvent> {
                let words = [a, b];
                Some(match *TraceKind::ALL.get(kind as usize)? {
                    $( TraceKind::$name => TraceEvent::$name {
                        $( $f: SlotField::from_bits(words[$w] >> $lo & low_bits($hi - $lo))? ),*
                    } ),*
                })
            }
        }
    };
}

trace_events! {
    /// CF command accepted onto a subchannel.
    0 CmdIssued "CMD-ISSUE" {
        /// Command class.
        class: CommandClass = A[0..8],
        /// Heuristically converted to asynchronous execution.
        converted_async: bool = A[8..9],
    }
    /// CF command finished (sync return or async completion observed);
    /// `latency_ns` covers issue to completion.
    1 CmdCompleted "CMD-COMPL" {
        /// Command class.
        class: CommandClass = A[0..8],
        /// Whether the command ran asynchronously.
        converted_async: bool = A[8..9],
        /// Observed service time in nanoseconds.
        latency_ns: u64 = B[0..64],
    }
    /// Lock request granted CPU-synchronously.
    2 LockGrant "LCK-GRANT" {
        /// Lock-table entry index.
        entry: u64 = A[0..64],
        /// Raw id of the granted connector.
        conn: u8 = B[0..8],
        /// Whether the grant is exclusive.
        exclusive: bool = B[8..9],
    }
    /// Lock request hit incompatible interest; the CF names the holders
    /// (paper §3.3.1).
    3 LockContend "LCK-CONT" {
        /// Lock-table entry index.
        entry: u64 = A[0..64],
        /// Bitmask of holding connectors.
        holders: u64 = B[0..32],
        /// Raw id of the exclusive holder, `0xFF` when none.
        exclusive: u8 = B[32..40],
    }
    /// Contention resolved as false (different resources, same hash class)
    /// by XCF negotiation.
    4 LockFalseContend "LCK-FALSE" {
        /// Lock-table entry index.
        entry: u64 = A[0..64],
        /// Bitmask of holding connectors at negotiation time.
        holders: u64 = B[0..64],
    }
    /// `read_and_register` against a cache structure.
    5 CacheRegister "CCH-REG" {
        /// Digest of the block name (see `BlockName::digest`).
        block: u64 = A[0..64],
        /// Whether the CF data area held a current copy.
        hit: bool = B[0..1],
    }
    /// Cross-invalidate signals fanned out by a write.
    6 CrossInvalidate "CCH-XI" {
        /// Digest of the written block's name.
        block: u64 = A[0..64],
        /// Number of peer connectors invalidated.
        invalidated: u64 = B[0..64],
    }
    /// Local bit-vector validity test (the ns-scale check that never
    /// touches the CF).
    7 LocalVectorCheck "CCH-LVEC" {
        /// Digest of the block name the vector index maps (0 if unknown).
        block: u64 = A[0..64],
        /// Whether the local copy was still valid.
        valid: bool = B[0..1],
    }
    /// List entry written.
    8 ListEnqueue "LST-ENQ" {
        /// Header index.
        header: u64 = A[0..64],
        /// Entry id assigned by the structure (never reused).
        entry: u64 = B[0..64],
    }
    /// Empty-to-non-empty transition signal delivered to a monitor.
    9 ListTransition "LST-TRAN" {
        /// Header index.
        header: u64 = A[0..64],
    }
    /// Claim/dequeue attempt at a list header.
    10 ListClaim "LST-CLAIM" {
        /// Header index.
        header: u64 = A[0..64],
        /// Claimed entry id (0 when nothing was claimed; real ids start
        /// at 1 and are never reused).
        entry: u64 = B[0..64],
    }
    /// Buffer-manager page read served (local hit or miss).
    11 BufRead "BUF-READ" {
        /// Page number.
        page: u64 = A[0..64],
        /// Served from a valid local frame without any CF command.
        local_hit: bool = B[0..1],
    }
    /// Buffer-manager refresh of an invalid or missing frame (from the CF
    /// data area or DASD).
    12 BufRefresh "BUF-REFR" {
        /// Page number.
        page: u64 = A[0..64],
        /// Data came from the CF data area (vs DASD).
        from_cf: bool = B[0..1],
    }
    /// Buffer-manager frame stolen for a new page: old tenant evicted,
    /// local vector bit scrubbed.
    13 BufSteal "BUF-STEAL" {
        /// Frame index.
        frame: u64 = A[0..64],
        /// New owning page number.
        page: u64 = B[0..64],
    }
    /// Changed page cast out of the CF to DASD.
    14 BufCastout "BUF-CAST" {
        /// Page number.
        page: u64 = A[0..64],
    }
    /// XCF signal sent.
    15 XcfSend "XCF-SEND" {
        /// Payload bytes.
        bytes: u64 = A[0..64],
    }
    /// XCF signal delivered to the target member.
    16 XcfDeliver "XCF-DELIV" {
        /// Payload bytes.
        bytes: u64 = A[0..64],
    }
    /// Heartbeat overdue at the monitor.
    17 HeartbeatMiss "HBT-MISS" {
        /// Raw system id of the silent member.
        system: u8 = A[0..8],
    }
    /// System fenced after missed heartbeats.
    18 Fence "SYS-FENCE" {
        /// Raw system id of the fenced member.
        system: u8 = A[0..8],
    }
    /// Work element placed on a shared subsystem queue.
    19 WorkEnqueue "WRK-ENQ" {
        /// Queue (list header) index.
        queue: u64 = A[0..64],
    }
    /// Work element dispatched from a shared subsystem queue.
    20 WorkDispatch "WRK-DISP" {
        /// Queue (list header) index.
        queue: u64 = A[0..64],
    }
    /// VTAM generic-resource session placed on a member.
    21 SessionPlace "VTM-PLACE" {
        /// Raw system id of the chosen member.
        target: u8 = A[0..8],
    }
    /// Lock interest released (entry-level, or all entries on detach).
    22 LockRelease "LCK-REL" {
        /// Lock-table entry index, or `u64::MAX` for "every entry this
        /// connector held" (normal detach or recovery completion).
        entry: u64 = A[0..64],
        /// Raw id of the releasing (or recovered) connector.
        conn: u8 = B[0..8],
    }
    /// Lock re-granted from the local interest cache: the CF already
    /// records this system's (sole) interest, so no command is issued.
    23 LockLocalRegrant "LCK-REGR" {
        /// Lock-table entry index.
        entry: u64 = A[0..64],
        /// Raw id of the re-granted connector.
        conn: u8 = B[0..8],
        /// Whether the re-grant is exclusive.
        exclusive: bool = B[8..9],
    }
    /// Lock released locally but parked: CF interest retained so a
    /// re-acquire can take the local fast path.
    24 LockLazyRelease "LCK-LAZY" {
        /// Lock-table entry index.
        entry: u64 = A[0..64],
        /// Raw id of the parking connector.
        conn: u8 = B[0..8],
    }
    /// Lock table rebuilt online into a larger entry count (adaptive
    /// resize driven by the observed false-contention rate).
    25 LockTableResize "LCK-RESZ" {
        /// Entry count before the resize.
        from_entries: u64 = A[0..64],
        /// Entry count after the resize.
        to_entries: u64 = B[0..64],
    }
    /// A structure's duplex pair broke: a mirror command failed and every
    /// connection went simplex.
    26 DuplexBreak "DPX-BREAK" {
        /// Raw id of the connector whose command went unmirrored.
        conn: u8 = A[0..8],
    }
}

/// `ALL` is indexed by id, so the rows' ids must be `0..COUNT` in order.
const _: () = {
    let mut i = 0;
    while i < TraceKind::COUNT {
        assert!(TraceKind::ALL[i] as usize == i, "trace event rows out of id order");
        i += 1;
    }
};

/// Source of the time-of-day word stamped into each entry.
///
/// `sysplex-services` wires the Sysplex Timer here so entries across all
/// systems share one strictly monotonic sequence (paper §2.3); standalone
/// core users get a process-local monotonic clock.
pub trait TraceClock: Send + Sync {
    /// Current sysplex time in microseconds.
    fn now_us(&self) -> u64;
}

#[derive(Debug)]
struct HostClock {
    epoch: Instant,
}

impl TraceClock for HostClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// One decoded trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Tracer-wide monotonic sequence number (1-based).
    pub seq: u64,
    /// Time-of-day stamp from the wired [`TraceClock`], microseconds.
    pub tod_us: u64,
    /// Raw system id, [`TRACE_SYSTEM_CF`] for facility-side events.
    pub system: u8,
    /// Interned structure id (0 = not structure-scoped).
    pub structure: u32,
    /// The decoded event.
    pub event: TraceEvent,
}

/// One fixed-size trace slot: a seqlock stamp plus five payload words
/// (meta, seq, tod, a, b).
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        #[allow(clippy::declare_interior_mutable_const)]
        const W: AtomicU64 = AtomicU64::new(0);
        Slot { stamp: AtomicU64::new(0), words: [W; WORDS] }
    }
}

/// A bounded, wrapping, multi-writer trace ring for one system.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: CachePadded<AtomicU64>,
    dropped: Counter,
}

impl TraceRing {
    /// New ring with capacity rounded up to a power of two (min 8).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(8).next_power_of_two();
        TraceRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap as u64 - 1,
            head: CachePadded::new(AtomicU64::new(0)),
            dropped: Counter::new(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries ever pushed.
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Entries overwritten by wrap-around before they could be read.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Entries still resident: exactly `emitted() - dropped()`.
    pub fn retained(&self) -> u64 {
        self.emitted() - self.dropped()
    }

    fn push(&self, words: [u64; WORDS]) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        if pos >= self.slots.len() as u64 {
            // We are overwriting the entry `capacity` positions back.
            self.dropped.incr();
        }
        let slot = &self.slots[(pos & self.mask) as usize];
        // Seqlock write: odd stamp while the payload is in flux, then the
        // even stamp unique to this position. A reader that races either
        // sees the odd stamp or a stamp for a different position and skips.
        slot.stamp.store(pos * 2 + 1, Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.stamp.store(pos * 2 + 2, Ordering::Release);
    }

    fn read(&self, pos: u64) -> Option<[u64; WORDS]> {
        let slot = &self.slots[(pos & self.mask) as usize];
        let expect = pos * 2 + 2;
        if slot.stamp.load(Ordering::Acquire) != expect {
            return None;
        }
        let mut words = [0u64; WORDS];
        for (v, w) in words.iter_mut().zip(slot.words.iter()) {
            *v = w.load(Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.stamp.load(Ordering::Relaxed) != expect {
            return None; // overwritten mid-read
        }
        Some(words)
    }

    /// Test hook (harness negative tests): mark the entry at absolute
    /// position `pos` torn, as if its writer died mid-store. `snapshot`
    /// skips torn entries, so the ring's decoded length stops matching
    /// `retained()` — exactly the corruption the trace oracle must detect.
    #[cfg(feature = "test-hooks")]
    pub fn poison(&self, pos: u64) {
        let slot = &self.slots[(pos & self.mask) as usize];
        slot.stamp.store(pos * 2 + 1, Ordering::Release);
    }

    /// Decode every resident, untorn entry, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let head = self.emitted();
        let lo = head.saturating_sub(self.slots.len() as u64);
        (lo..head)
            .filter_map(|pos| {
                let [meta, seq, tod_us, a, b] = self.read(pos)?;
                let event = TraceEvent::decode((meta & 0xFF) as u8, a, b)?;
                Some(TraceRecord {
                    seq,
                    tod_us,
                    system: (meta >> 8 & 0xFF) as u8,
                    structure: (meta >> 32) as u32,
                    event,
                })
            })
            .collect()
    }
}

/// The sysplex-wide component tracer: one ring per system plus one for
/// facility-side events, per-kind emit counters, and an interning table
/// for structure names.
///
/// Created disabled; ring memory is only allocated on first
/// [`enable`](Self::enable).
pub struct Tracer {
    enabled: AtomicBool,
    rings: OnceLock<Vec<TraceRing>>,
    seq: CachePadded<AtomicU64>,
    clock: RwLock<Arc<dyn TraceClock>>,
    kind_counts: [Counter; TraceKind::COUNT],
    busy_ns: [Counter; RINGS],
    names: Mutex<Vec<String>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("emitted", &self.total_emitted())
            .field("dropped", &self.total_dropped())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// New tracer, disabled, with the process-local host clock.
    pub fn new() -> Tracer {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Counter = Counter::new();
        Tracer {
            enabled: AtomicBool::new(false),
            rings: OnceLock::new(),
            seq: CachePadded::new(AtomicU64::new(0)),
            clock: RwLock::new(Arc::new(HostClock { epoch: Instant::now() })),
            kind_counts: [ZERO; TraceKind::COUNT],
            busy_ns: [ZERO; RINGS],
            names: Mutex::new(Vec::new()),
        }
    }

    /// Whether tracing is on. This is the *entire* disabled-path cost:
    /// a single relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on with the default ring capacity.
    pub fn enable(&self) {
        self.enable_with_capacity(TRACE_RING_DEFAULT);
    }

    /// Turn tracing on; rings are allocated on the first enable (the
    /// capacity of an already-allocated tracer cannot change).
    pub fn enable_with_capacity(&self, capacity: usize) {
        self.rings.get_or_init(|| (0..RINGS).map(|_| TraceRing::new(capacity)).collect());
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn tracing off. Rings keep their contents for post-mortem reads.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Replace the time-of-day source (the sysplex wires its Timer here).
    pub fn set_clock(&self, clock: Arc<dyn TraceClock>) {
        *self.clock.write() = clock;
    }

    /// Intern a structure name, returning its stable non-zero id.
    pub fn register_structure(&self, name: &str) -> u32 {
        let mut names = self.names.lock();
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as u32 + 1;
        }
        names.push(name.to_string());
        names.len() as u32
    }

    /// Name for an interned structure id.
    pub fn structure_name(&self, id: u32) -> Option<String> {
        if id == 0 {
            return None;
        }
        self.names.lock().get(id as usize - 1).cloned()
    }

    /// Record one event against `system`'s ring (use [`TRACE_SYSTEM_CF`]
    /// for unattributed events). No-op unless enabled.
    #[inline]
    pub fn emit(&self, system: u8, structure: u32, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        self.emit_enabled(system, structure, event);
    }

    fn emit_enabled(&self, system: u8, structure: u32, event: TraceEvent) {
        let Some(rings) = self.rings.get() else { return };
        let idx = (system as usize).min(MAX_SYSTEMS);
        let (kind, a, b) = event.encode();
        self.kind_counts[kind as usize].incr();
        if let TraceEvent::CmdCompleted { latency_ns, .. } = event {
            self.busy_ns[idx].add(latency_ns);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let tod_us = self.clock.read().now_us();
        let meta = kind as u64 | (idx as u64) << 8 | (structure as u64) << 32;
        rings[idx].push([meta, seq, tod_us, a, b]);
    }

    fn ring(&self, system: u8) -> Option<&TraceRing> {
        self.rings.get().map(|r| &r[(system as usize).min(MAX_SYSTEMS)])
    }

    /// Entries pushed to `system`'s ring since enable.
    pub fn emitted(&self, system: u8) -> u64 {
        self.ring(system).map_or(0, TraceRing::emitted)
    }

    /// Entries lost to wrap-around on `system`'s ring.
    pub fn dropped(&self, system: u8) -> u64 {
        self.ring(system).map_or(0, TraceRing::dropped)
    }

    /// Entries still resident on `system`'s ring.
    pub fn retained(&self, system: u8) -> u64 {
        self.ring(system).map_or(0, TraceRing::retained)
    }

    /// Sum of traced command service time charged to `system`, ns.
    pub fn busy_ns(&self, system: u8) -> u64 {
        self.busy_ns[(system as usize).min(MAX_SYSTEMS)].get()
    }

    /// Total entries pushed across all rings.
    pub fn total_emitted(&self) -> u64 {
        (0..RINGS).map(|s| self.emitted(s as u8)).sum()
    }

    /// Total entries lost across all rings.
    pub fn total_dropped(&self) -> u64 {
        (0..RINGS).map(|s| self.dropped(s as u8)).sum()
    }

    /// Times an event of `kind` was emitted (counted even when the entry
    /// is later overwritten by wrap-around).
    pub fn kind_count(&self, kind: TraceKind) -> u64 {
        self.kind_counts[kind as usize].get()
    }

    /// Decode one system's resident entries, oldest first.
    pub fn snapshot(&self, system: u8) -> Vec<TraceRecord> {
        self.ring(system).map_or_else(Vec::new, TraceRing::snapshot)
    }

    /// Decode every ring, interleaved in tracer sequence order.
    pub fn snapshot_all(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = (0..RINGS).flat_map(|s| self.snapshot(s as u8)).collect();
        all.sort_by_key(|r| r.seq);
        all
    }

    /// Systems ids (ring indices) that have emitted at least one entry.
    pub fn active_systems(&self) -> Vec<u8> {
        (0..RINGS as u8).filter(|&s| self.emitted(s) > 0).collect()
    }

    /// Test hook: poison the entry at absolute position `pos` of
    /// `system`'s ring (see [`TraceRing::poison`]).
    #[cfg(feature = "test-hooks")]
    pub fn poison_slot(&self, system: u8, pos: u64) {
        if let Some(r) = self.ring(system) {
            r.poison(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// One fixed sample of every event with its kind id, mnemonic and
    /// packed slot words, captured at the last hand-written codec (PR 17).
    /// A later row is appended with the values it had when it was added.
    fn golden_samples() -> Vec<(TraceEvent, u8, &'static str, u64, u64)> {
        use TraceEvent as E;
        vec![
            (
                E::CmdIssued { class: CommandClass::CacheWrite, converted_async: true },
                0,
                "CMD-ISSUE",
                0x105,
                0,
            ),
            (
                E::CmdCompleted { class: CommandClass::ListAdmin, converted_async: true, latency_ns: 12_345 },
                1,
                "CMD-COMPL",
                0x10b,
                0x3039,
            ),
            (E::LockGrant { entry: 42, conn: 3, exclusive: true }, 2, "LCK-GRANT", 0x2a, 0x103),
            (
                E::LockContend { entry: 42, holders: 0b1010, exclusive: 0xFF },
                3,
                "LCK-CONT",
                0x2a,
                0xff_0000_000a,
            ),
            (E::LockFalseContend { entry: 42, holders: 0b1000 }, 4, "LCK-FALSE", 0x2a, 0x8),
            (
                E::CacheRegister { block: 0xDEAD_BEEF_0BAD_F00D, hit: true },
                5,
                "CCH-REG",
                0xDEAD_BEEF_0BAD_F00D,
                1,
            ),
            (E::CrossInvalidate { block: 0xDEAD, invalidated: 3 }, 6, "CCH-XI", 0xDEAD, 3),
            (E::LocalVectorCheck { block: 0xDEAD, valid: true }, 7, "CCH-LVEC", 0xDEAD, 1),
            (E::ListEnqueue { header: 5, entry: 11 }, 8, "LST-ENQ", 5, 11),
            (E::ListTransition { header: 5 }, 9, "LST-TRAN", 5, 0),
            (E::ListClaim { header: 5, entry: 11 }, 10, "LST-CLAIM", 5, 11),
            (E::BufRead { page: 99, local_hit: true }, 11, "BUF-READ", 99, 1),
            (E::BufRefresh { page: 99, from_cf: true }, 12, "BUF-REFR", 99, 1),
            (E::BufSteal { frame: 3, page: 99 }, 13, "BUF-STEAL", 3, 99),
            (E::BufCastout { page: 99 }, 14, "BUF-CAST", 99, 0),
            (E::XcfSend { bytes: 128 }, 15, "XCF-SEND", 128, 0),
            (E::XcfDeliver { bytes: 129 }, 16, "XCF-DELIV", 129, 0),
            (E::HeartbeatMiss { system: 2 }, 17, "HBT-MISS", 2, 0),
            (E::Fence { system: 31 }, 18, "SYS-FENCE", 31, 0),
            (E::WorkEnqueue { queue: 1 }, 19, "WRK-ENQ", 1, 0),
            (E::WorkDispatch { queue: 7 }, 20, "WRK-DISP", 7, 0),
            (E::SessionPlace { target: 4 }, 21, "VTM-PLACE", 4, 0),
            (E::LockRelease { entry: u64::MAX, conn: 3 }, 22, "LCK-REL", u64::MAX, 3),
            (E::LockLocalRegrant { entry: 42, conn: 31, exclusive: true }, 23, "LCK-REGR", 0x2a, 0x11f),
            (E::LockLazyRelease { entry: 42, conn: 3 }, 24, "LCK-LAZY", 0x2a, 3),
            (E::LockTableResize { from_entries: 64, to_entries: 256 }, 25, "LCK-RESZ", 64, 256),
            (E::DuplexBreak { conn: 5 }, 26, "DPX-BREAK", 5, 0),
        ]
    }

    #[test]
    fn kind_ids_are_stable() {
        // The coverage machinery hashes `(system, TraceKind::id)` n-grams
        // and the rings hold the packed words; both are persistence
        // formats. The codec is generated from the event table, these
        // values are not: a new kind must take the next free id, never
        // renumber or repack an existing one — and must add a sample, since
        // the samples' ids have to be exactly `0..COUNT`.
        let samples = golden_samples();
        for (event, id, mnemonic, a, b) in &samples {
            let kind = event.kind();
            assert_eq!((kind.id(), kind.name()), (*id, *mnemonic));
            assert_eq!(event.encode(), (kind, *a, *b), "{mnemonic} repacked");
            assert_eq!(TraceEvent::decode(*id, *a, *b), Some(*event), "{mnemonic} does not round-trip");
        }
        let ids: Vec<usize> = samples.iter().map(|s| s.1 as usize).collect();
        assert_eq!(ids, (0..TraceKind::COUNT).collect::<Vec<_>>(), "one sample per kind");
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind.id() as usize, i, "ALL must be indexable by id");
        }
        assert_eq!(TraceEvent::decode(TraceKind::COUNT as u8, 0, 0), None);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::new();
        t.emit(0, 0, TraceEvent::LockGrant { entry: 7, conn: 0, exclusive: false });
        assert_eq!(t.total_emitted(), 0);
        assert_eq!(t.kind_count(TraceKind::LockGrant), 0);
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let t = Tracer::new();
        t.enable_with_capacity(64);
        let sid = t.register_structure("DSG_LOCK1");
        // Every kind's sample, plus the cleared form of each flag shape.
        let mut events: Vec<TraceEvent> = golden_samples().into_iter().map(|sample| sample.0).collect();
        events.extend([
            TraceEvent::CmdIssued { class: CommandClass::LockRequest, converted_async: false },
            TraceEvent::LockGrant { entry: 42, conn: 3, exclusive: false },
            TraceEvent::LocalVectorCheck { block: 0xDEAD, valid: false },
        ]);
        for e in &events {
            t.emit(3, sid, *e);
        }
        let snap = t.snapshot(3);
        assert_eq!(snap.len(), events.len());
        for (rec, e) in snap.iter().zip(events) {
            assert_eq!(rec.event, e);
            assert_eq!(rec.system, 3);
            assert_eq!(rec.structure, sid);
        }
        // Sequence numbers are strictly increasing.
        for w in snap.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].tod_us >= w[0].tod_us);
        }
        assert_eq!(t.structure_name(sid).as_deref(), Some("DSG_LOCK1"));
        assert_eq!(t.busy_ns(3), 12_345);
    }

    #[test]
    fn wraparound_counts_drops_exactly() {
        let ring = TraceRing::new(64);
        assert_eq!(ring.capacity(), 64);
        let extra = 37u64;
        for i in 0..64 + extra {
            ring.push([0, i, 0, 0, 0]);
        }
        assert_eq!(ring.emitted(), 64 + extra);
        assert_eq!(ring.dropped(), extra);
        assert_eq!(ring.retained(), 64);
        assert_eq!(ring.snapshot().len(), 64);
    }

    #[test]
    fn concurrent_writers_never_tear_entries() {
        // Each writer stamps entries whose two payload words must agree
        // (b == a * 3 + thread tag in both). A torn entry mixing two
        // writers' stores would break the invariant.
        let t = std::sync::Arc::new(Tracer::new());
        t.enable_with_capacity(256);
        const WRITERS: u64 = 8;
        const PER: u64 = 5_000;
        let hs: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..PER {
                        let a = w << 32 | i;
                        t.emit(0, 0, TraceEvent::BufSteal { frame: a, page: a * 3 + w });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(t.emitted(0), WRITERS * PER);
        assert_eq!(t.dropped(0), WRITERS * PER - 256);
        let snap = t.snapshot(0);
        assert!(!snap.is_empty());
        for rec in snap {
            let TraceEvent::BufSteal { frame, page } = rec.event else {
                panic!("unexpected event {rec:?}");
            };
            let w = frame >> 32;
            assert_eq!(page, frame * 3 + w, "torn entry: frame={frame:#x} page={page:#x}");
        }
        assert_eq!(t.kind_count(TraceKind::BufSteal), WRITERS * PER);
    }

    #[test]
    fn structure_ids_are_stable() {
        let t = Tracer::new();
        let a = t.register_structure("A");
        let b = t.register_structure("B");
        assert_ne!(a, b);
        assert_eq!(t.register_structure("A"), a);
        assert_eq!(t.structure_name(b).as_deref(), Some("B"));
        assert_eq!(t.structure_name(0), None);
    }
}
