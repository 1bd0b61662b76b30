//! The unified CF command/subchannel layer.
//!
//! Every lock, cache, and list operation an exploiter issues travels
//! through a per-system, per-structure **connection** ([`LockConnection`],
//! [`CacheConnection`], [`ListConnection`]) as a typed [`CfCommand`], and
//! every command is issued one way: [`CfSubchannel::issue`] runs it inline
//! on the issuing thread. §3.3's execution mode — "Commands to the CF can
//! be executed synchronously or asynchronously, with cpu-synchronous
//! command completion times measured in micro-seconds" — is a function of
//! the descriptor ([`CfCommand::converts_async`]): small directory and
//! lock commands are CPU-synchronous, while bulk transfers (castout reads,
//! list scans, oversized data writes) are *converted* — counted and traced
//! as asynchronous and charged the simulated task-switch overhead.
//!
//! Centralising the command path buys three things the raw structure API
//! cannot give:
//!
//! * **One descriptor per command** (the `CfCommand` constants): the
//!   native method issues under it and the command table in
//!   [`crate::wire`] names it in the command's row, so a member-side meter
//!   ([`crate::wire::WireRequest::command`]) cannot disagree with the
//!   serving subchannel.
//! * **Per-command-class accounting** ([`ConnectionStats`]): issued, ran
//!   synchronous, converted to asynchronous, faulted, plus a latency
//!   histogram per class — the numbers the experiments report. Readers
//!   never work on the live counters: they take a [`ClassSnapshot`] (or
//!   the all-classes [`ConnectionSnapshot`]) and combine readings with
//!   its `delta`, `merge` and `balanced`. Who snapshots, and when: a
//!   member's [`TransportMeter`](crate::transport::TransportMeter) at each
//!   record cut, the RMF monitor at each report, a bench at each phase
//!   boundary, [`CommandAccounting`] when it retires or sums cells — never
//!   the command path.
//! * **A fault-injection point** ([`FaultInjector`]): link delays, lost
//!   commands (timeout) and interface control checks surface as typed
//!   [`CfError`]s to the exploiter, never as panics, without touching
//!   structure internals.
//!
//! Host-local operations stay off the subchannel by design: testing a
//! local bit vector ([`CacheConnection::is_valid`]) or hashing a resource
//! name costs nanoseconds on the issuing CPU and never was a CF command.

use crate::cache::{
    set_versions, BlockName, CacheConnection as CacheToken, CacheStructure, RegisterResult, WriteKind,
    WriteResult, WriteSetResult, WriteVersion,
};
use crate::duplex::{self, DuplexPair, Mirror};
use crate::error::{CfError, CfResult};
use crate::hashing::ResourceName;
use crate::link::{spin_for, CfLink};
use crate::list::{
    ConnEvent, DequeueEnd, EntryId, EntryView, ListConnection as ListToken, ListStructure, LockCondition,
    WritePosition,
};
use crate::lock::{DisconnectMode, LockMode, LockRates, LockResponse, LockStructure, RetainedLock};
use crate::stats::{Histogram, HistogramSnapshot, PackedCounter};
use crate::trace::{TraceEvent, Tracer, TRACE_SYSTEM_CF};
use crate::types::{ConnId, ConnMask, SystemId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal wire size of a lock-table command (request, release, interest).
pub const LOCK_CMD_BYTES: usize = 64;
/// Nominal wire size of a directory-only command (register, monitor,
/// disconnect).
pub const DIR_CMD_BYTES: usize = 256;
/// Nominal wire size of a data-carrying read response (one block/page).
pub const PAGE_BYTES: usize = 4096;

/// Command classes the subchannel accounts for.
///
/// One class per architectural command family, not per Rust method: the
/// experiments care about "how many lock requests ran synchronously", not
/// about which helper issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Obtain or force interest in a lock-table entry.
    LockRequest,
    /// Release interest in a lock-table entry.
    LockRelease,
    /// Write persistent lock record data (deletes ride a release).
    LockRecord,
    /// Lock administrative traffic: recovery queries, disconnects.
    LockAdmin,
    /// Read-and-register against the cache directory.
    CacheRead,
    /// Write-and-invalidate (data or directory-only).
    CacheWrite,
    /// Castout traffic: candidate scans, castout reads, completions.
    CacheCastout,
    /// Cache administrative traffic: connect, disconnect.
    CacheAdmin,
    /// List entry creation, update, deletion.
    ListWrite,
    /// List entry and whole-list reads.
    ListRead,
    /// Atomic entry movement and dequeues.
    ListMove,
    /// List administrative traffic: lock entries, monitors, disconnect.
    ListAdmin,
}

impl CommandClass {
    /// Number of classes (array dimension for the stats block).
    pub const COUNT: usize = 12;

    /// All classes, in stable report order.
    pub const ALL: [CommandClass; CommandClass::COUNT] = [
        CommandClass::LockRequest,
        CommandClass::LockRelease,
        CommandClass::LockRecord,
        CommandClass::LockAdmin,
        CommandClass::CacheRead,
        CommandClass::CacheWrite,
        CommandClass::CacheCastout,
        CommandClass::CacheAdmin,
        CommandClass::ListWrite,
        CommandClass::ListRead,
        CommandClass::ListMove,
        CommandClass::ListAdmin,
    ];

    /// Stable report name (also used in typed link errors).
    pub const fn name(self) -> &'static str {
        match self {
            CommandClass::LockRequest => "lock-request",
            CommandClass::LockRelease => "lock-release",
            CommandClass::LockRecord => "lock-record",
            CommandClass::LockAdmin => "lock-admin",
            CommandClass::CacheRead => "cache-read",
            CommandClass::CacheWrite => "cache-write",
            CommandClass::CacheCastout => "cache-castout",
            CommandClass::CacheAdmin => "cache-admin",
            CommandClass::ListWrite => "list-write",
            CommandClass::ListRead => "list-read",
            CommandClass::ListMove => "list-move",
            CommandClass::ListAdmin => "list-admin",
        }
    }

    /// Stable dense index (stats arrays, wire encoding): the declaration
    /// order above, which is also the order of [`CommandClass::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A typed CF command descriptor: what travels down the subchannel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfCommand {
    /// Accounting class.
    pub class: CommandClass,
    /// Bytes moved over the link (drives the transfer-time model).
    pub payload_bytes: usize,
    /// Marked bulk at the call site (castout, scans, rebuild copies):
    /// always converted to asynchronous execution regardless of size.
    pub bulk: bool,
}

impl CfCommand {
    /// A regular command of `class` moving `payload_bytes`.
    pub const fn new(class: CommandClass, payload_bytes: usize) -> Self {
        CfCommand { class, payload_bytes, bulk: false }
    }

    /// Mark the command as bulk (unconditional async conversion).
    pub const fn bulk(mut self) -> Self {
        self.bulk = true;
        self
    }

    /// Whether the command is converted to asynchronous execution.
    ///
    /// §3.3: synchronous execution avoids "the asynchronous execution
    /// overheads associated with task switching and processor cache
    /// disruptions" — but only pays off while the CPU spin is shorter than
    /// a task switch. One 4 KiB page spins for ~40-80 µs of transfer on a
    /// 50-100 MB/s link, about the cost of the task switch it would avoid;
    /// anything larger, and anything marked bulk, is converted.
    pub const fn converts_async(&self) -> bool {
        self.bulk || self.payload_bytes > PAGE_BYTES
    }

    /// Lock connect / disconnect (own slot or a peer's).
    pub const LOCK_CONNECT: Self = Self::new(CommandClass::LockAdmin, DIR_CMD_BYTES);
    /// Obtain or force interest in a lock-table entry.
    pub const LOCK_REQUEST: Self = Self::new(CommandClass::LockRequest, LOCK_CMD_BYTES);
    /// Release interest in a lock-table entry.
    pub const LOCK_RELEASE: Self = Self::new(CommandClass::LockRelease, LOCK_CMD_BYTES);
    /// Single-entry or single-connector lock queries and recovery-complete.
    pub const LOCK_QUERY: Self = Self::new(CommandClass::LockAdmin, LOCK_CMD_BYTES);
    /// Read a failed peer's retained locks. Not bulk: recovery reads a
    /// handful of records and has always been accounted synchronous.
    pub const LOCK_RETAINED: Self = Self::new(CommandClass::LockAdmin, DIR_CMD_BYTES);
    /// Write record data of `data_len` bytes (names + payloads).
    pub fn lock_record(data_len: usize) -> Self {
        Self::new(CommandClass::LockRecord, LOCK_CMD_BYTES + data_len)
    }
    /// A lock request carrying the `data_len` bytes (name + payload) of the
    /// record it writes when granted: a request, not a record command.
    pub fn lock_request_recorded(data_len: usize) -> Self {
        Self::new(CommandClass::LockRequest, LOCK_CMD_BYTES + data_len)
    }
    /// One release of `entries` lock-table entries plus the deletes of
    /// records naming `record_bytes` bytes: an entry index is a word.
    pub fn lock_release_set(entries: usize, record_bytes: usize) -> Self {
        Self::new(CommandClass::LockRelease, LOCK_CMD_BYTES + 8 * entries + record_bytes)
    }

    /// Cache connect / disconnect (directory-only).
    pub const CACHE_DIRECTORY: Self = Self::new(CommandClass::CacheAdmin, DIR_CMD_BYTES);
    /// Read-and-register one block.
    pub const CACHE_READ: Self = Self::new(CommandClass::CacheRead, PAGE_BYTES);
    /// Write-and-invalidate `data_len` bytes; converts above one page.
    pub fn cache_write(data_len: usize) -> Self {
        Self::new(CommandClass::CacheWrite, data_len.max(DIR_CMD_BYTES))
    }
    /// Castout candidate scan over the directory: bulk.
    pub const CASTOUT_CANDIDATES: Self = Self::new(CommandClass::CacheCastout, DIR_CMD_BYTES).bulk();
    /// Castout read of one changed block: bulk data transfer.
    pub const CASTOUT_READ: Self = Self::new(CommandClass::CacheCastout, PAGE_BYTES).bulk();
    /// Castout completion.
    pub const CASTOUT_COMPLETE: Self = Self::new(CommandClass::CacheCastout, LOCK_CMD_BYTES);

    /// List connect / disconnect / monitor registration.
    pub const LIST_DIRECTORY: Self = Self::new(CommandClass::ListAdmin, DIR_CMD_BYTES);
    /// Serializing list-lock acquire / release / holder query.
    pub const LIST_LOCK: Self = Self::new(CommandClass::ListAdmin, LOCK_CMD_BYTES);
    /// Create or update an entry of `data_len` bytes; converts above one
    /// page, for `update` exactly as for `enqueue`.
    pub fn list_write(data_len: usize) -> Self {
        Self::new(CommandClass::ListWrite, data_len.max(LOCK_CMD_BYTES))
    }
    /// Delete an entry.
    pub const LIST_DELETE: Self = Self::new(CommandClass::ListWrite, LOCK_CMD_BYTES);
    /// Read one entry.
    pub const LIST_READ_ENTRY: Self = Self::new(CommandClass::ListRead, DIR_CMD_BYTES);
    /// Read a whole list: bulk.
    pub const LIST_SCAN: Self = Self::new(CommandClass::ListRead, PAGE_BYTES).bulk();
    /// Header entry count.
    pub const LIST_HEADER_LEN: Self = Self::new(CommandClass::ListRead, LOCK_CMD_BYTES);
    /// Move a named entry between headers.
    pub const LIST_MOVE: Self = Self::new(CommandClass::ListMove, LOCK_CMD_BYTES);
    /// Dequeue or claim the first entry (returns the entry).
    pub const LIST_DEQUEUE: Self = Self::new(CommandClass::ListMove, DIR_CMD_BYTES);
}

/// Per-class command counters plus a latency histogram.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// Commands issued (every command counts exactly once).
    pub issued: PackedCounter,
    /// Commands executed CPU-synchronously.
    pub sync: PackedCounter,
    /// Commands converted to asynchronous execution.
    pub async_converted: PackedCounter,
    /// Commands that surfaced a link fault (subset of the above two).
    pub faulted: PackedCounter,
    /// End-to-end command latency as observed by the issuer.
    pub latency: Histogram,
}

impl ClassStats {
    /// The counters and histogram as plain data, read word by word (each
    /// word is current; the set is not a consistent cut).
    pub fn snapshot(&self) -> ClassSnapshot {
        ClassSnapshot {
            issued: self.issued.get(),
            sync: self.sync.get(),
            async_converted: self.async_converted.get(),
            faulted: self.faulted.get(),
            latency: self.latency.snapshot(),
        }
    }

    /// Count everything `other` counted on top of what is here.
    fn absorb(&self, other: &ClassSnapshot) {
        self.issued.add(other.issued);
        self.sync.add(other.sync);
        self.async_converted.add(other.async_converted);
        self.faulted.add(other.faulted);
        self.latency.absorb(&other.latency);
    }
}

/// One command class's accounting as plain data: a reading of
/// [`ClassStats`] ([`ClassStats::snapshot`]), the difference of two
/// readings ([`delta`](Self::delta) — an interval), or a sum of either
/// ([`merge`](Self::merge) — several facilities, members or intervals).
///
/// This is the one declaration of the row. A record cut, an interval
/// report and a bench phase are `now.delta(&last)`; a store's running
/// total and a sysplex roll-up are `merge`; the row travels in an
/// [`SmfRecord`](crate::wire::SmfRecord) as it is. A snapshot copies the
/// whole histogram (about 0.5 KB), so one is taken where a report or a
/// record is produced, never per command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// Commands issued (every command counts exactly once).
    pub issued: u64,
    /// Commands executed CPU-synchronously.
    pub sync: u64,
    /// Commands converted to asynchronous execution.
    pub async_converted: u64,
    /// Commands that surfaced a link fault (subset of the above two).
    pub faulted: u64,
    /// End-to-end command latency as observed by the issuer.
    pub latency: HistogramSnapshot,
}

impl ClassSnapshot {
    /// What was counted between `earlier` and `self`. Saturating: a
    /// baseline that is ahead (a reset, a re-IPL) reads as an empty
    /// interval, never as a wrapped count.
    pub fn delta(&self, earlier: &ClassSnapshot) -> ClassSnapshot {
        ClassSnapshot {
            issued: self.issued.saturating_sub(earlier.issued),
            sync: self.sync.saturating_sub(earlier.sync),
            async_converted: self.async_converted.saturating_sub(earlier.async_converted),
            faulted: self.faulted.saturating_sub(earlier.faulted),
            latency: self.latency.delta(&earlier.latency),
        }
    }

    /// Add `other` into this row.
    pub fn merge(&mut self, other: &ClassSnapshot) {
        self.issued += other.issued;
        self.sync += other.sync;
        self.async_converted += other.async_converted;
        self.faulted += other.faulted;
        self.latency.merge(&other.latency);
    }

    /// Whether the row's books balance: every command ran in exactly one
    /// mode and left exactly one latency sample.
    pub fn balanced(&self) -> bool {
        self.issued == self.sync + self.async_converted && self.latency.samples == self.issued
    }
}

/// Every class's [`ClassSnapshot`], indexed by [`CommandClass`]: a reading
/// of one [`ConnectionStats`] block, with the same `delta` and `merge`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnectionSnapshot {
    classes: [ClassSnapshot; CommandClass::COUNT],
}

impl ConnectionSnapshot {
    /// The row of one command class.
    pub fn class(&self, class: CommandClass) -> &ClassSnapshot {
        &self.classes[class.index()]
    }

    /// The row of one command class, to merge into.
    pub fn class_mut(&mut self, class: CommandClass) -> &mut ClassSnapshot {
        &mut self.classes[class.index()]
    }

    /// The rows of the classes that saw traffic, in stable report order.
    pub fn into_rows(self) -> impl Iterator<Item = (CommandClass, ClassSnapshot)> {
        CommandClass::ALL.into_iter().zip(self.classes).filter(|(_, row)| row.issued > 0)
    }

    /// Per class, what was counted between `earlier` and `self`.
    pub fn delta(&self, earlier: &ConnectionSnapshot) -> ConnectionSnapshot {
        ConnectionSnapshot { classes: std::array::from_fn(|i| self.classes[i].delta(&earlier.classes[i])) }
    }

    /// Add `other` into this block, class by class.
    pub fn merge(&mut self, other: &ConnectionSnapshot) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
    }
}

/// One accounting cell, indexed by [`CommandClass`]: the commands of one
/// subchannel (and its clones), or a sum of such cells.
///
/// Every subchannel a facility hands out writes its own cell, aligned to
/// a 128-byte line and unpadded inside, so commands on different
/// connections never write the same line. The facility-wide view is the
/// sum of the cells, taken by the rare reader
/// ([`CommandAccounting::sum`]); it is a `ConnectionStats` too, so every
/// accessor below reads the same on one cell and on the total.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ConnectionStats {
    classes: [ClassStats; CommandClass::COUNT],
}

impl ConnectionStats {
    /// New, zeroed stats block.
    pub fn new() -> Self {
        ConnectionStats::default()
    }

    /// Counters for one command class.
    pub fn class(&self, class: CommandClass) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Total commands issued across all classes.
    pub fn issued(&self) -> u64 {
        self.classes.iter().map(|c| c.issued.get()).sum()
    }

    /// Total commands executed CPU-synchronously.
    pub fn sync(&self) -> u64 {
        self.classes.iter().map(|c| c.sync.get()).sum()
    }

    /// Total commands converted to asynchronous execution.
    pub fn async_converted(&self) -> u64 {
        self.classes.iter().map(|c| c.async_converted.get()).sum()
    }

    /// Total commands that surfaced a link fault.
    pub fn faulted(&self) -> u64 {
        self.classes.iter().map(|c| c.faulted.get()).sum()
    }

    /// Every class as plain data ([`ClassStats::snapshot`]).
    pub fn snapshot(&self) -> ConnectionSnapshot {
        ConnectionSnapshot { classes: std::array::from_fn(|i| self.classes[i].snapshot()) }
    }

    /// Count everything in `other` on top of what is here: counts and
    /// histogram buckets add, `max` is the larger.
    pub fn absorb(&self, other: &ConnectionSnapshot) {
        for (mine, theirs) in self.classes.iter().zip(&other.classes) {
            mine.absorb(theirs);
        }
    }

    /// `(class name, issued, sync, async, mean latency ns)` rows for every
    /// class that saw traffic, in stable order.
    pub fn report(&self) -> Vec<(&'static str, u64, u64, u64, f64)> {
        let row = |(cl, c): (CommandClass, ClassSnapshot)| {
            (cl.name(), c.issued, c.sync, c.async_converted, c.latency.mean_ns())
        };
        self.snapshot().into_rows().map(row).collect()
    }
}

/// A facility's command accounting: one [`ConnectionStats`] cell per
/// subchannel, summed on read.
///
/// Writers never meet here — each holds an `Arc` to its own cell. The
/// registry lock is taken only to open a cell and to read the sum. A cell
/// nobody holds any more is folded into `retired` the next time a cell is
/// opened, so the commands of dropped connections stay counted and the
/// registry stays as small as the live connection set.
#[derive(Debug, Default)]
pub struct CommandAccounting {
    registry: Mutex<CellRegistry>,
}

#[derive(Debug, Default)]
struct CellRegistry {
    retired: ConnectionSnapshot,
    live: Vec<Arc<ConnectionStats>>,
}

impl CommandAccounting {
    /// Empty accounting: no cells, nothing counted.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Open a fresh cell for one subchannel.
    pub fn open_cell(&self) -> Arc<ConnectionStats> {
        let mut registry = self.registry.lock();
        let CellRegistry { retired, live } = &mut *registry;
        // The registry's is the only reference left: no command can reach
        // the cell again, so its counts are final.
        live.retain_mut(|cell| {
            let dropped = Arc::get_mut(cell).is_some();
            if dropped {
                retired.merge(&cell.snapshot());
            }
            !dropped
        });
        let cell = Arc::new(ConnectionStats::new());
        live.push(Arc::clone(&cell));
        cell
    }

    /// Facility-wide totals: every live cell plus everything retired.
    /// Reads race with in-flight commands exactly as reads of one shared
    /// block did (each word is current, the set is not a consistent cut).
    pub fn sum(&self) -> ConnectionStats {
        let registry = self.registry.lock();
        let total = ConnectionStats::new();
        total.absorb(&registry.retired);
        for cell in &registry.live {
            total.absorb(&cell.snapshot());
        }
        total
    }
}

/// A link malfunction to inject into the command path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The command completes but the link stalls for the extra duration
    /// first (degraded fiber, busy CF processor).
    Delay(Duration),
    /// The command (or its response) is lost; the issuer times out and
    /// receives [`CfError::LinkTimeout`].
    Timeout,
    /// The channel subsystem detects a malfunction mid-command; the issuer
    /// receives [`CfError::InterfaceControlCheck`].
    InterfaceControlCheck,
}

/// Injects faults into a subchannel's command stream.
///
/// Faults are queued and consumed one per command in FIFO order, so a test
/// can script an exact failure sequence without races: arm, issue, observe
/// the typed error.
#[derive(Debug, Default)]
pub struct FaultInjector {
    queue: Mutex<VecDeque<LinkFault>>,
    /// Queue length mirrored outside the lock, so the per-command check
    /// costs one relaxed load while no fault campaign is running (the
    /// overwhelmingly common case). Updated only under the queue lock.
    armed: AtomicUsize,
}

impl FaultInjector {
    /// New injector with no faults armed.
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Arm one fault; the next command through the subchannel consumes it.
    pub fn arm(&self, fault: LinkFault) {
        let mut queue = self.queue.lock();
        queue.push_back(fault);
        self.armed.store(queue.len(), Ordering::Release);
    }

    /// Number of faults still armed.
    pub fn pending(&self) -> usize {
        self.armed.load(Ordering::Acquire)
    }

    /// Discard all armed faults.
    pub fn clear(&self) {
        let mut queue = self.queue.lock();
        queue.clear();
        self.armed.store(0, Ordering::Release);
    }

    fn take(&self) -> Option<LinkFault> {
        // Fast path: nothing armed — no lock, one relaxed load. A command
        // racing a concurrent `arm` may miss the fault, which only shifts
        // it to the next command (arming is inherently racy with traffic).
        if self.armed.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queue = self.queue.lock();
        let fault = queue.pop_front();
        self.armed.store(queue.len(), Ordering::Release);
        fault
    }
}

/// One system's command subchannel to a facility: the link, this
/// subchannel's accounting cell, and the facility-wide fault hook and
/// tracer. Cheap to clone; clones write the same cell (a connection
/// cloned onto a second thread is still one connection).
#[derive(Debug, Clone)]
pub struct CfSubchannel {
    link: CfLink,
    stats: Arc<ConnectionStats>,
    accounting: Arc<CommandAccounting>,
    injector: Arc<FaultInjector>,
    tracer: Arc<Tracer>,
    system: u8,
    structure: u32,
}

impl CfSubchannel {
    /// Wrap a link, opening a fresh cell in the facility's `accounting`
    /// and sharing its injector and tracer (one fault and trace domain).
    pub fn with_shared(
        link: CfLink,
        accounting: Arc<CommandAccounting>,
        injector: Arc<FaultInjector>,
        tracer: Arc<Tracer>,
    ) -> Self {
        let stats = accounting.open_cell();
        CfSubchannel { link, stats, accounting, injector, tracer, system: TRACE_SYSTEM_CF, structure: 0 }
    }

    /// Another subchannel to the same facility: same link, fault hook,
    /// tracer and trace attribution, its own accounting cell. What a
    /// holder of one template subchannel gives each member it attaches.
    pub fn sibling(&self) -> Self {
        CfSubchannel { stats: self.accounting.open_cell(), ..self.clone() }
    }

    /// Attribute subsequent traced events to `system` (clones inherit it).
    pub fn with_system(mut self, system: SystemId) -> Self {
        self.system = system.0;
        self
    }

    /// Scope subsequent traced events to an interned structure id.
    pub fn for_structure(mut self, structure: u32) -> Self {
        self.structure = structure;
        self
    }

    /// Scope traced events to `name`, interning it in the tracer.
    pub fn for_structure_named(self, name: &str) -> Self {
        let id = self.tracer.register_structure(name);
        self.for_structure(id)
    }

    /// The underlying coupling link.
    pub fn link(&self) -> &CfLink {
        &self.link
    }

    /// This subchannel's accounting cell (facility-wide totals:
    /// [`crate::facility::CouplingFacility::command_stats`]).
    pub fn stats(&self) -> &Arc<ConnectionStats> {
        &self.stats
    }

    /// Shared fault hook.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The shared component tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Raw system id traced events are attributed to.
    pub fn system(&self) -> u8 {
        self.system
    }

    /// Record `event` against this subchannel's system and structure.
    /// Costs one relaxed load when tracing is disabled.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        self.tracer.emit(self.system, self.structure, event);
    }

    /// Consume one armed fault, if any. `Ok(Some(d))` asks the caller to
    /// stall `d` before proceeding; errors abort the command.
    fn check_fault(&self, cmd: &CfCommand) -> CfResult<Option<Duration>> {
        match self.injector.take() {
            None => Ok(None),
            Some(LinkFault::Delay(d)) => Ok(Some(d)),
            Some(LinkFault::Timeout) => {
                // The command went out and nothing came back: charge the
                // round trip the issuer waited before giving up.
                spin_for(self.link.config().service_time(cmd.payload_bytes));
                self.stats.class(cmd.class).faulted.incr();
                Err(CfError::LinkTimeout(cmd.class.name()))
            }
            Some(LinkFault::InterfaceControlCheck) => {
                self.stats.class(cmd.class).faulted.incr();
                Err(CfError::InterfaceControlCheck(cmd.class.name()))
            }
        }
    }

    /// Issue `cmd`: account it, consume any armed fault, and run `op`
    /// inline on the issuing thread inside the simulated link round trip.
    /// A command its descriptor converts ([`CfCommand::converts_async`])
    /// is counted and traced as asynchronous and pays the link's
    /// task-switch overhead after the round trip; nothing else differs.
    pub fn issue<R>(&self, cmd: CfCommand, op: impl FnOnce() -> CfResult<R>) -> CfResult<R> {
        let t0 = Instant::now();
        let converted_async = cmd.converts_async();
        let cs = self.stats.class(cmd.class);
        cs.issued.incr();
        if converted_async {
            cs.async_converted.incr();
        } else {
            cs.sync.incr();
        }
        // One relaxed load decides tracing for the whole command: the
        // disabled hot path pays nothing else.
        let traced = self.tracer.is_enabled();
        if traced {
            self.emit(TraceEvent::CmdIssued { class: cmd.class, converted_async });
        }
        // A dead link (facility shut down) fails every command with the
        // same typed timeout a lost-in-flight command produces — one
        // Acquire load on the healthy path.
        let r = if self.link.is_shut_down() {
            cs.faulted.incr();
            Err(CfError::LinkTimeout(cmd.class.name()))
        } else {
            match self.check_fault(&cmd) {
                Ok(delay) => {
                    if let Some(d) = delay {
                        spin_for(d);
                    }
                    let r = self.link.execute_sync(cmd.payload_bytes, op);
                    if converted_async {
                        spin_for(self.link.config().async_overhead());
                    }
                    r
                }
                Err(e) => Err(e),
            }
        };
        let elapsed = t0.elapsed();
        cs.latency.record(elapsed);
        if traced {
            self.emit(TraceEvent::CmdCompleted {
                class: cmd.class,
                converted_async,
                latency_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
            });
        }
        r
    }
}

/// A system's connection to a lock-model structure (§3.3.1). Every lock
/// command flows through the subchannel; lock-table traffic is small and
/// uncontended in the common case, so none of it converts. What changes a
/// duplexed structure is mirrored ([`crate::duplex`]).
#[derive(Debug, Clone)]
pub struct LockConnection {
    structure: Arc<LockStructure>,
    id: ConnId,
    sub: CfSubchannel,
    mirror: Option<Arc<Mirror<LockStructure, LockConnection>>>,
}

impl LockConnection {
    /// Connect to `structure` through `sub`, taking any free slot.
    pub fn attach(structure: &Arc<LockStructure>, sub: CfSubchannel) -> CfResult<Self> {
        let sub = sub.for_structure_named(structure.name());
        let id = sub.issue(CfCommand::LOCK_CONNECT, || structure.connect())?;
        Self::attached(structure, id, sub)
    }

    /// Connect to `structure` claiming a specific slot (recovery rejoin,
    /// rebuild into a new structure with identities preserved).
    pub fn attach_slot(structure: &Arc<LockStructure>, sub: CfSubchannel, slot: ConnId) -> CfResult<Self> {
        let sub = sub.for_structure_named(structure.name());
        let id = sub.issue(CfCommand::LOCK_CONNECT, || structure.connect_slot(slot))?;
        Self::attached(structure, id, sub)
    }

    /// Slot `id`'s connection, joined to the structure's pair if any.
    fn attached(structure: &Arc<LockStructure>, id: ConnId, sub: CfSubchannel) -> CfResult<Self> {
        let mut conn = LockConnection { structure: Arc::clone(structure), id, sub, mirror: None };
        if let Some(pair) = duplex::recorded(&structure.duplex) {
            if conn.duplex_into(&pair).is_err() {
                pair.break_on(&conn.sub, id);
            }
        }
        Ok(conn)
    }

    /// Join `pair` through this slot on the secondary (same geometry) and
    /// record it on the primary. The caller imports its interest and
    /// records into the returned secondary connection.
    pub fn duplex_into(&mut self, pair: &Arc<DuplexPair<LockStructure>>) -> CfResult<&LockConnection> {
        if pair.secondary.entries() != self.structure.entries() {
            return Err(CfError::BadParameter("duplexing requires identical lock-table geometry"));
        }
        let sub = pair.sub.sibling().with_system(SystemId(self.sub.system()));
        let conn = LockConnection::attach_slot(&pair.secondary, sub, self.id)?;
        *self.structure.duplex.lock() = Some(Arc::clone(pair));
        Ok(&self.mirror.insert(Arc::new(Mirror { pair: Arc::clone(pair), conn })).conn)
    }

    /// Whether this connection mirrors into an intact pair.
    pub fn is_duplexed(&self) -> bool {
        self.mirror.as_ref().is_some_and(|m| m.intact().is_some())
    }

    /// The secondary connection of an intact pair, to replace this one
    /// when the primary is lost.
    pub fn promote(&self) -> Option<LockConnection> {
        self.mirror.as_ref()?.intact().cloned()
    }

    /// Mirror a command that changed the primary.
    #[inline]
    fn mirror(&self, op: impl FnOnce(&LockConnection) -> CfResult<()>) {
        if let Some(m) = &self.mirror {
            m.run(&self.sub, self.id, op);
        }
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.id
    }

    /// The attached structure (inventory/observability; commands must go
    /// through the connection).
    pub fn structure(&self) -> &Arc<LockStructure> {
        &self.structure
    }

    /// The subchannel this connection issues through.
    pub fn subchannel(&self) -> &CfSubchannel {
        &self.sub
    }

    /// This connection's accounting cell (see [`CfSubchannel::stats`]).
    pub fn stats(&self) -> &Arc<ConnectionStats> {
        self.sub.stats()
    }

    /// Hash a resource name to its lock-table entry. Host-side compute,
    /// not a CF command.
    pub fn hash_resource(&self, resource: &[u8]) -> usize {
        self.structure.hash_resource(resource)
    }

    /// Lock-table entry of an already hashed name (the same entry
    /// [`LockConnection::hash_resource`] gives its bytes).
    #[inline]
    pub fn entry_of(&self, name: &ResourceName) -> usize {
        self.structure.entry_of(name)
    }

    /// Request `mode` interest in lock-table entry `entry`.
    pub fn request_lock(&self, entry: usize, mode: LockMode) -> CfResult<LockResponse> {
        let r = self.sub.issue(CfCommand::LOCK_REQUEST, || self.structure.request(self.id, entry, mode));
        self.trace_response(entry, mode, &r);
        if matches!(r, Ok(LockResponse::Granted)) {
            self.mirror(|sec| sec.force_interest(entry, mode));
        }
        r
    }

    /// [`LockConnection::request_lock`] carrying the persistent record for
    /// `resource`, written by the same command only if it is granted (see
    /// [`LockStructure::request_recorded`]).
    pub fn request_lock_recorded(
        &self,
        entry: usize,
        mode: LockMode,
        resource: &[u8],
        payload: &[u8],
    ) -> CfResult<LockResponse> {
        let cmd = CfCommand::lock_request_recorded(resource.len() + payload.len());
        let r =
            self.sub.issue(cmd, || self.structure.request_recorded(self.id, entry, mode, resource, payload));
        self.trace_response(entry, mode, &r);
        if matches!(r, Ok(LockResponse::Granted)) {
            self.mirror(|sec| {
                sec.force_interest(entry, mode)?;
                sec.write_lock_record_set(&[(ResourceName::new(resource), mode, payload)])
            });
        }
        r
    }

    #[inline]
    fn trace_response(&self, entry: usize, mode: LockMode, r: &CfResult<LockResponse>) {
        match r {
            Ok(LockResponse::Granted) => self.sub.emit(TraceEvent::LockGrant {
                entry: entry as u64,
                conn: self.id.raw(),
                exclusive: mode == LockMode::Exclusive,
            }),
            Ok(LockResponse::Contention { holders, exclusive, .. }) => {
                self.sub.emit(TraceEvent::LockContend {
                    entry: entry as u64,
                    holders: *holders as u64,
                    exclusive: exclusive.map_or(0xFF, ConnId::raw),
                });
            }
            Err(_) => {}
        }
    }

    /// Record `mode` interest unconditionally (state import: rebuild,
    /// duplex mirroring).
    pub fn force_interest(&self, entry: usize, mode: LockMode) -> CfResult<()> {
        self.sub.issue(CfCommand::LOCK_REQUEST, || self.structure.force_interest(self.id, entry, mode))?;
        self.mirror(|sec| sec.force_interest(entry, mode));
        Ok(())
    }

    /// Record `mode` interest after negotiating with `negotiated`; refused
    /// (`Ok(false)`) when a holder outside that set has appeared since the
    /// contention response, or when the entry `generation` quoted by the
    /// contention response has moved (a holder departed — possibly
    /// re-acquiring — since the negotiation started) — see
    /// [`LockStructure::force_interest_negotiated`].
    pub fn force_interest_negotiated(
        &self,
        entry: usize,
        mode: LockMode,
        negotiated: crate::types::ConnMask,
        generation: u16,
    ) -> CfResult<bool> {
        let written = self.sub.issue(CfCommand::LOCK_REQUEST, || {
            self.structure.force_interest_negotiated(self.id, entry, mode, negotiated, generation)
        })?;
        if written {
            self.mirror(|sec| sec.force_interest(entry, mode));
        }
        Ok(written)
    }

    /// Release this connection's interest in entry `entry`.
    ///
    /// A release is traced *before* the structure lets go, as a grant is
    /// traced after it holds: a peer granted the entry next, on another
    /// thread, is traced after the release, so the traced hold never
    /// outlasts the real one. A failed command leaves a release in the
    /// trace, which only makes the oracle lenient.
    pub fn release_lock(&self, entry: usize) -> CfResult<()> {
        self.sub.emit(TraceEvent::LockRelease { entry: entry as u64, conn: self.id.raw() });
        let r = self.sub.issue(CfCommand::LOCK_RELEASE, || self.structure.release(self.id, entry));
        if r.is_ok() {
            self.mirror(|sec| sec.release_lock(entry));
        }
        r
    }

    /// Delete this connection's records for `records` and release its
    /// interest in `entries`, as one command (see
    /// [`LockStructure::release_set`]). Traced as one release per entry,
    /// in order, before the structure lets go of them (see
    /// [`LockConnection::release_lock`]).
    pub fn release_set(&self, entries: &[usize], records: &[ResourceName]) -> CfResult<()> {
        let record_bytes = records.iter().map(|r| r.as_bytes().len()).sum();
        let cmd = CfCommand::lock_release_set(entries.len(), record_bytes);
        for &entry in entries {
            self.sub.emit(TraceEvent::LockRelease { entry: entry as u64, conn: self.id.raw() });
        }
        let r = self.sub.issue(cmd, || self.structure.release_set(self.id, entries, records));
        if r.is_ok() {
            self.mirror(|sec| sec.release_set(entries, records));
        }
        r
    }

    /// Holders of entry `entry`: `(all interested, exclusive holder)`.
    pub fn holders(&self, entry: usize) -> CfResult<(ConnMask, Option<ConnId>)> {
        self.sub.issue(CfCommand::LOCK_QUERY, || Ok(self.structure.holders(entry)))
    }

    /// Write persistent records for `records` — `(resource, mode,
    /// payload)` each — as one command (see
    /// [`LockStructure::write_record_set`]).
    pub fn write_lock_record_set<P: AsRef<[u8]>>(
        &self,
        records: &[(ResourceName, LockMode, P)],
    ) -> CfResult<()> {
        let bytes =
            records.iter().map(|(name, _, payload)| name.as_bytes().len() + payload.as_ref().len()).sum();
        let cmd = CfCommand::lock_record(bytes);
        self.sub.issue(cmd, || self.structure.write_record_set(self.id, records))?;
        self.mirror(|sec| sec.write_lock_record_set(records));
        Ok(())
    }

    /// Retained (failed-persistent) locks of connector `peer` — the
    /// recovery read a surviving system issues on a dead peer's behalf.
    pub fn retained_locks_of(&self, peer: ConnId) -> CfResult<Vec<RetainedLock>> {
        self.sub.issue(CfCommand::LOCK_RETAINED, || Ok(self.structure.retained_locks(peer)))
    }

    /// Whether connector `peer` is failed-persistent awaiting recovery.
    pub fn is_failed_persistent(&self, peer: ConnId) -> CfResult<bool> {
        self.sub.issue(CfCommand::LOCK_QUERY, || Ok(self.structure.is_failed_persistent(peer)))
    }

    /// Declare peer recovery complete: purges `peer`'s retained state.
    pub fn recovery_complete_for(&self, peer: ConnId) -> CfResult<()> {
        // Traced before the purge, like every release.
        self.sub.emit(TraceEvent::LockRelease { entry: u64::MAX, conn: peer.raw() });
        let r = self.sub.issue(CfCommand::LOCK_QUERY, || self.structure.recovery_complete(peer));
        if r.is_ok() {
            self.mirror(|sec| sec.recovery_complete_for(peer));
        }
        r
    }

    /// Disconnect this connection.
    pub fn detach(&self, mode: DisconnectMode) -> CfResult<()> {
        // Normal disconnect purges every interest (traced before the purge,
        // like every release); abnormal retains it for recovery, so no
        // release is traced until recovery completes.
        if mode == DisconnectMode::Normal {
            self.sub.emit(TraceEvent::LockRelease { entry: u64::MAX, conn: self.id.raw() });
        }
        let r = self.sub.issue(CfCommand::LOCK_CONNECT, || self.structure.disconnect(self.id, mode));
        if r.is_ok() {
            self.mirror(|sec| sec.detach(mode));
        }
        r
    }

    /// Disconnect a peer's slot (surviving system marking a dead peer
    /// failed-persistent).
    pub fn detach_peer(&self, peer: ConnId, mode: DisconnectMode) -> CfResult<()> {
        if mode == DisconnectMode::Normal {
            self.sub.emit(TraceEvent::LockRelease { entry: u64::MAX, conn: peer.raw() });
        }
        let r = self.sub.issue(CfCommand::LOCK_CONNECT, || self.structure.disconnect(peer, mode));
        if r.is_ok() {
            self.mirror(|sec| sec.detach_peer(peer, mode));
        }
        r
    }

    /// Structure-derived rates (observability).
    pub fn rates(&self) -> LockRates {
        self.structure.rates()
    }
}

/// A system's connection to a cache-model structure (§3.3.2). Reads and
/// small writes are CPU-synchronous; castout traffic and oversized data
/// writes are converted. What changes a duplexed structure is mirrored.
#[derive(Debug, Clone)]
pub struct CacheConnection {
    structure: Arc<CacheStructure>,
    token: CacheToken,
    sub: CfSubchannel,
    mirror: Option<Arc<Mirror<CacheStructure, CacheConnection>>>,
}

impl CacheConnection {
    /// Connect to `structure` through `sub` with a local bit vector of
    /// `vector_len` entries, joined to the structure's pair if any.
    pub fn attach(structure: &Arc<CacheStructure>, sub: CfSubchannel, vector_len: usize) -> CfResult<Self> {
        let sub = sub.for_structure_named(structure.name());
        let token = sub.issue(CfCommand::CACHE_DIRECTORY, || structure.connect(vector_len))?;
        let mut conn = CacheConnection { structure: Arc::clone(structure), token, sub, mirror: None };
        if let Some(pair) = duplex::recorded(&structure.duplex) {
            if conn.duplex_into(&pair).is_err() {
                pair.break_on(&conn.sub, conn.token.id);
            }
        }
        Ok(conn)
    }

    /// Join `pair`. The first connection to join establishes it: copies
    /// the changed data across, then records the pair on the primary.
    pub fn duplex_into(&mut self, pair: &Arc<DuplexPair<CacheStructure>>) -> CfResult<()> {
        let sub = pair.sub.sibling().with_system(SystemId(self.sub.system()));
        let conn = CacheConnection::attach(&pair.secondary, sub, self.token.vector().len())?;
        if !self.structure.duplex.lock().as_ref().is_some_and(|p| Arc::ptr_eq(p, pair)) {
            for name in self.castout_candidates(usize::MAX >> 1)? {
                let read = self.sub.issue(CfCommand::CASTOUT_READ, || self.structure.read_changed(name));
                if let Ok((data, version)) = read {
                    conn.write_at(name, &data, WriteKind::ChangedData, WriteVersion::Take(version))?;
                }
            }
            *self.structure.duplex.lock() = Some(Arc::clone(pair));
        }
        self.mirror = Some(Arc::new(Mirror { pair: Arc::clone(pair), conn }));
        Ok(())
    }

    /// Whether this connection mirrors into an intact pair.
    pub fn is_duplexed(&self) -> bool {
        self.mirror.as_ref().is_some_and(|m| m.intact().is_some())
    }

    /// The secondary connection of an intact pair, to replace this one
    /// when the primary is lost; it holds no registrations.
    pub fn promote(&self) -> Option<CacheConnection> {
        self.mirror.as_ref()?.intact().cloned()
    }

    /// Mirror a command that changed the primary.
    #[inline]
    fn mirror(&self, op: impl FnOnce(&CacheConnection) -> CfResult<()>) {
        if let Some(m) = &self.mirror {
            m.run(&self.sub, self.token.id, op);
        }
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.token.id
    }

    /// The structure-level connection token (local bit vector holder).
    pub fn token(&self) -> &CacheToken {
        &self.token
    }

    /// The attached structure (observability; commands go through the
    /// connection).
    pub fn structure(&self) -> &Arc<CacheStructure> {
        &self.structure
    }

    /// The subchannel this connection issues through.
    pub fn subchannel(&self) -> &CfSubchannel {
        &self.sub
    }

    /// This connection's accounting cell (see [`CfSubchannel::stats`]).
    pub fn stats(&self) -> &Arc<ConnectionStats> {
        self.sub.stats()
    }

    /// Test buffer validity in the local bit vector. The §3.3.2
    /// new-CPU-instruction path: nanoseconds, never a CF command, and
    /// deliberately outside the subchannel accounting.
    #[inline]
    pub fn is_valid(&self, vector_index: u32) -> bool {
        let valid = self.token.is_valid(vector_index);
        self.sub.emit(TraceEvent::LocalVectorCheck { block: 0, valid });
        valid
    }

    /// [`CacheConnection::is_valid`] with the block name the caller maps
    /// to `vector_index`, so the traced check names the block it guards
    /// (the trace oracle matches it against cross-invalidates).
    #[inline]
    pub fn is_valid_block(&self, vector_index: u32, name: BlockName) -> bool {
        let valid = self.token.is_valid(vector_index);
        self.sub.emit(TraceEvent::LocalVectorCheck { block: name.digest(), valid });
        valid
    }

    /// Scrub the local validity bit for `vector_index` (frame
    /// reassignment). Host-side, never a CF command.
    #[inline]
    pub fn invalidate_local(&self, vector_index: u32) {
        self.token.invalidate_local(vector_index);
    }

    /// Read block `name` and register interest at `vector_index`.
    pub fn register_read(&self, name: BlockName, vector_index: u32) -> CfResult<RegisterResult> {
        self.register_read_replacing(name, vector_index, None)
    }

    /// [`CacheConnection::register_read`] into a stolen buffer: the same
    /// command also drops the registration of `replaced`, the buffer's
    /// previous tenant (see [`CacheStructure::read_and_register_replacing`]).
    pub fn register_read_replacing(
        &self,
        name: BlockName,
        vector_index: u32,
        replaced: Option<BlockName>,
    ) -> CfResult<RegisterResult> {
        let r = self.sub.issue(CfCommand::CACHE_READ, || {
            self.structure.read_and_register_replacing(&self.token, name, vector_index, replaced)
        });
        if let Ok(reg) = &r {
            self.sub.emit(TraceEvent::CacheRegister { block: name.digest(), hit: reg.data.is_some() });
        }
        r
    }

    /// Write block `name` and cross-invalidate every other registered
    /// connector. Oversized payloads are converted to async execution.
    /// The mirror writes the primary's version.
    pub fn write_invalidate(&self, name: BlockName, data: &[u8], kind: WriteKind) -> CfResult<WriteResult> {
        let r = self.write_at(name, data, kind, WriteVersion::Blind);
        if let Ok(w) = &r {
            self.mirror(|sec| sec.write_at(name, data, kind, WriteVersion::Take(w.version)).map(drop));
        }
        r
    }

    /// Issue and trace one write at `version` (see
    /// [`CacheStructure::write_at`]).
    fn write_at(
        &self,
        name: BlockName,
        data: &[u8],
        kind: WriteKind,
        version: WriteVersion,
    ) -> CfResult<WriteResult> {
        let r = self.sub.issue(CfCommand::cache_write(data.len()), || {
            self.structure.write_at(&self.token, name, data, kind, version)
        });
        if let Ok(w) = &r {
            self.sub.emit(TraceEvent::CrossInvalidate {
                block: name.digest(),
                invalidated: w.invalidated as u64,
            });
        }
        r
    }

    /// Write `blocks` — `(name, expected version, data)` — in order and
    /// cross-invalidate each one's other registered connectors, as one
    /// command (see [`CacheStructure::write_and_invalidate_set`]: a block
    /// whose version moved stops the set); charged and converted on the
    /// bytes of all of them. Traced as one cross-invalidate per block
    /// written, in order.
    pub fn write_invalidate_set<B: AsRef<[u8]>>(
        &self,
        blocks: &[(BlockName, Option<u64>, B)],
        kind: WriteKind,
    ) -> CfResult<WriteSetResult> {
        let r = self.write_set_at(set_versions(blocks), kind);
        if let Ok(set) = &r {
            // What the primary took, and only that, at its versions.
            if !set.written.is_empty() {
                self.mirror(|sec| {
                    let taken = set_versions(blocks)
                        .zip(&set.written)
                        .map(|((name, _, data), w)| (name, WriteVersion::Take(w.version), data));
                    sec.write_set_at(taken, kind)?.error.map_or(Ok(()), Err)
                });
            }
        }
        r
    }

    /// Issue and trace one write set, each block at its own version (see
    /// [`CacheStructure::write_set_at`]).
    fn write_set_at<'a>(
        &self,
        blocks: impl Iterator<Item = (BlockName, WriteVersion, &'a [u8])> + Clone,
        kind: WriteKind,
    ) -> CfResult<WriteSetResult> {
        let bytes = blocks.clone().map(|(_, _, data)| data.len()).sum();
        let r = self.sub.issue(CfCommand::cache_write(bytes), || {
            Ok(self.structure.write_set_at(&self.token, blocks.clone(), kind))
        });
        if let Ok(set) = &r {
            for ((name, ..), w) in blocks.zip(&set.written) {
                self.sub.emit(TraceEvent::CrossInvalidate {
                    block: name.digest(),
                    invalidated: w.invalidated as u64,
                });
            }
        }
        r
    }

    /// Changed blocks eligible for castout, oldest first. Directory scan:
    /// bulk, converted to async.
    pub fn castout_candidates(&self, max: usize) -> CfResult<Vec<BlockName>> {
        self.sub.issue(CfCommand::CASTOUT_CANDIDATES, || Ok(self.structure.castout_candidates(max)))
    }

    /// Read a changed block for castout to DASD. Bulk data transfer:
    /// converted to async.
    pub fn castout_read(&self, name: BlockName) -> CfResult<(Arc<Vec<u8>>, u64)> {
        self.sub.issue(CfCommand::CASTOUT_READ, || self.structure.read_for_castout(&self.token, name))
    }

    /// Mark a castout complete (block hardened to DASD at `version`). The
    /// mirror completes the same version: mirrored writes carry the
    /// primary's versions, so a rewrite that reached the secondary first
    /// leaves its newer copy changed there, as on the primary.
    pub fn castout_complete(&self, name: BlockName, version: u64) -> CfResult<()> {
        self.sub.issue(CfCommand::CASTOUT_COMPLETE, || {
            self.structure.complete_castout(&self.token, name, version)
        })?;
        #[cfg(feature = "test-hooks")]
        self.structure.castout_paused();
        self.mirror(|sec| match sec.castout_complete(name, version) {
            Err(CfError::NoSuchEntry | CfError::VersionMismatch { .. }) => Ok(()),
            r => r,
        });
        Ok(())
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.sub.issue(CfCommand::CACHE_DIRECTORY, || {
            let _ = self.structure.disconnect(&self.token);
            Ok(())
        })?;
        self.mirror(|sec| sec.detach());
        Ok(())
    }
}

/// A system's connection to a list-model structure (§3.3.3). Queue
/// operations are CPU-synchronous; whole-list scans and oversized entry
/// writes are converted.
#[derive(Debug, Clone)]
pub struct ListConnection {
    structure: Arc<ListStructure>,
    token: ListToken,
    sub: CfSubchannel,
}

impl ListConnection {
    /// Connect to `structure` through `sub` with a list-notification
    /// vector of `vector_len` entries.
    pub fn attach(structure: &Arc<ListStructure>, sub: CfSubchannel, vector_len: usize) -> CfResult<Self> {
        let sub = sub.for_structure_named(structure.name());
        let token = sub.issue(CfCommand::LIST_DIRECTORY, || structure.connect(vector_len))?;
        Ok(ListConnection { structure: Arc::clone(structure), token, sub })
    }

    /// This connection's slot in the structure.
    pub fn conn_id(&self) -> ConnId {
        self.token.id
    }

    /// The structure-level connection token (notification vector holder).
    pub fn token(&self) -> &ListToken {
        &self.token
    }

    /// The attached structure (observability; commands go through the
    /// connection).
    pub fn structure(&self) -> &Arc<ListStructure> {
        &self.structure
    }

    /// The subchannel this connection issues through.
    pub fn subchannel(&self) -> &CfSubchannel {
        &self.sub
    }

    /// This connection's accounting cell (see [`CfSubchannel::stats`]).
    pub fn stats(&self) -> &Arc<ConnectionStats> {
        self.sub.stats()
    }

    /// Wakeup event pulsed on empty→non-empty transitions of monitored
    /// headers. Local wait primitive, not a CF command.
    pub fn event(&self) -> &Arc<ConnEvent> {
        &self.token.event
    }

    /// Test the list-notification vector locally (nanosecond path, outside
    /// the subchannel accounting).
    #[inline]
    pub fn is_signaled(&self, vector_index: u32) -> bool {
        self.token.vector.test(vector_index as usize)
    }

    /// Write a new entry to `header`. Oversized payloads convert to async.
    pub fn enqueue(
        &self,
        header: usize,
        key: u64,
        data: &[u8],
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<EntryId> {
        let r = self.sub.issue(CfCommand::list_write(data.len()), || {
            self.structure.write_entry(&self.token, header, key, data, position, cond)
        });
        if let Ok(id) = &r {
            self.sub.emit(TraceEvent::ListEnqueue { header: header as u64, entry: id.0 });
        }
        r
    }

    /// Update entry `id` in place, optionally version-conditional.
    /// Oversized payloads convert to async, as for `enqueue`.
    pub fn update(
        &self,
        id: EntryId,
        key: u64,
        data: &[u8],
        expected_version: Option<u64>,
        cond: LockCondition,
    ) -> CfResult<u64> {
        self.sub.issue(CfCommand::list_write(data.len()), || {
            self.structure.update_entry(&self.token, id, key, data, expected_version, cond)
        })
    }

    /// Read entry `id`.
    pub fn read_entry(&self, id: EntryId) -> CfResult<EntryView> {
        self.sub.issue(CfCommand::LIST_READ_ENTRY, || self.structure.read_entry(&self.token, id))
    }

    /// Delete entry `id`.
    pub fn delete(&self, id: EntryId, cond: LockCondition) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_DELETE, || self.structure.delete_entry(&self.token, id, cond))
    }

    /// Atomically move entry `id` to `to_header`.
    pub fn move_to(
        &self,
        id: EntryId,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_MOVE, || {
            self.structure.move_entry(&self.token, id, to_header, position, cond)
        })
    }

    /// Conditionally move entry `id` from `from_header` to `to_header`;
    /// `Ok(false)` means the entry was no longer on `from_header` (a
    /// claim race was lost) and nothing moved.
    pub fn transfer(
        &self,
        id: EntryId,
        from_header: usize,
        to_header: usize,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<bool> {
        self.sub.issue(CfCommand::LIST_MOVE, || {
            self.structure.move_entry_from(&self.token, id, from_header, to_header, position, cond)
        })
    }

    /// Atomically take the first entry of `from` and move it to `to`
    /// (work claiming without a dispatcher lock).
    pub fn claim_first(
        &self,
        from: usize,
        to: usize,
        end: DequeueEnd,
        position: WritePosition,
        cond: LockCondition,
    ) -> CfResult<Option<EntryView>> {
        let r = self.sub.issue(CfCommand::LIST_DEQUEUE, || {
            self.structure.move_first(&self.token, from, to, end, position, cond)
        });
        if let Ok(v) = &r {
            self.sub
                .emit(TraceEvent::ListClaim { header: from as u64, entry: v.as_ref().map_or(0, |e| e.id.0) });
        }
        r
    }

    /// Dequeue one entry from `header`.
    pub fn take(&self, header: usize, end: DequeueEnd, cond: LockCondition) -> CfResult<Option<EntryView>> {
        let r = self
            .sub
            .issue(CfCommand::LIST_DEQUEUE, || self.structure.dequeue(&self.token, header, end, cond));
        if let Ok(v) = &r {
            self.sub.emit(TraceEvent::ListClaim {
                header: header as u64,
                entry: v.as_ref().map_or(0, |e| e.id.0),
            });
        }
        r
    }

    /// Read every entry of `header`, in order. Whole-list transfer: bulk,
    /// converted to async.
    pub fn scan(&self, header: usize) -> CfResult<Vec<EntryView>> {
        self.sub.issue(CfCommand::LIST_SCAN, || self.structure.read_list(&self.token, header))
    }

    /// Number of entries currently on `header`.
    pub fn header_len(&self, header: usize) -> CfResult<usize> {
        self.sub.issue(CfCommand::LIST_HEADER_LEN, || self.structure.header_len(header))
    }

    /// Try to acquire serializing lock entry `entry` (§3.3.3 recovery
    /// protocol).
    pub fn acquire_list_lock(&self, entry: usize) -> CfResult<bool> {
        self.sub.issue(CfCommand::LIST_LOCK, || self.structure.acquire_lock(&self.token, entry))
    }

    /// Release serializing lock entry `entry`.
    pub fn release_list_lock(&self, entry: usize) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_LOCK, || self.structure.release_lock(&self.token, entry))
    }

    /// Current holder of serializing lock entry `entry`.
    pub fn list_lock_holder(&self, entry: usize) -> CfResult<Option<ConnId>> {
        self.sub.issue(CfCommand::LIST_LOCK, || self.structure.lock_holder(entry))
    }

    /// Monitor `header` for empty→non-empty transitions at `vector_index`.
    pub fn register_monitor(&self, header: usize, vector_index: u32) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_DIRECTORY, || {
            let _ = self.structure.register_monitor(&self.token, header, vector_index);
            Ok(())
        })
    }

    /// Stop monitoring `header`.
    pub fn deregister_monitor(&self, header: usize) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_DIRECTORY, || {
            let _ = self.structure.deregister_monitor(&self.token, header);
            Ok(())
        })
    }

    /// Disconnect this connection.
    pub fn detach(&self) -> CfResult<()> {
        self.sub.issue(CfCommand::LIST_DIRECTORY, || {
            let _ = self.structure.disconnect(&self.token);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use crate::facility::{CfConfig, CouplingFacility};
    use crate::list::ListParams;
    use crate::lock::LockParams;

    fn cf() -> Arc<CouplingFacility> {
        CouplingFacility::new(CfConfig::named("CF01"))
    }

    #[test]
    fn lock_commands_flow_and_account() {
        let cf = cf();
        cf.allocate_lock_structure("L", LockParams::with_entries(64)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        let entry = conn.hash_resource(b"ACCT.1");
        assert!(conn.request_lock(entry, LockMode::Exclusive).unwrap().is_granted());
        conn.release_lock(entry).unwrap();
        let s = conn.stats();
        let req = s.class(CommandClass::LockRequest);
        assert_eq!(req.issued.get(), 1);
        assert_eq!(req.sync.get(), 1);
        assert_eq!(s.class(CommandClass::LockRelease).issued.get(), 1);
        assert!(req.latency.samples() >= 1);
        assert_eq!(s.issued(), s.sync() + s.async_converted());
    }

    /// An N-block write set signals exactly what N single writes of the
    /// same blocks signal — the same peers cross-invalidated, the same
    /// results, the same trace events in block order — as one command.
    #[test]
    fn a_write_set_signals_what_single_writes_signal_in_block_order() {
        let blocks: Vec<(BlockName, Option<u64>, Vec<u8>)> = [3u64, 1, 2, 1]
            .iter()
            .map(|&b| (BlockName::from_parts(7, b), None, vec![b as u8; 100]))
            .collect();
        let run = |as_set: bool| {
            let cf = cf();
            cf.tracer().enable();
            cf.allocate_cache_structure("G", CacheParams::store_in(16)).unwrap();
            let writer = cf.connect_cache("G", 8).unwrap();
            let (p1, p2) = (cf.connect_cache("G", 8).unwrap(), cf.connect_cache("G", 8).unwrap());
            // Peer 1 holds blocks 1 and 3, peer 2 block 2, the writer 1.
            for (conn, b, idx) in [(&p1, 1, 0), (&p1, 3, 1), (&p2, 2, 0), (&writer, 1, 5)] {
                conn.register_read(BlockName::from_parts(7, b), idx).unwrap();
            }
            let before = writer.stats().class(CommandClass::CacheWrite).issued.get();
            let results: Vec<WriteResult> = if as_set {
                let set = writer.write_invalidate_set(&blocks, WriteKind::ChangedData).unwrap();
                assert_eq!(set.error, None);
                set.written
            } else {
                blocks
                    .iter()
                    .map(|(name, _, data)| {
                        writer.write_invalidate(*name, data, WriteKind::ChangedData).unwrap()
                    })
                    .collect()
            };
            let commands = writer.stats().class(CommandClass::CacheWrite).issued.get() - before;
            let signals: Vec<TraceEvent> = cf
                .tracer()
                .snapshot_all()
                .into_iter()
                .map(|r| r.event)
                .filter(|e| matches!(e, TraceEvent::CrossInvalidate { .. }))
                .collect();
            let bits = [p1.is_valid(0), p1.is_valid(1), p2.is_valid(0), writer.is_valid(5)];
            (results, signals, bits, commands)
        };
        let (singles, set) = (run(false), run(true));
        assert_eq!((&set.0, &set.1, set.2), (&singles.0, &singles.1, singles.2));
        assert_eq!((singles.3, set.3), (4, 1));
        let order: Vec<u64> = blocks.iter().map(|(name, ..)| name.digest()).collect();
        let signalled: Vec<u64> = set
            .1
            .iter()
            .map(|e| match e {
                TraceEvent::CrossInvalidate { block, .. } => *block,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(signalled, order);
        assert_eq!(set.0.iter().map(|w| w.invalidated).collect::<Vec<_>>(), [1, 1, 1, 0]);
        assert_eq!(set.2, [false, false, false, true], "peers invalidated, the writer still valid");
    }

    /// A recorded request is one lock-request command and a release set one
    /// lock-release command; the set is traced as a release per entry, in
    /// the set's order, after the command completed.
    #[test]
    fn recorded_requests_and_release_sets_are_one_command_each() {
        let cf = cf();
        cf.tracer().enable();
        cf.allocate_lock_structure("L", LockParams::with_entries(64)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        for entry in [3u64, 9] {
            let name = format!("ROW.{entry}");
            let granted =
                conn.request_lock_recorded(entry as usize, LockMode::Exclusive, name.as_bytes(), b"T");
            assert!(granted.unwrap().is_granted());
        }
        assert_eq!(conn.structure().record_count(), 2);
        conn.release_set(&[9, 3], &[ResourceName::new(b"ROW.3"), ResourceName::new(b"ROW.9")]).unwrap();
        assert_eq!(
            (conn.structure().record_count(), conn.structure().interest_count(conn.conn_id())),
            (0, 0)
        );
        let s = conn.stats();
        let issued = |class| s.class(class).issued.get();
        assert_eq!(issued(CommandClass::LockRequest), 2);
        assert_eq!(issued(CommandClass::LockRecord), 0);
        assert_eq!(issued(CommandClass::LockRelease), 1);
        // The releases are traced before the command lets go of them.
        let tail: Vec<TraceEvent> = cf
            .tracer()
            .snapshot_all()
            .into_iter()
            .map(|r| r.event)
            .skip_while(|e| !matches!(e, TraceEvent::LockRelease { .. }))
            .collect();
        let me = conn.conn_id().raw();
        assert!(
            matches!(
                tail.as_slice(),
                [
                    TraceEvent::LockRelease { entry: 9, conn: first },
                    TraceEvent::LockRelease { entry: 3, conn: second },
                    TraceEvent::CmdIssued { class: CommandClass::LockRelease, .. },
                    TraceEvent::CmdCompleted { class: CommandClass::LockRelease, .. },
                ] if *first == me && *second == me
            ),
            "{tail:?}"
        );
    }

    #[test]
    fn cache_bulk_commands_convert_to_async() {
        let cf = cf();
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        let a = cf.connect_cache("GBP", 16).unwrap();
        let b = cf.connect_cache("GBP", 16).unwrap();
        let name = BlockName::from_bytes(b"PAGE1");
        a.register_read(name, 0).unwrap();
        b.register_read(name, 0).unwrap();
        // Small write: synchronous. Page-sized x-invalidation still counts.
        let w = a.write_invalidate(name, &[1; 128], WriteKind::ChangedData).unwrap();
        assert_eq!(w.invalidated, 1);
        assert!(!b.is_valid(0));
        // Oversized write: converted to async by the payload heuristic.
        a.write_invalidate(name, &vec![2; 64 * 1024], WriteKind::ChangedData).unwrap();
        let s = a.stats();
        let writes = s.class(CommandClass::CacheWrite);
        assert_eq!(writes.issued.get(), 2);
        assert_eq!(writes.sync.get(), 1);
        assert_eq!(writes.async_converted.get(), 1);
        // Castout traffic is always asynchronous.
        let candidates = a.castout_candidates(8).unwrap();
        assert_eq!(candidates, vec![name]);
        let (_data, version) = a.castout_read(name).unwrap();
        a.castout_complete(name, version).unwrap();
        let castout = s.class(CommandClass::CacheCastout);
        assert_eq!(castout.async_converted.get(), 2);
        assert_eq!(castout.sync.get(), 1);
        assert_eq!(s.issued(), s.sync() + s.async_converted());
    }

    #[test]
    fn list_commands_flow_and_scan_is_bulk() {
        let cf = cf();
        cf.allocate_list_structure("WQ", ListParams::with_headers(4)).unwrap();
        let conn = cf.connect_list("WQ", 8).unwrap();
        for i in 0..3 {
            conn.enqueue(0, i, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        }
        assert_eq!(conn.header_len(0).unwrap(), 3);
        assert_eq!(conn.scan(0).unwrap().len(), 3);
        let first = conn.take(0, DequeueEnd::Head, LockCondition::None).unwrap().unwrap();
        assert_eq!(first.key, 0);
        let s = conn.stats();
        assert_eq!(s.class(CommandClass::ListWrite).issued.get(), 3);
        assert_eq!(s.class(CommandClass::ListRead).async_converted.get(), 1);
        assert_eq!(s.class(CommandClass::ListMove).issued.get(), 1);
        assert_eq!(s.issued(), s.sync() + s.async_converted());
    }

    #[test]
    fn injected_faults_surface_as_typed_errors() {
        let cf = cf();
        cf.allocate_lock_structure("L", LockParams::with_entries(16)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        cf.inject_fault(LinkFault::Timeout);
        cf.inject_fault(LinkFault::InterfaceControlCheck);
        assert_eq!(conn.request_lock(1, LockMode::Shared).unwrap_err(), CfError::LinkTimeout("lock-request"));
        assert_eq!(
            conn.request_lock(1, LockMode::Shared).unwrap_err(),
            CfError::InterfaceControlCheck("lock-request")
        );
        // Faults consumed; the path is healthy again and stats reconcile.
        assert!(conn.request_lock(1, LockMode::Shared).unwrap().is_granted());
        let s = conn.stats();
        assert_eq!(s.faulted(), 2);
        assert_eq!(s.issued(), s.sync() + s.async_converted());
    }

    #[test]
    fn delay_fault_completes_after_stall() {
        let cf = cf();
        cf.allocate_lock_structure("L", LockParams::with_entries(16)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        cf.inject_fault(LinkFault::Delay(Duration::from_millis(5)));
        let t0 = Instant::now();
        assert!(conn.request_lock(2, LockMode::Exclusive).unwrap().is_granted());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(conn.stats().faulted(), 0);
    }

    #[test]
    fn attach_slot_keeps_the_slot_for_a_rebuild() {
        let cf = cf();
        let old = cf.allocate_lock_structure("L", LockParams::with_entries(16)).unwrap();
        let conn = cf.connect_lock("L").unwrap();
        let new = cf.allocate_lock_structure("L_G2", LockParams::with_entries(16)).unwrap();
        let rebuilt = LockConnection::attach_slot(&new, conn.subchannel().clone(), conn.conn_id()).unwrap();
        assert_eq!(rebuilt.conn_id(), conn.conn_id());
        assert!(Arc::ptr_eq(rebuilt.structure(), &new));
        assert!(!Arc::ptr_eq(rebuilt.structure(), &old));
        // Both connections share one accounting domain.
        assert!(Arc::ptr_eq(conn.stats(), rebuilt.stats()));
    }

    /// Satellite: with tracing on, every subchannel command leaves a
    /// CMD-ISSUE/CMD-COMPL pair that reconciles exactly with the command
    /// accounting — per class, and split sync vs async-converted.
    #[test]
    fn traced_commands_pair_issued_with_completed() {
        use crate::trace::{TraceEvent, TraceKind, TRACE_SYSTEM_CF};
        let cf = cf();
        cf.tracer().enable();
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        let a = cf.connect_cache("GBP", 16).unwrap();
        let name = BlockName::from_bytes(b"PAGE1");
        a.register_read(name, 0).unwrap(); // sync read
        a.write_invalidate(name, &[1; 128], WriteKind::ChangedData).unwrap(); // sync write
        a.write_invalidate(name, &vec![2; 64 * 1024], WriteKind::ChangedData).unwrap(); // async
        a.detach().unwrap(); // sync admin
        let tracer = cf.tracer();
        let s = a.stats();
        assert_eq!(tracer.kind_count(TraceKind::CmdIssued), s.issued());
        assert_eq!(tracer.kind_count(TraceKind::CmdCompleted), s.issued(), "every issue completed");
        let mut issued = [0u64; CommandClass::COUNT];
        let mut completed = [0u64; CommandClass::COUNT];
        let mut async_issued = 0u64;
        for rec in tracer.snapshot_all() {
            match rec.event {
                TraceEvent::CmdIssued { class, converted_async } => {
                    issued[class.index()] += 1;
                    async_issued += u64::from(converted_async);
                }
                TraceEvent::CmdCompleted { class, converted_async, latency_ns } => {
                    completed[class.index()] += 1;
                    assert!(latency_ns > 0, "completion carries its service time");
                    let _ = converted_async;
                }
                _ => {}
            }
        }
        for class in CommandClass::ALL {
            let cs = s.class(class);
            assert_eq!(issued[class.index()], completed[class.index()], "{} pairs", class.name());
            assert_eq!(issued[class.index()], cs.issued.get(), "{} accounting", class.name());
            assert_eq!(cs.issued.get(), cs.sync.get() + cs.async_converted.get());
        }
        assert_eq!(async_issued, s.async_converted());
        assert_eq!(
            tracer.retained(TRACE_SYSTEM_CF),
            tracer.emitted(TRACE_SYSTEM_CF) - tracer.dropped(TRACE_SYSTEM_CF)
        );
    }

    #[test]
    fn command_class_index_is_its_position_in_all() {
        for (i, class) in CommandClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{}", class.name());
        }
    }

    #[test]
    fn descriptor_drives_conversion() {
        assert!(!CfCommand::cache_write(PAGE_BYTES).converts_async());
        assert!(CfCommand::list_write(PAGE_BYTES + 1).converts_async());
        assert!(CfCommand::new(CommandClass::ListRead, 64).bulk().converts_async());
        assert!(!CfCommand::LOCK_RETAINED.converts_async());
    }

    /// A converted command is an accounting and latency-model term: its
    /// structure operation runs on the issuing thread, borrowing the
    /// caller's payload, and no facility-side thread exists to run it.
    #[test]
    fn converted_commands_run_inline_on_the_issuing_thread() {
        let cf = cf();
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        cf.allocate_list_structure("WQ", ListParams::with_headers(2)).unwrap();
        let cache = cf.connect_cache("GBP", 16).unwrap();
        let list = cf.connect_list("WQ", 8).unwrap();
        list.enqueue(0, 1, b"job", WritePosition::Tail, LockCondition::None).unwrap();
        let name = BlockName::from_bytes(b"PAGE1");
        let page = vec![7u8; 2 * PAGE_BYTES];
        let me = std::thread::current().id();
        let on_issuer = || assert_eq!(std::thread::current().id(), me, "op left the issuing thread");

        let sub = cache.subchannel();
        sub.issue(CfCommand::cache_write(page.len()), || {
            on_issuer();
            cache.structure().write_and_invalidate(cache.token(), name, &page, WriteKind::ChangedData)
        })
        .unwrap();
        let (data, _) = sub
            .issue(CfCommand::CASTOUT_READ, || {
                on_issuer();
                cache.structure().read_for_castout(cache.token(), name)
            })
            .unwrap();
        assert_eq!(*data, page);
        let entries = list.subchannel().issue(CfCommand::LIST_SCAN, || {
            on_issuer();
            list.structure().read_list(list.token(), 0)
        });
        assert_eq!(entries.unwrap().len(), 1);
        assert_eq!(cf.command_stats().async_converted(), 3);
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
            assert!(!comm.starts_with("cf-proc"), "facility spawned a processor thread: {comm}");
        }
    }

    /// Facility outage: every command, converted or not, fails with the
    /// typed timeout, is counted faulted, and still reconciles.
    #[test]
    fn shutdown_fails_sync_and_converted_commands_alike() {
        let cf = cf();
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        let a = cf.connect_cache("GBP", 16).unwrap();
        let name = BlockName::from_bytes(b"PAGE1");
        let s = a.stats();
        assert!(!cf.is_shut_down());
        cf.shutdown();
        cf.shutdown();
        assert!(cf.is_shut_down() && a.subchannel().link().is_shut_down());
        assert_eq!(a.register_read(name, 0).unwrap_err(), CfError::LinkTimeout("cache-read"));
        assert_eq!(a.castout_read(name).unwrap_err(), CfError::LinkTimeout("cache-castout"));
        // The healthy attach, then the two commands the outage failed.
        assert_eq!((s.issued(), s.sync(), s.async_converted(), s.faulted()), (3, 2, 1, 2));
        assert_eq!(s.class(CommandClass::CacheRead).faulted.get(), 1);
        assert_eq!(s.class(CommandClass::CacheCastout).async_converted.get(), 1);
    }

    /// The §3.3 latency model through the real path. Lower bounds only:
    /// the spins guarantee them, upper bounds are host noise.
    #[test]
    fn converted_command_pays_round_trip_plus_async_overhead() {
        let link = crate::link::LinkConfig::mb100();
        let cf = CouplingFacility::new(CfConfig::named("CF01").with_link(link));
        cf.allocate_cache_structure("GBP", CacheParams::store_in(64)).unwrap();
        let a = cf.connect_cache("GBP", 16).unwrap();
        let name = BlockName::from_bytes(b"PAGE1");
        a.write_invalidate(name, &[1; 128], WriteKind::ChangedData).unwrap();
        a.register_read(name, 0).unwrap();
        a.castout_read(name).unwrap();
        let recorded = |class| a.stats().class(class).latency.max();
        let round_trip = link.service_time(PAGE_BYTES);
        assert!(recorded(CommandClass::CacheRead) >= round_trip);
        assert_eq!(link.async_overhead(), Duration::from_micros(40));
        assert!(recorded(CommandClass::CacheCastout) >= round_trip + link.async_overhead());
    }

    /// One connection cloned into four threads shares one slot and so one
    /// id cursor: the clones race on it and still never draw an id twice.
    #[test]
    fn cloned_list_connection_never_draws_an_id_twice() {
        let cf = cf();
        cf.allocate_list_structure("Q", ListParams::with_headers(4)).unwrap();
        let conn = cf.connect_list("Q", 8).unwrap();
        let ids: Vec<crate::list::EntryId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let conn = conn.clone();
                    scope.spawn(move || {
                        (0..500)
                            .map(|i| {
                                let id = conn
                                    .enqueue(t, i, b"", WritePosition::Tail, LockCondition::None)
                                    .unwrap();
                                if i % 2 == 0 {
                                    conn.take(t, DequeueEnd::Head, LockCondition::None).unwrap();
                                }
                                id
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), 2000, "every id drawn once");
    }
}
