//! Spans recorded by plexbench around its own calls into each layer's
//! public functions. They are kept in memory while the workload runs and
//! written out when it ends; spans inside the program are a later change.
//!
//! One root span covers one transaction (`Database::run`) or one CF
//! command cycle; its children cover the calls plexbench made inside it.
//! A span's *self time* is its duration minus what its children cover, so
//! for a transaction the root's self time is begin + commit + retry
//! back-off: everything `run` did outside the closure's reads and writes.

use crate::json::Json;
use std::time::Instant;

/// Index of a span within its thread's [`SpanLog`]; `NO_PARENT` for roots.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// What a span covers. The names are the public functions called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Root: one `Database::run`, retries included.
    Txn,
    DbRead,
    DbWrite,
    /// Root: one six-command CF cycle.
    Cycle,
    LockRequest,
    CacheRead,
    CacheWrite,
    ListEnqueue,
    ListTake,
    LockRelease,
}

impl Kind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    pub const ALL: [Kind; 10] = [
        Kind::Txn,
        Kind::DbRead,
        Kind::DbWrite,
        Kind::Cycle,
        Kind::LockRequest,
        Kind::CacheRead,
        Kind::CacheWrite,
        Kind::ListEnqueue,
        Kind::ListTake,
        Kind::LockRelease,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "db.database.run",
            Kind::DbRead => "db.database.read",
            Kind::DbWrite => "db.database.write",
            Kind::Cycle => "cf.cycle",
            Kind::LockRequest => "core.lock.request_lock",
            Kind::CacheRead => "core.cache.register_read",
            Kind::CacheWrite => "core.cache.write_invalidate",
            Kind::ListEnqueue => "core.list.enqueue",
            Kind::ListTake => "core.list.take",
            Kind::LockRelease => "core.lock.release_lock",
        }
    }
}

/// One recorded span. `request` is shared by every span of one
/// transaction or cycle; `parent` is the span that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub parent: SpanId,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread's span buffer, stamped against one shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `instant` in nanoseconds since the epoch (for a clock read the
    /// caller has already paid for).
    #[inline]
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    #[inline]
    pub fn push(&mut self, request: u32, parent: SpanId, kind: Kind, start_ns: u64, end_ns: u64) -> SpanId {
        self.spans.push(Span { request, parent, kind, start_ns, end_ns });
        (self.spans.len() - 1) as SpanId
    }

    /// Open the root span of `request` at `start` (a clock read the caller
    /// already has).
    pub fn root(&mut self, request: u32, kind: Kind, start: Instant) -> RootSpan<'_> {
        let start_ns = self.at(start);
        let id = self.push(request, NO_PARENT, kind, start_ns, start_ns);
        RootSpan { log: self, request, id, mark: start_ns }
    }
}

/// The open root span of one request. Children are recorded back to back:
/// each starts where the previous one ended, so a child costs one clock
/// read.
pub struct RootSpan<'a> {
    log: &'a mut SpanLog,
    request: u32,
    id: SpanId,
    mark: u64,
}

impl RootSpan<'_> {
    /// Start the next child now instead of at the previous child's end
    /// (a retried closure must not bill the back-off to its first call).
    pub fn skip_to_now(&mut self) {
        self.mark = self.log.now();
    }

    /// The call of `kind` that began at the mark has just returned.
    pub fn child(&mut self, kind: Kind) {
        let now = self.log.now();
        self.log.push(self.request, self.id, kind, self.mark, now);
        self.mark = now;
    }

    /// Close the root at `end`.
    pub fn close_at(self, end: Instant) {
        let end_ns = self.log.at(end);
        self.log.spans[self.id as usize].end_ns = end_ns;
    }
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-kind totals with child time subtracted from each parent. Children
/// of one parent never overlap (a thread makes one call at a time), so
/// the covered part of a parent is the plain sum of its children.
pub fn totals(spans: &[Span]) -> [KindTotals; Kind::ALL.len()] {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [KindTotals::default(); Kind::ALL.len()];
    for (s, covered) in spans.iter().zip(covered) {
        let t = &mut out[s.kind as usize];
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Spans written per thread; the totals always cover every span.
const MAX_SPANS_WRITTEN: usize = 50_000;

/// The trace file body: per-thread totals and the first spans of each
/// thread as `[id, request, parent, kind, start_ns, end_ns]` rows
/// (`parent` is -1 for roots).
pub fn to_json(workload: &str, seed: u64, threads: &[&SpanLog]) -> Json {
    let thread_docs = threads.iter().enumerate().map(|(i, log)| {
        let kinds = Kind::ALL.iter().zip(totals(&log.spans)).filter(|(_, t)| t.count > 0).map(|(k, t)| {
            (
                k.name(),
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        let rows = log.spans.iter().take(MAX_SPANS_WRITTEN).enumerate().map(|(id, s)| {
            let parent = if s.parent == NO_PARENT { -1.0 } else { s.parent as f64 };
            Json::Arr(vec![
                Json::Num(id as f64),
                Json::Num(s.request as f64),
                Json::Num(parent),
                Json::Str(s.kind.name().into()),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
            ])
        });
        Json::obj([
            ("thread", Json::Num(i as f64)),
            ("spans_recorded", Json::Num(log.spans.len() as f64)),
            ("spans_written", Json::Num(log.spans.len().min(MAX_SPANS_WRITTEN) as f64)),
            ("totals", Json::obj(kinds)),
            ("spans", Json::Arr(rows.collect())),
        ])
    });
    Json::obj([
        ("schema", Json::Str("plexbench-trace-1".into())),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("row", Json::Str("id, request, parent, kind, start_ns, end_ns".into())),
        ("threads", Json::Arr(thread_docs.collect())),
    ])
}
