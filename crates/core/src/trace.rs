//! Run-level observability: structured event traces, interval metrics, and
//! hot-line profiling.
//!
//! The memory system reports protocol observations as [`MemObs`] values
//! through the one-method [`MemTracer`] hook (in `slipstream-mem`); this
//! module is the collector side. A [`Recorder`] installed into the memory
//! system decides, in one `match`, which observations to keep as
//! [`TraceKind::Mem`] records; together with the machine loop's own
//! records (recoveries, session ends) they feed a shared [`TraceBuffer`].
//! The machine additionally snapshots [`IntervalSample`]s
//! at a configurable cycle interval. At the end of a run everything is
//! packaged into a [`TraceData`], which knows how to export itself as
//!
//! * JSONL event records ([`TraceData::events_jsonl`]),
//! * Chrome `trace_event` JSON viewable in Perfetto
//!   ([`TraceData::chrome_trace_json`]),
//! * interval-metrics JSONL ([`TraceData::metrics_jsonl`]), and
//! * a top-K hot-line text report ([`TraceData::hotline_report`]).
//!
//! Everything is gated by [`TraceConfig`]: with the default (disabled)
//! config no buffer is allocated, no tracer is installed, and the
//! simulation path is identical to a build without this module. Tracing is
//! purely observational — a traced run produces a bit-identical
//! [`RunResult`] to an untraced one (asserted by the `accounting`
//! integration test and the `trace` binary).
//!
//! All exports are hand-rolled JSON: the workspace deliberately has no
//! serialization dependency, and the schemas are small and flat.

use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use slipstream_kernel::{Cycle, FxHashMap, LineAddr, NodeId};
use slipstream_mem::{
    AccessKind, AccessOutcome, MemObs, MemStats, MemTracer, StreamRole, SyncOp, TracePerm,
};
use slipstream_prog::{BarrierId, EventId, LockId};

use crate::report::RunResult;

/// What to collect during a run. The default is everything off; the
/// simulation then takes the exact same path as before this module existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceConfig {
    /// Record typed event records (misses, fills, directory transitions,
    /// SI traffic, sync operations, recoveries).
    pub events: bool,
    /// Snapshot interval metrics every this many cycles (0 = off).
    pub interval: u64,
    /// Keep per-line coherence counters for the hot-line report.
    pub hotlines: bool,
    /// Hard cap on stored event records; further events increment
    /// [`TraceData::dropped`] instead of growing the buffer, so a
    /// pathological run cannot exhaust memory — and the truncation is
    /// explicit, never silent.
    pub max_events: usize,
    /// Default number of lines shown by [`TraceData::hotline_report`].
    pub top_k: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { events: false, interval: 0, hotlines: false, max_events: 1_000_000, top_k: 32 }
    }
}

impl TraceConfig {
    /// Everything on, sampling every `interval` cycles.
    pub fn full(interval: u64) -> TraceConfig {
        TraceConfig { events: true, interval, hotlines: true, ..TraceConfig::default() }
    }

    /// Whether any collection is requested (drives tracer installation).
    pub fn enabled(&self) -> bool {
        self.events || self.interval > 0 || self.hotlines
    }
}

/// One timestamped event record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated cycle at which the event happened.
    pub t: u64,
    pub kind: TraceKind,
}

/// The typed event vocabulary: the memory-system observations the
/// [`Recorder`] keeps, plus the machine loop's own `Recovery` and
/// `SessionEnd`.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A memory-system observation. The recorder keeps L2 misses (new or
    /// merged), fills, directory transitions, interventions,
    /// invalidations, SI hints and actions, transparent upgrades and
    /// replies, writebacks and sync operations; hits and prefetch
    /// decisions are counted in [`AccessCounts`] only.
    Mem(MemObs),
    /// A deviated A-stream was killed and reforked (§3.2). Sessions are
    /// the pre-recovery counters.
    Recovery { node: NodeId, r_session: u64, a_session: u64 },
    /// An R-stream finished a session (barrier or event-wait reached).
    SessionEnd { node: NodeId, session: u64 },
}

/// Cheap per-outcome access counters, kept for *every* access (unlike
/// event records, which cover only misses). These power the accounting
/// identity checks: `l1_hits + l2_hits + miss_new + miss_merged` must
/// equal the memory system's own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub miss_new: u64,
    pub miss_merged: u64,
    pub prefetch_issued: u64,
    pub prefetch_dropped: u64,
}

impl AccessCounts {
    /// Total data accesses (prefetches are extra traffic, not accesses).
    pub fn data_accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.miss_new + self.miss_merged
    }
}

/// Per-line coherence activity (the hot-line profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineCounters {
    /// L2 misses (new + merged) for the line.
    pub misses: u64,
    /// Interventions forwarded to an exclusive owner of the line.
    pub interventions: u64,
    /// Invalidations sent to sharers of the line.
    pub invalidations: u64,
    /// Self-invalidation activity: hints delivered plus lines processed.
    pub si: u64,
}

impl LineCounters {
    /// Total activity, the hot-line ranking key.
    pub fn total(&self) -> u64 {
        self.misses + self.interventions + self.invalidations + self.si
    }
}

/// The shared collection buffer. One lives behind an `Rc<RefCell<..>>`,
/// cloned between the [`Recorder`] installed in the memory system and the
/// machine loop (the simulation is single-threaded, so the `RefCell` is
/// never contended).
#[derive(Debug)]
pub struct TraceBuffer {
    events_on: bool,
    hotlines_on: bool,
    max_events: usize,
    /// Stored event records, in simulation order.
    pub records: Vec<TraceRecord>,
    /// Events discarded after `max_events` was reached.
    pub dropped: u64,
    /// Per-outcome access counters (always collected; they are six adds).
    pub counts: AccessCounts,
    /// Per-line coherence counters (only when `hotlines` is on).
    pub hot: FxHashMap<u64, LineCounters>,
}

impl TraceBuffer {
    pub fn new(cfg: &TraceConfig) -> TraceBuffer {
        TraceBuffer {
            events_on: cfg.events,
            hotlines_on: cfg.hotlines,
            max_events: cfg.max_events,
            records: Vec::new(),
            dropped: 0,
            counts: AccessCounts::default(),
            hot: FxHashMap::default(),
        }
    }

    /// Appends an event record, honoring the cap.
    pub fn push(&mut self, t: Cycle, kind: TraceKind) {
        if !self.events_on {
            return;
        }
        if self.records.len() >= self.max_events {
            self.dropped += 1;
        } else {
            self.records.push(TraceRecord { t: t.raw(), kind });
        }
    }

    /// Bumps one of `line`'s hot-line counters (when `hotlines` is on).
    fn bump(&mut self, line: LineAddr, counter: fn(&mut LineCounters) -> &mut u64) {
        if self.hotlines_on {
            *counter(self.hot.entry(line.0).or_default()) += 1;
        }
    }
}

/// The [`MemTracer`] implementation: forwards protocol observations into a
/// shared [`TraceBuffer`].
pub struct Recorder {
    buf: Rc<RefCell<TraceBuffer>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately shallow: the buffer can hold a million records and
        // the Machine derives Debug through this type.
        let b = self.buf.borrow();
        write!(f, "Recorder({} records, {} dropped)", b.records.len(), b.dropped)
    }
}

impl Recorder {
    pub fn new(buf: Rc<RefCell<TraceBuffer>>) -> Recorder {
        Recorder { buf }
    }
}

impl MemTracer for Recorder {
    /// Counts every access, profiles hot lines, and keeps the observation
    /// as a record unless it is a hit, a prefetch decision, or cache-side
    /// bookkeeping (evictions, L2 drops, MSHRs).
    fn on(&mut self, now: Cycle, ev: &MemObs) {
        let mut b = self.buf.borrow_mut();
        match *ev {
            MemObs::Access { line, outcome, .. } => {
                let c = &mut b.counts;
                let count = match outcome {
                    AccessOutcome::L1Hit => &mut c.l1_hits,
                    AccessOutcome::L2Hit => &mut c.l2_hits,
                    AccessOutcome::MissNew => &mut c.miss_new,
                    AccessOutcome::MissMerged => &mut c.miss_merged,
                    AccessOutcome::PrefetchIssued => &mut c.prefetch_issued,
                    AccessOutcome::PrefetchDropped => &mut c.prefetch_dropped,
                };
                *count += 1;
                if !matches!(outcome, AccessOutcome::MissNew | AccessOutcome::MissMerged) {
                    return;
                }
                b.bump(line, |h| &mut h.misses);
            }
            MemObs::Intervention { line, .. } => b.bump(line, |h| &mut h.interventions),
            MemObs::Invalidation { line, .. } => b.bump(line, |h| &mut h.invalidations),
            MemObs::SiHint { line, .. } | MemObs::SiAction { line, .. } => {
                b.bump(line, |h| &mut h.si);
            }
            MemObs::Fill { .. }
            | MemObs::DirTransition { .. }
            | MemObs::TransparentUpgrade { .. }
            | MemObs::TransparentReply { .. }
            | MemObs::Writeback { .. }
            | MemObs::Sync { .. } => {}
            MemObs::L2Evict { .. }
            | MemObs::L2Invalidate { .. }
            | MemObs::L2Downgrade { .. }
            | MemObs::MshrAlloc { .. }
            | MemObs::MshrFree { .. } => return,
        }
        b.push(now, TraceKind::Mem(ev.clone()));
    }
}

/// A periodic snapshot of run state. Counters are *cumulative*; the
/// metrics exporter turns them into deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Sample boundary (cycles).
    pub cycle: u64,
    /// Cumulative memory-system statistics at the boundary.
    pub stats: MemStats,
    /// Per-pair run-ahead distance in sessions (`a_session - r_session`);
    /// negative means the A-stream has fallen behind.
    pub run_ahead: Vec<i64>,
    /// Per-pair A-R tokens available.
    pub tokens: Vec<u32>,
    /// Pending events in the global queue.
    pub queue_len: usize,
    /// Cumulative host events processed.
    pub host_events: u64,
    /// Cumulative A-stream recoveries.
    pub recoveries: u64,
}

/// Live collection state carried by the machine during a traced run.
#[derive(Debug)]
pub(crate) struct TraceState {
    pub(crate) cfg: TraceConfig,
    pub(crate) buf: Rc<RefCell<TraceBuffer>>,
    pub(crate) next_sample: Cycle,
    pub(crate) samples: Vec<IntervalSample>,
}

impl TraceState {
    /// Creates the state plus the [`Recorder`] to install into the memory
    /// system (both share one buffer).
    pub(crate) fn new(cfg: TraceConfig) -> (TraceState, Recorder) {
        let buf = Rc::new(RefCell::new(TraceBuffer::new(&cfg)));
        let recorder = Recorder::new(buf.clone());
        let first = if cfg.interval > 0 { Cycle(cfg.interval) } else { Cycle(u64::MAX) };
        (TraceState { cfg, buf, next_sample: first, samples: Vec::new() }, recorder)
    }
}

/// Everything collected during one traced run, with the exporters.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// The configuration the run was traced with.
    pub config: TraceConfig,
    /// Event records in simulation order.
    pub records: Vec<TraceRecord>,
    /// Events discarded after the `max_events` cap.
    pub dropped: u64,
    /// Per-outcome access counters.
    pub counts: AccessCounts,
    /// Per-line counters, sorted by total activity (descending), line
    /// address breaking ties — deterministic across runs.
    pub hot: Vec<(u64, LineCounters)>,
    /// Interval snapshots (includes one final sample at the end of run).
    pub samples: Vec<IntervalSample>,
    /// Events pushed onto the global queue over the run.
    pub queue_total_pushed: u64,
    /// Peak global queue depth.
    pub queue_high_water: usize,
    /// The run's end-to-end execution time.
    pub end_cycle: u64,
}

impl TraceData {
    pub(crate) fn assemble(
        cfg: TraceConfig,
        buf: TraceBuffer,
        samples: Vec<IntervalSample>,
        queue_total_pushed: u64,
        queue_high_water: usize,
        end_cycle: u64,
    ) -> TraceData {
        let mut hot: Vec<(u64, LineCounters)> = buf.hot.into_iter().collect();
        hot.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        TraceData {
            config: cfg,
            records: buf.records,
            dropped: buf.dropped,
            counts: buf.counts,
            hot,
            samples,
            queue_total_pushed,
            queue_high_water,
            end_cycle,
        }
    }

    /// One JSON object per line, one line per event record.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            record_json(&mut out, r);
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (the "JSON Array Format" with metadata),
    /// loadable in Perfetto / `chrome://tracing`. Timestamps are simulated
    /// cycles reported in the `ts` microsecond field: 1 µs on the timeline
    /// reads as 1 cycle.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 160 + 4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        // Name the processes: one per node the events mention.
        let mut nodes: Vec<u16> = self
            .records
            .iter()
            .map(|r| event_meta(&r.kind).2)
            .chain(self.samples.iter().flat_map(|_| [0u16]))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for n in nodes {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\
                 \"args\":{{\"name\":\"node {n}\"}}}}"
            );
        }
        for r in &self.records {
            sep(&mut out);
            let (name, cat, pid, tid) = event_meta(&r.kind);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"p\",\
                 \"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":",
                r.t,
            );
            args_json(&mut out, &r.kind);
            out.push('}');
        }
        // Counter tracks from the interval samples (pid 0, whole machine).
        let mut prev: Option<&IntervalSample> = None;
        for s in &self.samples {
            let d = |cur: u64, f: fn(&MemStats) -> u64| {
                cur - prev.map(|p| f(&p.stats)).unwrap_or(0)
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"mem\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\
                 \"l2_misses\":{},\"net_messages\":{}}}}}",
                s.cycle,
                d(s.stats.l2_misses, |m| m.l2_misses),
                d(s.stats.net_messages, |m| m.net_messages),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"queue\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"pending\":{}}}}}",
                s.cycle, s.queue_len
            );
            if !s.run_ahead.is_empty() {
                sep(&mut out);
                let _ = write!(out, "{{\"name\":\"run_ahead\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{", s.cycle);
                for (i, ra) in s.run_ahead.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"pair{i}\":{ra}");
                }
                out.push_str("}}");
            }
            prev = Some(s);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Interval metrics as JSONL: one object per sample, memory counters
    /// as per-interval deltas, run state as point-in-time values.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 256);
        let mut prev: Option<&IntervalSample> = None;
        for s in &self.samples {
            let d = |f: fn(&MemStats) -> u64| {
                f(&s.stats) - prev.map(|p| f(&p.stats)).unwrap_or(0)
            };
            let _ = write!(
                out,
                "{{\"cycle\":{},\"l1_hits\":{},\"l2_hits\":{},\"l2_misses\":{},\
                 \"merged_misses\":{},\"net_messages\":{},\"writebacks\":{},\
                 \"invalidations\":{},\"interventions\":{},\"si_hints\":{},\
                 \"si_invalidations\":{},\"si_downgrades\":{},\"transparent_issued\":{},\
                 \"queue_len\":{},\"host_events\":{},\"recoveries\":{}",
                s.cycle,
                d(|m| m.l1_hits),
                d(|m| m.l2_hits),
                d(|m| m.l2_misses),
                d(|m| m.merged_misses),
                d(|m| m.net_messages),
                d(|m| m.writebacks),
                d(|m| m.invalidations_sent),
                d(|m| m.interventions),
                d(|m| m.si_hints),
                d(|m| m.si_invalidations),
                d(|m| m.si_downgrades),
                d(|m| m.transparent_issued),
                s.queue_len,
                s.host_events,
                s.recoveries,
            );
            out.push_str(",\"run_ahead\":[");
            for (i, ra) in s.run_ahead.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{ra}");
            }
            out.push_str("],\"tokens\":[");
            for (i, t) in s.tokens.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{t}");
            }
            out.push_str("]}\n");
            prev = Some(s);
        }
        out
    }

    /// Human-readable top-`k` hot-line report (`k = 0` uses the config's
    /// `top_k`).
    pub fn hotline_report(&self, k: usize) -> String {
        let k = if k == 0 { self.config.top_k } else { k };
        let shown = k.min(self.hot.len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hot lines: top {} of {} tracked, ranked by total coherence activity",
            shown,
            self.hot.len()
        );
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>10} {:>12} {:>6} {:>8}",
            "line", "misses", "intervene", "invalidate", "si", "total"
        );
        for (line, c) in self.hot.iter().take(k) {
            let _ = writeln!(
                out,
                "{:<#18x} {:>8} {:>10} {:>12} {:>6} {:>8}",
                line,
                c.misses,
                c.interventions,
                c.invalidations,
                c.si,
                c.total()
            );
        }
        out
    }
}

/// A record's event name, Chrome category, and Chrome process (node) and
/// thread (core) ids.
fn event_meta(k: &TraceKind) -> (&'static str, &'static str, u16, u32) {
    let m = match k {
        TraceKind::Mem(m) => m,
        TraceKind::Recovery { node, .. } => return ("recovery", "runtime", node.0, 0),
        TraceKind::SessionEnd { node, .. } => return ("session_end", "runtime", node.0, 0),
    };
    match *m {
        // The recorder keeps only the miss outcomes of an access.
        MemObs::Access { cpu, .. } => ("miss", "cache", cpu.node().0, cpu.core() as u32),
        MemObs::Fill { node, .. } => ("fill", "cache", node.0, 0),
        MemObs::L2Evict { node, .. } => ("l2_evict", "cache", node.0, 0),
        MemObs::L2Invalidate { node, .. } => ("l2_invalidate", "cache", node.0, 0),
        MemObs::L2Downgrade { node, .. } => ("l2_downgrade", "cache", node.0, 0),
        MemObs::MshrAlloc { node, .. } => ("mshr_alloc", "cache", node.0, 0),
        MemObs::MshrFree { node, .. } => ("mshr_free", "cache", node.0, 0),
        MemObs::DirTransition { requester, .. } => ("dir_transition", "directory", requester.0, 0),
        MemObs::Intervention { owner, .. } => ("intervention", "directory", owner.0, 0),
        MemObs::Invalidation { target, .. } => ("invalidation", "directory", target.0, 0),
        MemObs::Writeback { from, .. } => ("writeback", "directory", from.0, 0),
        MemObs::SiHint { owner, .. } => ("si_hint", "slipstream", owner.0, 0),
        MemObs::SiAction { node, .. } => ("si_action", "slipstream", node.0, 0),
        MemObs::TransparentUpgrade { from, .. } => ("transparent_upgrade", "slipstream", from.0, 0),
        MemObs::TransparentReply { from, .. } => ("transparent_reply", "slipstream", from.0, 0),
        MemObs::Sync { cpu, op, .. } => {
            (sync_op_parts(op).0, "sync", cpu.node().0, cpu.core() as u32)
        }
    }
}

fn role_str(r: StreamRole) -> &'static str {
    match r {
        StreamRole::A => "A",
        StreamRole::R => "R",
        StreamRole::Solo => "solo",
    }
}

fn access_kind_str(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Read => "read",
        AccessKind::TransparentRead => "trans_read",
        AccessKind::Write => "write",
        AccessKind::ExclPrefetch => "excl_prefetch",
    }
}

fn sync_op_parts(op: SyncOp) -> (&'static str, u64) {
    match op {
        SyncOp::BarrierArrive(BarrierId(i)) => ("barrier_arrive", i as u64),
        SyncOp::LockAcquire(LockId(i)) => ("lock_acquire", i as u64),
        SyncOp::LockRelease(LockId(i)) => ("lock_release", i as u64),
        SyncOp::EventPost(EventId(i)) => ("event_post", i as u64),
        SyncOp::EventWait(EventId(i), _) => ("event_wait", i as u64),
    }
}

fn perm_json(out: &mut String, p: &TracePerm) {
    match p {
        TracePerm::Uncached => out.push_str("{\"state\":\"uncached\"}"),
        TracePerm::Shared { sharers, overflow } => {
            // Compatibility path: the historical format was an integer
            // bit-mask, kept whenever every sharer index fits in 128 bits;
            // larger machines emit an explicit node-id list.
            match sharers.as_mask() {
                Some(mask) => {
                    let _ = write!(out, "{{\"state\":\"shared\",\"sharers\":{mask}");
                }
                None => {
                    out.push_str("{\"state\":\"shared\",\"sharer_list\":[");
                    for (i, n) in sharers.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", n.0);
                    }
                    out.push(']');
                }
            }
            if *overflow {
                out.push_str(",\"overflow\":true");
            }
            out.push('}');
        }
        TracePerm::Excl { owner } => {
            let _ = write!(out, "{{\"state\":\"excl\",\"owner\":{}}}", owner.0);
        }
    }
}

/// The event's payload fields, as one JSON object (shared by the JSONL and
/// Chrome exporters).
fn args_json(out: &mut String, k: &TraceKind) {
    let m = match k {
        TraceKind::Mem(m) => m,
        TraceKind::Recovery { node, r_session, a_session } => {
            let _ = write!(
                out,
                "{{\"node\":{},\"r_session\":{r_session},\"a_session\":{a_session}}}",
                node.0
            );
            return;
        }
        TraceKind::SessionEnd { node, session } => {
            let _ = write!(out, "{{\"node\":{},\"session\":{session}}}", node.0);
            return;
        }
    };
    match m {
        MemObs::Access { cpu, role, kind, line, outcome } => {
            let _ = write!(
                out,
                "{{\"node\":{},\"core\":{},\"role\":\"{}\",\"kind\":\"{}\",\
                 \"line\":{},\"merged\":{}}}",
                cpu.node().0,
                cpu.core(),
                role_str(*role),
                access_kind_str(*kind),
                line.0,
                *outcome == AccessOutcome::MissMerged
            );
        }
        MemObs::Fill { node, line, excl, transparent } => {
            let _ = write!(
                out,
                "{{\"node\":{},\"line\":{},\"excl\":{excl},\"transparent\":{transparent}}}",
                node.0, line.0
            );
        }
        MemObs::L2Evict { node, line, dirty, transparent } => {
            let _ = write!(
                out,
                "{{\"node\":{},\"line\":{},\"dirty\":{dirty},\"transparent\":{transparent}}}",
                node.0, line.0
            );
        }
        MemObs::L2Invalidate { node, line }
        | MemObs::L2Downgrade { node, line }
        | MemObs::MshrAlloc { node, line }
        | MemObs::MshrFree { node, line } => {
            let _ = write!(out, "{{\"node\":{},\"line\":{}}}", node.0, line.0);
        }
        MemObs::DirTransition { line, from, to, requester } => {
            let _ = write!(out, "{{\"line\":{},\"requester\":{},\"from\":", line.0, requester.0);
            perm_json(out, from);
            out.push_str(",\"to\":");
            perm_json(out, to);
            out.push('}');
        }
        MemObs::Intervention { line, owner, requester, excl } => {
            let _ = write!(
                out,
                "{{\"line\":{},\"owner\":{},\"requester\":{},\"excl\":{excl}}}",
                line.0, owner.0, requester.0
            );
        }
        MemObs::Invalidation { line, target } => {
            let _ = write!(out, "{{\"line\":{},\"target\":{}}}", line.0, target.0);
        }
        MemObs::SiHint { line, owner } => {
            let _ = write!(out, "{{\"line\":{},\"owner\":{}}}", line.0, owner.0);
        }
        MemObs::SiAction { node, line, invalidated } => {
            let _ = write!(
                out,
                "{{\"node\":{},\"line\":{},\"invalidated\":{invalidated}}}",
                node.0, line.0
            );
        }
        MemObs::TransparentUpgrade { line, from } | MemObs::TransparentReply { line, from } => {
            let _ = write!(out, "{{\"line\":{},\"node\":{}}}", line.0, from.0);
        }
        MemObs::Writeback { line, from } => {
            let _ = write!(out, "{{\"line\":{},\"from\":{}}}", line.0, from.0);
        }
        MemObs::Sync { cpu, op, granted } => {
            let (_, id) = sync_op_parts(*op);
            let _ = write!(
                out,
                "{{\"node\":{},\"core\":{},\"id\":{id},\"granted\":{granted}}}",
                cpu.node().0,
                cpu.core()
            );
        }
    }
}

fn record_json(out: &mut String, r: &TraceRecord) {
    let _ = write!(out, "{{\"t\":{},\"ev\":\"{}\",\"args\":", r.t, event_meta(&r.kind).0);
    args_json(out, &r.kind);
    out.push('}');
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Hand-serializes a [`RunResult`] (breakdowns, memory statistics, request
/// classification) as one JSON object — the `inspect --json` output.
pub fn run_result_json(r: &RunResult) -> String {
    let mut out = String::with_capacity(1024 + r.streams.len() * 192);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"mode\":\"{}\",\"nodes\":{},\"tasks\":{},\
         \"exec_cycles\":{},\"recoveries\":{},\"host_events\":{},\"streams\":[",
        json_escape(&r.name),
        r.mode,
        r.nodes,
        r.tasks,
        r.exec_cycles,
        r.recoveries,
        r.host_events
    );
    for (i, s) in r.streams.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let b = s.breakdown;
        let _ = write!(
            out,
            "{{\"node\":{},\"core\":{},\"role\":\"{}\",\"task\":{},\"finish\":{},\
             \"breakdown\":{{\"busy\":{},\"mem_stall\":{},\"barrier\":{},\"lock\":{},\
             \"ar_sync\":{},\"total\":{}}}}}",
            s.cpu.node().0,
            s.cpu.core(),
            role_str(s.role),
            s.task.0,
            s.finish,
            b.busy,
            b.mem_stall,
            b.barrier,
            b.lock,
            b.ar_sync,
            b.total()
        );
    }
    out.push_str("],\"mem\":{");
    let m = &r.mem;
    let _ = write!(
        out,
        "\"l1_hits\":{},\"l2_hits\":{},\"l2_misses\":{},\"merged_misses\":{},\
         \"data_accesses\":{},\"local_txns\":{},\"remote_txns\":{},\"read_txns\":{},\
         \"excl_txns\":{},\"excl_prefetches\":{},\"a_read_txns\":{},\
         \"transparent_issued\":{},\"transparent_replies\":{},\"upgraded_replies\":{},\
         \"si_hints\":{},\"si_invalidations\":{},\"si_downgrades\":{},\"writebacks\":{},\
         \"invalidations_sent\":{},\"interventions\":{},\"migratory_grants\":{},\
         \"intervention_nacks\":{},\"net_messages\":{}",
        m.l1_hits,
        m.l2_hits,
        m.l2_misses,
        m.merged_misses,
        m.data_accesses(),
        m.local_txns,
        m.remote_txns,
        m.read_txns,
        m.excl_txns,
        m.excl_prefetches,
        m.a_read_txns,
        m.transparent_issued,
        m.transparent_replies,
        m.upgraded_replies,
        m.si_hints,
        m.si_invalidations,
        m.si_downgrades,
        m.writebacks,
        m.invalidations_sent,
        m.interventions,
        m.migratory_grants,
        m.intervention_nacks,
        m.net_messages
    );
    let class = |out: &mut String, c: &slipstream_mem::ClassCounts| {
        let _ = write!(
            out,
            "{{\"a_timely\":{},\"a_late\":{},\"a_only\":{},\
             \"r_timely\":{},\"r_late\":{},\"r_only\":{}}}",
            c.a_timely, c.a_late, c.a_only, c.r_timely, c.r_late, c.r_only
        );
    };
    out.push_str(",\"class\":{\"reads\":");
    class(&mut out, &m.class.reads);
    out.push_str(",\"excl\":");
    class(&mut out, &m.class.excl);
    out.push('}');
    // Contention-server occupancy, summed over nodes; utilization is
    // against exec_cycles * nodes (one server instance per node).
    out.push_str(",\"contention\":{");
    let total = r.exec_cycles.saturating_mul(r.nodes as u64);
    for (i, (name, u)) in m.contention.named().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"busy_cycles\":{},\"jobs\":{},\"wait_cycles\":{},\
             \"utilization\":{:.4}}}",
            u.busy_cycles,
            u.jobs,
            u.wait_cycles,
            u.utilization(total)
        );
    }
    out.push_str("}}}");
    out
}

#[cfg(test)]
mod tests {
    use slipstream_kernel::CpuId;

    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled());
        assert!(TraceConfig { events: true, ..cfg }.enabled());
        assert!(TraceConfig { interval: 100, ..cfg }.enabled());
        assert!(TraceConfig { hotlines: true, ..cfg }.enabled());
        assert!(TraceConfig::full(1000).enabled());
    }

    #[test]
    fn buffer_caps_events_and_counts_drops() {
        let cfg = TraceConfig { events: true, max_events: 2, ..TraceConfig::default() };
        let mut buf = TraceBuffer::new(&cfg);
        for i in 0..5u64 {
            let wb = MemObs::Writeback { line: LineAddr(i), from: NodeId(0) };
            buf.push(Cycle(i), TraceKind::Mem(wb));
        }
        assert_eq!(buf.records.len(), 2);
        assert_eq!(buf.dropped, 3);
    }

    #[test]
    fn buffer_ignores_events_when_off() {
        let cfg = TraceConfig { hotlines: true, ..TraceConfig::default() };
        let mut buf = TraceBuffer::new(&cfg);
        let wb = MemObs::Writeback { line: LineAddr(1), from: NodeId(0) };
        buf.push(Cycle(1), TraceKind::Mem(wb));
        assert!(buf.records.is_empty());
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn recorder_counts_accesses_and_profiles_lines() {
        let cfg = TraceConfig { events: true, hotlines: true, ..TraceConfig::default() };
        let buf = Rc::new(RefCell::new(TraceBuffer::new(&cfg)));
        let mut rec = Recorder::new(buf.clone());
        let access = |role, outcome| MemObs::Access {
            cpu: CpuId::new(NodeId(1), 0),
            role,
            kind: AccessKind::Read,
            line: LineAddr(7),
            outcome,
        };
        rec.on(Cycle(5), &access(StreamRole::R, AccessOutcome::L1Hit));
        rec.on(Cycle(6), &access(StreamRole::R, AccessOutcome::MissNew));
        rec.on(Cycle(7), &access(StreamRole::A, AccessOutcome::MissMerged));
        let (line, owner, requester) = (LineAddr(7), NodeId(0), NodeId(1));
        rec.on(Cycle(8), &MemObs::Intervention { line, owner, requester, excl: true });
        // Cache-side bookkeeping is never recorded.
        rec.on(Cycle(9), &MemObs::MshrFree { node: requester, line });
        let b = buf.borrow();
        assert_eq!(b.counts.l1_hits, 1);
        assert_eq!(b.counts.miss_new, 1);
        assert_eq!(b.counts.miss_merged, 1);
        assert_eq!(b.counts.data_accesses(), 3);
        // Only the two misses and the intervention become event records.
        assert_eq!(b.records.len(), 3);
        let h = b.hot[&7];
        assert_eq!(h.misses, 2);
        assert_eq!(h.interventions, 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn hot_lines_sort_deterministically() {
        let data = TraceData::assemble(
            TraceConfig::default(),
            {
                let cfg = TraceConfig { hotlines: true, ..TraceConfig::default() };
                let mut buf = TraceBuffer::new(&cfg);
                buf.hot.insert(10, LineCounters { misses: 1, ..Default::default() });
                buf.hot.insert(3, LineCounters { misses: 5, ..Default::default() });
                buf.hot.insert(7, LineCounters { misses: 1, ..Default::default() });
                buf
            },
            Vec::new(),
            0,
            0,
            0,
        );
        let lines: Vec<u64> = data.hot.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![3, 7, 10]); // busiest first, then by address
        let report = data.hotline_report(2);
        assert!(report.contains("top 2 of 3"));
    }

    #[test]
    fn exporters_emit_parseable_shapes() {
        let cfg = TraceConfig::full(100);
        let mut buf = TraceBuffer::new(&cfg);
        buf.push(
            Cycle(1),
            TraceKind::Mem(MemObs::Access {
                cpu: CpuId::new(NodeId(0), 1),
                role: StreamRole::A,
                kind: AccessKind::TransparentRead,
                line: LineAddr(42),
                outcome: AccessOutcome::MissMerged,
            }),
        );
        buf.push(
            Cycle(2),
            TraceKind::Mem(MemObs::DirTransition {
                line: LineAddr(42),
                from: TracePerm::Uncached,
                to: TracePerm::Excl { owner: NodeId(1) },
                requester: NodeId(1),
            }),
        );
        buf.push(
            Cycle(3),
            TraceKind::Mem(MemObs::Sync {
                cpu: CpuId::new(NodeId(0), 0),
                op: SyncOp::BarrierArrive(BarrierId(2)),
                granted: 4,
            }),
        );
        let sample = IntervalSample {
            cycle: 100,
            stats: MemStats { l2_misses: 9, ..Default::default() },
            run_ahead: vec![2, -1],
            tokens: vec![1, 0],
            queue_len: 5,
            host_events: 123,
            recoveries: 0,
        };
        let data = TraceData::assemble(cfg, buf, vec![sample], 1000, 32, 5000);

        let jsonl = data.events_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"ev\":\"miss\""));
        assert!(jsonl.contains("\"kind\":\"trans_read\""));
        assert!(jsonl.contains("\"merged\":true"));
        assert!(jsonl.contains("\"ev\":\"barrier_arrive\""));
        assert!(jsonl.contains("\"granted\":4"));

        let chrome = data.chrome_trace_json();
        assert!(chrome.starts_with('{') && chrome.trim_end().ends_with('}'));
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"M\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("\"pair0\":2"));
        // Balanced braces is a cheap proxy for well-formedness (no strings
        // in the output contain braces).
        let opens = chrome.matches('{').count();
        let closes = chrome.matches('}').count();
        assert_eq!(opens, closes);

        let metrics = data.metrics_jsonl();
        assert_eq!(metrics.lines().count(), 1);
        assert!(metrics.contains("\"l2_misses\":9"));
        assert!(metrics.contains("\"run_ahead\":[2,-1]"));
    }

    #[test]
    fn metrics_deltas_subtract_previous_sample() {
        let cfg = TraceConfig { interval: 10, ..TraceConfig::default() };
        let mk = |cycle, misses| IntervalSample {
            cycle,
            stats: MemStats { l2_misses: misses, ..Default::default() },
            run_ahead: vec![],
            tokens: vec![],
            queue_len: 0,
            host_events: 0,
            recoveries: 0,
        };
        let data = TraceData::assemble(
            cfg,
            TraceBuffer::new(&cfg),
            vec![mk(10, 4), mk(20, 10)],
            0,
            0,
            20,
        );
        let metrics = data.metrics_jsonl();
        let lines: Vec<&str> = metrics.lines().collect();
        assert!(lines[0].contains("\"l2_misses\":4"));
        assert!(lines[1].contains("\"l2_misses\":6")); // 10 - 4
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
