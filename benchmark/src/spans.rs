//! Spans recorded by the benchmark around each call into a simulator
//! layer, kept in memory and written out when the run ends.
//!
//! Every span is timed whether or not recording is on: the per-name
//! totals feed the end-to-end metrics (`ops_per_s` divides by the time
//! spent in `core.run`). Recording only decides whether the individual
//! spans are kept for `spans.jsonl` and `layers.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The cell (request) this span worked for; 0 outside any cell.
    pub cell: u32,
    /// Layer name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Inclusive time and call count per span name.
pub type Totals = BTreeMap<&'static str, (u64, u64)>;

/// Times nested calls; optionally records them as [`Span`]s.
pub struct Tracer {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
    next_cell: u32,
    totals: Totals,
}

impl Tracer {
    /// A tracer that keeps spans iff `record`.
    pub fn new(record: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            next_cell: 0,
            totals: Totals::new(),
        }
    }

    /// Turns span recording on or off (timing totals are always kept).
    pub fn set_record(&mut self, record: bool) {
        self.record = record;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start_ns = self.now_ns();
        let slot = self.record.then(|| {
            let parent = self.open.last().map(|&i| self.spans[i].id);
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent,
                cell: self.cell,
                name,
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = slot {
            self.spans[i].end_ns = end_ns;
            self.open.pop();
        }
        let t = self.totals.entry(name).or_default();
        t.0 += end_ns - start_ns;
        t.1 += 1;
        out
    }

    /// Runs `f` inside a `cell` span with a fresh cell id, which every
    /// span opened inside inherits.
    pub fn cell<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.next_cell += 1;
        let outer = std::mem::replace(&mut self.cell, self.next_cell);
        let out = self.span("cell", f);
        self.cell = outer;
        out
    }

    /// Nanoseconds spent in spans called `name` since the last
    /// [`Tracer::take_totals`].
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Per-name totals since the last call, then resets them.
    pub fn take_totals(&mut self) -> Totals {
        std::mem::take(&mut self.totals)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Seconds of inclusive time under `name` in `totals` (0 when absent).
pub fn total_s(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.0 as f64 * 1e-9)
}

/// Aggregate time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the union of its children's intervals, clipped to the span.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += dur;
        l.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// One JSON object per line, in id order.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.cell, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// `{"layers": {name: {count, total_s, self_s}}}`.
pub fn layers_json(times: &BTreeMap<&'static str, LayerTime>) -> String {
    let rows: Vec<String> = times
        .iter()
        .map(|(name, t)| {
            format!(
                "    \"{name}\": {{\"count\": {}, \"total_s\": {:.9}, \"self_s\": {:.9}}}",
                t.count,
                t.total_ns as f64 * 1e-9,
                t.self_ns as f64 * 1e-9
            )
        })
        .collect();
    format!("{{\n  \"layers\": {{\n{}\n  }}\n}}\n", rows.join(",\n"))
}
