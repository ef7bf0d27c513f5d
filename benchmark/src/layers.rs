//! The benchmark's only door into the simulator.
//!
//! Every library call the benchmark makes is in this file, each wrapped
//! in a span named after the layer it enters, and each guarded so that a
//! panic becomes a failed operation instead of a crashed run. Only
//! stable entry points are used: workload instantiation and op counting,
//! `run` / `run_traced` / `run_checked`, the static verifier, analyzer
//! and cross-validation, the generated corpus, and the bare memory
//! system, event queue and sharer set for the microbenchmarks. Knobs that
//! are expected to change or disappear (intra-run threads, epoch windows,
//! the fast-path switch, host profiles, custom tracers) are never
//! touched, so when an entry point's signature changes, fixing the
//! benchmark means editing this file alone.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use slipstream::check::{self, AnalysisConfig, PatternContract, Severity, TaskSet};
use slipstream::core::{
    run_result_json, ArSyncMode, ExecMode, MachineConfig, RunResult, RunSpec, SlipstreamConfig,
    TaskBuilderFn, TraceConfig, Workload,
};
use slipstream::gen::GenWorkload;
use slipstream::kernel::{Addr, CpuId, Cycle, EventQueue, NodeId, SharerSet};
use slipstream::mem::{AccessKind, Completion, HomeMap, MemEvent, MemSystem, StreamRole};
use slipstream::prog::{Layout, ProgBuilder};

use crate::spans::Tracer;

/// Interval of the metric snapshots in an observed run.
const TRACE_INTERVAL: u64 = 10_000;

/// Master seed and size of the committed fuzz corpus.
pub use slipstream::gen::corpus::{CORPUS_COUNT, CORPUS_SEED};

/// Execution mode of one simulated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One task per CMP.
    Single,
    /// Two tasks per CMP.
    Double,
    /// Prefetch-only slipstream under A-R method `ArSyncMode::ALL[i]`.
    Slip(usize),
    /// Slipstream with transparent loads and self-invalidation (one-token
    /// global A-R sync).
    SlipSi,
}

impl Mode {
    /// Number of A-R synchronization methods.
    pub const AR_METHODS: usize = ArSyncMode::ALL.len();

    /// Prefetch-only slipstream under the default A-R method (one-token
    /// global), the `slipstream` mode of the quick matrix and the fuzz loop.
    pub fn slip_default() -> Mode {
        let i = ArSyncMode::ALL
            .iter()
            .position(|&a| a == ArSyncMode::OneTokenGlobal);
        Mode::Slip(i.expect("one-token global is an A-R method"))
    }

    /// Short label used in cell names, e.g. `slip-G0`.
    pub fn label(self) -> String {
        match self {
            Mode::Single => "single".into(),
            Mode::Double => "double".into(),
            Mode::Slip(i) => format!("slip-{}", ArSyncMode::ALL[i].label()),
            Mode::SlipSi => "slip+si".into(),
        }
    }

    fn spec(self, nodes: u16) -> RunSpec {
        match self {
            Mode::Single => RunSpec::new(nodes, ExecMode::Single),
            Mode::Double => RunSpec::new(nodes, ExecMode::Double),
            Mode::Slip(i) => RunSpec::new(nodes, ExecMode::Slipstream)
                .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::ALL[i])),
            Mode::SlipSi => RunSpec::new(nodes, ExecMode::Slipstream).with_slip(
                SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal),
            ),
        }
    }

    /// Task count and whether the tasks run as R/A pairs: cells that agree
    /// on both run the same programs.
    pub fn tasks(self, nodes: u16) -> (usize, bool) {
        match self {
            Mode::Single => (nodes as usize, false),
            Mode::Double => (2 * nodes as usize, false),
            Mode::Slip(_) | Mode::SlipSi => (nodes as usize, true),
        }
    }
}

/// A workload the benchmark runs, under the name it reports.
pub struct Subject {
    /// Benchmark or generated-program name.
    pub name: String,
    inner: Inner,
}

enum Inner {
    Suite(Box<dyn Workload>),
    Gen(GenWorkload),
}

impl Subject {
    fn work(&self) -> &dyn Workload {
        match &self.inner {
            Inner::Suite(w) => w.as_ref(),
            Inner::Gen(g) => g,
        }
    }

    fn contract(&self, ntasks: usize) -> Option<PatternContract> {
        match &self.inner {
            Inner::Suite(_) => None,
            Inner::Gen(g) => Some(g.contract(ntasks)),
        }
    }

    /// The machine the runner builds for this workload.
    fn machine(&self, nodes: u16) -> MachineConfig {
        if self.work().small_l2() {
            MachineConfig::water(nodes)
        } else {
            MachineConfig::with_nodes(nodes)
        }
    }
}

fn suite(ws: Vec<Box<dyn Workload>>) -> Vec<Subject> {
    ws.into_iter()
        .map(|w| Subject {
            name: w.name().to_string(),
            inner: Inner::Suite(w),
        })
        .collect()
}

/// The nine benchmarks at the paper's sizes.
pub fn paper_suite() -> Vec<Subject> {
    suite(slipstream::workloads::paper_suite())
}

/// The nine benchmarks at reduced sizes.
pub fn quick_suite() -> Vec<Subject> {
    suite(slipstream::workloads::quick_suite())
}

/// SOR weak-scaled to `nodes` (4 grid rows per node).
pub fn sor_scaled(nodes: u16) -> Subject {
    let w = slipstream::workloads::Sor::scaled(nodes);
    Subject {
        name: format!("SOR{}", w.n),
        inner: Inner::Suite(Box::new(w)),
    }
}

/// The first `count` generated programs under master seed `seed`
/// (`gen.build`).
pub fn corpus(t: &mut Tracer, seed: u64, count: usize) -> Vec<Subject> {
    t.span("gen.build", |_| {
        slipstream::gen::corpus::corpus(seed, count)
            .into_iter()
            .map(|g| Subject {
                name: g.name().to_string(),
                inner: Inner::Gen(g),
            })
            .collect()
    })
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("panic: {msg}")
    })
}

/// Exact counters of one or more runs, summed from their results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated runs.
    pub runs: u64,
    /// Simulated execution cycles.
    pub exec_cycles: u64,
    /// A-stream recoveries.
    pub recoveries: u64,
    /// Discrete events the simulator processed (host-side accounting).
    pub events: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Directory transactions, local and remote.
    pub dir_txns: u64,
    /// Invalidation messages sent by directories.
    pub invalidations: u64,
    /// Three-hop interventions.
    pub interventions: u64,
    /// Network messages injected.
    pub net_messages: u64,
    /// Lines invalidated by self-invalidation.
    pub si_invalidations: u64,
    /// Directory-controller busy cycles, summed over nodes.
    pub dir_ctl_busy: u64,
    /// Memory-bank busy cycles, summed over nodes.
    pub mem_bank_busy: u64,
    /// Execution cycles times nodes: the capacity the busy cycles use.
    pub node_cycles: u64,
}

impl Counts {
    fn of(r: &RunResult) -> Counts {
        let m = &r.mem;
        Counts {
            runs: 1,
            exec_cycles: r.exec_cycles,
            recoveries: r.recoveries,
            events: r.host_events,
            l1_hits: m.l1_hits,
            l2_hits: m.l2_hits,
            l2_misses: m.l2_misses,
            dir_txns: m.local_txns + m.remote_txns,
            invalidations: m.invalidations_sent,
            interventions: m.interventions,
            net_messages: m.net_messages,
            si_invalidations: m.si_invalidations,
            dir_ctl_busy: m.contention.dir_ctl.busy_cycles,
            mem_bank_busy: m.contention.mem_bank.busy_cycles,
            node_cycles: r.exec_cycles * u64::from(r.nodes),
        }
    }

    /// Adds `o` field by field.
    pub fn add(&mut self, o: &Counts) {
        self.runs += o.runs;
        self.exec_cycles += o.exec_cycles;
        self.recoveries += o.recoveries;
        self.events += o.events;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.dir_txns += o.dir_txns;
        self.invalidations += o.invalidations;
        self.interventions += o.interventions;
        self.net_messages += o.net_messages;
        self.si_invalidations += o.si_invalidations;
        self.dir_ctl_busy += o.dir_ctl_busy;
        self.mem_bank_busy += o.mem_bank_busy;
        self.node_cycles += o.node_cycles;
    }
}

/// What the benchmark keeps of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// FNV-64 of the run's JSON with `host_events` zeroed: that counter is
    /// host-side accounting, so a change that removes events keeps its
    /// digests.
    pub digest: u64,
    /// The run's counters.
    pub counts: Counts,
}

fn outcome(t: &mut Tracer, r: &RunResult) -> Outcome {
    t.span("bench.digest", |_| {
        let mut sim = r.clone();
        sim.host_events = 0;
        Outcome {
            cycles: r.exec_cycles,
            digest: fnv64(run_result_json(&sim).as_bytes()),
            counts: Counts::of(r),
        }
    })
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Simulates `w` with observation off (`core.run`).
pub fn run(t: &mut Tracer, w: &Subject, nodes: u16, mode: Mode) -> Result<Outcome, String> {
    let spec = mode.spec(nodes);
    let r = t.span("core.run", |_| {
        guarded(|| slipstream::core::run(w.work(), &spec))
    })?;
    Ok(outcome(t, &r))
}

/// Simulates `w` with full event tracing (`observe.trace`), then exports
/// the trace as JSONL and as a Chrome trace (`observe.export`). Returns
/// the outcome and the number of trace records.
pub fn run_traced(
    t: &mut Tracer,
    w: &Subject,
    nodes: u16,
    mode: Mode,
) -> Result<(Outcome, u64), String> {
    let spec = mode
        .spec(nodes)
        .with_trace(TraceConfig::full(TRACE_INTERVAL));
    let (r, data) = t.span("observe.trace", |_| {
        guarded(|| slipstream::core::run_traced(w.work(), &spec))
    })?;
    let data = data.ok_or("traced run returned no trace")?;
    let records = data.records.len() as u64;
    // The trace is dropped inside the span: freeing it is export cost.
    t.span("observe.export", |_| {
        guarded(move || black_box(data.events_jsonl().len() + data.chrome_trace_json().len()))
    })?;
    Ok((outcome(t, &r), records))
}

/// Simulates `w` under the coherence-protocol checker (`observe.check`);
/// a violation is an error.
pub fn run_checked(t: &mut Tracer, w: &Subject, nodes: u16, mode: Mode) -> Result<Outcome, String> {
    let spec = mode.spec(nodes);
    let (r, report) = t.span("observe.check", |_| {
        guarded(|| check::run_checked(w.work(), &spec))
    })?;
    if !report.ok() {
        return Err(format!("protocol checker: {}", report.summary()));
    }
    Ok(outcome(t, &r))
}

/// The task programs a run of `w` would execute, built the runner's way.
pub struct Programs(TaskSet);

/// Builds the task programs of `w` for `mode` at `nodes` (`prog.build`).
pub fn build(t: &mut Tracer, w: &Subject, nodes: u16, mode: Mode) -> Result<Programs, String> {
    let (ntasks, slip) = mode.tasks(nodes);
    let page = w.machine(nodes).page_bytes;
    t.span("prog.build", |_| {
        guarded(|| Programs(check::instantiate_workload(w.work(), page, ntasks, slip)))
    })
}

/// Dynamic DSL ops of every program, R and A streams alike, counted by
/// draining each program's op iterator (`prog.drain`).
pub fn count_ops(t: &mut Tracer, p: &Programs) -> Result<u64, String> {
    t.span("prog.drain", |_| {
        guarded(|| {
            p.0.r
                .iter()
                .chain(&p.0.a)
                .map(|tp| tp.prog.count_ops())
                .sum()
        })
    })
}

/// Diagnostic counts of one static pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Diags {
    /// `Error` diagnostics.
    pub errors: u64,
    /// `Warning` diagnostics.
    pub warnings: u64,
}

impl Diags {
    /// Adds `o` field by field.
    pub fn add(&mut self, o: Diags) {
        self.errors += o.errors;
        self.warnings += o.warnings;
    }
}

fn diags(ds: &[check::Diagnostic]) -> Diags {
    let n = |s: Severity| ds.iter().filter(|d| d.severity == s).count() as u64;
    Diags {
        errors: n(Severity::Error),
        warnings: n(Severity::Warning),
    }
}

/// Static verification of one task set, plus the generated program's
/// pattern contract (`check.verify`).
pub fn verify(t: &mut Tracer, w: &Subject, p: &Programs) -> Result<Diags, String> {
    let contract = w.contract(p.0.r.len());
    t.span("check.verify", |_| {
        guarded(|| {
            let mut ds = check::verify_task_set(&p.0);
            if let Some(c) = &contract {
                ds.extend(check::verify_contract(&p.0.r, c));
            }
            diags(&ds)
        })
    })
}

/// The static sharing analyzer over a conventional task set
/// (`check.analyze`).
pub fn analyze(t: &mut Tracer, p: &Programs) -> Result<Diags, String> {
    t.span("check.analyze", |_| {
        guarded(|| diags(&check::analyze(&p.0, &AnalysisConfig::default()).diagnostics))
    })
}

/// Cross-validates the analyzer against an instrumented single-mode run
/// at `nodes` (`check.xval`); a failed check is an error.
pub fn cross_validate(t: &mut Tracer, w: &Subject, nodes: u16) -> Result<(), String> {
    let cfg = w.machine(nodes);
    let acfg = AnalysisConfig {
        line_bytes: cfg.l2.line_bytes,
        ..AnalysisConfig::default()
    };
    let report = t.span("check.xval", |_| {
        guarded(|| check::cross_validate_with(&cfg, w.work(), nodes as usize, &acfg))
    })?;
    if report.ok {
        Ok(())
    } else {
        Err(format!(
            "cross-validation: {}",
            report.first_failure().unwrap_or_default()
        ))
    }
}

/// A workload whose every task is a single compute op: running it costs
/// only the fixed per-run work (machine construction, start, finish).
struct OneOp;

impl Workload for OneOp {
    fn name(&self) -> &str {
        "one-op"
    }

    fn instantiate(&self, _ntasks: usize, _layout: &mut Layout) -> TaskBuilderFn {
        Box::new(|_, _, _| {
            let mut b = ProgBuilder::new();
            b.compute(1);
            b.build("one-op")
        })
    }
}

/// Runs the one-op program at `nodes` in `mode`; returns its cycles.
pub fn one_op_run(nodes: u16, mode: Mode) -> Result<u64, String> {
    guarded(|| slipstream::core::run(&OneOp, &mode.spec(nodes)).exec_cycles)
}

/// A bare memory system driven one access at a time, each run to
/// quiescence, as the processor model would.
pub struct MemRig {
    mem: MemSystem,
    q: EventQueue<MemEvent>,
    out: Vec<Completion>,
    now: u64,
}

impl MemRig {
    /// A Table 1 machine of `nodes` CMPs, pages interleaved over nodes.
    pub fn new(nodes: u16) -> MemRig {
        let cfg = MachineConfig::with_nodes(nodes);
        let home = HomeMap::uniform(nodes, cfg.page_bytes);
        MemRig {
            mem: MemSystem::new(&cfg, home, u32::from(nodes)),
            q: EventQueue::new(),
            out: Vec::new(),
            now: 0,
        }
    }

    /// A shared read or write by core 0 of `node`, run to completion.
    pub fn access(&mut self, node: u16, write: bool, addr: u64) {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let cpu = CpuId::new(NodeId(node), 0);
        self.mem.access(
            Cycle(self.now),
            cpu,
            StreamRole::Solo,
            kind,
            Addr(addr),
            true,
            false,
            &mut self.q,
        );
        while let Some((at, ev)) = self.q.pop() {
            self.out.clear();
            self.mem.handle_event(at, ev, &mut self.q, &mut self.out);
            self.now = self.now.max(at.raw());
        }
        self.now += 1;
    }

    /// Network messages so far (a checksum that the work happened).
    pub fn messages(&self) -> u64 {
        self.mem.stats().net_messages
    }
}

/// `n` pop-then-push steps on a queue holding 64 pending events, each
/// new event 1 to 301 cycles after the one popped (the simulator's range
/// of latencies); returns a checksum.
pub fn queue_push_pop(n: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    (0..64).for_each(|i| q.push(Cycle(i), i));
    let mut sum = 0u64;
    for i in 0..n {
        let (at, v) = q.pop().expect("the queue always holds 64 events");
        sum = sum.wrapping_add(v);
        q.push(Cycle(at.raw() + 1 + (i * 37) % 301), i);
    }
    sum
}

/// A directory sharer set holding every one of `nodes` nodes.
pub struct Sharers(SharerSet);

impl Sharers {
    /// All of `0..nodes` inserted.
    pub fn full(nodes: u16) -> Sharers {
        let mut s = SharerSet::new();
        (0..nodes).for_each(|n| s.insert(NodeId(n)));
        Sharers(s)
    }

    /// Iterates the set once; returns the sum of node ids.
    pub fn iter_sum(&self) -> u64 {
        self.0.iter().map(|n| u64::from(n.0)).sum()
    }
}
