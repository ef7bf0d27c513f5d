//! Accounting invariants and trace-determinism checks.
//!
//! 1. Every stream's time breakdown accounts for its finish time
//!    *exactly*: `breakdown.total() == finish` — including A-streams that
//!    were killed and reforked (the machine's `frontier` bookkeeping).
//! 2. `exec_cycles` is the max finish over non-A streams.
//! 3. A traced run returns a bit-identical [`RunResult`] to an untraced
//!    run — tracing is observation only.
//! 4. The tracer's independently-collected access counters agree with the
//!    memory system's own statistics.

use slipstream_core::{
    run, run_traced, ArSyncMode, ExecMode, RunSpec, SlipstreamConfig, StreamRole, TaskBuilderFn,
    TraceConfig, Workload,
};
use slipstream_kernel::Addr;
use slipstream_prog::{BarrierId, Layout, LockId, Op, ProgBuilder};

/// A producer-consumer shift kernel with optional divergence (to force
/// recoveries) and lock traffic — enough behaviours to exercise every
/// accounting path.
struct Kernel {
    iters: u64,
    lines_per_task: u64,
    diverge: u32,
    use_lock: bool,
    use_input: bool,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel { iters: 5, lines_per_task: 64, diverge: 0, use_lock: false, use_input: false }
    }
}

impl Workload for Kernel {
    fn name(&self) -> &str {
        "accounting-kernel"
    }

    fn instantiate(&self, ntasks: usize, layout: &mut Layout) -> TaskBuilderFn {
        let total = self.lines_per_task * ntasks as u64;
        let buf0 = layout.shared("buf0", total * 64);
        let buf1 = layout.shared("buf1", total * 64);
        let iters = self.iters;
        let lpt = self.lines_per_task;
        let diverge = self.diverge;
        let use_lock = self.use_lock;
        let use_input = self.use_input;
        Box::new(move |_layout, _inst, task| {
            let my_first = task as u64 * lpt;
            let next_first = ((task + 1) % ntasks) as u64 * lpt;
            let bases = [buf0.base().0, buf1.base().0];
            let mut b = ProgBuilder::new();
            if use_input {
                b.op(Op::Input);
            }
            b.for_n(iters, move |b| {
                if diverge > 0 {
                    b.op(Op::DivergeInA(diverge));
                }
                b.block(move |ctx, out| {
                    let dst = bases[((ctx.i(0) + 1) % 2) as usize];
                    for l in 0..lpt {
                        out.push(Op::store_shared(Addr(dst + (my_first + l) * 64)));
                        out.push(Op::Compute(3));
                    }
                });
                if use_lock {
                    b.lock(LockId(0));
                    b.load_shared(Addr(bases[0]));
                    b.store_shared(Addr(bases[0]));
                    b.unlock(LockId(0));
                }
                b.block(move |ctx, out| {
                    let src = bases[(ctx.i(0) % 2) as usize];
                    for l in 0..lpt {
                        out.push(Op::load_shared(Addr(src + (next_first + l) * 64)));
                        out.push(Op::Compute(3));
                    }
                });
                b.barrier(BarrierId(0));
            });
            b.build("accounting-task")
        })
    }
}

/// Asserts the strict invariant on every stream of a result.
fn assert_exact_accounting(r: &slipstream_core::RunResult, ctx: &str) {
    for s in &r.streams {
        assert_eq!(
            s.breakdown.total(),
            s.finish,
            "{ctx}: breakdown must equal finish for {:?} on {} (breakdown: {})",
            s.role,
            s.cpu,
            s.breakdown
        );
    }
    let max_finish = r
        .streams
        .iter()
        .filter(|s| s.role != StreamRole::A)
        .map(|s| s.finish)
        .max()
        .unwrap_or(0);
    assert_eq!(r.exec_cycles, max_finish, "{ctx}: exec_cycles is the last non-A finish");
}

#[test]
fn breakdown_equals_finish_in_every_mode() {
    let w = Kernel::default();
    for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
        let r = run(&w, &RunSpec::new(2, mode));
        assert_eq!(r.recoveries, 0);
        assert_exact_accounting(&r, &format!("{mode}"));
    }
}

#[test]
fn breakdown_equals_finish_with_locks_and_inputs() {
    let w = Kernel { use_lock: true, use_input: true, ..Kernel::default() };
    for ar in ArSyncMode::ALL {
        let spec =
            RunSpec::new(2, ExecMode::Slipstream).with_slip(SlipstreamConfig::prefetch_only(ar));
        let r = run(&w, &spec);
        assert_exact_accounting(&r, &format!("locks+inputs {ar}"));
    }
}

#[test]
fn breakdown_equals_finish_through_recoveries() {
    // The deviating A-stream is killed and reforked repeatedly; the kill
    // discards pre-accounted busy work and inserts a refork gap, both of
    // which the accounting must absorb exactly.
    let w = Kernel { diverge: 2_000_000, ..Kernel::default() };
    let r = run(&w, &RunSpec::new(2, ExecMode::Slipstream));
    assert!(r.recoveries > 0, "kernel must deviate for this test to bite");
    assert_exact_accounting(&r, "recovery");
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let w = Kernel::default();
    let specs = [
        RunSpec::new(2, ExecMode::Slipstream),
        RunSpec::new(2, ExecMode::Slipstream)
            .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal)),
        RunSpec::new(2, ExecMode::Double),
    ];
    for spec in specs {
        let untraced = run(&w, &spec);
        let (traced, data) = run_traced(&w, &spec.clone().with_trace(TraceConfig::full(5_000)));
        assert_eq!(untraced, traced, "tracing must not perturb the simulation ({})", spec.mode);
        let data = data.expect("trace enabled");
        assert!(!data.records.is_empty(), "a traced run produces events");
        assert_eq!(data.end_cycle, traced.exec_cycles);
    }
    // Recovery path too: machine-level records must not perturb either.
    let dev = Kernel { diverge: 2_000_000, ..Kernel::default() };
    let spec = RunSpec::new(2, ExecMode::Slipstream);
    let untraced = run(&dev, &spec);
    let (traced, _) = run_traced(&dev, &spec.clone().with_trace(TraceConfig::full(5_000)));
    assert!(traced.recoveries > 0);
    assert_eq!(untraced, traced, "tracing must not perturb recoveries");
}

#[test]
fn tracer_counts_agree_with_mem_stats() {
    let w = Kernel::default();
    let spec = RunSpec::new(4, ExecMode::Slipstream)
        .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal))
        .with_trace(TraceConfig::full(10_000));
    let (r, data) = run_traced(&w, &spec);
    let c = data.expect("trace enabled").counts;
    // The tracer counts `Access` observations; the memory system counts in
    // its own bookkeeping. They must tell the same story.
    assert_eq!(c.l1_hits, r.mem.l1_hits);
    assert_eq!(c.l2_hits, r.mem.l2_hits);
    assert_eq!(c.miss_new + c.miss_merged, r.mem.l2_misses);
    assert_eq!(c.miss_merged, r.mem.merged_misses);
    assert_eq!(c.prefetch_issued, r.mem.excl_prefetches);
    // And the headline identity: every access is exactly one of hit/miss.
    assert_eq!(c.data_accesses(), r.mem.data_accesses());
}

#[test]
fn interval_samples_cover_the_run() {
    let w = Kernel::default();
    let interval = 5_000u64;
    let spec = RunSpec::new(2, ExecMode::Slipstream)
        .with_trace(TraceConfig { interval, ..TraceConfig::default() });
    let (r, data) = run_traced(&w, &spec);
    let data = data.expect("trace enabled");
    assert!(!data.samples.is_empty());
    // Samples are strictly increasing in time and cumulative counters are
    // monotone; the final sample is the end-of-run snapshot.
    for pair in data.samples.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle);
        assert!(pair[0].stats.l2_misses <= pair[1].stats.l2_misses);
        assert!(pair[0].host_events <= pair[1].host_events);
    }
    let last = data.samples.last().expect("nonempty");
    assert_eq!(last.cycle, r.exec_cycles);
    assert_eq!(last.stats, r.mem);
}
