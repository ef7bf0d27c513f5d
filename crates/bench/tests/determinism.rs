//! Determinism guarantees the whole reproduction rests on: repeated runs
//! of the same spec are bit-identical, and the parallel experiment
//! executor returns the same results regardless of `--jobs`. These tests
//! pin the guarantees down over the full quick suite so hot-path changes
//! (hashers, queue layout, clone elimination) can't silently break them.

use slipstream_bench::Plan;
use slipstream_core::{run, ArSyncMode, ExecMode, RunSpec, SlipstreamConfig};
use slipstream_workloads::quick_suite;

/// Running the same (workload, spec) twice in-process yields identical
/// cycle counts and memory-system statistics, in every execution mode.
#[test]
fn repeated_runs_are_bit_identical_in_every_mode() {
    let suite = quick_suite();
    for w in &suite {
        for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
            let spec = RunSpec::new(2, mode);
            let a = run(w.as_ref(), &spec);
            let b = run(w.as_ref(), &spec);
            assert_eq!(a.exec_cycles, b.exec_cycles, "{} {mode:?}", w.name());
            assert_eq!(a.mem, b.mem, "{} {mode:?}", w.name());
            assert_eq!(a.recoveries, b.recoveries, "{} {mode:?}", w.name());
            assert_eq!(a.host_events, b.host_events, "{} {mode:?}", w.name());
        }
    }
}

/// The parallel executor is a pure scheduling layer: results at
/// `--jobs 4` match `--jobs 1` cell-for-cell over the quick suite in all
/// three modes.
#[test]
fn executor_results_are_independent_of_jobs() {
    let suite = quick_suite();
    let mut serial_plan = Plan::new();
    let mut parallel_plan = Plan::new();
    for plan in [&mut serial_plan, &mut parallel_plan] {
        for w in &suite {
            for mode in [ExecMode::Single, ExecMode::Double, ExecMode::Slipstream] {
                plan.add(w.as_ref(), RunSpec::new(2, mode));
            }
            plan.add(
                w.as_ref(),
                RunSpec::new(2, ExecMode::Slipstream).with_slip(
                    SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal),
                ),
            );
        }
    }
    let serial = serial_plan.execute(1, false).expect("unchecked runs are never rejected");
    let parallel = parallel_plan.execute(4, false).expect("unchecked runs are never rejected");
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.exec_cycles, b.exec_cycles, "cell {i}");
        assert_eq!(a.mem, b.mem, "cell {i}");
        assert_eq!(a.recoveries, b.recoveries, "cell {i}");
    }
}

/// The batched fast path is a pure scheduling shortcut: for every quick
/// workload, in every execution mode and every A-R synchronization mode
/// (with and without self-invalidation), the full [`RunResult`] — cycles,
/// memory statistics, per-stream time breakdowns, recoveries, and even the
/// `host_events` observability counter — is bit-identical to the
/// queue-round-trip path.
#[test]
fn fastpath_matches_queue_path_bit_for_bit() {
    let suite = quick_suite();
    let mut specs = vec![
        RunSpec::new(4, ExecMode::Single),
        RunSpec::new(4, ExecMode::Double),
    ];
    for ar in ArSyncMode::ALL {
        specs.push(RunSpec::new(4, ExecMode::Slipstream).with_slip(SlipstreamConfig::prefetch_only(ar)));
        specs.push(
            RunSpec::new(4, ExecMode::Slipstream)
                .with_slip(SlipstreamConfig::with_self_invalidation(ar)),
        );
    }
    for w in &suite {
        for spec in &specs {
            let fast = run(w.as_ref(), &spec.clone().with_fastpath(true));
            let slow = run(w.as_ref(), &spec.clone().with_fastpath(false));
            assert_eq!(
                fast,
                slow,
                "{} {:?} slip={:?} diverged between fast path and queue path",
                w.name(),
                spec.mode,
                spec.slip
            );
        }
    }
}

/// Tracing observes the fast path without perturbing it: with full
/// collection enabled, the event records, access counters, hot-line
/// rankings, and interval samples are identical whether streams resume
/// inline or through the queue. Only the queue's own lifetime counters
/// (`queue_total_pushed`, `queue_high_water`) may differ, since the fast
/// path exists precisely to elide queue traffic.
#[test]
fn fastpath_traces_identical_event_streams() {
    use slipstream_core::{run_traced, TraceConfig};
    let suite = quick_suite();
    for w in suite.iter().take(3) {
        for mode in [ExecMode::Single, ExecMode::Slipstream] {
            let base = RunSpec::new(2, mode).with_trace(TraceConfig::full(10_000));
            let (fast_r, fast_t) = run_traced(w.as_ref(), &base.clone().with_fastpath(true));
            let (slow_r, slow_t) = run_traced(w.as_ref(), &base.clone().with_fastpath(false));
            assert_eq!(fast_r, slow_r, "{} {mode:?} RunResult", w.name());
            let (fast_t, slow_t) = (fast_t.expect("traced"), slow_t.expect("traced"));
            assert_eq!(fast_t.records, slow_t.records, "{} {mode:?} records", w.name());
            assert_eq!(fast_t.counts, slow_t.counts, "{} {mode:?} counts", w.name());
            assert_eq!(fast_t.hot, slow_t.hot, "{} {mode:?} hot lines", w.name());
            assert_eq!(fast_t.samples, slow_t.samples, "{} {mode:?} samples", w.name());
            assert_eq!(fast_t.dropped, slow_t.dropped, "{} {mode:?} dropped", w.name());
            assert_eq!(fast_t.end_cycle, slow_t.end_cycle, "{} {mode:?} end", w.name());
            assert!(
                fast_t.queue_total_pushed <= slow_t.queue_total_pushed,
                "{} {mode:?}: fast path must not add queue traffic",
                w.name()
            );
        }
    }
}
