//! Layer microbenchmarks and the fixed-cost probe. They run only in the
//! traced run: they explain the end-to-end numbers, they are not one.
//!
//! Modelled on `local_miss_stream_10k` in
//! `crates/bench/benches/simulator.rs`: drive one layer directly, time a
//! fixed amount of work with `Instant`, and report the median over
//! repetitions per unit of work.

use std::hint::black_box;
use std::time::Instant;

use crate::layers::{self, MemRig, Mode, Sharers};
use crate::stats::median;

/// An address homed at node 0 (page 0 of the uniform interleave).
const HOME0: u64 = 0x100;

/// Median over `reps` timed calls of `work` on a fresh `setup()` value,
/// in nanoseconds per unit (`units` per call). Setup is not timed; one
/// untimed call warms up first.
fn ns_per<S>(
    reps: usize,
    units: u64,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(&mut S) -> u64,
) -> f64 {
    black_box(work(&mut setup()));
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut s = setup();
            let t = Instant::now();
            black_box(work(&mut s));
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&xs)
}

/// Every microbenchmark as `(metric, ns)`. `small` cuts repetitions and
/// sizes for smoke runs.
pub fn run_all(small: bool) -> Vec<(&'static str, f64)> {
    let reps = if small { 1 } else { 5 };
    let scale = if small { 1 } else { 10 };

    // Streaming local misses on one node: the simulator's hottest path.
    let reads = 1_000 * scale;
    let local = ns_per(
        reps,
        reads,
        || MemRig::new(1),
        |rig| {
            (0..reads).for_each(|i| rig.access(0, false, 0x1000 + i * 64));
            rig.messages()
        },
    );

    // Writes to 4 lines migrating round-robin over 16 nodes: every write
    // takes ownership from the previous node.
    let rounds = 2 * scale;
    let migratory = ns_per(
        reps,
        rounds * 16 * 4,
        || MemRig::new(16),
        |rig| {
            for _ in 0..rounds {
                for node in 0..16 {
                    (0..4).for_each(|l| rig.access(node, true, HOME0 + l * 64));
                }
            }
            rig.messages()
        },
    );

    // 256 readers share a line, then one writer invalidates them all.
    let fanouts = scale;
    let fanout = ns_per(
        reps,
        fanouts,
        || MemRig::new(256),
        |rig| {
            for _ in 0..fanouts {
                (0..256).for_each(|node| rig.access(node, false, HOME0));
                rig.access(0, true, HOME0);
            }
            rig.messages()
        },
    );

    let steps = 100_000 * scale;
    let queue = ns_per(reps, steps, || (), |_| layers::queue_push_pop(steps));

    let iters = 10_000 * scale;
    let sharers = ns_per(
        reps,
        iters,
        || Sharers::full(256),
        |s| (0..iters).map(|_| black_box(&*s).iter_sum()).sum(),
    );

    vec![
        ("mem.local_read_miss_ns", local),
        ("mem.migratory_write_ns_16", migratory),
        ("mem.read_fanout_inval_ns_256", fanout),
        ("kernel.queue_push_pop_ns", queue),
        ("kernel.sharers_iter_ns_256", sharers),
    ]
}

/// Host seconds of a run whose tasks each execute one op, at `nodes` in
/// `mode`: the cost every run pays before its first op. Median of `reps`.
pub fn fixed_run_s(nodes: u16, mode: Mode, reps: usize) -> Result<f64, String> {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(layers::one_op_run(nodes, mode)?);
        xs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&xs))
}
