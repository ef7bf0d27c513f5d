//! Pattern program builders.
//!
//! Every builder observes the [`slipstream_core::TaskBuilderFn`] contract:
//! shared addresses and synchronization depend only on the *task* index
//! (and the program seed), never on the instance — so a task's R- and
//! A-stream programs are skeleton-identical (rule SC012) by construction.
//! Only the private scratch region is allocated per instance, inside the
//! builder closure, exactly as the hand-written workloads do.
//!
//! Programs are generated as flat op vectors (they are quick-suite sized),
//! which is what makes seeded mutations simple, position-independent edits.

use slipstream_core::TaskBuilderFn;
use slipstream_kernel::{Addr, SplitMix64};
use slipstream_prog::{
    ArrayRef, BarrierId, EventId, InstanceId, Layout, LockId, Op, ProgBuilder, RegionKind, Space,
};

use crate::mutate::Mutation;
use crate::spec::{Pattern, PatternSpec, LINE};

/// The sync-heavy phase script: `script[p]` is true when phase `p` is a
/// lock phase. Derived from the program seed alone (not the task), so all
/// tasks agree on the phase structure — a precondition for barrier
/// alignment (SC003).
pub(crate) fn phase_script(spec: &PatternSpec, seed: u64) -> Vec<bool> {
    let mut rng = SplitMix64::new(seed ^ 0x5359_4e43_5048_5331);
    (0..spec.sync_phases())
        .map(|_| rng.next_below(100) < spec.lock_mix_pct as u64)
        .collect()
}

/// The globally agreed nested lock pair `(a, b)` with `a < b` used by
/// sync-heavy lock phases. Ascending order program-wide means the
/// acquired-while-holding graph stays acyclic — until the
/// `SwapLockOrder` mutation inverts it for one task.
pub(crate) fn nested_pair(spec: &PatternSpec, seed: u64) -> (u32, u32) {
    let mut rng = SplitMix64::new(seed ^ 0x4e45_5354_5041_4952);
    let a = rng.next_below((spec.locks - 1) as u64) as u32;
    let b = a + 1 + rng.next_below((spec.locks - a - 1) as u64) as u32;
    (a, b)
}

/// Per-task RNG. Seeded from `(seed, task)` only — never the instance —
/// so R- and A-stream programs of one task are identical.
fn task_rng(seed: u64, task: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (task as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Dispatches to the pattern's builder.
pub(crate) fn instantiate(
    spec: PatternSpec,
    seed: u64,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
) -> TaskBuilderFn {
    let builder = match spec.pattern {
        Pattern::ProducerConsumer => producer_consumer(spec, mutation, ntasks, layout),
        Pattern::Migratory => migratory(spec, mutation, ntasks, layout),
        Pattern::FalseSharing => false_sharing(spec, mutation, ntasks, layout),
        Pattern::ReadMostly => read_mostly(spec, seed, mutation, ntasks, layout, false),
        Pattern::SyncHeavy => sync_heavy(spec, seed, mutation, ntasks, layout),
        Pattern::DivergeLaced => read_mostly(spec, seed, mutation, ntasks, layout, true),
    };
    if mutation == Some(Mutation::OverlapRegion) {
        if let Some(base) = layout.regions().first().map(|r| r.base) {
            layout.insert_region_at("gen.overlap", base, LINE, RegionKind::Shared);
        }
    }
    builder
}

/// Allocates the per-instance private scratch and returns its first line.
fn scratch(layout: &mut Layout, inst: InstanceId, private_lines: u32) -> Addr {
    layout
        .private(inst, &format!("gen.scratch{}", inst.0), private_lines as u64 * LINE)
        .base()
}

/// Applies the post-processing mutations and finalizes the op vector into
/// a [`slipstream_prog::Program`]. Generation-time mutations
/// (`SwapLockOrder`, `BreakContract`) are handled inside the builders,
/// `OverlapRegion` in [`instantiate`], and `NarrowDirectory` by the kill
/// check's analyzer configuration.
fn finalize(
    mut ops: Vec<Op>,
    mutation: Option<Mutation>,
    layout: &Layout,
    inst: InstanceId,
    task: usize,
    ntasks: usize,
    name: &str,
) -> slipstream_prog::Program {
    if let Some(m) = mutation {
        apply_mutation(m, &mut ops, layout, inst, task, ntasks);
    }
    let mut b = ProgBuilder::new();
    for op in ops {
        b.op(op);
    }
    b.build(name)
}

/// The first shared region's base: task 0's word of the false-sharing
/// array, or the first line of the read-mostly table.
fn first_shared(layout: &Layout) -> Option<Addr> {
    layout.regions().iter().find(|r| !matches!(r.kind, RegionKind::Private(_))).map(|r| r.base)
}

fn apply_mutation(
    m: Mutation,
    ops: &mut Vec<Op>,
    layout: &Layout,
    inst: InstanceId,
    task: usize,
    ntasks: usize,
) {
    match m {
        Mutation::DropPost if task == 0 => {
            if let Some(i) = ops.iter().rposition(|o| matches!(o, Op::EventPost(_))) {
                ops.remove(i);
            }
        }
        Mutation::DropBarrier if task == 0 => {
            if let Some(i) = ops.iter().rposition(|o| matches!(o, Op::Barrier(_))) {
                ops.remove(i);
            }
        }
        Mutation::DropUnlock if task == 0 => {
            if let Some(i) = ops.iter().rposition(|o| matches!(o, Op::Unlock(_))) {
                ops.remove(i);
            }
        }
        Mutation::StripLock if task == 0 => {
            // Remove the *first* lock-0 critical section's lock/unlock,
            // keeping its accesses. Everything task 0 does afterwards —
            // including releasing the other records' locks — carries the
            // unlocked accesses in its vector clock, so the one schedule
            // the happens-before pass explores stays race-free and only
            // the lockset analysis (SC013) can flag the discipline break.
            if let Some(i) = ops.iter().position(|o| matches!(o, Op::Lock(LockId(0)))) {
                if let Some(j) =
                    ops[i..].iter().position(|o| matches!(o, Op::Unlock(LockId(0))))
                {
                    ops.remove(i + j);
                    ops.remove(i);
                }
            }
        }
        Mutation::StealWrite if ntasks >= 2 && task == ntasks - 1 => {
            // Storing task 0's word before any synchronization races with
            // task 0's round-0 write.
            if let Some(word) = first_shared(layout) {
                ops.insert(0, Op::store_shared(word));
            }
        }
        Mutation::CrossPrivate if ntasks >= 2 && task == ntasks - 1 => {
            // Instances are built in order, so the last task sees the
            // earlier instances' scratch regions in the layout.
            if let Some(r) = layout
                .regions()
                .iter()
                .find(|r| matches!(r.kind, RegionKind::Private(o) if o != inst))
            {
                ops.push(Op::Load { addr: r.base, space: Space::Private });
            }
        }
        Mutation::UnmappedLoad if task == 0 => {
            ops.push(Op::load_shared(Addr(1 << 44)));
        }
        Mutation::ShareFalsely if ntasks >= 2 && task < 8 => {
            // Each task claims its own word of the first shared region's
            // first line before round 0. Words are disjoint per task (the
            // cap of 8 writers keeps them inside one 64-byte line), and
            // round 0's reads don't start until after a barrier, so the
            // program stays properly synchronized — but the line now has
            // multiple writers on distinct words: false sharing, visible
            // only to the analyzer's SP001.
            if let Some(line) = first_shared(layout) {
                ops.insert(0, Op::store_shared(Addr(line.0 + task as u64 * 8)));
            }
        }
        Mutation::HoldLockAtBarrier if task == 0 => {
            if let Some(i) = ops.iter().position(|o| matches!(o, Op::Barrier(_))) {
                ops.insert(i + 1, Op::Unlock(LockId(0)));
                ops.insert(i, Op::Lock(LockId(0)));
            }
        }
        Mutation::DropLock if task == 0 => {
            if let Some(i) = ops.iter().position(|o| matches!(o, Op::Lock(_))) {
                ops.remove(i);
            }
        }
        Mutation::MislabelSpace if task == 0 => {
            if let Some(Op::Store { space, .. }) =
                ops.iter_mut().find(|o| matches!(o, Op::Store { space: Space::Private, .. }))
            {
                *space = Space::Shared;
            }
        }
        Mutation::Relock if task == 0 => {
            if let Some(i) = ops.iter().position(|o| matches!(o, Op::Lock(_))) {
                ops.insert(i, ops[i]);
            }
        }
        Mutation::WriteWhileRead if task == 0 => {
            let first_barrier = ops.iter().position(|o| matches!(o, Op::Barrier(_)));
            if let (Some(i), Some(line)) = (first_barrier, first_shared(layout)) {
                ops.insert(i + 1, Op::store_shared(line));
            }
        }
        Mutation::LockedCounter => {
            // Every access to the line in the final phase holds lock 0, so
            // the program stays race-free.
            if let Some(line) = first_shared(layout) {
                ops.extend([
                    Op::Lock(LockId(0)),
                    Op::load_shared(line),
                    Op::store_shared(line),
                    Op::Unlock(LockId(0)),
                ]);
            }
        }
        Mutation::RereadAfterLast if task + 1 == ntasks => {
            // The table is only written before each round's first barrier,
            // so the final read phase and this one see the same value.
            if let Some(line) = first_shared(layout) {
                ops.push(Op::load_shared(line));
            }
        }
        Mutation::Straggler if task == 0 => {
            if let Some(Op::Compute(n)) = ops.iter_mut().find(|o| matches!(o, Op::Compute(_))) {
                *n += 60_000;
            }
        }
        Mutation::SkewAStream if inst.0 % 2 == 1 => {
            for op in ops.iter_mut() {
                if let Op::Load { addr, space: Space::Shared }
                | Op::Store { addr, space: Space::Shared } = op
                {
                    addr.0 += 8;
                }
            }
        }
        _ => {}
    }
}

/// Neighbour ring hand-off: produce own segment, post, wait for the
/// previous task's post, consume its segment, barrier.
fn producer_consumer(
    spec: PatternSpec,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
) -> TaskBuilderFn {
    let segs: Vec<ArrayRef> = (0..ntasks)
        .map(|t| layout.shared_owned(&format!("gen.pc.seg{t}"), spec.lines as u64 * LINE, t))
        .collect();
    Box::new(move |layout, inst, task| {
        let prev = (task + ntasks - 1) % ntasks;
        let pad = scratch(layout, inst, spec.private_lines);
        let mut ops = Vec::new();
        for _ in 0..spec.rounds {
            ops.push(Op::store_private(pad));
            ops.push(Op::Compute(spec.compute));
            for l in 0..spec.lines as u64 {
                ops.push(Op::store_shared(Addr(segs[task].base().0 + l * LINE)));
            }
            ops.push(Op::EventPost(EventId(task as u32)));
            ops.push(Op::EventWait(EventId(prev as u32)));
            for l in 0..spec.lines as u64 {
                ops.push(Op::load_shared(Addr(segs[prev].base().0 + l * LINE)));
            }
            ops.push(Op::Compute(spec.compute));
            ops.push(Op::Barrier(BarrierId(0)));
        }
        finalize(ops, mutation, layout, inst, task, ntasks, "gen.pc")
    })
}

/// Migratory records: every task read-modify-writes each record under its
/// lock, every round. No barriers — ordering comes from the locks alone.
fn migratory(
    spec: PatternSpec,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
) -> TaskBuilderFn {
    let rec = layout.shared("gen.mig.rec", spec.locks as u64 * LINE);
    Box::new(move |layout, inst, task| {
        let pad = scratch(layout, inst, spec.private_lines);
        let mut ops = Vec::new();
        for _ in 0..spec.rounds {
            ops.push(Op::store_private(pad));
            ops.push(Op::Compute(spec.compute));
            for k in 0..spec.locks {
                let addr = Addr(rec.base().0 + k as u64 * LINE);
                ops.push(Op::Lock(LockId(k)));
                ops.push(Op::load_shared(addr));
                ops.push(Op::store_shared(addr));
                ops.push(Op::Unlock(LockId(k)));
                ops.push(Op::Compute(spec.compute));
            }
        }
        finalize(ops, mutation, layout, inst, task, ntasks, "gen.mig")
    })
}

/// False sharing: task `t` owns word `t % sharers` of line `t / sharers`.
/// Writers never touch each other's words — the only sharing is the line.
fn false_sharing(
    spec: PatternSpec,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
) -> TaskBuilderFn {
    let groups = ntasks.div_ceil(spec.sharers as usize).max(1);
    let arr = layout.shared("gen.fs.arr", groups as u64 * LINE);
    Box::new(move |layout, inst, task| {
        let g = (task / spec.sharers as usize) as u64;
        let w = (task % spec.sharers as usize) as u64;
        let addr = Addr(arr.base().0 + g * LINE + w * 8);
        let pad = scratch(layout, inst, spec.private_lines);
        let mut ops = Vec::new();
        for _ in 0..spec.rounds {
            ops.push(Op::store_private(pad));
            ops.push(Op::store_shared(addr));
            ops.push(Op::Compute(spec.compute));
            ops.push(Op::Barrier(BarrierId(0)));
            for _ in 0..spec.reads_per_round {
                ops.push(Op::load_shared(addr));
            }
            ops.push(Op::Compute(spec.compute));
            ops.push(Op::Barrier(BarrierId(0)));
        }
        finalize(ops, mutation, layout, inst, task, ntasks, "gen.fs")
    })
}

/// Read-mostly table with a rotating writer; optionally laced with
/// `DivergeInA` ops (the diverge-laced pattern).
fn read_mostly(
    spec: PatternSpec,
    seed: u64,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
    laced: bool,
) -> TaskBuilderFn {
    let tbl = layout.shared("gen.rm.tbl", spec.lines as u64 * LINE);
    Box::new(move |layout, inst, task| {
        let pad = scratch(layout, inst, spec.private_lines);
        // Per-task, never per-instance: both streams of a task diverge at
        // the same program points (DivergeInA is a no-op outside A-streams).
        let mut rng = task_rng(seed, task);
        let diverge_allowed = laced && mutation != Some(Mutation::BreakContract);
        let mut ops = Vec::new();
        for r in 0..spec.rounds {
            ops.push(Op::store_private(pad));
            if task == r as usize % ntasks {
                for l in 0..spec.lines as u64 {
                    ops.push(Op::store_shared(Addr(tbl.base().0 + l * LINE)));
                }
            }
            ops.push(Op::Compute(spec.compute));
            ops.push(Op::Barrier(BarrierId(0)));
            let diverge = rng.next_below(100) < 50;
            if diverge_allowed && (diverge || (task == 0 && r == 0)) {
                ops.push(Op::DivergeInA(spec.diverge_cycles));
            }
            for _ in 0..spec.reads_per_round {
                for l in 0..spec.lines as u64 {
                    ops.push(Op::load_shared(Addr(tbl.base().0 + l * LINE)));
                }
            }
            ops.push(Op::Compute(spec.compute));
            ops.push(Op::Barrier(BarrierId(0)));
        }
        let name = if laced { "gen.div" } else { "gen.rm" };
        finalize(ops, mutation, layout, inst, task, ntasks, name)
    })
}

/// A seeded mix of lock phases (one globally-ascending nested section,
/// then one single critical section per counter) and barrier phases.
fn sync_heavy(
    spec: PatternSpec,
    seed: u64,
    mutation: Option<Mutation>,
    ntasks: usize,
    layout: &mut Layout,
) -> TaskBuilderFn {
    let ctr = layout.shared("gen.sync.ctr", spec.locks as u64 * LINE);
    let segs: Vec<ArrayRef> = (0..ntasks)
        .map(|t| layout.shared_owned(&format!("gen.sync.seg{t}"), LINE, t))
        .collect();
    let script = phase_script(&spec, seed);
    let (a, b) = nested_pair(&spec, seed);
    Box::new(move |layout, inst, task| {
        let pad = scratch(layout, inst, spec.private_lines);
        let ctr_at = |k: u32| Addr(ctr.base().0 + k as u64 * LINE);
        let (first, second) = if mutation == Some(Mutation::SwapLockOrder) && task == 0 {
            (b, a)
        } else {
            (a, b)
        };
        let mut ops = Vec::new();
        for &lock_phase in &script {
            if lock_phase {
                ops.push(Op::Lock(LockId(first)));
                ops.push(Op::Lock(LockId(second)));
                ops.push(Op::load_shared(ctr_at(a)));
                ops.push(Op::store_shared(ctr_at(b)));
                ops.push(Op::Unlock(LockId(second)));
                ops.push(Op::Unlock(LockId(first)));
                ops.push(Op::Compute(spec.compute));
                for k in 0..spec.locks {
                    ops.push(Op::Lock(LockId(k)));
                    ops.push(Op::load_shared(ctr_at(k)));
                    ops.push(Op::store_shared(ctr_at(k)));
                    ops.push(Op::Unlock(LockId(k)));
                }
                ops.push(Op::Compute(spec.compute));
            } else {
                ops.push(Op::store_private(pad));
                ops.push(Op::store_shared(segs[task].base()));
                ops.push(Op::Compute(spec.compute));
                ops.push(Op::Barrier(BarrierId(0)));
            }
        }
        finalize(ops, mutation, layout, inst, task, ntasks, "gen.sync")
    })
}
