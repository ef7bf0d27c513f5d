//! Static sharing-class and communication-bound analyzer.
//!
//! A schedule-independent abstract interpretation over the DSL: it walks
//! each task program's op stream once (no simulation), splits it into
//! barrier phases, and derives
//!
//! 1. a **sharing class** per layout region ([`SharingClass`]) from the
//!    per-task access footprints — private, read-only, single-producer,
//!    migratory, or write-shared;
//! 2. **bounds on coherence traffic** ([`TrafficBounds`]) — sound lower
//!    and upper bounds on the memory-system counters a conventional
//!    single-mode run can produce, plus a cycle-cost estimate
//!    ([`CostEstimate`]); and
//! 3. **performance lints** `SP001`..`SP006` ([`Rule::FalseSharing`] ..
//!    [`Rule::LoadImbalance`]), all `Warning` severity — a program can be
//!    perfectly synchronized (no `SC*` errors) and still share data in a
//!    way the paper's protocol handles badly.
//!
//! The analysis reasons about *tasks*; under the runner's single-mode
//! placement task `t` is node `t`, which is what licenses comparing the
//! static sets against per-node dynamic observations (`predict.rs`
//! cross-validates exactly that, over the quick suite and the fuzz
//! corpus). The analyzer is pure: it never constructs a simulator and
//! never changes `RunResult`.

use std::collections::{BTreeMap, BTreeSet};

use slipstream_prog::{Layout, Op, RegionKind, Space};

use crate::diag::{Diagnostic, Rule};
use crate::verify::TaskProgram;
use crate::TaskSet;

/// Knobs for the analyzer. `Default` matches the default machine.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Cache-line size; must match the machine the program will run on
    /// (every committed `MachineConfig` uses 64-byte lines).
    pub line_bytes: u64,
    /// `Some(p)` models a limited-pointer directory with `p` pointers
    /// (enables `SP005`); `None` is the default fully-mapped directory.
    pub limited_ptrs: Option<u32>,
    /// Static cost charged per memory access when estimating per-phase
    /// task cost (a round remote-miss figure; only ratios matter for
    /// `SP006` and the cost estimate is explicitly a heuristic).
    pub access_cycles: u64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig { line_bytes: 64, limited_ptrs: None, access_cycles: 50 }
    }
}

/// The analyzer's sharing-class lattice, per layout region.
///
/// Mirrors the taxonomy the paper's Figure 7 discussion leans on: what
/// matters for slipstream is whether a region's lines stay put, migrate
/// owner-to-owner, or ping-pong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingClass {
    /// No task accesses the region.
    Unused,
    /// Exactly one task accesses the region (reads, writes, or both).
    Private,
    /// Two or more tasks access it; nobody writes.
    ReadOnly,
    /// Exactly one task writes; at least one other task reads
    /// (producer/consumer).
    SingleProducer,
    /// Two or more tasks write, every access lock-protected: the
    /// exclusive copy hops from owner to owner.
    Migratory,
    /// Two or more tasks write without a uniform locking discipline —
    /// write-shared, the false-sharing-prone class.
    WriteShared,
}

impl SharingClass {
    /// Short name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            SharingClass::Unused => "unused",
            SharingClass::Private => "private",
            SharingClass::ReadOnly => "read-only",
            SharingClass::SingleProducer => "single-producer",
            SharingClass::Migratory => "migratory",
            SharingClass::WriteShared => "write-shared",
        }
    }

    /// Projects the class onto what a per-node dynamic observer can see.
    ///
    /// `Migratory` vs. `WriteShared` differ only in locking discipline,
    /// which a node-level access trace cannot distinguish; both project to
    /// [`ObservedClass::MultiWriter`]. The projection is exact in
    /// single mode (task `t` runs on node `t`), which is what the
    /// cross-validation harness asserts.
    pub fn observable(self) -> ObservedClass {
        match self {
            SharingClass::Unused => ObservedClass::Unused,
            SharingClass::Private => ObservedClass::SingleNode,
            SharingClass::ReadOnly => ObservedClass::ReadShared,
            SharingClass::SingleProducer => ObservedClass::SingleWriter,
            SharingClass::Migratory | SharingClass::WriteShared => ObservedClass::MultiWriter,
        }
    }
}

/// What a per-node access trace can observe about a region's sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedClass {
    /// No accesses.
    Unused,
    /// All accesses from one node.
    SingleNode,
    /// Multiple accessor nodes, no writer.
    ReadShared,
    /// Multiple accessor nodes, exactly one writer node.
    SingleWriter,
    /// Multiple writer nodes.
    MultiWriter,
}

impl ObservedClass {
    /// Short name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ObservedClass::Unused => "unused",
            ObservedClass::SingleNode => "single-node",
            ObservedClass::ReadShared => "read-shared",
            ObservedClass::SingleWriter => "single-writer",
            ObservedClass::MultiWriter => "multi-writer",
        }
    }

    /// Classifies from observed accessor/writer node counts (the same
    /// case split [`SharingClass`] uses over tasks).
    pub fn from_counts(accessors: usize, writers: usize) -> ObservedClass {
        match (accessors, writers) {
            (0, _) => ObservedClass::Unused,
            (1, _) => ObservedClass::SingleNode,
            (_, 0) => ObservedClass::ReadShared,
            (_, 1) => ObservedClass::SingleWriter,
            _ => ObservedClass::MultiWriter,
        }
    }
}

/// One region's predicted sharing behavior.
#[derive(Debug, Clone)]
pub struct RegionClass {
    /// Region name from the layout.
    pub name: String,
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
    /// Whether the region is coherence-visible (`Shared`/`SharedOwned`).
    pub shared: bool,
    /// Predicted sharing class.
    pub class: SharingClass,
    /// Distinct tasks that load from the region.
    pub reader_tasks: usize,
    /// Distinct tasks that store to the region.
    pub writer_tasks: usize,
    /// Total load ops into the region.
    pub loads: u64,
    /// Total store ops into the region.
    pub stores: u64,
}

/// Sound bounds on a conventional **single-mode, cold-cache** run's
/// memory-system counters, derived without simulating.
///
/// Soundness arguments (task `t` = node `t`, caches start empty):
///
/// * every access op resolves as exactly one of L1 hit / L2 hit / miss,
///   so [`MemStats::data_accesses`] equals `accesses` exactly;
/// * a node's **first** access to a line cannot hit (cold start, no
///   prefetching in single mode) and cannot merge (nothing in flight for
///   that line at that node), so it launches a read or exclusive
///   transaction: `read_txns + excl_txns >= first_touches`;
/// * each access op launches at most one transaction, so `read_txns <=
///   loads`, `excl_txns <= stores`, and their sum is at most `accesses`
///   (the migratory optimization can only *remove* upgrades);
/// * a classification record opens only for a shared-line transaction and
///   closes exactly once, so the classified total lies in
///   `[shared_first_touches, shared_accesses]`;
/// * an invalidation targets a current sharer, sharers are accessors, and
///   only exclusive requests invalidate: at most `accessors(L) - 1` per
///   store op to line `L` (all nodes under a limited-pointer overflow);
/// * an intervention requires another node to hold the line exclusively,
///   which in single mode requires a store to that line by some task, and
///   each request triggers at most one intervention;
/// * A-stream machinery is absent: `a_read_txns`, `excl_prefetches`,
///   `transparent_issued`, the classifier's A buckets, and (with SI off)
///   `si_invalidations`/`si_downgrades` are all exactly zero.
///
/// [`MemStats::data_accesses`]: slipstream_mem::MemStats::data_accesses
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBounds {
    /// Exact number of data accesses (loads + stores, all spaces).
    pub accesses: u64,
    /// Total load ops — upper bound on `read_txns`.
    pub loads: u64,
    /// Total store ops — upper bound on `excl_txns`.
    pub stores: u64,
    /// Distinct `(task, line)` pairs accessed — lower bound on
    /// `read_txns + excl_txns`.
    pub first_touches: u64,
    /// Distinct `(task, shared line)` pairs — lower bound on the
    /// classified-request total.
    pub shared_first_touches: u64,
    /// Shared-space access ops — upper bound on the classified total.
    pub shared_accesses: u64,
    /// Upper bound on `invalidations_sent`.
    pub max_invalidations: u64,
    /// Upper bound on `interventions`.
    pub max_interventions: u64,
}

/// A pre-simulation cycle estimate (the ROADMAP item-1 server's cost
/// model). A *heuristic*, not a bound: per phase, the critical path is
/// the heaviest task (compute cycles plus [`AnalysisConfig::access_cycles`]
/// per access); phases sum because barriers serialize them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostEstimate {
    /// Sum over phases of the heaviest task's compute cycles.
    pub compute_cycles: u64,
    /// Sum over phases of the heaviest task's charged access cycles.
    pub access_cycles: u64,
    /// The two combined: the estimated critical path in cycles.
    pub total_cycles: u64,
}

/// Full analyzer output for one task set.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Number of tasks analyzed.
    pub ntasks: usize,
    /// Number of barrier phases (max over tasks; phase `p` of one task is
    /// concurrent only with phase `p` of the others).
    pub phases: usize,
    /// Per-region sharing classes, in layout order.
    pub regions: Vec<RegionClass>,
    /// Communication bounds for a single-mode run of this task set.
    pub bounds: TrafficBounds,
    /// Heuristic critical-path cost estimate.
    pub cost: CostEstimate,
    /// Performance lints `SP001`..`SP006` (always `Warning` severity).
    pub diagnostics: Vec<Diagnostic>,
}

/// Per-line footprint accumulated during the walk.
#[derive(Default)]
struct LineFoot {
    readers: BTreeSet<usize>,
    writers: BTreeSet<usize>,
    loads: u64,
    stores: u64,
    shared: bool,
    /// Distinct addresses written, per task (false-sharing evidence).
    written_addrs: BTreeSet<u64>,
    /// Phases in which each task loads from the line.
    read_phases: BTreeMap<usize, BTreeSet<usize>>,
    /// Phases in which any task stores to the line.
    write_phases: BTreeSet<usize>,
    /// Per lock: tasks that load and tasks that store the line while
    /// holding it (migratory-contention evidence).
    lock_readers: BTreeMap<u32, BTreeSet<usize>>,
    lock_writers: BTreeMap<u32, BTreeSet<usize>>,
}

/// Per-region footprint accumulated during the walk.
#[derive(Default)]
struct RegionFoot {
    readers: BTreeSet<usize>,
    writers: BTreeSet<usize>,
    loads: u64,
    stores: u64,
    /// Falsified as soon as any access happens outside every lock.
    all_locked: bool,
    /// Tasks reading / writing the region, per phase (SP002 evidence).
    phase_readers: BTreeMap<usize, BTreeSet<usize>>,
    phase_writers: BTreeMap<usize, BTreeSet<usize>>,
}

/// Analyzes an instantiated task set (conventional set, or the R-stream
/// side of a slipstream set — the A-stream shares the skeleton by SC012,
/// so its sharing classes are identical by construction).
pub fn analyze(set: &TaskSet, cfg: &AnalysisConfig) -> Analysis {
    analyze_tasks(&set.layout, &set.r, cfg)
}

/// Analyzes an explicit `(layout, tasks)` pair. See [`analyze`].
pub fn analyze_tasks(layout: &Layout, tasks: &[TaskProgram], cfg: &AnalysisConfig) -> Analysis {
    assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 0);

    let mut lines: BTreeMap<u64, LineFoot> = BTreeMap::new();
    // Regions keyed by base address; initialized so unused regions still
    // appear in the report (class `Unused`).
    let mut regions: BTreeMap<u64, RegionFoot> = BTreeMap::new();
    for r in layout.regions() {
        regions.insert(r.base.0, RegionFoot { all_locked: true, ..RegionFoot::default() });
    }
    // Per-task, per-phase static cost: (compute, accesses).
    let mut phase_cost: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut nphases = 0usize;

    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut shared_accesses = 0u64;

    for tp in tasks {
        let task = tp.task;
        let mut held: BTreeSet<u32> = BTreeSet::new();
        tp.prog.walk_phases(|phase, _idx, op| {
            nphases = nphases.max(phase + 1);
            let cost = phase_cost.entry(phase).or_default();
            if cost.len() <= task {
                cost.resize(task + 1, (0, 0));
            }
            match *op {
                Op::Compute(n) => cost[task].0 += u64::from(n),
                Op::Lock(l) => {
                    held.insert(l.0);
                }
                Op::Unlock(l) => {
                    held.remove(&l.0);
                }
                Op::Load { addr, space } | Op::Store { addr, space } => {
                    cost[task].1 += 1;
                    let is_store = matches!(op, Op::Store { .. });
                    if is_store {
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                    let shared = space == Space::Shared;
                    if shared {
                        shared_accesses += 1;
                    }

                    let line = addr.0 / cfg.line_bytes;
                    let lf = lines.entry(line).or_default();
                    lf.shared |= shared;
                    if is_store {
                        lf.stores += 1;
                        lf.writers.insert(task);
                        lf.written_addrs.insert(addr.0);
                        lf.write_phases.insert(phase);
                        for &l in &held {
                            lf.lock_writers.entry(l).or_default().insert(task);
                        }
                    } else {
                        lf.loads += 1;
                        lf.readers.insert(task);
                        lf.read_phases.entry(task).or_default().insert(phase);
                        for &l in &held {
                            lf.lock_readers.entry(l).or_default().insert(task);
                        }
                    }

                    if let Some(info) = layout.region_of(addr) {
                        let rf = regions.get_mut(&info.base.0).expect("region indexed");
                        rf.all_locked &= !held.is_empty();
                        if is_store {
                            rf.stores += 1;
                            rf.writers.insert(task);
                            rf.phase_writers.entry(phase).or_default().insert(task);
                        } else {
                            rf.loads += 1;
                            rf.readers.insert(task);
                            rf.phase_readers.entry(phase).or_default().insert(task);
                        }
                    }
                    // Unmapped addresses are SC011's problem; the analyzer
                    // just keeps the line-level footprint.
                }
                // Barriers advance the phase inside walk_phases; the
                // remaining ops neither access memory nor hold cost.
                _ => {}
            }
        });
    }

    let ntasks = tasks.len();
    let mut diagnostics = Vec::new();

    // --- Per-region classes + SP002 -------------------------------------
    let region_classes: Vec<RegionClass> = layout
        .regions()
        .iter()
        .map(|info| {
            let rf = &regions[&info.base.0];
            let accessors: BTreeSet<usize> = rf.readers.union(&rf.writers).copied().collect();
            let class = match (accessors.len(), rf.writers.len()) {
                (0, _) => SharingClass::Unused,
                (1, _) => SharingClass::Private,
                (_, 0) => SharingClass::ReadOnly,
                (_, 1) => SharingClass::SingleProducer,
                _ if rf.all_locked => SharingClass::Migratory,
                _ => SharingClass::WriteShared,
            };
            RegionClass {
                name: info.name.clone(),
                base: info.base.0,
                bytes: info.bytes,
                shared: matches!(info.kind, RegionKind::Shared | RegionKind::SharedOwned(_)),
                class,
                reader_tasks: rf.readers.len(),
                writer_tasks: rf.writers.len(),
                loads: rf.loads,
                stores: rf.stores,
            }
        })
        .collect();

    for (info, rc) in layout.regions().iter().zip(&region_classes) {
        if !rc.shared {
            continue;
        }
        let rf = &regions[&info.base.0];
        // SP002: read-mostly region written while others are reading it.
        if rc.stores >= 1 && rc.loads >= 4 * rc.stores && rc.reader_tasks >= 2 {
            let hot = rf.phase_writers.iter().find_map(|(phase, writers)| {
                let readers = rf.phase_readers.get(phase)?;
                writers.iter().find_map(|w| {
                    (readers.iter().filter(|r| *r != w).count() >= 2).then_some((*phase, *w))
                })
            });
            if let Some((phase, writer)) = hot {
                diagnostics.push(
                    Diagnostic::warning(
                        Rule::ReadMostlyWrite,
                        format!(
                            "region '{}' is read-mostly ({} loads vs {} stores, {} reader \
                             tasks) but task {writer} writes it in phase {phase} while >=2 \
                             other tasks read it: one store invalidates every cached copy",
                            rc.name, rc.loads, rc.stores, rc.reader_tasks
                        ),
                    )
                    .at_task(writer)
                    .at_addr(rc.base),
                );
            }
        }
    }

    // --- Per-line lints: SP001, SP003, SP004, SP005 ---------------------
    let mut first_touches = 0u64;
    let mut shared_first_touches = 0u64;
    let mut max_invalidations = 0u64;
    let mut max_interventions = 0u64;

    for (&line, lf) in &lines {
        let accessors: BTreeSet<usize> = lf.readers.union(&lf.writers).copied().collect();
        first_touches += accessors.len() as u64;
        if lf.shared {
            shared_first_touches += accessors.len() as u64;
            if !lf.writers.is_empty() {
                let overflow =
                    cfg.limited_ptrs.is_some_and(|p| accessors.len() > p as usize);
                let per_store =
                    if overflow { ntasks.saturating_sub(1) } else { accessors.len() - 1 };
                max_invalidations += lf.stores * per_store as u64;
                if accessors.len() >= 2 {
                    max_interventions += lf.loads + lf.stores;
                }
                // SP005: limited-pointer overflow on a written line.
                if overflow {
                    diagnostics.push(
                        Diagnostic::warning(
                            Rule::BroadcastOverflow,
                            format!(
                                "line {:#x}: {} accessor tasks exceed the {}-pointer \
                                 directory and the line is written: every invalidation \
                                 becomes a broadcast",
                                line * cfg.line_bytes,
                                accessors.len(),
                                cfg.limited_ptrs.unwrap_or(0),
                            ),
                        )
                        .at_addr(line * cfg.line_bytes),
                    );
                }
            }

            // SP001: >=2 writer tasks, >=2 distinct written words.
            if lf.writers.len() >= 2 && lf.written_addrs.len() >= 2 {
                let tasks: Vec<String> = lf.writers.iter().map(|t| t.to_string()).collect();
                diagnostics.push(
                    Diagnostic::warning(
                        Rule::FalseSharing,
                        format!(
                            "line {:#x}: tasks {} write {} distinct words of the same \
                             cache line (false sharing: the line ping-pongs)",
                            line * cfg.line_bytes,
                            tasks.join(","),
                            lf.written_addrs.len(),
                        ),
                    )
                    .at_addr(line * cfg.line_bytes),
                );
            }

            // SP003: >=3 tasks read-modify-write under one common lock.
            for (lock, writers) in &lf.lock_writers {
                let rmw: BTreeSet<usize> = lf
                    .lock_readers
                    .get(lock)
                    .map(|readers| writers.intersection(readers).copied().collect())
                    .unwrap_or_default();
                if rmw.len() >= 3 {
                    diagnostics.push(
                        Diagnostic::warning(
                            Rule::ContendedMigratory,
                            format!(
                                "line {:#x}: {} tasks read-modify-write it under lock \
                                 {lock} (contended migratory data: the exclusive copy \
                                 serializes behind the lock)",
                                line * cfg.line_bytes,
                                rmw.len(),
                            ),
                        )
                        .at_addr(line * cfg.line_bytes),
                    );
                    break; // one report per line
                }
            }

            // SP004: cross-phase re-read of a multi-task written line with
            // no intervening write — self-invalidation would misfire.
            if accessors.len() >= 2 && !lf.write_phases.is_empty() {
                'sp4: for (task, phases) in &lf.read_phases {
                    let ps: Vec<usize> = phases.iter().copied().collect();
                    for w in ps.windows(2) {
                        let (p, q) = (w[0], w[1]);
                        let written = lf.write_phases.range(p..=q).next().is_some();
                        if !written {
                            diagnostics.push(
                                Diagnostic::warning(
                                    Rule::SiHostile,
                                    format!(
                                        "line {:#x}: task {task} re-reads it in phase \
                                         {q} after phase {p} with no intervening write; \
                                         self-invalidation would discard a still-valid \
                                         copy at the phase boundary",
                                        line * cfg.line_bytes,
                                    ),
                                )
                                .at_task(*task)
                                .at_addr(line * cfg.line_bytes),
                            );
                            break 'sp4; // one report per line
                        }
                    }
                }
            }
        }
    }

    // --- SP006 + cost estimate ------------------------------------------
    let mut cost = CostEstimate::default();
    for (phase, costs) in &phase_cost {
        let cycles =
            |t: &(u64, u64)| t.0 + t.1 * cfg.access_cycles;
        let mut padded = costs.clone();
        padded.resize(ntasks.max(padded.len()), (0, 0));
        let (max_i, max_c) = padded
            .iter()
            .enumerate()
            .map(|(i, t)| (i, cycles(t)))
            .max_by_key(|&(_, c)| c)
            .unwrap_or((0, 0));
        let min_c = padded.iter().map(cycles).min().unwrap_or(0);
        if max_c >= 2 * min_c && max_c - min_c >= 10_000 {
            diagnostics.push(
                Diagnostic::warning(
                    Rule::LoadImbalance,
                    format!(
                        "phase {phase}: task {max_i} costs ~{max_c} cycles vs ~{min_c} \
                         for the lightest task; the barrier makes every task wait for \
                         the heaviest",
                    ),
                )
                .at_task(max_i),
            );
        }
        let heavy = &padded[max_i];
        cost.compute_cycles += heavy.0;
        cost.access_cycles += heavy.1 * cfg.access_cycles;
    }
    cost.total_cycles = cost.compute_cycles + cost.access_cycles;

    // Report rule-major, then address-major: deterministic regardless of
    // discovery order (BTreeMaps already make the walk deterministic, but
    // the contract is part of the JSON-output stability tests).
    diagnostics.sort_by_key(|d| (d.rule.id(), d.addr, d.task, d.op_index));

    Analysis {
        ntasks,
        phases: nphases,
        regions: region_classes,
        bounds: TrafficBounds {
            accesses: loads + stores,
            loads,
            stores,
            first_touches,
            shared_first_touches,
            shared_accesses,
            max_invalidations,
            max_interventions,
        },
        cost,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_kernel::Addr;
    use slipstream_prog::{BarrierId, LockId, ProgBuilder, Program};

    fn task(t: usize, prog: Program) -> TaskProgram {
        TaskProgram { task: t, inst: slipstream_prog::InstanceId(t as u32), prog }
    }

    fn rules(a: &Analysis) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = a.diagnostics.iter().map(|d| d.rule.id()).collect();
        v.dedup();
        v
    }

    /// Layout with one 4 KiB shared region; returns its base.
    fn shared_layout() -> (Layout, Addr) {
        let mut layout = Layout::new();
        let arr = layout.shared("arr", 4096);
        (layout, arr.base())
    }

    #[test]
    fn private_and_read_only_regions_classify_clean() {
        let (layout, base) = shared_layout();
        let mk = |t: usize| {
            let mut b = ProgBuilder::new();
            // Everyone reads word 0; nobody writes.
            b.gen(move |_| Op::load_shared(base));
            b.barrier(BarrierId(0));
            task(t, b.build("ro"))
        };
        let a = analyze_tasks(&layout, &[mk(0), mk(1)], &AnalysisConfig::default());
        assert_eq!(a.regions[0].class, SharingClass::ReadOnly);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.bounds.accesses, 2);
        assert_eq!(a.bounds.first_touches, 2);
        assert_eq!(a.bounds.max_invalidations, 0);
    }

    #[test]
    fn false_sharing_fires_sp001_and_classifies_write_shared() {
        let (layout, base) = shared_layout();
        let mk = |t: usize| {
            let mut b = ProgBuilder::new();
            // Task t writes word t of line 0: distinct words, same line.
            b.gen(move |_| Op::store_shared(Addr(base.0 + t as u64 * 8)));
            b.barrier(BarrierId(0));
            task(t, b.build("fs"))
        };
        let a = analyze_tasks(&layout, &[mk(0), mk(1)], &AnalysisConfig::default());
        assert_eq!(a.regions[0].class, SharingClass::WriteShared);
        assert_eq!(rules(&a), vec!["SP001"]);
        // Two stores, each able to invalidate the other's copy.
        assert_eq!(a.bounds.max_invalidations, 2);
    }

    #[test]
    fn lock_mediated_rmw_classifies_migratory_and_fires_sp003_at_three_tasks() {
        let (layout, base) = shared_layout();
        let mk = |t: usize| {
            let mut b = ProgBuilder::new();
            b.op(Op::Lock(LockId(0)));
            b.gen(move |_| Op::load_shared(base));
            b.gen(move |_| Op::store_shared(base));
            b.op(Op::Unlock(LockId(0)));
            task(t, b.build("mig"))
        };
        let two = analyze_tasks(&layout, &[mk(0), mk(1)], &AnalysisConfig::default());
        assert_eq!(two.regions[0].class, SharingClass::Migratory);
        assert!(two.diagnostics.iter().all(|d| d.rule != Rule::ContendedMigratory));
        let three =
            analyze_tasks(&layout, &[mk(0), mk(1), mk(2)], &AnalysisConfig::default());
        assert!(three.diagnostics.iter().any(|d| d.rule == Rule::ContendedMigratory));
    }

    #[test]
    fn cross_phase_reread_without_write_fires_sp004() {
        let (layout, base) = shared_layout();
        let writer = {
            let mut b = ProgBuilder::new();
            b.gen(move |_| Op::store_shared(base));
            b.barrier(BarrierId(0));
            b.barrier(BarrierId(0));
            b.barrier(BarrierId(0));
            task(0, b.build("w"))
        };
        let reader = {
            let mut b = ProgBuilder::new();
            b.barrier(BarrierId(0));
            b.gen(move |_| Op::load_shared(base));
            b.barrier(BarrierId(0));
            b.gen(move |_| Op::load_shared(base)); // re-read, no write since
            b.barrier(BarrierId(0));
            task(1, b.build("r"))
        };
        let a = analyze_tasks(&layout, &[writer, reader], &AnalysisConfig::default());
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::SiHostile));
    }

    #[test]
    fn limited_pointer_overflow_fires_sp005() {
        let (layout, base) = shared_layout();
        let mk = |t: usize, write: bool| {
            let mut b = ProgBuilder::new();
            if write {
                b.gen(move |_| Op::store_shared(base));
            } else {
                b.gen(move |_| Op::load_shared(base));
            }
            b.barrier(BarrierId(0));
            task(t, b.build("bc"))
        };
        let tasks = vec![mk(0, true), mk(1, false), mk(2, false), mk(3, false)];
        let full = analyze_tasks(&layout, &tasks, &AnalysisConfig::default());
        assert!(full.diagnostics.iter().all(|d| d.rule != Rule::BroadcastOverflow));
        let cfg = AnalysisConfig { limited_ptrs: Some(2), ..AnalysisConfig::default() };
        let lim = analyze_tasks(&layout, &tasks, &cfg);
        assert!(lim.diagnostics.iter().any(|d| d.rule == Rule::BroadcastOverflow));
        // Overflow widens the invalidation bound to all other nodes.
        assert_eq!(lim.bounds.max_invalidations, 3);
    }

    #[test]
    fn imbalanced_phase_fires_sp006() {
        let (layout, _base) = shared_layout();
        let heavy = {
            let mut b = ProgBuilder::new();
            b.compute(50_000);
            b.barrier(BarrierId(0));
            task(0, b.build("h"))
        };
        let light = {
            let mut b = ProgBuilder::new();
            b.compute(10);
            b.barrier(BarrierId(0));
            task(1, b.build("l"))
        };
        let a = analyze_tasks(&layout, &[heavy, light], &AnalysisConfig::default());
        assert!(a.diagnostics.iter().any(|d| d.rule == Rule::LoadImbalance));
        assert_eq!(a.cost.compute_cycles, 50_000);
    }

    #[test]
    fn all_sp_diagnostics_are_warnings() {
        let (layout, base) = shared_layout();
        let mk = |t: usize| {
            let mut b = ProgBuilder::new();
            b.gen(move |_| Op::store_shared(Addr(base.0 + t as u64 * 8)));
            b.compute(if t == 0 { 60_000 } else { 1 });
            b.barrier(BarrierId(0));
            task(t, b.build("mix"))
        };
        let a = analyze_tasks(&layout, &[mk(0), mk(1)], &AnalysisConfig::default());
        assert!(!a.diagnostics.is_empty());
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.severity == crate::diag::Severity::Warning));
    }
}
