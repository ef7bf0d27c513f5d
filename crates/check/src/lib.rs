//! Correctness and performance-prediction tooling for the slipstream
//! reproduction.
//!
//! Three independent passes guard the paper's assumptions:
//!
//! 1. **Static DSL verifier** ([`verify_workload`], [`verify_tasks`]) —
//!    walks each workload's generated task programs once, computing
//!    happens-before with vector clocks over barriers, locks, and events,
//!    and reports data races on shared data, private-space isolation
//!    violations, barrier/lock/event discipline bugs, and layout
//!    inconsistencies as typed [`Diagnostic`]s (rules `SC001`..`SC012`).
//!    The paper's A-stream safety argument (§3.2) holds only for properly
//!    synchronized programs, so every workload is linted before its
//!    numbers are trusted.
//!
//! 2. **Dynamic protocol invariant checker** ([`ProtocolChecker`],
//!    [`run_checked`]) — shadows the directory and L2 copy state from the
//!    memory system's [`slipstream_mem::MemObs`] observations during a
//!    real simulation and asserts SWMR, sharer-set/copy agreement at
//!    quiescence, MSHR no-leak, and the §4 self-invalidation contracts
//!    (rules `PC001`..`PC009`). Checked runs are bit-identical to
//!    unchecked ones.
//!
//! 3. **Static sharing analyzer** ([`analyze`], [`cross_validate`]) — a
//!    schedule-independent abstract interpretation that predicts each
//!    region's sharing class, bounds the coherence traffic a single-mode
//!    run can generate, and emits performance lints (`SP001`..`SP006`).
//!    Its predictions are differentially validated against instrumented
//!    runs over the quick suite and the fuzz corpus.
//!
//! The `check` binary fronts the first two and the `predict` binary the
//! third; `docs/static-analysis.md` documents the rule catalogue.

pub mod analysis;
pub mod contract;
pub mod diag;
pub mod lockorder;
pub mod lockset;
pub mod predict;
pub mod protocol;
pub mod verify;

pub use analysis::{
    analyze, analyze_tasks, Analysis, AnalysisConfig, CostEstimate, ObservedClass, RegionClass,
    SharingClass, TrafficBounds,
};
pub use contract::{verify_contract, ContractItem, PatternContract};
pub use diag::{has_errors, json_escape, Diagnostic, Rule, Severity};
pub use predict::{
    cross_validate, cross_validate_with, BoundCheck, RegionDelta, SharingObserver,
    ValidationReport,
};
pub use protocol::{
    run_checked, CheckCounts, CheckReport, CheckTracer, ProtoRule, ProtocolChecker, Violation,
};
pub use verify::{verify_layout, verify_pair, verify_tasks, TaskProgram};

use slipstream_core::Workload;
use slipstream_kernel::config::MachineConfig;
use slipstream_prog::{InstanceId, Layout};

/// A workload's instantiated task programs, in the runner's layout.
///
/// Produced by [`instantiate_workload`]; callers that need the programs
/// themselves (the pattern-contract check, the fuzz pipeline's structural
/// reporting) use this instead of re-implementing the runner's
/// instantiation conventions.
pub struct TaskSet {
    /// The layout all programs were built against.
    pub layout: Layout,
    /// Conventional tasks, or the R-stream set in slipstream mode.
    pub r: Vec<TaskProgram>,
    /// A-stream programs (one per task) in slipstream mode; empty for
    /// conventional task sets.
    pub a: Vec<TaskProgram>,
}

/// Instantiates a workload's task programs exactly the way the runner
/// would for a run with `ntasks` tasks.
///
/// * `slipstream == false` — a conventional task set: instance `t` runs
///   task `t` (covers both `Single` with `ntasks == nodes` and `Double`
///   with `ntasks == 2 * nodes`).
/// * `slipstream == true` — task `t`'s R-stream is instance `2t` and its
///   A-stream instance `2t+1`, built in the runner's order (R then A per
///   task) so private regions land at the same addresses the simulator
///   would use.
pub fn instantiate_workload(
    workload: &dyn Workload,
    page_bytes: u64,
    ntasks: usize,
    slipstream: bool,
) -> TaskSet {
    let mut layout = Layout::with_page_size(page_bytes);
    let builder = workload.instantiate(ntasks, &mut layout);
    if !slipstream {
        let r: Vec<TaskProgram> = (0..ntasks)
            .map(|t| {
                let inst = InstanceId(t as u32);
                TaskProgram { task: t, inst, prog: builder(&mut layout, inst, t) }
            })
            .collect();
        TaskSet { layout, r, a: Vec::new() }
    } else {
        let mut r = Vec::with_capacity(ntasks);
        let mut a = Vec::with_capacity(ntasks);
        for t in 0..ntasks {
            let r_inst = InstanceId(2 * t as u32);
            r.push(TaskProgram { task: t, inst: r_inst, prog: builder(&mut layout, r_inst, t) });
            let a_inst = InstanceId(2 * t as u32 + 1);
            a.push(TaskProgram { task: t, inst: a_inst, prog: builder(&mut layout, a_inst, t) });
        }
        TaskSet { layout, r, a }
    }
}

/// Runs the full static analysis over an instantiated task set: layout
/// consistency, space discipline, happens-before (SC001..SC011), the
/// lockset and lock-order passes (SC013/SC014), and — in slipstream
/// mode — A/R skeleton identity per task (SC012).
pub fn verify_task_set(set: &TaskSet) -> Vec<Diagnostic> {
    let mut diags = verify_tasks(&set.layout, &set.r);
    for (r, a) in set.r.iter().zip(&set.a) {
        diags.extend(verify_pair(&set.layout, r, a));
    }
    diags
}

/// Statically verifies one workload's generated programs for a run with
/// `ntasks` tasks under an explicit machine configuration.
///
/// Mirrors the runner's instantiation conventions exactly (page size from
/// `cfg`, instance-id assignment per mode):
///
/// * `slipstream == false` — a conventional task set: instance `t` runs
///   task `t` (covers both `Single` with `ntasks == nodes` and `Double`
///   with `ntasks == 2 * nodes`). The full happens-before analysis runs
///   over all tasks.
/// * `slipstream == true` — task `t`'s R-stream is instance `2t` and its
///   A-stream instance `2t+1`. The R set gets the full analysis; each
///   A program is additionally checked for private isolation and for
///   skeleton identity with its R program (rule `SC012`), which is what
///   licenses the A-stream to run ahead.
pub fn verify_workload_with(
    cfg: &MachineConfig,
    workload: &dyn Workload,
    ntasks: usize,
    slipstream: bool,
) -> Vec<Diagnostic> {
    verify_task_set(&instantiate_workload(workload, cfg.page_bytes, ntasks, slipstream))
}

/// Statically verifies one workload's generated programs for a run with
/// `ntasks` tasks, deriving the machine configuration the same way the
/// runner does when no override is given (`MachineConfig::water` when the
/// workload wants a small L2, the default otherwise).
///
/// Workloads that run under an explicit `MachineConfig` — generated
/// programs in particular — should use [`verify_workload_with`] so the
/// page size matches their run configuration.
pub fn verify_workload(workload: &dyn Workload, ntasks: usize, slipstream: bool) -> Vec<Diagnostic> {
    let nodes = ntasks.max(1) as u16;
    let cfg = if workload.small_l2() {
        MachineConfig::water(nodes)
    } else {
        MachineConfig::with_nodes(nodes)
    };
    verify_workload_with(&cfg, workload, ntasks, slipstream)
}
