use slipstream_kernel::config::{ArSyncMode, ExecMode, MachineConfig, SlipstreamConfig};
use slipstream_kernel::{CpuId, NodeId, TaskId};
use slipstream_mem::{HomeMap, MemSystem, StreamRole};
use slipstream_prog::{InstanceId, Layout, Program};

use crate::machine::Machine;
use crate::report::RunResult;
use crate::stream::{PairState, StreamExec};
use crate::trace::{TraceConfig, TraceData};
use crate::workload::Workload;

/// Everything that decides one run besides the workload: machine size,
/// execution mode, slipstream knobs, an optional machine override, and
/// what to observe. Two equal specs run the same simulation on the same
/// workload, so a spec and a workload name identify a run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Number of CMP nodes.
    pub nodes: u16,
    /// Execution mode (Figure 2).
    pub mode: ExecMode,
    /// Slipstream configuration (ignored outside slipstream mode).
    pub slip: SlipstreamConfig,
    /// Override the machine description (see [`RunSpec::machine_for`]).
    pub machine: Option<MachineConfig>,
    /// Observability configuration. Default: everything off, in which case
    /// the run is untraced and pays no collection cost.
    pub trace: TraceConfig,
    /// Batched fast-path execution (default on). When a stream's resume
    /// would be the very next event popped, the round-trip through the
    /// event queue is elided and the stream keeps executing inline. The
    /// result is bit-identical either way; turning this off exists for the
    /// differential tests and debugging.
    pub fastpath: bool,
}

impl RunSpec {
    /// The names of [`RunSpec::named`]'s configurations, in the order the
    /// command-line tools list them.
    pub const NAMED: [&'static str; 4] = ["single", "double", "slipstream", "slipstream+si"];

    /// A spec with default slipstream settings (one-token global,
    /// prefetch-only).
    pub fn new(nodes: u16, mode: ExecMode) -> RunSpec {
        RunSpec {
            nodes,
            mode,
            slip: SlipstreamConfig::default(),
            machine: None,
            trace: TraceConfig::default(),
            fastpath: true,
        }
    }

    /// The named run configuration at `nodes` CMPs: `single`, `double`,
    /// `slipstream` (prefetch-only, one-token global A-R sync) or
    /// `slipstream+si` (with transparent loads and self-invalidation).
    /// `None` for any other name.
    pub fn named(name: &str, nodes: u16) -> Option<RunSpec> {
        let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
        Some(match name {
            "single" => RunSpec::new(nodes, ExecMode::Single),
            "double" => RunSpec::new(nodes, ExecMode::Double),
            "slipstream" => RunSpec::new(nodes, ExecMode::Slipstream),
            "slipstream+si" => RunSpec::new(nodes, ExecMode::Slipstream).with_slip(si),
            _ => return None,
        })
    }

    /// Sets the slipstream configuration.
    pub fn with_slip(mut self, slip: SlipstreamConfig) -> RunSpec {
        self.slip = slip;
        self
    }

    /// Overrides the machine description.
    pub fn with_machine(mut self, machine: MachineConfig) -> RunSpec {
        self.machine = Some(machine);
        self
    }

    /// Enables observability collection for the run (see [`TraceConfig`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> RunSpec {
        self.trace = trace;
        self
    }

    /// Enables or disables the batched fast path (on by default).
    pub fn with_fastpath(mut self, fastpath: bool) -> RunSpec {
        self.fastpath = fastpath;
        self
    }

    /// The machine a run of `workload` under this spec simulates: the
    /// override if one is set, else Table 1's machine, with the 128 KB L2
    /// of the Table 1 footnote when the workload asks for a small L2.
    /// Either way the spec's `nodes` applies.
    pub fn machine_for(&self, workload: &dyn Workload) -> MachineConfig {
        let cfg = match &self.machine {
            Some(machine) => machine.clone(),
            None if workload.small_l2() => MachineConfig::water(self.nodes),
            None => MachineConfig::with_nodes(self.nodes),
        };
        MachineConfig { nodes: self.nodes, ..cfg }
    }
}

/// One stream of a run: a task's program, placed on a processor.
#[derive(Debug)]
pub struct PlacedStream {
    /// The task the stream runs.
    pub task: usize,
    /// The stream's instance: its private regions belong to it.
    pub inst: InstanceId,
    /// The processor it runs on.
    pub cpu: CpuId,
    /// `Solo` in single and double mode, `R` or `A` in slipstream mode.
    pub role: StreamRole,
    /// Its program.
    pub prog: Program,
}

/// Builds `workload`'s layout (with pages of `page_bytes`) and the program
/// of every stream of a run in `mode` on `nodes` CMPs, in instance order.
///
/// Task placement follows Figure 2 of the paper:
/// * **single** — one task per CMP, on core 0; core 1 idles;
/// * **double** — two tasks per CMP (2n tasks total): task `t` on node
///   `t / 2`, core `t % 2`;
/// * **slipstream** — per CMP, task `t`'s R-stream (instance `2t`) on
///   core 0 and its reduced A-stream copy (instance `2t + 1`, with
///   separate private data) on core 1. The R-stream's program is built
///   first, so private regions land at the same addresses in every tool
///   that instantiates the run.
pub fn instantiate(
    workload: &dyn Workload,
    mode: ExecMode,
    nodes: u16,
    page_bytes: u64,
) -> (Layout, Vec<PlacedStream>) {
    let (ntasks, roles): (usize, &[StreamRole]) = match mode {
        ExecMode::Single => (nodes.into(), &[StreamRole::Solo]),
        ExecMode::Double => (2 * usize::from(nodes), &[StreamRole::Solo]),
        ExecMode::Slipstream => (nodes.into(), &[StreamRole::R, StreamRole::A]),
    };
    let mut layout = Layout::with_page_size(page_bytes);
    let builder = workload.instantiate(ntasks, &mut layout);
    let mut streams = Vec::with_capacity(ntasks * roles.len());
    for task in 0..ntasks {
        for (core, &role) in roles.iter().enumerate() {
            let cpu = match mode {
                ExecMode::Double => CpuId::new(NodeId((task / 2) as u16), (task % 2) as u8),
                _ => CpuId::new(NodeId(task as u16), core as u8),
            };
            let inst = InstanceId(streams.len() as u32);
            let prog = builder(&mut layout, inst, task);
            streams.push(PlacedStream { task, inst, cpu, role, prog });
        }
    }
    (layout, streams)
}

/// Runs `workload` under `spec` and returns the measurements. The
/// machine is [`RunSpec::machine_for`] and the task placement is
/// [`instantiate`]'s (Figure 2 of the paper).
///
/// # Panics
///
/// Panics on deadlock or a protocol invariant violation (these are bugs,
/// not measurements).
pub fn run(workload: &dyn Workload, spec: &RunSpec) -> RunResult {
    run_traced(workload, spec).0
}

/// Like [`run`], but also returns the collected [`TraceData`] when
/// `spec.trace` enables any collection (`None` otherwise). The
/// [`RunResult`] is bit-identical either way: tracing only observes.
pub fn run_traced(workload: &dyn Workload, spec: &RunSpec) -> (RunResult, Option<TraceData>) {
    run_inner(workload, spec, None)
}

/// [`run_traced`] with an additional caller-supplied
/// [`slipstream_mem::MemTracer`] attached for the duration of the run,
/// after the trace recorder when `spec.trace` is also enabled. Tracers
/// observe only, so the [`RunResult`] is bit-identical to an untraced
/// run; the caller keeps whatever shared handle its tracer exposes (e.g.
/// an `Rc` into collected state) and inspects it after the run returns.
pub fn run_full_with_tracer(
    workload: &dyn Workload,
    spec: &RunSpec,
    tracer: Box<dyn slipstream_mem::MemTracer>,
) -> (RunResult, Option<TraceData>) {
    run_inner(workload, spec, Some(tracer))
}

fn run_inner(
    workload: &dyn Workload,
    spec: &RunSpec,
    extra_tracer: Option<Box<dyn slipstream_mem::MemTracer>>,
) -> (RunResult, Option<TraceData>) {
    let cfg = spec.machine_for(workload);
    let (layout, placed) = instantiate(workload, spec.mode, spec.nodes, cfg.page_bytes);
    // Private pages are homed on their instance's node, first-touch
    // (shared_owned) pages on their task's node: that of its R or solo
    // stream. The streams are built, and `placed` freed, before the memory
    // system allocates its large cache arrays: in the other order every
    // run page-faulted those arrays afresh (35x the minor faults and 40%
    // more wall time on the benchmark's `fuzz-corpus` workload, whose
    // runs are tiny).
    let (mut inst_node, mut task_node) = (Vec::with_capacity(placed.len()), Vec::new());
    let (mut streams, mut pairs) = (Vec::with_capacity(placed.len()), Vec::new());
    for s in placed {
        inst_node.push(s.cpu.node());
        if s.role == StreamRole::A {
            let start = if spec.slip.ar_adaptive { ArSyncMode::ALL[0] } else { spec.slip.ar_sync };
            pairs.push(PairState::new(streams.len(), start, spec.slip.ar_adaptive));
        } else {
            task_node.push(s.cpu.node());
        }
        let pair = (s.role != StreamRole::Solo).then_some(s.task);
        streams.push(StreamExec::new(s.cpu, s.role, TaskId(s.task as u16), pair, s.prog.iter()));
    }
    let home = HomeMap::new(
        &layout,
        cfg.nodes,
        |inst| inst_node[inst.0 as usize],
        |task| task_node[task as usize],
    );
    let mut mem = MemSystem::new(&cfg, home, task_node.len() as u32);
    mem.set_si_interval(spec.slip.si_interval.max(1));
    let name = workload.name().to_string();
    Machine::assemble(name, cfg, spec, mem, streams, pairs, extra_tracer).run_traced()
}

/// Runs the sequential baseline: the whole problem as one task on a
/// one-node machine (all memory local, as with first-touch allocation).
/// This is the denominator of the paper's Figure 4.
pub fn run_sequential(workload: &dyn Workload) -> RunResult {
    run(workload, &RunSpec::new(1, ExecMode::Single))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_prog::{ProgBuilder, RegionKind};

    /// One compute op per task and one private region per instance,
    /// optionally on the Water machine.
    struct Toy {
        small_l2: bool,
    }

    impl Workload for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn small_l2(&self) -> bool {
            self.small_l2
        }

        fn instantiate(&self, _ntasks: usize, _layout: &mut Layout) -> crate::TaskBuilderFn {
            Box::new(|layout, inst, _task| {
                layout.private(inst, "scratch", 64);
                let mut b = ProgBuilder::new();
                b.compute(1);
                b.build("toy")
            })
        }
    }

    const PAPER: Toy = Toy { small_l2: false };
    const WATER: Toy = Toy { small_l2: true };

    #[test]
    fn machine_for_resolves_the_l2_the_override_and_nodes() {
        let spec = RunSpec::new(4, ExecMode::Single);
        assert_eq!(spec.machine_for(&PAPER), MachineConfig::with_nodes(4));
        assert_eq!(spec.machine_for(&WATER), MachineConfig::water(4));
        assert_eq!(spec.machine_for(&WATER).l2.bytes, 128 << 10);

        let migratory = MachineConfig { migratory_opt: true, ..MachineConfig::with_nodes(16) };
        let m = spec.with_machine(migratory).machine_for(&WATER);
        assert!(m.migratory_opt, "the override wins");
        assert_eq!(m.l2.bytes, 1 << 20, "the override wins over small_l2");
        assert_eq!(m.nodes, 4, "the spec's nodes apply to an override too");
    }

    #[test]
    fn named_resolves_every_name_and_nothing_else() {
        for name in RunSpec::NAMED {
            assert!(RunSpec::named(name, 2).is_some(), "{name}");
        }
        assert_eq!(RunSpec::named("single", 3), Some(RunSpec::new(3, ExecMode::Single)));
        assert_eq!(RunSpec::named("double", 3), Some(RunSpec::new(3, ExecMode::Double)));
        let g1 = SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal);
        let slip = RunSpec::new(2, ExecMode::Slipstream).with_slip(g1);
        assert_eq!(RunSpec::named("slipstream", 2), Some(slip));
        let si = RunSpec::named("slipstream+si", 2).expect("named");
        assert_eq!(si.mode, ExecMode::Slipstream);
        assert_eq!(si.slip, SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal));
        for other in ["", "slip", "Single", "slipstream+SI", "bogus"] {
            assert_eq!(RunSpec::named(other, 2), None, "{other}");
        }
    }

    #[test]
    fn instantiate_places_streams_as_in_figure_2() {
        let (layout, slip) = instantiate(&PAPER, ExecMode::Slipstream, 3, 4096);
        let roles: Vec<StreamRole> = slip.iter().map(|s| s.role).collect();
        use StreamRole::{A, R};
        assert_eq!(roles, [R, A, R, A, R, A]);
        for s in &slip {
            let a = u8::from(s.role == A);
            assert_eq!(s.inst, InstanceId(2 * s.task as u32 + u32::from(a)));
            assert_eq!(s.cpu, CpuId::new(NodeId(s.task as u16), a));
        }
        // Built in instance order, so private regions are laid out in it.
        let owners: Vec<RegionKind> = layout.regions().iter().map(|r| r.kind).collect();
        let expected: Vec<RegionKind> = (0..6).map(InstanceId).map(RegionKind::Private).collect();
        assert_eq!(owners, expected);
        assert_eq!(layout.page_bytes(), 4096);

        let (_, double) = instantiate(&PAPER, ExecMode::Double, 3, 4096);
        assert_eq!(double.len(), 6);
        for (t, s) in double.iter().enumerate() {
            assert_eq!((s.task, s.inst, s.role), (t, InstanceId(t as u32), StreamRole::Solo));
            assert_eq!(s.cpu, CpuId::new(NodeId((t / 2) as u16), (t % 2) as u8));
        }

        let (_, single) = instantiate(&PAPER, ExecMode::Single, 3, 4096);
        assert_eq!(single.len(), 3);
        for (t, s) in single.iter().enumerate() {
            assert_eq!((s.task, s.inst, s.role), (t, InstanceId(t as u32), StreamRole::Solo));
            assert_eq!(s.cpu, CpuId::new(NodeId(t as u16), 0));
        }
    }
}
