use slipstream_kernel::config::{DirScheme, ExecMode, MachineConfig, SlipstreamConfig};
use slipstream_kernel::{CpuId, NodeId, TaskId};
use slipstream_mem::{HomeMap, MemSystem, StreamRole};
use slipstream_prog::{InstanceId, Layout};

use crate::machine::Machine;
use crate::report::RunResult;
use crate::stream::{PairState, StreamExec};
use crate::trace::{TraceConfig, TraceData};
use crate::workload::Workload;

/// Everything needed to run one experiment: machine size, execution mode,
/// and slipstream knobs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Number of CMP nodes.
    pub nodes: u16,
    /// Execution mode (Figure 2).
    pub mode: ExecMode,
    /// Slipstream configuration (ignored outside slipstream mode).
    pub slip: SlipstreamConfig,
    /// Override the machine description (defaults to Table 1, honoring
    /// the workload's `small_l2` request).
    pub machine: Option<MachineConfig>,
    /// Override the directory sharer-tracking scheme on whatever machine
    /// description the run resolves to. `None` keeps the machine's own
    /// scheme (the full-map default). The default scheme is bit-identical
    /// to the historical protocol; `DirScheme::LimitedPointer` is an
    /// ablation that intentionally changes traffic.
    pub dir_scheme: Option<DirScheme>,
    /// Maximum cycles a processor may batch private work ahead of global
    /// time.
    pub quantum_cycles: u64,
    /// Cost of an `Input` operation (system call / I/O) in the R-stream.
    pub input_cycles: u64,
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
    /// A spec with default slipstream settings (one-token global,
    /// prefetch-only).
    pub fn new(nodes: u16, mode: ExecMode) -> RunSpec {
        RunSpec {
            nodes,
            mode,
            slip: SlipstreamConfig::default(),
            machine: None,
            dir_scheme: None,
            quantum_cycles: 200,
            input_cycles: 500,
            trace: TraceConfig::default(),
            fastpath: true,
        }
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

    /// Overrides the directory sharer-tracking scheme (see
    /// [`RunSpec::dir_scheme`]).
    pub fn with_dir_scheme(mut self, scheme: DirScheme) -> RunSpec {
        self.dir_scheme = Some(scheme);
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
}

/// Runs `workload` under `spec` and returns the measurements.
///
/// Task placement follows Figure 2 of the paper:
/// * **single** — one task per CMP, on core 0; core 1 idles;
/// * **double** — two tasks per CMP (2n tasks total);
/// * **slipstream** — per CMP, the R-stream on core 0 and its reduced
///   A-stream copy (with separate private data) on core 1.
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
    let mut cfg = spec.machine.clone().unwrap_or_else(|| {
        if workload.small_l2() {
            MachineConfig::water(spec.nodes)
        } else {
            MachineConfig::with_nodes(spec.nodes)
        }
    });
    cfg.nodes = spec.nodes;
    if let Some(scheme) = spec.dir_scheme {
        cfg.dir_scheme = scheme;
    }
    let ntasks = match spec.mode {
        ExecMode::Single | ExecMode::Slipstream => spec.nodes as usize,
        ExecMode::Double => spec.nodes as usize * 2,
    };
    let mut layout = Layout::with_page_size(cfg.page_bytes);
    let builder = workload.instantiate(ntasks, &mut layout);

    // (instance -> node) placement, recorded while creating streams.
    let mut placement: Vec<NodeId> = Vec::new();
    let mut streams: Vec<StreamExec> = Vec::new();
    let mut pairs: Vec<PairState> = Vec::new();
    let mut next_inst = 0u32;
    let mut mk = |layout: &mut Layout,
                  placement: &mut Vec<NodeId>,
                  task: usize,
                  cpu: CpuId,
                  role: StreamRole,
                  pair: Option<usize>| {
        let inst = InstanceId(next_inst);
        next_inst += 1;
        placement.push(cpu.node());
        let prog = builder(layout, inst, task);
        StreamExec::new(cpu, role, TaskId(task as u16), pair, prog.iter())
    };
    match spec.mode {
        ExecMode::Single => {
            for t in 0..ntasks {
                let cpu = CpuId::new(NodeId(t as u16), 0);
                streams.push(mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None));
            }
        }
        ExecMode::Double => {
            for t in 0..ntasks {
                let cpu = CpuId::new(NodeId((t / 2) as u16), (t % 2) as u8);
                streams.push(mk(&mut layout, &mut placement, t, cpu, StreamRole::Solo, None));
            }
        }
        ExecMode::Slipstream => {
            for t in 0..ntasks {
                let node = NodeId(t as u16);
                streams.push(mk(
                    &mut layout,
                    &mut placement,
                    t,
                    CpuId::new(node, 0),
                    StreamRole::R,
                    Some(t),
                ));
                let a_idx = streams.len();
                streams.push(mk(
                    &mut layout,
                    &mut placement,
                    t,
                    CpuId::new(node, 1),
                    StreamRole::A,
                    Some(t),
                ));
                let start = if spec.slip.ar_adaptive {
                    slipstream_kernel::config::ArSyncMode::ALL[0]
                } else {
                    spec.slip.ar_sync
                };
                pairs.push(PairState::new(a_idx, start, spec.slip.ar_adaptive));
            }
        }
    }

    // Task -> node placement for first-touch (shared_owned) pages.
    let task_node = |task: u32| -> NodeId {
        match spec.mode {
            ExecMode::Single | ExecMode::Slipstream => NodeId(task as u16),
            ExecMode::Double => NodeId((task / 2) as u16),
        }
    };
    let home = HomeMap::new(&layout, cfg.nodes, |inst| placement[inst.0 as usize], task_node);
    let mut mem = MemSystem::new(&cfg, home, ntasks as u32);
    mem.set_si_interval(spec.slip.si_interval.max(1));

    let machine = Machine::assemble(
        workload.name().to_string(),
        cfg,
        spec.slip,
        spec.mode,
        mem,
        streams,
        pairs,
        spec.quantum_cycles,
        spec.input_cycles,
        ntasks,
        spec.trace,
        spec.fastpath,
        extra_tracer,
    );
    machine.run_traced()
}

/// Runs the sequential baseline: the whole problem as one task on a
/// one-node machine (all memory local, as with first-touch allocation).
/// This is the denominator of the paper's Figure 4.
pub fn run_sequential(workload: &dyn Workload) -> RunResult {
    run(workload, &RunSpec::new(1, ExecMode::Single))
}
