//! The paper's tables and figures, one render function each.
//!
//! A [`Render`] function asks a [`Runner`] for the runs it needs, in the
//! loops that print them, and returns its text. [`Figures::render`] calls
//! each selected figure twice: first against a recording runner, which
//! answers with zero placeholders and collects every run into one
//! [`Plan`]; then, after that plan has simulated each distinct run once,
//! against the plan's results. Placeholders are safe: the figures compute
//! in `f64` and the ratio helpers return zero for empty counts. The only
//! choice that depends on results, the best A-R method, picks among four
//! runs the figure always requests, so one recording pass finds them all.

use std::collections::HashMap;
use std::fmt::Write;

use slipstream_core::{
    ArSyncMode, ClassCounts, DirScheme, ExecMode, MachineConfig, MemStats, RunResult, RunSpec,
    SlipstreamConfig, StreamRole, TimeBreakdown, Workload,
};
use slipstream_prog::{Layout, Op, RegionKind};
use slipstream_workloads::Sor;

use crate::{Cli, Plan, Rejected, Renamed, RunKey};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($out:expr $(, $($t:tt)*)?) => {{
        let _ = writeln!($out $(, $($t)*)?);
    }};
}

/// A figure: requests its runs from the runner and returns its text.
pub type Render = for<'f> fn(&mut Runner<'f>, &'f Figures) -> String;

/// Every figure, by the name of the file it is written to, in paper order.
pub const FIGURES: [(&str, Render); 11] = [
    ("table2", table2),
    ("fig1", fig1),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("summary", summary),
    ("ablation", ablation),
    ("fig_scaling", fig_scaling),
];

/// The figure named `name`.
fn figure(name: &str) -> Option<Render> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, render)| render)
}

/// What the figures are rendered over, built once from the command line.
pub struct Figures {
    quick: bool,
    suite: Vec<Box<dyn Workload>>,
    /// The CMP-count sweep (paper: 2, 4, 8, 16).
    sweep: Vec<u16>,
    /// CMPs of the ablation studies: the last `--nodes` value, else 8.
    ablation_nodes: u16,
    /// The scaling study's weak-scaled SOR, one instance per node count
    /// (`--nodes`, else 4 to 256), each under a distinct name so the run
    /// cache never conflates sizes.
    scaling: Vec<(u16, Renamed<Sor>)>,
}

impl Figures {
    /// The figures' configuration under `cli`'s flags.
    pub fn new(cli: &Cli) -> Figures {
        let scaling_nodes = cli.nodes.clone().unwrap_or_else(|| vec![4, 16, 64, 128, 256]);
        let scaling = scaling_nodes
            .into_iter()
            .map(|n| {
                let mut w = Sor::scaled(n);
                if cli.quick {
                    // CI smoke: half the rows per node, one fewer sweep pair.
                    w.n = (2 * u64::from(n)).max(128);
                    w.iters = 2;
                }
                (n, Renamed::new(format!("SOR{}", w.n), w))
            })
            .collect();
        Figures {
            quick: cli.quick,
            suite: cli.suite(),
            sweep: cli.sweep(),
            ablation_nodes: cli.nodes.as_ref().and_then(|n| n.last().copied()).unwrap_or(8),
            scaling,
        }
    }

    /// Renders the figures named `names`, in order, after simulating every
    /// distinct run they request once on up to `jobs` threads (with the
    /// protocol checker attached under `check`).
    ///
    /// # Errors
    ///
    /// A run the protocol checker rejected; nothing is rendered from it.
    ///
    /// # Panics
    ///
    /// On a name that is not in [`FIGURES`].
    pub fn render(
        &self,
        names: &[&str],
        jobs: usize,
        check: bool,
    ) -> Result<Vec<String>, Box<Rejected>> {
        let render = |n: &&str| figure(n).unwrap_or_else(|| panic!("unknown figure {n}"));
        let renders: Vec<Render> = names.iter().map(render).collect();
        let mut runner = Runner { plan: Plan::new(), answers: None };
        for render in &renders {
            render(&mut runner, self);
        }
        let results = runner.plan.execute(jobs, check)?;
        runner.answers = Some(runner.plan.keys().zip(results).collect());
        Ok(renders.iter().map(|render| render(&mut runner, self)).collect())
    }

    /// The suite, borrowed for the runner.
    fn suite(&self) -> impl Iterator<Item = &dyn Workload> {
        self.suite.iter().map(|w| w.as_ref())
    }

    /// The largest swept CMP count (paper: 16), where Figures 6 and 7 and
    /// the headline comparisons are taken.
    fn top(&self) -> u16 {
        *self.sweep.last().expect("the sweep has at least one node count")
    }

    /// A benchmark's headline CMP count (§4.3): [`Figures::top`], but 4
    /// for FFT.
    fn headline_nodes(&self, w: &dyn Workload) -> u16 {
        if w.name() == "FFT" { 4 } else { self.top() }
    }

    /// The benchmarks of Figures 9 and 10 at their headline CMP count. At
    /// paper size the paper leaves out LU and Water-SP, which have no
    /// stall time for slipstream to recover.
    fn section4(&self) -> impl Iterator<Item = (&dyn Workload, u16)> {
        self.suite()
            .filter(|w| self.quick || !matches!(w.name(), "LU" | "WATER-SP"))
            .map(|w| (w, self.headline_nodes(w)))
    }

    /// The header row of a table over the CMP sweep.
    fn sweep_header(&self, out: &mut String, label: &str) {
        let cols: Vec<String> = self.sweep.iter().map(|n| format!("{n}CMP")).collect();
        header(out, label, &cols);
    }
}

/// The runs the figures read: recording, then answering.
pub struct Runner<'f> {
    /// Every requested run, in request order.
    plan: Plan<'f>,
    /// The result of every planned run, once the plan has executed.
    answers: Option<HashMap<RunKey, RunResult>>,
}

impl<'f> Runner<'f> {
    /// The result of `w` under `spec`: a zero placeholder while recording,
    /// else the planned run's result.
    ///
    /// # Panics
    ///
    /// When answering, on a run that was not requested while recording.
    pub fn run(&mut self, w: &'f dyn Workload, spec: &RunSpec) -> RunResult {
        let Some(answers) = &self.answers else {
            self.plan.add(w, spec.clone());
            let (name, mode, nodes) = (w.name().into(), spec.mode, spec.nodes);
            let (streams, mem) = (Vec::new(), MemStats::default());
            let (tasks, exec_cycles, recoveries, host_events) = (0, 0, 0, 0);
            return RunResult {
                name, mode, nodes, tasks, exec_cycles, streams, mem, recoveries, host_events,
            };
        };
        let key = RunKey::new(w, spec);
        let Some(result) = answers.get(&key) else {
            panic!("{key:?} was not requested while recording");
        };
        result.clone()
    }

    /// Single-mode baseline at `nodes` CMPs.
    pub fn single(&mut self, w: &'f dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Single))
    }

    /// Double-mode run at `nodes` CMPs.
    pub fn double(&mut self, w: &'f dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Double))
    }

    /// Slipstream run with the given configuration.
    pub fn slipstream(&mut self, w: &'f dyn Workload, n: u16, slip: SlipstreamConfig) -> RunResult {
        self.run(w, &RunSpec::new(n, ExecMode::Slipstream).with_slip(slip))
    }

    /// Execution cycles of the better of single and double mode (the
    /// paper's "next best mode" baseline).
    pub fn best_conventional(&mut self, w: &'f dyn Workload, nodes: u16) -> u64 {
        let s = self.single(w, nodes).exec_cycles;
        let d = self.double(w, nodes).exec_cycles;
        s.min(d)
    }

    /// The fastest prefetch-only slipstream run over the four A-R
    /// synchronization methods, with its method.
    pub fn best_prefetch(&mut self, w: &'f dyn Workload, nodes: u16) -> (ArSyncMode, RunResult) {
        ArSyncMode::ALL
            .map(|ar| (ar, self.slipstream(w, nodes, SlipstreamConfig::prefetch_only(ar))))
            .into_iter()
            .min_by_key(|(_, res)| res.exec_cycles)
            .expect("four candidates")
    }
}

/// A row of `f64` cells after a left-justified label.
fn row(out: &mut String, label: &str, cells: &[f64]) {
    let cells: String = cells.iter().map(|c| format!(" {c:>8.3}")).collect();
    outln!(out, "{label:<12}{cells}");
}

/// A header row.
fn header(out: &mut String, label: &str, cols: &[String]) {
    let cols: String = cols.iter().map(|c| format!(" {c:>8}")).collect();
    outln!(out, "{label:<12}{cols}");
}

/// The change of `a` over `b`, in percent.
fn delta_pct(a: u64, b: u64) -> f64 {
    100.0 * (a as f64 / b as f64 - 1.0)
}

/// Table 2: the benchmark suite and its data-set sizes, plus the derived
/// program characteristics of our access-pattern reimplementations.
fn table2<'f>(_: &mut Runner<'f>, f: &'f Figures) -> String {
    let mut out = String::from("# Table 2: benchmarks and data set sizes\n");
    let cols = ["benchmark", "shared bytes", "ops/task", "barriers", "locks"];
    outln!(out, "{:<12} {:>14} {:>12} {:>12} {:>10}", cols[0], cols[1], cols[2], cols[3], cols[4]);
    for w in f.suite() {
        let mut layout = Layout::new();
        let build = w.instantiate(4, &mut layout);
        let prog = build(&mut layout, slipstream_prog::InstanceId(0), 0);
        let (mut ops, mut barriers, mut locks) = (0u64, 0u64, 0u64);
        for op in prog.iter() {
            ops += 1;
            match op {
                Op::Barrier(_) => barriers += 1,
                Op::Lock(_) => locks += 1,
                _ => {}
            }
        }
        let shared: u64 = layout
            .regions()
            .iter()
            .filter(|r| !matches!(r.kind, RegionKind::Private(_)))
            .map(|r| r.bytes)
            .sum();
        outln!(out, "{:<12} {:>14} {:>12} {:>12} {:>10}", w.name(), shared, ops, barriers, locks);
    }
    out
}

/// Figure 1: speedup of two tasks per CMP (double mode) relative to one
/// task per CMP (single mode), over the CMP sweep.
fn fig1<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let mut out = String::from("# Figure 1: double-mode speedup over single mode\n");
    f.sweep_header(&mut out, "benchmark");
    for w in f.suite() {
        let cells: Vec<f64> = f
            .sweep
            .iter()
            .map(|&n| {
                let single = r.single(w, n);
                r.double(w, n).speedup_over(&single)
            })
            .collect();
        row(&mut out, w.name(), &cells);
    }
    out
}

/// Figure 4: speedup of single-mode execution over sequential execution,
/// over the CMP sweep.
fn fig4<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let mut out = String::from("# Figure 4: single-mode speedup over sequential execution\n");
    f.sweep_header(&mut out, "benchmark");
    for w in f.suite() {
        // The sequential baseline (`run_sequential`) is exactly a
        // single-mode run on one node.
        let seq = r.single(w, 1);
        let cells: Vec<f64> = f.sweep.iter().map(|&n| r.single(w, n).speedup_over(&seq)).collect();
        row(&mut out, w.name(), &cells);
    }
    out
}

/// Figure 5: speedup of slipstream mode (all four A-R synchronization
/// methods) and double mode, relative to single mode, over the CMP sweep.
fn fig5<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let mut out = String::from("# Figure 5: slipstream (L1/L0/G1/G0) and double vs single mode\n");
    for w in f.suite() {
        outln!(out, "\n## {}", w.name());
        f.sweep_header(&mut out, "config");
        let singles: Vec<RunResult> = f.sweep.iter().map(|&n| r.single(w, n)).collect();
        let runs = f.sweep.iter().zip(&singles);
        let cells: Vec<f64> = runs.map(|(&n, s)| r.double(w, n).speedup_over(s)).collect();
        row(&mut out, "double", &cells);
        for ar in ArSyncMode::ALL {
            let slip = SlipstreamConfig::prefetch_only(ar);
            let runs = f.sweep.iter().zip(&singles);
            let cells: Vec<f64> =
                runs.map(|(&n, s)| r.slipstream(w, n, slip).speedup_over(s)).collect();
            row(&mut out, ar.label(), &cells);
        }
    }
    out
}

/// Figure 6: execution-time breakdown for single (S), double (D), and
/// slipstream (R- and A-stream) modes at the top CMP count, relative to
/// single mode, using the best prefetch-only A-R synchronization method
/// per benchmark.
fn fig6<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    fn bar(out: &mut String, label: &str, b: &TimeBreakdown, base: u64) {
        let pct = |x: u64| 100.0 * x as f64 / base as f64;
        let cells = [pct(b.busy), pct(b.mem_stall), pct(b.ar_sync), pct(b.barrier), pct(b.lock)];
        let total: f64 = cells.iter().sum();
        let cells: String = cells.iter().map(|c| format!(" {c:>7.1}")).collect();
        outln!(out, "{label:<14}{cells} {total:>7.1}");
    }

    let nodes = f.top();
    let mut out = String::new();
    outln!(out, "# Figure 6: execution time breakdown at {nodes} CMPs (% of single mode)");
    let cols: String =
        ["busy", "stall", "A-R", "barrier", "lock", "total"].map(|c| format!(" {c:>7}")).concat();
    outln!(out, "{:<14}{cols}", "");
    for w in f.suite() {
        let single = r.single(w, nodes);
        let double = r.double(w, nodes);
        let (_, best) = r.best_prefetch(w, nodes);
        let base = single.exec_cycles;
        outln!(out, "\n## {} (best A-R sync of slipstream run shown)", w.name());
        bar(&mut out, "S: single", &single.avg_breakdown(StreamRole::Solo), base);
        bar(&mut out, "D: double", &double.avg_breakdown(StreamRole::Solo), base);
        bar(&mut out, "R: R-stream", &best.avg_breakdown(StreamRole::R), base);
        bar(&mut out, "A: A-stream", &best.avg_breakdown(StreamRole::A), base);
    }
    out
}

/// Figure 7: breakdown of memory requests for shared data (A/R x
/// Timely/Late/Only), for reads (top) and exclusive requests (bottom),
/// under each A-R synchronization method, at the top CMP count.
fn fig7<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    fn classes(out: &mut String, label: &str, c: &ClassCounts) {
        let cells: String = c.percentages().iter().map(|p| format!(" {p:>8.1}")).collect();
        outln!(out, "{label:<14}{cells}");
    }

    let nodes = f.top();
    let mut out = String::new();
    outln!(out, "# Figure 7: shared-data request classification at {nodes} CMPs (%)");
    let cols = ["A-Timely", "A-Late", "A-Only", "R-Timely", "R-Late", "R-Only"];
    outln!(out, "{:<14}{}", "", cols.map(|c| format!(" {c:>8}")).concat());
    let slip = SlipstreamConfig::prefetch_only;
    for w in f.suite() {
        outln!(out, "\n## {} — reads", w.name());
        let runs = ArSyncMode::ALL.map(|ar| (ar, r.slipstream(w, nodes, slip(ar))));
        runs.iter().for_each(|(ar, res)| classes(&mut out, ar.label(), &res.mem.class.reads));
        outln!(out, "## {} — exclusive requests", w.name());
        runs.iter().for_each(|(ar, res)| classes(&mut out, ar.label(), &res.mem.class.excl));
    }
    out
}

/// Figure 9: transparent-load breakdown — the percentage of A-stream read
/// requests issued as transparent loads, split into those receiving
/// transparent replies and those upgraded to normal loads. One-token
/// global synchronization, at the headline CMP counts.
fn fig9<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let slip = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let mut out = String::new();
    outln!(out, "# Figure 9: transparent load breakdown (% of A-stream read requests)");
    let cols = ["benchmark", "transparent", "trans-replies", "upgraded"];
    outln!(out, "{:<12} {:>12} {:>14} {:>12}", cols[0], cols[1], cols[2], cols[3]);
    for (w, nodes) in f.section4() {
        let res = r.slipstream(w, nodes, slip);
        let total = res.mem.transparent_pct();
        let trans = total * res.mem.transparent_reply_pct() / 100.0;
        outln!(out, "{:<12} {:>12.1} {:>14.1} {:>12.1}", w.name(), total, trans, total - trans);
    }
    out
}

/// Figure 10: speedup of slipstream mode over the best of single and
/// double modes, for three slipstream configurations: prefetching only,
/// prefetching + transparent loads, and prefetching + transparent loads +
/// self-invalidation. One-token global synchronization, at the headline
/// CMP counts.
fn fig10<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let ar = ArSyncMode::OneTokenGlobal;
    let slips = [
        SlipstreamConfig::prefetch_only(ar),
        SlipstreamConfig::with_transparent(ar),
        SlipstreamConfig::with_self_invalidation(ar),
    ];
    let mut out = String::new();
    outln!(out, "# Figure 10: slipstream speedup over best(single, double), G1 sync");
    outln!(out, "{:<12} {:>10} {:>10} {:>10}", "benchmark", "prefetch", "+transp", "+SI");
    for (w, nodes) in f.section4() {
        let best = r.best_conventional(w, nodes) as f64;
        let s = slips.map(|slip| best / r.slipstream(w, nodes, slip).exec_cycles as f64);
        outln!(out, "{:<12} {:>10.3} {:>10.3} {:>10.3}", w.name(), s[0], s[1], s[2]);
    }
    out
}

/// Headline comparison (§3.4 / abstract): slipstream vs the best of
/// single and double mode at the headline CMP counts, with the best A-R
/// synchronization method per benchmark, prefetching only and with SI.
fn summary<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let si_slip = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let mut out = String::from("# Slipstream vs best conventional mode\n");
    let cols = ["benchmark", "CMPs", "best-conv", "prefetch", "best-AR", "gain%", "gain+SI%"];
    outln!(
        out,
        "{:<12} {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}",
        cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6]
    );
    for w in f.suite() {
        let nodes = f.headline_nodes(w);
        let best = r.best_conventional(w, nodes) as f64;
        let (best_ar, pf) = r.best_prefetch(w, nodes);
        let (pf, si) = (pf.exec_cycles as f64, r.slipstream(w, nodes, si_slip).exec_cycles as f64);
        outln!(
            out,
            "{:<12} {:>6} {:>10.0} {:>10.0} {:>8} {:>9.1}% {:>9.1}%",
            w.name(),
            nodes,
            best,
            pf,
            best_ar.label(),
            100.0 * (best / pf - 1.0),
            100.0 * (best / si - 1.0),
        );
    }
    out
}

/// Ablation studies over the slipstream design choices called out in
/// DESIGN.md: the migratory directory optimization, exclusive-prefetch
/// conversion, the self-invalidation drain rate, and the A-R token budget.
fn ablation<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let nodes = f.ablation_nodes;
    let ar = ArSyncMode::OneTokenGlobal;
    let prefetch = SlipstreamConfig::prefetch_only(ar);
    let no_excl = SlipstreamConfig { exclusive_prefetch: false, ..prefetch };
    let si = |si_interval| SlipstreamConfig {
        si_interval,
        ..SlipstreamConfig::with_self_invalidation(ar)
    };
    let capped = |max_tokens| SlipstreamConfig {
        max_tokens,
        ..SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenLocal)
    };
    let mut out = String::new();

    outln!(out, "# Ablation 0: migratory-sharing directory optimization (extension)");
    outln!(out, "{:<12} {:>12} {:>12} {:>8}", "benchmark", "off", "on", "delta%");
    for w in f.suite() {
        let single = RunSpec::new(nodes, ExecMode::Single);
        let mc = MachineConfig { migratory_opt: true, ..single.machine_for(w) };
        let off = r.single(w, nodes).exec_cycles;
        let on = r.run(w, &single.with_machine(mc)).exec_cycles;
        outln!(out, "{:<12} {:>12} {:>12} {:>7.1}%", w.name(), off, on, delta_pct(off, on));
    }

    outln!(out, "# Ablation 1: exclusive-prefetch conversion (S3.3), {nodes} CMPs");
    outln!(out, "{:<12} {:>12} {:>12} {:>8}", "benchmark", "with", "without", "delta%");
    for w in f.suite() {
        let on = r.slipstream(w, nodes, prefetch).exec_cycles;
        let off = r.slipstream(w, nodes, no_excl).exec_cycles;
        outln!(out, "{:<12} {:>12} {:>12} {:>7.1}%", w.name(), on, off, delta_pct(off, on));
    }

    outln!(out, "\n# Ablation 2: self-invalidation drain interval (paper: 4 cycles/line)");
    outln!(out, "{:<12} {:>10} {:>10} {:>10} {:>10}", "benchmark", "1", "4", "16", "64");
    for w in f.suite() {
        let c = [1, 4, 16, 64].map(|iv| r.slipstream(w, nodes, si(iv)).exec_cycles);
        outln!(out, "{:<12} {:>10} {:>10} {:>10} {:>10}", w.name(), c[0], c[1], c[2], c[3]);
    }

    outln!(out, "\n# Ablation 3: A-R token budget cap (sessions the A-stream may bank)");
    outln!(out, "{:<12} {:>10} {:>10} {:>10}", "benchmark", "cap=1", "cap=2", "uncapped");
    for w in f.suite() {
        let c = [1, 2, u32::MAX].map(|cap| r.slipstream(w, nodes, capped(cap)).exec_cycles);
        outln!(out, "{:<12} {:>10} {:>10} {:>10}", w.name(), c[0], c[1], c[2]);
    }
    out
}

/// Pointer budget of the scaling study's limited-pointer ablation: small
/// enough that boundary-row re-reads overflow it, matching the DiriB
/// schemes the directory literature studies.
const ABLATION_PTRS: u8 = 1;

/// Scaling study (extension): simulated speedup and slipstream/SI benefit
/// as the machine grows from 4 to 256 nodes, on weak-scaled SOR (the grid
/// keeps 4 rows per node, so every node has work at every size), plus the
/// limited-pointer directory ablation.
///
/// The paper stops at 16 CMPs; this figure exercises the compact
/// `SharerSet` directory representation beyond the old 128-node cap. Each
/// node count gets its own 1-node sequential baseline of the *same*
/// problem size, so the speedups are honest weak-scaling numbers. The
/// second section switches the directory to `DirScheme::LimitedPointer`
/// (broadcast on overflow) in the write-heavy single mode, where
/// invalidation fan-out is on the critical path, and reports how protocol
/// traffic diverges from the default full-map scheme.
fn fig_scaling<'f>(r: &mut Runner<'f>, f: &'f Figures) -> String {
    let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let lp = DirScheme::limited(ABLATION_PTRS);
    let mut out = String::new();
    outln!(out, "# Scaling study: weak-scaled SOR, speedup over the 1-node sequential run");
    outln!(out, "# (grid rows = 4N; each node count is its own problem size and baseline)");
    let cols = ["grid", "single", "slip", "slip+si", "slip/sgl", "si/slip"];
    header(&mut out, "nodes", &cols.map(String::from));
    for (n, w) in &f.scaling {
        let seq = r.single(w, 1);
        let s_single = r.single(w, *n).speedup_over(&seq);
        let s_slip = r.run(w, &RunSpec::new(*n, ExecMode::Slipstream)).speedup_over(&seq);
        let s_si = r.slipstream(w, *n, si).speedup_over(&seq);
        let grid = format!("{0}x{0}", w.name().trim_start_matches("SOR"));
        outln!(
            out,
            "{n:<12} {grid:>8} {s_single:>8.3} {s_slip:>8.3} {s_si:>8.3} {:>8.3} {:>8.3}",
            s_slip / s_single,
            s_si / s_slip,
        );
    }

    outln!(out);
    outln!(
        out,
        "# Limited-pointer directory ablation: DiriB with {ABLATION_PTRS} pointer(s), \
         overflow = broadcast (single mode)"
    );
    outln!(out, "# full-map columns first, then the limited-pointer deltas");
    let cols = ["nodes", "fm_cycles", "fm_inv", "lp_cycles", "lp_inv", "lp_bcast", "cycles%"];
    outln!(
        out,
        "{:<12} {:>12} {:>10} {:>12} {:>10} {:>10} {:>9}",
        cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6]
    );
    for (n, w) in &f.scaling {
        let fm = r.single(w, *n);
        let single = RunSpec::new(*n, ExecMode::Single);
        let mc = MachineConfig { dir_scheme: lp, ..single.machine_for(w) };
        let l = r.run(w, &single.with_machine(mc));
        outln!(
            out,
            "{n:<12} {:>12} {:>10} {:>12} {:>10} {:>10} {:>+8.2}%",
            fm.exec_cycles,
            fm.mem.invalidations_sent,
            l.exec_cycles,
            l.mem.invalidations_sent,
            l.mem.broadcast_invalidations,
            delta_pct(l.exec_cycles, fm.exec_cycles),
        );
    }
    out
}
