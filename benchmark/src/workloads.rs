//! The four workloads: what each sets up before timing starts, and what
//! one timed pass runs.
//!
//! * `paper-headline` — the 63 cells users regenerate for the paper's
//!   headline (`summary`): nine benchmarks at paper size, 16 CMPs (FFT at
//!   4), in single, double, prefetch-only slipstream under each A-R
//!   method, and slipstream with self-invalidation. The simulate loop
//!   does nearly all the work.
//! * `scale-256` — weak-scaled SOR at 64, 128 and 256 CMPs, single and
//!   slipstream+SI: per-node and sharer-set costs dominate.
//! * `quick-observed` — the quick suite in 4 modes at 4 CMPs, each cell
//!   run untraced, traced and exported, and protocol-checked: the same
//!   simulation three ways, so the difference is the observation layer.
//! * `fuzz-corpus` — 216 generated sharing-pattern programs from the
//!   seed at 2 CMPs through the fuzz stages: tiny simulations, so machine
//!   construction and the static checkers dominate.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::golden::Expect;
use crate::layers::{self, Counts, Diags, Mode, Outcome, Subject};
use crate::spans::{Totals, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's headline comparison at paper size.
    PaperHeadline,
    /// Weak-scaled SOR up to 256 CMPs.
    Scale256,
    /// The quick suite untraced, traced and checked.
    QuickObserved,
    /// The generated fuzz corpus through every fuzz stage.
    FuzzCorpus,
}

impl Kind {
    /// Every workload, in the order the all-workloads run uses.
    pub const ALL: [Kind; 4] = [
        Kind::PaperHeadline,
        Kind::Scale256,
        Kind::QuickObserved,
        Kind::FuzzCorpus,
    ];

    /// The name used on the command line and in file names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperHeadline => "paper-headline",
            Kind::Scale256 => "scale-256",
            Kind::QuickObserved => "quick-observed",
            Kind::FuzzCorpus => "fuzz-corpus",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The committed golden file (see [`crate::golden`]).
    pub fn golden(self) -> &'static str {
        match self {
            Kind::PaperHeadline => include_str!("../golden/paper-headline.txt"),
            Kind::Scale256 => include_str!("../golden/scale-256.txt"),
            Kind::QuickObserved => include_str!("../golden/quick-observed.txt"),
            Kind::FuzzCorpus => include_str!("../golden/fuzz-corpus.txt"),
        }
    }

    /// Where `--bless` writes the golden file.
    pub fn golden_path(self) -> String {
        format!("{}/golden/{}.txt", env!("CARGO_MANIFEST_DIR"), self.name())
    }
}

/// CMP count of every fuzz-corpus run (the fuzz loop's default).
const FUZZ_NODES: u16 = 2;

/// CMP counts of the scale study, one weak-scaled SOR each.
const SCALE_NODES: [u16; 3] = [64, 128, 256];

/// One simulated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`Setup::subjects`].
    pub subject: usize,
    /// CMPs.
    pub nodes: u16,
    /// Execution mode.
    pub mode: Mode,
}

/// What a workload builds before timing starts.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// Benchmarks or generated programs.
    pub subjects: Vec<Subject>,
    /// The untraced runs of one pass, in order.
    pub cells: Vec<Cell>,
    /// DSL ops of each cell's programs, R and A streams alike.
    pub ops: Vec<u64>,
    /// Wall seconds of each set-up repetition.
    pub rep_s: Vec<f64>,
    /// Span totals of each set-up repetition.
    pub rep_totals: Vec<Totals>,
    /// Ops drained per set-up repetition to count them (`prog.drain`).
    pub drained_ops: u64,
    /// Operations attempted during set-up.
    pub attempted: u64,
    /// Failed set-up operations.
    pub failures: Vec<String>,
}

impl Setup {
    /// `<subject>@<nodes>/<mode>`, the name golden files use.
    pub fn cell_name(&self, c: &Cell) -> String {
        format!(
            "{}@{}/{}",
            self.subjects[c.subject].name,
            c.nodes,
            c.mode.label()
        )
    }
}

fn subjects(kind: Kind, seed: u64, smoke: bool, t: &mut Tracer) -> Vec<Subject> {
    match kind {
        Kind::PaperHeadline => layers::paper_suite(),
        Kind::Scale256 => SCALE_NODES.map(layers::sor_scaled).into(),
        Kind::QuickObserved => layers::quick_suite(),
        Kind::FuzzCorpus => layers::corpus(t, seed, if smoke { 1 } else { layers::CORPUS_COUNT }),
    }
}

fn cells(kind: Kind, subjects: &[Subject]) -> Vec<Cell> {
    let quick4 = [
        Mode::Single,
        Mode::Double,
        Mode::slip_default(),
        Mode::SlipSi,
    ];
    let mut out = Vec::new();
    for (subject, s) in subjects.iter().enumerate() {
        let (nodes, modes): (u16, Vec<Mode>) = match kind {
            Kind::PaperHeadline => {
                let mut m = vec![Mode::Single, Mode::Double];
                m.extend((0..Mode::AR_METHODS).map(Mode::Slip));
                m.push(Mode::SlipSi);
                // The paper reports FFT at 4 CMPs, where it peaks.
                (if s.name == "FFT" { 4 } else { 16 }, m)
            }
            Kind::Scale256 => (SCALE_NODES[subject], vec![Mode::Single, Mode::SlipSi]),
            Kind::QuickObserved => (4, quick4.to_vec()),
            Kind::FuzzCorpus => (FUZZ_NODES, quick4.to_vec()),
        };
        out.extend(modes.into_iter().map(|mode| Cell {
            subject,
            nodes,
            mode,
        }));
    }
    out
}

/// Programs are shared by cells with the same subject, node count and
/// task structure.
type ProgKey = (usize, u16, (usize, bool));

fn prog_key(c: &Cell) -> ProgKey {
    (c.subject, c.nodes, c.mode.tasks(c.nodes))
}

/// The set-up: makes the subjects, builds every cell's programs and
/// counts their ops. Runs `reps` times, each timed; the last repetition's
/// results are kept.
pub fn setup(kind: Kind, seed: u64, smoke: bool, reps: usize, t: &mut Tracer) -> Setup {
    let (mut rep_s, mut rep_totals) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        t.take_totals();
        let start = Instant::now();
        let s = t.span("setup", |t| setup_once(kind, seed, smoke, t));
        rep_s.push(start.elapsed().as_secs_f64());
        rep_totals.push(t.take_totals());
        last = Some(s);
    }
    let mut s = last.expect("at least one set-up repetition");
    s.rep_s = rep_s;
    s.rep_totals = rep_totals;
    s
}

fn setup_once(kind: Kind, seed: u64, smoke: bool, t: &mut Tracer) -> Setup {
    let subjects = subjects(kind, seed, smoke, t);
    let mut cells = cells(kind, &subjects);
    if smoke {
        // One cell, or for the corpus one program in all its modes.
        let first = cells[0].subject;
        cells.retain(|c| c.subject == first);
        if kind != Kind::FuzzCorpus {
            cells.truncate(1);
        }
    }
    let mut s = Setup {
        kind,
        subjects,
        cells,
        ops: Vec::new(),
        rep_s: Vec::new(),
        rep_totals: Vec::new(),
        drained_ops: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut counted: BTreeMap<ProgKey, u64> = BTreeMap::new();
    for c in &s.cells {
        let n = *counted.entry(prog_key(c)).or_insert_with(|| {
            s.attempted += 1;
            let w = &s.subjects[c.subject];
            let n = layers::build(t, w, c.nodes, c.mode)
                .and_then(|p| layers::count_ops(t, &p))
                .unwrap_or_else(|e| {
                    s.failures.push(format!("build {}: {e}", w.name));
                    0
                });
            s.drained_ops += n;
            n
        });
        s.ops.push(n);
    }
    s
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Inclusive time and calls per span name.
    pub totals: Totals,
    /// DSL ops executed by the untraced runs.
    pub ops: u64,
    /// Counters summed over the untraced runs.
    pub counts: Counts,
    /// `core.run` nanoseconds of the cells that were also traced.
    pub traced_base_ns: u64,
    /// `core.run` nanoseconds of the cells that were also checked.
    pub checked_base_ns: u64,
    /// Trace records of the traced runs.
    pub records: u64,
    /// Static diagnostics (fuzz corpus).
    pub diags: Diags,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Each untraced run's result, in cell order.
    pub cells: Vec<(String, Expect)>,
}

/// Runs one pass of the workload.
pub fn pass(s: &Setup, t: &mut Tracer) -> Pass {
    t.take_totals();
    let mut p = Pass::default();
    let start = Instant::now();
    t.span("pass", |t| {
        if s.kind == Kind::FuzzCorpus {
            let mut i = 0;
            while i < s.cells.len() {
                let subject = s.cells[i].subject;
                let n = s.cells[i..]
                    .iter()
                    .take_while(|c| c.subject == subject)
                    .count();
                t.cell(|t| fuzz_program(s, i..i + n, t, &mut p));
                i += n;
            }
        } else {
            (0..s.cells.len()).for_each(|i| t.cell(|t| sim_cell(s, i, t, &mut p)));
        }
    });
    p.wall_s = start.elapsed().as_secs_f64();
    p.totals = t.take_totals();
    p
}

/// Runs cell `i` untraced and records it; on `quick-observed` also traced
/// and checked, and on `fuzz-corpus` checked in single and slipstream+SI
/// mode, each required to reproduce the untraced result exactly.
fn sim_cell(s: &Setup, i: usize, t: &mut Tracer, p: &mut Pass) {
    let c = &s.cells[i];
    let w = &s.subjects[c.subject];
    let name = s.cell_name(c);
    p.attempted += 1;
    let before = t.total_ns("core.run");
    let base = match layers::run(t, w, c.nodes, c.mode) {
        Ok(o) => o,
        Err(e) => return p.failures.push(format!("{name}: {e}")),
    };
    let run_ns = t.total_ns("core.run") - before;
    p.ops += s.ops[i];
    p.counts.add(&base.counts);
    p.cells.push((
        name.clone(),
        Expect {
            cycles: base.cycles,
            digest: base.digest,
        },
    ));

    let same = |what: &str, got: Result<Outcome, String>, p: &mut Pass| match got {
        Ok(o) if o == base => {}
        Ok(o) => p.failures.push(format!(
            "{name}: {what} result differs from untraced ({} vs {} cycles)",
            o.cycles, base.cycles
        )),
        Err(e) => p.failures.push(format!("{name}: {what}: {e}")),
    };
    if s.kind == Kind::QuickObserved {
        p.attempted += 1;
        p.traced_base_ns += run_ns;
        let traced = layers::run_traced(t, w, c.nodes, c.mode).map(|(o, records)| {
            p.records += records;
            o
        });
        same("traced", traced, p);
    }
    let checked = match s.kind {
        Kind::QuickObserved => true,
        Kind::FuzzCorpus => matches!(c.mode, Mode::Single | Mode::SlipSi),
        _ => false,
    };
    if checked {
        p.attempted += 1;
        p.checked_base_ns += run_ns;
        same("checked", layers::run_checked(t, w, c.nodes, c.mode), p);
    }
}

/// The fuzz stages for one generated program (cells `range`): static
/// verification of the conventional, double and slipstream task sets with
/// the pattern contract, the sharing analyzer, the four modes (with
/// checked runs), and cross-validation. Like the fuzz loop, a program
/// that fails statically is not simulated.
fn fuzz_program(s: &Setup, range: std::ops::Range<usize>, t: &mut Tracer, p: &mut Pass) {
    let subject = s.cells[range.start].subject;
    let w = &s.subjects[subject];
    let mut clean = true;
    let mut conventional = None;
    for mode in [Mode::Single, Mode::Double, Mode::slip_default()] {
        p.attempted += 1;
        let checked = layers::build(t, w, FUZZ_NODES, mode)
            .and_then(|progs| layers::verify(t, w, &progs).map(|d| (progs, d)));
        match checked {
            Ok((progs, d)) => {
                p.diags.add(d);
                if d.errors > 0 {
                    clean = false;
                    p.failures.push(format!(
                        "{}: {} static errors in {}",
                        w.name,
                        d.errors,
                        mode.label()
                    ));
                }
                if mode == Mode::Single {
                    conventional = Some(progs);
                }
            }
            Err(e) => {
                clean = false;
                p.failures
                    .push(format!("{}: verify {}: {e}", w.name, mode.label()));
            }
        }
    }
    if let Some(progs) = conventional {
        p.attempted += 1;
        match layers::analyze(t, &progs) {
            Ok(d) if d.errors == 0 => p.diags.add(d),
            Ok(d) => p
                .failures
                .push(format!("{}: analyzer reported {} errors", w.name, d.errors)),
            Err(e) => p.failures.push(format!("{}: analyze: {e}", w.name)),
        }
    }
    if !clean {
        return;
    }
    range.for_each(|i| sim_cell(s, i, t, p));
    p.attempted += 1;
    if let Err(e) = layers::cross_validate(t, w, FUZZ_NODES) {
        p.failures.push(format!("{}: {e}", w.name));
    }
}
