//! Shared harness code for the figure-reproduction binaries.
//!
//! Each `bin` target regenerates one table or figure of the paper; run
//! them with `cargo run -p slipstream-bench --release --bin figN`.
//! Common flags:
//!
//! * `--quick` — reduced problem sizes (same shapes, faster);
//! * `--bench NAME` — restrict to one benchmark;
//! * `--nodes N[,N...]` — override the CMP-count sweep;
//! * `--jobs N` — worker threads for the simulation grid (defaults to the
//!   host's available parallelism; results are identical for any value);
//! * `--check` — attach the coherence invariant checker
//!   ([`slipstream_check::ProtocolChecker`]) to every run; a violation
//!   fails the figure instead of rendering suspect numbers.
//! * `--quiet` — silence progress narration on stderr (per-run lines);
//!   figure output and errors still print.
//!
//! An unknown flag or benchmark, a missing value, or a node count or
//! `--jobs` that is not a positive integer prints usage and exits 2.
//!
//! The binaries follow one pattern: declare the full grid of runs as a
//! [`Plan`], execute it across cores with [`Runner::prewarm`], then render
//! the figure from the warm cache.

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

use slipstream_core::{ArSyncMode, ExecMode, RunResult, RunSpec, SlipstreamConfig, Workload};
use slipstream_workloads::{by_name, paper_suite, quick_suite};

mod par;

pub use par::{Plan, RunKey};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Silences [`host_note!`], the progress narration on stderr (the
/// executor's per-run lines, `bench_sim`'s per-case lines). Errors and
/// reports still print, so machine-readable pipelines stay clean.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether [`set_quiet`] has silenced progress notes.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// `eprintln!` for progress narration, silenced by [`set_quiet`].
/// Formatting is skipped entirely when quiet.
#[macro_export]
macro_rules! host_note {
    ($($t:tt)*) => {
        if !$crate::is_quiet() {
            eprintln!($($t)*);
        }
    };
}

/// Usage line of the figure binaries.
const CLI_USAGE: &str =
    "FIGURE [--quick] [--bench NAME] [--nodes N[,N...]] [--jobs N] [--check] [--quiet]";

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Use reduced problem sizes.
    pub quick: bool,
    /// Restrict to one benchmark (case-insensitive).
    pub only: Option<String>,
    /// Override the node-count sweep.
    pub nodes: Option<Vec<u16>>,
    /// Worker threads for executing the simulation grid.
    pub jobs: Option<usize>,
    /// Run every simulation with the protocol invariant checker attached.
    pub check: bool,
    /// Silence progress narration on stderr (`--quiet`).
    pub quiet: bool,
}

impl Cli {
    /// Parses `std::env::args()` and applies `--quiet`; on a usage error,
    /// prints usage and exits 2 ([`exit_usage`]).
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cli = Cli::from_args(&args).unwrap_or_else(|e| exit_usage(CLI_USAGE, &e));
        set_quiet(cli.quiet);
        cli
    }

    /// Parses `args` (program name excluded).
    ///
    /// # Errors
    ///
    /// An unknown flag or benchmark, a flag missing its value, or a node
    /// count or `--jobs` that is not a positive integer.
    fn from_args(args: &[String]) -> Result<Cli, String> {
        known_flags(args, &["--quick", "--check", "--quiet"], &["--bench", "--nodes", "--jobs"])?;
        let only = match flag_value(args, "--bench")? {
            Some(name) if by_name(name, true).is_none() => {
                return Err(format!("unknown benchmark {name}"))
            }
            name => name.cloned(),
        };
        let nodes = flag_value(args, "--nodes")?
            .map(|list| list.split(',').map(|n| positive("--nodes", n)).collect())
            .transpose()?;
        let jobs = flag_value(args, "--jobs")?.map(|n| positive("--jobs", n)).transpose()?;
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Ok(Cli {
            quick: has("--quick"),
            only,
            nodes,
            jobs,
            check: has("--check"),
            quiet: has("--quiet"),
        })
    }

    /// The benchmark suite selected by the flags.
    pub fn suite(&self) -> Vec<Box<dyn Workload>> {
        let all = if self.quick { quick_suite() } else { paper_suite() };
        match &self.only {
            None => all,
            Some(name) => all
                .into_iter()
                .filter(|w| w.name().eq_ignore_ascii_case(name))
                .collect(),
        }
    }

    /// The CMP-count sweep (paper: 2, 4, 8, 16).
    pub fn sweep(&self) -> Vec<u16> {
        self.nodes.clone().unwrap_or_else(|| vec![2, 4, 8, 16])
    }

    /// Worker threads to use: `--jobs` if given, else the host's available
    /// parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    }
}

/// The single run named on the command line of `trace` and `inspect`:
/// `<BENCH> <NODES> <single|double|slip> [--quick] [--ar L1|L0|G1|G0]
/// [--si]`.
pub struct RunArgs {
    /// The workload, at reduced size under `--quick`.
    pub workload: Box<dyn Workload>,
    /// The run: nodes, mode and slipstream configuration (prefetch-only
    /// unless `--si`; A-R method `--ar`, default `G1`).
    pub spec: RunSpec,
}

impl RunArgs {
    /// Parses the three positional arguments and the `--quick`, `--ar`
    /// and `--si` flags of `args` (program name excluded); other flags are
    /// the caller's.
    ///
    /// # Errors
    ///
    /// A missing positional, an unknown benchmark, a NODES that is not a
    /// positive integer, or an unknown mode or A-R label: never a silent
    /// default.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let positional = |i: usize, what: &str| {
            args.get(i).filter(|a| !a.starts_with("--")).ok_or(format!("missing {what}"))
        };
        let bench = positional(0, "<BENCH>")?;
        let nodes = positive("<NODES>", positional(1, "<NODES>")?)?;
        let mode = match positional(2, "<single|double|slip>")?.as_str() {
            "single" => ExecMode::Single,
            "double" => ExecMode::Double,
            "slip" => ExecMode::Slipstream,
            other => return Err(format!("unknown mode {other}: expected single, double or slip")),
        };
        let ar = match flag_value(args, "--ar")? {
            None => ArSyncMode::OneTokenGlobal,
            Some(label) => ArSyncMode::ALL
                .into_iter()
                .find(|m| m.label() == label)
                .ok_or(format!("unknown A-R method {label}: expected L1, L0, G1 or G0"))?,
        };
        let slip = if args.iter().any(|a| a == "--si") {
            SlipstreamConfig::with_self_invalidation(ar)
        } else {
            SlipstreamConfig::prefetch_only(ar)
        };
        let workload = by_name(bench, args.iter().any(|a| a == "--quick"))
            .ok_or(format!("unknown benchmark {bench}"))?;
        Ok(RunArgs { workload, spec: RunSpec::new(nodes, mode).with_slip(slip) })
    }
}

/// The value following `flag` in `args`, if the flag is present.
///
/// # Errors
///
/// The flag is the last argument.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(Some).ok_or(format!("{flag} requires a value")),
    }
}

/// The number following `flag` in `args`, or `default` when the flag is
/// absent.
///
/// # Errors
///
/// The value is missing or not a number.
pub fn flag_num(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag} requires a number, got {v}")),
    }
}

/// Checks that every argument is one of `switches`, or one of `valued`
/// followed by its value, so a misspelt flag is never silently ignored.
///
/// # Errors
///
/// The first argument that is neither.
pub fn known_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if valued.contains(&a.as_str()) {
            rest.next();
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown argument {a}"));
        }
    }
    Ok(())
}

/// `value` parsed as a positive integer of the unsigned type `T`.
///
/// # Errors
///
/// `value` is zero, out of range or not a number; the message names
/// `what`.
pub fn positive<T: FromStr + Default + PartialEq>(what: &str, value: &str) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!("{what} must be a positive integer, got {value}")),
    }
}

/// A seed in decimal or `0x` hex.
///
/// # Errors
///
/// `value` is neither.
pub fn parse_seed(value: &str) -> Result<u64, String> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .map_err(|_| format!("--seed requires a decimal or 0x-hex number, got {value}"))
}

/// Prints `err`, then `usage` and the benchmark names, on stderr and exits
/// with status 2, a usage error (as in the `check` binary).
pub fn exit_usage(usage: &str, err: &str) -> ! {
    let names: Vec<String> = quick_suite().iter().map(|w| w.name().to_string()).collect();
    eprintln!("{err}\nusage: {usage}\nbenchmarks: {}", names.join(", "));
    std::process::exit(2);
}

/// Memoizing run cache so figures that need the same baselines don't
/// re-simulate them. Keys are structured ([`RunKey`]), not Debug strings.
#[derive(Default)]
pub struct Runner {
    cache: HashMap<RunKey, RunResult>,
    check: bool,
}

impl Runner {
    /// Creates an empty cache.
    pub fn new() -> Runner {
        Runner::default()
    }

    /// Creates a runner honouring the CLI's `--check` flag: every
    /// simulation, prewarmed or on-demand, then runs with the protocol
    /// invariant checker attached, and a violation aborts the figure.
    pub fn for_cli(cli: &Cli) -> Runner {
        Runner { cache: HashMap::new(), check: cli.check }
    }

    /// Executes `plan` across `jobs` threads and absorbs every result into
    /// the cache. Subsequent [`Runner::run`] calls for those cells are
    /// cache hits, so the reporting pass stays strictly serial and ordered
    /// while the simulations use all cores.
    pub fn prewarm(&mut self, plan: &Plan<'_>, jobs: usize) {
        let results = plan.execute_opts(jobs, self.check);
        for (key, result) in plan.keys().zip(results) {
            self.cache.entry(key).or_insert(result);
        }
    }

    /// Runs (or returns the cached result of) `workload` under `spec`.
    pub fn run(&mut self, workload: &dyn Workload, spec: &RunSpec) -> RunResult {
        let key = RunKey::new(workload, spec);
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        let started = std::time::Instant::now();
        let r = par::run_cell(workload, spec, self.check);
        host_note!(
            "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
            workload.name(),
            spec.mode,
            spec.nodes,
            started.elapsed().as_secs_f64(),
            r.exec_cycles
        );
        self.cache.insert(key, r.clone());
        r
    }

    /// Single-mode baseline at `nodes` CMPs.
    pub fn single(&mut self, w: &dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Single))
    }

    /// Double-mode run at `nodes` CMPs.
    pub fn double(&mut self, w: &dyn Workload, nodes: u16) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Double))
    }

    /// Slipstream run with the given configuration.
    pub fn slipstream(&mut self, w: &dyn Workload, nodes: u16, slip: SlipstreamConfig) -> RunResult {
        self.run(w, &RunSpec::new(nodes, ExecMode::Slipstream).with_slip(slip))
    }

    /// Execution cycles of the better of single and double mode (the
    /// paper's "next best mode" baseline).
    pub fn best_conventional(&mut self, w: &dyn Workload, nodes: u16) -> u64 {
        let s = self.single(w, nodes).exec_cycles;
        let d = self.double(w, nodes).exec_cycles;
        s.min(d)
    }
}

/// A workload re-labelled with a distinct name.
///
/// The run cache ([`Runner`]) and plan dedup ([`Plan`]) identify
/// simulations by `(name, spec)`; a study that varies the *problem size*
/// of one workload (e.g. `fig_scaling`'s weak-scaled SOR) wraps each size
/// so differently-sized runs never collide in the cache.
pub struct Renamed<W: Workload> {
    name: String,
    inner: W,
}

impl<W: Workload> Renamed<W> {
    /// Wraps `inner` under `name`.
    pub fn new(name: impl Into<String>, inner: W) -> Renamed<W> {
        Renamed { name: name.into(), inner }
    }
}

impl<W: Workload> Workload for Renamed<W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn small_l2(&self) -> bool {
        self.inner.small_l2()
    }

    fn instantiate(
        &self,
        ntasks: usize,
        layout: &mut slipstream_prog::Layout,
    ) -> slipstream_core::TaskBuilderFn {
        self.inner.instantiate(ntasks, layout)
    }
}

/// Prints a row of `f64` cells after a left-justified label.
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:<12}");
    for c in cells {
        print!(" {c:>8.3}");
    }
    println!();
}

/// Prints a header row.
pub fn print_header(label: &str, cols: &[String]) {
    print!("{label:<12}");
    for c in cols {
        print!(" {c:>8}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse_err(line: &str) -> String {
        match RunArgs::parse(&args(line)) {
            Ok(_) => panic!("`{line}` parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn run_args_parse_the_named_run() {
        let r = RunArgs::parse(&args("SOR 4 slip --quick --ar G0 --si --out dir")).unwrap();
        assert_eq!(r.workload.name(), "SOR");
        assert_eq!((r.spec.nodes, r.spec.mode), (4, ExecMode::Slipstream));
        let si_g0 = SlipstreamConfig::with_self_invalidation(ArSyncMode::ZeroTokenGlobal);
        assert_eq!(r.spec.slip, si_g0);
        let r = RunArgs::parse(&args("cg 2 double")).unwrap();
        assert_eq!((r.spec.nodes, r.spec.mode), (2, ExecMode::Double));
        assert_eq!(r.spec.slip, SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal));
        for m in ArSyncMode::ALL {
            let r = RunArgs::parse(&args(&format!("SOR 2 slip --ar {}", m.label()))).unwrap();
            assert_eq!(r.spec.slip.ar_sync, m);
        }
    }

    #[test]
    fn run_args_reject_what_they_do_not_understand() {
        assert!(parse_err("SOR 4 slipstream --quick").contains("unknown mode slipstream"));
        assert!(parse_err("SOR four slip").contains("positive integer"));
        assert!(parse_err("SOR 0 slip").contains("positive integer"));
        assert!(parse_err("SOR 4 slip --ar XX").contains("unknown A-R method XX"));
        assert!(parse_err("SOR 4 slip --ar").contains("--ar requires a value"));
        assert!(parse_err("SOR 4 --quick").contains("missing <single|double|slip>"));
        assert!(parse_err("").contains("missing <BENCH>"));
        assert!(parse_err("NOPE 4 slip").contains("unknown benchmark NOPE"));
    }

    fn cli_err(line: &str) -> String {
        match Cli::from_args(&args(line)) {
            Ok(_) => panic!("`{line}` parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn cli_parses_the_figure_flags() {
        let cli = Cli::from_args(&args("--quick --bench cg --nodes 2,4 --jobs 3 --check --quiet"))
            .unwrap();
        assert!(cli.quick && cli.check && cli.quiet);
        assert_eq!(cli.only.as_deref(), Some("cg"));
        assert_eq!(cli.nodes, Some(vec![2, 4]));
        assert_eq!(cli.jobs(), 3);
        assert_eq!(cli.suite().len(), 1);
        let cli = Cli::from_args(&[]).unwrap();
        assert!(!cli.quick && cli.only.is_none() && cli.nodes.is_none() && cli.jobs.is_none());
        assert_eq!(cli.sweep(), vec![2, 4, 8, 16]);
    }

    #[test]
    fn cli_rejects_what_it_does_not_understand() {
        assert!(cli_err("--quick --bench NOPE").contains("unknown benchmark NOPE"));
        assert!(cli_err("--nodes 0").contains("--nodes must be a positive integer, got 0"));
        assert!(cli_err("--nodes 2,x").contains("--nodes must be a positive integer, got x"));
        assert!(cli_err("--nodes 70000").contains("positive integer"));
        assert!(cli_err("--jobs 0").contains("--jobs must be a positive integer"));
        assert!(cli_err("--jobs many").contains("--jobs must be a positive integer"));
        assert!(cli_err("--quick --bench").contains("--bench requires a value"));
        assert!(cli_err("--nodes").contains("--nodes requires a value"));
        assert!(cli_err("--bogus").contains("unknown argument --bogus"));
        assert!(cli_err("--quick fig1").contains("unknown argument fig1"));
    }

    #[test]
    fn seeds_are_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0x51195eed"), Ok(0x5119_5EED));
        assert!(parse_seed("zz").unwrap_err().contains("decimal or 0x-hex number, got zz"));
        assert!(parse_seed("0xzz").is_err());
    }
}
