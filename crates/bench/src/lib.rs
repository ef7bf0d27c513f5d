//! The figure-reproduction harness: the paper's tables and figures, the
//! executor that simulates their runs, and the command-line helpers of
//! every `slipstream-bench` binary.
//!
//! One binary regenerates every figure:
//! `cargo run --release -p slipstream-bench --bin figures -- --out DIR`
//! writes `DIR/<name>.txt` for each figure of [`FIGURES`], or for the
//! figures named as positional arguments. Flags:
//!
//! * `--out DIR` — the directory the figures are written to (required);
//! * `--quick` — reduced problem sizes (same shapes, faster);
//! * `--bench NAME` — restrict to one benchmark;
//! * `--nodes N[,N...]` — override the CMP-count sweep (and the node
//!   counts of the ablation and scaling studies);
//! * `--jobs N` — worker threads for the simulation grid (defaults to the
//!   host's available parallelism; results are identical for any value);
//! * `--check` — attach the coherence invariant checker
//!   ([`slipstream_check::ProtocolChecker`]) to every run; a violation
//!   prints the checker's report and exits 1 instead of rendering
//!   suspect numbers.
//! * `--quiet` — silence progress narration on stderr (per-run lines);
//!   errors still print.
//!
//! An unknown figure, flag or benchmark, a missing `--out` or value, or a
//! node count or `--jobs` that is not a positive integer prints usage and
//! exits 2.
//!
//! Each figure is one [`Render`] function over a [`Runner`];
//! [`Figures::render`] records the runs every selected figure asks for,
//! executes their union as one [`Plan`], then renders from its results.

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

use slipstream_core::{ArSyncMode, ExecMode, RunSpec, SlipstreamConfig, Workload};
use slipstream_workloads::{by_name, paper_suite, quick_suite};

mod figures;
mod par;

pub use figures::{Figures, Render, Runner, FIGURES};
pub use par::{Plan, Rejected, RunKey};

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

/// Usage line of the `figures` binary.
const CLI_USAGE: &str = "figures --out DIR [FIGURE...] [--quick] [--bench NAME] \
                         [--nodes N[,N...]] [--jobs N] [--check] [--quiet]";

/// Parsed command line of the `figures` binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The figures to render, in order (default: all of [`FIGURES`]).
    pub figures: Vec<&'static str>,
    /// The directory the figures are written to.
    pub out: PathBuf,
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
    /// An unknown figure, flag or benchmark, a flag missing its value, a
    /// node count or `--jobs` that is not a positive integer, or a missing
    /// `--out`.
    fn from_args(args: &[String]) -> Result<Cli, String> {
        let names = positionals(
            args,
            &["--quick", "--check", "--quiet"],
            &["--bench", "--nodes", "--jobs", "--out"],
        )?;
        let all = FIGURES.map(|(name, _)| name);
        let find = |name: &String| {
            let known = all.into_iter().find(|known| name.as_str() == *known);
            known.ok_or_else(|| format!("unknown figure {name}: expected one of {}", all.join(", ")))
        };
        let figures = if names.is_empty() {
            all.to_vec()
        } else {
            names.into_iter().map(find).collect::<Result<_, _>>()?
        };
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
        let out = flag_value(args, "--out")?.ok_or("missing --out DIR")?.into();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Ok(Cli {
            figures,
            out,
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

/// The positional arguments of `args`, in order, after checking that
/// every other argument is one of `switches`, or one of `valued` followed
/// by its value, so a misspelt flag is never silently ignored. An
/// argument is positional when it does not start with `--`.
///
/// # Errors
///
/// The first flag that is neither.
fn positionals<'a>(
    args: &'a [String],
    switches: &[&str],
    valued: &[&str],
) -> Result<Vec<&'a String>, String> {
    let mut found = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if valued.contains(&a.as_str()) {
            rest.next();
        } else if !a.starts_with("--") {
            found.push(a);
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown argument {a}"));
        }
    }
    Ok(found)
}

/// `positionals` for a command that takes none.
///
/// # Errors
///
/// The first argument that is neither a known flag nor its value.
pub fn known_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    match positionals(args, switches, valued)?.first() {
        Some(a) => Err(format!("unknown argument {a}")),
        None => Ok(()),
    }
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

/// Unwraps `result`, the outcome of trying to `what` (e.g. `"write"`) the
/// file or directory at `path`. On failure, prints the path and the OS
/// error on stderr and exits with status 2: an unreadable input or an
/// unwritable output is a usage error, like a bad flag.
pub fn io_or_exit<T>(what: &str, path: impl AsRef<Path>, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot {what} {}: {e}", path.as_ref().display());
        std::process::exit(2)
    })
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
        let line = "fig9 --quick --bench cg --nodes 2,4 --jobs 3 --check --out d --quiet fig1";
        let cli = Cli::from_args(&args(line)).unwrap();
        assert!(cli.quick && cli.check && cli.quiet);
        assert_eq!(cli.figures, ["fig9", "fig1"]);
        assert_eq!(cli.out, PathBuf::from("d"));
        assert_eq!(cli.only.as_deref(), Some("cg"));
        assert_eq!(cli.nodes, Some(vec![2, 4]));
        assert_eq!(cli.jobs(), 3);
        assert_eq!(cli.suite().len(), 1);
        let cli = Cli::from_args(&args("--out d")).unwrap();
        assert!(!cli.quick && cli.only.is_none() && cli.nodes.is_none() && cli.jobs.is_none());
        assert_eq!(cli.figures, FIGURES.map(|(name, _)| name));
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
        assert!(cli_err("--out d fig1 fig2").contains("unknown figure fig2: expected one of"));
        assert!(cli_err("--quick fig1").contains("missing --out DIR"));
    }

    #[test]
    fn seeds_are_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0x51195eed"), Ok(0x5119_5EED));
        assert!(parse_seed("zz").unwrap_err().contains("decimal or 0x-hex number, got zz"));
        assert!(parse_seed("0xzz").is_err());
    }
}
