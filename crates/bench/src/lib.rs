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
//! * `--host-profile [DIR]` — profile the simulator itself
//!   ([`slipstream_core::telemetry`]): per-run host profiles are printed
//!   as tables on stderr and, when `DIR` is given, exported as
//!   `DIR/host_profile.json`. Results are bit-identical with profiling
//!   on or off.
//! * `--heartbeat SECS` — periodic progress line per run on stderr
//!   (events/s, elapsed); implies profile collection (not export).
//! * `--quiet` — silence progress narration on stderr (per-run lines,
//!   heartbeat); figure output and errors still print.
//!
//! The binaries follow one pattern: declare the full grid of runs as a
//! [`Plan`], execute it across cores with [`Runner::prewarm`], then render
//! the figure from the warm cache.

use std::collections::HashMap;

use slipstream_core::{
    host_note, telemetry, ArSyncMode, ExecMode, HostProfile, HostProfileData, RunResult, RunSpec,
    SlipstreamConfig, Workload,
};
use slipstream_workloads::{by_name, paper_suite, quick_suite};

mod par;

pub use par::{Plan, RunKey};

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone, Default)]
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
    /// Collect host profiles for every run (`--host-profile`).
    pub host_profile: bool,
    /// Directory to write `host_profile.json` into (the optional value of
    /// `--host-profile [DIR]`).
    pub host_profile_dir: Option<String>,
    /// Heartbeat period in seconds (`--heartbeat SECS`, 0 = off). Implies
    /// profile collection, not export.
    pub heartbeat: f64,
    /// Silence progress narration on stderr (`--quiet`).
    pub quiet: bool,
}

impl Cli {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--bench" => {
                    cli.only = Some(args.next().expect("--bench needs a name"));
                }
                "--nodes" => {
                    let v = args.next().expect("--nodes needs a list, e.g. 2,4,8,16");
                    cli.nodes = Some(
                        v.split(',')
                            .map(|s| s.parse().expect("node counts are integers"))
                            .collect(),
                    );
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs needs a thread count");
                    cli.jobs = Some(v.parse().expect("--jobs takes an integer"));
                }
                "--check" => cli.check = true,
                "--host-profile" => {
                    cli.host_profile = true;
                    // The directory operand is optional: a following token
                    // that isn't a flag is the export destination.
                    if args.peek().is_some_and(|v| !v.starts_with('-')) {
                        cli.host_profile_dir = args.next();
                    }
                }
                "--heartbeat" => {
                    let v = args.next().expect("--heartbeat needs a period in seconds");
                    cli.heartbeat = v.parse().expect("--heartbeat takes a number of seconds");
                }
                "--quiet" => cli.quiet = true,
                other => panic!(
                    "unknown flag {other}; supported: --quick --bench NAME --nodes N,N --jobs N \
                     --check --host-profile [DIR] --heartbeat SECS --quiet"
                ),
            }
        }
        telemetry::set_quiet(cli.quiet);
        cli
    }

    /// The host-profiling spec the flags ask for (`HostProfile::default()`
    /// — off — when neither `--host-profile` nor `--heartbeat` is given).
    pub fn host_spec(&self) -> HostProfile {
        HostProfile {
            enabled: self.host_profile || self.heartbeat > 0.0,
            heartbeat_secs: self.heartbeat,
            expected_events: 0,
        }
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
        let nodes = positional(1, "<NODES>")?;
        let nodes: u16 = match nodes.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("<NODES> must be a positive integer, got {nodes}")),
        };
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
    host: HostProfile,
    /// Host profiles in first-run order (one per unique profiled run).
    profiles: Vec<(RunKey, HostProfileData)>,
}

impl Runner {
    /// Creates an empty cache.
    pub fn new() -> Runner {
        Runner::default()
    }

    /// Creates a runner honouring the CLI's `--check` flag (every
    /// simulation, prewarmed or on-demand, then runs with the protocol
    /// invariant checker attached, and a violation aborts the figure) and
    /// its `--host-profile`/`--heartbeat` flags (host profiles are collected
    /// per run; see [`Runner::export_host_profile`]).
    pub fn for_cli(cli: &Cli) -> Runner {
        Runner {
            cache: HashMap::new(),
            check: cli.check,
            host: cli.host_spec(),
            profiles: Vec::new(),
        }
    }

    /// The spec as this runner will actually execute it: the runner-wide
    /// host profiling applied unless the spec sets its own. Profiling is
    /// not part of [`RunKey`], so prewarmed cells stay cache hits for the
    /// reporting pass.
    fn effective(&self, spec: &RunSpec) -> RunSpec {
        let mut spec = spec.clone();
        if !spec.host.is_on() {
            spec.host = self.host.clone();
        }
        spec
    }

    /// Executes `plan` across `jobs` threads and absorbs every result into
    /// the cache. Subsequent [`Runner::run`] calls for those cells are
    /// cache hits, so the reporting pass stays strictly serial and ordered
    /// while the simulations use all cores.
    pub fn prewarm(&mut self, plan: &Plan<'_>, jobs: usize) {
        let plan = plan.with_host(&self.host);
        let outs = plan.execute_collect(jobs, self.check);
        for (key, (result, profile)) in plan.keys().zip(outs) {
            if let Some(p) = profile {
                if !self.cache.contains_key(&key) {
                    self.profiles.push((key.clone(), p));
                }
            }
            self.cache.entry(key).or_insert(result);
        }
    }

    /// Runs (or returns the cached result of) `workload` under `spec`.
    pub fn run(&mut self, workload: &dyn Workload, spec: &RunSpec) -> RunResult {
        let spec = self.effective(spec);
        let key = RunKey::new(workload, &spec);
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        let started = std::time::Instant::now();
        let (r, profile) = par::run_cell_full(workload, &spec, self.check);
        host_note!(
            "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
            workload.name(),
            spec.mode,
            spec.nodes,
            started.elapsed().as_secs_f64(),
            r.exec_cycles
        );
        if let Some(p) = profile {
            self.profiles.push((key.clone(), p));
        }
        self.cache.insert(key, r.clone());
        r
    }

    /// Display name of a profiled run, e.g. `SOR_slipstream_8n`.
    fn profile_name(key: &RunKey) -> String {
        format!("{}_{}_{}n", key.name, key.mode, key.nodes)
    }

    /// Host profiles collected so far, with display names, in first-run
    /// order.
    pub fn host_profiles(&self) -> Vec<(String, &HostProfileData)> {
        self.profiles.iter().map(|(k, p)| (Runner::profile_name(k), p)).collect()
    }

    /// Renders collected host profiles (tables on stderr, honours
    /// `--quiet`) and, when `--host-profile DIR` was given, writes
    /// `DIR/host_profile.json`. Call once after the figure's reporting
    /// pass; a no-op when profiling was off.
    ///
    /// # Panics
    ///
    /// Panics if the export directory can't be created or written.
    pub fn export_host_profile(&self, cli: &Cli) {
        if self.profiles.is_empty() {
            return;
        }
        for (key, p) in &self.profiles {
            host_note!("host profile {}:\n{}", Runner::profile_name(key), p.render_table());
        }
        let Some(dir) = &cli.host_profile_dir else {
            return;
        };
        let named = self.host_profiles();
        let path = write_host_profile_json(dir, &named);
        eprintln!("wrote {path} ({} runs)", named.len());
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

/// Writes `DIR/host_profile.json` from named host profiles — the
/// versioned export ([`slipstream_core::HOST_PROFILE_SCHEMA`]) shared by
/// the figure binaries (via [`Runner::export_host_profile`]) and
/// `bench_sim`. Returns the path written.
///
/// # Panics
///
/// Panics if the directory can't be created or the file can't be written.
pub fn write_host_profile_json(dir: &str, runs: &[(String, &HostProfileData)]) -> String {
    std::fs::create_dir_all(dir).expect("create host-profile directory");
    let rows: Vec<String> = runs
        .iter()
        .map(|(name, p)| {
            // Splice a name field into the profile's flat JSON object.
            let body = p.to_json();
            format!("{{\"name\":\"{name}\",{}", &body[1..])
        })
        .collect();
    let json = format!(
        "{{\"schema\":\"{}\",\"runs\":[{}]}}\n",
        slipstream_core::HOST_PROFILE_SCHEMA,
        rows.join(",")
    );
    let path = format!("{dir}/host_profile.json");
    std::fs::write(&path, json).expect("write host_profile.json");
    path
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
}
