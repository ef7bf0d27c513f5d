//! Inspect one run: benchmark, node count, mode, A-R sync, SI. Prints the
//! stream time breakdowns and memory-system statistics and, with `--out`,
//! captures the run's full trace.
//!
//! Usage: `inspect <BENCH> <NODES> <single|double|slip> [--quick]
//!         [--ar L1|L0|G1|G0] [--si] [--json] [--out DIR]`
//!
//! `--json` prints the full [`RunResult`] as one JSON object instead of
//! the human-readable summary. `--out DIR` runs the spec traced
//! ([`TraceConfig::full`]) and writes to `DIR`:
//!
//! * `trace.json` — Chrome `trace_event` JSON; open at <https://ui.perfetto.dev>
//! * `events.jsonl` — the same events as line-delimited JSON records
//! * `metrics.jsonl` — interval metrics, one object per [`INTERVAL`] cycles
//! * `hotlines.txt` — the top [`TOP_LINES`] lines by coherence activity
//!
//! It then re-runs the spec untraced and exits 1 if the two [`RunResult`]s
//! differ: tracing must not perturb the simulation (CI runs this as a
//! smoke test). A bad argument or an unwritable `--out` exits 2. See
//! docs/observability.md for the schemas.
use std::process::ExitCode;

use slipstream_bench::{exit_usage, flag_value, io_or_exit, positionals, positive};
use slipstream_core::{
    run, run_result_json, run_traced, ArSyncMode, ExecMode, RunResult, RunSpec,
    SlipstreamConfig, StreamRole, TraceConfig, Workload,
};
use slipstream_workloads::by_name;

const USAGE: &str = "inspect <BENCH> <NODES> <single|double|slip> [--quick] \
                     [--ar L1|L0|G1|G0] [--si] [--json] [--out DIR]";

/// The metrics sampling period of `--out`, in cycles.
const INTERVAL: u64 = 10_000;

/// The number of lines `hotlines.txt` lists.
const TOP_LINES: usize = 32;

/// The command line: the run it names, and what to print or write.
struct Cli {
    /// The workload, at reduced size under `--quick`.
    workload: Box<dyn Workload>,
    /// The run: nodes, mode and slipstream configuration (prefetch-only
    /// unless `--si`; A-R method `--ar`, default `G1`).
    spec: RunSpec,
    /// Print the full result as JSON (`--json`).
    json: bool,
    /// Capture the run's trace into this directory (`--out DIR`).
    out: Option<String>,
}

impl Cli {
    /// Parses `args` (program name excluded).
    ///
    /// # Errors
    ///
    /// A missing or extra positional, an unknown flag, an unknown
    /// benchmark, a NODES that is not a positive integer, or an unknown
    /// mode or A-R label: never a silent default.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let found = positionals(args, &["--quick", "--si", "--json"], &["--ar", "--out"])?;
        let positional =
            |i: usize, what: &str| found.get(i).copied().ok_or(format!("missing {what}"));
        let bench = positional(0, "<BENCH>")?;
        let nodes = positive("<NODES>", positional(1, "<NODES>")?)?;
        let mode = match positional(2, "<single|double|slip>")?.as_str() {
            "single" => ExecMode::Single,
            "double" => ExecMode::Double,
            "slip" => ExecMode::Slipstream,
            other => return Err(format!("unknown mode {other}: expected single, double or slip")),
        };
        if let Some(extra) = found.get(3) {
            return Err(format!("unexpected argument {extra}"));
        }
        let ar = match flag_value(args, "--ar")? {
            None => ArSyncMode::OneTokenGlobal,
            Some(label) => ArSyncMode::ALL
                .into_iter()
                .find(|m| m.label() == label)
                .ok_or(format!("unknown A-R method {label}: expected L1, L0, G1 or G0"))?,
        };
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let slip = if has("--si") {
            SlipstreamConfig::with_self_invalidation(ar)
        } else {
            SlipstreamConfig::prefetch_only(ar)
        };
        let workload = by_name(bench, has("--quick")).ok_or(format!("unknown benchmark {bench}"))?;
        Ok(Cli {
            workload,
            spec: RunSpec::new(nodes, mode).with_slip(slip),
            json: has("--json"),
            out: flag_value(args, "--out")?.cloned(),
        })
    }
}

/// Runs `spec` traced, writes the four exports into `dir`, and returns the
/// result.
fn capture(w: &dyn Workload, spec: &RunSpec, dir: &str) -> RunResult {
    io_or_exit("create", dir, std::fs::create_dir_all(dir));
    let spec = spec.clone().with_trace(TraceConfig::full(INTERVAL));
    let (result, data) = run_traced(w, &spec);
    let data = data.expect("trace config is enabled");
    // One export in memory at a time: the event exports of a paper-size
    // run are each around 100 MB.
    let write = |file: &str, contents: String| {
        let path = format!("{dir}/{file}");
        io_or_exit("write", &path, std::fs::write(&path, contents));
    };
    write("trace.json", data.chrome_trace_json());
    write("events.jsonl", data.events_jsonl());
    write("metrics.jsonl", data.metrics_jsonl());
    write("hotlines.txt", data.hotline_report(TOP_LINES));
    eprintln!(
        "wrote {dir}: {} events recorded ({} dropped), {} samples, {} lines profiled, \
         queue pushed={} peak={}",
        data.records.len(),
        data.dropped,
        data.samples.len(),
        data.hot.len(),
        data.queue_total_pushed,
        data.queue_high_water,
    );
    result
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { workload: w, spec, json, out } =
        Cli::parse(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let r = match out {
        None => run(w.as_ref(), &spec),
        Some(dir) => {
            let traced = capture(w.as_ref(), &spec, &dir);
            // Tracing must be observation-only: the untraced run of the
            // same spec must be bit-identical.
            let untraced = run(w.as_ref(), &spec);
            if untraced != traced {
                eprintln!("DETERMINISM VIOLATION: traced and untraced runs differ");
                eprintln!(
                    "  traced:   {} cycles, {} recoveries",
                    traced.exec_cycles, traced.recoveries
                );
                eprintln!(
                    "  untraced: {} cycles, {} recoveries",
                    untraced.exec_cycles, untraced.recoveries
                );
                return ExitCode::FAILURE;
            }
            eprintln!("determinism check passed: traced run identical to untraced run");
            traced
        }
    };
    if json {
        println!("{}", run_result_json(&r));
        return ExitCode::SUCCESS;
    }
    println!(
        "{} {} @{}: {} cycles, recoveries={}",
        r.name, r.mode, r.nodes, r.exec_cycles, r.recoveries
    );
    for role in [StreamRole::Solo, StreamRole::R, StreamRole::A] {
        let b = r.avg_breakdown(role);
        if b.total() > 0 {
            println!("  {:?}: {}", role, b);
        }
    }
    let m = &r.mem;
    println!(
        "  l1_hits={} l2_hits={} l2_miss={} merged={} local={} remote={} interv={} wb={} inv={} net={}",
        m.l1_hits, m.l2_hits, m.l2_misses, m.merged_misses, m.local_txns, m.remote_txns,
        m.interventions, m.writebacks, m.invalidations_sent, m.net_messages
    );
    // Contention-server utilization: busy cycles over exec_cycles * nodes
    // (one server instance per node).
    let total = r.exec_cycles.saturating_mul(r.nodes as u64);
    let util: Vec<String> = m
        .contention
        .named()
        .iter()
        .map(|(name, u)| format!("{name}={:.1}%", 100.0 * u.utilization(total)))
        .collect();
    println!("  contention: {}", util.join(" "));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Cli::parse(&args)
    }

    fn parse_err(line: &str) -> String {
        match parse(line) {
            Ok(_) => panic!("`{line}` parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn cli_parses_the_named_run() {
        let cli = parse("SOR 4 slip --quick --ar G0 --si --out dir --json").unwrap();
        assert_eq!(cli.workload.name(), "SOR");
        assert_eq!((cli.spec.nodes, cli.spec.mode), (4, ExecMode::Slipstream));
        let si_g0 = SlipstreamConfig::with_self_invalidation(ArSyncMode::ZeroTokenGlobal);
        assert_eq!(cli.spec.slip, si_g0);
        assert!(cli.json);
        assert_eq!(cli.out.as_deref(), Some("dir"));
        let cli = parse("cg 2 double").unwrap();
        assert_eq!((cli.spec.nodes, cli.spec.mode), (2, ExecMode::Double));
        assert_eq!(cli.spec.slip, SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal));
        assert!(!cli.json && cli.out.is_none());
        for m in ArSyncMode::ALL {
            let cli = parse(&format!("SOR 2 slip --ar {}", m.label())).unwrap();
            assert_eq!(cli.spec.slip.ar_sync, m);
        }
    }

    #[test]
    fn cli_rejects_what_it_does_not_understand() {
        assert!(parse_err("SOR 4 slipstream --quick").contains("unknown mode slipstream"));
        assert!(parse_err("SOR four slip").contains("positive integer"));
        assert!(parse_err("SOR 0 slip").contains("positive integer"));
        assert!(parse_err("SOR 4 slip --ar XX").contains("unknown A-R method XX"));
        assert!(parse_err("SOR 4 slip --ar").contains("--ar requires a value"));
        assert!(parse_err("SOR 4 --quick").contains("missing <single|double|slip>"));
        assert!(parse_err("").contains("missing <BENCH>"));
        assert!(parse_err("NOPE 4 slip").contains("unknown benchmark NOPE"));
        assert!(parse_err("SOR 4 slip --jsno").contains("unknown argument --jsno"));
        assert!(parse_err("SOR 4 slip extra --quick").contains("unexpected argument extra"));
    }
}
