//! Tracked wall-clock benchmark baseline: times the full quick suite under
//! every execution mode and writes `BENCH_sim.json` (wall-clock seconds,
//! host events processed, and events/sec per run, plus totals).
//!
//! The JSON is a *host-performance* artifact for catching simulator
//! slowdowns across commits; simulated results (cycles, miss rates) are
//! reported by the `figures` binary and EXPERIMENTS.md.
//!
//! Usage: `bench_sim [--out PATH] [--iters N]
//!                   [--compare BASELINE [--tolerance PCT]] [--quiet]`
//!   --out PATH        output file (default: BENCH_sim.json; not written in
//!                     compare mode unless given explicitly)
//!   --iters N         timed iterations per run; minimum wall time is kept
//!                     (default: 3)
//!   --compare PATH    re-measure and compare events/sec against a baseline
//!                     JSON written by this tool; exits nonzero if any run
//!                     (or the total) regresses by more than the tolerance.
//!                     Warns when the baseline was measured on a host with
//!                     a different cpu count (cross-host numbers are
//!                     informational, not a like-for-like gate)
//!   --tolerance PCT   allowed events/sec regression in percent for
//!                     `--compare` (default: 15)
//!   --quiet           silence progress narration on stderr
//!
//! A bad argument prints usage and exits 2, as does an unreadable
//! `--compare` baseline or an unwritable `--out`.

use std::time::Instant;

use slipstream_bench::{flag_num, flag_value, host_note, io_or_exit, known_flags, set_quiet};
use slipstream_core::{run, RunResult, RunSpec, Workload};
use slipstream_workloads::quick_suite;

const USAGE: &str =
    "bench_sim [--out PATH] [--iters N] [--compare BASELINE [--tolerance PCT]] [--quiet]";

struct Args {
    out_path: Option<String>,
    iters: u64,
    compare_path: Option<String>,
    tolerance_pct: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    known_flags(args, &["--quiet"], &["--out", "--iters", "--compare", "--tolerance"])?;
    let tolerance_pct = match flag_value(args, "--tolerance")? {
        None => 15.0,
        Some(v) => v.parse().map_err(|_| format!("--tolerance requires a number, got {v}"))?,
    };
    Ok(Args {
        out_path: flag_value(args, "--out")?.cloned(),
        iters: flag_num(args, "--iters", 3)?,
        compare_path: flag_value(args, "--compare")?.cloned(),
        tolerance_pct,
    })
}

struct Case {
    name: String,
    workload: Box<dyn Workload>,
    spec: RunSpec,
    mode: &'static str,
}

struct Measured {
    name: String,
    workload: String,
    mode: &'static str,
    nodes: u16,
    wall_s: f64,
    events: u64,
    exec_cycles: u64,
}

/// The benchmark matrix: every quick-suite workload under every named
/// execution mode ([`RunSpec::NAMED`]: single, double, slipstream,
/// slipstream+si), 4 nodes each, so a hot-path regression in any
/// mode-specific machinery (pair bookkeeping, token protocol,
/// self-invalidation sweeps) is visible in the baseline.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for mode in RunSpec::NAMED {
        for workload in quick_suite() {
            let tag = workload.name().to_ascii_lowercase().replace('-', "_");
            out.push(Case {
                name: format!("{tag}_quick_{}_4", mode.replace('+', "_")),
                workload,
                spec: RunSpec::named(mode, 4).expect("named"),
                mode,
            });
        }
    }
    out
}

/// Run one case `iters` times (after an untimed warm-up) and keep the
/// fastest wall time; the simulator is deterministic, so every iteration
/// returns the identical `RunResult`.
fn measure(case: &Case, iters: u64) -> Measured {
    let mut result: RunResult = run(case.workload.as_ref(), &case.spec);
    let mut wall_s = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        result = run(case.workload.as_ref(), &case.spec);
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
    }
    Measured {
        name: case.name.clone(),
        workload: case.workload.name().to_string(),
        mode: case.mode,
        nodes: case.spec.nodes,
        wall_s,
        events: result.host_events,
        exec_cycles: result.exec_cycles,
    }
}

fn events_per_sec(events: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 { events as f64 / wall_s } else { 0.0 }
}

/// Extracts the `"name"`/`"events_per_sec"` pairs (and the total) from a
/// baseline written by this tool. The schema is our own line-oriented
/// output, so a string scan is all the parsing needed — no JSON dependency.
fn parse_baseline(text: &str) -> (Vec<(String, f64)>, Option<f64>) {
    let mut runs = Vec::new();
    let mut total = None;
    for line in text.lines() {
        if line.contains("\"total\"") {
            total = num_field(line, "events_per_sec");
        } else if let (Some(name), Some(eps)) =
            (str_field(line, "name"), num_field(line, "events_per_sec"))
        {
            runs.push((name, eps));
        }
    }
    (runs, total)
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `host_cpus` the baseline was measured on, if recorded.
fn baseline_host_cpus(text: &str) -> Option<usize> {
    text.lines()
        .find(|l| l.contains("\"host_cpus\""))
        .and_then(|l| num_field(l, "host_cpus"))
        .map(|n| n as usize)
}

/// Compares fresh measurements against a baseline. Returns the number of
/// regressions beyond `tolerance_pct`; new runs absent from the baseline
/// are reported but never fail the gate (the baseline just needs
/// refreshing), while baseline runs that disappeared do fail it.
fn compare(measured: &[Measured], baseline: &str, tolerance_pct: f64, host_cpus: usize) -> usize {
    let (base_runs, base_total) = parse_baseline(baseline);
    if base_runs.is_empty() {
        eprintln!("baseline has no runs; was it written by bench_sim?");
        return 1;
    }
    let cross_host = match baseline_host_cpus(baseline) {
        Some(base_cpus) if base_cpus != host_cpus => {
            eprintln!(
                "  WARNING: baseline was measured on a {base_cpus}-cpu host, this host has \
                 {host_cpus} cpus; treat deltas as informational, not a like-for-like gate"
            );
            true
        }
        None => {
            eprintln!(
                "  WARNING: baseline records no host_cpus; cannot confirm it came from a \
                 comparable host"
            );
            true
        }
        _ => false,
    };
    let annot = if cross_host { " [cross-host]" } else { "" };
    let mut failures = 0;
    for (name, base_eps) in &base_runs {
        let Some(m) = measured.iter().find(|m| &m.name == name) else {
            eprintln!("  FAIL {name:<32} present in baseline but no longer measured");
            failures += 1;
            continue;
        };
        let eps = events_per_sec(m.events, m.wall_s);
        let delta_pct = (eps / base_eps - 1.0) * 100.0;
        let ok = delta_pct >= -tolerance_pct;
        eprintln!(
            "  {} {name:<32} {base_eps:>12.0} -> {eps:>12.0} events/s ({delta_pct:+6.1}%){annot}",
            if ok { "ok  " } else { "FAIL" },
        );
        if !ok {
            failures += 1;
        }
    }
    for m in measured {
        if !base_runs.iter().any(|(name, _)| name == &m.name) {
            eprintln!("  new  {:<32} (not in baseline)", m.name);
        }
    }
    let total_events: u64 = measured.iter().map(|m| m.events).sum();
    let total_wall: f64 = measured.iter().map(|m| m.wall_s).sum();
    if let Some(base_eps) = base_total {
        let eps = events_per_sec(total_events, total_wall);
        let delta_pct = (eps / base_eps - 1.0) * 100.0;
        let ok = delta_pct >= -tolerance_pct;
        eprintln!(
            "  {} {:<32} {base_eps:>12.0} -> {eps:>12.0} events/s ({delta_pct:+6.1}%){annot}",
            if ok { "ok  " } else { "FAIL" },
            "TOTAL",
        );
        if !ok {
            failures += 1;
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { out_path, iters, compare_path, tolerance_pct } =
        parse_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {USAGE}");
            std::process::exit(2)
        });
    set_quiet(args.iter().any(|a| a == "--quiet"));
    let baseline = compare_path
        .as_ref()
        .map(|path| (path, io_or_exit("read", path, std::fs::read_to_string(path))));

    let measured: Vec<Measured> = cases()
        .iter()
        .map(|c| {
            let m = measure(c, iters);
            host_note!(
                "  [{:<32} {:>9.3} ms  {:>9} events  {:>12.0} events/s]",
                m.name,
                m.wall_s * 1e3,
                m.events,
                events_per_sec(m.events, m.wall_s)
            );
            m
        })
        .collect();

    let total_wall: f64 = measured.iter().map(|m| m.wall_s).sum();
    let total_events: u64 = measured.iter().map(|m| m.events).sum();
    let host_cpus =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    if let Some((baseline_path, baseline)) = &baseline {
        eprintln!("comparing against {baseline_path} (tolerance {tolerance_pct}%):");
        let failures = compare(&measured, baseline, tolerance_pct, host_cpus);
        if failures > 0 {
            println!("{failures} run(s) regressed by more than {tolerance_pct}%");
            std::process::exit(1);
        }
        println!("no events/sec regression beyond {tolerance_pct}% in any run");
        if out_path.is_none() {
            return; // compare mode only rewrites the baseline on request
        }
    }

    // Hand-written JSON: the schema is flat and fully under our control, so
    // no serialization dependency is warranted.
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_sim.json"));
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"slipstream-bench-sim/4\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, m) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"mode\": \"{}\", \
             \"nodes\": {}, \"wall_s\": {:.6}, \"events\": {}, \
             \"events_per_sec\": {:.1}, \"exec_cycles\": {}}}{}\n",
            m.name,
            m.workload,
            m.mode,
            m.nodes,
            m.wall_s,
            m.events,
            events_per_sec(m.events, m.wall_s),
            m.exec_cycles,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total\": {{\"wall_s\": {:.6}, \"events\": {}, \"events_per_sec\": {:.1}}}\n",
        total_wall,
        total_events,
        events_per_sec(total_events, total_wall)
    ));
    json.push_str("}\n");

    io_or_exit("write", &out_path, std::fs::write(&out_path, &json));
    println!("wrote {out_path} ({} runs, {total_events} events)", measured.len());
}
