//! Tracked wall-clock benchmark baseline: times the full quick suite under
//! every execution mode and writes `BENCH_sim.json` (wall-clock seconds,
//! host events processed, and events/sec per run, plus totals).
//!
//! The JSON is a *host-performance* artifact for catching simulator
//! slowdowns across commits; simulated results (cycles, miss rates) are
//! reported by the figure binaries and EXPERIMENTS.md.
//!
//! Usage: `bench_sim [--out PATH] [--iters N]
//!                   [--compare BASELINE [--tolerance PCT]]
//!                   [--host-profile [DIR]] [--quiet]`
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
//!   --host-profile [DIR]  do one extra untimed profiled run per matrix
//!                     case (timed runs stay unprofiled), attach a "host"
//!                     summary to each JSON row, and — when DIR is given —
//!                     export the full profiles as DIR/host_profile.json
//!   --quiet           silence progress narration on stderr
//!
//! Profiled runs are bit-identical to unprofiled ones, so the extra run
//! never perturbs the recorded simulated numbers.

use std::time::Instant;

use slipstream_bench::write_host_profile_json;
use slipstream_core::{
    host_note, run, run_full, ArSyncMode, ExecMode, HostProfile, HostProfileData, RunResult,
    RunSpec, SlipstreamConfig, Workload,
};
use slipstream_workloads::quick_suite;

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
    /// Host profile from one extra untimed run (`--host-profile` only).
    profile: Option<HostProfileData>,
}

/// The benchmark matrix: every quick-suite workload under every execution
/// mode (single, double, slipstream, slipstream+si), 4 nodes each, so a
/// hot-path regression in any mode-specific machinery (pair bookkeeping,
/// token protocol, self-invalidation sweeps) is visible in the baseline.
fn cases() -> Vec<Case> {
    let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let modes: [(&'static str, &dyn Fn() -> RunSpec); 4] = [
        ("single", &|| RunSpec::new(4, ExecMode::Single)),
        ("double", &|| RunSpec::new(4, ExecMode::Double)),
        ("slipstream", &|| RunSpec::new(4, ExecMode::Slipstream)),
        ("slipstream+si", &|| {
            RunSpec::new(4, ExecMode::Slipstream).with_slip(si)
        }),
    ];
    let mut out = Vec::new();
    for (mode, mk_spec) in modes {
        for workload in quick_suite() {
            let tag = workload.name().to_ascii_lowercase().replace('-', "_");
            out.push(Case {
                name: format!("{tag}_quick_{}_4", mode.replace('+', "_")),
                workload,
                spec: mk_spec(),
                mode,
            });
        }
    }
    out
}

/// One extra run of `spec` with host profiling on. Profiled runs are
/// bit-identical to unprofiled ones; this exists purely to collect the
/// host-side telemetry.
fn profile_run(w: &dyn Workload, spec: &RunSpec) -> HostProfileData {
    let spec = spec.clone().with_host_profile(HostProfile::enabled());
    run_full(w, &spec).profile.expect("profiling was enabled")
}

/// Run one case `iters` times (after an untimed warm-up) and keep the
/// fastest wall time; the simulator is deterministic, so every iteration
/// returns the identical `RunResult`. With `profile` set, one extra
/// untimed profiled run collects host telemetry (timed runs stay
/// unprofiled so the baseline numbers measure the production path).
fn measure(case: &Case, iters: u32, profile: bool) -> Measured {
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
        profile: profile.then(|| profile_run(case.workload.as_ref(), &case.spec)),
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
    let mut out_path: Option<String> = None;
    let mut iters: u32 = 3;
    let mut compare_path: Option<String> = None;
    let mut tolerance_pct: f64 = 15.0;
    let mut host_profile = false;
    let mut host_dir: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a count")
                    .parse()
                    .expect("--iters needs an integer")
            }
            "--compare" => {
                compare_path = Some(args.next().expect("--compare needs a baseline path"))
            }
            "--tolerance" => {
                tolerance_pct = args
                    .next()
                    .expect("--tolerance needs a percentage")
                    .parse()
                    .expect("--tolerance needs a number")
            }
            "--host-profile" => {
                host_profile = true;
                // The export directory is optional: a following token that
                // isn't a flag is the destination.
                if args.peek().is_some_and(|v| !v.starts_with('-')) {
                    host_dir = args.next();
                }
            }
            "--quiet" => slipstream_core::telemetry::set_quiet(true),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_sim [--out PATH] [--iters N] \
                     [--compare BASELINE [--tolerance PCT]] [--host-profile [DIR]] [--quiet]"
                );
                std::process::exit(2);
            }
        }
    }

    let measured: Vec<Measured> = cases()
        .iter()
        .map(|c| {
            let m = measure(c, iters, host_profile);
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

    // Export the collected host profiles before any compare-mode early
    // exit.
    let named: Vec<(String, &HostProfileData)> = measured
        .iter()
        .filter_map(|m| m.profile.as_ref().map(|p| (m.name.clone(), p)))
        .collect();
    if host_profile {
        for (name, p) in &named {
            host_note!("host profile {name}:\n{}", p.render_table());
        }
    }
    if let Some(dir) = &host_dir {
        let path = write_host_profile_json(dir, &named);
        eprintln!("wrote {path} ({} runs)", named.len());
    }

    if let Some(baseline_path) = &compare_path {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("reading {baseline_path}: {e}"));
        eprintln!("comparing against {baseline_path} (tolerance {tolerance_pct}%):");
        let failures = compare(&measured, &baseline, tolerance_pct, host_cpus);
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
        // Host summary from the extra profiled run (--host-profile). Key
        // names stay distinct from the gate's "name"/"events_per_sec"
        // scan, so the summary can never enter the regression comparison.
        let host = m.profile.as_ref().map_or_else(String::new, |p| {
            format!(", \"host\": {{\"busy_s\": {:.6}}}", p.phases.simulate_s)
        });
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"mode\": \"{}\", \
             \"nodes\": {}, \"wall_s\": {:.6}, \"events\": {}, \
             \"events_per_sec\": {:.1}, \"exec_cycles\": {}{}}}{}\n",
            m.name,
            m.workload,
            m.mode,
            m.nodes,
            m.wall_s,
            m.events,
            events_per_sec(m.events, m.wall_s),
            m.exec_cycles,
            host,
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

    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path} ({} runs, {total_events} events)", measured.len());
}
