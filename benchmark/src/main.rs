//! Runs the benchmark: one workload in this process, or every workload,
//! each in its own child process, one after another.
//!
//! Prints each metric as `name value unit`, then, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`.
//! Progress and failures go to standard error. Exit code 0: every output
//! was correct; 1: some were not; 2: bad arguments or I/O.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use slipstream_benchmark::golden::{self, Expect};
use slipstream_benchmark::json::{self, Json, Metric};
use slipstream_benchmark::layers::{Mode, CORPUS_SEED};
use slipstream_benchmark::metrics::{self, Probes};
use slipstream_benchmark::micro;
use slipstream_benchmark::spans::{layer_times, layers_json, spans_jsonl, Tracer};
use slipstream_benchmark::stats::quartiles;
use slipstream_benchmark::workloads::{self, Kind, Pass, Setup};

const USAGE: &str = "usage: slipstream-benchmark [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1|DIR] [--json PATH] [--bless] [--smoke]";

/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 5;

/// Repetitions of each fixed-cost probe.
const PROBE_REPS: usize = 3;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<String>,
    json: Option<String>,
    bless: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: CORPUS_SEED,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        json: None,
        bless: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = val()?;
                a.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = val()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => match val()?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                dir => {
                    a.trace = true;
                    a.trace_dir = Some(dir.to_string());
                }
            },
            "--json" => a.json = Some(val()?),
            "--bless" => a.bless = true,
            "--smoke" => a.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if let Some(path) = &args.json {
                if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                    eprintln!("write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Untraced passes, and with tracing on traced ones interleaved, until
/// `--seconds` would be exceeded by one more pass. At least one of each
/// kind runs; a smoke run stops there.
fn measure(s: &Setup, t: &mut Tracer, a: &Args) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let record = a.trace && untraced.len() > traced.len();
        t.set_record(record);
        let p = workloads::pass(s, t);
        if record { &mut traced } else { &mut untraced }.push(p);
        let n = (untraced.len() + traced.len()) as f64;
        let projected = start.elapsed().as_secs_f64() * (n + 1.0) / n;
        if (!a.trace || !traced.is_empty()) && (a.smoke || projected > a.seconds) {
            return (untraced, traced);
        }
    }
}

/// One-op run seconds for each cell, probing each distinct
/// `(nodes, mode)` once.
fn fixed_probes(s: &Setup, reps: usize) -> Result<Vec<f64>, String> {
    let mut seen: Vec<((u16, Mode), f64)> = Vec::new();
    let mut out = Vec::with_capacity(s.cells.len());
    for c in &s.cells {
        let key = (c.nodes, c.mode);
        let secs = match seen.iter().find(|(k, _)| *k == key) {
            Some(&(_, v)) => v,
            None => {
                let v = micro::fixed_run_s(c.nodes, c.mode, reps)?;
                seen.push((key, v));
                v
            }
        };
        out.push(secs);
    }
    Ok(out)
}

fn run_one(kind: Kind, a: &Args) -> Result<(bool, String), String> {
    let mut t = Tracer::new(a.trace);
    let s = workloads::setup(
        kind,
        a.seed,
        a.smoke,
        if a.smoke { 1 } else { SETUP_REPS },
        &mut t,
    );
    let (untraced, traced) = measure(&s, &mut t, a);
    let passes: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let rss_mb = metrics::peak_rss_mb()?;

    let mut attempted = s.attempted;
    let mut failures = s.failures.clone();
    for p in &passes {
        attempted += p.attempted;
        failures.extend(p.failures.iter().cloned());
    }
    let first = &untraced[0].cells;
    // Only the default corpus seed has golden digests; other seeds still
    // require every pass to reproduce the first.
    let has_golden = kind != Kind::FuzzCorpus || a.seed == CORPUS_SEED;
    if a.bless {
        if !has_golden || a.smoke {
            return Err("--bless needs the default seed and a full run".into());
        }
        let header = format!(
            "{}: <cell> <exec_cycles> <fnv64 of the run's JSON, host_events zeroed>",
            kind.name()
        );
        let path = kind.golden_path();
        std::fs::write(&path, golden::render(&header, first))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path} ({} cells)", first.len());
    }
    let expected: Vec<(String, Expect)> = if has_golden && !a.bless {
        golden::parse(kind.golden())?
    } else {
        first.clone()
    };
    for p in &passes {
        failures.extend(golden::compare(&expected, &p.cells, a.smoke));
    }

    let headline = if kind == Kind::PaperHeadline && !a.smoke {
        let rows = golden::headline(first);
        eprint!("{}", golden::render_headline(&rows));
        let paper = golden::parse_reference(golden::PAPER_REFERENCE)?;
        Some(golden::accuracy(&rows, &paper))
    } else {
        None
    };

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let [q1, q2, q3] = quartiles(&walls);
    eprintln!(
        "{}: {} untraced + {} traced passes; wall_s per pass median {q2:.3} (quartiles {q1:.3}-{q3:.3}); \
         {attempted} operations, {} failed",
        kind.name(),
        untraced.len(),
        traced.len(),
        failures.len()
    );
    for f in failures.iter().take(20) {
        eprintln!("  FAIL {f}");
    }

    let metrics = if a.trace {
        let probes = Probes {
            micro: micro::run_all(a.smoke),
            fixed_s: fixed_probes(&s, if a.smoke { 1 } else { PROBE_REPS })?,
            headline,
        };
        let dir = a
            .trace_dir
            .clone()
            .unwrap_or_else(|| format!("{}/out/{}", env!("CARGO_MANIFEST_DIR"), kind.name()));
        write_trace(&dir, &t)?;
        metrics::per_layer(&s, &untraced, &traced, &probes)
    } else {
        metrics::end_to_end(&s, &untraced, rss_mb)
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let failed = failures.len() as u64;
    Ok((
        failed == 0,
        json::result_line(failed == 0, attempted, failed, &metrics),
    ))
}

fn write_trace(dir: &str, t: &Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{dir}: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(format!("{dir}/spans.jsonl"), spans_jsonl(t.spans())).map_err(io)?;
    std::fs::write(
        format!("{dir}/layers.json"),
        layers_json(&layer_times(t.spans())),
    )
    .map_err(io)?;
    eprintln!(
        "wrote {dir}/spans.jsonl and layers.json ({} spans)",
        t.spans().len()
    );
    Ok(())
}

/// Runs every workload in its own child process, passing their output
/// through, and sums their results; metrics are prefixed `<workload>.`.
fn run_all(a: &Args) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            kind.name(),
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ]);
        match (&a.trace_dir, a.trace) {
            (Some(dir), _) => cmd.args(["--trace", &format!("{dir}/{}", kind.name())]),
            (None, on) => cmd.args(["--trace", if on { "1" } else { "0" }]),
        };
        cmd.args(a.bless.then_some("--bless"))
            .args(a.smoke.then_some("--smoke"));
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
            let line = line.map_err(|e| format!("read child output: {e}"))?;
            println!("{line}");
            last = line;
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait for {}: {e}", kind.name()))?;
        let result = json::parse(&last)
            .ok()
            .filter(|_| status.code().is_some_and(|c| c <= 1));
        let Some(result) = result else {
            eprintln!("{}: no result ({status})", kind.name());
            correct = false;
            continue;
        };
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(Json::num).unwrap_or(0.0) as u64;
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            for (name, m) in ms {
                let unit = match m.get("unit") {
                    Some(Json::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                metrics.push(Metric {
                    name: format!("{}.{name}", kind.name()),
                    value: m.get("value").and_then(Json::num).unwrap_or(0.0),
                    unit,
                });
            }
        }
    }
    Ok((
        correct,
        json::result_line(correct, attempted, failed, &metrics),
    ))
}
