//! Full observability capture for one run: structured event trace,
//! interval metrics, and the hot-line profile — plus a determinism check
//! that the traced run is bit-identical to an untraced one.
//!
//! Usage: `trace <BENCH> <NODES> <single|double|slip> [--quick]
//!         [--ar L1|L0|G1|G0] [--si] [--interval N] [--top K] [--out DIR]`
//!
//! Writes to `--out DIR` (default `results/trace`):
//!
//! * `trace.json` — Chrome `trace_event` JSON; open at <https://ui.perfetto.dev>
//! * `events.jsonl` — the same events as line-delimited JSON records
//! * `metrics.jsonl` — interval metrics (one object per `--interval` cycles)
//! * `hotlines.txt` — top-K lines by coherence activity
//!
//! After capturing, the same spec is re-run untraced and the two
//! [`RunResult`]s are compared; a mismatch means tracing perturbed the
//! simulation and the process exits nonzero (CI runs this as a smoke
//! test). See docs/observability.md for the schemas.
use slipstream_bench::{exit_usage, flag_num, flag_value, RunArgs};
use slipstream_core::{run, run_traced, RunSpec, TraceConfig};

const USAGE: &str = "trace <BENCH> <NODES> <single|double|slip> [--quick] \
                     [--ar L1|L0|G1|G0] [--si] [--interval N] [--top K] [--out DIR]";

/// Exits with the usage error `err`; generic so it fits any `unwrap_or_else`.
fn usage<T>(err: String) -> T {
    exit_usage(USAGE, &err)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let RunArgs { workload: w, spec } = RunArgs::parse(&args).unwrap_or_else(usage);
    let interval = flag_num(&args, "--interval", 10_000).unwrap_or_else(usage);
    let top_k = flag_num(&args, "--top", 32).unwrap_or_else(usage) as usize;
    let out_dir = flag_value(&args, "--out")
        .unwrap_or_else(usage)
        .cloned()
        .unwrap_or_else(|| "results/trace".to_string());

    let cfg = TraceConfig { top_k, ..TraceConfig::full(interval) };
    let spec = spec.with_trace(cfg);
    let (result, data) = run_traced(w.as_ref(), &spec);
    let data = data.expect("trace config is enabled");

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let write = |file: &str, contents: String| {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, contents).expect("write output file");
        println!("wrote {path}");
    };
    write("trace.json", data.chrome_trace_json());
    write("events.jsonl", data.events_jsonl());
    write("metrics.jsonl", data.metrics_jsonl());
    write("hotlines.txt", data.hotline_report(top_k));

    println!(
        "{}: {} events recorded ({} dropped), {} samples, \
         {} lines profiled, queue pushed={} peak={}",
        result,
        data.records.len(),
        data.dropped,
        data.samples.len(),
        data.hot.len(),
        data.queue_total_pushed,
        data.queue_high_water,
    );

    // Determinism check: tracing must be observation-only. Re-run the
    // exact spec untraced and require a bit-identical result.
    let untraced = run(w.as_ref(), &RunSpec { trace: TraceConfig::default(), ..spec });
    if untraced != result {
        eprintln!("DETERMINISM VIOLATION: traced and untraced runs differ");
        eprintln!("  traced:   {} cycles, {} recoveries", result.exec_cycles, result.recoveries);
        eprintln!("  untraced: {} cycles, {} recoveries", untraced.exec_cycles, untraced.recoveries);
        std::process::exit(1);
    }
    println!("determinism check passed: traced run identical to untraced run");
}
