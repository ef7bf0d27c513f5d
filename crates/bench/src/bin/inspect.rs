//! Inspect one run: benchmark, node count, mode, A-R sync, SI — prints
//! the stream time breakdowns and memory-system statistics.
//!
//! Usage: `inspect <BENCH> <NODES> <single|double|slip> [--quick]
//!         [--ar L1|L0|G1|G0] [--si] [--json]
//!         [--trace FILE] [--metrics FILE] [--interval N]`
//!
//! `--json` prints the full [`RunResult`] as one JSON object instead of
//! the human-readable summary. `--trace FILE` writes a Chrome
//! `trace_event` JSON of the run (open in Perfetto); `--metrics FILE`
//! writes interval-metrics JSONL sampled every `--interval N` cycles
//! (default 10000). See docs/observability.md.
use slipstream_bench::{exit_usage, flag_num, flag_value, RunArgs};
use slipstream_core::{run_result_json, run_traced, StreamRole, TraceConfig};

const USAGE: &str = "inspect <BENCH> <NODES> <single|double|slip> [--quick] \
                     [--ar L1|L0|G1|G0] [--si] [--json] [--trace FILE] [--metrics FILE] \
                     [--interval N]";

/// Exits with the usage error `err`; generic so it fits any `unwrap_or_else`.
fn usage<T>(err: String) -> T {
    exit_usage(USAGE, &err)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let RunArgs { workload: w, spec } = RunArgs::parse(&args).unwrap_or_else(usage);
    let trace_path = flag_value(&args, "--trace").unwrap_or_else(usage).cloned();
    let metrics_path = flag_value(&args, "--metrics").unwrap_or_else(usage).cloned();
    let interval = flag_num(&args, "--interval", 10_000).unwrap_or_else(usage);
    let trace_cfg = TraceConfig {
        events: trace_path.is_some(),
        interval: if metrics_path.is_some() || trace_path.is_some() { interval } else { 0 },
        ..TraceConfig::default()
    };
    let spec = spec.with_trace(trace_cfg);
    let (r, trace) = run_traced(w.as_ref(), &spec);
    if let Some(data) = &trace {
        if let Some(path) = &trace_path {
            std::fs::write(path, data.chrome_trace_json()).expect("write trace file");
            eprintln!("wrote {path} ({} events, {} dropped)", data.records.len(), data.dropped);
        }
        if let Some(path) = &metrics_path {
            std::fs::write(path, data.metrics_jsonl()).expect("write metrics file");
            eprintln!("wrote {path} ({} samples)", data.samples.len());
        }
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", run_result_json(&r));
        return;
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
}
