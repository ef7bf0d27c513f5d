//! Turns passes into the reported metrics.
//!
//! End-to-end metrics come from untraced passes; per-layer metrics from
//! traced passes, the set-up repetitions, the microbenchmarks and the
//! fixed-cost probe. Pass times are taken from the fastest pass: on a
//! shared host, interference only ever adds time, and the fastest of a
//! run's passes repeats from run to run far better than their median.
//! Set-up and per-layer times are medians; counts are exact and identical
//! in every pass. A per-layer metric whose layer a workload does not
//! exercise reads 0.

use crate::json::Metric;
use crate::spans::{total_s, Totals};
use crate::stats::median;
use crate::workloads::{Pass, Setup};

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn fastest(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn run_s(p: &Pass) -> f64 {
    total_s(&p.totals, "core.run")
}

/// Span names that are not layers: the pass and cell scaffolding.
const SCAFFOLD: [&str; 2] = ["pass", "cell"];

/// Share of the pass's wall time covered by layer spans.
fn span_coverage(p: &Pass) -> f64 {
    let covered: u64 = p
        .totals
        .iter()
        .filter(|(n, _)| !SCAFFOLD.contains(n))
        .map(|(_, t)| t.0)
        .sum();
    ratio(covered as f64 * 1e-9, p.wall_s)
}

/// Host memory high-water mark of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The metrics a user of the simulator sees, from untraced passes.
pub fn end_to_end(s: &Setup, passes: &[Pass], rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", fastest(passes, |p| p.wall_s), "s"),
        metric(
            "ops_per_s",
            passes
                .iter()
                .map(|p| ratio(p.ops as f64, run_s(p)))
                .fold(0.0, f64::max),
            "1/s",
        ),
        metric("setup_s", median(&s.rep_s), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// Measurements only the traced run takes.
pub struct Probes {
    /// `(metric, ns)` of each microbenchmark.
    pub micro: Vec<(&'static str, f64)>,
    /// One-op run seconds at each cell's node count and mode.
    pub fixed_s: Vec<f64>,
    /// Mean absolute gain error against the paper (pp) and sign
    /// agreements, on `paper-headline`.
    pub headline: Option<(f64, u32)>,
}

/// The per-layer metrics, from the traced run.
pub fn per_layer(s: &Setup, untraced: &[Pass], traced: &[Pass], x: &Probes) -> Vec<Metric> {
    let layer = |name: &'static str| move |p: &Pass| total_s(&p.totals, name);
    let rep = |name: &str| {
        median(
            &s.rep_totals
                .iter()
                .map(|t: &Totals| total_s(t, name))
                .collect::<Vec<_>>(),
        )
    };
    let ns_per_op = ratio(rep("prog.drain") * 1e9, s.drained_ops as f64);
    let fixed: f64 = x.fixed_s.iter().sum();
    let c = traced.first().map(|p| p.counts).unwrap_or_default();
    let ops = traced.first().map_or(0, |p| p.ops) as f64;
    let overhead = |name: &'static str, base: fn(&Pass) -> u64| {
        med(traced, move |p| {
            let base = base(p) as f64 * 1e-9;
            if base == 0.0 {
                0.0
            } else {
                total_s(&p.totals, name) / base - 1.0
            }
        })
    };
    let count = |name: &str, v: u64| metric(name, v as f64, "count");
    let (gain_err, sign_agree) = x.headline.unwrap_or((0.0, 0));

    let mut out = vec![
        metric("prog.build_s", rep("prog.build"), "s"),
        metric("gen.build_s", rep("gen.build"), "s"),
        count("prog.ops", ops as u64),
        metric("prog.interp_ns_per_op", ns_per_op, "ns"),
        metric(
            "prog.interp_share",
            med(traced, |p| ratio(ns_per_op * 1e-9 * p.ops as f64, run_s(p))),
            "ratio",
        ),
        metric("core.run_s", med(traced, run_s), "s"),
        count("core.runs", c.runs),
        count("core.events", c.events),
        metric("core.events_per_op", ratio(c.events as f64, ops), "ratio"),
        metric(
            "core.ns_per_event",
            med(traced, |p| ratio(run_s(p) * 1e9, p.counts.events as f64)),
            "ns",
        ),
        metric(
            "core.fixed_run_ms",
            ratio(fixed * 1e3, x.fixed_s.len() as f64),
            "ms",
        ),
        metric(
            "core.fixed_share",
            med(traced, |p| ratio(fixed, run_s(p))),
            "ratio",
        ),
        count("core.exec_cycles", c.exec_cycles),
        count("core.recoveries", c.recoveries),
        count("mem.l1_hits", c.l1_hits),
        count("mem.l2_hits", c.l2_hits),
        count("mem.l2_misses", c.l2_misses),
        count("mem.dir_txns", c.dir_txns),
        count("mem.invalidations", c.invalidations),
        count("mem.interventions", c.interventions),
        count("mem.net_messages", c.net_messages),
        count("mem.si_invalidations", c.si_invalidations),
        metric(
            "mem.dir_ctl_util",
            ratio(c.dir_ctl_busy as f64, c.node_cycles as f64),
            "ratio",
        ),
        metric(
            "mem.mem_bank_util",
            ratio(c.mem_bank_busy as f64, c.node_cycles as f64),
            "ratio",
        ),
    ];
    out.extend(x.micro.iter().map(|&(name, ns)| metric(name, ns, "ns")));
    out.extend([
        metric("observe.trace_s", med(traced, layer("observe.trace")), "s"),
        metric(
            "observe.trace_overhead",
            overhead("observe.trace", |p| p.traced_base_ns),
            "ratio",
        ),
        count(
            "observe.trace_records",
            traced.first().map_or(0, |p| p.records),
        ),
        metric(
            "observe.export_s",
            med(traced, layer("observe.export")),
            "s",
        ),
        metric("observe.check_s", med(traced, layer("observe.check")), "s"),
        metric(
            "observe.check_overhead",
            overhead("observe.check", |p| p.checked_base_ns),
            "ratio",
        ),
        metric("check.verify_s", med(traced, layer("check.verify")), "s"),
        metric("check.analyze_s", med(traced, layer("check.analyze")), "s"),
        metric("check.xval_s", med(traced, layer("check.xval")), "s"),
        count("check.errors", traced.first().map_or(0, |p| p.diags.errors)),
        count(
            "check.warnings",
            traced.first().map_or(0, |p| p.diags.warnings),
        ),
        metric("model.headline_gain_err_pp", gain_err, "pp"),
        count("model.headline_sign_agree", u64::from(sign_agree)),
        metric(
            "bench.trace_overhead",
            ratio(
                fastest(traced, |p| p.wall_s),
                fastest(untraced, |p| p.wall_s),
            ) - 1.0,
            "ratio",
        ),
        metric("bench.span_coverage", med(traced, span_coverage), "ratio"),
    ]);
    out
}
