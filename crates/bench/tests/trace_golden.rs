//! Pins the observation layer's output bytes: for a few representative
//! cells, the record counts and FNV-64 digests of every trace exporter,
//! plus the protocol checker's summary of the same run.
//!
//! The simulator is deterministic, so any drift here means a change
//! altered what the memory system reports (or how it is exported). That
//! may be deliberate — then re-bless with
//! `BLESS=1 cargo test -p slipstream-bench --test trace_golden` — but a
//! refactor of the observation plumbing must leave this file untouched.

use std::path::Path;
use std::process::{Command, Stdio};

use slipstream_check::run_checked;
use slipstream_core::{
    run, run_traced, ArSyncMode, DirScheme, ExecMode, MachineConfig, RunSpec, SlipstreamConfig,
    TraceConfig, Workload,
};
use slipstream_gen::{GenWorkload, Pattern, PatternSpec};
use slipstream_kernel::SplitMix64;

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one cell traced (the configuration of `inspect --out`) and
/// checked, and renders its pinned lines. `must_contain` names event
/// JSONL fragments the cell exists to cover.
fn cell(label: &str, w: &dyn Workload, spec: RunSpec, must_contain: &[&str]) -> String {
    let spec = spec.with_trace(TraceConfig::full(10_000));
    let (result, data) = run_traced(w, &spec);
    let data = data.expect("tracing is enabled");
    let untraced = run(w, &RunSpec { trace: TraceConfig::default(), ..spec.clone() });
    assert_eq!(result, untraced, "{label}: tracing perturbed the run");
    let (checked, report) = run_checked(w, &spec);
    assert_eq!(result, checked, "{label}: checking perturbed the run");
    assert!(report.ok(), "{label}: {}", report.summary());

    let events = data.events_jsonl();
    for frag in must_contain {
        assert!(events.contains(frag), "{label}: no {frag} record; the cell no longer covers it");
    }
    let mut out = format!(
        "{label}: cycles={} recoveries={} records={} dropped={} samples={} hot={}\n",
        result.exec_cycles,
        result.recoveries,
        data.records.len(),
        data.dropped,
        data.samples.len(),
        data.hot.len(),
    );
    for (name, text) in [
        ("events_jsonl", events),
        ("chrome_trace_json", data.chrome_trace_json()),
        ("metrics_jsonl", data.metrics_jsonl()),
        ("hotline_report", data.hotline_report(32)),
    ] {
        out += &format!("  {name}: {} bytes, fnv64 {:016x}\n", text.len(), fnv64(text.as_bytes()));
    }
    out += &format!("  check: {}\n", report.summary());
    out
}

fn slip(nodes: u16) -> RunSpec {
    RunSpec::new(nodes, ExecMode::Slipstream)
        .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal))
}

#[test]
fn trace_exports_match_golden() {
    let sor = slipstream_workloads::by_name("SOR", true).expect("SOR quick workload");
    // No quick-suite cell deviates, so recoveries come from a generated
    // diverge-laced program (the generator's own recovery test seed).
    let seed = 0xD1FE_0001;
    let diverge_spec = PatternSpec::sample(Pattern::DivergeLaced, &mut SplitMix64::new(seed));
    let diverge = GenWorkload::new(diverge_spec, seed);
    let cg = slipstream_workloads::by_name("CG", true).expect("CG quick workload");
    let cg_si =
        slip(4).with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal));
    let limited = MachineConfig { dir_scheme: DirScheme::limited(1), ..cg_si.machine_for(&*cg) };
    let cg_si = cg_si.with_machine(limited);

    let actual = [
        cell("SOR@8/slip", sor.as_ref(), slip(8), &["\"ev\":\"miss\"", "\"ev\":\"barrier_arrive\""]),
        cell(
            "diverge-laced@2/slip",
            &diverge,
            slip(2),
            &["\"ev\":\"recovery\"", "\"ev\":\"session_end\""],
        ),
        cell(
            "CG@4/slip+si/limited-1",
            cg.as_ref(),
            cg_si,
            &["\"overflow\":true", "\"ev\":\"si_hint\"", "\"ev\":\"transparent_reply\""],
        ),
    ]
    .concat();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_golden.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden directory");
        std::fs::write(path, &actual).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file (bless with BLESS=1)");
    assert_eq!(
        actual, golden,
        "trace exports drifted from the golden; if intended, re-bless with BLESS=1"
    );
}

/// `inspect --out DIR` writes the four exports, and its traced run passes
/// the determinism check against the untraced one.
#[test]
fn inspect_out_writes_the_four_exports() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("inspect_out");
    let status = Command::new(env!("CARGO_BIN_EXE_inspect"))
        .args(["SOR", "2", "slip", "--quick", "--out"])
        .arg(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("inspect runs");
    assert!(status.success(), "inspect exited with {status}");
    for file in ["trace.json", "events.jsonl", "metrics.jsonl", "hotlines.txt"] {
        let len = std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "inspect --out wrote no {file}");
    }
}
