//! Smoke runs of the benchmark binary (one cell per workload): the result
//! lines follow `BENCHMARK.json`'s schema and catalogue, outputs match the
//! golden digests, traces are written, and count metrics repeat exactly.

use std::process::Command;

use slipstream_benchmark::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_slipstream-benchmark");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section}")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{section} entry without name and unit"),
        })
        .collect()
}

/// Runs every workload in smoke mode; returns each workload's result
/// (the children's lines, in order), checked against the schema.
fn smoke(trace: &str) -> Vec<Vec<(String, f64, String)>> {
    let out = Command::new(EXE)
        .args(["--smoke", "--trace", trace])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), 5, "four workloads and the combined line");
    assert!(
        stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\"")),
        "the combined result is the last line"
    );

    let expected = catalogue(if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    });
    results[..4]
        .iter()
        .map(|r| {
            let Json::Obj(kv) = r else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "golden digests and checks hold"
            );
            assert_eq!(r.get("failed").and_then(Json::num), Some(0.0));
            assert!(r
                .get("attempted")
                .and_then(Json::num)
                .is_some_and(|a| a >= 1.0 && a.fract() == 0.0));
            let Some(Json::Obj(ms)) = r.get("metrics") else {
                panic!("no metrics object")
            };
            let got: Vec<(String, f64, String)> = ms
                .iter()
                .map(|(name, m)| {
                    assert!(
                        !name.is_empty()
                            && name
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "bad metric name {name}"
                    );
                    let Some(Json::Str(unit)) = m.get("unit") else {
                        panic!("{name} has no unit")
                    };
                    let value = m
                        .get("value")
                        .and_then(Json::num)
                        .unwrap_or_else(|| panic!("{name} has no value"));
                    (name.clone(), value, unit.clone())
                })
                .collect();
            let named: Vec<(String, String)> =
                got.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
            assert_eq!(named, expected, "metrics and units follow BENCHMARK.json");
            got
        })
        .collect()
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    for metrics in smoke("0") {
        for (name, value, _) in metrics {
            assert!(value > 0.0, "{name} must never be 0");
        }
    }
}

#[test]
fn traced_smoke_writes_spans_and_repeats_counts_exactly() {
    let dir = |i: usize| format!("{}/smoke-trace-{i}", env!("CARGO_TARGET_TMPDIR"));
    let counts = |runs: Vec<Vec<(String, f64, String)>>| -> Vec<(String, f64)> {
        runs.into_iter()
            .flatten()
            .filter(|(_, _, u)| u == "count")
            .map(|(n, v, _)| (n, v))
            .collect()
    };
    let first = counts(smoke(&dir(0)));
    assert!(first.iter().any(|(n, v)| n == "core.events" && *v > 0.0));
    assert_eq!(
        first,
        counts(smoke(&dir(1))),
        "count metrics repeat exactly"
    );

    for w in [
        "paper-headline",
        "scale-256",
        "quick-observed",
        "fuzz-corpus",
    ] {
        let base = format!("{}/{w}", dir(0));
        let spans = std::fs::read_to_string(format!("{base}/spans.jsonl")).expect("spans.jsonl");
        for line in spans.lines() {
            let s = json::parse(line).expect("span line parses");
            for key in ["id", "parent", "cell", "name", "start_ns", "end_ns"] {
                assert!(s.get(key).is_some(), "span without {key}: {line}");
            }
        }
        let layers = json::parse(
            &std::fs::read_to_string(format!("{base}/layers.json")).expect("layers.json"),
        )
        .expect("layers.json parses");
        assert!(
            layers
                .get("layers")
                .and_then(|l| l.get("core.run"))
                .is_some(),
            "{w} times core.run"
        );
    }
}
