//! Differential pinning of the generated corpus: in every execution
//! mode the committed-seed programs must simulate deterministically, and a
//! protocol-checked run must be clean and bit-identical to the unchecked
//! one. This is the dynamic half of the fuzz pipeline (`fuzz` runs the
//! whole corpus; this test pins a representative slice in CI's tier-1
//! suite).

use slipstream_check::run_checked;
use slipstream_core::{run, ArSyncMode, ExecMode, RunSpec, SlipstreamConfig, Workload};
use slipstream_gen::corpus::{corpus_entry, CORPUS_SEED};
use slipstream_gen::Pattern;

/// Two corpus entries per pattern: the first full rotation and the next.
fn slice() -> Vec<slipstream_gen::GenWorkload> {
    (0..2 * Pattern::ALL.len()).map(|i| corpus_entry(CORPUS_SEED, i)).collect()
}

fn mode_specs(nodes: u16) -> Vec<(&'static str, RunSpec)> {
    vec![
        ("single", RunSpec::new(nodes, ExecMode::Single)),
        ("double", RunSpec::new(nodes, ExecMode::Double)),
        (
            "slipstream",
            RunSpec::new(nodes, ExecMode::Slipstream)
                .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal)),
        ),
        (
            "slipstream+si",
            RunSpec::new(nodes, ExecMode::Slipstream)
                .with_slip(SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal)),
        ),
    ]
}

/// Checked runs over the corpus slice: zero protocol violations, and the
/// checker does not perturb the simulation.
#[test]
fn generated_corpus_checked_runs_are_clean_and_unperturbed() {
    for w in slice() {
        for (mode, spec) in mode_specs(2) {
            let plain = run(&w, &spec);
            let (checked, report) = run_checked(&w, &spec);
            assert!(
                report.ok(),
                "{} {mode}: protocol checker: {}",
                w.name(),
                report.summary()
            );
            assert_eq!(plain, checked, "{} {mode}: checked run diverged", w.name());
        }
    }
}

/// Generated programs are deterministic: running twice reproduces the
/// result exactly (including host accounting).
#[test]
fn generated_corpus_runs_are_deterministic() {
    for w in slice().into_iter().take(6) {
        for (mode, spec) in mode_specs(2) {
            let (a, b) = (run(&w, &spec), run(&w, &spec));
            assert_eq!(a, b, "{} {mode}: nondeterminism", w.name());
        }
    }
}
