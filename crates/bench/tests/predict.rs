//! Differential validation of the static sharing analyzer: for every
//! quick-suite workload and a slice of the generated fuzz corpus, the
//! dynamic measurements of an instrumented single-mode run must lie
//! inside the analyzer's static bounds, and each region's observed
//! sharing class must equal the predicted class's observable projection.
//!
//! The `fuzz` binary runs the same harness over every clean program of
//! the *full* corpus (216 programs), and `check --validate` over the
//! suite; this test pins the quick suite plus a 12-program corpus slice.

use std::process::{Command, Stdio};

use slipstream_check::cross_validate;
use slipstream_core::Workload;
use slipstream_gen::corpus::{corpus_entry, CORPUS_SEED};
use slipstream_gen::Pattern;
use slipstream_workloads::quick_suite;

fn assert_validates(w: &dyn Workload, ntasks: usize) {
    let report = cross_validate(w, ntasks);
    assert!(
        report.ok,
        "{} [ntasks={ntasks}]: {}\n{}",
        w.name(),
        report.first_failure().unwrap_or_default(),
        report.to_json()
    );
}

#[test]
fn quick_suite_measurements_lie_within_static_bounds() {
    for w in quick_suite() {
        for ntasks in [2usize, 4] {
            assert_validates(w.as_ref(), ntasks);
        }
    }
}

#[test]
fn corpus_slice_measurements_lie_within_static_bounds() {
    // Two corpus entries per pattern (the same slice gen_corpus.rs pins
    // dynamically), at the fuzz pipeline's default node count.
    for i in 0..2 * Pattern::ALL.len() {
        let w = corpus_entry(CORPUS_SEED, i);
        assert_validates(&w, 2);
    }
}

#[test]
fn check_validate_passes_on_quick_sor() {
    let status = Command::new(env!("CARGO_BIN_EXE_check"))
        .args(["--validate", "--quick", "--bench", "SOR"])
        .stdout(Stdio::null())
        .status()
        .expect("check runs");
    assert!(status.success(), "check --validate exited with {status}");
}

#[test]
fn validation_reports_are_deterministic() {
    let w = corpus_entry(CORPUS_SEED, 0);
    let a = cross_validate(&w, 2).to_json();
    let b = cross_validate(&w, 2).to_json();
    assert_eq!(a, b);
}
