//! Checked-mode differential tests: attaching the protocol invariant
//! checker must not perturb the simulation. Every field of [`RunResult`]
//! (cycles, per-stream breakdowns, memory statistics, recoveries) has to
//! be bit-identical with and without the checker — and the checker itself
//! must report zero violations on healthy runs.

use slipstream_check::run_checked;
use slipstream_core::{run, RunSpec};
use slipstream_workloads::{by_name, quick_suite};

fn assert_differential(w: &dyn slipstream_core::Workload, mode: &str, nodes: u16) {
    let spec = RunSpec::named(mode, nodes).expect("a named mode");
    let plain = run(w, &spec);
    let (checked, report) = run_checked(w, &spec);
    assert!(
        report.ok(),
        "{} {mode} @{nodes}: {} violation(s):\n{}",
        w.name(),
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        plain,
        checked,
        "{} {mode} @{nodes}: checked run diverged from unchecked run",
        w.name()
    );
    assert!(report.counts.fills > 0, "{} {mode}: checker observed no fills", w.name());
}

/// The full quick suite under the paper's headline configuration
/// (slipstream with self-invalidation) — the mode with the most protocol
/// machinery in play.
#[test]
fn quick_suite_slipstream_si_is_unperturbed_and_clean() {
    for w in quick_suite() {
        assert_differential(w.as_ref(), "slipstream+si", 2);
    }
}

/// Every execution mode over a fast, behaviourally diverse subset:
/// CG (locks), MG (multigrid phases), SP (pipelined events), and
/// WATER-SP (small-L2 machine configuration).
#[test]
fn all_modes_are_unperturbed_and_clean() {
    for name in ["CG", "MG", "SP", "WATER-SP"] {
        let w = by_name(name, true).expect("quick workload");
        for mode in RunSpec::NAMED {
            assert_differential(w.as_ref(), mode, 2);
        }
    }
}
