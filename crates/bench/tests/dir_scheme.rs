//! Differential tests for the directory-scheme knob (`DirScheme`).
//!
//! The `SharerSet` refactor replaced the directory's raw `u128` sharer
//! bit-vectors; these tests pin its three guarantees:
//!
//! 1. the default full-map scheme is bit-identical to the pre-refactor
//!    simulator (exec_cycles pinned from the committed benchmark matrix,
//!    quick suite x 4 modes);
//! 2. a limited-pointer directory whose budget is never exceeded is
//!    bit-identical to full-map (the scheme only diverges on overflow);
//! 3. an overflowing limited-pointer directory diverges (broadcast
//!    invalidations appear) while still satisfying every coherence
//!    invariant, and >128-node machines — impossible before the refactor —
//!    run to completion under the checker.

use slipstream_core::{
    run, ArSyncMode, DirScheme, ExecMode, MachineConfig, RunResult, RunSpec, SlipstreamConfig,
    Workload,
};
use slipstream_workloads::{by_name, quick_suite, Sor};

/// The named execution mode `mode` of the benchmark matrix (`bench_sim`'s
/// `cases`), at `nodes` CMPs.
fn mode_spec(mode: &str, nodes: u16) -> RunSpec {
    RunSpec::named(mode, nodes).unwrap_or_else(|| panic!("unknown mode {mode}"))
}

/// `spec` on its own machine with the directory scheme `scheme`.
fn with_scheme(w: &dyn Workload, spec: &RunSpec, scheme: DirScheme) -> RunSpec {
    let machine = MachineConfig { dir_scheme: scheme, ..spec.machine_for(w) };
    spec.clone().with_machine(machine)
}

/// Simulated cycle counts of the quick benchmark matrix *before* the
/// `SharerSet` refactor, as committed in BENCH_sim.json. The default
/// directory scheme must keep reproducing them exactly.
const PRE_REFACTOR_EXEC_CYCLES: &[(&str, &str, u64)] = &[
    ("CG", "single", 308223),
    ("FFT", "single", 796684),
    ("LU", "single", 1085819),
    ("MG", "single", 328802),
    ("OCEAN", "single", 1546373),
    ("SOR", "single", 1075354),
    ("SP", "single", 385842),
    ("WATER-NS", "single", 1018265),
    ("WATER-SP", "single", 526484),
    ("CG", "double", 266232),
    ("FFT", "double", 604526),
    ("LU", "double", 751761),
    ("MG", "double", 214914),
    ("OCEAN", "double", 1248059),
    ("SOR", "double", 737942),
    ("SP", "double", 228763),
    ("WATER-NS", "double", 769025),
    ("WATER-SP", "double", 316776),
    ("CG", "slipstream", 271633),
    ("FFT", "slipstream", 480734),
    ("LU", "slipstream", 1040903),
    ("MG", "slipstream", 259540),
    ("OCEAN", "slipstream", 1443472),
    ("SOR", "slipstream", 939475),
    ("SP", "slipstream", 344539),
    ("WATER-NS", "slipstream", 1068603),
    ("WATER-SP", "slipstream", 573864),
    ("CG", "slipstream+si", 286973),
    ("FFT", "slipstream+si", 465337),
    ("LU", "slipstream+si", 1028348),
    ("MG", "slipstream+si", 319350),
    ("OCEAN", "slipstream+si", 1437977),
    ("SOR", "slipstream+si", 959855),
    ("SP", "slipstream+si", 332371),
    ("WATER-NS", "slipstream+si", 997512),
    ("WATER-SP", "slipstream+si", 573895),
];

/// The default (full-map) scheme reproduces the pre-refactor simulated
/// cycle counts bit-for-bit.
#[test]
fn default_scheme_reproduces_pre_refactor_results() {
    for &(name, mode, cycles) in PRE_REFACTOR_EXEC_CYCLES {
        let w = by_name(name, true).expect("quick suite workload");
        let r = run(w.as_ref(), &mode_spec(mode, 4));
        let ctx = format!("{name} {mode}: default scheme diverged from pre-refactor");
        assert_eq!(r.exec_cycles, cycles, "{ctx}");
    }
}

/// Everything the simulation reports, compared field by field (the
/// `RunResult` types all derive `PartialEq`).
fn assert_results_identical(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{ctx}: exec_cycles");
    assert_eq!(a.mem, b.mem, "{ctx}: memory statistics");
    assert_eq!(a.streams, b.streams, "{ctx}: stream reports");
    assert_eq!(a.recoveries, b.recoveries, "{ctx}: recoveries");
    assert_eq!(a.host_events, b.host_events, "{ctx}: host events");
}

/// A limited-pointer directory whose budget can never overflow (more
/// pointers than nodes) produces the full `RunResult` of the full-map
/// default — the representation change alone is invisible.
#[test]
fn unoverflowed_limited_pointer_matches_full_map() {
    let lp = DirScheme::limited(u8::MAX);
    for w in quick_suite() {
        for mode in ["single", "slipstream+si"] {
            let spec = mode_spec(mode, 4);
            let a = run(w.as_ref(), &spec);
            let b = run(w.as_ref(), &with_scheme(w.as_ref(), &spec, lp));
            assert_results_identical(&a, &b, &format!("{} {mode}", w.name()));
        }
    }
}

/// Runs `spec` with the coherence invariant checker attached, panicking
/// on any violation.
fn run_checked(w: &dyn Workload, spec: &RunSpec) -> RunResult {
    let (result, report) = slipstream_check::run_checked(w, spec);
    assert!(
        report.ok(),
        "{} {:?}: checker rejected the run: {}",
        w.name(),
        spec.mode,
        report.summary()
    );
    result
}

/// A 1-pointer directory on a sharing-heavy workload overflows: broadcast
/// invalidations appear and traffic diverges from full-map, yet every
/// coherence invariant still holds under the checker.
#[test]
fn overflowing_limited_pointer_diverges_but_stays_coherent() {
    let w = by_name("SOR", true).expect("quick SOR");
    let spec = RunSpec::new(8, ExecMode::Single);
    let full = run(w.as_ref(), &spec);
    let lp = run_checked(w.as_ref(), &with_scheme(w.as_ref(), &spec, DirScheme::limited(1)));
    assert!(
        lp.mem.broadcast_invalidations > 0,
        "1-pointer SOR at 8 nodes should overflow into broadcasts"
    );
    assert!(
        lp.mem.invalidations_sent > full.mem.invalidations_sent,
        "broadcasts should send more invalidations than the precise sharer list"
    );
    assert_eq!(full.mem.broadcast_invalidations, 0, "full-map never broadcasts");
}

/// A 256-node machine — beyond the old 128-bit sharer-mask cap — runs to
/// completion under the coherence checker, deterministically.
#[test]
fn machine_with_256_nodes_runs_checked() {
    let w = Sor::quick(); // 256 rows: one per node
    let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let spec = RunSpec::new(256, ExecMode::Slipstream).with_slip(si);
    let r = run_checked(&w, &spec);
    assert_eq!(r.nodes, 256);
    assert!(r.exec_cycles > 0);
    assert_eq!(r, run_checked(&w, &spec), "run is not deterministic");
}
