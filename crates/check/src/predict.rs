//! Cross-validation of the static analyzer against dynamic measurement.
//!
//! [`cross_validate`] runs one workload conventionally (single mode) with
//! a [`SharingObserver`] tracer attached, and checks that
//!
//! * every relevant `MemStats` counter lies inside the [`TrafficBounds`]
//!   window the analyzer derived without simulating, and
//! * each layout region's *observed* sharing class (from the per-node
//!   access trace) equals the projection of its *predicted* class
//!   ([`SharingClass::observable`]).
//!
//! Single mode is the validation anchor because the analyzer's node model
//! (task `t` = node `t`, no A-stream, cold caches) is exact there; the
//! slipstream modes add recovery-dependent traffic the bounds do not
//! model. The harness runs over the full quick suite and the fuzz corpus
//! (a `fuzz` pipeline stage), so every generated program differentially
//! tests the analyzer too.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use slipstream_core::{run_full_with_tracer, ExecMode, RunSpec, Workload};
use slipstream_kernel::config::MachineConfig;
use slipstream_kernel::Cycle;
use slipstream_mem::{AccessKind, MemObs, MemStats, MemTracer};

use crate::analysis::{analyze, AnalysisConfig, CostEstimate, ObservedClass, TrafficBounds};
use crate::{instantiate_workload, json_escape};

/// Shared state behind the [`SharingObserver`] tracer handle.
#[derive(Debug, Default)]
struct ObserverState {
    /// Nodes that accessed each line (line index = byte addr / line size).
    accessors: BTreeMap<u64, BTreeSet<u16>>,
    /// Nodes that wrote each line.
    writers: BTreeMap<u64, BTreeSet<u16>>,
}

/// Observation-only [`MemTracer`] recording which nodes touch and write
/// each cache line. Exact in single mode: a [`MemObs::Access`] is emitted
/// for every access, hits included, so the observed sets equal the footprint
/// sets the analyzer computes statically.
#[derive(Debug)]
pub struct SharingObserver {
    state: Rc<RefCell<ObserverState>>,
}

impl SharingObserver {
    fn new() -> (SharingObserver, Rc<RefCell<ObserverState>>) {
        let state = Rc::new(RefCell::new(ObserverState::default()));
        (SharingObserver { state: Rc::clone(&state) }, state)
    }
}

impl MemTracer for SharingObserver {
    fn on(&mut self, _now: Cycle, ev: &MemObs) {
        if let MemObs::Access { cpu, kind, line, .. } = *ev {
            let mut st = self.state.borrow_mut();
            let node = cpu.node().0;
            st.accessors.entry(line.0).or_default().insert(node);
            if kind == AccessKind::Write || kind == AccessKind::ExclPrefetch {
                st.writers.entry(line.0).or_default().insert(node);
            }
        }
    }
}

/// One bound check: `lo <= measured <= hi`.
#[derive(Debug, Clone)]
pub struct BoundCheck {
    /// Stable check name (also the JSON key in fuzz reports).
    pub name: &'static str,
    /// Static lower bound.
    pub lo: u64,
    /// Static upper bound.
    pub hi: u64,
    /// The dynamic measurement.
    pub measured: u64,
    /// Whether the measurement lies inside the window.
    pub ok: bool,
}

impl BoundCheck {
    fn new(name: &'static str, lo: u64, hi: u64, measured: u64) -> BoundCheck {
        BoundCheck { name, lo, hi, measured, ok: lo <= measured && measured <= hi }
    }
}

/// One region's predicted-vs-observed sharing class.
#[derive(Debug, Clone)]
pub struct RegionDelta {
    /// Region name from the layout.
    pub name: String,
    /// The analyzer's class, by name (e.g. `"single-producer"`).
    pub predicted: &'static str,
    /// Its observable projection — what the trace *should* show.
    pub expected: ObservedClass,
    /// What the trace actually showed.
    pub observed: ObservedClass,
    /// `expected == observed`.
    pub ok: bool,
}

/// Full result of cross-validating one workload.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Workload name.
    pub workload: String,
    /// Task (= node) count of the validated run.
    pub ntasks: usize,
    /// The analyzer's traffic bounds.
    pub bounds: TrafficBounds,
    /// The analyzer's cost estimate (reported, not asserted — it is a
    /// heuristic, unlike the bounds).
    pub cost: CostEstimate,
    /// Measured end-to-end cycles (context for the cost estimate).
    pub exec_cycles: u64,
    /// Counter-containment checks, in a fixed order.
    pub checks: Vec<BoundCheck>,
    /// Per-region class comparisons, in layout order.
    pub regions: Vec<RegionDelta>,
    /// Number of `SP*` lints the analyzer emitted (context only).
    pub sp_lints: usize,
    /// Every check and every region comparison passed.
    pub ok: bool,
}

impl ValidationReport {
    /// First failure rendered as a one-line message, if any.
    pub fn first_failure(&self) -> Option<String> {
        if let Some(c) = self.checks.iter().find(|c| !c.ok) {
            return Some(format!(
                "{}: {} = {} outside static bounds [{}, {}]",
                self.workload, c.name, c.measured, c.lo, c.hi
            ));
        }
        self.regions.iter().find(|r| !r.ok).map(|r| {
            format!(
                "{}: region '{}' observed {} but analyzer predicted {} ({})",
                self.workload,
                r.name,
                r.observed.name(),
                r.expected.name(),
                r.predicted
            )
        })
    }

    /// Renders the report as one JSON object (hand-rolled, like the rest
    /// of the workspace). Field order is fixed; `checks` and `regions`
    /// keep their deterministic construction order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"workload\":\"{}\",\"ntasks\":{},\"ok\":{}",
            json_escape(&self.workload),
            self.ntasks,
            self.ok
        ));
        s.push_str(&format!(
            ",\"predicted_cycles\":{},\"exec_cycles\":{},\"sp_lints\":{}",
            self.cost.total_cycles, self.exec_cycles, self.sp_lints
        ));
        s.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"lo\":{},\"hi\":{},\"measured\":{},\"ok\":{}}}",
                c.name, c.lo, c.hi, c.measured, c.ok
            ));
        }
        s.push_str("],\"regions\":[");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"predicted\":\"{}\",\"expected\":\"{}\",\
                 \"observed\":\"{}\",\"ok\":{}}}",
                json_escape(&r.name),
                r.predicted,
                r.expected.name(),
                r.observed.name(),
                r.ok
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Builds the counter-containment checks from bounds + measurements.
/// Public for tests; `cross_validate` is the normal entry point.
pub fn bound_checks(b: &TrafficBounds, m: &MemStats) -> Vec<BoundCheck> {
    vec![
        BoundCheck::new("accesses", b.accesses, b.accesses, m.data_accesses()),
        BoundCheck::new("read_txns", 0, b.loads, m.read_txns),
        BoundCheck::new("excl_txns", 0, b.stores, m.excl_txns),
        BoundCheck::new(
            "requests",
            b.first_touches,
            b.accesses,
            m.read_txns + m.excl_txns,
        ),
        BoundCheck::new(
            "classified",
            b.shared_first_touches,
            b.shared_accesses,
            m.classified_total(),
        ),
        BoundCheck::new("invalidations", 0, b.max_invalidations, m.invalidations_sent),
        BoundCheck::new("interventions", 0, b.max_interventions, m.interventions),
        BoundCheck::new("si_events", 0, 0, m.si_events()),
        // No A-stream exists in single mode: all of its machinery must
        // read exactly zero (a sharp cross-check on the mode plumbing).
        BoundCheck::new(
            "a_stream",
            0,
            0,
            m.a_read_txns + m.excl_prefetches + m.transparent_issued + m.class.a_total(),
        ),
    ]
}

/// Cross-validates one workload at `ntasks` tasks under an explicit
/// machine configuration: static analysis vs. an instrumented single-mode
/// serial run.
pub fn cross_validate_with(
    cfg: &MachineConfig,
    workload: &dyn Workload,
    ntasks: usize,
    acfg: &AnalysisConfig,
) -> ValidationReport {
    let set = instantiate_workload(workload, cfg.page_bytes, ntasks, false);
    let analysis = analyze(&set, acfg);

    let spec =
        RunSpec::new(ntasks as u16, ExecMode::Single).with_machine(cfg.clone());
    let (observer, state) = SharingObserver::new();
    let result = run_full_with_tracer(workload, &spec, Box::new(observer)).0;
    let st = state.borrow();

    let checks = bound_checks(&analysis.bounds, &result.mem);

    let regions: Vec<RegionDelta> = analysis
        .regions
        .iter()
        .map(|rc| {
            let first = rc.base / acfg.line_bytes;
            let last = (rc.base + rc.bytes - 1) / acfg.line_bytes;
            let mut accessors: BTreeSet<u16> = BTreeSet::new();
            let mut writers: BTreeSet<u16> = BTreeSet::new();
            for (_, nodes) in st.accessors.range(first..=last) {
                accessors.extend(nodes);
            }
            for (_, nodes) in st.writers.range(first..=last) {
                writers.extend(nodes);
            }
            let observed = ObservedClass::from_counts(accessors.len(), writers.len());
            let expected = rc.class.observable();
            RegionDelta {
                name: rc.name.clone(),
                predicted: rc.class.name(),
                expected,
                observed,
                ok: expected == observed,
            }
        })
        .collect();

    let ok = checks.iter().all(|c| c.ok) && regions.iter().all(|r| r.ok);
    ValidationReport {
        workload: workload.name().to_string(),
        ntasks,
        bounds: analysis.bounds,
        cost: analysis.cost,
        exec_cycles: result.exec_cycles,
        checks,
        regions,
        sp_lints: analysis.diagnostics.len(),
        ok,
    }
}

/// Cross-validates on the machine the runner would simulate
/// ([`RunSpec::machine_for`]) with the default [`AnalysisConfig`] at the
/// machine's line size.
pub fn cross_validate(workload: &dyn Workload, ntasks: usize) -> ValidationReport {
    let cfg = RunSpec::new(ntasks.max(1) as u16, ExecMode::Single).machine_for(workload);
    let acfg = AnalysisConfig { line_bytes: cfg.l2.line_bytes, ..AnalysisConfig::default() };
    cross_validate_with(&cfg, workload, ntasks, &acfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_checks_flag_out_of_window_counters() {
        let b = TrafficBounds {
            accesses: 10,
            loads: 6,
            stores: 4,
            first_touches: 3,
            shared_first_touches: 2,
            shared_accesses: 8,
            max_invalidations: 1,
            max_interventions: 2,
        };
        // data_accesses == 10: the exact check passes.
        let mut m =
            MemStats { l1_hits: 10, read_txns: 2, excl_txns: 1, ..MemStats::default() };
        let checks = bound_checks(&b, &m);
        assert!(checks.iter().find(|c| c.name == "accesses").unwrap().ok);
        assert!(checks.iter().find(|c| c.name == "requests").unwrap().ok);
        m.read_txns = 7; // exceeds the load count
        let checks = bound_checks(&b, &m);
        assert!(!checks.iter().find(|c| c.name == "read_txns").unwrap().ok);
    }

    #[test]
    fn report_json_has_fixed_field_order() {
        let r = ValidationReport {
            workload: "demo".into(),
            ntasks: 2,
            bounds: TrafficBounds::default(),
            cost: CostEstimate::default(),
            exec_cycles: 123,
            checks: vec![BoundCheck::new("accesses", 1, 1, 1)],
            regions: vec![],
            sp_lints: 0,
            ok: true,
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"workload\":\"demo\",\"ntasks\":2,\"ok\":true"));
        assert!(j.contains("\"checks\":[{\"name\":\"accesses\",\"lo\":1,\"hi\":1,"));
    }
}
