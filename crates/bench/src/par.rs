//! Parallel sweep executor for the figure binaries.
//!
//! Every figure of the paper is a grid of independent simulations
//! (workload × mode × nodes × slipstream config). A [`Plan`] declares that
//! grid as a list of cells; [`Plan::execute`] deduplicates cells that
//! request the same run (shared single/double baselines appear in several
//! figures), fans the unique runs out over host threads with
//! `std::thread::scope`, and returns results **in plan order** — so output
//! is deterministic and independent of the number of jobs.
//!
//! Each simulation itself stays single-threaded and bit-for-bit
//! reproducible; parallelism exists only between independent runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use slipstream_core::{
    run, ExecMode, MachineConfig, RunResult, RunSpec, SlipstreamConfig, Workload,
};

use crate::host_note;

/// Structured identity of one simulation cell: everything that influences
/// the result. Used as the dedup/cache key (replacing the former
/// `format!("{:?}", …)` string keys, which allocated per lookup and would
/// silently collide or diverge if a `Debug` impl changed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload name (workloads are identified by name + the suite's
    /// problem size, which the caller fixes via `--quick`).
    pub name: String,
    /// CMP count.
    pub nodes: u16,
    /// Execution mode.
    pub mode: ExecMode,
    /// Slipstream knobs (ignored by the simulator outside slipstream mode,
    /// but part of the spec, so kept: identical results cached under one
    /// entry require identical specs).
    pub slip: SlipstreamConfig,
    /// Machine override, if any.
    pub machine: Option<MachineConfig>,
    /// Private-work batching quantum.
    pub quantum_cycles: u64,
    /// Cost of an `Input` op.
    pub input_cycles: u64,
    /// Directory scheme override, if any (`None` keeps the machine's
    /// default full-map directory). Limited-pointer runs change protocol
    /// traffic, so they must never dedup against full-map runs.
    pub dir_scheme: Option<slipstream_core::DirScheme>,
}

impl RunKey {
    /// The key identifying `workload` run under `spec`.
    pub fn new(workload: &dyn Workload, spec: &RunSpec) -> RunKey {
        RunKey {
            name: workload.name().to_string(),
            nodes: spec.nodes,
            mode: spec.mode,
            slip: spec.slip,
            machine: spec.machine.clone(),
            quantum_cycles: spec.quantum_cycles,
            input_cycles: spec.input_cycles,
            dir_scheme: spec.dir_scheme,
        }
    }
}

/// A declarative list of `(workload, spec)` simulation cells.
///
/// Cells may repeat (e.g. the single-mode baseline of every figure row);
/// execution runs each distinct cell once.
#[derive(Default)]
pub struct Plan<'w> {
    cells: Vec<(&'w dyn Workload, RunSpec)>,
}

impl<'w> Plan<'w> {
    /// An empty plan.
    pub fn new() -> Plan<'w> {
        Plan { cells: Vec::new() }
    }

    /// Appends one cell.
    pub fn add(&mut self, workload: &'w dyn Workload, spec: RunSpec) {
        self.cells.push((workload, spec));
    }

    /// Number of cells (including duplicates).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells and their dedup keys, in plan order.
    pub fn keys(&self) -> impl Iterator<Item = RunKey> + '_ {
        self.cells.iter().map(|(w, spec)| RunKey::new(*w, spec))
    }

    /// Executes the plan on up to `jobs` worker threads and returns one
    /// result per cell, in plan order.
    ///
    /// Duplicate cells are simulated once and the result is cloned into
    /// each requesting position. Work is handed out through an atomic
    /// cursor, so threads stay busy regardless of per-run cost; the result
    /// order (and every simulated number) is independent of `jobs`.
    pub fn execute(&self, jobs: usize) -> Vec<RunResult> {
        self.execute_opts(jobs, false)
    }

    /// [`Plan::execute`] with the coherence invariant checker optionally
    /// attached to every run (`--check` on the figure binaries).
    ///
    /// Checked runs are bit-identical to unchecked ones; a protocol
    /// violation prints the report and panics, failing the figure loudly
    /// rather than rendering numbers from a run the checker rejected.
    pub fn execute_opts(&self, jobs: usize, check: bool) -> Vec<RunResult> {
        // Dedup: map every cell to the first cell with the same key.
        let mut first_of: HashMap<RunKey, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new(); // cell index of each unique run
        let mut cell_slot: Vec<usize> = Vec::with_capacity(self.cells.len());
        for (i, (w, spec)) in self.cells.iter().enumerate() {
            let key = RunKey::new(*w, spec);
            let slot = *first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            cell_slot.push(slot);
        }

        let slots: Vec<Mutex<Option<RunResult>>> =
            unique.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = jobs.max(1).min(unique.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= unique.len() {
                        break;
                    }
                    let (w, spec) = &self.cells[unique[u]];
                    let started = std::time::Instant::now();
                    let result = run_cell(*w, spec, check);
                    host_note!(
                        "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
                        w.name(),
                        spec.mode,
                        spec.nodes,
                        started.elapsed().as_secs_f64(),
                        result.exec_cycles
                    );
                    *slots[u].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        cell_slot
            .iter()
            .map(|&slot| {
                slots[slot]
                    .lock()
                    .expect("result slot poisoned")
                    .clone()
                    .expect("every unique cell was executed")
            })
            .collect()
    }
}

/// Runs one cell, with the protocol checker attached when `check` is set.
///
/// # Panics
///
/// Panics if the checker reports any violation (after printing the full
/// report to stderr).
pub(crate) fn run_cell(w: &dyn Workload, spec: &RunSpec, check: bool) -> RunResult {
    if !check {
        return run(w, spec);
    }
    let (result, report) = slipstream_check::run_checked(w, spec);
    if !report.ok() {
        for v in &report.violations {
            eprintln!("{} {v}", w.name());
        }
        panic!(
            "protocol checker rejected {} {} @{} CMPs: {}",
            w.name(),
            spec.mode,
            spec.nodes,
            report.summary()
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_workloads::by_name;

    #[test]
    fn dedup_counts_unique_cells_once() {
        let w = by_name("SOR", true).expect("quick SOR");
        let mut plan = Plan::new();
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single)); // duplicate
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Double));
        let keys: Vec<RunKey> = plan.keys().collect();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        let results = plan.execute(2);
        assert_eq!(results.len(), 3);
        // The duplicate positions carry the same (cloned) result.
        assert_eq!(results[0].exec_cycles, results[1].exec_cycles);
        assert_eq!(results[0].mem, results[1].mem);
    }

    #[test]
    fn plan_order_is_independent_of_jobs() {
        fn mk<'w>(plan: &mut Plan<'w>, w: &'w dyn Workload) {
            plan.add(w, RunSpec::new(2, ExecMode::Single));
            plan.add(w, RunSpec::new(2, ExecMode::Double));
            plan.add(w, RunSpec::new(2, ExecMode::Slipstream));
        }
        let w = by_name("SOR", true).expect("quick SOR");
        let mut p1 = Plan::new();
        mk(&mut p1, w.as_ref());
        let mut p4 = Plan::new();
        mk(&mut p4, w.as_ref());
        let serial = p1.execute(1);
        let parallel = p4.execute(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.exec_cycles, b.exec_cycles);
            assert_eq!(a.mem, b.mem);
            assert_eq!(a.recoveries, b.recoveries);
        }
    }
}
