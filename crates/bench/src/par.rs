//! Parallel sweep executor for the figures.
//!
//! Every figure of the paper is a grid of independent simulations
//! (workload × mode × nodes × slipstream config). A [`Plan`] holds the
//! union of those grids as a list of cells; [`Plan::execute`] deduplicates
//! cells that request the same run (shared single/double baselines appear
//! in several figures), fans the unique runs out over host threads with
//! `std::thread::scope`, and returns results **in plan order** — so output
//! is deterministic and independent of the number of jobs.
//!
//! Each simulation itself stays single-threaded and bit-for-bit
//! reproducible; parallelism exists only between independent runs.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use slipstream_check::{run_checked, CheckReport};
use slipstream_core::{run, RunResult, RunSpec, Workload};

use crate::host_note;

/// Identity of one simulation cell: the workload's name and the whole
/// [`RunSpec`], so every field that can change a result tells runs apart.
/// Used as the dedup/cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload name (workloads are identified by name + the suite's
    /// problem size, which the caller fixes via `--quick`).
    pub name: String,
    /// The run.
    pub spec: RunSpec,
}

impl RunKey {
    /// The key identifying `workload` run under `spec`.
    pub fn new(workload: &dyn Workload, spec: &RunSpec) -> RunKey {
        RunKey { name: workload.name().to_string(), spec: spec.clone() }
    }
}

/// A run the protocol checker rejected (`--check`): the figures must not
/// be rendered from it.
#[derive(Debug)]
pub struct Rejected {
    /// The rejected run.
    pub key: RunKey,
    /// The checker's report, with at least one violation.
    pub report: CheckReport,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = &self.key;
        for v in &self.report.violations {
            writeln!(f, "{} {v}", k.name)?;
        }
        write!(
            f,
            "protocol checker rejected {} {} @{} CMPs: {}",
            k.name,
            k.spec.mode,
            k.spec.nodes,
            self.report.summary()
        )
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

    /// Cells and their dedup keys, in plan order.
    pub fn keys(&self) -> impl Iterator<Item = RunKey> + '_ {
        self.cells.iter().map(|(w, spec)| RunKey::new(*w, spec))
    }

    /// Executes the plan on up to `jobs` worker threads and returns one
    /// result per cell, in plan order. With `check`, every run has the
    /// coherence invariant checker attached; checked runs are
    /// bit-identical to unchecked ones.
    ///
    /// Duplicate cells are simulated once and the result is cloned into
    /// each requesting position. Work is handed out through an atomic
    /// cursor, so threads stay busy regardless of per-run cost; the result
    /// order (and every simulated number) is independent of `jobs`.
    ///
    /// # Errors
    ///
    /// The first run, in plan order, that the checker rejected.
    pub fn execute(&self, jobs: usize, check: bool) -> Result<Vec<RunResult>, Box<Rejected>> {
        // Dedup: map every cell to the first cell with the same key.
        let mut first_of: HashMap<RunKey, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new(); // cell index of each unique run
        let mut cell_slot: Vec<usize> = Vec::with_capacity(self.cells.len());
        for (i, key) in self.keys().enumerate() {
            let slot = *first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            cell_slot.push(slot);
        }

        let slots: Vec<Mutex<Option<Result<RunResult, CheckReport>>>> =
            unique.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = jobs.max(1).min(unique.len().max(1));
        let plan_started = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= unique.len() {
                        break;
                    }
                    let (w, spec) = &self.cells[unique[u]];
                    let started = Instant::now();
                    let outcome = run_cell(*w, spec, check);
                    if let Ok(result) = &outcome {
                        host_note!(
                            "  [ran {} {} @{} CMPs in {:.1}s: {} cycles]",
                            w.name(),
                            spec.mode,
                            spec.nodes,
                            started.elapsed().as_secs_f64(),
                            result.exec_cycles
                        );
                    }
                    *slots[u].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });
        host_note!(
            "  [plan: {} runs requested, {} simulated on {workers} threads in {:.1}s]",
            self.cells.len(),
            unique.len(),
            plan_started.elapsed().as_secs_f64()
        );

        let results = slots
            .into_iter()
            .zip(&unique)
            .map(|(slot, &i)| {
                let outcome = slot.into_inner().expect("result slot poisoned");
                outcome.expect("every unique cell was executed").map_err(|report| {
                    let (w, spec) = &self.cells[i];
                    Box::new(Rejected { key: RunKey::new(*w, spec), report })
                })
            })
            .collect::<Result<Vec<RunResult>, _>>()?;
        Ok(cell_slot.iter().map(|&slot| results[slot].clone()).collect())
    }
}

/// Runs one cell, with the protocol checker attached when `check` is set.
///
/// # Errors
///
/// The checker's report, if it found any violation.
fn run_cell(w: &dyn Workload, spec: &RunSpec, check: bool) -> Result<RunResult, CheckReport> {
    if !check {
        return Ok(run(w, spec));
    }
    let (result, report) = run_checked(w, spec);
    if report.ok() {
        Ok(result)
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_core::{DirScheme, ExecMode, MachineConfig, SlipstreamConfig};
    use slipstream_workloads::by_name;

    #[test]
    fn dedup_counts_unique_cells_once() {
        let w = by_name("SOR", true).expect("quick SOR");
        let single = RunSpec::new(2, ExecMode::Single);
        let paper = single.machine_for(w.as_ref());
        let migratory = MachineConfig { migratory_opt: true, ..paper.clone() };
        let limited = MachineConfig { dir_scheme: DirScheme::limited(1), ..paper };
        let capped = SlipstreamConfig { max_tokens: 1, ..SlipstreamConfig::default() };
        let mut plan = Plan::new();
        plan.add(w.as_ref(), single.clone());
        plan.add(w.as_ref(), single.clone()); // duplicate
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Double));
        // Each differs from the single-mode cell in one field only.
        plan.add(w.as_ref(), single.clone().with_machine(migratory));
        plan.add(w.as_ref(), single.clone().with_machine(limited));
        plan.add(w.as_ref(), single.with_slip(capped));
        let keys: Vec<RunKey> = plan.keys().collect();
        assert_eq!(keys[0], keys[1]);
        for (i, a) in keys.iter().enumerate().skip(1) {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "cells {i} and later must have distinct keys");
            }
        }
        let results = plan.execute(2, false).expect("unchecked");
        assert_eq!(results.len(), 6);
        // The duplicate positions carry the same (cloned) result.
        assert_eq!(results[0].exec_cycles, results[1].exec_cycles);
        assert_eq!(results[0].mem, results[1].mem);
        assert_eq!(results[5], results[0], "single mode ignores the token cap");
        assert!(results[4].mem.broadcast_invalidations > 0, "1 pointer overflows on SOR");
    }

    #[test]
    fn plan_order_is_independent_of_jobs() {
        let w = by_name("SOR", true).expect("quick SOR");
        let mut plan = Plan::new();
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Double));
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Slipstream));
        let serial = plan.execute(1, false).expect("unchecked");
        let parallel = plan.execute(4, false).expect("unchecked");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn checked_runs_match_unchecked_runs() {
        let w = by_name("SOR", true).expect("quick SOR");
        let mut plan = Plan::new();
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(2, ExecMode::Slipstream));
        let checked = plan.execute(2, true).unwrap_or_else(|r| panic!("{r}"));
        assert_eq!(checked, plan.execute(1, false).expect("unchecked"));
    }
}
