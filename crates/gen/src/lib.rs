//! Seeded sharing-pattern program generator.
//!
//! This crate closes the loop between the DSL, the static verifier
//! (`slipstream-check`), and the simulator: it emits parameterized
//! programs for six canonical CMP sharing patterns — producer-consumer
//! hand-off, migratory records, false sharing, read-mostly tables,
//! lock-heavy vs barrier-heavy synchronization, and diverge-laced
//! slipstream stressors — each fully reproducible from `(seed, spec)`.
//!
//! A [`GenWorkload`] is an ordinary [`Workload`], so generated programs
//! run through the same machine runner as the paper's nine benchmarks.
//! Each one also knows its structural [`PatternContract`]
//! (rule SC015), and can carry one seeded [`Mutation`] — a planted bug
//! the verifier must catch, which is what keeps the clean corpus's
//! "zero diagnostics" result meaningful.
//!
//! The `fuzz` binary in `crates/bench` drives the full differential
//! pipeline: generate, statically verify, simulate every execution mode,
//! run the checked protocol monitor, and then re-check every mutant.

mod mutate;
mod patterns;
mod spec;

pub mod corpus;

pub use mutate::Mutation;
pub use spec::{Pattern, PatternSpec, LINE};

use slipstream_check::{
    analyze_tasks, instantiate_workload, verify_contract, verify_task_set, AnalysisConfig,
    PatternContract,
};
use slipstream_core::{TaskBuilderFn, Workload};
use slipstream_prog::Layout;

/// One generated program set: a spec, the seed it is instantiated from,
/// and optionally a planted mutation.
pub struct GenWorkload {
    spec: PatternSpec,
    seed: u64,
    mutation: Option<Mutation>,
    name: String,
}

impl GenWorkload {
    /// A clean (mutation-free) generated workload.
    pub fn new(spec: PatternSpec, seed: u64) -> GenWorkload {
        let name = format!("gen:{}:{:08x}", spec.pattern.key(), seed);
        GenWorkload { spec, seed, mutation: None, name }
    }

    /// The same program set with one planted bug. The spec's pattern
    /// should be `mutation.pattern()` — the pattern whose structure the
    /// defect targets.
    pub fn mutated(spec: PatternSpec, seed: u64, mutation: Mutation) -> GenWorkload {
        let name = format!("gen:{}:{:08x}:{}", spec.pattern.key(), seed, mutation.key());
        GenWorkload { spec, seed, mutation: Some(mutation), name }
    }

    /// The spec this workload instantiates.
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planted mutation, if any.
    pub fn mutation(&self) -> Option<Mutation> {
        self.mutation
    }

    /// The structural contract the generated programs promise to satisfy
    /// for `ntasks` tasks (rule SC015).
    pub fn contract(&self, ntasks: usize) -> PatternContract {
        self.spec.contract(self.seed, ntasks)
    }

    /// The mutant kill check: instantiates the programs for `ntasks` tasks
    /// (as R/A pairs when the mutation needs them), runs the static
    /// verifier, the pattern contract and the sharing analyzer, and looks
    /// for the mutation's expected rule at its expected severity. The
    /// analyzer belongs in the pipeline because class-shifting mutations
    /// are race-free: only its `SP*` lints can see them.
    ///
    /// # Errors
    ///
    /// The planted bug went unnoticed; the error lists the ids of the
    /// rules that did fire, in diagnostic order.
    ///
    /// # Panics
    ///
    /// Panics if the workload carries no mutation.
    pub fn kill_check(
        &self,
        page_bytes: u64,
        ntasks: usize,
        acfg: &AnalysisConfig,
    ) -> Result<(), Vec<&'static str>> {
        let m = self.mutation.expect("the kill check needs a mutant");
        let set = instantiate_workload(self, page_bytes, ntasks, m.needs_slipstream());
        let mut diags = verify_task_set(&set);
        diags.extend(verify_contract(&set.r, &self.contract(ntasks)));
        diags.extend(analyze_tasks(&set.layout, &set.r, acfg).diagnostics);
        let (rule, severity) = (m.expected_rule(), m.expected_severity());
        if diags.iter().any(|d| d.rule == rule && d.severity == severity) {
            Ok(())
        } else {
            Err(diags.iter().map(|d| d.rule.id()).collect())
        }
    }
}

impl Workload for GenWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn instantiate(&self, ntasks: usize, layout: &mut Layout) -> TaskBuilderFn {
        patterns::instantiate(self.spec.clone(), self.seed, self.mutation, ntasks, layout)
    }
}
