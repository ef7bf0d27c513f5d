//! Generator self-checks: reproducibility, static cleanliness of every
//! pattern (including the structural contract, rule SC015), and the
//! mutation kill test — every planted bug must be caught by exactly the
//! rule that targets its defect class.

use slipstream_check::{
    instantiate_workload, verify_contract, verify_task_set, AnalysisConfig, Severity,
};
use slipstream_core::{run, ArSyncMode, ExecMode, RunSpec, SlipstreamConfig, Workload as _};
use slipstream_gen::corpus::{self, CORPUS_SEED};
use slipstream_gen::{GenWorkload, Mutation, Pattern, PatternSpec};
use slipstream_kernel::SplitMix64;
use slipstream_prog::Op;

const PAGE: u64 = 4096;

fn spec_for(pattern: Pattern, seed: u64) -> PatternSpec {
    PatternSpec::sample(pattern, &mut SplitMix64::new(seed))
}

/// All ops of every program in instantiation order, for equality checks.
fn fingerprint(w: &GenWorkload, ntasks: usize, slipstream: bool) -> Vec<Vec<Op>> {
    let set = instantiate_workload(w, PAGE, ntasks, slipstream);
    set.r
        .iter()
        .chain(&set.a)
        .map(|tp| tp.prog.iter().collect())
        .collect()
}

#[test]
fn generation_is_reproducible_from_seed_and_spec() {
    for (i, p) in Pattern::ALL.into_iter().enumerate() {
        let seed = 0xA5A5_0000 + i as u64;
        let w1 = GenWorkload::new(spec_for(p, seed), seed);
        let w2 = GenWorkload::new(spec_for(p, seed), seed);
        for slipstream in [false, true] {
            assert_eq!(
                fingerprint(&w1, 4, slipstream),
                fingerprint(&w2, 4, slipstream),
                "{}: two instantiations differ (slipstream={slipstream})",
                p.key()
            );
        }
        let other = GenWorkload::new(spec_for(p, seed + 1), seed + 1);
        assert_ne!(
            fingerprint(&w1, 4, false),
            fingerprint(&other, 4, false),
            "{}: different seeds produced identical programs",
            p.key()
        );
    }
}

/// A clean generated program set must be statically spotless: no
/// happens-before, lockset, lock-order, space, or skeleton diagnostics in
/// either instantiation, and no contract violations.
fn assert_clean(w: &GenWorkload, ntasks: usize) {
    for slipstream in [false, true] {
        let set = instantiate_workload(w, PAGE, ntasks, slipstream);
        let diags = verify_task_set(&set);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{} ({} tasks, slipstream={slipstream}): {:#?}",
            w.name(),
            ntasks,
            diags
        );
        let cd = verify_contract(&set.r, &w.contract(ntasks));
        assert!(
            cd.is_empty(),
            "{} ({} tasks, slipstream={slipstream}): contract violations {:#?}",
            w.name(),
            ntasks,
            cd
        );
    }
}

#[test]
fn every_pattern_is_statically_clean_across_task_counts() {
    for (i, p) in Pattern::ALL.into_iter().enumerate() {
        for (j, base) in [0xBEEF_0000u64, 0xCAFE_0000].into_iter().enumerate() {
            let seed = base + (i * 7 + j) as u64;
            let w = GenWorkload::new(spec_for(p, seed), seed);
            for ntasks in [2usize, 4, 6] {
                assert_clean(&w, ntasks);
            }
        }
    }
}

#[test]
fn committed_corpus_prefix_is_clean() {
    // One full pattern rotation of the committed corpus; the fuzz binary
    // covers all CORPUS_COUNT entries (and the simulation side).
    for i in 0..2 * Pattern::ALL.len() {
        let w = corpus::corpus_entry(CORPUS_SEED, i);
        assert_clean(&w, 4);
    }
}

#[test]
fn every_mutation_is_caught_with_its_expected_rule() {
    for (i, m) in Mutation::ALL.into_iter().enumerate() {
        let w = corpus::mutant_entry(CORPUS_SEED, i);
        assert_eq!(w.mutation(), Some(m));
        if let Err(fired) = w.kill_check(PAGE, 4, &AnalysisConfig::default()) {
            let rule = m.expected_rule();
            panic!("mutant `{}`: expected {} ({}), got {fired:?}", w.name(), rule.id(), rule.name());
        }
    }
}

/// Clean programs must also be *detectably* clean: the mutation kill test
/// only means something if the same pipeline passes the unmutated twin.
#[test]
fn mutant_twins_without_the_mutation_are_clean() {
    for (i, m) in Mutation::ALL.into_iter().enumerate() {
        let mutant = corpus::mutant_entry(CORPUS_SEED, i);
        let twin = GenWorkload::new(mutant.spec().clone(), mutant.seed());
        assert_clean(&twin, 4);
        let _ = m;
    }
}

/// The diverge-laced pattern must actually exercise slipstream's
/// kill/refork path: a slipstream run reports at least one recovery.
#[test]
fn diverge_laced_programs_trigger_recoveries() {
    let seed = 0xD1FE_0001;
    let w = GenWorkload::new(spec_for(Pattern::DivergeLaced, seed), seed);
    let spec = RunSpec::new(2, ExecMode::Slipstream)
        .with_slip(SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenGlobal));
    let r = run(&w, &spec);
    assert!(r.recoveries > 0, "expected kill/refork recoveries, got {:?}", r.recoveries);
}
