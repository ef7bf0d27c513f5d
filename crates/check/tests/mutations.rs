//! Verifier self-validation: every seeded defect in the mutation corpus
//! must be caught, with the right rule id, at its expected severity
//! (`Error` for the `SC*` correctness rules, `Warning` for the `SP*`
//! performance lints).
//!
//! This is the regression net for the verifier itself — if a change to the
//! happens-before machinery silently stops detecting a class of bugs,
//! `selftest_reports_no_failures` names the missed case, as `check
//! --selftest` does.

use slipstream_check::mutations::{mutation_cases, run_case, selftest};
use slipstream_check::Rule;

#[test]
fn selftest_reports_no_failures() {
    let failures = selftest();
    assert!(failures.is_empty(), "selftest failures: {failures:#?}");
}

#[test]
fn corpus_covers_every_static_rule() {
    // One case per rule keeps the corpus honest: adding a rule without a
    // seeded defect that proves it fires should not pass review.
    let covered: Vec<Rule> = mutation_cases().into_iter().map(|c| c.expect).collect();
    for rule in Rule::ALL {
        assert!(
            covered.contains(&rule),
            "no mutation case exercises {} ({})",
            rule.id(),
            rule.name()
        );
    }
}

#[test]
fn diagnostics_carry_location_and_serialize() {
    // The first diagnostic of each case should serialize to JSON embedding
    // its rule id, so downstream tooling can key on it.
    for case in mutation_cases() {
        let diags = run_case(&case);
        let d = diags
            .iter()
            .find(|d| d.rule == case.expect)
            .unwrap_or_else(|| panic!("case `{}` produced no expected diagnostic", case.name));
        let json = d.to_json();
        assert!(
            json.contains(&format!("\"rule\":\"{}\"", d.rule.id())),
            "case `{}`: JSON missing rule id: {json}",
            case.name
        );
    }
}
