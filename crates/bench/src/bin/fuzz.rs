//! Differential fuzzing driver: generated sharing-pattern programs vs the
//! static verifier vs the simulator.
//!
//! For every generated program the pipeline asserts, in order:
//!
//! 1. **Statically clean** — zero `Error` diagnostics from the full
//!    analysis (SC001..SC015, including the program's own pattern
//!    contract) under conventional instantiation at `nodes` and
//!    `2 * nodes` tasks and under slipstream instantiation at `nodes`.
//! 2. **Checked-run agreement** — every execution mode (single, double,
//!    slipstream, slipstream+si) runs to completion, and a
//!    protocol-checked run (single and slipstream+si) reports zero
//!    violations and a bit-identical [`RunResult`] to the unchecked run.
//! 3. **Analyzer containment** — the static sharing analyzer's traffic
//!    bounds contain the measured `MemStats` counters of an instrumented
//!    single-mode run, and every region's observed sharing class matches
//!    the predicted class's observable projection
//!    (`slipstream_check::cross_validate_with`).
//!
//! Then the seeded mutants are checked: `slipstream_gen::Mutation` plants
//! one defect per static rule (21), and each planted bug must be caught
//! by its expected rule at its expected severity (`Error` for the `SC*`
//! correctness rules, `Warning` for the analyzer's `SP*` lints). This is
//! the static passes' self-test: `fuzz --count 0 --mutants 21` runs one
//! round of it alone.
//!
//! Usage: `fuzz [--seed S] [--count N] [--nodes N] [--mutants M]
//!              [--quick] [--json PATH] [--quiet]`
//!   --seed S     master corpus seed (default: the committed CORPUS_SEED)
//!   --count N    number of generated programs (default: CORPUS_COUNT)
//!   --nodes N    CMP nodes per run (default: 2)
//!   --mutants M  number of mutants to check (default: 3 rounds of the
//!                mutation set)
//!   --quick      CI smoke sizing: 36 programs (6 per pattern), one
//!                mutation round
//!   --json PATH  write a machine-readable corpus report
//!   --quiet      silence per-program progress on stderr
//!
//! An explicit `--count` or `--mutants` wins over `--quick`'s sizing. A
//! bad argument or an unwritable `--json` path exits 2. Every failure is
//! reported; the exit code is 1 if any stage failed. Reproduce one entry with
//! `--seed <S> --count <i+1>`.

use std::fmt::Write as _;
use std::process::ExitCode;

use slipstream_bench::{flag_num, flag_value, io_or_exit, known_flags, parse_seed, positive};
use slipstream_check::{
    cross_validate_with, run_checked, AnalysisConfig, Severity, ValidationReport,
};
use slipstream_core::{run, MachineConfig, RunSpec, Workload};
use slipstream_gen::corpus::{corpus_entry, mutant_entry, CORPUS_COUNT, CORPUS_SEED};
use slipstream_gen::{GenWorkload, Mutation};

struct Args {
    seed: u64,
    count: usize,
    nodes: u16,
    mutants: usize,
    json: Option<String>,
    quiet: bool,
}

const USAGE: &str =
    "fuzz [--seed S] [--count N] [--nodes N] [--mutants M] [--quick] [--json PATH] [--quiet]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    known_flags(
        args,
        &["--quick", "--quiet"],
        &["--seed", "--count", "--nodes", "--mutants", "--json"],
    )?;
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let (count, rounds) = if has("--quick") { (36, 1) } else { (CORPUS_COUNT, 3) };
    Ok(Args {
        seed: flag_value(args, "--seed")?.map_or(Ok(CORPUS_SEED), |s| parse_seed(s))?,
        count: flag_num(args, "--count", count as u64)? as usize,
        nodes: flag_value(args, "--nodes")?.map_or(Ok(2), |n| positive("--nodes", n))?,
        mutants: flag_num(args, "--mutants", (rounds * Mutation::ALL.len()) as u64)? as usize,
        json: flag_value(args, "--json")?.cloned(),
        quiet: has("--quiet"),
    })
}

/// Static pipeline: every static pass over both instantiations (the
/// analyzer's `SP*` lints are warnings, so only the verifier and the
/// contract can fail it). Returns failure descriptions (empty = clean).
fn static_failures(
    w: &GenWorkload,
    cfg: &MachineConfig,
    acfg: &AnalysisConfig,
    nodes: u16,
) -> Vec<String> {
    let mut fails = Vec::new();
    let configs = [
        (nodes as usize, false),
        (2 * nodes as usize, false),
        (nodes as usize, true),
    ];
    for (ntasks, slipstream) in configs {
        let diags = w.diagnostics(cfg.page_bytes, ntasks, slipstream, acfg);
        for d in diags.iter().filter(|d| d.severity == Severity::Error) {
            fails.push(format!(
                "{} ({ntasks} tasks, slipstream={slipstream}): {}",
                w.name(),
                d
            ));
        }
    }
    fails
}

/// One simulated mode, plus (for the checked modes) the protocol-checked
/// differential. Returns the run's cycles and failure descriptions.
fn dynamic_mode(w: &GenWorkload, mode: &str, spec: &RunSpec, check: bool) -> (u64, Vec<String>) {
    let mut fails = Vec::new();
    let result = run(w, spec);
    if check {
        let (checked, report) = run_checked(w, spec);
        if !report.ok() {
            fails.push(format!("{} {mode}: protocol checker: {}", w.name(), report.summary()));
        }
        if checked != result {
            fails.push(format!("{} {mode}: checked run diverged from unchecked", w.name()));
        }
    }
    (result.exec_cycles, fails)
}

struct ProgramReport {
    name: String,
    seed: u64,
    spec_json: String,
    cycles: Vec<(&'static str, u64)>,
    /// Static-vs-dynamic validation report (absent when the program failed
    /// the static stage and was never simulated).
    validation: Option<ValidationReport>,
    ok: bool,
}

/// Analyzer containment stage: cross-validate one clean program at the
/// fuzz node count. Returns the report plus failure descriptions.
fn validation_stage(
    w: &GenWorkload,
    cfg: &MachineConfig,
    acfg: &AnalysisConfig,
    nodes: u16,
) -> (ValidationReport, Vec<String>) {
    let report = cross_validate_with(cfg, w, nodes as usize, acfg);
    let fails = if report.ok {
        Vec::new()
    } else {
        vec![format!(
            "validation: {}",
            report.first_failure().unwrap_or_else(|| w.name().to_string())
        )]
    };
    (report, fails)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {USAGE}");
        std::process::exit(2)
    });
    let cfg = MachineConfig::with_nodes(args.nodes);
    let acfg = AnalysisConfig { line_bytes: cfg.l2.line_bytes, ..AnalysisConfig::default() };
    // The four named modes of the benchmark matrix.
    let specs = RunSpec::NAMED.map(|mode| (mode, RunSpec::named(mode, args.nodes).expect("named")));
    let mut failures: Vec<String> = Vec::new();
    let mut programs: Vec<ProgramReport> = Vec::new();

    for i in 0..args.count {
        let w = corpus_entry(args.seed, i);
        let mut fails = static_failures(&w, &cfg, &acfg, args.nodes);
        let mut cycles = Vec::new();
        let mut validation = None;
        if fails.is_empty() {
            // Simulate only statically clean programs: a verifier failure
            // already fails the run, and the simulator's behaviour on broken
            // programs (deadlocks) is not part of the contract.
            for (mode, spec) in &specs {
                let check = matches!(*mode, "single" | "slipstream+si");
                let (c, f) = dynamic_mode(&w, mode, spec, check);
                cycles.push((*mode, c));
                fails.extend(f);
            }
            let (report, f) = validation_stage(&w, &cfg, &acfg, args.nodes);
            validation = Some(report);
            fails.extend(f);
        }
        let ok = fails.is_empty();
        if !args.quiet {
            eprintln!(
                "[{}/{}] {} {}",
                i + 1,
                args.count,
                w.name(),
                if ok { "ok" } else { "FAIL" }
            );
        }
        programs.push(ProgramReport {
            name: w.name().to_string(),
            seed: w.seed(),
            spec_json: w.spec().to_json(),
            cycles,
            validation,
            ok,
        });
        failures.extend(fails);
    }

    let mut mutants_caught = 0usize;
    let mut mutant_rows: Vec<(String, &'static str, &'static str, bool)> = Vec::new();
    for i in 0..args.mutants {
        let w = mutant_entry(args.seed, i);
        let m = w.mutation().expect("mutant");
        let rule = m.expected_rule();
        let ntasks = args.nodes.max(2) as usize * 2;
        let kill = w.kill_check(cfg.page_bytes, ntasks, &acfg);
        let caught = kill.is_ok();
        match kill {
            Ok(()) => mutants_caught += 1,
            Err(fired) => failures.push(format!(
                "mutant {}: expected {} to fire, got {fired:?}",
                w.name(),
                rule.id()
            )),
        }
        if !args.quiet {
            eprintln!(
                "[mutant {}/{}] {} -> {} {}",
                i + 1,
                args.mutants,
                w.name(),
                rule.id(),
                if caught { "caught" } else { "MISSED" }
            );
        }
        mutant_rows.push((w.name().to_string(), m.key(), rule.id(), caught));
    }

    if let Some(path) = &args.json {
        let json = render_json(&args, &programs, &mutant_rows, &failures, mutants_caught);
        io_or_exit("write", path, std::fs::write(path, json));
        if !args.quiet {
            eprintln!("wrote {path}");
        }
    }

    let clean = programs.iter().filter(|p| p.ok).count();
    println!(
        "fuzz: {clean}/{} programs clean, {mutants_caught}/{} mutants caught, {} failure(s)",
        programs.len(),
        mutant_rows.len(),
        failures.len()
    );
    for f in &failures {
        println!("  FAIL: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn render_json(
    args: &Args,
    programs: &[ProgramReport],
    mutants: &[(String, &'static str, &'static str, bool)],
    failures: &[String],
    mutants_caught: usize,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"schema\": \"slipstream-fuzz/3\",\n  \"seed\": {},\n  \"count\": {},\n  \
         \"nodes\": {},\n  \"programs\": [",
        args.seed, args.count, args.nodes
    );
    for (i, p) in programs.iter().enumerate() {
        let cycles = p
            .cycles
            .iter()
            .map(|(m, c)| format!("\"{m}\":{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let validation =
            p.validation.as_ref().map_or_else(|| "null".to_string(), |v| v.to_json());
        let _ = write!(
            s,
            "{}\n    {{\"i\":{i},\"name\":\"{}\",\"seed\":{},\"spec\":{},\"ok\":{},\
             \"cycles\":{{{cycles}}},\"validation\":{validation}}}",
            if i == 0 { "" } else { "," },
            p.name,
            p.seed,
            p.spec_json,
            p.ok
        );
    }
    let _ = write!(s, "\n  ],\n  \"mutants\": [");
    for (i, (name, key, rule, caught)) in mutants.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"name\":\"{name}\",\"mutation\":\"{key}\",\"expected\":\"{rule}\",\
             \"caught\":{caught}}}",
            if i == 0 { "" } else { "," }
        );
    }
    let _ = write!(s, "\n  ],\n  \"failures\": [");
    for (i, f) in failures.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\"",
            if i == 0 { "" } else { "," },
            f.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    let clean = programs.iter().filter(|p| p.ok).count();
    let _ = write!(
        s,
        "\n  ],\n  \"summary\": {{\"clean\": {clean}, \"programs\": {}, \
         \"mutants_caught\": {mutants_caught}, \"mutants\": {}, \"failures\": {}}}\n}}\n",
        programs.len(),
        mutants.len(),
        failures.len()
    );
    s
}
