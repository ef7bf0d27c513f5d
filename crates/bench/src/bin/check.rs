//! `check` — lint the workload suite, analyze its sharing statically, or
//! run the dynamic protocol invariant checker.
//!
//! ```text
//! check [--quick] [--bench NAME] [--tasks N,N,...] [--json]   static lint
//! check --analyze [--validate] [--quick] [--bench NAME] [--tasks N,N,...] [--json]
//! check --dynamic [--quick] [--bench NAME] [--nodes N]
//!       [--mode single|double|slipstream|slipstream+si] [--json]
//! check --explain CODE [--json]                               rule catalogue
//! ```
//!
//! The static lint walks every workload's generated programs (conventional
//! and slipstream instantiations at each task count, default 2 and 8)
//! through the happens-before verifier. `--analyze` runs the static
//! sharing analyzer alone, with no simulation: per-region sharing classes,
//! traffic-bound windows for a single-mode run, the critical-path cycle
//! estimate, and any `SP*` performance lints, at the same task counts.
//! `--validate` implies `--analyze` and also runs each configuration once,
//! instrumented, checking the measurements against the bounds
//! (`slipstream_check::cross_validate`); the `fuzz` pipeline applies the
//! same harness to every clean program of the generated corpus.
//! `--dynamic` runs real simulations with the coherence invariant checker
//! attached. `--explain` prints the catalogue entry for one rule id —
//! `SCxxx` (static verifier), `SPxxx` (sharing analyzer), or `PCxxx`
//! (protocol checker). The static passes' self-test is the generator's
//! seeded-mutation catalogue, run by `fuzz --count 0 --mutants 21`.
//!
//! Exit status: 0 clean, 1 findings (error-severity diagnostics, a
//! measurement outside its static bound, or protocol violations), 2 usage
//! error (an unknown flag, benchmark, mode or rule code, more than one of
//! `--analyze`, `--dynamic` and `--explain`, a flag the chosen mode does
//! not read, such as `--nodes` without `--dynamic`, or a zero `--nodes` or
//! `--tasks` count).

use std::process::ExitCode;

use slipstream_bench::{exit_usage, flag_value, known_flags, positive, suite};
use slipstream_check::{
    analyze, cross_validate, has_errors, instantiate_workload, run_checked, Analysis,
    AnalysisConfig, ProtoRule, Rule, Severity,
};
use slipstream_core::{ExecMode, RunSpec, Workload};

const USAGE: &str = "check [--analyze [--validate]] [--quick] [--bench NAME] [--tasks N,N,...] [--json]
       check --dynamic [--quick] [--bench NAME] [--nodes N] [--mode MODE] [--json]
       check --explain CODE [--json]";

struct Cli {
    suite: Vec<Box<dyn Workload>>,
    tasks: Vec<usize>,
    json: bool,
    analyze: bool,
    validate: bool,
    dynamic: bool,
    explain: Option<String>,
    nodes: u16,
    mode: String,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        known_flags(
            args,
            &["--quick", "--json", "--analyze", "--validate", "--dynamic"],
            &["--bench", "--tasks", "--nodes", "--mode", "--explain"],
        )?;
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let validate = has("--validate");
        let analyze = validate || has("--analyze");
        let explain = flag_value(args, "--explain")?.cloned();
        let modes = [analyze, has("--dynamic"), explain.is_some()];
        if modes.into_iter().filter(|&m| m).count() > 1 {
            return Err("--analyze, --dynamic and --explain are exclusive".to_string());
        }
        // A flag the chosen mode would ignore is an error, not a silent
        // default.
        let (chosen, reads): (&str, &[&str]) = if explain.is_some() {
            ("--explain", &[])
        } else if has("--dynamic") {
            ("--dynamic", &["--quick", "--bench", "--nodes", "--mode"])
        } else if analyze {
            ("--analyze", &["--quick", "--bench", "--tasks"])
        } else {
            ("the lint", &["--quick", "--bench", "--tasks"])
        };
        let ignored = ["--quick", "--bench", "--tasks", "--nodes", "--mode"]
            .into_iter()
            .find(|flag| has(flag) && !reads.contains(flag));
        if let Some(flag) = ignored {
            return Err(format!("{flag} does not apply to {chosen}"));
        }
        let tasks = match flag_value(args, "--tasks")? {
            None => vec![2, 8],
            Some(list) => list
                .split(',')
                .map(|s| positive::<u16>("--tasks", s.trim()).map(usize::from))
                .collect::<Result<_, _>>()?,
        };
        let only = flag_value(args, "--bench")?.map(String::as_str);
        let mode = flag_value(args, "--mode")?.map_or("slipstream+si", String::as_str);
        Ok(Cli {
            suite: suite(has("--quick"), only)?,
            tasks,
            json: has("--json"),
            analyze,
            validate,
            dynamic: has("--dynamic"),
            explain,
            nodes: flag_value(args, "--nodes")?.map_or(Ok(2), |n| positive("--nodes", n))?,
            mode: mode.to_string(),
        })
    }
}

fn static_lint(cli: &Cli) -> bool {
    let mut errors = false;
    let mut total = 0usize;
    let mut configs = 0usize;
    for w in &cli.suite {
        for &ntasks in &cli.tasks {
            for slipstream in [false, true] {
                let label = if slipstream { "slipstream" } else { "conventional" };
                let diags = slipstream_check::verify_workload(w.as_ref(), ntasks, slipstream);
                configs += 1;
                total += diags.len();
                let errs = diags.iter().filter(|d| d.severity == Severity::Error).count();
                if cli.json {
                    for d in &diags {
                        println!(
                            "{{\"bench\":\"{}\",\"ntasks\":{ntasks},\"config\":\"{label}\",\
                             \"diag\":{}}}",
                            w.name(),
                            d.to_json()
                        );
                    }
                } else {
                    for d in &diags {
                        println!("{} [ntasks={ntasks}, {label}] {d}", w.name());
                    }
                }
                if has_errors(&diags) {
                    errors = true;
                }
                if !cli.json {
                    let verdict = if errs > 0 {
                        format!("{errs} error(s)")
                    } else if diags.is_empty() {
                        "ok".to_string()
                    } else {
                        format!("ok ({} warning(s))", diags.len())
                    };
                    println!("{:<10} ntasks={ntasks:<2} {label:<12} {verdict}", w.name());
                }
            }
        }
    }
    if !cli.json {
        println!("checked {configs} workload configs: {total} diagnostic(s)");
    }
    !errors
}

/// Analyzer output for one `(workload, ntasks)` as a JSON object.
fn analysis_json(name: &str, ntasks: usize, a: &Analysis) -> String {
    let mut s = String::with_capacity(512);
    s.push_str(&format!(
        "{{\"bench\":\"{}\",\"ntasks\":{ntasks},\"phases\":{},\"predicted_cycles\":{}",
        slipstream_check::json_escape(name),
        a.phases,
        a.cost.total_cycles
    ));
    let b = &a.bounds;
    s.push_str(&format!(
        ",\"bounds\":{{\"accesses\":{},\"loads\":{},\"stores\":{},\"first_touches\":{},\
         \"shared_first_touches\":{},\"shared_accesses\":{},\"max_invalidations\":{},\
         \"max_interventions\":{}}}",
        b.accesses,
        b.loads,
        b.stores,
        b.first_touches,
        b.shared_first_touches,
        b.shared_accesses,
        b.max_invalidations,
        b.max_interventions
    ));
    s.push_str(",\"regions\":[");
    for (i, r) in a.regions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"class\":\"{}\",\"readers\":{},\"writers\":{},\
             \"loads\":{},\"stores\":{}}}",
            slipstream_check::json_escape(&r.name),
            r.class.name(),
            r.reader_tasks,
            r.writer_tasks,
            r.loads,
            r.stores
        ));
    }
    s.push_str("],\"lints\":[");
    for (i, d) in a.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&d.to_json());
    }
    s.push_str("]}");
    s
}

/// Analyzes (and under `--validate`, cross-validates) one workload at one
/// task count. Returns false on a validation failure.
fn analyze_one(cli: &Cli, w: &dyn Workload, ntasks: usize) -> bool {
    // The machine the runner would simulate: the analyzer only needs its
    // line size and page size.
    let cfg = RunSpec::new(ntasks.max(1) as u16, ExecMode::Single).machine_for(w);
    let acfg = AnalysisConfig { line_bytes: cfg.l2.line_bytes, ..AnalysisConfig::default() };
    let set = instantiate_workload(w, cfg.page_bytes, ntasks, false);
    let a = analyze(&set, &acfg);

    if cli.json {
        println!("{}", analysis_json(w.name(), ntasks, &a));
    } else {
        println!(
            "{:<24} ntasks={ntasks:<3} phases={:<4} predicted={:<10} \
             requests=[{}, {}] inv<={} int<={} lints={}",
            w.name(),
            a.phases,
            a.cost.total_cycles,
            a.bounds.first_touches,
            a.bounds.accesses,
            a.bounds.max_invalidations,
            a.bounds.max_interventions,
            a.diagnostics.len()
        );
        for r in &a.regions {
            println!(
                "    {:<28} {:<15} readers={:<3} writers={:<3} loads={:<8} stores={}",
                r.name,
                r.class.name(),
                r.reader_tasks,
                r.writer_tasks,
                r.loads,
                r.stores
            );
        }
        for d in &a.diagnostics {
            println!("    {d}");
        }
    }

    if !cli.validate {
        return true;
    }
    let report = cross_validate(w, ntasks);
    if cli.json {
        println!("{}", report.to_json());
    } else {
        let verdict = if report.ok {
            "within bounds".to_string()
        } else {
            report.first_failure().unwrap_or_else(|| "FAIL".to_string())
        };
        println!(
            "    validated: cycles={} predicted={} -> {}",
            report.exec_cycles, report.cost.total_cycles, verdict
        );
    }
    report.ok
}

fn analyze_suite(cli: &Cli) -> bool {
    let mut ok = true;
    let mut configs = 0usize;
    for w in &cli.suite {
        for &ntasks in &cli.tasks {
            ok &= analyze_one(cli, w.as_ref(), ntasks);
            configs += 1;
        }
    }
    if !cli.json {
        let verdict = match (cli.validate, ok) {
            (false, _) => "",
            (true, true) => ", all measurements within static bounds",
            (true, false) => ", VALIDATION FAILURES",
        };
        println!("analyzed {configs} config(s){verdict}");
    }
    ok
}

fn dynamic(cli: &Cli) -> Result<bool, String> {
    let Some(spec) = RunSpec::named(&cli.mode, cli.nodes) else {
        let names = RunSpec::NAMED.join(", ");
        return Err(format!("unknown --mode {}: expected one of {names}", cli.mode));
    };
    let mut clean = true;
    for w in &cli.suite {
        let (result, report) = run_checked(w.as_ref(), &spec);
        if cli.json {
            for v in &report.violations {
                println!("{{\"bench\":\"{}\",\"violation\":{}}}", w.name(), v.to_json());
            }
            println!(
                "{{\"bench\":\"{}\",\"mode\":\"{}\",\"nodes\":{},\"exec_cycles\":{},\
                 \"violations\":{},\"suppressed\":{}}}",
                w.name(),
                cli.mode,
                cli.nodes,
                result.exec_cycles,
                report.violations.len(),
                report.suppressed
            );
        } else {
            for v in &report.violations {
                println!("{} {v}", w.name());
            }
            println!(
                "{:<10} {} nodes={} cycles={}: {}",
                w.name(),
                cli.mode,
                cli.nodes,
                result.exec_cycles,
                report.summary()
            );
        }
        if !report.ok() {
            clean = false;
        }
    }
    Ok(clean)
}

/// Prints the catalogue entry for one rule id (`SC*`/`SP*` from the
/// static passes, `PC*` from the protocol checker). The lookup is
/// case-insensitive; an unknown code is a usage error.
fn explain(cli: &Cli, code: &str) -> Result<bool, String> {
    let want = code.to_ascii_uppercase();
    let entry = Rule::ALL
        .iter()
        .find(|r| r.id() == want)
        .map(|r| (r.id(), r.name(), r.explain()))
        .or_else(|| {
            ProtoRule::ALL
                .iter()
                .find(|r| r.id() == want)
                .map(|r| (r.id(), r.name(), r.explain()))
        });
    match entry {
        Some((id, name, text)) => {
            if cli.json {
                println!(
                    "{{\"rule\":\"{id}\",\"name\":\"{name}\",\"explanation\":\"{}\"}}",
                    slipstream_check::json_escape(text)
                );
            } else {
                println!("{id} ({name})\n\n{text}");
            }
            Ok(true)
        }
        None => Err(format!("unknown rule code `{code}` (expected an SCxxx, SPxxx, or PCxxx id)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| exit_usage(USAGE, &e));
    let outcome = if let Some(code) = &cli.explain {
        explain(&cli, code)
    } else if cli.dynamic {
        dynamic(&cli)
    } else if cli.analyze {
        Ok(analyze_suite(&cli))
    } else {
        Ok(static_lint(&cli))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => exit_usage(USAGE, &e),
    }
}
