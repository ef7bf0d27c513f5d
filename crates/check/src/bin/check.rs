//! `check` — lint the workload suite and (optionally) run the dynamic
//! protocol invariant checker.
//!
//! ```text
//! check [--quick] [--bench NAME] [--tasks N,N,...] [--json]   static lint
//! check --dynamic [--quick] [--bench NAME] [--nodes N]
//!       [--mode single|double|slipstream|slipstream+si] [--json]
//! check --explain CODE                                        rule catalogue
//! ```
//!
//! The static lint walks every workload's generated programs (conventional
//! and slipstream instantiations at each task count) through the
//! happens-before verifier. `--dynamic` runs real simulations with the
//! coherence invariant checker attached. `--explain` prints the catalogue
//! entry for one rule id — `SCxxx` (static verifier), `SPxxx` (sharing
//! analyzer), or `PCxxx` (protocol checker). The static passes' self-test
//! is the generator's seeded-mutation catalogue, run by
//! `fuzz --count 0 --mutants 21`.
//!
//! Exit status: 0 clean, 1 findings (error-severity diagnostics or
//! protocol violations), 2 usage error (including a zero `--nodes` or
//! `--tasks` count).

use std::process::ExitCode;
use std::str::FromStr;

use slipstream_check::{has_errors, run_checked, ProtoRule, Rule, Severity};
use slipstream_core::{RunSpec, Workload};
use slipstream_workloads::{by_name, paper_suite, quick_suite};

struct Cli {
    quick: bool,
    bench: Option<String>,
    tasks: Vec<usize>,
    json: bool,
    dynamic: bool,
    explain: Option<String>,
    nodes: u16,
    mode: String,
}

impl Cli {
    fn parse() -> Result<Cli, String> {
        let mut cli = Cli {
            quick: false,
            bench: None,
            tasks: vec![2, 8],
            json: false,
            dynamic: false,
            explain: None,
            nodes: 2,
            mode: "slipstream+si".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--json" => cli.json = true,
                "--dynamic" => cli.dynamic = true,
                "--explain" => cli.explain = Some(value("--explain")?),
                "--bench" => cli.bench = Some(value("--bench")?),
                "--nodes" => cli.nodes = positive("--nodes", &value("--nodes")?)?,
                "--mode" => cli.mode = value("--mode")?,
                "--tasks" => {
                    cli.tasks = value("--tasks")?
                        .split(',')
                        .map(|s| positive::<u16>("--tasks", s.trim()).map(usize::from))
                        .collect::<Result<_, _>>()?;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --quick --bench NAME --tasks N,N \
                         --json --dynamic --explain CODE --nodes N --mode MODE"
                    ))
                }
            }
        }
        Ok(cli)
    }

    fn suite(&self) -> Result<Vec<Box<dyn Workload>>, String> {
        match &self.bench {
            Some(name) => by_name(name, self.quick)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown benchmark `{name}`")),
            None => Ok(if self.quick { quick_suite() } else { paper_suite() }),
        }
    }
}

/// `value` parsed as a positive count; the message names `flag`.
fn positive<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!("{flag} must be a positive integer, got {value}")),
    }
}

fn static_lint(cli: &Cli) -> Result<bool, String> {
    let mut errors = false;
    let mut total = 0usize;
    let mut configs = 0usize;
    for w in cli.suite()? {
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
    Ok(!errors)
}

fn dynamic(cli: &Cli) -> Result<bool, String> {
    let Some(spec) = RunSpec::named(&cli.mode, cli.nodes) else {
        let names = RunSpec::NAMED.join(", ");
        return Err(format!("unknown --mode {}: expected one of {names}", cli.mode));
    };
    let mut clean = true;
    for w in cli.suite()? {
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
    let cli = match Cli::parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(code) = &cli.explain {
        explain(&cli, code)
    } else if cli.dynamic {
        dynamic(&cli)
    } else {
        static_lint(&cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("check: {e}");
            ExitCode::from(2)
        }
    }
}
