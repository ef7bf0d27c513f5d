//! `predict` — the static sharing-class & communication-bound analyzer,
//! stand-alone (`slipstream-predict`).
//!
//! ```text
//! predict [--quick] [--bench NAME] [--tasks N,N,...] [--json]
//! predict --validate [--quick] [--bench NAME] [--tasks N,N,...] [--json]
//! predict --corpus N [--seed S] [--validate] [--json]
//! ```
//!
//! Without `--validate`, the analyzer runs alone — no simulation at all:
//! per-region sharing classes, static traffic-bound windows for a
//! single-mode run, the critical-path cycle estimate, and any `SP*`
//! performance lints, for every workload in the suite (or `--bench NAME`).
//! `--validate` additionally runs each configuration once, instrumented,
//! and checks the measurements against the bounds
//! (`slipstream_check::cross_validate`) — the same harness the `fuzz`
//! pipeline applies to the whole generated corpus. `--corpus N` points
//! both at the first `N` generated corpus programs instead of the
//! workload suite.
//!
//! Exit status: 0 clean, 1 validation failures, 2 usage error.

use std::process::ExitCode;

use slipstream_bench::{parse_seed, positive};
use slipstream_check::{
    analyze, cross_validate, instantiate_workload, Analysis, AnalysisConfig,
};
use slipstream_core::{ExecMode, RunSpec, Workload};
use slipstream_gen::corpus::{corpus_entry, CORPUS_COUNT, CORPUS_SEED};
use slipstream_workloads::{by_name, paper_suite, quick_suite};

struct Cli {
    quick: bool,
    bench: Option<String>,
    tasks: Vec<usize>,
    corpus: Option<usize>,
    seed: u64,
    validate: bool,
    json: bool,
}

impl Cli {
    fn parse() -> Result<Cli, String> {
        let mut cli = Cli {
            quick: false,
            bench: None,
            tasks: vec![2, 4],
            corpus: None,
            seed: CORPUS_SEED,
            validate: false,
            json: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--validate" => cli.validate = true,
                "--json" => cli.json = true,
                "--bench" => cli.bench = Some(value("--bench")?),
                "--corpus" => {
                    let n: usize =
                        value("--corpus")?.parse().map_err(|e| format!("--corpus: {e}"))?;
                    cli.corpus = Some(n.min(CORPUS_COUNT));
                }
                "--seed" => cli.seed = parse_seed(&value("--seed")?)?,
                "--tasks" => {
                    cli.tasks = value("--tasks")?
                        .split(',')
                        .map(|s| positive::<u16>("--tasks", s.trim()).map(usize::from))
                        .collect::<Result<_, _>>()?;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --quick --bench NAME --tasks N,N \
                         --corpus N --seed S --validate --json"
                    ))
                }
            }
        }
        Ok(cli)
    }
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

/// Analyze (and optionally validate) one workload at one task count.
/// Returns false on a validation failure.
fn run_one(cli: &Cli, w: &dyn Workload, ntasks: usize) -> bool {
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

fn main() -> ExitCode {
    let cli = match Cli::parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("predict: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ok = true;
    let mut configs = 0usize;
    if let Some(n) = cli.corpus {
        for i in 0..n {
            let w = corpus_entry(cli.seed, i);
            for &ntasks in &cli.tasks {
                ok &= run_one(&cli, &w, ntasks);
                configs += 1;
            }
        }
    } else {
        let suite: Result<Vec<Box<dyn Workload>>, String> = match &cli.bench {
            Some(name) => by_name(name, cli.quick)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown benchmark `{name}`")),
            None => Ok(if cli.quick { quick_suite() } else { paper_suite() }),
        };
        let suite = match suite {
            Ok(s) => s,
            Err(e) => {
                eprintln!("predict: {e}");
                return ExitCode::from(2);
            }
        };
        for w in suite {
            for &ntasks in &cli.tasks {
                ok &= run_one(&cli, w.as_ref(), ntasks);
                configs += 1;
            }
        }
    }
    if !cli.json {
        println!(
            "predict: {configs} config(s) analyzed{}",
            if cli.validate {
                if ok { ", all measurements within static bounds" } else { ", VALIDATION FAILURES" }
            } else {
                ""
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
