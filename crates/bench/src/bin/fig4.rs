//! Figure 4: speedup of single-mode execution over sequential execution
//! for 2-16 CMPs.

use slipstream_bench::{print_header, print_row, Cli, Plan, Runner};
use slipstream_core::{ExecMode, RunSpec};

fn main() {
    let cli = Cli::parse();
    let sweep = cli.sweep();
    let suite = cli.suite();

    let mut plan = Plan::new();
    for w in &suite {
        // The sequential baseline (`run_sequential`) is exactly a
        // single-mode run on one node, so it joins the grid like any cell.
        plan.add(w.as_ref(), RunSpec::new(1, ExecMode::Single));
        for &n in &sweep {
            plan.add(w.as_ref(), RunSpec::new(n, ExecMode::Single));
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 4: single-mode speedup over sequential execution");
    print_header("benchmark", &sweep.iter().map(|n| format!("{n}CMP")).collect::<Vec<_>>());
    for w in &suite {
        let seq = r.single(w.as_ref(), 1);
        eprintln!("  [sequential {}: {} cycles]", w.name(), seq.exec_cycles);
        let cells: Vec<f64> = sweep
            .iter()
            .map(|&n| r.single(w.as_ref(), n).speedup_over(&seq))
            .collect();
        print_row(w.name(), &cells);
    }
}
