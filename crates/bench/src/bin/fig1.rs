//! Figure 1: speedup of two tasks per CMP (double mode) relative to one
//! task per CMP (single mode), for 2-16 CMPs.

use slipstream_bench::{print_header, print_row, Cli, Plan, Runner};
use slipstream_core::{ExecMode, RunSpec};

fn main() {
    let cli = Cli::parse();
    let sweep = cli.sweep();
    let suite = cli.suite();

    let mut plan = Plan::new();
    for w in &suite {
        for &n in &sweep {
            plan.add(w.as_ref(), RunSpec::new(n, ExecMode::Single));
            plan.add(w.as_ref(), RunSpec::new(n, ExecMode::Double));
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 1: double-mode speedup over single mode");
    print_header("benchmark", &sweep.iter().map(|n| format!("{n}CMP")).collect::<Vec<_>>());
    for w in &suite {
        let cells: Vec<f64> = sweep
            .iter()
            .map(|&n| {
                let single = r.single(w.as_ref(), n);
                r.double(w.as_ref(), n).speedup_over(&single)
            })
            .collect();
        print_row(w.name(), &cells);
    }
}
