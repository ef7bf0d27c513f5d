//! Figure 5: speedup of slipstream mode (all four A-R synchronization
//! methods) and double mode, relative to single mode, for 2-16 CMPs.

use slipstream_bench::{print_header, print_row, Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, RunSpec, SlipstreamConfig};

fn main() {
    let cli = Cli::parse();
    let sweep = cli.sweep();
    let suite = cli.suite();

    let mut plan = Plan::new();
    for w in &suite {
        for &n in &sweep {
            plan.add(w.as_ref(), RunSpec::new(n, ExecMode::Single));
            plan.add(w.as_ref(), RunSpec::new(n, ExecMode::Double));
            for ar in ArSyncMode::ALL {
                plan.add(
                    w.as_ref(),
                    RunSpec::new(n, ExecMode::Slipstream)
                        .with_slip(SlipstreamConfig::prefetch_only(ar)),
                );
            }
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 5: slipstream (L1/L0/G1/G0) and double vs single mode");
    for w in &suite {
        println!("\n## {}", w.name());
        print_header("config", &sweep.iter().map(|n| format!("{n}CMP")).collect::<Vec<_>>());
        let singles: Vec<_> = sweep.iter().map(|&n| r.single(w.as_ref(), n)).collect();
        let cells: Vec<f64> = sweep
            .iter()
            .zip(&singles)
            .map(|(&n, s)| r.double(w.as_ref(), n).speedup_over(s))
            .collect();
        print_row("double", &cells);
        for ar in ArSyncMode::ALL {
            let cells: Vec<f64> = sweep
                .iter()
                .zip(&singles)
                .map(|(&n, s)| {
                    r.slipstream(w.as_ref(), n, SlipstreamConfig::prefetch_only(ar)).speedup_over(s)
                })
                .collect();
            print_row(ar.label(), &cells);
        }
    }
}
