//! Figure 7: breakdown of memory requests for shared data (A/R x
//! Timely/Late/Only), for reads (top) and exclusive requests (bottom),
//! under each A-R synchronization method, at 16 CMPs.

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ClassCounts, ExecMode, RunSpec, SlipstreamConfig};

fn row(label: &str, c: &ClassCounts) {
    let p = c.percentages();
    println!(
        "{label:<14} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
        p[0], p[1], p[2], p[3], p[4], p[5]
    );
}

fn main() {
    let cli = Cli::parse();
    let nodes = *cli.sweep().last().expect("at least one node count");
    let suite = cli.suite();

    let mut plan = Plan::new();
    for w in &suite {
        for ar in ArSyncMode::ALL {
            plan.add(
                w.as_ref(),
                RunSpec::new(nodes, ExecMode::Slipstream)
                    .with_slip(SlipstreamConfig::prefetch_only(ar)),
            );
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 7: shared-data request classification at {nodes} CMPs (%)");
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "", "A-Timely", "A-Late", "A-Only", "R-Timely", "R-Late", "R-Only"
    );
    for w in &suite {
        println!("\n## {} — reads", w.name());
        let mut excl_rows = Vec::new();
        for ar in ArSyncMode::ALL {
            let res = r.slipstream(w.as_ref(), nodes, SlipstreamConfig::prefetch_only(ar));
            row(ar.label(), &res.mem.class.reads);
            excl_rows.push((ar.label(), res.mem.class.excl));
        }
        println!("## {} — exclusive requests", w.name());
        for (label, excl) in excl_rows {
            row(label, &excl);
        }
    }
}
