//! Figure 10: speedup of slipstream mode over the best of single and
//! double modes, for three slipstream configurations: prefetching only,
//! prefetching + transparent loads, and prefetching + transparent loads +
//! self-invalidation. One-token global synchronization; 16 CMPs (FFT: 4).

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, RunSpec, SlipstreamConfig};

/// Paper's node choice: 16 CMPs (FFT: 4); LU/Water-SP excluded (§4.3).
fn figure_nodes(cli: &Cli, name: &str) -> Option<u16> {
    if matches!(name, "LU" | "WATER-SP") && !cli.quick {
        return None;
    }
    Some(if name == "FFT" { 4 } else { *cli.sweep().last().unwrap_or(&16) })
}

fn main() {
    let cli = Cli::parse();
    let suite = cli.suite();
    let ar = ArSyncMode::OneTokenGlobal;
    let slips = [
        SlipstreamConfig::prefetch_only(ar),
        SlipstreamConfig::with_transparent(ar),
        SlipstreamConfig::with_self_invalidation(ar),
    ];

    let mut plan = Plan::new();
    for w in &suite {
        if let Some(nodes) = figure_nodes(&cli, w.name()) {
            plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Single));
            plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Double));
            for slip in slips {
                plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Slipstream).with_slip(slip));
            }
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 10: slipstream speedup over best(single, double), G1 sync");
    println!("{:<12} {:>10} {:>10} {:>10}", "benchmark", "prefetch", "+transp", "+SI");
    for w in &suite {
        let Some(nodes) = figure_nodes(&cli, w.name()) else { continue };
        let best = r.best_conventional(w.as_ref(), nodes) as f64;
        let pf = r.slipstream(w.as_ref(), nodes, slips[0]);
        let tr = r.slipstream(w.as_ref(), nodes, slips[1]);
        let si = r.slipstream(w.as_ref(), nodes, slips[2]);
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3}",
            w.name(),
            best / pf.exec_cycles as f64,
            best / tr.exec_cycles as f64,
            best / si.exec_cycles as f64
        );
    }
}
