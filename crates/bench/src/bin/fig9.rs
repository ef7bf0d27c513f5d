//! Figure 9: transparent-load breakdown — the percentage of A-stream read
//! requests issued as transparent loads, split into those receiving
//! transparent replies and those upgraded to normal loads. One-token
//! global synchronization, 16 CMPs (4 for FFT), as in §4.3.

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, RunSpec, SlipstreamConfig};

/// The paper focuses on 16 CMPs, except FFT at 4, and excludes LU/Water-SP
/// (no stall time to recover).
fn figure_nodes(cli: &Cli, name: &str) -> Option<u16> {
    if matches!(name, "LU" | "WATER-SP") && !cli.quick {
        return None;
    }
    Some(if name == "FFT" { 4 } else { *cli.sweep().last().unwrap_or(&16) })
}

fn main() {
    let cli = Cli::parse();
    let suite = cli.suite();
    let slip = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);

    let mut plan = Plan::new();
    for w in &suite {
        if let Some(nodes) = figure_nodes(&cli, w.name()) {
            plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Slipstream).with_slip(slip));
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Figure 9: transparent load breakdown (% of A-stream read requests)");
    println!("{:<12} {:>12} {:>14} {:>12}", "benchmark", "transparent", "trans-replies", "upgraded");
    for w in &suite {
        let Some(nodes) = figure_nodes(&cli, w.name()) else { continue };
        let res = r.slipstream(w.as_ref(), nodes, slip);
        let total = res.mem.transparent_pct();
        let trans = total * res.mem.transparent_reply_pct() / 100.0;
        println!(
            "{:<12} {:>12.1} {:>14.1} {:>12.1}",
            w.name(),
            total,
            trans,
            total - trans
        );
    }
}
