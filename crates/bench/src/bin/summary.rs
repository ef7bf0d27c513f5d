//! Headline comparison (§3.4 / abstract): slipstream vs the best of
//! single and double mode at 16 CMPs (FFT: 4), with the best A-R
//! synchronization method per benchmark, prefetching only and with SI.

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, RunSpec, SlipstreamConfig};

fn headline_nodes(cli: &Cli, name: &str) -> u16 {
    if name == "FFT" { 4 } else { *cli.sweep().last().unwrap_or(&16) }
}

fn main() {
    let cli = Cli::parse();
    let suite = cli.suite();
    let si_slip = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);

    let mut plan = Plan::new();
    for w in &suite {
        let nodes = headline_nodes(&cli, w.name());
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Double));
        for ar in ArSyncMode::ALL {
            plan.add(
                w.as_ref(),
                RunSpec::new(nodes, ExecMode::Slipstream)
                    .with_slip(SlipstreamConfig::prefetch_only(ar)),
            );
        }
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Slipstream).with_slip(si_slip));
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Slipstream vs best conventional mode");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "benchmark", "CMPs", "best-conv", "prefetch", "best-AR", "gain%", "gain+SI%"
    );
    for w in &suite {
        let nodes = headline_nodes(&cli, w.name());
        let best = r.best_conventional(w.as_ref(), nodes) as f64;
        let (best_ar, pf) = ArSyncMode::ALL
            .iter()
            .map(|&ar| (ar, r.slipstream(w.as_ref(), nodes, SlipstreamConfig::prefetch_only(ar))))
            .min_by_key(|(_, res)| res.exec_cycles)
            .expect("four candidates");
        let si = r.slipstream(w.as_ref(), nodes, si_slip);
        println!(
            "{:<12} {:>6} {:>10.0} {:>10.0} {:>8} {:>9.1}% {:>9.1}%",
            w.name(),
            nodes,
            best,
            pf.exec_cycles as f64,
            best_ar.label(),
            100.0 * (best / pf.exec_cycles as f64 - 1.0),
            100.0 * (best / si.exec_cycles as f64 - 1.0),
        );
    }
}
