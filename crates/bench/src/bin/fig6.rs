//! Figure 6: execution-time breakdown for single (S), double (D), and
//! slipstream (R- and A-stream) modes at 16 CMPs, relative to single mode,
//! using the best prefetch-only A-R synchronization method per benchmark.

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, RunResult, RunSpec, SlipstreamConfig, StreamRole, TimeBreakdown};

fn pct(b: &TimeBreakdown, base: u64) -> [f64; 5] {
    let f = |x: u64| 100.0 * x as f64 / base as f64;
    [f(b.busy), f(b.mem_stall), f(b.ar_sync), f(b.barrier), f(b.lock)]
}

fn row(label: &str, cells: [f64; 5]) {
    let total: f64 = cells.iter().sum();
    print!("{label:<14}");
    for c in cells {
        print!(" {c:>7.1}");
    }
    println!(" {total:>7.1}");
}

fn main() {
    let cli = Cli::parse();
    let nodes = *cli.sweep().last().expect("at least one node count");
    let suite = cli.suite();

    let mut plan = Plan::new();
    for w in &suite {
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Single));
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Double));
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

    println!("# Figure 6: execution time breakdown at {nodes} CMPs (% of single mode)");
    println!("{:<14} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}", "", "busy", "stall", "A-R", "barrier", "lock", "total");
    for w in &suite {
        let single = r.single(w.as_ref(), nodes);
        let double = r.double(w.as_ref(), nodes);
        // Best prefetch-only A-R sync method for this benchmark.
        let best: RunResult = ArSyncMode::ALL
            .iter()
            .map(|&ar| r.slipstream(w.as_ref(), nodes, SlipstreamConfig::prefetch_only(ar)))
            .min_by_key(|res| res.exec_cycles)
            .expect("four candidates");
        let base = single.exec_cycles;
        println!("\n## {} (best A-R sync of slipstream run shown)", w.name());
        row("S: single", pct(&single.avg_breakdown(StreamRole::Solo), base));
        row("D: double", pct(&double.avg_breakdown(StreamRole::Solo), base));
        row("R: R-stream", pct(&best.avg_breakdown(StreamRole::R), base));
        row("A: A-stream", pct(&best.avg_breakdown(StreamRole::A), base));
    }
}
