//! Scaling study (extension): simulated speedup and slipstream/SI benefit
//! as the machine grows from 4 to 256 nodes, on weak-scaled SOR (the grid
//! keeps 4 rows per node, so every node has work at every size), plus the
//! limited-pointer directory ablation.
//!
//! The paper stops at 16 CMPs; this figure exercises the compact
//! [`SharerSet`](slipstream_kernel::SharerSet) directory representation
//! beyond the old 128-node cap. Each node count gets its own 1-node
//! sequential baseline of the *same* problem size, so the speedups are
//! honest weak-scaling numbers. The second section switches the directory
//! to `DirScheme::LimitedPointer` (overflow = broadcast) and reports how
//! protocol traffic diverges from the default full-map scheme.

use slipstream_bench::{print_header, Cli, Plan, Renamed, Runner};
use slipstream_core::{
    ArSyncMode, DirScheme, ExecMode, RunSpec, SlipstreamConfig, Workload,
};
use slipstream_workloads::Sor;

/// Pointer budget for the limited-pointer ablation: small enough that
/// boundary-row re-reads overflow it, matching the DiriB schemes the
/// directory literature studies.
const ABLATION_PTRS: u8 = 1;

fn main() {
    let cli = Cli::parse();
    let sweep = cli.nodes.clone().unwrap_or_else(|| vec![4, 16, 64, 128, 256]);
    let si = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
    let lp = DirScheme::limited(ABLATION_PTRS);

    // Weak scaling: one SOR instance per node count, each under a distinct
    // name so the run cache never conflates sizes.
    let sors: Vec<(u16, Renamed<Sor>)> = sweep
        .iter()
        .map(|&n| {
            let mut w = Sor::scaled(n);
            if cli.quick {
                // CI smoke: half the rows per node, one fewer sweep pair.
                w.n = (2 * u64::from(n)).max(128);
                w.iters = 2;
            }
            (n, Renamed::new(format!("SOR{}", w.n), w))
        })
        .collect();

    let mut plan = Plan::new();
    for (n, w) in &sors {
        plan.add(w, RunSpec::new(1, ExecMode::Single));
        plan.add(w, RunSpec::new(*n, ExecMode::Single));
        plan.add(w, RunSpec::new(*n, ExecMode::Slipstream));
        plan.add(w, RunSpec::new(*n, ExecMode::Slipstream).with_slip(si));
        // Limited-pointer ablation: the write-heavy single mode, where
        // invalidation fan-out is on the critical path.
        plan.add(w, RunSpec::new(*n, ExecMode::Single).with_dir_scheme(lp));
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Scaling study: weak-scaled SOR, speedup over the 1-node sequential run");
    println!("# (grid rows = 4N; each node count is its own problem size and baseline)");
    print_header(
        "nodes",
        &["grid", "single", "slip", "slip+si", "slip/sgl", "si/slip"]
            .map(String::from),
    );
    for (n, w) in &sors {
        let seq = r.run(w, &RunSpec::new(1, ExecMode::Single));
        let single = r.run(w, &RunSpec::new(*n, ExecMode::Single));
        let slip = r.run(w, &RunSpec::new(*n, ExecMode::Slipstream));
        let slipsi = r.run(w, &RunSpec::new(*n, ExecMode::Slipstream).with_slip(si));
        let s_single = single.speedup_over(&seq);
        let s_slip = slip.speedup_over(&seq);
        let s_si = slipsi.speedup_over(&seq);
        println!(
            "{:<12} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            n,
            format!("{0}x{0}", w.name().trim_start_matches("SOR")),
            s_single,
            s_slip,
            s_si,
            s_slip / s_single,
            s_si / s_slip,
        );
    }

    println!();
    println!(
        "# Limited-pointer directory ablation: DiriB with {ABLATION_PTRS} pointer(s), \
         overflow = broadcast (single mode)"
    );
    println!("# full-map columns first, then the limited-pointer deltas");
    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>10} {:>10} {:>9}",
        "nodes", "fm_cycles", "fm_inv", "lp_cycles", "lp_inv", "lp_bcast", "cycles%"
    );
    for (n, w) in &sors {
        let fm = r.run(w, &RunSpec::new(*n, ExecMode::Single));
        let l = r.run(w, &RunSpec::new(*n, ExecMode::Single).with_dir_scheme(lp));
        println!(
            "{:<12} {:>12} {:>10} {:>12} {:>10} {:>10} {:>+8.2}%",
            n,
            fm.exec_cycles,
            fm.mem.invalidations_sent,
            l.exec_cycles,
            l.mem.invalidations_sent,
            l.mem.broadcast_invalidations,
            100.0 * (l.exec_cycles as f64 / fm.exec_cycles as f64 - 1.0),
        );
    }
}
