//! Ablation studies over the slipstream design choices called out in
//! DESIGN.md: exclusive-prefetch conversion, the self-invalidation drain
//! rate, the transparent-load policy, and the A-R token budget.

use slipstream_bench::{Cli, Plan, Runner};
use slipstream_core::{ArSyncMode, ExecMode, MachineConfig, RunSpec, SlipstreamConfig, Workload};

/// Paper machine with the migratory directory optimization switched on,
/// honoring the workload's small-L2 request.
fn migratory_machine(w: &dyn Workload, nodes: u16) -> MachineConfig {
    let mut mc =
        if w.small_l2() { MachineConfig::water(nodes) } else { MachineConfig::with_nodes(nodes) };
    mc.migratory_opt = true;
    mc
}

fn no_excl_prefetch(ar: ArSyncMode) -> SlipstreamConfig {
    let mut cfg = SlipstreamConfig::prefetch_only(ar);
    cfg.exclusive_prefetch = false;
    cfg
}

fn si_with_interval(ar: ArSyncMode, interval: u64) -> SlipstreamConfig {
    let mut cfg = SlipstreamConfig::with_self_invalidation(ar);
    cfg.si_interval = interval;
    cfg
}

fn token_capped(cap: u32) -> SlipstreamConfig {
    let mut cfg = SlipstreamConfig::prefetch_only(ArSyncMode::OneTokenLocal);
    cfg.max_tokens = cap;
    cfg
}

fn main() {
    let cli = Cli::parse();
    let nodes = *cli.sweep().last().unwrap_or(&8);
    let suite = cli.suite();
    let ar = ArSyncMode::OneTokenGlobal;

    let mut plan = Plan::new();
    for w in &suite {
        // Ablation 0: migratory directory optimization.
        plan.add(w.as_ref(), RunSpec::new(nodes, ExecMode::Single));
        plan.add(
            w.as_ref(),
            RunSpec::new(nodes, ExecMode::Single).with_machine(migratory_machine(w.as_ref(), nodes)),
        );
        // Ablation 1: exclusive-prefetch conversion.
        plan.add(
            w.as_ref(),
            RunSpec::new(nodes, ExecMode::Slipstream)
                .with_slip(SlipstreamConfig::prefetch_only(ar)),
        );
        plan.add(
            w.as_ref(),
            RunSpec::new(nodes, ExecMode::Slipstream).with_slip(no_excl_prefetch(ar)),
        );
        // Ablation 2: SI drain interval.
        for iv in [1u64, 4, 16, 64] {
            plan.add(
                w.as_ref(),
                RunSpec::new(nodes, ExecMode::Slipstream).with_slip(si_with_interval(ar, iv)),
            );
        }
        // Ablation 3: token budget cap.
        for cap in [1u32, 2, u32::MAX] {
            plan.add(
                w.as_ref(),
                RunSpec::new(nodes, ExecMode::Slipstream).with_slip(token_capped(cap)),
            );
        }
    }
    let mut r = Runner::for_cli(&cli);
    r.prewarm(&plan, cli.jobs());

    println!("# Ablation 0: migratory-sharing directory optimization (extension)");
    println!("{:<12} {:>12} {:>12} {:>8}", "benchmark", "off", "on", "delta%");
    for w in &suite {
        let off = r.run(w.as_ref(), &RunSpec::new(nodes, ExecMode::Single));
        let on = r.run(
            w.as_ref(),
            &RunSpec::new(nodes, ExecMode::Single)
                .with_machine(migratory_machine(w.as_ref(), nodes)),
        );
        println!(
            "{:<12} {:>12} {:>12} {:>7.1}%",
            w.name(),
            off.exec_cycles,
            on.exec_cycles,
            100.0 * (off.exec_cycles as f64 / on.exec_cycles as f64 - 1.0)
        );
    }

    println!("# Ablation 1: exclusive-prefetch conversion (S3.3), {nodes} CMPs");
    println!("{:<12} {:>12} {:>12} {:>8}", "benchmark", "with", "without", "delta%");
    for w in &suite {
        let on = r.slipstream(w.as_ref(), nodes, SlipstreamConfig::prefetch_only(ar));
        let off = r.slipstream(w.as_ref(), nodes, no_excl_prefetch(ar));
        println!(
            "{:<12} {:>12} {:>12} {:>7.1}%",
            w.name(),
            on.exec_cycles,
            off.exec_cycles,
            100.0 * (off.exec_cycles as f64 / on.exec_cycles as f64 - 1.0)
        );
    }

    println!("\n# Ablation 2: self-invalidation drain interval (paper: 4 cycles/line)");
    println!("{:<12} {:>10} {:>10} {:>10} {:>10}", "benchmark", "1", "4", "16", "64");
    for w in &suite {
        let cells: Vec<String> = [1u64, 4, 16, 64]
            .iter()
            .map(|&iv| {
                format!("{}", r.slipstream(w.as_ref(), nodes, si_with_interval(ar, iv)).exec_cycles)
            })
            .collect();
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            w.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    println!("\n# Ablation 3: A-R token budget cap (sessions the A-stream may bank)");
    println!("{:<12} {:>10} {:>10} {:>10}", "benchmark", "cap=1", "cap=2", "uncapped");
    for w in &suite {
        let cells: Vec<String> = [1u32, 2, u32::MAX]
            .iter()
            .map(|&cap| {
                format!(
                    "{}",
                    r.run(
                        w.as_ref(),
                        &RunSpec::new(nodes, ExecMode::Slipstream).with_slip(token_capped(cap))
                    )
                    .exec_cycles
                )
            })
            .collect();
        println!("{:<12} {:>10} {:>10} {:>10}", w.name(), cells[0], cells[1], cells[2]);
    }
}
