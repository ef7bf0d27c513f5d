//! **Slipstream execution mode for CMP-based multiprocessors** — a
//! full-system reproduction of
//! *K. Z. Ibrahim, G. T. Byrd, and E. Rotenberg, "Slipstream Execution
//! Mode for CMP-Based Multiprocessors", HPCA 2003*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`kernel`] — discrete-event simulation kernel and machine
//!   configuration (Table 1 of the paper);
//! * [`prog`] — the kernel DSL for describing parallel scientific
//!   applications as access-pattern programs;
//! * [`mem`] — the memory system: L1/L2 caches, full-map invalidate
//!   directory with transparent loads and self-invalidation, network,
//!   and synchronization controllers;
//! * [`core`] — the slipstream runtime: execution modes, A-R
//!   synchronization, A-stream reduction and recovery, and the machine
//!   runner;
//! * [`workloads`] — the paper's nine benchmarks (Table 2);
//! * [`check`] — correctness and performance tooling: the static
//!   happens-before, lockset, lock-order, and pattern-contract verifier
//!   for generated programs; the static sharing analyzer
//!   ([`check::analyze`], [`check::cross_validate`]) with its
//!   communication bounds and `SP*` lints; and the dynamic
//!   coherence-protocol invariant checker (see
//!   `docs/static-analysis.md`);
//! * [`gen`] — the seeded sharing-pattern program generator and mutation
//!   engine behind the `fuzz` binary, which checks the static verifier
//!   against simulated runs.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quick start
//!
//! ```
//! use slipstream::{run, RunSpec, ExecMode};
//! use slipstream::workloads::Sor;
//!
//! let sor = Sor::quick();
//! let single = run(&sor, &RunSpec::new(4, ExecMode::Single));
//! let slip = run(&sor, &RunSpec::new(4, ExecMode::Slipstream));
//! println!(
//!     "single: {} cycles, slipstream: {} cycles ({:.2}x)",
//!     single.exec_cycles,
//!     slip.exec_cycles,
//!     slip.speedup_over(&single)
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every figure of the paper.

pub use slipstream_check as check;
pub use slipstream_core as core;
pub use slipstream_gen as gen;
pub use slipstream_kernel as kernel;
pub use slipstream_mem as mem;
pub use slipstream_prog as prog;
pub use slipstream_workloads as workloads;

pub use slipstream_core::{
    run, run_sequential, ArSyncMode, ExecMode, MachineConfig, RunResult, RunSpec,
    SlipstreamConfig, StreamRole, TaskBuilderFn, TimeBreakdown, Workload,
};
