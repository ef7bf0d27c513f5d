//! Slipstream execution mode for CMP-based multiprocessors.
//!
//! This crate is the paper's primary contribution: a *mode of execution*
//! that uses the second processor of each dual-processor CMP node to run a
//! reduced copy (the **A-stream**) of the task running on the first
//! processor (the **R-stream**), instead of a second independent parallel
//! task. The A-stream skips synchronization and squashes shared-memory
//! stores, so it runs ahead and
//!
//! * prefetches shared data into the node's shared L2 (§3), and
//! * (optionally) issues *transparent loads* whose future-sharer hints
//!   drive directory-based *self-invalidation* (§4).
//!
//! The crate provides:
//!
//! * [`Workload`] — how applications describe their parallel kernels;
//! * [`Machine`] — the full-machine simulator driving processors, the
//!   memory system, and the slipstream runtime;
//! * [`run`] / [`RunSpec`] — one-call experiment execution;
//! * [`RunResult`] / [`TimeBreakdown`] — the measurements used to
//!   regenerate every figure of the paper.
//!
//! # Quick start
//!
//! ```
//! use slipstream_core::{run, RunSpec, Workload, TaskBuilderFn};
//! use slipstream_kernel::config::ExecMode;
//! use slipstream_prog::{Layout, ProgBuilder, Op, BarrierId};
//!
//! /// A toy kernel: every task streams over a shared block, then barriers.
//! struct Stream1K;
//! impl Workload for Stream1K {
//!     fn name(&self) -> &str { "stream1k" }
//!     fn instantiate(&self, ntasks: usize, layout: &mut Layout) -> TaskBuilderFn {
//!         let data = layout.shared("data", 64 * 1024);
//!         Box::new(move |_layout, _inst, task| {
//!             let chunk = 64 * 1024 / ntasks as u64;
//!             let base = data.at_byte(task as u64 * chunk);
//!             let mut b = ProgBuilder::new();
//!             b.for_n(chunk / 64, move |b| {
//!                 b.gen(move |ctx| Op::load_shared(
//!                     slipstream_kernel::Addr(base.0 + ctx.i(0) * 64)));
//!                 b.compute(8);
//!             });
//!             b.barrier(BarrierId(0));
//!             b.build("stream1k")
//!         })
//!     }
//! }
//!
//! let result = run(&Stream1K, &RunSpec::new(4, ExecMode::Slipstream));
//! assert!(result.exec_cycles > 0);
//! ```

mod machine;
mod report;
mod runner;
mod stream;
pub mod telemetry;
mod trace;
mod workload;

pub use machine::Machine;
pub use report::{RunResult, StreamReport, TimeBreakdown};
pub use runner::{
    run, run_full, run_full_with_tracer, run_sequential, run_traced, RunOutput, RunSpec,
};
pub use telemetry::{HostProfile, HostProfileData, HOST_PROFILE_SCHEMA};
pub use stream::{BlockKind, StreamState};
pub use trace::{
    run_result_json, AccessCounts, IntervalSample, LineCounters, TraceConfig, TraceData,
    TraceKind, TraceRecord,
};
pub use workload::{TaskBuilderFn, Workload};

// Re-exports so downstream crates can configure runs without importing the
// whole stack.
pub use slipstream_kernel::config::{
    ArSyncMode, DirScheme, ExecMode, MachineConfig, OverflowPolicy, SlipstreamConfig,
};
pub use slipstream_mem::{ClassCounts, MemStats, RequestClass, StreamRole};
