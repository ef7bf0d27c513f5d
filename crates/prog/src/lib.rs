//! A small DSL for describing parallel scientific kernels as *access-pattern
//! programs*.
//!
//! The slipstream paper evaluates nine Splash-2/NAS kernels compiled for
//! IRIX and run under SimOS. This workspace reproduces those kernels as
//! programs in this DSL: each task is a lazily-interpreted tree of loops
//! whose leaves are typed operations ([`Op`]) — compute bursts, loads and
//! stores to shared or private memory, and synchronization (barriers, locks,
//! events).
//!
//! Programs are *timing* programs: they carry the address stream and
//! control structure of the kernel, not its arithmetic values. This is
//! faithful to the paper's own argument (§3.1): in SPMD scientific codes,
//! control flow and address generation depend on private data (loop indices,
//! task ids), not on shared values — which is exactly why the reduced
//! A-stream stays accurate.
//!
//! # Example
//!
//! ```
//! use slipstream_prog::{Layout, ProgBuilder, Op, BarrierId};
//!
//! let mut layout = Layout::new();
//! let grid = layout.shared("grid", 1 << 16);
//! let mut b = ProgBuilder::new();
//! b.for_n(4, |b| {
//!     b.gen(move |ctx| Op::load_shared(grid.at(ctx.i(0) * 64)));
//!     b.compute(100);
//! });
//! b.barrier(BarrierId(0));
//! let prog = b.build("demo");
//! let ops: Vec<_> = prog.iter().collect();
//! assert_eq!(ops.len(), 9); // 4 * (load + compute) + barrier
//! ```

mod builder;
mod footprint;
mod iter;
mod layout;
mod ops;
mod stmt;

pub use builder::ProgBuilder;
pub use iter::ProgramIter;
pub use layout::{ArrayRef, InstanceId, Layout, RegionInfo, RegionKind};
pub use ops::{BarrierId, EventId, LockId, Op, Space};
pub use stmt::{IdxCtx, Program, Stmt};
