//! Host-time benchmark of the slipstream CMP simulator: four workloads,
//! end-to-end metrics measured untraced, and per-layer metrics from spans
//! the benchmark records around each call into the simulator. See
//! `README.md` for the metric catalogue and how to run it.

pub mod golden;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod micro;
pub mod spans;
pub mod stats;
pub mod workloads;
