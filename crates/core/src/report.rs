use std::fmt;

use slipstream_kernel::config::ExecMode;
use slipstream_kernel::{CpuId, TaskId};
use slipstream_mem::{MemStats, StreamRole};

/// Where one stream's cycles went — the categories of Figure 6 of the
/// paper: busy cycles, memory stalls, and three kinds of synchronization
/// waits (barrier, lock, A-R).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeBreakdown {
    /// Executing instructions (compute + L1 hits + squashed ops).
    pub busy: u64,
    /// Blocked on the memory system.
    pub mem_stall: u64,
    /// Waiting at barriers and event waits.
    pub barrier: u64,
    /// Waiting for lock grants.
    pub lock: u64,
    /// A-R synchronization: token waits and input waits (A-stream side).
    pub ar_sync: u64,
}

impl TimeBreakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.mem_stall + self.barrier + self.lock + self.ar_sync
    }

    /// Element-wise accumulation (for averaging across streams).
    pub fn accumulate(&mut self, other: &TimeBreakdown) {
        self.busy += other.busy;
        self.mem_stall += other.mem_stall;
        self.barrier += other.barrier;
        self.lock += other.lock;
        self.ar_sync += other.ar_sync;
    }

    /// Element-wise integer division (completes an averaging pass).
    pub fn div(&self, n: u64) -> TimeBreakdown {
        if n == 0 {
            return TimeBreakdown::default();
        }
        TimeBreakdown {
            busy: self.busy / n,
            mem_stall: self.mem_stall / n,
            barrier: self.barrier / n,
            lock: self.lock / n,
            ar_sync: self.ar_sync / n,
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy={} stall={} barrier={} lock={} ar={}",
            self.busy, self.mem_stall, self.barrier, self.lock, self.ar_sync
        )
    }
}

/// Final accounting for one stream (one processor's task copy).
///
/// `PartialEq` exists so tests (and `inspect --out`) can assert that a
/// traced run is bit-identical to an untraced one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// The processor the stream ran on.
    pub cpu: CpuId,
    /// R-stream, A-stream, or conventional task.
    pub role: StreamRole,
    /// The parallel task this stream executed.
    pub task: TaskId,
    /// Cycle at which the stream finished its program.
    pub finish: u64,
    /// Where its cycles went.
    pub breakdown: TimeBreakdown,
}

/// The complete result of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// Number of CMP nodes.
    pub nodes: u16,
    /// Parallel tasks (2x nodes in double mode).
    pub tasks: usize,
    /// End-to-end execution time: the last finish among R/conventional
    /// streams (A-streams are helpers and do not define completion).
    pub exec_cycles: u64,
    /// Per-stream accounting.
    pub streams: Vec<StreamReport>,
    /// Memory-system statistics (classification, transparent loads, SI...).
    pub mem: MemStats,
    /// Number of A-stream kill/refork recoveries (§3.2).
    pub recoveries: u64,
    /// Host-side event count: discrete events the simulator processed to
    /// produce this result. Purely an observability number (the
    /// repository benchmark's `core.events` and `core.ns_per_event`); it
    /// has no effect on simulated time.
    pub host_events: u64,
}

impl RunResult {
    /// Average time breakdown over streams with the given role.
    pub fn avg_breakdown(&self, role: StreamRole) -> TimeBreakdown {
        let mut acc = TimeBreakdown::default();
        let mut n = 0;
        for s in &self.streams {
            if s.role == role {
                acc.accumulate(&s.breakdown);
                n += 1;
            }
        }
        acc.div(n)
    }

    /// Speedup of this run relative to a baseline run of the same workload.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.exec_cycles as f64 / self.exec_cycles as f64
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} mode, {} CMPs, {} tasks]: {} cycles",
            self.name, self.mode, self.nodes, self.tasks, self.exec_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_kernel::NodeId;

    #[test]
    fn breakdown_totals_and_average() {
        let a = TimeBreakdown { busy: 10, mem_stall: 20, barrier: 5, lock: 3, ar_sync: 2 };
        assert_eq!(a.total(), 40);
        let mut acc = TimeBreakdown::default();
        acc.accumulate(&a);
        acc.accumulate(&a);
        assert_eq!(acc.div(2), a);
        assert_eq!(acc.div(0), TimeBreakdown::default());
    }

    #[test]
    fn avg_breakdown_filters_by_role() {
        let mk = |role, busy| StreamReport {
            cpu: CpuId::new(NodeId(0), 0),
            role,
            task: TaskId(0),
            finish: 0,
            breakdown: TimeBreakdown { busy, ..Default::default() },
        };
        let r = RunResult {
            name: "x".into(),
            mode: ExecMode::Slipstream,
            nodes: 1,
            tasks: 1,
            exec_cycles: 100,
            streams: vec![mk(StreamRole::R, 10), mk(StreamRole::A, 50)],
            mem: MemStats::default(),
            recoveries: 0,
            host_events: 0,
        };
        assert_eq!(r.avg_breakdown(StreamRole::R).busy, 10);
        assert_eq!(r.avg_breakdown(StreamRole::A).busy, 50);
        assert_eq!(r.avg_breakdown(StreamRole::Solo).busy, 0);
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let base = RunResult {
            name: "x".into(),
            mode: ExecMode::Single,
            nodes: 1,
            tasks: 1,
            exec_cycles: 200,
            streams: vec![],
            mem: MemStats::default(),
            recoveries: 0,
            host_events: 0,
        };
        let fast = RunResult { exec_cycles: 100, mode: ExecMode::Slipstream, ..base.clone() };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn displays_are_nonempty() {
        let b = TimeBreakdown::default();
        assert!(!b.to_string().is_empty());
    }
}
