//! Host-side self-profiling: counters, gauges, and fixed-bucket
//! histograms describing the *simulator's* behaviour (wall-clock time,
//! queue-lane traffic), as opposed to `trace`, which observes the
//! *simulated machine*.
//!
//! Everything here is strictly observational: profiling reads host clocks
//! and counters the event loop already maintains, and never feeds anything
//! back into simulated time — so a profiled run is bit-identical to an
//! unprofiled one (pinned by `crates/bench/tests/host_profile.rs`).
//! Collection is off by default ([`HostProfile::default`]) and costs
//! nothing when off: the event loop holds an `Option` of collector state
//! and skips every hook on `None`.
//!
//! No external dependencies: histograms are fixed power-of-two buckets,
//! export is the same hand-rolled JSON used by the trace subsystem.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::report::RunResult;

/// Schema identifier written into every `host_profile.json`.
pub const HOST_PROFILE_SCHEMA: &str = "slipstream-host-profile/2";

/// How often the event loop samples queue occupancy, in events. Power of two
/// so the hot-loop check is a mask.
pub const QUEUE_SAMPLE_PERIOD: u64 = 1024;

// ---------------------------------------------------------------------------
// Quiet-able stderr notes
// ---------------------------------------------------------------------------

static QUIET: AtomicBool = AtomicBool::new(false);

/// Globally silences [`host_note!`] (progress chatter on stderr: the
/// bench executor's per-run lines, the heartbeat).
/// Errors and reports still print; this only gates narration, so
/// machine-readable pipelines stay clean.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether [`set_quiet`] has silenced progress notes.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// `eprintln!` for progress narration, silenced by
/// [`telemetry::set_quiet`](set_quiet). Formatting is skipped entirely
/// when quiet.
#[macro_export]
macro_rules! host_note {
    ($($t:tt)*) => {
        if !$crate::telemetry::is_quiet() {
            eprintln!($($t)*);
        }
    };
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of buckets in every [`Histogram`]: `[0]`, `[1]`, `[2,4)`,
/// `[4,8)`, …, `[2^13,2^14)`, `[2^14,∞)`.
pub const HIST_BUCKETS: usize = 16;

/// A fixed-size power-of-two histogram of `u64` samples.
///
/// Bucket `0` holds zeros, bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs the tail. Recording is
/// a `leading_zeros` and an add.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index for `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    fn json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            buckets.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Host-profiling configuration on [`crate::RunSpec`]. Default: off —
/// the run pays no collection cost and produces no profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfile {
    /// Master switch.
    pub enabled: bool,
    /// Heartbeat period in seconds on stderr (events/s, % complete, ETA).
    /// `0.0` disables the heartbeat (profile data is still collected).
    pub heartbeat_secs: f64,
    /// Expected total host events for `% complete` / ETA in the
    /// heartbeat; `0` = unknown (heartbeat reports events/s only).
    pub expected_events: u64,
}

impl HostProfile {
    /// Profiling on, heartbeat off.
    pub fn enabled() -> HostProfile {
        HostProfile { enabled: true, ..HostProfile::default() }
    }

    /// Whether any collection happens.
    pub fn is_on(&self) -> bool {
        self.enabled
    }
}

// ---------------------------------------------------------------------------
// Collected data
// ---------------------------------------------------------------------------

/// Two-lane event-queue traffic of one run.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Total events pushed.
    pub total_pushed: u64,
    /// Pushes that fell back to the far-tail heap lane.
    pub heap_pushes: u64,
    /// Peak pending events.
    pub high_water: u64,
    /// Near-future ring occupancy, sampled every
    /// [`QUEUE_SAMPLE_PERIOD`] events.
    pub ring_occupancy: Histogram,
    /// Heap-lane occupancy at the same sample points.
    pub heap_occupancy: Histogram,
}

/// Wall-clock phase breakdown of one run, in seconds. Phases a caller
/// doesn't perform stay 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Layout instantiation + machine assembly.
    pub build_s: f64,
    /// The simulation loop itself.
    pub simulate_s: f64,
    /// Protocol-checker verdict evaluation (checked runs only).
    pub check_s: f64,
    /// Trace serialization to disk (trace exports only).
    pub trace_export_s: f64,
}

/// One contention server's totals, with utilization against the run's
/// aggregate node-cycles.
#[derive(Debug, Clone)]
pub struct ResourceSummary {
    /// Resource name (`dir_ctl`, `net_in`, `net_out`, `mem_bank`).
    pub name: &'static str,
    /// Simulated cycles busy, summed over nodes.
    pub busy_cycles: u64,
    /// Jobs served.
    pub jobs: u64,
    /// Simulated cycles jobs queued.
    pub wait_cycles: u64,
    /// `busy_cycles / (exec_cycles * nodes)`.
    pub utilization: f64,
}

/// Everything the host profiler collected for one run.
#[derive(Debug, Clone, Default)]
pub struct HostProfileData {
    /// Simulated CMP nodes.
    pub nodes: u16,
    /// Total host events executed.
    pub events: u64,
    /// Simulated cycles the run covered.
    pub sim_cycles: u64,
    /// Wall-clock phase breakdown.
    pub phases: PhaseTimes,
    /// Queue-lane traffic.
    pub queue: QueueStats,
    /// Contention-server utilization.
    pub resources: Vec<ResourceSummary>,
}

impl HostProfileData {
    /// Host events per wall-clock second of the simulate phase (0 when
    /// the phase is unmeasured).
    pub fn events_per_sec(&self) -> f64 {
        if self.phases.simulate_s <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.phases.simulate_s
        }
    }

    /// Fills [`HostProfileData::resources`] from a run's memory
    /// statistics. Utilization is against `exec_cycles * nodes`, since
    /// every resource has one instance per node.
    pub fn fill_resources(&mut self, r: &RunResult) {
        self.sim_cycles = r.exec_cycles;
        let total = r.exec_cycles.saturating_mul(self.nodes as u64);
        self.resources = r
            .mem
            .contention
            .named()
            .iter()
            .map(|(name, u)| ResourceSummary {
                name,
                busy_cycles: u.busy_cycles,
                jobs: u.jobs,
                wait_cycles: u.wait_cycles,
                utilization: u.utilization(total),
            })
            .collect();
    }

    /// The profile as one JSON object (schema
    /// [`HOST_PROFILE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push('{');
        s.push_str(&format!("\"schema\": \"{HOST_PROFILE_SCHEMA}\","));
        s.push_str(&format!("\"nodes\": {},", self.nodes));
        s.push_str(&format!("\"events\": {},", self.events));
        s.push_str(&format!("\"sim_cycles\": {},", self.sim_cycles));
        s.push_str(&format!("\"events_per_sec\": {:.1},", self.events_per_sec()));
        s.push_str(&format!(
            "\"phases\": {{\"build_s\": {:.6}, \"simulate_s\": {:.6}, \"check_s\": {:.6}, \
             \"trace_export_s\": {:.6}}},",
            self.phases.build_s,
            self.phases.simulate_s,
            self.phases.check_s,
            self.phases.trace_export_s
        ));
        s.push_str(&format!(
            "\"queue\": {{\"total_pushed\": {}, \"heap_pushes\": {}, \"high_water\": {}, \
             \"ring_occupancy\": {}, \"heap_occupancy\": {}}},",
            self.queue.total_pushed,
            self.queue.heap_pushes,
            self.queue.high_water,
            self.queue.ring_occupancy.json(),
            self.queue.heap_occupancy.json()
        ));
        let resources: Vec<String> = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": \"{}\", \"busy_cycles\": {}, \"jobs\": {}, \"wait_cycles\": {}, \
                     \"utilization\": {:.4}}}",
                    r.name, r.busy_cycles, r.jobs, r.wait_cycles, r.utilization
                )
            })
            .collect();
        s.push_str(&format!("\"resources\": [{}]", resources.join(",")));
        s.push('}');
        s
    }

    /// A human-readable multi-line table of the profile.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "host profile: nodes={} events={} ({:.0} ev/s)\n",
            self.nodes,
            self.events,
            self.events_per_sec()
        ));
        s.push_str(&format!(
            "  phases: build {:.3}s  simulate {:.3}s  check {:.3}s  trace-export {:.3}s\n",
            self.phases.build_s,
            self.phases.simulate_s,
            self.phases.check_s,
            self.phases.trace_export_s
        ));
        let heap_pct = if self.queue.total_pushed == 0 {
            0.0
        } else {
            100.0 * self.queue.heap_pushes as f64 / self.queue.total_pushed as f64
        };
        s.push_str(&format!(
            "  queue: pushed {}  heap fallbacks {} ({:.2}%)  high water {}  ring occ mean {:.1}  \
             heap occ mean {:.1}\n",
            self.queue.total_pushed,
            self.queue.heap_pushes,
            heap_pct,
            self.queue.high_water,
            self.queue.ring_occupancy.mean(),
            self.queue.heap_occupancy.mean()
        ));
        s.push_str("  contention (busy = simulated cycles, util = busy / exec*nodes):\n");
        for r in &self.resources {
            s.push_str(&format!(
                "    {:<8} busy {:<12} jobs {:<10} wait {:<12} util {:.1}%\n",
                r.name,
                r.busy_cycles,
                r.jobs,
                r.wait_cycles,
                r.utilization * 100.0
            ));
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

/// Opt-in periodic progress line on stderr for long runs. Driven from
/// the event loop; silenced by [`set_quiet`].
#[derive(Debug)]
pub struct Heartbeat {
    label: String,
    every: Duration,
    started: Instant,
    next: Instant,
    expected_events: u64,
}

impl Heartbeat {
    /// A heartbeat firing every `secs` seconds (`None` when `secs <= 0`).
    pub fn new(label: &str, secs: f64, expected_events: u64) -> Option<Heartbeat> {
        if secs <= 0.0 {
            return None;
        }
        let every = Duration::from_secs_f64(secs);
        let now = Instant::now();
        Some(Heartbeat {
            label: label.to_string(),
            every,
            started: now,
            next: now + every,
            expected_events,
        })
    }

    /// Emits a progress line if the period elapsed. Call sparsely (the
    /// event loop calls it at queue-sample points).
    pub fn maybe_beat(&mut self, events_done: u64) {
        let now = Instant::now();
        if now < self.next {
            return;
        }
        self.next = now + self.every;
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let rate = if elapsed > 0.0 { events_done as f64 / elapsed } else { 0.0 };
        if self.expected_events > 0 && rate > 0.0 {
            let pct = 100.0 * events_done as f64 / self.expected_events as f64;
            let remaining = self.expected_events.saturating_sub(events_done) as f64 / rate;
            host_note!(
                "  [{}: {} events ({:.0}%), {:.0} ev/s, eta {:.0}s]",
                self.label,
                events_done,
                pct.min(100.0),
                rate,
                remaining
            );
        } else {
            host_note!(
                "  [{}: {} events, {:.0} ev/s, {:.0}s elapsed]",
                self.label,
                events_done,
                rate,
                elapsed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_kernel::SplitMix64;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Lower bounds match the bucketing function.
        for i in 1..HIST_BUCKETS {
            let lo = Histogram::bucket_lo(i);
            assert_eq!(Histogram::bucket_of(lo), i, "lower bound of bucket {i}");
            if i > 1 {
                assert_eq!(Histogram::bucket_of(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_totals_match_random_inputs() {
        let mut rng = SplitMix64::new(0x5eed_7e1e);
        let mut h = Histogram::new();
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for _ in 0..10_000 {
            // Spread samples over the full bucket range by masking to a
            // random width.
            let width = rng.next_u64() % 20;
            let v = rng.next_u64() & ((1u64 << width) - 1);
            h.record(v);
            count += 1;
            sum += v;
            max = max.max(v);
        }
        assert_eq!(h.count(), count);
        assert_eq!(h.sum(), sum);
        assert_eq!(h.max(), max);
        assert_eq!(h.buckets().iter().sum::<u64>(), count);
        assert!((h.mean() - sum as f64 / count as f64).abs() < 1e-9);
        // Every sample landed in the bucket its value maps to.
        let mut rng2 = SplitMix64::new(0x5eed_7e1e);
        let mut expect = [0u64; HIST_BUCKETS];
        for _ in 0..10_000 {
            let width = rng2.next_u64() % 20;
            let v = rng2.next_u64() & ((1u64 << width) - 1);
            expect[Histogram::bucket_of(v)] += 1;
        }
        assert_eq!(h.buckets(), &expect);
    }

    #[test]
    fn json_has_schema_and_sections() {
        let d = HostProfileData { nodes: 4, events: 1000, ..HostProfileData::default() };
        let j = d.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in ["\"schema\"", "\"queue\"", "\"resources\"", "\"phases\""] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.contains(HOST_PROFILE_SCHEMA));
    }
}
