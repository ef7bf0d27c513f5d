//! Machine and execution-mode configuration.
//!
//! [`MachineConfig`] mirrors Table 1 of the paper (SimOS parameters chosen
//! to approximate the SGI Origin 3000 memory system). The defaults reproduce
//! the paper's numbers exactly: with zero contention, a local L2 miss takes
//! 170 cycles and a remote miss 290 cycles (asserted by tests in the `mem`
//! crate).

use std::fmt;

/// Geometry of one cache (L1 or L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/line or capacity not
    /// divisible into sets).
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0 && self.line_bytes > 0);
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = self.bytes / (self.ways as u64 * self.line_bytes);
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a positive power of two");
        sets
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.bytes / self.line_bytes
    }
}

/// Memory-system latency/occupancy parameters (Table 1 of the paper).
///
/// All values are in cycles of the 1 GHz processor clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latencies {
    /// L1 hit time.
    pub l1_hit: u64,
    /// L2 hit time (tag + data).
    pub l2_hit: u64,
    /// `BusTime`: transit, L2 to directory controller.
    pub bus: u64,
    /// `PILocalDCTime`: occupancy of the DC on a local miss.
    pub pi_local_dc: u64,
    /// `PIRemoteDCTime`: occupancy of the local DC on an outgoing miss.
    pub pi_remote_dc: u64,
    /// `NIRemoteDCTime`: occupancy of the local DC on an incoming reply.
    pub ni_remote_dc: u64,
    /// `NILocalDCTime`: occupancy of the remote (home) DC on a remote miss.
    pub ni_local_dc: u64,
    /// `NetTime`: transit through the interconnection network.
    pub net: u64,
    /// `MemTime`: DC to local memory and back.
    pub mem: u64,
    /// Occupancy of a node's network input/output port per message.
    ///
    /// The paper models contention "at the network inputs and outputs" but
    /// does not publish the per-message port time; 8 cycles (a cache line at
    /// 8 bytes/cycle) is our calibrated choice, documented in DESIGN.md.
    pub net_port: u64,
    /// Occupancy of the per-node memory bank per line transfer (reads and
    /// writebacks). `MemTime` is the pipelined *latency* to first data;
    /// the bank stays busy for `mem_bank_occ` cycles per line, bounding a
    /// node's sustained memory bandwidth ("contention is modeled ... at
    /// the memory controller"). Calibrated, not from Table 1: large enough
    /// that a second streaming task on a CMP saturates its node's memory,
    /// which is what caps double mode for the memory-bound kernels
    /// (Figure 1).
    pub mem_bank_occ: u64,
    /// Occupancy of the home sync controller per synchronization message
    /// (barrier arrival/release, lock request/grant). Models the
    /// serialized hand-off of the coherent counter line that an LL/SC
    /// barrier or lock implementation performs per participant.
    pub sync_ctrl: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            l1_hit: 1,
            l2_hit: 10,
            bus: 30,
            pi_local_dc: 60,
            pi_remote_dc: 10,
            ni_remote_dc: 10,
            ni_local_dc: 60,
            net: 50,
            mem: 50,
            net_port: 8,
            mem_bank_occ: 200,
            sync_ctrl: 140,
        }
    }
}

impl Latencies {
    /// Minimum (contention-free) latency of a local L2 miss:
    /// `bus + pi_local_dc + mem + bus` = 170 cycles with defaults.
    pub fn min_local_miss(&self) -> u64 {
        self.bus + self.pi_local_dc + self.mem + self.bus
    }

    /// Minimum (contention-free) latency of a remote L2 miss satisfied from
    /// memory:
    /// `bus + pi_remote_dc + net + ni_local_dc + mem + net + ni_remote_dc + bus`
    /// = 290 cycles with defaults.
    pub fn min_remote_miss(&self) -> u64 {
        self.bus
            + self.pi_remote_dc
            + self.net
            + self.ni_local_dc
            + self.mem
            + self.net
            + self.ni_remote_dc
            + self.bus
    }
}

/// The A-R synchronization methods evaluated in the paper (§3.2, Figure 3).
///
/// `initial_tokens` seeds the token bucket; the R-stream inserts a new token
/// either when it *enters* a barrier/event (local) or when it *exits* it
/// (global, i.e. after all R-streams arrive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArSyncMode {
    /// One-token local (`L1`): A may enter the next session when its
    /// R-stream enters the previous synchronization event. Loosest.
    OneTokenLocal,
    /// Zero-token local (`L0`): A may enter the next session when its
    /// R-stream enters the same synchronization event.
    ZeroTokenLocal,
    /// One-token global (`G1`): A may enter the next session when its
    /// R-stream exits the previous synchronization event.
    OneTokenGlobal,
    /// Zero-token global (`G0`): A may enter the next session when its
    /// R-stream exits the same synchronization event. Tightest.
    ZeroTokenGlobal,
}

impl ArSyncMode {
    /// All four methods, in the order the paper's figures list them.
    pub const ALL: [ArSyncMode; 4] = [
        ArSyncMode::OneTokenLocal,
        ArSyncMode::ZeroTokenLocal,
        ArSyncMode::OneTokenGlobal,
        ArSyncMode::ZeroTokenGlobal,
    ];

    /// Number of tokens in the bucket at task creation.
    pub fn initial_tokens(self) -> u32 {
        match self {
            ArSyncMode::OneTokenLocal | ArSyncMode::OneTokenGlobal => 1,
            ArSyncMode::ZeroTokenLocal | ArSyncMode::ZeroTokenGlobal => 0,
        }
    }

    /// Whether the R-stream inserts a token on barrier *entry* (local) as
    /// opposed to barrier *exit* (global).
    pub fn insert_on_entry(self) -> bool {
        matches!(self, ArSyncMode::OneTokenLocal | ArSyncMode::ZeroTokenLocal)
    }

    /// The paper's short label: `L1`, `L0`, `G1`, `G0`.
    pub fn label(self) -> &'static str {
        match self {
            ArSyncMode::OneTokenLocal => "L1",
            ArSyncMode::ZeroTokenLocal => "L0",
            ArSyncMode::OneTokenGlobal => "G1",
            ArSyncMode::ZeroTokenGlobal => "G0",
        }
    }
}

impl fmt::Display for ArSyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Slipstream-mode feature knobs (§3 and §4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlipstreamConfig {
    /// Which A-R synchronization method to use.
    pub ar_sync: ArSyncMode,
    /// Number of tokens the A-stream may bank beyond the initial allotment.
    /// The paper uses an unbounded counter; we cap it to keep the semantics
    /// of "n sessions ahead" explicit. Large enough to never bind by default.
    pub max_tokens: u32,
    /// Convert skipped shared stores into exclusive prefetches when the
    /// A-stream is in the same session as its R-stream and not inside a
    /// critical section (§3.3).
    pub exclusive_prefetch: bool,
    /// Issue transparent loads when the A-stream is at least one session
    /// ahead or inside a critical section (§4.1).
    pub transparent_loads: bool,
    /// Use transparent loads as future-sharer hints and self-invalidate /
    /// write back flagged lines at R-stream synchronization points (§4.2).
    pub self_invalidation: bool,
    /// Peak rate of self-invalidation processing: one line per this many
    /// cycles (the paper uses 4).
    pub si_interval: u64,
    /// Dynamically select the A-R synchronization method (the paper's §6
    /// future work: "varying the scheme dynamically during program
    /// execution"): each pair samples all four methods for a fixed window
    /// of sessions apiece, then locks in the fastest.
    pub ar_adaptive: bool,
}

impl Default for SlipstreamConfig {
    fn default() -> SlipstreamConfig {
        SlipstreamConfig {
            ar_sync: ArSyncMode::OneTokenGlobal,
            max_tokens: u32::MAX,
            exclusive_prefetch: true,
            transparent_loads: false,
            self_invalidation: false,
            si_interval: 4,
            ar_adaptive: false,
        }
    }
}

impl SlipstreamConfig {
    /// Adaptive A-R selection (§6): sample all four methods, keep the best.
    pub fn adaptive() -> SlipstreamConfig {
        SlipstreamConfig { ar_adaptive: true, ..SlipstreamConfig::default() }
    }
}

impl SlipstreamConfig {
    /// Prefetch-only slipstream (§3): no transparent loads, no SI.
    pub fn prefetch_only(ar_sync: ArSyncMode) -> SlipstreamConfig {
        SlipstreamConfig { ar_sync, ..SlipstreamConfig::default() }
    }

    /// Prefetching plus transparent loads, without SI (§4.3, middle bars).
    pub fn with_transparent(ar_sync: ArSyncMode) -> SlipstreamConfig {
        SlipstreamConfig {
            ar_sync,
            transparent_loads: true,
            ..SlipstreamConfig::default()
        }
    }

    /// The full §4 configuration: prefetching + transparent loads + SI.
    pub fn with_self_invalidation(ar_sync: ArSyncMode) -> SlipstreamConfig {
        SlipstreamConfig {
            ar_sync,
            transparent_loads: true,
            self_invalidation: true,
            ..SlipstreamConfig::default()
        }
    }
}

/// Directory sharer-tracking scheme.
///
/// The default [`DirScheme::FullMap`] tracks every sharer precisely and is
/// the protocol every committed result was produced with. The
/// limited-pointer scheme is an opt-in ablation: it intentionally changes
/// protocol traffic (broadcast invalidations once a line overflows its
/// pointer budget), so runs using it are *not* comparable to full-map
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirScheme {
    /// Precise bit per node (the paper's protocol). Default.
    #[default]
    FullMap,
    /// Track at most `ptrs` sharer pointers per line. A line that gains
    /// more sharers stops tracking them precisely, and a later write
    /// broadcasts invalidations to every node except the writer (Dir_i B
    /// in the classic taxonomy).
    LimitedPointer {
        /// Sharer pointers available per directory entry.
        ptrs: u8,
    },
}

impl DirScheme {
    /// A limited-pointer scheme with `ptrs` pointers — shorthand for the
    /// ablation figure and tests.
    pub fn limited(ptrs: u8) -> DirScheme {
        DirScheme::LimitedPointer { ptrs }
    }
}

impl fmt::Display for DirScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirScheme::FullMap => f.write_str("full-map"),
            DirScheme::LimitedPointer { ptrs } => write!(f, "limited-{ptrs}-bcast"),
        }
    }
}

/// How parallel tasks are mapped onto the machine (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One task per CMP; the second processor idles.
    Single,
    /// Two independent parallel tasks per CMP (2n tasks on n CMPs).
    Double,
    /// One task pair per CMP: R-stream on core 0, reduced A-stream on core 1.
    Slipstream,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecMode::Single => "single",
            ExecMode::Double => "double",
            ExecMode::Slipstream => "slipstream",
        })
    }
}

/// Full description of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of CMP nodes.
    pub nodes: u16,
    /// Per-processor L1 data cache (32 KB, 2-way in the paper).
    pub l1: CacheGeometry,
    /// Per-CMP shared unified L2 (1 MB, 4-way; 128 KB for Water).
    pub l2: CacheGeometry,
    /// Latency/occupancy parameters.
    pub lat: Latencies,
    /// Page size used to interleave shared data across home nodes.
    pub page_bytes: u64,
    /// Directory-side migratory-sharing detection (an extension the paper
    /// names in §1/§5 via Kaxiras & Goodman / Cox & Fowler): after two
    /// consecutive ownership hand-offs, reads of the line are granted
    /// exclusively, saving the reader's subsequent upgrade. Off by default
    /// (the paper's baseline protocol does not include it).
    pub migratory_opt: bool,
    /// Directory sharer-tracking scheme. [`DirScheme::FullMap`] (the
    /// default) is bit-identical to the historical protocol; the
    /// limited-pointer ablation changes traffic.
    pub dir_scheme: DirScheme,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            nodes: 16,
            l1: CacheGeometry { bytes: 32 << 10, ways: 2, line_bytes: 64 },
            l2: CacheGeometry { bytes: 1 << 20, ways: 4, line_bytes: 64 },
            lat: Latencies::default(),
            page_bytes: 4096,
            migratory_opt: false,
            dir_scheme: DirScheme::FullMap,
        }
    }
}

impl MachineConfig {
    /// Paper configuration with `nodes` CMPs.
    pub fn with_nodes(nodes: u16) -> MachineConfig {
        MachineConfig { nodes, ..MachineConfig::default() }
    }

    /// Paper configuration for the Water benchmarks: a 128 KB L2 "to match
    /// its small working set" (Table 1 footnote).
    pub fn water(nodes: u16) -> MachineConfig {
        let mut cfg = MachineConfig::with_nodes(nodes);
        cfg.l2 = CacheGeometry { bytes: 128 << 10, ways: 4, line_bytes: 64 };
        cfg
    }

    /// Cache line size (L1 and L2 share it).
    ///
    /// # Panics
    ///
    /// Panics if the L1 and L2 line sizes disagree.
    pub fn line_bytes(&self) -> u64 {
        assert_eq!(self.l1.line_bytes, self.l2.line_bytes, "L1/L2 line sizes must match");
        self.l1.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_min_latencies() {
        let lat = Latencies::default();
        assert_eq!(lat.min_local_miss(), 170);
        assert_eq!(lat.min_remote_miss(), 290);
    }

    #[test]
    fn geometry_paper_caches() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.l1.sets(), 256); // 32KB / (2 ways * 64B)
        assert_eq!(cfg.l2.sets(), 4096); // 1MB / (4 ways * 64B)
        assert_eq!(cfg.l2.lines(), 16384);
        assert_eq!(cfg.line_bytes(), 64);
    }

    #[test]
    fn water_config_shrinks_l2() {
        let cfg = MachineConfig::water(8);
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.l2.bytes, 128 << 10);
        assert_eq!(cfg.l2.sets(), 512);
    }

    #[test]
    fn ar_sync_semantics() {
        use ArSyncMode::*;
        assert_eq!(OneTokenLocal.initial_tokens(), 1);
        assert_eq!(ZeroTokenGlobal.initial_tokens(), 0);
        assert!(OneTokenLocal.insert_on_entry());
        assert!(ZeroTokenLocal.insert_on_entry());
        assert!(!OneTokenGlobal.insert_on_entry());
        assert!(!ZeroTokenGlobal.insert_on_entry());
        let labels: Vec<_> = ArSyncMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, ["L1", "L0", "G1", "G0"]);
    }

    #[test]
    fn slipstream_config_presets() {
        let p = SlipstreamConfig::prefetch_only(ArSyncMode::ZeroTokenLocal);
        assert!(p.exclusive_prefetch && !p.transparent_loads && !p.self_invalidation);
        let t = SlipstreamConfig::with_transparent(ArSyncMode::OneTokenGlobal);
        assert!(t.transparent_loads && !t.self_invalidation);
        let s = SlipstreamConfig::with_self_invalidation(ArSyncMode::OneTokenGlobal);
        assert!(s.transparent_loads && s.self_invalidation);
        assert_eq!(s.si_interval, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry { bytes: 1000, ways: 2, line_bytes: 48 }.sets();
    }

    #[test]
    fn mode_display() {
        assert_eq!(ExecMode::Single.to_string(), "single");
        assert_eq!(ExecMode::Double.to_string(), "double");
        assert_eq!(ExecMode::Slipstream.to_string(), "slipstream");
        assert_eq!(ArSyncMode::OneTokenGlobal.to_string(), "G1");
    }
}
