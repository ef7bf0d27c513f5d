use crate::classify::RequestClass;

/// Occupancy counters for one FIFO contention server, summed over all
/// nodes. Cycles are simulated cycles, so these are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUse {
    /// Total simulated cycles the resource spent serving jobs.
    pub busy_cycles: u64,
    /// Jobs served.
    pub jobs: u64,
    /// Total cycles jobs spent queued behind earlier jobs.
    pub wait_cycles: u64,
}

impl ResourceUse {
    /// Busy cycles as a fraction of `total_cycles` (0 when the run is
    /// empty). With N nodes each resource has N instances, so the
    /// meaningful denominator is `exec_cycles * nodes`.
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total_cycles as f64
        }
    }
}

/// Per-resource contention totals: where simulated requests queued.
/// Populated by [`crate::MemSystem::finalize`] from the per-node
/// [`slipstream_kernel::Server`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Directory controller occupancy.
    pub dir_ctl: ResourceUse,
    /// Network ingress port.
    pub net_in: ResourceUse,
    /// Network egress port.
    pub net_out: ResourceUse,
    /// Memory bank.
    pub mem_bank: ResourceUse,
}

impl ContentionStats {
    /// `(name, use)` pairs in a fixed report order.
    pub fn named(&self) -> [(&'static str, &ResourceUse); 4] {
        [
            ("dir_ctl", &self.dir_ctl),
            ("net_in", &self.net_in),
            ("net_out", &self.net_out),
            ("mem_bank", &self.mem_bank),
        ]
    }
}

/// Aggregate memory-system statistics for one simulation run.
///
/// Combines hit/miss counters, network traffic, the Figure 7 request
/// classification, the Figure 9 transparent-load breakdown, and
/// self-invalidation activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// Accesses that hit in a valid, visible L2 line (after missing L1).
    pub l2_hits: u64,
    /// Accesses that missed the L2 and started (or merged into) a
    /// directory transaction.
    pub l2_misses: u64,
    /// Misses merged into an already-outstanding request for the line.
    pub merged_misses: u64,
    /// Directory transactions whose home node was the requester's node.
    pub local_txns: u64,
    /// Directory transactions to a remote home.
    pub remote_txns: u64,
    /// Read transactions issued (coherent reads, by any stream).
    pub read_txns: u64,
    /// Exclusive transactions issued (read-exclusive and upgrades).
    pub excl_txns: u64,
    /// Exclusive transactions that were A-stream prefetch conversions.
    pub excl_prefetches: u64,
    /// Read transactions issued by A-streams (denominator of Figure 9).
    pub a_read_txns: u64,
    /// A-stream reads issued as transparent loads.
    pub transparent_issued: u64,
    /// Transparent loads answered with a transparent (possibly stale) reply.
    pub transparent_replies: u64,
    /// Transparent loads upgraded to normal loads at the directory.
    pub upgraded_replies: u64,
    /// Self-invalidation hints delivered to exclusive owners.
    pub si_hints: u64,
    /// Lines invalidated by self-invalidation (migratory policy).
    pub si_invalidations: u64,
    /// Lines written back and downgraded by self-invalidation
    /// (producer-consumer policy).
    pub si_downgrades: u64,
    /// Dirty writebacks (evictions and SI).
    pub writebacks: u64,
    /// Invalidation messages sent by the directory.
    pub invalidations_sent: u64,
    /// Write transactions that had to broadcast invalidations because a
    /// limited-pointer directory entry had overflowed
    /// ([`slipstream_kernel::config::DirScheme::LimitedPointer`]). Always 0
    /// under the default full-map scheme.
    pub broadcast_invalidations: u64,
    /// 3-hop interventions (exclusive owner forwarded data).
    pub interventions: u64,
    /// Reads of detected-migratory lines granted exclusively
    /// (`MachineConfig::migratory_opt` extension).
    pub migratory_grants: u64,
    /// Interventions that found the owner already evicted (races resolved
    /// via the in-flight writeback).
    pub intervention_nacks: u64,
    /// Total network messages injected.
    pub net_messages: u64,
    /// Figure 7 classification of shared-data requests.
    pub class: RequestClass,
    /// Per-resource contention (filled in at finalize).
    pub contention: ContentionStats,
}

impl MemStats {
    /// Total data accesses that reached the memory system. Every access
    /// resolves as exactly one of L1 hit, L2 hit, or L2 miss (merged
    /// misses are a subset of `l2_misses`), so this is also the accounting
    /// identity the `slipstream-core` invariant tests check.
    pub fn data_accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l2_misses
    }

    /// Total classified shared-line requests (reads + exclusives, both
    /// streams) — the dynamic figure the static analyzer's request-count
    /// bounds are validated against.
    pub fn classified_total(&self) -> u64 {
        self.class.total()
    }

    /// Total self-invalidation actions taken (copies invalidated plus
    /// copies downgraded at session boundaries, §4). Zero whenever
    /// self-invalidation is off — in particular in every conventional
    /// (single/double) run, which the validation harness asserts.
    pub fn si_events(&self) -> u64 {
        self.si_invalidations + self.si_downgrades
    }

    /// Fraction of A-stream read transactions issued transparently
    /// (Figure 9's y-axis), in percent.
    pub fn transparent_pct(&self) -> f64 {
        if self.a_read_txns == 0 {
            0.0
        } else {
            100.0 * self.transparent_issued as f64 / self.a_read_txns as f64
        }
    }

    /// Of the transparent loads, the percentage answered transparently.
    pub fn transparent_reply_pct(&self) -> f64 {
        let t = self.transparent_replies + self.upgraded_replies;
        if t == 0 {
            0.0
        } else {
            100.0 * self.transparent_replies as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_percentages() {
        let mut s = MemStats::default();
        assert_eq!(s.transparent_pct(), 0.0);
        assert_eq!(s.transparent_reply_pct(), 0.0);
        s.a_read_txns = 100;
        s.transparent_issued = 27;
        s.transparent_replies = 16;
        s.upgraded_replies = 11;
        assert!((s.transparent_pct() - 27.0).abs() < 1e-9);
        assert!((s.transparent_reply_pct() - 16.0 / 27.0 * 100.0).abs() < 1e-9);
    }
}
