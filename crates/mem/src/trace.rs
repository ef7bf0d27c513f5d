//! Observability for the memory system: one observation vocabulary,
//! [`MemObs`], and one hook, [`MemTracer::on`].
//!
//! The machine loop (or a test) installs tracers into [`crate::MemSystem`]
//! via [`crate::MemSystem::add_tracer`]; every installed tracer sees every
//! observation, in installation order. A tracer `match`es on the variants
//! it cares about and ignores the rest. With no tracer installed the memory
//! system pays exactly one `is_empty` branch per observation site — no
//! allocation, no virtual call — keeping the default simulation path
//! unperturbed.
//!
//! Observations are *copies* of protocol-level facts (cycle, line, nodes,
//! roles) and must not feed anything back into the simulation. Determinism
//! therefore holds by construction: a run with tracers installed produces
//! bit-identical results to a run without, which `slipstream-core`'s
//! accounting tests assert.
//!
//! Adding an observation costs one variant here plus one `match` arm in
//! each consumer that wants it.

use slipstream_kernel::{CpuId, Cycle, LineAddr, NodeId, SharerSet};

use crate::msg::{AccessKind, StreamRole, SyncOp};

/// How a processor-side access was resolved at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Served by the issuing core's L1.
    L1Hit,
    /// Served by the node's shared L2 (valid, visible copy).
    L2Hit,
    /// Missed the L2 and opened a new directory transaction (MSHR
    /// allocated).
    MissNew,
    /// Missed the L2 and merged into an already-outstanding MSHR.
    MissMerged,
    /// A non-binding exclusive prefetch was issued to the directory.
    PrefetchIssued,
    /// A non-binding exclusive prefetch was dropped (line already owned or
    /// a request is already in flight).
    PrefetchDropped,
}

/// Snapshot of a directory entry's permission state, as exposed to
/// tracers. Mirrors the (private) protocol state: uncached, shared with a
/// node bit-vector, or exclusively owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TracePerm {
    /// No cached copies are registered.
    Uncached,
    /// Shared copies exist at the nodes set in `sharers` (bit per node).
    Shared {
        /// Set of sharing nodes.
        sharers: SharerSet,
        /// Limited-pointer overflow: `sharers` is a subset of the true
        /// copy-holders and the next write will broadcast. Always `false`
        /// under the default full-map scheme.
        overflow: bool,
    },
    /// One node holds the line exclusively.
    Excl {
        /// The owning node.
        owner: NodeId,
    },
}

/// One memory-system observation, handed to every installed
/// [`MemTracer`].
#[derive(Debug, Clone, PartialEq)]
pub enum MemObs {
    /// A processor-side data access was issued and resolved as `outcome`.
    /// Emitted once per [`crate::MemSystem::access`] call.
    Access {
        cpu: CpuId,
        role: StreamRole,
        kind: AccessKind,
        line: LineAddr,
        outcome: AccessOutcome,
    },
    /// A fill (coherent or transparent reply) landed in `node`'s L2,
    /// completing the line's outstanding waiters.
    Fill { node: NodeId, line: LineAddr, excl: bool, transparent: bool },
    /// The home directory's permission state for `line` changed while
    /// serving a message from `requester`.
    DirTransition { line: LineAddr, from: TracePerm, to: TracePerm, requester: NodeId },
    /// The directory forwarded an intervention to the exclusive `owner` on
    /// behalf of `requester` (`excl` = ownership transfer vs. downgrade).
    Intervention { line: LineAddr, owner: NodeId, requester: NodeId, excl: bool },
    /// The directory sent an invalidation for `line` to sharer `target`.
    Invalidation { line: LineAddr, target: NodeId },
    /// A self-invalidation hint was sent to the exclusive `owner` (§4.2:
    /// a transparent load recorded a future sharer).
    SiHint { line: LineAddr, owner: NodeId },
    /// `node` processed a flagged line at a sync point: invalidated it
    /// (migratory policy) if `invalidated`, else wrote back and downgraded
    /// (producer-consumer policy).
    SiAction { node: NodeId, line: LineAddr, invalidated: bool },
    /// A transparent load from `from` was upgraded to a normal load at the
    /// directory.
    TransparentUpgrade { line: LineAddr, from: NodeId },
    /// A transparent load from `from` was answered with a (possibly stale)
    /// memory copy.
    TransparentReply { line: LineAddr, from: NodeId },
    /// A dirty writeback for `line` arrived at the home from `from`.
    Writeback { line: LineAddr, from: NodeId },
    /// The sync controller handled `op` from `cpu`, releasing `granted`
    /// blocked processors (0 = the requester queued or nothing released).
    Sync { cpu: CpuId, op: SyncOp, granted: u32 },
    /// `node`'s L2 evicted `line` to make room for a fill. `dirty` is true
    /// when the eviction produced a dirty writeback (vs. a replacement
    /// hint); `transparent` marks an evicted transparent copy, which was
    /// never registered in the directory's sharing list.
    L2Evict { node: NodeId, line: LineAddr, dirty: bool, transparent: bool },
    /// `node`'s L2 dropped its copy of `line` in response to the protocol
    /// (an invalidation, an ownership-transfer intervention, or a migratory
    /// self-invalidation). Emitted only when a copy was actually resident.
    L2Invalidate { node: NodeId, line: LineAddr },
    /// `node`'s L2 downgraded its exclusive copy of `line` to shared (a
    /// read intervention, or a producer-consumer self-invalidation
    /// writeback).
    L2Downgrade { node: NodeId, line: LineAddr },
    /// `node` opened a new MSHR for `line` (a fresh outstanding
    /// transaction; merged requests reuse the existing MSHR and emit
    /// nothing).
    MshrAlloc { node: NodeId, line: LineAddr },
    /// `node` retired the MSHR for `line`: every outstanding request the
    /// MSHR tracked has been filled. Balanced against
    /// [`MemObs::MshrAlloc`] (a fill that leaves a reply pending keeps the
    /// MSHR and emits neither).
    MshrFree { node: NodeId, line: LineAddr },
}

/// The observation hook; see the [module docs](self) for the contract.
pub trait MemTracer: std::fmt::Debug {
    /// Observes `ev`, which happened at simulated time `now`.
    fn on(&mut self, now: Cycle, ev: &MemObs);
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use slipstream_kernel::config::MachineConfig;
    use slipstream_kernel::{Addr, EventQueue};

    use super::*;
    use crate::{HomeMap, MemEvent, MemSystem};

    /// Appends every observation, tagged with the tracer's id, to a log
    /// all tracers share.
    #[derive(Debug)]
    struct Tagged(usize, Rc<RefCell<Vec<(usize, Cycle, MemObs)>>>);

    impl MemTracer for Tagged {
        fn on(&mut self, now: Cycle, ev: &MemObs) {
            self.1.borrow_mut().push((self.0, now, ev.clone()));
        }
    }

    #[test]
    fn tracers_see_every_observation_in_installation_order() {
        let cfg = MachineConfig::with_nodes(4);
        let mut mem = MemSystem::new(&cfg, HomeMap::uniform(4, cfg.page_bytes), 4);
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..2 {
            mem.add_tracer(Box::new(Tagged(id, Rc::clone(&log))));
        }
        // Write on node 0, read on node 1 (intervention), write on node 2
        // (invalidation): misses, fills, transitions and protocol messages.
        let mut q = EventQueue::<MemEvent>::new();
        let mut out = Vec::new();
        for (t, node, kind) in
            [(0, 0, AccessKind::Write), (1_000, 1, AccessKind::Read), (2_000, 2, AccessKind::Write)]
        {
            let cpu = CpuId::new(NodeId(node), 0);
            mem.access(Cycle(t), cpu, StreamRole::Solo, kind, Addr(0x4000), true, false, &mut q);
            while let Some((at, ev)) = q.pop() {
                mem.handle_event(at, ev, &mut q, &mut out);
            }
        }
        assert_eq!(mem.take_tracers().len(), 2);

        // Each observation reaches tracer 0 and then tracer 1, unchanged.
        let log = log.borrow();
        assert!(!log.is_empty() && log.len().is_multiple_of(2));
        for pair in log.chunks(2) {
            assert_eq!((pair[0].0, pair[1].0), (0, 1));
            assert_eq!((pair[0].1, &pair[0].2), (pair[1].1, &pair[1].2));
        }
        let seen = |f: fn(&MemObs) -> bool| log.iter().any(|(_, _, ev)| f(ev));
        assert!(seen(|ev| matches!(ev, MemObs::Access { outcome: AccessOutcome::MissNew, .. })));
        assert!(seen(|ev| matches!(ev, MemObs::Fill { .. })));
        assert!(seen(|ev| matches!(ev, MemObs::DirTransition { .. })));
        assert!(seen(|ev| matches!(ev, MemObs::Intervention { .. })));
        assert!(seen(|ev| matches!(ev, MemObs::Invalidation { .. })));
        assert!(seen(|ev| matches!(ev, MemObs::MshrFree { .. })));
    }
}
