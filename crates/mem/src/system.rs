use std::collections::VecDeque;

use slipstream_kernel::config::{DirScheme, Latencies, MachineConfig};
use slipstream_kernel::{Addr, CpuId, Cycle, EventQueue, FxHashMap, LineAddr, NodeId, Server, SharerSet};
use slipstream_prog::{BarrierId, EventId, LockId};

use crate::classify::OpenReq;
use crate::home::HomeMap;
use crate::l1::{L1Cache, L1State};
use crate::l2::{L2Cache, L2Line, L2State, Mshr, Waiter};
use crate::msg::{AccessKind, Completion, MemEvent, Msg, MsgKind, StreamRole, SyncOp, Token};
use crate::stats::MemStats;
use crate::sync::{SyncCtl, SyncOutcome};
use crate::trace::{AccessOutcome, MemObs, MemTracer, TracePerm};

/// Where the memory system schedules its internal events.
///
/// The machine loop implements this on its global event queue; the blanket
/// impl below lets tests use a bare [`EventQueue<MemEvent>`].
pub trait MemSched {
    /// Schedule `ev` to be handed back via [`MemSystem::handle_event`] at
    /// time `at`.
    fn sched(&mut self, at: Cycle, ev: MemEvent);
}

impl MemSched for EventQueue<MemEvent> {
    fn sched(&mut self, at: Cycle, ev: MemEvent) {
        self.push(at, ev);
    }
}

/// Immediate outcome of a processor-side access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// L1 hit: the access completes in the L1 hit time; the processor does
    /// not block on the memory system.
    HitL1,
    /// The access is in flight; the processor blocks until a
    /// [`Completion`] with this token is delivered.
    Pending(Token),
    /// A non-binding prefetch was accepted (or dropped); the processor
    /// continues immediately.
    Accepted,
}

/// Directory permission state for one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Perm {
    #[default]
    Uncached,
    Shared(SharerSet), // bit per node
    Excl(NodeId),
}

/// What an in-flight directory transaction is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// Memory data (reply scheduled via `MemReady`).
    Mem,
    /// The exclusive owner's response to an intervention.
    Owner,
    /// Invalidation acks from sharers.
    Acks,
}

#[derive(Debug)]
struct PendingTxn {
    requester: NodeId,
    excl: bool,
    needs_data: bool,
    acks_left: u32,
    wait: WaitKind,
    owner_gone: bool,
    wb_received: bool,
    si_hint: bool,
}

#[derive(Debug, Default)]
struct DirLine {
    perm: Perm,
    /// Future-sharer bits (§4.2), one per node, set by transparent loads.
    /// Always tracked precisely, in every [`DirScheme`].
    future: SharerSet,
    /// Limited-pointer overflow: the sharer list stopped tracking new
    /// readers once the pointer budget was exhausted, so the next write
    /// must broadcast invalidations. Always `false` under
    /// [`DirScheme::FullMap`].
    ovfl: bool,
    busy: Option<PendingTxn>,
    waiters: VecDeque<Msg>,
    /// Consecutive exclusive-ownership hand-offs between distinct nodes
    /// (saturating); two or more marks the line migratory.
    handoffs: u8,
    /// The last node that held the line exclusively.
    last_excl: Option<NodeId>,
}

impl DirLine {
    /// Records an exclusive grant to `to`, updating migratory detection.
    fn note_excl_handoff(&mut self, to: NodeId) {
        match self.last_excl {
            Some(prev) if prev != to => self.handoffs = self.handoffs.saturating_add(1),
            Some(_) => {}
            None => {}
        }
        self.last_excl = Some(to);
    }

    /// Whether the line follows a migratory (read-modify-write hand-off)
    /// pattern.
    fn migratory(&self) -> bool {
        self.handoffs >= 2
    }
}

#[derive(Debug)]
struct NodeState {
    l1: [L1Cache; 2],
    l2: L2Cache,
    dc: Server,
    port_in: Server,
    port_out: Server,
    /// The node's memory bank: `MemTime` is both its access latency and
    /// its occupancy, so each node sustains at most one line transfer per
    /// `MemTime` cycles ("contention is modeled ... at the memory
    /// controller", Table 1).
    mem_bank: Server,
    /// Earliest time the next self-invalidation step may run (rate limit).
    si_next: Cycle,
}

/// The complete memory system of the simulated machine: all caches,
/// directories, network ports, and synchronization controllers.
///
/// Driven by three entry points — [`MemSystem::access`],
/// [`MemSystem::sync`], and [`MemSystem::handle_event`] — and a clock-less
/// design: every method takes the current simulated time, and internal
/// progress is made through [`MemEvent`]s scheduled on the caller's queue.
#[derive(Debug)]
pub struct MemSystem {
    /// Latency table, copied out of the [`MachineConfig`] (it is `Copy`);
    /// the full config is not retained.
    lat: Latencies,
    migratory_opt: bool,
    /// Directory sharer-tracking scheme ([`MachineConfig::dir_scheme`]).
    scheme: DirScheme,
    n_nodes: u16,
    home: HomeMap,
    line_bytes: u64,
    nodes: Vec<NodeState>,
    dir: FxHashMap<LineAddr, DirLine>,
    sync: SyncCtl,
    stats: MemStats,
    next_token: u64,
    si_interval: u64,
    /// Observability hooks ([`MemTracer`]), in installation order; empty on
    /// the default path, so tracing costs one branch per observation site
    /// when disabled.
    tracers: Vec<Box<dyn MemTracer>>,
}

/// Adds `from` to a shared line's sharer set under the configured
/// directory scheme. A full-map directory always records the sharer; a
/// limited-pointer directory stops recording once the pointer budget is
/// exhausted and marks the line overflowed instead, so the next write
/// broadcasts invalidations.
fn track_sharer(scheme: DirScheme, s: &mut SharerSet, ovfl: &mut bool, from: NodeId) {
    match scheme {
        DirScheme::FullMap => s.insert(from),
        DirScheme::LimitedPointer { ptrs } => {
            if *ovfl {
                return;
            }
            if s.contains(from) || s.count() < u32::from(ptrs) {
                s.insert(from);
            } else {
                *ovfl = true;
            }
        }
    }
}

impl MemSystem {
    /// Creates the memory system for `cfg.nodes` CMP nodes with the given
    /// address-to-home map; `participants` is the number of tasks arriving
    /// at every barrier.
    ///
    /// # Panics
    ///
    /// Panics if the home map disagrees with the machine's node count.
    pub fn new(cfg: &MachineConfig, home: HomeMap, participants: u32) -> MemSystem {
        assert_eq!(home.nodes(), cfg.nodes, "home map and machine disagree on node count");
        let line_bytes = cfg.line_bytes();
        let nodes = (0..cfg.nodes)
            .map(|_| NodeState {
                l1: [L1Cache::new(cfg.l1), L1Cache::new(cfg.l1)],
                l2: L2Cache::new(cfg.l2),
                dc: Server::new(),
                port_in: Server::new(),
                port_out: Server::new(),
                mem_bank: Server::new(),
                si_next: Cycle::ZERO,
            })
            .collect();
        MemSystem {
            lat: cfg.lat,
            migratory_opt: cfg.migratory_opt,
            scheme: cfg.dir_scheme,
            n_nodes: cfg.nodes,
            home,
            line_bytes,
            nodes,
            dir: FxHashMap::default(),
            sync: SyncCtl::new(participants),
            stats: MemStats::default(),
            next_token: 0,
            si_interval: 4,
            tracers: Vec::new(),
        }
    }

    /// Installs an observability hook after any already installed; each
    /// observation reaches the tracers in installation order. Tracers are
    /// purely observational — see [`MemTracer`] — so installing one never
    /// changes simulated behavior.
    pub fn add_tracer(&mut self, tracer: Box<dyn MemTracer>) {
        self.tracers.push(tracer);
    }

    /// Removes and returns the installed tracers, in installation order.
    pub fn take_tracers(&mut self) -> Vec<Box<dyn MemTracer>> {
        std::mem::take(&mut self.tracers)
    }

    /// Hands `ev` to every installed tracer. Untraced, this is one
    /// `is_empty` branch: the observation is never built. Always inlined,
    /// so no call site pays a call for the check.
    #[inline(always)]
    fn emit(&mut self, now: Cycle, ev: MemObs) {
        if self.tracers.is_empty() {
            return;
        }
        for t in &mut self.tracers {
            t.on(now, &ev);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Takes ownership of the accumulated statistics, leaving zeroed
    /// counters behind. Used at end of run so the report does not clone
    /// the (non-trivial) stats block.
    pub fn take_stats(&mut self) -> MemStats {
        std::mem::take(&mut self.stats)
    }

    /// Sets the self-invalidation drain rate (one line per `interval`
    /// cycles; the paper uses 4).
    pub fn set_si_interval(&mut self, interval: u64) {
        assert!(interval > 0);
        self.si_interval = interval;
    }

    /// Number of lines flagged but not yet processed for self-invalidation
    /// at `node`.
    pub fn si_backlog(&self, node: NodeId) -> usize {
        self.nodes[node.idx()].l2.si_queue.len()
    }

    fn token(&mut self) -> Token {
        self.next_token += 1;
        Token(self.next_token)
    }

    // ------------------------------------------------------------------
    // Processor-side API
    // ------------------------------------------------------------------

    /// Issues a data access from `cpu` at time `now`.
    ///
    /// `shared` marks coherent application data (vs. task-private data);
    /// `in_cs` marks accesses made while holding a lock (drives the SI
    /// migratory-vs-producer-consumer policy).
    ///
    /// # Panics
    ///
    /// Panics if an A-stream issues a `Write` to shared data — the
    /// slipstream runtime must squash those (§3.1) — or if a prefetch or
    /// transparent load is issued by a non-A stream.
    #[allow(clippy::too_many_arguments)] // mirrors the processor-side request fields
    pub fn access(
        &mut self,
        now: Cycle,
        cpu: CpuId,
        role: StreamRole,
        kind: AccessKind,
        addr: Addr,
        shared: bool,
        in_cs: bool,
        sched: &mut impl MemSched,
    ) -> Access {
        let line = addr.line(self.line_bytes);
        match kind {
            AccessKind::Read => self.access_read(now, cpu, role, false, line, shared, sched),
            AccessKind::TransparentRead => {
                assert!(role.is_a(), "transparent loads come from A-streams only");
                self.access_read(now, cpu, role, true, line, shared, sched)
            }
            AccessKind::Write => {
                assert!(
                    !(role.is_a() && shared),
                    "A-stream stores to shared memory must be squashed by the runtime"
                );
                self.access_write(now, cpu, role, line, shared, in_cs, sched)
            }
            AccessKind::ExclPrefetch => {
                assert!(role.is_a() && shared, "exclusive prefetches come from A-streams only");
                self.access_excl_prefetch(now, cpu, line, sched)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn access_read(
        &mut self,
        now: Cycle,
        cpu: CpuId,
        role: StreamRole,
        trans: bool,
        line: LineAddr,
        shared: bool,
        sched: &mut impl MemSched,
    ) -> Access {
        let n = cpu.node().idx();
        let core = cpu.core() as usize;
        let kind = if trans { AccessKind::TransparentRead } else { AccessKind::Read };
        if self.nodes[n].l1[core].lookup(line).is_some() {
            self.stats.l1_hits += 1;
            self.emit(now, MemObs::Access { cpu, role, kind, line, outcome: AccessOutcome::L1Hit });
            return Access::HitL1;
        }
        // L2 lookup.
        let mut l2_hit = false;
        {
            let node = &mut self.nodes[n];
            if let Some(entry) = node.l2.touch(line) {
                if !entry.transparent || role.is_a() {
                    l2_hit = true;
                    // Reading the latest data: a sibling L1's dirty copy is
                    // folded into the L2.
                    if let Some(d) = entry.l1_dirty.take() {
                        if d as usize != core {
                            node.l1[d as usize].downgrade(line);
                        }
                    }
                    classify_touch(entry, role);
                    entry.l1_mask |= 1 << core;
                }
            }
        }
        if l2_hit {
            self.stats.l2_hits += 1;
            self.emit(now, MemObs::Access { cpu, role, kind, line, outcome: AccessOutcome::L2Hit });
            self.fill_l1(cpu, line, L1State::Shared);
            let token = self.token();
            sched.sched(now + self.lat.l2_hit, MemEvent::L2Done { cpu, token });
            return Access::Pending(token);
        }
        // Miss: merge into or create an MSHR.
        self.stats.l2_misses += 1;
        let token = self.token();
        let waiter = Waiter { cpu, token };
        let node_id = cpu.node();
        let mut launch: Option<MsgKind> = None;
        let mut merged = false;
        {
            let mshrs = &mut self.nodes[n].l2.mshrs;
            if let Some(mshr) = mshrs.get_mut(&line) {
                self.stats.merged_misses += 1;
                merged = true;
                merge_classify(&mut self.stats, mshr, role);
                if role.is_a() {
                    // Any fill (transparent or coherent) satisfies an A read.
                    mshr.a_waiters.push(waiter);
                } else {
                    mshr.waiters.push(waiter);
                    if !mshr.norm_pending && !mshr.excl_pending {
                        // Only a transparent request is in flight; an R read
                        // needs a coherent copy, so launch a normal read.
                        mshr.norm_pending = true;
                        if shared && mshr.open_read.is_none() {
                            mshr.open_read = Some(OpenReq::new(role));
                        }
                        self.stats.read_txns += 1;
                        launch = Some(MsgKind::ReadReq { line, from: node_id, role });
                    }
                }
            } else {
                let mut mshr = Mshr::new();
                if role.is_a() {
                    mshr.a_waiters.push(waiter);
                } else {
                    mshr.waiters.push(waiter);
                }
                self.stats.read_txns += 1;
                if role.is_a() {
                    self.stats.a_read_txns += 1;
                }
                let kind = if trans {
                    mshr.trans_pending = true;
                    self.stats.transparent_issued += 1;
                    MsgKind::TransReadReq { line, from: node_id }
                } else {
                    mshr.norm_pending = true;
                    MsgKind::ReadReq { line, from: node_id, role }
                };
                if shared {
                    mshr.open_read = Some(OpenReq::new(role));
                }
                mshrs.insert(line, mshr);
                launch = Some(kind);
            }
        }
        let outcome = if merged { AccessOutcome::MissMerged } else { AccessOutcome::MissNew };
        self.emit(now, MemObs::Access { cpu, role, kind, line, outcome });
        if !merged {
            self.emit(now, MemObs::MshrAlloc { node: node_id, line });
        }
        if let Some(kind) = launch {
            self.issue_txn(now, node_id, line, kind, sched);
        }
        Access::Pending(token)
    }

    #[allow(clippy::too_many_arguments)]
    fn access_write(
        &mut self,
        now: Cycle,
        cpu: CpuId,
        role: StreamRole,
        line: LineAddr,
        shared: bool,
        in_cs: bool,
        sched: &mut impl MemSched,
    ) -> Access {
        let n = cpu.node().idx();
        let core = cpu.core() as usize;
        if self.nodes[n].l1[core].lookup(line) == Some(L1State::Modified) {
            self.stats.l1_hits += 1;
            let (kind, outcome) = (AccessKind::Write, AccessOutcome::L1Hit);
            self.emit(now, MemObs::Access { cpu, role, kind, line, outcome });
            return Access::HitL1;
        }
        let node_id = cpu.node();
        let token = self.token();
        let waiter = Waiter { cpu, token };
        // Resident and writable within the node?
        let mut grant = false;
        {
            let node = &mut self.nodes[n];
            if let Some(entry) = node.l2.touch(line) {
                if entry.state == L2State::Exclusive && !entry.transparent {
                    grant = true;
                    // Write-invalidate within the CMP: drop the sibling's
                    // L1 copy.
                    let sib = core ^ 1;
                    if entry.l1_mask & (1 << sib) != 0 {
                        node.l1[sib].invalidate(entry.line);
                        entry.l1_mask &= !(1 << sib);
                    }
                    entry.l1_mask |= 1 << core;
                    entry.l1_dirty = Some(core as u8);
                    entry.dirty = true;
                    if shared && in_cs {
                        entry.wrote_in_cs = true;
                    }
                    classify_touch(entry, role);
                }
            }
        }
        if grant {
            self.stats.l2_hits += 1;
            let (kind, outcome) = (AccessKind::Write, AccessOutcome::L2Hit);
            self.emit(now, MemObs::Access { cpu, role, kind, line, outcome });
            self.fill_l1(cpu, line, L1State::Modified);
            sched.sched(now + self.lat.l2_hit, MemEvent::L2Done { cpu, token });
            return Access::Pending(token);
        }
        self.stats.l2_misses += 1;
        let mut launch: Option<MsgKind> = None;
        let mut merged = false;
        {
            let l2 = &mut self.nodes[n].l2;
            if let Some(mshr) = l2.mshrs.get_mut(&line) {
                self.stats.merged_misses += 1;
                merged = true;
                merge_classify(&mut self.stats, mshr, role);
                mshr.store_waiters.push(waiter);
                mshr.store_in_cs |= in_cs;
                if !mshr.excl_pending && !mshr.norm_pending {
                    // Transparent-only in flight: launch the exclusive fetch.
                    mshr.excl_pending = true;
                    mshr.excl_is_prefetch = false;
                    if shared && mshr.open_excl.is_none() {
                        mshr.open_excl = Some(OpenReq::new(role));
                    }
                    self.stats.excl_txns += 1;
                    launch =
                        Some(MsgKind::ReadExclReq { line, from: node_id, role, had_shared: false });
                } else if mshr.excl_pending {
                    // A real store binds an in-flight prefetch.
                    mshr.excl_is_prefetch = false;
                }
                // A pending normal read will trigger the upgrade at fill
                // time (the fill handler sees the queued store).
            } else {
                // Upgrade if we hold a coherent shared copy, else full
                // read-exclusive.
                let had_shared = l2.get(line).map(|e| !e.transparent).unwrap_or(false);
                let mut mshr = Mshr::new();
                mshr.excl_pending = true;
                mshr.store_waiters.push(waiter);
                mshr.store_in_cs = in_cs;
                if shared {
                    mshr.open_excl = Some(OpenReq::new(role));
                }
                l2.mshrs.insert(line, mshr);
                self.stats.excl_txns += 1;
                launch = Some(MsgKind::ReadExclReq { line, from: node_id, role, had_shared });
            }
        }
        let outcome = if merged { AccessOutcome::MissMerged } else { AccessOutcome::MissNew };
        self.emit(now, MemObs::Access { cpu, role, kind: AccessKind::Write, line, outcome });
        if !merged {
            self.emit(now, MemObs::MshrAlloc { node: node_id, line });
        }
        if let Some(kind) = launch {
            self.issue_txn(now, node_id, line, kind, sched);
        }
        Access::Pending(token)
    }

    fn access_excl_prefetch(
        &mut self,
        now: Cycle,
        cpu: CpuId,
        line: LineAddr,
        sched: &mut impl MemSched,
    ) -> Access {
        let n = cpu.node().idx();
        let node_id = cpu.node();
        // `Some(had_shared)` if the prefetch should be issued; `None` if it
        // is dropped (a request already in flight, or the line is owned).
        let issue: Option<bool> = {
            let l2 = &mut self.nodes[n].l2;
            if l2.mshrs.contains_key(&line) {
                None // something already in flight
            } else {
                let had_shared = match l2.get(line) {
                    Some(e) if e.state == L2State::Exclusive && !e.transparent => None, // owned
                    Some(e) => Some(!e.transparent),
                    None => Some(false),
                };
                if had_shared.is_some() {
                    let mut mshr = Mshr::new();
                    mshr.excl_pending = true;
                    mshr.excl_is_prefetch = true;
                    mshr.open_excl = Some(OpenReq::new(StreamRole::A));
                    l2.mshrs.insert(line, mshr);
                }
                had_shared
            }
        };
        let (role, kind) = (StreamRole::A, AccessKind::ExclPrefetch);
        let Some(had_shared) = issue else {
            let outcome = AccessOutcome::PrefetchDropped;
            self.emit(now, MemObs::Access { cpu, role, kind, line, outcome });
            return Access::Accepted;
        };
        self.stats.excl_txns += 1;
        self.stats.excl_prefetches += 1;
        let outcome = AccessOutcome::PrefetchIssued;
        self.emit(now, MemObs::Access { cpu, role, kind, line, outcome });
        self.emit(now, MemObs::MshrAlloc { node: node_id, line });
        self.issue_txn(
            now,
            node_id,
            line,
            MsgKind::ReadExclReq { line, from: node_id, role: StreamRole::A, had_shared },
            sched,
        );
        Access::Accepted
    }

    /// Issues a synchronization operation. The returned token identifies
    /// the eventual completion for blocking ops (`op.blocks()`);
    /// fire-and-forget ops never complete but still generate traffic.
    pub fn sync(&mut self, now: Cycle, cpu: CpuId, op: SyncOp, sched: &mut impl MemSched) -> Token {
        let token = self.token();
        let home = self.sync_home(op);
        let msg = Msg { src: cpu.node(), dst: home, kind: MsgKind::SyncReq { op, cpu, token } };
        sched.sched(now + self.lat.bus, MemEvent::AtLocalDc(msg));
        token
    }

    fn sync_home(&self, op: SyncOp) -> NodeId {
        let x = match op {
            SyncOp::BarrierArrive(BarrierId(i)) => i as u64,
            SyncOp::LockAcquire(LockId(i)) | SyncOp::LockRelease(LockId(i)) => {
                0x1000_0000 + i as u64
            }
            SyncOp::EventPost(EventId(i)) | SyncOp::EventWait(EventId(i), _) => {
                0x2000_0000 + i as u64
            }
        };
        NodeId(((x.wrapping_mul(2654435761) >> 16) % self.n_nodes as u64) as u16)
    }

    /// Starts draining `node`'s self-invalidation queue — the paper
    /// processes flagged lines when the R-stream reaches a synchronization
    /// point, at a peak rate of one line per `si_interval` cycles,
    /// overlapped with the synchronization itself.
    pub fn kick_si(&mut self, now: Cycle, node: NodeId, sched: &mut impl MemSched) {
        let n = node.idx();
        let st = &mut self.nodes[n];
        if st.l2.si_active || st.l2.si_queue.is_empty() {
            return;
        }
        st.l2.si_active = true;
        let at = now.max(st.si_next);
        sched.sched(at, MemEvent::SiStep(node));
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Advances the memory system for one internal event, pushing any
    /// processor completions into `out`.
    pub fn handle_event(
        &mut self,
        now: Cycle,
        ev: MemEvent,
        sched: &mut impl MemSched,
        out: &mut Vec<Completion>,
    ) {
        match ev {
            MemEvent::L2Done { cpu, token } => out.push(Completion { cpu, token }),
            MemEvent::AtLocalDc(msg) => {
                let n = msg.src.idx();
                if msg.src == msg.dst {
                    let occ = Cycle(self.local_dc_occ(&msg.kind));
                    let done = self.nodes[n].dc.serve(now, occ);
                    sched.sched(done, MemEvent::Handle(msg));
                } else {
                    let occ = Cycle(self.lat.pi_remote_dc);
                    let done = self.nodes[n].dc.serve(now, occ);
                    sched.sched(done, MemEvent::NetOut(msg));
                }
            }
            MemEvent::NetOut(msg) => {
                self.stats.net_messages += 1;
                let n = msg.src.idx();
                let start = self.nodes[n].port_out.serve_start(now, Cycle(self.lat.net_port));
                sched.sched(start + self.lat.net, MemEvent::NetIn(msg));
            }
            MemEvent::NetIn(msg) => {
                let n = msg.dst.idx();
                let start = self.nodes[n].port_in.serve_start(now, Cycle(self.lat.net_port));
                sched.sched(start, MemEvent::AtDestDc(msg));
            }
            MemEvent::AtDestDc(msg) => {
                let n = msg.dst.idx();
                let occ = Cycle(self.dest_dc_occ(&msg.kind));
                let done = self.nodes[n].dc.serve(now, occ);
                sched.sched(done, MemEvent::Handle(msg));
            }
            MemEvent::Handle(msg) => self.handle_msg(now, msg, sched),
            MemEvent::MemReady(msg) => self.mem_ready(now, msg, sched),
            MemEvent::AtL2(msg) => self.at_l2(now, msg, sched, out),
            MemEvent::SiStep(node) => self.si_step(now, node, sched),
        }
    }

    fn local_dc_occ(&self, kind: &MsgKind) -> u64 {
        match kind {
            MsgKind::ReadReq { .. }
            | MsgKind::ReadExclReq { .. }
            | MsgKind::TransReadReq { .. } => self.lat.pi_local_dc,
            MsgKind::SyncReq { .. } => self.lat.sync_ctrl,
            _ => self.lat.ni_remote_dc,
        }
    }

    fn dest_dc_occ(&self, kind: &MsgKind) -> u64 {
        match kind {
            MsgKind::ReadReq { .. }
            | MsgKind::ReadExclReq { .. }
            | MsgKind::TransReadReq { .. } => self.lat.ni_local_dc,
            MsgKind::SyncReq { .. } => self.lat.sync_ctrl,
            _ => self.lat.ni_remote_dc,
        }
    }

    /// Serves one memory-bank read at `home`, returning the time the
    /// data is available: the bank's pipelined latency (`MemTime`) past
    /// the service start, where the start queues behind earlier transfers
    /// (the bank is occupied `mem_bank_occ` cycles per line).
    fn mem_access(&mut self, home: NodeId, now: Cycle) -> Cycle {
        let occ = Cycle(self.lat.mem_bank_occ);
        let n = home.idx();
        let start = self.nodes[n].mem_bank.serve_start(now, occ);
        start + self.lat.mem
    }

    /// Serves one memory-bank *write* (writeback or SI downgrade) at
    /// `home`. Writes are buffered at the controller, so they occupy the
    /// bank only for the transfer time (`MemTime`), not the full read
    /// occupancy — nobody waits on them.
    fn mem_write(&mut self, home: NodeId, now: Cycle) {
        let occ = Cycle(self.lat.mem);
        let n = home.idx();
        let _ = self.nodes[n].mem_bank.serve_start(now, occ);
    }

    /// Routes a message originating at `src` (already past that node's DC)
    /// to `dst`'s L2/controller.
    fn route(&mut self, now: Cycle, msg: Msg, sched: &mut impl MemSched) {
        if msg.src == msg.dst {
            sched.sched(now + self.lat.bus, MemEvent::AtL2(msg));
        } else {
            sched.sched(now, MemEvent::NetOut(msg));
        }
    }

    /// Sends a message from a node's L2 through the full path (bus, DCs,
    /// network) to `dst`.
    fn send_from_l2(&mut self, now: Cycle, msg: Msg, sched: &mut impl MemSched) {
        sched.sched(now + self.lat.bus, MemEvent::AtLocalDc(msg));
    }

    /// Issues a new directory transaction from `src`'s L2.
    fn issue_txn(
        &mut self,
        now: Cycle,
        src: NodeId,
        line: LineAddr,
        kind: MsgKind,
        sched: &mut impl MemSched,
    ) {
        let home = self.home.home_of_line(line, self.line_bytes);
        if home == src {
            self.stats.local_txns += 1;
        } else {
            self.stats.remote_txns += 1;
        }
        self.send_from_l2(now, Msg { src, dst: home, kind }, sched);
    }

    // ------------------------------------------------------------------
    // Directory
    // ------------------------------------------------------------------

    fn handle_msg(&mut self, now: Cycle, msg: Msg, sched: &mut impl MemSched) {
        match &msg.kind {
            MsgKind::ReadReq { .. }
            | MsgKind::ReadExclReq { .. }
            | MsgKind::TransReadReq { .. }
            | MsgKind::WritebackDirty { .. }
            | MsgKind::ReplHint { .. }
            | MsgKind::DowngradeWb { .. }
            | MsgKind::WbShared { .. }
            | MsgKind::TransferAck { .. }
            | MsgKind::InvAck { .. }
            | MsgKind::FwdNack { .. } => self.handle_dir(now, msg, sched),
            MsgKind::SyncReq { op, cpu, token } => {
                let (op, cpu, token) = (*op, *cpu, *token);
                let home = msg.dst;
                match self.sync.handle(op, cpu, token) {
                    SyncOutcome::Queued => {
                        self.emit(now, MemObs::Sync { cpu, op, granted: 0 });
                    }
                    SyncOutcome::Grant(grants) => {
                        self.emit(now, MemObs::Sync { cpu, op, granted: grants.len() as u32 });
                        for (gcpu, gtoken) in grants {
                            let gm = Msg {
                                src: home,
                                dst: gcpu.node(),
                                kind: MsgKind::SyncGrant { cpu: gcpu, token: gtoken },
                            };
                            self.route(now, gm, sched);
                        }
                    }
                }
            }
            // Everything else is cache-side: cross the bus into the L2.
            _ => sched.sched(now + self.lat.bus, MemEvent::AtL2(msg)),
        }
    }

    fn handle_dir(&mut self, now: Cycle, msg: Msg, sched: &mut impl MemSched) {
        let line = msg.kind.line().expect("directory messages carry a line");
        debug_assert_eq!(
            msg.dst,
            self.home.home_of_line(line, self.line_bytes),
            "directory message routed to a non-home node"
        );
        let home = msg.dst;
        let mut dl = self.dir.remove(&line).unwrap_or_default();
        let is_request = matches!(
            msg.kind,
            MsgKind::ReadReq { .. } | MsgKind::ReadExclReq { .. } | MsgKind::TransReadReq { .. }
        );
        if dl.busy.is_some() && is_request {
            dl.waiters.push_back(msg);
            self.dir.insert(line, dl);
            return;
        }
        let mut retry = false;
        // Snapshot the pre-transition state only when someone is watching:
        // the clone is potentially allocating (spilled sharer sets), so the
        // default path must not pay for it.
        let before = (!self.tracers.is_empty()).then(|| (dl.perm.clone(), dl.ovfl));
        // Dissolve the message so the kind can be matched by move (no
        // per-message clone on the directory hot path); src/dst stay
        // available for the one arm that re-queues the message.
        let Msg { src: msg_src, dst: msg_dst, kind } = msg;
        match kind {
            MsgKind::ReadReq { from, role, .. } => {
                if !role.is_a() {
                    dl.future.remove(from);
                }
                match &mut dl.perm {
                    Perm::Uncached => {
                        // MSI: reads are granted shared (the paper's
                        // "invalidate-based fully-mapped directory").
                        dl.perm = Perm::Shared(SharerSet::single(from));
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, false, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                    Perm::Shared(s) => {
                        track_sharer(self.scheme, s, &mut dl.ovfl, from);
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, false, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                    Perm::Excl(owner) if *owner != from => {
                        let owner = *owner;
                        self.stats.interventions += 1;
                        let migratory_grant =
                            self.migratory_opt && dl.migratory() && !role.is_a();
                        let excl = migratory_grant;
                        self.emit(now, MemObs::Intervention { line, owner, requester: from, excl });
                        if migratory_grant {
                            // Migratory optimization: the reader will write
                            // next, so transfer ownership outright and save
                            // its upgrade.
                            self.stats.migratory_grants += 1;
                            dl.note_excl_handoff(from);
                            dl.busy = Some(PendingTxn {
                                requester: from,
                                excl: true,
                                needs_data: true,
                                acks_left: 0,
                                wait: WaitKind::Owner,
                                owner_gone: false,
                                wb_received: false,
                                si_hint: false,
                            });
                            let fwd = Msg {
                                src: home,
                                dst: owner,
                                kind: MsgKind::FwdExcl { line, owner, requester: from },
                            };
                            self.route(now, fwd, sched);
                        } else {
                            dl.busy = Some(PendingTxn {
                                requester: from,
                                excl: false,
                                needs_data: true,
                                acks_left: 0,
                                wait: WaitKind::Owner,
                                owner_gone: false,
                                wb_received: false,
                                si_hint: false,
                            });
                            let fwd = Msg {
                                src: home,
                                dst: owner,
                                kind: MsgKind::FwdRead { line, owner, requester: from },
                            };
                            self.route(now, fwd, sched);
                        }
                    }
                    Perm::Excl(_) => {
                        // Request from the node the directory believes is
                        // the owner. FIFO channels guarantee an eviction
                        // notice would have arrived before a re-request, so
                        // this is a duplicate (e.g. a normal read racing a
                        // transparent request the directory upgraded to a
                        // MESI grant): re-grant exclusively from memory.
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, true, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                }
            }
            MsgKind::ReadExclReq { from, role, .. } => {
                let si_hint = !role.is_a() && dl.future.any_except(from);
                if !role.is_a() {
                    dl.future.remove(from);
                }
                dl.note_excl_handoff(from);
                match &mut dl.perm {
                    Perm::Uncached => {
                        dl.perm = Perm::Excl(from);
                        dl.busy = Some(PendingTxn { si_hint, ..mem_wait(from, true) });
                        let reply = data_reply(home, from, line, true, si_hint);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                    Perm::Shared(_) => {
                        // Take the sharer set out so the fan-out below can
                        // iterate it while the directory entry mutates.
                        let Perm::Shared(s) = std::mem::replace(&mut dl.perm, Perm::Excl(from))
                        else {
                            unreachable!("matched Shared above")
                        };
                        let bcast = dl.ovfl;
                        dl.ovfl = false;
                        let needs_data = !s.contains(from);
                        let n_targets = if bcast {
                            // Limited-pointer overflow: the precise sharer
                            // list is gone, so invalidate every other node
                            // (they all ack, cached copy or not).
                            u32::from(self.n_nodes) - 1
                        } else {
                            s.count_except(from)
                        };
                        dl.busy = Some(PendingTxn {
                            requester: from,
                            excl: true,
                            needs_data,
                            acks_left: n_targets,
                            wait: if n_targets > 0 { WaitKind::Acks } else { WaitKind::Mem },
                            owner_gone: false,
                            wb_received: false,
                            si_hint,
                        });
                        self.stats.invalidations_sent += n_targets as u64;
                        if bcast {
                            self.stats.broadcast_invalidations += 1;
                            for i in 0..self.n_nodes {
                                let to = NodeId(i);
                                if to == from {
                                    continue;
                                }
                                self.emit(now, MemObs::Invalidation { line, target: to });
                                let inv =
                                    Msg { src: home, dst: to, kind: MsgKind::Inv { line, to } };
                                self.route(now, inv, sched);
                            }
                        } else {
                            for to in s.iter() {
                                if to == from {
                                    continue;
                                }
                                self.emit(now, MemObs::Invalidation { line, target: to });
                                let inv =
                                    Msg { src: home, dst: to, kind: MsgKind::Inv { line, to } };
                                self.route(now, inv, sched);
                            }
                        }
                        if n_targets == 0 {
                            let reply = data_reply(home, from, line, true, si_hint);
                            let at = if needs_data { self.mem_access(home, now) } else { now };
                            sched.sched(at, MemEvent::MemReady(reply));
                        }
                    }
                    Perm::Excl(owner) if *owner != from => {
                        let owner = *owner;
                        self.stats.interventions += 1;
                        let excl = true;
                        self.emit(now, MemObs::Intervention { line, owner, requester: from, excl });
                        dl.busy = Some(PendingTxn {
                            requester: from,
                            excl: true,
                            needs_data: true,
                            acks_left: 0,
                            wait: WaitKind::Owner,
                            owner_gone: false,
                            wb_received: false,
                            si_hint,
                        });
                        let fwd = Msg {
                            src: home,
                            dst: owner,
                            kind: MsgKind::FwdExcl { line, owner, requester: from },
                        };
                        self.route(now, fwd, sched);
                    }
                    Perm::Excl(_) => {
                        // Duplicate request from the believed owner (see
                        // the ReadReq arm): re-grant.
                        dl.busy = Some(PendingTxn { si_hint, ..mem_wait(from, true) });
                        let reply = data_reply(home, from, line, true, si_hint);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                }
            }
            MsgKind::TransReadReq { from, .. } => {
                dl.future.insert(from);
                match &mut dl.perm {
                    Perm::Excl(owner) if *owner != from => {
                        let owner = *owner;
                        // Stale copy straight from memory; advise the owner
                        // (§4.2, left half of Figure 8). The directory is
                        // not blocked and the sharing list is untouched.
                        self.stats.transparent_replies += 1;
                        self.stats.si_hints += 1;
                        self.emit(now, MemObs::TransparentReply { line, from });
                        self.emit(now, MemObs::SiHint { line, owner });
                        let reply =
                            Msg { src: home, dst: from, kind: MsgKind::TransReply { line, to: from } };
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                        let hint =
                            Msg { src: home, dst: owner, kind: MsgKind::SiHint { line, owner } };
                        self.route(now, hint, sched);
                    }
                    Perm::Excl(_) => {
                        // Transparent request from the believed owner:
                        // upgrade to a normal exclusive re-grant.
                        self.stats.upgraded_replies += 1;
                        self.emit(now, MemObs::TransparentUpgrade { line, from });
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, true, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                    Perm::Uncached => {
                        // Upgraded to a normal (shared) load (§4.1).
                        self.stats.upgraded_replies += 1;
                        self.emit(now, MemObs::TransparentUpgrade { line, from });
                        dl.perm = Perm::Shared(SharerSet::single(from));
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, false, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                    Perm::Shared(s) => {
                        self.stats.upgraded_replies += 1;
                        self.emit(now, MemObs::TransparentUpgrade { line, from });
                        track_sharer(self.scheme, s, &mut dl.ovfl, from);
                        dl.busy = Some(mem_wait(from, false));
                        let reply = data_reply(home, from, line, false, false);
                        let done = self.mem_access(home, now);
                        sched.sched(done, MemEvent::MemReady(reply));
                    }
                }
            }
            MsgKind::WritebackDirty { from, .. } => {
                self.stats.writebacks += 1;
                self.emit(now, MemObs::Writeback { line, from });
                // The line's data is written to memory (consumes bank
                // bandwidth even though nobody waits on it).
                self.mem_write(home, now);
                dl.future.remove(from);
                if let Some(p) = dl.busy.as_mut() {
                    p.wb_received = true;
                    if p.owner_gone {
                        {
                            let mem_done = self.mem_access(home, now);
                            complete_from_memory(&mut dl, home, line, mem_done, sched);
                        }
                    }
                    // else: the intervention outcome resolves the txn.
                } else if dl.perm == Perm::Excl(from) {
                    dl.perm = Perm::Uncached;
                    retry = true;
                }
                // Otherwise: stale writeback after ownership transfer; drop.
            }
            MsgKind::DowngradeWb { from, .. } => {
                if dl.busy.is_some() {
                    // Let the in-flight transaction resolve first.
                    dl.waiters.push_back(Msg {
                        src: msg_src,
                        dst: msg_dst,
                        kind: MsgKind::DowngradeWb { line, from },
                    });
                } else if dl.perm == Perm::Excl(from) {
                    self.mem_write(home, now);
                    dl.perm = Perm::Shared(SharerSet::single(from));
                    retry = true;
                }
            }
            MsgKind::ReplHint { from, .. } => {
                dl.future.remove(from);
                match &mut dl.perm {
                    Perm::Shared(s) => {
                        // Under limited-pointer overflow the sharer list is
                        // no longer precise, so evictions cannot shrink it
                        // (an untracked sharer might remain); the line stays
                        // overflowed until the next write broadcasts.
                        if !dl.ovfl {
                            s.remove(from);
                            if s.is_empty() {
                                dl.perm = Perm::Uncached;
                            }
                        }
                        retry = dl.busy.is_none();
                    }
                    Perm::Excl(o) if *o == from && dl.busy.is_none() => {
                        // Clean exclusive eviction. An owner that never
                        // wrote also disproves a migratory prediction.
                        dl.perm = Perm::Uncached;
                        dl.handoffs = 0;
                        retry = true;
                    }
                    Perm::Excl(o) if *o == from => {
                        // Clean exclusive eviction racing an intervention:
                        // memory is current (the copy was clean), so this
                        // resolves the stalled transaction like a writeback.
                        let p = dl.busy.as_mut().expect("checked busy above");
                        p.wb_received = true;
                        if p.owner_gone {
                            {
                            let mem_done = self.mem_access(home, now);
                            complete_from_memory(&mut dl, home, line, mem_done, sched);
                        }
                        }
                    }
                    _ => {}
                }
            }
            MsgKind::WbShared { from, requester, .. } => {
                let p = dl.busy.take().expect("WbShared without pending transaction");
                debug_assert!(!p.excl && p.wait == WaitKind::Owner);
                debug_assert_eq!(p.requester, requester);
                dl.perm = Perm::Shared(SharerSet::pair(from, requester));
                retry = true;
            }
            MsgKind::TransferAck { new_owner, .. } => {
                let p = dl.busy.take().expect("TransferAck without pending transaction");
                debug_assert!(p.excl && p.wait == WaitKind::Owner);
                debug_assert_eq!(p.requester, new_owner);
                dl.perm = Perm::Excl(new_owner);
                retry = true;
            }
            MsgKind::InvAck { .. } => {
                let p = dl.busy.as_mut().expect("InvAck without pending transaction");
                debug_assert!(p.wait == WaitKind::Acks && p.acks_left > 0);
                p.acks_left -= 1;
                if p.acks_left == 0 {
                    p.wait = WaitKind::Mem;
                    let needs_data = p.needs_data;
                    let reply = data_reply(home, p.requester, line, true, p.si_hint);
                    let at = if needs_data { self.mem_access(home, now) } else { now };
                    sched.sched(at, MemEvent::MemReady(reply));
                }
            }
            MsgKind::FwdNack { .. } => {
                self.stats.intervention_nacks += 1;
                let p = dl.busy.as_mut().expect("FwdNack without pending transaction");
                debug_assert!(p.wait == WaitKind::Owner);
                p.owner_gone = true;
                if p.wb_received {
                    {
                            let mem_done = self.mem_access(home, now);
                            complete_from_memory(&mut dl, home, line, mem_done, sched);
                        }
                }
            }
            other => unreachable!("non-directory message {other:?} in handle_dir"),
        }
        if let Some((perm_before, ovfl_before)) = before {
            if dl.perm != perm_before || dl.ovfl != ovfl_before {
                let from = trace_perm(&perm_before, ovfl_before);
                let to = trace_perm(&dl.perm, dl.ovfl);
                self.emit(now, MemObs::DirTransition { line, from, to, requester: msg_src });
            }
        }
        self.dir.insert(line, dl);
        if retry {
            self.retry_waiters(now, line, sched);
        }
    }

    /// Memory data ready at the home node: route the prepared reply, clear
    /// the memory-wait transaction, and retry deferred requests.
    fn mem_ready(&mut self, now: Cycle, msg: Msg, sched: &mut impl MemSched) {
        let line = msg.kind.line().expect("MemReady carries a line");
        let is_data_reply = matches!(msg.kind, MsgKind::DataReply { .. });
        self.route(now, msg, sched);
        if is_data_reply {
            let mut retry = false;
            if let Some(dl) = self.dir.get_mut(&line) {
                if matches!(dl.busy, Some(PendingTxn { wait: WaitKind::Mem, .. })) {
                    dl.busy = None;
                    retry = true;
                }
            }
            if retry {
                self.retry_waiters(now, line, sched);
            }
        }
    }

    /// Re-dispatches deferred requests for `line` until one re-busies it.
    fn retry_waiters(&mut self, now: Cycle, line: LineAddr, sched: &mut impl MemSched) {
        loop {
            let next = {
                let dl = match self.dir.get_mut(&line) {
                    Some(dl) => dl,
                    None => return,
                };
                if dl.busy.is_some() {
                    return;
                }
                match dl.waiters.pop_front() {
                    Some(m) => m,
                    None => return,
                }
            };
            self.handle_dir(now, next, sched);
        }
    }

    // ------------------------------------------------------------------
    // L2-side message handling
    // ------------------------------------------------------------------

    fn at_l2(
        &mut self,
        now: Cycle,
        msg: Msg,
        sched: &mut impl MemSched,
        out: &mut Vec<Completion>,
    ) {
        let node = msg.dst;
        match msg.kind {
            MsgKind::DataReply { line, excl, si_hint, .. } => {
                self.fill_coherent(now, node, line, excl, si_hint, sched, out);
            }
            MsgKind::FwdData { line, excl, .. } => {
                self.fill_coherent(now, node, line, excl, false, sched, out);
            }
            MsgKind::TransReply { line, .. } => {
                self.fill_transparent(now, node, line, sched, out);
            }
            MsgKind::FwdRead { line, requester, .. } => {
                self.owner_fwd_read(now, node, line, requester, sched);
            }
            MsgKind::FwdExcl { line, requester, .. } => {
                self.owner_fwd_excl(now, node, line, requester, sched);
            }
            MsgKind::Inv { line, .. } => {
                self.invalidate_line(now, node, line);
                let home = self.home.home_of_line(line, self.line_bytes);
                let ack = Msg { src: node, dst: home, kind: MsgKind::InvAck { line, from: node } };
                self.send_from_l2(now, ack, sched);
            }
            MsgKind::SiHint { line, .. } => {
                let n = node.idx();
                let st = &mut self.nodes[n];
                if st.l2.get(line).map(|e| e.state == L2State::Exclusive).unwrap_or(false) {
                    st.l2.flag_si(line);
                }
            }
            MsgKind::SyncGrant { cpu, token } => out.push(Completion { cpu, token }),
            other => unreachable!("unexpected message at L2: {other:?}"),
        }
    }

    fn fill_l1(&mut self, cpu: CpuId, line: LineAddr, state: L1State) {
        let n = cpu.node().idx();
        let core = cpu.core() as usize;
        let victim = self.nodes[n].l1[core].insert(line, state);
        if let Some(v) = victim {
            if let Some(entry) = self.nodes[n].l2.get_mut(v.line) {
                entry.l1_mask &= !(1 << core);
                if v.dirty {
                    entry.dirty = true;
                    if entry.l1_dirty == Some(cpu.core()) {
                        entry.l1_dirty = None;
                    }
                }
            }
        }
    }

    /// A coherent fill (from memory or a forwarding owner) lands in the L2.
    #[allow(clippy::too_many_arguments)]
    fn fill_coherent(
        &mut self,
        now: Cycle,
        node: NodeId,
        line: LineAddr,
        excl: bool,
        si_hint: bool,
        sched: &mut impl MemSched,
        out: &mut Vec<Completion>,
    ) {
        let n = node.idx();
        let mut mshr = match self.nodes[n].l2.mshrs.remove(&line) {
            Some(m) => m,
            None => return, // stale reply; drop
        };
        self.emit(now, MemObs::Fill { node, line, excl, transparent: false });
        // A coherent fill supersedes everything outstanding for the line,
        // including a transparent request the directory upgraded (its
        // duplicate reply, if any, is dropped against the missing MSHR).
        mshr.norm_pending = false;
        mshr.trans_pending = false;
        if excl {
            mshr.excl_pending = false;
        }
        let shared_data = mshr.open_read.is_some()
            || mshr.open_excl.is_some()
            || self.nodes[n].l2.get(line).map(|e| e.shared_data).unwrap_or(false);

        // Update or insert the line.
        let state = if excl { L2State::Exclusive } else { L2State::Shared };
        let mut victim = None;
        {
            let l2 = &mut self.nodes[n].l2;
            if let Some(entry) = l2.get_mut(line) {
                // Upgrade fill, or a coherent fill over a transparent copy.
                entry.state = state;
                entry.transparent = false;
                entry.shared_data |= shared_data;
                if let Some(op) = mshr.open_read.take() {
                    if let Some(old) = entry.open_read.replace(op) {
                        self.stats.class.close(true, old);
                    }
                }
                if excl {
                    if let Some(op) = mshr.open_excl.take() {
                        if let Some(old) = entry.open_excl.replace(op) {
                            self.stats.class.close(false, old);
                        }
                    }
                }
            } else {
                let mut entry = L2Line::new(line, state, shared_data);
                entry.open_read = mshr.open_read.take();
                if excl {
                    entry.open_excl = mshr.open_excl.take();
                }
                let (v, _slot) = l2.insert(entry);
                victim = v;
            }
        }
        if let Some(v) = victim {
            self.evict_line(now, node, v.entry, sched);
        }
        if si_hint && excl {
            self.nodes[n].l2.flag_si(line);
        }

        // Complete read waiters. A-stream waiters first: the A-stream
        // requested first whenever both merged (it runs ahead), and at
        // equal timestamps it must get to consume its A-R token before the
        // R-stream's deviation check runs.
        let read_waiters = std::mem::take(&mut mshr.a_waiters)
            .into_iter()
            .chain(std::mem::take(&mut mshr.waiters));
        for w in read_waiters {
            self.fill_l1(w.cpu, line, L1State::Shared);
            if let Some(entry) = self.nodes[n].l2.get_mut(line) {
                entry.l1_mask |= 1 << w.cpu.core();
            }
            out.push(Completion { cpu: w.cpu, token: w.token });
        }
        if excl {
            // Complete store waiters: ownership is here.
            let store_waiters = std::mem::take(&mut mshr.store_waiters);
            let n_stores = store_waiters.len();
            if n_stores > 0 {
                if let Some(entry) = self.nodes[n].l2.get_mut(line) {
                    classify_store_fill(entry);
                }
            }
            for (i, w) in store_waiters.into_iter().enumerate() {
                let last = i + 1 == n_stores;
                let st = if last { L1State::Modified } else { L1State::Shared };
                self.fill_l1(w.cpu, line, st);
                if let Some(entry) = self.nodes[n].l2.get_mut(line) {
                    entry.l1_mask |= 1 << w.cpu.core();
                    if last {
                        entry.dirty = true;
                        entry.l1_dirty = Some(w.cpu.core());
                        if mshr.store_in_cs && entry.shared_data {
                            entry.wrote_in_cs = true;
                        }
                    }
                }
                out.push(Completion { cpu: w.cpu, token: w.token });
            }
        } else if !mshr.store_waiters.is_empty() && !mshr.excl_pending {
            // Shared fill but stores are queued: upgrade now.
            mshr.excl_pending = true;
            if shared_data && mshr.open_excl.is_none() {
                mshr.open_excl = Some(OpenReq::new(StreamRole::R));
            }
            self.stats.excl_txns += 1;
            self.nodes[n].l2.mshrs.insert(line, mshr);
            self.issue_txn(
                now,
                node,
                line,
                MsgKind::ReadExclReq { line, from: node, role: StreamRole::R, had_shared: true },
                sched,
            );
            return;
        }
        if mshr.pending() {
            // A transparent (or exclusive) reply is still due; keep the
            // MSHR so the late reply is recognized.
            self.nodes[n].l2.mshrs.insert(line, mshr);
        } else {
            debug_assert!(mshr.store_waiters.is_empty(), "store waiters dropped at fill");
            self.emit(now, MemObs::MshrFree { node, line });
        }
    }

    /// A transparent (possibly stale) reply lands in the L2 — visible to
    /// the A-stream only (§4.1).
    fn fill_transparent(
        &mut self,
        now: Cycle,
        node: NodeId,
        line: LineAddr,
        sched: &mut impl MemSched,
        out: &mut Vec<Completion>,
    ) {
        let n = node.idx();
        let mut mshr = match self.nodes[n].l2.mshrs.remove(&line) {
            Some(m) => m,
            None => return,
        };
        self.emit(now, MemObs::Fill { node, line, excl: false, transparent: true });
        mshr.trans_pending = false;
        let resident = self.nodes[n].l2.get(line).is_some();
        let mut victim = None;
        if !resident && !mshr.norm_pending && !mshr.excl_pending {
            let mut entry = L2Line::new(line, L2State::Shared, true);
            entry.transparent = true;
            entry.open_read = mshr.open_read.take();
            let (v, _slot) = self.nodes[n].l2.insert(entry);
            victim = v;
        }
        if let Some(v) = victim {
            self.evict_line(now, node, v.entry, sched);
        }
        // Complete the A-stream waiters; coherent waiters (if any) are
        // still waiting on the normal/exclusive fill.
        let a_waiters = std::mem::take(&mut mshr.a_waiters);
        for w in a_waiters {
            self.fill_l1(w.cpu, line, L1State::Shared);
            if let Some(entry) = self.nodes[n].l2.get_mut(line) {
                entry.l1_mask |= 1 << w.cpu.core();
            }
            out.push(Completion { cpu: w.cpu, token: w.token });
        }
        if mshr.pending() {
            self.nodes[n].l2.mshrs.insert(line, mshr);
        } else {
            debug_assert!(
                mshr.waiters.is_empty() && mshr.store_waiters.is_empty(),
                "coherent waiters dropped at transparent fill"
            );
            self.emit(now, MemObs::MshrFree { node, line });
        }
    }

    /// Evicts a victim line: back-invalidates L1 copies, closes open
    /// classification, and notifies the home node.
    fn evict_line(
        &mut self,
        now: Cycle,
        node: NodeId,
        mut entry: L2Line,
        sched: &mut impl MemSched,
    ) {
        let n = node.idx();
        for core in 0..2usize {
            if entry.l1_mask & (1 << core) != 0 {
                if let Some(dirty) = self.nodes[n].l1[core].invalidate(entry.line) {
                    if dirty {
                        entry.dirty = true;
                    }
                }
            }
        }
        if let Some(op) = entry.open_read.take() {
            self.stats.class.close(true, op);
        }
        if let Some(op) = entry.open_excl.take() {
            self.stats.class.close(false, op);
        }
        let home = self.home.home_of_line(entry.line, self.line_bytes);
        let dirty_wb = !entry.transparent && entry.dirty && entry.state == L2State::Exclusive;
        let kind = if dirty_wb {
            MsgKind::WritebackDirty { line: entry.line, from: node }
        } else {
            MsgKind::ReplHint { line: entry.line, from: node }
        };
        let (line, transparent) = (entry.line, entry.transparent);
        self.emit(now, MemObs::L2Evict { node, line, dirty: dirty_wb, transparent });
        self.send_from_l2(now, Msg { src: node, dst: home, kind }, sched);
    }

    fn invalidate_line(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        let n = node.idx();
        if let Some(mut entry) = self.nodes[n].l2.remove(line) {
            for core in 0..2usize {
                if entry.l1_mask & (1 << core) != 0 {
                    self.nodes[n].l1[core].invalidate(line);
                }
            }
            if let Some(op) = entry.open_read.take() {
                self.stats.class.close(true, op);
            }
            if let Some(op) = entry.open_excl.take() {
                self.stats.class.close(false, op);
            }
            self.emit(now, MemObs::L2Invalidate { node, line });
        }
    }

    fn owner_fwd_read(
        &mut self,
        now: Cycle,
        node: NodeId,
        line: LineAddr,
        requester: NodeId,
        sched: &mut impl MemSched,
    ) {
        let n = node.idx();
        let home = self.home.home_of_line(line, self.line_bytes);
        // `was_excl` can be false here: a self-invalidation downgrade may
        // already have demoted the copy while its `DowngradeWb` races this
        // intervention to the home. The data reply proceeds either way;
        // only the downgrade observation is conditional (it reports
        // transitions out of exclusivity, and there is none to report).
        let (have, was_excl) = {
            let st = &mut self.nodes[n];
            if let Some(entry) = st.l2.get_mut(line) {
                if let Some(d) = entry.l1_dirty.take() {
                    st.l1[d as usize].downgrade(line);
                }
                let was_excl = entry.state == L2State::Exclusive;
                entry.state = L2State::Shared;
                entry.dirty = false;
                entry.si_flag = false;
                entry.wrote_in_cs = false;
                (true, was_excl)
            } else {
                (false, false)
            }
        };
        if have {
            if was_excl {
                self.emit(now, MemObs::L2Downgrade { node, line });
            }
            let data = Msg {
                src: node,
                dst: requester,
                kind: MsgKind::FwdData { line, to: requester, excl: false },
            };
            self.send_from_l2(now, data, sched);
            let wb =
                Msg { src: node, dst: home, kind: MsgKind::WbShared { line, from: node, requester } };
            self.send_from_l2(now, wb, sched);
        } else {
            let nack = Msg { src: node, dst: home, kind: MsgKind::FwdNack { line, from: node } };
            self.send_from_l2(now, nack, sched);
        }
    }

    fn owner_fwd_excl(
        &mut self,
        now: Cycle,
        node: NodeId,
        line: LineAddr,
        requester: NodeId,
        sched: &mut impl MemSched,
    ) {
        let home = self.home.home_of_line(line, self.line_bytes);
        let have = self.nodes[node.idx()].l2.get(line).is_some();
        if have {
            self.invalidate_line(now, node, line);
            let data = Msg {
                src: node,
                dst: requester,
                kind: MsgKind::FwdData { line, to: requester, excl: true },
            };
            self.send_from_l2(now, data, sched);
            let ack = Msg {
                src: node,
                dst: home,
                kind: MsgKind::TransferAck { line, from: node, new_owner: requester },
            };
            self.send_from_l2(now, ack, sched);
        } else {
            let nack = Msg { src: node, dst: home, kind: MsgKind::FwdNack { line, from: node } };
            self.send_from_l2(now, nack, sched);
        }
    }

    // ------------------------------------------------------------------
    // Self-invalidation
    // ------------------------------------------------------------------

    fn si_step(&mut self, now: Cycle, node: NodeId, sched: &mut impl MemSched) {
        let n = node.idx();
        let line = loop {
            match self.nodes[n].l2.si_queue.pop_front() {
                None => {
                    self.nodes[n].l2.si_active = false;
                    return;
                }
                Some(l) => {
                    let valid = self.nodes[n]
                        .l2
                        .get(l)
                        .map(|e| e.si_flag && e.state == L2State::Exclusive)
                        .unwrap_or(false);
                    if valid {
                        break l;
                    }
                }
            }
        };
        let wrote_in_cs =
            self.nodes[n].l2.get(line).map(|e| e.wrote_in_cs).unwrap_or(false);
        let home = self.home.home_of_line(line, self.line_bytes);
        if wrote_in_cs {
            // Migratory: invalidate (and write back if dirty).
            let dirty = self.nodes[n].l2.get(line).map(|e| e.dirty).unwrap_or(false);
            self.invalidate_line(now, node, line);
            let kind = if dirty {
                MsgKind::WritebackDirty { line, from: node }
            } else {
                MsgKind::ReplHint { line, from: node }
            };
            self.send_from_l2(now, Msg { src: node, dst: home, kind }, sched);
            self.stats.si_invalidations += 1;
            self.emit(now, MemObs::SiAction { node, line, invalidated: true });
        } else {
            // Producer-consumer: write back and downgrade to shared.
            {
                let st = &mut self.nodes[n];
                if let Some(entry) = st.l2.get_mut(line) {
                    if let Some(d) = entry.l1_dirty.take() {
                        st.l1[d as usize].downgrade(line);
                    }
                    entry.state = L2State::Shared;
                    entry.dirty = false;
                    entry.si_flag = false;
                }
            }
            self.emit(now, MemObs::L2Downgrade { node, line });
            let kind = MsgKind::DowngradeWb { line, from: node };
            self.send_from_l2(now, Msg { src: node, dst: home, kind }, sched);
            self.stats.si_downgrades += 1;
            self.emit(now, MemObs::SiAction { node, line, invalidated: false });
        }
        // Rate limit: one line per si_interval cycles.
        let next = now + self.si_interval;
        self.nodes[n].si_next = next;
        if self.nodes[n].l2.si_queue.is_empty() {
            self.nodes[n].l2.si_active = false;
        } else {
            sched.sched(next, MemEvent::SiStep(node));
        }
    }

    // ------------------------------------------------------------------
    // Finalization / invariants
    // ------------------------------------------------------------------

    /// Closes all open request classifications (call once, at the end of a
    /// run, before reading [`MemStats::class`]). Empties the caches and
    /// folds the per-node contention-server counters into
    /// [`MemStats::contention`].
    pub fn finalize(&mut self) {
        for st in &self.nodes {
            let c = &mut self.stats.contention;
            for (server, res) in [
                (&st.dc, &mut c.dir_ctl),
                (&st.port_in, &mut c.net_in),
                (&st.port_out, &mut c.net_out),
                (&st.mem_bank, &mut c.mem_bank),
            ] {
                res.busy_cycles += server.busy_cycles();
                res.jobs += server.jobs();
                res.wait_cycles += server.wait_cycles();
            }
        }
        for st in &mut self.nodes {
            for entry in st.l2.drain_all() {
                if let Some(op) = entry.open_read {
                    self.stats.class.close(true, op);
                }
                if let Some(op) = entry.open_excl {
                    self.stats.class.close(false, op);
                }
            }
            for (_line, mshr) in st.l2.mshrs.drain() {
                if let Some(op) = mshr.open_read {
                    self.stats.class.close(true, op);
                }
                if let Some(op) = mshr.open_excl {
                    self.stats.class.close(false, op);
                }
            }
        }
    }

    /// Verifies that no transaction, sync object, or MSHR is still in
    /// flight.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found (indicates a
    /// protocol bug or a deadlocked workload).
    pub fn check_quiescent(&self) -> Result<(), String> {
        for (line, dl) in &self.dir {
            if let Some(p) = &dl.busy {
                return Err(format!(
                    "directory line {line} still busy: {p:?}, perm={:?}, {} deferred",
                    dl.perm,
                    dl.waiters.len()
                ));
            }
            if !dl.waiters.is_empty() {
                return Err(format!(
                    "directory line {line} has {} deferred requests: perm={:?} waiters={:?}",
                    dl.waiters.len(),
                    dl.perm,
                    dl.waiters
                ));
            }
        }
        for (i, st) in self.nodes.iter().enumerate() {
            if !st.l2.mshrs.is_empty() {
                return Err(format!("node {i} has {} outstanding MSHRs", st.l2.mshrs.len()));
            }
        }
        if !self.sync.quiescent() {
            return Err("sync controller not quiescent".to_string());
        }
        Ok(())
    }
}

fn trace_perm(p: &Perm, ovfl: bool) -> TracePerm {
    match p {
        Perm::Uncached => TracePerm::Uncached,
        Perm::Shared(s) => TracePerm::Shared { sharers: s.clone(), overflow: ovfl },
        Perm::Excl(o) => TracePerm::Excl { owner: *o },
    }
}

fn mem_wait(requester: NodeId, excl: bool) -> PendingTxn {
    PendingTxn {
        requester,
        excl,
        needs_data: true,
        acks_left: 0,
        wait: WaitKind::Mem,
        owner_gone: false,
        wb_received: false,
        si_hint: false,
    }
}

fn data_reply(home: NodeId, to: NodeId, line: LineAddr, excl: bool, si_hint: bool) -> Msg {
    Msg { src: home, dst: to, kind: MsgKind::DataReply { line, to, excl, si_hint } }
}

/// An interventioned owner turned out to have evicted the line and its
/// writeback has arrived: complete the stalled transaction from memory.
fn complete_from_memory(
    dl: &mut DirLine,
    home: NodeId,
    line: LineAddr,
    mem_done: Cycle,
    sched: &mut impl MemSched,
) {
    let p = dl.busy.as_mut().expect("complete_from_memory requires a pending txn");
    p.wait = WaitKind::Mem;
    if p.excl {
        dl.perm = Perm::Excl(p.requester);
    } else {
        dl.perm = Perm::Shared(SharerSet::single(p.requester));
    }
    dl.ovfl = false;
    let reply = data_reply(home, p.requester, line, p.excl, p.si_hint);
    sched.sched(mem_done, MemEvent::MemReady(reply));
}

/// Records that `role` touched a line with open classification state.
fn classify_touch(entry: &mut L2Line, role: StreamRole) {
    if !entry.shared_data {
        return;
    }
    let is_a = role.is_a();
    if let Some(op) = entry.open_read.as_mut() {
        if op.issuer.is_a() != is_a {
            op.reffed_other = true;
        }
    }
    if let Some(op) = entry.open_excl.as_mut() {
        if op.issuer.is_a() != is_a {
            op.reffed_other = true;
        }
    }
}

/// When an exclusive fill completes queued R-stream stores on a line whose
/// open requests were A-issued (prefetches), the store is the R reference.
fn classify_store_fill(entry: &mut L2Line) {
    if !entry.shared_data {
        return;
    }
    if let Some(op) = entry.open_excl.as_mut() {
        if op.issuer.is_a() {
            op.reffed_other = true;
        }
    }
    if let Some(op) = entry.open_read.as_mut() {
        if op.issuer.is_a() {
            op.reffed_other = true;
        }
    }
}

/// Detects `Late` classifications when a miss merges into an outstanding
/// request issued by the other stream.
fn merge_classify(stats: &mut MemStats, mshr: &mut Mshr, role: StreamRole) {
    let is_a = role.is_a();
    if let Some(op) = mshr.open_read.as_mut() {
        if op.issuer.is_a() != is_a && !op.late {
            op.late = true;
            stats.class.count_late(true, op.issuer);
        }
    }
    if let Some(op) = mshr.open_excl.as_mut() {
        if op.issuer.is_a() != is_a && !op.late {
            op.late = true;
            stats.class.count_late(false, op.issuer);
        }
    }
}
