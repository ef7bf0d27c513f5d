use std::rc::Rc;

use slipstream_kernel::config::{ArSyncMode, ExecMode, MachineConfig, SlipstreamConfig};
use slipstream_kernel::{Cycle, EventQueue, TaskId};
use slipstream_mem::{
    Access, AccessKind, Completion, MemEvent, MemSched, MemSystem, MemTracer, StreamRole, SyncOp,
};
use slipstream_prog::{Op, ProgramIter, Space};

use crate::report::{RunResult, StreamReport};
use crate::stream::{BlockKind, PairState, StreamExec, StreamState};
use crate::telemetry::{Heartbeat, Histogram, QueueStats, QUEUE_SAMPLE_PERIOD};
use crate::trace::{IntervalSample, TraceConfig, TraceData, TraceKind, TraceState};

/// Host-profiling state ([`crate::telemetry`]): queue-lane occupancy
/// histograms plus the optional progress heartbeat. Boxed so the
/// unprofiled machine carries one pointer.
#[derive(Debug)]
struct HostState {
    ring: Histogram,
    heap: Histogram,
    heartbeat: Option<Heartbeat>,
}

/// Global simulation events: memory-system internals plus processor
/// resumptions. `epoch` guards against stale resumes after an A-stream is
/// killed and reforked.
#[derive(Debug)]
enum Ev {
    Mem(MemEvent),
    Resume { stream: usize, epoch: u64 },
}

/// Adapter giving the memory system access to the global event queue.
struct QW<'a>(&'a mut EventQueue<Ev>);

impl MemSched for QW<'_> {
    fn sched(&mut self, at: Cycle, ev: MemEvent) {
        self.0.push(at, Ev::Mem(ev));
    }
}

/// Outcome of executing one operation.
enum Step {
    /// Op retired; advance local time by this many cycles of busy work.
    Continue(u64),
    /// Stream blocked (state already updated); yield the processor.
    Blocked,
}

/// The assembled machine: processors executing task programs over the
/// memory system, under one of the three execution modes of Figure 2.
///
/// Constructed by [`crate::run`]; use that unless you are building custom
/// placements.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    slip: SlipstreamConfig,
    mode: ExecMode,
    mem: MemSystem,
    q: EventQueue<Ev>,
    streams: Vec<StreamExec>,
    epochs: Vec<u64>,
    pairs: Vec<PairState>,
    /// cpu.flat(2) -> stream index.
    cpu_map: Vec<Option<usize>>,
    recoveries: u64,
    /// Maximum cycles a CPU may run ahead of global time inside a quantum.
    quantum_cycles: u64,
    /// Cost of an `Input` (system call / I/O) operation for the R-stream.
    input_cycles: u64,
    name: String,
    nodes: u16,
    tasks: usize,
    /// Live trace collection, when the run is traced ([`TraceConfig`]
    /// enabled). `None` on the default path: no buffer exists and the
    /// main loop pays one `Option` check per event.
    trace: Option<TraceState>,
    /// Batched fast-path execution: when a stream yields and its `Resume`
    /// would be the very next event popped anyway, continue executing it
    /// inline instead of round-tripping through the event queue. Results
    /// are bit-identical either way (asserted by the differential tests in
    /// `crates/bench/tests/determinism.rs`); the knob exists for those
    /// tests and for debugging.
    fastpath: bool,
    /// Host-side events processed (popped events + inline resumes). An
    /// inline resume counts exactly like the queue round-trip it replaces,
    /// so `RunResult::host_events` is identical with the fast path on or
    /// off.
    host_events: u64,
    /// Host-profiling state; `None` (the default) costs the main loop one
    /// pointer-null check per event.
    host: Option<Box<HostState>>,
}

impl Machine {
    /// Assembles a machine from pre-built streams. `pairs` links R/A
    /// stream indices in slipstream mode (empty otherwise).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        name: String,
        cfg: MachineConfig,
        slip: SlipstreamConfig,
        mode: ExecMode,
        mut mem: MemSystem,
        streams: Vec<StreamExec>,
        pairs: Vec<PairState>,
        quantum_cycles: u64,
        input_cycles: u64,
        tasks: usize,
        trace_cfg: TraceConfig,
        fastpath: bool,
        extra_tracer: Option<Box<dyn MemTracer>>,
    ) -> Machine {
        let trace = trace_cfg.enabled().then(|| {
            let (state, recorder) = TraceState::new(trace_cfg);
            mem.add_tracer(Box::new(recorder));
            state
        });
        if let Some(t) = extra_tracer {
            mem.add_tracer(t);
        }
        let mut cpu_map = vec![None; cfg.nodes as usize * 2];
        for (i, s) in streams.iter().enumerate() {
            let slot = s.cpu.flat(2);
            assert!(cpu_map[slot].is_none(), "two streams on {}", s.cpu);
            cpu_map[slot] = Some(i);
        }
        let nodes = cfg.nodes;
        let epochs = vec![0; streams.len()];
        // Every stream keeps a handful of events in flight (a resume plus a
        // few memory-system events); reserve up front so the steady-state
        // loop never grows the heap.
        let q = EventQueue::with_capacity(streams.len() * 8 + 64);
        Machine {
            cfg,
            slip,
            mode,
            mem,
            q,
            streams,
            epochs,
            pairs,
            cpu_map,
            recoveries: 0,
            quantum_cycles,
            input_cycles,
            name,
            nodes,
            tasks,
            trace,
            fastpath,
            host_events: 0,
            host: None,
        }
    }

    /// Enables host-side profiling: queue-occupancy sampling every
    /// [`QUEUE_SAMPLE_PERIOD`] events and, when given, a progress
    /// heartbeat. Strictly observational — results are bit-identical with
    /// profiling on or off.
    pub(crate) fn enable_host_profile(&mut self, heartbeat: Option<Heartbeat>) {
        self.host = Some(Box::new(HostState {
            ring: Histogram::new(),
            heap: Histogram::new(),
            heartbeat,
        }));
    }

    /// Records one queue-occupancy sample and drives the heartbeat.
    /// Out-of-line: the hot loop only pays the `is_some` check.
    #[cold]
    fn host_sample(&mut self) {
        let ring = self.q.lane_len() as u64;
        let heap = self.q.heap_len() as u64;
        let h = self.host.as_mut().expect("host profiling enabled");
        h.ring.record(ring);
        h.heap.record(heap);
        if let Some(hb) = h.heartbeat.as_mut() {
            hb.maybe_beat(self.host_events);
        }
    }

    /// Runs the machine to completion and reports the results.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocks (streams blocked with an empty event
    /// queue) or the memory system fails its quiescence check — both
    /// indicate bugs, not valid results.
    pub fn run(self) -> RunResult {
        self.run_traced().0
    }

    /// Runs the machine to completion, additionally returning the
    /// collected [`TraceData`] when the machine was assembled with an
    /// enabled [`TraceConfig`]. The [`RunResult`] is bit-identical to an
    /// untraced run: tracing is observation only.
    pub fn run_traced(self) -> (RunResult, Option<TraceData>) {
        let (result, trace, _) = self.run_full();
        (result, trace)
    }

    /// [`Machine::run_traced`] plus the host-profiler's queue statistics
    /// when [`Machine::enable_host_profile`] was called (`None`
    /// otherwise).
    pub(crate) fn run_full(mut self) -> (RunResult, Option<TraceData>, Option<QueueStats>) {
        // A-streams start first: at equal timestamps the reduced stream
        // must get to run ahead, or an R-stream with an empty first session
        // would misread it as deviated before it ever executed.
        for (i, s) in self.streams.iter().enumerate() {
            if s.role == StreamRole::A {
                self.q.push(Cycle::ZERO, Ev::Resume { stream: i, epoch: 0 });
            }
        }
        for (i, s) in self.streams.iter().enumerate() {
            if s.role != StreamRole::A {
                self.q.push(Cycle::ZERO, Ev::Resume { stream: i, epoch: 0 });
            }
        }
        let mut out: Vec<Completion> = Vec::new();
        while let Some((t, ev)) = self.q.pop() {
            self.host_events += 1;
            if self.host.is_some() && self.host_events.is_multiple_of(QUEUE_SAMPLE_PERIOD) {
                self.host_sample();
            }
            if self.trace.as_ref().is_some_and(|ts| t >= ts.next_sample) {
                self.take_samples(t, self.host_events);
            }
            match ev {
                Ev::Resume { stream, epoch } => {
                    if self.epochs[stream] == epoch
                        && self.streams[stream].state == StreamState::Ready
                    {
                        self.run_stream(stream, t, true);
                    }
                }
                Ev::Mem(me) => {
                    out.clear();
                    self.mem.handle_event(t, me, &mut QW(&mut self.q), &mut out);
                    // `out` is local; completions are Copy, so the buffer
                    // is reused across events without reallocating.
                    let batch = std::mem::take(&mut out);
                    for (k, &c) in batch.iter().enumerate() {
                        // Inline continuation is only safe for the last
                        // completion of the batch: an earlier stream must
                        // not run ahead of state changes the remaining
                        // completions are about to apply.
                        self.on_completion(t, c, k + 1 == batch.len());
                    }
                    out = batch;
                }
            }
        }
        // Everyone must have finished; anything else is a deadlock.
        if self.streams.iter().any(|s| s.state != StreamState::Done) {
            for (i, s) in self.streams.iter().enumerate() {
                eprintln!(
                    "stream {i}: {} {:?} {} state={:?} pending={:?} finish={:?}",
                    s.cpu, s.role, s.task, s.state, s.pending_op, s.finish
                );
            }
            if let Err(e) = self.mem.check_quiescent() {
                eprintln!("memory system: {e}");
            }
            panic!("deadlock: streams blocked with an empty event queue");
        }
        self.mem
            .check_quiescent()
            .unwrap_or_else(|e| panic!("memory system not quiescent at end of run: {e}"));
        self.mem.finalize();
        let exec_cycles = self
            .streams
            .iter()
            .filter(|s| s.role != StreamRole::A)
            .map(|s| s.finish.expect("finished").raw())
            .max()
            .unwrap_or(0);
        // Package collected trace state. Must happen before `take_stats`
        // below: the closing interval sample snapshots the live counters.
        let host_events = self.host_events;
        let trace = self.trace.take().map(|mut ts| {
            if ts.cfg.interval > 0 {
                let sample = self.sample_at(exec_cycles, host_events);
                ts.samples.push(sample);
            }
            // Drop the memory system's recorder so ours is the only
            // handle left on the shared buffer.
            drop(self.mem.take_tracers());
            let buf = Rc::try_unwrap(ts.buf)
                .expect("trace buffer uniquely owned once the recorder is detached")
                .into_inner();
            TraceData::assemble(
                ts.cfg,
                buf,
                ts.samples,
                self.q.total_pushed(),
                self.q.high_water(),
                exec_cycles,
            )
        });
        let host_queue = self.host.take().map(|h| QueueStats {
            total_pushed: self.q.total_pushed(),
            heap_pushes: self.q.heap_pushes(),
            high_water: self.q.high_water() as u64,
            ring_occupancy: h.ring,
            heap_occupancy: h.heap,
        });
        let streams = self
            .streams
            .iter()
            .map(|s| StreamReport {
                cpu: s.cpu,
                role: s.role,
                task: s.task,
                finish: s.finish.expect("finished").raw(),
                breakdown: s.breakdown,
            })
            .collect();
        let result = RunResult {
            name: self.name,
            mode: self.mode,
            nodes: self.nodes,
            tasks: self.tasks,
            exec_cycles,
            streams,
            mem: self.mem.take_stats(),
            recoveries: self.recoveries,
            host_events,
        };
        (result, trace, host_queue)
    }

    // ------------------------------------------------------------------
    // Trace collection
    // ------------------------------------------------------------------

    /// Records a machine-level trace event (recoveries, session ends).
    fn trace_event(&mut self, t: Cycle, kind: TraceKind) {
        if let Some(ts) = self.trace.as_ref() {
            ts.buf.borrow_mut().push(t, kind);
        }
    }

    /// Emits interval samples for every boundary at or before `t`.
    fn take_samples(&mut self, t: Cycle, host_events: u64) {
        let Some(mut ts) = self.trace.take() else { return };
        if ts.cfg.interval > 0 {
            while t >= ts.next_sample {
                let sample = self.sample_at(ts.next_sample.raw(), host_events);
                ts.samples.push(sample);
                ts.next_sample += ts.cfg.interval;
            }
        }
        self.trace = Some(ts);
    }

    /// Snapshots run state as of `cycle` (counters are cumulative).
    fn sample_at(&self, cycle: u64, host_events: u64) -> IntervalSample {
        IntervalSample {
            cycle,
            stats: self.mem.stats().clone(),
            run_ahead: self
                .pairs
                .iter()
                .map(|p| p.a_session as i64 - p.r_session as i64)
                .collect(),
            tokens: self.pairs.iter().map(|p| p.tokens).collect(),
            queue_len: self.q.len(),
            host_events,
            recoveries: self.recoveries,
        }
    }

    // ------------------------------------------------------------------
    // Stream execution
    // ------------------------------------------------------------------

    /// Fast-path gate at a yield point: a `Resume` pushed at `local` would
    /// be the very next event popped iff no queued event fires at or before
    /// `local` (an equal-time event holds a smaller sequence number and
    /// would win the tie). In that case nothing can observe the machine
    /// between the push and the pop, so the round-trip is elided and the
    /// stream keeps executing inline. Mirrors the main loop's bookkeeping
    /// exactly: the resume counts as a host event and interval samples are
    /// taken at the same boundaries.
    #[inline]
    fn inline_resume(&mut self, local: Cycle) -> bool {
        if !self.fastpath || self.q.peek_time().is_some_and(|t| t <= local) {
            return false;
        }
        self.host_events += 1;
        if self.trace.as_ref().is_some_and(|ts| local >= ts.next_sample) {
            self.take_samples(local, self.host_events);
        }
        true
    }

    /// `allow_inline` is false when the caller still has work to do at the
    /// current timestamp (mid-batch completions): the stream must then
    /// yield through the queue so that work is applied first.
    fn run_stream(&mut self, i: usize, now: Cycle, allow_inline: bool) {
        let mut now = now;
        let mut local = now;
        let mut ops = 0u32;
        loop {
            let op = match self.streams[i].pending_op.take() {
                Some(op) => Some(op),
                None => self.streams[i].iter.next(),
            };
            let op = match op {
                Some(op) => op,
                None => {
                    self.finish_stream(i, local);
                    return;
                }
            };
            // Globally visible ops execute at their exact time; private
            // work may run up to a quantum ahead (see DESIGN.md §7).
            let exact = match op {
                Op::Load { space: Space::Shared, .. } | Op::Store { space: Space::Shared, .. } => {
                    true
                }
                Op::Input => true,
                ref o => o.is_sync(),
            };
            if exact && local > now {
                if allow_inline && self.inline_resume(local) {
                    // Continue as the freshly resumed quantum would: global
                    // time advances to `local`, the op executes exactly.
                    now = local;
                    ops = 0;
                } else {
                    self.streams[i].pending_op = Some(op);
                    self.streams[i].frontier = local;
                    let epoch = self.epochs[i];
                    self.q.push(local, Ev::Resume { stream: i, epoch });
                    return;
                }
            }
            ops += 1;
            match self.exec_op(i, op, local) {
                Step::Continue(cost) => {
                    self.streams[i].breakdown.busy += cost;
                    local += cost;
                }
                Step::Blocked => return,
            }
            if ops >= self.cfg.quantum_ops || (local - now).raw() >= self.quantum_cycles {
                if allow_inline && self.inline_resume(local) {
                    now = local;
                    ops = 0;
                } else {
                    self.streams[i].frontier = local;
                    let epoch = self.epochs[i];
                    self.q.push(local, Ev::Resume { stream: i, epoch });
                    return;
                }
            }
        }
    }

    fn exec_op(&mut self, i: usize, op: Op, at: Cycle) -> Step {
        let role = self.streams[i].role;
        match op {
            Op::Compute(n) => Step::Continue(n as u64),
            Op::DivergeInA(n) => {
                // Wrong-path work executed only by the speculative stream.
                if role.is_a() {
                    Step::Continue(n as u64)
                } else {
                    Step::Continue(0)
                }
            }
            Op::Load { addr, space } => {
                let shared = space == Space::Shared;
                let kind = if role.is_a() && shared && self.slip.transparent_loads {
                    let p = self.streams[i].pair.expect("A-stream has a pair");
                    let ahead = self.pairs[p].a_session > self.pairs[p].r_session;
                    if ahead || self.streams[i].lock_depth > 0 {
                        AccessKind::TransparentRead
                    } else {
                        AccessKind::Read
                    }
                } else {
                    AccessKind::Read
                };
                self.do_access(i, kind, addr, shared, at)
            }
            Op::Store { addr, space } => {
                let shared = space == Space::Shared;
                if role.is_a() && shared {
                    // §3.1: the store executes in the pipeline but is never
                    // committed. §3.3: convert to an exclusive prefetch when
                    // in the same session as the R-stream and outside
                    // critical sections.
                    let p = self.streams[i].pair.expect("A-stream has a pair");
                    let same_session = self.pairs[p].a_session == self.pairs[p].r_session;
                    if self.slip.exclusive_prefetch
                        && same_session
                        && self.streams[i].lock_depth == 0
                    {
                        let cpu = self.streams[i].cpu;
                        let _ = self.mem.access(
                            at,
                            cpu,
                            StreamRole::A,
                            AccessKind::ExclPrefetch,
                            addr,
                            true,
                            false,
                            &mut QW(&mut self.q),
                        );
                    }
                    Step::Continue(1)
                } else {
                    self.do_access(i, AccessKind::Write, addr, shared, at)
                }
            }
            Op::Barrier(id) => self.exec_session_end(i, SyncOp::BarrierArrive(id), op, at),
            Op::EventWait(id) => {
                let task = TaskId(self.streams[i].task.0);
                self.exec_session_end(i, SyncOp::EventWait(id, task), op, at)
            }
            Op::EventPost(id) => {
                if role.is_a() {
                    Step::Continue(1)
                } else {
                    let cpu = self.streams[i].cpu;
                    let _ = self.mem.sync(at, cpu, SyncOp::EventPost(id), &mut QW(&mut self.q));
                    Step::Continue(1)
                }
            }
            Op::Lock(id) => {
                if role.is_a() {
                    // Skipped, but tracked: the A-stream knows it is inside
                    // a critical section (transparent-load policy, §4.1).
                    self.streams[i].lock_depth += 1;
                    Step::Continue(1)
                } else {
                    let cpu = self.streams[i].cpu;
                    let tok = self.mem.sync(at, cpu, SyncOp::LockAcquire(id), &mut QW(&mut self.q));
                    self.streams[i].block(tok, BlockKind::Lock, at);
                    Step::Blocked
                }
            }
            Op::Unlock(id) => {
                let s = &mut self.streams[i];
                assert!(s.lock_depth > 0, "unlock without a held lock in {}", s.cpu);
                s.lock_depth -= 1;
                if role.is_a() {
                    Step::Continue(1)
                } else {
                    let cpu = self.streams[i].cpu;
                    let _ = self.mem.sync(at, cpu, SyncOp::LockRelease(id), &mut QW(&mut self.q));
                    if self.slip.self_invalidation && role == StreamRole::R {
                        // SI processing overlaps unlock synchronization.
                        let node = cpu.node();
                        self.mem.kick_si(at, node, &mut QW(&mut self.q));
                    }
                    Step::Continue(1)
                }
            }
            Op::Input => {
                if role.is_a() {
                    let p = self.streams[i].pair.expect("A-stream has a pair");
                    if self.pairs[p].r_done
                        || self.pairs[p].r_inputs_done > self.streams[i].inputs_taken
                    {
                        self.streams[i].inputs_taken += 1;
                        Step::Continue(1)
                    } else {
                        // Wait for the R-stream's result (§3.2).
                        self.streams[i].pending_op = Some(op);
                        self.streams[i].state = StreamState::WaitInput;
                        self.streams[i].blocked_at = at;
                        self.streams[i].frontier = at;
                        Step::Blocked
                    }
                } else {
                    if let Some(p) = self.streams[i].pair {
                        self.pairs[p].r_inputs_done += 1;
                        self.wake_a_if(p, StreamState::WaitInput, at);
                    }
                    Step::Continue(self.input_cycles)
                }
            }
        }
    }

    fn do_access(
        &mut self,
        i: usize,
        kind: AccessKind,
        addr: slipstream_kernel::Addr,
        shared: bool,
        at: Cycle,
    ) -> Step {
        let cpu = self.streams[i].cpu;
        let role = self.streams[i].role;
        let in_cs = self.streams[i].lock_depth > 0;
        match self.mem.access(at, cpu, role, kind, addr, shared, in_cs, &mut QW(&mut self.q)) {
            Access::HitL1 => Step::Continue(self.cfg.lat.l1_hit),
            Access::Accepted => Step::Continue(1),
            Access::Pending(tok) => {
                self.streams[i].block(tok, BlockKind::Mem, at);
                Step::Blocked
            }
        }
    }

    /// Executes a session-ending synchronization (barrier or event-wait).
    fn exec_session_end(&mut self, i: usize, sync: SyncOp, op: Op, at: Cycle) -> Step {
        let role = self.streams[i].role;
        if role.is_a() {
            // §3.2: the A-stream skips the synchronization but consumes a
            // token; with none available it waits for its R-stream.
            let p = self.streams[i].pair.expect("A-stream has a pair");
            if self.pairs[p].r_done {
                self.pairs[p].a_session += 1;
                return Step::Continue(1);
            }
            if self.pairs[p].tokens > 0 {
                self.pairs[p].tokens -= 1;
                self.pairs[p].a_session += 1;
                return Step::Continue(1);
            }
            self.streams[i].pending_op = Some(op);
            self.streams[i].state = StreamState::WaitToken;
            self.streams[i].blocked_at = at;
            self.streams[i].frontier = at;
            return Step::Blocked;
        }
        if role == StreamRole::R {
            let p = self.streams[i].pair.expect("R-stream has a pair");
            // Deviation check (§3.2): if the R-stream reaches the end of a
            // session before its A-stream, the A-stream has deviated. We
            // apply the check at session granularity — the A-stream is
            // deviated when it has not even *entered* the session the
            // R-stream is finishing. (A stricter positional check would
            // also kill healthy A-streams that the R-stream catches only
            // because it is riding their prefetches; see DESIGN.md.)
            let a_idx = self.pairs[p].a_idx;
            let deviated = self.streams[a_idx].state != StreamState::Done
                && self.pairs[p].a_session < self.pairs[p].r_session
                && !self.streams[a_idx].at_session_end();
            if deviated {
                self.recover_a(p, i, at);
            }
            // The R-stream has reached the end of its session: from here
            // on it counts as being in the next session, so A-stream loads
            // issued while R waits at the barrier are normal prefetches
            // rather than transparent loads (matches the paper's ~27%
            // average transparent fraction, Figure 9).
            self.pairs[p].r_session += 1;
            if self.trace.is_some() {
                let node = self.streams[i].cpu.node();
                let session = self.pairs[p].r_session;
                self.trace_event(at, TraceKind::SessionEnd { node, session });
            }
            self.adapt_step(p, at);
            if self.pairs[p].method.insert_on_entry() {
                self.insert_token(p, at);
            }
            if self.slip.self_invalidation {
                // §4.2: flagged lines are processed at the R-stream's sync
                // points, overlapped with the synchronization itself.
                let node = self.streams[i].cpu.node();
                self.mem.kick_si(at, node, &mut QW(&mut self.q));
            }
        }
        let cpu = self.streams[i].cpu;
        let tok = self.mem.sync(at, cpu, sync, &mut QW(&mut self.q));
        self.streams[i].block(tok, BlockKind::Barrier, at);
        Step::Blocked
    }

    /// §3.2 recovery: kill the deviated A-stream and fork a fresh copy of
    /// the R-stream's current state.
    fn recover_a(&mut self, p: usize, r_idx: usize, now: Cycle) {
        self.recoveries += 1;
        let a_idx = self.pairs[p].a_idx;
        self.trace_event(
            now,
            TraceKind::Recovery {
                node: self.streams[a_idx].cpu.node(),
                r_session: self.pairs[p].r_session,
                a_session: self.pairs[p].a_session,
            },
        );
        // Close out the killed A-stream's time accounting before resetting
        // it: any open wait ends here (classified as A-R synchronization —
        // the stream was stalled by the pairing protocol, not by its own
        // work), and the gap until the reforked copy restarts is recovery
        // overhead, also A-R synchronization. If the stream had busy time
        // pre-accounted beyond the restart point (it was mid-quantum), that
        // work is discarded with the kill, so the excess is returned.
        {
            let a = &mut self.streams[a_idx];
            match a.state {
                StreamState::Blocked(_, kind) => a.attribute_wait(kind, now),
                StreamState::WaitToken | StreamState::WaitInput => {
                    a.attribute_wait(BlockKind::ArSync, now)
                }
                StreamState::Ready => {}
                StreamState::Done => unreachable!("deviation check excludes finished A-streams"),
            }
            let restart = now + self.slip.refork_penalty;
            if restart >= a.frontier {
                a.breakdown.ar_sync += restart.since(a.frontier).raw();
            } else {
                a.breakdown.busy -= a.frontier.since(restart).raw();
            }
            a.frontier = restart;
        }
        // Fork semantics: the new A-stream is a copy of the R-stream at
        // its current position (it has just consumed the session-ending
        // sync op, which the A-stream would skip anyway).
        let fork: ProgramIter = self.streams[r_idx].iter.clone();
        let r_lock_depth = self.streams[r_idx].lock_depth;
        let a = &mut self.streams[a_idx];
        a.iter = fork;
        a.pending_op = None;
        a.lock_depth = r_lock_depth;
        a.state = StreamState::Ready;
        a.inputs_taken = self.pairs[p].r_inputs_done;
        self.pairs[p].a_session = self.pairs[p].r_session + 1;
        self.pairs[p].tokens = self.pairs[p].method.initial_tokens();
        // Invalidate any in-flight resume/completion for the old A-stream.
        self.epochs[a_idx] += 1;
        let epoch = self.epochs[a_idx];
        self.q.push(now + self.slip.refork_penalty, Ev::Resume { stream: a_idx, epoch });
    }

    /// Advances the adaptive A-R sampler (§6): once the current window has
    /// run `adapt_window` sessions, score it by elapsed cycles and move to
    /// the next method — or, after all four, lock in the fastest.
    fn adapt_step(&mut self, p: usize, now: Cycle) {
        let window = self.slip.adapt_window.max(1);
        let pair = &mut self.pairs[p];
        let Some(adapt) = pair.adapt.as_mut() else { return };
        adapt.sessions += 1;
        if adapt.sessions < window {
            return;
        }
        let elapsed = now.since(adapt.window_start).raw();
        adapt.scores.push((ArSyncMode::ALL[adapt.next], elapsed));
        adapt.next += 1;
        adapt.sessions = 0;
        adapt.window_start = now;
        if adapt.next < ArSyncMode::ALL.len() {
            pair.method = ArSyncMode::ALL[adapt.next];
        } else {
            let (best, _) = adapt
                .scores
                .iter()
                .copied()
                .min_by_key(|&(_, cycles)| cycles)
                .expect("four windows scored");
            pair.method = best;
            pair.adapt = None;
        }
        // A loosened token budget takes effect immediately; a tightened
        // one converges as the A-stream consumes its banked tokens.
        if pair.method.initial_tokens() > 0 && pair.tokens == 0 {
            self.insert_token(p, now);
        }
    }

    /// R-stream inserts a token; wakes a token-waiting A-stream.
    fn insert_token(&mut self, p: usize, now: Cycle) {
        let pair = &mut self.pairs[p];
        if pair.tokens < self.slip.max_tokens {
            pair.tokens += 1;
        }
        self.wake_a_if(p, StreamState::WaitToken, now);
    }

    /// Wakes the pair's A-stream if it is parked in `state`.
    fn wake_a_if(&mut self, p: usize, state: StreamState, now: Cycle) {
        let a_idx = self.pairs[p].a_idx;
        if self.streams[a_idx].state == state {
            self.streams[a_idx].attribute_wait(BlockKind::ArSync, now);
            self.streams[a_idx].state = StreamState::Ready;
            let epoch = self.epochs[a_idx];
            self.q.push(now, Ev::Resume { stream: a_idx, epoch });
        }
    }

    fn finish_stream(&mut self, i: usize, at: Cycle) {
        self.streams[i].state = StreamState::Done;
        self.streams[i].finish = Some(at);
        self.streams[i].frontier = at;
        if self.streams[i].role == StreamRole::R {
            if let Some(p) = self.streams[i].pair {
                self.pairs[p].r_done = true;
                // Release an A-stream stuck on tokens or inputs.
                self.wake_a_if(p, StreamState::WaitToken, at);
                self.wake_a_if(p, StreamState::WaitInput, at);
            }
        }
    }

    fn on_completion(&mut self, t: Cycle, c: Completion, last_in_batch: bool) {
        let idx = match self.cpu_map[c.cpu.flat(2)] {
            Some(i) => i,
            None => return,
        };
        match self.streams[idx].state {
            StreamState::Blocked(tok, kind) if tok == c.token => {
                self.streams[idx].attribute_wait(kind, t);
                match kind {
                    BlockKind::Lock => self.streams[idx].lock_depth += 1,
                    BlockKind::Barrier if self.streams[idx].role == StreamRole::R => {
                        // Barrier/event exit: global A-R sync methods
                        // insert the token only now (the session counter
                        // already rolled over at entry).
                        let p = self.streams[idx].pair.expect("R-stream has a pair");
                        if !self.pairs[p].method.insert_on_entry() {
                            self.insert_token(p, t);
                        }
                    }
                    _ => {}
                }
                self.streams[idx].state = StreamState::Ready;
                self.run_stream(idx, t, last_in_batch);
            }
            // Stale completion (e.g. for a killed A-stream); drop it.
            _ => {}
        }
    }
}
