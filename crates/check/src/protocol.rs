//! Dynamic coherence-protocol invariant checker.
//!
//! [`ProtocolChecker`] installs a [`MemTracer`] that shadows the
//! directory's permission state and the per-node L2 copy set from the
//! [`MemObs`] observations alone, and cross-checks the two against the
//! protocol's invariants while a real simulation runs. It never feeds
//! anything back into the simulation (tracers observe only), so a checked
//! run is bit-identical to an unchecked one — which the differential tests
//! assert.
//!
//! Invariants (rule ids `PC001`..`PC009`, see `docs/static-analysis.md`):
//!
//! * **SWMR** — when a node is granted an exclusive (writable) copy, no
//!   other node holds any coherent copy;
//! * the directory's sharing list matches the actually cached copies at
//!   quiescence;
//! * no node holds a coherent shared copy while another holds the line
//!   exclusively;
//! * MSHRs do not leak (every allocation is retired);
//! * future-sharer state and self-invalidation actions originate only from
//!   transparent loads (§4 of the paper), and SI hints target only the
//!   exclusive owner.
//!
//! The checker validates *fills* against the shadowed copy set (the
//! directory's view lags in-flight ownership transfers), and
//! directory-originated messages against the shadowed directory state;
//! exact directory/copy equality is asserted only at quiescence.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use slipstream_core::{RunResult, RunSpec, Workload};
use slipstream_kernel::{Cycle, FxHashMap, LineAddr, NodeId, SharerSet};
use slipstream_mem::{MemObs, MemTracer, TracePerm};

use crate::diag::json_escape;

/// The dynamic checker's rule catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtoRule {
    /// PC001: exclusive grant while another coherent copy exists
    /// (single-writer/multiple-reader violation).
    Swmr,
    /// PC002: at quiescence, the directory's sharing list disagrees with
    /// the actually cached copies.
    SharerSet,
    /// PC003: a coherent shared copy coexists with an exclusive copy at
    /// another node.
    SharedWithOwner,
    /// PC004: MSHR leaked, double-allocated, or freed without allocation.
    MshrLeak,
    /// PC005: self-invalidation state for a line no transparent load ever
    /// touched.
    FutureBits,
    /// PC006: an SI hint sent to a node the directory does not believe is
    /// the exclusive owner.
    SiTarget,
    /// PC007: a directory transition whose observed pre-state disagrees
    /// with the shadow (a missed or misordered observation — checker
    /// self-test).
    DirShadow,
    /// PC008: an invalidation or intervention sent to a node that cannot
    /// hold the line per the directory's own state.
    MsgTarget,
    /// PC009: an L2 evict/invalidate/downgrade for a copy the shadow never
    /// saw filled (copy-set divergence).
    CopyShadow,
}

impl ProtoRule {
    /// Stable rule id, e.g. `"PC001"`.
    pub fn id(self) -> &'static str {
        match self {
            ProtoRule::Swmr => "PC001",
            ProtoRule::SharerSet => "PC002",
            ProtoRule::SharedWithOwner => "PC003",
            ProtoRule::MshrLeak => "PC004",
            ProtoRule::FutureBits => "PC005",
            ProtoRule::SiTarget => "PC006",
            ProtoRule::DirShadow => "PC007",
            ProtoRule::MsgTarget => "PC008",
            ProtoRule::CopyShadow => "PC009",
        }
    }

    /// Short kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtoRule::Swmr => "swmr",
            ProtoRule::SharerSet => "sharer-set",
            ProtoRule::SharedWithOwner => "shared-with-owner",
            ProtoRule::MshrLeak => "mshr-leak",
            ProtoRule::FutureBits => "future-bits",
            ProtoRule::SiTarget => "si-target",
            ProtoRule::DirShadow => "dir-shadow",
            ProtoRule::MsgTarget => "msg-target",
            ProtoRule::CopyShadow => "copy-shadow",
        }
    }

    /// Every dynamic rule, in id order (used by `check --explain` coverage).
    pub const ALL: [ProtoRule; 9] = [
        ProtoRule::Swmr,
        ProtoRule::SharerSet,
        ProtoRule::SharedWithOwner,
        ProtoRule::MshrLeak,
        ProtoRule::FutureBits,
        ProtoRule::SiTarget,
        ProtoRule::DirShadow,
        ProtoRule::MsgTarget,
        ProtoRule::CopyShadow,
    ];

    /// One-paragraph catalogue entry for `check --explain`; same text as
    /// `docs/static-analysis.md`.
    pub fn explain(self) -> &'static str {
        match self {
            ProtoRule::Swmr => {
                "An exclusive (writable) copy was granted while another node \
                 still held a coherent copy — a single-writer/multiple-reader \
                 violation, the core invariant of the invalidation protocol."
            }
            ProtoRule::SharerSet => {
                "At quiescence, the directory's sharing list disagrees with \
                 the copies actually cached at the nodes. In flight the \
                 directory's view may lag; once traffic drains, the two must \
                 agree exactly."
            }
            ProtoRule::SharedWithOwner => {
                "A coherent shared copy coexists with an exclusive copy at \
                 another node — readers observing a line someone else may be \
                 writing."
            }
            ProtoRule::MshrLeak => {
                "An MSHR was leaked, double-allocated, or freed without \
                 allocation. Every miss-status register must be retired \
                 exactly once per allocation."
            }
            ProtoRule::FutureBits => {
                "Self-invalidation (future-sharer) state exists for a line no \
                 transparent load ever touched. §4 of the paper derives SI \
                 state only from the A-stream's transparent loads."
            }
            ProtoRule::SiTarget => {
                "A self-invalidation hint was sent to a node the directory \
                 does not believe is the exclusive owner; SI hints must target \
                 only the current owner."
            }
            ProtoRule::DirShadow => {
                "A directory transition's observed pre-state disagrees with \
                 the checker's shadow — a missed or misordered trace hook \
                 (checker self-test rule)."
            }
            ProtoRule::MsgTarget => {
                "An invalidation or intervention was sent to a node that \
                 cannot hold the line per the directory's own state — wasted \
                 or wrong coherence traffic."
            }
            ProtoRule::CopyShadow => {
                "An L2 evict/invalidate/downgrade arrived for a copy the \
                 shadow never saw filled — the checker's copy set and the \
                 simulator's diverged."
            }
        }
    }
}

impl fmt::Display for ProtoRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// One invariant violation observed during a checked run.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant.
    pub rule: ProtoRule,
    /// Cycle the violation was observed at (0 for quiescence checks).
    pub cycle: u64,
    /// Line involved, if any.
    pub line: Option<u64>,
    /// Node involved, if any.
    pub node: Option<u16>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rule)?;
        if self.cycle > 0 {
            write!(f, " @{}", self.cycle)?;
        }
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        if let Some(l) = self.line {
            write!(f, " line {l:#x}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Violation {
    /// Renders the violation as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"rule\":\"");
        s.push_str(self.rule.id());
        s.push_str("\",\"name\":\"");
        s.push_str(self.rule.name());
        s.push_str(&format!("\",\"cycle\":{}", self.cycle));
        if let Some(l) = self.line {
            s.push_str(&format!(",\"line\":{l}"));
        }
        if let Some(n) = self.node {
            s.push_str(&format!(",\"node\":{n}"));
        }
        s.push_str(",\"message\":\"");
        s.push_str(&json_escape(&self.message));
        s.push_str("\"}");
        s
    }
}

/// Observation counts, so a clean report still shows the checker saw a
/// meaningful amount of protocol traffic.
#[derive(Debug, Default, Clone)]
pub struct CheckCounts {
    /// L2 fills observed (coherent + transparent).
    pub fills: u64,
    /// Directory permission transitions observed.
    pub dir_transitions: u64,
    /// Invalidations + interventions observed.
    pub coherence_msgs: u64,
    /// L2 evictions observed.
    pub evictions: u64,
    /// MSHR allocations observed.
    pub mshr_allocs: u64,
    /// Transparent replies/upgrades + SI hints/actions observed.
    pub si_events: u64,
}

/// The outcome of a checked run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Violations, in observation order (quiescence checks last).
    pub violations: Vec<Violation>,
    /// Violations beyond the reporting cap (counted, not stored).
    pub suppressed: u64,
    /// Observation counts.
    pub counts: CheckCounts,
    /// Distinct lines the checker tracked.
    pub lines_tracked: usize,
}

impl CheckReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} violation(s) ({} suppressed); tracked {} lines, {} fills, \
             {} dir transitions, {} coherence msgs, {} evictions, {} mshr allocs, {} si events",
            self.violations.len(),
            self.suppressed,
            self.lines_tracked,
            self.counts.fills,
            self.counts.dir_transitions,
            self.counts.coherence_msgs,
            self.counts.evictions,
            self.counts.mshr_allocs,
            self.counts.si_events,
        )
    }
}

/// Per-line shadow of which nodes actually hold copies.
#[derive(Default, Clone)]
struct Copies {
    /// Node holding the line exclusively, if any.
    excl: Option<u16>,
    /// Nodes with coherent shared copies.
    shared: SharerSet,
    /// Nodes with transparent (coherence-invisible) copies. Transparent
    /// fills the L2 drops are still recorded (over-approximation): stale
    /// bits only ever suppress PC009, never create a violation.
    transparent: SharerSet,
}

const MAX_VIOLATIONS: usize = 100;

#[derive(Default)]
struct ProtoState {
    dir: FxHashMap<u64, TracePerm>,
    copies: FxHashMap<u64, Copies>,
    /// Lines with observed transparent activity (never cleared: an
    /// over-approximation that keeps PC005 free of false positives).
    transparent_lines: FxHashMap<u64, ()>,
    /// Outstanding MSHRs as `(node, line)`.
    mshrs: FxHashMap<(u16, u64), ()>,
    violations: Vec<Violation>,
    suppressed: u64,
    counts: CheckCounts,
}

impl ProtoState {
    fn report(
        &mut self,
        rule: ProtoRule,
        now: Cycle,
        line: Option<LineAddr>,
        node: Option<NodeId>,
        message: String,
    ) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            rule,
            cycle: now.0,
            line: line.map(|l| l.0),
            node: node.map(|n| n.0),
            message,
        });
    }

    fn shadow_dir(&self, line: LineAddr) -> TracePerm {
        self.dir.get(&line.0).cloned().unwrap_or(TracePerm::Uncached)
    }

    fn fill(&mut self, now: Cycle, node: NodeId, line: LineAddr, excl: bool, transparent: bool) {
        self.counts.fills += 1;
        let c = self.copies.entry(line.0).or_default();
        if transparent {
            c.transparent.insert(node);
            return;
        }
        if excl {
            let foreign_shared = c.shared.any_except(node);
            let foreign_excl = c.excl.filter(|&o| o != node.0);
            if foreign_shared || foreign_excl.is_some() {
                let msg = format!(
                    "exclusive fill while other coherent copies exist \
                     (excl={:?}, shared={:?})",
                    c.excl, c.shared
                );
                self.report(ProtoRule::Swmr, now, Some(line), Some(node), msg);
                let c = self.copies.entry(line.0).or_default();
                c.shared.clear();
                c.excl = None;
            }
            let c = self.copies.entry(line.0).or_default();
            c.excl = Some(node.0);
            c.shared.remove(node);
            c.transparent.remove(node);
        } else {
            if let Some(o) = c.excl.filter(|&o| o != node.0) {
                self.report(
                    ProtoRule::SharedWithOwner,
                    now,
                    Some(line),
                    Some(node),
                    format!("shared fill while node {o} holds the line exclusively"),
                );
            }
            let c = self.copies.entry(line.0).or_default();
            if c.excl == Some(node.0) {
                c.excl = None; // defensive resync; a hit would not have missed
            }
            c.shared.insert(node);
            c.transparent.remove(node);
        }
    }

    fn l2_evict(&mut self, now: Cycle, node: NodeId, line: LineAddr, dirty: bool, transparent: bool) {
        self.counts.evictions += 1;
        let c = self.copies.entry(line.0).or_default();
        if transparent {
            // Dropped transparent fills leave stale shadow bits, so absence
            // is not reportable; presence is simply cleared.
            c.transparent.remove(node);
            return;
        }
        if c.excl == Some(node.0) {
            c.excl = None;
        } else if c.shared.contains(node) {
            c.shared.remove(node);
            if dirty {
                self.report(
                    ProtoRule::CopyShadow,
                    now,
                    Some(line),
                    Some(node),
                    "dirty writeback evicted from a copy the shadow saw as shared".to_string(),
                );
            }
        } else {
            self.report(
                ProtoRule::CopyShadow,
                now,
                Some(line),
                Some(node),
                "eviction of a coherent copy the shadow never saw filled".to_string(),
            );
        }
    }

    fn l2_invalidate(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        let c = self.copies.entry(line.0).or_default();
        let had =
            c.excl == Some(node.0) || c.shared.contains(node) || c.transparent.contains(node);
        if c.excl == Some(node.0) {
            c.excl = None;
        }
        c.shared.remove(node);
        c.transparent.remove(node);
        if !had {
            self.report(
                ProtoRule::CopyShadow,
                now,
                Some(line),
                Some(node),
                "invalidation dropped a copy the shadow never saw filled".to_string(),
            );
        }
    }

    fn l2_downgrade(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        let c = self.copies.entry(line.0).or_default();
        if c.excl == Some(node.0) {
            c.excl = None;
            c.shared.insert(node);
        } else {
            self.report(
                ProtoRule::CopyShadow,
                now,
                Some(line),
                Some(node),
                "downgrade of a copy the shadow does not see as exclusive".to_string(),
            );
        }
    }

    fn dir_transition(
        &mut self,
        now: Cycle,
        line: LineAddr,
        from: &TracePerm,
        to: &TracePerm,
        requester: NodeId,
    ) {
        self.counts.dir_transitions += 1;
        let shadow = self.shadow_dir(line);
        if shadow != *from {
            self.report(
                ProtoRule::DirShadow,
                now,
                Some(line),
                Some(requester),
                format!("directory pre-state {from:?} disagrees with shadow {shadow:?}"),
            );
        }
        if matches!(to, TracePerm::Uncached) {
            self.dir.remove(&line.0);
        } else {
            self.dir.insert(line.0, to.clone());
        }
    }

    fn invalidation(&mut self, now: Cycle, line: LineAddr, target: NodeId) {
        self.counts.coherence_msgs += 1;
        match self.shadow_dir(line) {
            // Under limited-pointer overflow the directory broadcasts, so
            // any target is legitimate.
            TracePerm::Shared { sharers, overflow } if overflow || sharers.contains(target) => {}
            other => self.report(
                ProtoRule::MsgTarget,
                now,
                Some(line),
                Some(target),
                format!("invalidation sent to a node outside the sharing list ({other:?})"),
            ),
        }
    }

    fn intervention(&mut self, now: Cycle, line: LineAddr, owner: NodeId) {
        self.counts.coherence_msgs += 1;
        match self.shadow_dir(line) {
            TracePerm::Excl { owner: o } if o == owner => {}
            other => self.report(
                ProtoRule::MsgTarget,
                now,
                Some(line),
                Some(owner),
                format!("intervention sent to a non-owner ({other:?})"),
            ),
        }
    }

    fn si_hint(&mut self, now: Cycle, line: LineAddr, owner: NodeId) {
        self.counts.si_events += 1;
        match self.shadow_dir(line) {
            TracePerm::Excl { owner: o } if o == owner => {}
            other => self.report(
                ProtoRule::SiTarget,
                now,
                Some(line),
                Some(owner),
                format!("SI hint sent to a node that is not the exclusive owner ({other:?})"),
            ),
        }
        if !self.transparent_lines.contains_key(&line.0) {
            self.report(
                ProtoRule::FutureBits,
                now,
                Some(line),
                Some(owner),
                "SI hint for a line no transparent load ever touched".to_string(),
            );
        }
    }

    fn si_action(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        self.counts.si_events += 1;
        if !self.transparent_lines.contains_key(&line.0) {
            self.report(
                ProtoRule::FutureBits,
                now,
                Some(line),
                Some(node),
                "self-invalidation of a line no transparent load ever touched".to_string(),
            );
        }
    }

    fn mshr_alloc(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        self.counts.mshr_allocs += 1;
        if self.mshrs.insert((node.0, line.0), ()).is_some() {
            self.report(
                ProtoRule::MshrLeak,
                now,
                Some(line),
                Some(node),
                "MSHR allocated twice without an intervening retire".to_string(),
            );
        }
    }

    fn mshr_free(&mut self, now: Cycle, node: NodeId, line: LineAddr) {
        if self.mshrs.remove(&(node.0, line.0)).is_none() {
            self.report(
                ProtoRule::MshrLeak,
                now,
                Some(line),
                Some(node),
                "MSHR retired that was never observed allocated".to_string(),
            );
        }
    }

    /// Quiescence checks: run after the simulation fully drains.
    fn finish(mut self) -> CheckReport {
        if !self.mshrs.is_empty() {
            let mut sample: Vec<(u16, u64)> = self.mshrs.keys().copied().collect();
            sample.sort_unstable();
            let (node, line) = sample[0];
            let n = sample.len();
            self.report(
                ProtoRule::MshrLeak,
                Cycle(0),
                Some(LineAddr(line)),
                Some(NodeId(node)),
                format!("{n} MSHR(s) still outstanding at quiescence"),
            );
        }
        let mut lines: Vec<u64> = self
            .dir
            .keys()
            .chain(self.copies.keys())
            .copied()
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let lines_tracked = lines.len();
        for l in lines {
            let dir = self.shadow_dir(LineAddr(l));
            let c = self.copies.get(&l).cloned().unwrap_or_default();
            let consistent = match &dir {
                TracePerm::Uncached => c.excl.is_none() && c.shared.is_empty(),
                // An overflowed limited-pointer entry tracks only a subset
                // of the sharers, so exact set equality cannot hold; the
                // invariant that remains is that nobody owns the line.
                TracePerm::Shared { sharers, overflow } => {
                    c.excl.is_none() && (*overflow || c.shared == *sharers)
                }
                TracePerm::Excl { owner } => c.excl == Some(owner.0) && c.shared.is_empty(),
            };
            if !consistent {
                self.report(
                    ProtoRule::SharerSet,
                    Cycle(0),
                    Some(LineAddr(l)),
                    None,
                    format!(
                        "at quiescence directory says {dir:?} but cached copies are \
                         excl={:?} shared={:?}",
                        c.excl, c.shared
                    ),
                );
            }
        }
        CheckReport {
            violations: self.violations,
            suppressed: self.suppressed,
            counts: self.counts,
            lines_tracked,
        }
    }
}

/// The tracer half: dispatches every observation to the shared state.
/// Installed into the memory system via
/// [`slipstream_core::run_full_with_tracer`].
pub struct CheckTracer {
    state: Rc<RefCell<ProtoState>>,
}

impl fmt::Debug for CheckTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CheckTracer")
    }
}

impl MemTracer for CheckTracer {
    fn on(&mut self, now: Cycle, ev: &MemObs) {
        let mut s = self.state.borrow_mut();
        match *ev {
            // Every invariant is expressible over fills and protocol
            // messages. `Access` is the hottest observation: ignoring it
            // holds checked-run overhead under the 10% budget.
            MemObs::Access { .. } | MemObs::Writeback { .. } | MemObs::Sync { .. } => {}
            MemObs::Fill { node, line, excl, transparent } => {
                s.fill(now, node, line, excl, transparent);
            }
            MemObs::DirTransition { line, ref from, ref to, requester } => {
                s.dir_transition(now, line, from, to, requester);
            }
            MemObs::Intervention { line, owner, .. } => s.intervention(now, line, owner),
            MemObs::Invalidation { line, target } => s.invalidation(now, line, target),
            MemObs::SiHint { line, owner } => s.si_hint(now, line, owner),
            MemObs::SiAction { node, line, .. } => s.si_action(now, node, line),
            MemObs::TransparentUpgrade { line, .. } | MemObs::TransparentReply { line, .. } => {
                s.counts.si_events += 1;
                s.transparent_lines.insert(line.0, ());
            }
            MemObs::L2Evict { node, line, dirty, transparent } => {
                s.l2_evict(now, node, line, dirty, transparent);
            }
            MemObs::L2Invalidate { node, line } => s.l2_invalidate(now, node, line),
            MemObs::L2Downgrade { node, line } => s.l2_downgrade(now, node, line),
            MemObs::MshrAlloc { node, line } => s.mshr_alloc(now, node, line),
            MemObs::MshrFree { node, line } => s.mshr_free(now, node, line),
        }
    }
}

/// The handle half: create with [`ProtocolChecker::new`], install the
/// returned tracer into a run, then call [`ProtocolChecker::finish`].
pub struct ProtocolChecker {
    state: Rc<RefCell<ProtoState>>,
}

impl ProtocolChecker {
    /// Creates a checker and the tracer to install into the run.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (ProtocolChecker, Box<dyn MemTracer>) {
        let state = Rc::new(RefCell::new(ProtoState::default()));
        let tracer = Box::new(CheckTracer { state: Rc::clone(&state) });
        (ProtocolChecker { state }, tracer)
    }

    /// Runs the quiescence checks and returns the report. Call only after
    /// the simulation has completed (the machine asserts quiescence on
    /// teardown).
    pub fn finish(self) -> CheckReport {
        let state = Rc::try_unwrap(self.state)
            .map(RefCell::into_inner)
            .unwrap_or_else(|rc| rc.borrow().clone_for_report());
        state.finish()
    }
}

impl ProtoState {
    /// Fallback when the tracer is still alive at `finish` time (it never
    /// is in practice: the machine drops its tracer on teardown).
    fn clone_for_report(&self) -> ProtoState {
        ProtoState {
            dir: self.dir.clone(),
            copies: self.copies.clone(),
            transparent_lines: self.transparent_lines.clone(),
            mshrs: self.mshrs.clone(),
            violations: self.violations.clone(),
            suppressed: self.suppressed,
            counts: self.counts.clone(),
        }
    }
}

/// Runs `workload` under `spec` with the protocol checker attached.
/// The [`RunResult`] is bit-identical to an unchecked run.
pub fn run_checked(workload: &dyn Workload, spec: &RunSpec) -> (RunResult, CheckReport) {
    let (checker, tracer) = ProtocolChecker::new();
    let result = slipstream_core::run_full_with_tracer(workload, spec, tracer).result;
    (result, checker.finish())
}
