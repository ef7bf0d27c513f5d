//! Typed diagnostics for the static program verifier.
//!
//! Every finding carries a stable rule id (`SC001`..`SC012`, catalogued in
//! `docs/static-analysis.md`), a severity, and — where meaningful — the
//! task and per-task operation index the finding anchors to. Diagnostics
//! render to one human-readable line or to a JSON object; the `check`
//! binary exits nonzero when any `Error`-severity diagnostic is present.

use std::fmt;

/// How bad a finding is. `Error` findings fail the `check` binary;
/// `Warning` findings are reported but do not affect the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wrong (e.g. leftover event posts).
    Warning,
    /// A contract violation: the program is not properly synchronized or
    /// its layout is inconsistent.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The verifier's rule catalogue. Stable ids; see `docs/static-analysis.md`
/// for the full description and the paper sections each rule protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// SC001: two tasks access the same `Space::Shared` address without a
    /// happens-before ordering, at least one of them writing.
    SharedRace,
    /// SC002: a `Space::Private` address owned by one instance is touched
    /// by a different task/instance.
    PrivateIsolation,
    /// SC003: tasks disagree on barrier participation (different arrival
    /// counts or ids), deadlocking or silently merging generations.
    BarrierMismatch,
    /// SC004: a task arrives at a barrier while holding a lock.
    LockAcrossBarrier,
    /// SC005: `Unlock` of a lock the task does not hold.
    UnlockWithoutLock,
    /// SC006: a task ends (or deadlocks the program) with locks held.
    LeakedLock,
    /// SC007: `EventWait` with no matching `EventPost` (error), or posts
    /// left unconsumed at program end (warning).
    UnbalancedEvents,
    /// SC008: two layout regions overlap.
    LayoutOverlap,
    /// SC009: an access's declared `Space` disagrees with the layout
    /// region containing its address.
    SpaceMismatch,
    /// SC010: the task set cannot make progress (lock cycle, self-deadlock,
    /// or a block not attributable to SC003/SC007).
    SyncDeadlock,
    /// SC011: an access to an address outside every layout region.
    UnmappedAddress,
    /// SC012: a slipstream A-instance program diverges from its R-instance
    /// (shared addresses or sync structure depend on the instance).
    InstanceDivergence,
    /// SC013: Eraser-style lockset violation — within one barrier phase, a
    /// shared address is accessed by multiple tasks (at least one writing,
    /// at least one access lock-protected) with no lock common to all of
    /// the phase's accesses. Unlike SC001, this is independent of the
    /// schedule the verifier happened to explore.
    LocksetRace,
    /// SC014: the acquired-while-holding relation contains a cycle — a
    /// potential deadlock SC010's progress check can only observe when the
    /// explored schedule actually wedges.
    LockOrderCycle,
    /// SC015: a generated program does not match its declared
    /// `PatternSpec` contract (sharer counts, migration hops, false-sharing
    /// line co-residency, sync structure).
    PatternContract,
    /// SP001: two or more tasks write distinct words of the same cache
    /// line — false sharing; the line ping-pongs even though no word is
    /// actually shared.
    FalseSharing,
    /// SP002: a read-mostly region (reads ≥ 4× writes, ≥ 2 reader tasks)
    /// is written in a phase where other tasks are concurrently reading
    /// it, invalidating many cached copies at once.
    ReadMostlyWrite,
    /// SP003: three or more tasks read-modify-write the same line under a
    /// common lock — migratory data whose exclusive copy serializes behind
    /// lock contention.
    ContendedMigratory,
    /// SP004: a task re-reads a multi-task line in a later barrier phase
    /// with no intervening write — self-invalidation would discard a copy
    /// that was still valid (an SI misfire, §4).
    SiHostile,
    /// SP005: under a limited-pointer directory, a written line has more
    /// accessor tasks than the directory has pointers — every invalidation
    /// becomes a broadcast.
    BroadcastOverflow,
    /// SP006: a barrier phase whose per-task static cost is strongly
    /// imbalanced; the barrier makes every task wait for the slowest.
    LoadImbalance,
}

impl Rule {
    /// Stable rule id, e.g. `"SC001"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::SharedRace => "SC001",
            Rule::PrivateIsolation => "SC002",
            Rule::BarrierMismatch => "SC003",
            Rule::LockAcrossBarrier => "SC004",
            Rule::UnlockWithoutLock => "SC005",
            Rule::LeakedLock => "SC006",
            Rule::UnbalancedEvents => "SC007",
            Rule::LayoutOverlap => "SC008",
            Rule::SpaceMismatch => "SC009",
            Rule::SyncDeadlock => "SC010",
            Rule::UnmappedAddress => "SC011",
            Rule::InstanceDivergence => "SC012",
            Rule::LocksetRace => "SC013",
            Rule::LockOrderCycle => "SC014",
            Rule::PatternContract => "SC015",
            Rule::FalseSharing => "SP001",
            Rule::ReadMostlyWrite => "SP002",
            Rule::ContendedMigratory => "SP003",
            Rule::SiHostile => "SP004",
            Rule::BroadcastOverflow => "SP005",
            Rule::LoadImbalance => "SP006",
        }
    }

    /// Short kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SharedRace => "shared-data-race",
            Rule::PrivateIsolation => "private-isolation",
            Rule::BarrierMismatch => "barrier-mismatch",
            Rule::LockAcrossBarrier => "lock-across-barrier",
            Rule::UnlockWithoutLock => "unlock-without-lock",
            Rule::LeakedLock => "leaked-lock",
            Rule::UnbalancedEvents => "unbalanced-events",
            Rule::LayoutOverlap => "layout-overlap",
            Rule::SpaceMismatch => "space-mismatch",
            Rule::SyncDeadlock => "sync-deadlock",
            Rule::UnmappedAddress => "unmapped-address",
            Rule::InstanceDivergence => "instance-divergence",
            Rule::LocksetRace => "lockset-race",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::PatternContract => "pattern-contract",
            Rule::FalseSharing => "false-sharing",
            Rule::ReadMostlyWrite => "read-mostly-write",
            Rule::ContendedMigratory => "contended-migratory",
            Rule::SiHostile => "si-hostile",
            Rule::BroadcastOverflow => "broadcast-overflow",
            Rule::LoadImbalance => "load-imbalance",
        }
    }

    /// Every static rule, in id order (`check --explain` looks codes up
    /// here, and the generator's `Mutation::ALL` plants one defect per
    /// entry). `SC*` rules are correctness (error-severity) rules from the
    /// verifier; `SP*` rules are performance lints (warning-severity) from
    /// the sharing analyzer.
    pub const ALL: [Rule; 21] = [
        Rule::SharedRace,
        Rule::PrivateIsolation,
        Rule::BarrierMismatch,
        Rule::LockAcrossBarrier,
        Rule::UnlockWithoutLock,
        Rule::LeakedLock,
        Rule::UnbalancedEvents,
        Rule::LayoutOverlap,
        Rule::SpaceMismatch,
        Rule::SyncDeadlock,
        Rule::UnmappedAddress,
        Rule::InstanceDivergence,
        Rule::LocksetRace,
        Rule::LockOrderCycle,
        Rule::PatternContract,
        Rule::FalseSharing,
        Rule::ReadMostlyWrite,
        Rule::ContendedMigratory,
        Rule::SiHostile,
        Rule::BroadcastOverflow,
        Rule::LoadImbalance,
    ];

    /// One-paragraph catalogue entry for `check --explain`: what the rule
    /// detects, why it matters for the paper's argument, and what to do
    /// about it. The same text backs `docs/static-analysis.md`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::SharedRace => {
                "Two tasks access the same Space::Shared address without a \
                 happens-before ordering (via barriers, locks, or events), at \
                 least one of them writing. The program is racy: simulated \
                 results depend on the schedule and the paper's A-stream safety \
                 argument (§3.2) does not apply. Order the accesses with a \
                 barrier or protect them with a common lock."
            }
            Rule::PrivateIsolation => {
                "A Space::Private address owned by one instance is touched by a \
                 different task or instance. Private regions are per-instance by \
                 construction; crossing them means the layout or the program \
                 generator is wrong."
            }
            Rule::BarrierMismatch => {
                "Tasks disagree on barrier participation — different arrival \
                 counts or different barrier ids at the same rendezvous. The run \
                 would deadlock or silently merge generations. Every task must \
                 arrive at every barrier in the same order."
            }
            Rule::LockAcrossBarrier => {
                "A task arrives at a barrier while holding a lock. Any other \
                 task that needs the lock before its own arrival deadlocks the \
                 phase. Release locks before barrier arrival."
            }
            Rule::UnlockWithoutLock => {
                "Unlock of a lock the task does not hold. Lock/Unlock must nest \
                 per task; this is a generator or program bug."
            }
            Rule::LeakedLock => {
                "A task ends (or wedges the program) with locks still held, \
                 blocking every other contender forever. Balance each Lock with \
                 an Unlock on all paths."
            }
            Rule::UnbalancedEvents => {
                "EventWait with no matching EventPost (error: the waiter blocks \
                 forever), or posts left unconsumed at program end (warning: \
                 harmless but suspicious). Pair posts and waits one to one."
            }
            Rule::LayoutOverlap => {
                "Two layout regions overlap in the address space. All footprint \
                 and coherence reasoning assumes disjoint regions; overlapping \
                 regions make sharing classes and space checks meaningless."
            }
            Rule::SpaceMismatch => {
                "An access's declared Space disagrees with the layout region \
                 containing its address (e.g. a Space::Private load into a \
                 shared region). The access would be simulated under the wrong \
                 coherence rules."
            }
            Rule::SyncDeadlock => {
                "The task set cannot make progress: a lock cycle, self-deadlock, \
                 or a wedge not attributable to SC003/SC007. The verifier's \
                 cooperative scheduler ran out of runnable tasks before all \
                 programs finished."
            }
            Rule::UnmappedAddress => {
                "An access to an address outside every layout region. The \
                 simulator would fault or silently allocate; the program and \
                 its layout are out of sync."
            }
            Rule::InstanceDivergence => {
                "A slipstream A-instance program diverges from its R-instance: \
                 shared addresses or synchronization structure depend on the \
                 instance id. The A-stream may only elide work (DivergeInA), \
                 never change the shared skeleton — otherwise its prefetches \
                 and the kill/refork recovery are unsound."
            }
            Rule::LocksetRace => {
                "Eraser-style lockset violation: within one barrier phase, a \
                 shared address is accessed by multiple tasks (at least one \
                 writing, at least one access lock-protected) with no lock \
                 common to all of the phase's accesses. Unlike SC001 this is \
                 schedule-independent: no interleaving makes the locking \
                 discipline consistent."
            }
            Rule::LockOrderCycle => {
                "The acquired-while-holding relation contains a cycle (task A \
                 takes L1 then L2, task B takes L2 then L1). A potential \
                 deadlock that SC010's progress check only observes when the \
                 explored schedule actually wedges. Impose a global lock order."
            }
            Rule::PatternContract => {
                "A generated program does not match its declared PatternSpec \
                 contract — sharer counts, migration hops, false-sharing line \
                 co-residency, or sync structure drifted from what the spec \
                 promises. The generator and its contract checker are out of \
                 sync."
            }
            Rule::FalseSharing => {
                "Two or more tasks write distinct words of the same cache line. \
                 No word is actually shared, but the coherence protocol tracks \
                 ownership per line, so every write invalidates the other \
                 writers' copies and the line ping-pongs (the paper's \
                 false-sharing class, Figure 7 context). Pad or realign the data \
                 so each task's words live on their own lines."
            }
            Rule::ReadMostlyWrite => {
                "A read-mostly region (reads ≥ 4× writes, ≥ 2 reader tasks) is \
                 written during a phase in which other tasks are reading it. One \
                 such write invalidates every cached copy and forces a miss \
                 storm on the next reads. Hoist the write into its own phase or \
                 replicate the data."
            }
            Rule::ContendedMigratory => {
                "Three or more tasks read-modify-write the same line under a \
                 common lock. The data is migratory — the exclusive copy hops \
                 from owner to owner — and with this many contenders the lock \
                 serializes the whole chain. Consider partitioning the counter \
                 or batching updates locally."
            }
            Rule::SiHostile => {
                "A task re-reads a line that multiple tasks access, in a later \
                 barrier phase, with no write to the line in between. \
                 Self-invalidation (§4) drops shared copies at phase \
                 boundaries on the bet they are stale; here the copy was still \
                 valid, so SI converts a cache hit into a needless re-fetch. \
                 Expect slipstream+si to hurt this access pattern."
            }
            Rule::BroadcastOverflow => {
                "Under a limited-pointer directory, a written line has more \
                 accessor tasks than the directory has pointers. The sharer set \
                 overflows and every invalidation becomes a broadcast to all \
                 nodes. Expect invalidation traffic to scale with machine size, \
                 not sharer count (see the dir-scheme ablation)."
            }
            Rule::LoadImbalance => {
                "A barrier phase whose per-task static cost (compute cycles \
                 plus a per-access charge) is strongly imbalanced — the \
                 heaviest task costs at least twice the lightest, by a \
                 non-trivial absolute margin. The barrier makes every task wait \
                 for the slowest; the phase's speedup is capped by the heaviest \
                 task."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error vs. warning.
    pub severity: Severity,
    /// Which rule fired.
    pub rule: Rule,
    /// Task index the finding anchors to, if any.
    pub task: Option<usize>,
    /// Zero-based index of the op within that task's program, if any.
    pub op_index: Option<u64>,
    /// Byte address involved, if any.
    pub addr: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An `Error`-severity diagnostic.
    pub fn error(rule: Rule, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            rule,
            task: None,
            op_index: None,
            addr: None,
            message: message.into(),
        }
    }

    /// A `Warning`-severity diagnostic.
    pub fn warning(rule: Rule, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(rule, message) }
    }

    /// Attaches the task index.
    pub fn at_task(mut self, task: usize) -> Diagnostic {
        self.task = Some(task);
        self
    }

    /// Attaches the per-task op index.
    pub fn at_op(mut self, op_index: u64) -> Diagnostic {
        self.op_index = Some(op_index);
        self
    }

    /// Attaches the byte address.
    pub fn at_addr(mut self, addr: u64) -> Diagnostic {
        self.addr = Some(addr);
        self
    }

    /// Renders the diagnostic as one JSON object (hand-rolled, like the
    /// rest of the workspace: no external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"severity\":\"");
        s.push_str(&self.severity.to_string());
        s.push_str("\",\"rule\":\"");
        s.push_str(self.rule.id());
        s.push_str("\",\"name\":\"");
        s.push_str(self.rule.name());
        s.push('"');
        if let Some(t) = self.task {
            s.push_str(&format!(",\"task\":{t}"));
        }
        if let Some(i) = self.op_index {
            s.push_str(&format!(",\"op_index\":{i}"));
        }
        if let Some(a) = self.addr {
            s.push_str(&format!(",\"addr\":{a}"));
        }
        s.push_str(",\"message\":\"");
        s.push_str(&json_escape(&self.message));
        s.push_str("\"}");
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.rule)?;
        if let Some(t) = self.task {
            write!(f, " task {t}")?;
        }
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        if let Some(a) = self.addr {
            write!(f, " addr {a:#x}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// True when any diagnostic has `Error` severity (the `check` binary's
/// exit criterion).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_json_round_trip_fields() {
        let d = Diagnostic::error(Rule::SharedRace, "t0 store vs t1 load")
            .at_task(1)
            .at_op(42)
            .at_addr(0x1040);
        let line = d.to_string();
        assert!(line.contains("SC001"));
        assert!(line.contains("task 1"));
        assert!(line.contains("op 42"));
        let json = d.to_json();
        assert!(json.contains("\"rule\":\"SC001\""));
        assert!(json.contains("\"task\":1"));
        assert!(json.contains("\"op_index\":42"));
        assert!(json.contains("\"addr\":4160"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn error_detection() {
        let w = Diagnostic::warning(Rule::UnbalancedEvents, "2 posts left");
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error(Rule::LeakedLock, "lock 3 held at end");
        assert!(has_errors(&[w, e]));
    }
}
