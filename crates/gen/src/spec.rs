//! Typed pattern specifications.
//!
//! A [`PatternSpec`] fully determines a generated program set given a seed
//! and a task count: the corpus is reproducible from `(seed, spec)` alone.
//! Every spec also knows the structural [`PatternContract`] its programs
//! must satisfy (rule SC015), so the generator is checked against its own
//! declaration, not just against generic race/sync rules.

use slipstream_check::{ContractItem, PatternContract};
use slipstream_kernel::SplitMix64;

/// Coherence line granularity used by all generated patterns (matches the
/// machine configurations' `line_bytes`).
pub const LINE: u64 = 64;

/// The six sharing patterns the generator emits, spanning the axes that
/// drive CMP sharing-miss behaviour: who writes, who reads, at what
/// granularity, and under which synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Neighbour hand-off: each task produces a segment, posts an event,
    /// and consumes the previous task's segment (pairwise flags).
    ProducerConsumer,
    /// Lock-protected records touched read-modify-write by every task in
    /// turn — the classic migratory lines.
    Migratory,
    /// Distinct words of one line written by different tasks: line
    /// ping-pong with no data-level sharing at all.
    FalseSharing,
    /// One rotating writer per phase, everyone else re-reads the table.
    ReadMostly,
    /// A seeded mix of lock phases (nested and single critical sections)
    /// and barrier phases — lock-heavy vs barrier-heavy along one axis.
    SyncHeavy,
    /// Read-mostly laced with `DivergeInA` ops, exercising slipstream's
    /// kill/refork recovery path.
    DivergeLaced,
}

impl Pattern {
    /// All patterns, in corpus round-robin order.
    pub const ALL: [Pattern; 6] = [
        Pattern::ProducerConsumer,
        Pattern::Migratory,
        Pattern::FalseSharing,
        Pattern::ReadMostly,
        Pattern::SyncHeavy,
        Pattern::DivergeLaced,
    ];

    /// Short stable key used in workload names and reports.
    pub fn key(self) -> &'static str {
        match self {
            Pattern::ProducerConsumer => "pc",
            Pattern::Migratory => "mig",
            Pattern::FalseSharing => "fs",
            Pattern::ReadMostly => "rm",
            Pattern::SyncHeavy => "sync",
            Pattern::DivergeLaced => "div",
        }
    }

    /// Inverse of [`Pattern::key`].
    pub fn from_key(key: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| p.key() == key)
    }
}

/// The parameter axes of one generated program set.
///
/// Ranges are deliberately small: generated programs are quick-suite
/// sized so the full differential pipeline (4 simulated modes per
/// program) stays fast enough to run over hundreds of programs in CI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSpec {
    /// Which sharing pattern.
    pub pattern: Pattern,
    /// Outer repetitions of the pattern's phase structure (2..=4).
    pub rounds: u32,
    /// Lines per shared segment/table (1..=3).
    pub lines: u32,
    /// Tasks falsely sharing one line (2..=4; capped at 8 words/line).
    pub sharers: u32,
    /// Lock-protected records / counters (2..=4).
    pub locks: u32,
    /// Percentage of sync-heavy phases that are lock phases (0..=100).
    pub lock_mix_pct: u32,
    /// Re-reads of shared data per round (2..=4).
    pub reads_per_round: u32,
    /// Compute cycles between memory phases (5..=40).
    pub compute: u32,
    /// Wrong-path cycles per `DivergeInA` op (50_000..=200_000 — large
    /// enough that the A-stream reliably falls behind its R-stream within
    /// one session, forcing the kill/refork path).
    pub diverge_cycles: u32,
    /// Private scratch lines per instance (1..=2).
    pub private_lines: u32,
}

fn pick(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.next_below((hi - lo + 1) as u64) as u32
}

impl PatternSpec {
    /// Samples a spec for `pattern` from `rng`. Every parameter is drawn
    /// even when the pattern ignores it, so the spec (and everything
    /// derived from the same rng afterwards) is stable across patterns.
    pub fn sample(pattern: Pattern, rng: &mut SplitMix64) -> PatternSpec {
        PatternSpec {
            pattern,
            rounds: pick(rng, 2, 4),
            lines: pick(rng, 1, 3),
            sharers: pick(rng, 2, 4),
            locks: pick(rng, 2, 4),
            lock_mix_pct: pick(rng, 0, 100),
            reads_per_round: pick(rng, 2, 4),
            compute: pick(rng, 5, 40),
            diverge_cycles: pick(rng, 50_000, 200_000),
            private_lines: pick(rng, 1, 2),
        }
    }

    /// Number of sync-heavy phases (two per round: the axis runs from
    /// all-barrier to all-lock as `lock_mix_pct` grows).
    pub fn sync_phases(&self) -> u32 {
        self.rounds * 2
    }

    /// How many of the sync-heavy phases are lock phases, given the
    /// per-program phase script seed (see `patterns::phase_script`).
    pub fn lock_phase_count(&self, seed: u64) -> u32 {
        crate::patterns::phase_script(self, seed).iter().filter(|&&l| l).count() as u32
    }

    /// The structural contract programs generated from this spec for
    /// `ntasks` tasks must satisfy (checked as rule SC015). `seed` must be
    /// the same seed the programs were generated from (the sync-heavy
    /// phase script depends on it).
    pub fn contract(&self, seed: u64, ntasks: usize) -> PatternContract {
        let n = ntasks as u64;
        let nu = ntasks;
        let items = match self.pattern {
            Pattern::ProducerConsumer => vec![
                ContractItem::EventHandshakes { total: self.rounds as u64 * n },
                ContractItem::BarriersPerTask { per_task: self.rounds as u64 },
                ContractItem::SingleWriterAddrs,
                ContractItem::SharedLines {
                    min_lines: nu * self.lines as usize,
                    min_tasks: nu.min(2),
                },
            ],
            Pattern::Migratory => {
                let mut items: Vec<ContractItem> = (0..self.locks)
                    .map(|k| ContractItem::LockAcquires {
                        lock: k,
                        total: self.rounds as u64 * n,
                    })
                    .collect();
                items.push(ContractItem::MinLockAcquires {
                    min: self.rounds as u64 * n * self.locks as u64,
                });
                items.push(ContractItem::SharedLines {
                    min_lines: self.locks as usize,
                    min_tasks: nu,
                });
                items.push(ContractItem::BarriersPerTask { per_task: 0 });
                items
            }
            Pattern::FalseSharing => vec![
                ContractItem::FalseSharedLines {
                    min_lines: nu / self.sharers as usize,
                    min_writers: self.sharers as usize,
                },
                ContractItem::SingleWriterAddrs,
                ContractItem::BarriersPerTask { per_task: 2 * self.rounds as u64 },
            ],
            Pattern::ReadMostly => vec![
                ContractItem::SharedLines { min_lines: self.lines as usize, min_tasks: nu },
                ContractItem::BarriersPerTask { per_task: 2 * self.rounds as u64 },
            ],
            Pattern::SyncHeavy => {
                let lock_phases = self.lock_phase_count(seed) as u64;
                let barrier_phases = self.sync_phases() as u64 - lock_phases;
                vec![
                    // Each lock phase: one nested pair + one single
                    // section per counter, per task.
                    ContractItem::MinLockAcquires {
                        min: lock_phases * (2 + self.locks as u64) * n,
                    },
                    ContractItem::BarriersPerTask { per_task: barrier_phases },
                ]
            }
            Pattern::DivergeLaced => vec![
                ContractItem::SharedLines { min_lines: self.lines as usize, min_tasks: nu },
                ContractItem::BarriersPerTask { per_task: 2 * self.rounds as u64 },
                ContractItem::MinDivergeOps { min: 1 },
            ],
        };
        PatternContract { pattern: self.pattern.key().to_string(), line_bytes: LINE, items }
    }

    /// Hand-rolled JSON rendering (workspace convention: no external
    /// dependencies), embedding every axis so `(seed, spec)` reproduces
    /// the program set.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pattern\":\"{}\",\"rounds\":{},\"lines\":{},\"sharers\":{},\"locks\":{},\
             \"lock_mix_pct\":{},\"reads_per_round\":{},\"compute\":{},\"diverge_cycles\":{},\
             \"private_lines\":{}}}",
            self.pattern.key(),
            self.rounds,
            self.lines,
            self.sharers,
            self.locks,
            self.lock_mix_pct,
            self.reads_per_round,
            self.compute,
            self.diverge_cycles,
            self.private_lines
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        for p in Pattern::ALL {
            let a = PatternSpec::sample(p, &mut SplitMix64::new(9));
            let b = PatternSpec::sample(p, &mut SplitMix64::new(9));
            assert_eq!(a, b);
            assert!((2..=4).contains(&a.rounds));
            assert!((1..=3).contains(&a.lines));
            assert!((2..=4).contains(&a.sharers));
            assert!((2..=4).contains(&a.locks));
            assert!(a.lock_mix_pct <= 100);
            assert!((2..=4).contains(&a.reads_per_round));
            assert!((5..=40).contains(&a.compute));
            assert!((50_000..=200_000).contains(&a.diverge_cycles));
            assert!((1..=2).contains(&a.private_lines));
        }
    }

    #[test]
    fn keys_round_trip() {
        for p in Pattern::ALL {
            assert_eq!(Pattern::from_key(p.key()), Some(p));
        }
        assert_eq!(Pattern::from_key("nope"), None);
    }

    #[test]
    fn json_names_the_pattern() {
        let s = PatternSpec::sample(Pattern::Migratory, &mut SplitMix64::new(1));
        let j = s.to_json();
        assert!(j.contains("\"pattern\":\"mig\""));
        assert!(j.contains("\"rounds\":"));
    }
}
