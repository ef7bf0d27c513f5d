//! Seeded mutations: one planted bug per generated program, and one
//! mutation per static rule.
//!
//! [`Mutation::ALL`] maps one-to-one onto [`Rule::ALL`]: each mutation
//! breaks exactly one discipline a clean generated program upholds, on a
//! pattern whose clean programs do not already fire the target rule, and
//! — for the newer rules — in a way the older passes cannot see (e.g.
//! [`Mutation::StripLock`] removes a lock around an access the explored
//! schedule still orders, so only the lockset pass SC013 can flag it).
//! The fuzz pipeline and the generator tests assert every mutation is
//! caught with its expected rule, which is what makes the clean corpus's
//! "zero diagnostics" result trustworthy. Adding a rule without a
//! mutation fails the one-to-one test.

use slipstream_check::{Rule, Severity};

use crate::spec::Pattern;

/// One planted defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Remove task 0's last event post: the consumer waits forever.
    DropPost,
    /// Remove task 0's last barrier: everyone else strands there.
    DropBarrier,
    /// Remove task 0's last unlock: the lock leaks (and others starve).
    DropUnlock,
    /// Remove the lock/unlock around task 0's first access to record 0,
    /// keeping the accesses. The explored schedule still orders the
    /// accesses through task 0's later lock releases, so SC001 stays
    /// silent — only the schedule-independent lockset analysis sees it.
    StripLock,
    /// The last task writes task 0's word with no synchronization.
    StealWrite,
    /// Task 0 nests the sync-heavy lock pair in descending order while
    /// everyone else ascends: a cross-task lock-order cycle that the
    /// cooperative schedule never wedges on.
    SwapLockOrder,
    /// Suppress every `DivergeInA` op a diverge-laced spec promises.
    BreakContract,
    /// The last task loads another instance's private scratch region.
    CrossPrivate,
    /// Task 0 loads an address outside every layout region.
    UnmappedLoad,
    /// Shared access addresses shift by 8 bytes on odd (A-stream)
    /// instances: the A/R skeleton diverges.
    SkewAStream,
    /// Each task (up to 8) stores its own word of the read-mostly table's
    /// first line before round 0: every word is still single-writer and
    /// barrier-ordered against the readers (no race, no `SC*` error), but
    /// the line now ping-pongs between writers — a *class shift* only the
    /// sharing analyzer's false-sharing lint (SP001) can see.
    ShareFalsely,
    /// Task 0 takes lock 0 around its first barrier.
    HoldLockAtBarrier,
    /// Task 0's first lock is removed; its unlock stays.
    DropLock,
    /// A one-line shared region is inserted over the first region.
    OverlapRegion,
    /// Task 0's first private store is declared shared.
    MislabelSpace,
    /// Task 0 acquires its first lock twice: it blocks on itself.
    Relock,
    /// Task 0 stores the table's first line just after its first
    /// barrier, while the other tasks re-read the table.
    WriteWhileRead,
    /// After the final barrier every task read-modify-writes the table's
    /// first line under lock 0 (race-free, but contended migratory).
    LockedCounter,
    /// The last task re-reads the table's first line after the final
    /// barrier, with no write since its previous read (race-free).
    RereadAfterLast,
    /// The program is unchanged; the kill check analyzes it under a
    /// 2-pointer directory, the only configuration SP005 exists in.
    NarrowDirectory,
    /// Task 0's first compute gains 60,000 cycles.
    Straggler,
}

impl Mutation {
    /// Every mutation, in a stable order.
    pub const ALL: [Mutation; 21] = [
        Mutation::DropPost,
        Mutation::DropBarrier,
        Mutation::DropUnlock,
        Mutation::StripLock,
        Mutation::StealWrite,
        Mutation::SwapLockOrder,
        Mutation::BreakContract,
        Mutation::CrossPrivate,
        Mutation::UnmappedLoad,
        Mutation::SkewAStream,
        Mutation::ShareFalsely,
        Mutation::HoldLockAtBarrier,
        Mutation::DropLock,
        Mutation::OverlapRegion,
        Mutation::MislabelSpace,
        Mutation::Relock,
        Mutation::WriteWhileRead,
        Mutation::LockedCounter,
        Mutation::RereadAfterLast,
        Mutation::NarrowDirectory,
        Mutation::Straggler,
    ];

    /// Short stable key used in reports.
    pub fn key(self) -> &'static str {
        match self {
            Mutation::DropPost => "drop-post",
            Mutation::DropBarrier => "drop-barrier",
            Mutation::DropUnlock => "drop-unlock",
            Mutation::StripLock => "strip-lock",
            Mutation::StealWrite => "steal-write",
            Mutation::SwapLockOrder => "swap-lock-order",
            Mutation::BreakContract => "break-contract",
            Mutation::CrossPrivate => "cross-private",
            Mutation::UnmappedLoad => "unmapped-load",
            Mutation::SkewAStream => "skew-a-stream",
            Mutation::ShareFalsely => "share-falsely",
            Mutation::HoldLockAtBarrier => "hold-lock-at-barrier",
            Mutation::DropLock => "drop-lock",
            Mutation::OverlapRegion => "overlap-region",
            Mutation::MislabelSpace => "mislabel-space",
            Mutation::Relock => "relock",
            Mutation::WriteWhileRead => "write-while-read",
            Mutation::LockedCounter => "locked-counter",
            Mutation::RereadAfterLast => "reread-after-last",
            Mutation::NarrowDirectory => "narrow-directory",
            Mutation::Straggler => "straggler",
        }
    }

    /// The pattern whose structure this mutation targets; its clean
    /// programs never fire the mutation's expected rule.
    pub fn pattern(self) -> Pattern {
        match self {
            Mutation::DropPost
            | Mutation::UnmappedLoad
            | Mutation::HoldLockAtBarrier
            | Mutation::OverlapRegion
            | Mutation::MislabelSpace
            | Mutation::Straggler => Pattern::ProducerConsumer,
            Mutation::DropUnlock | Mutation::StripLock | Mutation::DropLock | Mutation::Relock => {
                Pattern::Migratory
            }
            Mutation::StealWrite => Pattern::FalseSharing,
            Mutation::DropBarrier
            | Mutation::CrossPrivate
            | Mutation::SkewAStream
            | Mutation::ShareFalsely
            | Mutation::WriteWhileRead
            | Mutation::LockedCounter
            | Mutation::RereadAfterLast
            | Mutation::NarrowDirectory => Pattern::ReadMostly,
            Mutation::SwapLockOrder => Pattern::SyncHeavy,
            Mutation::BreakContract => Pattern::DivergeLaced,
        }
    }

    /// The static rule that must flag the mutant (at
    /// [`Mutation::expected_severity`]).
    pub fn expected_rule(self) -> Rule {
        match self {
            Mutation::DropPost => Rule::UnbalancedEvents,
            Mutation::DropBarrier => Rule::BarrierMismatch,
            Mutation::DropUnlock => Rule::LeakedLock,
            Mutation::StripLock => Rule::LocksetRace,
            Mutation::StealWrite => Rule::SharedRace,
            Mutation::SwapLockOrder => Rule::LockOrderCycle,
            Mutation::BreakContract => Rule::PatternContract,
            Mutation::CrossPrivate => Rule::PrivateIsolation,
            Mutation::UnmappedLoad => Rule::UnmappedAddress,
            Mutation::SkewAStream => Rule::InstanceDivergence,
            Mutation::ShareFalsely => Rule::FalseSharing,
            Mutation::HoldLockAtBarrier => Rule::LockAcrossBarrier,
            Mutation::DropLock => Rule::UnlockWithoutLock,
            Mutation::OverlapRegion => Rule::LayoutOverlap,
            Mutation::MislabelSpace => Rule::SpaceMismatch,
            Mutation::Relock => Rule::SyncDeadlock,
            Mutation::WriteWhileRead => Rule::ReadMostlyWrite,
            Mutation::LockedCounter => Rule::ContendedMigratory,
            Mutation::RereadAfterLast => Rule::SiHostile,
            Mutation::NarrowDirectory => Rule::BroadcastOverflow,
            Mutation::Straggler => Rule::LoadImbalance,
        }
    }

    /// The severity the expected rule fires with: `Error` for the `SC*`
    /// correctness rules, `Warning` for the analyzer's `SP*` performance
    /// lints (a class-shifted program is still properly synchronized).
    pub fn expected_severity(self) -> Severity {
        if self.expected_rule().id().starts_with("SP") {
            Severity::Warning
        } else {
            Severity::Error
        }
    }

    /// Whether the mutant must be verified under slipstream instantiation
    /// (the defect only exists across R/A instance pairs).
    pub fn needs_slipstream(self) -> bool {
        matches!(self, Mutation::SkewAStream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_all_maps_one_to_one_onto_rule_all() {
        assert_eq!(Mutation::ALL.len(), Rule::ALL.len());
        for rule in Rule::ALL {
            let n = Mutation::ALL.iter().filter(|m| m.expected_rule() == rule).count();
            assert_eq!(n, 1, "{} ({}) is the target of {n} mutations", rule.id(), rule.name());
        }
    }

    #[test]
    fn all_patterns_are_exercised_by_mutations() {
        for p in Pattern::ALL {
            assert!(
                Mutation::ALL.iter().any(|m| m.pattern() == p),
                "no mutation targets pattern {}",
                p.key()
            );
        }
    }
}
