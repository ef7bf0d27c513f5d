//! A read-only walk over a [`Program`]'s op stream.
//!
//! The static sharing analyzer (`slipstream-check`) needs to know where
//! the barrier-phase boundaries fall without mutating or re-deriving the
//! statement tree. [`Program::walk_phases`] walks [`Program::iter`] once
//! and is purely observational: it never touches the layout or the
//! simulator.

use crate::ops::Op;
use crate::stmt::Program;

impl Program {
    /// Walks the op stream with a barrier-phase counter.
    ///
    /// The callback receives `(phase, op_index, op)`: `phase` starts at 0
    /// and increments *after* each `Barrier` op (the barrier itself is
    /// billed to the phase it closes), and `op_index` is the zero-based
    /// dynamic index — the same indexing the verifier's diagnostics use.
    /// Because every task participates in every barrier (the sync
    /// controller's global-barrier semantics), phase `p` of one task is
    /// concurrent only with phase `p` of the others, which is what lets
    /// the analyzer treat the phase id as a cross-task alignment key.
    pub fn walk_phases<F: FnMut(usize, u64, &Op)>(&self, mut f: F) {
        let mut phase = 0usize;
        for (i, op) in self.iter().enumerate() {
            f(phase, i as u64, &op);
            if matches!(op, Op::Barrier(_)) {
                phase += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::layout::Layout;
    use crate::ops::BarrierId;

    fn sample() -> (Layout, Program) {
        let mut layout = Layout::new();
        let arr = layout.shared("arr", 4096);
        let mut b = ProgBuilder::new();
        b.for_n(3, |b| {
            b.gen(move |ctx| Op::load_shared(arr.at(ctx.i(0) * 64)));
            b.compute(10);
        });
        b.barrier(BarrierId(0));
        b.gen(move |_| Op::store_shared(arr.at(0)));
        b.barrier(BarrierId(0));
        (layout, b.build("sample"))
    }

    #[test]
    fn walk_phases_splits_at_barriers() {
        let (_l, p) = sample();
        let mut per_phase = vec![0u64; 2];
        let mut max_phase = 0;
        p.walk_phases(|phase, _idx, op| {
            max_phase = max_phase.max(phase);
            if op.is_access() {
                per_phase[phase] += 1;
            }
        });
        // The closing barrier bumps the counter after the last op, but no
        // op is ever observed in the empty trailing phase.
        assert_eq!(max_phase, 1);
        assert_eq!(per_phase, vec![3, 1]);
    }
}
