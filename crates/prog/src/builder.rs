use std::rc::Rc;

use slipstream_kernel::Addr;

use crate::ops::{BarrierId, EventId, LockId, Op, Space};
use crate::stmt::{Count, IdxCtx, Program, Stmt};

/// Incremental builder for task [`Program`]s.
///
/// Nested scopes (loops, branches) take closures that receive a fresh
/// builder for the scope body, so programs read like the loops they model.
///
/// # Example
///
/// ```
/// use slipstream_prog::{ProgBuilder, Op, BarrierId, Layout};
///
/// let mut layout = Layout::new();
/// let grid = layout.shared("grid", 4096).elems(8);
/// let mut b = ProgBuilder::new();
/// b.for_n(2, |b| {
///     b.for_n(8, |b| {
///         b.gen(move |ctx| Op::load_shared(grid.at(ctx.i(1) * 8 + ctx.i(0))));
///         b.compute(12);
///     });
///     b.barrier(BarrierId(0));
/// });
/// let prog = b.build("stencil");
/// assert_eq!(prog.iter().filter(|o| o.is_sync()).count(), 2);
/// ```
#[derive(Default)]
pub struct ProgBuilder {
    stmts: Vec<Stmt>,
}

impl ProgBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgBuilder {
        ProgBuilder { stmts: Vec::new() }
    }

    /// Appends a constant op.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.stmts.push(Stmt::Op(op));
        self
    }

    /// Appends `n` cycles of computation (coalesced with a directly
    /// preceding compute op).
    pub fn compute(&mut self, n: u32) -> &mut Self {
        if n == 0 {
            return self;
        }
        if let Some(Stmt::Op(Op::Compute(prev))) = self.stmts.last_mut() {
            if let Some(sum) = prev.checked_add(n) {
                *prev = sum;
                return self;
            }
        }
        self.op(Op::Compute(n))
    }

    /// Appends a load from a fixed shared address.
    pub fn load_shared(&mut self, addr: Addr) -> &mut Self {
        self.op(Op::Load { addr, space: Space::Shared })
    }

    /// Appends a store to a fixed shared address.
    pub fn store_shared(&mut self, addr: Addr) -> &mut Self {
        self.op(Op::Store { addr, space: Space::Shared })
    }

    /// Appends a load from a fixed private address.
    pub fn load_private(&mut self, addr: Addr) -> &mut Self {
        self.op(Op::Load { addr, space: Space::Private })
    }

    /// Appends a store to a fixed private address.
    pub fn store_private(&mut self, addr: Addr) -> &mut Self {
        self.op(Op::Store { addr, space: Space::Private })
    }

    /// Appends a barrier.
    pub fn barrier(&mut self, id: BarrierId) -> &mut Self {
        self.op(Op::Barrier(id))
    }

    /// Appends a lock acquire.
    pub fn lock(&mut self, id: LockId) -> &mut Self {
        self.op(Op::Lock(id))
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, id: LockId) -> &mut Self {
        self.op(Op::Unlock(id))
    }

    /// Appends an event post.
    pub fn post(&mut self, id: EventId) -> &mut Self {
        self.op(Op::EventPost(id))
    }

    /// Appends an event wait.
    pub fn wait(&mut self, id: EventId) -> &mut Self {
        self.op(Op::EventWait(id))
    }

    /// Appends an index-dependent op.
    pub fn gen(&mut self, f: impl Fn(&IdxCtx) -> Op + 'static) -> &mut Self {
        self.stmts.push(Stmt::Gen(Rc::new(f)));
        self
    }

    /// Appends an index-dependent batch of ops (for hot inner loops).
    pub fn block(&mut self, f: impl Fn(&IdxCtx, &mut Vec<Op>) + 'static) -> &mut Self {
        self.stmts.push(Stmt::Block(Rc::new(f)));
        self
    }

    /// Appends a counted loop with a constant trip count.
    pub fn for_n(&mut self, n: u64, body: impl FnOnce(&mut ProgBuilder)) -> &mut Self {
        let mut b = ProgBuilder::new();
        body(&mut b);
        self.stmts.push(Stmt::For { count: Count::Const(n), body: Rc::new(b.into_stmt()) });
        self
    }

    /// Appends a counted loop whose trip count depends on enclosing indices.
    pub fn for_dyn(
        &mut self,
        count: impl Fn(&IdxCtx) -> u64 + 'static,
        body: impl FnOnce(&mut ProgBuilder),
    ) -> &mut Self {
        let mut b = ProgBuilder::new();
        body(&mut b);
        self.stmts.push(Stmt::For { count: Count::Dyn(Rc::new(count)), body: Rc::new(b.into_stmt()) });
        self
    }

    /// Appends a conditional.
    pub fn if_(
        &mut self,
        cond: impl Fn(&IdxCtx) -> bool + 'static,
        then_body: impl FnOnce(&mut ProgBuilder),
        else_body: Option<impl FnOnce(&mut ProgBuilder)>,
    ) -> &mut Self {
        let mut t = ProgBuilder::new();
        then_body(&mut t);
        let else_s = else_body.map(|f| {
            let mut e = ProgBuilder::new();
            f(&mut e);
            Rc::new(e.into_stmt())
        });
        self.stmts.push(Stmt::If {
            cond: Rc::new(cond),
            then_s: Rc::new(t.into_stmt()),
            else_s,
        });
        self
    }

    /// Emits line-granular loads over `[start, start+bytes)` of a region:
    /// one load per cache line touched, plus `compute_per_line` cycles after
    /// each. This is the standard trace reduction used by the workloads:
    /// per-element loads that would hit in L1 anyway are folded into the
    /// compute cost (see DESIGN.md §8).
    pub fn touch_lines(
        &mut self,
        base: Addr,
        bytes: u64,
        line_bytes: u64,
        store: bool,
        space: Space,
        compute_per_line: u32,
    ) -> &mut Self {
        assert!(line_bytes.is_power_of_two());
        let first = base.0 / line_bytes;
        let last = (base.0 + bytes.max(1) - 1) / line_bytes;
        self.block(move |_, out| {
            for l in first..=last {
                let addr = Addr(l * line_bytes);
                out.push(if store { Op::Store { addr, space } } else { Op::Load { addr, space } });
                if compute_per_line > 0 {
                    out.push(Op::Compute(compute_per_line));
                }
            }
        });
        self
    }

    /// Finalizes the program.
    pub fn build(self, name: &str) -> Program {
        Program::new(name, self.into_stmt())
    }

    fn into_stmt(self) -> Stmt {
        if self.stmts.len() == 1 {
            self.stmts.into_iter().next().expect("len checked")
        } else {
            Stmt::Seq(self.stmts.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_coalesces() {
        let mut b = ProgBuilder::new();
        b.compute(3).compute(4).compute(0);
        let ops: Vec<_> = b.build("c").iter().collect();
        assert_eq!(ops, [Op::Compute(7)]);
    }

    #[test]
    fn compute_does_not_coalesce_across_other_ops() {
        let mut b = ProgBuilder::new();
        b.compute(3).load_shared(Addr(64)).compute(4);
        assert_eq!(b.build("c").iter().count(), 3);
    }

    #[test]
    fn compute_coalesce_saturates_at_u32_max() {
        let mut b = ProgBuilder::new();
        b.compute(u32::MAX).compute(5);
        let ops: Vec<_> = b.build("c").iter().collect();
        assert_eq!(ops, [Op::Compute(u32::MAX), Op::Compute(5)]);
    }

    #[test]
    fn touch_lines_covers_range_once_per_line() {
        let mut b = ProgBuilder::new();
        b.touch_lines(Addr(130), 200, 64, false, Space::Shared, 0);
        let ops: Vec<_> = b.build("t").iter().collect();
        // Bytes 130..330 touch lines 2..=5 (4 lines).
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], Op::Load { addr: Addr(128), .. }));
        assert!(matches!(ops[3], Op::Load { addr: Addr(320), .. }));
    }

    #[test]
    fn touch_lines_store_and_compute() {
        let mut b = ProgBuilder::new();
        b.touch_lines(Addr(0), 64, 64, true, Space::Private, 9);
        let ops: Vec<_> = b.build("t").iter().collect();
        assert_eq!(ops, [Op::Store { addr: Addr(0), space: Space::Private }, Op::Compute(9)]);
    }

    #[test]
    fn sync_helpers() {
        let mut b = ProgBuilder::new();
        b.lock(LockId(1)).unlock(LockId(1)).post(EventId(2)).wait(EventId(2)).barrier(BarrierId(3));
        let ops: Vec<_> = b.build("s").iter().collect();
        assert_eq!(ops.len(), 5);
        assert!(ops.iter().all(|o| o.is_sync()));
    }

    #[test]
    fn empty_program_yields_nothing() {
        let b = ProgBuilder::new();
        assert_eq!(b.build("e").iter().count(), 0);
    }
}
