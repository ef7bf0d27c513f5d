use slipstream_kernel::config::ArSyncMode;
use slipstream_kernel::{CpuId, Cycle, TaskId};
use slipstream_mem::{StreamRole, Token};
use slipstream_prog::{Op, ProgramIter};

use crate::report::TimeBreakdown;

/// Why a stream is blocked (used to attribute wait time to the Figure 6
/// categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Waiting on a memory-system completion.
    Mem,
    /// Waiting for a barrier release or event post.
    Barrier,
    /// Waiting for a lock grant.
    Lock,
    /// A-stream waiting for an A-R token or an R-stream input value.
    ArSync,
}

/// Execution state of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// Runnable (a `Resume` event is or will be scheduled).
    Ready,
    /// Blocked on a memory or synchronization completion with this token.
    Blocked(Token, BlockKind),
    /// A-stream waiting for an A-R token (at a session boundary).
    WaitToken,
    /// A-stream waiting for the R-stream to perform an `Input` operation.
    WaitInput,
    /// Program finished.
    Done,
}

/// One running stream: a processor executing (a copy of) a task program.
#[derive(Debug)]
pub(crate) struct StreamExec {
    pub cpu: CpuId,
    pub role: StreamRole,
    pub task: TaskId,
    /// Index of the pair record (slipstream mode only).
    pub pair: Option<usize>,
    pub iter: ProgramIter,
    pub state: StreamState,
    /// A shared-space op deferred so it executes at its exact issue time.
    pub pending_op: Option<Op>,
    /// When the current block started (for wait attribution).
    pub blocked_at: Cycle,
    /// Nesting depth of held (or, for A-streams, skipped) locks.
    pub lock_depth: u32,
    /// Number of `Input` results this A-stream has consumed.
    pub inputs_taken: u64,
    pub breakdown: TimeBreakdown,
    /// Simulated time through which `breakdown` accounts. The machine
    /// advances it at every yield, block, and wake, maintaining the
    /// invariant `breakdown.total() == frontier` whenever the stream is
    /// quiescent — so at the end of the run `total()` equals `finish`
    /// exactly (the accounting invariant tests rely on this).
    pub frontier: Cycle,
    pub finish: Option<Cycle>,
}

impl StreamExec {
    pub(crate) fn new(
        cpu: CpuId,
        role: StreamRole,
        task: TaskId,
        pair: Option<usize>,
        iter: ProgramIter,
    ) -> StreamExec {
        StreamExec {
            cpu,
            role,
            task,
            pair,
            iter,
            state: StreamState::Ready,
            pending_op: None,
            blocked_at: Cycle::ZERO,
            lock_depth: 0,
            inputs_taken: 0,
            breakdown: TimeBreakdown::default(),
            frontier: Cycle::ZERO,
            finish: None,
        }
    }

    /// Records a block starting at `at`.
    pub(crate) fn block(&mut self, token: Token, kind: BlockKind, at: Cycle) {
        debug_assert_eq!(self.state, StreamState::Ready);
        self.state = StreamState::Blocked(token, kind);
        self.blocked_at = at;
        self.frontier = at;
    }

    /// Attributes the wait ending at `now` to the proper category.
    pub(crate) fn attribute_wait(&mut self, kind: BlockKind, now: Cycle) {
        let wait = now.since(self.blocked_at).raw();
        match kind {
            BlockKind::Mem => self.breakdown.mem_stall += wait,
            BlockKind::Barrier => self.breakdown.barrier += wait,
            BlockKind::Lock => self.breakdown.lock += wait,
            BlockKind::ArSync => self.breakdown.ar_sync += wait,
        }
        self.frontier = now;
    }

    /// Whether this stream is parked at a session boundary (used by the
    /// deviation check: the A-stream "reached the end of its session").
    ///
    /// Covers both the blocked state (waiting for a token) and the woken-
    /// but-not-yet-resumed state, where the session-ending sync op is still
    /// parked in `pending_op` — otherwise an R-stream racing through an
    /// empty session at the same timestamp would misread a healthy A-stream
    /// as deviated.
    pub(crate) fn at_session_end(&self) -> bool {
        matches!(self.state, StreamState::WaitToken)
            || self.pending_op.map(|op| op.ends_session()).unwrap_or(false)
    }
}

/// State shared by an R-stream/A-stream pair (one per CMP node in
/// slipstream mode): the token-bucket semaphore of §3.2 plus session
/// counters and the input-forwarding semaphore.
#[derive(Debug)]
pub(crate) struct PairState {
    pub a_idx: usize,
    /// Tokens available to the A-stream.
    pub tokens: u32,
    /// Sessions completed by the R-stream (increments at sync exit).
    pub r_session: u64,
    /// Sessions entered by the A-stream (increments on token consumption).
    pub a_session: u64,
    /// `Input` operations completed by the R-stream.
    pub r_inputs_done: u64,
    /// The R-stream finished its program (A no longer throttled).
    pub r_done: bool,
    /// The A-R synchronization method currently in force for this pair.
    pub method: ArSyncMode,
    /// Adaptive-selection sampling state (None once locked in, or when
    /// adaptation is disabled).
    pub adapt: Option<AdaptState>,
}

/// Sampling state for dynamic A-R method selection (§6 of the paper):
/// run `ADAPT_WINDOW` sessions under each method, score by elapsed
/// cycles, keep the fastest.
#[derive(Debug)]
pub(crate) struct AdaptState {
    /// Index into [`ArSyncMode::ALL`] of the method being sampled.
    pub next: usize,
    /// Cycle at which the current window began.
    pub window_start: Cycle,
    /// Sessions completed in the current window.
    pub sessions: u64,
    /// `(method, cycles-per-window)` scores collected so far.
    pub scores: Vec<(ArSyncMode, u64)>,
}

impl PairState {
    pub(crate) fn new(a_idx: usize, method: ArSyncMode, adaptive: bool) -> PairState {
        PairState {
            a_idx,
            tokens: method.initial_tokens(),
            r_session: 0,
            a_session: 0,
            r_inputs_done: 0,
            r_done: false,
            method,
            adapt: if adaptive {
                Some(AdaptState {
                    next: 0,
                    window_start: Cycle::ZERO,
                    sessions: 0,
                    scores: Vec::new(),
                })
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_kernel::NodeId;
    use slipstream_prog::ProgBuilder;

    fn stream() -> StreamExec {
        let prog = ProgBuilder::new().build("empty");
        StreamExec::new(CpuId::new(NodeId(0), 0), StreamRole::R, TaskId(0), None, prog.iter())
    }

    #[test]
    fn wait_attribution_by_kind() {
        let mut s = stream();
        s.block(Token(1), BlockKind::Mem, Cycle(100));
        s.attribute_wait(BlockKind::Mem, Cycle(150));
        assert_eq!(s.breakdown.mem_stall, 50);
        s.state = StreamState::Ready;
        s.block(Token(2), BlockKind::Barrier, Cycle(200));
        s.attribute_wait(BlockKind::Barrier, Cycle(260));
        assert_eq!(s.breakdown.barrier, 60);
        s.state = StreamState::Ready;
        s.block(Token(3), BlockKind::Lock, Cycle(300));
        s.attribute_wait(BlockKind::Lock, Cycle(330));
        assert_eq!(s.breakdown.lock, 30);
    }

    #[test]
    fn session_end_detection() {
        let mut s = stream();
        assert!(!s.at_session_end());
        s.state = StreamState::WaitToken;
        assert!(s.at_session_end());
    }

    #[test]
    fn pair_state_initial_tokens() {
        let p = PairState::new(1, ArSyncMode::OneTokenLocal, false);
        assert_eq!(p.tokens, 1);
        assert_eq!(p.r_session, 0);
        assert_eq!(p.a_session, 0);
        assert!(!p.r_done);
    }
}
