//! Shared helpers for kernel construction: block partitioning and
//! line-granular access emission.

use slipstream_kernel::Addr;
use slipstream_prog::{ArrayRef, Op, Space};

/// Cache line size assumed by the workloads (matches the default machine).
pub const LINE: u64 = 64;

/// Splits `n` items over `ntasks` tasks; returns task `t`'s half-open
/// range. Remainder items go to the lowest-numbered tasks, so ranges never
/// differ by more than one.
///
/// # Example
///
/// ```
/// use slipstream_workloads::util::block_range;
/// assert_eq!(block_range(10, 4, 0), (0, 3));
/// assert_eq!(block_range(10, 4, 1), (3, 6));
/// assert_eq!(block_range(10, 4, 2), (6, 8));
/// assert_eq!(block_range(10, 4, 3), (8, 10));
/// ```
pub fn block_range(n: u64, ntasks: usize, t: usize) -> (u64, u64) {
    let ntasks = ntasks as u64;
    let t = t as u64;
    assert!(t < ntasks);
    let base = n / ntasks;
    let rem = n % ntasks;
    let start = t * base + t.min(rem);
    let len = base + u64::from(t < rem);
    (start, start + len)
}

/// Emits one access per cache line covering the byte range
/// `[start, start+bytes)` of `region`, each followed by
/// `compute_per_line` cycles. This is the standard trace reduction used by
/// every kernel: per-element accesses that would hit in the L1 anyway are
/// folded into the compute cost (DESIGN.md §8).
pub fn touch(
    out: &mut Vec<Op>,
    region: ArrayRef,
    start: u64,
    bytes: u64,
    store: bool,
    space: Space,
    compute_per_line: u32,
) {
    if bytes == 0 {
        return;
    }
    let base = region.base().0 + start;
    let first = base / LINE;
    let last = (base + bytes - 1) / LINE;
    for l in first..=last {
        let addr = Addr(l * LINE);
        out.push(if store { Op::Store { addr, space } } else { Op::Load { addr, space } });
        if compute_per_line > 0 {
            out.push(Op::Compute(compute_per_line));
        }
    }
}

/// Shorthand for a shared-space [`touch`].
pub fn touch_shared(
    out: &mut Vec<Op>,
    region: ArrayRef,
    start: u64,
    bytes: u64,
    store: bool,
    compute_per_line: u32,
) {
    touch(out, region, start, bytes, store, Space::Shared, compute_per_line);
}

/// Emits a single shared load of the line containing byte `off` of
/// `region`.
pub fn load_line(out: &mut Vec<Op>, region: ArrayRef, off: u64) {
    let addr = Addr(((region.base().0 + off) / LINE) * LINE);
    out.push(Op::load_shared(addr));
}

/// Emits a single shared store to the line containing byte `off` of
/// `region`.
pub fn store_line(out: &mut Vec<Op>, region: ArrayRef, off: u64) {
    let addr = Addr(((region.base().0 + off) / LINE) * LINE);
    out.push(Op::store_shared(addr));
}

/// A near-square factorization `(pr, pc)` of `p` with `pr * pc == p` and
/// `pr <= pc`, used for 2D block-scatter ownership (LU).
///
/// # Example
///
/// ```
/// use slipstream_workloads::util::factor2;
/// assert_eq!(factor2(16), (4, 4));
/// assert_eq!(factor2(8), (2, 4));
/// assert_eq!(factor2(7), (1, 7));
/// ```
pub fn factor2(p: usize) -> (usize, usize) {
    let mut pr = (p as f64).sqrt() as usize;
    while pr > 1 && !p.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), p / pr.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_prog::Layout;

    #[test]
    fn block_range_covers_exactly() {
        for n in [1u64, 7, 16, 100, 1023] {
            for p in [1usize, 2, 3, 4, 8, 16, 32] {
                let mut covered = 0;
                let mut prev_end = 0;
                for t in 0..p {
                    let (s, e) = block_range(n, p, t);
                    assert_eq!(s, prev_end, "contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n, "n={n} p={p}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_range_is_balanced() {
        for t in 0..7 {
            let (s, e) = block_range(100, 7, t);
            assert!((e - s) == 14 || (e - s) == 15);
        }
    }

    #[test]
    fn touch_emits_one_access_per_line() {
        let mut layout = Layout::new();
        let arr = layout.shared("a", 4096);
        let mut out = Vec::new();
        touch_shared(&mut out, arr, 10, 200, false, 5);
        // Bytes 10..210 relative to a page-aligned base: lines 0..=3.
        let loads: Vec<_> = out.iter().filter(|o| o.is_access()).collect();
        assert_eq!(loads.len(), 4);
        let computes = out.iter().filter(|o| matches!(o, Op::Compute(5))).count();
        assert_eq!(computes, 4);
    }

    #[test]
    fn touch_zero_bytes_is_empty() {
        let mut layout = Layout::new();
        let arr = layout.shared("a", 4096);
        let mut out = Vec::new();
        touch_shared(&mut out, arr, 0, 0, true, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn line_helpers_align() {
        let mut layout = Layout::new();
        let arr = layout.shared("a", 4096);
        let mut out = Vec::new();
        load_line(&mut out, arr, 100);
        store_line(&mut out, arr, 100);
        match (&out[0], &out[1]) {
            (Op::Load { addr: a, .. }, Op::Store { addr: b, .. }) => {
                assert_eq!(a, b);
                assert_eq!(a.0 % LINE, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn factor2_products() {
        for p in 1..=32 {
            let (pr, pc) = factor2(p);
            assert_eq!(pr * pc, p);
            assert!(pr <= pc);
        }
    }
}
