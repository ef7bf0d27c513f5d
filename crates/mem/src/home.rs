use std::cell::Cell;
use std::fmt;

use slipstream_kernel::{Addr, LineAddr, NodeId};
use slipstream_prog::{InstanceId, Layout, RegionKind};

/// Table entry marking a page the precomputed table cannot answer (a hole
/// between regions, or a page straddling a region boundary); lookups fall
/// back to the region search. Never a valid node id: node counts are
/// `u16`, and [`HomeMap::new`] asserts `nodes < u16::MAX`.
const HOLE: u16 = u16::MAX;

/// Upper bound on precomputed table size (pages). 2 Mi pages x 2 bytes =
/// 4 MiB per map, covering an 8 GiB layout at 4 KiB pages — far beyond any
/// workload here. Layouts spanning more than this (notably
/// [`HomeMap::uniform`]'s full address space) skip the table and resolve
/// through the memoized region search.
const MAX_TABLE_PAGES: u64 = 1 << 21;

/// Maps addresses to home nodes (the node holding the memory and directory
/// entry for a line).
///
/// Shared regions are interleaved page-by-page round-robin across all
/// nodes, approximating the Origin-style distributed memory of the paper's
/// machine. Private regions are homed entirely at the node running the
/// owning stream instance, so private misses are local (170-cycle) misses.
///
/// Lookup is O(1) on the hot path: construction precomputes a
/// page-granular table over the layout's address span, so [`home_of`]
/// is one subtract, one divide and one load for every allocated page.
/// Pages the table cannot answer (holes, boundary-straddling pages, or
/// layouts too large to tabulate) fall back to a binary search over the
/// region list, fronted by a one-entry memo of the last region hit —
/// miss streams are strongly region-local, so the memo absorbs almost
/// all of the fallback traffic.
///
/// [`home_of`]: HomeMap::home_of
///
/// # Example
///
/// ```
/// use slipstream_prog::{Layout, InstanceId};
/// use slipstream_kernel::NodeId;
/// use slipstream_mem::HomeMap;
///
/// let mut layout = Layout::new();
/// let shared = layout.shared("grid", 4 * 4096);
/// let map = HomeMap::new(&layout, 4, |_inst| NodeId(2), |_task| NodeId(1));
/// // Consecutive pages of shared data round-robin across the 4 nodes.
/// let h0 = map.home_of(shared.at_byte(0));
/// let h1 = map.home_of(shared.at_byte(4096));
/// assert_ne!(h0, h1);
/// ```
#[derive(Clone)]
pub struct HomeMap {
    page_bytes: u64,
    nodes: u16,
    /// Sorted, disjoint regions: (base, end, home). `home == None` means
    /// page-interleaved shared data.
    regions: Vec<(u64, u64, Option<NodeId>)>,
    /// First byte the precomputed `table` covers (page-aligned).
    table_base: u64,
    /// Per-page home nodes for `table.len()` pages starting at
    /// `table_base`; [`HOLE`] entries defer to the region search. Empty
    /// when the layout span exceeds [`MAX_TABLE_PAGES`].
    table: Vec<u16>,
    /// Index of the last region the fallback search resolved. A `Cell`
    /// keeps `home_of` callable through `&self`; a map belongs to one
    /// memory system and is never shared across threads.
    memo: Cell<usize>,
}

impl fmt::Debug for HomeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table holds up to millions of entries; summarize it.
        f.debug_struct("HomeMap")
            .field("page_bytes", &self.page_bytes)
            .field("nodes", &self.nodes)
            .field("regions", &self.regions)
            .field("table_pages", &self.table.len())
            .finish()
    }
}

impl HomeMap {
    /// Builds the map from an application layout and a placement function
    /// mapping each private-region owner (stream instance) to its node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or if a placement returns an out-of-range
    /// node.
    pub fn new(
        layout: &Layout,
        nodes: u16,
        place_inst: impl Fn(InstanceId) -> NodeId,
        place_task: impl Fn(u32) -> NodeId,
    ) -> HomeMap {
        assert!(nodes > 0, "need at least one node");
        let mut regions: Vec<(u64, u64, Option<NodeId>)> = layout
            .regions()
            .iter()
            .map(|r| {
                let home = match r.kind {
                    RegionKind::Shared => None,
                    RegionKind::SharedOwned(task) => {
                        let n = place_task(task);
                        assert!(n.0 < nodes, "placement {n} out of range for {nodes} nodes");
                        Some(n)
                    }
                    RegionKind::Private(owner) => {
                        let n = place_inst(owner);
                        assert!(n.0 < nodes, "placement {n} out of range for {nodes} nodes");
                        Some(n)
                    }
                };
                (r.base.0, r.end().0, home)
            })
            .collect();
        regions.sort_by_key(|r| r.0);
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "layout regions overlap");
        }
        assert!(nodes < u16::MAX, "node count reserves u16::MAX as a table sentinel");
        let page_bytes = layout.page_bytes();
        let (table_base, table) = Self::build_table(&regions, page_bytes, nodes);
        HomeMap { page_bytes, nodes, regions, table_base, table, memo: Cell::new(0) }
    }

    /// A trivial map for tests: everything shared, interleaved over `nodes`.
    pub fn uniform(nodes: u16, page_bytes: u64) -> HomeMap {
        assert!(nodes > 0);
        // The full-address-space span exceeds MAX_TABLE_PAGES, so this map
        // always resolves through the (single-region) search.
        HomeMap {
            page_bytes,
            nodes,
            regions: vec![(0, u64::MAX, None)],
            table_base: 0,
            table: Vec::new(),
            memo: Cell::new(0),
        }
    }

    /// Precomputes the per-page home table for `regions`, returning the
    /// page-aligned base and one entry per page of the layout span. Pages
    /// outside every region, or straddling a region boundary, get [`HOLE`].
    /// Returns an empty table when the span is too large to tabulate.
    fn build_table(
        regions: &[(u64, u64, Option<NodeId>)],
        page_bytes: u64,
        nodes: u16,
    ) -> (u64, Vec<u16>) {
        let (Some(&(first, ..)), Some(&(.., last, _))) = (regions.first(), regions.last())
        else {
            return (0, Vec::new());
        };
        let base = first / page_bytes * page_bytes;
        let pages = (last - base).div_ceil(page_bytes);
        if pages > MAX_TABLE_PAGES {
            return (base, Vec::new());
        }
        let mut table = vec![HOLE; pages as usize];
        let mut ri = 0;
        for (p, slot) in table.iter_mut().enumerate() {
            let lo = base + p as u64 * page_bytes;
            let hi = lo + page_bytes;
            // Regions are sorted and disjoint; advance to the first one
            // that could contain this page.
            while ri < regions.len() && regions[ri].1 <= lo {
                ri += 1;
            }
            let Some(&(rbase, rend, home)) = regions.get(ri) else { break };
            if rbase <= lo && hi <= rend {
                *slot = match home {
                    Some(n) => n.0,
                    None => ((lo / page_bytes) % nodes as u64) as u16,
                };
            }
        }
        (base, table)
    }

    /// Home node of a byte address.
    ///
    /// # Panics
    ///
    /// Panics if the address was never allocated (simulator bug or program
    /// touching memory outside its layout).
    #[inline]
    pub fn home_of(&self, addr: Addr) -> NodeId {
        // O(1) fast path: every allocated page inside the tabulated span
        // answers with one load.
        if addr.0 >= self.table_base {
            let page = (addr.0 - self.table_base) / self.page_bytes;
            if let Some(&h) = self.table.get(page as usize) {
                if h != HOLE {
                    return NodeId(h);
                }
            }
        }
        // Memoized fallback: the last region hit covers the next address
        // for region-local miss streams, skipping the binary search.
        let m = self.memo.get();
        if let Some(&(base, end, home)) = self.regions.get(m) {
            if addr.0 >= base && addr.0 < end {
                return self.resolve(addr, home);
            }
        }
        let (i, home) = self.search(addr);
        self.memo.set(i);
        self.resolve(addr, home)
    }

    /// Reference lookup: the plain binary search over the region list,
    /// with no table and no memo. Kept as the oracle for the equivalence
    /// tests; the hot path is [`HomeMap::home_of`].
    ///
    /// # Panics
    ///
    /// Panics if the address was never allocated.
    pub fn home_of_search(&self, addr: Addr) -> NodeId {
        let (_, home) = self.search(addr);
        self.resolve(addr, home)
    }

    /// Binary search for the region containing `addr`, returning its index
    /// and home. Panics on unallocated addresses.
    fn search(&self, addr: Addr) -> (usize, Option<NodeId>) {
        let i = self
            .regions
            .partition_point(|&(base, _, _)| base <= addr.0)
            .checked_sub(1)
            .unwrap_or_else(|| panic!("access to unallocated address {addr}"));
        let (base, end, home) = self.regions[i];
        assert!(
            addr.0 >= base && addr.0 < end,
            "access to unallocated address {addr} (nearest region {base}..{end})"
        );
        (i, home)
    }

    /// Applies a region's homing policy to `addr`.
    #[inline]
    fn resolve(&self, addr: Addr, home: Option<NodeId>) -> NodeId {
        match home {
            Some(n) => n,
            None => NodeId(((addr.0 / self.page_bytes) % self.nodes as u64) as u16),
        }
    }

    /// Home node of a cache line.
    pub fn home_of_line(&self, line: LineAddr, line_bytes: u64) -> NodeId {
        self.home_of(line.base(line_bytes))
    }

    /// Number of nodes this map distributes over.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pages_interleave() {
        let map = HomeMap::uniform(4, 4096);
        let homes: Vec<u16> = (0..8).map(|p| map.home_of(Addr(p * 4096)).0).collect();
        assert_eq!(homes, [0, 1, 2, 3, 0, 1, 2, 3]);
        // All addresses within a page share a home.
        assert_eq!(map.home_of(Addr(4096)), map.home_of(Addr(8191)));
    }

    #[test]
    fn private_regions_are_homed_at_owner() {
        let mut layout = Layout::new();
        let _sh = layout.shared("s", 4096);
        let pr = layout.private(InstanceId(7), "p", 4096);
        let map = HomeMap::new(
            &layout,
            4,
            |inst| {
                assert_eq!(inst, InstanceId(7));
                NodeId(3)
            },
            |_t| NodeId(0),
        );
        assert_eq!(map.home_of(pr.at_byte(0)), NodeId(3));
        assert_eq!(map.home_of(pr.at_byte(4095)), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_address_panics() {
        let mut layout = Layout::new();
        layout.shared("s", 4096);
        let map = HomeMap::new(&layout, 2, |_| NodeId(0), |_t| NodeId(0));
        map.home_of(Addr(1 << 40));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn address_zero_panics() {
        let mut layout = Layout::new();
        layout.shared("s", 4096);
        let map = HomeMap::new(&layout, 2, |_| NodeId(0), |_t| NodeId(0));
        map.home_of(Addr(0));
    }

    #[test]
    fn shared_owned_regions_follow_task_placement() {
        let mut layout = Layout::new();
        let blk = layout.shared_owned("block3", 8192, 3);
        let map = HomeMap::new(&layout, 4, |_| NodeId(0), |task| NodeId(task as u16));
        assert_eq!(map.home_of(blk.at_byte(0)), NodeId(3));
        assert_eq!(map.home_of(blk.at_byte(8191)), NodeId(3));
    }

    #[test]
    fn line_home_matches_byte_home() {
        let map = HomeMap::uniform(3, 4096);
        let a = Addr(123456);
        assert_eq!(map.home_of(a), map.home_of_line(a.line(64), 64));
    }

    /// The table + memo fast paths agree with the reference binary search
    /// over randomized mixed shared/private layouts.
    #[test]
    fn fast_path_matches_reference_search() {
        use slipstream_kernel::SplitMix64;
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let mut layout = Layout::new();
            let mut arrays = Vec::new();
            let n_regions = 4 + rng.next_below(12);
            for r in 0..n_regions {
                // Unpadded sizes exercise the page-padding in the layout.
                let bytes = 1 + rng.next_below(9 * 4096);
                let name = format!("r{r}");
                let a = match rng.next_below(3) {
                    0 => layout.shared(&name, bytes),
                    1 => layout.shared_owned(&name, bytes, rng.next_below(8) as usize),
                    _ => layout.private(InstanceId(rng.next_below(8) as u32), &name, bytes),
                };
                arrays.push((a, bytes));
            }
            let nodes = 8;
            let map = HomeMap::new(
                &layout,
                nodes,
                |inst| NodeId((inst.0 % nodes as u32) as u16),
                |task| NodeId((task % nodes as u32) as u16),
            );
            for _ in 0..20_000 {
                let (a, bytes) = arrays[rng.next_below(arrays.len() as u64) as usize];
                let addr = a.at_byte(rng.next_below(bytes));
                assert_eq!(map.home_of(addr), map.home_of_search(addr), "at {addr}");
            }
        }
    }

    /// `uniform` spans the whole address space (no table); the memoized
    /// search still matches the reference.
    #[test]
    fn uniform_skips_table_but_matches_search() {
        use slipstream_kernel::SplitMix64;
        let map = HomeMap::uniform(7, 4096);
        assert!(map.table.is_empty());
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let addr = Addr(rng.next_u64());
            assert_eq!(map.home_of(addr), map.home_of_search(addr));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_placement_panics() {
        let mut layout = Layout::new();
        layout.private(InstanceId(0), "p", 64);
        let _ = HomeMap::new(&layout, 2, |_| NodeId(5), |_t| NodeId(0));
    }
}
