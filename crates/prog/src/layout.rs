use std::fmt;

use slipstream_kernel::Addr;

/// Identifies one *running stream instance* (an R-stream, an A-stream, or a
/// conventional task). Private regions are owned by an instance, so the
/// A-stream copy of a task gets private storage disjoint from its R-stream's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u32);

/// Who may touch a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Globally shared; home pages interleaved across nodes.
    Shared,
    /// Globally shared, but predominantly accessed by one task: homed at
    /// that task's node, modeling first-touch page placement on the
    /// paper's Origin-like machine.
    SharedOwned(u32),
    /// Private to one stream instance; homed at that instance's node.
    Private(InstanceId),
}

/// One allocated region of the simulated address space.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Human-readable name (for debugging and reports).
    pub name: String,
    /// First byte address.
    pub base: Addr,
    /// Size in bytes.
    pub bytes: u64,
    /// Sharing kind.
    pub kind: RegionKind,
}

impl RegionInfo {
    /// Exclusive end address.
    pub fn end(&self) -> Addr {
        Addr(self.base.0 + self.bytes)
    }
}

/// A lightweight handle to an allocated array, used inside program-builder
/// closures to compute element addresses.
///
/// # Example
///
/// ```
/// use slipstream_prog::Layout;
///
/// let mut layout = Layout::new();
/// let v = layout.shared("v", 1024 * 8).elems(8); // 1024 doubles
/// assert_eq!(v.at(1).0, v.at(0).0 + 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    base: Addr,
    bytes: u64,
    elem_bytes: u64,
}

impl ArrayRef {
    /// Reinterpret with a different element size.
    pub fn elems(self, elem_bytes: u64) -> ArrayRef {
        assert!(elem_bytes > 0);
        ArrayRef { elem_bytes, ..self }
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the element is out of bounds.
    #[inline]
    pub fn at(self, i: u64) -> Addr {
        debug_assert!(
            (i + 1) * self.elem_bytes <= self.bytes,
            "array index {i} out of bounds ({} bytes, {}-byte elems)",
            self.bytes,
            self.elem_bytes
        );
        Addr(self.base.0 + i * self.elem_bytes)
    }

    /// Byte address at byte offset `off` (bounds-checked in debug builds).
    #[inline]
    pub fn at_byte(self, off: u64) -> Addr {
        debug_assert!(off < self.bytes);
        Addr(self.base.0 + off)
    }

    /// First byte address.
    pub fn base(self) -> Addr {
        self.base
    }

    /// Region size in bytes.
    pub fn bytes(self) -> u64 {
        self.bytes
    }

    /// Number of elements at the current element size.
    pub fn len(self) -> u64 {
        self.bytes / self.elem_bytes
    }

    /// Whether the array holds no complete element.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// The global address-space allocator for one application run.
///
/// Regions are allocated sequentially, each aligned to a page boundary so
/// that home-node interleaving never splits a region's line between
/// unrelated data. The region table is later consumed by the memory system
/// to build its home map.
#[derive(Debug, Clone)]
pub struct Layout {
    page_bytes: u64,
    next: u64,
    regions: Vec<RegionInfo>,
}

impl Default for Layout {
    fn default() -> Self {
        Layout::new()
    }
}

impl Layout {
    /// Creates an empty layout with 4 KB pages.
    pub fn new() -> Layout {
        Layout::with_page_size(4096)
    }

    /// Creates an empty layout with a custom page size (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn with_page_size(page_bytes: u64) -> Layout {
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        // Skip page 0 so that Addr(0) is never a valid allocated address.
        Layout { page_bytes, next: page_bytes, regions: Vec::new() }
    }

    /// Allocates a shared region of `bytes` bytes.
    pub fn shared(&mut self, name: &str, bytes: u64) -> ArrayRef {
        self.alloc(name, bytes, RegionKind::Shared)
    }

    /// Allocates a shared region whose pages are homed at task
    /// `owner_task`'s node (first-touch placement for block-partitioned
    /// data).
    pub fn shared_owned(&mut self, name: &str, bytes: u64, owner_task: usize) -> ArrayRef {
        self.alloc(name, bytes, RegionKind::SharedOwned(owner_task as u32))
    }

    /// Allocates a region private to `owner`.
    pub fn private(&mut self, owner: InstanceId, name: &str, bytes: u64) -> ArrayRef {
        self.alloc(name, bytes, RegionKind::Private(owner))
    }

    fn alloc(&mut self, name: &str, bytes: u64, kind: RegionKind) -> ArrayRef {
        assert!(bytes > 0, "cannot allocate an empty region");
        let base = Addr(self.next);
        let padded = bytes.div_ceil(self.page_bytes) * self.page_bytes;
        self.next += padded;
        self.regions.push(RegionInfo { name: name.to_string(), base, bytes: padded, kind });
        ArrayRef { base, bytes, elem_bytes: 1 }
    }

    /// Inserts a region at an explicit base address, bypassing the
    /// sequential allocator — no page alignment, no overlap avoidance.
    ///
    /// The allocating methods can never produce an ill-formed layout, so
    /// tooling that must construct one (the generator's `OverlapRegion`
    /// mutation, which proves the verifier's SC008 fires) uses this
    /// instead. Simulator workloads should always allocate through
    /// [`Layout::shared`], [`Layout::shared_owned`], or [`Layout::private`].
    pub fn insert_region_at(
        &mut self,
        name: &str,
        base: Addr,
        bytes: u64,
        kind: RegionKind,
    ) -> ArrayRef {
        assert!(bytes > 0, "cannot allocate an empty region");
        self.regions.push(RegionInfo { name: name.to_string(), base, bytes, kind });
        ArrayRef { base, bytes, elem_bytes: 1 }
    }

    /// The allocated regions, in allocation order.
    pub fn regions(&self) -> &[RegionInfo] {
        &self.regions
    }

    /// Page size used for alignment and home interleaving.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Total allocated bytes (including padding).
    pub fn total_bytes(&self) -> u64 {
        self.next - self.page_bytes
    }

    /// Looks up the region containing `addr`, if any.
    pub fn region_of(&self, addr: Addr) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.base <= addr && addr < r.end())
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "layout: {} regions, {} bytes", self.regions.len(), self.total_bytes())?;
        for r in &self.regions {
            writeln!(f, "  {:>10} .. {:>10}  {:?}  {}", r.base.0, r.end().0, r.kind, r.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.shared("a", 100);
        let b = l.private(InstanceId(3), "b", 5000);
        assert_eq!(a.base().0 % 4096, 0);
        assert_eq!(b.base().0 % 4096, 0);
        assert!(b.base().0 >= a.base().0 + 4096);
        assert_eq!(l.regions().len(), 2);
        assert_eq!(l.regions()[1].kind, RegionKind::Private(InstanceId(3)));
    }

    #[test]
    fn addr_zero_is_never_allocated() {
        let mut l = Layout::new();
        let a = l.shared("a", 8);
        assert!(a.base().0 > 0);
        assert!(l.region_of(Addr(0)).is_none());
    }

    #[test]
    fn region_lookup() {
        let mut l = Layout::new();
        let a = l.shared("grid", 8192);
        assert_eq!(l.region_of(a.at_byte(8191)).unwrap().name, "grid");
        assert!(l.region_of(Addr(a.base().0 + 8192)).is_none());
    }

    #[test]
    fn array_indexing() {
        let mut l = Layout::new();
        let v = l.shared("v", 64).elems(8);
        assert_eq!(v.len(), 8);
        assert!(!v.is_empty());
        assert_eq!(v.at(0), v.base());
        assert_eq!(v.at(7).0, v.base().0 + 56);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn array_oob_panics_in_debug() {
        let mut l = Layout::new();
        let v = l.shared("v", 64).elems(8);
        let _ = v.at(8);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_alloc_panics() {
        Layout::new().shared("x", 0);
    }

    #[test]
    fn display_lists_regions() {
        let mut l = Layout::new();
        l.shared("grid", 128);
        let s = l.to_string();
        assert!(s.contains("grid"));
    }
}
