use std::fmt;

/// Identifies one CMP node (processor chip + local memory + directory slice).
///
/// Nodes are numbered densely from zero; a 16-CMP machine has nodes `0..16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a `usize`, for indexing per-node tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies one processor: a node plus which of the CMP's two cores.
///
/// # Example
///
/// ```
/// use slipstream_kernel::{CpuId, NodeId};
///
/// let cpu = CpuId::new(NodeId(3), 1);
/// assert_eq!(cpu.node(), NodeId(3));
/// assert_eq!(cpu.core(), 1);
/// assert_eq!(cpu.flat(2), 7); // flat index in a 2-cores-per-node machine
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId {
    node: NodeId,
    core: u8,
}

impl CpuId {
    /// Creates the id of core `core` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 2`: the paper's CMP building block is strictly a
    /// dual-processor chip.
    #[inline]
    pub fn new(node: NodeId, core: u8) -> CpuId {
        assert!(core < 2, "CMP nodes have exactly two cores");
        CpuId { node, core }
    }

    /// The node this processor lives on.
    #[inline]
    pub fn node(self) -> NodeId {
        self.node
    }

    /// Which core within the CMP (0 or 1).
    #[inline]
    pub fn core(self) -> u8 {
        self.core
    }

    /// Dense index of this CPU across the whole machine, given the number of
    /// cores per node.
    #[inline]
    pub fn flat(self, cores_per_node: usize) -> usize {
        self.node.idx() * cores_per_node + self.core as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}.{}", self.node.0, self.core)
    }
}

/// Identifies a parallel task of the application (not a processor: placement
/// of tasks onto processors depends on the execution mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u16);

impl TaskId {
    /// The task index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A byte address in the simulated global shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 / line_bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A cache-line address: a byte address divided by the line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte address of this line.
    #[inline]
    pub fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_flat_index() {
        assert_eq!(CpuId::new(NodeId(0), 0).flat(2), 0);
        assert_eq!(CpuId::new(NodeId(0), 1).flat(2), 1);
        assert_eq!(CpuId::new(NodeId(5), 0).flat(2), 10);
    }

    #[test]
    #[should_panic(expected = "two cores")]
    fn cpu_core_out_of_range_panics() {
        let _ = CpuId::new(NodeId(0), 2);
    }

    #[test]
    fn addr_to_line_roundtrip() {
        let a = Addr(0x1234);
        let line = a.line(64);
        assert_eq!(line, LineAddr(0x1234 / 64));
        assert!(line.base(64).0 <= a.0);
        assert!(a.0 < line.base(64).0 + 64);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(CpuId::new(NodeId(3), 1).to_string(), "cpu3.1");
        assert_eq!(TaskId(7).to_string(), "task7");
        assert_eq!(Addr(16).to_string(), "0x10");
        assert_eq!(LineAddr(16).to_string(), "L0x10");
    }
}
