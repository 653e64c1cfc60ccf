//! Mesh topology: coordinates, node ids, Manhattan distance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A physical (x, y) position on the 2D mesh.
///
/// `x` grows to the right (east), `y` grows downwards (south), with
/// `(0, 0)` at the top-left corner — matching the figures in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Coord {
    /// Column index (0-based, grows eastwards).
    pub x: u16,
    /// Row index (0-based, grows southwards).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column `x` and row `y`.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan (L1) distance to `other`, in hops.
    ///
    /// This is the number of mesh links a minimal X-Y route traverses, and
    /// is the distance measure the paper uses for all affinity reasoning.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Dense identifier of a mesh node (core + L1 + L2 bank + router).
///
/// Node ids are assigned in row-major order: `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A rectangular 2D mesh of `width x height` nodes.
///
/// Each node contains a core, private L1 I/D caches, one L2 (LLC) bank and
/// a router, as in Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Validating constructor: errors instead of panicking on a zero
    /// dimension, so user-supplied sizes (CLI flags, config files) turn
    /// into diagnostics rather than crashes.
    pub fn try_new(width: u16, height: u16) -> Result<Self, crate::error::LocmapError> {
        if width == 0 || height == 0 {
            return Err(crate::error::LocmapError::InvalidConfig(format!(
                "mesh dimensions must be non-zero (got {width}x{height})"
            )));
        }
        Ok(Mesh { width, height })
    }

    /// Number of columns.
    pub fn width(self) -> u16 {
        self.width
    }

    /// Number of rows.
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes (= cores = LLC banks).
    pub fn node_count(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The node at mesh position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "({x}, {y}) outside {self:?}");
        NodeId(y * self.width + x)
    }

    /// The coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this mesh.
    pub fn coord_of(self, node: NodeId) -> Coord {
        assert!((node.0 as usize) < self.node_count(), "{node} outside {self:?}");
        Coord::new(node.0 % self.width, node.0 / self.width)
    }

    /// Manhattan distance in hops between two nodes.
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        self.coord_of(a).manhattan(self.coord_of(b))
    }

    /// Iterator over all node ids in row-major order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u16).map(NodeId)
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_row_major() {
        let m = Mesh::try_new(6, 6).unwrap();
        assert_eq!(m.node_at(0, 0), NodeId(0));
        assert_eq!(m.node_at(5, 0), NodeId(5));
        assert_eq!(m.node_at(0, 1), NodeId(6));
        assert_eq!(m.node_at(5, 5), NodeId(35));
    }

    #[test]
    fn coord_roundtrip() {
        let m = Mesh::try_new(6, 6).unwrap();
        for n in m.nodes() {
            let c = m.coord_of(n);
            assert_eq!(m.node_at(c.x, c.y), n);
        }
    }

    #[test]
    fn manhattan_distance_examples() {
        let m = Mesh::try_new(6, 6).unwrap();
        assert_eq!(m.distance(m.node_at(0, 0), m.node_at(5, 5)), 10);
        assert_eq!(m.distance(m.node_at(2, 3), m.node_at(2, 3)), 0);
        assert_eq!(m.distance(m.node_at(1, 1), m.node_at(4, 1)), 3);
    }

    #[test]
    #[should_panic]
    fn node_at_out_of_bounds_panics() {
        Mesh::try_new(4, 4).unwrap().node_at(4, 0);
    }

    #[test]
    fn node_count() {
        assert_eq!(Mesh::try_new(6, 6).unwrap().node_count(), 36);
        assert_eq!(Mesh::try_new(8, 8).unwrap().node_count(), 64);
        assert_eq!(Mesh::try_new(1, 1).unwrap().node_count(), 1);
    }
}
