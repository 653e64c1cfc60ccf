//! Logical region partitioning of the mesh (the paper's R1..R9).
//!
//! The paper divides the 2D network space into a grid of regions; cores in
//! the same region are assumed to have identical affinities to each MC and
//! LLC bank group. Region granularity is a tunable (Figure 10 sweeps it from
//! 4 regions of 3x3 cores down to 36 regions of a single core each).

use crate::topology::{Coord, Mesh, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a logical region. Regions are numbered row-major, so on a
/// 3x3 region grid, `RegionId(0)` is the paper's R1 (top-left) and
/// `RegionId(8)` is R9 (bottom-right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct RegionId(pub u16);

impl RegionId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper numbering is 1-based (R1..R9).
        write!(f, "R{}", self.0 + 1)
    }
}

/// A partition of the mesh into a `cols x rows` grid of rectangular regions.
///
/// When the mesh dimensions do not divide evenly, the trailing regions
/// absorb the remainder, so every core belongs to exactly one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionGrid {
    mesh: Mesh,
    cols: u16,
    rows: u16,
}

impl RegionGrid {
    /// Validating constructor: errors instead of panicking when the grid
    /// is empty or does not fit the mesh, so user-supplied partitions
    /// become diagnostics rather than crashes.
    pub fn try_new(mesh: Mesh, cols: u16, rows: u16) -> Result<Self, crate::error::LocmapError> {
        if cols == 0 || rows == 0 {
            return Err(crate::error::LocmapError::InvalidConfig(format!(
                "region grid must be non-empty (got {cols}x{rows})"
            )));
        }
        if cols > mesh.width() || rows > mesh.height() {
            return Err(crate::error::LocmapError::InvalidConfig(format!(
                "region grid {cols}x{rows} larger than mesh {mesh}"
            )));
        }
        Ok(RegionGrid { mesh, cols, rows })
    }

    /// The standard 9-region (3x3) partition used as the paper's default.
    pub fn paper_default(mesh: Mesh) -> Self {
        RegionGrid::try_new(mesh, 3, 3).expect("3x3 grid fits every mesh of at least 3x3")
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Number of region columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of region rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of regions.
    pub fn region_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// The region containing mesh coordinate `c`.
    pub fn region_of_coord(&self, c: Coord) -> RegionId {
        let rx = ((c.x as u32 * self.cols as u32) / self.mesh.width() as u32) as u16;
        let ry = ((c.y as u32 * self.rows as u32) / self.mesh.height() as u32) as u16;
        RegionId(ry * self.cols + rx)
    }

    /// The region containing `node`.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.region_of_coord(self.mesh.coord_of(node))
    }

    /// Region-grid position `(col, row)` of region `r`.
    pub fn grid_pos(&self, r: RegionId) -> (u16, u16) {
        (r.0 % self.cols, r.0 / self.cols)
    }

    /// All nodes belonging to region `r`, in row-major order.
    pub fn nodes_in(&self, r: RegionId) -> Vec<NodeId> {
        self.mesh.nodes().filter(|&n| self.region_of(n) == r).collect()
    }

    /// Geometric centroid of region `r` in mesh coordinates (as floats,
    /// since region centers may fall between nodes).
    pub fn centroid(&self, r: RegionId) -> (f64, f64) {
        let nodes = self.nodes_in(r);
        let n = nodes.len() as f64;
        let (sx, sy) = nodes.iter().fold((0.0, 0.0), |(sx, sy), &node| {
            let c = self.mesh.coord_of(node);
            (sx + c.x as f64, sy + c.y as f64)
        });
        (sx / n, sy / n)
    }

    /// Manhattan distance between region centroids, used by the
    /// location-aware load balancer to order donor/receiver pairs.
    pub fn region_distance(&self, a: RegionId, b: RegionId) -> f64 {
        let (ax, ay) = self.centroid(a);
        let (bx, by) = self.centroid(b);
        (ax - bx).abs() + (ay - by).abs()
    }

    /// The immediate (4-connected) neighbor regions of `r`.
    pub fn neighbors(&self, r: RegionId) -> Vec<RegionId> {
        let (x, y) = self.grid_pos(r);
        let mut out = Vec::with_capacity(4);
        if y > 0 {
            out.push(RegionId((y - 1) * self.cols + x));
        }
        if x > 0 {
            out.push(RegionId(y * self.cols + x - 1));
        }
        if x + 1 < self.cols {
            out.push(RegionId(y * self.cols + x + 1));
        }
        if y + 1 < self.rows {
            out.push(RegionId((y + 1) * self.cols + x));
        }
        out
    }

    /// Iterator over all region ids.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> {
        (0..self.region_count() as u16).map(RegionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_6x6_3x3() -> RegionGrid {
        RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap())
    }

    #[test]
    fn nine_regions_of_four_cores_each() {
        let g = grid_6x6_3x3();
        assert_eq!(g.region_count(), 9);
        for r in g.regions() {
            assert_eq!(g.nodes_in(r).len(), 4, "{r} should have 4 cores");
        }
    }

    #[test]
    fn region_numbering_matches_paper() {
        let g = grid_6x6_3x3();
        let m = g.mesh();
        // R1 = top-left 2x2 block.
        assert_eq!(g.region_of(m.node_at(0, 0)), RegionId(0));
        assert_eq!(g.region_of(m.node_at(1, 1)), RegionId(0));
        // R3 = top-right.
        assert_eq!(g.region_of(m.node_at(5, 0)), RegionId(2));
        // R5 = center.
        assert_eq!(g.region_of(m.node_at(2, 2)), RegionId(4));
        assert_eq!(g.region_of(m.node_at(3, 3)), RegionId(4));
        // R9 = bottom-right.
        assert_eq!(g.region_of(m.node_at(5, 5)), RegionId(8));
    }

    #[test]
    fn every_node_in_exactly_one_region() {
        for (cols, rows) in [(1, 1), (2, 2), (3, 3), (2, 3), (6, 6), (3, 2)] {
            let g = RegionGrid::try_new(Mesh::try_new(6, 6).unwrap(), cols, rows).unwrap();
            let mut seen = vec![0u32; 36];
            for r in g.regions() {
                for n in g.nodes_in(r) {
                    seen[n.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{cols}x{rows}: {seen:?}");
        }
    }

    #[test]
    fn uneven_partition_covers_mesh() {
        // 5x5 mesh into 2x2 regions: sizes 2/3 split.
        let g = RegionGrid::try_new(Mesh::try_new(5, 5).unwrap(), 2, 2).unwrap();
        let total: usize = g.regions().map(|r| g.nodes_in(r).len()).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn neighbor_relation() {
        let g = grid_6x6_3x3();
        // R5 (center) touches R2, R4, R6, R8.
        let n = g.neighbors(RegionId(4));
        assert_eq!(n, vec![RegionId(1), RegionId(3), RegionId(5), RegionId(7)]);
        assert!(!g.neighbors(RegionId(0)).contains(&RegionId(4))); // diagonal
        assert!(!g.neighbors(RegionId(0)).contains(&RegionId(0)));
        // Corner region has exactly two neighbors.
        assert_eq!(g.neighbors(RegionId(0)).len(), 2);
    }

    #[test]
    fn centroid_of_center_region() {
        let g = grid_6x6_3x3();
        let (cx, cy) = g.centroid(RegionId(4));
        assert!((cx - 2.5).abs() < 1e-9 && (cy - 2.5).abs() < 1e-9);
    }

    #[test]
    fn region_distance_is_symmetric_and_zero_on_self() {
        let g = grid_6x6_3x3();
        for a in g.regions() {
            assert_eq!(g.region_distance(a, a), 0.0);
            for b in g.regions() {
                assert_eq!(g.region_distance(a, b), g.region_distance(b, a));
            }
        }
    }

    #[test]
    fn single_core_regions() {
        let g = RegionGrid::try_new(Mesh::try_new(6, 6).unwrap(), 6, 6).unwrap();
        assert_eq!(g.region_count(), 36);
        for r in g.regions() {
            assert_eq!(g.nodes_in(r).len(), 1);
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn paper_figure3_9x9_mesh_regions() {
        // The paper's Figure 3 shows a 9x9 manycore; its 3x3 regions hold
        // 9 cores each.
        let g = RegionGrid::paper_default(Mesh::try_new(9, 9).unwrap());
        assert_eq!(g.region_count(), 9);
        for r in g.regions() {
            assert_eq!(g.nodes_in(r).len(), 9);
        }
    }

    #[test]
    fn rectangular_mesh_regions_cover() {
        let g = RegionGrid::try_new(Mesh::try_new(8, 4).unwrap(), 4, 2).unwrap();
        assert_eq!(g.region_count(), 8);
        let total: usize = g.regions().map(|r| g.nodes_in(r).len()).sum();
        assert_eq!(total, 32);
        for r in g.regions() {
            assert_eq!(g.nodes_in(r).len(), 4);
        }
    }

    #[test]
    fn grid_pos_roundtrip() {
        let g = RegionGrid::try_new(Mesh::try_new(6, 6).unwrap(), 3, 3).unwrap();
        for r in g.regions() {
            let (c, row) = g.grid_pos(r);
            assert_eq!(RegionId(row * 3 + c), r);
        }
    }

    #[test]
    fn neighbors_are_mutual() {
        let g = RegionGrid::try_new(Mesh::try_new(6, 6).unwrap(), 3, 2).unwrap();
        for a in g.regions() {
            for b in g.neighbors(a) {
                assert!(g.neighbors(b).contains(&a), "{a} <-> {b}");
            }
        }
    }

    #[test]
    fn region_distance_respects_grid_geometry() {
        let g = RegionGrid::paper_default(Mesh::try_new(6, 6).unwrap());
        // Adjacent regions are closer than diagonal ones.
        let adj = g.region_distance(RegionId(0), RegionId(1));
        let diag = g.region_distance(RegionId(0), RegionId(4));
        let far = g.region_distance(RegionId(0), RegionId(8));
        assert!(adj < diag && diag < far);
    }
}
