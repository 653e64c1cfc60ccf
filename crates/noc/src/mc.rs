//! Memory-controller placement on the mesh.
//!
//! The paper's default places 4 MCs at the corners of the chip (Figure 3);
//! the sensitivity study (Figure 9, "Different MC Placement") moves them to
//! the middle of each side instead.

use crate::topology::{Coord, Mesh};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a memory controller, `0..mc_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct McId(pub u16);

impl McId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for McId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper numbering is 1-based (MC1..MC4).
        write!(f, "MC{}", self.0 + 1)
    }
}

/// Where the four memory controllers attach to the mesh. A machine with
/// other controller coordinates lists them itself (`locmap-core`'s
/// `Platform::mc_coords`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum McPlacement {
    /// One MC at each corner of the chip — the paper's default
    /// (MC1 top-right, MC2 bottom-right, MC3 top-left, MC4 bottom-left,
    /// mirroring Figure 3's labeling is unnecessary; we use a deterministic
    /// clockwise-from-top-left order).
    #[default]
    Corners,
    /// One MC at the midpoint of each side — the alternate placement of the
    /// Figure 9 sensitivity experiment.
    EdgeMidpoints,
}

impl McPlacement {
    /// Attachment coordinates (mesh nodes whose routers connect to the MCs).
    ///
    /// Order defines [`McId`] numbering: index `k` is `MC(k+1)`.
    pub fn coords(&self, mesh: Mesh) -> Vec<Coord> {
        let w = mesh.width() - 1;
        let h = mesh.height() - 1;
        match self {
            // Clockwise from top-left: MC1=TL, MC2=TR, MC3=BR, MC4=BL.
            McPlacement::Corners => vec![
                Coord::new(0, 0),
                Coord::new(w, 0),
                Coord::new(w, h),
                Coord::new(0, h),
            ],
            McPlacement::EdgeMidpoints => vec![
                Coord::new(w / 2, 0), // top
                Coord::new(w, h / 2), // right
                Coord::new(w / 2, h), // bottom
                Coord::new(0, h / 2), // left
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_on_6x6() {
        let m = Mesh::try_new(6, 6).unwrap();
        let cs = McPlacement::Corners.coords(m);
        assert_eq!(
            cs,
            vec![
                Coord::new(0, 0),
                Coord::new(5, 0),
                Coord::new(5, 5),
                Coord::new(0, 5)
            ]
        );
    }

    #[test]
    fn edge_midpoints_on_6x6() {
        let m = Mesh::try_new(6, 6).unwrap();
        let cs = McPlacement::EdgeMidpoints.coords(m);
        assert_eq!(cs.len(), 4);
        // All attachment points lie on the chip boundary.
        for c in &cs {
            assert!(c.x == 0 || c.x == 5 || c.y == 0 || c.y == 5, "{c} not on edge");
        }
        // And none at a corner.
        for c in &cs {
            assert!(
                !((c.x == 0 || c.x == 5) && (c.y == 0 || c.y == 5)),
                "{c} is a corner"
            );
        }
    }

    #[test]
    fn corner_mcs_are_mutually_distant() {
        let m = Mesh::try_new(6, 6).unwrap();
        let cs = McPlacement::Corners.coords(m);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(cs[i].manhattan(cs[j]) >= 5);
            }
        }
    }
}
