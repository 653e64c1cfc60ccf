//! Platform description exposed to the compiler.
//!
//! The paper's central premise is that the compiler should see the
//! *architecture information* of Figure 4: cache topology and management,
//! NoC layout, region partitioning, and the physical-address interleaving.
//! [`Platform`] packages exactly that.

use locmap_mem::{AddrMap, AddrMapConfig};
use locmap_noc::{Coord, McPlacement, Mesh, RegionGrid};
use serde::{Deserialize, Serialize};

/// Last-level cache organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LlcOrg {
    /// Each node's L2 bank caches only that node's data; an L1 miss always
    /// probes the local bank (no network), and an LLC miss travels
    /// core → MC.
    Private,
    /// S-NUCA: each line has a home bank selected by its address; an L1
    /// miss travels core → home bank, and an LLC miss continues
    /// home bank → MC.
    SharedSNuca,
}

/// Everything the mapping pass knows about the machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// The core/LLC-bank mesh.
    pub mesh: Mesh,
    /// Logical region partitioning used for MAC/CAI/CAC.
    pub regions: RegionGrid,
    /// Attachment coordinates of the memory controllers.
    pub mc_coords: Vec<Coord>,
    /// Physical-address interleaving.
    pub addr_map: AddrMap,
    /// LLC organization.
    pub llc: LlcOrg,
}

impl Platform {
    /// The paper's default platform: 6×6 mesh, 9 regions of 2×2 cores,
    /// 4 corner MCs, page-interleaved memory, line-interleaved shared LLC.
    pub fn paper_default() -> Self {
        Self::paper_default_with(LlcOrg::SharedSNuca)
    }

    /// The paper default with an explicit LLC organization.
    pub fn paper_default_with(llc: LlcOrg) -> Self {
        let mesh = Mesh::try_new(6, 6).unwrap();
        Platform {
            mesh,
            regions: RegionGrid::paper_default(mesh),
            mc_coords: McPlacement::Corners.coords(mesh),
            addr_map: AddrMap::new(AddrMapConfig::paper_default(mesh.node_count() as u16)),
            llc,
        }
    }

    /// Number of memory controllers.
    pub fn mc_count(&self) -> usize {
        self.mc_coords.len()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.region_count()
    }

    /// The mesh node an LLC bank index lives on (banks are co-located with
    /// nodes 1:1).
    pub fn bank_node(&self, bank: u16) -> locmap_noc::NodeId {
        locmap_noc::NodeId(bank)
    }

    /// The region of each LLC bank's node, indexed by bank. Hot loops
    /// build it once per call, so attributing an access to its home bank's
    /// region is one load rather than a [`RegionGrid::region_of`].
    pub fn bank_regions(&self) -> Vec<locmap_noc::RegionId> {
        (0..self.mesh.node_count())
            .map(|b| self.regions.region_of(self.bank_node(b as u16)))
            .collect()
    }

    /// The mesh node a memory controller attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    pub fn mc_node(&self, mc: locmap_noc::McId) -> locmap_noc::NodeId {
        let c = self.mc_coords[mc.index()];
        self.mesh.node_at(c.x, c.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let p = Platform::paper_default();
        assert_eq!(p.mesh.node_count(), 36);
        assert_eq!(p.region_count(), 9);
        assert_eq!(p.mc_count(), 4);
        assert_eq!(p.llc, LlcOrg::SharedSNuca);
    }

    #[test]
    fn mc_nodes_are_corners() {
        let p = Platform::paper_default();
        let nodes: Vec<_> = (0..4).map(|k| p.mc_node(locmap_noc::McId(k)).index()).collect();
        assert_eq!(nodes, vec![0, 5, 35, 30]);
    }

    #[test]
    fn bank_regions_match_region_of() {
        let mut p = Platform::paper_default();
        p.mesh = Mesh::try_new(8, 4).unwrap();
        p.regions = RegionGrid::try_new(p.mesh, 4, 2).unwrap();
        let table = p.bank_regions();
        assert_eq!(table.len(), 32);
        for (b, &r) in table.iter().enumerate() {
            assert_eq!(r, p.regions.region_of(p.bank_node(b as u16)));
        }
    }

    #[test]
    fn bank_node_is_identity() {
        let p = Platform::paper_default();
        assert_eq!(p.bank_node(17).index(), 17);
    }
}
