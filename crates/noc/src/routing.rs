//! Deterministic X-Y dimension-ordered routing.
//!
//! X-Y routing first corrects the horizontal (X) offset, then the vertical
//! (Y) offset. It is deadlock-free on a mesh and is the norm in commercial
//! parts (Tilera, Xeon Phi), as the paper notes.

use crate::error::RouteError;
use crate::faults::FaultState;
use crate::topology::{Coord, Mesh, NodeId};
use serde::{Deserialize, Serialize};

/// One of the four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// Towards smaller y.
    North,
    /// Towards larger y.
    South,
}

impl Direction {
    /// All four directions in [`Link::index`] order — also the fixed order
    /// in which fault-aware searches explore a node's neighbours.
    pub const ALL: [Direction; 4] =
        [Direction::East, Direction::West, Direction::North, Direction::South];
}

/// A directed link leaving node `from` in direction `dir`.
///
/// Links are the unit of contention in the network model: each direction of
/// each physical channel arbitrates independently (full-duplex links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Direction of travel.
    pub dir: Direction,
}

impl Link {
    /// Dense index of this link, for per-link state arrays:
    /// `node_index * 4 + direction`.
    pub fn index(self) -> usize {
        self.from.index() * 4 + self.dir as usize
    }

    /// Total number of directed-link slots on `mesh` (including boundary
    /// slots that no route ever uses; keeping the array dense is simpler
    /// and cheap).
    pub fn slot_count(mesh: Mesh) -> usize {
        mesh.node_count() * 4
    }
}

/// The ordered list of directed links a message takes from `src` to `dst`
/// under X-Y routing. Empty when `src == dst`.
pub fn route_xy(mesh: Mesh, src: NodeId, dst: NodeId) -> Vec<Link> {
    let s = mesh.coord_of(src);
    let d = mesh.coord_of(dst);
    let mut links = Vec::with_capacity(s.manhattan(d) as usize);
    let mut cur = s;
    while cur.x != d.x {
        let dir = if d.x > cur.x { Direction::East } else { Direction::West };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
    }
    while cur.y != d.y {
        let dir = if d.y > cur.y { Direction::South } else { Direction::North };
        links.push(Link { from: mesh.node_at(cur.x, cur.y), dir });
        cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
    }
    links
}

/// The route a message takes from `src` to `dst` in fault state `faults`.
///
/// This is the X-Y route ([`route_xy`]) when every link and intermediate
/// router on it is alive — always, on a [`FaultState::none`] chip — and
/// otherwise a deterministic breadth-first detour over the surviving mesh
/// channels (neighbors explored in fixed E, W, N, S order, so the same
/// fault state always yields the same detour). Returns
/// [`RouteError::Unreachable`] when no surviving path exists — never a
/// route to the wrong node.
pub fn route(
    mesh: Mesh,
    faults: &FaultState,
    src: NodeId,
    dst: NodeId,
) -> Result<Vec<Link>, RouteError> {
    let unreachable = RouteError::Unreachable { from: src, to: dst };
    if !faults.router_alive(src) || !faults.router_alive(dst) {
        return Err(unreachable);
    }
    if src == dst {
        return Ok(Vec::new());
    }

    // Fast path: the X-Y route, when fully intact. Every
    // link must be alive, as must every intermediate router (each link's
    // source after the first; src and dst are already checked).
    let xy = route_xy(mesh, src, dst);
    let intact = xy
        .iter()
        .enumerate()
        .all(|(i, l)| faults.link_alive(*l) && (i == 0 || faults.router_alive(l.from)));
    if intact {
        return Ok(xy);
    }

    // Detour: the breadth-first search over the surviving channels, stopped
    // at `dst`, which is minimal-hop and deterministic; walk its
    // predecessor links back to `src`.
    let (reached, prev) = faults.search(src, Some(dst));
    if !reached[dst.index()] {
        return Err(unreachable);
    }
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let link = prev[cur.index()].expect("BFS predecessor chain reaches src");
        cur = link.from;
        links.push(link);
    }
    links.reverse();
    Ok(links)
}

/// The coordinate reached after traversing `link`.
///
/// # Panics
///
/// Panics if `link` leaves the mesh (see [`link_exists`](crate::link_exists)).
pub fn link_target(mesh: Mesh, link: Link) -> Coord {
    let c = mesh.coord_of(link.from);
    match link.dir {
        Direction::East => Coord::new(c.x + 1, c.y),
        Direction::West => Coord::new(c.x - 1, c.y),
        Direction::North => Coord::new(c.x, c.y - 1),
        Direction::South => Coord::new(c.x, c.y + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_length_equals_manhattan_distance() {
        let m = Mesh::try_new(6, 6).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(route_xy(m, a, b).len() as u32, m.distance(a, b));
            }
        }
    }

    #[test]
    fn route_is_x_then_y() {
        let m = Mesh::try_new(6, 6).unwrap();
        let route = route_xy(m, m.node_at(0, 0), m.node_at(3, 2));
        let dirs: Vec<_> = route.iter().map(|l| l.dir).collect();
        assert_eq!(
            dirs,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South
            ]
        );
    }

    #[test]
    fn route_is_contiguous_and_reaches_destination() {
        let m = Mesh::try_new(5, 7).unwrap();
        for a in m.nodes() {
            for b in m.nodes() {
                let route = route_xy(m, a, b);
                let mut cur = m.coord_of(a);
                for link in &route {
                    assert_eq!(m.coord_of(link.from), cur, "route not contiguous");
                    cur = link_target(m, *link);
                }
                assert_eq!(cur, m.coord_of(b), "route did not reach dst");
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let m = Mesh::try_new(4, 4).unwrap();
        assert!(route_xy(m, m.node_at(2, 2), m.node_at(2, 2)).is_empty());
    }

    #[test]
    fn faulty_route_matches_xy_when_clean() {
        let m = Mesh::try_new(6, 6).unwrap();
        let clean = crate::faults::FaultState::none(m, 4);
        for a in m.nodes() {
            for b in m.nodes() {
                assert_eq!(route(m, &clean, a, b).unwrap(), route_xy(m, a, b));
            }
        }
    }

    #[test]
    fn faulty_route_detours_around_dead_link() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(6, 6).unwrap();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        let cut = Link { from: m.node_at(1, 0), dir: Direction::East };
        let state = FaultPlan::new(m, 4).dead_link(cut).state_at(0);
        let path = route(m, &state, src, dst).unwrap();
        // Detour exists, avoids the cut channel, and still arrives.
        assert!(path.iter().all(|l| state.link_alive(*l)));
        let mut cur = m.coord_of(src);
        for l in &path {
            assert_eq!(m.coord_of(l.from), cur, "route not contiguous");
            cur = link_target(m, *l);
        }
        assert_eq!(cur, m.coord_of(dst));
        assert_eq!(path.len(), 5, "minimal detour is 2 extra hops");
        // Determinism: same state, same route.
        assert_eq!(path, route(m, &state, src, dst).unwrap());
    }

    #[test]
    fn faulty_route_avoids_dead_router() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(6, 6).unwrap();
        let dead = m.node_at(2, 0);
        let state = FaultPlan::new(m, 4).dead_router(dead).state_at(0);
        let path =
            route(m, &state, m.node_at(0, 0), m.node_at(5, 0)).unwrap();
        for l in &path {
            assert_ne!(l.from, dead, "route passes through dead router");
            let t = link_target(m, *l);
            assert_ne!(m.node_at(t.x, t.y), dead, "route enters dead router");
        }
        // Endpoints on dead routers are unreachable by definition.
        assert!(route(m, &state, dead, m.node_at(5, 5)).is_err());
        assert!(route(m, &state, m.node_at(5, 5), dead).is_err());
    }

    #[test]
    fn disconnection_reports_unreachable() {
        use crate::faults::FaultPlan;
        let m = Mesh::try_new(2, 2).unwrap();
        // Cut both channels out of (0,0).
        let state = FaultPlan::new(m, 1)
            .dead_link(Link { from: m.node_at(0, 0), dir: Direction::East })
            .dead_link(Link { from: m.node_at(0, 0), dir: Direction::South })
            .state_at(0);
        let err = route(m, &state, m.node_at(0, 0), m.node_at(1, 1))
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::RouteError::Unreachable { from: m.node_at(0, 0), to: m.node_at(1, 1) }
        );
    }

    #[test]
    fn link_indices_are_unique_and_in_range() {
        let m = Mesh::try_new(6, 6).unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in m.nodes() {
            for dir in Direction::ALL {
                let l = Link { from: n, dir };
                assert!(l.index() < Link::slot_count(m));
                assert!(seen.insert(l.index()));
            }
        }
    }
}
