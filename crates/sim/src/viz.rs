//! ASCII visualization of chip-level state: router pressure heatmaps —
//! the quickest way to *see* what a mapping did to the traffic (the
//! paper's Figure 1 intuition, in a terminal).

use crate::engine::Simulator;
use locmap_noc::{Direction, Link, Mesh};
use std::fmt::Write as _;

/// Renders `values` (one per node, row-major) as a mesh-shaped heatmap.
/// Values are normalized to the maximum; cells show one decimal digit of
/// intensity, `.` for zero.
///
/// # Panics
///
/// Panics if `values.len()` differs from the mesh's node count.
pub fn ascii_heatmap(mesh: Mesh, values: &[f64], title: &str) -> String {
    assert_eq!(values.len(), mesh.node_count(), "one value per node required");
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "{title} (max = {max:.0})");
    for y in 0..mesh.height() {
        out.push_str("  ");
        for x in 0..mesh.width() {
            let v = values[mesh.node_at(x, y).index()];
            let c = if max <= 0.0 || v <= 0.0 {
                '.'
            } else {
                let level = ((v / max) * 9.0).round() as u32;
                char::from_digit(level.min(9), 10).expect("digit in range")
            };
            out.push(c);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

/// Per-node router pressure: cumulative busy cycles of the node's four
/// outgoing links, as observed by `sim`'s network since construction.
pub fn router_pressure(sim: &Simulator) -> Vec<f64> {
    let mesh = sim.platform().mesh;
    let busy = sim.net_link_busy();
    mesh.nodes()
        .map(|n| {
            Direction::ALL.iter().map(|&dir| busy[Link { from: n, dir }.index()] as f64).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use locmap_core::{Compiler, Platform};
    use locmap_loopir::{Access, AffineExpr, DataEnv, LoopNest, Program};

    #[test]
    fn heatmap_shapes_and_scales() {
        let mesh = Mesh::try_new(3, 2).unwrap();
        let mut v = vec![0.0; 6];
        v[0] = 10.0;
        v[5] = 5.0;
        let map = ascii_heatmap(mesh, &v, "t");
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 3); // title + 2 rows
        assert!(lines[1].starts_with("  9"));
        assert!(lines[2].trim_end().ends_with('5'));
        assert!(map.contains("max = 10"));
    }

    #[test]
    fn zero_heatmap_is_dots() {
        let mesh = Mesh::try_new(2, 2).unwrap();
        let map = ascii_heatmap(mesh, &[0.0; 4], "z");
        assert_eq!(map.matches('.').count(), 4);
    }

    #[test]
    #[should_panic]
    fn wrong_length_panics() {
        ascii_heatmap(Mesh::try_new(2, 2).unwrap(), &[1.0; 3], "bad");
    }

    #[test]
    fn pressure_map_from_a_run() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 1 << 15);
        let mut nest = LoopNest::rectangular("n", &[(1 << 12) as i64]).work(8);
        nest.add_ref(a, AffineExpr::var(0, 8), Access::Read);
        let id = p.add_nest(nest);
        let platform = Platform::paper_default();
        let compiler = Compiler::builder(platform.clone()).build().unwrap();
        let mapping = compiler.default_mapping(&p, id);
        let mut sim = Simulator::builder(platform).build().unwrap();
        sim.run_nest(&p, &mapping, &DataEnv::new());

        let pressure = router_pressure(&sim);
        assert_eq!(pressure.len(), 36);
        assert!(pressure.iter().sum::<f64>() > 0.0);
    }
}
