//! Sensor-grid generation (§7.1, workload 2).
//!
//! "Our second workload consists of region-based sensor queries executed over
//! a simulated 100 m × 100 m grid of sensors … 5 'seed' groups … contiguous
//! (within k meters, where by default k = 20) triggered nodes."
//!
//! Sensors sit on a jittered square grid; positions are integer decimetres so
//! distances are exact. The generator also materialises the `near(x, y)`
//! proximity relation consumed by the region query plan — the planner's
//! equivalent rewrite of Query 3's `distance(posx, posy) < k` theta-join
//! (documented in DESIGN.md).
//!
//! Addresses are row-major (locality numbering): sensor `i` sits in row
//! `i / cols` and column `i % cols` of the grid, `cols = ⌈√sensors⌉`, so a
//! `near` pair is at most `(⌈radius / cell height⌉ + 1) · cols` addresses
//! apart. The engine orders provenance variables by address and relies on
//! this for annotation size, never for correctness.

use netrec_types::{Duration, NetAddr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{NodeClass, Topology};

/// Parameters for [`SensorGrid::generate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorGridParams {
    /// Field width in metres (paper: 100).
    pub width_m: u32,
    /// Field height in metres (paper: 100).
    pub height_m: u32,
    /// Number of sensors (paper: one per grid cell of a 10×10 layout).
    pub sensors: usize,
    /// Number of seed regions (paper: 5).
    pub seeds: usize,
    /// Proximity radius in metres (paper default: k = 20).
    pub radius_m: u32,
    /// Grid jitter as a fraction of cell size (0 = perfect grid).
    pub jitter: f64,
}

impl Default for SensorGridParams {
    fn default() -> Self {
        SensorGridParams {
            width_m: 100,
            height_m: 100,
            sensors: 100,
            seeds: 5,
            radius_m: 20,
            jitter: 0.25,
        }
    }
}

/// A generated sensor field.
#[derive(Clone, Debug)]
pub struct SensorGrid {
    /// Generation parameters.
    pub params: SensorGridParams,
    /// Sensor addresses `0..sensors`.
    pub sensors: Vec<NetAddr>,
    /// Positions in decimetres, parallel to `sensors`.
    pub positions: Vec<(i64, i64)>,
    /// `near` pairs: both orientations, no self-pairs.
    pub near: Vec<(NetAddr, NetAddr)>,
    /// Seed sensor of each region, `region id r` seeded at `seeds[r]`.
    pub seeds: Vec<NetAddr>,
}

impl SensorGrid {
    /// Generate a field deterministically from `(params, seed)`.
    pub fn generate(params: SensorGridParams, seed: u64) -> SensorGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = params.sensors;
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let cell_w = params.width_m as f64 / cols as f64;
        let cell_h = params.height_m as f64 / rows as f64;
        let mut sensors = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        for i in 0..n {
            let (r, c) = (i / cols, i % cols);
            let jx = (rng.random::<f64>() - 0.5) * params.jitter * cell_w;
            let jy = (rng.random::<f64>() - 0.5) * params.jitter * cell_h;
            let x = ((c as f64 + 0.5) * cell_w + jx) * 10.0; // decimetres
            let y = ((r as f64 + 0.5) * cell_h + jy) * 10.0;
            sensors.push(NetAddr(i as u32));
            positions.push((x as i64, y as i64));
        }
        // near(x, y): distance < radius. O(n²) is fine at these sizes.
        let radius_dm2 = (params.radius_m as i64 * 10).pow(2);
        let mut near = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (xi, yi) = positions[i];
                let (xj, yj) = positions[j];
                let d2 = (xi - xj).pow(2) + (yi - yj).pow(2);
                if d2 < radius_dm2 {
                    near.push((sensors[i], sensors[j]));
                }
            }
        }
        // Spread seeds across the field: pick evenly spaced indices, then
        // jitter the choice for variety between seeds.
        let mut seed_sensors = Vec::with_capacity(params.seeds);
        if params.seeds > 0 {
            let stride = n.max(1) / params.seeds.max(1);
            for s in 0..params.seeds {
                let base = s * stride;
                let idx = (base + rng.random_range(0..stride.max(1))).min(n - 1);
                seed_sensors.push(sensors[idx]);
            }
        }
        SensorGrid {
            params,
            sensors,
            positions,
            near,
            seeds: seed_sensors,
        }
    }

    /// Number of sensors.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Squared distance (decimetres²) between two sensors.
    pub fn dist2(&self, a: NetAddr, b: NetAddr) -> i64 {
        let (xa, ya) = self.positions[a.0 as usize];
        let (xb, yb) = self.positions[b.0 as usize];
        (xa - xb).pow(2) + (ya - yb).pow(2)
    }

    /// View of the field as a [`Topology`] whose links are the `near` pairs
    /// (one undirected link per unordered pair) — lets sensor workloads reuse
    /// the same simulator plumbing as router workloads. Radio hops are given
    /// a uniform 5 ms latency.
    pub fn as_topology(&self) -> Topology {
        let mut topo = Topology {
            nodes: self.sensors.clone(),
            classes: vec![NodeClass::Sensor; self.sensors.len()],
            links: Vec::new(),
        };
        for &(a, b) in &self.near {
            if a.0 < b.0 {
                topo.add_link(a, b, Duration::from_millis(5));
            }
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_field_shape() {
        let g = SensorGrid::generate(SensorGridParams::default(), 1);
        assert_eq!(g.sensor_count(), 100);
        assert_eq!(g.seeds.len(), 5);
        // Positions inside the field (decimetres).
        for &(x, y) in &g.positions {
            assert!((0..=1000).contains(&x), "x={x}");
            assert!((0..=1000).contains(&y), "y={y}");
        }
    }

    #[test]
    fn near_is_symmetric_and_respects_radius() {
        let g = SensorGrid::generate(SensorGridParams::default(), 2);
        let set: std::collections::HashSet<_> = g.near.iter().copied().collect();
        let r2 = (g.params.radius_m as i64 * 10).pow(2);
        for &(a, b) in &g.near {
            assert!(set.contains(&(b, a)), "asymmetric pair {a}/{b}");
            assert!(g.dist2(a, b) < r2);
            assert_ne!(a, b);
        }
        // And completeness: every in-radius pair is present.
        for i in 0..g.sensor_count() {
            for j in 0..g.sensor_count() {
                if i != j && g.dist2(NetAddr(i as u32), NetAddr(j as u32)) < r2 {
                    assert!(set.contains(&(NetAddr(i as u32), NetAddr(j as u32))));
                }
            }
        }
    }

    /// Row-major numbering: address `i` lies in grid cell
    /// `(i / cols, i % cols)` (jitter stays inside half a cell), and every
    /// `near` pair is within `(⌈radius / cell height⌉ + 1) · cols`
    /// addresses.
    #[test]
    fn addresses_are_row_major_and_near_pairs_stay_close() {
        for (sensors, radius_m, jitter, seed) in [
            (100, 20, 0.25, 1),
            (49, 20, 0.25, 2),
            (64, 30, 0.5, 3),
            (36, 12, 1.0, 4),
            (30, 25, 0.0, 5),
        ] {
            let params = SensorGridParams {
                sensors,
                radius_m,
                jitter,
                ..SensorGridParams::default()
            };
            let g = SensorGrid::generate(params, seed);
            let cols = (sensors as f64).sqrt().ceil() as usize;
            let rows = sensors.div_ceil(cols);
            let (cell_w, cell_h) = (
                params.width_m as f64 * 10.0 / cols as f64,
                params.height_m as f64 * 10.0 / rows as f64,
            );
            for (i, (&a, &(x, y))) in g.sensors.iter().zip(&g.positions).enumerate() {
                assert_eq!(a, NetAddr(i as u32));
                let (r, c) = (i / cols, i % cols);
                // One decimetre of slack for the truncation to integers.
                assert!((x as f64 - (c as f64 + 0.5) * cell_w).abs() <= cell_w / 2.0 + 1.0);
                assert!((y as f64 - (r as f64 + 0.5) * cell_h).abs() <= cell_h / 2.0 + 1.0);
            }
            let bound = ((radius_m as f64 * 10.0 / cell_h).ceil() as usize + 1) * cols;
            assert!(!g.near.is_empty());
            for &(a, b) in &g.near {
                let gap = a.0.abs_diff(b.0) as usize;
                assert!(gap <= bound, "{params:?}: {a}–{b} {gap} apart > {bound}");
            }
        }
    }

    #[test]
    fn grid_neighbours_are_near_with_default_radius() {
        // 10×10 over 100 m ⇒ ~10 m between neighbours < 20 m radius: every
        // sensor must have at least 2 neighbours, so regions can grow.
        let g = SensorGrid::generate(SensorGridParams::default(), 3);
        for s in &g.sensors {
            let count = g.near.iter().filter(|(a, _)| a == s).count();
            assert!(count >= 2, "sensor {s} has only {count} neighbours");
        }
    }

    #[test]
    fn seeds_are_distinct_enough() {
        let g = SensorGrid::generate(SensorGridParams::default(), 4);
        let unique: std::collections::HashSet<_> = g.seeds.iter().collect();
        assert!(unique.len() >= 4, "seeds should mostly be distinct");
    }

    #[test]
    fn determinism() {
        let a = SensorGrid::generate(SensorGridParams::default(), 9);
        let b = SensorGrid::generate(SensorGridParams::default(), 9);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.near, b.near);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn as_topology_mirrors_near() {
        let g = SensorGrid::generate(SensorGridParams::default(), 5);
        let t = g.as_topology();
        assert_eq!(t.node_count(), 100);
        assert_eq!(t.link_count() * 2, g.near.len());
    }
}
