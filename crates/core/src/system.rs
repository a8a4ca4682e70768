//! High-level facade: a maintained distributed view system.

use std::collections::BTreeSet;

use netrec_engine::reference::{Db, Program};
use netrec_engine::runner::{RunReport, Runner};
use netrec_topo::Workload;
use netrec_types::{Tuple, UpdateKind};

use crate::queries::{paths, reachable, regions, AggSelChoice};

/// Configuration for a [`System`]: the runner's own configuration
/// (strategy, placement, cluster, cost model, budget, substrate).
pub use netrec_engine::runner::RunnerConfig as SystemConfig;

/// A running distributed view system: one of the paper's query families
/// instantiated over a simulated cluster, plus the matching oracle program
/// and a mirror of the live base state for from-scratch checking.
pub struct System {
    runner: Runner,
    oracle: Program,
    /// Live base tuples (mirrors the ingress state; drives the oracle).
    base: Db,
}

impl System {
    fn build(plan: netrec_engine::Plan, oracle: Program, cfg: SystemConfig) -> System {
        System {
            runner: Runner::new(plan, cfg),
            oracle,
            base: Db::new(),
        }
    }

    /// Query 1: network reachability.
    pub fn reachable(cfg: SystemConfig) -> System {
        let (plan, oracle) = reachable::compile();
        System::build(plan, oracle, cfg)
    }

    /// Query 2: shortest/cheapest paths with the chosen aggregate selection.
    pub fn shortest_paths(cfg: SystemConfig, choice: AggSelChoice) -> System {
        let (plan, oracle) = paths::compile(choice);
        System::build(plan, oracle, cfg)
    }

    /// Query 3: contiguous sensor regions.
    pub fn regions(cfg: SystemConfig) -> System {
        let (plan, oracle) = regions::compile();
        System::build(plan, oracle, cfg)
    }

    /// Feed a workload script into the EDB ingresses (updates queue behind
    /// whatever has already been simulated).
    pub fn apply(&mut self, workload: &Workload) {
        for op in &workload.ops {
            self.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
    }

    /// Feed one base operation.
    pub fn inject(
        &mut self,
        rel: &str,
        tuple: Tuple,
        kind: UpdateKind,
        ttl: Option<netrec_types::Duration>,
    ) {
        // The runner refuses an operation before queueing it; only then
        // does the oracle's base state follow.
        self.runner.inject(rel, tuple.clone(), kind, ttl);
        let rel_id = self.runner.plan().catalog.id(rel).expect("known relation");
        match kind {
            UpdateKind::Insert => {
                self.base.entry(rel_id).or_default().insert(tuple);
            }
            UpdateKind::Delete => {
                if let Some(set) = self.base.get_mut(&rel_id) {
                    set.remove(&tuple);
                }
            }
        }
    }

    /// Run to quiescence (or budget) and report.
    pub fn run(&mut self, label: &str) -> RunReport {
        self.runner.run_phase(label)
    }

    /// Current contents of a view across all peers. O(view) per call — a
    /// read-heavy service should attach [`System::serve`] and use the
    /// returned reader's point lookups instead.
    pub fn view(&self, rel: &str) -> BTreeSet<Tuple> {
        self.runner.view(rel)
    }

    /// Attach the lock-free serving layer (see `Runner::serve`): the named
    /// relations are materialized behind an epoch-published left-right map
    /// and every converged [`System::run`] boundary publishes their
    /// membership deltas as one epoch. Clone the returned reader per serving
    /// thread; lookups (`connected`, `region_of`, `view_contains`) take no
    /// lock and never observe a mid-cascade view.
    pub fn serve(&mut self, spec: &netrec_engine::ServeSpec) -> netrec_engine::ViewReader {
        self.runner.serve(spec)
    }

    /// From-scratch oracle evaluation of a view over the current base state.
    ///
    /// Note: TTL expirations happen inside the simulation; when a workload
    /// uses TTLs the caller must account for expired tuples itself.
    pub fn oracle_view(&self, rel: &str) -> BTreeSet<Tuple> {
        let rel_id = self.runner.plan().catalog.id(rel).expect("known relation");
        let db = self.oracle.evaluate(&self.base);
        db.get(&rel_id).cloned().unwrap_or_default()
    }

    /// The underlying runner (metrics, provenance inspection, DRed driver).
    pub fn runner(&mut self) -> &mut Runner {
        &mut self.runner
    }

    /// Immutable runner access.
    pub fn runner_ref(&self) -> &Runner {
        &self.runner
    }

    /// The live base tuples this system has been fed (minus deletions).
    pub fn base_state(&self) -> &Db {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_engine::strategy::Strategy;
    use netrec_topo::random_graph;

    #[test]
    fn reachable_system_matches_oracle() {
        let topo = random_graph(10, 16, 3);
        let mut sys = System::reachable(SystemConfig::new(Strategy::absorption_lazy(), 4));
        sys.apply(&Workload::insert_links(&topo, 1.0, 1));
        let rep = sys.run("load");
        assert!(rep.converged());
        assert_eq!(sys.view("reachable"), sys.oracle_view("reachable"));
        // Delete a few links and re-check.
        sys.apply(&Workload::delete_links(&topo, 0.25, 2));
        let rep = sys.run("churn");
        assert!(rep.converged());
        assert_eq!(sys.view("reachable"), sys.oracle_view("reachable"));
    }

    /// A loaded regions system on 25 sensors and its first `near` pair.
    fn loaded_regions() -> (System, Tuple) {
        let grid = netrec_topo::SensorGrid::generate(
            netrec_topo::SensorGridParams {
                sensors: 25,
                seeds: 2,
                ..Default::default()
            },
            7,
        );
        let mut sys = System::regions(SystemConfig::new(Strategy::absorption_lazy(), 3));
        for ops in [grid.sensor_ops(), grid.near_ops(), grid.seed_ops()] {
            sys.apply(&ops);
        }
        sys.apply(&grid.trigger_ops(1.0, 7));
        assert!(sys.run("load").converged());
        let near = grid.near_ops().ops[0].tuple.clone();
        (sys, near)
    }

    #[test]
    #[should_panic(expected = "relation `near` is static: a delete is refused")]
    fn static_relation_refuses_a_delete() {
        let (mut sys, near) = loaded_regions();
        sys.inject("near", near, UpdateKind::Delete, None);
    }

    #[test]
    #[should_panic(expected = "relation `near` is static: a TTL is refused")]
    fn static_relation_refuses_a_ttl() {
        let (mut sys, near) = loaded_regions();
        let ttl = Some(netrec_types::Duration::from_millis(5));
        sys.inject("near", near, UpdateKind::Insert, ttl);
    }

    /// A refused operation touches neither the engine nor the oracle's base
    /// state, so a caller that catches the refusal still reads agreeing
    /// views.
    #[test]
    fn refused_delete_leaves_views_and_oracle_unchanged() {
        let (mut sys, near) = loaded_regions();
        let views = ["activeRegion", "regionSizes"];
        let before: Vec<_> = views
            .iter()
            .map(|v| (sys.view(v), sys.oracle_view(v)))
            .collect();
        let base = sys.base_state().clone();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.inject("near", near, UpdateKind::Delete, None)
        }));
        assert!(refused.is_err(), "a delete on `near` was accepted");
        assert!(sys.base_state() == &base, "the oracle's base state moved");
        assert!(sys.run("after refusal").converged());
        for (view, (engine, oracle)) in views.iter().zip(before) {
            assert_eq!(sys.view(view), engine, "{view}");
            assert_eq!(sys.oracle_view(view), oracle, "{view}");
        }
    }

    #[test]
    fn paths_system_small_graph() {
        // Line topology 0-1-2: unique paths, easy to verify.
        let mut sys = System::shortest_paths(
            SystemConfig::new(Strategy::absorption_lazy(), 3),
            AggSelChoice::Multi,
        );
        for (a, b) in [(0u32, 1u32), (1, 0), (1, 2), (2, 1)] {
            sys.inject(
                "link",
                Tuple::new(vec![
                    netrec_types::Value::Addr(netrec_types::NetAddr(a)),
                    netrec_types::Value::Addr(netrec_types::NetAddr(b)),
                    netrec_types::Value::Int(5),
                ]),
                UpdateKind::Insert,
                None,
            );
        }
        let rep = sys.run("load");
        assert!(rep.converged());
        for view in [
            "minCost",
            "minHops",
            "cheapestPath",
            "fewestHops",
            "shortestCheapestPath",
        ] {
            assert_eq!(sys.view(view), sys.oracle_view(view), "view {view}");
        }
    }
}
