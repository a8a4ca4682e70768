//! Randomized differential test: the distributed pipeline vs `reference.rs`
//! in all three provenance modes.
//!
//! The same randomized insert/delete workloads run through the optimized
//! operator pipeline and through the centralized from-scratch evaluator, and
//! the final stores must be identical. This guards the fast-path changes
//! (cached tuple hashes, Fx-keyed state tables, sorted join/group state,
//! shared batch emission) against emission-order regressions: any ordering
//! the operators rely on must hold by construction, for every mode.
//!
//! Two queries: the recursive reachable query, and a non-recursive two-hop
//! self-join. DRed drives set-mode deletions in both.

use std::collections::BTreeSet;

use netrec::core::{System, SystemConfig};
use netrec::datalog;
use netrec::engine::dred;
use netrec::engine::reference::Db;
use netrec::engine::runner::{Runner, RunnerConfig};
use netrec::engine::strategy::Strategy;
use netrec::topo::{link_tuples, random_graph};
use netrec_types::{Tuple, UpdateKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Random (graph, delete-subset, peer-count) drawn from a seed.
struct Case {
    load: Vec<Tuple>,
    dels: Vec<Tuple>,
    peers: u32,
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(5usize..10);
    let extra = rng.random_range(0usize..8);
    let topo = random_graph(n, n - 1 + extra, seed);
    let mut load = link_tuples(&topo);
    load.shuffle(&mut rng);
    let del_count = rng.random_range(1usize..load.len().max(2));
    let mut dels = load.clone();
    dels.shuffle(&mut rng);
    dels.truncate(del_count);
    Case {
        load,
        dels,
        peers: rng.random_range(2u32..5),
    }
}

/// Recursive reachable: set (DRed deletions), absorption and relative
/// modes against the oracle.
#[test]
fn reachable_all_modes_match_reference() {
    for seed in [11u64, 23, 47, 101] {
        let c = case(seed);
        let strategies: Vec<Strategy> = vec![
            Strategy::set(),
            Strategy::absorption_lazy(),
            Strategy::relative_lazy(),
        ];
        for strategy in strategies {
            let label = format!("seed {seed}, {}", strategy.label());
            let mut sys = System::reachable(SystemConfig::new(strategy, c.peers));
            for t in &c.load {
                sys.inject("link", t.clone(), UpdateKind::Insert, None);
            }
            assert!(sys.run("load").converged(), "{label}: load");
            assert_eq!(
                sys.view("reachable"),
                sys.oracle_view("reachable"),
                "{label}: load"
            );

            if strategy == Strategy::set() {
                // DRed by hand so the System's base mirror (which feeds the
                // oracle) sees the deletions too.
                for t in &c.dels {
                    sys.inject("link", t.clone(), UpdateKind::Delete, None);
                }
                assert!(
                    sys.run("dred/over-delete").converged(),
                    "{label}: over-delete"
                );
                sys.runner().rederive_all();
                assert!(sys.run("dred/re-derive").converged(), "{label}: re-derive");
            } else {
                for t in &c.dels {
                    sys.inject("link", t.clone(), UpdateKind::Delete, None);
                }
                assert!(sys.run("churn").converged(), "{label}: churn");
            }
            assert_eq!(
                sys.view("reachable"),
                sys.oracle_view("reachable"),
                "{label}: churn"
            );
        }
    }
}

/// The two-hop self-join, one rule text for the plan and its oracle.
const TWOHOP: &str = "twohop(@X, Z) :- link(@X, Y, C), link(@Y, Z, C2).";

/// The non-recursive self-join: set (DRed deletions), absorption and
/// relative modes against the oracle compiled from the same rule.
#[test]
fn twohop_all_modes_match_reference() {
    let ast = datalog::parse_program(TWOHOP).expect("twohop parses");
    for seed in [7u64, 19, 83] {
        let c = case(seed);
        let strategies: Vec<Strategy> = vec![
            Strategy::set(),
            Strategy::absorption_lazy(),
            Strategy::relative_lazy(),
        ];
        for strategy in strategies {
            let label = format!("seed {seed}, {}", strategy.label());
            let (plan, program) = datalog::compile(&ast)
                .expect("twohop compiles")
                .into_parts();
            assert!(!plan.is_recursive());
            let twohop_id = plan.catalog.id("twohop").expect("twohop");
            let link_id = plan.catalog.id("link").expect("link");
            let mut runner = Runner::new(plan, RunnerConfig::new(strategy, c.peers));
            let mut base: BTreeSet<Tuple> = BTreeSet::new();

            for t in &c.load {
                runner.inject("link", t.clone(), UpdateKind::Insert, None);
                base.insert(t.clone());
            }
            assert!(runner.run_phase("load").converged(), "{label}: load");
            let oracle = |base: &BTreeSet<Tuple>| {
                let mut edb = Db::new();
                edb.insert(link_id, base.clone());
                program
                    .evaluate(&edb)
                    .get(&twohop_id)
                    .cloned()
                    .unwrap_or_default()
            };
            assert_eq!(runner.view("twohop"), oracle(&base), "{label}: load");

            if strategy == Strategy::set() {
                let dels: Vec<(String, Tuple)> = c
                    .dels
                    .iter()
                    .map(|t| ("link".to_string(), t.clone()))
                    .collect();
                assert!(
                    dred::dred_delete(&mut runner, &dels).converged(),
                    "{label}: dred"
                );
            } else {
                for t in &c.dels {
                    runner.inject("link", t.clone(), UpdateKind::Delete, None);
                }
                assert!(runner.run_phase("churn").converged(), "{label}: churn");
            }
            for t in &c.dels {
                base.remove(t);
            }
            assert_eq!(runner.view("twohop"), oracle(&base), "{label}: churn");
        }
    }
}
