//! End-to-end: programs written in the Datalog dialect, compiled by the
//! generic planner, executed on the distributed engine, and checked against
//! their own compiled oracle.

use std::collections::BTreeSet;

use netrec_datalog::{compile, parse_program};
use netrec_engine::reference::Db;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

fn addr(i: u32) -> Value {
    Value::Addr(NetAddr(i))
}

fn run_and_check(
    src: &str,
    strategy: Strategy,
    peers: u32,
    facts: &[(&str, Tuple)],
    deletions: &[(&str, Tuple)],
    views: &[&str],
) {
    let ast = parse_program(src).expect("parse");
    let compiled = compile(&ast).expect("compile");
    let oracle = compiled.oracle().clone();
    let catalog = compiled.plan().catalog.clone();
    let mut runner = Runner::new(compiled.into_parts().0, RunnerConfig::new(strategy, peers));
    let mut base: Db = Db::new();
    for (rel, tuple) in facts {
        base.entry(catalog.id(rel).unwrap())
            .or_default()
            .insert(tuple.clone());
        runner.inject(rel, tuple.clone(), UpdateKind::Insert, None);
    }
    let rep = runner.run_phase("load");
    assert!(rep.converged(), "load converges");
    let check = |runner: &Runner, base: &Db, stage: &str| {
        let db = oracle.evaluate(base);
        for view in views {
            let want: BTreeSet<Tuple> = db
                .get(&catalog.id(view).unwrap())
                .cloned()
                .unwrap_or_default();
            assert_eq!(runner.view(view), want, "view {view} at {stage}");
        }
    };
    check(&runner, &base, "load");
    if !deletions.is_empty() {
        for (rel, tuple) in deletions {
            base.get_mut(&catalog.id(rel).unwrap())
                .unwrap()
                .remove(tuple);
            runner.inject(rel, tuple.clone(), UpdateKind::Delete, None);
        }
        let rep = runner.run_phase("deletions");
        assert!(rep.converged(), "deletion converges");
        check(&runner, &base, "deletions");
    }
}

#[test]
fn datalog_reachable_round_trip() {
    let src = "reachable(@X, Y) :- link(@X, Y, C).\n\
               reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).";
    let links: Vec<(&str, Tuple)> = [(0u32, 1u32), (1, 2), (2, 0), (2, 1), (3, 0)]
        .iter()
        .map(|&(a, b)| ("link", Tuple::new(vec![addr(a), addr(b), Value::Int(1)])))
        .collect();
    let dels: Vec<(&str, Tuple)> =
        vec![("link", Tuple::new(vec![addr(2), addr(1), Value::Int(1)]))];
    for strategy in [Strategy::absorption_lazy(), Strategy::relative_lazy()] {
        run_and_check(src, strategy, 3, &links, &dels, &["reachable"]);
    }
}

#[test]
fn datalog_reachable_on_async_runtime() {
    // The compiled plan is substrate-agnostic: the same program executed on
    // the concurrent async runtime reaches the same fixpoint as on the
    // deterministic discrete-event simulator.
    let src = "reachable(@X, Y) :- link(@X, Y, C).\n\
               reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).";
    let links: Vec<Tuple> = [(0u32, 1u32), (1, 2), (2, 0), (2, 1), (3, 0)]
        .iter()
        .map(|&(a, b)| Tuple::new(vec![addr(a), addr(b), Value::Int(1)]))
        .collect();
    let run = |runtime: netrec_sim::RuntimeKind| {
        let ast = parse_program(src).expect("parse");
        let compiled = compile(&ast).expect("compile");
        let mut runner = Runner::new(
            compiled.into_parts().0,
            RunnerConfig::new(Strategy::absorption_lazy(), 3).with_runtime(runtime),
        );
        for t in &links {
            runner.inject("link", t.clone(), UpdateKind::Insert, None);
        }
        assert!(runner.run_phase("load").converged());
        runner.view("reachable")
    };
    let des = run(netrec_sim::RuntimeKind::des());
    let conc = run(netrec_sim::RuntimeKind::asynchronous());
    assert!(!des.is_empty());
    assert_eq!(des, conc, "datalog views must agree across runtimes");
}

#[test]
fn datalog_same_generation() {
    // The classic "same generation" query from the Datalog literature
    // (mentioned in the paper's §2 as a tree query).
    let src = "sg(@X, Y) :- parent(@P, X), parent(@P, Y), X != Y.\n\
               sg(@X, Y) :- parent(@Px, X), sg(@Px, Py), parent(@Py, Y).";
    // Balanced binary tree: 0 → 1,2; 1 → 3,4; 2 → 5,6.
    let parents: Vec<(&str, Tuple)> = [(0u32, 1u32), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        .iter()
        .map(|&(p, c)| ("parent", Tuple::new(vec![addr(p), addr(c)])))
        .collect();
    run_and_check(src, Strategy::absorption_lazy(), 4, &parents, &[], &["sg"]);
}

#[test]
fn datalog_aggregate_cascade() {
    // `top` joins a grouped aggregate with a global one and has no `@`: it
    // is stored where that join runs, on the owner of `S`.
    let src = "sizes(@G, count<X>) :- member(@G, X).\n\
               biggest(max<S>) :- sizes(@G, S).\n\
               top(G) :- sizes(@G, S), biggest(S).";
    let facts: Vec<(&str, Tuple)> = [(1u32, 10u32), (1, 11), (1, 12), (2, 13)]
        .iter()
        .map(|&(g, x)| ("member", Tuple::new(vec![addr(g), addr(x)])))
        .collect();
    let dels: Vec<(&str, Tuple)> = vec![
        ("member", Tuple::new(vec![addr(1), addr(11)])),
        ("member", Tuple::new(vec![addr(1), addr(12)])),
    ];
    for strategy in [Strategy::absorption_lazy(), Strategy::relative_lazy()] {
        run_and_check(
            src,
            strategy,
            3,
            &facts,
            &dels,
            &["sizes", "biggest", "top"],
        );
    }
}

#[test]
fn datalog_filters_and_constants() {
    let src = "big(@X, C) :- link(@X, Y, C), C >= 10.\n\
               capped(@X, T) :- big(@X, C), T := C + 5.";
    let facts: Vec<(&str, Tuple)> = [(0u32, 1u32, 3i64), (0, 2, 10), (1, 2, 50)]
        .iter()
        .map(|&(a, b, c)| ("link", Tuple::new(vec![addr(a), addr(b), Value::Int(c)])))
        .collect();
    run_and_check(
        src,
        Strategy::absorption_lazy(),
        2,
        &facts,
        &[],
        &["big", "capped"],
    );
}

#[test]
fn datalog_horizon_query() {
    // §2's "horizon query": properties of nodes within a bounded number of
    // hops — here, hop-bounded reachability with the bound as a filter.
    let src = "horizon(@X, Y, D) :- link(@X, Y, C), D := 1.\n\
               horizon(@X, Y, D) :- link(@X, Z, C), horizon(@Z, Y, D1), D1 <= 2, D := D1 + 1.";
    // Path 0→1→2→3→4: node 0's horizon at ≤3 hops reaches 1, 2, 3 (not 4).
    let facts: Vec<(&str, Tuple)> = [(0u32, 1u32), (1, 2), (2, 3), (3, 4)]
        .iter()
        .map(|&(a, b)| ("link", Tuple::new(vec![addr(a), addr(b), Value::Int(1)])))
        .collect();
    let ast = parse_program(src).expect("parse");
    let compiled = compile(&ast).expect("compile");
    let catalog = compiled.plan().catalog.clone();
    let mut runner = Runner::new(
        compiled.into_parts().0,
        RunnerConfig::new(Strategy::absorption_lazy(), 3),
    );
    for (rel, t) in &facts {
        runner.inject(rel, t.clone(), UpdateKind::Insert, None);
    }
    assert!(runner.run_phase("load").converged());
    let view = runner.view("horizon");
    let from_zero: Vec<u32> = view
        .iter()
        .filter(|t| t.get(0) == &addr(0))
        .filter_map(|t| t.get(1).as_addr().map(|a| a.0))
        .collect();
    assert!(from_zero.contains(&1) && from_zero.contains(&2) && from_zero.contains(&3));
    assert!(
        !from_zero.contains(&4),
        "beyond the 3-hop horizon: {view:?}"
    );
    let _ = catalog;
}
