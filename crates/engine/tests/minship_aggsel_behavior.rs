//! Behavioural tests for MinShip buffering (Algorithm 3) and aggregate
//! selection (Algorithm 4), observed through operator state and traffic
//! rather than only through final views.

use netrec_engine::expr::{AggFn, Expr};
use netrec_engine::ops::OpState;
use netrec_engine::plan::{AggSelSpec, Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::PeerId;
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

fn addr(i: u32) -> Value {
    Value::Addr(NetAddr(i))
}

fn link(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![addr(a), addr(b), Value::Int(1)])
}

fn reachable_plan() -> Plan {
    let mut b = PlanBuilder::new();
    let link = b.edb("link", &["src", "dst", "cost"], 0);
    let reach = b.idb("reachable", &["src", "dst"], 0);
    let ing = b.ingress(link);
    let base_map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
    let store = b.store(reach, true, None);
    let join = b.join(vec![1], vec![0], vec![], vec![Expr::col(0), Expr::col(4)]);
    let ex = b.exchange(Some(1));
    b.connect(ex, join, JOIN_BUILD);
    let ship = b.minship(Some(0));
    b.connect(ship, store, 0);
    b.connect(ing, base_map, 0);
    b.connect(base_map, store, 0);
    b.connect(ing, ex, 0);
    b.connect(join, ship, 0);
    b.connect(store, join, JOIN_PROBE);
    b.build().unwrap()
}

fn minship_buffered(runner: &Runner, peers: u32) -> (usize, usize) {
    let mut pins = 0;
    let mut sent = 0;
    for p in 0..peers {
        runner.with_peer(PeerId(p), |peer| {
            for op in peer.ops() {
                if let OpState::MinShip(m) = op {
                    pins += m.pins_len();
                    sent += m.sent_len();
                }
            }
        });
    }
    (pins, sent)
}

#[test]
fn lazy_minship_buffers_alternative_derivations() {
    // Fully connected triangle with both directions: every reachable tuple
    // has many derivations; lazy MinShip must buffer the extras.
    let mut runner = Runner::new(
        reachable_plan(),
        RunnerConfig::direct(Strategy::absorption_lazy(), 3),
    );
    for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)] {
        runner.inject("link", link(a, b), UpdateKind::Insert, None);
    }
    assert!(runner.run_phase("load").converged());
    let (pins, sent) = minship_buffered(&runner, 3);
    assert!(sent > 0, "first derivations were shipped");
    assert!(
        pins > 0,
        "alternative derivations must be buffered, not shipped"
    );
    // The buffered alternates surface when the shipped derivation dies.
    let before = runner.metrics().total_tuples();
    runner.inject("link", link(0, 1), UpdateKind::Delete, None);
    assert!(runner.run_phase("delete").converged());
    assert!(
        runner.metrics().total_tuples() > before,
        "lazy flush released buffered state"
    );
    assert_eq!(
        runner.view("reachable").len(),
        9,
        "triangle stays fully connected"
    );
}

#[test]
fn eager_minship_drains_buffers_via_timer() {
    let mut runner = Runner::new(
        reachable_plan(),
        RunnerConfig::direct(Strategy::absorption_eager(), 3),
    );
    for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
        runner.inject("link", link(a, b), UpdateKind::Insert, None);
    }
    assert!(runner.run_phase("load").converged());
    let (pins, _) = minship_buffered(&runner, 3);
    assert_eq!(
        pins, 0,
        "eager mode flushes every buffered derivation eventually"
    );
}

/// A plan that runs AggSel standalone over a stream of (group, value) rows
/// and stores whatever survives.
fn aggsel_plan() -> Plan {
    let mut b = PlanBuilder::new();
    let obs = b.edb("obs", &["node", "metric"], 0);
    let best = b.idb("best", &["node", "metric"], 0);
    let ing = b.ingress(obs);
    let sel = b.aggsel(AggSelSpec {
        group_cols: vec![0],
        aggs: vec![(1, AggFn::Min)],
    });
    let store = b.store(best, true, None);
    b.connect(ing, sel, 0);
    b.connect(sel, store, 0);
    b.build().unwrap()
}

fn obs(node: u32, metric: i64) -> Tuple {
    Tuple::new(vec![addr(node), Value::Int(metric)])
}

#[test]
fn aggsel_prunes_dominated_and_keeps_ties() {
    let mut runner = Runner::new(
        aggsel_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    runner.inject("obs", obs(1, 10), UpdateKind::Insert, None);
    runner.inject("obs", obs(1, 12), UpdateKind::Insert, None); // dominated
    runner.inject("obs", obs(1, 10), UpdateKind::Insert, None); // duplicate
    runner.inject("obs", obs(2, 7), UpdateKind::Insert, None);
    assert!(runner.run_phase("load").converged());
    let view = runner.view("best");
    assert!(view.contains(&obs(1, 10)));
    assert!(
        !view.contains(&obs(1, 12)),
        "dominated tuple must be pruned: {view:?}"
    );
    assert!(view.contains(&obs(2, 7)));
}

#[test]
fn aggsel_improvement_retracts_old_best() {
    let mut runner = Runner::new(
        aggsel_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    runner.inject("obs", obs(1, 10), UpdateKind::Insert, None);
    assert!(runner.run_phase("first").converged());
    assert!(runner.view("best").contains(&obs(1, 10)));
    // A strictly better tuple arrives: the old best is retracted downstream.
    runner.inject("obs", obs(1, 4), UpdateKind::Insert, None);
    assert!(runner.run_phase("improve").converged());
    let view = runner.view("best");
    assert!(view.contains(&obs(1, 4)));
    assert!(
        !view.contains(&obs(1, 10)),
        "old best must be retracted: {view:?}"
    );
}

#[test]
fn aggsel_deletion_of_best_promotes_next() {
    let mut runner = Runner::new(
        aggsel_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    runner.inject("obs", obs(1, 4), UpdateKind::Insert, None);
    runner.inject("obs", obs(1, 10), UpdateKind::Insert, None); // pruned for now
    assert!(runner.run_phase("load").converged());
    assert!(!runner.view("best").contains(&obs(1, 10)));
    runner.inject("obs", obs(1, 4), UpdateKind::Delete, None);
    assert!(runner.run_phase("delete best").converged());
    let view = runner.view("best");
    assert!(
        view.contains(&obs(1, 10)),
        "next-best must be re-emitted: {view:?}"
    );
    assert!(!view.contains(&obs(1, 4)));
}

#[test]
fn aggsel_with_multiple_objectives_keeps_pareto_tuples() {
    // Two aggregates: min metric and min of a second column. A tuple best in
    // either survives.
    let mut b = PlanBuilder::new();
    let obs2 = b.edb("obs2", &["node", "cost", "hops"], 0);
    let best = b.idb("best2", &["node", "cost", "hops"], 0);
    let ing = b.ingress(obs2);
    let sel = b.aggsel(AggSelSpec {
        group_cols: vec![0],
        aggs: vec![(1, AggFn::Min), (2, AggFn::Min)],
    });
    let store = b.store(best, true, None);
    b.connect(ing, sel, 0);
    b.connect(sel, store, 0);
    let plan = b.build().unwrap();
    let mut runner = Runner::new(plan, RunnerConfig::new(Strategy::absorption_lazy(), 2));
    let t = |c: i64, h: i64| Tuple::new(vec![addr(1), Value::Int(c), Value::Int(h)]);
    runner.inject("obs2", t(10, 1), UpdateKind::Insert, None); // best hops
    runner.inject("obs2", t(3, 5), UpdateKind::Insert, None); // best cost
    runner.inject("obs2", t(12, 6), UpdateKind::Insert, None); // dominated in both
    assert!(runner.run_phase("load").converged());
    let view = runner.view("best2");
    assert!(view.contains(&t(10, 1)), "{view:?}");
    assert!(view.contains(&t(3, 5)), "{view:?}");
    assert!(!view.contains(&t(12, 6)), "{view:?}");
}
