//! Failure-injection and edge-case tests for the operator layer: duplicate
//! base insertions, deleting absent tuples, interleaved churn on one tuple,
//! empty workloads, bizarre-but-legal schedules under different partition
//! placements, and constant-group aggregates.

use netrec_engine::expr::{AggFn, Expr};
use netrec_engine::ops::OpState;
use netrec_engine::plan::{Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::{Partitioner, PeerId};
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

#[test]
fn duplicate_insertions_are_set_semantics() {
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    for _ in 0..3 {
        r.inject("link", link(0, 1), UpdateKind::Insert, None);
    }
    assert!(r.run_phase("load").converged());
    assert_eq!(r.view("reachable").len(), 1);
    // One deletion kills it — duplicates did not create extra derivations.
    r.inject("link", link(0, 1), UpdateKind::Delete, None);
    assert!(r.run_phase("delete").converged());
    assert!(r.view("reachable").is_empty());
}

#[test]
fn deleting_absent_tuples_is_a_noop() {
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    r.inject("link", link(0, 1), UpdateKind::Delete, None);
    r.inject("link", link(5, 6), UpdateKind::Delete, None);
    let rep = r.run_phase("noop");
    assert!(rep.converged());
    assert!(r.view("reachable").is_empty());
    // Now a real insert still works.
    r.inject("link", link(0, 1), UpdateKind::Insert, None);
    r.run_phase("insert");
    assert_eq!(r.view("reachable").len(), 1);
}

#[test]
fn insert_delete_insert_same_tuple() {
    // The tuple must get a fresh provenance variable on re-insertion; the
    // view must end up containing it.
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    r.inject("link", link(0, 1), UpdateKind::Insert, None);
    r.inject("link", link(0, 1), UpdateKind::Delete, None);
    r.inject("link", link(0, 1), UpdateKind::Insert, None);
    assert!(r.run_phase("churn").converged());
    assert_eq!(r.view("reachable").len(), 1);
    r.inject("link", link(0, 1), UpdateKind::Delete, None);
    assert!(r.run_phase("final delete").converged());
    assert!(
        r.view("reachable").is_empty(),
        "stale variable must not resurrect the tuple"
    );
}

#[test]
fn single_peer_hosts_everything() {
    // Degenerate placement: one peer, zero remote traffic.
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 1),
    );
    for (a, b) in [(0, 1), (1, 2), (2, 0)] {
        r.inject("link", link(a, b), UpdateKind::Insert, None);
    }
    assert!(r.run_phase("load").converged());
    assert_eq!(r.view("reachable").len(), 9);
    assert_eq!(r.metrics().total_bytes(), 0, "everything is local");
}

#[test]
fn direct_and_hash_placement_agree() {
    let run = |partitioner| {
        let cfg = RunnerConfig {
            partitioner,
            ..RunnerConfig::new(Strategy::absorption_lazy(), 5)
        };
        let mut r = Runner::new(reachable_plan(), cfg);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0)] {
            r.inject("link", link(a, b), UpdateKind::Insert, None);
        }
        assert!(r.run_phase("load").converged());
        r.view("reachable")
    };
    assert_eq!(
        run(Partitioner::Direct { peers: 5 }),
        run(Partitioner::Hash { peers: 5 })
    );
}

/// A key's placement is decided once: a base tuple keyed by an integer (not
/// an address) enters at the peer an exchange on that key routes to, so its
/// ingress and its view partition are one peer and the hop between them is
/// local.
#[test]
fn integer_keyed_base_tuple_enters_where_its_key_is_routed() {
    let mut b = PlanBuilder::new();
    let item = b.edb("item", &["key", "val"], 0);
    let seen = b.idb("seen", &["key", "val"], 0);
    let ing = b.ingress(item);
    let ex = b.exchange(Some(0));
    let store = b.store(seen, true, None);
    b.connect(ing, ex, 0);
    b.connect(ex, store, 0);
    let cfg = RunnerConfig::new(Strategy::absorption_lazy(), 4);
    let partitioner = cfg.partitioner;
    let mut r = Runner::new(b.build().unwrap(), cfg);
    // A key that does not live on peer 0, where a non-address key used to
    // enter regardless of where it was routed.
    let key = (0..)
        .map(Value::Int)
        .find(|k| partitioner.place_value(Some(k)) != PeerId(0))
        .expect("some key hashes off peer 0");
    let owner = partitioner.place_value(Some(&key));
    let tuple = Tuple::new(vec![key, Value::Int(7)]);
    r.inject("item", tuple.clone(), UpdateKind::Insert, None);
    assert!(r.run_phase("load").converged());

    let var = r
        .base_var("item", &tuple)
        .expect("the base tuple got a variable");
    let holds = |pred: &dyn Fn(&OpState) -> bool| -> Vec<PeerId> {
        (0..r.peer_count())
            .map(PeerId)
            .filter(|&p| r.with_peer(p, |peer| peer.ops().iter().any(pred)))
            .collect()
    };
    let ingress = holds(&|op| matches!(op, OpState::Ingress(i) if i.var_of(&tuple) == Some(var)));
    let view = holds(&|op| matches!(op, OpState::Store(s) if s.prov_of(&tuple).is_some()));
    assert_eq!(ingress, vec![owner], "ingress peer");
    assert_eq!(view, vec![owner], "view partition");
    assert_eq!(r.metrics().total_msgs(), 0, "the exchange hop stays local");
}

#[test]
fn empty_workload_converges_instantly() {
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 3),
    );
    let rep = r.run_phase("empty");
    assert!(rep.converged());
    assert_eq!(rep.events, 0);
    assert!(r.view("reachable").is_empty());
}

#[test]
fn aggregate_with_empty_group_key() {
    // max over everything, no grouping: lives on peer 0.
    let mut b = PlanBuilder::new();
    let vals = b.edb("vals", &["k", "v"], 0);
    let top = b.idb("top", &["v"], 0);
    let ing = b.ingress(vals);
    let agg = b.aggregate(vec![], AggFn::Max, 1);
    let ex = b.exchange(None);
    b.connect(ex, agg, 0);
    let store = b.store(top, true, None);
    b.connect(ing, ex, 0);
    b.connect(agg, store, 0);
    let plan = b.build().unwrap();
    let mut r = Runner::new(plan, RunnerConfig::new(Strategy::absorption_lazy(), 3));
    for (k, v) in [(0u32, 5i64), (1, 9), (2, 3)] {
        r.inject(
            "vals",
            Tuple::new(vec![addr(k), Value::Int(v)]),
            UpdateKind::Insert,
            None,
        );
    }
    assert!(r.run_phase("load").converged());
    assert_eq!(
        r.view("top"),
        [Tuple::new(vec![Value::Int(9)])].into_iter().collect()
    );
    // Delete the max: the aggregate revises downward.
    r.inject(
        "vals",
        Tuple::new(vec![addr(1), Value::Int(9)]),
        UpdateKind::Delete,
        None,
    );
    assert!(r.run_phase("delete max").converged());
    assert_eq!(
        r.view("top"),
        [Tuple::new(vec![Value::Int(5)])].into_iter().collect()
    );
    // Delete everything: the group empties and the view follows.
    r.inject(
        "vals",
        Tuple::new(vec![addr(0), Value::Int(5)]),
        UpdateKind::Delete,
        None,
    );
    r.inject(
        "vals",
        Tuple::new(vec![addr(2), Value::Int(3)]),
        UpdateKind::Delete,
        None,
    );
    assert!(r.run_phase("drain").converged());
    assert!(r.view("top").is_empty());
}

#[test]
fn self_loop_links_are_harmless() {
    let mut r = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), 2),
    );
    r.inject("link", link(3, 3), UpdateKind::Insert, None);
    r.inject("link", link(3, 4), UpdateKind::Insert, None);
    assert!(r.run_phase("load").converged());
    // reachable = {(3,3), (3,4)}.
    assert_eq!(r.view("reachable").len(), 2);
    r.inject("link", link(3, 3), UpdateKind::Delete, None);
    assert!(r.run_phase("delete loop").converged());
    assert_eq!(r.view("reachable").len(), 1);
}
