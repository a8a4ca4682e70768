//! End-to-end: the paper's `reachable` view over the distributed engine,
//! checked against the worked example of Figs. 2/3 and the centralized
//! reference evaluator, across maintenance strategies.

use std::collections::BTreeSet;
use std::collections::HashMap;

use netrec_engine::dred;
use netrec_engine::expr::Expr;
use netrec_engine::plan::{Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::reference::{Atom, Db, Program, Rule, Term};
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_types::{NetAddr, RelId, Tuple, UpdateKind, Value};

/// The Fig. 4 plan: reachable(x,y) over link(src,dst,cost).
fn reachable_plan() -> Plan {
    let mut b = PlanBuilder::new();
    let link = b.edb("link", &["src", "dst", "cost"], 0);
    let reach = b.idb("reachable", &["src", "dst"], 0);
    let ing = b.ingress(link);
    let base_map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
    let store = b.store(reach, true, None);
    // Recursive side: link shipped to owner(dst), joined with reachable
    // partition there, result MinShipped to owner(src).
    let join = b.join(
        vec![1], // link.dst
        vec![0], // reachable.src
        vec![],
        vec![Expr::col(0), Expr::col(4)], // (link.src, reachable.dst)
    );
    let ex = b.exchange(Some(1));
    b.connect(ex, join, JOIN_BUILD);
    let ship = b.minship(Some(0));
    b.connect(ship, store, 0);
    b.connect(ing, base_map, 0);
    b.connect(base_map, store, 0);
    b.connect(ing, ex, 0);
    b.connect(join, ship, 0);
    b.connect(store, join, JOIN_PROBE);
    b.build().expect("valid reachable plan")
}

fn addr(i: u32) -> Value {
    Value::Addr(NetAddr(i))
}

fn link_tuple(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![addr(a), addr(b), Value::Int(1)])
}

fn pair(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![addr(a), addr(b)])
}

/// Oracle program for reachable.
fn reachable_program(link: RelId, reach: RelId) -> Program {
    Program {
        rules: vec![
            Rule {
                head: reach,
                head_exprs: vec![Expr::col(0), Expr::col(1)],
                body: vec![Atom {
                    rel: link,
                    terms: vec![Term::Var(0), Term::Var(1), Term::Var(2)],
                }],
                preds: vec![],
                nvars: 3,
            },
            Rule {
                head: reach,
                head_exprs: vec![Expr::col(0), Expr::col(3)],
                body: vec![
                    Atom {
                        rel: link,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(2)],
                    },
                    Atom {
                        rel: reach,
                        terms: vec![Term::Var(1), Term::Var(3)],
                    },
                ],
                preds: vec![],
                nvars: 4,
            },
        ],
        aggs: vec![],
    }
}

fn oracle_reachable(links: &[(u32, u32)]) -> BTreeSet<Tuple> {
    let plan = reachable_plan();
    let link = plan.catalog.id("link").unwrap();
    let reach = plan.catalog.id("reachable").unwrap();
    let prog = reachable_program(link, reach);
    let mut edb: Db = HashMap::new();
    edb.insert(link, links.iter().map(|&(a, b)| link_tuple(a, b)).collect());
    let db = prog.evaluate(&edb);
    db.get(&reach).cloned().unwrap_or_default()
}

/// Paper Fig. 3 network: links A→B, B→C, C→A, C→B (A=0, B=1, C=2).
const FIG3: [(u32, u32); 4] = [(0, 1), (1, 2), (2, 0), (2, 1)];

fn run_fig3(strategy: Strategy) -> Runner {
    let mut runner = Runner::new(reachable_plan(), RunnerConfig::direct(strategy, 3));
    for (a, b) in FIG3 {
        runner.inject("link", link_tuple(a, b), UpdateKind::Insert, None);
    }
    let report = runner.run_phase("load");
    assert!(
        report.converged(),
        "load should converge: {:?}",
        report.outcome
    );
    runner
}

#[test]
fn fig2_initial_view_all_strategies() {
    let expected = oracle_reachable(&FIG3);
    assert_eq!(expected.len(), 9, "fully connected: all 9 pairs");
    for strategy in [
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
        Strategy::relative_eager(),
        Strategy::set(),
    ] {
        let runner = run_fig3(strategy);
        assert_eq!(
            runner.view("reachable"),
            expected,
            "strategy {} diverges from oracle",
            strategy.label()
        );
    }
}

#[test]
fn fig2_absorption_provenance_of_bb() {
    // Paper Fig. 2, step 4: pv(B,B) = (p2 ∧ p4) ∨ (p1 ∧ p2 ∧ p3).
    let runner = run_fig3(Strategy::absorption_eager());
    let p1 = runner.base_var("link", &link_tuple(0, 1)).unwrap();
    let p2 = runner.base_var("link", &link_tuple(1, 2)).unwrap();
    let p3 = runner.base_var("link", &link_tuple(2, 0)).unwrap();
    let p4 = runner.base_var("link", &link_tuple(2, 1)).unwrap();
    let prov = runner
        .view_prov("reachable", &pair(1, 1))
        .expect("(B,B) in view");
    let got = prov.bdd();
    // Annotations live in their owning peer's manager: build the expected
    // function in the same manager before comparing.
    let mgr = got.manager();
    let expect = mgr.cube([p2, p4]).or(&mgr.cube([p1, p2, p3]));
    assert_eq!(
        got,
        &expect,
        "pv(B,B): got {}, want {}",
        got.to_sop(8),
        expect.to_sop(8)
    );
    // And pv(C,B) = p4 ∨ (p1 ∧ p3) — owned by peer C, hence its manager.
    let prov_cb = runner
        .view_prov("reachable", &pair(2, 1))
        .expect("(C,B) in view");
    let mgr_cb = prov_cb.bdd().manager();
    let expect_cb = mgr_cb.cube([p4]).or(&mgr_cb.cube([p1, p3]));
    assert_eq!(prov_cb.bdd(), &expect_cb);
}

#[test]
fn fig2_delete_p4_keeps_all_tuples() {
    // The paper's headline example: deleting link(C,B) zeroes p4 but no
    // reachable tuple dies.
    let mut runner = run_fig3(Strategy::absorption_lazy());
    runner.inject("link", link_tuple(2, 1), UpdateKind::Delete, None);
    let report = runner.run_phase("delete p4");
    assert!(report.converged());
    assert_eq!(runner.view("reachable").len(), 9, "all pairs survive");
    // p4 must be gone from every annotation.
    let prov_cb = runner.view_prov("reachable", &pair(2, 1)).unwrap();
    let p1 = runner.base_var("link", &link_tuple(0, 1)).unwrap();
    let p3 = runner.base_var("link", &link_tuple(2, 0)).unwrap();
    let mgr = prov_cb.bdd().manager();
    assert_eq!(prov_cb.bdd(), &mgr.cube([p1, p3]));
}

#[test]
fn cascading_deletions_match_oracle() {
    // Delete links one at a time until the graph is empty; after each
    // deletion the maintained view must equal a from-scratch evaluation.
    for strategy in [
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
    ] {
        let mut runner = run_fig3(strategy);
        let mut live: Vec<(u32, u32)> = FIG3.to_vec();
        for (a, b) in FIG3 {
            runner.inject("link", link_tuple(a, b), UpdateKind::Delete, None);
            let rep = runner.run_phase("delete");
            assert!(rep.converged());
            live.retain(|&l| l != (a, b));
            let expected = oracle_reachable(&live);
            assert_eq!(
                runner.view("reachable"),
                expected,
                "{}: after deleting {:?}",
                strategy.label(),
                (a, b)
            );
        }
        assert!(runner.view("reachable").is_empty());
    }
}

#[test]
fn dred_over_delete_and_rederive() {
    // Fig. 5: deleting link(C,B) under DRed empties and rebuilds the view.
    let mut runner = run_fig3(Strategy::set());
    let before = runner.view("reachable");
    assert_eq!(before.len(), 9);
    let report = dred::dred_delete(&mut runner, &[("link".to_string(), link_tuple(2, 1))]);
    assert!(report.converged());
    // After DRed completes the view is correct again.
    assert_eq!(
        runner.view("reachable"),
        oracle_reachable(&[(0, 1), (1, 2), (2, 0)])
    );
    // And DRed shipped roughly as much as recomputing from scratch (the
    // paper counts 16 tuples for this example).
    assert!(
        report.tuples >= 9,
        "DRed should ship many tuples, got {}",
        report.tuples
    );
}

#[test]
fn dred_costs_more_than_absorption_on_deletion() {
    // The paper's central claim, in miniature.
    let mut dred_runner = run_fig3(Strategy::set());
    let dred_report =
        dred::dred_delete(&mut dred_runner, &[("link".to_string(), link_tuple(2, 1))]);

    let mut abs_runner = run_fig3(Strategy::absorption_lazy());
    abs_runner.inject("link", link_tuple(2, 1), UpdateKind::Delete, None);
    let abs_report = abs_runner.run_phase("delete");

    assert!(abs_report.converged() && dred_report.converged());
    assert!(
        abs_report.tuples < dred_report.tuples,
        "absorption shipped {} tuples, DRed {}",
        abs_report.tuples,
        dred_report.tuples
    );
}

#[test]
fn insertion_traffic_lazy_leq_eager() {
    let lazy = run_fig3(Strategy::absorption_lazy());
    let eager = run_fig3(Strategy::absorption_eager());
    let (lt, et) = (
        lazy.metrics().total_tuples(),
        eager.metrics().total_tuples(),
    );
    assert!(lt <= et, "lazy {lt} should not exceed eager {et}");
}

#[test]
fn random_graphs_match_oracle_after_churn() {
    use netrec_topo::random_graph;
    for seed in 0..4u64 {
        let topo = random_graph(8, 14, seed);
        let links: Vec<(u32, u32)> = topo
            .links
            .iter()
            .flat_map(|l| [(l.a.0, l.b.0), (l.b.0, l.a.0)])
            .collect();
        for strategy in [Strategy::absorption_lazy(), Strategy::relative_lazy()] {
            let mut runner = Runner::new(reachable_plan(), RunnerConfig::new(strategy, 4));
            for &(a, b) in &links {
                runner.inject("link", link_tuple(a, b), UpdateKind::Insert, None);
            }
            assert!(runner.run_phase("load").converged());
            assert_eq!(
                runner.view("reachable"),
                oracle_reachable(&links),
                "seed {seed} load"
            );
            // Delete a third of the links.
            let mut live = links.clone();
            let to_delete: Vec<(u32, u32)> = links.iter().copied().step_by(3).collect();
            for (a, b) in to_delete {
                runner.inject("link", link_tuple(a, b), UpdateKind::Delete, None);
                live.retain(|&l| l != (a, b));
            }
            assert!(runner.run_phase("churn").converged());
            assert_eq!(
                runner.view("reachable"),
                oracle_reachable(&live),
                "seed {seed} {} after churn",
                strategy.label()
            );
        }
    }
}
