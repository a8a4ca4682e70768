//! Query 2: shortest/cheapest paths with materialised path vectors and the
//! aggregate-view cascade (`minCost`, `minHops`, `cheapestPath`,
//! `fewestHops`, `shortestCheapestPath`).
//!
//! ```text
//! path(x,y,p,c,l)       :- link(x,y,c), p=[x,y], l=1.
//! path(x,y,p,c,l)       :- link(x,z,c0), path(z,y,p1,c1,l1),
//!                          c=c0+c1, p=concat([x],p1), l=1+l1.
//! minCost(x,y,min<c>)   :- path(x,y,p,c,l).
//! minHops(x,y,min<l>)   :- path(x,y,p,c,l).
//! cheapestPath(x,y,p,c) :- path(x,y,p,c,l), minCost(x,y,c).
//! fewestHops(x,y,p,l)   :- path(x,y,p,c,l), minHops(x,y,l).
//! shortestCheapestPath(x,y,p1,c,p2,l) :- cheapestPath(x,y,p1,c), fewestHops(x,y,p2,l).
//! ```
//!
//! As the paper notes, `path` enumerates all paths and "may not terminate";
//! aggregate selection (§6) prunes tuples that cannot improve either
//! objective, which both bounds the search and slashes traffic (Fig. 14).
//! The pruning keeps ties, so all co-optimal paths survive.

use netrec_engine::expr::{AggFn, CmpOp, Expr, Pred};
use netrec_engine::plan::{AggSelSpec, Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::reference::{AggClause, Atom, Program, Rule, Term};

use super::AggSelChoice;

fn aggsel_spec(choice: AggSelChoice) -> Option<AggSelSpec> {
    // path tuple: (src, dst, vec, cost, len); group (src,dst).
    match choice {
        AggSelChoice::Multi => Some(AggSelSpec {
            group_cols: vec![0, 1],
            aggs: vec![(3, AggFn::Min), (4, AggFn::Min)],
        }),
        AggSelChoice::SingleCost => Some(AggSelSpec {
            group_cols: vec![0, 1],
            aggs: vec![(3, AggFn::Min)],
        }),
        AggSelChoice::None => None,
    }
}

/// Build the distributed plan for the whole Query 2 cascade.
pub fn plan(choice: AggSelChoice) -> Plan {
    let mut b = PlanBuilder::new();
    let link = b.edb("link", &["src", "dst", "cost"], 0);
    let path = b.idb("path", &["src", "dst", "vec", "cost", "len"], 0);
    let min_cost = b.idb("minCost", &["src", "dst", "cost"], 0);
    let min_hops = b.idb("minHops", &["src", "dst", "len"], 0);
    let cheapest = b.idb("cheapestPath", &["src", "dst", "vec", "cost"], 0);
    let fewest = b.idb("fewestHops", &["src", "dst", "vec", "len"], 0);
    let scp = b.idb(
        "shortestCheapestPath",
        &["src", "dst", "vec1", "cost", "vec2", "len"],
        0,
    );

    let ing = b.ingress(link);
    // Base case: link(x,y,c) → path(x,y,[x,y],c,1).
    let base_map = b.map(
        vec![
            Expr::col(0),
            Expr::col(1),
            Expr::MakeList(vec![Expr::col(0), Expr::col(1)]),
            Expr::col(2),
            Expr::int(1),
        ],
        vec![],
    );
    let path_store = b.store(path, true, aggsel_spec(choice));
    // Recursive case: row = link(x,z,c0) ++ path(z,y,p1,c1,l1).
    let rec_join = b.join(
        vec![1],
        vec![0],
        vec![],
        vec![
            Expr::col(0),                                                  // x
            Expr::col(4),                                                  // y
            Expr::Prepend(Box::new(Expr::col(0)), Box::new(Expr::col(5))), // concat([x],p1)
            Expr::add_cols(2, 6),                                          // c0+c1
            Expr::Add(Box::new(Expr::int(1)), Box::new(Expr::col(7))),     // 1+l1
        ],
    );
    let link_ex = b.exchange(Some(1));
    // Ship-side pruning before the MinShip (Algorithm 3 lines 4–8).
    let ship = b.minship(Some(0));
    let pre_ship: netrec_engine::plan::OpId = match aggsel_spec(choice) {
        Some(spec) => {
            let sel = b.aggsel(spec);
            b.connect(sel, ship, 0);
            sel
        }
        None => ship,
    };

    // Aggregate cascade (all local: everything is partitioned on src).
    let agg_cost = b.aggregate(vec![0, 1], AggFn::Min, 3);
    let cost_store = b.store(min_cost, true, None);
    let agg_hops = b.aggregate(vec![0, 1], AggFn::Min, 4);
    let hops_store = b.store(min_hops, true, None);
    // cheapestPath: row = minCost(x,y,c) ++ path(x,y,p,c,l).
    let cheap_join = b.join(
        vec![0, 1, 2],
        vec![0, 1, 3],
        vec![],
        vec![Expr::col(3), Expr::col(4), Expr::col(5), Expr::col(6)],
    );
    let cheap_store = b.store(cheapest, true, None);
    // fewestHops: row = minHops(x,y,l) ++ path(x,y,p,c,l).
    let few_join = b.join(
        vec![0, 1, 2],
        vec![0, 1, 4],
        vec![],
        vec![Expr::col(3), Expr::col(4), Expr::col(5), Expr::col(7)],
    );
    let few_store = b.store(fewest, true, None);
    // shortestCheapestPath: row = cheapestPath(x,y,p1,c) ++ fewestHops(x,y,p2,l).
    let scp_join = b.join(
        vec![0, 1],
        vec![0, 1],
        vec![],
        vec![
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::col(3),
            Expr::col(6),
            Expr::col(7),
        ],
    );
    let scp_store = b.store(scp, true, None);

    // Wiring.
    b.connect(ing, base_map, 0);
    b.connect(base_map, path_store, 0);
    b.connect(ing, link_ex, 0);
    b.connect(link_ex, rec_join, JOIN_BUILD);
    b.connect(rec_join, pre_ship, 0);
    b.connect(ship, path_store, 0);
    b.connect(path_store, rec_join, JOIN_PROBE);
    b.connect(path_store, agg_cost, 0);
    b.connect(path_store, agg_hops, 0);
    b.connect(path_store, cheap_join, JOIN_PROBE);
    b.connect(path_store, few_join, JOIN_PROBE);
    b.connect(agg_cost, cost_store, 0);
    b.connect(agg_cost, cheap_join, JOIN_BUILD);
    b.connect(agg_hops, hops_store, 0);
    b.connect(agg_hops, few_join, JOIN_BUILD);
    b.connect(cheap_join, cheap_store, 0);
    b.connect(few_join, few_store, 0);
    b.connect(cheap_store, scp_join, JOIN_BUILD);
    b.connect(few_store, scp_join, JOIN_PROBE);
    b.connect(scp_join, scp_store, 0);
    b.build().expect("path plan is well-formed")
}

/// Oracle program: identical cascade, with the cycle-avoidance filter
/// `x ∉ p1 ∨ x = y` in the recursive rule (positive costs make simple paths
/// sufficient for every aggregate view, and the oracle must terminate).
///
/// Hand-written, unlike the `reachable` and `regions` oracles: that filter
/// is a disjunction, and `netrec-datalog`'s rule bodies are conjunctions.
pub fn program(plan: &Plan) -> Program {
    let link = plan.catalog.id("link").expect("link");
    let path = plan.catalog.id("path").expect("path");
    let min_cost = plan.catalog.id("minCost").expect("minCost");
    let min_hops = plan.catalog.id("minHops").expect("minHops");
    let cheapest = plan.catalog.id("cheapestPath").expect("cheapestPath");
    let fewest = plan.catalog.id("fewestHops").expect("fewestHops");
    let scp = plan.catalog.id("shortestCheapestPath").expect("scp");
    Program {
        rules: vec![
            // path base
            Rule {
                head: path,
                head_exprs: vec![
                    Expr::col(0),
                    Expr::col(1),
                    Expr::MakeList(vec![Expr::col(0), Expr::col(1)]),
                    Expr::col(2),
                    Expr::int(1),
                ],
                body: vec![Atom {
                    rel: link,
                    terms: vec![Term::Var(0), Term::Var(1), Term::Var(2)],
                }],
                preds: vec![],
                nvars: 3,
            },
            // path recursive, cycle-free: vars x=0,z=1,c0=2,y=3,p1=4,c1=5,l1=6
            Rule {
                head: path,
                head_exprs: vec![
                    Expr::col(0),
                    Expr::col(3),
                    Expr::Prepend(Box::new(Expr::col(0)), Box::new(Expr::col(4))),
                    Expr::add_cols(2, 5),
                    Expr::Add(Box::new(Expr::int(1)), Box::new(Expr::col(6))),
                ],
                body: vec![
                    Atom {
                        rel: link,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(2)],
                    },
                    Atom {
                        rel: path,
                        terms: vec![
                            Term::Var(1),
                            Term::Var(3),
                            Term::Var(4),
                            Term::Var(5),
                            Term::Var(6),
                        ],
                    },
                ],
                // Simple paths plus simple cycles: x may close the walk
                // (x = y) but not appear in p1's interior.
                preds: vec![Pred::Any(vec![
                    Pred::NotInList(Expr::col(0), Expr::col(4)),
                    Pred::Cmp(Expr::col(0), CmpOp::Eq, Expr::col(3)),
                ])],
                nvars: 7,
            },
            // cheapestPath: vars x=0,y=1,p=2,c=3,l=4
            Rule {
                head: cheapest,
                head_exprs: vec![Expr::col(0), Expr::col(1), Expr::col(2), Expr::col(3)],
                body: vec![
                    Atom {
                        rel: path,
                        terms: vec![
                            Term::Var(0),
                            Term::Var(1),
                            Term::Var(2),
                            Term::Var(3),
                            Term::Var(4),
                        ],
                    },
                    Atom {
                        rel: min_cost,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(3)],
                    },
                ],
                preds: vec![],
                nvars: 5,
            },
            // fewestHops
            Rule {
                head: fewest,
                head_exprs: vec![Expr::col(0), Expr::col(1), Expr::col(2), Expr::col(4)],
                body: vec![
                    Atom {
                        rel: path,
                        terms: vec![
                            Term::Var(0),
                            Term::Var(1),
                            Term::Var(2),
                            Term::Var(3),
                            Term::Var(4),
                        ],
                    },
                    Atom {
                        rel: min_hops,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(4)],
                    },
                ],
                preds: vec![],
                nvars: 5,
            },
            // shortestCheapestPath: x=0,y=1,p1=2,c=3,p2=4,l=5
            Rule {
                head: scp,
                head_exprs: vec![
                    Expr::col(0),
                    Expr::col(1),
                    Expr::col(2),
                    Expr::col(3),
                    Expr::col(4),
                    Expr::col(5),
                ],
                body: vec![
                    Atom {
                        rel: cheapest,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(2), Term::Var(3)],
                    },
                    Atom {
                        rel: fewest,
                        terms: vec![Term::Var(0), Term::Var(1), Term::Var(4), Term::Var(5)],
                    },
                ],
                preds: vec![],
                nvars: 6,
            },
        ],
        aggs: vec![
            AggClause {
                head: min_cost,
                source: path,
                group_cols: vec![0, 1],
                agg: AggFn::Min,
                agg_col: 3,
            },
            AggClause {
                head: min_hops,
                source: path,
                group_cols: vec![0, 1],
                agg: AggFn::Min,
                agg_col: 4,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shapes() {
        for choice in [
            AggSelChoice::Multi,
            AggSelChoice::SingleCost,
            AggSelChoice::None,
        ] {
            let p = plan(choice);
            assert!(p.is_recursive());
            assert_eq!(p.views.len(), 6, "path + 5 derived views");
        }
    }

    #[test]
    fn oracle_program_builds() {
        let p = plan(AggSelChoice::Multi);
        let prog = program(&p);
        assert_eq!(prog.rules.len(), 5);
        assert_eq!(prog.aggs.len(), 2);
    }
}
