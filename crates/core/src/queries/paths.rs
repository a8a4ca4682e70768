//! Query 2: shortest/cheapest paths with materialised path vectors and the
//! aggregate-view cascade.
//!
//! ```text
#![doc = include_str!("paths.dl")]
//! ```
//!
//! As the paper notes, `path` enumerates all paths and "may not terminate";
//! aggregate selection (§6) prunes tuples that cannot improve either
//! objective, which both bounds the search and slashes traffic (Fig. 14).
//! The pruning keeps ties, so all co-optimal paths survive.
//!
//! Only the from-scratch oracle applies the `guard`: it enumerates simple
//! paths and simple cycles, which positive costs make enough for every
//! aggregate view. The plan leaves it out, so without aggregate selection
//! the plan does not terminate on a cyclic topology, as in the paper.
//! `cheapestPath` and `fewestHops` name their aggregate atom first, so it
//! is each join's build side.

use netrec_engine::plan::Plan;
use netrec_engine::reference::Program;

use super::AggSelChoice;

/// The distributed plan and its oracle program, compiled from the rules
/// above (`paths.dl`) and pruned by `choice`'s aggregate heads.
pub fn compile(choice: AggSelChoice) -> (Plan, Program) {
    let prune: &[&str] = match choice {
        AggSelChoice::Multi => &["minCost", "minHops"],
        AggSelChoice::SingleCost => &["minCost"],
        AggSelChoice::None => &[],
    };
    super::compile(include_str!("paths.dl"), prune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_engine::expr::Pred;
    use netrec_engine::reference::Db;
    use netrec_topo::{link_tuples, transit_stub, TransitStubParams};

    /// Sixteen operators, and with aggregate selection an AggSel before
    /// the recursive rule's MinShip, pruning by the same spec as `path`'s
    /// Store.
    #[test]
    fn plan_shapes() {
        let multi = r#"[("link", 0), ("path", 0), ("minCost", 0), ("minHops", 0), ("cheapestPath", 0), ("fewestHops", 0), ("shortestCheapestPath", 0), ("__agg2", 0), ("__agg4", 0), ("__map9", 0), ("__join10", 0), ("__join14", 0), ("__join15", 0), ("__join16", 0)]
0 Ingress { rel: rel#0, dests: [Dest { op: OpId(9), input: 0 }, Dest { op: OpId(11), input: 0 }] }
1 Store { rel: rel#1, is_view: true, aggsel: Some(AggSelSpec { group_cols: [0, 1], aggs: [(3, Min), (4, Min)] }), dests: [Dest { op: OpId(10), input: 1 }, Dest { op: OpId(2), input: 0 }, Dest { op: OpId(4), input: 0 }, Dest { op: OpId(14), input: 1 }, Dest { op: OpId(15), input: 1 }] }
2 Aggregate { group_cols: [0, 1], agg: Min, agg_col: 3, out_rel: rel#7, dests: [Dest { op: OpId(3), input: 0 }, Dest { op: OpId(14), input: 0 }] }
3 Store { rel: rel#2, is_view: true, aggsel: None, dests: [] }
4 Aggregate { group_cols: [0, 1], agg: Min, agg_col: 4, out_rel: rel#8, dests: [Dest { op: OpId(5), input: 0 }, Dest { op: OpId(15), input: 0 }] }
5 Store { rel: rel#3, is_view: true, aggsel: None, dests: [] }
6 Store { rel: rel#4, is_view: true, aggsel: None, dests: [Dest { op: OpId(16), input: 0 }] }
7 Store { rel: rel#5, is_view: true, aggsel: None, dests: [Dest { op: OpId(16), input: 1 }] }
8 Store { rel: rel#6, is_view: true, aggsel: None, dests: [] }
9 Map { exprs: [Col(0), Col(1), MakeList([Col(0), Col(1)]), Col(2), Const(1)], preds: [], out_rel: rel#9, dests: [Dest { op: OpId(1), input: 0 }] }
10 Join { build_key: [1], probe_key: [0], preds: [], emit: [Col(0), Col(4), Prepend(Col(0), Col(5)), Add(Col(2), Col(6)), Add(Const(1), Col(7))], out_rel: rel#10, rule_id: 0, dests: [Dest { op: OpId(13), input: 0 }] }
11 Exchange { route_col: Some(1), dest: Dest { op: OpId(10), input: 0 } }
12 MinShip { route_col: Some(0), dest: Dest { op: OpId(1), input: 0 } }
13 AggSel { spec: AggSelSpec { group_cols: [0, 1], aggs: [(3, Min), (4, Min)] }, dests: [Dest { op: OpId(12), input: 0 }] }
14 Join { build_key: [0, 1, 2], probe_key: [0, 1, 3], preds: [], emit: [Col(0), Col(1), Col(5), Col(2)], out_rel: rel#11, rule_id: 1, dests: [Dest { op: OpId(6), input: 0 }] }
15 Join { build_key: [0, 1, 2], probe_key: [0, 1, 4], preds: [], emit: [Col(0), Col(1), Col(5), Col(2)], out_rel: rel#12, rule_id: 2, dests: [Dest { op: OpId(7), input: 0 }] }
16 Join { build_key: [0, 1], probe_key: [0, 1], preds: [], emit: [Col(0), Col(1), Col(2), Col(3), Col(6), Col(7)], out_rel: rel#13, rule_id: 3, dests: [Dest { op: OpId(8), input: 0 }] }
"#;
        let none = r#"[("link", 0), ("path", 0), ("minCost", 0), ("minHops", 0), ("cheapestPath", 0), ("fewestHops", 0), ("shortestCheapestPath", 0), ("__agg2", 0), ("__agg4", 0), ("__map9", 0), ("__join10", 0), ("__join13", 0), ("__join14", 0), ("__join15", 0)]
0 Ingress { rel: rel#0, dests: [Dest { op: OpId(9), input: 0 }, Dest { op: OpId(11), input: 0 }] }
1 Store { rel: rel#1, is_view: true, aggsel: None, dests: [Dest { op: OpId(10), input: 1 }, Dest { op: OpId(2), input: 0 }, Dest { op: OpId(4), input: 0 }, Dest { op: OpId(13), input: 1 }, Dest { op: OpId(14), input: 1 }] }
2 Aggregate { group_cols: [0, 1], agg: Min, agg_col: 3, out_rel: rel#7, dests: [Dest { op: OpId(3), input: 0 }, Dest { op: OpId(13), input: 0 }] }
3 Store { rel: rel#2, is_view: true, aggsel: None, dests: [] }
4 Aggregate { group_cols: [0, 1], agg: Min, agg_col: 4, out_rel: rel#8, dests: [Dest { op: OpId(5), input: 0 }, Dest { op: OpId(14), input: 0 }] }
5 Store { rel: rel#3, is_view: true, aggsel: None, dests: [] }
6 Store { rel: rel#4, is_view: true, aggsel: None, dests: [Dest { op: OpId(15), input: 0 }] }
7 Store { rel: rel#5, is_view: true, aggsel: None, dests: [Dest { op: OpId(15), input: 1 }] }
8 Store { rel: rel#6, is_view: true, aggsel: None, dests: [] }
9 Map { exprs: [Col(0), Col(1), MakeList([Col(0), Col(1)]), Col(2), Const(1)], preds: [], out_rel: rel#9, dests: [Dest { op: OpId(1), input: 0 }] }
10 Join { build_key: [1], probe_key: [0], preds: [], emit: [Col(0), Col(4), Prepend(Col(0), Col(5)), Add(Col(2), Col(6)), Add(Const(1), Col(7))], out_rel: rel#10, rule_id: 0, dests: [Dest { op: OpId(12), input: 0 }] }
11 Exchange { route_col: Some(1), dest: Dest { op: OpId(10), input: 0 } }
12 MinShip { route_col: Some(0), dest: Dest { op: OpId(1), input: 0 } }
13 Join { build_key: [0, 1, 2], probe_key: [0, 1, 3], preds: [], emit: [Col(0), Col(1), Col(5), Col(2)], out_rel: rel#11, rule_id: 1, dests: [Dest { op: OpId(6), input: 0 }] }
14 Join { build_key: [0, 1, 2], probe_key: [0, 1, 4], preds: [], emit: [Col(0), Col(1), Col(5), Col(2)], out_rel: rel#12, rule_id: 2, dests: [Dest { op: OpId(7), input: 0 }] }
15 Join { build_key: [0, 1], probe_key: [0, 1], preds: [], emit: [Col(0), Col(1), Col(2), Col(3), Col(6), Col(7)], out_rel: rel#13, rule_id: 3, dests: [Dest { op: OpId(8), input: 0 }] }
"#;
        let single = multi.replace("(3, Min), (4, Min)", "(3, Min)");
        for (choice, golden) in [
            (AggSelChoice::Multi, multi),
            (AggSelChoice::SingleCost, &single),
            (AggSelChoice::None, none),
        ] {
            let (p, _) = compile(choice);
            assert!(p.is_recursive());
            assert_eq!(p.views.len(), 6, "path + 5 derived views");
            assert_eq!(super::super::dump(&p), golden, "{choice:?}");
        }
    }

    #[test]
    fn oracle_program_builds() {
        let (p, prog) = compile(AggSelChoice::Multi);
        assert_eq!(prog.rules.len(), 5);
        assert_eq!(prog.aggs.len(), 2);
        assert_eq!(prog.rules[0].head, p.catalog.id("path").unwrap());
    }

    /// `(view, size, some of its rows)`, as the hand-written oracle this
    /// rule text replaced computed them.
    type Pins = [(&'static str, usize, [&'static str; 3]); 6];

    /// On a 5-node transit-stub, whose every link is two tuples, after the
    /// load.
    const LOADED: Pins = [
        (
            "path",
            1080,
            [
                "(n0,n0,[n0,n1,n0],20,2)",
                "(n0,n0,[n0,n1,n0,n3,n0],40,4)",
                "(n4,n4,[n4,n3,n4,n2,n4,n1,n4],44,6)",
            ],
        ),
        ("minCost", 25, ["(n0,n0,20)", "(n0,n2,12)", "(n4,n4,4)"]),
        ("minHops", 25, ["(n0,n0,2)", "(n1,n2,1)", "(n4,n4,2)"]),
        (
            "cheapestPath",
            26,
            [
                "(n0,n0,[n0,n1,n0],20)",
                "(n0,n2,[n0,n1,n2],12)",
                "(n4,n4,[n4,n3,n4],4)",
            ],
        ),
        (
            "fewestHops",
            40,
            [
                "(n0,n0,[n0,n1,n0],2)",
                "(n1,n2,[n1,n2],1)",
                "(n4,n4,[n4,n3,n4],2)",
            ],
        ),
        (
            "shortestCheapestPath",
            42,
            [
                "(n0,n0,[n0,n1,n0],20,[n0,n1,n0],2)",
                "(n1,n2,[n1,n2],2,[n1,n2],1)",
                "(n4,n4,[n4,n3,n4],4,[n4,n3,n4],2)",
            ],
        ),
    ];

    /// After deleting the link tuple `(n1,n2,2)`.
    const DELETED: Pins = [
        (
            "path",
            754,
            [
                "(n0,n0,[n0,n1,n0],20,2)",
                "(n0,n0,[n0,n1,n0,n3,n0],40,4)",
                "(n4,n4,[n4,n3,n4,n2,n4,n1,n4],44,6)",
            ],
        ),
        ("minCost", 25, ["(n0,n0,20)", "(n0,n2,20)", "(n4,n4,4)"]),
        ("minHops", 25, ["(n0,n0,2)", "(n1,n2,2)", "(n4,n4,2)"]),
        (
            "cheapestPath",
            30,
            [
                "(n0,n0,[n0,n1,n0],20)",
                "(n1,n2,[n1,n4,n2],20)",
                "(n4,n4,[n4,n3,n4],4)",
            ],
        ),
        (
            "fewestHops",
            38,
            [
                "(n0,n0,[n0,n1,n0],2)",
                "(n1,n2,[n1,n3,n2],2)",
                "(n4,n4,[n4,n3,n4],2)",
            ],
        ),
        (
            "shortestCheapestPath",
            50,
            [
                "(n0,n0,[n0,n1,n0],20,[n0,n1,n0],2)",
                "(n1,n2,[n1,n3,n2],20,[n1,n4,n2],2)",
                "(n4,n4,[n4,n3,n4],4,[n4,n3,n4],2)",
            ],
        ),
    ];

    /// The compiled oracle reproduces the hand-written one's views. Its
    /// rows starting `(n0,n0,` are cycles, which only the guard's `X == Y`
    /// admits; without its `X notin P1` the oracle enumerates walks and
    /// never returns, so the guard's presence is asserted first.
    #[test]
    fn oracle_reproduces_pinned_views() {
        let (plan, oracle) = compile(AggSelChoice::Multi);
        let recursive = oracle.rules.iter().find(|r| r.body.len() == 2);
        let preds = &recursive.expect("the recursive path rule").preds;
        assert!(matches!(&preds[..], [Pred::Any(alts)] if alts.len() == 2));

        let topo = transit_stub(
            TransitStubParams {
                transits_per_domain: 1,
                stubs_per_transit: 2,
                nodes_per_stub: 2,
                ..Default::default()
            },
            42,
        );
        let links = link_tuples(&topo);
        assert_eq!(format!("{:?}", links[0]), "(n1,n2,2)");
        let link = plan.catalog.id("link").unwrap();
        let check = |base: &Db, pins: Pins| {
            let db = oracle.evaluate(base);
            for (view, size, rows) in pins {
                let got = &db[&plan.catalog.id(view).unwrap()];
                let got: Vec<String> = got.iter().map(|t| format!("{t:?}")).collect();
                assert_eq!(got.len(), size, "{view}");
                for row in rows {
                    assert!(got.iter().any(|r| r == row), "{view} lacks {row}");
                }
            }
        };
        let mut base = Db::new();
        base.insert(link, links.iter().cloned().collect());
        check(&base, LOADED);
        base.get_mut(&link).unwrap().remove(&links[0]);
        check(&base, DELETED);
    }
}
