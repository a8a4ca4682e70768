//! Query 3: contiguous sensor regions and the largest-region cascade.
//!
//! ```text
#![doc = include_str!("regions.dl")]
//! ```
//!
//! Deviations documented in DESIGN.md: `activeRegion` is stored as
//! `(sensor, rid)` — sensor first, where the paper writes
//! `activeRegion(rid, x)` — so partitioning follows the paper's
//! first-attribute convention while keeping region growth local to the
//! sensors involved; and the `distance(px,py) < k` theta-join is consumed as
//! the precomputed `near(x,y)` EDB relation emitted by the grid generator
//! (an equivalent rewrite).
//!
//! The plan follows Fig. 4: region growth joins `isTriggered` and `near`
//! at the sensor a region grows from and MinShips each new member to its
//! owner. DESIGN.md "Planner" gives the reasons for the rule text's two
//! edits: `largestRegions` has no `@`, and its rule precedes `largestRegion`'s.

use netrec_engine::plan::Plan;
use netrec_engine::reference::Program;

/// The distributed plan and its oracle program, compiled from the rules
/// above (`regions.dl`).
pub fn compile() -> (Plan, Program) {
    super::compile(include_str!("regions.dl"), &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled plan is the one once built by hand, twenty operators,
    /// with the three never-deleted base relations' ingresses static.
    #[test]
    fn plan_shape() {
        let golden = r#"[("mainSensorInRegion", 0), ("isTriggered", 0), ("sensor", 0), ("near", 0), ("activeRegion", 0), ("regionSizes", 0), ("largestRegions", 0), ("largestRegion", 0), ("__agg5", 0), ("__agg8", 0), ("__join10", 0), ("__join11", 0), ("__join12", 0), ("__join13", 0), ("__join16", 0)]
0 Ingress { rel: rel#0, is_static: true, dests: [Dest { op: OpId(10), input: 0 }] }
1 Ingress { rel: rel#1, dests: [Dest { op: OpId(10), input: 1 }, Dest { op: OpId(12), input: 0 }] }
2 Ingress { rel: rel#2, is_static: true, dests: [Dest { op: OpId(11), input: 1 }] }
3 Ingress { rel: rel#3, is_static: true, dests: [Dest { op: OpId(13), input: 0 }] }
4 Store { rel: rel#4, is_view: true, aggsel: None, dests: [Dest { op: OpId(12), input: 1 }, Dest { op: OpId(15), input: 0 }] }
5 Aggregate { group_cols: [1], agg: Count, agg_col: 0, out_rel: rel#8, dests: [Dest { op: OpId(6), input: 0 }, Dest { op: OpId(17), input: 0 }, Dest { op: OpId(19), input: 0 }] }
6 Store { rel: rel#5, is_view: true, aggsel: None, dests: [] }
7 Store { rel: rel#6, is_view: true, aggsel: None, dests: [] }
8 Aggregate { group_cols: [], agg: Max, agg_col: 1, out_rel: rel#9, dests: [Dest { op: OpId(9), input: 0 }, Dest { op: OpId(18), input: 0 }] }
9 Store { rel: rel#7, is_view: true, aggsel: None, dests: [] }
10 Join { build_key: [0], probe_key: [0], preds: [], emit: [Col(0), Col(1)], out_rel: rel#10, rule_id: 0, dests: [Dest { op: OpId(11), input: 0 }] }
11 Join { build_key: [0], probe_key: [0], preds: [], emit: [Col(0), Col(1)], out_rel: rel#11, rule_id: 1, dests: [Dest { op: OpId(4), input: 0 }] }
12 Join { build_key: [0], probe_key: [0], preds: [], emit: [Col(0), Col(2)], out_rel: rel#12, rule_id: 2, dests: [Dest { op: OpId(13), input: 1 }] }
13 Join { build_key: [0], probe_key: [0], preds: [], emit: [Col(1), Col(3)], out_rel: rel#13, rule_id: 3, dests: [Dest { op: OpId(14), input: 0 }] }
14 MinShip { route_col: Some(0), dest: Dest { op: OpId(4), input: 0 } }
15 Exchange { route_col: Some(1), dest: Dest { op: OpId(5), input: 0 } }
16 Join { build_key: [1], probe_key: [0], preds: [], emit: [Col(0)], out_rel: rel#14, rule_id: 4, dests: [Dest { op: OpId(7), input: 0 }] }
17 Exchange { route_col: Some(1), dest: Dest { op: OpId(16), input: 0 } }
18 Exchange { route_col: Some(0), dest: Dest { op: OpId(16), input: 1 } }
19 Exchange { route_col: None, dest: Dest { op: OpId(8), input: 0 } }
"#;
        let (p, _) = compile();
        assert!(p.is_recursive());
        assert_eq!(p.views.len(), 4);
        assert_eq!(p.ingress_of.len(), 4);
        assert_eq!(super::super::dump(&p), golden);
    }

    #[test]
    fn oracle_program_builds() {
        let (_, prog) = compile();
        assert_eq!(prog.rules.len(), 3);
        assert_eq!(prog.aggs.len(), 2);
    }
}
