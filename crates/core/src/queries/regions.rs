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

use netrec_engine::expr::{AggFn, Expr};
use netrec_engine::plan::{Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::reference::Program;

/// The query's rules, in the NDlog dialect `netrec-datalog` parses, which
/// [`program`] compiles.
const RULES: &str = include_str!("regions.dl");

/// Build the distributed plan.
pub fn plan() -> Plan {
    let mut b = PlanBuilder::new();
    let sensor = b.edb("sensor", &["id", "x", "y"], 0);
    let near = b.edb("near", &["a", "b"], 0);
    let main_in = b.edb("mainSensorInRegion", &["id", "rid"], 0);
    let trig = b.edb("isTriggered", &["id"], 0);
    let active = b.idb("activeRegion", &["id", "rid"], 0);
    let sizes = b.idb("regionSizes", &["rid", "size"], 0);
    let largest = b.idb("largestRegion", &["size"], 0);
    let largests = b.idb("largestRegions", &["rid"], 0);

    let ing_sensor = b.ingress(sensor);
    let ing_near = b.ingress(near);
    let ing_main = b.ingress(main_in);
    let ing_trig = b.ingress(trig);

    let active_store = b.store(active, true, None);

    // Base: row = mainSensorInRegion(s,rid) ++ isTriggered(s) → (s,rid).
    let j_base1 = b.join(vec![0], vec![0], vec![], vec![Expr::col(0), Expr::col(1)]);
    // … ++ sensor(s,_,_): row = j1(s,rid) ++ sensor(s,x,y) → (s,rid).
    let j_base2 = b.join(vec![0], vec![0], vec![], vec![Expr::col(0), Expr::col(1)]);

    // Recursive: row = isTriggered(s) ++ activeRegion(s,rid) → (s,rid).
    let j_rec1 = b.join(vec![0], vec![0], vec![], vec![Expr::col(0), Expr::col(2)]);
    // row = near(x,y) ++ j_rec1(x,rid) → (y, rid).
    let j_rec2 = b.join(vec![0], vec![0], vec![], vec![Expr::col(1), Expr::col(3)]);
    let ship = b.minship(Some(0));

    // Aggregate cascade: count per region, then the global max.
    let sizes_ex = b.exchange(Some(1));
    let agg_sizes = b.aggregate(vec![1], AggFn::Count, 0);
    let sizes_store = b.store(sizes, true, None);
    let largest_ex = b.exchange(None);
    let agg_largest = b.aggregate(vec![], AggFn::Max, 1);
    let largest_store = b.store(largest, true, None);
    // largestRegions: row = regionSizes(rid,size) ++ largestRegion(size) → rid.
    let j_top = b.join(vec![1], vec![0], vec![], vec![Expr::col(0)]);
    let top_store = b.store(largests, true, None);
    let sizes_to_join_ex = b.exchange(Some(1));
    let largest_to_join_ex = b.exchange(Some(0));

    // Wiring.
    b.connect(ing_main, j_base1, JOIN_BUILD);
    b.connect(ing_trig, j_base1, JOIN_PROBE);
    b.connect(j_base1, j_base2, JOIN_BUILD);
    b.connect(ing_sensor, j_base2, JOIN_PROBE);
    b.connect(j_base2, active_store, 0);
    b.connect(ing_trig, j_rec1, JOIN_BUILD);
    b.connect(active_store, j_rec1, JOIN_PROBE);
    b.connect(ing_near, j_rec2, JOIN_BUILD);
    b.connect(j_rec1, j_rec2, JOIN_PROBE);
    b.connect(j_rec2, ship, 0);
    b.connect(ship, active_store, 0);
    b.connect(active_store, sizes_ex, 0);
    b.connect(sizes_ex, agg_sizes, 0);
    b.connect(agg_sizes, sizes_store, 0);
    b.connect(agg_sizes, sizes_to_join_ex, 0);
    b.connect(sizes_to_join_ex, j_top, JOIN_BUILD);
    b.connect(agg_sizes, largest_ex, 0);
    b.connect(largest_ex, agg_largest, 0);
    b.connect(agg_largest, largest_store, 0);
    b.connect(agg_largest, largest_to_join_ex, 0);
    b.connect(largest_to_join_ex, j_top, JOIN_PROBE);
    b.connect(j_top, top_store, 0);
    b.build().expect("region plan is well-formed")
}

/// Oracle program over the same catalog ids as [`plan`], compiled from
/// the rules above (`regions.dl`).
pub fn program(plan: &Plan) -> Program {
    super::oracle(RULES, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shape() {
        let p = plan();
        assert!(p.is_recursive());
        assert_eq!(p.views.len(), 4);
        assert_eq!(p.ingress_of.len(), 4);
    }

    #[test]
    fn oracle_program_builds() {
        let p = plan();
        let prog = program(&p);
        assert_eq!(prog.rules.len(), 3);
        assert_eq!(prog.aggs.len(), 2);
    }
}
