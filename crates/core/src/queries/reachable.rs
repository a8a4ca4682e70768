//! Query 1: network reachability (transitive closure), the paper's running
//! example and the Fig. 4 plan.
//!
//! ```text
#![doc = include_str!("reachable.dl")]
//! ```
//!
//! `link` and `reachable` are both partitioned on their first attribute;
//! computing the view ships `link` tuples to the peer owning their `dst`,
//! joins with the `reachable` partition there, and MinShips results back to
//! the peer owning their `src`.

use netrec_engine::expr::Expr;
use netrec_engine::plan::{Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_engine::reference::Program;

/// The query's rules, in the NDlog dialect `netrec-datalog` parses (`@`
/// marks the partitioning attribute), which [`program`] compiles.
const RULES: &str = include_str!("reachable.dl");

/// Build the distributed plan.
pub fn plan() -> Plan {
    let mut b = PlanBuilder::new();
    let link = b.edb("link", &["src", "dst", "cost"], 0);
    let reach = b.idb("reachable", &["src", "dst"], 0);
    let ing = b.ingress(link);
    let base_map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
    let store = b.store(reach, true, None);
    // Recursive case: row = link(x,z,c) ++ reachable(z,y); emit (x, y).
    let join = b.join(vec![1], vec![0], vec![], vec![Expr::col(0), Expr::col(4)]);
    let ex = b.exchange(Some(1));
    let ship = b.minship(Some(0));
    b.connect(ing, base_map, 0);
    b.connect(base_map, store, 0);
    b.connect(ing, ex, 0);
    b.connect(ex, join, JOIN_BUILD);
    b.connect(join, ship, 0);
    b.connect(ship, store, 0);
    b.connect(store, join, JOIN_PROBE);
    b.build().expect("reachable plan is well-formed")
}

/// Oracle program over the same catalog ids as [`plan`], compiled from
/// the rules above (`reachable.dl`).
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
        assert_eq!(p.views.len(), 1);
        assert!(p.catalog.id("reachable").is_some());
    }

    #[test]
    fn oracle_program_uses_plan_ids() {
        let p = plan();
        let prog = program(&p);
        assert_eq!(prog.rules.len(), 2);
        assert_eq!(prog.rules[0].head, p.catalog.id("reachable").unwrap());
    }
}
