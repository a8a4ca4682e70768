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

use netrec_engine::plan::Plan;
use netrec_engine::reference::Program;

/// The distributed plan and its oracle program, compiled from the rules
/// above (`reachable.dl`).
pub fn compile() -> (Plan, Program) {
    super::compile(include_str!("reachable.dl"), &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled plan is the paper's Fig. 4 plan: six operators.
    #[test]
    fn plan_shape() {
        let golden = r#"[("link", 0), ("reachable", 0), ("__map2", 0), ("__join3", 0)]
0 Ingress { rel: rel#0, dests: [Dest { op: OpId(2), input: 0 }, Dest { op: OpId(4), input: 0 }] }
1 Store { rel: rel#1, is_view: true, aggsel: None, dests: [Dest { op: OpId(3), input: 1 }] }
2 Map { exprs: [Col(0), Col(1)], preds: [], out_rel: rel#2, dests: [Dest { op: OpId(1), input: 0 }] }
3 Join { build_key: [1], probe_key: [0], preds: [], emit: [Col(0), Col(4)], out_rel: rel#3, rule_id: 0, dests: [Dest { op: OpId(5), input: 0 }] }
4 Exchange { route_col: Some(1), dest: Dest { op: OpId(3), input: 0 } }
5 MinShip { route_col: Some(0), dest: Dest { op: OpId(1), input: 0 } }
"#;
        let (p, _) = compile();
        assert!(p.is_recursive());
        assert_eq!(p.views.len(), 1);
        assert_eq!(super::super::dump(&p), golden);
    }

    #[test]
    fn oracle_program_uses_plan_ids() {
        let (p, prog) = compile();
        assert_eq!(prog.rules.len(), 2);
        assert_eq!(prog.rules[0].head, p.catalog.id("reachable").unwrap());
    }
}
