//! Lowering rules to the distributed operator graph.
//!
//! Every IDB relation gets one Store (its horizontal partition); every rule
//! becomes a pipeline of pipelined hash joins over its body atoms with
//! repartitioning exchanges on the join keys, a Map computing the head
//! tuple, and a MinShip routing results to the peer owning the head's
//! location attribute — the same shape as the paper's Fig. 4 plan, derived
//! mechanically. Recursion needs no special casing: a store feeding a
//! pipeline whose head is the same store closes the fixpoint loop.

use std::collections::HashMap;

use netrec_engine::expr::Expr;
use netrec_engine::plan::{OpId, Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};

use crate::ast::{Arg, AstProgram};
use crate::compile::{aggregate_shape, lower_rule, CompileError, RelInfo};

/// Build the distributed plan.
pub(crate) fn build_plan(ast: &AstProgram, rels: &[RelInfo]) -> Result<Plan, CompileError> {
    let mut b = PlanBuilder::new();
    let mut sources: HashMap<String, OpId> = HashMap::new();
    let mut rel_info: HashMap<String, &RelInfo> = HashMap::new();

    for info in rels {
        let cols: Vec<String> = (0..info.arity).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let id = if info.is_edb {
            b.edb(&info.name, &col_refs, info.partition_col)
        } else {
            b.idb(&info.name, &col_refs, info.partition_col)
        };
        rel_info.insert(info.name.clone(), info);
        let op = if info.is_edb {
            b.ingress(id)
        } else {
            b.store(id, true, None)
        };
        sources.insert(info.name.clone(), op);
    }

    for rule in &ast.rules {
        let head_info = rel_info[&rule.head.name];
        let head_store = sources[&rule.head.name];
        if rule.is_aggregate() {
            let (atom, group_cols, func, agg_col) = aggregate_shape(rule)?;
            let source = sources[&atom.name];
            let route_in = group_cols.first().copied();
            let agg = b.aggregate(group_cols.clone(), func, agg_col);
            let ex_in = b.exchange(route_in);
            let route_out = if head_info.partition_col < rule.head.args.len() {
                Some(head_info.partition_col)
            } else {
                None
            };
            let ex_out = b.exchange(route_out);
            b.connect(source, ex_in, 0);
            b.connect(ex_in, agg, 0);
            b.connect(agg, ex_out, 0);
            b.connect(ex_out, head_store, 0);
            continue;
        }

        let lowered = lower_rule(rule)?;
        // Source of the accumulated stream; starts as atom 1's relation.
        let mut acc_op = sources[&lowered.atoms[0].name];
        let mut acc_width = lowered.atoms[0].args.len();
        // var → column within the accumulated row (first occurrences only).
        let mut acc_vars: HashMap<String, usize> = HashMap::new();
        for (i, arg) in lowered.atoms[0].args.iter().enumerate() {
            if let Arg::Var { name, .. } = arg {
                acc_vars.entry(name.clone()).or_insert(i);
            }
        }

        for atom in &lowered.atoms[1..] {
            // Join keys: variables shared between the accumulated row and
            // this atom.
            let mut build_key = Vec::new(); // positions in accumulated row
            let mut probe_key = Vec::new(); // positions in the new atom
            for (i, arg) in atom.args.iter().enumerate() {
                if let Arg::Var { name, .. } = arg {
                    if let Some(&col) = acc_vars.get(name) {
                        if !probe_key.iter().any(|&(_, n)| n == name) {
                            build_key.push(col);
                            probe_key.push((i, name));
                        }
                    }
                }
            }
            let probe_cols: Vec<usize> = probe_key.iter().map(|&(i, _)| i).collect();
            // Identity projection of the concatenated row.
            let emit: Vec<Expr> = (0..acc_width + atom.args.len()).map(Expr::col).collect();
            let join = b.join(build_key.clone(), probe_cols.clone(), vec![], emit);
            // Both inputs repartition on the first key column (or collapse
            // to peer 0 for a cross product).
            let ex_build = b.exchange(build_key.first().copied());
            let ex_probe = b.exchange(probe_cols.first().copied());
            b.connect(ex_build, join, JOIN_BUILD);
            b.connect(ex_probe, join, JOIN_PROBE);
            b.connect(acc_op, ex_build, 0);
            b.connect(sources[&atom.name], ex_probe, 0);
            // Extend the accumulated bindings.
            for (i, arg) in atom.args.iter().enumerate() {
                if let Arg::Var { name, .. } = arg {
                    acc_vars.entry(name.clone()).or_insert(acc_width + i);
                }
            }
            acc_width += atom.args.len();
            acc_op = join;
        }

        // Head projection + all filters, then route to the head store.
        let map = b.map(lowered.head_exprs.clone(), lowered.all_preds());
        let ship = b.minship(Some(head_info.partition_col));
        b.connect(ship, head_store, 0);
        b.connect(acc_op, map, 0);
        b.connect(map, ship, 0);
    }

    Ok(b.build().expect("generated plan is structurally valid"))
}

#[cfg(test)]
mod tests {
    use crate::{compile, parse_program};

    #[test]
    fn reachable_plan_has_expected_ops() {
        let ast = parse_program(
            "reachable(@X, Y) :- link(@X, Y, C).\n\
             reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).",
        )
        .unwrap();
        let c = compile(&ast).unwrap();
        let plan = c.plan();
        assert!(plan.is_recursive());
        // 1 ingress + 1 store + rule1 (map+minship) + rule2 (join + 2
        // exchanges + map + minship) = 9 operators.
        assert_eq!(plan.ops.len(), 9);
    }

    #[test]
    fn region_cascade_compiles() {
        let ast = parse_program(
            "activeRegion(@S, Rid) :- mainSensorInRegion(@S, Rid), isTriggered(@S).\n\
             activeRegion(@Y, Rid) :- activeRegion(@X, Rid), isTriggered(@X), near(@X, Y).\n\
             regionSizes(@Rid, count<S>) :- activeRegion(@S, Rid).\n\
             largestRegion(max<Size>) :- regionSizes(@Rid, Size).\n\
             largestRegions(@Rid) :- regionSizes(@Rid, Size), largestRegion(Size).",
        )
        .unwrap();
        let c = compile(&ast).unwrap();
        assert!(c.plan().is_recursive());
        assert_eq!(c.views().len(), 4);
        assert_eq!(c.oracle().aggs.len(), 2);
    }

    #[test]
    fn missing_ship_for_connect_panics_are_absent() {
        // Cross product: no shared variables — both sides route to peer 0.
        let ast = parse_program("pairs(@X, Y) :- left(@X), right(@Y).").unwrap();
        let c = compile(&ast).unwrap();
        assert!(!c.plan().is_recursive());
    }
}
