//! The paper's three query families, as distributed plans plus matching
//! oracle programs (§2, Queries 1–3).
//!
//! Every query here yields both halves of the reproduction story: a
//! [`netrec_engine::Plan`] for the distributed engine and a
//! [`netrec_engine::reference::Program`] whose from-scratch evaluation the
//! maintained views must equal — the property the integration tests and the
//! paper-claim figures assert. Each query is one rule text (`reachable.dl`,
//! `paths.dl`, `regions.dl`) that `netrec-datalog` compiles to both, its
//! planner emitting the paper's Fig. 4 plan shape; `paths` names the
//! aggregate heads that prune it (§6 aggregate selection).

use netrec_engine::reference::Program;
use netrec_engine::Plan;

pub mod paths;
pub mod reachable;
pub mod regions;

/// Compile a query's rule text to its plan and its oracle program, with
/// aggregate selection by the heads in `prune`.
fn compile(rules: &str, prune: &[&str]) -> (Plan, Program) {
    let ast = netrec_datalog::parse_program(rules).expect("a query's rules parse");
    netrec_datalog::compile_with_aggsel(&ast, prune)
        .expect("a query's rules compile")
        .into_parts()
}

/// Aggregate-selection configuration for the shortest-path query (Fig. 14's
/// three columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggSelChoice {
    /// Prune with both objectives (min cost *and* min hop count) — the
    /// paper's "Multi AggSel".
    Multi,
    /// Prune with path cost only — "Single AggSel".
    SingleCost,
    /// No pruning — "No AggSel"; does not terminate on cyclic topologies and
    /// is reported as `> budget`, like the paper's "> 5 min" entries.
    None,
}

/// The relations in id order with their partition columns, then each
/// operator's `{:?}`: kind, route column, join keys, emits and wired
/// destinations, and `is_static` on a static ingress only. Each query's
/// `plan_shape` test pins it.
#[cfg(test)]
fn dump(plan: &Plan) -> String {
    let rels = plan.catalog.rel_ids().map(|r| plan.catalog.schema(r));
    let rels: Vec<_> = rels.map(|s| (&s.name, s.partition_col)).collect();
    let mut out = format!("{rels:?}\n");
    for (i, op) in plan.ops.iter().enumerate() {
        let op = format!("{op:?}").replace(", is_static: false", "");
        out += &format!("{i} {op}\n");
    }
    out
}
