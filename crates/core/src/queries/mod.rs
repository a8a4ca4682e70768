//! The paper's three query families, as distributed plans plus matching
//! oracle programs (§2, Queries 1–3).
//!
//! Every function here returns both halves of the reproduction story: a
//! [`netrec_engine::Plan`] for the distributed engine and (separately) a
//! [`netrec_engine::reference::Program`] whose from-scratch evaluation the
//! maintained views must equal — the property the integration tests and the
//! paper-claim figures assert. The plans are built by hand in the paper's
//! Fig. 4 shape; the oracles of `reachable` and `regions` are compiled from
//! the rule text each module states once (`reachable.dl`, `regions.dl`).

use netrec_engine::reference::Program;
use netrec_engine::Plan;

pub mod paths;
pub mod reachable;
pub mod regions;

/// Compile a query's rule text to its oracle program over `plan`'s ids.
fn oracle(rules: &str, plan: &Plan) -> Program {
    let ast = netrec_datalog::parse_program(rules).expect("a query's rules parse");
    netrec_datalog::oracle(&ast, &plan.catalog).expect("a query's rules match its plan's catalog")
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
