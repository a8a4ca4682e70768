//! Diagnostic tuple tracing (env-gated, near-zero cost when unset: one
//! memoised lookup and a short-circuiting branch per site, no formatting).
//!
//! `NETREC_TRACE_TUPLE=<substr>` traces every update whose tuple's debug
//! form contains the substring, through the peer boundary, the stores and
//! the MinShips. This is the tooling that pinned down the churn-cascade
//! deletion race (see DESIGN.md): run the workload on the deterministic DES
//! with and without a fault seed, trace the diverging tuple, and diff the
//! two event streams. Dev facility, not a public interface.

use std::sync::OnceLock;

use netrec_prov::Prov;
use netrec_types::Tuple;

static FILTER: OnceLock<Option<String>> = OnceLock::new();

pub(crate) fn enabled() -> bool {
    FILTER
        .get_or_init(|| std::env::var("NETREC_TRACE_TUPLE").ok())
        .is_some()
}

pub(crate) fn matches(t: &Tuple) -> bool {
    FILTER
        .get_or_init(|| std::env::var("NETREC_TRACE_TUPLE").ok())
        .as_deref()
        .is_some_and(|f| format!("{t:?}").contains(f))
}

pub(crate) fn supp(p: &Prov) -> String {
    match p {
        Prov::Bdd(b) => format!("bdd{:?}", b.support()),
        Prov::Wire(bytes) => format!("wire[{}B]", bytes.len()),
        Prov::Rel(r) => format!("rel{:?}x{}", r.support(), r.node_count()),
        other => format!("{other:?}"),
    }
}
