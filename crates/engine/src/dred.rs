//! The DRed baseline (Gupta–Mumick–Subrahmanian): over-delete, then
//! re-derive.
//!
//! DRed runs on plain set-semantics execution (no annotations). Deleting a
//! base tuple over-deletes everything derivable through it; once the
//! deletion wave reaches global quiescence — which in a distributed setting
//! requires a synchronisation barrier, here the simulator's quiescence — the
//! surviving base tuples are re-injected and the view is re-derived from
//! scratch, with duplicate suppression only happening *after* tuples have
//! been shipped to their owning peer (§3.2's observation about where
//! set-semantics dedup can occur). The paper's Fig. 5 walks through both
//! phases; `tests/paper_example.rs` reproduces it.

use netrec_prov::ProvMode;
use netrec_types::{Tuple, UpdateKind};

use crate::runner::{RunReport, Runner};

/// Run a batch of base deletions under the DRed protocol and report the
/// combined cost of both phases.
///
/// Panics if the runner is not in set mode — DRed is only defined over plain
/// set-semantics execution.
pub fn dred_delete(runner: &mut Runner, deletions: &[(String, Tuple)]) -> RunReport {
    assert_eq!(
        runner.config().strategy.mode,
        ProvMode::Set,
        "DRed runs on set-semantics execution"
    );
    for (rel, tuple) in deletions {
        runner.inject(rel, tuple.clone(), UpdateKind::Delete, None);
    }
    let over_delete = runner.run_phase("dred/over-delete");
    runner.rederive_all();
    let rederive = runner.run_phase("dred/re-derive");
    over_delete.merged(rederive, "dred/delete+rederive")
}
