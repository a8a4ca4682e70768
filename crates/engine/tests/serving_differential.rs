//! Serving-layer differential test: at every converged phase boundary, on
//! every substrate, the lock-free [`ViewReader`]'s published snapshot must
//! be **byte-identical** to the peer-scan ground truth
//! (`Runner::view_scan`), and its typed point lookups must agree with set
//! membership of that snapshot.
//!
//! This pins the whole delta pipeline — store-level membership extraction
//! from DRed outcomes (`New`/`Died`), per-peer drains folded in global
//! order, left-right publication — against the independent read path it
//! replaced. The workload deliberately mixes load, single-link growth,
//! delete-churn (cascades), and re-insertion, so deltas of both signs flow
//! through every substrate's boundary.

use std::collections::BTreeSet;

use netrec_engine::dred::dred_delete;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_engine::ServeSpec;
use netrec_prov::ProvMode;
use netrec_sim::RuntimeKind;
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

const PEERS: u32 = 6;

fn pair(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Addr(NetAddr(b))])
}

/// One converged boundary: `(a, b, true)` inserts `link(a, b)`, `false`
/// deletes it.
type Phase = (&'static str, Vec<(u32, u32, bool)>);

fn phases() -> Vec<Phase> {
    vec![
        ("seed", vec![(0, 1, true), (1, 2, true), (3, 4, true)]),
        ("grow", vec![(2, 3, true), (4, 5, true)]),
        ("churn", vec![(1, 2, false), (3, 4, false)]),
        ("heal", vec![(1, 2, true)]),
        ("churn2", vec![(0, 1, false), (2, 3, false)]),
    ]
}

fn substrates() -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::des(),
        RuntimeKind::asynchronous(),
        RuntimeKind::sharded_async(2),
    ]
}

fn run_on(kind: RuntimeKind, strategy: Strategy) -> Vec<BTreeSet<Tuple>> {
    let cfg = RunnerConfig::direct(strategy, PEERS).with_runtime(kind.clone());
    let mut runner = Runner::new(reachable_plan(), cfg);
    let mut reader = runner.serve(&ServeSpec::views(&[]).with_connectivity("reachable"));
    assert_eq!(reader.version(), 1, "attach publishes the seed epoch");

    let mut boundaries = Vec::new();
    let mut last_version = reader.version();
    for (label, ops) in phases() {
        // Set semantics maintains deletions only under the DRed driver
        // (over-delete + re-derive, two published boundaries); the
        // provenance strategies take the direct cause-deletion path.
        let dred = strategy.mode == ProvMode::Set && ops.iter().any(|(_, _, add)| !add);
        let converged = if dred {
            let dels: Vec<(String, Tuple)> = ops
                .iter()
                .map(|&(a, b, _)| ("link".to_string(), link(a, b)))
                .collect();
            dred_delete(&mut runner, &dels).converged()
        } else {
            for (a, b, add) in ops {
                let kind = if add {
                    UpdateKind::Insert
                } else {
                    UpdateKind::Delete
                };
                runner.inject("link", link(a, b), kind, None);
            }
            runner.run_phase(label).converged()
        };
        assert!(converged, "[{}] phase {label} converged", kind.label());

        // Ground truth: rebuild the view by scanning every peer's store.
        let truth = runner.view_scan("reachable");
        let guard = reader.enter();
        assert!(
            guard.version() > last_version,
            "[{}] phase {label}: version must advance past {last_version}",
            kind.label()
        );
        last_version = guard.version();
        assert_eq!(
            guard.snapshot(runner.plan().catalog.id("reachable").unwrap()),
            truth,
            "[{}] phase {label}: published view != peer-scan ground truth",
            kind.label()
        );
        // Typed lookups agree with membership, positive and negative.
        for u in 0..PEERS {
            for v in 0..PEERS {
                assert_eq!(
                    guard.connected(NetAddr(u), NetAddr(v)),
                    truth.contains(&pair(u, v)),
                    "[{}] phase {label}: connected({u},{v}) disagrees",
                    kind.label()
                );
            }
        }
        // `Runner::view` is routed through the serving handle when attached;
        // it must still equal the scan.
        assert_eq!(runner.view("reachable"), truth);
        drop(guard);
        boundaries.push(truth);
    }
    boundaries
}

fn assert_serving_matches_snapshots(strategy: Strategy) {
    let mut reference: Option<Vec<BTreeSet<Tuple>>> = None;
    for kind in substrates() {
        let label = kind.label();
        let got = run_on(kind, strategy);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(
                want, &got,
                "[des vs {label}] served boundaries diverge across substrates"
            ),
        }
    }
    // Sanity: the last churn actually shrank the view (deltas of both signs
    // flowed through the pipeline).
    let obs = reference.unwrap();
    assert!(obs[1].len() > obs[2].len(), "churn shrank the view");
    assert!(obs[3].len() > obs[2].len(), "heal regrew the view");
}

#[test]
fn serving_matches_view_scan_absorption_lazy() {
    assert_serving_matches_snapshots(Strategy::absorption_lazy());
}

#[test]
fn serving_matches_view_scan_set_dred() {
    // Set semantics delete via DRed (over-delete + re-derive): the runner
    // publishes each internal phase, so the final boundary must still match.
    assert_serving_matches_snapshots(Strategy::set());
}
