//! A cause-delete is its tuple and its cause (DESIGN.md "Deletion
//! propagation"): every operator restricts by the cause, so the annotation
//! a delete used to carry was built, shipped and decoded for nobody.
//!
//! A small transit-stub `reachable` network is loaded, then three link
//! tuples are deleted in one phase, on the DES, under the three strategies
//! that send cause-deletes. The deletion phase must ship exactly the
//! updates it shipped when deletes carried annotations — per peer, the same
//! messages, tuples and envelopes, recorded as literals — while its
//! annotation bytes fall. Absorption-eager has flushed every buffered
//! insertion before the deletions start, so all its deletion phase ships is
//! cause-deletes: one annotation byte (the `Prov::None` tag) per tuple.

use std::collections::BTreeSet;

use netrec_engine::ops::OpState;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::PeerId;
use netrec_testutil::fixtures::reachable_plan;
use netrec_topo::{link_tuples, transit_stub, Density, TransitStubParams};
use netrec_types::{Tuple, UpdateKind};

const PEERS: u32 = 3;

/// The link tuples deleted, by index into [`link_tuples`]: both directions
/// of the first link, and one direction of another.
const DELETED: [usize; 3] = [0, 1, 6];

/// Per peer: (messages, tuples, envelopes) sent during the deletion phase.
type PerPeer = [(u64, u64, u64); PEERS as usize];

/// What the deletion phase sent, and what MinShip held buffered when it
/// began.
struct DeletePhase {
    per_peer: PerPeer,
    tuples: u64,
    prov_bytes: u64,
    pinned: usize,
}

/// `reachable` from scratch: every `(a, b)` joined by a path of one or more
/// live directed links.
fn oracle(links: &[Tuple]) -> BTreeSet<Tuple> {
    let mut reach: BTreeSet<Tuple> = links
        .iter()
        .map(|l| Tuple::new(vec![l.get(0).clone(), l.get(1).clone()]))
        .collect();
    loop {
        let next: Vec<Tuple> = links
            .iter()
            .flat_map(|l| {
                reach
                    .iter()
                    .filter(|r| r.get(0) == l.get(1))
                    .map(|r| Tuple::new(vec![l.get(0).clone(), r.get(1).clone()]))
            })
            .filter(|t| !reach.contains(t))
            .collect();
        if next.is_empty() {
            return reach;
        }
        reach.extend(next);
    }
}

/// Tuples buffered in MinShip `Pins`, over every peer.
fn pinned(runner: &Runner) -> usize {
    (0..PEERS)
        .map(|p| {
            runner.with_peer(PeerId(p), |peer| {
                peer.ops()
                    .iter()
                    .map(|op| match op {
                        OpState::MinShip(m) => m.pins_len(),
                        _ => 0,
                    })
                    .sum::<usize>()
            })
        })
        .sum()
}

/// Load the network, then delete [`DELETED`]; the view must equal the
/// oracle after each phase.
fn delete_phase(strategy: Strategy) -> DeletePhase {
    let params = TransitStubParams {
        domains: 1,
        transits_per_domain: 1,
        stubs_per_transit: 2,
        nodes_per_stub: 4,
        density: Density::Sparse,
    };
    let mut links = link_tuples(&transit_stub(params, 11));
    let mut runner = Runner::new(reachable_plan(), RunnerConfig::new(strategy, PEERS));
    for t in &links {
        runner.inject("link", t.clone(), UpdateKind::Insert, None);
    }
    assert!(runner.run_phase("load").converged());
    assert_eq!(runner.view("reachable"), oracle(&links));
    let before = runner.metrics();
    let pinned = pinned(&runner);

    for &i in DELETED.iter().rev() {
        let t = links.remove(i);
        runner.inject("link", t, UpdateKind::Delete, None);
    }
    let report = runner.run_phase("delete");
    assert!(report.converged());
    assert_eq!(runner.view("reachable"), oracle(&links));

    let after = runner.metrics();
    let per_peer = std::array::from_fn(|p| {
        let (a, b) = (&after.per_peer[p], &before.per_peer[p]);
        (
            a.msgs_sent - b.msgs_sent,
            a.tuples_sent - b.tuples_sent,
            a.envelopes_sent - b.envelopes_sent,
        )
    });
    DeletePhase {
        per_peer,
        tuples: report.tuples,
        prov_bytes: report.prov_bytes,
        pinned,
    }
}

/// The deletion phase ships the same updates as when cause-deletes carried
/// annotations (`annotated`, with `annotated_prov_bytes` annotation bytes),
/// in fewer annotation bytes.
fn same_updates_fewer_bytes(
    strategy: Strategy,
    annotated: PerPeer,
    annotated_prov_bytes: u64,
) -> DeletePhase {
    let phase = delete_phase(strategy);
    assert_eq!(phase.per_peer, annotated, "{strategy:?}");
    assert!(
        phase.prov_bytes < annotated_prov_bytes,
        "{strategy:?}: {} annotation bytes, {annotated_prov_bytes} before",
        phase.prov_bytes
    );
    phase
}

#[test]
fn absorption_lazy_deletes_ship_the_same_updates_lighter() {
    let annotated = [(37, 68, 11), (46, 63, 9), (4, 6, 3)];
    same_updates_fewer_bytes(Strategy::absorption_lazy(), annotated, 2859);
}

#[test]
fn absorption_eager_deletes_ship_one_annotation_byte_per_tuple() {
    let annotated = [(5, 38, 5), (3, 32, 3), (1, 6, 1)];
    let phase = same_updates_fewer_bytes(Strategy::absorption_eager(), annotated, 2521);
    assert_eq!(phase.pinned, 0, "eager flushed every insertion");
    assert_eq!((phase.tuples, phase.prov_bytes), (76, 76));
}

#[test]
fn relative_lazy_deletes_ship_the_same_updates_lighter() {
    let annotated = [(42, 82, 13), (49, 68, 10), (4, 6, 3)];
    same_updates_fewer_bytes(Strategy::relative_lazy(), annotated, 11109);
}
