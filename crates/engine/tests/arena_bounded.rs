//! Annotation memory is bounded by the network, not by how many link flaps
//! the process has survived: each peer's BDD arena collects itself and reuses
//! the slots it frees (DESIGN.md "Annotation memory"). One link of a small
//! topology is failed and repaired 40 times; every intermediate view equals
//! a from-scratch evaluation, and the arenas are no larger after flap 40
//! than the collector's own slack allows over flap 10.
//!
//! On the sharded runtime a shard's thread drops annotation handles that
//! arrived in messages from peers the other shard hosts — while that shard
//! may be collecting the very arena they point into.

use std::collections::BTreeSet;

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::{PeerId, RuntimeKind};
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_topo::random_graph;
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

const NODES: usize = 12;
const LINKS: usize = 14;
const PEERS: u32 = 4;
const FLAPS: usize = 40;

/// `reachable` from scratch: every `(a, b)` joined by a path of one or more
/// live directed links.
fn oracle(links: &[(u32, u32)]) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for src in 0..NODES as u32 {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![src];
        while let Some(x) = frontier.pop() {
            for &(_, b) in links.iter().filter(|&&(a, _)| a == x) {
                if seen.insert(b) {
                    frontier.push(b);
                }
            }
        }
        out.extend(
            seen.into_iter()
                .map(|dst| Tuple::new(vec![Value::Addr(NetAddr(src)), Value::Addr(NetAddr(dst))])),
        );
    }
    out
}

/// Σ over peers of (allocated arena slots, collections run).
fn arena_totals(runner: &Runner) -> (usize, u64) {
    (0..runner.peer_count())
        .map(|p| runner.with_peer(PeerId(p), |peer| peer.bdd_manager().stats()))
        .fold((0, 0), |(slots, runs), s| {
            (slots + s.slots, runs + s.gc_runs)
        })
}

fn flap_one_link(kind: RuntimeKind) {
    let label = kind.label();
    let topo = random_graph(NODES, LINKS, 11);
    let mut live: Vec<(u32, u32)> = topo
        .links
        .iter()
        .flat_map(|l| [(l.a.0, l.b.0), (l.b.0, l.a.0)])
        .collect();
    let mut runner = Runner::new(
        reachable_plan(),
        RunnerConfig::new(Strategy::absorption_lazy(), PEERS).with_runtime(kind),
    );
    for &(a, b) in &live {
        runner.inject("link", link(a, b), UpdateKind::Insert, None);
    }
    assert!(runner.run_phase("load").converged(), "[{label}] load");
    assert_eq!(runner.view("reachable"), oracle(&live), "[{label}] load");

    let flapped = live[0];
    let mut slots_at_10 = 0;
    for flap in 1..=FLAPS {
        runner.inject("link", link(flapped.0, flapped.1), UpdateKind::Delete, None);
        live.retain(|&l| l != flapped);
        assert!(
            runner.run_phase("fail").converged(),
            "[{label}] fail {flap}"
        );
        assert_eq!(
            runner.view("reachable"),
            oracle(&live),
            "[{label}] fail {flap}"
        );

        runner.inject("link", link(flapped.0, flapped.1), UpdateKind::Insert, None);
        live.push(flapped);
        assert!(
            runner.run_phase("repair").converged(),
            "[{label}] repair {flap}"
        );
        assert_eq!(
            runner.view("reachable"),
            oracle(&live),
            "[{label}] repair {flap}"
        );
        if flap == 10 {
            slots_at_10 = arena_totals(&runner).0;
        }
    }
    let (slots_at_40, gc_runs) = arena_totals(&runner);
    assert!(gc_runs > 0, "[{label}] no arena ever collected");
    assert!(
        slots_at_40 <= 2 * slots_at_10,
        "[{label}] arena slots grew from {slots_at_10} (flap 10) to {slots_at_40} (flap 40)"
    );
}

#[test]
fn arenas_stay_bounded_under_link_flaps_on_the_des() {
    flap_one_link(RuntimeKind::des());
}

#[test]
fn arenas_stay_bounded_under_link_flaps_on_two_shards() {
    flap_one_link(RuntimeKind::sharded_async(2));
}
