//! Churn/fault scenario for the sharded runtime: soft-state TTL expiry plus
//! interleaved insert/delete phases whose
//! cascades cross shard boundaries at every hop — the chain 0→1→…→5 is
//! deliberately placed so consecutive peers always live on *different*
//! shards.
//!
//! After every phase the test asserts the **global timer fence** directly
//! on the concrete runtime: a converged phase leaves zero pending events
//! anywhere (no armed timer in any shard's timer heap) and zero
//! cross-shard messages in flight (transport channel and controller parking
//! both empty). Views are pinned to a DES run of the identical script —
//! churn traffic is scheduling-dependent, fixpoints are not.

use std::collections::BTreeSet;

use netrec_engine::peer::EnginePeer;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_engine::update::Msg;
use netrec_sim::{AsyncConfig, RuntimeKind, ShardAssignment, ShardedConfig, ShardedRuntime};
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_testutil::{run_workload_on, DiffPhase, DiffWorkload};
use netrec_topo::BaseOp;
use netrec_types::{Duration, NetAddr, Tuple, Value};

const PEERS: u32 = 6;

/// Peer → shard map interleaving the chain round-robin: every chain hop
/// i→i+1 is a cross-shard edge (for any shard count ≥ 2).
fn interleaved(shards: u32) -> ShardAssignment {
    ShardAssignment::Explicit((0..PEERS).map(|p| p % shards).collect())
}

/// The churn script: load with one TTL'd link (expires in-phase), repair,
/// delete across shards, then a TTL'd repair that expires again.
fn phases() -> Vec<(&'static str, Vec<BaseOp>)> {
    vec![
        (
            "load+expiry",
            vec![
                BaseOp::insert("link", link(0, 1)),
                BaseOp::insert("link", link(1, 2)),
                BaseOp::insert("link", link(2, 3)),
                BaseOp::insert("link", link(3, 4)).with_ttl(Duration::from_millis(40)),
                BaseOp::insert("link", link(4, 5)),
            ],
        ),
        ("reinsert", vec![BaseOp::insert("link", link(3, 4))]),
        ("delete", vec![BaseOp::delete("link", link(2, 3))]),
        (
            "repair+expiry",
            vec![BaseOp::insert("link", link(2, 3)).with_ttl(Duration::from_millis(30))],
        ),
    ]
}

fn pairs(list: &[(u32, u32)]) -> BTreeSet<Tuple> {
    list.iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Addr(NetAddr(b))]))
        .collect()
}

/// Closure of the chain over `segments` of connected runs of nodes.
fn chain_closure(segments: &[&[u32]]) -> BTreeSet<Tuple> {
    let mut out = Vec::new();
    for seg in segments {
        for (i, &a) in seg.iter().enumerate() {
            for &b in &seg[i + 1..] {
                out.push((a, b));
            }
        }
    }
    pairs(&out)
}

fn inject_all(runner: &mut Runner<impl netrec_sim::Runtime<Msg, EnginePeer>>, ops: &[BaseOp]) {
    for op in ops {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
}

/// DES reference views per phase, driven through the shared harness (churn
/// traffic is scheduling-dependent, so all phases are relaxed).
fn des_views(strategy: Strategy) -> Vec<BTreeSet<Tuple>> {
    let mut w = DiffWorkload::new(reachable_plan, RunnerConfig::direct(strategy, PEERS))
        .views(["reachable"]);
    for (label, ops) in phases() {
        w = w.phase(DiffPhase::relaxed(label, ops));
    }
    run_workload_on(&w, &RuntimeKind::des())
        .into_iter()
        .map(|mut obs| {
            assert!(obs.converged, "[des] {}", obs.label);
            obs.views.remove("reachable").expect("registered view")
        })
        .collect()
}

/// `shards` interleaved shards with timer delays compressed, so eager 1 s
/// flush periods and the TTLs don't pace the test in real time; the fence
/// holds regardless.
fn dilated_shards(shards: u32) -> ShardedConfig {
    ShardedConfig {
        shards,
        assignment: interleaved(shards),
        shard: AsyncConfig {
            time_dilation: 0.05,
            ..AsyncConfig::default()
        },
        ..ShardedConfig::default()
    }
}

fn uncoalesced(shards: u32) -> ShardedConfig {
    dilated_shards(shards).with_coalescing(false)
}

fn churn_on_sharded(strategy: Strategy, cfg: ShardedConfig) {
    let des = des_views(strategy);
    let (shards, coalesce) = (cfg.shards, cfg.shard.coalesce);
    let mut runner = Runner::with_runtime(
        reachable_plan(),
        RunnerConfig::direct(strategy, PEERS).with_runtime(RuntimeKind::Sharded(cfg.clone())),
        |peers| ShardedRuntime::new(peers, cfg),
    );
    for ((label, ops), want) in phases().into_iter().zip(des) {
        inject_all(&mut runner, &ops);
        let rep = runner.run_phase(label);
        assert!(
            rep.converged(),
            "[sharded-async/{shards}] {label} converged"
        );
        // The global fence, asserted on the concrete runtime: no phase ends
        // with a message (cross-shard ones included) or an armed timer in
        // flight anywhere.
        let rt: &ShardedRuntime<Msg, EnginePeer> = runner.runtime();
        assert_eq!(
            rt.pending_events(),
            0,
            "[sharded-async/{shards}] {label}: events or armed timers survive the phase"
        );
        assert_eq!(
            runner.view("reachable"),
            want,
            "[sharded-async/{shards}] {label}: view diverges from DES"
        );
    }
    if !coalesce {
        let m = runner.metrics();
        assert_eq!(m.total_envelopes(), m.total_msgs(), "one envelope each");
    }
}

/// The expected fixpoints, spelled out once against the DES (the sharded
/// runs then compare against the same DES views).
#[test]
fn des_reference_views_are_the_expected_closures() {
    let views = des_views(Strategy::absorption_lazy());
    // 3→4 expired: two segments.
    assert_eq!(views[0], chain_closure(&[&[0, 1, 2, 3], &[4, 5]]));
    // Repaired: the full chain.
    assert_eq!(views[1], chain_closure(&[&[0, 1, 2, 3, 4, 5]]));
    // 2→3 deleted: severed after 2.
    assert_eq!(views[2], chain_closure(&[&[0, 1, 2], &[3, 4, 5]]));
    // TTL'd repair expired again inside the phase: still severed.
    assert_eq!(views[3], chain_closure(&[&[0, 1, 2], &[3, 4, 5]]));
}

/// CI smoke assertion: transport coalescing is *active* on the churn
/// scenario — deletion cascades crossing shards at every hop produce
/// quanta with several same-destination messages, so the physical envelope
/// count must come in strictly below the logical message count (and the
/// per-peer invariant envelopes ≤ msgs must hold everywhere).
#[test]
fn coalescing_is_active_on_the_churn_scenario() {
    let cfg = dilated_shards(2);
    let mut runner = Runner::with_runtime(
        reachable_plan(),
        RunnerConfig::direct(Strategy::absorption_lazy(), PEERS)
            .with_runtime(RuntimeKind::Sharded(cfg.clone())),
        |peers| ShardedRuntime::new(peers, cfg),
    );
    for (label, ops) in phases() {
        inject_all(&mut runner, &ops);
        assert!(runner.run_phase(label).converged(), "{label} converged");
    }
    let m = runner.metrics();
    assert!(m.total_msgs() > 0, "churn must ship traffic");
    assert!(
        m.total_envelopes() < m.total_msgs(),
        "coalescing inactive: {} envelopes for {} logical messages",
        m.total_envelopes(),
        m.total_msgs()
    );
    for (p, peer) in m.per_peer.iter().enumerate() {
        assert!(
            peer.envelopes_sent <= peer.msgs_sent,
            "peer {p}: envelopes {} > msgs {}",
            peer.envelopes_sent,
            peer.msgs_sent
        );
        assert_eq!(
            peer.msgs_recv == 0,
            peer.envelopes_recv == 0,
            "peer {p}: traffic arrives in envelopes"
        );
    }
}

#[test]
fn churn_absorption_lazy_2_shards() {
    churn_on_sharded(Strategy::absorption_lazy(), dilated_shards(2));
}

#[test]
fn churn_absorption_lazy_3_shards() {
    churn_on_sharded(Strategy::absorption_lazy(), dilated_shards(3));
}

#[test]
fn churn_absorption_eager_3_shards() {
    churn_on_sharded(Strategy::absorption_eager(), dilated_shards(3));
}

#[test]
fn churn_relative_lazy_3_shards() {
    churn_on_sharded(Strategy::relative_lazy(), dilated_shards(3));
}

#[test]
fn churn_relative_eager_3_shards() {
    churn_on_sharded(Strategy::relative_eager(), dilated_shards(3));
}

// The same churn/fence scenario with transport coalescing off: every
// message is its own envelope and its own in-flight count, on both
// cross-shard paths — the fence must hold in the degraded mode too.

#[test]
fn churn_absorption_lazy_2_async_shards() {
    churn_on_sharded(Strategy::absorption_lazy(), uncoalesced(2));
}

#[test]
fn churn_absorption_lazy_3_async_shards() {
    churn_on_sharded(Strategy::absorption_lazy(), uncoalesced(3));
}

#[test]
fn churn_absorption_eager_3_async_shards() {
    churn_on_sharded(Strategy::absorption_eager(), uncoalesced(3));
}

#[test]
fn churn_relative_lazy_3_async_shards() {
    churn_on_sharded(Strategy::relative_lazy(), uncoalesced(3));
}

#[test]
fn churn_relative_eager_3_async_shards() {
    churn_on_sharded(Strategy::relative_eager(), uncoalesced(3));
}
