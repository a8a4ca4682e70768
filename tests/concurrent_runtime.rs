//! The concurrent runtime executes the same `EnginePeer` logic on real OS
//! threads — selected through the same `Runner`/`System` driver as the DES,
//! via `RunnerConfig::runtime`. Views must match the deterministic
//! discrete-event runs — evidence the operators are genuinely distributable
//! and survive real thread interleavings. Every case runs on one shard
//! ("async": all peers on one executor thread, concurrent with the
//! controller), on two shards, and in the thread-per-peer regime (one
//! shard — one executor OS thread — per peer).
//! (The engine-level differential test in
//! `crates/engine/tests/runtime_differential.rs` additionally proves exact
//! metric equality on a confluent workload; this test uses a cyclic graph
//! with many alternative derivations, where traffic is scheduling-dependent
//! but the fixpoint is not.)

use std::collections::BTreeSet;

use netrec::core::{RuntimeKind, ShardAssignment, ShardedConfig, System, SystemConfig};
use netrec::engine::Strategy;
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

fn link(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![
        Value::Addr(NetAddr(a)),
        Value::Addr(NetAddr(b)),
        Value::Int(1),
    ])
}

/// A cyclic graph: every reachable pair has many derivations.
fn links() -> Vec<(u32, u32)> {
    vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (1, 0)]
}

fn load_view(strategy: Strategy, peers: u32, runtime: RuntimeKind) -> (BTreeSet<Tuple>, u64) {
    let mut sys = System::reachable(SystemConfig::new(strategy, peers).with_runtime(runtime));
    for (a, b) in links() {
        sys.inject("link", link(a, b), UpdateKind::Insert, None);
    }
    assert!(sys.run("load").converged(), "load converges");
    let bytes = sys.runner_ref().metrics().total_bytes();
    (sys.view("reachable"), bytes)
}

/// The concurrent substrates under test, for a `peers`-peer system.
fn substrates(peers: u32) -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::asynchronous(),
        RuntimeKind::sharded_async(2),
        // One peer per executor thread.
        RuntimeKind::Sharded(
            ShardedConfig::with_shards(peers).with_assignment(ShardAssignment::Contiguous),
        ),
    ]
}

#[test]
fn concurrent_matches_des_lazy() {
    let (des, des_bytes) = load_view(Strategy::absorption_lazy(), 3, RuntimeKind::des());
    for kind in substrates(3) {
        let name = kind.label();
        let (got, bytes) = load_view(Strategy::absorption_lazy(), 3, kind);
        assert_eq!(des, got, "[{name}] views must agree across runtimes");
        // Byte totals depend on which derivation arrives first (scheduling),
        // so require the same order of magnitude rather than exact equality.
        assert!(bytes > 0 && des_bytes > 0);
        let ratio = bytes as f64 / des_bytes as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "des {des_bytes} vs {name} {bytes}"
        );
    }
}

#[test]
fn concurrent_matches_des_set_mode() {
    let (des, _) = load_view(Strategy::set(), 4, RuntimeKind::des());
    for kind in substrates(4) {
        let name = kind.label();
        let (got, _) = load_view(Strategy::set(), 4, kind);
        assert_eq!(des, got, "[{name}]");
    }
}

#[test]
fn concurrent_matches_des_through_the_facade() {
    // Substrate selection via `SystemConfig::with_runtime`, like any user
    // would: four peers on every concurrent substrate must reach the DES
    // fixpoint.
    let (des, _) = load_view(Strategy::absorption_lazy(), 4, RuntimeKind::des());
    for kind in substrates(4) {
        let name = kind.label();
        let (got, bytes) = load_view(Strategy::absorption_lazy(), 4, kind);
        assert_eq!(des, got, "[{name}] views must agree across runtimes");
        assert!(bytes > 0, "[{name}] cross-peer traffic must be accounted");
    }
}

#[test]
fn concurrent_runs_repeatedly_with_same_result() {
    for kind in substrates(3) {
        let (a, _) = load_view(Strategy::absorption_lazy(), 3, kind.clone());
        let (b, _) = load_view(Strategy::absorption_lazy(), 3, kind.clone());
        assert_eq!(
            a,
            b,
            "[{}] nondeterministic scheduling must not change the fixpoint",
            kind.label()
        );
    }
}

#[test]
fn concurrent_deletion_churn_matches_oracle() {
    // Multi-phase session on each concurrent runtime: load the cyclic
    // graph, then fail links one per phase and check against the
    // from-scratch oracle after each phase — deletions exercise
    // cause-restrict propagation under real concurrency.
    for kind in substrates(3) {
        let name = kind.label();
        let mut sys =
            System::reachable(SystemConfig::new(Strategy::absorption_lazy(), 3).with_runtime(kind));
        for (a, b) in links() {
            sys.inject("link", link(a, b), UpdateKind::Insert, None);
        }
        assert!(sys.run("load").converged());
        assert_eq!(sys.view("reachable"), sys.oracle_view("reachable"));
        for (a, b) in [(2, 0), (1, 2)] {
            sys.inject("link", link(a, b), UpdateKind::Delete, None);
            assert!(sys.run("churn").converged());
            assert_eq!(
                sys.view("reachable"),
                sys.oracle_view("reachable"),
                "[{name}] after deleting link {a}->{b}"
            );
        }
    }
}
