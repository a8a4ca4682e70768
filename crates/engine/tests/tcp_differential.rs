//! Loopback-TCP transport differential suite: the sharded runtime speaking
//! real sockets (`TransportKind::Tcp`) must be **byte-identical** to the
//! in-process channel transport and to the DES reference — views *and* the
//! full per-peer traffic matrices (logical and envelope counters alike) —
//! on the confluent chain workload, in every maintenance strategy. The
//! transport moves envelopes; it must never change what the engine ships.
//!
//! Three layers:
//!
//! 1. **Strict chain parity** — the purpose-built traffic-confluent chain
//!    workload (see `runtime_differential.rs`) holds `sharded-tcp` and
//!    `sharded-async-tcp` to exact per-peer metric matrices against the
//!    DES oracle and the channel-transport sharded runs, per strategy.
//! 2. **Churn-cascade parity** — the pinned churn-race cases (deletion
//!    cascades mid-flight) reach the oracle fixpoint over sockets; cascade
//!    traffic is scheduling-dependent, so these phases pin views only.
//! 3. **Over-the-wire durable checkpoints** — a session mirrors every
//!    epoch checkpoint through a [`RemoteBackend`] socket into a
//!    [`FileBackend`] directory, crashes mid-churn, and a **cold-started
//!    runner in a fresh process image** recovers from the shipped bytes
//!    alone, byte-identical to the fault-free oracle at the restored
//!    barrier and at the final fixpoint.

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_engine::{CheckpointServer, FileBackend, RemoteBackend};
use netrec_sim::{FaultPlan, RuntimeKind};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_testutil::{assert_substrates_agree, run_workload_on, DiffPhase, DiffWorkload};
use netrec_topo::BaseOp;

/// The confluent chain workload from `runtime_differential.rs`: disjoint
/// seed links, then one link per phase, splicing three 2-chains into the
/// single chain 0→1→…→8. Traffic-confluent by construction, so TCP runs
/// can be pinned on exact per-peer metrics, not just views.
fn chain_workload(strategy: Strategy) -> DiffWorkload {
    let phases: Vec<(&str, Vec<(u32, u32)>)> = vec![
        ("seed", vec![(0, 1), (3, 4), (6, 7)]),
        ("link-1-2", vec![(1, 2)]),
        ("link-4-5", vec![(4, 5)]),
        ("link-7-8", vec![(7, 8)]),
        ("link-2-3", vec![(2, 3)]),
        ("link-5-6", vec![(5, 6)]),
    ];
    let mut w =
        DiffWorkload::new(reachable_plan, RunnerConfig::direct(strategy, 9)).views(["reachable"]);
    for (label, links) in phases {
        w = w.phase(DiffPhase::strict(
            label,
            links
                .into_iter()
                .map(|(a, b)| BaseOp::insert("link", link(a, b)))
                .collect(),
        ));
    }
    w
}

/// Layer 1: DES reference, channel-transport sharded, and the TCP
/// composite, held to identical views and — on every strict boundary —
/// identical logical *and* envelope traffic; then the full per-peer
/// matrices are pinned pairwise against the reference.
fn assert_tcp_parity(strategy: Strategy) {
    let w = chain_workload(strategy);
    let reference = run_workload_on(&w, &RuntimeKind::des());
    for obs in &reference {
        assert!(obs.converged, "DES reference must converge");
    }
    for kind in [
        RuntimeKind::sharded_async(2),
        RuntimeKind::sharded_async_tcp(2),
    ] {
        let name = kind.label();
        let got = run_workload_on(&w, &kind);
        assert_eq!(got.len(), reference.len());
        for (want, have) in reference.iter().zip(&got) {
            let phase = &want.label;
            assert!(have.converged, "[{name}] phase {phase} did not converge");
            assert_eq!(
                want.views, have.views,
                "[{name}] views diverge after phase {phase}"
            );
            // The acceptance pin: the complete per-peer matrix — all nine
            // counters per peer, logical and envelope alike — equals the
            // oracle's. A transport that re-sent, re-counted, or dropped
            // anything would show up here.
            assert_eq!(
                want.metrics, have.metrics,
                "[{name}] per-peer traffic matrices diverge after phase {phase}"
            );
        }
    }
}

#[test]
fn tcp_parity_set_immediate() {
    assert_tcp_parity(Strategy::set());
}

#[test]
fn tcp_parity_absorption_lazy() {
    assert_tcp_parity(Strategy::absorption_lazy());
}

#[test]
fn tcp_parity_absorption_eager() {
    assert_tcp_parity(Strategy::absorption_eager());
}

#[test]
fn tcp_parity_relative_lazy() {
    assert_tcp_parity(Strategy::relative_lazy());
}

#[test]
fn tcp_parity_relative_eager() {
    assert_tcp_parity(Strategy::relative_eager());
}

/// Layer 2: deletion cascades — the part of the protocol where message
/// loss or reordering would corrupt state silently — reach the oracle
/// fixpoint over real sockets, for both pinned churn-race cases.
#[test]
fn churn_cascades_reach_the_oracle_fixpoint_over_tcp() {
    for case in [
        ChurnCase::pinned_cascade_race(),
        ChurnCase::pinned_false_annotation_race(),
    ] {
        for strategy in [Strategy::relative_lazy(), Strategy::absorption_eager()] {
            let w = case.workload(strategy);
            assert_substrates_agree(&w, &[RuntimeKind::des(), RuntimeKind::sharded_async_tcp(2)]);
        }
    }
}

/// Layer 3: durable checkpoint shipping end to end. Every epoch crosses a
/// real socket into a file-backed store; the original process image dies
/// mid-churn; a cold-started runner rebuilds the session from the shipped
/// bytes alone and finishes byte-identical to the fault-free oracle.
#[test]
fn checkpoints_ship_over_the_wire_and_cold_recovery_is_byte_identical() {
    let case = ChurnCase::pinned_cascade_race();
    let strategy = Strategy::absorption_lazy();
    let w = case.workload(strategy);
    let oracle = run_workload_on(&w, &RuntimeKind::des());
    for obs in &oracle {
        assert!(obs.converged, "oracle must converge");
    }
    let load_events = oracle[0].events;
    let total = oracle.last().expect("phases").events;
    let crash_at = load_events + (total - load_events) / 2;

    let dir = std::env::temp_dir().join(format!("netrec-tcp-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server =
        CheckpointServer::serve(Box::new(FileBackend::open(&dir).expect("open store dir")))
            .expect("bind checkpoint server");

    // Original session: durable checkpointing over the wire, crash mid-churn.
    let (load, dels) = case.scripts();
    let cfg = RunnerConfig::new(strategy, case.peers)
        .with_runtime(RuntimeKind::des().with_fault(FaultPlan::crash_at(crash_at)));
    let mut runner = Runner::new(reachable_plan(), cfg);
    runner
        .enable_durable_checkpointing(1, Box::new(RemoteBackend::connect(server.addr())))
        .expect("attach remote durable backend");
    for op in &load {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(runner.run_phase("load").converged());
    for op in &dels {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(
        runner.run_phase("churn").outcome.crashed(),
        "crash@{crash_at} must fire mid-churn"
    );
    // Process death: the in-memory store is gone with the runner; only the
    // files the wire shipped survive.
    drop(runner);

    let surviving = FileBackend::open(&dir).expect("reopen store dir");
    use netrec_engine::CheckpointBackend;
    assert_eq!(
        surviving.epochs().expect("list store"),
        vec![0, 1],
        "the baseline and the post-load barrier must be on disk"
    );

    // Cold start: a fresh runner recovers from the shipped bytes alone.
    let cfg = RunnerConfig::new(strategy, case.peers).with_runtime(RuntimeKind::des());
    let mut fresh = Runner::new(reachable_plan(), cfg);
    fresh
        .recover_from_backend(1, Box::new(RemoteBackend::connect(server.addr())))
        .expect("cold recovery over the wire");
    assert_eq!(
        fresh.view("reachable"),
        oracle[0].views["reachable"],
        "restored barrier state must equal the post-load oracle"
    );
    assert_eq!(
        fresh.metrics(),
        oracle[0].metrics,
        "restored traffic matrix must equal the post-load oracle"
    );

    // Inputs injected after the barrier are lost by contract; the client
    // re-derives them (the churn script) and drives the session to its end.
    for op in &dels {
        fresh.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(fresh.run_phase("churn").converged());
    let last = oracle.last().unwrap();
    assert_eq!(
        fresh.view("reachable"),
        last.views["reachable"],
        "recovered fixpoint diverges from the fault-free oracle"
    );
    assert_eq!(
        fresh.metrics(),
        last.metrics,
        "recovered traffic matrix diverges from the fault-free oracle"
    );
    assert_eq!(
        fresh.events_processed(),
        last.events,
        "recovered event count diverges from the fault-free oracle"
    );
    // Recovery continued mirroring: the re-run churn boundary is epoch 2.
    assert_eq!(surviving.epochs().expect("list store"), vec![0, 1, 2]);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
