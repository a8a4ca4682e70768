//! Socket-fault sweep for the supervised TCP shard transport: seeded
//! connection kills, torn frames, and accept stalls must be **invisible**
//! — every faulted run converges to the byte-identical fixpoint *and*
//! per-peer traffic matrix of the fault-free oracle (logical metrics are
//! recorded before the socket and retransmits are replayed from the send
//! ledger, never re-counted), while the supervision counters prove the
//! machinery actually fired.
//!
//! `NETREC_TCP_SEEDS` scales the sweep (default 10 locally; the release CI
//! gate runs 100+).

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::{FaultPlan, FaultStats, RuntimeKind};
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_testutil::{run_workload_on, DiffPhase, DiffWorkload, PhaseObs};
use netrec_topo::BaseOp;

fn seeds_from_env(default: u64) -> u64 {
    std::env::var("NETREC_TCP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The confluent chain workload (see `runtime_differential.rs`): traffic
/// is schedule-independent, so faulted runs can be pinned on exact
/// per-peer metrics, not just views.
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

/// Drive the workload on one faulted TCP substrate, pinning every phase
/// boundary byte-identical to the oracle, and return the run's fault
/// statistics (which include the transport supervision counters).
fn run_faulted(w: &DiffWorkload, oracle: &[PhaseObs], plan: FaultPlan, ctx: &str) -> FaultStats {
    let cfg = RunnerConfig {
        runtime: RuntimeKind::sharded_async_tcp(2).with_fault(plan),
        ..w.config_ref().clone()
    };
    let mut runner = Runner::new(reachable_plan(), cfg);
    for (phase, want) in w.phases_ref().iter().zip(oracle) {
        for op in &phase.ops {
            runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
        assert!(
            runner.run_phase(phase.label.clone()).converged(),
            "{ctx}: phase {} did not converge under socket faults",
            phase.label
        );
        assert_eq!(
            runner.view("reachable"),
            want.views["reachable"],
            "{ctx}: views diverge after phase {}",
            phase.label
        );
        assert_eq!(
            runner.metrics(),
            want.metrics,
            "{ctx}: per-peer traffic matrices diverge after phase {}",
            phase.label
        );
    }
    runner.fault_stats()
}

/// The main sweep: `NETREC_TCP_SEEDS` seeded socket-fault mixtures (kill
/// 5–20%, torn 2–8%, stall 10% of reconnect attempts), every run
/// byte-identical to the fault-free DES oracle. In aggregate the sweep
/// must have exercised the recovery machinery: links died and reconnected,
/// and ledger entries were retransmitted.
#[test]
fn socket_fault_sweep_converges_byte_identically() {
    let seeds = seeds_from_env(10);
    let w = chain_workload(Strategy::absorption_lazy());
    let oracle = run_workload_on(&w, &RuntimeKind::des());
    for obs in &oracle {
        assert!(obs.converged, "oracle must converge");
    }
    let mut agg = FaultStats::default();
    for seed in 0..seeds {
        let plan = FaultPlan::socket_faults(seed);
        let stats = run_faulted(&w, &oracle, plan, &format!("seed {seed}"));
        agg.merge(&stats);
    }
    assert!(
        agg.reconnects > 0,
        "sweep never killed a connection: {agg:?}"
    );
    assert!(
        agg.retransmits > 0,
        "sweep never replayed the send ledger: {agg:?}"
    );
}

/// Torn frames alone: the sender writes a seeded proper prefix and kills
/// the link; the receiver's CRC rejects the fragment. Recovery must be
/// pure retransmission — same fixpoint, same matrices — with the ledger
/// provably replayed.
#[test]
fn torn_frames_are_rejected_and_retransmitted() {
    let w = chain_workload(Strategy::relative_lazy());
    let oracle = run_workload_on(&w, &RuntimeKind::des());
    let plan = FaultPlan {
        torn_frame_per_mille: 300,
        ..FaultPlan::none()
    };
    let stats = run_faulted(&w, &oracle, plan, "torn-only");
    assert!(
        stats.retransmits > 0,
        "30% torn frames must force retransmission: {stats:?}"
    );
    assert!(stats.reconnects > 0, "torn frames kill the link: {stats:?}");
}

/// Accept stalls longer than the heartbeat timeout: the listener sits on
/// the handshake, the sender's failure detector must notice the silence
/// and declare the link dead (another reconnect round) rather than hang.
/// Stalls hit half of all reconnect attempts — every stalled attempt must
/// trip the detector, and the unstalled ones guarantee recovery still
/// wins (at 100% the link could never come back: by design, a permanently
/// stalled acceptor is indistinguishable from a dead peer). Fault
/// decisions are keyed on wall-clock-dependent write counters, so the
/// detector assertion scans seeds until a stall actually lands on a
/// reconnect attempt.
#[test]
fn accept_stalls_trip_the_heartbeat_failure_detector() {
    let w = chain_workload(Strategy::absorption_eager());
    let oracle = run_workload_on(&w, &RuntimeKind::des());
    let mut tripped = false;
    for seed in 0..8u64 {
        let plan = FaultPlan {
            seed,
            conn_kill_per_mille: 300,
            accept_stall_per_mille: 500,
            accept_stall_us: 60_000,
            ..FaultPlan::none()
        };
        let stats = run_faulted(&w, &oracle, plan, &format!("stall seed {seed}"));
        if stats.heartbeat_timeouts > 0 {
            assert!(
                stats.reconnects > 0,
                "a heartbeat timeout is always followed by a reconnect: {stats:?}"
            );
            tripped = true;
            break;
        }
    }
    assert!(
        tripped,
        "no seed ever tripped the heartbeat failure detector"
    );
}
