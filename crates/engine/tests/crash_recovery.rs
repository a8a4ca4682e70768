//! Crash-recovery differential suite: epoch-barrier checkpointing must make
//! seeded shard crashes ([`netrec_sim::FaultPlan::crash_at_event`])
//! *invisible* — a session that crashes, restores the latest converged-epoch
//! checkpoint, and replays the input delta must end exactly where a
//! fault-free run of the same inputs ends.
//!
//! Four layers:
//!
//! 1. **DES crash-point sweep** — `NETREC_CRASH_SEEDS` seeded crash points
//!    (default 100; the release CI job raises it) across every
//!    deletion-capable strategy on the churn scenario: the recovered run is
//!    **byte-identical** to the fault-free oracle — views, the full per-peer
//!    traffic matrix, and the folded event count (the DES is deterministic,
//!    so recovery must reproduce the oracle exactly, not merely reach the
//!    same fixpoint).
//! 2. **Pinned mid-cascade crashes** — crash points placed *inside* the
//!    churn deletion cascade of the pinned churn-race case restore from the
//!    post-load epoch and still replay byte-identically.
//! 3. **Sharded acceptance gate** — the sharded composite crashes
//!    mid-session under all four deletion strategies and
//!    must recover to the clean DES fixpoint; on the purpose-built confluent
//!    chain workload the recovered sharded runs are additionally pinned to
//!    the oracle's exact per-peer traffic matrices.
//! 4. **Partition-then-heal** — a seeded bidirectional partition defers
//!    cross-cut traffic and heals; every substrate still reaches the clean
//!    fixpoint, with deferrals proven to have fired on the DES.
//!
//! Checkpoint mechanics (interval accounting, store keying, serving-layer
//! interaction) are covered at the bottom; codec-level round-trip and
//! corruption properties live in `checkpoint_roundtrip.rs`.

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_engine::ServeSpec;
use netrec_sim::{AsyncConfig, FaultPlan, RuntimeKind, ShardedConfig};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_testutil::{
    assert_substrates_agree, run_workload_on, run_workload_recovering, DiffPhase, DiffWorkload,
    PhaseObs,
};
use netrec_topo::BaseOp;

fn seeds_from_env(default: u64) -> u64 {
    std::env::var("NETREC_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Every strategy that maintains deletions (set mode is insert-only without
/// the DRed driver, so churn never reaches it under this harness).
fn deletion_strategies() -> Vec<Strategy> {
    vec![
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
        Strategy::relative_eager(),
    ]
}

fn dilated_async() -> AsyncConfig {
    AsyncConfig {
        time_dilation: 0.02,
        ..AsyncConfig::default()
    }
}

fn sharded_async(shards: u32) -> RuntimeKind {
    RuntimeKind::Sharded(ShardedConfig {
        shard: dilated_async(),
        ..ShardedConfig::with_shards(shards)
    })
}

/// splitmix-style hash for deriving crash points from sweep seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The confluent chain workload from `runtime_differential.rs`: disjoint
/// seed links, then one link per phase, splicing three 2-chains into the
/// single chain 0→1→…→8. Traffic-confluent by construction, so recovered
/// runs can be pinned on exact per-peer metrics, not just views.
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

/// Crash `kind` at `crash_at` and recover; if the session finishes before
/// the crash point is reached (concurrent substrates' event counts are
/// scheduling-dependent), halve the crash point and retry — event 1 always
/// fires, so this terminates with exactly-one-crash deterministically.
fn run_crashing(w: &DiffWorkload, kind: &RuntimeKind, mut crash_at: u64) -> (Vec<PhaseObs>, u64) {
    loop {
        crash_at = crash_at.max(1);
        let k = kind.clone().with_fault(FaultPlan::crash_at(crash_at));
        let (obs, crashes) = run_workload_recovering(w, &k, 1);
        if crashes > 0 {
            assert_eq!(crashes, 1, "crash dial is stripped on recovery");
            return (obs, crash_at);
        }
        assert!(crash_at > 1, "a crash at event 1 must always fire");
        crash_at /= 2;
    }
}

fn assert_views_match(want: &[PhaseObs], have: &[PhaseObs], ctx: &str) {
    assert_eq!(want.len(), have.len());
    for (w, h) in want.iter().zip(have) {
        assert!(h.converged, "{ctx}: phase {} did not converge", w.label);
        assert_eq!(
            w.views, h.views,
            "{ctx}: views diverge after phase {}",
            w.label
        );
    }
}

/// Layer 1: seeded crash points anywhere in the session, every deletion
/// strategy, on the DES — the recovered run is byte-identical to the
/// fault-free oracle: views, full per-peer traffic matrices, and the folded
/// event count, at every phase boundary.
#[test]
fn des_crash_point_sweep_recovers_byte_identically() {
    let case = ChurnCase::pinned_cascade_race();
    let seeds = seeds_from_env(100);
    for (si, strategy) in deletion_strategies().into_iter().enumerate() {
        let w = case.workload(strategy);
        let oracle = run_workload_on(&w, &RuntimeKind::des());
        for obs in &oracle {
            assert!(obs.converged, "oracle must converge");
        }
        let total = oracle.last().expect("phases").events;
        assert!(total > 1);
        for seed in 0..seeds {
            // Dials span 1..=total-1: the crash check fires on an event pop
            // with the counter at the dial, so a dial of `total` lands after
            // the final pop and the session converges instead of crashing.
            let crash_at = 1 + mix(seed ^ (si as u64) << 32) % (total - 1);
            let kind = RuntimeKind::des().with_fault(FaultPlan::crash_at(crash_at));
            let (got, crashes) = run_workload_recovering(&w, &kind, 1);
            assert_eq!(
                crashes,
                1,
                "seed {seed} {}: crash at event {crash_at} of {total} must fire once",
                strategy.label()
            );
            for (want, have) in oracle.iter().zip(&got) {
                let phase = &want.label;
                let ctx = format!("seed {seed} crash@{crash_at} {}", strategy.label());
                assert!(have.converged, "{ctx}: phase {phase} did not converge");
                assert_eq!(
                    want.views, have.views,
                    "{ctx}: views diverge after phase {phase}"
                );
                assert_eq!(
                    want.metrics, have.metrics,
                    "{ctx}: per-peer metrics diverge after phase {phase}"
                );
                assert_eq!(
                    want.events, have.events,
                    "{ctx}: folded event counts diverge after phase {phase}"
                );
            }
        }
    }
}

/// Layer 2: crash points pinned *inside* the churn deletion cascade of the
/// pinned churn-race case — the crash interrupts in-flight deletion
/// propagation, recovery restores the post-load epoch, and the replayed
/// cascade still lands byte-identically on the oracle fixpoint.
#[test]
fn crash_mid_deletion_cascade_restores_the_post_load_epoch() {
    let case = ChurnCase::pinned_cascade_race();
    for strategy in [Strategy::relative_lazy(), Strategy::absorption_eager()] {
        let w = case.workload(strategy);
        let oracle = run_workload_on(&w, &RuntimeKind::des());
        let load_events = oracle[0].events;
        let total = oracle.last().expect("phases").events;
        let cascade = total - load_events;
        assert!(cascade > 4, "cascade must span events to crash inside");
        for crash_at in [
            load_events + 1,
            load_events + cascade / 4,
            load_events + cascade / 2,
            total - 1,
        ] {
            let kind = RuntimeKind::des().with_fault(FaultPlan::crash_at(crash_at));
            let (got, crashes) = run_workload_recovering(&w, &kind, 1);
            assert_eq!(crashes, 1, "crash@{crash_at} must fire mid-cascade");
            for (want, have) in oracle.iter().zip(&got) {
                assert_eq!(
                    want.views,
                    have.views,
                    "crash@{crash_at} {}: views diverge after {}",
                    strategy.label(),
                    want.label
                );
                assert_eq!(
                    want.metrics,
                    have.metrics,
                    "crash@{crash_at} {}: metrics diverge after {}",
                    strategy.label(),
                    want.label
                );
            }
        }
    }
}

/// Layer 3a: both sharded composites crash mid-session (the retry rule
/// steers the crash point inside the run) under every deletion strategy and
/// must recover to the clean DES churn fixpoint at every phase boundary.
#[test]
fn sharded_crash_recovery_reaches_the_clean_churn_fixpoint() {
    let case = ChurnCase::pinned_cascade_race();
    for strategy in deletion_strategies() {
        let w = case.workload(strategy);
        let oracle = run_workload_on(&w, &RuntimeKind::des());
        for obs in &oracle {
            assert!(obs.converged, "oracle must converge");
        }
        let load_events = oracle[0].events;
        let total = oracle.last().expect("phases").events;
        // Aim mid-cascade on the DES event scale; concurrent substrates'
        // counts differ, so run_crashing halves until the crash fires.
        let aim = load_events + (total - load_events) / 2;
        let kind = sharded_async(2);
        let (got, fired_at) = run_crashing(&w, &kind, aim);
        assert_views_match(
            &oracle,
            &got,
            &format!("{} crash@{fired_at} {}", kind.label(), strategy.label()),
        );
    }
}

/// Layer 3b: on the confluent chain workload the recovered sharded runs are
/// held to the full strict gate — exact per-peer logical *and* envelope
/// traffic matrices equal to the fault-free DES oracle at every boundary.
/// Confluence makes the metric comparison sound across substrates; the
/// checkpoint's metric baseline makes it sound across the crash.
#[test]
fn sharded_crash_recovery_is_byte_identical_on_confluent_traffic() {
    for strategy in deletion_strategies() {
        let w = chain_workload(strategy);
        let oracle = run_workload_on(&w, &RuntimeKind::des());
        for obs in &oracle {
            assert!(obs.converged, "oracle must converge");
        }
        let total = oracle.last().expect("phases").events;
        let kind = sharded_async(2);
        let (got, fired_at) = run_crashing(&w, &kind, total / 2);
        let ctx = format!("{} crash@{fired_at} {}", kind.label(), strategy.label());
        assert_views_match(&oracle, &got, &ctx);
        for (want, have) in oracle.iter().zip(&got) {
            assert_eq!(
                want.metrics, have.metrics,
                "{ctx}: per-peer traffic matrices diverge after phase {}",
                want.label
            );
        }
    }
}

/// Layer 4: a seeded bidirectional partition opens at t=0 and heals after
/// its span; cross-cut traffic is deferred, not lost, so every substrate
/// still converges to the clean fixpoint — and the deferrals provably fired
/// on the DES.
#[test]
fn partition_then_heal_converges_to_the_clean_fixpoint() {
    let case = ChurnCase::pinned_cascade_race();
    let plan = FaultPlan::partition(9, 0, 3_000);
    for strategy in [Strategy::relative_lazy(), Strategy::absorption_eager()] {
        let w = case.workload(strategy);
        let kinds = vec![
            RuntimeKind::des(),
            RuntimeKind::des().with_fault(plan),
            sharded_async(1).with_fault(plan),
            sharded_async(2).with_fault(plan),
        ];
        assert_substrates_agree(&w, &kinds);
    }
    // The window must actually cut something (otherwise the gate above is
    // vacuous): replay the partitioned DES run by hand and check counters.
    let (load, dels) = case.scripts();
    let cfg = RunnerConfig::new(Strategy::relative_lazy(), case.peers)
        .with_runtime(RuntimeKind::des().with_fault(plan));
    let mut runner = Runner::new(reachable_plan(), cfg);
    for op in load.iter().chain(&dels) {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(runner.run_phase("churn").converged());
    let stats = runner.fault_stats();
    assert!(
        stats.partition_deferrals > 0,
        "partition window never deferred an envelope: {stats:?}"
    );
}

/// Interval accounting and store keying: with interval `k`, checkpoints
/// land at the enable-time baseline (epoch 0) and every `k`-th converged
/// boundary thereafter, keyed by the boundary count; the replay ledger
/// grows monotonically across epochs.
#[test]
fn checkpoint_interval_and_store_semantics() {
    let w = chain_workload(Strategy::absorption_lazy());
    let cfg = RunnerConfig {
        runtime: RuntimeKind::des(),
        ..w.config_ref().clone()
    };
    let mut runner = Runner::new(reachable_plan(), cfg);
    runner.enable_checkpointing(2);
    for phase in w.phases_ref() {
        for op in &phase.ops {
            runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
        assert!(runner.run_phase(phase.label.clone()).converged());
    }
    let store = runner.checkpoints().expect("checkpointing enabled");
    // 6 converged boundaries at interval 2: epochs 0 (baseline), 2, 4, 6.
    assert_eq!(store.epochs().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
    assert_eq!(store.len(), 4);
    let (latest, ck) = store.latest().expect("non-empty");
    assert_eq!(latest, 6);
    assert!(ck.bytes() > 0, "peer blobs must carry state");
    assert_eq!(ck.peer_blobs.len(), runner.peer_count() as usize);
    let lens: Vec<usize> = store
        .epochs()
        .map(|e| store.get(e).unwrap().ledger_len)
        .collect();
    assert!(
        lens.windows(2).all(|p| p[0] <= p[1]),
        "ledger shrank: {lens:?}"
    );
    assert_eq!(
        lens.last().copied(),
        Some(w.phases_ref().iter().map(|p| p.ops.len()).sum::<usize>()),
        "every injection must be in the replay ledger"
    );
}

/// Serving + checkpointing: readers ride through the crash untouched — the
/// published epoch stays at the last converged boundary while the substrate
/// is dead, and recovery (which restores exactly that boundary, since
/// serving forces interval 1) resumes publishing without a gap or a rewind.
#[test]
fn serving_readers_ride_through_crash_and_recovery() {
    let case = ChurnCase::pinned_cascade_race();
    let strategy = Strategy::absorption_lazy();
    let w = case.workload(strategy);
    let oracle = run_workload_on(&w, &RuntimeKind::des());
    let load_events = oracle[0].events;
    let total = oracle.last().expect("phases").events;
    let crash_at = load_events + (total - load_events) / 2;

    let (load, dels) = case.scripts();
    let cfg = RunnerConfig::new(strategy, case.peers)
        .with_runtime(RuntimeKind::des().with_fault(FaultPlan::crash_at(crash_at)));
    let mut runner = Runner::new(reachable_plan(), cfg);
    let mut reader = runner.serve(&ServeSpec::views(&["reachable"]));
    runner.enable_checkpointing(7); // forced to 1 while serving
    for op in &load {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(runner.run_phase("load").converged());
    let post_load_version = reader.version();
    let post_load_view = runner.view("reachable");
    assert_eq!(post_load_view, oracle[0].views["reachable"]);

    for op in &dels {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    let rep = runner.run_phase("churn");
    assert!(
        rep.outcome.crashed(),
        "crash@{crash_at} must fire mid-churn"
    );
    // Dead substrate, live readers: still the post-load epoch, no rewind.
    assert_eq!(reader.version(), post_load_version);
    assert_eq!(runner.view("reachable"), post_load_view);

    runner.recover().expect("recovery from the post-load epoch");
    assert!(runner.run_phase("churn").converged());
    assert!(reader.version() > post_load_version, "recovery republishes");
    assert_eq!(
        runner.view("reachable"),
        oracle.last().unwrap().views["reachable"],
        "served view after recovery must equal the fault-free oracle"
    );
}
