//! Fault-injection differential suite: seeded transport-fault schedules
//! (`netrec_sim::fault`) must never move the fixpoint.
//!
//! Three layers, all over the shared churn scenario
//! (`netrec_testutil::churn`) that reproduced the churn-cascade deletion
//! race before the MinShip ship-ledger fix (DESIGN.md "Churn-cascade race:
//! postmortem"):
//!
//! 1. **Pinned schedules** — one plan per fault class (drop+retransmit,
//!    wire duplicates, delivery jitter, stall windows) runs the churn case
//!    on every concurrent substrate and must reach the clean DES fixpoint;
//!    a faulted-DES run asserts each class actually fires.
//! 2. **Exact replay** — the same seed on the DES twice is byte-identical:
//!    views, every logical and physical traffic counter, and the fault
//!    counters themselves. This is what turns a rare cross-substrate race
//!    into a deterministic single-substrate repro.
//! 3. **Seed sweeps** — `NETREC_FAULT_SEEDS` seeded regimes (each seed
//!    draws its own fault mix, see `FaultPlan::from_seed`): every seed on
//!    the DES, and the concurrent runtime at 1 and 2 shards under
//!    fault, across every deletion-capable strategy, all pinned to the
//!    clean DES fixpoint after churn. Default 100 DES / 12 concurrent
//!    seeds; the release CI job raises the sweep to 200+.

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_sim::{FaultPlan, RuntimeKind, ShardedConfig};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::fixtures::reachable_plan;
use netrec_testutil::{assert_substrates_agree, run_workload_on};

fn seeds_from_env(default: u64) -> u64 {
    std::env::var("NETREC_FAULT_SEEDS")
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

fn sharded_async(shards: u32) -> RuntimeKind {
    RuntimeKind::Sharded(ShardedConfig {
        time_dilation: 0.02,
        ..ShardedConfig::with_shards(shards)
    })
}

/// One pinned plan per fault class, each isolating a single perturbation.
fn pinned_schedules() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop+rto",
            FaultPlan {
                seed: 1,
                drop_per_mille: 120,
                rto_us: 4_000,
                ..FaultPlan::none()
            },
        ),
        (
            "duplicates",
            FaultPlan {
                seed: 2,
                dup_per_mille: 150,
                ..FaultPlan::none()
            },
        ),
        ("jitter", FaultPlan::jitter(3, 300, 3_000)),
        (
            "stalls",
            FaultPlan {
                seed: 4,
                stall_period: 16,
                stall_span_us: 40_000,
                ..FaultPlan::none()
            },
        ),
    ]
}

/// Layer 1: each pinned fault class, on every concurrent substrate, reaches
/// the clean DES fixpoint — under the strategy that carried the original
/// race (relative/lazy) and the most timer-driven one (absorption/eager).
#[test]
fn pinned_fault_schedules_reach_the_clean_fixpoint_on_all_substrates() {
    let case = ChurnCase::pinned_cascade_race();
    for strategy in [Strategy::relative_lazy(), Strategy::absorption_eager()] {
        let w = case.workload(strategy);
        for (label, plan) in pinned_schedules() {
            let kinds = vec![
                RuntimeKind::des(),
                RuntimeKind::des().with_fault(plan),
                sharded_async(1).with_fault(plan),
                sharded_async(2).with_fault(plan),
            ];
            // Panic messages name the diverging substrate; `label` names
            // the schedule via the assertion context below.
            eprintln!("schedule {label} under {}", strategy.label());
            assert_substrates_agree(&w, &kinds);
        }
    }
}

/// Layer 1b: every pinned class actually injects its fault on the DES (a
/// schedule that never fires would make layer 1 vacuous).
#[test]
fn pinned_fault_schedules_fire() {
    let case = ChurnCase::pinned_cascade_race();
    let (load, dels) = case.scripts();
    for (label, plan) in pinned_schedules() {
        let cfg = RunnerConfig::new(Strategy::relative_lazy(), case.peers)
            .with_runtime(RuntimeKind::des().with_fault(plan));
        let mut runner = Runner::new(reachable_plan(), cfg);
        for op in load.iter().chain(&dels) {
            runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
        assert!(runner.run_phase("churn").converged());
        let stats = runner.fault_stats();
        let fired = match label {
            "drop+rto" => stats.drops_retransmitted,
            "duplicates" => stats.duplicates_discarded,
            "jitter" => stats.delayed,
            "stalls" => stats.stall_hits,
            other => panic!("unknown schedule {other}"),
        };
        assert!(fired > 0, "schedule {label} never fired: {stats:?}");
    }
}

/// Layer 2: a faulted DES run is exactly replayable — same seed, same
/// views, same traffic matrices, same fault counters, every time.
#[test]
fn faulted_des_replays_byte_identically() {
    let case = ChurnCase::pinned_cascade_race();
    let w = case.workload(Strategy::relative_lazy());
    let kind = RuntimeKind::des().with_fault(FaultPlan::from_seed(13));
    let a = run_workload_on(&w, &kind);
    let b = run_workload_on(&w, &kind);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert!(x.converged && y.converged);
        assert_eq!(x.views, y.views, "replay diverged after {}", x.label);
        assert_eq!(x.metrics, y.metrics, "metrics diverged after {}", x.label);
    }
}

/// An inert plan must be indistinguishable from no plan at all: identical
/// views *and* identical traffic counters on the DES (the functional side
/// of the zero-cost-when-disabled claim; BENCH_7.json has the wall-clock
/// side).
#[test]
fn inert_fault_plan_is_byte_identical_to_none() {
    let case = ChurnCase::pinned_cascade_race();
    let w = case.workload(Strategy::relative_lazy());
    let clean = run_workload_on(&w, &RuntimeKind::des());
    let inert = run_workload_on(&w, &RuntimeKind::des().with_fault(FaultPlan::none()));
    assert_eq!(clean.len(), inert.len());
    for (x, y) in clean.iter().zip(&inert) {
        assert!(x.converged && y.converged);
        assert_eq!(x.views, y.views);
        assert_eq!(x.metrics, y.metrics);
    }
}

/// Layer 3a: seeded fault regimes on the DES — the deterministic sweep
/// that originally cornered the churn-cascade race (each diverging seed
/// was an exact single-substrate repro). `NETREC_FAULT_SEEDS` scales it;
/// the fix was validated at 1000 seeds x 4 strategies.
#[test]
fn fault_seed_sweep_des() {
    let case = ChurnCase::pinned_cascade_race();
    let seeds = seeds_from_env(100);
    for strategy in deletion_strategies() {
        let w = case.workload(strategy);
        let clean = run_workload_on(&w, &RuntimeKind::des());
        for obs in &clean {
            assert!(obs.converged, "clean DES must converge");
        }
        for seed in 0..seeds {
            let kind = RuntimeKind::des().with_fault(FaultPlan::from_seed(seed));
            let got = run_workload_on(&w, &kind);
            for (want, have) in clean.iter().zip(&got) {
                assert!(
                    have.converged,
                    "seed {seed} {}: phase {} did not converge",
                    strategy.label(),
                    want.label
                );
                assert_eq!(
                    want.views,
                    have.views,
                    "seed {seed} {}: views diverge after phase {}",
                    strategy.label(),
                    want.label
                );
            }
        }
    }
}

/// Layer 3b: seeded fault regimes on the substrates with the most delivery
/// freedom — the concurrent runtime at 1 and 2 shards — across
/// every deletion strategy, pinned to the clean DES fixpoint after churn.
/// Default 12 seeds keeps the default test run fast; the release CI job
/// raises `NETREC_FAULT_SEEDS` to 200+ (the acceptance sweep for the
/// ship-ledger fix).
#[test]
fn fault_seed_sweep_async_and_sharded() {
    let case = ChurnCase::pinned_cascade_race();
    let seeds = seeds_from_env(12);
    for strategy in deletion_strategies() {
        let w = case.workload(strategy);
        for seed in 0..seeds {
            let plan = FaultPlan::from_seed(seed);
            let kinds = vec![
                RuntimeKind::des(),
                sharded_async(1).with_fault(plan),
                sharded_async(2).with_fault(plan),
            ];
            assert_substrates_agree(&w, &kinds);
        }
    }
}
