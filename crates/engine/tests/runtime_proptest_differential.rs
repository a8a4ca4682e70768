//! Property-based substrate differential: proptest-generated random
//! topologies and update/delete scripts (from `netrec-topo`'s generators)
//! run through the DES and the concurrent runtime at 1, 2, and 4 shards,
//! in all 5 maintenance strategies — every substrate must reach the DES
//! fixpoint.
//!
//! Random injection orders are *not* traffic-confluent (batch composition
//! depends on arrival interleavings), so these phases are relaxed: the
//! harness pins views, not byte counts — the exact-metrics gate lives in
//! `runtime_differential.rs` on its purpose-built confluent workload.
//! Set mode cannot maintain deletions without the DRed driver, so its
//! script is insert-only; the provenance strategies get the full
//! insert-then-delete churn.
//!
//! **Coalescing toggle dimension**: each case randomly runs the whole
//! concurrent matrix with transport coalescing on or off — the fixpoint
//! must be mode-independent. On top of that, every case runs the script on
//! a second, coalescing-disabled DES and pins the fixpoint views across
//! modes plus the transport invariants (envelopes ≤ logical messages when
//! coalescing; exactly one envelope per message when not). Exact
//! byte-identity of logical metrics across modes is *not* asserted here —
//! coalescing changes event interleaving, and on non-confluent random
//! scripts interleaving legitimately changes batch composition (observed:
//! set-mode dedup timing) — that exact cross-mode gate lives in
//! `runtime_differential.rs` on the confluent workload, where it is sound.
//!
//! **Fault-seed dimension**: each case additionally replays its script on a
//! seeded fault-injecting transport (drops with retransmission, duplicate
//! suppression, reorder/delay, shard stalls — logical delivery stays
//! exactly-once, see `netrec_sim::fault`) on the DES and on the concurrent
//! runtime at 1 and 2 shards; the perturbed runs must still reach the clean
//! DES fixpoint. Deeper fault pinning (per-schedule behaviour, wide seed
//! sweeps) lives in `fault_injection.rs`.
//!
//! Case count: `NETREC_DIFF_CASES` (default 5 — the fixed-seed smoke run
//! CI executes on every push; the release job raises it and perturbs the
//! generator stream via `PROPTEST_SHIM_SEED` for a genuinely randomized
//! pass).

use netrec_engine::strategy::Strategy;
use netrec_sim::{AsyncConfig, DesConfig, FaultPlan, RuntimeKind, ShardedConfig};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::{
    assert_substrates_agree, run_workload_on, run_workload_recovering, DiffWorkload, PhaseObs,
};
use proptest::prelude::*;

fn cases_from_env() -> u32 {
    std::env::var("NETREC_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// The substrate matrix: DES reference and the concurrent runtime at 1/2/4
/// shards.
/// The concurrent substrates compress timer delays 50× (`time_dilation`):
/// eager-mode 1 s flush periods would otherwise map to real one-second
/// sleeps per flush round, and the timer fence makes every phase wait them
/// out. Dilation changes wall-clock pacing only, never the fixpoint.
/// `coalesce` switches transport coalescing on every concurrent substrate
/// (the DES reference always coalesces; relaxed phases compare views, which
/// must be mode-independent).
fn dilated_async(coalesce: bool) -> AsyncConfig {
    AsyncConfig {
        time_dilation: 0.02,
        coalesce,
        ..AsyncConfig::default()
    }
}

fn sharded(shards: u32, coalesce: bool) -> RuntimeKind {
    RuntimeKind::Sharded(ShardedConfig {
        shard: dilated_async(coalesce),
        ..ShardedConfig::with_shards(shards)
    })
}

fn substrates(coalesce: bool) -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::des(),
        sharded(1, coalesce),
        sharded(2, coalesce),
        sharded(4, coalesce),
    ]
}

/// The fault matrix: a clean DES reference first, then the same seeded
/// [`FaultPlan`] installed on the DES (exact replay) and on the concurrent
/// runtime at 1 and 2 shards — the substrates with the most delivery
/// freedom. All must reach the clean fixpoint.
fn faulted_substrates(fault: &FaultPlan) -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::des(),
        RuntimeKind::des().with_fault(*fault),
        sharded(1, true).with_fault(*fault),
        sharded(2, true).with_fault(*fault),
    ]
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::set(),
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
        Strategy::relative_eager(),
    ]
}

/// Regression gate for the (fixed) **churn-cascade deletion race**.
///
/// Found by sweeping the release differential's generator stream:
/// `NETREC_DIFF_CASES=24 PROPTEST_SHIM_SEED=2` failed on its 11th case with
/// `[des vs sharded] view contents diverge after phase churn` — a
/// concurrent substrate retained a stale `(n4, n2)` reachability tuple
/// after a deletion cascade that the DES (and every other substrate)
/// correctly retracted. The root cause was a protocol hole in MinShip's
/// deletion propagation (causes were not routed to receivers whose merged
/// annotations outlived the sender's restricted mirror); the fix is the
/// ship ledger — DESIGN.md "Churn-cascade race: postmortem" has the full
/// account.
///
/// The divergence was an interleaving race (frequent on these inputs, not
/// deterministic), so the gate loops the whole substrate matrix:
/// `NETREC_REPRO_ITERS` iterations, default 3 (the release CI job runs 20;
/// the fix was validated green at 100+ consecutive release iterations).
#[test]
fn churn_cascade_race_pinned_repro() {
    let iters: u32 = std::env::var("NETREC_REPRO_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    // Two pinned inputs: the original cascade race (ship-ledger fix) and
    // the false-annotation resurrection race it unmasked (a constant-false
    // join delta re-keying a retracted tuple — see DESIGN.md postmortem,
    // hole 3). Both were interleaving races on the concurrent substrates.
    let cases = [
        ChurnCase::pinned_cascade_race(),
        ChurnCase::pinned_false_annotation_race(),
    ];
    for _ in 0..iters {
        for case in &cases {
            for strategy in strategies() {
                // The races lived in the delete cascade; set mode is
                // insert-only under this harness and never reproduced them.
                if strategy.mode == netrec_prov::ProvMode::Set {
                    continue;
                }
                let w = case.workload(strategy);
                assert_substrates_agree(&w, &substrates(false));
            }
        }
    }
}

/// Crash-recovery dimension: a seeded crash point inside the DES session,
/// recovered from interval-1 epoch checkpoints, must replay to the exact
/// clean observations `obs` — views AND the full per-peer traffic matrix at
/// every phase boundary (the DES is deterministic, so recovery is
/// byte-identical, not merely fixpoint-equal). Deeper crash sweeps live in
/// `crash_recovery.rs`.
///
/// Dials span `1..=total-1`, so the crash always destroys work still in
/// flight (a dial of `total` also fires, but only after the last event has
/// retired). The counter is logical — an envelope of N messages adds N —
/// so a dial can fall *inside* an envelope, including the session's final
/// one; it must fire all the same.
fn des_crash_recovery_is_byte_identical(
    w: &DiffWorkload,
    obs: &[PhaseObs],
    fault_seed: u64,
    strategy: &Strategy,
) -> Result<(), TestCaseError> {
    let total_events = obs.last().expect("phases").events.max(2);
    let crash_at = 1 + fault_seed % (total_events - 1);
    let (rec, crashes) = run_workload_recovering(
        w,
        &RuntimeKind::des().with_fault(FaultPlan::crash_at(crash_at)),
        1,
    );
    prop_assert_eq!(
        crashes,
        1,
        "crash at event {} of {} must fire exactly once ({})",
        crash_at,
        total_events,
        strategy.label()
    );
    for (want, have) in obs.iter().zip(&rec) {
        prop_assert_eq!(
            &want.views,
            &have.views,
            "recovered views diverge after {} ({})",
            &want.label,
            strategy.label()
        );
        prop_assert_eq!(
            &want.metrics,
            &have.metrics,
            "recovered metrics diverge after {} ({})",
            &want.label,
            strategy.label()
        );
    }
    Ok(())
}

/// Regression gate for the **DES crash dial inside the final envelope**.
///
/// Found by the default-seed run of the property below
/// (`NETREC_DIFF_CASES=24`, case 23): under absorption/lazy the session's
/// last two pops carry 3 and 2 logical events (counter 292 → 295 → 297),
/// and this fault seed places the dial at 296 of 297 — crossed by the
/// final pop with nothing left in the queue, so the simulator used to
/// report `Converged` and the crash never fired.
#[test]
fn crash_dial_inside_final_envelope_pinned_repro() {
    let case = ChurnCase {
        nodes: 7,
        extra: 0,
        peers: 3,
        topo_seed: 2008909284646477082,
        script_seed: 11046538666961493124,
        del_pick: 0,
    };
    let strategy = Strategy::absorption_lazy();
    let w = case.workload(strategy);
    let obs = run_workload_on(&w, &RuntimeKind::des());
    if let Err(e) = des_crash_recovery_is_byte_identical(&w, &obs, 17176305093492510959, &strategy)
    {
        panic!("{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases_from_env(), ..ProptestConfig::default() })]

    #[test]
    fn all_substrates_reach_the_des_fixpoint(
        nodes in 4u32..8,
        extra in 0u32..5,
        peers in 2u32..5,
        topo_seed in any::<u64>(),
        script_seed in any::<u64>(),
        del_pick in 0usize..3,
        coalesce in any::<bool>(),
        fault_seed in any::<u64>(),
    ) {
        // Small connected graphs keep relative-mode annotations far below
        // RELATIVE_NODE_CAP while still exercising multi-hop recursion.
        // Script derivation is shared with the pinned repro via ChurnCase:
        // the generator records raw inputs only.
        let case = ChurnCase { nodes, extra, peers, topo_seed, script_seed, del_pick };
        // Racy divergences on the concurrent substrates reproduce from the
        // *case inputs*, not from the proptest seed alone — print them so a
        // failure in a randomized CI run is immediately pinnable.
        if std::env::var("NETREC_DIFF_VERBOSE").is_ok() {
            eprintln!("case: {case:?} coalesce={coalesce} fault_seed={fault_seed}");
        }
        for strategy in strategies() {
            let w = case.workload(strategy);
            let obs = assert_substrates_agree(&w, &substrates(coalesce));
            prop_assert!(
                !obs[0].views["reachable"].is_empty(),
                "load phase must derive something ({})",
                strategy.label()
            );
            // Fault-seed dimension: the same script under a seeded
            // fault-injecting transport must still reach the clean DES
            // fixpoint (the faulted DES replays its plan exactly; the
            // concurrent substrates draw seeded per-worker schedules).
            assert_substrates_agree(&w, &faulted_substrates(&FaultPlan::from_seed(fault_seed)));
            des_crash_recovery_is_byte_identical(&w, &obs, fault_seed, &strategy)?;
            // The coalescing on/off differential on the deterministic DES:
            // same script, coalescing disabled. The fixpoint must be
            // mode-independent, and the transport invariants must hold
            // (exact logical byte-identity across modes is asserted on the
            // confluent workload in runtime_differential.rs — see the
            // module docs for why it cannot hold on random scripts).
            let off = run_workload_on(
                &w,
                &RuntimeKind::Des(DesConfig { coalesce: false, fault: None }),
            );
            prop_assert_eq!(obs.len(), off.len());
            for (on, off) in obs.iter().zip(&off) {
                prop_assert!(off.converged, "coalescing-off DES must converge");
                prop_assert_eq!(
                    &on.views,
                    &off.views,
                    "views diverge between coalescing modes ({})",
                    strategy.label()
                );
                prop_assert!(
                    on.metrics.total_envelopes() <= on.metrics.total_msgs(),
                    "coalescing on: envelopes bounded by logical msgs"
                );
                prop_assert_eq!(
                    off.metrics.total_envelopes(),
                    off.metrics.total_msgs(),
                    "coalescing off: every message is its own envelope"
                );
            }
        }
    }
}
