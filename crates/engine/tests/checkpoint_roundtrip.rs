//! Checkpoint codec round-trip and corruption properties.
//!
//! The peer checkpoint blob is *canonical*: every section is emitted in
//! sorted order and every annotation encoding is structural (BDDs and
//! relative graphs serialize manager-independently). Losslessness is
//! therefore testable as idempotence — decode a blob into a fresh peer and
//! re-encode it, and the bytes must be identical. The runner-level
//! crash-recovery suite proves the *behavioral* half (a restored peer
//! continues byte-identically); this file proves the codec half on
//! proptest-generated states across all three provenance modes, plus the
//! fail-loudly half: truncated or structurally corrupted blobs error out
//! and never half-apply (restore builds into a fresh peer that is dropped
//! wholesale on error — there is no partially-restored state by
//! construction).

use netrec_core::System;
use netrec_engine::ckptstore::encode_checkpoint;
use netrec_engine::peer::EnginePeer;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_prov::ProvMode;
use netrec_sim::{PeerId, RuntimeKind};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::fixtures::reachable_plan;
use netrec_topo::{SensorGrid, SensorGridParams};
use netrec_types::wire::crc32;
use proptest::prelude::*;

fn cases_from_env() -> u32 {
    std::env::var("NETREC_CKPT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// One strategy per provenance mode, plus the eager-shipping variants whose
/// MinShip ledgers and pin tables exercise the remaining codec paths.
fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::set(),
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
        Strategy::relative_eager(),
    ]
}

/// Drive the churn case to a converged boundary (load, plus the deletion
/// pass when the strategy maintains deletions) and return the runner.
fn boundary_runner(case: &ChurnCase, strategy: Strategy) -> Runner {
    let cfg = RunnerConfig::new(strategy, case.peers).with_runtime(RuntimeKind::des());
    let mut runner = Runner::new(reachable_plan(), cfg);
    let (load, dels) = case.scripts();
    for op in &load {
        runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    assert!(runner.run_phase("load").converged());
    if strategy.mode != ProvMode::Set {
        for op in &dels {
            runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
        assert!(runner.run_phase("churn").converged());
    }
    runner
}

/// Checkpoint every peer, restore each blob into a fresh peer, and assert
/// the re-encoded bytes are identical. Returns the blobs for reuse.
fn assert_roundtrip_idempotent(runner: &Runner, strategy: Strategy, ctx: &str) -> Vec<Vec<u8>> {
    let peers = runner.peer_count();
    let plan = reachable_plan();
    let partitioner = runner.config().partitioner;
    (0..peers)
        .map(|p| {
            let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
            let restored = EnginePeer::restore(PeerId(p), &plan, strategy, partitioner, &blob)
                .unwrap_or_else(|e| panic!("{ctx}: peer {p} restore failed: {e}"));
            let reencoded = restored.checkpoint();
            assert_eq!(
                reencoded, blob,
                "{ctx}: peer {p} round-trip is not canonical"
            );
            blob
        })
        .collect()
}

/// Pinned coverage of all five strategies (all three provenance modes) on the
/// pinned churn case, at a post-churn boundary where every operator holds
/// live state (provenance tables, ship ledgers, pending deletions, emitted
/// aggregates).
#[test]
fn all_provenance_modes_roundtrip_canonically() {
    let case = ChurnCase::pinned_cascade_race();
    for strategy in strategies() {
        let runner = boundary_runner(&case, strategy);
        let blobs = assert_roundtrip_idempotent(&runner, strategy, &strategy.label());
        assert!(
            blobs.iter().any(|b| b.len() > 8),
            "{}: checkpoint blobs are implausibly empty",
            strategy.label()
        );
    }
}

/// The checkpoint format may not move. For the pinned churn case under each
/// strategy of [`strategies`], every peer blob's length and CRC-32, and the
/// encoded epoch frame taken at the absorption-lazy boundary — literals
/// written by the codec as it stood before its rules moved into one module.
#[test]
fn checkpoint_bytes_are_pinned() {
    // Regenerated when a variable's high bits became its base tuple's
    // partition address (DESIGN.md "Variable order"). Every strategy moved:
    // the ingress table stores a variable per live base tuple in every
    // mode, and the annotations and dead-variable sets carry the new
    // variables.
    const BLOBS: [(&str, [(usize, u32); 4]); 5] = [
        (
            "Set Immediate",
            [
                (223, 228945788),
                (121, 940671682),
                (151, 1031303390),
                (123, 134772800),
            ],
        ),
        (
            "Absorption Lazy",
            [
                (998, 654938125),
                (514, 2047745215),
                (1229, 3702164528),
                (617, 2780679154),
            ],
        ),
        (
            "Absorption Eager",
            [
                (1256, 1976845469),
                (714, 3344451369),
                (1168, 2611540554),
                (659, 2829727418),
            ],
        ),
        (
            "Relative Lazy",
            [
                (5083, 988760920),
                (2426, 692146354),
                (6195, 1092208451),
                (2429, 1718817841),
            ],
        ),
        (
            "Relative Eager",
            [
                (7100, 1654574565),
                (4121, 2677098031),
                (6363, 2704229240),
                (4122, 588517203),
            ],
        ),
    ];
    const EPOCH: (u64, usize, u32) = (0, 3433, 1749488870);
    let case = ChurnCase::pinned_cascade_race();
    for (strategy, (label, want)) in strategies().into_iter().zip(BLOBS) {
        assert_eq!(strategy.label(), label);
        let runner = boundary_runner(&case, strategy);
        let got: Vec<(usize, u32)> = (0..runner.peer_count())
            .map(|p| {
                let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
                (blob.len(), crc32(&blob))
            })
            .collect();
        assert_eq!(got, want, "{label}: peer blobs moved");
    }
    let mut runner = boundary_runner(&case, Strategy::absorption_lazy());
    runner.enable_checkpointing(1);
    let (epoch, ck) = runner.checkpoints().unwrap().latest().unwrap();
    let frame = encode_checkpoint(epoch, ck);
    assert_eq!(
        (epoch, frame.len(), crc32(&frame)),
        EPOCH,
        "epoch frame moved"
    );
}

/// Every strict prefix of every peer blob fails loudly — exhaustively, on
/// the pinned case under the mode with the richest wire format.
#[test]
fn every_truncation_fails_loudly() {
    let case = ChurnCase::pinned_cascade_race();
    let strategy = Strategy::relative_lazy();
    let runner = boundary_runner(&case, strategy);
    let plan = reachable_plan();
    let partitioner = runner.config().partitioner;
    let peers = runner.peer_count();
    for p in 0..peers {
        let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
        for cut in 0..blob.len() {
            assert!(
                EnginePeer::restore(PeerId(p), &plan, strategy, partitioner, &blob[..cut],)
                    .is_err(),
                "peer {p}: prefix of {cut}/{} bytes decoded",
                blob.len()
            );
        }
        // Trailing garbage is rejected too, not silently ignored.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(
            EnginePeer::restore(PeerId(p), &plan, strategy, partitioner, &padded).is_err(),
            "peer {p}: trailing byte accepted"
        );
    }
}

/// A dead variable of 2^32 (a 5-byte varint) in an otherwise valid blob is
/// rejected, not truncated to variable 0.
#[test]
fn dead_variable_beyond_32_bits_is_rejected() {
    let strategy = Strategy::absorption_lazy();
    let partitioner = RunnerConfig::new(strategy, 1).partitioner;
    let plan = reachable_plan();
    let fresh = EnginePeer::new(PeerId(0), &plan, strategy, partitioner);
    let blob = fresh.checkpoint();
    // Allocator mark 0, then an empty dead-variable list.
    assert_eq!(blob[..2], [0, 0]);
    let with_dead = |var: &[u8]| {
        let bytes = [&[0, 1], var, &blob[2..]].concat();
        EnginePeer::restore(PeerId(0), &plan, strategy, partitioner, &bytes)
            .map(|peer| peer.checkpoint() == bytes)
    };
    assert_eq!(with_dead(&[7]), Ok(true), "an in-range variable restores");
    assert!(matches!(
        with_dead(&[0x80, 0x80, 0x80, 0x80, 0x10]),
        Err(netrec_types::wire::WireError::Corrupt(_))
    ));
}

fn peer_blobs(runner: &Runner) -> Vec<Vec<u8>> {
    (0..runner.peer_count())
        .map(|p| runner.with_peer(PeerId(p), |peer| peer.checkpoint()))
        .collect()
}

/// The regions plan declares `sensor`, `near` and `mainSensorInRegion`
/// static, so under absorption those ingresses checkpoint a tuple set in
/// place of a variable table. Restored at a post-churn boundary, every
/// peer re-encodes to the same bytes, a duplicate static insert changes no
/// peer's state, and churn continues to oracle-equal views.
#[test]
fn regions_restore_at_a_post_churn_boundary() {
    let grid = SensorGrid::generate(
        SensorGridParams {
            sensors: 25,
            seeds: 2,
            ..Default::default()
        },
        7,
    );
    let strategy = Strategy::absorption_lazy();
    let cfg = RunnerConfig::new(strategy, 4).with_runtime(RuntimeKind::des());
    let mut sys = System::regions(cfg);
    for ops in [grid.sensor_ops(), grid.near_ops(), grid.seed_ops()] {
        sys.apply(&ops);
    }
    sys.apply(&grid.trigger_ops(0.8, 7));
    assert!(sys.run("load").converged());
    sys.apply(&grid.untrigger_ops(0.8, 0.5, 7));
    assert!(sys.run("untrigger").converged());
    let views = ["activeRegion", "regionSizes", "largestRegions"];
    let agrees = |sys: &System, phase: &str| {
        for view in views {
            assert_eq!(sys.view(view), sys.oracle_view(view), "{phase}: {view}");
        }
    };
    agrees(&sys, "untrigger");

    let runner = sys.runner();
    runner.enable_checkpointing(1);
    let blobs = peer_blobs(runner);
    let partitioner = runner.config().partitioner;
    for (p, blob) in blobs.iter().enumerate() {
        let restored =
            EnginePeer::restore(PeerId(p as u32), runner.plan(), strategy, partitioner, blob)
                .unwrap_or_else(|e| panic!("peer {p} restore failed: {e}"));
        assert_eq!(&restored.checkpoint(), blob, "peer {p}: not canonical");
    }
    runner
        .recover()
        .expect("the post-churn checkpoint restores");
    assert_eq!(peer_blobs(runner), blobs, "recovery moved peer state");
    let near = grid.near_ops().ops[0].tuple.clone();
    let seed = grid.trigger_ops(0.8, 7).ops[0].tuple.clone();
    assert_eq!(runner.base_var("near", &near), None, "a static tuple");
    assert!(runner.base_var("isTriggered", &seed).is_some());

    sys.inject("near", near, netrec_types::UpdateKind::Insert, None);
    let duplicate = sys.run("duplicate static insert");
    assert!(duplicate.converged());
    assert_eq!(duplicate.msgs, 0, "a duplicate static insert shipped");
    assert_eq!(peer_blobs(sys.runner()), blobs, "a duplicate moved state");

    sys.apply(&grid.trigger_ops(0.8, 7));
    assert!(sys.run("retrigger").converged());
    agrees(&sys, "retrigger");
    sys.apply(&grid.untrigger_ops(0.8, 1.0, 7));
    assert!(sys.run("untrigger all").converged());
    agrees(&sys, "untrigger all");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases_from_env(), ..ProptestConfig::default() })]

    /// Generated churn states round-trip canonically in every strategy.
    #[test]
    fn generated_states_roundtrip_canonically(
        nodes in 4u32..7,
        extra in 0u32..4,
        peers in 2u32..5,
        topo_seed in any::<u64>(),
        script_seed in any::<u64>(),
        del_pick in 0usize..3,
    ) {
        let case = ChurnCase { nodes, extra, peers, topo_seed, script_seed, del_pick };
        for strategy in strategies() {
            let runner = boundary_runner(&case, strategy);
            assert_roundtrip_idempotent(&runner, strategy, &strategy.label());
        }
    }

    /// Arbitrary single-byte corruption never panics and never
    /// half-applies: restore returns a fresh fully-built peer or an error —
    /// nothing in between — for every flip position and pattern.
    #[test]
    fn corruption_fails_loudly_or_decodes_fully(
        topo_seed in any::<u64>(),
        script_seed in any::<u64>(),
        flip_pos in any::<u64>(),
        flip_raw in any::<u64>(),
    ) {
        let flip_bits = (flip_raw % 255 + 1) as u8;
        let case = ChurnCase {
            nodes: 5, extra: 2, peers: 3, topo_seed, script_seed, del_pick: 0,
        };
        let strategy = Strategy::relative_lazy();
        let runner = boundary_runner(&case, strategy);
        let plan = reachable_plan();
        let partitioner = runner.config().partitioner;
        let peers = runner.peer_count();
        for p in 0..peers {
            let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
            let mut bad = blob.clone();
            let pos = (flip_pos % bad.len() as u64) as usize;
            bad[pos] ^= flip_bits;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                EnginePeer::restore(
                    PeerId(p),
                    &plan,
                    strategy,
                    partitioner,
                    &bad,
                )
            }));
            prop_assert!(
                outcome.is_ok(),
                "peer {}: flipping byte {} with {:#x} panicked",
                p, pos, flip_bits
            );
            // Either rejected loudly, or a complete valid peer whose state
            // re-encodes deterministically; the corruption may or may not
            // be semantically detectable, but it can never half-apply.
            if let Ok(Ok(peer)) = outcome {
                let reencoded = peer.checkpoint();
                prop_assert!(!reencoded.is_empty(), "restored peer must be fully built");
            }
        }
    }
}
