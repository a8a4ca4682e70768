//! Checkpoint codec round-trip and corruption properties.
//!
//! The peer checkpoint blob is *canonical*: every section is emitted in
//! sorted order and every annotation encoding is structural (BDDs and
//! relative graphs serialize manager-independently). Losslessness is
//! therefore testable as idempotence — decode a blob into a fresh peer and
//! re-encode it, and the bytes must be identical. The runner-level
//! crash-recovery suite proves the *behavioral* half (a restored peer
//! continues byte-identically); this file proves the codec half on
//! proptest-generated states across all four provenance modes, plus the
//! fail-loudly half: truncated or structurally corrupted blobs error out
//! and never half-apply (restore builds into a fresh peer that is dropped
//! wholesale on error — there is no partially-restored state by
//! construction).

use std::sync::Arc;

use netrec_engine::peer::EnginePeer;
use netrec_engine::plan::Plan;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_prov::ProvMode;
use netrec_sim::{PeerId, RuntimeKind};
use netrec_testutil::churn::ChurnCase;
use netrec_testutil::fixtures::{link as fixtures_link, reachable_plan, twohop_plan};
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
        Strategy::counting(),
        Strategy::absorption_lazy(),
        Strategy::absorption_eager(),
        Strategy::relative_lazy(),
        Strategy::relative_eager(),
    ]
}

/// The plan a strategy is exercised on: counting refuses recursive plans
/// (derivation counts grow without bound around a cycle), so its table/count
/// codec paths run on the non-recursive two-hop self-join.
fn plan_for(strategy: Strategy) -> Plan {
    if strategy.mode == ProvMode::Counting {
        twohop_plan()
    } else {
        reachable_plan()
    }
}

/// Drive the churn case to a converged boundary (load, plus the deletion
/// pass when the strategy maintains deletions) and return the runner.
/// Counting loads a forward chain instead.
fn boundary_runner(case: &ChurnCase, strategy: Strategy) -> Runner {
    let cfg = RunnerConfig::new(strategy, case.peers).with_runtime(RuntimeKind::des());
    let mut runner = Runner::new(plan_for(strategy), cfg);
    if strategy.mode == ProvMode::Counting {
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)] {
            runner.inject(
                "link",
                fixtures_link(a, b),
                netrec_types::UpdateKind::Insert,
                None,
            );
        }
        assert!(runner.run_phase("load").converged());
        return runner;
    }
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
    let plan = Arc::new(plan_for(strategy));
    let partitioner = runner.config().partitioner;
    (0..peers)
        .map(|p| {
            let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
            let restored =
                EnginePeer::restore(PeerId(p), Arc::clone(&plan), strategy, partitioner, &blob)
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

/// Pinned coverage of all six strategies (all four provenance modes) on the
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

/// Every strict prefix of every peer blob fails loudly — exhaustively, on
/// the pinned case under the mode with the richest wire format.
#[test]
fn every_truncation_fails_loudly() {
    let case = ChurnCase::pinned_cascade_race();
    let strategy = Strategy::relative_lazy();
    let runner = boundary_runner(&case, strategy);
    let plan = Arc::new(reachable_plan());
    let partitioner = runner.config().partitioner;
    let peers = runner.peer_count();
    for p in 0..peers {
        let blob = runner.with_peer(PeerId(p), |peer| peer.checkpoint());
        for cut in 0..blob.len() {
            assert!(
                EnginePeer::restore(
                    PeerId(p),
                    Arc::clone(&plan),
                    strategy,
                    partitioner,
                    &blob[..cut],
                )
                .is_err(),
                "peer {p}: prefix of {cut}/{} bytes decoded",
                blob.len()
            );
        }
        // Trailing garbage is rejected too, not silently ignored.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(
            EnginePeer::restore(PeerId(p), Arc::clone(&plan), strategy, partitioner, &padded)
                .is_err(),
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
    let plan = Arc::new(reachable_plan());
    let fresh = EnginePeer::new(PeerId(0), Arc::clone(&plan), strategy, partitioner);
    let blob = fresh.checkpoint();
    // Allocator mark 0, then an empty dead-variable list.
    assert_eq!(blob[..2], [0, 0]);
    let with_dead = |var: &[u8]| {
        let bytes = [&[0, 1], var, &blob[2..]].concat();
        EnginePeer::restore(PeerId(0), Arc::clone(&plan), strategy, partitioner, &bytes)
            .map(|peer| peer.checkpoint() == bytes)
    };
    assert_eq!(with_dead(&[7]), Ok(true), "an in-range variable restores");
    assert!(matches!(
        with_dead(&[0x80, 0x80, 0x80, 0x80, 0x10]),
        Err(netrec_types::wire::WireError::Corrupt(_))
    ));
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
        let plan = Arc::new(reachable_plan());
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
                    Arc::clone(&plan),
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
