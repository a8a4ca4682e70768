//! Substrate differential test: the same multi-phase reachability workload
//! must produce **identical final store contents and identical per-peer
//! msgs/bytes/tuples/prov_bytes metrics** on every execution substrate —
//! the deterministic DES reference and the concurrent runtime on one shard
//! ("async"), 2 hash-assigned and 4 contiguous shards — in every
//! maintenance strategy.
//! The comparison machinery lives in `netrec-testutil`
//! (`assert_substrates_agree`), so future substrates get this gate by
//! adding one `RuntimeKind` to the list.
//!
//! Thread scheduling is nondeterministic, so the workload is constructed to
//! be *confluent in its traffic*, not just its fixpoint: links are injected
//! so that within any one phase every join emission is either a singleton or
//! a batch against operator state frozen by the previous phase's quiescence
//! barrier. Concretely: the seed phase loads disjoint links (no matches
//! fire), and each later phase adds exactly one link to the acyclic graph —
//! the new build tuple then lands on a peer whose probe partition cannot
//! change within the same phase, so batch composition (and therefore message
//! counts, framing bytes, and annotation bytes) is schedule-independent.
//! Every derived tuple also has a unique derivation, making its provenance
//! annotation — and its wire size — deterministic.
//!
//! This is the acceptance gate for the concurrent runtime: the executor's
//! one routing point, global in-flight accounting, and shard-metrics folding via
//! `NetMetrics::merge` must reproduce the DES numbers exactly. (Counting
//! mode is excluded: it is defined for non-recursive plans only.)
//!
//! It is also the gate for **transport batching** (`netrec_sim::coalesce`):
//! the harness pins the physical envelope matrices
//! (`envelopes`/`envelope_bytes`) byte-identical across substrates — the
//! flush rule is modelled once — and `assert_identical` additionally runs
//! the matrix with coalescing *off* (plus a coalescing-off DES), pinning
//! the logical per-peer metrics byte-identical across the two modes. That cross-mode comparison is only
//! sound on this confluent workload; the randomized proptest checks the
//! weaker mode-independent-fixpoint property instead.

use std::collections::BTreeSet;

use netrec_engine::runner::RunnerConfig;
use netrec_engine::strategy::Strategy;
use netrec_sim::{DesConfig, RuntimeKind, ShardAssignment, ShardedConfig};
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_testutil::{assert_substrates_agree, run_workload_on, DiffPhase, DiffWorkload};
use netrec_topo::BaseOp;
use netrec_types::{Duration, NetAddr, Tuple, Value};

const PEERS: u32 = 9;

/// Disjoint seed links, then one link per phase, growing three 2-chains and
/// finally splicing them into the single chain 0→1→…→8.
fn chain_workload(strategy: Strategy) -> DiffWorkload {
    let phases: Vec<(&str, Vec<(u32, u32)>)> = vec![
        ("seed", vec![(0, 1), (3, 4), (6, 7)]),
        ("link-1-2", vec![(1, 2)]),
        ("link-4-5", vec![(4, 5)]),
        ("link-7-8", vec![(7, 8)]),
        ("link-2-3", vec![(2, 3)]),
        ("link-5-6", vec![(5, 6)]),
    ];
    let mut w = DiffWorkload::new(reachable_plan, RunnerConfig::direct(strategy, PEERS))
        .views(["reachable"]);
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

/// Every substrate in the matrix: DES reference, one shard ("async"),
/// and 2 hash-assigned and 4 contiguous shards.
fn substrates() -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::des(),
        RuntimeKind::asynchronous(),
        RuntimeKind::sharded_async(2),
        RuntimeKind::Sharded(
            ShardedConfig::with_shards(4).with_assignment(ShardAssignment::Contiguous),
        ),
    ]
}

/// A reduced coalescing-off matrix: the one-shard runtime is the reference
/// (the DES's off-mode is compared separately, against the on-mode DES).
fn substrates_coalescing_off() -> Vec<RuntimeKind> {
    vec![
        RuntimeKind::Sharded(ShardedConfig::with_shards(1).with_coalescing(false)),
        RuntimeKind::Sharded(ShardedConfig::with_shards(2).with_coalescing(false)),
    ]
}

fn assert_identical(strategy: Strategy) {
    let w = chain_workload(strategy);
    let obs = assert_substrates_agree(&w, &substrates());
    // Sanity on the reference run: the spliced chain reaches every (i, j)
    // pair with i < j, and the workload actually ships traffic.
    let want: BTreeSet<Tuple> = (0..PEERS)
        .flat_map(|i| {
            ((i + 1)..PEERS)
                .map(move |j| Tuple::new(vec![Value::Addr(NetAddr(i)), Value::Addr(NetAddr(j))]))
        })
        .collect();
    let last = obs.last().unwrap();
    assert_eq!(last.views["reachable"], want, "final fixpoint");
    assert!(
        last.metrics.total_msgs() > 0,
        "workload must actually ship traffic"
    );

    // The coalescing on/off gate, sound here because the workload's traffic
    // is confluent: with coalescing disabled everywhere, the *logical*
    // per-peer metrics must be byte-identical to the coalescing-on
    // reference — the coalescer merges envelopes, it never changes what the
    // engine ships — and every message degenerates to its own envelope.
    let des_off = run_workload_on(
        &w,
        &RuntimeKind::Des(DesConfig {
            coalesce: false,
            fault: None,
        }),
    );
    let obs_off = assert_substrates_agree(&w, &substrates_coalescing_off());
    for ((on, des), conc) in obs.iter().zip(&des_off).zip(&obs_off) {
        let phase = &on.label;
        assert!(des.converged, "[des-off] phase {phase} did not converge");
        assert_eq!(on.views, des.views, "views diverge des-on/off in {phase}");
        for (name, off) in [("des-off", des), ("async-off", conc)] {
            assert_eq!(
                on.metrics.logical(),
                off.metrics.logical(),
                "[{name}] logical per-peer metrics diverge from the \
                 coalescing-on reference after phase {phase}"
            );
            assert_eq!(
                off.metrics.total_envelopes(),
                off.metrics.total_msgs(),
                "[{name}] coalescing off: one envelope per message ({phase})"
            );
        }
    }
}

#[test]
fn differential_set_immediate() {
    assert_identical(Strategy::set());
}

#[test]
fn differential_absorption_lazy() {
    assert_identical(Strategy::absorption_lazy());
}

#[test]
fn differential_absorption_eager() {
    assert_identical(Strategy::absorption_eager());
}

#[test]
fn differential_relative_lazy() {
    assert_identical(Strategy::relative_lazy());
}

#[test]
fn differential_relative_eager() {
    assert_identical(Strategy::relative_eager());
}

/// Soft-state TTLs exercise the timer fence: a phase may not end while an
/// expiry timer is armed, so the view observed at the phase boundary must
/// already exclude everything derived from the expired link — on every
/// substrate, including across shard boundaries. (Deletion-cascade traffic
/// is scheduling-dependent, so this phase is relaxed: views, not bytes.)
#[test]
fn ttl_expiry_is_fenced_inside_the_phase() {
    let w = DiffWorkload::new(
        reachable_plan,
        RunnerConfig::direct(Strategy::absorption_lazy(), 4),
    )
    .views(["reachable"])
    .phase(DiffPhase::relaxed(
        "load+expiry",
        vec![
            BaseOp::insert("link", link(0, 1)),
            BaseOp::insert("link", link(1, 2)),
            BaseOp::insert("link", link(2, 3)).with_ttl(Duration::from_millis(40)),
        ],
    ));
    let obs = assert_substrates_agree(
        &w,
        &[
            RuntimeKind::des(),
            RuntimeKind::asynchronous(),
            RuntimeKind::sharded_async(2),
        ],
    );
    // The TTL'd link and everything derived through it is gone.
    let want: BTreeSet<Tuple> = [(0u32, 1u32), (0, 2), (1, 2)]
        .into_iter()
        .map(|(a, b)| Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Addr(NetAddr(b))]))
        .collect();
    assert_eq!(
        obs.last().unwrap().views["reachable"],
        want,
        "expired link must not survive the phase"
    );
}
