//! # netrec-testutil — the substrate differential harness
//!
//! The engine's correctness claim is that its operators are *distributable*:
//! any execution substrate implementing the [`Runtime`](trait@netrec_sim::Runtime)
//! session contract
//! must compute the same fixpoints — and, on traffic-confluent workloads,
//! ship byte-identical traffic — as the deterministic discrete-event
//! reference. This crate is the reusable harness for that claim, so every
//! present and future substrate (async, sharded, TCP) gets the differential
//! proof for free:
//!
//! ```ignore
//! let w = DiffWorkload::new(reachable_plan, RunnerConfig::direct(strategy, 9))
//!     .views(["reachable"])
//!     .phase(DiffPhase::strict("seed", links))
//!     .phase(DiffPhase::strict("link-1-2", more_links));
//! assert_substrates_agree(&w, &[RuntimeKind::des(), RuntimeKind::asynchronous(),
//!                               RuntimeKind::sharded_async(2)]);
//! ```
//!
//! The first [`RuntimeKind`] in the list is the reference (conventionally
//! the DES); every other substrate is held to it phase by phase:
//!
//! * **always** — the phase converges, and the cross-peer union of every
//!   registered view relation is identical;
//! * **with [`DiffPhase::strict`]** — additionally, the *per-peer*
//!   msgs/bytes/tuples/prov_bytes matrices are identical — and so are the
//!   physical **envelope** matrices (`envelopes`/`envelope_bytes`): the
//!   transport coalescer's flush rule is modelled once, so even the framed
//!   batching must reproduce exactly across substrates — and so are the
//!   per-phase `RunReport` deltas (guarding the quiescent-boundary
//!   baselines). Strict phases require a workload whose traffic is
//!   confluent — batch composition independent of event scheduling (see
//!   `crates/engine/tests/runtime_differential.rs` for the construction);
//!   deletion cascades and TTL expiry are generally *not* traffic-confluent,
//!   so churn phases use [`DiffPhase::relaxed`] and still pin the fixpoint.
//!
//! For substrate-specific invariants (e.g. the sharded runtime's
//! cross-shard fence), run the workload by hand with
//! [`run_workload_on`]-style drivers and match on `Runner::runtime` for the
//! concrete substrate.
//!
//! DESIGN.md: "Runtimes", subsection "Adding a substrate — and getting the
//! differential harness for free".

use std::collections::{BTreeMap, BTreeSet};

use netrec_engine::plan::Plan;
use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_sim::{NetMetrics, RuntimeKind};
use netrec_topo::BaseOp;
use netrec_types::Tuple;

pub mod fixtures {
    //! Shared plan fixtures for substrate differential tests.

    use netrec_engine::expr::Expr;
    use netrec_engine::plan::{Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
    use netrec_types::{NetAddr, Tuple, Value};

    /// A directed `link(src, dst, cost)` tuple with unit cost.
    pub fn link(a: u32, b: u32) -> Tuple {
        Tuple::new(vec![
            Value::Addr(NetAddr(a)),
            Value::Addr(NetAddr(b)),
            Value::Int(1),
        ])
    }

    /// The paper's Fig. 4 reachability plan (same shape as netrec-core's):
    /// `reachable(s,d) :- link(s,d,_)` ∪ `reachable(s,d) :- link(s,x,_),
    /// reachable(x,d)`, with an exchange on the join key and MinShip in
    /// front of the store.
    pub fn reachable_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst", "cost"], 0);
        let reach = b.idb("reachable", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let base_map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
        let store = b.store(reach, true, None);
        let join = b.join(vec![1], vec![0], vec![], vec![Expr::col(0), Expr::col(4)]);
        let ex = b.exchange(Some(1));
        b.connect(ex, join, JOIN_BUILD);
        let ship = b.minship(Some(0));
        b.connect(ship, store, 0);
        b.connect(ing, base_map, 0);
        b.connect(base_map, store, 0);
        b.connect(ing, ex, 0);
        b.connect(join, ship, 0);
        b.connect(store, join, JOIN_PROBE);
        b.build().expect("reachable plan is well-formed")
    }

    /// Non-recursive self-join over the same `link` relation:
    /// `twohop(x,z) :- link(x,y), link(y,z)` — the plan the counting
    /// strategy (which refuses recursive plans) is exercised on.
    pub fn twohop_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst", "cost"], 0);
        let twohop = b.idb("twohop", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let store = b.store(twohop, true, None);
        // row = link(x,y,c) ++ link(y,z,c2); emit (x, z).
        let join = b.join(vec![1], vec![0], vec![], vec![Expr::col(0), Expr::col(4)]);
        let ex_build = b.exchange(Some(1));
        b.connect(ex_build, join, JOIN_BUILD);
        let ex_probe = b.exchange(Some(0));
        b.connect(ex_probe, join, JOIN_PROBE);
        let ship = b.minship(Some(0));
        b.connect(ship, store, 0);
        b.connect(ing, ex_build, 0);
        b.connect(ing, ex_probe, 0);
        b.connect(join, ship, 0);
        b.build().expect("twohop plan is well-formed")
    }
}

pub mod churn {
    //! The canonical random-churn scenario: a connected random graph, a
    //! full shuffled insert pass ("load"), then a shuffled deletion pass
    //! ("churn").
    //!
    //! Exactly one function derives the scripts from a case's raw seeds, and
    //! both the proptest differential generator *and* pinned repro cases go
    //! through it — a pinned case records generator inputs, never derived
    //! values, so it cannot silently drift from what the generator would
    //! produce (the `del_ratio = 0.25 // del_pick = 0` hand-transcription
    //! this module replaces was exactly that drift waiting to happen).

    use netrec_engine::runner::RunnerConfig;
    use netrec_engine::strategy::Strategy;
    use netrec_topo::{random_graph, BaseOp, Workload};

    use crate::fixtures::reachable_plan;
    use crate::{DiffPhase, DiffWorkload};

    /// The deletion fractions the generator's `del_pick` indexes into.
    pub const DEL_RATIOS: [f64; 3] = [0.25, 0.5, 1.0];

    /// One generated churn case, identified by the generator's raw inputs.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ChurnCase {
        /// Graph nodes.
        pub nodes: u32,
        /// Extra links beyond the spanning tree (`nodes - 1 + extra` total).
        pub extra: u32,
        /// Peers the plan is partitioned over.
        pub peers: u32,
        /// Seed of the random connected graph.
        pub topo_seed: u64,
        /// Seed of the insert/delete shuffles.
        pub script_seed: u64,
        /// Index into [`DEL_RATIOS`].
        pub del_pick: usize,
    }

    impl ChurnCase {
        /// The deletion fraction `del_pick` denotes.
        pub fn del_ratio(&self) -> f64 {
            DEL_RATIOS[self.del_pick]
        }

        /// Derive the load and churn scripts — the one place this recipe
        /// exists.
        pub fn scripts(&self) -> (Vec<BaseOp>, Vec<BaseOp>) {
            let topo = random_graph(
                self.nodes as usize,
                (self.nodes - 1 + self.extra) as usize,
                self.topo_seed,
            );
            let load = Workload::insert_links(&topo, 1.0, self.script_seed);
            let dels = Workload::delete_links(&topo, self.del_ratio(), self.script_seed ^ 0x5eed);
            (load.ops, dels.ops)
        }

        /// The reachability [`DiffWorkload`] over this case for `strategy`:
        /// a relaxed "load" phase, plus a relaxed "churn" phase unless the
        /// strategy cannot maintain deletions (set mode without the DRed
        /// driver is insert-only under this harness).
        pub fn workload(&self, strategy: Strategy) -> DiffWorkload {
            let (load, dels) = self.scripts();
            let mut w = DiffWorkload::new(reachable_plan, RunnerConfig::new(strategy, self.peers))
                .views(["reachable"])
                .phase(DiffPhase::relaxed("load", load));
            if strategy.mode != netrec_prov::ProvMode::Set {
                w = w.phase(DiffPhase::relaxed("churn", dels));
            }
            w
        }

        /// The pinned churn-cascade race case: `PROPTEST_SHIM_SEED=2`, case
        /// 11 of `NETREC_DIFF_CASES=24` (captured 2026-08-08), which made a
        /// concurrent substrate retain a stale `(n4, n2)` tuple after the
        /// deletion cascade (DESIGN.md "Churn-cascade race: postmortem").
        pub fn pinned_cascade_race() -> ChurnCase {
            ChurnCase {
                nodes: 5,
                extra: 2,
                peers: 4,
                topo_seed: 3384786848501768427,
                script_seed: 4639958491858334529,
                del_pick: 0,
            }
        }

        /// The pinned **false-annotation resurrection** race case (captured
        /// 2026-08-08 while validating the ship-ledger fix): under full link
        /// deletion (`del_pick: 2`) a join's `Changed` delta annihilated
        /// against the probe side to a constant-`false` annotation, shipped
        /// as an insert, and re-keyed an already-retracted tuple into a
        /// concurrent substrate's view (DESIGN.md churn postmortem, hole 3).
        /// Reproduced ~1/40 runs on the concurrent substrates pre-fix; never
        /// on the DES, even across 3000 fault seeds.
        pub fn pinned_false_annotation_race() -> ChurnCase {
            ChurnCase {
                nodes: 4,
                extra: 3,
                peers: 2,
                topo_seed: 15863385262584211885,
                script_seed: 9835140471105765680,
                del_pick: 2,
            }
        }
    }
}

/// One phase of a differential workload: inject `ops`, run to quiescence,
/// compare at the boundary.
#[derive(Clone, Debug)]
pub struct DiffPhase {
    /// Phase label (shows up in every assertion message).
    pub label: String,
    /// Base-relation operations injected at the phase start.
    pub ops: Vec<BaseOp>,
    /// Whether per-peer traffic matrices must match exactly at this phase
    /// boundary (requires traffic confluence); views are always compared.
    pub strict_traffic: bool,
}

impl DiffPhase {
    /// A phase whose traffic is confluent: views *and* exact per-peer
    /// metrics are compared.
    pub fn strict(label: impl Into<String>, ops: Vec<BaseOp>) -> DiffPhase {
        DiffPhase {
            label: label.into(),
            ops,
            strict_traffic: true,
        }
    }

    /// A phase whose traffic is scheduling-dependent (deletion cascades,
    /// TTL expiry): only the fixpoint views are compared.
    pub fn relaxed(label: impl Into<String>, ops: Vec<BaseOp>) -> DiffPhase {
        DiffPhase {
            label: label.into(),
            ops,
            strict_traffic: false,
        }
    }
}

/// A multi-phase workload every substrate must agree on.
pub struct DiffWorkload {
    /// Builds a fresh plan for each run (runners consume their plan).
    plan: Box<dyn Fn() -> Plan>,
    /// Base configuration; the harness swaps `runtime` per substrate.
    config: RunnerConfig,
    /// View relations whose cross-peer contents are compared.
    views: Vec<String>,
    /// The phases, in order.
    phases: Vec<DiffPhase>,
}

impl DiffWorkload {
    /// A workload over `plan` with `config`'s strategy/partitioning (the
    /// `runtime` field is overridden per substrate).
    pub fn new(plan: impl Fn() -> Plan + 'static, config: RunnerConfig) -> DiffWorkload {
        DiffWorkload {
            plan: Box::new(plan),
            config,
            views: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Register view relations to compare (builder style).
    pub fn views<S: Into<String>>(mut self, views: impl IntoIterator<Item = S>) -> DiffWorkload {
        self.views.extend(views.into_iter().map(Into::into));
        self
    }

    /// Append a phase (builder style).
    pub fn phase(mut self, phase: DiffPhase) -> DiffWorkload {
        self.phases.push(phase);
        self
    }

    /// The phases.
    pub fn phases_ref(&self) -> &[DiffPhase] {
        &self.phases
    }

    /// The base runner configuration (the harness swaps `runtime` per
    /// substrate; hand-written drivers start from it).
    pub fn config_ref(&self) -> &RunnerConfig {
        &self.config
    }
}

/// What the harness observed at one quiescent phase boundary.
pub struct PhaseObs {
    /// Phase label.
    pub label: String,
    /// Whether the phase reached quiescence within budget.
    pub converged: bool,
    /// Cross-peer union of every registered view, keyed by relation name.
    pub views: BTreeMap<String, BTreeSet<Tuple>>,
    /// Cumulative traffic metrics at the boundary.
    pub metrics: NetMetrics,
    /// Cumulative events processed at the boundary (folded across
    /// recoveries, like the metrics).
    pub events: u64,
    /// This phase's message delta as reported by `run_phase`.
    pub phase_msgs: u64,
    /// This phase's byte delta as reported by `run_phase`.
    pub phase_bytes: u64,
}

/// Run the workload on one substrate, observing every phase boundary.
pub fn run_workload_on(w: &DiffWorkload, kind: &RuntimeKind) -> Vec<PhaseObs> {
    let cfg = RunnerConfig {
        runtime: kind.clone(),
        ..w.config.clone()
    };
    drive_phases(w, Runner::new((w.plan)(), cfg))
}

fn drive_phases(w: &DiffWorkload, mut runner: Runner) -> Vec<PhaseObs> {
    w.phases
        .iter()
        .map(|phase| {
            for op in &phase.ops {
                runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
            }
            let rep = runner.run_phase(phase.label.clone());
            PhaseObs {
                label: phase.label.clone(),
                converged: rep.converged(),
                views: w
                    .views
                    .iter()
                    .map(|v| (v.clone(), runner.view(v)))
                    .collect(),
                metrics: runner.metrics(),
                events: runner.events_processed(),
                phase_msgs: rep.msgs,
                phase_bytes: rep.bytes,
            }
        })
        .collect()
}

/// Run the workload on one substrate with epoch-barrier checkpointing
/// enabled (one checkpoint every `interval` converged boundaries) and
/// crash-recovery: whenever a phase ends in `RunOutcome::Crashed`, the
/// runner restores the latest epoch checkpoint, re-injects the replay-ledger
/// delta, and re-runs the phase. Returns the per-phase observations (all
/// converged — a budget-exceeded phase panics) and the number of crashes
/// recovered from.
///
/// Observations fold metrics/events across recoveries, so they are directly
/// comparable to a fault-free [`run_workload_on`] of the same workload.
pub fn run_workload_recovering(
    w: &DiffWorkload,
    kind: &RuntimeKind,
    interval: u64,
) -> (Vec<PhaseObs>, u32) {
    let cfg = RunnerConfig {
        runtime: kind.clone(),
        ..w.config.clone()
    };
    let mut runner = Runner::new((w.plan)(), cfg);
    runner.enable_checkpointing(interval);
    let mut crashes = 0u32;
    let obs = w
        .phases
        .iter()
        .map(|phase| {
            for op in &phase.ops {
                runner.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
            }
            let rep = loop {
                let rep = runner.run_phase(phase.label.clone());
                if rep.converged() {
                    break rep;
                }
                assert!(
                    rep.outcome.crashed(),
                    "phase {} neither converged nor crashed: {:?}",
                    phase.label,
                    rep.outcome
                );
                crashes += 1;
                runner
                    .recover()
                    .unwrap_or_else(|e| panic!("recovery after phase {}: {e}", phase.label));
            };
            PhaseObs {
                label: phase.label.clone(),
                converged: true,
                views: w
                    .views
                    .iter()
                    .map(|v| (v.clone(), runner.view(v)))
                    .collect(),
                metrics: runner.metrics(),
                events: runner.events_processed(),
                phase_msgs: rep.msgs,
                phase_bytes: rep.bytes,
            }
        })
        .collect();
    (obs, crashes)
}

/// Assert that every substrate in `kinds` agrees with the first one
/// (the reference) on `w`, phase by phase: converged outcomes and identical
/// views everywhere; identical per-peer traffic matrices and per-phase
/// report deltas at [`DiffPhase::strict`] boundaries.
///
/// Returns the reference observations so callers can add workload-specific
/// assertions (final fixpoint shape, non-trivial traffic, ...).
pub fn assert_substrates_agree(w: &DiffWorkload, kinds: &[RuntimeKind]) -> Vec<PhaseObs> {
    assert!(!kinds.is_empty(), "need at least a reference substrate");
    let reference = run_workload_on(w, &kinds[0]);
    let ref_name = kinds[0].label();
    for obs in &reference {
        assert!(
            obs.converged,
            "[{ref_name}] reference phase {} did not converge",
            obs.label
        );
    }
    for kind in &kinds[1..] {
        let name = kind.label();
        let got = run_workload_on(w, kind);
        assert_eq!(got.len(), reference.len());
        for ((want, have), spec) in reference.iter().zip(&got).zip(&w.phases) {
            let phase = &want.label;
            assert!(
                have.converged,
                "[{ref_name} vs {name}] phase {phase} did not converge on {name}"
            );
            // Transport invariant on every substrate and every phase: an
            // envelope carries at least one logical message.
            assert!(
                have.metrics.total_envelopes() <= have.metrics.total_msgs(),
                "[{name}] envelopes ({}) exceed logical msgs ({}) after phase {phase}",
                have.metrics.total_envelopes(),
                have.metrics.total_msgs()
            );
            assert_eq!(
                want.views, have.views,
                "[{ref_name} vs {name}] view contents diverge after phase {phase}"
            );
            // Index-aligned with the observations, so duplicate phase
            // labels cannot leak one phase's strictness onto another.
            if !spec.strict_traffic {
                continue;
            }
            assert_eq!(
                want.metrics.total_msgs(),
                have.metrics.total_msgs(),
                "[{ref_name} vs {name}] msgs diverge after phase {phase}"
            );
            assert_eq!(
                want.metrics.total_bytes(),
                have.metrics.total_bytes(),
                "[{ref_name} vs {name}] bytes diverge after phase {phase}"
            );
            assert_eq!(
                want.metrics.total_tuples(),
                have.metrics.total_tuples(),
                "[{ref_name} vs {name}] tuples diverge after phase {phase}"
            );
            assert_eq!(
                want.metrics.total_prov_bytes(),
                have.metrics.total_prov_bytes(),
                "[{ref_name} vs {name}] prov_bytes diverge after phase {phase}"
            );
            // The physical layer is pinned too: the coalescer's flush rule
            // is a pure function of peer logic, so envelope counts and
            // framed bytes must match the reference exactly, not just the
            // logical counters.
            assert_eq!(
                want.metrics.total_envelopes(),
                have.metrics.total_envelopes(),
                "[{ref_name} vs {name}] envelope counts diverge after phase {phase}"
            );
            assert_eq!(
                want.metrics.total_envelope_bytes(),
                have.metrics.total_envelope_bytes(),
                "[{ref_name} vs {name}] envelope bytes diverge after phase {phase}"
            );
            // Stronger than the totals: the full per-peer traffic matrix
            // (logical and envelope counters alike).
            assert_eq!(
                want.metrics, have.metrics,
                "[{ref_name} vs {name}] per-peer metrics diverge after phase {phase}"
            );
            // Per-phase RunReport deltas must be exact too, not just the
            // cumulative counters (guards the quiescent-boundary baselines).
            assert_eq!(
                (want.phase_msgs, want.phase_bytes),
                (have.phase_msgs, have.phase_bytes),
                "[{ref_name} vs {name}] per-phase report deltas diverge in phase {phase}"
            );
        }
    }
    reference
}
