//! `bench-report`: a quick, scriptable perf tracker.
//!
//! Runs a reduced subset of the fig07 (reachable insertion) and fig08
//! (reachable deletion) workloads as wall-clock microbenchmarks and writes
//! `BENCH_<N>.json` at the repo root — a flat `name → ns/op` map, where an
//! "op" is one injected base-relation update carried through to distributed
//! convergence. The file sequence (`BENCH_1.json`, `BENCH_2.json`, ...)
//! tracks the perf trajectory across PRs; CI and reviewers diff the numbers.
//!
//! Three substrate families are tracked: the discrete-event simulator
//! (entries as in `BENCH_1.json`), the async runtime (same
//! workloads re-executed on one executor thread, suffixed `/async`), and
//! the sharded runtime at 2 and 4 async shards (suffixed `/sharded-async2`,
//! `/sharded-async4` — *not* a continuation of the `/sharded2`, `/sharded4`
//! entries up to `BENCH_10.json`, which ran thread-per-peer shards). All
//! report wall-clock ns per injected op; for the DES that is time spent
//! *simulating*, for the concurrent substrates it is time spent actually
//! *executing*.
//!
//! Each entry also reports the transport-batching ratio as
//! `<name>#envelopes_per_op` — physical envelopes shipped per injected op
//! (logical messages per op stay what they always were; see
//! `netrec_sim::coalesce`). `_guardrail/...` string entries carry perf
//! expectations reviewers should re-check when the numbers move.
//!
//! A `fault_injection/` section pins the transport fault seam's cost: an
//! installed-but-inert `FaultPlan` vs no plan at all on the deletion
//! workload (`#inert_overhead_ratio`, guarded at ~1.0 — disabled faults
//! must stay off the hot path), with one seeded plan for context.
//!
//! A `checkpointing/` section pins the epoch-barrier checkpointing
//! subsystem: a checkpoint-interval sweep on the chunked deletion workload
//! (interval 1/2/4 vs disabled — `#overhead_vs_off` prices per-boundary
//! peer encoding, `#ckpt_bytes` sizes an epoch), and a recovery scenario —
//! wall time from a mid-session crash of the 4-shard composite through
//! checkpoint restore, delta replay and reconvergence (`#recovery_ns`).
//! Checkpointing is *disabled* in every other entry, so diffing the fig
//! entries against the previous BENCH file is the pay-for-use gate: the
//! subsystem off must cost nothing.
//!
//! A `read_serving/` section tracks the lock-free serving layer
//! (`netrec-serve`): ns per point lookup through an epoch-published
//! `ViewReader` vs the clone-a-whole-view-per-lookup baseline
//! (`System::view`), plus a service-shaped scenario — four reader threads
//! hammering `connected()` while delete/re-insert churn publishes
//! boundaries — reported as `#reads_per_sec` and `#p99_lookup_ns`.
//!
//! A dedicated `scale1000/` section hosts the paper-scale peer counts only
//! the async runtime reaches on commodity limits: 1000 peers as state
//! machines on one core (entry `.../async1000`, with the DES at the same peer
//! count as the modelled reference — a thread-per-peer runtime would need
//! 1000 OS threads for the same workload).
//!
//! Usage: `cargo run --release -p netrec-bench --bin bench-report [-- out.json]`
//! Env: `BENCH_REPORT_SAMPLES` (default 5) — timed repetitions per entry
//! (median reported); `BENCH_REPORT_ONLY` — substring filter, only entries
//! whose name contains it run (quick A/B loops on one entry family).

use std::collections::BTreeMap;
use std::time::Instant;

use netrec_core::{FaultPlan, RunBudget, RuntimeKind, System, SystemConfig};
use netrec_engine::{ServeSpec, Strategy};
use netrec_topo::{transit_stub, BaseOp, TransitStubParams, Workload};
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

fn budget() -> RunBudget {
    RunBudget::sim_seconds(300).with_wall(std::time::Duration::from_secs(60))
}

/// Median wall nanoseconds per workload op across samples of `f`.
fn measure(samples: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_10.json".to_string());
    let samples: usize = std::env::var("BENCH_REPORT_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let only = std::env::var("BENCH_REPORT_ONLY").ok();
    let wanted = |name: &str| only.as_deref().is_none_or(|f| name.contains(f));
    // Fail on an unwritable destination *before* spending minutes measuring.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("bench-report: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    // A reduced fig07/fig08 topology (one transit, two stubs, five routers
    // each — ~11 nodes): small enough that every scheme, including eager
    // flushing with its timer traffic, converges in well under the budget,
    // while keeping the hash-table and provenance hot paths dominant.
    let params = TransitStubParams {
        transits_per_domain: 1,
        stubs_per_transit: 2,
        nodes_per_stub: 5,
        ..Default::default()
    };
    let peers = 4;
    let topo = transit_stub(params, 42);
    let load = Workload::insert_links(&topo, 1.0, 7);
    let dels = Workload::delete_links(&topo, 0.6, 13);

    // Absorption-eager is excluded: its periodic flush timers dominate the
    // simulated run (tens of seconds of wall per sample), which makes the
    // quick tracker too slow without adding signal — the full fig07/fig08
    // harnesses still cover it.
    let schemes: Vec<(&str, Strategy)> = vec![
        ("set", Strategy::set()),
        ("absorption_lazy", Strategy::absorption_lazy()),
        ("relative_lazy", Strategy::relative_lazy()),
    ];

    let mut report: BTreeMap<String, f64> = BTreeMap::new();

    let substrates: Vec<(String, RuntimeKind)> = vec![
        (String::new(), RuntimeKind::des()),
        ("/async".to_string(), RuntimeKind::asynchronous()),
        ("/sharded-async2".to_string(), RuntimeKind::sharded_async(2)),
        ("/sharded-async4".to_string(), RuntimeKind::sharded_async(4)),
    ];

    for (label, strategy) in &schemes {
        for (suffix, runtime) in &substrates {
            // DES entries keep their BENCH_1 names; other substrates get a
            // `/<label>` suffix. Each fig entry carries its own `wanted`
            // guard (no loop `continue`): a fig08-only filter must still
            // reach the fig08 block of the same iteration.
            // fig07-style: full insertion load to convergence.
            let name = format!("fig07/reachable_ins/{label}{suffix}");
            if wanted(&name) {
                let mut load_envelopes = 0u64;
                let ns = measure(samples, load.ops.len(), || {
                    let mut sys = System::reachable(
                        SystemConfig::new(*strategy, peers)
                            .with_budget(budget())
                            .with_runtime(runtime.clone()),
                    );
                    sys.apply(&load);
                    let rep = sys.run("load");
                    assert!(rep.converged(), "{name}: load did not converge");
                    load_envelopes = rep.envelopes;
                });
                println!("{name:<45} {:>12.0} ns/op", ns);
                report.insert(
                    format!("{name}#envelopes_per_op"),
                    load_envelopes as f64 / load.ops.len() as f64,
                );
                report.insert(name, ns);
            }

            // fig08-style: deletion maintenance on the loaded system (set
            // mode excluded: plain set semantics cannot maintain deletions
            // without the DRed driver, which fig08 measures separately).
            let name = format!("fig08/reachable_del/{label}{suffix}");
            if strategy.mode != netrec_prov::ProvMode::Set && wanted(&name) {
                let mut del_envelopes = 0u64;
                let ns = measure(samples, dels.ops.len(), || {
                    let mut sys = System::reachable(
                        SystemConfig::new(*strategy, peers)
                            .with_budget(budget())
                            .with_runtime(runtime.clone()),
                    );
                    sys.apply(&load);
                    assert!(sys.run("load").converged(), "{name}: load did not converge");
                    for op in &dels.ops {
                        sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
                    }
                    let rep = sys.run("delete");
                    assert!(rep.converged(), "{name}: delete did not converge");
                    del_envelopes = rep.envelopes;
                });
                println!("{name:<45} {:>12.0} ns/op", ns);
                report.insert(
                    format!("{name}#envelopes_per_op"),
                    del_envelopes as f64 / dels.ops.len() as f64,
                );
                report.insert(name, ns);
            }
        }
    }

    // --- The 1000-peer scale point -------------------------------------
    //
    // 1000 peers hosted as state machines on ONE executor thread — the
    // scale at which a thread-per-peer substrate would burn 1000 OS
    // threads. The workload is 360 disjoint 3-node chains (1080 routers,
    // 720 directed links): hash partitioning activates essentially every
    // peer, while the per-component closure stays constant, so the numbers
    // measure runtime hosting overhead rather than view size. The DES runs
    // the same 1000-peer workload as the modelled reference.
    let scale_peers = 1000;
    let chains = 360;
    let link = |a: u32, b: u32| {
        BaseOp::insert(
            "link",
            Tuple::new(vec![
                Value::Addr(NetAddr(a)),
                Value::Addr(NetAddr(b)),
                Value::Int(1),
            ]),
        )
    };
    let mut scale_ops: Vec<BaseOp> = Vec::with_capacity(2 * chains as usize);
    for c in 0..chains {
        scale_ops.push(link(3 * c, 3 * c + 1));
        scale_ops.push(link(3 * c + 1, 3 * c + 2));
    }
    for (suffix, runtime) in [
        ("des1000", RuntimeKind::des()),
        ("async1000", RuntimeKind::asynchronous()),
    ] {
        let name = format!("scale1000/reachable_ins/absorption_lazy/{suffix}");
        if !wanted(&name) {
            continue;
        }
        let ns = measure(samples, scale_ops.len(), || {
            let mut sys = System::reachable(
                SystemConfig::new(Strategy::absorption_lazy(), scale_peers)
                    .with_budget(budget())
                    .with_runtime(runtime.clone()),
            );
            for op in &scale_ops {
                sys.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
            }
            assert!(sys.run("load").converged(), "{name}: load did not converge");
            assert_eq!(sys.view("reachable").len(), 3 * chains as usize);
        });
        println!("{name:<45} {:>12.0} ns/op", ns);
        report.insert(name, ns);
    }

    // --- Fault-injection layer overhead --------------------------------
    //
    // The transport fault seam (netrec_sim::fault) sits on the hot delivery
    // path of every substrate; the deal is that a run with no plan (or an
    // inert one) pays only a skipped branch. Pin that: the deletion
    // workload, relative/lazy on the DES, with no plan vs an inert plan
    // (`#inert_overhead_ratio` must hover at 1.0), plus one seeded plan for
    // context on what enabled chaos costs.
    {
        let fault_dels = |name: &str, kind: RuntimeKind| {
            measure(samples, dels.ops.len(), || {
                let mut sys = System::reachable(
                    SystemConfig::new(Strategy::relative_lazy(), peers)
                        .with_budget(budget())
                        .with_runtime(kind.clone()),
                );
                sys.apply(&load);
                assert!(sys.run("load").converged(), "{name}: load did not converge");
                for op in &dels.ops {
                    sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
                }
                assert!(
                    sys.run("delete").converged(),
                    "{name}: delete did not converge"
                );
            })
        };
        let base_name = "fault_injection/reachable_del/relative_lazy/des_no_plan";
        let inert_name = "fault_injection/reachable_del/relative_lazy/des_inert_plan";
        let seeded_name = "fault_injection/reachable_del/relative_lazy/des_seed0";
        if wanted(base_name) && wanted(inert_name) {
            let base = fault_dels(base_name, RuntimeKind::des());
            let inert = fault_dels(inert_name, RuntimeKind::des().with_fault(FaultPlan::none()));
            println!("{base_name:<45} {base:>12.0} ns/op");
            println!("{inert_name:<45} {inert:>12.0} ns/op");
            report.insert(base_name.to_string(), base);
            report.insert(inert_name.to_string(), inert);
            report.insert(format!("{inert_name}#inert_overhead_ratio"), inert / base);
        }
        if wanted(seeded_name) {
            let seeded = fault_dels(
                seeded_name,
                RuntimeKind::des().with_fault(FaultPlan::from_seed(0)),
            );
            println!("{seeded_name:<45} {seeded:>12.0} ns/op");
            report.insert(seeded_name.to_string(), seeded);
        }
    }

    // --- Checkpointing & recovery --------------------------------------
    //
    // Epoch-barrier checkpointing (`Runner::enable_checkpointing`) encodes
    // every peer at converged boundaries. Two dials pinned here on the
    // deletion workload split into four churn boundaries (relative/lazy —
    // the richest wire format), plus the recovery scenario:
    //
    //  * interval sweep — `des_off` runs the chunked workload with the
    //    subsystem disabled; `des_interval{1,2,4}` checkpoint at every /
    //    every 2nd / every 4th boundary. `interval1#overhead_vs_off` is the
    //    full per-boundary encoding cost; `#ckpt_bytes` sizes the latest
    //    epoch's blobs. Checkpointing *off* is the default everywhere else
    //    in this file, so the fig07/fig08 entries diffed against the
    //    previous BENCH file are the machinery-present-but-disabled gate.
    //  * `recovery/relative_lazy/sharded-async4_crash` — wall nanoseconds from
    //    `recover()` on a mid-session crash of the 4-shard composite
    //    through checkpoint restore, delta replay and reconvergence to the
    //    clean fixpoint (absolute ns, not ns/op).
    {
        let churn_chunks = 4usize;
        let chunk = dels.ops.len().div_ceil(churn_chunks);
        let ckpt_dels = |name: &str, interval: Option<u64>| {
            let mut last_bytes = 0usize;
            let mut epochs = 0usize;
            let ns = measure(samples, dels.ops.len(), || {
                let mut sys = System::reachable(
                    SystemConfig::new(Strategy::relative_lazy(), peers)
                        .with_budget(budget())
                        .with_runtime(RuntimeKind::des()),
                );
                if let Some(k) = interval {
                    sys.runner().enable_checkpointing(k);
                }
                sys.apply(&load);
                assert!(sys.run("load").converged(), "{name}: load did not converge");
                for (i, ops) in dels.ops.chunks(chunk).enumerate() {
                    for op in ops {
                        sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
                    }
                    let label = format!("churn-{i}");
                    assert!(
                        sys.run(&label).converged(),
                        "{name}: {label} did not converge"
                    );
                }
                if interval.is_some() {
                    let store = sys.runner().checkpoints().expect("checkpointing enabled");
                    let (_, ck) = store.latest().expect("at least epoch 0");
                    last_bytes = ck.bytes();
                    epochs = store.len();
                }
            });
            (ns, last_bytes, epochs)
        };
        let off_name = "checkpointing/reachable_del/relative_lazy/des_off";
        let mut off_ns = f64::NAN;
        if wanted(off_name) {
            let (ns, _, _) = ckpt_dels(off_name, None);
            println!("{off_name:<45} {ns:>12.0} ns/op");
            report.insert(off_name.to_string(), ns);
            off_ns = ns;
        }
        for interval in [1u64, 2, 4] {
            let name = format!("checkpointing/reachable_del/relative_lazy/des_interval{interval}");
            if !wanted(&name) {
                continue;
            }
            let (ns, bytes, epochs) = ckpt_dels(&name, Some(interval));
            println!("{name:<45} {ns:>12.0} ns/op  ({epochs} epochs, {bytes} B latest)");
            report.insert(format!("{name}#ckpt_bytes"), bytes as f64);
            report.insert(format!("{name}#epochs"), epochs as f64);
            if interval == 1 && off_ns.is_finite() {
                report.insert(format!("{name}#overhead_vs_off"), ns / off_ns);
            }
            report.insert(name, ns);
        }

        let name = "checkpointing/recovery/relative_lazy/sharded-async4_crash";
        if wanted(name) {
            let build = |fault: Option<FaultPlan>| {
                let mut kind = RuntimeKind::sharded_async(4);
                if let Some(f) = fault {
                    kind = kind.with_fault(f);
                }
                let mut sys = System::reachable(
                    SystemConfig::new(Strategy::relative_lazy(), peers)
                        .with_budget(budget())
                        .with_runtime(kind),
                );
                sys.runner().enable_checkpointing(1);
                sys.apply(&load);
                sys
            };
            // A clean run sizes the crash dial (the composite's event
            // counter races worker progress, so the dial lands mid-session
            // distributionally — the halving retry below guarantees the
            // crash fires even on unlucky schedules).
            let mut clean = build(None);
            assert!(clean.run("load").converged(), "{name}: clean load");
            let e_load = clean.runner().events_processed();
            for op in &dels.ops {
                clean.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
            }
            assert!(clean.run("churn").converged(), "{name}: clean churn");
            let e_total = clean.runner().events_processed();
            let oracle = clean.view("reachable");

            let mut rec_ns: Vec<f64> = Vec::new();
            for _ in 0..samples {
                let mut crash_at = e_load + (e_total - e_load) / 2;
                loop {
                    let mut sys = build(Some(FaultPlan::crash_at(crash_at)));
                    let mut measured = f64::NAN;
                    for (label, ops) in [("load", &load.ops), ("churn", &dels.ops)] {
                        for op in ops {
                            let kind = if label == "churn" {
                                UpdateKind::Delete
                            } else {
                                op.kind
                            };
                            sys.inject(&op.rel, op.tuple.clone(), kind, op.ttl);
                        }
                        let rep = sys.run(label);
                        if rep.converged() {
                            continue;
                        }
                        assert!(
                            rep.outcome.crashed(),
                            "{name}: {label} neither converged nor crashed"
                        );
                        let t = Instant::now();
                        sys.runner().recover().expect("recover from latest epoch");
                        // `recover` strips the crash dial, so the re-run
                        // replays the post-barrier delta to convergence.
                        assert!(
                            sys.run(label).converged(),
                            "{name}: recovery did not converge"
                        );
                        measured = t.elapsed().as_nanos() as f64;
                    }
                    if measured.is_nan() {
                        // Crash never fired (counter raced past the dial
                        // before any check) — halve and retry; 1 always fires.
                        crash_at = (crash_at / 2).max(1);
                        continue;
                    }
                    assert_eq!(
                        sys.view("reachable"),
                        oracle,
                        "{name}: recovered fixpoint diverges"
                    );
                    rec_ns.push(measured);
                    break;
                }
            }
            rec_ns.sort_by(|a, b| a.total_cmp(b));
            let median = rec_ns[rec_ns.len() / 2];
            println!("{name:<45} {median:>12.0} ns (recover + replay + reconverge)");
            report.insert(format!("{name}#recovery_ns"), median);
        }
    }

    // --- Loopback-TCP shard transport ----------------------------------
    //
    // The supervised TCP transport (crates/sim/src/tcp.rs) replaces the
    // in-process cross-shard channel with real length-framed sockets under
    // a connection supervisor. Two dials pinned on the 2-shard composite:
    //
    //  * channel vs TCP ns/op on the fig07/fig08 workloads —
    //    `#tcp_overhead_ratio` prices the socket hop (envelope encode,
    //    kernel round-trip, decode, ack) per cross-shard envelope. It is
    //    expected to be well above 1 (the channel transport moves an Arc
    //    pointer); the guardrail is that the *channel* entries stay within
    //    noise of the previous BENCH file — TCP must be pay-for-use.
    //  * `reconnect/...#reconnect_ns` — per-reconnect recovery cost under
    //    seeded mid-run connection kills: the faulted run's extra wall
    //    time over the clean TCP run, divided by the supervision
    //    counter's reconnect count.
    {
        let chan2 = RuntimeKind::sharded_async(2);
        let tcp2 = RuntimeKind::sharded_async_tcp(2);
        let tcp_ins = |name: &str, strategy: Strategy, kind: &RuntimeKind| {
            measure(samples, load.ops.len(), || {
                let mut sys = System::reachable(
                    SystemConfig::new(strategy, peers)
                        .with_budget(budget())
                        .with_runtime(kind.clone()),
                );
                sys.apply(&load);
                assert!(sys.run("load").converged(), "{name}: load did not converge");
            })
        };
        let tcp_del = |name: &str, strategy: Strategy, kind: &RuntimeKind| {
            let mut reconnects = 0u64;
            let ns = measure(samples, dels.ops.len(), || {
                let mut sys = System::reachable(
                    SystemConfig::new(strategy, peers)
                        .with_budget(budget())
                        .with_runtime(kind.clone()),
                );
                sys.apply(&load);
                assert!(sys.run("load").converged(), "{name}: load did not converge");
                for op in &dels.ops {
                    sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
                }
                assert!(
                    sys.run("delete").converged(),
                    "{name}: delete did not converge"
                );
                reconnects = sys.runner().fault_stats().reconnects;
            });
            (ns, reconnects)
        };

        for (fig, label, strategy) in [
            ("fig07/reachable_ins", "set", Strategy::set()),
            (
                "fig08/reachable_del",
                "relative_lazy",
                Strategy::relative_lazy(),
            ),
        ] {
            let base = format!("transport_tcp/{fig}/{label}");
            let chan_name = format!("{base}/sharded-async2_channel");
            let tcp_name = format!("{base}/sharded-async2_tcp");
            if !wanted(&chan_name) && !wanted(&tcp_name) {
                continue;
            }
            let (chan_ns, tcp_ns) = if fig.starts_with("fig07") {
                (
                    tcp_ins(&chan_name, strategy, &chan2),
                    tcp_ins(&tcp_name, strategy, &tcp2),
                )
            } else {
                (
                    tcp_del(&chan_name, strategy, &chan2).0,
                    tcp_del(&tcp_name, strategy, &tcp2).0,
                )
            };
            println!("{chan_name:<45} {chan_ns:>12.0} ns/op");
            println!("{tcp_name:<45} {tcp_ns:>12.0} ns/op");
            report.insert(format!("{tcp_name}#tcp_overhead_ratio"), tcp_ns / chan_ns);
            report.insert(chan_name, chan_ns);
            report.insert(tcp_name, tcp_ns);
        }

        let name = "transport_tcp/reconnect/relative_lazy/sharded-async2_kill";
        if wanted(name) {
            let (clean_ns, _) = tcp_del(
                "transport_tcp/reconnect baseline",
                Strategy::relative_lazy(),
                &tcp2,
            );
            let kill = tcp2.clone().with_fault(FaultPlan {
                conn_kill_per_mille: 150,
                ..FaultPlan::none()
            });
            let (kill_ns, reconnects) = tcp_del(name, Strategy::relative_lazy(), &kill);
            let total_extra = (kill_ns - clean_ns).max(0.0) * dels.ops.len() as f64;
            let per_reconnect = total_extra / reconnects.max(1) as f64;
            println!("{name:<45} {per_reconnect:>12.0} ns/reconnect  ({reconnects} reconnects)");
            report.insert(format!("{name}#reconnect_ns"), per_reconnect);
            report.insert(format!("{name}#reconnects"), reconnects as f64);
            report.insert(name.to_string(), kill_ns);
        }
    }

    // --- Serving-layer read path ---------------------------------------
    //
    // Same reduced fig07 topology, absorption-lazy on the async runtime
    // (its executor is a real OS thread beside the reader threads — the
    // concurrent scenario needs true reader/writer parallelism). The
    // lookup set is every (src, dst) pair over the
    // topology's addresses: a mix of hits and misses, so both membership
    // outcomes stay on the measured path.
    let serving_names = [
        "read_serving/reachable/view_clone_lookup",
        "read_serving/reachable/serve_point_lookup",
        "read_serving/reachable/churn4",
    ];
    if serving_names.iter().any(|n| wanted(n)) {
        let mut addrs: Vec<NetAddr> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for op in &load.ops {
            for col in [0usize, 1] {
                if let Value::Addr(a) = op.tuple.get(col) {
                    if seen.insert(a.0) {
                        addrs.push(*a);
                    }
                }
            }
        }
        let lookups: Vec<(NetAddr, NetAddr)> = addrs
            .iter()
            .flat_map(|&u| addrs.iter().map(move |&v| (u, v)))
            .collect();
        let member = |u: NetAddr, v: NetAddr| Tuple::new(vec![Value::Addr(u), Value::Addr(v)]);

        let mut sys = System::reachable(
            SystemConfig::new(Strategy::absorption_lazy(), peers)
                .with_budget(budget())
                .with_runtime(RuntimeKind::asynchronous()),
        );
        sys.apply(&load);
        assert!(sys.run("load").converged(), "read_serving: load converged");

        // Baseline: the pre-serving read path — materialize the whole view,
        // then one membership test, per lookup.
        let name = serving_names[0];
        let mut baseline_ns = f64::NAN;
        if wanted(name) {
            let rounds = 20;
            baseline_ns = measure(samples, rounds * lookups.len(), || {
                let mut hits = 0usize;
                for _ in 0..rounds {
                    for &(u, v) in &lookups {
                        let view = sys.view("reachable");
                        hits += usize::from(view.contains(&member(u, v)));
                    }
                }
                std::hint::black_box(hits);
            });
            println!("{name:<45} {:>12.0} ns/op", baseline_ns);
            report.insert(name.to_string(), baseline_ns);
        }

        // Attach the lock-free serving layer; every converged `run` from
        // here on publishes one epoch.
        let reader = sys.serve(&ServeSpec::views(&[]).with_connectivity("reachable"));

        let name = serving_names[1];
        if wanted(name) {
            let mut r = reader.clone();
            let rounds = 2000;
            let ns = measure(samples, rounds * lookups.len(), || {
                let mut hits = 0usize;
                for _ in 0..rounds {
                    for &(u, v) in &lookups {
                        hits += usize::from(r.enter().connected(u, v));
                    }
                }
                std::hint::black_box(hits);
            });
            println!("{name:<45} {:>12.0} ns/op", ns);
            report.insert(name.to_string(), ns);
            if baseline_ns.is_finite() {
                let speedup = baseline_ns / ns;
                report.insert(format!("{name}#speedup_vs_view_clone"), speedup);
                assert!(
                    speedup >= 10.0,
                    "serving acceptance: point lookups must be >= 10x the \
                     view-clone baseline, got {speedup:.1}x"
                );
            }
        }

        // Service-shaped scenario: four reader threads hammer `connected`
        // through private handle clones while the driver runs delete/
        // re-insert churn, publishing a boundary per converged phase.
        // Latency is sampled every 64th read; p99 over all samples.
        let name = serving_names[2];
        if wanted(name) {
            use std::sync::atomic::{AtomicBool, Ordering};
            use std::sync::Arc;
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let mut r = reader.clone();
                    let lookups = lookups.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut reads = 0u64;
                        let mut lat_ns: Vec<u64> = Vec::new();
                        while !stop.load(Ordering::Relaxed) {
                            let (u, v) = lookups[reads as usize % lookups.len()];
                            let t = Instant::now();
                            std::hint::black_box(r.enter().connected(u, v));
                            if reads.is_multiple_of(64) {
                                lat_ns.push(t.elapsed().as_nanos() as u64);
                            }
                            reads += 1;
                        }
                        (reads, lat_ns)
                    })
                })
                .collect();

            let start = Instant::now();
            for (i, op) in dels.ops.iter().take(8).enumerate() {
                sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Delete, None);
                assert!(sys.run(&format!("churn-del-{i}")).converged());
                sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Insert, None);
                assert!(sys.run(&format!("churn-ins-{i}")).converged());
            }
            let wall = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            let mut total_reads = 0u64;
            let mut lat: Vec<u64> = Vec::new();
            for h in readers {
                let (reads, l) = h.join().expect("reader thread");
                total_reads += reads;
                lat.extend(l);
            }
            lat.sort_unstable();
            let p99 = lat[((lat.len() as f64 * 0.99) as usize).min(lat.len() - 1)];
            let reads_per_sec = total_reads as f64 / wall.as_secs_f64();
            println!("{name:<45} {reads_per_sec:>12.0} reads/s  p99 {p99} ns");
            report.insert(format!("{name}#reads_per_sec"), reads_per_sec);
            report.insert(format!("{name}#p99_lookup_ns"), p99 as f64);
        }
    }

    let mut json = String::from("{\n");
    // Guardrail note (string entry, sorts first): the BENCH_4 set-mode
    // sharded cliff and what should hold now that transport coalescing
    // batches the tiny per-update messages.
    let mut entries: Vec<String> = vec![format!(
        "  \"_guardrail/fig07/reachable_ins/set/sharded-async2\": \"{}\"",
        "BENCH_4 cliff: 51.8us/op sharded vs 18.6us unsharded - every tiny \
         set-mode Msg crossed the bounded transport as its own envelope, \
         paying a controller park/re-wake per message. Envelope coalescing \
         (netrec_sim::coalesce) batches each quantum's same-destination \
         messages into one transport slot; watch #envelopes_per_op here and \
         keep this entry within ~2.5x of fig07/reachable_ins/set/async \
         (18.3us/op in BENCH_10) - a drift back toward 50us/op means \
         per-envelope controller wakes have crept back in"
    )];
    entries.push(format!(
        "  \"_guardrail/fault_injection/reachable_del\": \"{}\"",
        "fault seam acceptance: #inert_overhead_ratio must stay ~1.0 - an \
         installed-but-inert FaultPlan takes the same early-out as no plan \
         (FaultPlan::is_active), so drift here means per-envelope fault \
         bookkeeping leaked onto the clean delivery path. des_seed0 shows \
         what enabled chaos costs for context; it is expected to be \
         several-fold slower (retransmit delays stretch simulated time, \
         stall windows serialise receivers) and is not a guardrail"
    ));
    entries.push(format!(
        "  \"_guardrail/checkpointing/reachable_del\": \"{}\"",
        "checkpointing acceptance: the subsystem is pay-for-use - every \
         non-checkpointing entry in this file runs with it disabled, so \
         fig07/fig08 must stay within noise of the previous BENCH file. \
         interval1#overhead_vs_off prices a full peer encode at every \
         converged boundary (expected small: blobs are canonical \
         in-memory encodes, no I/O); it shrinks toward 1.0 as the \
         interval grows. recovery#recovery_ns is restore + post-barrier \
         delta replay + reconvergence of the 4-shard composite - watch it \
         against des_interval1 ns/op drift: recovery cost is dominated by \
         replayed-delta reconvergence, not blob decode"
    ));
    entries.push(format!(
        "  \"_guardrail/transport_tcp/sharded-async2\": \"{}\"",
        "TCP transport acceptance: the socket path is pay-for-use - the \
         sharded-async2_channel entries here and the fig07/fig08 sharded entries \
         above must stay within noise of the previous BENCH file (the \
         channel fast path gained only a None check on tcp_links). \
         #tcp_overhead_ratio prices the loopback hop and is expected to be \
         several-fold (envelope encode + kernel round-trip + ack per \
         cross-shard envelope; correctness, not speed, is what the TCP \
         mode buys). #reconnect_ns is the per-reconnect recovery cost \
         under mid-run connection kills - backoff dominates, so watch it \
         against drift in netrec_sim::tcp's BACKOFF_BASE constant"
    ));
    entries.push(format!(
        "  \"_guardrail/read_serving/reachable/serve_point_lookup\": \"{}\"",
        "serving acceptance: epoch-published point lookups must stay >= 10x \
         the view-clone-per-lookup baseline (the binary asserts the ratio; \
         see #speedup_vs_view_clone). Also watch churn4#p99_lookup_ns - a \
         p99 drifting toward the baseline ns/op means readers are paying \
         per-read copies or contending with the publish handshake again"
    ));
    entries.extend(report.iter().map(|(k, v)| format!("  \"{k}\": {v:.1}")));
    json.push_str(&entries.join(",\n"));
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write bench report");
    println!("wrote {out_path}");
}
