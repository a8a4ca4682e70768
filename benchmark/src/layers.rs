//! Per-layer metrics of the traced pass: span self times, `RunReport` /
//! `NetMetrics` / `FaultStats` / `BddManagerStats` counters, the kernels, and
//! the substrate gap.

use netrec_core::RuntimeKind;
use netrec_sim::PeerId;
use netrec_types::UpdateKind;

use crate::client::{latencies_ms, totals, Client, Sample};
use crate::kernels;
use crate::metrics::Metric;
use crate::stats::percentile;
use crate::trace::{self_times, NameTotals};
use crate::workloads::{self, Outcome, Pass};

/// Print each span name's call count, self time and share of the timed
/// phase (Σ update latency).
pub fn print_layer_table(o: &Outcome) {
    let totals = self_times(o.tracer.spans());
    let timed_ns: u64 = o.samples().map(|s| s.latency_ns).sum();
    println!("layer table (self time = duration minus child spans; share of Σ update latency)");
    println!(
        "  {:<20} {:>8} {:>14} {:>8}",
        "span", "calls", "self ms", "share"
    );
    for (name, t) in &totals {
        println!(
            "  {:<20} {:>8} {:>14.3} {:>7.2}%",
            name,
            t.count,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / timed_ns as f64
        );
    }
}

/// Span- and counter-derived metrics of the traced stream.
fn from_stream(o: &Outcome) -> Vec<Metric> {
    let n = o.samples().count();
    if n == 0 {
        return Vec::new();
    }
    let spans = self_times(o.tracer.spans());
    let of = |name: &str| spans.get(name).copied().unwrap_or(NameTotals::default());
    let per_update = |ns: u64| ns as f64 / n as f64;
    let (inject, run, boundary, rederive) = (
        of("core.inject"),
        of("engine.run_phase"),
        of("engine.boundary"),
        of("engine.rederive"),
    );
    let timed_ns: u64 = o.samples().map(|s| s.latency_ns).sum();
    let accounted = inject.total_ns + run.total_ns + boundary.total_ns + rederive.total_ns;
    let t = totals(o.samples());
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut m = vec![
        Metric::with_n("core.inject_us", per_update(inject.total_ns) / 1e3, n),
        Metric::with_n("engine.run_phase_ms", per_update(run.total_ns) / 1e6, n),
        Metric::with_n("engine.boundary_ms", per_update(boundary.total_ns) / 1e6, n),
        Metric::with_n(
            "engine.rederive_ms",
            ratio(rederive.total_ns, rederive.count) / 1e6,
            rederive.count as usize,
        ),
        Metric::with_n("engine.events_per_update", per_update(t.events), n),
        Metric::with_n("engine.msgs_per_update", per_update(t.msgs), n),
        Metric::with_n("engine.tuples_per_update", per_update(t.tuples), n),
        Metric::new("engine.us_per_event", ratio(t.run_wall_ns, t.events) / 1e3),
        Metric::new("engine.accounted_pct", 100.0 * ratio(accounted, timed_ns)),
        Metric::new("prov.shipped_share", ratio(t.prov_bytes, t.bytes)),
        Metric::with_n("sim.envelopes_per_update", per_update(t.envelopes), n),
        Metric::new("sim.msgs_per_envelope", ratio(t.msgs, t.envelopes)),
        Metric::with_n(
            "sim.envelope_bytes_per_update",
            per_update(t.envelope_bytes),
            n,
        ),
    ];
    let mut sent = vec![0u64; o.rounds[0].peer_bytes_sent.len()];
    for round in &o.rounds {
        for (total, peer) in sent.iter_mut().zip(&round.peer_bytes_sent) {
            *total += peer;
        }
    }
    let mean = sent.iter().sum::<u64>() as f64 / sent.len().max(1) as f64;
    if mean > 0.0 {
        let max = *sent.iter().max().expect("non-empty") as f64;
        m.push(Metric::with_n(
            "sim.peer_bytes_skew",
            max / mean,
            sent.len(),
        ));
    }
    m
}

/// Counters the layers already expose, read once at the end.
fn from_counters(o: &Outcome, tcp: bool) -> Vec<Metric> {
    let runner = o.client.sys.runner_ref();
    let (mut nodes, mut hits, mut misses) = (0usize, 0u64, 0u64);
    for p in 0..runner.peer_count() {
        let s = runner.with_peer(PeerId(p), |peer| peer.bdd_manager().stats());
        nodes += s.nodes;
        hits += s.ite_cache_hits;
        misses += s.ite_cache_misses;
    }
    let mut m = vec![
        Metric::new("bdd.arena_nodes", nodes as f64),
        Metric::with_n(
            "bdd.ite_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            (hits + misses) as usize,
        ),
        Metric::new("serve.epochs", runner.served_version().unwrap_or(0) as f64),
        Metric::new("topo.generate_ms", o.topo_generate_ms),
    ];
    if tcp {
        let f = runner.fault_stats();
        let ins = latencies_ms(o.samples(), UpdateKind::Insert);
        m.extend([
            Metric::new("sim.tcp.reconnects", f.reconnects as f64),
            Metric::new("sim.tcp.retransmits", f.retransmits as f64),
            Metric::new("sim.tcp.heartbeat_timeouts", f.heartbeat_timeouts as f64),
            Metric::with_n("sim.tcp.insert_ms_p50", percentile(&ins, 0.5), ins.len()),
        ]);
    }
    m
}

/// Median insert and DRed-delete latency of the first `ops` samples.
fn prefix_medians(samples: &[Sample], ops: usize) -> (f64, f64) {
    let prefix = &samples[..ops.min(samples.len())];
    (
        percentile(&latencies_ms(prefix, UpdateKind::Insert), 0.5),
        percentile(&latencies_ms(prefix, UpdateKind::Delete), 0.5),
    )
}

/// The substrate gap: `tcp_set_churn`'s inserts and first flaps replayed on
/// the DES and on the in-process channel transport, against the same prefix
/// of the traced TCP stream.
fn substrate_gap(o: &Outcome, seed: u64, smoke: bool) -> Vec<Metric> {
    let flaps = if smoke { 4 } else { 20 };
    let replay = |runtime: RuntimeKind| -> (usize, f64, f64) {
        let scn = workloads::tcp_set_churn(Pass::only(seed), smoke, runtime);
        let inserts = scn
            .stream
            .iter()
            .take_while(|op| op.kind == UpdateKind::Insert)
            .count();
        let ops = inserts + 2 * flaps;
        let mut sys = scn.build();
        let reader = sys.serve(&scn.serve);
        let mut client = Client::new(sys, reader, scn.dred);
        let mut untraced = crate::trace::Tracer::new(false);
        let samples: Vec<Sample> = scn.stream[..ops]
            .iter()
            .map(|op| client.update(&mut untraced, 0, op))
            .collect();
        let (ins, del) = prefix_medians(&samples, ops);
        (ops, ins, del)
    };
    let (ops, des_ins, des_del) = replay(RuntimeKind::des());
    let (_, chan_ins, chan_del) = replay(RuntimeKind::sharded_async(2));
    let (tcp_ins, tcp_del) = prefix_medians(&o.rounds[0].samples, ops);
    println!("substrate gap over the first {ops} updates (p50 ms):");
    println!(
        "  {:<28} {:>12} {:>12}",
        "substrate", "insert", "DRed delete"
    );
    for (name, i, d) in [
        ("des", des_ins, des_del),
        ("sharded-async(2), channel", chan_ins, chan_del),
        ("sharded-async(2), tcp", tcp_ins, tcp_del),
    ] {
        println!("  {name:<28} {i:>12.4} {d:>12.4}");
    }
    vec![
        Metric::new("sim.sharded.overhead_ms_per_insert", chan_ins - des_ins),
        Metric::new("sim.tcp.overhead_ms_per_insert", tcp_ins - chan_ins),
        Metric::new(
            "sim.tcp.dred_delete_ratio",
            if chan_del > 0.0 {
                tcp_del / chan_del
            } else {
                0.0
            },
        ),
    ]
}

/// Every per-layer metric this workload has.
pub fn per_layer(o: &Outcome, workload: &str, seed: u64, smoke: bool) -> Vec<Metric> {
    let tcp = workload == "tcp_set_churn";
    let mut m = from_stream(o);
    m.extend(from_counters(o, tcp));
    let h = kernels::harvest(&o.client, o.views[0]);
    m.extend(kernels::bdd_and_prov(&h));
    m.extend(kernels::relative_prov());
    m.extend(kernels::checkpoint(workload, seed));
    m.extend(kernels::coalescer());
    m.extend(kernels::wire_codec(&h));
    m.extend(kernels::serving(&h));
    m.extend(kernels::datalog_compile());
    if tcp {
        m.extend(substrate_gap(o, seed, smoke));
    }
    m
}
