//! The four churn workloads: what is fixed, what `--seed` drives, how each
//! is set up, streamed and verified.
//!
//! Every workload is a *scenario* — topology instance, bulk-load order, the
//! base tuples that churn and the cyclic order they churn in — plus an
//! *update stream* that walks that cycle. The scenario is fixed by
//! [`SCENARIO_SEED`]; `--seed` picks where in the cycle the stream starts.
//! The split is deliberate. On one 100-node topology the cost of deleting a
//! single link spans 28 ms to 4.2 s, so a seed-chosen subset that fits a run
//! moves the median delete latency by 15–25 % between seeds; and because a
//! re-inserted tuple gets a fresh provenance variable, even a seed-shuffled
//! order over a fixed set moves state by up to 68 % (`region_churn`). A
//! fixed cycle entered at a seeded point repeats to a few per cent (README,
//! "What the seed drives").

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netrec_core::{RuntimeKind, System, SystemConfig};
use netrec_engine::{ServeSpec, Strategy, ViewReader};
use netrec_topo::{
    link_tuples, transit_stub, BaseOp, Density, SensorGrid, SensorGridParams, TransitStubParams,
};
use netrec_types::{NetAddr, Tuple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::client::{Client, Sample};
use crate::trace::Tracer;

/// Workload names, in run order. Later issues cite them.
pub const WORKLOADS: [&str; 4] = ["link_flap", "region_churn", "tcp_set_churn", "dense_grow"];

/// Seed of everything that is scenario rather than stream.
pub const SCENARIO_SEED: u64 = 42;

/// Every run sets up this many times (twice for `--smoke`) and reports the
/// median, so one slow page-fault burst does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 4;

/// A generated workload, ready to set up. The program under test sees only
/// `load` and `stream`.
pub struct Scenario {
    /// Which of the paper's query families runs.
    pub query: Query,
    pub config: SystemConfig,
    /// Bulk load, injected as one batch and run to the first fixpoint.
    pub load: Vec<BaseOp>,
    pub serve: ServeSpec,
    /// The timed update stream.
    pub stream: Vec<BaseOp>,
    /// Views checked against the oracle at the end.
    pub views: &'static [&'static str],
    /// Deletes follow the DRed protocol.
    pub dred: bool,
    /// Node set for the concurrent reader thread (`dense_grow` only; empty
    /// means no reader thread).
    pub reader_nodes: Vec<NetAddr>,
    /// Wall time of topology generation alone.
    pub topo_generate_ms: f64,
}

/// The two query families the workloads use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    Reachable,
    Regions,
}

impl Scenario {
    /// A system with nothing loaded.
    pub fn build(&self) -> System {
        match self.query {
            Query::Reachable => System::reachable(self.config.clone()),
            Query::Regions => System::regions(self.config.clone()),
        }
    }
}

/// How many of a run's [`SETUP_REPEATS`] set-ups (the first ones) are
/// followed by a pass over the stream. The passes' samples are pooled: a
/// short stream (two seconds of `dense_grow`) is too little work for a
/// steady timing, and
/// pooling passes entered at evenly spaced points of the cycle averages out
/// what the entry point does to the counters. `link_flap` and
/// `tcp_set_churn` fill the run with one pass.
pub fn rounds(name: &str, smoke: bool) -> usize {
    match name {
        _ if smoke => 1,
        "region_churn" => 3,
        "dense_grow" => SETUP_REPEATS,
        _ => 1,
    }
}

/// Which pass of a run a scenario is generated for.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub seed: u64,
    /// 0-based pass number, below `of`.
    pub round: usize,
    pub of: usize,
}

impl Pass {
    /// The only pass of a one-round run.
    pub fn only(seed: u64) -> Pass {
        Pass {
            seed,
            round: 0,
            of: 1,
        }
    }

    /// Enter `cycle` at the seeded point; later rounds enter evenly spaced
    /// further along.
    fn enter<T>(self, mut cycle: Vec<T>) -> Vec<T> {
        let n = cycle.len();
        let start = (self.seed % n as u64) as usize + self.round * n / self.of;
        cycle.rotate_left(start % n);
        cycle
    }
}

fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    v.shuffle(&mut StdRng::seed_from_u64(seed));
    v
}

/// delete → visible, re-insert → visible, for each tuple in order.
fn flaps(rel: &str, tuples: &[Tuple]) -> Vec<BaseOp> {
    tuples
        .iter()
        .flat_map(|t| {
            [
                BaseOp::delete(rel, t.clone()),
                BaseOp::insert(rel, t.clone()),
            ]
        })
        .collect()
}

fn inserts(rel: &str, tuples: &[Tuple]) -> Vec<BaseOp> {
    tuples
        .iter()
        .map(|t| BaseOp::insert(rel, t.clone()))
        .collect()
}

/// The paper's 100-router transit-stub shape, or half of it for `--smoke`.
fn transit_stub_params(density: Density, smoke: bool) -> TransitStubParams {
    TransitStubParams {
        density,
        nodes_per_stub: if smoke { 4 } else { 8 },
        ..TransitStubParams::default()
    }
}

/// Generate `name`'s scenario and the stream of one pass.
pub fn scenario(name: &str, pass: Pass, smoke: bool) -> Scenario {
    match name {
        "link_flap" => link_flap(pass, smoke),
        "region_churn" => region_churn(pass, smoke),
        "tcp_set_churn" => tcp_set_churn(pass, smoke, RuntimeKind::sharded_async_tcp(2)),
        "dense_grow" => dense_grow(pass, smoke),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Sparse 100-node reachability on the DES: bulk load, then flap 40 fixed
/// link tuples one at a time.
fn link_flap(pass: Pass, smoke: bool) -> Scenario {
    let t0 = Instant::now();
    let topo = transit_stub(transit_stub_params(Density::Sparse, smoke), SCENARIO_SEED);
    let topo_generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let links = shuffled(link_tuples(&topo), SCENARIO_SEED);
    // The churn cycle is drawn with another shuffle than the load order, so
    // it is not simply "the first tuples loaded".
    let cycle: Vec<Tuple> = shuffled(links.clone(), SCENARIO_SEED ^ 0xf1a9)
        .into_iter()
        .take(if smoke { 8 } else { 40 })
        .collect();
    Scenario {
        query: Query::Reachable,
        config: SystemConfig::new(Strategy::absorption_lazy(), 12),
        load: inserts("link", &links),
        serve: ServeSpec::views(&[]).with_connectivity("reachable"),
        stream: flaps("link", &pass.enter(cycle)),
        views: &["reachable"],
        dred: false,
        reader_nodes: Vec::new(),
        topo_generate_ms,
    }
}

/// Sensor regions on the async runtime: load the field and triggers, then
/// untrigger / re-trigger the non-seed triggered sensors, three times round
/// their cycle.
fn region_churn(pass: Pass, smoke: bool) -> Scenario {
    let t0 = Instant::now();
    let grid = SensorGrid::generate(
        SensorGridParams {
            sensors: if smoke { 36 } else { 49 },
            ..SensorGridParams::default()
        },
        SCENARIO_SEED,
    );
    let topo_generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let triggers = grid.trigger_ops(0.5, 3);
    let mut load = grid.sensor_ops().ops;
    load.extend(grid.near_ops().ops);
    load.extend(grid.seed_ops().ops);
    load.extend(triggers.ops.iter().cloned());
    // Seeds anchor the regions and stay triggered.
    let cycle: Vec<Tuple> = triggers
        .ops
        .iter()
        .map(|op| op.tuple.clone())
        .filter(|t| t.get(0).as_addr().is_some_and(|a| !grid.seeds.contains(&a)))
        .collect();
    let once = pass.enter(shuffled(cycle, SCENARIO_SEED));
    let times_round = if smoke { 1 } else { 3 };
    let order: Vec<Tuple> = (0..times_round)
        .flat_map(|_| once.iter().cloned())
        .collect();
    Scenario {
        query: Query::Regions,
        config: SystemConfig::new(Strategy::absorption_lazy(), 8)
            .with_runtime(RuntimeKind::asynchronous()),
        load,
        serve: ServeSpec::views(&["regionSizes"]).with_region("activeRegion"),
        stream: flaps("isTriggered", &order),
        views: &["activeRegion", "regionSizes"],
        dred: false,
        reader_nodes: Vec::new(),
        topo_generate_ms,
    }
}

/// Set-semantics reachability over loopback TCP: every link tuple inserted
/// on its own, then DRed flaps of a fixed 100-tuple cycle. `runtime` is a
/// parameter because the traced pass replays a prefix of the same stream on
/// the DES and on the channel transport to price the substrates.
pub fn tcp_set_churn(pass: Pass, smoke: bool, runtime: RuntimeKind) -> Scenario {
    let t0 = Instant::now();
    let topo = transit_stub(transit_stub_params(Density::Dense, smoke), SCENARIO_SEED);
    let topo_generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let links = shuffled(link_tuples(&topo), SCENARIO_SEED);
    let cycle: Vec<Tuple> = shuffled(links.clone(), SCENARIO_SEED ^ 0xf1a9)
        .into_iter()
        .take(if smoke { 10 } else { 100 })
        .collect();
    let mut stream = inserts("link", &pass.enter(links));
    stream.extend(flaps("link", &pass.enter(cycle)));
    Scenario {
        query: Query::Reachable,
        config: SystemConfig::new(Strategy::set(), 12).with_runtime(runtime),
        load: Vec::new(),
        serve: ServeSpec::views(&[]).with_connectivity("reachable"),
        stream,
        views: &["reachable"],
        dred: true,
        reader_nodes: Vec::new(),
        topo_generate_ms,
    }
}

/// Dense 100-node reachability on the DES: bulk-load four fifths of the
/// link tuples, then stream the rest one at a time beside one reader
/// thread.
fn dense_grow(pass: Pass, smoke: bool) -> Scenario {
    let t0 = Instant::now();
    let topo = transit_stub(transit_stub_params(Density::Dense, smoke), SCENARIO_SEED);
    let topo_generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let links = shuffled(link_tuples(&topo), SCENARIO_SEED);
    let (bulk, rest) = links.split_at(links.len() * 4 / 5);
    Scenario {
        query: Query::Reachable,
        config: SystemConfig::new(Strategy::absorption_lazy(), 12),
        load: inserts("link", bulk),
        serve: ServeSpec::views(&[]).with_connectivity("reachable"),
        stream: inserts("link", &pass.enter(rest.to_vec())),
        views: &["reachable"],
        dred: false,
        reader_nodes: topo.nodes.clone(),
        topo_generate_ms,
    }
}

/// What the concurrent reader thread measured.
#[derive(Clone, Debug, Default)]
pub struct ReadStats {
    pub lookups: u64,
    /// Latency of every 64th lookup, ns.
    pub sampled_ns: Vec<f64>,
}

/// One set-up followed by one pass over the stream.
pub struct Round {
    pub samples: Vec<Sample>,
    /// Wall of the stream.
    pub stream_s: f64,
    /// Stream operations not attempted because `--seconds` ran out.
    pub skipped: usize,
    pub reads: Option<ReadStats>,
    /// Logical bytes each peer sent during the stream.
    pub peer_bytes_sent: Vec<u64>,
    /// The final views equal the oracle's.
    pub correct: bool,
}

/// A finished run: its rounds pooled, plus the last round's system for the
/// traced pass to harvest from.
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub client: Client,
    pub tracer: Tracer,
    /// One entry per set-up.
    pub setup_s: Vec<f64>,
    /// Wall of each bulk load's `System::run` (empty when the workload has
    /// no bulk load).
    pub bulk_load_s: Vec<f64>,
    pub topo_generate_ms: f64,
    pub views: &'static [&'static str],
}

impl Outcome {
    /// Every timed update of every round.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> + Clone {
        self.rounds.iter().flat_map(|r| &r.samples)
    }

    pub fn stream_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.stream_s).sum()
    }

    pub fn skipped(&self) -> usize {
        self.rounds.iter().map(|r| r.skipped).sum()
    }

    pub fn correct(&self) -> bool {
        self.rounds.iter().all(|r| r.correct)
    }
}

/// Generate, build, bulk-load and attach serving: everything `setup_s`
/// times. The load is run to its fixpoint even when it is empty, so that a
/// transport that connects on first use is up before the first timed update.
fn set_up(name: &str, pass: Pass, smoke: bool) -> (Client, Scenario, f64, f64) {
    let t0 = Instant::now();
    let scn = scenario(name, pass, smoke);
    let mut sys = scn.build();
    for op in &scn.load {
        sys.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
    }
    let t1 = Instant::now();
    let report = sys.run("load");
    let bulk_load_s = t1.elapsed().as_secs_f64();
    assert!(report.converged(), "{name}: bulk load did not converge");
    let reader = sys.serve(&scn.serve);
    let client = Client::new(sys, reader, scn.dred);
    (client, scn, t0.elapsed().as_secs_f64(), bulk_load_s)
}

fn reader_loop(mut reader: ViewReader, nodes: Vec<NetAddr>, stop: Arc<AtomicBool>) -> ReadStats {
    let mut lookups = 0u64;
    let mut hits = 0u64;
    let mut sampled_ns = Vec::new();
    'sweep: loop {
        for &u in &nodes {
            for &v in &nodes {
                if lookups.is_multiple_of(64) {
                    // `stop` publishes no data; the join is the fence.
                    if stop.load(Ordering::Relaxed) {
                        break 'sweep;
                    }
                    let t = Instant::now();
                    hits += u64::from(reader.enter().connected(u, v));
                    sampled_ns.push(t.elapsed().as_nanos() as f64);
                } else {
                    hits += u64::from(reader.enter().connected(u, v));
                }
                lookups += 1;
            }
        }
    }
    std::hint::black_box(hits);
    ReadStats {
        lookups,
        sampled_ns,
    }
}

/// Stream `scn.stream` through `client` for at most `budget`.
fn stream(
    client: &mut Client,
    scn: &Scenario,
    tracer: &mut Tracer,
    first_id: u32,
    budget: Duration,
) -> Round {
    let stop = Arc::new(AtomicBool::new(false));
    let reader_thread = (!scn.reader_nodes.is_empty()).then(|| {
        let (reader, nodes, stop) = (
            client.reader.clone(),
            scn.reader_nodes.clone(),
            stop.clone(),
        );
        std::thread::spawn(move || reader_loop(reader, nodes, stop))
    });
    let sent_before = client.sys.runner_ref().metrics().per_peer;

    let t0 = Instant::now();
    let mut samples = Vec::with_capacity(scn.stream.len());
    for op in &scn.stream {
        if t0.elapsed() >= budget {
            break;
        }
        let id = first_id + samples.len() as u32;
        samples.push(client.update(tracer, id, op));
    }
    let stream_s = t0.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    let reads = reader_thread.map(|h| h.join().expect("reader thread panicked"));
    let peer_bytes_sent = client
        .sys
        .runner_ref()
        .metrics()
        .per_peer
        .iter()
        .zip(&sent_before)
        .map(|(after, before)| after.bytes_sent - before.bytes_sent)
        .collect();
    Round {
        skipped: scn.stream.len() - samples.len(),
        samples,
        stream_s,
        reads,
        peer_bytes_sent,
        correct: views_correct(client, scn.views, |sys, v| sys.oracle_view(v)),
    }
}

/// Set up [`SETUP_REPEATS`] times, streaming after the first [`rounds`] of
/// them. `seconds` is the wall budget of all of it together: a stream stops
/// when it runs out, and no further repeat starts after it has. (Only the
/// final verification, and the traced pass's kernels, come on top.)
pub fn run(name: &str, seed: u64, seconds: f64, smoke: bool, trace: bool) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(trace);
    let mut setup_s = Vec::new();
    let mut bulk_load_s = Vec::new();
    let mut done: Vec<Round> = Vec::new();
    let mut streamed: Option<(Client, Scenario)> = None;
    let of = rounds(name, smoke);
    for repeat in 0..if smoke { 2 } else { SETUP_REPEATS } {
        if repeat > 0 && started.elapsed() >= budget {
            break;
        }
        let streams = done.len() < of;
        if streams {
            // Peak RSS should be one streamed instance's, and TCP shards
            // hold sockets: let the previous one go first.
            drop(streamed.take());
        }
        let pass = Pass {
            seed,
            round: done.len().min(of - 1),
            of,
        };
        let (mut client, scn, s, bulk) = set_up(name, pass, smoke);
        setup_s.push(s);
        if !scn.load.is_empty() {
            bulk_load_s.push(bulk);
        }
        if streams {
            let first_id = done.iter().map(|r| r.samples.len() as u32).sum();
            let left = budget.saturating_sub(started.elapsed());
            done.push(stream(&mut client, &scn, &mut tracer, first_id, left));
            streamed = Some((client, scn));
        }
    }
    let (client, scn) = streamed.expect("the first repeat always streams");
    Outcome {
        rounds: done,
        client,
        tracer,
        setup_s,
        bulk_load_s,
        topo_generate_ms: scn.topo_generate_ms,
        views: scn.views,
    }
}

/// The final view equals `expected(view)` (the from-scratch oracle in
/// production) and equals the per-peer scan that bypasses the serving copy.
pub fn views_correct(
    client: &Client,
    views: &[&str],
    expected: impl Fn(&System, &str) -> BTreeSet<Tuple>,
) -> bool {
    views.iter().all(|v| {
        let served = client.sys.view(v);
        served == expected(&client.sys, v) && served == client.sys.runner_ref().view_scan(v)
    })
}
