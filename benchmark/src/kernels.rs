//! Per-layer kernels of the traced pass: ns/op of each layer's public
//! functions, replayed over data harvested from the converged workload —
//! annotations via `Runner::view_prov` + `Prov::reanchor` into a
//! bench-owned `BddManager`, tuples from `System::view`, a checkpoint from a
//! short `enable_checkpointing(1)` side session. Layers are measured from
//! outside; nothing in the engine changes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netrec_bdd::{Bdd, BddManager, Var};
use netrec_core::{RuntimeKind, System, SystemConfig};
use netrec_engine::{ckptstore, Strategy};
use netrec_prov::{Prov, RelProv};
use netrec_serve::{views, ViewOp};
use netrec_sim::{coalesce, MsgMeta, PeerId, Port};
use netrec_topo::{link_tuples, transit_stub, Density, TransitStubParams};
use netrec_types::{wire, FxHashSet, NetAddr, RelId, Tuple, UpdateKind, Value};

use crate::client::Client;
use crate::metrics::Metric;
use crate::stats::{percentile, sorted};
use crate::workloads::{self, Pass, SCENARIO_SEED};

/// Time each kernel gets. Forty milliseconds of a 100 ns operation is
/// 400 k calls; of a 1 ms operation, 40 — enough for a mean either way.
const KERNEL_BUDGET: Duration = Duration::from_millis(40);

/// Most annotations / tuples harvested, evenly strided over the view.
const HARVEST_ANNOTATIONS: usize = 256;
const HARVEST_TUPLES: usize = 1024;

/// Mean ns per item of `pass` (which handles `items` items), repeating
/// whole passes — `reset` before each, untimed — until the budget is spent.
fn ns_per_item(items: usize, mut reset: impl FnMut(), mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let mut spent = Duration::ZERO;
    let mut passes = 0u64;
    while spent < KERNEL_BUDGET || passes < 3 {
        reset();
        let t = Instant::now();
        pass();
        spent += t.elapsed();
        passes += 1;
    }
    spent.as_nanos() as f64 / (passes * items as u64) as f64
}

fn strided<T: Clone>(all: &[T], at_most: usize) -> Vec<T> {
    let step = all.len().div_ceil(at_most).max(1);
    all.iter().step_by(step).cloned().collect()
}

/// Data taken from the converged workload.
pub struct Harvest {
    /// Bench-owned manager holding `bdds`.
    pub mgr: BddManager,
    /// Absorption annotations of view tuples (empty in set mode).
    pub bdds: Vec<Bdd>,
    /// Tuples of the workload's first verified view.
    pub tuples: Vec<Tuple>,
}

pub fn harvest(client: &Client, view: &str) -> Harvest {
    let all: Vec<Tuple> = client.sys.view(view).into_iter().collect();
    let mgr = BddManager::new();
    let bdds = strided(&all, HARVEST_ANNOTATIONS)
        .iter()
        .filter_map(|t| client.sys.runner_ref().view_prov(view, t))
        .filter_map(|p| match p.reanchor(&mgr) {
            Prov::Bdd(b) => Some(b),
            _ => None,
        })
        .collect();
    Harvest {
        mgr,
        bdds,
        tuples: strided(&all, HARVEST_TUPLES),
    }
}

/// `bdd.*` and the BDD-backed half of `prov.*`.
pub fn bdd_and_prov(h: &Harvest) -> Vec<Metric> {
    let b = &h.bdds;
    if b.len() < 2 {
        return Vec::new();
    }
    let pairs = b.len() - 1;
    // Each pass starts with cold operation caches and a collected arena, so
    // a pass prices the operations, not a memo-table hit on the last pass.
    let reset = || {
        h.mgr.clear_caches();
        h.mgr.gc();
    };
    let or_ns = ns_per_item(pairs, reset, || {
        for w in b.windows(2) {
            black_box(w[0].or(&w[1]));
        }
    });
    let and_ns = ns_per_item(pairs, reset, || {
        for w in b.windows(2) {
            black_box(w[0].and(&w[1]));
        }
    });
    let first_var: Vec<Option<Var>> = b.iter().map(|x| x.support().first().copied()).collect();
    let restrict_ns = ns_per_item(b.len(), reset, || {
        for (x, v) in b.iter().zip(&first_var) {
            if let Some(v) = v {
                black_box(x.restrict_false(*v));
            }
        }
    });
    let sizes = sorted(b.iter().map(|x| x.dag_size() as f64).collect());
    let nodes: usize = b.iter().map(Bdd::dag_size).sum();
    let encode_ns = ns_per_item(
        nodes,
        || {},
        || {
            for x in b {
                black_box(x.encode());
            }
        },
    );
    let encoded: Vec<Vec<u8>> = b.iter().map(Bdd::encode).collect();
    let decode_ns = ns_per_item(nodes, reset, || {
        for bytes in &encoded {
            black_box(h.mgr.decode(bytes).expect("own encoding decodes"));
        }
    });

    let provs: Vec<Prov> = b.iter().cloned().map(Prov::Bdd).collect();
    let prov_or_ns = ns_per_item(pairs, reset, || {
        for w in provs.windows(2) {
            black_box(w[0].or(&w[1]));
        }
    });
    let prov_and_ns = ns_per_item(pairs, reset, || {
        for w in provs.windows(2) {
            black_box(w[0].and(&w[1]));
        }
    });
    vec![
        Metric::with_n("bdd.or_ns", or_ns, pairs),
        Metric::with_n("bdd.and_ns", and_ns, pairs),
        Metric::with_n("bdd.restrict_ns", restrict_ns, b.len()),
        Metric::with_n("bdd.encode_ns_per_node", encode_ns, nodes),
        Metric::with_n("bdd.decode_ns_per_node", decode_ns, nodes),
        Metric::with_n("bdd.dag_nodes_p50", percentile(&sizes, 0.5), sizes.len()),
        Metric::with_n("bdd.dag_nodes_max", percentile(&sizes, 1.0), sizes.len()),
        Metric::with_n("prov.or_ns", prov_or_ns, pairs),
        Metric::with_n("prov.and_ns", prov_and_ns, pairs),
    ]
}

/// `prov.rel_*`: relative-provenance graphs from a 50-node relative-lazy
/// side load (the four workloads run absorption or set mode, so the main
/// session has none to harvest).
pub fn relative_prov() -> Vec<Metric> {
    let topo = transit_stub(
        TransitStubParams {
            density: Density::Sparse,
            nodes_per_stub: 4,
            ..TransitStubParams::default()
        },
        SCENARIO_SEED,
    );
    let mut sys = System::reachable(SystemConfig::new(Strategy::relative_lazy(), 12));
    for t in link_tuples(&topo) {
        sys.inject("link", t, UpdateKind::Insert, None);
    }
    assert!(sys.run("relative side load").converged());
    let all: Vec<Tuple> = sys.view("reachable").into_iter().collect();
    let graphs: Vec<std::sync::Arc<RelProv>> = strided(&all, HARVEST_ANNOTATIONS)
        .iter()
        .filter_map(|t| sys.runner_ref().view_prov("reachable", t))
        .filter_map(|p| match p {
            Prov::Rel(r) => Some(r),
            _ => None,
        })
        .collect();
    if graphs.is_empty() {
        return Vec::new();
    }
    let dead: Vec<FxHashSet<Var>> = graphs
        .iter()
        .map(|g| g.support().into_iter().take(1).collect())
        .collect();
    let kill_ns = ns_per_item(
        graphs.len(),
        || {},
        || {
            for (g, d) in graphs.iter().zip(&dead) {
                black_box(g.kill_vars(d));
            }
        },
    );
    // `merge` ORs two annotations of one tuple. The side load holds one per
    // tuple, so the other is the same graph with one base variable killed
    // (itself, where that kills the tuple): merging the full graph back in
    // re-adds the derivations the kill removed.
    let pruned: Vec<RelProv> = graphs
        .iter()
        .zip(&dead)
        .map(|(g, d)| g.kill_vars(d).unwrap_or_else(|| RelProv::clone(g)))
        .collect();
    let merge_ns = ns_per_item(
        graphs.len(),
        || {},
        || {
            for (p, g) in pruned.iter().zip(&graphs) {
                black_box(p.merge(g));
            }
        },
    );
    let nodes = sorted(graphs.iter().map(|g| g.node_count() as f64).collect());
    vec![
        Metric::with_n("prov.rel_merge_ns", merge_ns, graphs.len()),
        Metric::with_n("prov.rel_kill_ns", kill_ns, graphs.len()),
        Metric::with_n("prov.rel_nodes_p50", percentile(&nodes, 0.5), nodes.len()),
    ]
}

/// `engine.ckpt_*`: encode/decode of one epoch checkpoint taken in a side
/// session — the workload's own smoke-size scenario on the DES with
/// checkpointing on (checkpoint bytes do not depend on the substrate).
pub fn checkpoint(workload: &str, seed: u64) -> Vec<Metric> {
    let mut scn = workloads::scenario(workload, Pass::only(seed), true);
    scn.config.runtime = RuntimeKind::des();
    let mut sys = scn.build();
    sys.runner().enable_checkpointing(1);
    // Every base tuple the scenario ever holds, once (flaps re-insert).
    let mut seen = FxHashSet::default();
    for op in scn.load.iter().chain(&scn.stream) {
        if op.kind == UpdateKind::Insert && seen.insert((&op.rel, &op.tuple)) {
            sys.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        }
    }
    assert!(sys.run("checkpoint side session").converged());
    let store = sys.runner_ref().checkpoints().expect("checkpointing on");
    let (epoch, ck) = store.latest().expect("one converged boundary");
    let bytes = ckptstore::encode_checkpoint(epoch, ck);
    let kb = bytes.len() as f64 / 1024.0;
    let encode_ns = ns_per_item(
        1,
        || {},
        || {
            black_box(ckptstore::encode_checkpoint(epoch, ck));
        },
    );
    let decode_ns = ns_per_item(
        1,
        || {},
        || {
            black_box(ckptstore::decode_checkpoint(epoch, &bytes).expect("own encoding decodes"));
        },
    );
    vec![
        Metric::new("engine.ckpt_kb", kb),
        Metric::new("engine.ckpt_encode_us_per_kb", encode_ns / 1e3 / kb),
        Metric::new("engine.ckpt_decode_us_per_kb", decode_ns / 1e3 / kb),
    ]
}

/// `sim.coalesce_ns_per_msg`: the flush rule over a synthetic quantum of 64
/// messages to 6 destinations. `frames` consumes its outbox, so building the
/// outbox is timed alone and subtracted.
pub fn coalescer() -> Vec<Metric> {
    const MSGS: usize = 64;
    let outbox = || -> Vec<(PeerId, Port, u64, MsgMeta)> {
        (0..MSGS as u64)
            .map(|i| {
                let meta = MsgMeta {
                    bytes: 48,
                    prov_bytes: 16,
                    tuples: 1,
                };
                (PeerId((i % 6) as u32), Port(0), i, meta)
            })
            .collect()
    };
    let build_ns = ns_per_item(
        MSGS,
        || {},
        || {
            black_box(outbox());
        },
    );
    let both_ns = ns_per_item(
        MSGS,
        || {},
        || {
            black_box(coalesce::frames(outbox(), true));
        },
    );
    vec![Metric::with_n(
        "sim.coalesce_ns_per_msg",
        (both_ns - build_ns).max(0.0),
        MSGS,
    )]
}

/// `wire.*`: tuple codec over harvested tuples; stream framing and CRC over
/// the encoded annotations (over the encoded tuples in set mode).
pub fn wire_codec(h: &Harvest) -> Vec<Metric> {
    let tuples = &h.tuples;
    if tuples.is_empty() {
        return Vec::new();
    }
    let mut buf: Vec<u8> = Vec::new();
    let put_ns = ns_per_item(
        tuples.len(),
        || {},
        || {
            buf.clear();
            for t in tuples {
                wire::put_tuple(&mut buf, t);
            }
            black_box(&buf);
        },
    );
    let get_ns = ns_per_item(
        tuples.len(),
        || {},
        || {
            let mut rest = buf.as_slice();
            for _ in 0..tuples.len() {
                black_box(wire::get_tuple(&mut rest).expect("own encoding decodes"));
            }
        },
    );

    let mut payloads: Vec<Vec<u8>> = h.bdds.iter().map(Bdd::encode).collect();
    if payloads.is_empty() {
        payloads = buf.chunks(1024).map(<[u8]>::to_vec).collect();
    }
    let kb = payloads.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let mut framed: Vec<u8> = Vec::new();
    let frame_put = ns_per_item(
        1,
        || {},
        || {
            framed.clear();
            for (seq, p) in payloads.iter().enumerate() {
                wire::put_stream_frame(&mut framed, 1, seq as u64, p);
            }
            black_box(&framed);
        },
    );
    let frame_get = ns_per_item(
        1,
        || {},
        || {
            let mut rest = framed.as_slice();
            while let Some((frame, used)) = wire::get_stream_frame(rest).expect("own frames verify")
            {
                black_box(frame);
                rest = &rest[used..];
            }
        },
    );
    let crc = ns_per_item(
        1,
        || {},
        || {
            for p in &payloads {
                black_box(wire::crc32(p));
            }
        },
    );
    vec![
        Metric::with_n("wire.tuple_put_ns", put_ns, tuples.len()),
        Metric::with_n("wire.tuple_get_ns", get_ns, tuples.len()),
        Metric::with_n(
            "wire.stream_frame_put_ns_per_kb",
            frame_put / kb,
            payloads.len(),
        ),
        Metric::with_n(
            "wire.stream_frame_get_ns_per_kb",
            frame_get / kb,
            payloads.len(),
        ),
        Metric::with_n("wire.crc32_ns_per_kb", crc / kb, payloads.len()),
    ]
}

/// `serve.*`: publish, point lookup and snapshot on a bench-owned
/// left-right pair fed the harvested view, with no reader contending.
pub fn serving(h: &Harvest) -> Vec<Metric> {
    let tuples = &h.tuples;
    if tuples.is_empty() {
        return Vec::new();
    }
    const REL: RelId = RelId(0);
    let (mut writer, mut reader) = views::pair(&[REL], Some(REL), None);
    let op = |t: &Tuple, add: bool| ViewOp {
        rel: REL,
        tuple: t.clone(),
        add,
    };
    // One pass publishes the whole view in, then out again: 2 n deltas.
    let publish_ns = ns_per_item(
        2 * tuples.len(),
        || {},
        || {
            writer.extend(tuples.iter().map(|t| op(t, true)));
            writer.publish();
            writer.extend(tuples.iter().map(|t| op(t, false)));
            writer.publish();
        },
    );
    writer.extend(tuples.iter().map(|t| op(t, true)));
    writer.publish();
    let addr = |v: &Value| v.as_addr().unwrap_or(NetAddr(0));
    let pairs: Vec<(NetAddr, NetAddr)> = tuples
        .iter()
        .map(|t| (addr(t.get(0)), addr(t.get(1))))
        .collect();
    let lookup_ns = ns_per_item(
        pairs.len(),
        || {},
        || {
            for &(u, v) in &pairs {
                black_box(reader.enter().connected(u, v));
            }
        },
    );
    let snapshot_ns = ns_per_item(
        tuples.len(),
        || {},
        || {
            black_box(writer.read().snapshot(REL));
        },
    );
    vec![
        Metric::with_n("serve.publish_ns_per_op", publish_ns, 2 * tuples.len()),
        Metric::with_n("serve.lookup_ns", lookup_ns, pairs.len()),
        Metric::with_n("serve.snapshot_ns_per_tuple", snapshot_ns, tuples.len()),
    ]
}

/// `datalog.compile_us`: parse + compile the two-rule reachable program.
pub fn datalog_compile() -> Vec<Metric> {
    const REACHABLE: &str = "reachable(@X, Y) :- link(@X, Y, C).\n\
                             reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).";
    let ns = ns_per_item(
        1,
        || {},
        || {
            let ast = netrec_datalog::parse_program(REACHABLE).expect("program parses");
            black_box(netrec_datalog::compile(&ast).expect("program compiles"));
        },
    );
    vec![Metric::new("datalog.compile_us", ns / 1e3)]
}
