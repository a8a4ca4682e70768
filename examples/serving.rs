//! Serving layer: lock-free point lookups against epoch-published views
//! while the write path churns.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Loads a transit-stub reachability view on two async shards, attaches
//! the serving layer, then runs four reader threads hammering
//! `connected(u, v)` with zero coordination while the driver fails and heals
//! links. Each converged `run` publishes one epoch; readers only ever see
//! converged boundaries, never a half-applied deletion cascade.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netrec::core::RuntimeKind;
use netrec::sim::RunBudget;
use netrec::topo::{transit_stub, TransitStubParams, Workload};
use netrec::types::{NetAddr, UpdateKind, Value};
use netrec::{ServeSpec, Strategy, System, SystemConfig};

fn main() {
    // A reduced transit-stub network: deletion cascades over the full
    // 100-router closure would dominate the demo's runtime.
    let params = TransitStubParams {
        transits_per_domain: 1,
        stubs_per_transit: 3,
        nodes_per_stub: 6,
        ..Default::default()
    };
    let topo = transit_stub(params, 42);
    let load = Workload::insert_links(&topo, 1.0, 7);
    let mut sys = System::reachable(
        SystemConfig::new(Strategy::absorption_lazy(), 8)
            .with_budget(RunBudget::sim_seconds(600).with_wall(Duration::from_secs(120)))
            .with_runtime(RuntimeKind::sharded_async(2)),
    );
    sys.apply(&load);
    assert!(sys.run("load").converged());

    // Attach the serving layer: "reachable" is now materialized behind a
    // left-right map, republished at every converged run() boundary.
    let mut reader = sys.serve(&ServeSpec::views(&[]).with_connectivity("reachable"));
    println!(
        "serving \"reachable\" ({} pairs) at epoch {}",
        sys.view("reachable").len(),
        reader.version()
    );

    // A few router addresses to look up, straight from the workload.
    let mut addrs: Vec<NetAddr> = Vec::new();
    for op in &load.ops {
        if let Value::Addr(a) = op.tuple.get(0) {
            if !addrs.contains(a) {
                addrs.push(*a);
            }
        }
        if addrs.len() >= 16 {
            break;
        }
    }

    // Reader threads: each clones the handle (a private epoch slot) and
    // serves point lookups — no locks, no coordination with the writer.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|id| {
            let mut r = reader.clone();
            let addrs = addrs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut reads, mut connected, mut last_epoch) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let u = addrs[reads as usize % addrs.len()];
                    let v = addrs[(reads as usize * 7 + 3) % addrs.len()];
                    let g = r.enter(); // pin the current epoch
                    connected += u64::from(g.connected(u, v));
                    last_epoch = g.version();
                    drop(g); // short-lived guard: never stall a publish
                    reads += 1;
                }
                println!(
                    "reader {id}: {reads} lookups, {connected} connected, last epoch {last_epoch}"
                );
                reads
            })
        })
        .collect();

    // Meanwhile the write path churns: fail 30% of the links (absorption
    // provenance retracts the dead derivations), publish, then heal them.
    std::thread::sleep(Duration::from_millis(50));
    let dels = Workload::delete_links(&topo, 0.3, 13);
    sys.apply(&dels);
    assert!(sys.run("fail").converged());
    println!(
        "link failures published: {} pairs at epoch {}",
        sys.view("reachable").len(),
        sys.runner().served_version().unwrap()
    );

    for op in &dels.ops {
        sys.inject(&op.rel, op.tuple.clone(), UpdateKind::Insert, None);
    }
    assert!(sys.run("heal").converged());
    println!(
        "healed: {} pairs at epoch {}",
        sys.view("reachable").len(),
        sys.runner().served_version().unwrap()
    );

    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    println!("served {total} lock-free lookups during live churn");
}
