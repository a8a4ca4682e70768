//! Quickstart: maintain a distributed reachability view over a simulated
//! router network, then watch absorption provenance absorb a link failure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netrec::core::RuntimeKind;
use netrec::topo::{transit_stub, TransitStubParams, Workload};
use netrec::{Strategy, System, SystemConfig};
use netrec_types::UpdateKind;

fn main() {
    // A 100-router transit-stub topology (the paper's default shape),
    // maintained by 12 query-processing peers with absorption provenance and
    // lazy MinShip — the paper's best configuration.
    let topo = transit_stub(TransitStubParams::default(), 42);
    println!(
        "topology: {} routers, {} directed link tuples",
        topo.node_count(),
        topo.link_tuple_count()
    );

    let mut sys = System::reachable(SystemConfig::new(Strategy::absorption_lazy(), 12));
    sys.apply(&Workload::insert_links(&topo, 1.0, 7));
    let load = sys.run("load");
    println!(
        "loaded: {} reachable pairs in {:.1} simulated ms ({} KB shipped, {} msgs)",
        sys.view("reachable").len(),
        load.convergence.as_millis_f64(),
        load.bytes / 1024,
        load.msgs,
    );
    assert_eq!(sys.view("reachable"), sys.oracle_view("reachable"));

    // Fail one link: with absorption provenance the deletion is a variable
    // restriction, not a DRed-style recomputation.
    let fail = netrec::topo::link_tuples(&topo)[0].clone();
    println!("\nfailing link {fail:?}");
    sys.inject("link", fail, UpdateKind::Delete, None);
    let del = sys.run("link failure");
    println!(
        "re-converged in {:.1} simulated ms shipping only {} KB ({} msgs)",
        del.convergence.as_millis_f64(),
        del.bytes / 1024,
        del.msgs,
    );
    assert_eq!(sys.view("reachable"), sys.oracle_view("reachable"));
    println!("view still matches a from-scratch evaluation ✓");

    // Same plan, same driver, different substrate: replay the load on the
    // concurrent runtime with a single shard — "async": wall-clock timers,
    // real queues — and check that it reaches the identical fixpoint.
    // Peers are state machines on one executor thread (no OS thread per peer), so one core hosts the query
    // partitioned across 1000 peers — the regime of the paper's
    // transit-stub and sensor-grid deployments.
    let mut asys = System::reachable(
        SystemConfig::new(Strategy::absorption_lazy(), 1000)
            .with_runtime(RuntimeKind::asynchronous()),
    );
    asys.apply(&Workload::insert_links(&topo, 1.0, 7));
    let aload = asys.run("load (async)");
    println!(
        "\nasync runtime: {} reachable pairs across 1000 peer tasks on one core in {:.1} ms wall",
        asys.view("reachable").len(),
        aload.wall.as_secs_f64() * 1e3,
    );
    assert_eq!(asys.view("reachable"), asys.oracle_view("reachable"));
    println!("async fixpoint matches a from-scratch evaluation ✓");

    // Scale across cores instead: the same runtime with 12 peers
    // partitioned across 4 shards (one executor OS thread each), each
    // executor routing cross-shard messages straight into the destination
    // shard's ingress queue, with global quiescence detection.
    let mut ssys = System::reachable(
        SystemConfig::new(Strategy::absorption_lazy(), 12)
            .with_runtime(RuntimeKind::sharded_async(4)),
    );
    ssys.apply(&Workload::insert_links(&topo, 1.0, 7));
    let sload = ssys.run("load (sharded)");
    println!(
        "\nsharded runtime: {} reachable pairs across 4 shards (12 peers) in {:.1} ms wall",
        ssys.view("reachable").len(),
        sload.wall.as_secs_f64() * 1e3,
    );
    assert_eq!(ssys.view("reachable"), ssys.oracle_view("reachable"));
    println!("sharded fixpoint matches a from-scratch evaluation ✓");
}
