//! Serving-layer stress test: concurrent reader threads hammer a
//! [`ViewReader`] while the engine runs insert/delete churn phases, on the
//! sharded substrate (several executor OS threads on the writer side —
//! actual concurrency between peers, readers and the publish handshake; a
//! standalone async session would put every peer on one thread).
//!
//! Invariants asserted by every reader on every read:
//!
//! * **Epoch monotonicity** — the pinned version never goes backwards.
//! * **No torn reads** — the store's incrementally-maintained fingerprint
//!   equals a from-scratch rescan of the same pinned copy; a half-applied
//!   delta batch cannot satisfy both.
//! * **Every observed view IS some converged boundary** — the observed
//!   (version, fingerprint) pair matches the ledger the driver records
//!   right after each `run_phase`, so readers can never surface a
//!   mid-cascade state (the reader may win the race to a fresh epoch, so
//!   it waits boundedly for the ledger entry to appear).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use netrec_engine::runner::{Runner, RunnerConfig};
use netrec_engine::strategy::Strategy;
use netrec_engine::ServeSpec;
use netrec_sim::{RuntimeKind, ShardAssignment, ShardedConfig};
use netrec_testutil::fixtures::{link, reachable_plan};
use netrec_types::{RelId, UpdateKind};

const PEERS: u32 = 6;
const READERS: usize = 4;
const BOUNDARIES: usize = 30;

fn stress(kind: RuntimeKind) {
    let cfg = RunnerConfig::direct(Strategy::absorption_lazy(), PEERS).with_runtime(kind.clone());
    let mut runner = Runner::new(reachable_plan(), cfg);

    // Seed a chain so churn has something to cascade through.
    for i in 0..PEERS - 1 {
        runner.inject("link", link(i, i + 1), UpdateKind::Insert, None);
    }
    runner.run_phase("seed");

    let reader = runner.serve(&ServeSpec::views(&[]).with_connectivity("reachable"));
    let rel: RelId = runner.plan().catalog.id("reachable").unwrap();

    // version → boundary fingerprint, recorded by the driver after each
    // converged phase. Readers hold observed views to this ledger.
    let ledger: Arc<Mutex<BTreeMap<u64, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    {
        let mut r = reader.clone();
        let g = r.enter();
        ledger
            .lock()
            .unwrap()
            .insert(g.version(), g.fingerprint(rel));
    }
    let stop = Arc::new(AtomicBool::new(false));
    // Highest version any reader has verified so far: the driver keeps
    // churning until it passes the seed epoch, so the overlap of reads
    // with live churn does not depend on how fast a phase converges.
    let verified = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mut r = reader.clone();
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            let verified = Arc::clone(&verified);
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (version, fp) = {
                        let g = r.enter();
                        let fp = g.fingerprint(rel);
                        assert_eq!(
                            fp,
                            g.fingerprint_scan(rel),
                            "torn read: incremental fingerprint != rescan of the pinned copy"
                        );
                        (g.version(), fp)
                    };
                    assert!(
                        version >= last_version,
                        "epoch went backwards: {last_version} -> {version}"
                    );
                    last_version = version;
                    // The reader can observe a fresh epoch before the driver
                    // records it; wait boundedly for the ledger to catch up.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let want = loop {
                        if let Some(&want) = ledger.lock().unwrap().get(&version) {
                            break want;
                        }
                        assert!(
                            Instant::now() < deadline,
                            "version {version} never appeared in the boundary ledger"
                        );
                        std::thread::yield_now();
                    };
                    assert_eq!(
                        fp, want,
                        "observed view at version {version} is not the converged boundary"
                    );
                    verified.fetch_max(version, Ordering::SeqCst);
                    reads += 1;
                }
                (reads, last_version)
            })
        })
        .collect();

    // Churn: delete and re-insert chain links, converging (and publishing)
    // after each small batch. Every boundary lands in the ledger. At least
    // `BOUNDARIES` phases, and on (boundedly) until a reader has verified
    // one of them while the churn is still running.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut i = 0;
    while i < BOUNDARIES || (verified.load(Ordering::SeqCst) <= 1 && Instant::now() < deadline) {
        let a = (i as u32) % (PEERS - 1);
        let kind = if i % 2 == 0 {
            UpdateKind::Delete
        } else {
            UpdateKind::Insert
        };
        runner.inject("link", link(a, a + 1), kind, None);
        let rep = runner.run_phase(format!("churn-{i}"));
        assert!(rep.converged(), "churn phase {i} converged");
        let version = runner.served_version().unwrap();
        let mut r = reader.clone();
        let g = r.enter();
        assert_eq!(
            g.version(),
            version,
            "driver sees the boundary it published"
        );
        ledger.lock().unwrap().insert(version, g.fingerprint(rel));
        i += 1;
    }

    stop.store(true, Ordering::Relaxed);
    let mut total_reads = 0;
    let mut max_seen = 0;
    for h in readers {
        let (reads, last) = h.join().expect("reader thread");
        total_reads += reads;
        max_seen = max_seen.max(last);
    }
    assert!(total_reads > 0, "readers made progress");
    assert!(
        max_seen > 1,
        "readers observed churn boundaries, not just the seed epoch"
    );
}

/// One peer per executor thread: the thread-per-peer regime.
#[test]
fn readers_observe_only_converged_boundaries_thread_per_peer() {
    stress(RuntimeKind::Sharded(
        ShardedConfig::with_shards(PEERS).with_assignment(ShardAssignment::Contiguous),
    ));
}

#[test]
fn readers_observe_only_converged_boundaries_sharded() {
    stress(RuntimeKind::sharded_async(2));
}
