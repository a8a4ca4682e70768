//! Criterion microbenchmarks for the ROBDD engine: the operations absorption
//! provenance leans on (or-merge of derivations, restrict for deletions,
//! serialisation for shipping).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netrec_bdd::{Bdd, BddManager};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Build the OR of `n` random 3-variable cubes over `vars` variables — the
/// shape of a reachability tuple's annotation (union of derivation paths).
fn random_dnf(mgr: &BddManager, vars: u32, n: usize, seed: u64) -> Bdd {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = mgr.zero();
    for _ in 0..n {
        let cube: Vec<u32> = (0..3).map(|_| rng.random_range(0..vars)).collect();
        acc = acc.or(&mgr.cube(cube));
    }
    acc
}

fn bench_or_merge(c: &mut Criterion) {
    c.bench_function("bdd/or_merge_derivation", |b| {
        let mgr = BddManager::new();
        let base = random_dnf(&mgr, 64, 32, 1);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter_batched(
            || {
                let cube: Vec<u32> = (0..3).map(|_| rng.random_range(0..64)).collect();
                mgr.cube(cube)
            },
            |derivation| black_box(base.or(&derivation)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_restrict(c: &mut Criterion) {
    c.bench_function("bdd/restrict_false_deletion", |b| {
        let mgr = BddManager::new();
        let f = random_dnf(&mgr, 32, 24, 3);
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 1) % 32;
            black_box(f.restrict_false(v))
        });
    });
}

fn bench_implies(c: &mut Criterion) {
    c.bench_function("bdd/implies_absorption_check", |b| {
        let mgr = BddManager::new();
        let sent = random_dnf(&mgr, 48, 32, 4);
        let new = random_dnf(&mgr, 48, 2, 5);
        b.iter(|| black_box(new.implies(&sent)));
    });
}

fn bench_encode_decode(c: &mut Criterion) {
    let mgr = BddManager::new();
    let f = random_dnf(&mgr, 48, 32, 6);
    c.bench_function("bdd/encode_annotation", |b| {
        b.iter(|| black_box(f.encode()))
    });
    let bytes = f.encode();
    let peer = BddManager::new();
    c.bench_function("bdd/decode_annotation", |b| {
        b.iter(|| black_box(peer.decode(&bytes).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_or_merge,
    bench_restrict,
    bench_implies,
    bench_encode_decode
);
criterion_main!(benches);
