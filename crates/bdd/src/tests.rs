//! Unit tests for the ROBDD engine: Boolean laws, absorption, canonicity,
//! restrict semantics, serialisation round-trips, GC safety.

use crate::{Bdd, BddManager};

fn mgr3() -> (BddManager, Bdd, Bdd, Bdd) {
    let m = BddManager::new();
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    (m, a, b, c)
}

#[test]
fn terminals_are_canonical() {
    let m = BddManager::new();
    assert_eq!(m.zero(), m.zero());
    assert_eq!(m.one(), m.one());
    assert_ne!(m.zero(), m.one());
    assert!(m.zero().is_false());
    assert!(m.one().is_true());
}

#[test]
fn var_self_identities() {
    let (_, a, ..) = mgr3();
    assert_eq!(a.and(&a), a);
    assert_eq!(a.or(&a), a);
    assert!(a.and(&a.not()).is_false());
    assert!(a.or(&a.not()).is_true());
    assert_eq!(a.not().not(), a);
}

#[test]
fn commutativity_and_associativity() {
    let (_, a, b, c) = mgr3();
    assert_eq!(a.and(&b), b.and(&a));
    assert_eq!(a.or(&b), b.or(&a));
    assert_eq!(a.and(&b).and(&c), a.and(&b.and(&c)));
    assert_eq!(a.or(&b).or(&c), a.or(&b.or(&c)));
}

#[test]
fn distribution_and_de_morgan() {
    let (_, a, b, c) = mgr3();
    assert_eq!(a.and(&b.or(&c)), a.and(&b).or(&a.and(&c)));
    assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
    assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
}

#[test]
fn absorption_law_is_automatic() {
    // The heart of absorption provenance: a ∨ (a ∧ b) ≡ a and a ∧ (a ∨ b) ≡ a.
    let (_, a, b, c) = mgr3();
    assert_eq!(a.or(&a.and(&b)), a);
    assert_eq!(a.and(&a.or(&b)), a);
    // Paper Fig. 2: p1 ∨ (p1 ∧ p2 ∧ p3) = p1 — a longer walk's provenance is
    // absorbed by the direct link.
    let walk = a.and(&b).and(&c);
    assert_eq!(a.or(&walk), a);
}

#[test]
fn xor_and_diff() {
    let (_, a, b, _) = mgr3();
    assert_eq!(a.xor(&b), a.and(&b.not()).or(&a.not().and(&b)));
    assert_eq!(a.diff(&b), a.and(&b.not()));
    assert!(a.diff(&a).is_false());
}

#[test]
fn ite_matches_definition() {
    let (_, a, b, c) = mgr3();
    let ite = a.ite(&b, &c);
    let manual = a.and(&b).or(&a.not().and(&c));
    assert_eq!(ite, manual);
}

#[test]
fn implies_detects_absorbed_derivations() {
    let (_, a, b, _) = mgr3();
    let ab = a.and(&b);
    assert!(ab.implies(&a)); // new derivation a∧b is absorbed by existing a
    assert!(!a.implies(&ab));
}

#[test]
fn restrict_false_kills_and_keeps() {
    let (_, a, b, _) = mgr3();
    // pv = a ∨ b: deleting a leaves b.
    let f = a.or(&b);
    assert_eq!(f.restrict_false(0), b);
    // pv = a ∧ b: deleting a kills it.
    let g = a.and(&b);
    assert!(g.restrict_false(0).is_false());
    // restrict of an unused variable is identity.
    assert_eq!(f.restrict_false(7), f);
}

#[test]
fn restrict_true_and_exists() {
    let (_, a, b, _) = mgr3();
    let f = a.and(&b);
    assert_eq!(f.restrict_true(0), b);
    assert_eq!(f.exists(0), b);
    let g = a.or(&b);
    assert!(g.exists(0).is_true());
}

#[test]
fn restrict_all_false_batch() {
    let (_, a, b, c) = mgr3();
    let f = a.and(&b).or(&c);
    let r = f.restrict_all_false(&[0, 2]);
    assert!(r.is_false());
    let r2 = f.restrict_all_false(&[1]);
    assert_eq!(r2, c);
}

#[test]
fn support_and_depends_on() {
    let (_, a, b, c) = mgr3();
    let f = a.and(&b).or(&c);
    assert_eq!(f.support(), vec![0, 1, 2]);
    assert!(f.depends_on(0));
    assert!(f.depends_on(2));
    assert!(!f.depends_on(3));
    // Absorption removes b from the support entirely.
    let g = a.or(&a.and(&b));
    assert_eq!(g.support(), vec![0]);
}

#[test]
fn cube_constructor() {
    let m = BddManager::new();
    let cube = m.cube([3, 1, 2, 1]);
    let manual = m.var(1).and(&m.var(2)).and(&m.var(3));
    assert_eq!(cube, manual);
    assert!(m.cube(std::iter::empty()).is_true());
}

#[test]
fn or_many_and_many() {
    let (m, a, b, c) = mgr3();
    assert_eq!(m.or_many([&a, &b, &c]), a.or(&b).or(&c));
    assert_eq!(m.and_many([&a, &b, &c]), a.and(&b).and(&c));
    assert!(m.or_many(std::iter::empty::<&Bdd>()).is_false());
    assert!(m.and_many(std::iter::empty::<&Bdd>()).is_true());
}

#[test]
fn eval_agrees_with_structure() {
    let (_, a, b, c) = mgr3();
    let f = a.and(&b).or(&c);
    for bits in 0..8u32 {
        let expect = ((bits & 1 != 0) && (bits & 2 != 0)) || (bits & 4 != 0);
        assert_eq!(f.eval(|v| bits & (1 << v) != 0), expect, "bits={bits:03b}");
    }
}

#[test]
fn sat_count_small() {
    let (m, a, b, _) = mgr3();
    assert_eq!(m.one().sat_count(3), 8.0);
    assert_eq!(m.zero().sat_count(3), 0.0);
    assert_eq!(a.sat_count(3), 4.0);
    assert_eq!(a.and(&b).sat_count(3), 2.0);
    assert_eq!(a.or(&b).sat_count(3), 6.0);
}

#[test]
fn one_sat_is_satisfying() {
    let (_, a, b, c) = mgr3();
    let f = a.and(&b.not()).or(&c);
    let sat = f.one_sat().expect("satisfiable");
    let lookup = |v: u32| {
        sat.iter()
            .find(|(sv, _)| *sv == v)
            .map(|(_, val)| *val)
            .unwrap_or(false)
    };
    assert!(f.eval(lookup));
    assert!(f.and(&f.not()).one_sat().is_none());
}

#[test]
fn cubes_cover_function() {
    let (m, a, b, c) = mgr3();
    let f = a.and(&b).or(&b.not().and(&c));
    let cubes = f.cubes(16);
    // OR of all cubes must equal f.
    let mut acc = m.zero();
    for cube in &cubes {
        let mut term = m.one();
        for &(v, pol) in &cube.literals {
            let lit = if pol { m.var(v) } else { m.nvar(v) };
            term = term.and(&lit);
        }
        acc = acc.or(&term);
    }
    assert_eq!(acc, f);
}

#[test]
fn sop_rendering() {
    let (_, a, b, _) = mgr3();
    let f = a.and(&b);
    assert_eq!(f.to_sop(8), "p0.p1");
    let m = BddManager::new();
    assert_eq!(m.zero().to_sop(8), "0");
    assert_eq!(m.one().to_sop(8), "1");
}

#[test]
fn dot_contains_nodes() {
    let (_, a, b, _) = mgr3();
    let dot = a.and(&b).to_dot();
    assert!(dot.contains("digraph bdd"));
    assert!(dot.contains("p0"));
    assert!(dot.contains("p1"));
    assert!(dot.contains("root"));
}

#[test]
fn encode_decode_round_trip_same_manager() {
    let (m, a, b, c) = mgr3();
    for f in [
        m.zero(),
        m.one(),
        a.clone(),
        a.and(&b),
        a.or(&b).and(&c.not()),
        a.xor(&c),
    ] {
        let bytes = f.encode();
        let back = m.decode(&bytes).expect("decode");
        assert_eq!(back, f, "round-trip of {}", f.to_sop(8));
        assert_eq!(f.encoded_len(), bytes.len());
    }
}

#[test]
fn encode_decode_cross_manager() {
    let (m1, a, b, _) = mgr3();
    let f = a.and(&b.not()).or(&b.and(&a.not()));
    let bytes = f.encode();
    let m2 = BddManager::new();
    let g = m2.decode(&bytes).expect("decode");
    // Semantically identical: same truth table.
    for bits in 0..4u32 {
        assert_eq!(
            f.eval(|v| bits & (1 << v) != 0),
            g.eval(|v| bits & (1 << v) != 0)
        );
    }
    let _ = m1;
}

#[test]
fn decode_rejects_malformed() {
    use crate::DecodeError;
    let m = BddManager::new();
    assert_eq!(m.decode(&[]), Err(DecodeError::Truncated));
    // node_count=1 but no node bytes.
    assert_eq!(m.decode(&[1]), Err(DecodeError::Truncated));
    // forward reference: node 0 referencing wire ref 5.
    assert_eq!(m.decode(&[1, 0, 5, 1]), Err(DecodeError::ForwardReference));
    // trailing bytes after a valid constant.
    assert_eq!(m.decode(&[0, 1, 9]), Err(DecodeError::TrailingBytes));
    // order violation: parent var 3 over child var 3.
    let bytes = vec![2, 3, 0, 1, 3, 2, 1];
    assert_eq!(m.decode(&bytes), Err(DecodeError::OrderViolation));
}

/// A variable of 2^32 + 7 is a 5-byte varint; truncating it to `u32` would
/// decode as the valid single-node function `x7`.
#[test]
fn decode_rejects_a_variable_beyond_32_bits() {
    use crate::DecodeError;
    let m = BddManager::new();
    let bytes = [1, 0x87, 0x80, 0x80, 0x80, 0x10, 0, 1];
    assert_eq!(m.decode(&bytes), Err(DecodeError::OrderViolation));
    // The same node with the variable in range decodes.
    assert_eq!(m.decode(&[1, 7, 0, 1]), Ok(m.var(7)));
}

/// The encoding is the workspace varint codec's, byte for byte: node count,
/// then `(var, lo, hi)` child-first with two-byte varints where they are due.
#[test]
fn encoding_golden_bytes() {
    let m = BddManager::new();
    let f = m.var(3).and(&m.var(200)).or(&m.var(70_000));
    assert_eq!(
        f.encode(),
        [3, 0xf0, 0xa2, 0x04, 0, 1, 0xc8, 0x01, 2, 1, 3, 2, 3]
    );
    assert_eq!(m.decode(&f.encode()), Ok(f));
}

/// `encoded_len` counts what `encode` writes, also where a node count, a
/// variable or a child reference needs a two- or three-byte varint.
#[test]
fn encoded_len_counts_multi_byte_varints() {
    let m = BddManager::new();
    let mut f = m.zero();
    for i in 0..70u32 {
        // Each cube on its own stretch of the order: the sum stays linear.
        f = f.or(&m.cube([300 * i, 300 * i + 1, 300 * i + 2]));
        assert_eq!(f.encoded_len(), f.encode().len(), "after cube {i}");
    }
    assert!(f.dag_size() > 128, "references past one byte");
    assert_eq!(m.decode(&f.encode()), Ok(f));
}

#[test]
fn dag_size_counts_shared_nodes_once() {
    let (_, a, b, c) = mgr3();
    assert_eq!(a.dag_size(), 1);
    assert_eq!(a.and(&b).dag_size(), 2);
    // (a∧c) ∨ (b∧c) shares the c node.
    let f = a.and(&c).or(&b.and(&c));
    assert!(f.dag_size() <= 3, "sharing expected, got {}", f.dag_size());
}

#[test]
fn gc_preserves_live_handles() {
    let m = BddManager::new();
    let keep = m.var(0).and(&m.var(1)).or(&m.var(2));
    let before_sop = keep.to_sop(8);
    {
        // Create garbage.
        let mut junk = m.one();
        for v in 10..60 {
            junk = junk.and(&m.var(v));
        }
        assert!(m.stats().nodes > 50);
    }
    let reclaimed = m.gc();
    assert!(reclaimed > 0, "expected junk reclaimed");
    // Live handle still fully functional and identical.
    assert_eq!(keep.to_sop(8), before_sop);
    assert_eq!(keep.support(), vec![0, 1, 2]);
    let again = m.var(0).and(&m.var(1)).or(&m.var(2));
    assert_eq!(again, keep, "canonicity must survive GC");
}

#[test]
fn stats_track_cache_and_peak() {
    let m = BddManager::new();
    let a = m.var(0);
    let b = m.var(1);
    let _ = a.and(&b);
    let _ = a.and(&b); // second call hits terminal short-circuit or cache
    let s = m.stats();
    assert!(s.nodes >= 3);
    assert!(s.peak_nodes >= s.nodes);
    m.clear_caches();
    assert_eq!(m.stats().ite_cache_entries, 0);
}

#[test]
#[should_panic(expected = "different managers")]
fn cross_manager_ops_panic() {
    let m1 = BddManager::new();
    let m2 = BddManager::new();
    let _ = m1.var(0).and(&m2.var(0));
}

#[test]
fn handle_refcounts() {
    let m = BddManager::new();
    assert_eq!(m.live_handles(), 0);
    let a = m.var(0);
    let b = a.clone();
    assert_eq!(m.live_handles(), 2);
    drop(a);
    assert_eq!(m.live_handles(), 1);
    drop(b);
    assert_eq!(m.live_handles(), 0);
}

/// `nodes` counts what a collection has not reclaimed — not the slots those
/// nodes once took: a node made after a collection must not bring the
/// reclaimed ones back into the count.
#[test]
fn stats_nodes_stay_down_after_gc_then_mk() {
    let m = BddManager::new();
    // One operation each, so neither leaves garbage of its own behind.
    let junk = m.cube(10..60);
    // Made after the junk, so the freed slots lie below a live one.
    let keep = m.cube([0, 1]);
    drop(junk);
    let before = m.stats();
    assert_eq!(before.free_slots, 0, "nothing freed yet");
    assert_eq!(before.slots, before.nodes);
    let reclaimed = m.gc();
    assert_eq!(reclaimed, 50, "the junk cube is garbage");
    let fresh = m.var(999);
    let after = m.stats();
    assert_eq!(after.nodes, before.nodes - reclaimed + 1);
    assert_eq!(after.free_slots, reclaimed - 1, "the fresh node reused one");
    assert_eq!(after.slots, after.nodes + after.free_slots);
    assert_eq!(after.peak_nodes, before.nodes, "the peak is of `nodes`");
    drop((keep, fresh));
}

/// Giving back a reference nobody took is the bug that would let a
/// collection free a node some handle still points at; it must not pass.
#[test]
#[should_panic(expected = "reference count underflow")]
fn decref_underflow_panics() {
    let mut a = crate::arena::Arena::new();
    let n = a.mk_var(0);
    a.incref(n);
    a.decref(n);
    a.decref(n);
}

/// Stationary churn: a fixed working set of handles, each replaced every
/// round by a fresh function over 96 variables. Nobody calls `gc()`; the
/// arena has to collect by itself and hold its size.
#[test]
fn arena_collects_itself_under_stationary_churn() {
    const VARS: u64 = 96;
    let m = BddManager::new();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut cube = |m: &BddManager| m.cube((0..8).map(|_| (next() % VARS) as u32));
    let mut working: Vec<Bdd> = (0..16).map(|_| cube(&m)).collect();
    let mut slots_after = [0usize; 2];
    for round in 1..=200 {
        for slot in working.iter_mut() {
            *slot = cube(&m).or(&cube(&m));
        }
        match round {
            20 => slots_after[0] = m.stats().slots,
            200 => slots_after[1] = m.stats().slots,
            _ => {}
        }
    }
    let s = m.stats();
    assert!(s.gc_runs > 0, "the trigger never fired: {s:?}");
    assert!(
        slots_after[1] <= 2 * slots_after[0],
        "slots grew from {} (round 20) to {} (round 200)",
        slots_after[0],
        slots_after[1]
    );
    for f in &working {
        assert!(!f.is_false() && f.support().iter().all(|&v| u64::from(v) < VARS));
    }
}
