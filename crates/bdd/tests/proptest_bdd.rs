//! Property tests: random Boolean expressions over ≤ 8 variables are built
//! both as BDDs and as brute-force truth tables; every operation must agree,
//! and serialisation must round-trip — also in one long-lived manager whose
//! collections hand freed node slots to later builds.

use netrec_bdd::{check_encoding, Bdd, BddManager};
use proptest::prelude::*;

const NVARS: u32 = 8;

/// A tiny expression AST mirrored into both representations.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_bdd(m: &BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Not(a) => to_bdd(m, a).not(),
        Expr::And(a, b) => to_bdd(m, a).and(&to_bdd(m, b)),
        Expr::Or(a, b) => to_bdd(m, a).or(&to_bdd(m, b)),
        Expr::Xor(a, b) => to_bdd(m, a).xor(&to_bdd(m, b)),
    }
}

fn eval_expr(e: &Expr, bits: u32) -> bool {
    match e {
        Expr::Var(v) => bits & (1 << v) != 0,
        Expr::Not(a) => !eval_expr(a, bits),
        Expr::And(a, b) => eval_expr(a, bits) && eval_expr(b, bits),
        Expr::Or(a, b) => eval_expr(a, bits) || eval_expr(b, bits),
        Expr::Xor(a, b) => eval_expr(a, bits) ^ eval_expr(b, bits),
    }
}

fn truth_table(f: &Bdd) -> Vec<bool> {
    (0..(1u32 << NVARS))
        .map(|bits| f.eval(|v| bits & (1 << v) != 0))
        .collect()
}

/// One step of a program over a single long-lived manager.
#[derive(Clone, Debug)]
enum Step {
    /// Build the expression and keep its handle.
    Build(Expr),
    /// Drop the kept handle at this index (modulo how many there are).
    Drop(usize),
    /// Collect: every slot no kept handle reaches becomes reusable.
    Gc,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u32..4, arb_expr(), any::<usize>()).prop_map(|(kind, e, i)| match kind {
        0 | 1 => Step::Build(e),
        2 => Step::Drop(i),
        _ => Step::Gc,
    })
}

fn expr_table(e: &Expr) -> Vec<bool> {
    (0..(1u32 << NVARS))
        .map(|bits| eval_expr(e, bits))
        .collect()
}

proptest! {
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        for bits in 0..(1u32 << NVARS) {
            prop_assert_eq!(f.eval(|v| bits & (1 << v) != 0), eval_expr(&e, bits));
        }
    }

    #[test]
    fn canonicity_semantic_eq_is_handle_eq(a in arb_expr(), b in arb_expr()) {
        let m = BddManager::new();
        let fa = to_bdd(&m, &a);
        let fb = to_bdd(&m, &b);
        let same_semantics = (0..(1u32 << NVARS))
            .all(|bits| eval_expr(&a, bits) == eval_expr(&b, bits));
        prop_assert_eq!(fa == fb, same_semantics);
    }

    #[test]
    fn restrict_false_matches_semantics(e in arb_expr(), v in 0..NVARS) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        let r = f.restrict_false(v);
        for bits in 0..(1u32 << NVARS) {
            let forced = bits & !(1 << v);
            prop_assert_eq!(
                r.eval(|x| bits & (1 << x) != 0),
                eval_expr(&e, forced)
            );
        }
        // Restricted function no longer depends on v.
        prop_assert!(!r.depends_on(v));
    }

    /// `restrict_all_false` is one pass over the DAG; it must equal one
    /// `restrict_false` per variable, however the variables are given.
    #[test]
    fn restrict_all_false_matches_the_fold(
        e in arb_expr(),
        vs in proptest::collection::vec(0..NVARS + 2, 0..7),
    ) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        let folded = vs.iter().fold(f.clone(), |acc, &v| acc.restrict_false(v));
        prop_assert_eq!(&f.restrict_all_false(&vs), &folded);
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&f.restrict_all_false(&sorted), &folded);
    }

    /// `diff` and `implies` work on the two operands without building
    /// `¬b`; they must still be `a ∧ ¬b` and "no assignment has a ∧ ¬b".
    #[test]
    fn diff_and_implies_match_truth_table(a in arb_expr(), b in arb_expr()) {
        let m = BddManager::new();
        let fa = to_bdd(&m, &a);
        let fb = to_bdd(&m, &b);
        let diff = fa.diff(&fb);
        prop_assert_eq!(&diff, &fa.and(&fb.not()));
        let implied = (0..(1u32 << NVARS)).all(|bits| !eval_expr(&a, bits) || eval_expr(&b, bits));
        prop_assert_eq!(fa.implies(&fb), implied);
        prop_assert_eq!(diff.is_false(), implied);
        // Asked again, the answer comes from the computed table.
        prop_assert_eq!(fa.implies(&fb), implied);
    }

    #[test]
    fn sat_count_matches_truth_table(e in arb_expr()) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        let expected = truth_table(&f).iter().filter(|&&b| b).count() as f64;
        prop_assert_eq!(f.sat_count(NVARS), expected);
    }

    #[test]
    fn encode_decode_identity(e in arb_expr()) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        let bytes = f.encode();
        prop_assert_eq!(&m.decode(&bytes).unwrap(), &f);
        // Cross-manager decode preserves semantics.
        let m2 = BddManager::new();
        let g = m2.decode(&bytes).unwrap();
        prop_assert_eq!(truth_table(&f), truth_table(&g));
    }

    #[test]
    fn decode_never_panics_on_junk(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let m = BddManager::new();
        // Must return Ok or Err, never panic — and the manager-free check
        // gives the same verdict.
        prop_assert_eq!(check_encoding(&bytes), m.decode(&bytes).map(|_| ()));
    }

    /// A transport validates with `check_encoding` what a peer later builds
    /// with `decode`: on every prefix of a real encoding, and on every byte
    /// of it bumped, cleared, saturated or with its continuation bit
    /// flipped, the two agree — accept together, or fail with the same error.
    #[test]
    fn check_encoding_agrees_with_decode_on_damaged_encodings(e in arb_expr()) {
        let m = BddManager::new();
        let bytes = to_bdd(&m, &e).encode();
        let scratch = BddManager::new();
        let agree = |b: &[u8]| check_encoding(b) == scratch.decode(b).map(|_| ());
        prop_assert_eq!(check_encoding(&bytes), Ok(()));
        for cut in 0..bytes.len() {
            prop_assert!(agree(&bytes[..cut]), "prefix {}", cut);
            prop_assert!(check_encoding(&bytes[..cut]).is_err(), "prefix {} accepted", cut);
        }
        for i in 0..bytes.len() {
            for damaged in [bytes[i].wrapping_add(1), 0, 0xff, bytes[i] ^ 0x80] {
                let mut b = bytes.clone();
                b[i] = damaged;
                prop_assert!(agree(&b), "byte {} := {}", i, damaged);
            }
        }
    }

    #[test]
    fn absorption_or_of_superset_cube(vars in proptest::collection::btree_set(0..NVARS, 1..5), extra in 0..NVARS) {
        // cube(S) ∨ cube(S ∪ {x}) == cube(S): the paper's absorption rule.
        let m = BddManager::new();
        let base: Vec<u32> = vars.iter().copied().collect();
        let mut sup = base.clone();
        sup.push(extra);
        let c1 = m.cube(base.clone());
        let c2 = m.cube(sup);
        prop_assert_eq!(c1.or(&c2), c1);
    }

    #[test]
    fn gc_preserves_semantics(e in arb_expr()) {
        let m = BddManager::new();
        let f = to_bdd(&m, &e);
        let before = truth_table(&f);
        // Generate garbage then collect.
        for v in 20..40 {
            let _ = m.var(v).and(&m.var(v + 1));
        }
        m.gc();
        prop_assert_eq!(truth_table(&f), before);
    }

    /// Builds, handle drops and collections interleaved in one manager, so
    /// later builds land in slots earlier ones gave up. After every step each
    /// surviving handle still denotes its function, is still the canonical
    /// node for it, and neither the computed table nor a visit stamp answers
    /// for a previous tenant of its id.
    #[test]
    fn recycled_slots_keep_surviving_handles_intact(
        program in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let m = BddManager::new();
        let mut kept: Vec<(Expr, Bdd)> = Vec::new();
        for step in program {
            match step {
                Step::Build(e) => {
                    let f = to_bdd(&m, &e);
                    // Warm the length memo for an id that may be freed later.
                    prop_assert_eq!(f.encoded_len(), f.encode().len());
                    kept.push((e, f));
                }
                Step::Drop(i) if !kept.is_empty() => {
                    kept.swap_remove(i % kept.len());
                }
                Step::Drop(_) => {}
                Step::Gc => {
                    m.gc();
                }
            }
            let s = m.stats();
            prop_assert_eq!(s.slots, s.nodes + s.free_slots);
            for (e, f) in &kept {
                prop_assert_eq!(truth_table(f), expr_table(e));
                prop_assert_eq!(&to_bdd(&m, e), f);
                let bytes = f.encode();
                prop_assert_eq!(f.encoded_len(), bytes.len());
                // Decoded into its own manager, a surviving root finds each of
                // its nodes in the unique table: the same id (handles compare
                // ids), and no node made beside what a collection reclaimed.
                let before = m.stats();
                prop_assert_eq!(&m.decode(&bytes).unwrap(), f);
                let after = m.stats();
                let reclaimed = (after.gc_reclaimed - before.gc_reclaimed) as usize;
                prop_assert_eq!(after.nodes + reclaimed, before.nodes);
                // The walks, against the truth table and against the same
                // function in an arena that never recycled a slot.
                let table = expr_table(e);
                let support: Vec<u32> = (0..NVARS)
                    .filter(|v| (0..table.len()).any(|bits| table[bits] != table[bits ^ (1 << v)]))
                    .collect();
                prop_assert_eq!(&f.support(), &support);
                for v in 0..NVARS {
                    prop_assert_eq!(f.depends_on(v), support.contains(&v));
                }
                prop_assert_eq!(f.dag_size(), to_bdd(&BddManager::new(), e).dag_size());
            }
        }
        drop(kept);
        m.gc();
        prop_assert_eq!(m.stats().nodes, 2);
        prop_assert_eq!(m.live_handles(), 0);
    }
}
