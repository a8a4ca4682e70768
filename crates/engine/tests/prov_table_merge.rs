//! Property test: `ProvTable`'s two insertion entry points are one merge.
//!
//! `merge_ins` returns the delta Store, Join and AggSel forward; `merge`
//! (MinShip's mirrors, Aggregate's contributors) returns only how the
//! insertion merged and, in absorption mode, never builds the delta. Two
//! absorption tables over one BDD manager are driven by the same random
//! program of inserts, cause-restricts and retracts — one through each entry
//! point — and after every step they must hold the same canonical
//! annotations, price them the same, and report the same outcomes.

use netrec_bdd::{Bdd, BddManager, Var};
use netrec_engine::ops::{DeleteOutcome, ProvTable, Restricted};
use netrec_prov::{Prov, ProvMode};
use netrec_types::{Tuple, Value};
use proptest::prelude::*;

const NVARS: u32 = 6;
const NTUPLES: i64 = 5;

/// A Boolean expression over `NVARS` variables. Negation is in the mix so
/// that unsatisfiable arrivals and non-monotone annotations occur too.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_bdd(m: &BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Not(a) => to_bdd(m, a).not(),
        Expr::And(a, b) => to_bdd(m, a).and(&to_bdd(m, b)),
        Expr::Or(a, b) => to_bdd(m, a).or(&to_bdd(m, b)),
    }
}

#[derive(Clone, Debug)]
enum Step {
    Insert(i64, Expr),
    RestrictCause(Vec<Var>),
    Retract(i64, Expr),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        (0u32..6, 0..NTUPLES),
        arb_expr(),
        proptest::collection::vec(0..NVARS, 1..3),
    )
        .prop_map(|((kind, t), e, vars)| match kind {
            0..=3 => Step::Insert(t, e),
            4 => Step::RestrictCause(vars),
            _ => Step::Retract(t, e),
        })
}

fn tuple(i: i64) -> Tuple {
    Tuple::new(vec![Value::Int(i)])
}

/// A retraction outcome as comparable data: whether it died, and the
/// annotation it carries.
fn retracted(o: DeleteOutcome) -> (bool, Bdd) {
    match o {
        DeleteOutcome::Died(p) => (true, p.bdd().clone()),
        DeleteOutcome::Shrunk(p) => (false, p.bdd().clone()),
    }
}

fn annotations(pt: &ProvTable) -> Vec<(Tuple, Bdd)> {
    let mut all: Vec<(Tuple, Bdd)> = pt
        .iter()
        .map(|(t, p)| (t.clone(), p.bdd().clone()))
        .collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

proptest! {
    #[test]
    fn merge_without_delta_matches_merge_ins(
        indexed in any::<bool>(),
        program in proptest::collection::vec(arb_step(), 1..32),
    ) {
        let m = BddManager::new();
        let mut with_delta = ProvTable::new(ProvMode::Absorption, indexed);
        let mut without = ProvTable::new(ProvMode::Absorption, indexed);
        for (i, step) in program.iter().enumerate() {
            match step {
                Step::Insert(t, e) => {
                    let prov = Prov::Bdd(to_bdd(&m, e));
                    let full = with_delta.merge_ins(&tuple(*t), &prov).merged();
                    let class = without.merge(&tuple(*t), &prov);
                    prop_assert_eq!(full, class, "step {}: {:?}", i, step);
                }
                Step::RestrictCause(vars) => {
                    let a: Vec<(Tuple, Restricted)> = with_delta.restrict_cause(vars);
                    let b = without.restrict_cause(vars);
                    prop_assert!(
                        a.windows(2).all(|w| w[0].0 < w[1].0),
                        "step {}: outcomes not in ascending tuple order", i
                    );
                    prop_assert_eq!(a, b, "step {}: {:?}", i, step);
                }
                Step::Retract(t, e) => {
                    let prov = Prov::Bdd(to_bdd(&m, e));
                    let a = with_delta.retract(&tuple(*t), &prov).map(retracted);
                    let b = without.retract(&tuple(*t), &prov).map(retracted);
                    prop_assert_eq!(a, b, "step {}: {:?}", i, step);
                }
            }
            prop_assert_eq!(annotations(&with_delta), annotations(&without), "step {}", i);
            prop_assert_eq!(with_delta.state_bytes(), without.state_bytes(), "step {}", i);
        }
    }
}
