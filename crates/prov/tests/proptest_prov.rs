//! Property tests for the provenance algebras: absorption (BDD) behaviour
//! under random derivation DAGs, agreement between relative provenance's
//! derivability verdicts and the Boolean semantics of the same derivations,
//! and the variable allocator's layout across peers.

use std::collections::{HashMap, HashSet};

use netrec_bdd::{Bdd, BddManager, Var};
use netrec_prov::absorption::ADDR_RANKS;
use netrec_prov::{RelProv, VarAllocator, VarTable};
use netrec_sim::{Partitioner, PeerId};
use netrec_types::{NetAddr, RelId, Tuple, Value};
use proptest::prelude::*;

/// A random monotone derivation structure: `n_base` base tuples, then a
/// sequence of derived nodes each produced by 1–2 rules over earlier nodes.
#[derive(Clone, Debug)]
struct DerivationDag {
    n_base: u32,
    /// For each derived node: alternative derivations, each a list of
    /// antecedent indices (negative space: 0..n_base are bases, then derived
    /// nodes in order).
    derived: Vec<Vec<Vec<usize>>>,
}

fn arb_dag() -> impl Strategy<Value = DerivationDag> {
    (2u32..6, 1usize..6).prop_flat_map(|(n_base, n_derived)| {
        let mut node_strategies = Vec::new();
        for d in 0..n_derived {
            let pool = n_base as usize + d;
            // 1..=2 alternative derivations, each with 1..=2 antecedents.
            let deriv = proptest::collection::vec(proptest::collection::vec(0..pool, 1..3), 1..3);
            node_strategies.push(deriv);
        }
        node_strategies.prop_map(move |derived| DerivationDag { n_base, derived })
    })
}

/// Build both representations of node `idx`'s provenance.
fn build(dag: &DerivationDag, mgr: &BddManager) -> (Vec<Bdd>, Vec<RelProv>) {
    let mut bdds: Vec<Bdd> = Vec::new();
    let mut rels: Vec<RelProv> = Vec::new();
    for v in 0..dag.n_base {
        bdds.push(mgr.var(v));
        rels.push(RelProv::base(v));
    }
    for (d, alts) in dag.derived.iter().enumerate() {
        let key_tuple = Tuple::new(vec![Value::Int(d as i64)]);
        let mut bdd_acc: Option<Bdd> = None;
        let mut rel_acc: Option<RelProv> = None;
        for (rule, ants) in alts.iter().enumerate() {
            let bdd_term = mgr.and_many(ants.iter().map(|&a| &bdds[a]));
            let ant_refs: Vec<&RelProv> = ants.iter().map(|&a| &rels[a]).collect();
            let rel_term = RelProv::derive(rule as u32, RelId(7), key_tuple.clone(), &ant_refs);
            bdd_acc = Some(match bdd_acc {
                None => bdd_term,
                Some(acc) => acc.or(&bdd_term),
            });
            rel_acc = Some(match rel_acc {
                None => rel_term,
                Some(acc) => acc.merge(&rel_term),
            });
        }
        bdds.push(bdd_acc.unwrap());
        rels.push(rel_acc.unwrap());
    }
    (bdds, rels)
}

/// One step of an ingress program: insert (`0`), delete (`1`) or delete
/// then re-insert (`2`) the base tuple `(key, tag)`, where `key_kind`
/// picks an in-range address, an address at or past [`ADDR_RANKS`], an
/// `Int` key or a `Str` key. `crash` rebuilds the owning peer's allocator
/// from its high-water mark before the step.
#[derive(Clone, Debug)]
struct Step {
    op: u32,
    key_kind: u32,
    key: u32,
    tag: u32,
    crash: bool,
}

fn arb_program() -> impl Strategy<Value = (u32, bool, Vec<Step>)> {
    let step = (0u32..3, (0u32..4, 0u32..40, 0u32..3), 0u32..16).prop_map(
        |(op, (key_kind, key, tag), crash)| Step {
            op,
            key_kind,
            key,
            tag,
            crash: crash == 0,
        },
    );
    (1u32..17, 0u32..2, proptest::collection::vec(step, 1..120))
        .prop_map(|(peers, hash, steps)| (peers, hash == 1, steps))
}

fn key_of(s: &Step) -> Value {
    match s.key_kind {
        0 => Value::Addr(NetAddr(s.key * 7)),
        1 => Value::Addr(NetAddr(ADDR_RANKS + s.key)),
        2 => Value::Int(i64::from(s.key)),
        _ => Value::str(format!("region-{}", s.key)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Peers allocate without coordination: each base tuple goes to the
    /// peer its partition value places it on, as at ingress. Every variable
    /// handed out — across peers, re-inserts and allocator restores — is
    /// distinct; an in-range address's variables lie in that address's
    /// block, so they sort address-major; every other key's lie in its
    /// peer's fallback block, below (deeper than) every address block.
    #[test]
    fn allocated_variables_are_distinct_and_address_major(program in arb_program()) {
        let (peers, hash, steps) = program;
        let part = if hash {
            Partitioner::Hash { peers }
        } else {
            Partitioner::Direct { peers }
        };
        let rel = RelId(0);
        let mut allocs: Vec<VarAllocator> = (0..peers).map(VarAllocator::new).collect();
        let mut tables: Vec<VarTable> = (0..peers).map(|_| VarTable::new()).collect();
        let mut seen: HashMap<Var, Value> = HashMap::new();
        let block = |v: Var| v / VarAllocator::CAPACITY;
        for s in &steps {
            let key = key_of(s);
            let PeerId(p) = part.place_value(Some(&key));
            let (alloc, table) = (&mut allocs[p as usize], &mut tables[p as usize]);
            if s.crash {
                *alloc = VarAllocator::with_allocated(p, alloc.allocated());
            }
            let tuple = Tuple::new(vec![key.clone(), Value::Int(i64::from(s.tag))]);
            let before = table.get(rel, &tuple);
            if s.op >= 1 {
                table.remove(rel, &tuple);
            }
            if s.op != 1 {
                if let Some(v) = table.insert(rel, tuple, Some(&key), alloc) {
                    prop_assert!(seen.insert(v, key.clone()).is_none(), "variable {} reused", v);
                    if let Some(old) = before {
                        prop_assert_eq!(block(old), block(v), "re-insert left its block");
                    }
                    match key {
                        Value::Addr(NetAddr(a)) if a < ADDR_RANKS => {
                            prop_assert_eq!(block(v), a);
                        }
                        _ => prop_assert_eq!(block(v), ADDR_RANKS + p),
                    }
                }
            }
        }
        // Address-major: sorting the in-range variables sorts their
        // addresses, and every fallback variable comes after them.
        let mut vars: Vec<(Var, &Value)> = seen.iter().map(|(v, k)| (*v, k)).collect();
        vars.sort();
        let ranks: Vec<u32> = vars
            .iter()
            .map(|(_, k)| match k {
                Value::Addr(NetAddr(a)) if *a < ADDR_RANKS => *a,
                _ => ADDR_RANKS,
            })
            .collect();
        prop_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "not address-major: {:?}", ranks);
    }

    /// For every node and every base-deletion set, relative provenance's
    /// derivability verdict must equal the absorption BDD's "restrict the
    /// dead vars to false, check non-false" — the two algebras must agree on
    /// which tuples survive.
    #[test]
    fn relative_and_absorption_agree_on_derivability(
        dag in arb_dag(),
        dead_mask in any::<u32>(),
    ) {
        let mgr = BddManager::new();
        let (bdds, rels) = build(&dag, &mgr);
        let dead: HashSet<Var> =
            (0..dag.n_base).filter(|v| dead_mask & (1 << v) != 0).collect();
        let dead_list: Vec<Var> = dead.iter().copied().collect();
        for i in 0..bdds.len() {
            let bdd_alive = !bdds[i].restrict_all_false(&dead_list).is_false();
            let rel_alive = rels[i].kill_vars(&dead).is_some();
            prop_assert_eq!(
                bdd_alive, rel_alive,
                "node {} disagrees (dead = {:?})", i, dead
            );
        }
    }

    /// Killing variables is monotone for relative provenance: a survivor of
    /// a larger deletion set also survives every subset.
    #[test]
    fn kill_vars_is_monotone(dag in arb_dag(), mask in any::<u32>()) {
        let mgr = BddManager::new();
        let (_, rels) = build(&dag, &mgr);
        let all: HashSet<Var> = (0..dag.n_base).filter(|v| mask & (1 << v) != 0).collect();
        let half: HashSet<Var> = all.iter().copied().take(all.len() / 2).collect();
        for rel in &rels {
            if rel.kill_vars(&all).is_some() {
                prop_assert!(rel.kill_vars(&half).is_some());
            }
        }
    }

    /// The encoded length of a relative annotation dominates the absorption
    /// annotation built from the same derivations (the paper's Fig. 7a
    /// ordering).
    #[test]
    fn relative_encodes_larger_than_absorption(dag in arb_dag()) {
        let mgr = BddManager::new();
        let (bdds, rels) = build(&dag, &mgr);
        // Compare the final (deepest) derived node.
        let last = bdds.len() - 1;
        if last >= dag.n_base as usize {
            prop_assert!(rels[last].encoded_len() >= bdds[last].encoded_len());
        }
    }
}
