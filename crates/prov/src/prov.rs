//! The tagged provenance union carried on every update.

use std::sync::Arc;

use netrec_bdd::{Bdd, BddManager, Var};

use crate::relative::RelProv;

/// Which maintenance scheme a run uses. Determines the [`Prov`] variant on
/// every update and how the stateful operators process deletions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProvMode {
    /// Plain set semantics: no annotations. Deletions cannot be maintained
    /// incrementally (DRed's two-phase protocol sits on top of this mode).
    Set,
    /// Absorption provenance over BDDs (the paper's contribution).
    Absorption,
    /// Relative provenance derivation graphs (the heavier baseline).
    Relative,
}

/// A provenance annotation.
///
/// Arithmetic is variant-homogeneous: the engine fixes one [`ProvMode`] per
/// run, so mixing variants is a logic error and panics loudly.
#[derive(Clone, Debug)]
pub enum Prov {
    /// No annotation (set semantics / DRed).
    None,
    /// Absorption provenance: a Boolean function of base variables, as a
    /// handle into the BDD manager of the peer holding it. A handle never
    /// leaves that peer.
    Bdd(Bdd),
    /// Absorption provenance off its peer: the canonical encoding
    /// ([`Bdd::encode`]) of the function. Made where a batch leaves for
    /// another peer ([`Prov::into_wire`]), carried verbatim by whatever is in
    /// between, and turned back into a [`Prov::Bdd`] in the receiver's own
    /// manager before any operator sees it — so the algebra below treats it
    /// like any other mismatched variant and panics.
    Wire(Arc<[u8]>),
    /// Relative provenance: a derivation graph. `Arc` because annotations are
    /// immutable and shared between operator state and in-flight updates.
    Rel(Arc<RelProv>),
}

impl Prov {
    /// Annotation of a freshly inserted base tuple under `mode`.
    pub fn base(mode: ProvMode, var: Var, mgr: &BddManager) -> Prov {
        match mode {
            ProvMode::Set => Prov::None,
            ProvMode::Absorption => Prov::Bdd(mgr.var(var)),
            ProvMode::Relative => Prov::Rel(Arc::new(RelProv::base(var))),
        }
    }

    /// Conjunction — the provenance of a join result (Fig. 6).
    ///
    /// For relative provenance the conjunction is *deferred*: the join passes
    /// both annotations onward and the rule-head stage calls
    /// [`RelProv::derive`] with all antecedents, so this method only handles
    /// the algebraic modes and panics for `Rel` (callers must use
    /// [`Prov::rel_derive`]).
    pub fn and(&self, other: &Prov) -> Prov {
        match (self, other) {
            (Prov::None, Prov::None) => Prov::None,
            (Prov::Bdd(a), Prov::Bdd(b)) => Prov::Bdd(a.and(b)),
            (a, b) => panic!("Prov::and on mismatched/unsupported variants {a:?} vs {b:?}"),
        }
    }

    /// Disjunction — merging an alternative derivation of the same tuple.
    pub fn or(&self, other: &Prov) -> Prov {
        match (self, other) {
            (Prov::None, Prov::None) => Prov::None,
            (Prov::Bdd(a), Prov::Bdd(b)) => Prov::Bdd(a.or(b)),
            (Prov::Rel(a), Prov::Rel(b)) => Prov::Rel(Arc::new(a.merge(b))),
            (a, b) => panic!("Prov::or on mismatched variants {a:?} vs {b:?}"),
        }
    }

    /// Relative-provenance rule firing: head tuple derived from antecedents.
    pub fn rel_derive(
        rule: u32,
        rel: netrec_types::RelId,
        tuple: netrec_types::Tuple,
        antecedents: &[&Prov],
    ) -> Prov {
        let ants: Vec<&RelProv> = antecedents
            .iter()
            .map(|p| match p {
                Prov::Rel(r) => r.as_ref(),
                other => panic!("rel_derive antecedent is not relative provenance: {other:?}"),
            })
            .collect();
        Prov::Rel(Arc::new(RelProv::derive(rule, rel, tuple, &ants)))
    }

    /// `true` iff this annotation proves nothing: an absorption BDD that
    /// collapsed to constant `false`. The provenance algebra is positive —
    /// AND/OR of live annotations stays live — but join *deltas* are
    /// differences (`new ∧ ¬old`, [`Bdd::diff`]), and a delta conjoined
    /// with the other side's annotation can annihilate. Such an annotation
    /// describes zero derivations: it must never be stored or shipped as an
    /// insertion, because a receiver that already retracted the tuple would
    /// resurrect it as a view key whose annotation no cause restriction can
    /// ever reach (constant `false` depends on no variable). Relative
    /// annotations are negation-free and cannot go unsatisfiable.
    pub fn is_unsatisfiable(&self) -> bool {
        matches!(self, Prov::Bdd(b) if b.is_false())
    }

    /// The BDD inside an absorption annotation; panics otherwise.
    pub fn bdd(&self) -> &Bdd {
        match self {
            Prov::Bdd(b) => b,
            other => panic!("expected absorption provenance, got {other:?}"),
        }
    }

    /// The graph inside a relative annotation; panics otherwise.
    pub fn rel(&self) -> &RelProv {
        match self {
            Prov::Rel(r) => r,
            other => panic!("expected relative provenance, got {other:?}"),
        }
    }

    /// Bytes this annotation adds to a shipped tuple — the paper's
    /// "per-tuple provenance overhead" metric. `None` is one tag byte.
    pub fn encoded_len(&self) -> usize {
        match self {
            Prov::None => 1,
            Prov::Bdd(b) => 1 + b.encoded_len(),
            Prov::Wire(bytes) => 1 + bytes.len(),
            Prov::Rel(r) => 1 + r.encoded_len(),
        }
    }

    /// The form this annotation has off its peer: a [`Prov::Bdd`] becomes
    /// the [`Prov::Wire`] of its encoding (same [`Prov::encoded_len`], now
    /// read off the bytes); every other variant is a value type already.
    /// Call it on the thread that owns the handle's manager.
    pub fn into_wire(self) -> Prov {
        match self {
            Prov::Bdd(b) => Prov::Wire(b.encode().into()),
            other => other,
        }
    }

    /// Copy an absorption annotation — handle or wire form — into `target`;
    /// other variants are value types and pass through unchanged. The engine
    /// does not call this: a peer decodes what arrives for it itself
    /// (`EnginePeer::sanitize`). It stays for tests that read a shipped
    /// annotation and for the frozen `benchmark/src/kernels.rs`, which
    /// harvests view annotations into a manager of its own, and leaves with
    /// that caller when ROADMAP item 1 unfreezes `benchmark/`.
    pub fn reanchor(&self, target: &BddManager) -> Prov {
        let decode =
            |bytes: &[u8]| Prov::Bdd(target.decode(bytes).expect("well-formed annotation"));
        match self {
            Prov::Bdd(b) => decode(&b.encode()),
            Prov::Wire(bytes) => decode(bytes),
            other => other.clone(),
        }
    }

    /// Is this annotation dead (tuple no longer derivable)? `None` never
    /// reports dead (set semantics has no liveness information).
    pub fn is_dead(&self) -> bool {
        match self {
            Prov::None => false,
            Prov::Bdd(b) => b.is_false(),
            Prov::Wire(_) => panic!("wire-form annotation asked a question before it landed"),
            Prov::Rel(_) => false, // death decided by RelProv::kill_vars
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_types::{RelId, Tuple, Value};

    #[test]
    fn base_per_mode() {
        let mgr = BddManager::new();
        assert!(matches!(Prov::base(ProvMode::Set, 0, &mgr), Prov::None));
        assert_eq!(Prov::base(ProvMode::Absorption, 3, &mgr).bdd(), &mgr.var(3));
        assert_eq!(
            Prov::base(ProvMode::Relative, 3, &mgr).rel().support(),
            vec![3]
        );
    }

    #[test]
    fn algebra_per_mode() {
        let mgr = BddManager::new();
        let a = Prov::base(ProvMode::Absorption, 1, &mgr);
        let b = Prov::base(ProvMode::Absorption, 2, &mgr);
        assert_eq!(a.and(&b).bdd(), &mgr.var(1).and(&mgr.var(2)));
        assert_eq!(a.or(&b).bdd(), &mgr.var(1).or(&mgr.var(2)));
        assert!(matches!(Prov::None.and(&Prov::None), Prov::None));
    }

    #[test]
    fn rel_derive_and_or() {
        let mgr = BddManager::new();
        let a = Prov::base(ProvMode::Relative, 1, &mgr);
        let b = Prov::base(ProvMode::Relative, 2, &mgr);
        let t = Tuple::new(vec![Value::Int(9)]);
        let d1 = Prov::rel_derive(0, RelId(5), t.clone(), &[&a, &b]);
        let d2 = Prov::rel_derive(1, RelId(5), t, &[&a]);
        let both = d1.or(&d2);
        assert_eq!(both.rel().support(), vec![1, 2]);
    }

    #[test]
    fn encoded_len_ordering_matches_paper() {
        // relative annotations are strictly larger than absorption for the
        // same derivation — the paper's Fig. 7a in miniature.
        let mgr = BddManager::new();
        let abs = Prov::base(ProvMode::Absorption, 1, &mgr).and(&Prov::base(
            ProvMode::Absorption,
            2,
            &mgr,
        ));
        let a = Prov::base(ProvMode::Relative, 1, &mgr);
        let b = Prov::base(ProvMode::Relative, 2, &mgr);
        let rel = Prov::rel_derive(0, RelId(1), Tuple::new(vec![Value::Int(1)]), &[&a, &b]);
        assert!(rel.encoded_len() > abs.encoded_len());
        assert!(Prov::None.encoded_len() < abs.encoded_len());
    }

    #[test]
    fn reanchor_moves_between_managers() {
        let m1 = BddManager::new();
        let m2 = BddManager::new();
        let p = Prov::Bdd(m1.var(4).or(&m1.var(5)));
        let q = p.reanchor(&m2);
        assert_eq!(q.bdd(), &m2.var(4).or(&m2.var(5)));
        // The wire form lands the same way, and costs what the handle did.
        let w = p.clone().into_wire();
        assert!(matches!(&w, Prov::Wire(bytes) if bytes[..] == p.bdd().encode()[..]));
        assert_eq!(w.encoded_len(), p.encoded_len());
        assert_eq!(w.reanchor(&m2).bdd(), q.bdd());
    }

    #[test]
    fn is_dead() {
        let mgr = BddManager::new();
        assert!(Prov::Bdd(mgr.zero()).is_dead());
        assert!(!Prov::Bdd(mgr.var(1)).is_dead());
        assert!(!Prov::None.is_dead());
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mixed_variants_panic() {
        let mgr = BddManager::new();
        let _ = Prov::None.or(&Prov::Bdd(mgr.one()));
    }
}
