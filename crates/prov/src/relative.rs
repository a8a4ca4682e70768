//! Relative provenance: self-contained AND-OR derivation graphs.
//!
//! Each annotation records, for the tuple it is attached to, *every known
//! derivation* as a graph whose leaves are base-tuple variables and whose
//! interior nodes are derived tuples with one or more alternative derivations
//! (OR) each consisting of a rule id and its antecedents (AND).
//!
//! Contrast with absorption provenance: the graph preserves rule structure
//! and intermediate tuples, so annotations grow with derivation depth and
//! fan-in, and testing derivability after a deletion is a least-fixpoint
//! traversal instead of a BDD restrict. These are precisely the costs the
//! paper measures (Figs. 7–8: larger per-tuple sizes, more state, slower
//! deletion convergence than absorption — but still far better than DRed).
//!
//! Cycles can appear when annotations of mutually-derived tuples merge over
//! time; the least-fixpoint derivability check is well-founded, so cyclic
//! self-support never counts as derivable.

use std::collections::HashSet;
use std::hash::BuildHasher;

use netrec_types::FxHashMap;

use netrec_bdd::Var;
use netrec_types::{wire, RelId, Tuple};

/// Node identity inside an annotation graph.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum NodeKey {
    /// A base (EDB) tuple, identified by its provenance variable.
    Base(Var),
    /// A derived tuple (or an operator-internal conjunction), identified by
    /// relation and tuple value.
    Derived(RelId, Tuple),
}

#[derive(Clone, Debug)]
struct Node {
    key: NodeKey,
    /// Alternative derivations: `(rule id, antecedent node indices)`.
    /// Empty for base nodes.
    derivs: Vec<(u32, Vec<u32>)>,
}

/// A relative-provenance annotation: an immutable AND-OR derivation graph
/// with a distinguished root (the annotated tuple).
#[derive(Clone, Debug)]
pub struct RelProv {
    nodes: Vec<Node>,
    index: FxHashMap<NodeKey, u32>,
    root: u32,
}

impl RelProv {
    /// Annotation of a base tuple.
    pub fn base(var: Var) -> RelProv {
        let key = NodeKey::Base(var);
        let mut index = FxHashMap::default();
        index.insert(key.clone(), 0);
        RelProv {
            nodes: vec![Node {
                key,
                derivs: Vec::new(),
            }],
            index,
            root: 0,
        }
    }

    /// Annotation of a tuple derived in one rule firing from `antecedents`.
    pub fn derive(rule: u32, rel: RelId, tuple: Tuple, antecedents: &[&RelProv]) -> RelProv {
        let mut out = RelProv {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            root: 0,
        };
        let mut ant_roots = Vec::with_capacity(antecedents.len());
        for ant in antecedents {
            ant_roots.push(out.absorb(ant));
        }
        let root_key = NodeKey::Derived(rel, tuple);
        let root = out.intern(root_key);
        out.add_deriv(root, rule, ant_roots);
        out.root = root;
        out
    }

    /// OR-merge two annotations of the *same* tuple (alternative
    /// derivations). Panics if the roots differ — the engine only merges
    /// annotations keyed by identical view tuples.
    pub fn merge(&self, other: &RelProv) -> RelProv {
        assert_eq!(
            self.nodes[self.root as usize].key, other.nodes[other.root as usize].key,
            "merged annotations must describe the same tuple"
        );
        let mut out = self.clone();
        let other_root = out.absorb(other);
        debug_assert_eq!(other_root, out.root);
        out
    }

    /// The tuple this annotation describes when its root is a derived one;
    /// `None` for a base-tuple root.
    pub fn root_tuple(&self) -> Option<(RelId, &Tuple)> {
        match &self.nodes[self.root as usize].key {
            NodeKey::Derived(rel, tuple) => Some((*rel, tuple)),
            NodeKey::Base(_) => None,
        }
    }

    /// Whether merging `other` into `self` would add any new derivation —
    /// the relative-provenance analogue of MinShip's absorption test.
    pub fn would_change(&self, other: &RelProv) -> bool {
        // Cheap over-approximation: graphs differ in node set or derivation
        // count. Exact graph isomorphism is unnecessary — keys are canonical.
        if other.nodes.len() > self.nodes.len() {
            return true;
        }
        for node in &other.nodes {
            match self.index.get(&node.key) {
                None => return true,
                Some(&i) => {
                    let mine = &self.nodes[i as usize];
                    for d in &node.derivs {
                        let remapped: Option<Vec<u32>> =
                            d.1.iter()
                                .map(|&a| self.index.get(&other.nodes[a as usize].key).copied())
                                .collect();
                        match remapped {
                            None => return true,
                            Some(refs) => {
                                if !mine
                                    .derivs
                                    .iter()
                                    .any(|(r, ants)| *r == d.0 && *ants == refs)
                                {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Apply a batch of base deletions: derivations that can no longer be
    /// grounded in live base tuples are discarded. Returns `None` when the
    /// root itself is no longer derivable (the tuple leaves the view).
    pub fn kill_vars<S: BuildHasher>(&self, dead: &HashSet<Var, S>) -> Option<RelProv> {
        let alive = self.derivable_set(dead);
        if !alive[self.root as usize] {
            return None;
        }
        // Rebuild keeping only derivable nodes and fully-alive derivations.
        let mut out = RelProv {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            root: 0,
        };
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        for (i, node) in self.nodes.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let ni = out.intern(node.key.clone());
            remap.insert(i as u32, ni);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let ni = remap[&(i as u32)];
            for (rule, ants) in &node.derivs {
                if ants.iter().all(|a| alive[*a as usize]) {
                    let refs: Vec<u32> = ants.iter().map(|a| remap[a]).collect();
                    out.add_deriv(ni, *rule, refs);
                }
            }
        }
        out.root = remap[&self.root];
        Some(out)
    }

    /// Does this annotation depend on any of the given variables?
    pub fn mentions_any<S: BuildHasher>(&self, vars: &HashSet<Var, S>) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(&n.key, NodeKey::Base(v) if vars.contains(v)))
    }

    /// All base variables appearing anywhere in the graph.
    pub fn support(&self) -> Vec<Var> {
        let mut vs: Vec<Var> = self
            .nodes
            .iter()
            .filter_map(|n| match n.key {
                NodeKey::Base(v) => Some(v),
                _ => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Number of graph nodes (size metric numerator).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Wire size of the serialised graph: this is what relative provenance
    /// ships with each tuple, and it dominates the paper's per-tuple size
    /// comparison.
    pub fn encoded_len(&self) -> usize {
        let mut n = wire::varint_len(self.nodes.len() as u64);
        for node in &self.nodes {
            n += match &node.key {
                NodeKey::Base(v) => 1 + wire::varint_len(u64::from(*v)),
                NodeKey::Derived(rel, tuple) => {
                    1 + wire::varint_len(u64::from(rel.0)) + tuple.encoded_len()
                }
            };
            n += wire::varint_len(node.derivs.len() as u64);
            for (rule, ants) in &node.derivs {
                n += wire::varint_len(u64::from(*rule));
                n += wire::varint_len(ants.len() as u64);
                n += ants
                    .iter()
                    .map(|a| wire::varint_len(u64::from(*a)))
                    .sum::<usize>();
            }
        }
        n
    }

    /// Serialise the graph in the exact layout [`RelProv::encoded_len`]
    /// accounts for, plus a trailing root-index varint (the root is implied
    /// on the wire — the receiver knows which tuple the annotation rides
    /// with — but a checkpoint restores the graph standalone). Appends
    /// `encoded_len() + varint_len(root)` bytes to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.nodes.len() as u64);
        for node in &self.nodes {
            match &node.key {
                NodeKey::Base(v) => {
                    out.push(0);
                    wire::put_varint(out, u64::from(*v));
                }
                NodeKey::Derived(rel, tuple) => {
                    out.push(1);
                    wire::put_varint(out, u64::from(rel.0));
                    wire::put_tuple(out, tuple);
                }
            }
            wire::put_varint(out, node.derivs.len() as u64);
            for (rule, ants) in &node.derivs {
                wire::put_varint(out, u64::from(*rule));
                wire::put_varint(out, ants.len() as u64);
                for a in ants {
                    wire::put_varint(out, u64::from(*a));
                }
            }
        }
        wire::put_varint(out, u64::from(self.root));
    }

    /// Decode a graph serialised by [`RelProv::encode`], consuming exactly
    /// its bytes from `buf`. Every structural invariant is checked *before*
    /// the graph is returned — bad tags, out-of-range node indices, and
    /// duplicate node keys all fail loudly — so a corrupted checkpoint can
    /// never half-apply.
    pub fn decode(buf: &mut &[u8]) -> Result<RelProv, wire::WireError> {
        let count = wire::get_varint(buf)? as usize;
        if count == 0 {
            return Err(wire::WireError::Corrupt("relative graph with no nodes"));
        }
        if count > buf.len() {
            // Each node costs ≥ 1 byte; bound before allocating.
            return Err(wire::WireError::Truncated);
        }
        let mut out = RelProv {
            nodes: Vec::with_capacity(count),
            index: FxHashMap::default(),
            root: 0,
        };
        let mut pending: Vec<(u32, u32, Vec<u32>)> = Vec::new();
        for i in 0..count {
            if buf.is_empty() {
                return Err(wire::WireError::Truncated);
            }
            let tag = buf[0];
            *buf = &buf[1..];
            let key = match tag {
                0 => NodeKey::Base(wire::get_u32(buf)?),
                1 => {
                    let raw = wire::get_varint(buf)?;
                    if raw > u64::from(u16::MAX) {
                        return Err(wire::WireError::Corrupt("relation id out of range"));
                    }
                    let rel = RelId(raw as u16);
                    NodeKey::Derived(rel, wire::get_tuple(buf)?)
                }
                t => return Err(wire::WireError::BadTag(t)),
            };
            let ni = out.intern(key);
            if ni as usize != i {
                return Err(wire::WireError::Corrupt("duplicate relative graph node"));
            }
            let nderivs = wire::get_varint(buf)? as usize;
            if nderivs > buf.len() {
                return Err(wire::WireError::Truncated);
            }
            for _ in 0..nderivs {
                let rule = wire::get_u32(buf)?;
                let nants = wire::get_varint(buf)? as usize;
                if nants > buf.len() {
                    return Err(wire::WireError::Truncated);
                }
                let mut ants = Vec::with_capacity(nants);
                for _ in 0..nants {
                    let a = wire::get_varint(buf)?;
                    // Cycles make forward references legal, so validation
                    // is against the *declared* count, deferred until every
                    // node is interned.
                    if a >= count as u64 {
                        return Err(wire::WireError::Corrupt(
                            "relative graph antecedent out of range",
                        ));
                    }
                    ants.push(a as u32);
                }
                pending.push((i as u32, rule, ants));
            }
        }
        for (node, rule, ants) in pending {
            out.add_deriv(node, rule, ants);
        }
        let root = wire::get_varint(buf)?;
        if root >= count as u64 {
            return Err(wire::WireError::Corrupt("relative graph root out of range"));
        }
        out.root = root as u32;
        Ok(out)
    }

    // ---- internals ------------------------------------------------------

    fn intern(&mut self, key: NodeKey) -> u32 {
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.nodes.len() as u32;
        self.index.insert(key.clone(), i);
        self.nodes.push(Node {
            key,
            derivs: Vec::new(),
        });
        i
    }

    fn add_deriv(&mut self, node: u32, rule: u32, ants: Vec<u32>) {
        let derivs = &mut self.nodes[node as usize].derivs;
        if !derivs.iter().any(|(r, a)| *r == rule && *a == ants) {
            derivs.push((rule, ants));
        }
    }

    /// Copy `other`'s graph into `self`, returning the index of `other`'s
    /// root in `self`.
    fn absorb(&mut self, other: &RelProv) -> u32 {
        let mut remap: Vec<u32> = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            remap.push(self.intern(node.key.clone()));
        }
        for (i, node) in other.nodes.iter().enumerate() {
            for (rule, ants) in &node.derivs {
                let refs: Vec<u32> = ants.iter().map(|&a| remap[a as usize]).collect();
                self.add_deriv(remap[i], *rule, refs);
            }
        }
        remap[other.root as usize]
    }

    /// Least fixpoint of "derivable from live base tuples".
    fn derivable_set<S: BuildHasher>(&self, dead: &HashSet<Var, S>) -> Vec<bool> {
        let mut alive = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let NodeKey::Base(v) = node.key {
                alive[i] = !dead.contains(&v);
            }
        }
        // Graphs are small (annotation-sized); a simple iterate-to-fixpoint
        // is clearer than a worklist and fast enough.
        loop {
            let mut changed = false;
            for (i, node) in self.nodes.iter().enumerate() {
                if alive[i] || node.derivs.is_empty() {
                    continue;
                }
                if node
                    .derivs
                    .iter()
                    .any(|(_, ants)| ants.iter().all(|&a| alive[a as usize]))
                {
                    alive[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return alive;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_types::Value;

    fn key(i: i64) -> (RelId, Tuple) {
        (RelId(1), Tuple::new(vec![Value::Int(i)]))
    }

    fn dead(vars: &[Var]) -> HashSet<Var> {
        vars.iter().copied().collect()
    }

    #[test]
    fn base_annotation() {
        let p = RelProv::base(7);
        assert_eq!(p.support(), vec![7]);
        assert_eq!(p.node_count(), 1);
        assert!(p.kill_vars(&dead(&[7])).is_none());
        assert!(p.kill_vars(&dead(&[8])).is_some());
    }

    #[test]
    fn single_derivation_lives_and_dies_with_antecedents() {
        let (r, t) = key(10);
        let a = RelProv::base(1);
        let b = RelProv::base(2);
        let d = RelProv::derive(0, r, t, &[&a, &b]);
        assert_eq!(d.support(), vec![1, 2]);
        assert_eq!(d.node_count(), 3);
        assert!(d.kill_vars(&dead(&[3])).is_some());
        assert!(d.kill_vars(&dead(&[1])).is_none());
        assert!(d.kill_vars(&dead(&[2])).is_none());
    }

    #[test]
    fn merge_gives_alternative_derivations() {
        let (r, t) = key(10);
        let via1 = RelProv::derive(0, r, t.clone(), &[&RelProv::base(1)]);
        let via2 = RelProv::derive(0, r, t.clone(), &[&RelProv::base(2)]);
        let both = via1.merge(&via2);
        assert_eq!(both.support(), vec![1, 2]);
        // Either base alone keeps the tuple derivable.
        let survived = both.kill_vars(&dead(&[1])).expect("still derivable via 2");
        assert_eq!(survived.support(), vec![2]);
        assert!(both.kill_vars(&dead(&[1, 2])).is_none());
    }

    #[test]
    fn merge_is_idempotent_and_would_change_detects_it() {
        let (r, t) = key(10);
        let via1 = RelProv::derive(0, r, t.clone(), &[&RelProv::base(1)]);
        let via2 = RelProv::derive(0, r, t, &[&RelProv::base(2)]);
        let both = via1.merge(&via2);
        assert!(via1.would_change(&via2));
        assert!(!both.would_change(&via1));
        assert!(!both.would_change(&via2));
        let again = both.merge(&via2);
        assert_eq!(again.node_count(), both.node_count());
        assert_eq!(again.encoded_len(), both.encoded_len());
    }

    #[test]
    fn cyclic_support_is_not_derivable() {
        // x :- y. y :- x. plus x :- base(1). Killing 1 must kill both.
        let (rx, tx) = key(1);
        let (ry, ty) = key(2);
        let x_from_base = RelProv::derive(0, rx, tx.clone(), &[&RelProv::base(1)]);
        let y_from_x = RelProv::derive(1, ry, ty.clone(), &[&x_from_base]);
        let x_from_y = RelProv::derive(2, rx, tx, &[&y_from_x]);
        let x_all = x_from_base.merge(&x_from_y);
        // With base 1 alive the cycle is grounded.
        assert!(x_all.kill_vars(&dead(&[9])).is_some());
        // Killing base 1 leaves only the cycle x→y→x: not derivable.
        assert!(x_all.kill_vars(&dead(&[1])).is_none());
    }

    #[test]
    fn mentions_any_matches_support() {
        let (r, t) = key(10);
        let d = RelProv::derive(0, r, t, &[&RelProv::base(3), &RelProv::base(5)]);
        assert!(d.mentions_any(&dead(&[5, 9])));
        assert!(!d.mentions_any(&dead(&[4, 9])));
    }

    #[test]
    fn deeper_graphs_encode_larger() {
        // The property the paper measures: annotation size grows with
        // derivation depth for relative provenance.
        let mut prov = RelProv::base(0);
        let mut last_len = prov.encoded_len();
        for depth in 1..6 {
            let (r, t) = key(depth);
            prov = RelProv::derive(0, r, t, &[&prov, &RelProv::base(depth as Var)]);
            let len = prov.encoded_len();
            assert!(len > last_len, "depth {depth}: {len} <= {last_len}");
            last_len = len;
        }
    }

    #[test]
    #[should_panic(expected = "same tuple")]
    fn merging_different_tuples_panics() {
        let a = RelProv::base(1);
        let b = RelProv::base(2);
        let _ = a.merge(&b);
    }

    fn roundtrip(p: &RelProv) -> RelProv {
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        assert!(
            bytes.len() > p.encoded_len(),
            "encode must cover encoded_len() plus the root varint"
        );
        let mut buf = bytes.as_slice();
        let back = RelProv::decode(&mut buf).expect("decode");
        assert!(buf.is_empty(), "decode must consume exactly its bytes");
        back
    }

    #[test]
    fn encode_decode_roundtrips_cyclic_graph() {
        let (rx, tx) = key(1);
        let (ry, ty) = key(2);
        let x_base = RelProv::derive(0, rx, tx.clone(), &[&RelProv::base(1)]);
        let y = RelProv::derive(1, ry, ty, &[&x_base]);
        let x_cycle = RelProv::derive(2, rx, tx, &[&y]);
        let p = x_base.merge(&x_cycle);
        let back = roundtrip(&p);
        assert_eq!(back.node_count(), p.node_count());
        assert_eq!(back.support(), p.support());
        assert_eq!(back.encoded_len(), p.encoded_len());
        // Semantics survive too: killing the grounding base kills the tuple.
        assert!(back.kill_vars(&dead(&[1])).is_none());
        assert!(back.kill_vars(&dead(&[9])).is_some());
    }

    #[test]
    fn decode_rejects_truncation_and_corruption() {
        let (r, t) = key(10);
        let p = RelProv::derive(0, r, t, &[&RelProv::base(1), &RelProv::base(2)]);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        // Every strict prefix must fail, never yield a graph.
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            assert!(RelProv::decode(&mut buf).is_err(), "prefix {cut} decoded");
        }
        // A bad node tag fails loudly.
        let mut bad = bytes.clone();
        bad[1] = 7;
        assert!(matches!(
            RelProv::decode(&mut bad.as_slice()),
            Err(wire::WireError::BadTag(7))
        ));
        // An out-of-range root fails loudly.
        let mut bad_root = bytes.clone();
        let last = bad_root.len() - 1;
        bad_root[last] = 0x7f;
        assert!(matches!(
            RelProv::decode(&mut bad_root.as_slice()),
            Err(wire::WireError::Corrupt(_))
        ));
    }

    /// A base variable or rule id of 2^32 (a 5-byte varint) is rejected,
    /// not truncated to 0.
    #[test]
    fn decode_rejects_values_beyond_32_bits() {
        const OVER: [u8; 5] = [0x80, 0x80, 0x80, 0x80, 0x10];
        // One base node, no derivations, root 0.
        let mut base = vec![1, 0];
        base.extend(OVER);
        base.extend([0, 0]);
        assert!(matches!(
            RelProv::decode(&mut base.as_slice()),
            Err(wire::WireError::Corrupt(_))
        ));
        // Base node 5 with one derivation whose rule id is out of range.
        let mut rule = vec![1, 0, 5, 1];
        rule.extend(OVER);
        rule.extend([0, 0]);
        assert!(matches!(
            RelProv::decode(&mut rule.as_slice()),
            Err(wire::WireError::Corrupt(_))
        ));
        // Both decode once the value fits.
        assert!(RelProv::decode(&mut &[1, 0, 5, 0, 0][..]).is_ok());
        assert!(RelProv::decode(&mut &[1, 0, 5, 1, 9, 0, 0][..]).is_ok());
    }
}
