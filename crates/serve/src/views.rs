//! Engine-facing view store: materialized view relations behind the
//! left-right primitive, with typed point lookups.
//!
//! A [`ViewStore`] holds one `ViewRel` per served relation: a membership
//! hash set (O(1) `contains`), a first-column index (O(1) "all tuples whose
//! key column is `k`" — the shape both `connected` and `region_of` probe),
//! and an order-insensitive fingerprint (XOR of cached tuple hashes mixed
//! with the cardinality). The fingerprint lets tests assert "this observed
//! view IS some converged boundary" in O(1) per read instead of comparing
//! whole snapshots.
//!
//! Mutation happens exclusively through [`ViewOp`] membership deltas fed to
//! the [`Absorb`] impl by the left-right writer — the engine's stores
//! extract them from DRed insert/delete outcomes, so the store never
//! re-clones a whole relation after the initial seed.

use std::collections::BTreeSet;

use netrec_types::{FxHashMap, FxHashSet, NetAddr, RelId, Tuple, Value};

use crate::left_right::{self, Absorb, ReadHandle, WriteHandle};

/// The engine-facing writer: applies [`ViewOp`] deltas and publishes
/// boundaries. Held by the engine's `Runner`.
pub type ViewWriter = WriteHandle<ViewStore, ViewOp>;

/// The engine-facing reader: cheaply cloneable, one epoch slot per clone.
/// Hand one to every serving thread.
pub type ViewReader = ReadHandle<ViewStore>;

/// One membership delta: `add == true` inserts `tuple` into `rel`'s view,
/// `add == false` removes it. Extracted from the engine's DRed outcomes
/// (`MergeOutcome::New` / a `Died` deletion), so exactly the tuples
/// whose view membership changed — not every re-derivation.
#[derive(Clone, Debug)]
pub struct ViewOp {
    /// The served relation.
    pub rel: RelId,
    /// The tuple whose membership changed.
    pub tuple: Tuple,
    /// Insert (`true`) or delete (`false`).
    pub add: bool,
}

/// Which relations to serve, and which of them answer the typed lookups.
/// Names are resolved against the plan's catalog when the handle is built.
#[derive(Clone, Debug, Default)]
pub struct ServeSpec {
    /// Relation names to materialize in the store.
    pub views: Vec<String>,
    /// Relation backing [`ViewStore::connected`] — shape `(src, dst)`,
    /// e.g. `"reachable"`.
    pub connectivity: Option<String>,
    /// Relation backing [`ViewStore::region_of`] — shape `(member, region)`,
    /// e.g. `"activeRegion"` (sensor first, region id second).
    pub region: Option<String>,
}

impl ServeSpec {
    /// Serve the named relations (typed lookups unset).
    pub fn views(names: &[&str]) -> ServeSpec {
        ServeSpec {
            views: names.iter().map(|s| s.to_string()).collect(),
            ..ServeSpec::default()
        }
    }

    /// Serve a connectivity relation of shape `(src, dst)` and route
    /// [`ViewStore::connected`] through it. Adds it to `views` if absent.
    pub fn with_connectivity(mut self, name: &str) -> ServeSpec {
        if !self.views.iter().any(|v| v == name) {
            self.views.push(name.to_string());
        }
        self.connectivity = Some(name.to_string());
        self
    }

    /// Serve a membership relation of shape `(member, region)` and route
    /// [`ViewStore::region_of`] through it. Adds it to `views` if absent.
    pub fn with_region(mut self, name: &str) -> ServeSpec {
        if !self.views.iter().any(|v| v == name) {
            self.views.push(name.to_string());
        }
        self.region = Some(name.to_string());
        self
    }
}

/// One served relation inside a [`ViewStore`].
#[derive(Clone, Debug, Default)]
struct ViewRel {
    /// Membership set: O(1) `contains` with the tuple's cached hash.
    set: FxHashSet<Tuple>,
    /// First-column index: key value → tuples carrying it in column 0.
    /// Backs both typed lookups (their key is column 0 by relation shape).
    by_key: FxHashMap<Value, Vec<Tuple>>,
    /// XOR of member `cached_hash`es — order-insensitive, incrementally
    /// maintained, and (mixed with `set.len()`) a boundary fingerprint.
    xor_hash: u64,
}

impl ViewRel {
    fn insert(&mut self, t: &Tuple) {
        if self.set.insert(t.clone()) {
            self.xor_hash ^= t.cached_hash();
            if t.arity() > 0 {
                self.by_key
                    .entry(t.get(0).clone())
                    .or_default()
                    .push(t.clone());
            }
        }
    }

    fn remove(&mut self, t: &Tuple) {
        if self.set.remove(t) {
            self.xor_hash ^= t.cached_hash();
            if t.arity() > 0 {
                if let Some(v) = self.by_key.get_mut(t.get(0)) {
                    v.retain(|x| x != t);
                    if v.is_empty() {
                        self.by_key.remove(t.get(0));
                    }
                }
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        // Mix cardinality in so e.g. the empty view and a self-cancelling
        // XOR coincidence don't collide.
        self.xor_hash ^ (self.set.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// The data copy behind the left-right pair: all served relations plus the
/// slots routing the typed lookups. Cloned once per side at build time;
/// afterwards only deltas flow.
#[derive(Clone, Debug, Default)]
pub struct ViewStore {
    rels: Vec<ViewRel>,
    /// Served `RelId` → slot in `rels`.
    by_rel: FxHashMap<RelId, usize>,
    /// Slot of the connectivity relation, if configured.
    connectivity: Option<usize>,
    /// Slot of the region-membership relation, if configured.
    region: Option<usize>,
}

impl ViewStore {
    /// Build an empty store serving `rels`, with optional typed-lookup
    /// routing. `connectivity`/`region`, when set, must be members of
    /// `rels`.
    pub fn new(rels: &[RelId], connectivity: Option<RelId>, region: Option<RelId>) -> ViewStore {
        let mut store = ViewStore::default();
        for &r in rels {
            store.by_rel.entry(r).or_insert_with(|| {
                store.rels.push(ViewRel::default());
                store.rels.len() - 1
            });
        }
        store.connectivity = connectivity.map(|r| store.by_rel[&r]);
        store.region = region.map(|r| store.by_rel[&r]);
        store
    }

    /// The relations this store serves.
    pub fn served(&self) -> impl Iterator<Item = RelId> + '_ {
        self.by_rel.keys().copied()
    }

    /// Whether `rel` is served.
    pub fn serves(&self, rel: RelId) -> bool {
        self.by_rel.contains_key(&rel)
    }

    fn slot(&self, rel: RelId) -> Option<&ViewRel> {
        self.by_rel.get(&rel).map(|&i| &self.rels[i])
    }

    /// Point lookup: is `tuple` a member of `rel`'s published view? O(1)
    /// via the tuple's cached hash. Returns `false` for unserved relations.
    pub fn view_contains(&self, rel: RelId, tuple: &Tuple) -> bool {
        self.slot(rel).is_some_and(|v| v.set.contains(tuple))
    }

    /// Typed point lookup on the configured connectivity relation: does
    /// `(u, v)` appear (i.e. is `v` reachable from `u`)? O(1).
    ///
    /// # Panics
    /// If the store was built without a connectivity relation.
    pub fn connected(&self, u: NetAddr, v: NetAddr) -> bool {
        let slot = self
            .connectivity
            .expect("ViewStore built without a connectivity relation");
        self.rels[slot]
            .set
            .contains(&Tuple::new(vec![Value::Addr(u), Value::Addr(v)]))
    }

    /// Typed point lookup on the configured region relation: which region
    /// holds member `x`? Keys column 0; returns the column-1 value, taking
    /// the minimum when `x` belongs to several regions (deterministic under
    /// hash-map iteration). `None` when `x` is in no region.
    ///
    /// # Panics
    /// If the store was built without a region relation.
    pub fn region_of(&self, x: &Value) -> Option<Value> {
        let slot = self
            .region
            .expect("ViewStore built without a region relation");
        self.rels[slot]
            .by_key
            .get(x)?
            .iter()
            .filter_map(|t| t.try_get(1).cloned())
            .min()
    }

    /// All tuples of `rel` whose first column equals `key` (the serving
    /// analogue of an index scan). Empty for unserved relations.
    pub fn lookup(&self, rel: RelId, key: &Value) -> &[Tuple] {
        self.slot(rel)
            .and_then(|v| v.by_key.get(key))
            .map_or(&[], |v| v.as_slice())
    }

    /// Cardinality of `rel`'s view (0 for unserved relations).
    pub fn len(&self, rel: RelId) -> usize {
        self.slot(rel).map_or(0, |v| v.set.len())
    }

    /// Whether `rel`'s view is empty.
    pub fn is_empty(&self, rel: RelId) -> bool {
        self.len(rel) == 0
    }

    /// Order-insensitive fingerprint of `rel`'s view: XOR of member tuple
    /// hashes mixed with the cardinality, maintained incrementally. Two
    /// stores serving the same relation with equal contents agree; tests use
    /// it to match an observed read against a recorded boundary in O(1).
    pub fn fingerprint(&self, rel: RelId) -> u64 {
        self.slot(rel).map_or(0, |v| v.fingerprint())
    }

    /// Fingerprint of `rel` recomputed from scratch by scanning the set.
    /// Agreement with [`ViewStore::fingerprint`] certifies the incremental
    /// bookkeeping (a torn or half-applied state would disagree).
    pub fn fingerprint_scan(&self, rel: RelId) -> u64 {
        self.slot(rel).map_or(0, |v| {
            let xor = v.set.iter().fold(0u64, |a, t| a ^ t.cached_hash());
            xor ^ (v.set.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
    }

    /// Sorted snapshot of `rel`'s view — the same shape `Runner::view()`
    /// returns, for differential tests and cold paths. O(view); hot paths
    /// should use the point lookups.
    pub fn snapshot(&self, rel: RelId) -> BTreeSet<Tuple> {
        self.slot(rel)
            .map(|v| v.set.iter().cloned().collect())
            .unwrap_or_default()
    }
}

impl Absorb<ViewOp> for ViewStore {
    fn absorb(&mut self, op: &ViewOp) {
        if let Some(&i) = self.by_rel.get(&op.rel) {
            if op.add {
                self.rels[i].insert(&op.tuple);
            } else {
                self.rels[i].remove(&op.tuple);
            }
        }
    }
}

/// Build a left-right pair over an empty [`ViewStore`] serving `rels`.
pub fn pair(
    rels: &[RelId],
    connectivity: Option<RelId>,
    region: Option<RelId>,
) -> (ViewWriter, ViewReader) {
    left_right::new(ViewStore::new(rels, connectivity, region))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab(a: u32, b: u32) -> Tuple {
        Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Addr(NetAddr(b))])
    }

    fn member(x: u32, rid: &str) -> Tuple {
        Tuple::new(vec![Value::Addr(NetAddr(x)), Value::str(rid)])
    }

    const REACH: RelId = RelId(0);
    const REGION: RelId = RelId(1);

    fn store() -> ViewStore {
        ViewStore::new(&[REACH, REGION], Some(REACH), Some(REGION))
    }

    fn add(rel: RelId, tuple: Tuple) -> ViewOp {
        ViewOp {
            rel,
            tuple,
            add: true,
        }
    }

    fn del(rel: RelId, tuple: Tuple) -> ViewOp {
        ViewOp {
            rel,
            tuple,
            add: false,
        }
    }

    #[test]
    fn typed_lookups() {
        let mut s = store();
        s.absorb(&add(REACH, ab(1, 2)));
        s.absorb(&add(REGION, member(7, "r1")));
        s.absorb(&add(REGION, member(7, "r0")));
        assert!(s.connected(NetAddr(1), NetAddr(2)));
        assert!(!s.connected(NetAddr(2), NetAddr(1)));
        // Multi-membership resolves to the minimum region id.
        assert_eq!(
            s.region_of(&Value::Addr(NetAddr(7))),
            Some(Value::str("r0"))
        );
        assert_eq!(s.region_of(&Value::Addr(NetAddr(8))), None);
        assert_eq!(s.lookup(REACH, &Value::Addr(NetAddr(1))).len(), 1);
    }

    #[test]
    fn deltas_roundtrip_and_idempotent() {
        let mut s = store();
        s.absorb(&add(REACH, ab(1, 2)));
        s.absorb(&add(REACH, ab(1, 2))); // duplicate insert: no-op
        assert_eq!(s.len(REACH), 1);
        let fp = s.fingerprint(REACH);
        s.absorb(&add(REACH, ab(1, 3)));
        s.absorb(&del(REACH, ab(1, 3)));
        assert_eq!(
            s.fingerprint(REACH),
            fp,
            "insert+delete restores fingerprint"
        );
        s.absorb(&del(REACH, ab(9, 9))); // absent delete: no-op
        assert_eq!(s.len(REACH), 1);
        s.absorb(&del(REACH, ab(1, 2)));
        assert!(s.is_empty(REACH));
        assert!(s.lookup(REACH, &Value::Addr(NetAddr(1))).is_empty());
    }

    #[test]
    fn fingerprints_incremental_matches_scan() {
        let mut s = store();
        for i in 0..20 {
            s.absorb(&add(REACH, ab(i, i + 1)));
        }
        for i in 0..10 {
            s.absorb(&del(REACH, ab(i, i + 1)));
        }
        assert_eq!(s.fingerprint(REACH), s.fingerprint_scan(REACH));
        assert_eq!(s.snapshot(REACH).len(), 10);
    }

    #[test]
    fn unserved_relations_ignored() {
        let mut s = store();
        let other = RelId(9);
        s.absorb(&add(other, ab(1, 2)));
        assert!(!s.serves(other));
        assert!(!s.view_contains(other, &ab(1, 2)));
        assert_eq!(s.len(other), 0);
        assert_eq!(s.fingerprint(other), 0);
        assert!(s.snapshot(other).is_empty());
    }

    #[test]
    fn published_through_left_right() {
        let (mut w, mut r) = pair(&[REACH], Some(REACH), None);
        w.append(add(REACH, ab(1, 2)));
        w.append(add(REACH, ab(2, 3)));
        assert!(!r.enter().connected(NetAddr(1), NetAddr(2)));
        w.publish();
        {
            let g = r.enter();
            assert!(g.connected(NetAddr(1), NetAddr(2)));
            assert!(g.connected(NetAddr(2), NetAddr(3)));
            assert_eq!(g.fingerprint(REACH), g.fingerprint_scan(REACH));
        }
        w.append(del(REACH, ab(1, 2)));
        w.publish();
        assert!(!r.enter().connected(NetAddr(1), NetAddr(2)));
        // Both sides converged: writer's own read agrees with the reader.
        assert_eq!(w.read().snapshot(REACH), r.enter().snapshot(REACH));
    }
}
