//! The node arena: hash-consed ROBDD nodes plus operation caches, and the
//! memory policy that keeps both proportional to what is alive.
//!
//! This module is internal; users interact through [`crate::BddManager`] and
//! [`crate::Bdd`] handles. The arena itself is a plain (non-thread-safe)
//! struct — the handle layer wraps it in a `parking_lot::Mutex` so the public
//! API is `Send + Sync`.
//!
//! # Node lifetime
//!
//! A [`NodeId`] is valid exactly as long as a `Bdd` handle holds it or a path
//! from one reaches it. Ids are recycled: [`Arena::gc`] puts every unreachable
//! slot on a free list and [`Arena::mk`] takes from that list before it grows
//! the node vector. Nothing outside this crate ever sees an id, and inside it
//! no id outlives a lock acquisition except inside a handle — which is what
//! makes the entry of an allocating operation a safe point to collect:
//! [`Arena::collect_if_due`] runs there, under the same lock acquisition that
//! computes the result and takes its reference.

use std::collections::hash_map::Entry;

use netrec_types::{FxHashMap, FxHashSet};

/// A provenance variable. In netrec, every base (EDB) tuple insertion is
/// assigned a fresh globally-unique variable; the variable is set to `false`
/// when the tuple is deleted or expires.
pub type Var = u32;

/// Node identifier inside one arena. `0` and `1` are the terminals.
pub(crate) type NodeId = u32;

/// No collection below this many hash-consed nodes. Sweeping an arena this
/// small costs about 130 ns (two near-empty table scans), a tenth of what
/// making the 16 nodes and the operations around them costs, and it is low on
/// purpose: the six-peer chains of the CI churn matrices peak at 15–34 nodes
/// per arena, and a floor above that would leave the concurrent hand-off of
/// handles untested against a collector that actually runs.
const GC_FLOOR: usize = 16;
/// Collect once the hash-consed nodes reach this multiple of what survived
/// the previous collection, so an arena that only grows (a bulk load) pays a
/// geometric series of sweeps and a stationary one holds at most one
/// generation of garbage beside its live nodes.
const GC_GROWTH: usize = 2;
/// A table or vector gives its memory back once it is this many times larger
/// than what it holds; anything closer is kept to save the rehash.
const SHRINK_SLACK: usize = 4;

pub(crate) const FALSE: NodeId = 0;
pub(crate) const TRUE: NodeId = 1;
/// Terminal "level": sorts after every real variable.
const TERMINAL_VAR: Var = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: Var,
    lo: NodeId,
    hi: NodeId,
}

/// Counters exposed through [`crate::BddManager::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddManagerStats {
    /// Hash-consed nodes plus the two terminals: everything a collection has
    /// not (yet) reclaimed. Free slots are not counted.
    pub nodes: usize,
    /// Slots allocated in the node vector, free ones included
    /// (`nodes + free_slots`): what the arena costs in memory.
    pub slots: usize,
    /// Slots a collection freed that no node has reused yet.
    pub free_slots: usize,
    /// High-water mark of `nodes` since creation (GC does not reset it).
    pub peak_nodes: usize,
    /// Entries currently memoised in the `ite` cache.
    pub ite_cache_entries: usize,
    /// `ite` invocations answered from the memo table.
    pub ite_cache_hits: u64,
    /// `ite` invocations that had to recurse.
    pub ite_cache_misses: u64,
    /// Number of garbage collections performed.
    pub gc_runs: u64,
    /// Nodes reclaimed across all garbage collections.
    pub gc_reclaimed: u64,
}

pub(crate) struct Arena {
    nodes: Vec<Node>,
    /// Handles holding each slot, parallel to `nodes` and maintained by handle
    /// creation/clone/drop. The non-zero entries are the root set.
    refs: Vec<u32>,
    /// Slots the last collection freed, lowest id on top.
    free: Vec<NodeId>,
    unique: FxHashMap<Node, NodeId>,
    ite_cache: FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    /// Memoised wire-encoding lengths per root id. Sound because it is
    /// emptied in the same critical section that frees ids: an entry always
    /// describes the function its id denotes now.
    pub(crate) encoded_len_cache: FxHashMap<NodeId, u32>,
    /// Hash-consed nodes that survived the previous collection.
    survivors: usize,
    /// The running counters; `stats()` fills in the sizes.
    stats: BddManagerStats,
}

impl Arena {
    pub(crate) fn new() -> Self {
        let mut a = Arena {
            nodes: Vec::with_capacity(1024),
            refs: Vec::with_capacity(1024),
            free: Vec::new(),
            unique: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            ite_cache: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            encoded_len_cache: FxHashMap::default(),
            survivors: 0,
            stats: BddManagerStats::default(),
        };
        // Terminals occupy slots 0 and 1 and are never hash-consed.
        for t in [FALSE, TRUE] {
            a.nodes.push(Node {
                var: TERMINAL_VAR,
                lo: t,
                hi: t,
            });
            a.refs.push(0);
        }
        a.stats.peak_nodes = 2;
        a
    }

    #[inline]
    fn var_of(&self, n: NodeId) -> Var {
        self.nodes[n as usize].var
    }

    #[inline]
    fn lo(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].lo
    }

    #[inline]
    fn hi(&self, n: NodeId) -> NodeId {
        self.nodes[n as usize].hi
    }

    /// The reduced `mk`: returns the canonical node for `(var, lo, hi)`.
    pub(crate) fn mk(&mut self, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        debug_assert!(var < TERMINAL_VAR);
        debug_assert!(
            var < self.var_of(lo) && var < self.var_of(hi),
            "ordering violated"
        );
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let slot = match self.unique.entry(node) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.refs.push(0);
                (self.nodes.len() - 1) as NodeId
            }
        };
        slot.insert(id);
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.unique.len() + 2);
        id
    }

    pub(crate) fn mk_var(&mut self, v: Var) -> NodeId {
        self.mk(v, FALSE, TRUE)
    }

    pub(crate) fn mk_nvar(&mut self, v: Var) -> NodeId {
        self.mk(v, TRUE, FALSE)
    }

    /// If-then-else: the canonical ternary combinator. All binary Boolean
    /// operations are expressed through it, sharing one memo table.
    pub(crate) fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal short-circuits.
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        let key = (f, g, h);
        if let Some(&r) = self.ite_cache.get(&key) {
            self.stats.ite_cache_hits += 1;
            return r;
        }
        self.stats.ite_cache_misses += 1;
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.ite_cache.insert(key, r);
        r
    }

    #[inline]
    fn cofactors(&self, n: NodeId, var: Var) -> (NodeId, NodeId) {
        if self.var_of(n) == var {
            (self.lo(n), self.hi(n))
        } else {
            (n, n)
        }
    }

    pub(crate) fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, b, FALSE)
    }

    pub(crate) fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, TRUE, b)
    }

    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        self.ite(a, FALSE, TRUE)
    }

    pub(crate) fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.not(b);
        self.ite(a, nb, b)
    }

    /// `a ∧ ¬b` — the "deltaPv" of Algorithm 1 and the `x − y` of the
    /// MinShip/Join pseudocode.
    pub(crate) fn diff(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.not(b);
        self.and(a, nb)
    }

    /// Substitute constant `val` for `var` in `f` (BDD `restrict`).
    pub(crate) fn restrict(&mut self, f: NodeId, var: Var, val: bool) -> NodeId {
        if self.var_of(f) > var {
            // `f` does not depend on `var` (ordering ⇒ nothing below either).
            return f;
        }
        // Memoise through the shared ite cache by keying on a synthetic
        // triple: restrict(f, v, val) has no natural ite encoding that avoids
        // building the literal, so we build the literal — `f|v←1 = ∃`-free
        // cofactor walk — with a local recursion + small cache instead.
        let mut memo = FxHashMap::default();
        self.restrict_rec(f, var, val, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        var: Var,
        val: bool,
        memo: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        let fvar = self.var_of(f);
        if fvar > var {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let r = if fvar == var {
            if val {
                self.hi(f)
            } else {
                self.lo(f)
            }
        } else {
            let lo = self.restrict_rec(self.lo(f), var, val, memo);
            let hi = self.restrict_rec(self.hi(f), var, val, memo);
            self.mk(fvar, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Existential quantification of a single variable.
    pub(crate) fn exists(&mut self, f: NodeId, var: Var) -> NodeId {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        self.or(f0, f1)
    }

    /// Collect the support (set of variables `f` depends on) in ascending
    /// order.
    pub(crate) fn support(&self, f: NodeId) -> Vec<Var> {
        let mut seen = FxHashMap::default();
        let mut vars = Vec::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n <= TRUE || seen.contains_key(&n) {
                continue;
            }
            seen.insert(n, ());
            vars.push(self.var_of(n));
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Whether `var` occurs in the support of `f`, without materialising the
    /// full support vector.
    pub(crate) fn depends_on(&self, f: NodeId, var: Var) -> bool {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            let v = self.var_of(n);
            if v == var {
                return true;
            }
            if v < var {
                stack.push(self.lo(n));
                stack.push(self.hi(n));
            }
        }
        false
    }

    /// Number of DAG nodes reachable from `f` (terminals excluded) — the
    /// paper's per-annotation size measure.
    pub(crate) fn dag_size(&self, f: NodeId) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            count += 1;
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        count
    }

    /// Evaluate under a total assignment.
    pub(crate) fn eval(&self, f: NodeId, assignment: &mut dyn FnMut(Var) -> bool) -> bool {
        let mut n = f;
        while n > TRUE {
            let node = self.nodes[n as usize];
            n = if assignment(node.var) {
                node.hi
            } else {
                node.lo
            };
        }
        n == TRUE
    }

    /// Model count over an explicit variable universe of size `nvars`
    /// (variables are assumed to be `0..nvars`).
    pub(crate) fn sat_count(&self, f: NodeId, nvars: u32) -> f64 {
        fn rec(a: &Arena, n: NodeId, memo: &mut FxHashMap<NodeId, f64>, nvars: u32) -> f64 {
            if n == FALSE {
                return 0.0;
            }
            if n == TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&n) {
                return c;
            }
            let node = a.nodes[n as usize];
            let scale = |child: NodeId, a: &Arena| -> f64 {
                let child_var = if child <= TRUE {
                    nvars
                } else {
                    a.var_of(child)
                };
                let gap = child_var.saturating_sub(node.var + 1);
                2f64.powi(gap as i32)
            };
            let lo_scale = scale(node.lo, a);
            let hi_scale = scale(node.hi, a);
            let c =
                lo_scale * rec(a, node.lo, memo, nvars) + hi_scale * rec(a, node.hi, memo, nvars);
            memo.insert(n, c);
            c
        }
        if f == FALSE {
            return 0.0;
        }
        let top = if f == TRUE { nvars } else { self.var_of(f) };
        let mut memo = FxHashMap::default();
        2f64.powi(top as i32) * rec(self, f, &mut memo, nvars)
    }

    /// One satisfying partial assignment (smallest-variable-first greedy),
    /// returned as `(var, value)` pairs; `None` when `f` is false.
    pub(crate) fn one_sat(&self, f: NodeId) -> Option<Vec<(Var, bool)>> {
        if f == FALSE {
            return None;
        }
        let mut out = Vec::new();
        let mut n = f;
        while n > TRUE {
            let node = self.nodes[n as usize];
            if node.hi != FALSE {
                out.push((node.var, true));
                n = node.hi;
            } else {
                out.push((node.var, false));
                n = node.lo;
            }
        }
        Some(out)
    }

    /// Enumerate satisfying cubes (paths to TRUE). Each cube lists only the
    /// variables tested on the path. Enumeration stops after `limit` cubes.
    pub(crate) fn cubes(&self, f: NodeId, limit: usize) -> Vec<Vec<(Var, bool)>> {
        let mut out = Vec::new();
        let mut path: Vec<(Var, bool)> = Vec::new();
        self.cubes_rec(f, &mut path, &mut out, limit);
        out
    }

    fn cubes_rec(
        &self,
        n: NodeId,
        path: &mut Vec<(Var, bool)>,
        out: &mut Vec<Vec<(Var, bool)>>,
        limit: usize,
    ) {
        if out.len() >= limit || n == FALSE {
            return;
        }
        if n == TRUE {
            out.push(path.clone());
            return;
        }
        let node = self.nodes[n as usize];
        path.push((node.var, false));
        self.cubes_rec(node.lo, path, out, limit);
        path.pop();
        path.push((node.var, true));
        self.cubes_rec(node.hi, path, out, limit);
        path.pop();
    }

    /// Child-first DAG dump used by the serialiser and the DOT export:
    /// `(var, lo_ref, hi_ref)` per interior node, where a reference is `0` /
    /// `1` for the terminals and `k + 2` for the `k`-th entry of the list.
    /// The root is the last entry.
    pub(crate) fn nodes_triples(&self, f: NodeId) -> Vec<(Var, u32, u32)> {
        /// Returns the wire reference of `n`, emitting it (after its
        /// children) on the first visit; `refs` is both the visited set and
        /// the id → reference map.
        fn visit(
            a: &Arena,
            n: NodeId,
            refs: &mut FxHashMap<NodeId, u32>,
            out: &mut Vec<(Var, u32, u32)>,
        ) -> u32 {
            if n <= TRUE {
                return n;
            }
            if let Some(&r) = refs.get(&n) {
                return r;
            }
            let lo = visit(a, a.lo(n), refs, out);
            let hi = visit(a, a.hi(n), refs, out);
            let r = out.len() as u32 + 2;
            out.push((a.var_of(n), lo, hi));
            refs.insert(n, r);
            r
        }
        let mut out = Vec::new();
        visit(self, f, &mut FxHashMap::default(), &mut out);
        out
    }

    // ---- handle reference counts + GC ----------------------------------

    pub(crate) fn incref(&mut self, n: NodeId) {
        if n > TRUE {
            self.refs[n as usize] += 1;
        }
    }

    /// Panics when `n` has no reference to give back: the one bug that would
    /// let a collection free a node some handle still points at.
    pub(crate) fn decref(&mut self, n: NodeId) {
        if n > TRUE {
            let c = &mut self.refs[n as usize];
            assert!(*c > 0, "reference count underflow on BDD node {n}");
            *c -= 1;
        }
    }

    /// Collect when the hash-consed nodes have reached [`GC_GROWTH`] × the
    /// survivors of the previous collection (and [`GC_FLOOR`]). Called at the
    /// entry of every allocating operation, where the handles are the whole
    /// root set.
    pub(crate) fn collect_if_due(&mut self) {
        let nodes = self.unique.len();
        if nodes >= GC_FLOOR && nodes >= GC_GROWTH * self.survivors {
            self.gc();
        }
    }

    /// Mark-and-sweep garbage collection rooted at all live handles. Every
    /// unreachable slot goes on the free list for `mk` to reuse (a dead tail
    /// of the node vector is cut off instead), the unique table keeps exactly
    /// the nodes that survived, and the `ite` and `encoded_len` memos are
    /// emptied — all before the lock is released, so no table ever maps a
    /// recycled id to what it used to denote.
    ///
    /// Returns the number of nodes reclaimed.
    pub(crate) fn gc(&mut self) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[FALSE as usize] = true;
        marked[TRUE as usize] = true;
        let mut stack: Vec<NodeId> = (0..self.refs.len() as NodeId)
            .filter(|&n| self.refs[n as usize] > 0)
            .collect();
        while let Some(n) = stack.pop() {
            if marked[n as usize] {
                continue;
            }
            marked[n as usize] = true;
            stack.push(self.lo(n));
            stack.push(self.hi(n));
        }
        let before = self.unique.len();
        self.unique.retain(|_, &mut id| marked[id as usize]);
        // Both memos may name freed ids. Keeping the `ite` entries whose four
        // ids all survived was measured and lost: filtering them costs the
        // sweep more than their hits repay (DESIGN.md "Annotation memory").
        self.ite_cache.clear();
        self.encoded_len_cache.clear();

        let live_end = 1 + marked
            .iter()
            .rposition(|&m| m)
            .expect("the terminals are marked");
        self.nodes.truncate(live_end);
        self.refs.truncate(live_end);
        self.free.clear();
        self.free.extend(
            (0..live_end as NodeId)
                .rev()
                .filter(|&n| !marked[n as usize]),
        );

        release_map(&mut self.unique);
        release_map(&mut self.ite_cache);
        release_map(&mut self.encoded_len_cache);
        release_vec(&mut self.nodes);
        release_vec(&mut self.refs);
        release_vec(&mut self.free);

        self.survivors = self.unique.len();
        let reclaimed = before - self.survivors;
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    pub(crate) fn stats(&self) -> BddManagerStats {
        BddManagerStats {
            nodes: self.unique.len() + 2,
            slots: self.nodes.len(),
            free_slots: self.free.len(),
            ite_cache_entries: self.ite_cache.len(),
            ..self.stats
        }
    }

    pub(crate) fn clear_caches(&mut self) {
        self.ite_cache.clear();
    }

    pub(crate) fn live_external_handles(&self) -> usize {
        self.refs.iter().map(|&c| c as usize).sum()
    }
}

/// Give a table's memory back when it holds less than 1/[`SHRINK_SLACK`] of
/// what it has room for.
fn release_map<K: Eq + std::hash::Hash, V>(map: &mut FxHashMap<K, V>) {
    if map.capacity() > SHRINK_SLACK * map.len().max(1024) {
        map.shrink_to(2 * map.len());
    }
}

/// [`release_map`] for a vector.
fn release_vec<T>(v: &mut Vec<T>) {
    if v.capacity() > SHRINK_SLACK * v.len().max(1024) {
        v.shrink_to(2 * v.len());
    }
}
