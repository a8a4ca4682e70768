//! The node arena: hash-consed ROBDD nodes plus operation caches.
//!
//! This module is internal; users interact through [`crate::BddManager`] and
//! [`crate::Bdd`] handles. The arena itself is a plain (non-thread-safe)
//! struct — the handle layer wraps it in a `parking_lot::Mutex` so the public
//! API is `Send + Sync`.

use netrec_types::{FxHashMap, FxHashSet};

/// A provenance variable. In netrec, every base (EDB) tuple insertion is
/// assigned a fresh globally-unique variable; the variable is set to `false`
/// when the tuple is deleted or expires.
pub type Var = u32;

/// Node identifier inside one arena. `0` and `1` are the terminals.
pub(crate) type NodeId = u32;

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
    /// Nodes currently in the arena (including the two terminals).
    pub nodes: usize,
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
    unique: FxHashMap<Node, NodeId>,
    ite_cache: FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    /// External reference counts per node id, maintained by handle clone/drop.
    extrefs: FxHashMap<NodeId, u32>,
    /// Memoised wire-encoding lengths per root id. Sound because node ids
    /// are never reused (gc tombstones dead slots); cleared on gc so entries
    /// for unreachable roots do not accumulate.
    pub(crate) encoded_len_cache: FxHashMap<NodeId, u32>,
    stats: BddManagerStats,
}

impl Arena {
    pub(crate) fn new() -> Self {
        let mut a = Arena {
            nodes: Vec::with_capacity(1024),
            unique: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            ite_cache: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            extrefs: FxHashMap::default(),
            encoded_len_cache: FxHashMap::default(),
            stats: BddManagerStats::default(),
        };
        // Terminals occupy slots 0 and 1 and are never hash-consed.
        a.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: FALSE,
            hi: FALSE,
        });
        a.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: TRUE,
            hi: TRUE,
        });
        a.stats.nodes = 2;
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
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        self.unique.insert(node, id);
        self.stats.nodes = self.nodes.len();
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.stats.nodes);
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
        self.stats.ite_cache_entries = self.ite_cache.len();
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

    /// Topologically ordered (children before parents) DAG dump used by the
    /// serialiser and the DOT export: `(id, var, lo, hi)` per interior node.
    pub(crate) fn nodes_triples(&self, f: NodeId) -> Vec<(NodeId, Var, NodeId, NodeId)> {
        let mut order: Vec<NodeId> = Vec::new();
        let mut seen = FxHashSet::default();
        fn visit(a: &Arena, n: NodeId, seen: &mut FxHashSet<NodeId>, order: &mut Vec<NodeId>) {
            if n <= TRUE || !seen.insert(n) {
                return;
            }
            visit(a, a.lo(n), seen, order);
            visit(a, a.hi(n), seen, order);
            order.push(n);
        }
        visit(self, f, &mut seen, &mut order);
        order
            .iter()
            .map(|&n| (n, self.var_of(n), self.lo(n), self.hi(n)))
            .collect()
    }

    // ---- external reference counting + GC ------------------------------

    pub(crate) fn incref(&mut self, n: NodeId) {
        if n > TRUE {
            *self.extrefs.entry(n).or_insert(0) += 1;
        }
    }

    pub(crate) fn decref(&mut self, n: NodeId) {
        if n > TRUE {
            if let Some(c) = self.extrefs.get_mut(&n) {
                *c -= 1;
                if *c == 0 {
                    self.extrefs.remove(&n);
                }
            }
        }
    }

    /// Mark-and-sweep garbage collection rooted at all live external handles.
    /// Node ids are *stable* and never reused: a dead node only leaves the
    /// unique table, its slot stays in the node vector for good (the vector
    /// never shrinks), and re-making the same triple takes a fresh slot.
    ///
    /// Returns the number of nodes reclaimed.
    pub(crate) fn gc(&mut self) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[FALSE as usize] = true;
        marked[TRUE as usize] = true;
        let mut stack: Vec<NodeId> = self.extrefs.keys().copied().collect();
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
        // Dead slots stay in `nodes` as tombstones (id stability); future
        // `mk` calls for the same triple will re-cons to a fresh slot, which
        // is safe because the dead id can no longer be reached from any live
        // handle. The ite cache may reference dead ids, so it is dropped.
        self.ite_cache.clear();
        self.stats.ite_cache_entries = 0;
        self.encoded_len_cache.clear();
        let reclaimed = before - self.unique.len();
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        self.stats.nodes = self.unique.len() + 2;
        reclaimed
    }

    pub(crate) fn stats(&self) -> BddManagerStats {
        self.stats
    }

    pub(crate) fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.stats.ite_cache_entries = 0;
    }

    pub(crate) fn live_external_handles(&self) -> usize {
        self.extrefs.values().map(|&c| c as usize).sum()
    }
}
