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
//!
//! # Unique table
//!
//! Every node is stored once, in `nodes`; the table that makes it canonical
//! is a `Vec` of bucket heads plus a chain link inside each node. `heads` has
//! a power-of-two length and is indexed by the high bits of a multiplicative
//! hash of `(var, lo, hi)`; `Node::next` links the nodes of one bucket, and
//! [`FALSE`] (a terminal, never hash-consed) ends a chain. [`Arena::mk`] walks
//! one chain comparing triples in place and links a new node at its head.
//! There is at least one bucket per hash-consed node: once they outnumber
//! the buckets, `heads` doubles and the old chains are walked and relinked.
//! [`Arena::gc`] refills `heads` from the slots it marked, so a freed slot
//! is on the free list and in no chain, and it gives `heads` back to what
//! the survivors need once it is [`SHRINK_SLACK`] times that.
//!
//! # Computed table
//!
//! Every memoised operation — `ite`, the two-operand [`Arena::apply`]
//! (`∧`, `∨`, `−`) and the node-free [`Arena::implies`] — shares one
//! direct-mapped table: a `Vec` of `(k0, k1, k2) → r` entries indexed by a
//! multiplicative hash of the key, where `k2` is `ite`'s third operand or an
//! operation tag above any reachable [`NodeId`]. It is lossy: a colliding
//! insert overwrites, which costs a later hit and never correctness, because
//! a lookup compares the whole key. It is sized at operation entry from the
//! unique table ([`MEMO_NODES_PER_ENTRY`], [`MEMO_MIN`]), never inside an
//! operation, and emptied by every collection, so no entry ever names a
//! recycled id.
//!
//! # Walks
//!
//! `restrict`, `support`, `depends_on`, `dag_size`, `nodes_triples` and
//! `encoded_len` visit each node of a DAG once without building a visited
//! set: `stamp[n]` holds the epoch of the last walk that reached slot `n` and
//! `aux[n]` what that walk computed there. A walk draws a fresh epoch, so it
//! never has to clear anything. This is sound because the `&mut Arena` borrow
//! admits one walk at a time, a collection runs only at operation entry (no
//! slot is freed mid-walk), a slot `mk` pushes or recycles mid-walk carries
//! an older epoch and is not part of the DAG being walked, and epoch
//! wrap-around resets every stamp. A collection marks with the same stamps.

use netrec_types::wire::varint_len;
use netrec_types::FxHashMap;

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
/// The computed table gets one entry per this many hash-consed nodes (rounded
/// up to a power of two), counted at operation entry. More is not better:
/// at 2–4 entries per node `dense_grow` ran a fifth slower and peaked at
/// 410 MB of RSS against 285 MB at ½–1 (DESIGN.md "BDD kernel").
const MEMO_NODES_PER_ENTRY: usize = 2;
/// The computed table's smallest size, in entries of 16 bytes.
const MEMO_MIN: usize = 1024;
/// The unique table's fewest buckets. Above this it has one per hash-consed
/// node rounded up to a power of two: `mk` doubles it once the nodes
/// outnumber the buckets, and `gc` resizes it from the survivors.
const HEADS_MIN: usize = 1024;

pub(crate) const FALSE: NodeId = 0;
pub(crate) const TRUE: NodeId = 1;
/// Terminal "level": sorts after every real variable.
const TERMINAL_VAR: Var = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    var: Var,
    lo: NodeId,
    hi: NodeId,
    /// The next node of this one's unique-table bucket; [`FALSE`] ends it.
    next: NodeId,
}

/// Node ids stay below this (`mk` asserts it); the values from here up are
/// the operation tags of the computed table.
const OP_TAG_MIN: u32 = u32::MAX - 3;
/// The two-operand operations of [`Arena::apply`]. The discriminant is the
/// operation's tag in the computed table: no node id, so no `ite` key can
/// equal an `apply` key.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum Op {
    And = OP_TAG_MIN,
    Or,
    Diff,
}
/// Tag of the memoised [`Arena::implies`] answers.
const OP_IMPLIES: u32 = Op::Diff as u32 + 1;

/// One entry of the computed table; `k0 == MEMO_EMPTY` marks a free one (an
/// operand is a node id, and those stay below [`OP_TAG_MIN`]).
#[derive(Clone, Copy)]
struct Memo {
    k0: u32,
    k1: u32,
    k2: u32,
    r: u32,
}
const MEMO_EMPTY: u32 = u32::MAX;
const NO_MEMO: Memo = Memo {
    k0: MEMO_EMPTY,
    k1: 0,
    k2: 0,
    r: 0,
};

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
    /// Occupied entries of the computed table, which `ite`, `and`/`or`/`diff`
    /// and `implies` share.
    pub ite_cache_entries: usize,
    /// Computed-table lookups (of any of those operations) that were answered
    /// from the table.
    pub ite_cache_hits: u64,
    /// Computed-table lookups that had to recurse.
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
    /// Epoch of the last walk that visited each slot, parallel to `nodes`.
    stamp: Vec<u32>,
    /// What that walk computed at the slot (`restrict`: the restricted id;
    /// `nodes_triples`: the wire reference), parallel to `nodes`.
    aux: Vec<u32>,
    /// Epoch of the walk in progress, or of the last one.
    epoch: u32,
    /// Slots the last collection freed, lowest id on top.
    free: Vec<NodeId>,
    /// The unique table's bucket heads (module docs); a power-of-two length.
    heads: Vec<NodeId>,
    /// Hash-consed nodes: those reachable from `heads`.
    unique_len: usize,
    /// The computed table (module docs); its length is a power of two.
    memo: Vec<Memo>,
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
            stamp: Vec::with_capacity(1024),
            aux: Vec::with_capacity(1024),
            epoch: 0,
            free: Vec::new(),
            heads: vec![FALSE; HEADS_MIN],
            unique_len: 0,
            memo: vec![NO_MEMO; MEMO_MIN],
            survivors: 0,
            stats: BddManagerStats::default(),
        };
        // Terminals occupy slots 0 and 1 and are never hash-consed.
        for t in [FALSE, TRUE] {
            a.nodes.push(Node {
                var: TERMINAL_VAR,
                lo: t,
                hi: t,
                next: FALSE,
            });
            a.refs.push(0);
            a.stamp.push(0);
            a.aux.push(0);
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
        let bucket = self.bucket(var, lo, hi);
        let mut n = self.heads[bucket];
        while n != FALSE {
            let node = self.nodes[n as usize];
            if (node.var, node.lo, node.hi) == (var, lo, hi) {
                return n;
            }
            n = node.next;
        }
        let node = Node {
            var,
            lo,
            hi,
            next: self.heads[bucket],
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                // An id at or above the tags would alias a computed-table key.
                assert!(self.nodes.len() < OP_TAG_MIN as usize, "BDD arena full");
                self.nodes.push(node);
                self.refs.push(0);
                // Epochs start at 1: a fresh slot is unvisited in every walk.
                self.stamp.push(0);
                self.aux.push(0);
                (self.nodes.len() - 1) as NodeId
            }
        };
        self.heads[bucket] = id;
        self.unique_len += 1;
        if self.unique_len > self.heads.len() {
            self.grow_heads();
        }
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.unique_len + 2);
        id
    }

    /// The unique-table bucket of `(var, lo, hi)`.
    #[inline]
    fn bucket(&self, var: Var, lo: NodeId, hi: NodeId) -> usize {
        hash_slot(lo, hi, var, self.heads.len())
    }

    /// Put the node in slot `n` at the head of its bucket's chain.
    fn link(&mut self, n: NodeId) {
        let node = &self.nodes[n as usize];
        let bucket = self.bucket(node.var, node.lo, node.hi);
        self.nodes[n as usize].next = self.heads[bucket];
        self.heads[bucket] = n;
    }

    /// Double the bucket heads and relink every chain into them.
    fn grow_heads(&mut self) {
        let doubled = vec![FALSE; 2 * self.heads.len()];
        let old = std::mem::replace(&mut self.heads, doubled);
        for mut n in old {
            while n != FALSE {
                let next = self.nodes[n as usize].next;
                self.link(n);
                n = next;
            }
        }
    }

    pub(crate) fn mk_var(&mut self, v: Var) -> NodeId {
        self.mk(v, FALSE, TRUE)
    }

    pub(crate) fn mk_nvar(&mut self, v: Var) -> NodeId {
        self.mk(v, TRUE, FALSE)
    }

    // ---- the computed table ---------------------------------------------

    #[inline]
    fn memo_slot(&self, k0: u32, k1: u32, k2: u32) -> usize {
        hash_slot(k0, k1, k2, self.memo.len())
    }

    /// The table slot of a key, and the memoised result if the slot holds it.
    #[inline]
    fn memo_get(&mut self, k0: u32, k1: u32, k2: u32) -> (usize, Option<u32>) {
        let slot = self.memo_slot(k0, k1, k2);
        let m = self.memo[slot];
        if (m.k0, m.k1, m.k2) == (k0, k1, k2) {
            self.stats.ite_cache_hits += 1;
            (slot, Some(m.r))
        } else {
            self.stats.ite_cache_misses += 1;
            (slot, None)
        }
    }

    /// Store a result in the slot [`Arena::memo_get`] returned for the key
    /// (the table is not resized inside an operation), evicting what is there.
    #[inline]
    fn memo_put(&mut self, slot: usize, k0: u32, k1: u32, k2: u32, r: u32) {
        let m = &mut self.memo[slot];
        self.stats.ite_cache_entries += usize::from(m.k0 == MEMO_EMPTY);
        *m = Memo { k0, k1, k2, r };
    }

    /// The table size the sizing rule gives the nodes there are now.
    fn memo_target(&self) -> usize {
        (self.unique_len / MEMO_NODES_PER_ENTRY)
            .next_power_of_two()
            .max(MEMO_MIN)
    }

    /// Grow the table to [`Arena::memo_target`], keeping what it holds.
    fn size_memo(&mut self) {
        let want = self.memo_target();
        if want > self.memo.len() {
            let old = std::mem::replace(&mut self.memo, vec![NO_MEMO; want]);
            self.stats.ite_cache_entries = 0;
            for m in old.into_iter().filter(|m| m.k0 != MEMO_EMPTY) {
                let slot = self.memo_slot(m.k0, m.k1, m.k2);
                self.memo_put(slot, m.k0, m.k1, m.k2, m.r);
            }
        }
    }

    pub(crate) fn clear_caches(&mut self) {
        self.memo.fill(NO_MEMO);
        self.stats.ite_cache_entries = 0;
    }

    // ---- Boolean operations ---------------------------------------------

    /// If-then-else, for `xor` and the public [`crate::Bdd::ite`]; the
    /// two-operand operations go through [`Arena::apply`].
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
        let (slot, hit) = self.memo_get(f, g, h);
        if let Some(r) = hit {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.memo_put(slot, f, g, h, r);
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

    /// `a ∧ b`, `a ∨ b` or `a − b = a ∧ ¬b` (Algorithm 1's `deltaPv`, the
    /// `x − y` of the MinShip/Join pseudocode) by simultaneous descent of the
    /// two operands. `−` recurses on `(1, b)` like on any other pair, so `¬b`
    /// is never built beside the result.
    pub(crate) fn apply(&mut self, op: Op, mut a: NodeId, mut b: NodeId) -> NodeId {
        match op {
            Op::And | Op::Or => {
                // Commutative: `a ∘ b` and `b ∘ a` share a table entry.
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                // The terminals are the two smallest ids: if either operand
                // is one, `a` is.
                let (unit, zero) = if op == Op::And {
                    (TRUE, FALSE)
                } else {
                    (FALSE, TRUE)
                };
                if a == unit || a == b {
                    return b;
                }
                if a == zero {
                    return zero;
                }
            }
            Op::Diff => {
                if a == FALSE || b == TRUE || a == b {
                    return FALSE;
                }
                if b == FALSE {
                    return a;
                }
            }
        }
        let (slot, hit) = self.memo_get(a, b, op as u32);
        if let Some(r) = hit {
            return r;
        }
        let top = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, top);
        let (b0, b1) = self.cofactors(b, top);
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(top, lo, hi);
        self.memo_put(slot, a, b, op as u32, r);
        r
    }

    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        self.apply(Op::Diff, TRUE, a)
    }

    pub(crate) fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.not(b);
        self.ite(a, nb, b)
    }

    /// Whether `a → b` holds under every assignment, i.e. `a − b` is empty —
    /// decided without making a node: the descent of [`Arena::apply`] with
    /// Boolean results, stopping at the first counter-example.
    pub(crate) fn implies(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == FALSE || b == TRUE || a == b {
            return true;
        }
        // `a` is satisfiable and is not `b`: a terminal on either side now
        // leaves an assignment where `a` holds and `b` does not.
        if a == TRUE || b == FALSE {
            return false;
        }
        let (slot, hit) = self.memo_get(a, b, OP_IMPLIES);
        if let Some(r) = hit {
            return r == TRUE;
        }
        let top = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, top);
        let (b0, b1) = self.cofactors(b, top);
        let r = self.implies(a0, b0) && self.implies(a1, b1);
        self.memo_put(slot, a, b, OP_IMPLIES, NodeId::from(r));
        r
    }

    // ---- walks ------------------------------------------------------------

    /// Start a walk: the epoch no slot's stamp carries yet.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Stamp `n` for the walk `epoch`; `false` if it was stamped already.
    #[inline]
    fn first_visit(&mut self, n: NodeId, epoch: u32) -> bool {
        let s = &mut self.stamp[n as usize];
        let first = *s != epoch;
        *s = epoch;
        first
    }

    /// Substitute constant `val` for every variable of `vars` in `f` (BDD
    /// `restrict`), in one pass. `vars` is strictly ascending.
    pub(crate) fn restrict(&mut self, f: NodeId, vars: &[Var], val: bool) -> NodeId {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]));
        let epoch = self.next_epoch();
        self.restrict_rec(f, vars, val, epoch)
    }

    /// `vars` shrinks on the way down to the variables not above `f`'s; the
    /// result for a node does not depend on how much of it is left, so the
    /// per-node memo (`aux`) is sound.
    fn restrict_rec(&mut self, f: NodeId, vars: &[Var], val: bool, epoch: u32) -> NodeId {
        let fvar = self.var_of(f);
        let vars = &vars[vars.partition_point(|&v| v < fvar)..];
        if vars.is_empty() {
            // Ordering: nothing at or below `f` tests a variable of `vars`.
            return f;
        }
        if !self.first_visit(f, epoch) {
            return self.aux[f as usize];
        }
        let (lo, hi) = (self.lo(f), self.hi(f));
        let r = if vars[0] == fvar {
            self.restrict_rec(if val { hi } else { lo }, &vars[1..], val, epoch)
        } else {
            let lo = self.restrict_rec(lo, vars, val, epoch);
            let hi = self.restrict_rec(hi, vars, val, epoch);
            self.mk(fvar, lo, hi)
        };
        self.aux[f as usize] = r;
        r
    }

    /// Existential quantification of a single variable.
    pub(crate) fn exists(&mut self, f: NodeId, var: Var) -> NodeId {
        let f0 = self.restrict(f, &[var], false);
        let f1 = self.restrict(f, &[var], true);
        self.apply(Op::Or, f0, f1)
    }

    /// Collect the support (set of variables `f` depends on) in ascending
    /// order.
    pub(crate) fn support(&mut self, f: NodeId) -> Vec<Var> {
        fn rec(a: &mut Arena, n: NodeId, epoch: u32, vars: &mut Vec<Var>) {
            if n > TRUE && a.first_visit(n, epoch) {
                vars.push(a.var_of(n));
                rec(a, a.lo(n), epoch, vars);
                rec(a, a.hi(n), epoch, vars);
            }
        }
        let mut vars = Vec::new();
        let epoch = self.next_epoch();
        rec(self, f, epoch, &mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Whether `var` occurs in the support of `f`, without materialising the
    /// full support vector.
    pub(crate) fn depends_on(&mut self, f: NodeId, var: Var) -> bool {
        fn rec(a: &mut Arena, n: NodeId, var: Var, epoch: u32) -> bool {
            let v = a.var_of(n);
            // Ordering: below a node testing a later variable `var` cannot
            // occur.
            if n <= TRUE || v > var || !a.first_visit(n, epoch) {
                return false;
            }
            v == var || rec(a, a.lo(n), var, epoch) || rec(a, a.hi(n), var, epoch)
        }
        let epoch = self.next_epoch();
        rec(self, f, var, epoch)
    }

    /// Number of DAG nodes reachable from `f` (terminals excluded) — the
    /// paper's per-annotation size measure.
    pub(crate) fn dag_size(&mut self, f: NodeId) -> usize {
        fn rec(a: &mut Arena, n: NodeId, epoch: u32) -> usize {
            if n <= TRUE || !a.first_visit(n, epoch) {
                return 0;
            }
            1 + rec(a, a.lo(n), epoch) + rec(a, a.hi(n), epoch)
        }
        let epoch = self.next_epoch();
        rec(self, f, epoch)
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

    /// The encoder's walk: visit the interior nodes under `f` child-first,
    /// handing `emit` each one's `(var, lo_ref, hi_ref)`, where a reference is
    /// `0` / `1` for the terminals and `k + 2` for the `k`-th node emitted.
    /// The root is emitted last. Returns the number of nodes emitted.
    fn for_each_triple(&mut self, f: NodeId, mut emit: impl FnMut(Var, u32, u32)) -> u32 {
        /// Returns the wire reference of `n`, emitting it (after its
        /// children) on the first visit; `aux` is the id → reference map.
        fn visit(
            a: &mut Arena,
            n: NodeId,
            epoch: u32,
            count: &mut u32,
            emit: &mut impl FnMut(Var, u32, u32),
        ) -> u32 {
            if n <= TRUE {
                return n;
            }
            if !a.first_visit(n, epoch) {
                return a.aux[n as usize];
            }
            let lo = visit(a, a.lo(n), epoch, count, emit);
            let hi = visit(a, a.hi(n), epoch, count, emit);
            emit(a.var_of(n), lo, hi);
            let r = *count + 2;
            *count += 1;
            a.aux[n as usize] = r;
            r
        }
        let epoch = self.next_epoch();
        let mut count = 0;
        visit(self, f, epoch, &mut count, &mut emit);
        count
    }

    /// Child-first DAG dump used by the serialiser and the DOT export: the
    /// triples of [`Arena::for_each_triple`], in order.
    pub(crate) fn nodes_triples(&mut self, f: NodeId) -> Vec<(Var, u32, u32)> {
        let mut out = Vec::new();
        self.for_each_triple(f, |var, lo, hi| out.push((var, lo, hi)));
        out
    }

    /// Length of the wire encoding of a non-terminal `f` (see
    /// `serialize.rs`): the encoder's walk, counting bytes instead of
    /// writing them.
    pub(crate) fn encoded_len(&mut self, f: NodeId) -> usize {
        let mut bytes = 0;
        let count = self.for_each_triple(f, |var, lo, hi| {
            bytes +=
                varint_len(u64::from(var)) + varint_len(u64::from(lo)) + varint_len(u64::from(hi));
        });
        varint_len(u64::from(count)) + bytes
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
    /// root set — and where the computed table is sized for the operation.
    pub(crate) fn collect_if_due(&mut self) {
        let nodes = self.unique_len;
        if nodes >= GC_FLOOR && nodes >= GC_GROWTH * self.survivors {
            self.gc();
        }
        self.size_memo();
    }

    /// Mark-and-sweep garbage collection rooted at all live handles. Every
    /// unreachable slot goes on the free list for `mk` to reuse (a dead tail
    /// of the node vector is cut off instead), the unique table is relinked
    /// from exactly the nodes that survived, and the computed table is
    /// emptied — all before the lock is released, so no table ever maps a
    /// recycled id to what it used to denote.
    ///
    /// Returns the number of nodes reclaimed.
    pub(crate) fn gc(&mut self) -> usize {
        // Mark with a walk's stamps, on push: the stack holds each node once.
        let epoch = self.next_epoch();
        let mut stack: Vec<NodeId> = Vec::new();
        for n in TRUE + 1..self.refs.len() as NodeId {
            if self.refs[n as usize] > 0 && self.first_visit(n, epoch) {
                stack.push(n);
            }
        }
        let mut survivors = stack.len();
        while let Some(n) = stack.pop() {
            for child in [self.lo(n), self.hi(n)] {
                if child > TRUE && self.first_visit(child, epoch) {
                    stack.push(child);
                    survivors += 1;
                }
            }
        }
        // Both tables are resized below from what survives.
        let reclaimed = self.unique_len - survivors;
        self.unique_len = survivors;
        self.survivors = survivors;
        // The computed table may name freed ids. Keeping the entries whose
        // ids all survived was measured and lost: filtering them costs the
        // sweep more than their hits repay (DESIGN.md "Annotation memory").
        self.clear_caches();

        let live_end = self
            .stamp
            .iter()
            .rposition(|&s| s == epoch)
            .map_or(TRUE as usize + 1, |n| n + 1);
        self.nodes.truncate(live_end);
        self.refs.truncate(live_end);
        self.stamp.truncate(live_end);
        self.aux.truncate(live_end);
        // The (empty) heads go back to what the survivors need once they are
        // `SHRINK_SLACK` times that.
        let buckets = survivors.next_power_of_two().max(HEADS_MIN);
        if self.heads.len() > SHRINK_SLACK * buckets {
            self.heads = vec![FALSE; buckets];
        } else {
            self.heads.fill(FALSE);
        }
        self.free.clear();
        for n in (TRUE + 1..live_end as NodeId).rev() {
            if self.stamp[n as usize] == epoch {
                self.link(n);
            } else {
                self.free.push(n);
            }
        }

        release_vec(&mut self.nodes);
        release_vec(&mut self.refs);
        release_vec(&mut self.stamp);
        release_vec(&mut self.aux);
        release_vec(&mut self.free);
        // The (empty) table goes back to what the survivors need once it is
        // `SHRINK_SLACK` times that.
        let want = self.memo_target();
        if self.memo.len() > SHRINK_SLACK * want {
            self.memo = vec![NO_MEMO; want];
        }

        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    pub(crate) fn stats(&self) -> BddManagerStats {
        BddManagerStats {
            nodes: self.unique_len + 2,
            slots: self.nodes.len(),
            free_slots: self.free.len(),
            ..self.stats
        }
    }

    /// Bytes the arena has allocated: the capacity of the node slots and
    /// their per-slot vectors, the free list, the unique table's bucket heads
    /// and the computed table. A deterministic stand-in for its share of RSS.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let words = self.refs.capacity()
            + self.stamp.capacity()
            + self.aux.capacity()
            + self.free.capacity()
            + self.heads.capacity();
        self.nodes.capacity() * size_of::<Node>()
            + words * size_of::<u32>()
            + self.memo.capacity() * size_of::<Memo>()
    }

    pub(crate) fn live_external_handles(&self) -> usize {
        self.refs.iter().map(|&c| c as usize).sum()
    }
}

/// The slot of the key `(k0, k1, k2)` in a table of `len` entries, a power
/// of two: the high bits of a multiplicative hash, the well-mixed ones.
#[inline]
fn hash_slot(k0: u32, k1: u32, k2: u32, len: usize) -> usize {
    let h = (u64::from(k0) << 32 | u64::from(k1))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(k2))
        .wrapping_mul(0xd6e8_feb8_6659_fd93);
    (h >> (64 - len.trailing_zeros())) as usize
}

/// Give a vector's memory back when it holds less than 1/[`SHRINK_SLACK`]
/// of what it has room for.
fn release_vec<T>(v: &mut Vec<T>) {
    if v.capacity() > SHRINK_SLACK * v.len().max(1024) {
        v.shrink_to(2 * v.len());
    }
}

/// What the computed table and the visit stamps can get wrong, tested on the
/// arena itself (the handle layer cannot reach `epoch` or keep the table at
/// its minimum size).
#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self, below: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % below
        }
    }

    fn cube(a: &mut Arena, vars: &[Var]) -> NodeId {
        let mut vs = vars.to_vec();
        vs.sort_unstable();
        vs.dedup();
        vs.iter().rev().fold(TRUE, |acc, &v| a.mk(v, FALSE, acc))
    }

    /// Shannon expansion with no memo at all, cut short only where an operand
    /// is a terminal: the reference the computed table is checked against
    /// (affordable on sums of a few cubes).
    fn apply_uncached(a: &mut Arena, op: Op, x: NodeId, y: NodeId) -> NodeId {
        match op {
            Op::And if x == FALSE || y == FALSE => return FALSE,
            Op::And if x == TRUE => return y,
            Op::And if y == TRUE => return x,
            Op::Or if x == TRUE || y == TRUE => return TRUE,
            Op::Or if x == FALSE => return y,
            Op::Or if y == FALSE => return x,
            Op::Diff if x == FALSE || y == TRUE => return FALSE,
            Op::Diff if y == FALSE => return x,
            _ => {}
        }
        let top = a.var_of(x).min(a.var_of(y));
        let (x0, x1) = a.cofactors(x, top);
        let (y0, y1) = a.cofactors(y, top);
        let lo = apply_uncached(a, op, x0, y0);
        let hi = apply_uncached(a, op, x1, y1);
        a.mk(top, lo, hi)
    }

    /// Collisions must cost hits, never correctness. The arena is driven
    /// without `collect_if_due`, so the table stays at `MEMO_MIN` entries
    /// while some 20 000 operations over 64 variables fight for them; every
    /// result must be the node the uncached expansion makes.
    #[test]
    fn evictions_cost_hits_not_correctness() {
        const VARS: u64 = 64;
        let mut a = Arena::new();
        let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
        let mut sum_of_cubes = |a: &mut Arena| {
            (0..3).fold(FALSE, |acc, _| {
                let vars: Vec<Var> = (0..3).map(|_| rng.next(VARS) as Var).collect();
                let c = cube(a, &vars);
                let sum = a.apply(Op::Or, acc, c);
                assert_eq!(sum, apply_uncached(a, Op::Or, acc, c));
                sum
            })
        };
        for _ in 0..1500 {
            let f = sum_of_cubes(&mut a);
            let g = sum_of_cubes(&mut a);
            for op in [Op::And, Op::Or, Op::Diff] {
                assert_eq!(a.apply(op, f, g), apply_uncached(&mut a, op, f, g));
            }
            let diff = apply_uncached(&mut a, Op::Diff, f, g);
            assert_eq!(a.implies(f, g), diff == FALSE);
            let nf = a.not(f);
            assert_eq!(a.ite(f, g, nf), {
                let both = apply_uncached(&mut a, Op::And, f, g);
                apply_uncached(&mut a, Op::Or, both, nf)
            });
        }
        let s = a.stats();
        assert_eq!(a.memo.len(), MEMO_MIN, "the table was never resized");
        assert!(s.ite_cache_entries <= MEMO_MIN);
        assert!(
            s.ite_cache_misses > 20 * MEMO_MIN as u64 && s.ite_cache_hits > 0,
            "entries were overwritten many times over: {s:?}"
        );
    }

    /// The walks across the epoch counter's wrap-around: the issue is a stamp
    /// left from the first epoch `k` reading as "visited" in the second.
    #[test]
    fn walks_survive_epoch_wrap() {
        let mut a = Arena::new();
        let c1 = cube(&mut a, &[1, 3, 5]);
        let c2 = cube(&mut a, &[2, 3, 6]);
        let f = a.apply(Op::Or, c1, c2);
        let support = a.support(f);
        let triples = a.nodes_triples(f);
        let len = a.encoded_len(f);
        let restricted = a.restrict(f, &[3], true);
        assert_eq!(support, [1, 2, 3, 5, 6]);
        // Each walk as the one that wraps, with every slot stamped as if the
        // epoch it wraps to had been there before.
        fn wrapping<R>(a: &mut Arena, walk: impl FnOnce(&mut Arena) -> R) -> R {
            a.stamp.fill(1);
            a.epoch = u32::MAX;
            let r = walk(a);
            assert_eq!(a.epoch, 1);
            r
        }
        assert_eq!(wrapping(&mut a, |a| a.support(f)), support);
        assert_eq!(wrapping(&mut a, |a| a.restrict(f, &[3], true)), restricted);
        assert_eq!(wrapping(&mut a, |a| a.nodes_triples(f)), triples);
        assert_eq!(wrapping(&mut a, |a| a.encoded_len(f)), len);
        assert_eq!(wrapping(&mut a, |a| a.dag_size(f)), triples.len());
        assert!(wrapping(&mut a, |a| a.depends_on(f, 6)));
        // And in sequence through the wrap.
        a.epoch = u32::MAX - 2;
        for round in 0..4 {
            assert_eq!(a.support(f), support, "round {round}");
            assert_eq!(a.restrict(f, &[3], true), restricted, "round {round}");
            assert_eq!(a.nodes_triples(f), triples, "round {round}");
            assert_eq!(a.encoded_len(f), len, "round {round}");
        }
        assert!(a.epoch < 16, "the counter wrapped: {}", a.epoch);
        // A collection marks with the same stamps: as the wrapping walk it
        // must keep exactly `f`'s nodes, the ones a handle reaches.
        a.incref(f);
        let before = a.unique_len;
        assert_eq!(wrapping(&mut a, |a| a.gc()), before - triples.len());
        assert_eq!(a.unique_len, triples.len());
        assert_eq!(a.support(f), support);
        assert_eq!(a.nodes_triples(f), triples);
    }

    /// Every hash-consed node is on exactly one chain, in the bucket `mk`
    /// looks in, and no free slot is on any: the chains visit `unique_len`
    /// distinct ids, every slot is chained or free, and `mk` of each chained
    /// node's triple returns its id without making a node.
    fn assert_chains_exact(a: &mut Arena) {
        let mut chained = vec![false; a.nodes.len()];
        let mut count = 0;
        for b in 0..a.heads.len() {
            let mut n = a.heads[b];
            while n != FALSE {
                assert!(!chained[n as usize], "node {n} is chained twice");
                chained[n as usize] = true;
                count += 1;
                n = a.nodes[n as usize].next;
            }
        }
        assert_eq!(count, a.unique_len);
        assert!(
            a.free.iter().all(|&n| !chained[n as usize]),
            "a free slot is chained"
        );
        assert_eq!(count + a.free.len() + 2, a.nodes.len());
        let slots = a.nodes.len();
        for n in TRUE + 1..slots as NodeId {
            if chained[n as usize] {
                let Node { var, lo, hi, .. } = a.nodes[n as usize];
                assert_eq!(a.mk(var, lo, hi), n);
            }
        }
        assert_eq!(a.nodes.len(), slots, "mk of a live triple made a node");
    }

    /// The unique table across its growth and the collector's relink: a
    /// random program of builds (each at a safe point, as the handle layer
    /// does), handle drops and collections, checked after every step, that
    /// doubles the bucket heads at least three times and ends by giving
    /// them back.
    #[test]
    fn chains_stay_exact_across_growth_and_collection() {
        let mut a = Arena::new();
        let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
        let mut kept: Vec<NodeId> = Vec::new();
        let mut most_heads = a.heads.len();
        for step in 0..1500 {
            match rng.next(10) {
                0 if !kept.is_empty() => {
                    let i = rng.next(kept.len() as u64) as usize;
                    a.decref(kept.swap_remove(i));
                }
                1 if step % 3 == 0 => {
                    a.gc();
                }
                _ => {
                    a.collect_if_due();
                    let mut term = || {
                        let vars: Vec<Var> = (0..5).map(|_| rng.next(4096) as Var).collect();
                        cube(&mut a, &vars)
                    };
                    let (x, y) = (term(), term());
                    let f = a.apply(Op::Or, x, y);
                    a.incref(f);
                    kept.push(f);
                }
            }
            most_heads = most_heads.max(a.heads.len());
            assert_chains_exact(&mut a);
        }
        assert!(most_heads >= 8 * HEADS_MIN, "heads peaked at {most_heads}");
        assert!(a.stats.gc_runs >= 10, "{} collections", a.stats.gc_runs);
        for f in kept {
            a.decref(f);
        }
        a.gc();
        assert_chains_exact(&mut a);
        assert_eq!((a.unique_len, a.heads.len()), (0, HEADS_MIN));
    }

    /// What the arena allocates per node. 1 000 disjoint 100-variable cubes
    /// (100 000 nodes) are kept and 300 more are held, then dropped and
    /// collected: the slots peak at 130 002 ≤ 2^17, and the collection cuts
    /// off the dead tail. Either side of it each vector is at most what 2^17
    /// slots need: the slot vectors, doubling from 1 024, 2^17 × (16 B node +
    /// 3 × 4 B of `refs`, `stamp` and `aux`); the bucket heads, one per node
    /// rounded up, 2^17 × 4 B; the computed table, one entry per two nodes
    /// rounded up, 2^16 × 16 B; the free list, never filled. That is
    /// 5 242 880 B, under 53 B per node over at least 100 000 nodes. The
    /// layout with a 12 B node and a hash map from node to id as the unique
    /// table (2^18 buckets of 16 B plus a control byte for the same nodes)
    /// comes to 8.65 MB: 66 B per node before the collection and 86 B after.
    /// Last, a collection that frees every node gives both tables back to
    /// their floors, which the survivors' count, not the count before the
    /// sweep, decides.
    #[test]
    fn arena_heap_bytes_per_node_is_bounded() {
        const CEILING: usize = 53;
        let mut a = Arena::new();
        let build = |a: &mut Arena, k: Var| {
            a.collect_if_due();
            let f = cube(a, &(100 * k..100 * (k + 1)).collect::<Vec<_>>());
            a.incref(f);
            f
        };
        let kept: Vec<NodeId> = (0..1000).map(|k| build(&mut a, k)).collect();
        let held: Vec<NodeId> = (1000..1300).map(|k| build(&mut a, k)).collect();
        let s = a.stats();
        assert_eq!((s.nodes, s.slots), (130_002, 130_002));
        assert!(a.heap_bytes() / s.nodes < CEILING, "{s:?}");
        for f in held {
            a.decref(f);
        }
        a.gc();
        let s = a.stats();
        assert_eq!((s.nodes, s.slots), (100_002, 100_002));
        assert!(a.heap_bytes() / s.nodes < CEILING, "{s:?}");
        assert_eq!(a.memo.len(), 1 << 16);
        for f in kept {
            a.decref(f);
        }
        a.gc();
        assert_eq!(a.stats().nodes, 2);
        assert_eq!((a.heads.len(), a.memo.len()), (HEADS_MIN, MEMO_MIN));
    }

    /// `restrict` makes nodes while it walks; with no free slot and the node
    /// vector full, that grows the stamp vectors under the walk.
    #[test]
    fn mk_grows_the_stamp_vectors_mid_walk() {
        let mut a = Arena::new();
        let vars: Vec<Var> = (0..40).collect();
        let f = cube(&mut a, &vars);
        let mut filler = 1000;
        while a.nodes.len() < a.nodes.capacity() {
            a.mk_var(filler);
            filler += 1;
        }
        assert!(a.free.is_empty());
        let (slots, capacity) = (a.nodes.len(), a.nodes.capacity());
        // Dropping the last variable copies every node above it.
        let r = a.restrict(f, &[39], true);
        assert_eq!(a.nodes.len(), slots + 39);
        assert!(a.nodes.capacity() > capacity);
        assert_eq!(a.stamp.len(), a.nodes.len());
        assert_eq!(a.aux.len(), a.nodes.len());
        assert_eq!(r, cube(&mut a, &vars[..39]));
        assert_eq!(a.support(r), &vars[..39]);
    }
}
