//! Public handle layer: [`BddManager`] and the reference-counted [`Bdd`].

use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::arena::{Arena, BddManagerStats, NodeId, Op, Var, FALSE, TRUE};

/// Shared, thread-safe owner of a BDD node arena.
///
/// Cloning a manager is cheap (an `Arc` clone) and yields a second handle to
/// the *same* arena. Every simulated peer in netrec owns one manager;
/// provenance annotations travel between peers only in serialised form (see
/// [`Bdd::encode`] / [`BddManager::decode`]; a transport in between checks
/// the bytes with [`check_encoding`](crate::check_encoding) and needs no
/// manager).
#[derive(Clone)]
pub struct BddManager {
    inner: Arc<Mutex<Arena>>,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Create an empty manager containing only the two terminals.
    pub fn new() -> Self {
        BddManager {
            inner: Arc::new(Mutex::new(Arena::new())),
        }
    }

    /// One allocating operation, under one lock acquisition: collect if a
    /// collection is due (no id is held outside a handle here, so the handles
    /// are the whole root set), compute, and take the result's reference
    /// before anyone else can collect.
    pub(crate) fn try_build<E>(
        &self,
        f: impl FnOnce(&mut Arena) -> Result<NodeId, E>,
    ) -> Result<Bdd, E> {
        let id = {
            let mut arena = self.inner.lock();
            arena.collect_if_due();
            let id = f(&mut arena)?;
            arena.incref(id);
            id
        };
        Ok(Bdd {
            mgr: self.clone(),
            id,
        })
    }

    fn build(&self, f: impl FnOnce(&mut Arena) -> NodeId) -> Bdd {
        match self.try_build(|a| Ok::<_, Infallible>(f(a))) {
            Ok(bdd) => bdd,
            Err(never) => match never {},
        }
    }

    /// A terminal: not reference-counted, so there is nothing to lock for.
    fn terminal(&self, id: NodeId) -> Bdd {
        Bdd {
            mgr: self.clone(),
            id,
        }
    }

    /// The constant `false` function (no models).
    pub fn zero(&self) -> Bdd {
        self.terminal(FALSE)
    }

    /// The constant `true` function (all models).
    pub fn one(&self) -> Bdd {
        self.terminal(TRUE)
    }

    /// The positive literal for provenance variable `v`.
    pub fn var(&self, v: Var) -> Bdd {
        self.build(|a| a.mk_var(v))
    }

    /// The negative literal `¬v`.
    pub fn nvar(&self, v: Var) -> Bdd {
        self.build(|a| a.mk_nvar(v))
    }

    /// Conjunction of positive literals — the provenance of a single
    /// conjunctive derivation (one rule firing).
    pub fn cube(&self, vars: impl IntoIterator<Item = Var>) -> Bdd {
        let mut vs: Vec<Var> = vars.into_iter().collect();
        vs.sort_unstable();
        vs.dedup();
        // Build bottom-up in reverse variable order: strictly linear work.
        self.build(|arena| {
            vs.iter()
                .rev()
                .fold(TRUE, |acc, &v| arena.mk(v, FALSE, acc))
        })
    }

    /// Disjunction of a set of functions (n-ary `or`).
    pub fn or_many<'a>(&self, fs: impl IntoIterator<Item = &'a Bdd>) -> Bdd {
        let mut acc = self.zero();
        for f in fs {
            acc = acc.or(f);
        }
        acc
    }

    /// Conjunction of a set of functions (n-ary `and`).
    pub fn and_many<'a>(&self, fs: impl IntoIterator<Item = &'a Bdd>) -> Bdd {
        let mut acc = self.one();
        for f in fs {
            acc = acc.and(f);
        }
        acc
    }

    /// Arena statistics snapshot.
    pub fn stats(&self) -> BddManagerStats {
        self.inner.lock().stats()
    }

    /// Drop all memoised operation results (they are rebuilt on demand).
    pub fn clear_caches(&self) {
        self.inner.lock().clear_caches()
    }

    /// Run mark-and-sweep garbage collection rooted at live handles; returns
    /// the number of interior nodes reclaimed. The arena runs the same
    /// collection by itself when enough garbage may have built up, so calling
    /// this is never needed for memory to stay bounded.
    pub fn gc(&self) -> usize {
        self.inner.lock().gc()
    }

    /// Total number of live external [`Bdd`] handles (diagnostic).
    pub fn live_handles(&self) -> usize {
        self.inner.lock().live_external_handles()
    }

    fn same_arena(&self, other: &BddManager) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Whether two manager handles share one arena (a function moves between
    /// arenas only as bytes: [`Bdd::encode`], then [`BddManager::decode`]).
    pub fn ptr_eq(&self, other: &BddManager) -> bool {
        self.same_arena(other)
    }

    pub(crate) fn with_arena<R>(&self, f: impl FnOnce(&mut Arena) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("BddManager")
            .field("nodes", &s.nodes)
            .field("peak_nodes", &s.peak_nodes)
            .finish()
    }
}

/// A Boolean function handle: canonical within its manager, cheap to clone,
/// and kept alive across garbage collection while any handle exists. The
/// handles are the collector's root set; clone and drop go through the
/// owning manager's lock. In netrec a handle never leaves the peer that owns
/// its manager (DESIGN.md "Peer boundary"), so during a run that lock is
/// only ever taken by the peer's own thread.
pub struct Bdd {
    pub(crate) mgr: BddManager,
    pub(crate) id: NodeId,
}

impl Clone for Bdd {
    fn clone(&self) -> Self {
        self.mgr.inner.lock().incref(self.id);
        Bdd {
            mgr: self.mgr.clone(),
            id: self.id,
        }
    }
}

impl Drop for Bdd {
    fn drop(&mut self) {
        self.mgr.inner.lock().decref(self.id);
    }
}

impl PartialEq for Bdd {
    /// Canonicity makes semantic equivalence a pointer comparison — but only
    /// within one manager. Handles from different managers are never equal.
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.mgr.same_arena(&other.mgr)
    }
}

impl Eq for Bdd {}

impl Hash for Bdd {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Bdd {
    fn assert_same_arena(&self, other: &Bdd) {
        assert!(
            self.mgr.same_arena(&other.mgr),
            "combined Bdd handles from different managers"
        );
    }

    #[inline]
    fn binop(&self, other: &Bdd, f: impl FnOnce(&mut Arena, NodeId, NodeId) -> NodeId) -> Bdd {
        self.assert_same_arena(other);
        self.mgr.build(|a| f(a, self.id, other.id))
    }

    /// `self ∧ other` (the provenance of a join, Fig. 6).
    pub fn and(&self, other: &Bdd) -> Bdd {
        self.binop(other, |a, x, y| a.apply(Op::And, x, y))
    }

    /// `self ∨ other` (the provenance of union/duplicate projection, Fig. 6).
    pub fn or(&self, other: &Bdd) -> Bdd {
        self.binop(other, |a, x, y| a.apply(Op::Or, x, y))
    }

    /// `¬self`.
    pub fn not(&self) -> Bdd {
        self.mgr.build(|a| a.not(self.id))
    }

    /// `self ⊕ other`.
    pub fn xor(&self, other: &Bdd) -> Bdd {
        self.binop(other, |a, x, y| a.xor(x, y))
    }

    /// `self ∧ ¬other` — Algorithm 1's `deltaPv` and the pseudocode's `x − y`.
    /// Computed on the two operands directly: `¬other` is not built.
    pub fn diff(&self, other: &Bdd) -> Bdd {
        self.binop(other, |a, x, y| a.apply(Op::Diff, x, y))
    }

    /// If-then-else with `self` as the guard.
    pub fn ite(&self, then: &Bdd, els: &Bdd) -> Bdd {
        assert!(self.mgr.same_arena(&then.mgr) && self.mgr.same_arena(&els.mgr));
        self.mgr.build(|a| a.ite(self.id, then.id, els.id))
    }

    /// Substitute `false` for `var`: the deletion primitive of §4 ("zero out
    /// the variable of the deleted base tuple").
    pub fn restrict_false(&self, var: Var) -> Bdd {
        self.mgr.build(|a| a.restrict(self.id, &[var], false))
    }

    /// Substitute `true` for `var`.
    pub fn restrict_true(&self, var: Var) -> Bdd {
        self.mgr.build(|a| a.restrict(self.id, &[var], true))
    }

    /// Set every variable in `vars` (any order, duplicates allowed) to false
    /// — a batch of base deletions in one pass over the DAG.
    pub fn restrict_all_false(&self, vars: &[Var]) -> Bdd {
        let mut sorted;
        let vars = if vars.windows(2).all(|w| w[0] < w[1]) {
            vars
        } else {
            sorted = vars.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            &sorted
        };
        self.mgr.build(|a| a.restrict(self.id, vars, false))
    }

    /// Existentially quantify one variable.
    pub fn exists(&self, var: Var) -> Bdd {
        self.mgr.build(|a| a.exists(self.id, var))
    }

    /// `true` iff the function is the constant `false` (tuple no longer
    /// derivable).
    pub fn is_false(&self) -> bool {
        self.id == FALSE
    }

    /// `true` iff the function is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.id == TRUE
    }

    /// `self → other` holds for all assignments: the absorption test of
    /// MinShip line 16 (a new derivation is useful iff it is *not* implied by
    /// what was shipped). Equal to `self.diff(other).is_false()`, but decided
    /// by a descent of the two DAGs that makes no node — neither `¬other` nor
    /// the difference — stops at the first counter-example, and memoises its
    /// yes/no answers in the manager's computed table.
    pub fn implies(&self, other: &Bdd) -> bool {
        self.assert_same_arena(other);
        self.mgr.with_arena(|a| a.implies(self.id, other.id))
    }

    /// Ascending list of variables the function depends on.
    pub fn support(&self) -> Vec<Var> {
        self.mgr.with_arena(|a| a.support(self.id))
    }

    /// Whether `var` is in the support.
    pub fn depends_on(&self, var: Var) -> bool {
        self.mgr.with_arena(|a| a.depends_on(self.id, var))
    }

    /// Number of interior DAG nodes — the unit of the paper's per-tuple
    /// provenance size metric.
    pub fn dag_size(&self) -> usize {
        self.mgr.with_arena(|a| a.dag_size(self.id))
    }

    /// Evaluate under a total assignment.
    pub fn eval(&self, mut assignment: impl FnMut(Var) -> bool) -> bool {
        self.mgr.with_arena(|a| a.eval(self.id, &mut assignment))
    }

    /// Number of satisfying assignments over the universe `0..nvars`.
    pub fn sat_count(&self, nvars: u32) -> f64 {
        self.mgr.with_arena(|a| a.sat_count(self.id, nvars))
    }

    /// One satisfying partial assignment, or `None` for `false`.
    pub fn one_sat(&self) -> Option<Vec<(Var, bool)>> {
        self.mgr.with_arena(|a| a.one_sat(self.id))
    }

    /// The manager owning this handle.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bdd({})", crate::display::to_sop_string(self, 8))
    }
}
