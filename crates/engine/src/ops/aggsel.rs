//! Aggregate selection (Algorithm 4) extended to update streams.
//!
//! Prunes tuples that cannot contribute to MIN/MAX objectives: a tuple
//! passes only if it *ties or beats* the current group best under at least
//! one registered aggregate (keeping ties preserves the set of co-optimal
//! answers, as in Sudarshan & Ramakrishnan's original aggregate selection).
//! Deletions of a forwarded best trigger re-emission of the next-best
//! tuples, so downstream state converges to the same fixpoint it would have
//! reached without pruning — with far less traffic (Fig. 14).
//!
//! The state can be embedded inside a Store (Algorithm 1 lines 2–8) or run
//! standalone in front of a MinShip (Algorithm 3 lines 4–8).

use std::collections::BTreeSet;

use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::WireError;
use netrec_types::{FxHashMap, FxHashSet, Tuple, UpdateKind, Value};

use crate::checkpoint::{get_table, put_table, Field, Reader};
use crate::plan::{AggSelSpec, Dest};
use crate::update::Update;

use super::{DeleteOutcome, Ectx, MergeOutcome, ProvTable, Restricted};

/// The reusable pruning state (`H`, `P`, `B` of Algorithm 4, plus the
/// forwarded set `F` that keeps downstream deletion bookkeeping exact).
pub struct AggSelState {
    spec: AggSelSpec,
    /// Group → members, sorted so rebalance scans in deterministic order
    /// without cloning the member set.
    groups: FxHashMap<Tuple, BTreeSet<Tuple>>,
    prov: ProvTable,
    /// Per group: current best value per aggregate.
    best: FxHashMap<Tuple, Vec<Option<Value>>>,
    forwarded: FxHashSet<Tuple>,
}

impl AggSelState {
    /// Fresh state for a pruning spec.
    pub fn new(spec: AggSelSpec, mode: ProvMode) -> AggSelState {
        AggSelState {
            spec,
            groups: FxHashMap::default(),
            prov: ProvTable::new(mode, true),
            best: FxHashMap::default(),
            forwarded: FxHashSet::default(),
        }
    }

    fn group_of(&self, t: &Tuple) -> Tuple {
        t.key(&self.spec.group_cols)
    }

    fn agg_value(&self, t: &Tuple, agg_idx: usize) -> Value {
        t.get(self.spec.aggs[agg_idx].0).clone()
    }

    /// Does `t` tie-or-beat the group best under aggregate `i`?
    fn competitive(&self, g: &Tuple, t: &Tuple, i: usize) -> bool {
        let (_, f) = self.spec.aggs[i];
        match self.best.get(g).and_then(|b| b[i].clone()) {
            None => true,
            Some(best) => {
                let v = self.agg_value(t, i);
                !f.better(&best, &v) // t survives unless strictly worse
            }
        }
    }

    /// Is `t` strictly worse than the best under *every* aggregate (i.e.
    /// dominated and therefore prunable)?
    fn dominated(&self, g: &Tuple, t: &Tuple) -> bool {
        (0..self.spec.aggs.len()).all(|i| !self.competitive(g, t, i))
    }

    fn update_bests(&mut self, g: &Tuple, t: &Tuple) -> bool {
        let n = self.spec.aggs.len();
        let entry = self.best.entry(g.clone()).or_insert_with(|| vec![None; n]);
        let mut improved = false;
        for (slot, (col, f)) in entry.iter_mut().zip(&self.spec.aggs) {
            let v = t.get(*col).clone();
            let better = match slot {
                None => true,
                Some(b) => f.better(&v, b),
            };
            if better {
                *slot = Some(v);
                improved = true;
            }
        }
        improved
    }

    fn recompute_bests(&mut self, g: &Tuple) {
        let n = self.spec.aggs.len();
        let members = self.groups.get(g);
        let mut bests: Vec<Option<Value>> = vec![None; n];
        if let Some(members) = members {
            for t in members {
                for (i, best) in bests.iter_mut().enumerate() {
                    let v = t.get(self.spec.aggs[i].0).clone();
                    let better = match best {
                        None => true,
                        Some(b) => self.spec.aggs[i].1.better(&v, b),
                    };
                    if better {
                        *best = Some(v);
                    }
                }
            }
        }
        if bests.iter().all(Option::is_none) {
            self.best.remove(g);
        } else {
            self.best.insert(g.clone(), bests);
        }
    }

    /// After bests changed for group `g`: retract forwarded tuples that are
    /// now dominated, and forward not-yet-forwarded tuples that became
    /// competitive.
    fn rebalance(&mut self, g: &Tuple, out: &mut Vec<Update>, rel: netrec_types::RelId) {
        let Some(members) = self.groups.get(g) else {
            return;
        };
        // `members` iterates sorted in place; only `forwarded`/`prov`
        // (disjoint fields) are touched inside, so no defensive clone-and-
        // sort of the member set.
        for t in members {
            let is_fwd = self.forwarded.contains(t);
            let dominated = self.dominated(g, t);
            if is_fwd && dominated {
                let pv = self.prov.get(t).cloned().unwrap_or(Prov::None);
                self.forwarded.remove(t);
                out.push(Update::del_retract(rel, t.clone(), pv));
            } else if !is_fwd && !dominated {
                let pv = self.prov.get(t).cloned().unwrap_or(Prov::None);
                self.forwarded.insert(t.clone());
                out.push(Update::ins(rel, t.clone(), pv));
            }
        }
    }

    /// Run the pruning over a batch; returns the updates to pass through
    /// (survivors, revisions, and relevant deletions).
    pub fn filter(&mut self, ups: Vec<Update>) -> Vec<Update> {
        let mut out = Vec::new();
        for u in ups {
            match u.kind {
                UpdateKind::Insert => {
                    let g = self.group_of(&u.tuple);
                    let delta = match self.prov.merge_ins(&u.tuple, &u.prov) {
                        MergeOutcome::New(d) => {
                            self.groups
                                .entry(g.clone())
                                .or_default()
                                .insert(u.tuple.clone());
                            d
                        }
                        MergeOutcome::Changed(d) => d,
                        MergeOutcome::Absorbed => continue,
                    };
                    if self.forwarded.contains(&u.tuple) {
                        // Alternative derivation of an already-forwarded
                        // tuple: keep downstream annotations complete.
                        out.push(Update::ins(u.rel, u.tuple, delta));
                        continue;
                    }
                    if self.dominated(&g, &u.tuple) {
                        continue; // pruned: cannot affect any aggregate
                    }
                    let improved = self.update_bests(&g, &u.tuple);
                    self.forwarded.insert(u.tuple.clone());
                    out.push(Update::ins(u.rel, u.tuple.clone(), delta));
                    if improved {
                        // Retract forwarded tuples the new best dominates.
                        self.rebalance(&g, &mut out, u.rel);
                    }
                }
                UpdateKind::Delete if !u.cause.is_empty() => {
                    let rel = u.rel;
                    let mut touched_groups: BTreeSet<Tuple> = BTreeSet::new();
                    for (t, outcome) in self.prov.restrict_cause(&u.cause) {
                        let forwarded = match outcome {
                            Restricted::Died => {
                                let g = self.group_of(&t);
                                if let Some(set) = self.groups.get_mut(&g) {
                                    set.remove(&t);
                                    if set.is_empty() {
                                        self.groups.remove(&g);
                                    }
                                }
                                touched_groups.insert(g);
                                self.forwarded.remove(&t)
                            }
                            Restricted::Shrunk => self.forwarded.contains(&t),
                        };
                        if forwarded {
                            out.push(Update::del_cause(rel, t, u.cause.clone()));
                        }
                    }
                    for g in touched_groups {
                        self.recompute_bests(&g);
                        self.rebalance(&g, &mut out, rel);
                    }
                }
                UpdateKind::Delete => {
                    let g = self.group_of(&u.tuple);
                    let rel = u.rel;
                    if let Some(outcome) = self.prov.retract(&u.tuple, &u.prov) {
                        match outcome {
                            DeleteOutcome::Died(p) => {
                                if let Some(set) = self.groups.get_mut(&g) {
                                    set.remove(&u.tuple);
                                    if set.is_empty() {
                                        self.groups.remove(&g);
                                    }
                                }
                                if self.forwarded.remove(&u.tuple) {
                                    out.push(Update::del_retract(rel, u.tuple, p));
                                }
                                self.recompute_bests(&g);
                                self.rebalance(&g, &mut out, rel);
                            }
                            DeleteOutcome::Shrunk(p) => {
                                if self.forwarded.contains(&u.tuple) {
                                    out.push(Update::del_retract(rel, u.tuple, p));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Resident state bytes.
    pub fn state_bytes(&self) -> usize {
        self.prov.state_bytes() + self.best.len() * 64 + self.forwarded.len() * 16
    }

    /// Serialise the provenance table and forwarded set. Groups and bests
    /// are pure functions of the table (group columns come from the spec;
    /// bests recompute from members), so they rebuild on restore. The
    /// forwarded set is *not* derivable — it is downstream history — and
    /// must be carried.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        put_table(out, &self.prov);
        self.forwarded.put(out);
    }

    /// Install a checkpointed blob into this freshly-built state.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.prov = get_table(r, &self.prov)?;
        self.forwarded = r.get()?;
        let tuples: Vec<Tuple> = self.prov.tuples().cloned().collect();
        for t in tuples {
            let g = self.group_of(&t);
            self.groups.entry(g).or_default().insert(t);
        }
        let groups: Vec<Tuple> = self.groups.keys().cloned().collect();
        for g in groups {
            self.recompute_bests(&g);
        }
        Ok(())
    }
}

/// Standalone aggregate-selection operator.
pub struct AggSelOp {
    state: AggSelState,
    dests: Vec<Dest>,
}

impl AggSelOp {
    /// Build from plan fields.
    pub fn new(spec: AggSelSpec, dests: Vec<Dest>, mode: ProvMode) -> AggSelOp {
        AggSelOp {
            state: AggSelState::new(spec, mode),
            dests,
        }
    }

    /// Process a batch.
    pub fn on_updates(&mut self, ups: Vec<Update>, ectx: &mut Ectx<'_>) {
        let out = self.state.filter(ups);
        ectx.emit_local(&self.dests, out);
    }

    /// Resident state bytes.
    pub fn state_bytes(&self) -> usize {
        self.state.state_bytes()
    }

    /// Serialise the pruning state.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        self.state.checkpoint(out);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.state.restore(r)
    }
}
