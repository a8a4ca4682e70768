//! Incremental windowed group-by aggregation (§6) with deletion support.
//!
//! Maintains, per group, the multiset of contributing tuples (with their
//! annotations) and the current aggregate value. When the value — or the
//! provenance of the emitted result — changes, the operator retracts the
//! previously emitted output tuple and emits the new one. MIN/MAX outputs
//! carry the disjunction of the annotations of the value's witnesses (as in
//! Algorithm 4's `P[B[...]]`); COUNT/SUM outputs carry a constant-true
//! annotation and rely on explicit retraction for maintenance.

use std::collections::{BTreeMap, BTreeSet};

use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::WireError;
use netrec_types::{FxHashMap, RelId, Tuple, UpdateKind, Value};

use crate::checkpoint::{get_table, put_table, Field, Reader};
use crate::expr::AggFn;
use crate::plan::Dest;
use crate::update::Update;

use super::{DeleteOutcome, Ectx, Merged, ProvTable, Restricted};

/// Group-by aggregate operator state.
pub struct AggregateOp {
    group_cols: Vec<usize>,
    agg: AggFn,
    agg_col: usize,
    out_rel: RelId,
    dests: Vec<Dest>,
    /// All contributing tuples with annotations (deletion support).
    contrib: ProvTable,
    /// Group → sorted multiset of (value, tuples). The per-value witness
    /// sets are `BTreeSet`s so witness iteration is sorted by construction.
    groups: FxHashMap<Tuple, BTreeMap<Value, BTreeSet<Tuple>>>,
    /// Group → last emitted output (tuple, annotation).
    emitted: FxHashMap<Tuple, (Tuple, Prov)>,
}

impl AggregateOp {
    /// Build from plan fields.
    pub fn new(
        group_cols: Vec<usize>,
        agg: AggFn,
        agg_col: usize,
        out_rel: RelId,
        dests: Vec<Dest>,
        mode: ProvMode,
    ) -> AggregateOp {
        AggregateOp {
            group_cols,
            agg,
            agg_col,
            out_rel,
            dests,
            contrib: ProvTable::new(mode, true),
            groups: FxHashMap::default(),
            emitted: FxHashMap::default(),
        }
    }

    fn group_of(&self, t: &Tuple) -> Tuple {
        t.key(&self.group_cols)
    }

    fn value_of(&self, t: &Tuple) -> Value {
        t.get(self.agg_col).clone()
    }

    /// Current aggregate output for a group, or `None` when empty.
    fn compute(
        &self,
        g: &Tuple,
        mode: ProvMode,
        mgr: &netrec_bdd::BddManager,
    ) -> Option<(Tuple, Prov)> {
        let members = self.groups.get(g)?;
        if members.is_empty() {
            return None;
        }
        let (value, witnesses): (Value, &BTreeSet<Tuple>) = match self.agg {
            AggFn::Min => {
                let (v, w) = members.first_key_value()?;
                (v.clone(), w)
            }
            AggFn::Max => {
                let (v, w) = members.last_key_value()?;
                (v.clone(), w)
            }
            AggFn::Count => {
                let n: usize = members.values().map(BTreeSet::len).sum();
                (Value::Int(n as i64), members.values().next()?)
            }
            AggFn::Sum => {
                let mut s = 0i64;
                for (v, ts) in members {
                    s += v.as_int().unwrap_or(0) * ts.len() as i64;
                }
                (Value::Int(s), members.values().next()?)
            }
        };
        let mut out_vals: Vec<Value> = g.values().to_vec();
        out_vals.push(value);
        let out_tuple = Tuple::new(out_vals);
        let prov = match (self.agg, mode) {
            (AggFn::Min | AggFn::Max, ProvMode::Absorption) => {
                // Witness sets iterate in sorted order already.
                let mut acc = mgr.zero();
                for w in witnesses {
                    if let Some(Prov::Bdd(b)) = self.contrib.get(w) {
                        acc = acc.or(b);
                    }
                }
                Prov::Bdd(acc)
            }
            (AggFn::Min | AggFn::Max, ProvMode::Relative) => {
                let ants: Vec<&Prov> = witnesses
                    .iter()
                    .filter_map(|w| self.contrib.get(w))
                    .collect();
                if ants.is_empty() {
                    Prov::None
                } else {
                    Prov::rel_derive(u32::MAX, self.out_rel, out_tuple.clone(), &ants)
                }
            }
            (_, ProvMode::Absorption) => Prov::Bdd(mgr.one()),
            (_, ProvMode::Relative) => Prov::Rel(std::sync::Arc::new(netrec_prov::RelProv::base(
                netrec_bdd::Var::MAX,
            ))),
            (_, ProvMode::Set) => Prov::None,
        };
        Some((out_tuple, prov))
    }

    fn prov_eq(a: &Prov, b: &Prov) -> bool {
        match (a, b) {
            (Prov::None, Prov::None) => true,
            (Prov::Bdd(x), Prov::Bdd(y)) => x == y,
            // Relative annotations: compare by size (graphs are canonical
            // enough for revision detection).
            (Prov::Rel(x), Prov::Rel(y)) => {
                x.node_count() == y.node_count() && x.encoded_len() == y.encoded_len()
            }
            _ => false,
        }
    }

    /// Re-derive the output for `g` and emit DEL/INS revisions on change.
    fn revise(&mut self, g: &Tuple, out: &mut Vec<Update>, ectx: &Ectx<'_>) {
        let new = self.compute(g, ectx.strategy.mode, ectx.mgr);
        let old = self.emitted.get(g);
        match (old, new) {
            (None, None) => {}
            (Some((ot, op)), Some((nt, np))) => {
                if *ot == nt && Self::prov_eq(op, &np) {
                    return;
                }
                let (ot, op) = (ot.clone(), op.clone());
                out.push(Update::del_retract(self.out_rel, ot, op));
                out.push(Update::ins(self.out_rel, nt.clone(), np.clone()));
                self.emitted.insert(g.clone(), (nt, np));
            }
            (Some((ot, op)), None) => {
                out.push(Update::del_retract(self.out_rel, ot.clone(), op.clone()));
                self.emitted.remove(g);
            }
            (None, Some((nt, np))) => {
                out.push(Update::ins(self.out_rel, nt.clone(), np.clone()));
                self.emitted.insert(g.clone(), (nt, np));
            }
        }
    }

    fn detach(&mut self, g: &Tuple, t: &Tuple) {
        if let Some(members) = self.groups.get_mut(g) {
            let v = t.get(self.agg_col).clone();
            if let Some(set) = members.get_mut(&v) {
                set.remove(t);
                if set.is_empty() {
                    members.remove(&v);
                }
            }
            if members.is_empty() {
                self.groups.remove(g);
            }
        }
    }

    /// Process a batch.
    pub fn on_updates(&mut self, ups: Vec<Update>, ectx: &mut Ectx<'_>) {
        let mut out = Vec::new();
        let mut touched: BTreeSet<Tuple> = BTreeSet::new();
        for u in ups {
            match u.kind {
                UpdateKind::Insert => {
                    let g = self.group_of(&u.tuple);
                    // Only whether the group changed matters: the output's
                    // annotation is recomputed from `contrib` by `revise`.
                    match self.contrib.merge(&u.tuple, &u.prov) {
                        Merged::New => {
                            let v = self.value_of(&u.tuple);
                            self.groups
                                .entry(g.clone())
                                .or_default()
                                .entry(v)
                                .or_default()
                                .insert(u.tuple.clone());
                            touched.insert(g);
                        }
                        Merged::Changed => {
                            touched.insert(g);
                        }
                        Merged::Absorbed => {}
                    }
                }
                UpdateKind::Delete if !u.cause.is_empty() => {
                    for (t, outcome) in self.contrib.restrict_cause(&u.cause) {
                        let g = self.group_of(&t);
                        if outcome == Restricted::Died {
                            self.detach(&g, &t);
                        }
                        touched.insert(g);
                    }
                }
                UpdateKind::Delete => {
                    let g = self.group_of(&u.tuple);
                    if let Some(outcome) = self.contrib.retract(&u.tuple, &u.prov) {
                        if matches!(outcome, DeleteOutcome::Died(_)) {
                            self.detach(&g, &u.tuple);
                        }
                        touched.insert(g);
                    }
                }
            }
        }
        for g in touched {
            self.revise(&g, &mut out, ectx);
        }
        ectx.emit_local(&self.dests, out);
    }

    /// Resident state bytes.
    pub fn state_bytes(&self) -> usize {
        self.contrib.state_bytes()
            + self
                .emitted
                .values()
                .map(|(t, p)| t.encoded_len() + p.encoded_len() + 48)
                .sum::<usize>()
    }

    /// Serialise contributors and the emitted-output map. The per-group
    /// value multisets are a pure function of the contributor table
    /// (group/value columns come from the plan) and rebuild on restore;
    /// `emitted` is downstream history and must be carried so revisions
    /// after recovery retract exactly what was previously emitted.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        put_table(out, &self.contrib);
        self.emitted.put(out);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.contrib = get_table(r, &self.contrib)?;
        self.emitted = r.get()?;
        let tuples: Vec<Tuple> = self.contrib.tuples().cloned().collect();
        for t in tuples {
            let g = self.group_of(&t);
            let v = self.value_of(&t);
            self.groups
                .entry(g)
                .or_default()
                .entry(v)
                .or_default()
                .insert(t);
        }
        Ok(())
    }
}
