//! The pipelined symmetric hash join (Algorithm 2), provenance-aware.
//!
//! Both inputs stream; each side maintains a key-indexed tuple table (`hR`,
//! `hS`) and a provenance table (`pR`, `pS`). Insertions probe the other
//! side with their *delta* annotation against the other side's *merged*
//! annotation — the standard symmetric delta-join, which the paper's
//! pseudocode expresses as `u.pv ∧ pj[t]`. Cause-deletions restrict the
//! arriving tuple's entry and forward the cause, with no annotation, for
//! every matching output, so downstream state is restricted along exactly
//! the paths the derivations took.

use std::collections::BTreeSet;

use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::WireError;
use netrec_types::{FxHashMap, RelId, Tuple, UpdateKind, Value};

use crate::checkpoint::{get_table, put_table, Reader};
use crate::expr::{project, Expr, Pred};
use crate::plan::{Dest, JOIN_BUILD};
use crate::update::Update;

use super::{DeleteOutcome, Ectx, MergeOutcome, ProvTable, Restricted};

struct Side {
    key_cols: Vec<usize>,
    /// Key → matching tuples. The per-key set is a `BTreeSet`, so probe
    /// iteration is deterministic (sorted) by construction — no clone-and-
    /// sort per arriving update — and the outer map probes via the tuples'
    /// cached Fx hash.
    by_key: FxHashMap<Tuple, BTreeSet<Tuple>>,
    /// Tuple → annotation (`pR`/`pS`), without a variable index: a
    /// cause-delete restricts the one tuple it names
    /// (`restrict_cause_tuple`), and nothing here reads an index, so no
    /// merge pays a support walk to keep one.
    prov: ProvTable,
}

/// Iterator over the matches for one key, in sorted order, borrowing the
/// side's state (zero allocation per probe).
type Matches<'a> = std::iter::Flatten<std::option::IntoIter<&'a BTreeSet<Tuple>>>;

impl Side {
    fn new(key_cols: Vec<usize>, mode: ProvMode) -> Side {
        Side {
            key_cols,
            by_key: FxHashMap::default(),
            prov: ProvTable::new(mode, false),
        }
    }

    fn key(&self, t: &Tuple) -> Tuple {
        t.key(&self.key_cols)
    }

    fn add(&mut self, t: &Tuple) {
        self.by_key
            .entry(self.key(t))
            .or_default()
            .insert(t.clone());
    }

    fn remove(&mut self, t: &Tuple) {
        let key = self.key(t);
        if let Some(set) = self.by_key.get_mut(&key) {
            set.remove(t);
            if set.is_empty() {
                self.by_key.remove(&key);
            }
        }
    }

    fn matches(&self, key: &Tuple) -> Matches<'_> {
        self.by_key.get(key).into_iter().flatten()
    }
}

/// The join operator state.
pub struct JoinOp {
    preds: Vec<Pred>,
    emit: Vec<Expr>,
    out_rel: RelId,
    rule_id: u32,
    dests: Vec<Dest>,
    build: Side,
    probe: Side,
}

impl JoinOp {
    /// Build from plan fields.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        build_key: Vec<usize>,
        probe_key: Vec<usize>,
        preds: Vec<Pred>,
        emit: Vec<Expr>,
        out_rel: RelId,
        rule_id: u32,
        dests: Vec<Dest>,
        mode: ProvMode,
    ) -> JoinOp {
        JoinOp {
            preds,
            emit,
            out_rel,
            rule_id,
            dests,
            build: Side::new(build_key, mode),
            probe: Side::new(probe_key, mode),
        }
    }

    fn row(&self, from_build: bool, mine: &Tuple, other: &Tuple) -> Vec<Value> {
        // Output rows are always `build ++ probe` regardless of arrival side.
        let (b, p) = if from_build {
            (mine, other)
        } else {
            (other, mine)
        };
        let mut row = Vec::with_capacity(b.arity() + p.arity());
        row.extend_from_slice(b.values());
        row.extend_from_slice(p.values());
        row
    }

    fn out_prov(&self, mode: ProvMode, delta: &Prov, other: &Prov, out_tuple: &Tuple) -> Prov {
        match mode {
            ProvMode::Set => Prov::None,
            ProvMode::Absorption => delta.and(other),
            ProvMode::Relative => Prov::rel_derive(
                self.rule_id,
                self.out_rel,
                out_tuple.clone(),
                &[delta, other],
            ),
        }
    }

    /// The side an update on `from_build`'s input arrives on.
    fn arrival(&mut self, from_build: bool) -> &mut Side {
        if from_build {
            &mut self.build
        } else {
            &mut self.probe
        }
    }

    /// Probe the other side with `tuple`, which arrived on `from_build`'s
    /// input: for each match whose row passes the predicates and projects,
    /// `make` is given the output tuple and the match's annotation, and the
    /// update it returns, if any, is pushed to `out` — in match order.
    fn probe_other(
        &self,
        from_build: bool,
        tuple: &Tuple,
        out: &mut Vec<Update>,
        mut make: impl FnMut(Tuple, &Prov) -> Option<Update>,
    ) {
        let (mine, other) = if from_build {
            (&self.build, &self.probe)
        } else {
            (&self.probe, &self.build)
        };
        for t2 in other.matches(&mine.key(tuple)) {
            let row = self.row(from_build, tuple, t2);
            if !self.preds.iter().all(|p| p.test(&row)) {
                continue;
            }
            let Some(out_tuple) = project(&self.emit, &row) else {
                continue;
            };
            let other_prov = other.prov.get(t2).expect("matched tuple has prov");
            if let Some(u) = make(out_tuple, other_prov) {
                out.push(u);
            }
        }
    }

    /// Process a batch arriving on one input.
    pub fn on_updates(&mut self, input: u8, ups: Vec<Update>, ectx: &mut Ectx<'_>) {
        let mode = ectx.strategy.mode;
        let from_build = input == JOIN_BUILD;
        let mut out = Vec::new();
        for u in ups {
            match u.kind {
                UpdateKind::Insert => {
                    let mine = self.arrival(from_build);
                    let delta = match mine.prov.merge_ins(&u.tuple, &u.prov) {
                        MergeOutcome::New(d) => {
                            mine.add(&u.tuple);
                            d
                        }
                        MergeOutcome::Changed(d) => d,
                        // Set semantics: duplicate suppression belongs to the
                        // stores, *after* shipping (§3.2; DRed's re-derive
                        // phase depends on joins forwarding re-inserted base
                        // tuples). Termination still holds because stores
                        // absorb duplicates and forward nothing.
                        MergeOutcome::Absorbed if mode == ProvMode::Set => Prov::None,
                        MergeOutcome::Absorbed => continue,
                    };
                    self.probe_other(from_build, &u.tuple, &mut out, |out_tuple, other| {
                        let prov = self.out_prov(mode, &delta, other, &out_tuple);
                        // A `Changed` delta is `new ∧ ¬old`; conjoined with
                        // the other side it can annihilate to constant
                        // `false` — zero new derivations. Emitting that as
                        // an insert can resurrect the tuple at a receiver
                        // that already retracted it (DESIGN.md, churn
                        // postmortem: the false-annotation race).
                        (!prov.is_unsatisfiable())
                            .then(|| Update::ins(self.out_rel, out_tuple, prov))
                    });
                }
                UpdateKind::Delete if !u.cause.is_empty() => {
                    // Cause-restrict path (HalfPipeDel + shrink forwarding).
                    let mine = self.arrival(from_build);
                    let Some(outcome) = mine.prov.restrict_cause_tuple(&u.tuple, &u.cause) else {
                        continue; // unaffected or unknown: cascade stops here
                    };
                    if outcome == Restricted::Died {
                        mine.remove(&u.tuple);
                    }
                    self.probe_other(from_build, &u.tuple, &mut out, |out_tuple, _| {
                        Some(Update::del_cause(self.out_rel, out_tuple, u.cause.clone()))
                    });
                }
                UpdateKind::Delete => {
                    // Retract path (set semantics / aggregate revisions
                    // flowing through a join).
                    let mine = self.arrival(from_build);
                    let Some(outcome) = mine.prov.retract(&u.tuple, &u.prov) else {
                        continue;
                    };
                    let removed = match outcome {
                        DeleteOutcome::Died(p) => {
                            mine.remove(&u.tuple);
                            p
                        }
                        DeleteOutcome::Shrunk(p) => p,
                    };
                    self.probe_other(from_build, &u.tuple, &mut out, |out_tuple, other| {
                        let pv = self.out_prov(mode, &removed, other, &out_tuple);
                        Some(Update::del_retract(self.out_rel, out_tuple, pv))
                    });
                }
            }
        }
        ectx.emit_local(&self.dests, out);
    }

    /// Serialise both sides' provenance tables. The key indexes (`by_key`)
    /// are pure functions of the table contents and are rebuilt on restore.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        put_table(out, &self.build.prov);
        put_table(out, &self.probe.prov);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        for side in [&mut self.build, &mut self.probe] {
            side.prov = get_table(r, &side.prov)?;
            let tuples: Vec<Tuple> = side.prov.tuples().cloned().collect();
            for t in &tuples {
                side.add(t);
            }
        }
        Ok(())
    }

    /// Resident state bytes across both sides.
    pub fn state_bytes(&self) -> usize {
        self.build.prov.state_bytes() + self.probe.prov.state_bytes()
    }

    /// Live tuples per side (diagnostics).
    pub fn side_sizes(&self) -> (usize, usize) {
        (self.build.prov.len(), self.probe.prov.len())
    }
}
