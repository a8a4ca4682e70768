//! The pipelined symmetric hash join (Algorithm 2), provenance-aware.
//!
//! Both inputs stream; each side maintains a key-indexed tuple table (`hR`,
//! `hS`) and a provenance table (`pR`, `pS`). Insertions probe the other
//! side with their *delta* annotation against the other side's *merged*
//! annotation — the standard symmetric delta-join, which the paper's
//! pseudocode expresses as `u.pv ∧ pj[t]`. Deletions restrict the arriving
//! tuple's entry and forward cause-carrying deletions for every matching
//! output, so downstream state is restricted along exactly the paths the
//! derivations took.

use std::collections::BTreeSet;

use netrec_prov::{Prov, ProvMode};
use netrec_types::{FxHashMap, RelId, Tuple, UpdateKind, Value};

use crate::expr::{project, Expr, Pred};
use crate::plan::{Dest, JOIN_BUILD};
use crate::update::Update;

use super::{DeleteOutcome, Ectx, MergeOutcome, ProvTable};

struct Side {
    key_cols: Vec<usize>,
    /// Key → matching tuples. The per-key set is a `BTreeSet`, so probe
    /// iteration is deterministic (sorted) by construction — no clone-and-
    /// sort per arriving update — and the outer map probes via the tuples'
    /// cached Fx hash.
    by_key: FxHashMap<Tuple, BTreeSet<Tuple>>,
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
            prov: ProvTable::new(mode, true),
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
            ProvMode::Counting => delta.and(other),
            ProvMode::Absorption => delta.and(other),
            ProvMode::Relative => Prov::rel_derive(
                self.rule_id,
                self.out_rel,
                out_tuple.clone(),
                &[delta, other],
            ),
        }
    }

    /// Process a batch arriving on one input.
    pub fn on_updates(&mut self, input: u8, ups: Vec<Update>, ectx: &mut Ectx<'_>) {
        let mode = ectx.strategy.mode;
        let mut out = Vec::new();
        for u in ups {
            let from_build = input == JOIN_BUILD;
            match u.kind {
                UpdateKind::Insert => {
                    let (mine, other) = if from_build {
                        (&mut self.build, &self.probe)
                    } else {
                        (&mut self.probe, &self.build)
                    };
                    let outcome = mine.prov.merge_ins(&u.tuple, &u.prov);
                    let delta = match outcome {
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
                    let key = mine.key(&u.tuple);
                    for t2 in other.matches(&key) {
                        let row = self.row(from_build, &u.tuple, t2);
                        if !self.preds.iter().all(|p| p.test(&row)) {
                            continue;
                        }
                        let Some(out_tuple) = project(&self.emit, &row) else {
                            continue;
                        };
                        let other_side = if from_build { &self.probe } else { &self.build };
                        let other_prov = other_side.prov.get(t2).expect("matched tuple has prov");
                        let prov = self.out_prov(mode, &delta, other_prov, &out_tuple);
                        // A `Changed` delta is `new ∧ ¬old`; conjoined with
                        // the other side it can annihilate to constant
                        // `false` — zero new derivations. Emitting that as
                        // an insert can resurrect the tuple at a receiver
                        // that already retracted it (DESIGN.md, churn
                        // postmortem: the false-annotation race).
                        if prov.is_unsatisfiable() {
                            continue;
                        }
                        out.push(Update::ins(self.out_rel, out_tuple, prov));
                    }
                }
                UpdateKind::Delete if !u.cause.is_empty() => {
                    // Cause-restrict path (HalfPipeDel + shrink forwarding).
                    let (mine, _) = if from_build {
                        (&mut self.build, &self.probe)
                    } else {
                        (&mut self.probe, &self.build)
                    };
                    let Some(outcome) = mine.prov.restrict_cause_tuple(&u.tuple, &u.cause) else {
                        continue; // unaffected or unknown: cascade stops here
                    };
                    let removed = match outcome {
                        DeleteOutcome::Died(p) => {
                            mine.remove(&u.tuple);
                            p
                        }
                        DeleteOutcome::Shrunk(p) => p,
                    };
                    let key = if from_build {
                        self.build.key(&u.tuple)
                    } else {
                        self.probe.key(&u.tuple)
                    };
                    let other_side = if from_build { &self.probe } else { &self.build };
                    for t2 in other_side.matches(&key) {
                        let row = self.row(from_build, &u.tuple, t2);
                        if !self.preds.iter().all(|p| p.test(&row)) {
                            continue;
                        }
                        let Some(out_tuple) = project(&self.emit, &row) else {
                            continue;
                        };
                        let other_prov = other_side.prov.get(t2).expect("matched");
                        let pv = match mode {
                            ProvMode::Absorption => removed.and(other_prov),
                            _ => removed.clone(),
                        };
                        out.push(Update::del_cause(
                            self.out_rel,
                            out_tuple,
                            pv,
                            u.cause.clone(),
                        ));
                    }
                }
                UpdateKind::Delete => {
                    // Retract path (set semantics / counting / aggregate
                    // revisions flowing through a join).
                    let (mine, _) = if from_build {
                        (&mut self.build, &self.probe)
                    } else {
                        (&mut self.probe, &self.build)
                    };
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
                    let key = if from_build {
                        self.build.key(&u.tuple)
                    } else {
                        self.probe.key(&u.tuple)
                    };
                    let other_side = if from_build { &self.probe } else { &self.build };
                    for t2 in other_side.matches(&key) {
                        let row = self.row(from_build, &u.tuple, t2);
                        if !self.preds.iter().all(|p| p.test(&row)) {
                            continue;
                        }
                        let Some(out_tuple) = project(&self.emit, &row) else {
                            continue;
                        };
                        let other_prov = other_side.prov.get(t2).expect("matched");
                        let pv = self.out_prov(mode, &removed, other_prov, &out_tuple);
                        out.push(Update::del_retract(self.out_rel, out_tuple, pv));
                    }
                }
            }
        }
        ectx.emit_local(&self.dests, out);
    }

    /// Serialise both sides' provenance tables. The key indexes (`by_key`)
    /// are pure functions of the table contents and are rebuilt on restore.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        crate::checkpoint::put_table(out, &self.build.prov);
        crate::checkpoint::put_table(out, &self.probe.prov);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(
        &mut self,
        buf: &mut &[u8],
        mgr: &netrec_bdd::BddManager,
    ) -> Result<(), netrec_types::wire::WireError> {
        for side in [&mut self.build, &mut self.probe] {
            side.prov = crate::checkpoint::get_table(buf, side.prov.mode(), true, mgr)?;
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
