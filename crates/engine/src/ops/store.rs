//! The Store / Fixpoint operator (Algorithm 1).
//!
//! Maintains `P : tuple → provenance` for one relation partition and emits
//! exactly the updates that change some annotation:
//!
//! * insertions merge alternative derivations (`P[t] ∨= pv`) and forward the
//!   non-absorbed delta — when nothing changes, nothing propagates, which is
//!   the fixpoint termination condition;
//! * cause-deletions substitute `false` for the deleted variables across the
//!   (support-indexed) table, forward *death* deletions for tuples that left
//!   the view, and forward *shrink* deletions for tuples whose annotation
//!   lost derivations — each carries the cause and no annotation, and
//!   downstream state restricts by it along the same paths;
//! * retract-deletions subtract a specific annotation (aggregate revisions,
//!   set-mode DRed deletes).
//!
//! A Store whose output loops back into a join's probe input is the plan's
//! fixpoint; the same operator materialises non-recursive views.

use netrec_prov::ProvMode;
use netrec_types::wire::WireError;
use netrec_types::{RelId, Tuple, UpdateKind};

use crate::checkpoint::{get_table, put_table, Field, Reader};
use crate::plan::{AggSelSpec, Dest};
use crate::update::Update;

use super::aggsel::AggSelState;
use super::{DeleteOutcome, Ectx, MergeOutcome, ProvTable, Restricted};

/// Store operator state.
pub struct StoreOp {
    rel: RelId,
    is_view: bool,
    table: ProvTable,
    aggsel: Option<AggSelState>,
    dests: Vec<Dest>,
    /// When set, membership changes (a tuple entering or leaving the view —
    /// `MergeOutcome::New` / a `Died` deletion, never `Changed`/`Shrunk`
    /// annotation-only churn) are appended to `delta_log` for the serving
    /// layer. Off by default so un-served runs pay nothing.
    record_deltas: bool,
    /// Pending membership deltas (`true` = entered, `false` = left), in
    /// event order, drained by the runner at each quiescent boundary.
    delta_log: Vec<(Tuple, bool)>,
}

impl StoreOp {
    /// Build from plan fields.
    pub fn new(
        rel: RelId,
        is_view: bool,
        aggsel: Option<&AggSelSpec>,
        dests: Vec<Dest>,
        mode: ProvMode,
    ) -> StoreOp {
        StoreOp {
            rel,
            is_view,
            // Indexed: Algorithm 1's cause-restrict (`restrict_cause`, the
            // index's reader) touches the affected entries, not the whole
            // partition.
            table: ProvTable::new(mode, true),
            aggsel: aggsel.map(|s| AggSelState::new(s.clone(), mode)),
            dests,
            record_deltas: false,
            delta_log: Vec::new(),
        }
    }

    /// Start recording membership deltas for the serving layer. Call at a
    /// quiescent boundary; deltas accumulate until [`StoreOp::drain_deltas`].
    pub fn enable_deltas(&mut self) {
        self.record_deltas = true;
    }

    /// Take all membership deltas recorded since the last drain (`true` =
    /// tuple entered the view, `false` = left), in event order.
    pub fn drain_deltas(&mut self) -> Vec<(Tuple, bool)> {
        std::mem::take(&mut self.delta_log)
    }

    /// The relation this store materialises.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Whether this store is a reported view.
    pub fn is_view(&self) -> bool {
        self.is_view
    }

    /// Current contents (sorted for determinism).
    pub fn contents(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.table.tuples().cloned().collect();
        v.sort();
        v
    }

    /// Annotation of a tuple (tests / provenance explorer).
    pub fn prov_of(&self, t: &Tuple) -> Option<&netrec_prov::Prov> {
        self.table.get(t)
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Process a batch (Algorithm 1 main loop).
    pub fn on_updates(&mut self, ups: Vec<Update>, ectx: &mut Ectx<'_>) {
        // Embedded aggregate selection (Algorithm 1 lines 2–8): prune the
        // stream before it touches the fixpoint state.
        let ups = match &mut self.aggsel {
            Some(sel) => sel.filter(ups),
            None => ups,
        };
        let mut out = Vec::new();
        for u in ups {
            // Relative mode: annotations arrive rooted at whichever operator
            // produced them (base variable, join output, ...). Re-root at
            // this store's relation so alternative derivations of one view
            // tuple merge as OR-branches of a single node.
            let u = if let netrec_prov::Prov::Rel(_) = &u.prov {
                if u.kind == UpdateKind::Insert {
                    let rerooted = netrec_prov::Prov::rel_derive(
                        u32::MAX - 1,
                        self.rel,
                        u.tuple.clone(),
                        &[&u.prov],
                    );
                    Update {
                        prov: rerooted,
                        ..u
                    }
                } else {
                    u
                }
            } else {
                u
            };
            if crate::trace::matches(&u.tuple) {
                eprintln!(
                    "[trace] p{} store({:?}) IN {:?} {:?} cause={:?} {}",
                    ectx.me.0,
                    self.rel,
                    u.kind,
                    u.tuple,
                    u.cause,
                    crate::trace::supp(&u.prov)
                );
            }
            match u.kind {
                UpdateKind::Insert => match self.table.merge_ins(&u.tuple, &u.prov) {
                    MergeOutcome::New(delta) => {
                        if self.record_deltas {
                            self.delta_log.push((u.tuple.clone(), true));
                        }
                        out.push(Update::ins(self.rel, u.tuple, delta));
                    }
                    MergeOutcome::Changed(delta) => {
                        if crate::trace::matches(&u.tuple) {
                            eprintln!(
                                "[trace] p{} store({:?}) MERGED {:?} now {}",
                                ectx.me.0,
                                self.rel,
                                u.tuple,
                                self.table
                                    .get(&u.tuple)
                                    .map_or("gone".into(), crate::trace::supp)
                            );
                        }
                        out.push(Update::ins(self.rel, u.tuple, delta));
                    }
                    MergeOutcome::Absorbed => {
                        if crate::trace::matches(&u.tuple) {
                            eprintln!(
                                "[trace] p{} store({:?}) ABSORBED {:?}",
                                ectx.me.0, self.rel, u.tuple
                            );
                        }
                    }
                },
                UpdateKind::Delete if !u.cause.is_empty() => {
                    for (t, outcome) in self.table.restrict_cause(&u.cause) {
                        if crate::trace::matches(&t) {
                            eprintln!(
                                "[trace] p{} store({:?}) RESTRICT {:?} by {:?} -> {:?} (left: {})",
                                ectx.me.0,
                                self.rel,
                                t,
                                u.cause,
                                outcome,
                                self.table.get(&t).map_or("gone".into(), crate::trace::supp)
                            );
                        }
                        if outcome == Restricted::Died && self.record_deltas {
                            self.delta_log.push((t.clone(), false));
                        }
                        out.push(Update::del_cause(self.rel, t, u.cause.clone()));
                    }
                }
                UpdateKind::Delete => {
                    if let Some(outcome) = self.table.retract(&u.tuple, &u.prov) {
                        let removed = match outcome {
                            DeleteOutcome::Died(p) => {
                                if self.record_deltas {
                                    self.delta_log.push((u.tuple.clone(), false));
                                }
                                p
                            }
                            DeleteOutcome::Shrunk(p) => p,
                        };
                        out.push(Update::del_retract(self.rel, u.tuple, removed));
                    }
                }
            }
        }
        ectx.emit_local(&self.dests, out);
    }

    /// Serialise the materialised partition and any embedded aggregate
    /// selection. The serving bookkeeping (`record_deltas`, `delta_log`) is
    /// deliberately excluded: checkpoints are taken at a published boundary
    /// where the log has just been drained, and the runner re-enables
    /// recording after restore when a serving handle is attached.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        put_table(out, &self.table);
        self.aggsel.is_some().put(out);
        if let Some(sel) = &self.aggsel {
            sel.checkpoint(out);
        }
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.table = get_table(r, &self.table)?;
        match (r.get::<bool>()?, &mut self.aggsel) {
            (false, None) => Ok(()),
            (true, Some(sel)) => sel.restore(r),
            _ => Err(WireError::Corrupt("aggsel presence mismatch in checkpoint")),
        }
    }

    /// Resident state bytes.
    pub fn state_bytes(&self) -> usize {
        self.table.state_bytes() + self.aggsel.as_ref().map_or(0, |s| s.state_bytes())
    }
}
