//! EDB ingress: variable allocation, set-semantics dedup, soft-state TTLs,
//! deletion origination, and DRed re-derivation.
//!
//! A relation declared `static` is never deleted, so under absorption its
//! tuples carry `true` rather than a variable (DESIGN.md "Substitution
//! ledger"): a variable that is never set false is `true` from the start.

use std::sync::Arc;

use netrec_bdd::Var;
use netrec_prov::{Prov, ProvMode, VarAllocator, VarTable};
use netrec_types::wire::WireError;
use netrec_types::{Duration, FxHashMap, FxHashSet, RelId, Tuple, UpdateKind};

use crate::checkpoint::{Field, Reader};
use crate::plan::Dest;
use crate::update::Update;

use super::Ectx;

/// Ingress operator for one base relation on one peer.
pub struct IngressOp {
    rel: RelId,
    /// The relation's partition column: its address orders the variable.
    part_col: usize,
    dests: Vec<Dest>,
    /// Live base tuples → provenance variable (annotation modes) —
    /// also the set-semantics dedup table (every mode).
    vars: VarTable,
    /// A static relation's live tuples under absorption, where each carries
    /// `true`: its dedup table in place of `vars`. `None` for every other
    /// relation and mode (relative provenance has no true leaf).
    fixed: Option<FxHashSet<Tuple>>,
    /// TTL bookkeeping: timer id → (tuple, var-at-arming). Expiry is ignored
    /// if the tuple was deleted (and possibly re-inserted with a new var)
    /// in the meantime.
    pending_ttl: FxHashMap<u32, (Tuple, Option<Var>)>,
    next_ttl: u32,
}

impl IngressOp {
    /// New ingress for `rel`, partitioned on `part_col`, feeding `dests`;
    /// `fixed` when its tuples carry `true` rather than a variable.
    pub fn new(rel: RelId, part_col: usize, dests: Vec<Dest>, fixed: bool) -> IngressOp {
        IngressOp {
            rel,
            part_col,
            dests,
            vars: VarTable::new(),
            fixed: fixed.then(FxHashSet::default),
            pending_ttl: FxHashMap::default(),
            next_ttl: 0,
        }
    }

    /// The base relation.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Provenance variable of a live base tuple (tests, provenance explorer);
    /// `None` for a tuple that carries `true`.
    pub fn var_of(&self, t: &Tuple) -> Option<Var> {
        self.vars.get(self.rel, t)
    }

    /// Live base tuples (used by tests and the DRed driver).
    pub fn live(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples().cloned().collect();
        v.sort();
        v
    }

    fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        let fixed = self.fixed.iter().flatten();
        self.vars.iter().map(|(_, t, _)| t).chain(fixed)
    }

    /// Handle an external base operation. Returns the TTL timer request (if
    /// any) for the peer to arm: `(local ttl id, delay)`.
    pub fn on_base(
        &mut self,
        kind: UpdateKind,
        tuple: Tuple,
        ttl: Option<Duration>,
        alloc: &mut VarAllocator,
        ectx: &mut Ectx<'_>,
    ) -> Option<(u32, Duration)> {
        match kind {
            UpdateKind::Insert => {
                if let Some(fixed) = &mut self.fixed {
                    if fixed.insert(tuple.clone()) {
                        let up = Update::ins(self.rel, tuple, Prov::Bdd(ectx.mgr.one()));
                        ectx.emit_local(&self.dests, vec![up]);
                    }
                    return None; // `Runner::inject` refuses a TTL here
                }
                // The partition value places the variable in the order; a
                // key this peer does not own (a tuple handed to the wrong
                // peer) is withheld, so another peer's block is never used.
                let key = tuple
                    .try_get(self.part_col)
                    .filter(|k| ectx.partitioner.place_value(Some(k)) == ectx.me);
                let Some(var) = self.vars.insert(self.rel, tuple.clone(), key, alloc) else {
                    return None; // duplicate insertion: set semantics no-op
                };
                if crate::trace::enabled() {
                    eprintln!("[trace] p{} BASE-INS {:?} var={}", ectx.me.0, tuple, var);
                }
                let prov = Prov::base(ectx.strategy.mode, var, ectx.mgr);
                let up = Update::ins(self.rel, tuple.clone(), prov);
                ectx.emit_local(&self.dests, vec![up]);
                ttl.map(|d| {
                    let id = self.next_ttl;
                    self.next_ttl += 1;
                    self.pending_ttl.insert(id, (tuple, Some(var)));
                    (id, d)
                })
            }
            UpdateKind::Delete => {
                self.delete(tuple, ectx);
                None
            }
        }
    }

    fn delete(&mut self, tuple: Tuple, ectx: &mut Ectx<'_>) {
        let Some(var) = self.vars.remove(self.rel, &tuple) else {
            return; // deleting an absent tuple is ignored (§6's assumption)
        };
        if crate::trace::enabled() {
            eprintln!("[trace] p{} BASE-DEL {:?} var={}", ectx.me.0, tuple, var);
        }
        match ectx.strategy.mode {
            ProvMode::Set => {
                let up = Update::del_retract(self.rel, tuple, Prov::None);
                ectx.emit_local(&self.dests, vec![up]);
            }
            ProvMode::Absorption | ProvMode::Relative => {
                let cause: Arc<[Var]> = Arc::from(vec![var].into_boxed_slice());
                let up = Update::del_cause(self.rel, tuple, cause);
                ectx.emit_local(&self.dests, vec![up]);
            }
        }
    }

    /// A TTL timer fired: delete the tuple if still live under the same
    /// variable (explicit deletion or re-insertion cancels expiry).
    pub fn on_ttl(&mut self, ttl_id: u32, ectx: &mut Ectx<'_>) {
        let Some((tuple, armed_var)) = self.pending_ttl.remove(&ttl_id) else {
            return;
        };
        let current = self.vars.get(self.rel, &tuple);
        if current.is_some() && current == armed_var {
            self.delete(tuple, ectx);
        }
    }

    /// DRed phase 2: re-emit every live base tuple as an insertion (set
    /// semantics downstream dedups *after* shipping, reproducing DRed's
    /// re-derivation traffic).
    pub fn rederive(&mut self, ectx: &mut Ectx<'_>) {
        let ups: Vec<Update> = self
            .live()
            .into_iter()
            .map(|t| Update::ins(self.rel, t, Prov::None))
            .collect();
        ectx.emit_local(&self.dests, ups);
    }

    /// Resident state bytes: a tuple that carries `true` is charged as if
    /// it held a variable.
    pub fn state_bytes(&self) -> usize {
        self.tuples().map(|t| t.encoded_len() + 4 + 48).sum()
    }

    /// Serialise the live-tuple table and TTL bookkeeping. At a converged
    /// barrier no TTL timer is pending (quiescence drains timers), so
    /// `pending_ttl` holds nothing a restored substrate would need to
    /// re-arm; it is carried anyway for exactness, as is `next_ttl` so
    /// restored runs never reuse a timer id. A static relation's tuple set
    /// stands where the variable table would.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        match &self.fixed {
            Some(fixed) => fixed.put(out),
            None => self.vars.put(out),
        }
        self.pending_ttl.put(out);
        self.next_ttl.put(out);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        match &mut self.fixed {
            Some(fixed) => *fixed = r.get()?,
            None => self.vars = r.get()?,
        }
        self.pending_ttl = r.get()?;
        self.next_ttl = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_types::{wire, Value};

    /// Every 32-bit field of the checkpoint (base variable, TTL id, armed
    /// variable, next TTL id) rejects 2^32 — a 5-byte varint `as u32` would
    /// truncate to 0 — and accepts the same blob with the value in range.
    #[test]
    fn restore_rejects_values_beyond_32_bits() {
        let mut tuple = Vec::new();
        wire::put_tuple(&mut tuple, &Tuple::new(vec![Value::Int(1)]));
        let t = tuple.as_slice();
        // (bytes before the field, bytes after it) of an otherwise valid blob.
        let fields: [(Vec<u8>, Vec<u8>); 4] = [
            ([&[1, 0], t].concat(), vec![0, 0]),
            (vec![0, 1], [t, &[0, 0]].concat()),
            ([&[0, 1, 0], t, &[1]].concat(), vec![0]),
            (vec![0, 0], Vec::new()),
        ];
        for (i, (before, after)) in fields.iter().enumerate() {
            let restore = |v: &[u8]| {
                let bytes = [before, v, after].concat();
                IngressOp::new(RelId(0), 0, Vec::new(), false)
                    .restore(&mut Reader::new(&bytes, None))
            };
            assert_eq!(restore(&[7]), Ok(()), "field {i}");
            assert!(
                matches!(
                    restore(&[0x80, 0x80, 0x80, 0x80, 0x10]),
                    Err(WireError::Corrupt(_))
                ),
                "field {i}: 2^32 accepted"
            );
        }
    }
}
