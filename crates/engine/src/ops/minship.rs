//! The MinShip operator (Algorithm 3): provenance-buffering ship.
//!
//! The first derivation of every tuple ships immediately (it changes the
//! downstream result); later derivations are buffered in `Pins` where
//! absorption merges them. Deletions accumulate in `Pdel`:
//!
//! * **Eager** policy: buffers flush on a periodic timer or when the batch
//!   threshold is reached (the paper flushes once a second).
//! * **Lazy** policy: insertions stay buffered indefinitely; a deletion for
//!   a shipped tuple flushes the deletion *and* the buffered alternative
//!   derivation, restoring the receiver's knowledge just in time.
//! * **Immediate** policy: degenerate to a conventional Ship (every update
//!   forwarded as-is) — the costliest configuration.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use netrec_bdd::Var;
use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::{self, WireError};
use netrec_types::{FxHashMap, FxHashSet, Tuple, UpdateKind};

use crate::plan::Dest;
use crate::strategy::ShipPolicy;
use crate::update::Update;

use super::{Ectx, ProvTable, ENTRY_OVERHEAD};

/// What one variable of a ship-ledger entry counts for in `state_bytes`.
const LEDGER_VAR_BYTES: usize = 4;

/// What a ship-ledger entry of `vars` variables counts for in `state_bytes`.
fn ledger_entry_cost(t: &Tuple, vars: usize) -> usize {
    t.encoded_len() + vars * LEDGER_VAR_BYTES + ENTRY_OVERHEAD
}

/// MinShip operator state.
pub struct MinShipOp {
    route_col: Option<usize>,
    dest: Dest,
    /// Annotations already shipped (`Bsent`), kept restricted so the local
    /// view of the receiver's knowledge stays accurate.
    sent: ProvTable,
    /// Buffered insertions (`Pins`).
    pins: ProvTable,
    /// Buffered deletions (`Pdel`): tuple → (annotation, accumulated cause).
    pdel: FxHashMap<Tuple, (Prov, Vec<Var>)>,
    /// Tuples whose *shipped* annotation has been cause-restricted since it
    /// was last sent. For these, `sent` is a stale mirror of the receiver's
    /// knowledge (a cause can reach the receiver along another dataflow path
    /// and kill its copy outright), so arriving derivations must ship rather
    /// than buffer — otherwise a revived tuple strands in `pins` and the
    /// receiver over-deletes.
    dirty: FxHashSet<Tuple>,
    /// Base variables ever shipped per tuple: the un-restricted history of
    /// everything the receiver has been told, and the only sound input for
    /// cause routing. `sent` cannot play that role — the receiver merges
    /// contributions from *all* senders with node interning, so its graph can
    /// keep a tuple derivable through hybrid cross-sender paths that no
    /// single sender's (restricted) mirror still mentions. When this peer
    /// learns a variable is dead, every tuple whose shipped history contains
    /// it gets the cause forwarded (via `pdel`); the receiving store's
    /// table-wide restrict then kills the branch wherever it ended up.
    /// Entries shed a variable once its death has been forwarded — a peer
    /// learns each dead variable exactly once.
    shipped: FxHashMap<Tuple, FxHashSet<Var>>,
    /// Σ [`ledger_entry_cost`] over `shipped`, maintained where it changes
    /// (`ledger_record`, the sweep in `on_dead_vars`, `restore`): the ledger
    /// has an entry per tuple ever shipped, and `state_bytes` is read on
    /// every run.
    ledger_bytes: usize,
    /// Relation tag observed on the stream (for re-emission).
    rel_seen: Option<netrec_types::RelId>,
    /// Whether a flush timer is currently armed (eager mode).
    pub(crate) timer_armed: bool,
}

impl MinShipOp {
    /// Build from plan fields.
    pub fn new(route_col: Option<usize>, dest: Dest, mode: ProvMode) -> MinShipOp {
        MinShipOp {
            route_col,
            dest,
            sent: ProvTable::new(mode, false),
            pins: ProvTable::new(mode, false),
            pdel: FxHashMap::default(),
            dirty: FxHashSet::default(),
            shipped: FxHashMap::default(),
            ledger_bytes: 0,
            rel_seen: None,
            timer_armed: false,
        }
    }

    /// Number of distinct tuples currently buffered.
    fn buffered(&self) -> usize {
        self.pins.len() + self.pdel.len()
    }

    /// Record an insertion ship in the ledger (every path that sends an
    /// annotation downstream must pass through here).
    fn ledger_record(&mut self, t: &Tuple, pv: &Prov) {
        let vars = match pv {
            Prov::Bdd(b) => b.support(),
            Prov::Rel(r) => r.support(),
            _ => return,
        };
        if vars.is_empty() {
            return;
        }
        let entry = match self.shipped.entry(t.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.ledger_bytes += ledger_entry_cost(t, 0);
                e.insert(FxHashSet::default())
            }
        };
        let before = entry.len();
        entry.extend(vars);
        self.ledger_bytes += (entry.len() - before) * LEDGER_VAR_BYTES;
    }

    /// The hosting peer learned that `dead` base variables died (a
    /// cause-delete arrived on *any* port — not necessarily this operator's
    /// input stream; the relaying join may have nothing left to emit here).
    /// Restrict the local mirrors — this is the one place a dead variable
    /// is applied to `pins` and `sent`, once per (peer, variable) — then
    /// sweep the ship ledger and forward the cause to the owner of every
    /// tuple whose shipped history mentions a dying variable. Returns `true`
    /// if the caller should arm a flush timer (eager mode with
    /// newly-buffered deletions).
    pub fn on_dead_vars(&mut self, dead: &[Var], ectx: &mut Ectx<'_>) -> bool {
        let policy = ectx.strategy.ship;
        if matches!(policy, ShipPolicy::Immediate) {
            return false;
        }
        // Restrict buffered and sent knowledge (Alg. 3 L20–25). Only tuples
        // that *survive* in `sent` need a staleness marker: entries that
        // died re-enter through the first-derivation branch anyway.
        let _ = self.pins.restrict_cause(dead);
        for (t, outcome) in self.sent.restrict_cause(dead) {
            if matches!(outcome, super::DeleteOutcome::Shrunk(_)) {
                self.dirty.insert(t);
            }
        }
        let mut hit_any = false;
        let MinShipOp {
            shipped,
            ledger_bytes,
            sent,
            pdel,
            ..
        } = self;
        let mode = sent.mode();
        shipped.retain(|t, vars| {
            let hit: Vec<Var> = dead.iter().copied().filter(|v| vars.remove(v)).collect();
            if hit.is_empty() {
                return true;
            }
            hit_any = true;
            *ledger_bytes -= if vars.is_empty() {
                ledger_entry_cost(t, hit.len())
            } else {
                hit.len() * LEDGER_VAR_BYTES
            };
            let entry = pdel.entry(t.clone()).or_insert_with(|| {
                // The annotation on a cause-delete is informational (the
                // receiving store restricts table-wide by the cause); when
                // the mirror already dropped the tuple, a base annotation of
                // one dying variable is an honest stand-in.
                let pv = sent
                    .get(t)
                    .cloned()
                    .unwrap_or_else(|| Prov::base(mode, hit[0], ectx.mgr));
                (pv, Vec::new())
            });
            for v in hit {
                if !entry.1.contains(&v) {
                    entry.1.push(v);
                }
            }
            !vars.is_empty()
        });
        if !hit_any {
            return false;
        }
        match policy {
            ShipPolicy::Lazy => {
                self.flush_lazy(ectx);
                false
            }
            ShipPolicy::Eager { batch, .. } => {
                if self.buffered() >= batch {
                    self.flush_eager(ectx);
                    false
                } else {
                    let should_arm = self.buffered() > 0 && !self.timer_armed;
                    if should_arm {
                        self.timer_armed = true;
                    }
                    should_arm
                }
            }
            ShipPolicy::Immediate => false,
        }
    }

    /// Process a batch. Returns `true` if the caller should arm a flush
    /// timer (eager mode with newly-buffered state).
    ///
    /// **Contract:** the hosting peer has applied every cause variable
    /// before dispatch — each variable in the `cause` of a delete in `ups`
    /// has already been through [`MinShipOp::on_dead_vars`] on this
    /// operator, and every insertion in `ups` has been stripped of the
    /// peer's dead variables (`EnginePeer::on_message`: `record_causes` →
    /// `forward_dead_vars` → `sanitize` → `dispatch`). The mirrors therefore
    /// never mention a variable of an arriving cause, and a cause-delete
    /// costs work proportional to the update, not to the tables (DESIGN.md
    /// "Deletion propagation", invariants I1–I3).
    pub fn on_updates(&mut self, ups: Vec<Update>, ectx: &mut Ectx<'_>) -> bool {
        let policy = ectx.strategy.ship;
        if matches!(policy, ShipPolicy::Immediate) {
            ectx.emit_routed(self.route_col, self.dest, ups);
            return false;
        }
        let mut send_now: Vec<Update> = Vec::new();
        for u in ups {
            if crate::trace::matches(&u.tuple) {
                eprintln!(
                    "[trace] p{} minship IN {:?} {:?} cause={:?} {} sent={} dirty={}",
                    ectx.me.0,
                    u.kind,
                    u.tuple,
                    u.cause,
                    crate::trace::supp(&u.prov),
                    self.sent.contains(&u.tuple),
                    self.dirty.contains(&u.tuple),
                );
            }
            self.rel_seen = Some(u.rel);
            match u.kind {
                UpdateKind::Insert => {
                    if !self.sent.contains(&u.tuple) {
                        // First derivation: ship immediately (Alg. 3 L11–13).
                        // The fresh ship resets any staleness marker — `sent`
                        // mirrors the receiver again for this tuple.
                        self.dirty.remove(&u.tuple);
                        self.sent.merge(&u.tuple, &u.prov);
                        self.ledger_record(&u.tuple, &u.prov);
                        send_now.push(u);
                    } else if self.dirty.remove(&u.tuple) {
                        // The shipped annotation was restricted since the
                        // last send, so the receiver's copy may have died
                        // along another propagation path. Ship the arriving
                        // derivation instead of buffering it so the receiver
                        // can revive the tuple.
                        self.sent.merge(&u.tuple, &u.prov);
                        self.ledger_record(&u.tuple, &u.prov);
                        send_now.push(u);
                    } else {
                        // Absorbed into what was already sent? (L16)
                        let absorbed = match (&u.prov, self.sent.get(&u.tuple)) {
                            (Prov::Bdd(pv), Some(Prov::Bdd(sent))) => pv.implies(sent),
                            (Prov::Rel(pv), Some(Prov::Rel(sent))) => !sent.would_change(pv),
                            _ => true, // set/counting: nothing new to say
                        };
                        if crate::trace::matches(&u.tuple) {
                            eprintln!(
                                "[trace] p{} minship {} {:?}",
                                ectx.me.0,
                                if absorbed { "ABSORB" } else { "PIN" },
                                u.tuple
                            );
                        }
                        if !absorbed {
                            self.pins.merge(&u.tuple, &u.prov);
                        }
                    }
                }
                UpdateKind::Delete if !u.cause.is_empty() => {
                    // The mirrors need no restricting here: `on_dead_vars`
                    // already applied every variable of `u.cause` (see the
                    // contract above).
                    debug_assert!(
                        !self.sent.mentions_any(&u.cause) && !self.pins.mentions_any(&u.cause),
                        "MinShip mirror mentions a dead variable of {:?}: a cause was \
                         dispatched before on_dead_vars, or an unsanitised insert got in",
                        u.cause
                    );
                    if self.sent.contains(&u.tuple) {
                        self.dirty.insert(u.tuple.clone());
                    }
                    let entry = self
                        .pdel
                        .entry(u.tuple.clone())
                        .or_insert_with(|| (u.prov.clone(), Vec::new()));
                    if let (Prov::Bdd(acc), Prov::Bdd(pv)) = (&entry.0, &u.prov) {
                        entry.0 = Prov::Bdd(acc.or(pv));
                    }
                    for v in u.cause.iter() {
                        if !entry.1.contains(v) {
                            entry.1.push(*v);
                        }
                    }
                    if matches!(policy, ShipPolicy::Lazy) {
                        self.flush_lazy(ectx);
                    }
                }
                UpdateKind::Delete => {
                    // Retraction: drop any buffered insertion and forward.
                    let _ = self.pins.retract(&u.tuple, &u.prov);
                    let _ = self.sent.retract(&u.tuple, &u.prov);
                    send_now.push(u);
                }
            }
        }
        if !send_now.is_empty() {
            ectx.emit_routed(self.route_col, self.dest, send_now);
        }
        match policy {
            ShipPolicy::Eager { batch, .. } => {
                if self.buffered() >= batch {
                    self.flush_eager(ectx);
                    false
                } else {
                    let should_arm = self.buffered() > 0 && !self.timer_armed;
                    if should_arm {
                        self.timer_armed = true;
                    }
                    should_arm
                }
            }
            _ => false,
        }
    }

    /// Eager flush (BatchShipEager): ship all buffered insertions and
    /// deletions, bucketed by destination peer as they are drained — the
    /// buckets go straight to [`Ectx::emit_batches`] instead of a flat
    /// stream [`Ectx::emit_routed`] would re-split. Returns `true` if
    /// anything was sent.
    pub fn flush_eager(&mut self, ectx: &mut Ectx<'_>) -> bool {
        let Some(rel) = self.rel_seen else {
            return false;
        };
        let mut by_peer: BTreeMap<netrec_sim::PeerId, Vec<Update>> = BTreeMap::new();
        // Deletions first: they unblock receiver-side state.
        let pdel = std::mem::take(&mut self.pdel);
        let mut dels: Vec<(Tuple, (Prov, Vec<Var>))> = pdel.into_iter().collect();
        dels.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sent = false;
        for (t, (pv, cause)) in dels {
            let peer = ectx.peer_for(self.route_col, &t);
            sent = true;
            by_peer.entry(peer).or_default().push(Update::del_cause(
                rel,
                t,
                pv,
                Arc::from(cause.into_boxed_slice()),
            ));
        }
        let mut ins = self.pins.drain();
        ins.sort_by(|a, b| a.0.cmp(&b.0));
        for (t, pv) in ins {
            self.sent.merge(&t, &pv);
            self.ledger_record(&t, &pv);
            let peer = ectx.peer_for(self.route_col, &t);
            sent = true;
            by_peer
                .entry(peer)
                .or_default()
                .push(Update::ins(rel, t, pv));
        }
        ectx.emit_batches(self.dest, by_peer);
        sent
    }

    /// Lazy flush (BatchShipLazy): ship buffered deletions, each followed by
    /// the buffered alternative derivation of the same tuple (if any).
    fn flush_lazy(&mut self, ectx: &mut Ectx<'_>) {
        let Some(rel) = self.rel_seen else { return };
        let mut out: Vec<Update> = Vec::new();
        let pdel = std::mem::take(&mut self.pdel);
        let mut dels: Vec<(Tuple, (Prov, Vec<Var>))> = pdel.into_iter().collect();
        dels.sort_by(|a, b| a.0.cmp(&b.0));
        for (t, (pv, cause)) in dels {
            if crate::trace::matches(&t) {
                eprintln!(
                    "[trace] p{} minship FLUSH-DEL {:?} cause={:?} alt={}",
                    ectx.me.0,
                    t,
                    cause,
                    self.pins.get(&t).map_or("none".into(), crate::trace::supp)
                );
            }
            out.push(Update::del_cause(
                rel,
                t.clone(),
                pv,
                Arc::from(cause.into_boxed_slice()),
            ));
            if let Some(alt) = self.pins.get(&t).cloned() {
                self.sent.merge(&t, &alt);
                self.ledger_record(&t, &alt);
                out.push(Update::ins(rel, t.clone(), alt.clone()));
                let _ = self.pins.retract(&t, &alt);
            }
        }
        ectx.emit_routed(self.route_col, self.dest, out);
    }

    /// Timer fired (eager period elapsed).
    pub fn on_flush_timer(&mut self, ectx: &mut Ectx<'_>) -> bool {
        self.timer_armed = false;
        self.flush_eager(ectx);
        // Re-arm if new state accumulated during the flush.
        let rearm = self.buffered() > 0;
        if rearm {
            self.timer_armed = true;
        }
        rearm
    }

    /// Resident state bytes (`Bsent` + `Pins` + `Pdel` + ship ledger).
    pub fn state_bytes(&self) -> usize {
        let pdel: usize = self
            .pdel
            .iter()
            .map(|(t, (p, c))| t.encoded_len() + p.encoded_len() + c.len() * 4 + 48)
            .sum();
        self.sent.state_bytes() + self.pins.state_bytes() + pdel + self.ledger_bytes
    }

    /// Serialise `Bsent`, `Pins`, `Pdel`, the staleness markers, the ship
    /// ledger, and the stream bookkeeping. The ledger is the part recovery
    /// cannot live without: it is the only record of everything the
    /// receivers were ever told, so a restored peer can still route future
    /// deaths to them.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        crate::checkpoint::put_table(out, &self.sent);
        crate::checkpoint::put_table(out, &self.pins);
        let mut dels: Vec<(&Tuple, &(Prov, Vec<Var>))> = self.pdel.iter().collect();
        dels.sort_by(|a, b| a.0.cmp(b.0));
        wire::put_varint(out, dels.len() as u64);
        for (t, (pv, cause)) in dels {
            wire::put_tuple(out, t);
            crate::checkpoint::put_prov(out, pv);
            wire::put_varint(out, cause.len() as u64);
            for v in cause {
                wire::put_varint(out, u64::from(*v));
            }
        }
        let mut dirty: Vec<&Tuple> = self.dirty.iter().collect();
        dirty.sort();
        wire::put_varint(out, dirty.len() as u64);
        for t in dirty {
            wire::put_tuple(out, t);
        }
        let mut ledger: Vec<(&Tuple, &FxHashSet<Var>)> = self.shipped.iter().collect();
        ledger.sort_by(|a, b| a.0.cmp(b.0));
        wire::put_varint(out, ledger.len() as u64);
        for (t, vars) in ledger {
            wire::put_tuple(out, t);
            let mut vs: Vec<Var> = vars.iter().copied().collect();
            vs.sort_unstable();
            wire::put_varint(out, vs.len() as u64);
            for v in vs {
                wire::put_varint(out, u64::from(v));
            }
        }
        match self.rel_seen {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                wire::put_varint(out, u64::from(r.0));
            }
        }
        out.push(u8::from(self.timer_armed));
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(
        &mut self,
        buf: &mut &[u8],
        mgr: &netrec_bdd::BddManager,
    ) -> Result<(), WireError> {
        let mode = self.sent.mode();
        self.sent = crate::checkpoint::get_table(buf, mode, false, mgr)?;
        self.pins = crate::checkpoint::get_table(buf, mode, false, mgr)?;
        let n = wire::get_varint(buf)? as usize;
        if n > buf.len() {
            return Err(WireError::Truncated);
        }
        for _ in 0..n {
            let t = wire::get_tuple(buf)?;
            let pv = crate::checkpoint::get_prov(buf, mgr)?;
            let nc = wire::get_varint(buf)? as usize;
            if nc > buf.len() {
                return Err(WireError::Truncated);
            }
            let mut cause = Vec::with_capacity(nc);
            for _ in 0..nc {
                cause.push(wire::get_u32(buf)?);
            }
            if self.pdel.insert(t, (pv, cause)).is_some() {
                return Err(WireError::Corrupt("duplicate Pdel tuple in checkpoint"));
            }
        }
        let n = wire::get_varint(buf)? as usize;
        if n > buf.len() {
            return Err(WireError::Truncated);
        }
        for _ in 0..n {
            self.dirty.insert(wire::get_tuple(buf)?);
        }
        let n = wire::get_varint(buf)? as usize;
        if n > buf.len() {
            return Err(WireError::Truncated);
        }
        for _ in 0..n {
            let t = wire::get_tuple(buf)?;
            let nv = wire::get_varint(buf)? as usize;
            if nv > buf.len() {
                return Err(WireError::Truncated);
            }
            let mut vars = FxHashSet::default();
            for _ in 0..nv {
                vars.insert(wire::get_u32(buf)?);
            }
            self.ledger_bytes += ledger_entry_cost(&t, vars.len());
            if self.shipped.insert(t, vars).is_some() {
                return Err(WireError::Corrupt("duplicate ledger tuple in checkpoint"));
            }
        }
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        let tag = buf[0];
        *buf = &buf[1..];
        self.rel_seen = match tag {
            0 => None,
            1 => {
                let raw = wire::get_varint(buf)?;
                if raw > u64::from(u16::MAX) {
                    return Err(WireError::Corrupt("relation id out of range"));
                }
                Some(netrec_types::RelId(raw as u16))
            }
            t => return Err(WireError::BadTag(t)),
        };
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        self.timer_armed = match buf[0] {
            0 => false,
            1 => true,
            t => return Err(WireError::BadTag(t)),
        };
        *buf = &buf[1..];
        Ok(())
    }

    /// Buffered insertion count (tests).
    pub fn pins_len(&self) -> usize {
        self.pins.len()
    }

    /// Shipped tuple count (tests).
    pub fn sent_len(&self) -> usize {
        self.sent.len()
    }

    /// Entries of `Pins` and `Bsent` examined so far by table-wide cause
    /// restriction (tests): grows by `pins_len() + sent_len()` per
    /// [`MinShipOp::on_dead_vars`] call and by nothing else, however many
    /// cause-delete updates flow through.
    pub fn mirror_scan_steps(&self) -> u64 {
        self.pins.scan_steps() + self.sent.scan_steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OpId;
    use crate::strategy::Strategy;
    use netrec_bdd::BddManager;
    use netrec_sim::{NetApi, Partitioner, PeerId};
    use netrec_types::{RelId, SimTime, Value};

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    /// A dead variable is applied to the mirrors once, by `on_dead_vars` —
    /// which also sweeps the ship ledger and forwards the cause — and a
    /// cause-delete flowing through `on_updates` afterwards scans nothing.
    #[test]
    fn dead_vars_restrict_mirrors_once_and_cause_deletes_scan_nothing() {
        let mgr = BddManager::new();
        let strategy = Strategy::absorption_lazy();
        let mut net = NetApi::fresh(SimTime(0), PeerId(0));
        let mut ectx = Ectx {
            me: PeerId(0),
            strategy: &strategy,
            partitioner: Partitioner::Direct { peers: 1 },
            mgr: &mgr,
            net: &mut net,
        };
        let dest = Dest {
            op: OpId(0),
            input: 0,
        };
        let mut op = MinShipOp::new(None, dest, ProvMode::Absorption);
        let rel = RelId(0);
        let x = |v| mgr.var(v);
        op.on_updates(
            vec![
                Update::ins(rel, t(1), Prov::Bdd(x(1).or(&x(2)))), // ships
                Update::ins(rel, t(2), Prov::Bdd(x(1))),           // ships
                Update::ins(rel, t(2), Prov::Bdd(x(1).or(&x(4)))), // buffers
            ],
            &mut ectx,
        );
        assert_eq!(op.shipped.len(), 2, "both ships are in the ledger");
        assert_eq!((op.sent_len(), op.pins_len()), (2, 1));
        assert_eq!(op.mirror_scan_steps(), 0);

        // Restriction is a pass over pins (1 entry) and sent (2 entries).
        // The ledger sweep then forwards the cause for both shipped tuples
        // and releases t(2)'s buffered alternative, which lands in `sent`.
        op.on_dead_vars(&[1], &mut ectx);
        assert_eq!(op.mirror_scan_steps(), 3, "one pass over pins and sent");
        assert_eq!(op.sent.get(&t(1)).unwrap().bdd(), &x(2), "sent shrank");
        assert_eq!(op.sent.get(&t(2)).unwrap().bdd(), &x(4), "alternative");
        assert_eq!(op.pins_len(), 0, "the pin was released");
        assert!(op.dirty.contains(&t(1)) && !op.dirty.contains(&t(2)));
        let ledger = |i| op.shipped[&t(i)].iter().copied().collect::<Vec<Var>>();
        assert_eq!((ledger(1), ledger(2)), (vec![2], vec![4]), "x1 was shed");

        let cause: Arc<[Var]> = Arc::from(&[1][..]);
        op.on_updates(
            vec![Update::del_cause(rel, t(2), Prov::Bdd(x(1)), cause)],
            &mut ectx,
        );
        assert_eq!(op.mirror_scan_steps(), 3, "a cause-delete scans nothing");
        let (sends, _) = net.into_parts();
        let shipped: Vec<(UpdateKind, Tuple)> = sends
            .iter()
            .flat_map(|(_, _, msg, _)| match msg {
                crate::update::Msg::Updates(us) => us.iter().map(|u| (u.kind, u.tuple.clone())),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            shipped,
            vec![
                (UpdateKind::Insert, t(1)),
                (UpdateKind::Insert, t(2)),
                (UpdateKind::Delete, t(1)), // the ledger sweep
                (UpdateKind::Delete, t(2)),
                (UpdateKind::Insert, t(2)), // the buffered alternative, released
                (UpdateKind::Delete, t(2)), // the cause-delete off the stream
            ]
        );
    }

    /// The ledger's byte counter must stay equal to a rescan of the ledger
    /// through every way an entry changes, and through a checkpoint.
    #[test]
    fn ledger_bytes_counter_matches_scan() {
        fn scan(op: &MinShipOp) -> usize {
            op.shipped
                .iter()
                .map(|(t, vs)| t.encoded_len() + vs.len() * 4 + 48)
                .sum()
        }
        let mgr = BddManager::new();
        let strategy = Strategy::absorption_lazy();
        let mut net = NetApi::fresh(SimTime(0), PeerId(0));
        let mut ectx = Ectx {
            me: PeerId(0),
            strategy: &strategy,
            partitioner: Partitioner::Direct { peers: 1 },
            mgr: &mgr,
            net: &mut net,
        };
        let dest = Dest {
            op: OpId(0),
            input: 0,
        };
        let mut op = MinShipOp::new(None, dest, ProvMode::Absorption);
        let rel = RelId(0);
        let x = |v| mgr.var(v);
        assert_eq!(op.ledger_bytes, 0);

        // First ships: two new entries.
        op.on_updates(
            vec![
                Update::ins(rel, t(1), Prov::Bdd(x(1).or(&x(2)))),
                Update::ins(rel, t(2), Prov::Bdd(x(1))),
            ],
            &mut ectx,
        );
        assert_eq!(op.shipped.len(), 2);
        assert_eq!(op.ledger_bytes, scan(&op));

        // x1 dies: t(1) sheds it (and turns dirty), t(2) is emptied and goes.
        op.on_dead_vars(&[1], &mut ectx);
        assert_eq!(op.shipped.len(), 1, "t(2)'s entry was removed");
        assert_eq!(op.ledger_bytes, scan(&op));

        // Re-ship of the dirty t(1): one variable it had, one it had not.
        op.on_updates(
            vec![Update::ins(rel, t(1), Prov::Bdd(x(2).and(&x(300))))],
            &mut ectx,
        );
        assert_eq!(op.shipped[&t(1)].len(), 2);
        assert_eq!(op.ledger_bytes, scan(&op));

        let mut blob = Vec::new();
        op.checkpoint(&mut blob);
        let mut back = MinShipOp::new(None, dest, ProvMode::Absorption);
        back.restore(&mut &blob[..], &mgr).expect("restore");
        assert_eq!(back.ledger_bytes, scan(&back));
        assert_eq!(back.state_bytes(), op.state_bytes());

        op.on_dead_vars(&[2, 300], &mut ectx);
        assert_eq!((op.shipped.len(), op.ledger_bytes), (0, 0));
    }

    /// The two variable lists of the checkpoint (a buffered deletion's cause,
    /// a ledger entry) reject 2^32 — a 5-byte varint `as Var` would truncate
    /// to 0 — and accept the same blob with the variable in range.
    #[test]
    fn restore_rejects_variables_beyond_32_bits() {
        let mut tuple = Vec::new();
        wire::put_tuple(&mut tuple, &t(1));
        let tup = tuple.as_slice();
        // (bytes before the variable, bytes after it) of an otherwise valid
        // blob: empty `sent` and `pins`, then pdel / dirty / ledger / rel /
        // timer.
        let lists: [(Vec<u8>, Vec<u8>); 2] = [
            ([&[0, 0, 1], tup, &[0, 1]].concat(), vec![0, 0, 0, 0]),
            ([&[0, 0, 0, 0, 1], tup, &[1]].concat(), vec![0, 0]),
        ];
        let dest = Dest {
            op: OpId(0),
            input: 0,
        };
        let mgr = BddManager::new();
        for (i, (before, after)) in lists.iter().enumerate() {
            let restore = |v: &[u8]| {
                let bytes = [before, v, after].concat();
                MinShipOp::new(None, dest, ProvMode::Absorption).restore(&mut &bytes[..], &mgr)
            };
            assert_eq!(restore(&[7]), Ok(()), "list {i}");
            assert!(
                matches!(
                    restore(&[0x80, 0x80, 0x80, 0x80, 0x10]),
                    Err(WireError::Corrupt(_))
                ),
                "list {i}: 2^32 accepted"
            );
        }
    }
}
