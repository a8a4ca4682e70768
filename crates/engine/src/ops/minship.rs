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

use std::collections::BTreeMap;
use std::sync::Arc;

use netrec_bdd::Var;
use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::WireError;
use netrec_types::{FxHashMap, FxHashSet, Tuple, UpdateKind};

use crate::checkpoint::{get_table, put_count, put_table, Field, Reader};
use crate::plan::Dest;
use crate::strategy::ShipPolicy;
use crate::update::Update;

use super::{Ectx, ProvTable, Restricted, ENTRY_OVERHEAD};

/// What one variable of a ship-ledger entry counts for in `state_bytes`.
const LEDGER_VAR_BYTES: usize = 4;

/// What a ship-ledger entry of `vars` variables counts for in `state_bytes`.
fn ledger_entry_cost(t: &Tuple, vars: usize) -> usize {
    t.encoded_len() + vars * LEDGER_VAR_BYTES + ENTRY_OVERHEAD
}

/// The ship ledger: tuple → base variables ever shipped for it and not yet
/// dead, indexed both ways. Entries live in slots; a variable lists the
/// slots of the entries that hold it, so a death visits exactly the tuples
/// it touches. The per-variable lists hold slot ids, not tuple clones: a
/// `Tuple` is six times a slot's size, and lists of tuples gave back the
/// memory the index saves (DESIGN.md "Dead-variable sweep").
#[derive(Default)]
struct ShipLedger {
    /// Tuple → its slot.
    slot_of: FxHashMap<Tuple, u32>,
    /// Slot → (tuple, its live variables, ascending); `None` once freed.
    slots: Vec<Option<(Tuple, Vec<Var>)>>,
    /// Variable → the slots whose entry holds it. An entry sheds a variable
    /// only when that variable dies, and its list goes with it, so no list
    /// names a freed slot.
    by_var: FxHashMap<Var, Vec<u32>>,
    /// Freed slots, reused first.
    free: Vec<u32>,
    /// Σ [`ledger_entry_cost`] over the entries, maintained where they
    /// change: the ledger has an entry per tuple ever shipped, and
    /// `state_bytes` is read on every run.
    bytes: usize,
}

impl ShipLedger {
    /// Number of entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// The live variables recorded for `t`, ascending.
    #[cfg(test)]
    fn vars(&self, t: &Tuple) -> Option<&[Var]> {
        let slot = *self.slot_of.get(t)?;
        self.slots[slot as usize].as_ref().map(|(_, vs)| &vs[..])
    }

    /// Add `vars` (distinct, as a `support()` is) to `t`'s entry, opening
    /// one if `t` has none.
    fn record(&mut self, t: &Tuple, vars: &[Var]) {
        let slot = match self.slot_of.get(t) {
            Some(&s) => s,
            None => {
                let entry = Some((t.clone(), Vec::new()));
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = entry;
                        s
                    }
                    None => {
                        self.slots.push(entry);
                        (self.slots.len() - 1) as u32
                    }
                };
                self.slot_of.insert(t.clone(), s);
                self.bytes += ledger_entry_cost(t, 0);
                s
            }
        };
        let (_, live) = self.slots[slot as usize].as_mut().expect("mapped slot");
        let held = live.len();
        for &v in vars {
            if live[..held].binary_search(&v).is_err() {
                live.push(v);
                self.by_var.entry(v).or_default().push(slot);
            }
        }
        if live.len() > held {
            self.bytes += (live.len() - held) * LEDGER_VAR_BYTES;
            live.sort_unstable();
        }
    }

    /// Number of entries holding some variable of `vars`.
    fn mentions(&self, vars: &[Var]) -> usize {
        let mut slots: Vec<u32> = vars
            .iter()
            .filter_map(|v| self.by_var.get(v))
            .flatten()
            .copied()
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots.len()
    }

    /// Shed the variables of `dead` from every entry holding one, freeing
    /// the entries left empty. Returns each touched tuple once, with the
    /// variables it shed (in `dead`'s order).
    fn take(&mut self, dead: &[Var]) -> Vec<(Tuple, Vec<Var>)> {
        let mut slots: Vec<u32> = dead
            .iter()
            .filter_map(|v| self.by_var.remove(v))
            .flatten()
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut out = Vec::with_capacity(slots.len());
        for s in slots {
            let entry = &mut self.slots[s as usize];
            let (_, live) = entry.as_mut().expect("listed slot");
            let hit: Vec<Var> = dead
                .iter()
                .copied()
                .filter(|v| match live.binary_search(v) {
                    Ok(i) => {
                        live.remove(i);
                        true
                    }
                    Err(_) => false,
                })
                .collect();
            let t = if live.is_empty() {
                let (t, _) = entry.take().expect("listed slot");
                self.bytes -= ledger_entry_cost(&t, hit.len());
                self.slot_of.remove(&t);
                self.free.push(s);
                t
            } else {
                self.bytes -= hit.len() * LEDGER_VAR_BYTES;
                entry.as_ref().expect("listed slot").0.clone()
            };
            out.push((t, hit));
        }
        out
    }
}

/// The ledger's checkpoint form is the map tuple → variable set, in
/// ascending tuple order: the bytes of a `FxHashMap<Tuple, FxHashSet<Var>>`.
impl Field for ShipLedger {
    fn put(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<&(Tuple, Vec<Var>)> = self.slots.iter().flatten().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        put_count(out, entries.len());
        for (t, vars) in entries {
            t.put(out);
            vars.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<ShipLedger, WireError> {
        let map: FxHashMap<Tuple, FxHashSet<Var>> = r.get()?;
        let mut ledger = ShipLedger::default();
        for (t, vars) in map {
            ledger.record(&t, &vars.into_iter().collect::<Vec<Var>>());
        }
        Ok(ledger)
    }
}

/// Append each variable of `vars` that `causes` does not hold yet.
fn add_causes(causes: &mut Vec<Var>, vars: &[Var]) {
    for v in vars {
        if !causes.contains(v) {
            causes.push(*v);
        }
    }
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
    /// Buffered deletions (`Pdel`): tuple → accumulated cause.
    pdel: FxHashMap<Tuple, Vec<Var>>,
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
    ///
    /// It is also `sent`'s variable index: every `sent.merge` is paired with
    /// a `ledger_record` of the same annotation and restriction only removes
    /// variables, so `support(sent[t]) ⊆ ledger(t)`, and the ledger entries
    /// of a dead variable are the only `sent` entries that can mention it.
    shipped: ShipLedger,
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
            shipped: ShipLedger::default(),
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
        if !vars.is_empty() {
            self.shipped.record(t, &vars);
        }
    }

    /// The hosting peer learned that `dead` base variables died (a
    /// cause-delete arrived on *any* port — not necessarily this operator's
    /// input stream; the relaying join may have nothing left to emit here).
    /// Restrict the local mirrors — this is the one place a dead variable
    /// is applied to `pins` and `sent`, once per (peer, variable) — and
    /// forward the cause to the owner of every tuple whose shipped history
    /// mentions a dying variable. `pins` takes one pass; `sent` is visited
    /// only at the ledger entries of the dead variables, which are the only
    /// entries that can mention one. Returns `true` if the caller should arm
    /// a flush timer (eager mode with newly-buffered deletions).
    pub fn on_dead_vars(&mut self, dead: &[Var], ectx: &mut Ectx<'_>) -> bool {
        let policy = ectx.strategy.ship;
        if matches!(policy, ShipPolicy::Immediate) {
            return false;
        }
        // Restrict buffered and sent knowledge (Alg. 3 L20–25). Only tuples
        // that *survive* in `sent` need a staleness marker: entries that
        // died re-enter through the first-derivation branch anyway.
        let _ = self.pins.restrict_cause(dead);
        let hits = self.shipped.take(dead);
        let hit_any = !hits.is_empty();
        for (t, hit) in hits {
            if self.sent.restrict_cause_tuple(&t, dead) == Some(Restricted::Shrunk) {
                self.dirty.insert(t.clone());
            }
            add_causes(self.pdel.entry(t).or_default(), &hit);
        }
        debug_assert!(
            !self.sent.mentions_any(dead),
            "a sent entry mentions a dead variable of {dead:?} its ledger entry lacks"
        );
        if !hit_any {
            return false;
        }
        if matches!(policy, ShipPolicy::Lazy) {
            self.flush_lazy(ectx);
        }
        self.after_buffering(ectx)
    }

    /// The eager policy's rule once updates were buffered: flush at `batch`
    /// buffered tuples, else arm the flush timer if it is not armed and
    /// anything is buffered. Returns `true` if the caller should arm it;
    /// `false` under every other policy.
    fn after_buffering(&mut self, ectx: &mut Ectx<'_>) -> bool {
        let ShipPolicy::Eager { batch, .. } = ectx.strategy.ship else {
            return false;
        };
        if self.buffered() >= batch {
            self.flush_eager(ectx);
            return false;
        }
        let arm = self.buffered() > 0 && !self.timer_armed;
        self.timer_armed |= arm;
        arm
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
                            _ => true, // set: nothing new to say
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
                    add_causes(self.pdel.entry(u.tuple.clone()).or_default(), &u.cause);
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
        self.after_buffering(ectx)
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
        let mut dels: Vec<(Tuple, Vec<Var>)> = pdel.into_iter().collect();
        dels.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sent = false;
        for (t, cause) in dels {
            let peer = ectx.peer_for(self.route_col, &t);
            sent = true;
            by_peer
                .entry(peer)
                .or_default()
                .push(Update::del_cause(rel, t, Arc::from(cause)));
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
        let mut dels: Vec<(Tuple, Vec<Var>)> = pdel.into_iter().collect();
        dels.sort_by(|a, b| a.0.cmp(&b.0));
        for (t, cause) in dels {
            if crate::trace::matches(&t) {
                eprintln!(
                    "[trace] p{} minship FLUSH-DEL {:?} cause={:?} alt={}",
                    ectx.me.0,
                    t,
                    cause,
                    self.pins.get(&t).map_or("none".into(), crate::trace::supp)
                );
            }
            out.push(Update::del_cause(rel, t.clone(), Arc::from(cause)));
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
            .map(|(t, c)| t.encoded_len() + c.len() * 4 + 48)
            .sum();
        self.sent.state_bytes() + self.pins.state_bytes() + pdel + self.shipped.bytes
    }

    /// Serialise `Bsent`, `Pins`, `Pdel`, the staleness markers, the ship
    /// ledger, and the stream bookkeeping. The ledger is the part recovery
    /// cannot live without: it is the only record of everything the
    /// receivers were ever told, so a restored peer can still route future
    /// deaths to them.
    pub(crate) fn checkpoint(&self, out: &mut Vec<u8>) {
        put_table(out, &self.sent);
        put_table(out, &self.pins);
        self.pdel.put(out);
        self.dirty.put(out);
        self.shipped.put(out);
        self.rel_seen.put(out);
        self.timer_armed.put(out);
    }

    /// Install a checkpointed blob into this freshly-built operator.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.sent = get_table(r, &self.sent)?;
        self.pins = get_table(r, &self.pins)?;
        self.pdel = r.get()?;
        self.dirty = r.get()?;
        self.shipped = r.get()?;
        self.rel_seen = r.get()?;
        self.timer_armed = r.get()?;
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

    /// Ship-ledger entries holding some variable of `vars` (tests): the
    /// `sent` entries [`MinShipOp::on_dead_vars`] would visit for them.
    pub fn ledger_mentions(&self, vars: &[Var]) -> usize {
        self.shipped.mentions(vars)
    }

    /// Entries of `Pins` and `Bsent` examined so far by cause restriction
    /// (tests, from the tables' own [`ProvTable::scan_steps`]): grows by
    /// `pins_len()` plus `ledger_mentions(dead)` per
    /// [`MinShipOp::on_dead_vars`] call and by nothing else, however many
    /// cause-delete updates flow through. A pass over `sent` would add
    /// `sent_len()`.
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
    use netrec_types::{wire, RelId, SimTime, Value};

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    /// Σ [`ledger_entry_cost`] over the ledger, rescanned.
    fn ledger_scan(op: &MinShipOp) -> usize {
        op.shipped
            .slots
            .iter()
            .flatten()
            .map(|(t, vs)| t.encoded_len() + vs.len() * 4 + 48)
            .sum()
    }

    /// The ledger's live variables for `t`.
    fn ledger(op: &MinShipOp, t: &Tuple) -> Vec<Var> {
        op.shipped.vars(t).map_or_else(Vec::new, <[Var]>::to_vec)
    }

    /// A dead variable is applied to the mirrors once, by `on_dead_vars` —
    /// which visits `sent` only at the dead variable's ledger entries and
    /// forwards the cause for each — and a cause-delete flowing through
    /// `on_updates` afterwards scans nothing.
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
                Update::ins(rel, t(3), Prov::Bdd(x(5))),           // ships
                Update::ins(rel, t(2), Prov::Bdd(x(1).or(&x(4)))), // buffers
            ],
            &mut ectx,
        );
        assert_eq!(op.shipped.len(), 3, "every ship is in the ledger");
        assert_eq!((op.sent_len(), op.pins_len()), (3, 1));
        assert_eq!(op.mirror_scan_steps(), 0);
        assert_eq!(op.ledger_mentions(&[1]), 2, "t(1) and t(2), not t(3)");

        // Restriction is a pass over pins (1 entry) and a visit to the two
        // sent entries x1's ledger entries name; t(3), which does not
        // mention x1, is never visited (a pass over sent would count 4).
        // The cause goes out for both shipped tuples and releases t(2)'s
        // buffered alternative, which lands in `sent`.
        op.on_dead_vars(&[1], &mut ectx);
        assert_eq!(op.mirror_scan_steps(), 3, "pins, then x1's ledger entries");
        assert_eq!(op.sent.get(&t(1)).unwrap().bdd(), &x(2), "sent shrank");
        assert_eq!(op.sent.get(&t(2)).unwrap().bdd(), &x(4), "alternative");
        assert_eq!(op.sent.get(&t(3)).unwrap().bdd(), &x(5), "untouched");
        assert_eq!(op.pins_len(), 0, "the pin was released");
        assert!(op.dirty.contains(&t(1)) && !op.dirty.contains(&t(2)));
        assert!(!op.dirty.contains(&t(3)));
        assert_eq!(
            (ledger(&op, &t(1)), ledger(&op, &t(2))),
            (vec![2], vec![4]),
            "x1 was shed"
        );
        assert_eq!(op.ledger_mentions(&[1]), 0);

        let cause: Arc<[Var]> = Arc::from(&[1][..]);
        op.on_updates(vec![Update::del_cause(rel, t(2), cause)], &mut ectx);
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
                (UpdateKind::Insert, t(3)),
                (UpdateKind::Delete, t(1)), // x1's ledger entries
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
        assert_eq!(op.shipped.bytes, 0);

        // First ships: two new entries.
        op.on_updates(
            vec![
                Update::ins(rel, t(1), Prov::Bdd(x(1).or(&x(2)))),
                Update::ins(rel, t(2), Prov::Bdd(x(1))),
            ],
            &mut ectx,
        );
        assert_eq!(op.shipped.len(), 2);
        assert_eq!(op.shipped.bytes, ledger_scan(&op));

        // x1 dies: t(1) sheds it (and turns dirty), t(2) is emptied and goes.
        op.on_dead_vars(&[1], &mut ectx);
        assert_eq!(op.shipped.len(), 1, "t(2)'s entry was removed");
        assert_eq!(op.shipped.bytes, ledger_scan(&op));

        // Re-ship of the dirty t(1): one variable it had, one it had not.
        op.on_updates(
            vec![Update::ins(rel, t(1), Prov::Bdd(x(2).and(&x(300))))],
            &mut ectx,
        );
        assert_eq!(ledger(&op, &t(1)), vec![2, 300]);
        assert_eq!(op.shipped.bytes, ledger_scan(&op));

        let mut blob = Vec::new();
        op.checkpoint(&mut blob);
        let mut back = MinShipOp::new(None, dest, ProvMode::Absorption);
        back.restore(&mut Reader::new(&blob, Some(&mgr)))
            .expect("restore");
        assert_eq!(back.shipped.bytes, ledger_scan(&back));
        assert_eq!(back.state_bytes(), op.state_bytes());

        op.on_dead_vars(&[2, 300], &mut ectx);
        assert_eq!((op.shipped.len(), op.shipped.bytes), (0, 0));
    }

    /// An emission context for a lone peer 0 under `strategy`.
    fn on_one_peer<'a>(
        strategy: &'a Strategy,
        mgr: &'a BddManager,
        net: &'a mut NetApi<crate::update::Msg>,
    ) -> Ectx<'a> {
        Ectx {
            me: PeerId(0),
            strategy,
            partitioner: Partitioner::Direct { peers: 1 },
            mgr,
            net,
        }
    }

    /// The premise `on_dead_vars` rests on, and the ledger's own books,
    /// checked after every step that can change them: each `sent`
    /// annotation's support lies inside its tuple's ledger entry, the byte
    /// counter equals a rescan, and the variable index lists exactly the
    /// (variable, slot) pairs the entries hold.
    fn check_ledger(op: &MinShipOp, step: &str) {
        for (t, p) in op.sent.iter() {
            let vars = ledger(op, t);
            let missing: Vec<Var> = p
                .bdd()
                .support()
                .into_iter()
                .filter(|v| vars.binary_search(v).is_err())
                .collect();
            assert!(
                missing.is_empty(),
                "{step}: sent {t:?} mentions {missing:?} its ledger lacks"
            );
        }
        let l = &op.shipped;
        assert_eq!(l.bytes, ledger_scan(op), "{step}: ledger bytes");
        let mut listed: Vec<(Var, u32)> = l
            .by_var
            .iter()
            .flat_map(|(v, slots)| slots.iter().map(move |s| (*v, *s)))
            .collect();
        let mut held: Vec<(Var, u32)> = Vec::new();
        for (t, &s) in &l.slot_of {
            let (owner, vars) = l.slots[s as usize].as_ref().expect("mapped slot is live");
            assert_eq!(owner, t, "{step}: slot {s}");
            assert!(vars.windows(2).all(|w| w[0] < w[1]), "{step}: {vars:?}");
            held.extend(vars.iter().map(|v| (*v, s)));
        }
        listed.sort_unstable();
        held.sort_unstable();
        assert_eq!(listed, held, "{step}: variable index");
        assert_eq!(
            l.free.len() + l.slot_of.len(),
            l.slots.len(),
            "{step}: slots"
        );
        assert!(
            l.free.iter().all(|&s| l.slots[s as usize].is_none()),
            "{step}: free"
        );
    }

    /// One MinShip through every path that ships an annotation (first ship,
    /// dirty re-ship, lazy and eager flush), through dead variables under
    /// both policies and a checkpoint round trip: the ledger covers `sent`
    /// and keeps its index and its bytes exact after each.
    #[test]
    fn ledger_covers_sent_through_every_ship_path() {
        let mgr = BddManager::new();
        let (lazy, eager) = (Strategy::absorption_lazy(), Strategy::absorption_eager());
        let mut net = NetApi::fresh(SimTime(0), PeerId(0));
        let dest = Dest {
            op: OpId(0),
            input: 0,
        };
        let mut op = MinShipOp::new(None, dest, ProvMode::Absorption);
        let rel = RelId(0);
        let x = |v| mgr.var(v);

        op.on_updates(
            vec![
                Update::ins(rel, t(1), Prov::Bdd(x(1).or(&x(2)))),
                Update::ins(rel, t(2), Prov::Bdd(x(1))),
                Update::ins(rel, t(3), Prov::Bdd(x(5))),
            ],
            &mut on_one_peer(&lazy, &mgr, &mut net),
        );
        check_ledger(&op, "first ships");

        op.on_updates(
            vec![
                Update::ins(rel, t(2), Prov::Bdd(x(1).or(&x(4)))),
                Update::ins(rel, t(3), Prov::Bdd(x(6))),
            ],
            &mut on_one_peer(&lazy, &mgr, &mut net),
        );
        assert_eq!(op.pins_len(), 2, "both derivations buffered");
        check_ledger(&op, "buffered");

        // x1 dies: t(2) dies in `sent`, and the lazy flush ships its
        // buffered alternative x4, which t(2)'s ledger entry did not hold.
        op.on_dead_vars(&[1], &mut on_one_peer(&lazy, &mgr, &mut net));
        assert_eq!(op.sent.get(&t(2)).unwrap().bdd(), &x(4));
        check_ledger(&op, "dead x1, lazy flush");

        // t(1) is dirty: a new derivation ships at once with a new variable.
        op.on_updates(
            vec![Update::ins(rel, t(1), Prov::Bdd(x(7)))],
            &mut on_one_peer(&lazy, &mgr, &mut net),
        );
        assert_eq!(op.sent.get(&t(1)).unwrap().bdd(), &x(2).or(&x(7)));
        check_ledger(&op, "dirty re-ship");

        // The eager flush ships t(3)'s buffered x6.
        assert!(op.flush_eager(&mut on_one_peer(&eager, &mgr, &mut net)));
        assert_eq!(op.sent.get(&t(3)).unwrap().bdd(), &x(5).or(&x(6)));
        check_ledger(&op, "eager flush");

        // Two variables die at once under the eager policy: t(1) and t(3)
        // shrink, their causes buffer in `pdel` behind the flush timer.
        assert!(op.on_dead_vars(&[5, 2], &mut on_one_peer(&eager, &mgr, &mut net)));
        assert_eq!(op.pdel.len(), 2);
        check_ledger(&op, "dead x5, x2, eager");

        let mut blob = Vec::new();
        op.checkpoint(&mut blob);
        let mut back = MinShipOp::new(None, dest, ProvMode::Absorption);
        back.restore(&mut Reader::new(&blob, Some(&mgr)))
            .expect("restore");
        check_ledger(&back, "restored");
        let mut again = Vec::new();
        back.checkpoint(&mut again);
        assert_eq!(again, blob, "the restored ledger encodes as it was read");

        // The restored operator flushes its buffered causes, then learns
        // every variable left is dead: each entry empties and is freed.
        assert!(!back.on_flush_timer(&mut on_one_peer(&eager, &mgr, &mut net)));
        assert!(back.pdel.is_empty());
        back.on_dead_vars(&[4, 6, 7], &mut on_one_peer(&eager, &mgr, &mut net));
        check_ledger(&back, "all dead");
        assert_eq!((back.shipped.len(), back.shipped.bytes), (0, 0));
        assert_eq!(back.sent_len(), 0);
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
            ([&[0, 0, 1], tup, &[1]].concat(), vec![0, 0, 0, 0]),
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
                MinShipOp::new(None, dest, ProvMode::Absorption)
                    .restore(&mut Reader::new(&bytes, Some(&mgr)))
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
