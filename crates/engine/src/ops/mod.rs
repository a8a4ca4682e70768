//! The provenance-aware operators.
//!
//! Every stateful operator is built on [`ProvTable`], the `tuple →
//! provenance` hash table of Algorithm 1, with mode-specific merge
//! (insertion), cause-restrict (base deletion) and retract (aggregate
//! revision / set-semantics delete) transitions. The per-operator files
//! implement the paper's algorithms on top of it.

pub mod aggregate;
pub mod aggsel;
pub mod exchange;
pub mod ingress;
pub mod join;
pub mod minship;
pub mod store;

use std::collections::BTreeMap;
use std::sync::Arc;

use netrec_bdd::{BddManager, Var};
use netrec_prov::{Prov, ProvMode};
use netrec_sim::{NetApi, Partitioner, PeerId};
use netrec_types::{FxHashMap, FxHashSet, Tuple};

use crate::plan::{Dest, Plan};
use crate::strategy::Strategy;
use crate::update::{Msg, Update};

pub use aggregate::AggregateOp;
pub use aggsel::AggSelOp;
pub use exchange::{ExchangeOp, MapOp};
pub use ingress::IngressOp;
pub use join::JoinOp;
pub use minship::MinShipOp;
pub use store::StoreOp;

/// Runtime state of one operator instance.
pub enum OpState {
    /// EDB ingress.
    Ingress(IngressOp),
    /// Projection/filter.
    Map(MapOp),
    /// Repartitioning ship.
    Exchange(ExchangeOp),
    /// Pipelined hash join.
    Join(JoinOp),
    /// Provenance-buffering ship.
    MinShip(MinShipOp),
    /// Store / fixpoint.
    Store(StoreOp),
    /// Aggregate selection.
    AggSel(AggSelOp),
    /// Group-by aggregate.
    Aggregate(AggregateOp),
}

/// Emission context handed to operators: identifies the peer, the strategy,
/// and wraps the network API with routing helpers.
pub struct Ectx<'a> {
    /// This peer.
    pub me: PeerId,
    /// Run strategy.
    pub strategy: &'a Strategy,
    /// Key placement.
    pub partitioner: Partitioner,
    /// This peer's BDD manager.
    pub mgr: &'a BddManager,
    /// Network access for this callback.
    pub net: &'a mut NetApi<Msg>,
}

impl<'a> Ectx<'a> {
    /// Hand a batch to local destinations (no network traffic, so nothing is
    /// priced in wire bytes: [`Msg::local_meta`]). The batch is shared across
    /// destinations behind one `Arc` — extra destinations cost a
    /// reference-count bump, not a deep copy.
    pub fn emit_local(&mut self, dests: &[Dest], ups: Vec<Update>) {
        if ups.is_empty() || dests.is_empty() {
            return;
        }
        let msg = Msg::Updates(Arc::new(ups));
        let meta = msg.local_meta();
        for d in dests {
            self.net
                .send(self.me, Plan::port(d.op, d.input), msg.clone(), meta);
        }
    }

    /// Route a batch by key column to the owning peers (one message per
    /// destination peer — this is where bandwidth is spent). Buckets are
    /// built in a `BTreeMap` so send order is deterministic by construction,
    /// with no post-hoc key sort.
    pub fn emit_routed(&mut self, route_col: Option<usize>, dest: Dest, ups: Vec<Update>) {
        if ups.is_empty() {
            return;
        }
        let mut by_peer: BTreeMap<PeerId, Vec<Update>> = BTreeMap::new();
        for u in ups {
            let peer = self.peer_for(route_col, &u.tuple);
            by_peer.entry(peer).or_default().push(u);
        }
        self.emit_batches(dest, by_peer);
    }

    /// Ship batches already grouped by destination peer — one `Msg` per
    /// entry, sent in ascending peer order. Operators that accumulate
    /// per-destination output themselves (MinShip's eager flush) hand their
    /// buckets straight to the runtime instead of flattening into one
    /// stream that [`Ectx::emit_routed`] would immediately re-split; the
    /// runtime's coalescer then merges these with whatever else the quantum
    /// produced for the same peers.
    ///
    /// This is the peer boundary on the way out (DESIGN.md "Peer boundary"):
    /// a batch for another peer leaves with every absorption annotation in
    /// wire form — encoded here, once, on the thread that owns `mgr` — and
    /// its metadata is the size of those bytes. A batch routed to this peer
    /// is a local hand-off and keeps its handles.
    pub fn emit_batches(&mut self, dest: Dest, by_peer: BTreeMap<PeerId, Vec<Update>>) {
        let port = Plan::port(dest.op, dest.input);
        for (p, batch) in by_peer {
            if batch.is_empty() {
                continue;
            }
            let local = p == self.me;
            let batch: Vec<Update> = if local {
                batch
            } else {
                batch.into_iter().map(Update::into_wire).collect()
            };
            let msg = Msg::Updates(Arc::new(batch));
            let meta = if local { msg.local_meta() } else { msg.meta() };
            self.net.send(p, port, msg, meta);
        }
    }

    /// The peer owning `tuple[col]` (peer 0 for `None` — global aggregates),
    /// by the same rule that places base tuples at ingress.
    pub fn peer_for(&self, col: Option<usize>, tuple: &Tuple) -> PeerId {
        self.partitioner.place_value(col.map(|c| tuple.get(c)))
    }
}

/// Result of merging an insertion into a [`ProvTable`].
#[derive(Clone, Debug)]
pub enum MergeOutcome {
    /// First derivation of the tuple; forward with this annotation.
    New(Prov),
    /// Annotation changed (new derivation not absorbed); forward the delta.
    Changed(Prov),
    /// Fully absorbed — nothing to forward (Algorithm 1's no-op case).
    Absorbed,
}

/// How an insertion merged into a [`ProvTable`], for callers that forward
/// no delta ([`ProvTable::merge`]): the [`MergeOutcome`] without its
/// annotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merged {
    /// First derivation of the tuple.
    New,
    /// The annotation grew.
    Changed,
    /// Fully absorbed; the table is unchanged.
    Absorbed,
}

impl MergeOutcome {
    /// The outcome without its annotation.
    pub fn merged(&self) -> Merged {
        match self {
            MergeOutcome::New(_) => Merged::New,
            MergeOutcome::Changed(_) => Merged::Changed,
            MergeOutcome::Absorbed => Merged::Absorbed,
        }
    }
}

/// What a retraction did to an entry ([`ProvTable::retract`]).
#[derive(Clone, Debug)]
pub enum DeleteOutcome {
    /// The tuple is no longer derivable; carries its final (pre-removal)
    /// annotation.
    Died(Prov),
    /// The annotation shrank but the tuple survives; carries the removed
    /// part (what downstream copies should subtract).
    Shrunk(Prov),
}

/// What a cause restriction did to an entry ([`ProvTable::restrict_cause`]).
/// No annotation: a cause-delete forwards its cause, and every receiver
/// restricts by that alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Restricted {
    /// The tuple is no longer derivable and left the table.
    Died,
    /// The annotation shrank but the tuple survives.
    Shrunk,
}

/// The shared `tuple → provenance` table with optional variable index.
///
/// A table is indexed only where [`ProvTable::restrict_cause`] reads the
/// index: Store, AggSel and Aggregate restrict table-wide by a cause. A
/// join side restricts the one tuple a cause-delete names, and MinShip's
/// `sent` mirror is indexed by its ship ledger instead, so neither keeps one;
/// MinShip's `pins` is small and takes the unindexed pass.
///
/// Keyed with Fx hashing: tuples carry a cached hash, so a probe costs one
/// 64-bit mix instead of SipHash over the value vector. Resident-size
/// accounting is maintained incrementally (`state_bytes` is O(1)); all map
/// mutations therefore go through `ProvTable::store` / `ProvTable::evict`.
pub struct ProvTable {
    /// Tuple → (annotation, its [`entry_cost`], priced once when stored).
    map: FxHashMap<Tuple, (Prov, usize)>,
    /// Variable → tuples whose annotation mentioned it when merged. Unordered:
    /// [`ProvTable::restrict_cause`] sorts the candidates it draws, once.
    var_index: Option<FxHashMap<Var, FxHashSet<Tuple>>>,
    mode: ProvMode,
    /// Incrementally-maintained total of per-entry costs (see `entry_cost`).
    bytes: usize,
    /// Entries examined so far by cause restriction — a deterministic work
    /// count: the table's length per unindexed [`ProvTable::restrict_cause`]
    /// scan, one per [`ProvTable::restrict_cause_tuple`]. MinShip reads it
    /// for `pins` (one scan per dead variable) and `sent` (one visit per
    /// ledger entry of it); tests pin it (see `MinShipOp::mirror_scan_steps`).
    scan_steps: u64,
}

/// `cause` as a set, for the Relative arms ([`netrec_prov::RelProv`] takes
/// its dead variables as a set); empty — and allocation-free — in every
/// other mode, where nothing reads it.
fn relative_dead_set(mode: ProvMode, cause: &[Var]) -> FxHashSet<Var> {
    if mode == ProvMode::Relative {
        cause.iter().copied().collect()
    } else {
        FxHashSet::default()
    }
}

/// Does annotation `p` depend on any variable of `cause`? `dead_set` is
/// [`relative_dead_set`] of the same `cause`.
fn depends_on_any(p: &Prov, cause: &[Var], dead_set: &FxHashSet<Var>) -> bool {
    match p {
        Prov::Bdd(b) => cause.iter().any(|v| b.depends_on(*v)),
        Prov::Rel(r) => r.mentions_any(dead_set),
        _ => false,
    }
}

/// Per-entry bookkeeping overhead (hash slot, pointers) counted by
/// [`ProvTable::state_bytes`].
const ENTRY_OVERHEAD: usize = 48;

fn entry_cost(t: &Tuple, p: &Prov) -> usize {
    t.encoded_len() + p.encoded_len() + ENTRY_OVERHEAD
}

impl ProvTable {
    /// Empty table for `mode`; `indexed` enables the var → tuples index.
    pub fn new(mode: ProvMode, indexed: bool) -> ProvTable {
        ProvTable {
            map: FxHashMap::default(),
            var_index: if indexed {
                Some(FxHashMap::default())
            } else {
                None
            },
            mode,
            bytes: 0,
            scan_steps: 0,
        }
    }

    /// Insert/overwrite an entry, keeping the byte counter in sync. The new
    /// entry is priced here, once; the one it replaces gives back its price.
    fn store(&mut self, t: Tuple, p: Prov) {
        let cost = entry_cost(&t, &p);
        self.bytes += cost;
        if let Some((_, old_cost)) = self.map.insert(t, (p, cost)) {
            self.bytes -= old_cost;
        }
    }

    /// Remove an entry, keeping the byte counter in sync.
    fn evict(&mut self, t: &Tuple) -> Option<Prov> {
        let (old, cost) = self.map.remove(t)?;
        self.bytes -= cost;
        Some(old)
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Does the table contain `t`?
    pub fn contains(&self, t: &Tuple) -> bool {
        self.map.contains_key(t)
    }

    /// Annotation of `t`.
    pub fn get(&self, t: &Tuple) -> Option<&Prov> {
        self.map.get(t).map(|(p, _)| p)
    }

    /// Iterate live tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.map.keys()
    }

    /// Iterate `(tuple, annotation)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Prov)> + '_ {
        self.map.iter().map(|(t, (p, _))| (t, p))
    }

    /// Remove and return every entry (unordered). The table stays in place,
    /// so its scan counter keeps counting across the flush that empties it.
    pub fn drain(&mut self) -> Vec<(Tuple, Prov)> {
        self.bytes = 0;
        if let Some(index) = &mut self.var_index {
            index.clear();
        }
        self.map.drain().map(|(t, (p, _))| (t, p)).collect()
    }

    fn index_insert(&mut self, t: &Tuple, prov: &Prov) {
        if let Some(index) = &mut self.var_index {
            let vars = match prov {
                Prov::Bdd(b) => b.support(),
                Prov::Rel(r) => r.support(),
                _ => Vec::new(),
            };
            for v in vars {
                let tuples = index.entry(v).or_default();
                if !tuples.contains(t) {
                    tuples.insert(t.clone());
                }
            }
        }
    }

    /// Merge an insertion (Algorithm 1 lines 11–26) and return what to
    /// forward: a new tuple's annotation, or a changed one's delta (in
    /// absorption mode `deltaPv = new − old`).
    pub fn merge_ins(&mut self, t: &Tuple, prov: &Prov) -> MergeOutcome {
        self.insert(t, prov, true)
    }

    /// Merge an insertion exactly as [`ProvTable::merge_ins`] does, for a
    /// caller that forwards no delta (MinShip's mirrors, Aggregate's
    /// contributors). In absorption mode `new → old` decides absorption
    /// without making a node, and a changed entry costs the one union
    /// `old ∨ new`: the delta is never built.
    pub fn merge(&mut self, t: &Tuple, prov: &Prov) -> Merged {
        self.insert(t, prov, false).merged()
    }

    /// The merge both entry points run. Without `delta`, a changed
    /// absorption entry reports `Changed(Prov::None)`: [`ProvTable::merge`]
    /// reads only the variant.
    fn insert(&mut self, t: &Tuple, prov: &Prov, delta: bool) -> MergeOutcome {
        match self.mode {
            ProvMode::Set => {
                if self.contains(t) {
                    MergeOutcome::Absorbed
                } else {
                    self.store(t.clone(), Prov::None);
                    MergeOutcome::New(Prov::None)
                }
            }
            ProvMode::Absorption => match self.get(t) {
                // A constant-false annotation carries no derivation. Storing
                // it would key the tuple into the view with an annotation no
                // cause restriction can ever reach (`false` depends on no
                // variable) — the tuple would be permanently stale. The arm
                // below (`false` implies `old`) absorbs false arrivals for
                // present tuples already; this guards the absent case.
                None if prov.is_unsatisfiable() => MergeOutcome::Absorbed,
                None => {
                    self.store(t.clone(), prov.clone());
                    self.index_insert(t, prov);
                    MergeOutcome::New(prov.clone())
                }
                Some(old) => {
                    // Absorption first: an absorbed arrival — the common case
                    // once a recursive view is saturated — has an empty
                    // `new − old`, which makes no BDD node, and needs no
                    // union. A caller without a use for that difference
                    // asks `new → old` instead and never builds it.
                    let (new, old_bdd) = (prov.bdd(), old.bdd());
                    let forward = if delta {
                        let d = new.diff(old_bdd);
                        if d.is_false() {
                            return MergeOutcome::Absorbed;
                        }
                        Prov::Bdd(d)
                    } else if new.implies(old_bdd) {
                        return MergeOutcome::Absorbed;
                    } else {
                        Prov::None
                    };
                    let merged = old.or(prov);
                    self.store(t.clone(), merged);
                    self.index_insert(t, prov);
                    MergeOutcome::Changed(forward)
                }
            },
            ProvMode::Relative => match self.get(t) {
                None => {
                    self.store(t.clone(), prov.clone());
                    self.index_insert(t, prov);
                    MergeOutcome::New(prov.clone())
                }
                Some(old) => {
                    // Relative annotations are self-contained derivation
                    // closures and can grow combinatorially on dense graphs
                    // (this is the cost the paper measures). Beyond the cap
                    // we stop retaining additional alternative derivations:
                    // deletions may then over-delete (the tuple is dropped
                    // even though an unretained derivation survives) — a
                    // documented bound, see DESIGN.md.
                    const RELATIVE_NODE_CAP: usize = 256;
                    if old.rel().node_count() >= RELATIVE_NODE_CAP {
                        return MergeOutcome::Absorbed;
                    }
                    if old.rel().would_change(prov.rel()) {
                        let merged = old.or(prov);
                        self.store(t.clone(), merged);
                        self.index_insert(t, prov);
                        MergeOutcome::Changed(prov.clone())
                    } else {
                        MergeOutcome::Absorbed
                    }
                }
            },
        }
    }

    /// Apply a cause-restrict deletion (Algorithm 1 lines 27–35): substitute
    /// `false` for every variable in `cause` across (affected) entries.
    /// Returns the per-tuple outcomes, deterministically ordered.
    pub fn restrict_cause(&mut self, cause: &[Var]) -> Vec<(Tuple, Restricted)> {
        if !matches!(self.mode, ProvMode::Absorption | ProvMode::Relative) {
            return Vec::new();
        }
        let dead_set = relative_dead_set(self.mode, cause);
        // Candidates are sorted once, here, so outcomes come in ascending
        // tuple order from either path. The unindexed path pre-filters on
        // annotation support, so unaffected entries cost a dependency check
        // instead of a clone plus a full restrict.
        let mut candidates: Vec<Tuple> = if let Some(index) = &mut self.var_index {
            let mut set: FxHashSet<Tuple> = FxHashSet::default();
            for v in cause {
                match index.remove(v) {
                    Some(ts) if set.is_empty() => set = ts,
                    Some(ts) => set.extend(ts),
                    None => {}
                }
            }
            set.into_iter().collect()
        } else {
            self.scan_steps += self.map.len() as u64;
            self.iter()
                .filter(|(_, p)| depends_on_any(p, cause, &dead_set))
                .map(|(t, _)| t.clone())
                .collect()
        };
        candidates.sort_unstable();
        candidates
            .into_iter()
            .filter_map(|t| {
                let outcome = self.restrict_entry(&t, cause, &dead_set)?;
                Some((t, outcome))
            })
            .collect()
    }

    /// Does any entry's annotation depend on a variable of `vars`? A full
    /// scan: this is the check [`ProvTable::restrict_cause`] would make, for
    /// callers asserting that restriction has nothing left to do.
    pub fn mentions_any(&self, vars: &[Var]) -> bool {
        let dead_set = relative_dead_set(self.mode, vars);
        self.iter().any(|(_, p)| depends_on_any(p, vars, &dead_set))
    }

    /// Entries examined so far by cause restriction: the table's length per
    /// unindexed [`ProvTable::restrict_cause`] call (none for an indexed
    /// table), and one per [`ProvTable::restrict_cause_tuple`] call, which
    /// visits only the tuple it names.
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }

    /// Cause-restrict a *single* tuple's entry (the per-update deletion path
    /// of Algorithm 2's `HalfPipeDel`). Returns `None` when the entry is
    /// absent or unaffected — idempotence is what terminates cascaded
    /// deletion propagation.
    pub fn restrict_cause_tuple(&mut self, t: &Tuple, cause: &[Var]) -> Option<Restricted> {
        self.scan_steps += 1;
        self.restrict_entry(t, cause, &relative_dead_set(self.mode, cause))
    }

    /// The one per-entry cause-restrict step both deletion paths take.
    /// `dead_set` is [`relative_dead_set`] of `cause`.
    fn restrict_entry(
        &mut self,
        t: &Tuple,
        cause: &[Var],
        dead_set: &FxHashSet<Var>,
    ) -> Option<Restricted> {
        // The restricted annotation, `None` when nothing survives.
        let survivor = match (&self.mode, self.get(t)?) {
            (ProvMode::Absorption, Prov::Bdd(b)) => {
                let new = b.restrict_all_false(cause);
                if new == *b {
                    return None;
                }
                (!new.is_false()).then_some(Prov::Bdd(new))
            }
            (ProvMode::Relative, Prov::Rel(r)) => match r.kill_vars(dead_set) {
                Some(s)
                    if s.node_count() == r.node_count() && s.encoded_len() == r.encoded_len() =>
                {
                    return None
                }
                s => s.map(|s| Prov::Rel(Arc::new(s))),
            },
            _ => return None,
        };
        match survivor {
            Some(p) => {
                self.store(t.clone(), p);
                Some(Restricted::Shrunk)
            }
            None => {
                self.evict(t);
                Some(Restricted::Died)
            }
        }
    }

    /// Apply a retraction (aggregate revision, set-mode delete) to one
    /// tuple.
    pub fn retract(&mut self, t: &Tuple, prov: &Prov) -> Option<DeleteOutcome> {
        match self.mode {
            ProvMode::Set => self.evict(t).map(DeleteOutcome::Died),
            ProvMode::Absorption => {
                let old = self.get(t)?;
                let new = old.bdd().diff(prov.bdd());
                if new == *old.bdd() {
                    return None;
                }
                if new.is_false() {
                    self.evict(t).map(DeleteOutcome::Died)
                } else {
                    self.store(t.clone(), Prov::Bdd(new));
                    Some(DeleteOutcome::Shrunk(prov.clone()))
                }
            }
            ProvMode::Relative => {
                // Relative annotations cannot subtract a sub-graph soundly;
                // retraction removes the tuple outright (aggregate outputs
                // are single-writer, so this is exact).
                self.evict(t).map(DeleteOutcome::Died)
            }
        }
    }

    /// Install one checkpointed entry, rebuilding every derived structure
    /// (byte counter, var index) so the table is indistinguishable from one
    /// that reached this state incrementally. Restore-only: panics on a
    /// duplicate tuple, which would mean a corrupt checkpoint slipped past
    /// decoding.
    pub(crate) fn restore_entry(&mut self, t: Tuple, p: Prov) {
        assert!(
            !self.contains(&t),
            "checkpoint restored a duplicate table entry"
        );
        self.index_insert(&t, &p);
        self.store(t, p);
    }

    /// Approximate resident bytes: tuples + annotations + per-entry
    /// bookkeeping (hash slots, pointers). O(1): the total is maintained on
    /// every mutation instead of scanned per metrics sample.
    pub fn state_bytes(&self) -> usize {
        self.bytes
    }

    /// The mode this table runs in.
    pub fn mode(&self) -> ProvMode {
        self.mode
    }

    /// Whether the var → tuples index is maintained.
    pub(crate) fn indexed(&self) -> bool {
        self.var_index.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::OpId;
    use netrec_bdd::{Bdd, BddManager};
    use netrec_sim::MsgMeta;
    use netrec_types::{NetAddr, RelId, SimTime, Value};

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    /// A hand-off between two operators of one peer is not traffic: its
    /// metadata carries the tuple count the DES cost model bills by, and no
    /// wire bytes — nobody would charge them, and pricing them walks every
    /// annotation of the batch.
    #[test]
    fn local_hand_off_is_not_priced_in_wire_bytes() {
        let mgr = BddManager::new();
        let strategy = Strategy::absorption_lazy();
        let me = PeerId(0);
        let mut net = NetApi::fresh(SimTime(0), me);
        let mut ectx = Ectx {
            me,
            strategy: &strategy,
            partitioner: Partitioner::Direct { peers: 2 },
            mgr: &mgr,
            net: &mut net,
        };
        let dest = |op, input| Dest {
            op: OpId(op),
            input,
        };
        let batch = |n: i64| -> Vec<Update> {
            (0..n)
                .map(|i| Update::ins(RelId(1), t(i), Prov::Bdd(mgr.var(i as u32 + 1))))
                .collect()
        };
        let mut map = MapOp::new(
            vec![Expr::col(0)],
            vec![],
            RelId(2),
            vec![dest(3, 0), dest(4, 1)],
        );
        map.on_updates(batch(3), &mut ectx);
        let mut store = StoreOp::new(RelId(2), true, None, vec![dest(5, 0)], ProvMode::Absorption);
        store.on_updates(batch(2), &mut ectx);

        let (sends, _) = net.into_parts();
        let got: Vec<_> = sends
            .iter()
            .map(|(to, port, _, meta)| (*to, *port, *meta))
            .collect();
        let handed = |tuples| MsgMeta {
            bytes: 0,
            prov_bytes: 0,
            tuples,
        };
        assert_eq!(
            got,
            vec![
                (me, Plan::port(OpId(3), 0), handed(3)),
                (me, Plan::port(OpId(4), 1), handed(3)),
                (me, Plan::port(OpId(5), 0), handed(2)),
            ]
        );
    }

    /// The peer boundary on the way out, per destination: what leaves for
    /// another peer is the annotation's encoding, priced at exactly what a
    /// handle-carrying message was priced at; what is routed home keeps its
    /// handle and is a local hand-off.
    #[test]
    fn routed_batch_is_bytes_for_another_peer_and_a_handle_at_home() {
        let mgr = BddManager::new();
        let strategy = Strategy::absorption_lazy();
        let me = PeerId(0);
        let mut net = NetApi::fresh(SimTime(0), me);
        let mut ectx = Ectx {
            me,
            strategy: &strategy,
            partitioner: Partitioner::Direct { peers: 2 },
            mgr: &mgr,
            net: &mut net,
        };
        let at = |a: u32| Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Int(7)]);
        let sent = mgr.var(10).and(&mgr.var(11)).or(&mgr.var(12));
        let home = Update::ins(RelId(1), at(0), Prov::Bdd(sent.clone()));
        let away = Update::ins(RelId(1), at(1), Prov::Bdd(sent.clone()));
        // The parent's formula: message framing plus the update's wire size,
        // measured on the handle.
        let (away_bytes, away_prov) = (2 + away.encoded_len(), away.prov_len());
        let dest = Dest {
            op: OpId(2),
            input: 0,
        };
        ectx.emit_routed(Some(0), dest, vec![home, away]);

        let (mut sends, _) = net.into_parts();
        assert_eq!(sends.len(), 2);
        let (to, _, Msg::Updates(ups), meta) = sends.remove(0) else {
            panic!("control message")
        };
        assert_eq!(to, me);
        assert_eq!(ups[0].prov.bdd(), &sent, "a handle at home");
        assert_eq!((meta.bytes, meta.prov_bytes, meta.tuples), (0, 0, 1));
        let (to, _, Msg::Updates(ups), meta) = sends.remove(0) else {
            panic!("control message")
        };
        assert_eq!(to, PeerId(1));
        assert!(matches!(&ups[0].prov, Prov::Wire(bytes) if bytes[..] == sent.encode()[..]));
        assert_eq!(
            (meta.bytes, meta.prov_bytes, meta.tuples),
            (away_bytes, away_prov, 1)
        );
        assert_eq!(meta.prov_bytes, 1 + sent.encode().len());
    }

    #[test]
    fn set_mode_dedups() {
        let mut pt = ProvTable::new(ProvMode::Set, false);
        assert!(matches!(
            pt.merge_ins(&t(1), &Prov::None),
            MergeOutcome::New(_)
        ));
        assert!(matches!(
            pt.merge_ins(&t(1), &Prov::None),
            MergeOutcome::Absorbed
        ));
        assert!(matches!(
            pt.retract(&t(1), &Prov::None),
            Some(DeleteOutcome::Died(_))
        ));
        assert!(pt.retract(&t(1), &Prov::None).is_none());
    }

    #[test]
    fn absorption_merge_and_absorb() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        let p1 = Prov::Bdd(mgr.var(1));
        let p12 = Prov::Bdd(mgr.var(1).and(&mgr.var(2)));
        assert!(matches!(pt.merge_ins(&t(1), &p12), MergeOutcome::New(_)));
        // p1 is NOT absorbed by p1∧p2 (it is more general).
        assert!(matches!(pt.merge_ins(&t(1), &p1), MergeOutcome::Changed(_)));
        // now p1∧p2 IS absorbed by p1.
        assert!(matches!(pt.merge_ins(&t(1), &p12), MergeOutcome::Absorbed));
    }

    /// An absorbed arrival is the common case of a saturated recursive view;
    /// deciding it must not build `old ∨ new`, `¬old`, or anything else.
    #[test]
    fn absorbed_merge_allocates_no_node() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, false);
        let x = |v| mgr.var(v);
        let old = x(1).and(&x(2)).or(&x(3).and(&x(4))).or(&x(5));
        let absorbed = Prov::Bdd(x(1).and(&x(2)).and(&x(6)).or(&x(5).and(&x(7))));
        pt.merge_ins(&t(1), &Prov::Bdd(old));
        mgr.gc();
        let before = mgr.stats().nodes;
        assert!(matches!(
            pt.merge_ins(&t(1), &absorbed),
            MergeOutcome::Absorbed
        ));
        assert_eq!(mgr.stats().nodes, before);
        assert_eq!(pt.merge(&t(1), &absorbed), Merged::Absorbed);
        assert_eq!(mgr.stats().nodes, before);
    }

    /// A changed arrival through `merge` builds the union and nothing else:
    /// it makes exactly the nodes `old ∨ new` alone makes on a twin manager
    /// fed the same builds, while `merge_ins` also makes `new − old`.
    #[test]
    fn changed_merge_builds_only_the_union() {
        /// Nodes made by `op` on a fresh manager whose table holds `old`,
        /// with `new` in hand, collected beforehand. What `op` returns is
        /// alive when the nodes are counted.
        fn made<R>(op: impl FnOnce(&mut ProvTable, &Prov, &Prov) -> R) -> usize {
            let mgr = BddManager::new();
            let x = |v| mgr.var(v);
            let old = Prov::Bdd(x(1).and(&x(2)).or(&x(3).and(&x(4))));
            let new = Prov::Bdd(x(2).and(&x(5)).or(&x(4).and(&x(6))));
            let mut pt = ProvTable::new(ProvMode::Absorption, false);
            pt.merge_ins(&t(1), &old);
            mgr.gc();
            let before = mgr.stats().nodes;
            let kept = op(&mut pt, &old, &new);
            let grown = mgr.stats().nodes - before;
            drop(kept);
            grown
        }
        let union = made(|_, old, new| old.or(new));
        let merged = made(|pt, _, new| assert_eq!(pt.merge(&t(1), new), Merged::Changed));
        let with_delta = made(|pt, _, new| pt.merge_ins(&t(1), new));
        assert!(union > 0);
        assert_eq!(merged, union);
        assert!(
            with_delta > union,
            "the delta is {with_delta} − {union} nodes"
        );
    }

    #[test]
    fn absorption_false_annotation_never_stored() {
        // Regression for the false-annotation resurrection race: a join's
        // `Changed` delta (`new ∧ ¬old`) conjoined with the other side can
        // annihilate to constant `false`. If such an insert lands after the
        // tuple died, an unguarded table would key it back into the view
        // with an annotation `restrict_cause` can never reach (empty
        // support) — a permanently stale tuple. The table must absorb it.
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        let dead = Prov::Bdd(mgr.var(1).and(&mgr.var(1).not()));
        assert!(dead.is_unsatisfiable());
        assert!(matches!(pt.merge_ins(&t(1), &dead), MergeOutcome::Absorbed));
        assert!(!pt.contains(&t(1)), "false annotation created a view key");
        // Arriving while the tuple is live is likewise a no-op.
        pt.merge_ins(&t(2), &Prov::Bdd(mgr.var(3)));
        assert!(matches!(pt.merge_ins(&t(2), &dead), MergeOutcome::Absorbed));
        assert_eq!(pt.get(&t(2)).unwrap().bdd(), &mgr.var(3));
    }

    #[test]
    fn absorption_restrict_kills_and_shrinks() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        pt.merge_ins(&t(1), &Prov::Bdd(mgr.var(1).or(&mgr.var(2))));
        pt.merge_ins(&t(2), &Prov::Bdd(mgr.var(1)));
        pt.merge_ins(&t(3), &Prov::Bdd(mgr.var(3)));
        let outcomes = pt.restrict_cause(&[1]);
        assert_eq!(outcomes.len(), 2, "t3 untouched");
        let died: Vec<_> = outcomes
            .iter()
            .filter(|(_, o)| *o == Restricted::Died)
            .map(|(t, _)| t.clone())
            .collect();
        assert_eq!(died, vec![t(2)]);
        assert!(pt.contains(&t(1)) && pt.contains(&t(3)) && !pt.contains(&t(2)));
        assert_eq!(pt.get(&t(1)).unwrap().bdd(), &mgr.var(2));
    }

    /// Both restrict paths — the index's candidates and the unindexed scan —
    /// return the same outcomes, in ascending tuple order whatever order the
    /// tuples arrived in (the DES counters depend on emission order).
    #[test]
    fn unindexed_scan_matches_indexed() {
        let mgr = BddManager::new();
        let x = |v| mgr.var(v);
        let mk = |indexed: bool| {
            let mut pt = ProvTable::new(ProvMode::Absorption, indexed);
            for i in [5, 2, 8, 1, 7, 3, 6, 4] {
                pt.merge_ins(&t(i), &Prov::Bdd(x(i as u32 % 3).and(&x(10 + i as u32))));
                pt.merge_ins(&t(i), &Prov::Bdd(x(i as u32 % 2).and(&x(20))));
            }
            let outs = pt.restrict_cause(&[1, 2]);
            let mut left: Vec<(Tuple, Bdd, usize)> = pt
                .iter()
                .map(|(t, p)| (t.clone(), p.bdd().clone(), p.encoded_len()))
                .collect();
            left.sort_by(|a, b| a.0.cmp(&b.0));
            (outs, left, pt.state_bytes())
        };
        let (outs, left, bytes) = mk(true);
        assert_eq!((outs.clone(), left.clone(), bytes), mk(false));
        let died = |i| (t(i), Restricted::Died);
        let shrunk = |i| (t(i), Restricted::Shrunk);
        assert_eq!(
            outs,
            [
                died(1),
                shrunk(2),
                shrunk(3),
                shrunk(4),
                died(5),
                died(7),
                shrunk(8)
            ],
            "ascending, and t(6) untouched"
        );
        let left: Vec<Tuple> = left.into_iter().map(|(t, _, _)| t).collect();
        assert_eq!(left, [2, 3, 4, 6, 8].map(t));
    }

    #[test]
    fn absorption_retract() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, false);
        let a = Prov::Bdd(mgr.var(1));
        let b = Prov::Bdd(mgr.var(2));
        pt.merge_ins(&t(1), &a.or(&b));
        assert!(matches!(
            pt.retract(&t(1), &a),
            Some(DeleteOutcome::Shrunk(_))
        ));
        assert!(pt.contains(&t(1)));
        assert!(matches!(
            pt.retract(&t(1), &b),
            Some(DeleteOutcome::Died(_))
        ));
        assert!(!pt.contains(&t(1)));
    }

    #[test]
    fn relative_restrict() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Relative, true);
        let a = Prov::base(ProvMode::Relative, 1, &mgr);
        let b = Prov::base(ProvMode::Relative, 2, &mgr);
        let rel = netrec_types::RelId(0);
        let d1 = Prov::rel_derive(0, rel, t(9), &[&a]);
        let d2 = Prov::rel_derive(1, rel, t(9), &[&b]);
        pt.merge_ins(&t(9), &d1);
        pt.merge_ins(&t(9), &d2);
        assert_eq!(pt.restrict_cause(&[1]), [(t(9), Restricted::Shrunk)]);
        assert_eq!(pt.restrict_cause(&[2]), [(t(9), Restricted::Died)]);
        assert!(pt.is_empty());
    }

    #[test]
    fn state_bytes_grow() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, false);
        let empty = pt.state_bytes();
        pt.merge_ins(&t(1), &Prov::Bdd(mgr.var(1)));
        assert!(pt.state_bytes() > empty);
    }

    /// The O(1) byte counter — each entry's price, taken when it was stored
    /// and given back when it is replaced or removed — must stay equal to a
    /// full-table rescan through every mutation path, in every mode: insert
    /// through either entry point, overwrite, shrink, death, retract, drain
    /// and restore.
    #[test]
    fn state_bytes_counter_matches_scan() {
        fn check(pt: &ProvTable) {
            let scan: usize = pt.iter().map(|(t, p)| entry_cost(t, p)).sum();
            assert_eq!(pt.state_bytes(), scan, "{:?} table", pt.mode());
        }
        /// Empty the table, then install its entries again as a checkpoint
        /// restore does.
        fn drain_and_restore(pt: &mut ProvTable) {
            assert!(!pt.is_empty());
            let entries = pt.drain();
            check(pt);
            assert_eq!(pt.state_bytes(), 0);
            for (t, p) in entries {
                pt.restore_entry(t, p);
                check(pt);
            }
        }
        let mgr = BddManager::new();
        let x = |v| mgr.var(v);

        let mut pt = ProvTable::new(ProvMode::Set, false);
        pt.merge_ins(&t(1), &Prov::None);
        pt.merge(&t(2), &Prov::None);
        pt.merge(&t(1), &Prov::None);
        check(&pt);
        drain_and_restore(&mut pt);
        pt.restrict_cause(&[1]);
        check(&pt);
        pt.retract(&t(1), &Prov::None);
        check(&pt);

        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        pt.merge_ins(&t(1), &Prov::Bdd(x(1).or(&x(2))));
        pt.merge_ins(&t(1), &Prov::Bdd(x(3)));
        check(&pt);
        pt.merge(&t(1), &Prov::Bdd(x(4).and(&x(5)))); // overwrite, no delta
        pt.merge(&t(2), &Prov::Bdd(x(1)));
        pt.merge(&t(3), &Prov::Bdd(x(1).and(&x(6))));
        check(&pt);
        drain_and_restore(&mut pt);
        pt.restrict_cause(&[1]);
        check(&pt);
        pt.restrict_cause_tuple(&t(1), &[2, 3]);
        check(&pt);
        pt.retract(&t(1), &Prov::Bdd(x(4).and(&x(5)).and(&x(7)))); // shrinks
        check(&pt);
        pt.retract(&t(1), &Prov::Bdd(x(4)));
        check(&pt);
        assert_eq!(pt.state_bytes(), 0);

        let mut pt = ProvTable::new(ProvMode::Relative, true);
        let a = Prov::base(ProvMode::Relative, 1, &mgr);
        let b = Prov::base(ProvMode::Relative, 2, &mgr);
        let c = Prov::base(ProvMode::Relative, 3, &mgr);
        let rel = netrec_types::RelId(0);
        pt.merge_ins(&t(9), &Prov::rel_derive(0, rel, t(9), &[&a]));
        pt.merge(&t(9), &Prov::rel_derive(1, rel, t(9), &[&b]));
        pt.merge(&t(8), &Prov::rel_derive(0, rel, t(8), &[&c]));
        pt.merge(&t(7), &Prov::rel_derive(0, rel, t(7), &[&a]));
        check(&pt);
        drain_and_restore(&mut pt);
        pt.restrict_cause(&[1]);
        check(&pt);
        pt.restrict_cause_tuple(&t(9), &[2]);
        check(&pt);
        pt.retract(&t(8), &c);
        check(&pt);
        assert_eq!(pt.state_bytes(), 0);
    }
}
