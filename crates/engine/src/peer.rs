//! One physical peer: hosts an instance of every plan operator over its
//! horizontal partition, dispatches messages/timers, and enforces the
//! cross-channel deletion hygiene (dead-variable sanitisation).

use std::sync::Arc;

use netrec_bdd::{BddManager, Var};
use netrec_prov::{Prov, ProvMode, VarAllocator};
use netrec_sim::{NetApi, Partitioner, PeerId, PeerNode, Port};
use netrec_types::wire::WireError;
use netrec_types::{FxHashSet, Tuple, UpdateKind};

use crate::checkpoint::{put_section, Field, Reader};
use crate::ops::{
    AggSelOp, AggregateOp, Ectx, ExchangeOp, IngressOp, JoinOp, MapOp, MinShipOp, OpState, StoreOp,
};
use crate::plan::{OpSpec, Plan};
use crate::strategy::{ShipPolicy, Strategy};
use crate::update::{Msg, Update};

const FLUSH_TIMER_BIT: u64 = 1 << 63;

/// Engine peer state (implements [`PeerNode`] for both runtimes).
pub struct EnginePeer {
    me: PeerId,
    strategy: Strategy,
    partitioner: Partitioner,
    /// Owns every annotation in this peer's operator state. An annotation's
    /// nodes live as long as some `Bdd` handle reaches them — in an operator
    /// table here, or in a hand-off between two operators of this peer — and
    /// the arena reclaims the rest on its own (DESIGN.md "Annotation
    /// memory"); the engine never asks it to. No handle leaves the peer
    /// (DESIGN.md "Peer boundary").
    mgr: BddManager,
    alloc: VarAllocator,
    ops: Vec<OpState>,
    /// Every variable this peer has learned is dead — incoming insertions
    /// are restricted against this set so late-arriving derivations cannot
    /// resurrect deleted base tuples (cross-channel races).
    dead_vars: FxHashSet<Var>,
}

impl EnginePeer {
    /// Instantiate the plan on peer `me`.
    pub fn new(
        me: PeerId,
        plan: &Plan,
        strategy: Strategy,
        partitioner: Partitioner,
    ) -> EnginePeer {
        let mgr = BddManager::new();
        let ops = plan
            .ops
            .iter()
            .map(|spec| match spec {
                OpSpec::Ingress {
                    rel,
                    is_static,
                    dests,
                } => OpState::Ingress(IngressOp::new(
                    *rel,
                    plan.catalog.schema(*rel).partition_col,
                    dests.clone(),
                    *is_static && strategy.mode == ProvMode::Absorption,
                )),
                OpSpec::Map {
                    exprs,
                    preds,
                    out_rel,
                    dests,
                } => OpState::Map(MapOp::new(
                    exprs.clone(),
                    preds.clone(),
                    *out_rel,
                    dests.clone(),
                )),
                OpSpec::Exchange { route_col, dest } => {
                    OpState::Exchange(ExchangeOp::new(*route_col, *dest))
                }
                OpSpec::Join {
                    build_key,
                    probe_key,
                    preds,
                    emit,
                    out_rel,
                    rule_id,
                    dests,
                } => OpState::Join(JoinOp::new(
                    build_key.clone(),
                    probe_key.clone(),
                    preds.clone(),
                    emit.clone(),
                    *out_rel,
                    *rule_id,
                    dests.clone(),
                    strategy.mode,
                )),
                OpSpec::MinShip { route_col, dest } => {
                    OpState::MinShip(MinShipOp::new(*route_col, *dest, strategy.mode))
                }
                OpSpec::Store {
                    rel,
                    is_view,
                    aggsel,
                    dests,
                } => OpState::Store(StoreOp::new(
                    *rel,
                    *is_view,
                    aggsel.as_ref(),
                    dests.clone(),
                    strategy.mode,
                )),
                OpSpec::AggSel { spec, dests } => {
                    OpState::AggSel(AggSelOp::new(spec.clone(), dests.clone(), strategy.mode))
                }
                OpSpec::Aggregate {
                    group_cols,
                    agg,
                    agg_col,
                    out_rel,
                    dests,
                } => OpState::Aggregate(AggregateOp::new(
                    group_cols.clone(),
                    *agg,
                    *agg_col,
                    *out_rel,
                    dests.clone(),
                    strategy.mode,
                )),
            })
            .collect();
        EnginePeer {
            me,
            strategy,
            partitioner,
            mgr,
            alloc: VarAllocator::new(me.0),
            ops,
            dead_vars: FxHashSet::default(),
        }
    }

    /// This peer's operator states (post-run inspection).
    pub fn ops(&self) -> &[OpState] {
        &self.ops
    }

    /// Serialise this peer's entire engine state into a self-contained blob:
    /// the variable-allocator high-water mark, the dead-variable set, and one
    /// length-prefixed section per operator in plan order. Taken at a
    /// converged boundary the blob is a consistent snapshot — quiescence
    /// guarantees no in-flight messages or armed timers cut across it. The
    /// encoding is the checkpoint codec's (`checkpoint.rs`).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.alloc.allocated().put(&mut out);
        self.dead_vars.put(&mut out);
        (self.ops.len() as u64).put(&mut out);
        for op in &self.ops {
            put_section(&mut out, |section| match op {
                OpState::Ingress(o) => o.checkpoint(section),
                OpState::Join(o) => o.checkpoint(section),
                OpState::MinShip(o) => o.checkpoint(section),
                OpState::Store(o) => o.checkpoint(section),
                OpState::AggSel(o) => o.checkpoint(section),
                OpState::Aggregate(o) => o.checkpoint(section),
                OpState::Map(_) | OpState::Exchange(_) => {} // stateless
            });
        }
        out
    }

    /// Rebuild a peer from a checkpoint blob. Constructs a *fresh* peer from
    /// the plan (exactly like [`EnginePeer::new`]) and installs the
    /// checkpointed state into it; any decoding failure returns an error and
    /// drops the partially-built peer, so a corrupted or truncated blob can
    /// never half-apply into live state.
    pub fn restore(
        me: PeerId,
        plan: &Plan,
        strategy: Strategy,
        partitioner: Partitioner,
        bytes: &[u8],
    ) -> Result<EnginePeer, WireError> {
        let mut peer = EnginePeer::new(me, plan, strategy, partitioner);
        let mgr = peer.mgr.clone();
        let mut r = Reader::new(bytes, Some(&mgr));
        let allocated: u32 = r.get()?;
        if allocated > VarAllocator::CAPACITY {
            return Err(WireError::Corrupt("allocator high-water mark out of range"));
        }
        peer.alloc = VarAllocator::with_allocated(me.0, allocated);
        peer.dead_vars = r.get()?;
        if r.get::<u64>()? != peer.ops.len() as u64 {
            return Err(WireError::Corrupt("operator count does not match plan"));
        }
        for op in &mut peer.ops {
            let mut section = r.section()?;
            match op {
                OpState::Ingress(o) => o.restore(&mut section)?,
                OpState::Join(o) => o.restore(&mut section)?,
                OpState::MinShip(o) => o.restore(&mut section)?,
                OpState::Store(o) => o.restore(&mut section)?,
                OpState::AggSel(o) => o.restore(&mut section)?,
                OpState::Aggregate(o) => o.restore(&mut section)?,
                OpState::Map(_) | OpState::Exchange(_) => {}
            }
            section.finish("trailing bytes in operator section")?;
        }
        r.finish("trailing bytes in peer checkpoint")?;
        Ok(peer)
    }

    /// Turn on serving-delta recording in every **view** store on this peer.
    /// Called by the runner (at a quiescent boundary) when a serving handle
    /// is attached; un-served runs never record.
    pub fn enable_view_deltas(&mut self) {
        for op in &mut self.ops {
            if let OpState::Store(o) = op {
                if o.is_view() {
                    o.enable_deltas();
                }
            }
        }
    }

    /// Drain the membership deltas every view store on this peer recorded
    /// since the last drain: `(relation, tuple, entered)` in event order.
    pub fn drain_view_deltas(&mut self) -> Vec<(netrec_types::RelId, Tuple, bool)> {
        let mut out = Vec::new();
        for op in &mut self.ops {
            if let OpState::Store(o) = op {
                if o.is_view() {
                    let rel = o.rel();
                    out.extend(o.drain_deltas().into_iter().map(|(t, add)| (rel, t, add)));
                }
            }
        }
        out
    }

    /// Sum of operator state bytes on this peer.
    pub fn state_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                OpState::Ingress(o) => o.state_bytes(),
                OpState::Map(o) => o.state_bytes(),
                OpState::Exchange(o) => o.state_bytes(),
                OpState::Join(o) => o.state_bytes(),
                OpState::MinShip(o) => o.state_bytes(),
                OpState::Store(o) => o.state_bytes(),
                OpState::AggSel(o) => o.state_bytes(),
                OpState::Aggregate(o) => o.state_bytes(),
            })
            .sum()
    }

    /// The BDD manager of this peer (diagnostics: `stats()` separates live
    /// nodes from allocated and free slots and counts collections).
    pub fn bdd_manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Incoming-update hygiene. This is the peer boundary on the way in
    /// (DESIGN.md "Peer boundary"): an absorption annotation from another
    /// peer arrives as bytes and is built here, once, in this peer's own
    /// manager; one that arrives as a handle was handed over by an operator
    /// of this peer, and a handle into any other arena is a bug. Then
    /// insertions are restricted against known-dead variables so no channel
    /// race can resurrect a deleted base tuple.
    fn sanitize(&self, ups: Vec<Update>) -> Vec<Update> {
        let mut out = Vec::with_capacity(ups.len());
        for mut u in ups {
            match &u.prov {
                // The bytes are this program's own encoding, or a link
                // checked them before delivering (`Msg::decode`).
                Prov::Wire(bytes) => {
                    let landed = self.mgr.decode(bytes).expect("well-formed annotation");
                    u.prov = Prov::Bdd(landed);
                }
                Prov::Bdd(b) => assert!(
                    b.manager().ptr_eq(&self.mgr),
                    "p{} received a Bdd handle into another peer's arena: {:?}",
                    self.me.0,
                    u.tuple
                ),
                _ => {}
            }
            if u.kind == UpdateKind::Insert && u.prov.is_unsatisfiable() {
                // Joins no longer emit constant-false inserts (join.rs),
                // but one crossing the peer boundary would resurrect a
                // retracted tuple — and the dead-variable filter below
                // never sees it (empty support, no hit). Drop it here.
                if crate::trace::matches(&u.tuple) {
                    eprintln!("[trace] p{} SANITIZE-DROP-FALSE {:?}", self.me.0, u.tuple);
                }
                continue;
            }
            if u.kind == UpdateKind::Insert && !self.dead_vars.is_empty() {
                match &u.prov {
                    Prov::Bdd(b) => {
                        let hit: Vec<Var> = b
                            .support()
                            .into_iter()
                            .filter(|v| self.dead_vars.contains(v))
                            .collect();
                        if !hit.is_empty() {
                            let restricted = b.restrict_all_false(&hit);
                            if restricted.is_false() {
                                continue;
                            }
                            u.prov = Prov::Bdd(restricted);
                        }
                    }
                    Prov::Rel(r) if r.mentions_any(&self.dead_vars) => {
                        match r.kill_vars(&self.dead_vars) {
                            None => {
                                if crate::trace::matches(&u.tuple) {
                                    eprintln!("[trace] p{} SANITIZE-DROP {:?}", self.me.0, u.tuple);
                                }
                                continue;
                            }
                            Some(alive) => {
                                if crate::trace::matches(&u.tuple) {
                                    eprintln!(
                                        "[trace] p{} SANITIZE-SHRINK {:?} -> rel{:?}",
                                        self.me.0,
                                        u.tuple,
                                        alive.support()
                                    );
                                }
                                u.prov = Prov::Rel(Arc::new(alive));
                            }
                        }
                    }
                    _ => {}
                }
            }
            out.push(u);
        }
        out
    }

    /// Split the peer for one callback: its operator states, its variable
    /// allocator, and the emission context operators run against — disjoint
    /// fields, so an operator is borrowed mutably beside the context.
    fn parts<'a>(
        &'a mut self,
        net: &'a mut NetApi<Msg>,
    ) -> (&'a mut [OpState], &'a mut VarAllocator, Ectx<'a>) {
        let ectx = Ectx {
            me: self.me,
            strategy: &self.strategy,
            partitioner: self.partitioner,
            mgr: &self.mgr,
            net,
        };
        (&mut self.ops, &mut self.alloc, ectx)
    }

    fn dispatch(&mut self, op_idx: usize, input: u8, ups: Vec<Update>, net: &mut NetApi<Msg>) {
        debug_assert!(
            !ups.iter().any(|u| matches!(u.prov, Prov::Wire(_))),
            "a wire-form annotation got past sanitize"
        );
        let (ops, _, mut ectx) = self.parts(net);
        match &mut ops[op_idx] {
            OpState::Ingress(_) => panic!("ingress receives Msg::Base, not updates"),
            OpState::Map(o) => o.on_updates(ups, &mut ectx),
            OpState::Exchange(o) => o.on_updates(ups, &mut ectx),
            OpState::Join(o) => o.on_updates(input, ups, &mut ectx),
            OpState::MinShip(o) => {
                if o.on_updates(ups, &mut ectx) {
                    self.arm_flush(op_idx, net);
                }
            }
            OpState::Store(o) => o.on_updates(ups, &mut ectx),
            OpState::AggSel(o) => o.on_updates(ups, &mut ectx),
            OpState::Aggregate(o) => o.on_updates(ups, &mut ectx),
        }
    }

    /// Absorb the causes of every incoming deletion into `dead_vars`,
    /// returning the variables this peer had never seen die before.
    fn record_causes(&mut self, ups: &[Update]) -> Vec<Var> {
        let mut fresh = Vec::new();
        for u in ups {
            if u.is_delete() {
                for v in u.cause.iter() {
                    if self.dead_vars.insert(*v) {
                        fresh.push(*v);
                    }
                }
            }
        }
        fresh
    }

    /// A cause can reach this peer on any port (store input, join probe,
    /// ...), while the receivers of this peer's past ships only hear about
    /// it if the relaying operators still emit something mentioning it — and
    /// after enough churn they may not (their state already restricted, the
    /// join's matching build entries gone). Each MinShip keeps a ledger of
    /// everything it ever shipped precisely for this moment: sweep it for
    /// the freshly-dead variables and forward the cause to the owners of any
    /// affected tuple, so the store-to-store cascade cannot terminate early.
    ///
    /// This is also the one moment a MinShip restricts its `pins`/`sent`
    /// mirrors by a dead variable: once per (peer, variable), before the
    /// message that brought the news is dispatched — `MinShipOp::on_updates`
    /// relies on it and never scans its tables per update.
    fn forward_dead_vars(&mut self, fresh: &[Var], net: &mut NetApi<Msg>) {
        for i in 0..self.ops.len() {
            let (ops, _, mut ectx) = self.parts(net);
            if let OpState::MinShip(o) = &mut ops[i] {
                if o.on_dead_vars(fresh, &mut ectx) {
                    self.arm_flush(i, net);
                }
            }
        }
    }

    /// Arm the eager flush timer of the MinShip at `op_idx`, which asked for
    /// it (only an eager MinShip ever does).
    fn arm_flush(&self, op_idx: usize, net: &mut NetApi<Msg>) {
        if let ShipPolicy::Eager { period, .. } = self.strategy.ship {
            net.set_timer(period, FLUSH_TIMER_BIT | op_idx as u64);
        }
    }
}

impl PeerNode<Msg> for EnginePeer {
    fn on_message(&mut self, port: Port, msg: Msg, net: &mut NetApi<Msg>) {
        let (op, input) = Plan::port_target(port);
        match msg {
            Msg::Updates(ups) => {
                if crate::trace::enabled() {
                    for u in ups.iter().filter(|u| crate::trace::matches(&u.tuple)) {
                        eprintln!(
                            "[trace] p{} op{}.{} RECV {:?} {:?} cause={:?} {}",
                            self.me.0,
                            op.0,
                            input,
                            u.kind,
                            u.tuple,
                            u.cause,
                            crate::trace::supp(&u.prov)
                        );
                    }
                }
                // Order matters: (1) every cause variable of the message
                // joins `dead_vars`, (2) the ones new to this peer are
                // applied to every MinShip's mirrors and ledger, and only
                // then is the batch (3) sanitised against `dead_vars` and
                // (4) dispatched. Operators therefore never see a delete
                // whose cause has not been applied peer-wide, nor an insert
                // that mentions a dead variable (DESIGN.md "Deletion
                // propagation", I1–I3).
                let fresh = self.record_causes(&ups);
                if !fresh.is_empty() {
                    self.forward_dead_vars(&fresh, net);
                }
                // Last reference (single-destination emission, the common
                // case): take the batch back without copying. Otherwise the
                // batch is still shared with sibling destinations — clone
                // (tuples/annotations are Arc-backed, so this is shallow).
                let ups = Arc::try_unwrap(ups).unwrap_or_else(|shared| (*shared).clone());
                let ups = self.sanitize(ups);
                if !ups.is_empty() {
                    self.dispatch(op.0 as usize, input, ups, net);
                }
            }
            Msg::Rederive => {
                let (ops, _, mut ectx) = self.parts(net);
                if let OpState::Ingress(o) = &mut ops[op.0 as usize] {
                    o.rederive(&mut ectx);
                }
            }
            Msg::Base { kind, tuple, ttl } => {
                let (ops, alloc, mut ectx) = self.parts(net);
                let OpState::Ingress(o) = &mut ops[op.0 as usize] else {
                    panic!("Msg::Base sent to non-ingress op {op:?}");
                };
                if let Some((ttl_id, delay)) = o.on_base(kind, tuple, ttl, alloc, &mut ectx) {
                    let id = ((op.0 as u64) << 32) | u64::from(ttl_id);
                    net.set_timer(delay, id);
                }
            }
        }
    }

    fn on_timer(&mut self, id: u64, net: &mut NetApi<Msg>) {
        let (ops, _, mut ectx) = self.parts(net);
        if id & FLUSH_TIMER_BIT != 0 {
            let op_idx = (id & !FLUSH_TIMER_BIT) as usize;
            if let OpState::MinShip(o) = &mut ops[op_idx] {
                if o.on_flush_timer(&mut ectx) {
                    self.arm_flush(op_idx, net);
                }
            }
        } else {
            let op_idx = (id >> 32) as usize;
            let ttl_id = (id & 0xffff_ffff) as u32;
            if let OpState::Ingress(o) = &mut ops[op_idx] {
                o.on_ttl(ttl_id, &mut ectx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{OpId, PlanBuilder};
    use netrec_types::{RelId, SimTime, Value};

    /// `link` ingress → projection → `reach` view store, on peer 0 of 2.
    fn peer_with_a_store() -> (EnginePeer, OpId, RelId) {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        let reach = b.idb("reach", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
        let store = b.store(reach, true, None);
        b.connect(ing, map, 0);
        b.connect(map, store, 0);
        let peer = EnginePeer::new(
            PeerId(0),
            &b.build().expect("plan"),
            Strategy::absorption_lazy(),
            Partitioner::Direct { peers: 2 },
        );
        (peer, store, reach)
    }

    fn deliver(peer: &mut EnginePeer, store: OpId, ups: Vec<Update>) {
        let mut net = NetApi::fresh(SimTime(0), PeerId(0));
        peer.on_message(Plan::port(store, 0), Msg::Updates(Arc::new(ups)), &mut net);
    }

    fn stored<'a>(peer: &'a EnginePeer, store: OpId, t: &Tuple) -> Option<&'a Prov> {
        match &peer.ops()[store.0 as usize] {
            OpState::Store(s) => s.prov_of(t),
            _ => panic!("not a store"),
        }
    }

    /// An annotation from another peer arrives as bytes and is built in this
    /// peer's own manager before the filters look at it: the one that
    /// mentions a dead variable is restricted, the one that is constant
    /// false is dropped, and what the store holds is a local handle.
    #[test]
    fn wire_annotation_lands_in_this_peers_manager_ahead_of_the_filters() {
        let (mut peer, store, reach) = peer_with_a_store();
        let sender = BddManager::new();
        let wire = |b: netrec_bdd::Bdd| Prov::Bdd(b).into_wire();
        let t = |i: i64| Tuple::new(vec![Value::Int(i), Value::Int(i)]);
        // Variable 1 dies first (a cause-delete for a tuple nobody holds).
        deliver(
            &mut peer,
            store,
            vec![Update::del_cause(reach, t(9), Arc::from(&[1u32][..]))],
        );
        deliver(
            &mut peer,
            store,
            vec![
                Update::ins(reach, t(1), wire(sender.var(1).or(&sender.var(2)))),
                Update::ins(reach, t(2), wire(sender.var(1))),
                Update::ins(reach, t(3), wire(sender.zero())),
            ],
        );
        let mgr = peer.bdd_manager();
        assert_eq!(
            stored(&peer, store, &t(1)).expect("kept").bdd(),
            &mgr.var(2)
        );
        assert!(stored(&peer, store, &t(2)).is_none(), "dead on arrival");
        assert!(stored(&peer, store, &t(3)).is_none(), "proves nothing");
    }

    /// Handles stay on their peer, so one into another arena can only be a
    /// bug in whoever sent it — and `merge_ins` would store it without
    /// complaint. Fail at the boundary instead.
    #[test]
    #[should_panic(expected = "another peer's arena")]
    fn a_handle_into_another_arena_panics_at_the_boundary() {
        let (mut peer, store, reach) = peer_with_a_store();
        let foreign = BddManager::new();
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        deliver(
            &mut peer,
            store,
            vec![Update::ins(reach, t, Prov::Bdd(foreign.var(1)))],
        );
    }
}
