//! A peer applies a dead variable to its MinShip mirrors exactly once —
//! when it first learns of the death, in `MinShipOp::on_dead_vars` — and
//! never again per cause-delete update (DESIGN.md "Deletion propagation",
//! invariants I1–I3). Pinned on a deterministic work count, not a clock.

use std::sync::Arc;

use netrec_bdd::{BddManager, Var};
use netrec_engine::ops::OpState;
use netrec_engine::peer::EnginePeer;
use netrec_engine::plan::{OpId, OpSpec, Plan, JOIN_PROBE};
use netrec_engine::strategy::Strategy;
use netrec_engine::update::{Msg, Update};
use netrec_prov::Prov;
use netrec_sim::{
    ClusterSpec, DesConfig, NetApi, Partitioner, PeerId, PeerNode, Port, RunBudget, RunOutcome,
    Runtime, Simulator,
};
use netrec_testutil::fixtures::reachable_plan;
use netrec_topo::{link_tuples, random_graph};
use netrec_types::{FxHashSet, NetAddr, RelId, SimTime, Tuple, UpdateKind, Value};

/// The one MinShip of `plan` (the reachable plan has exactly one).
fn minship_op(plan: &Plan) -> OpId {
    let i = plan
        .ops
        .iter()
        .position(|op| matches!(op, OpSpec::MinShip { .. }))
        .expect("plan has a MinShip");
    OpId(i as u16)
}

fn minship(peer: &EnginePeer) -> &netrec_engine::ops::MinShipOp {
    peer.ops()
        .iter()
        .find_map(|op| match op {
            OpState::MinShip(m) => Some(m),
            _ => None,
        })
        .expect("peer hosts a MinShip")
}

/// An [`EnginePeer`] behind an independent bookkeeper: it replays the
/// peer's "is any cause variable of this message new to me?" decision from
/// the message stream alone and, whenever the answer is yes, records how
/// many mirror entries the MinShip holds at that moment — the work one
/// `on_dead_vars` pass is allowed to do.
struct Probe {
    peer: EnginePeer,
    minship_port: Port,
    dead: FxHashSet<Var>,
    /// Σ over fresh-variable messages of `|pins| + |sent|` just before.
    allowed_steps: u64,
    /// Messages that taught this peer a new dead variable.
    learned: u64,
    /// Cause-carrying deletes delivered to the MinShip's own input.
    cause_deletes: u64,
}

impl PeerNode<Msg> for Probe {
    fn on_message(&mut self, port: Port, msg: Msg, net: &mut NetApi<Msg>) {
        if let Msg::Updates(ups) = &msg {
            let mut fresh = false;
            for u in ups.iter().filter(|u| u.is_delete() && !u.cause.is_empty()) {
                if port == self.minship_port {
                    self.cause_deletes += 1;
                }
                for v in u.cause.iter() {
                    fresh |= self.dead.insert(*v);
                }
            }
            if fresh {
                let m = minship(&self.peer);
                self.allowed_steps += (m.pins_len() + m.sent_len()) as u64;
                self.learned += 1;
            }
        }
        self.peer.on_message(port, msg, net);
    }

    fn on_timer(&mut self, id: u64, net: &mut NetApi<Msg>) {
        self.peer.on_timer(id, net);
    }
}

/// Sparse reachability on 24 nodes over 3 peers: load, then five single
/// link deletions, each run to quiescence. On every peer the mirror
/// entries examined by table-wide restriction must equal what the
/// `on_dead_vars` passes account for — independent of how many
/// cause-delete updates flowed through the operator.
fn scan_steps_are_per_dead_variable(strategy: Strategy) {
    const PEERS: u32 = 3;
    let plan = Arc::new(reachable_plan());
    let partitioner = Partitioner::Hash { peers: PEERS };
    let minship_port = Plan::port(minship_op(&plan), 0);
    let probes: Vec<Probe> = (0..PEERS)
        .map(|p| Probe {
            peer: EnginePeer::new(PeerId(p), Arc::clone(&plan), strategy, partitioner),
            minship_port,
            dead: FxHashSet::default(),
            allowed_steps: 0,
            learned: 0,
            cause_deletes: 0,
        })
        .collect();
    let mut sim = Simulator::new(probes, ClusterSpec::single(PEERS), DesConfig::default());

    let link_rel = plan.catalog.id("link").expect("link relation");
    let ingress = Plan::port(plan.ingress_of[&link_rel], 0);
    let apply = |sim: &mut Simulator<Msg, Probe>, kind: UpdateKind, tuple: Tuple| {
        let owner = partitioner.place(tuple.get(0).as_addr().expect("src address"));
        let msg = Msg::Base {
            kind,
            tuple,
            ttl: None,
        };
        Runtime::inject(sim, owner, ingress, msg);
    };
    let converge = |sim: &mut Simulator<Msg, Probe>| {
        let outcome = sim.run(RunBudget::default());
        assert!(
            matches!(outcome, RunOutcome::Converged { .. }),
            "{outcome:?}"
        );
    };

    let topo = random_graph(24, 28, 7);
    let links = link_tuples(&topo);
    for t in &links {
        apply(&mut sim, UpdateKind::Insert, t.clone());
    }
    converge(&mut sim);
    for p in sim.peers() {
        assert_eq!(
            minship(&p.peer).mirror_scan_steps(),
            0,
            "inserts never scan"
        );
    }

    // Spanning-tree links come first in `links` (two directed tuples each):
    // deleting one direction of a tree link always cascades.
    for i in 0..5 {
        let before: u64 = sim.peers().iter().map(|p| p.learned).sum();
        apply(&mut sim, UpdateKind::Delete, links[2 * i].clone());
        converge(&mut sim);
        let after: u64 = sim.peers().iter().map(|p| p.learned).sum();
        assert!(after > before, "deletion {i} reached no peer");
    }

    let mut cause_deletes = 0;
    let mut learned = 0;
    for (p, probe) in sim.peers().iter().enumerate() {
        assert_eq!(
            minship(&probe.peer).mirror_scan_steps(),
            probe.allowed_steps,
            "peer {p}: mirrors were scanned outside on_dead_vars \
             ({} fresh-variable messages, {} cause-deletes through MinShip)",
            probe.learned,
            probe.cause_deletes,
        );
        assert!(probe.allowed_steps > 0, "peer {p} never restricted");
        cause_deletes += probe.cause_deletes;
        learned += probe.learned;
    }
    // The scenario separates the two rules: a per-update scan would have
    // run many times more often than the per-variable one.
    assert!(
        cause_deletes > 4 * learned,
        "{cause_deletes} cause-deletes vs {learned} fresh-variable messages"
    );
}

#[test]
fn scan_steps_are_per_dead_variable_absorption_lazy() {
    scan_steps_are_per_dead_variable(Strategy::absorption_lazy());
}

#[test]
fn scan_steps_are_per_dead_variable_relative_lazy() {
    scan_steps_are_per_dead_variable(Strategy::relative_lazy());
}

#[test]
fn scan_steps_are_per_dead_variable_absorption_eager() {
    scan_steps_are_per_dead_variable(Strategy::absorption_eager());
}

// ---------------------------------------------------------------------
// Peer-level ordering: the cause reaches the peer on another port first.
// ---------------------------------------------------------------------

fn reach(a: u32, b: u32) -> Tuple {
    Tuple::new(vec![Value::Addr(NetAddr(a)), Value::Addr(NetAddr(b))])
}

/// Render what one `on_message` call sent: one line per shipped update,
/// `peer/port KIND tuple cause=[..] supp=[..]`.
fn emissions(net: NetApi<Msg>) -> Vec<String> {
    let (sends, timers) = net.into_parts();
    assert!(timers.is_empty(), "lazy shipping arms no timer");
    let scratch = BddManager::new();
    let mut out = Vec::new();
    for (to, port, msg, _) in sends {
        let Msg::Updates(ups) = msg else {
            panic!("unexpected control message {msg:?}");
        };
        for u in ups.iter() {
            // Shipped to another peer, so in wire form: read it the way the
            // receiver would, in a manager of our own.
            let supp = match u.prov.reanchor(&scratch) {
                Prov::Bdd(b) => b.support(),
                other => panic!("absorption run shipped {other:?}"),
            };
            let kind = match u.kind {
                UpdateKind::Insert => "INS",
                UpdateKind::Delete => "DEL",
            };
            out.push(format!(
                "p{}/{} {kind} {:?} cause={:?} supp={supp:?}",
                to.0, port.0, u.tuple, u.cause
            ));
        }
    }
    out
}

/// Hand one message to `peer` and return what it sent.
fn deliver(peer: &mut EnginePeer, port: Port, ups: Vec<Update>) -> Vec<String> {
    let mut net = NetApi::fresh(SimTime(0), PeerId(0));
    peer.on_message(port, Msg::Updates(Arc::new(ups)), &mut net);
    emissions(net)
}

#[test]
fn cause_on_another_port_restricts_mirrors_before_the_stream_delivers_it() {
    const PEERS: u32 = 2;
    let plan = Arc::new(reachable_plan());
    let ship = minship_op(&plan);
    let ship_port = Plan::port(ship, 0);
    let join = plan
        .ops
        .iter()
        .position(|op| matches!(op, OpSpec::Join { .. }))
        .expect("plan has a join");
    let probe_port = Plan::port(OpId(join as u16), JOIN_PROBE);
    let mut peer = EnginePeer::new(
        PeerId(0),
        Arc::clone(&plan),
        Strategy::absorption_lazy(),
        Partitioner::Direct { peers: PEERS },
    );
    let mgr = peer.bdd_manager().clone();
    let x = |v: Var| mgr.var(v);
    let rel = RelId(7); // MinShip re-emits whatever tag its stream carries
    let a = reach(0, 5); // owned by peer 0
    let b = reach(1, 6); // owned by peer 1

    // Load the mirrors through the MinShip's own stream: `a` and `b` ship
    // (sent), a second derivation of `b` buffers (pins).
    let sent = deliver(
        &mut peer,
        ship_port,
        vec![
            Update::ins(rel, a.clone(), Prov::Bdd(x(1).or(&x(2)))),
            Update::ins(rel, b.clone(), Prov::Bdd(x(1))),
            Update::ins(rel, b.clone(), Prov::Bdd(x(1).or(&x(4)))),
        ],
    );
    assert_eq!(sent.len(), 2, "{sent:#?}");
    assert_eq!(
        (minship(&peer).sent_len(), minship(&peer).pins_len()),
        (2, 1)
    );

    // (1) Variable 1 dies; the news arrives on the join's *probe* input,
    // for a tuple the join has no partner for. The join emits nothing, yet
    // the MinShip has already restricted both mirrors (one pass: 3 entries),
    // forwarded the cause along its ledger and released `b`'s alternative.
    let dead: Arc<[Var]> = Arc::from(&[1][..]);
    let first = deliver(
        &mut peer,
        probe_port,
        vec![Update::del_cause(
            rel,
            reach(9, 9),
            Prov::Bdd(x(1)),
            Arc::clone(&dead),
        )],
    );
    assert_eq!(first, GOLDEN_FIRST);
    assert_eq!(minship(&peer).mirror_scan_steps(), 3);
    assert_eq!(
        (minship(&peer).sent_len(), minship(&peer).pins_len()),
        (2, 0)
    );
    // `a` survived in `sent` with a shrunk annotation, so it is already
    // dirty: a new derivation ships instead of buffering.
    let dirty = deliver(
        &mut peer,
        ship_port,
        vec![Update::ins(rel, a.clone(), Prov::Bdd(x(9)))],
    );
    assert_eq!(dirty, GOLDEN_DIRTY);
    assert_eq!(
        minship(&peer).pins_len(),
        0,
        "dirty `a` shipped, not pinned"
    );

    // (2) Only now does the same cause come down the MinShip's own stream.
    // Nothing is left to restrict — no scan — and the emissions are the
    // parent's, byte for byte.
    let second = deliver(
        &mut peer,
        ship_port,
        vec![
            Update::del_cause(rel, a.clone(), Prov::Bdd(x(1)), Arc::clone(&dead)),
            Update::del_cause(rel, b.clone(), Prov::Bdd(x(1)), Arc::clone(&dead)),
        ],
    );
    assert_eq!(second, GOLDEN_SECOND);
    assert_eq!(minship(&peer).mirror_scan_steps(), 3);

    // (3) Late insertions that still mention variable 1 are stripped at the
    // peer boundary before any mirror sees them: one dies outright, one
    // ships without the variable.
    let c = reach(0, 8);
    let third = deliver(
        &mut peer,
        ship_port,
        vec![
            Update::ins(rel, reach(0, 7), Prov::Bdd(x(1).and(&x(3)))),
            Update::ins(rel, c.clone(), Prov::Bdd(x(1).or(&x(8)))),
        ],
    );
    assert_eq!(third, GOLDEN_THIRD);
    assert_eq!(
        minship(&peer).sent_len(),
        3,
        "a, b, c — the dead insert never landed"
    );

    // A further delete for the same cause still finds clean mirrors (the
    // debug assertion in `on_updates` is live in this build).
    deliver(
        &mut peer,
        ship_port,
        vec![Update::del_cause(rel, c, Prov::Bdd(x(1)), dead)],
    );
    assert_eq!(minship(&peer).mirror_scan_steps(), 3);
}

/// Emissions captured from the parent commit (`6016cba`) with this same
/// script (port 8 is the view store's input).
const GOLDEN_FIRST: &[&str] = &[
    "p0/8 DEL (n0,n5) cause=[1] supp=[2]",
    "p1/8 DEL (n1,n6) cause=[1] supp=[1]",
    "p1/8 INS (n1,n6) cause=[] supp=[4]",
];
const GOLDEN_DIRTY: &[&str] = &["p0/8 INS (n0,n5) cause=[] supp=[9]"];
const GOLDEN_SECOND: &[&str] = &[
    "p0/8 DEL (n0,n5) cause=[1] supp=[1]",
    "p1/8 DEL (n1,n6) cause=[1] supp=[1]",
];
const GOLDEN_THIRD: &[&str] = &["p0/8 INS (n0,n8) cause=[] supp=[8]"];
