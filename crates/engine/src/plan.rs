//! Distributed query plans: the operator DAG every peer instantiates.
//!
//! A [`Plan`] is SPMD: each physical peer runs an identical operator graph
//! over its horizontal partition (the paper's Fig. 4 shows the `reachable`
//! instance). Operators are wired by integer ids; routing operators
//! ([`OpSpec::Exchange`], [`OpSpec::MinShip`]) move updates to the peer that
//! owns the routing key, everything else hands off locally.

use std::collections::BTreeMap;

use netrec_types::{Catalog, RelId, RelKind, Schema};

use crate::expr::{AggFn, Expr, Pred};

/// Operator id within a plan (index into [`Plan::ops`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpId(pub u16);

/// A wired edge destination: operator + input slot (joins have two slots).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dest {
    /// Receiving operator.
    pub op: OpId,
    /// Input slot (0 except joins: 0 = build, 1 = probe).
    pub input: u8,
}

/// The destination of a routing operator [`PlanBuilder::connect`] has not
/// wired yet; [`PlanBuilder::build`] refuses a plan that still holds one.
const UNWIRED: Dest = Dest {
    op: OpId(u16::MAX),
    input: u8::MAX,
};

/// Join input slots.
pub const JOIN_BUILD: u8 = 0;
/// Probe slot of a join.
pub const JOIN_PROBE: u8 = 1;

/// Aggregate-selection specification (Algorithm 4's grouping key + aggregate
/// function list).
#[derive(Clone, Debug, PartialEq)]
pub struct AggSelSpec {
    /// Grouping key columns.
    pub group_cols: Vec<usize>,
    /// `(aggregated column, function)` pairs; only MIN/MAX prune.
    pub aggs: Vec<(usize, AggFn)>,
}

/// One operator in the plan.
#[derive(Clone, Debug)]
pub enum OpSpec {
    /// EDB ingress: allocates provenance variables, runs TTL expiry, and
    /// originates deletions.
    Ingress {
        /// The base relation.
        rel: RelId,
        /// Declared `static`: never deleted, so an absorption tuple carries
        /// `true` rather than a variable, and a delete or TTL is refused.
        is_static: bool,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
    /// Local projection/filter (e.g. `link(x,y,c) → path(x,y,[x,y],c,1)`).
    Map {
        /// Output column expressions over the input row.
        exprs: Vec<Expr>,
        /// Filters applied before projection.
        preds: Vec<Pred>,
        /// Synthetic output relation.
        out_rel: RelId,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
    /// Repartitioning ship: sends each update to the peer owning
    /// `tuple[route_col]` (`None` routes everything to peer 0 — global
    /// aggregates). A conventional Ship: no buffering.
    Exchange {
        /// Routing column.
        route_col: Option<usize>,
        /// Destination (on the owning peer).
        dest: Dest,
    },
    /// Pipelined symmetric hash join (Algorithm 2). Output rows are
    /// `build ++ probe`; `emit` projects them.
    Join {
        /// Join key columns on the build input.
        build_key: Vec<usize>,
        /// Join key columns on the probe input.
        probe_key: Vec<usize>,
        /// Post-join filters over the concatenated row.
        preds: Vec<Pred>,
        /// Output projection over the concatenated row.
        emit: Vec<Expr>,
        /// Synthetic output relation (also the relative-provenance node key).
        out_rel: RelId,
        /// Rule identifier recorded in relative provenance.
        rule_id: u32,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
    /// The provenance-buffering ship of §5 (Algorithm 3); policy comes from
    /// the run [`crate::Strategy`].
    MinShip {
        /// Routing column.
        route_col: Option<usize>,
        /// Destination (on the owning peer).
        dest: Dest,
    },
    /// Store / Fixpoint (Algorithm 1): the `P : tuple → provenance` table.
    /// If some `dests` edge reaches back into this operator's own derivation
    /// (through a join), the store is the plan's fixpoint.
    Store {
        /// Relation materialised by this store.
        rel: RelId,
        /// Marked for reporting as a user-facing view.
        is_view: bool,
        /// Optional embedded aggregate selection (Algorithm 1 lines 2–8).
        aggsel: Option<AggSelSpec>,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
    /// Standalone aggregate selection (Algorithm 4), placed ahead of
    /// MinShip/Exchange to prune before bytes hit the wire.
    AggSel {
        /// The pruning specification.
        spec: AggSelSpec,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
    /// Incremental group-by aggregation with deletion support (§6).
    Aggregate {
        /// Grouping columns.
        group_cols: Vec<usize>,
        /// Aggregate function.
        agg: AggFn,
        /// Aggregated column (ignored by COUNT).
        agg_col: usize,
        /// Output relation: `(group_cols…, aggregate value)`.
        out_rel: RelId,
        /// Downstream edges.
        dests: Vec<Dest>,
    },
}

impl OpSpec {
    /// Downstream edges of this operator.
    pub fn dests(&self) -> &[Dest] {
        match self {
            OpSpec::Ingress { dests, .. }
            | OpSpec::Map { dests, .. }
            | OpSpec::Join { dests, .. }
            | OpSpec::Store { dests, .. }
            | OpSpec::AggSel { dests, .. }
            | OpSpec::Aggregate { dests, .. } => dests,
            OpSpec::Exchange { dest, .. } | OpSpec::MinShip { dest, .. } => {
                std::slice::from_ref(dest)
            }
        }
    }

    fn dests_mut(&mut self) -> &mut Vec<Dest> {
        match self {
            OpSpec::Ingress { dests, .. }
            | OpSpec::Map { dests, .. }
            | OpSpec::Join { dests, .. }
            | OpSpec::Store { dests, .. }
            | OpSpec::AggSel { dests, .. }
            | OpSpec::Aggregate { dests, .. } => dests,
            OpSpec::Exchange { .. } | OpSpec::MinShip { .. } => {
                panic!("Exchange/MinShip have a fixed single destination")
            }
        }
    }

    /// Number of input slots.
    pub fn inputs(&self) -> u8 {
        match self {
            OpSpec::Join { .. } => 2,
            _ => 1,
        }
    }
}

/// Errors from [`Plan::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A destination references a missing operator.
    BadDest {
        /// Offending source op.
        from: u16,
        /// Missing target op.
        to: u16,
    },
    /// A destination references an input slot the operator lacks.
    BadInput {
        /// Target op.
        op: u16,
        /// Offending slot.
        input: u8,
    },
    /// Two ingress operators claim one relation.
    DuplicateIngress(RelId),
    /// A routing operator (Exchange/MinShip) was never connected.
    Unwired(OpId),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadDest { from, to } => write!(f, "op {from} targets missing op {to}"),
            PlanError::BadInput { op, input } => write!(f, "op {op} has no input slot {input}"),
            PlanError::DuplicateIngress(rel) => write!(f, "duplicate ingress for {rel:?}"),
            PlanError::Unwired(op) => write!(f, "routing op {} has no destination", op.0),
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated distributed query plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Relation catalog (base + derived + synthetic operator outputs).
    pub catalog: Catalog,
    /// Operators; `OpId` indexes this vector.
    pub ops: Vec<OpSpec>,
    /// Ingress operator of each base relation, in relation order: DRed's
    /// re-derive trigger walks it, and the order its messages enter the
    /// simulator must not change from one process to the next.
    pub ingress_of: BTreeMap<RelId, OpId>,
    /// View stores `(relation, store op)` for result collection.
    pub views: Vec<(RelId, OpId)>,
}

impl Plan {
    /// Port number for an operator input (4 slots reserved per op).
    pub fn port(op: OpId, input: u8) -> netrec_sim::Port {
        netrec_sim::Port(op.0 * 4 + u16::from(input))
    }

    /// Inverse of [`Plan::port`].
    pub fn port_target(port: netrec_sim::Port) -> (OpId, u8) {
        (OpId(port.0 / 4), (port.0 % 4) as u8)
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (i, op) in self.ops.iter().enumerate() {
            for d in op.dests() {
                let Some(target) = self.ops.get(d.op.0 as usize) else {
                    return Err(PlanError::BadDest {
                        from: i as u16,
                        to: d.op.0,
                    });
                };
                if d.input >= target.inputs() {
                    return Err(PlanError::BadInput {
                        op: d.op.0,
                        input: d.input,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether any store's output can reach one of its own inputs — i.e. the
    /// plan is recursive.
    pub fn is_recursive(&self) -> bool {
        self.ops.iter().enumerate().any(|(i, op)| {
            matches!(op, OpSpec::Store { .. }) && self.reaches(OpId(i as u16), OpId(i as u16))
        })
    }

    fn reaches(&self, from: OpId, target: OpId) -> bool {
        let mut seen = vec![false; self.ops.len()];
        let mut stack: Vec<OpId> = self.ops[from.0 as usize]
            .dests()
            .iter()
            .map(|d| d.op)
            .collect();
        while let Some(o) = stack.pop() {
            if o == target {
                return true;
            }
            if std::mem::replace(&mut seen[o.0 as usize], true) {
                continue;
            }
            stack.extend(self.ops[o.0 as usize].dests().iter().map(|d| d.op));
        }
        false
    }
}

/// Builder for [`Plan`]s: create operators, then [`PlanBuilder::connect`]
/// them (cycles — the recursive loop — are created by connecting a store
/// back into a join).
pub struct PlanBuilder {
    catalog: Catalog,
    ops: Vec<OpSpec>,
    ingress_of: BTreeMap<RelId, OpId>,
    views: Vec<(RelId, OpId)>,
    next_rule: u32,
}

impl Default for PlanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanBuilder {
    /// Empty builder.
    pub fn new() -> PlanBuilder {
        PlanBuilder {
            catalog: Catalog::new(),
            ops: Vec::new(),
            ingress_of: BTreeMap::new(),
            views: Vec::new(),
            next_rule: 0,
        }
    }

    /// Register a base relation (partitioned on `partition_col`).
    pub fn edb(&mut self, name: &str, columns: &[&str], partition_col: usize) -> RelId {
        self.catalog
            .add(Schema::new(name, columns, RelKind::Edb).partitioned_on(partition_col))
            .expect("unique edb name")
    }

    /// Register a derived relation.
    pub fn idb(&mut self, name: &str, columns: &[&str], partition_col: usize) -> RelId {
        self.catalog
            .add(Schema::new(name, columns, RelKind::Idb).partitioned_on(partition_col))
            .expect("unique idb name")
    }

    fn synthetic(&mut self, prefix: &str, arity: usize) -> RelId {
        let name = format!("__{prefix}{}", self.ops.len());
        let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        self.catalog
            .add(Schema::new(name, &col_refs, RelKind::Idb))
            .expect("unique synthetic")
    }

    fn push(&mut self, op: OpSpec) -> OpId {
        let id = OpId(self.ops.len() as u16);
        self.ops.push(op);
        id
    }

    /// Add the ingress for a base relation.
    pub fn ingress(&mut self, rel: RelId) -> OpId {
        self.add_ingress(rel, false)
    }

    /// Add the ingress for a base relation that is never deleted.
    pub fn static_ingress(&mut self, rel: RelId) -> OpId {
        self.add_ingress(rel, true)
    }

    fn add_ingress(&mut self, rel: RelId, is_static: bool) -> OpId {
        let id = self.push(OpSpec::Ingress {
            rel,
            is_static,
            dests: Vec::new(),
        });
        let prev = self.ingress_of.insert(rel, id);
        assert!(prev.is_none(), "duplicate ingress for relation");
        id
    }

    /// Add a Map (projection + filter).
    pub fn map(&mut self, exprs: Vec<Expr>, preds: Vec<Pred>) -> OpId {
        let out_rel = self.synthetic("map", exprs.len());
        self.push(OpSpec::Map {
            exprs,
            preds,
            out_rel,
            dests: Vec::new(),
        })
    }

    /// Add an Exchange routed by `route_col` (or to peer 0 when `None`);
    /// [`PlanBuilder::connect`] gives it its one destination.
    pub fn exchange(&mut self, route_col: Option<usize>) -> OpId {
        self.push(OpSpec::Exchange {
            route_col,
            dest: UNWIRED,
        })
    }

    /// Add a MinShip routed by `route_col`; [`PlanBuilder::connect`] gives it
    /// its one destination.
    pub fn minship(&mut self, route_col: Option<usize>) -> OpId {
        self.push(OpSpec::MinShip {
            route_col,
            dest: UNWIRED,
        })
    }

    /// Add a join; `emit` projects the concatenated `build ++ probe` row.
    pub fn join(
        &mut self,
        build_key: Vec<usize>,
        probe_key: Vec<usize>,
        preds: Vec<Pred>,
        emit: Vec<Expr>,
    ) -> OpId {
        assert_eq!(build_key.len(), probe_key.len(), "join key arity mismatch");
        let out_rel = self.synthetic("join", emit.len());
        let rule_id = self.next_rule;
        self.next_rule += 1;
        self.push(OpSpec::Join {
            build_key,
            probe_key,
            preds,
            emit,
            out_rel,
            rule_id,
            dests: Vec::new(),
        })
    }

    /// Add a store for `rel`; `is_view` marks it for result reporting.
    pub fn store(&mut self, rel: RelId, is_view: bool, aggsel: Option<AggSelSpec>) -> OpId {
        let id = self.push(OpSpec::Store {
            rel,
            is_view,
            aggsel,
            dests: Vec::new(),
        });
        if is_view {
            self.views.push((rel, id));
        }
        id
    }

    /// Add a standalone aggregate-selection stage.
    pub fn aggsel(&mut self, spec: AggSelSpec) -> OpId {
        self.push(OpSpec::AggSel {
            spec,
            dests: Vec::new(),
        })
    }

    /// Add an incremental group-by aggregate.
    pub fn aggregate(&mut self, group_cols: Vec<usize>, agg: AggFn, agg_col: usize) -> OpId {
        let out_rel = self.synthetic("agg", group_cols.len() + 1);
        self.push(OpSpec::Aggregate {
            group_cols,
            agg,
            agg_col,
            out_rel,
            dests: Vec::new(),
        })
    }

    /// Wire `from`'s output into `(to, input)`. A routing operator has
    /// exactly one destination: connecting it twice panics.
    pub fn connect(&mut self, from: OpId, to: OpId, input: u8) {
        let dest = Dest { op: to, input };
        match &mut self.ops[from.0 as usize] {
            OpSpec::Exchange { dest: d, .. } | OpSpec::MinShip { dest: d, .. } => {
                assert!(*d == UNWIRED, "routing op {} connected twice", from.0);
                *d = dest;
            }
            other => other.dests_mut().push(dest),
        }
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Plan, PlanError> {
        if let Some(i) = self.ops.iter().position(|op| op.dests() == [UNWIRED]) {
            return Err(PlanError::Unwired(OpId(i as u16)));
        }
        let plan = Plan {
            catalog: self.catalog,
            ops: self.ops,
            ingress_of: self.ingress_of,
            views: self.views,
        };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    /// Build the paper's Fig. 4 reachable plan.
    pub(crate) fn reachable_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst", "cost"], 0);
        let reach = b.idb("reachable", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let base_map = b.map(vec![Expr::col(0), Expr::col(1)], vec![]);
        let store = b.store(reach, true, None);
        let join = b.join(
            vec![1],
            vec![0],
            vec![],
            vec![Expr::col(0), Expr::col(4)], // link.src, reachable.dst (row = link ++ reach)
        );
        let ex = b.exchange(Some(1));
        let ship = b.minship(Some(0));
        b.connect(ing, base_map, 0);
        b.connect(base_map, store, 0);
        b.connect(ing, ex, 0);
        b.connect(ex, join, JOIN_BUILD);
        b.connect(join, ship, 0);
        b.connect(ship, store, 0);
        b.connect(store, join, JOIN_PROBE);
        b.build().expect("valid plan")
    }

    #[test]
    fn unconnected_routing_op_is_refused() {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        let v = b.idb("v", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let store = b.store(v, true, None);
        let ex = b.exchange(Some(1));
        let ship = b.minship(Some(0));
        b.connect(ing, ex, 0);
        b.connect(ex, store, 0);
        b.connect(ing, ship, 0);
        assert_eq!(b.build().unwrap_err(), PlanError::Unwired(ship));
    }

    #[test]
    #[should_panic(expected = "connected twice")]
    fn routing_op_connected_twice_panics() {
        let mut b = PlanBuilder::new();
        let v = b.idb("v", &["src", "dst"], 0);
        let store = b.store(v, true, None);
        let ex = b.exchange(None);
        b.connect(ex, store, 0);
        b.connect(ex, store, 0);
    }

    #[test]
    fn reachable_plan_builds_and_is_recursive() {
        let plan = reachable_plan();
        assert!(plan.is_recursive());
        assert_eq!(plan.views.len(), 1);
        let link = plan.catalog.id("link").unwrap();
        assert!(plan.ingress_of.contains_key(&link));
    }

    #[test]
    fn ports_round_trip() {
        for op in [OpId(0), OpId(3), OpId(100)] {
            for input in 0..4u8 {
                let p = Plan::port(op, input);
                assert_eq!(Plan::port_target(p), (op, input));
            }
        }
    }

    #[test]
    fn validate_rejects_bad_wiring() {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let store_rel = b.idb("v", &["a"], 0);
        let store = b.store(store_rel, true, None);
        b.connect(ing, store, 3); // store has one input slot
        let err = b.build().unwrap_err();
        assert!(matches!(err, PlanError::BadInput { input: 3, .. }));
    }

    #[test]
    fn non_recursive_plan_detected() {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        let v = b.idb("v", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let store = b.store(v, true, None);
        b.connect(ing, store, 0);
        let plan = b.build().unwrap();
        assert!(!plan.is_recursive());
    }

    #[test]
    #[should_panic(expected = "duplicate ingress")]
    fn duplicate_ingress_panics() {
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        b.ingress(link);
        b.ingress(link);
    }

    #[test]
    fn synthetic_rels_are_registered() {
        let plan = reachable_plan();
        // map + join outputs registered
        let synth: Vec<&str> = plan
            .catalog
            .rel_ids()
            .map(|r| plan.catalog.name(r))
            .filter(|n| n.starts_with("__"))
            .collect();
        assert!(synth.len() >= 2, "{synth:?}");
    }
}
