//! Lowering rules to the distributed operator graph in the shape of the
//! paper's Fig. 4 plan, by the six rules DESIGN.md "Planner" states:
//! placement, join order, projection, routing, aggregate heads, and
//! aggregate selection and guards.

use std::collections::{HashMap, HashSet};

use netrec_engine::expr::{AggFn, CmpOp, Expr, Pred};
use netrec_engine::plan::{AggSelSpec, OpId, Plan, PlanBuilder, JOIN_BUILD, JOIN_PROBE};
use netrec_types::Value;

use crate::ast::{Arg, AstAtom, AstProgram, AstRule, BodyExpr, BodyLit, Filter};
use crate::compile::{aggregate_shape, body_atoms, lower_rule, CompileError, RelInfo};

/// The peer a stream's tuples live on.
#[derive(Clone, Debug, PartialEq)]
enum Place {
    /// The owner of this variable's value.
    Var(String),
    /// Peer 0: a global aggregate's output.
    Peer0,
    /// Wherever its rules computed it: a derived relation without `@`.
    Anywhere,
}

impl Place {
    /// Where routing by `key` sends a stream (peer 0 when `None`).
    fn of(key: Option<&str>) -> Place {
        key.map_or(Place::Peer0, |k| Place::Var(k.to_string()))
    }
}

/// A stream as one rule sees it: the operator producing it, a name per
/// column (a rule variable, or `#n` for a column a filter pins) and where
/// it lives.
struct Stream {
    op: OpId,
    cols: Vec<String>,
    place: Place,
}

impl Stream {
    /// Wire into `(to, input)`, through an Exchange unless the stream
    /// already lives on the owner of `key`.
    fn wire_to(&self, b: &mut PlanBuilder, key: Option<&str>, to: OpId, input: u8) {
        let route = key.map(|k| col(&self.cols, k));
        wire(b, self.op, (to, input), self.place == Place::of(key), route);
    }
}

/// Wire `from` into `(to, input)`, through an Exchange on `route` unless
/// the stream `stays` where it is.
fn wire(b: &mut PlanBuilder, from: OpId, to: (OpId, u8), stays: bool, route: Option<usize>) {
    if stays {
        b.connect(from, to.0, to.1);
    } else {
        let ex = b.exchange(route);
        b.connect(from, ex, 0);
        b.connect(ex, to.0, to.1);
    }
}

fn col(cols: &[String], name: &str) -> usize {
    cols.iter().position(|c| c == name).expect("a named column")
}

/// Build the distributed plan, pruning by the aggregate heads in `prune`.
pub(crate) fn build_plan(
    ast: &AstProgram,
    rels: &[RelInfo],
    prune: &[&str],
) -> Result<Plan, CompileError> {
    let aggsel = aggsel(ast, prune)?;
    let mut b = PlanBuilder::new();
    let ids: Vec<_> = rels
        .iter()
        .map(|info| {
            let cols: Vec<String> = (0..info.arity).map(|i| format!("c{i}")).collect();
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let add = if info.is_edb {
                PlanBuilder::edb
            } else {
                PlanBuilder::idb
            };
            add(&mut b, &info.name, &cols, info.location.unwrap_or(0))
        })
        .collect();
    let mut p = Planner {
        ast,
        rels: HashMap::new(),
        sources: HashMap::new(),
        aggsel,
    };
    for (info, id) in rels.iter().zip(ids) {
        let name = info.name.as_str();
        p.rels.insert(name, info);
        let source = if info.is_static {
            b.static_ingress(id)
        } else if info.is_edb {
            b.ingress(id)
        } else if info.aggregate {
            let rule = ast.rules.iter().find(|r| r.head.name == name);
            let (_, group_cols, func, agg_col) = aggregate_shape(rule.expect("its rule"))?;
            let agg = b.aggregate(group_cols, func, agg_col);
            let store = b.store(id, true, None);
            // The Aggregate's output lives on its column 0, or on peer 0
            // when it has no group.
            let stays = info.location.is_none_or(|at| at == 0 && info.arity > 1);
            wire(&mut b, agg, (store, 0), stays, info.location);
            agg
        } else {
            b.store(id, true, p.aggsel_of(name))
        };
        p.sources.insert(name, source);
    }

    for rule in &ast.rules {
        if rule.is_aggregate() {
            let (atom, group_cols, ..) = aggregate_shape(rule)?;
            let input = p.stream(atom, &mut Vec::new());
            let key = group_cols.first().map(|&c| input.cols[c].as_str());
            input.wire_to(&mut b, key, p.sources[rule.head.name.as_str()], 0);
        } else {
            p.rule(&mut b, rule)?;
        }
    }
    Ok(b.build().expect("generated plan is structurally valid"))
}

struct Planner<'a> {
    ast: &'a AstProgram,
    rels: HashMap<&'a str, &'a RelInfo>,
    /// What a reader of each relation is wired to: its Ingress, its Store,
    /// or an aggregate head's Aggregate. A non-aggregate rule's head goes
    /// to its Store.
    sources: HashMap<&'a str, OpId>,
    /// The relation aggregate selection prunes, and how.
    aggsel: Option<(&'a str, AggSelSpec)>,
}

impl Planner<'_> {
    fn aggsel_of(&self, rel: &str) -> Option<AggSelSpec> {
        let (target, spec) = self.aggsel.as_ref()?;
        (*target == rel).then(|| spec.clone())
    }

    /// The stream an atom reads. A constant, or a repeat of a variable
    /// within the atom, gets a fresh `#n` column, pinned in the rule's
    /// `pins` to what the atom wrote there.
    fn stream(&self, atom: &AstAtom, pins: &mut Vec<(String, Arg)>) -> Stream {
        let mut cols: Vec<String> = Vec::with_capacity(atom.args.len());
        for arg in &atom.args {
            match arg.var_name() {
                Some(v) if !cols.iter().any(|c| c == v) => cols.push(v.to_string()),
                _ => {
                    cols.push(format!("#{}", pins.len()));
                    pins.push((format!("#{}", pins.len()), arg.clone()));
                }
            }
        }
        let info = self.rels[atom.name.as_str()];
        let at = |c: usize| {
            atom.args[c]
                .var_name()
                .map_or(Place::Anywhere, |v| Place::of(Some(v)))
        };
        let place = match info.location {
            _ if info.aggregate && info.arity == 1 => Place::Peer0,
            _ if info.aggregate => at(0),
            Some(c) => at(c),
            None if info.is_edb => at(0),
            None => Place::Anywhere,
        };
        let op = self.sources[atom.name.as_str()];
        Stream { op, cols, place }
    }

    /// Lower one non-aggregate rule: a Map or a chain of joins, then the
    /// route into the head's Store.
    fn rule(&self, b: &mut PlanBuilder, rule: &AstRule) -> Result<(), CompileError> {
        let mut atoms: Vec<&AstAtom> = body_atoms(rule).collect();
        if atoms.is_empty() {
            return Err(CompileError::EmptyBody(rule.head.name.clone()));
        }
        let recursive = atoms
            .iter()
            .position(|a| derives_from(self.ast, &a.name, &rule.head.name));
        let mut pins = Vec::new();
        let mut acc = self.stream(atoms.remove(recursive.unwrap_or(0)), &mut pins);
        let rest: Vec<Stream> = atoms.iter().map(|a| self.stream(a, &mut pins)).collect();

        // What the head and the filters read: every join keeps it.
        let mut needed: HashSet<&str> = rule.head.args.iter().filter_map(Arg::var_name).collect();
        for (col, arg) in &pins {
            needed.extend([Some(col.as_str()), arg.var_name()].into_iter().flatten());
        }
        for lit in &rule.body {
            match lit {
                BodyLit::Assign(_, e) => expr_vars(e, &mut needed),
                BodyLit::Filter(f) => filter_vars(f, &mut needed),
                BodyLit::Atom(_) | BodyLit::Guard(_) => {}
            }
        }

        if rest.is_empty() {
            let (exprs, preds) = finish(rule, &acc.cols, &pins)?;
            let map = b.map(exprs, preds);
            b.connect(acc.op, map, 0);
            acc.op = map;
        }
        for (i, atom) in rest.iter().enumerate() {
            let (build, probe) = match recursive {
                Some(_) => (atom, &acc),
                None => (&acc, atom),
            };
            let keys: Vec<&String> = atom.cols.iter().filter(|c| acc.cols.contains(c)).collect();
            let row: Vec<String> = build.cols.iter().chain(&probe.cols).cloned().collect();
            let (mut emit, mut preds, mut cols) = (Vec::new(), Vec::new(), Vec::new());
            if i + 1 == rest.len() {
                (emit, preds) = finish(rule, &row, &pins)?;
            } else {
                let later = |c: &String| rest[i + 1..].iter().any(|s| s.cols.contains(c));
                for (j, c) in row.iter().enumerate() {
                    if (needed.contains(c.as_str()) || later(c)) && !cols.contains(c) {
                        cols.push(c.clone());
                        emit.push(Expr::col(j));
                    }
                }
            }
            let build_key = keys.iter().map(|k| col(&build.cols, k)).collect();
            let probe_key = keys.iter().map(|k| col(&probe.cols, k)).collect();
            let join = b.join(build_key, probe_key, preds, emit);
            let key = keys.first().map(|k| k.as_str());
            build.wire_to(b, key, join, JOIN_BUILD);
            probe.wire_to(b, key, join, JOIN_PROBE);
            let place = Place::of(key);
            acc = Stream {
                op: join,
                cols,
                place,
            };
        }

        let store = self.sources[rule.head.name.as_str()];
        let at = self.rels[rule.head.name.as_str()].location;
        if recursive.is_some() {
            let ship = b.minship(Some(at.unwrap_or(0)));
            if let Some(spec) = self.aggsel_of(&rule.head.name) {
                let sel = b.aggsel(spec);
                b.connect(acc.op, sel, 0);
                acc.op = sel;
            }
            b.connect(acc.op, ship, 0);
            b.connect(ship, store, 0);
        } else {
            let head_at = |c: usize| rule.head.args[c].var_name();
            let stays =
                at.is_none_or(|c| head_at(c).is_some_and(|v| acc.place == Place::of(Some(v))));
            wire(b, acc.op, (store, 0), stays, at);
        }
        Ok(())
    }
}

/// A rule's last operator: its head over `row`, and its filters with the
/// pins first.
fn finish(
    rule: &AstRule,
    row: &[String],
    pins: &[(String, Arg)],
) -> Result<(Vec<Expr>, Vec<Pred>), CompileError> {
    let mut bind: HashMap<String, usize> = HashMap::new();
    for (i, c) in row.iter().enumerate().rev() {
        bind.insert(c.clone(), i);
    }
    let mut preds: Vec<Pred> = pins
        .iter()
        .map(|(c, arg)| {
            let value = match arg {
                Arg::Var { name, .. } => Expr::col(bind[name]),
                Arg::Int(v) => Expr::int(*v),
                Arg::Str(s) => Expr::Const(Value::str(s)),
                Arg::Agg(..) => unreachable!("aggregates rejected in bodies"),
            };
            Pred::Cmp(Expr::col(bind[c]), CmpOp::Eq, value)
        })
        .collect();
    let (user_preds, exprs) = lower_rule(rule, &bind, false)?;
    preds.extend(user_preds);
    Ok((exprs, preds))
}

/// The aggregate selection the heads in `prune` ask for: the one recursive
/// relation their `min`/`max` aggregates all read, grouped alike, and the
/// spec that prunes it by each of them in order.
fn aggsel<'a>(
    ast: &'a AstProgram,
    prune: &[&str],
) -> Result<Option<(&'a str, AggSelSpec)>, CompileError> {
    let mut out: Option<(&str, AggSelSpec)> = None;
    for &head in prune {
        let reject = || CompileError::AggSelTarget(head.to_string());
        let rule = ast.rules.iter().find(|r| r.head.name == head);
        let rule = rule.filter(|r| r.is_aggregate()).ok_or_else(reject)?;
        let (atom, group_cols, func, agg_col) = aggregate_shape(rule)?;
        let recursive = ast
            .rules
            .iter()
            .filter(|r| r.head.name == atom.name)
            .any(|r| body_atoms(r).any(|a| derives_from(ast, &a.name, &atom.name)));
        if !recursive || !matches!(func, AggFn::Min | AggFn::Max) {
            return Err(reject());
        }
        let (rel, spec) = out.get_or_insert_with(|| {
            let spec = AggSelSpec {
                group_cols: group_cols.clone(),
                aggs: Vec::new(),
            };
            (&atom.name, spec)
        });
        if *rel != atom.name || spec.group_cols != group_cols {
            return Err(reject());
        }
        spec.aggs.push((agg_col, func));
    }
    Ok(out)
}

/// Whether relation `from` is `to`, or is derived from it through rules.
fn derives_from(ast: &AstProgram, from: &str, to: &str) -> bool {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut stack = vec![from];
    while let Some(rel) = stack.pop() {
        if rel == to {
            return true;
        }
        if seen.insert(rel) {
            for rule in ast.rules.iter().filter(|r| r.head.name == rel) {
                stack.extend(body_atoms(rule).map(|a| a.name.as_str()));
            }
        }
    }
    false
}

fn filter_vars<'e>(filter: &'e Filter, out: &mut HashSet<&'e str>) {
    match filter {
        Filter::Compare(x, _, y) | Filter::NotIn(x, y) => {
            expr_vars(x, out);
            expr_vars(y, out);
        }
        Filter::Any(alternatives) => alternatives.iter().for_each(|a| filter_vars(a, out)),
    }
}

fn expr_vars<'e>(e: &'e BodyExpr, out: &mut HashSet<&'e str>) {
    match e {
        BodyExpr::Var(v) => {
            out.insert(v);
        }
        BodyExpr::Int(_) => {}
        BodyExpr::Add(x, y) | BodyExpr::Cons(x, y) => {
            expr_vars(x, out);
            expr_vars(y, out);
        }
        BodyExpr::List(items) => items.iter().for_each(|i| expr_vars(i, out)),
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile, parse_program};

    #[test]
    fn reachable_plan_has_expected_ops() {
        let ast = parse_program(
            "reachable(@X, Y) :- link(@X, Y, C).\n\
             reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).",
        )
        .unwrap();
        let c = compile(&ast).unwrap();
        let plan = c.plan();
        assert!(plan.is_recursive());
        // Fig. 4: ingress + store + rule 1's map + rule 2's join, the
        // exchange on its `link` input and its MinShip = 6 operators.
        assert_eq!(plan.ops.len(), 6);
    }

    #[test]
    fn region_cascade_compiles() {
        let ast = parse_program(
            "activeRegion(@S, Rid) :- mainSensorInRegion(@S, Rid), isTriggered(@S).\n\
             activeRegion(@Y, Rid) :- activeRegion(@X, Rid), isTriggered(@X), near(@X, Y).\n\
             regionSizes(@Rid, count<S>) :- activeRegion(@S, Rid).\n\
             largestRegion(max<Size>) :- regionSizes(@Rid, Size).\n\
             largestRegions(@Rid) :- regionSizes(@Rid, Size), largestRegion(Size).",
        )
        .unwrap();
        let c = compile(&ast).unwrap();
        assert!(c.plan().is_recursive());
        assert_eq!(c.plan().views.len(), 4);
        assert_eq!(c.oracle().aggs.len(), 2);
    }

    #[test]
    fn missing_ship_for_connect_panics_are_absent() {
        // Cross product: no shared variables — both sides route to peer 0.
        let ast = parse_program("pairs(@X, Y) :- left(@X), right(@Y).").unwrap();
        let c = compile(&ast).unwrap();
        assert!(!c.plan().is_recursive());
    }
}
