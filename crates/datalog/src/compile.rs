//! Semantic analysis + compilation to the oracle program and the
//! distributed plan.

use std::collections::HashMap;

use netrec_engine::expr::{AggFn, CmpOp, Expr, Pred};
use netrec_engine::plan::Plan;
use netrec_engine::reference::{AggClause, Atom, Program, Rule, Term};
use netrec_types::{Catalog, Value};

use crate::ast::{Aggregate, Arg, AstAtom, AstProgram, AstRule, BodyExpr, BodyLit, Cmp, Filter};

/// Compilation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A relation is used with two different arities.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// A head variable is neither bound by a body atom nor assigned.
    UnboundHeadVar {
        /// Rule head relation.
        relation: String,
        /// The unbound variable.
        var: String,
    },
    /// A variable in an expression is not bound by any body atom.
    UnboundVar(String),
    /// An aggregate head must have exactly one rule, whose body is one atom
    /// and whose head is variables from that atom plus exactly one aggregate.
    AggregateShape(String),
    /// An aggregate head named for aggregate selection is not a `min`/`max`
    /// over a recursive relation, or does not share the other named heads'
    /// relation and group.
    AggSelTarget(String),
    /// An aggregate argument appears in a non-head position.
    MisplacedAggregate(String),
    /// A name declared `static` is a derived relation, or no rule reads it.
    StaticTarget(String),
    /// The rule has no body atoms at all.
    EmptyBody(String),
    /// One atom marks two columns with `@`, or a relation's atoms mark two
    /// different columns.
    LocationMismatch {
        /// Relation name.
        relation: String,
        /// First located column seen.
        first: usize,
        /// Conflicting located column.
        second: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ArityMismatch {
                relation,
                first,
                second,
            } => {
                write!(
                    f,
                    "relation `{relation}` used with arities {first} and {second}"
                )
            }
            CompileError::UnboundHeadVar { relation, var } => {
                write!(f, "head variable `{var}` of `{relation}` is unbound")
            }
            CompileError::UnboundVar(v) => write!(f, "variable `{v}` is unbound"),
            CompileError::AggregateShape(r) => write!(
                f,
                "aggregate head `{r}` must have one rule, its body one atom and \
                 nothing else, its head variables of that atom and one aggregate"
            ),
            CompileError::AggSelTarget(r) => write!(
                f,
                "cannot prune by `{r}`: aggregate selection takes `min`/`max` heads \
                 over one recursive relation, all with the same group"
            ),
            CompileError::StaticTarget(r) => write!(
                f,
                "cannot declare `{r}` static: only a base relation some rule reads can be"
            ),
            CompileError::MisplacedAggregate(r) => {
                write!(f, "aggregate argument outside a head in rule for `{r}`")
            }
            CompileError::EmptyBody(r) => write!(f, "rule for `{r}` has no body atoms"),
            CompileError::LocationMismatch {
                relation,
                first,
                second,
            } => {
                write!(
                    f,
                    "relation `{relation}` located at columns {first} and {second}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Relation facts gathered during analysis.
#[derive(Clone, Debug)]
pub(crate) struct RelInfo {
    pub(crate) name: String,
    pub(crate) arity: usize,
    /// The column an atom of the relation marks with `@`, if any does.
    pub(crate) location: Option<usize>,
    pub(crate) is_edb: bool,
    /// Declared `static`: a base relation that is never deleted.
    pub(crate) is_static: bool,
    /// Defined by an aggregate rule (its only rule).
    pub(crate) aggregate: bool,
}

/// A compiled program: the distributed plan plus the matching oracle.
pub struct Compiled {
    plan: Plan,
    oracle: Program,
}

impl Compiled {
    /// The distributed plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Take ownership of the plan (to hand to a runner) and its oracle.
    pub fn into_parts(self) -> (Plan, Program) {
        (self.plan, self.oracle)
    }

    /// The oracle program (shares relation ids with the plan's catalog).
    pub fn oracle(&self) -> &Program {
        &self.oracle
    }
}

/// Analyse relation arities, locations and `static` declarations: base
/// relations first, then derived ones, each in order of first appearance.
pub(crate) fn analyse(ast: &AstProgram) -> Result<Vec<RelInfo>, CompileError> {
    let idb = ast.idb_relations();
    let mut rels: Vec<RelInfo> = Vec::new();
    for rule in &ast.rules {
        let defs = ast.rules.iter().filter(|r| r.head.name == rule.head.name);
        if rule.is_aggregate() && defs.count() > 1 {
            return Err(CompileError::AggregateShape(rule.head.name.clone()));
        }
        for atom in std::iter::once(&rule.head).chain(body_atoms(rule)) {
            let mismatch = |first, second| CompileError::LocationMismatch {
                relation: atom.name.clone(),
                first,
                second,
            };
            let mut located = atom.located_cols();
            let location = located.next();
            if let (Some(first), Some(second)) = (location, located.next()) {
                return Err(mismatch(first, second));
            }
            let Some(info) = rels.iter_mut().find(|r| r.name == atom.name) else {
                rels.push(RelInfo {
                    name: atom.name.clone(),
                    arity: atom.args.len(),
                    location,
                    is_edb: !idb.contains(&atom.name),
                    is_static: false,
                    aggregate: ast
                        .rules
                        .iter()
                        .any(|r| r.head.name == atom.name && r.is_aggregate()),
                });
                continue;
            };
            if info.arity != atom.args.len() {
                return Err(CompileError::ArityMismatch {
                    relation: atom.name.clone(),
                    first: info.arity,
                    second: atom.args.len(),
                });
            }
            match (info.location, location) {
                (Some(first), Some(second)) if first != second => {
                    return Err(mismatch(first, second))
                }
                (None, Some(_)) => info.location = location,
                _ => {}
            }
        }
    }
    for name in &ast.statics {
        match rels.iter_mut().find(|r| &r.name == name) {
            Some(info) if info.is_edb => info.is_static = true,
            _ => return Err(CompileError::StaticTarget(name.clone())),
        }
    }
    rels.sort_by_key(|r| !r.is_edb);
    Ok(rels)
}

/// The positive atoms of a rule's body, in source order.
pub(crate) fn body_atoms(rule: &AstRule) -> impl Iterator<Item = &AstAtom> {
    rule.body.iter().filter_map(|l| match l {
        BodyLit::Atom(a) => Some(a),
        _ => None,
    })
}

pub(crate) fn lower_expr(
    e: &BodyExpr,
    bind: &HashMap<String, usize>,
    assigns: &HashMap<String, Expr>,
) -> Result<Expr, CompileError> {
    Ok(match e {
        BodyExpr::Var(v) => {
            if let Some(col) = bind.get(v) {
                Expr::col(*col)
            } else if let Some(expr) = assigns.get(v) {
                expr.clone()
            } else {
                return Err(CompileError::UnboundVar(v.clone()));
            }
        }
        BodyExpr::Int(v) => Expr::int(*v),
        BodyExpr::Add(a, b) => Expr::Add(
            Box::new(lower_expr(a, bind, assigns)?),
            Box::new(lower_expr(b, bind, assigns)?),
        ),
        BodyExpr::List(items) => Expr::MakeList(
            items
                .iter()
                .map(|i| lower_expr(i, bind, assigns))
                .collect::<Result<_, _>>()?,
        ),
        BodyExpr::Cons(head, tail) => Expr::Prepend(
            Box::new(lower_expr(head, bind, assigns)?),
            Box::new(lower_expr(tail, bind, assigns)?),
        ),
    })
}

fn lower_filter(
    filter: &Filter,
    bind: &HashMap<String, usize>,
    assigns: &HashMap<String, Expr>,
) -> Result<Pred, CompileError> {
    let lower = |e| lower_expr(e, bind, assigns);
    Ok(match filter {
        Filter::Compare(a, op, b) => Pred::Cmp(lower(a)?, cmp_op(*op), lower(b)?),
        Filter::NotIn(elem, list) => Pred::NotInList(lower(elem)?, lower(list)?),
        Filter::Any(alternatives) => Pred::Any(
            alternatives
                .iter()
                .map(|alt| lower_filter(alt, bind, assigns))
                .collect::<Result<_, _>>()?,
        ),
    })
}

pub(crate) fn cmp_op(c: Cmp) -> CmpOp {
    match c {
        Cmp::Eq => CmpOp::Eq,
        Cmp::Ne => CmpOp::Ne,
        Cmp::Lt => CmpOp::Lt,
        Cmp::Le => CmpOp::Le,
        Cmp::Gt => CmpOp::Gt,
        Cmp::Ge => CmpOp::Ge,
    }
}

pub(crate) fn agg_fn(a: Aggregate) -> AggFn {
    match a {
        Aggregate::Min => AggFn::Min,
        Aggregate::Max => AggFn::Max,
        Aggregate::Count => AggFn::Count,
        Aggregate::Sum => AggFn::Sum,
    }
}

/// Lower a rule's filters and head over a row whose variables `bind` maps
/// to columns; assignments resolve in body order, and later ones may
/// reference earlier ones. Guards are lowered only for the oracle.
pub(crate) fn lower_rule(
    rule: &AstRule,
    bind: &HashMap<String, usize>,
    oracle: bool,
) -> Result<(Vec<Pred>, Vec<Expr>), CompileError> {
    let mut assigns: HashMap<String, Expr> = HashMap::new();
    let mut preds = Vec::new();
    for lit in &rule.body {
        match lit {
            BodyLit::Atom(_) => {}
            BodyLit::Assign(name, e) => {
                let lowered = lower_expr(e, bind, &assigns)?;
                assigns.insert(name.clone(), lowered);
            }
            BodyLit::Guard(_) if !oracle => {}
            BodyLit::Filter(filter) | BodyLit::Guard(filter) => {
                preds.push(lower_filter(filter, bind, &assigns)?)
            }
        }
    }
    let mut head_exprs = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        match arg {
            Arg::Var { name, .. } => {
                head_exprs.push(
                    lower_expr(&BodyExpr::Var(name.clone()), bind, &assigns).map_err(|_| {
                        CompileError::UnboundHeadVar {
                            relation: rule.head.name.clone(),
                            var: name.clone(),
                        }
                    })?,
                );
            }
            Arg::Int(v) => head_exprs.push(Expr::int(*v)),
            Arg::Str(s) => head_exprs.push(Expr::Const(Value::str(s))),
            Arg::Agg(..) => return Err(CompileError::MisplacedAggregate(rule.head.name.clone())),
        }
    }
    Ok((preds, head_exprs))
}

/// Compile a parsed program to `(plan, oracle)`.
pub fn compile(ast: &AstProgram) -> Result<Compiled, CompileError> {
    compile_with_aggsel(ast, &[])
}

/// Compile with aggregate selection (§6): the recursive relation that the
/// `min`/`max` heads named in `prune` all read is pruned by them, before
/// each MinShip into it and in its Store.
pub fn compile_with_aggsel(ast: &AstProgram, prune: &[&str]) -> Result<Compiled, CompileError> {
    let rels = analyse(ast)?;
    let plan = crate::planner::build_plan(ast, &rels, prune)?;
    let oracle = oracle(ast, &plan.catalog)?;
    Ok(Compiled { plan, oracle })
}

/// The oracle program, over the relation ids of the plan's `catalog`.
fn oracle(ast: &AstProgram, catalog: &Catalog) -> Result<Program, CompileError> {
    let id = |name: &str| catalog.id(name).expect("a planned relation");
    let mut rules = Vec::new();
    let mut aggs = Vec::new();
    for rule in &ast.rules {
        if rule.is_aggregate() {
            let (atom, group_cols, func, agg_col) = aggregate_shape(rule)?;
            aggs.push(AggClause {
                head: id(&rule.head.name),
                source: id(&atom.name),
                group_cols,
                agg: func,
                agg_col,
            });
            continue;
        }
        // Each column of the concatenated body row is an oracle variable; a
        // repeated variable reuses its first column's id, so atoms unify by
        // shared ids.
        let mut bind: HashMap<String, usize> = HashMap::new();
        let mut body = Vec::new();
        let mut col = 0usize;
        for atom in body_atoms(rule) {
            let mut terms = Vec::with_capacity(atom.args.len());
            for arg in &atom.args {
                let term = match arg {
                    Arg::Var { name, .. } => {
                        Term::Var(*bind.entry(name.clone()).or_insert(col) as u16)
                    }
                    Arg::Int(v) => Term::Const(Value::Int(*v)),
                    Arg::Str(s) => Term::Const(Value::str(s)),
                    Arg::Agg(..) => unreachable!("aggregates rejected in bodies"),
                };
                terms.push(term);
                col += 1;
            }
            body.push(Atom {
                rel: id(&atom.name),
                terms,
            });
        }
        let (preds, head_exprs) = lower_rule(rule, &bind, true)?;
        rules.push(Rule {
            head: id(&rule.head.name),
            head_exprs,
            body,
            preds,
            nvars: col as u16,
        });
    }
    Ok(Program { rules, aggs })
}

/// Validate + destructure an aggregate rule: one body atom, head args are
/// grouping variables from that atom plus exactly one aggregate.
pub(crate) fn aggregate_shape(
    rule: &AstRule,
) -> Result<(&AstAtom, Vec<usize>, AggFn, usize), CompileError> {
    let atoms: Vec<&AstAtom> = body_atoms(rule).collect();
    if atoms.len() != 1 || rule.body.len() != 1 {
        return Err(CompileError::AggregateShape(rule.head.name.clone()));
    }
    let atom = atoms[0];
    let pos_of = |v: &str| -> Result<usize, CompileError> {
        atom.args
            .iter()
            .position(|a| a.var_name() == Some(v))
            .ok_or_else(|| CompileError::UnboundVar(v.to_string()))
    };
    let mut group_cols = Vec::new();
    let mut aggs = Vec::new();
    for arg in &rule.head.args {
        match arg {
            Arg::Var { name, .. } => group_cols.push(pos_of(name)?),
            Arg::Agg(f, v) => aggs.push((agg_fn(*f), pos_of(v)?)),
            _ => return Err(CompileError::AggregateShape(rule.head.name.clone())),
        }
    }
    match aggs[..] {
        [(func, agg_col)] => Ok((atom, group_cols, func, agg_col)),
        _ => Err(CompileError::AggregateShape(rule.head.name.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use netrec_engine::plan::OpSpec;

    #[test]
    fn arity_mismatch_detected() {
        let ast = parse_program("r(X) :- s(X).\nr(X, Y) :- s(X), s(Y).").unwrap();
        assert!(matches!(
            compile(&ast),
            Err(CompileError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unbound_head_var_detected() {
        let ast = parse_program("r(X, Z) :- s(X).").unwrap();
        assert!(matches!(
            compile(&ast),
            Err(CompileError::UnboundHeadVar { .. })
        ));
    }

    #[test]
    fn aggregate_shape_enforced() {
        let shape = CompileError::AggregateShape("m".into());
        for src in [
            "m(X, min<C>) :- s(X, C), t(X).",  // a second body atom
            "m(X, min<C>) :- s(X, C), C > 0.", // a filter
            "m(X, min<C>) :- s(X, C).\nm(X, C) :- t(X, C).", // a second rule
            "m(1, min<C>) :- s(X, C).",        // a constant in the head
            "m(min<X>, max<C>) :- s(X, C).",   // two aggregates
        ] {
            let err = compile(&parse_program(src).unwrap()).err();
            assert_eq!(err.as_ref(), Some(&shape), "{src}");
        }
        // A head without an aggregate is no aggregate rule.
        let rule = &parse_program("m(X) :- s(X).").unwrap().rules[0];
        assert_eq!(aggregate_shape(rule).err().as_ref(), Some(&shape));
        let message = shape.to_string();
        for part in ["one rule", "one atom and nothing else", "one aggregate"] {
            assert!(message.contains(part), "{message}");
        }
    }

    /// The recursive rule of a path query: a disjunction the plan keeps,
    /// and a guard only the oracle applies.
    const GUARDED: &str = "path(@X, Y, P) :- link(@X, Y), P := [X, Y].\n\
        path(@X, Y, P) :- link(@X, Z), path(@Z, Y, P1), P := [X | P1], \
        (X != Y ; Y == Z), guard (X notin P1 ; X == Y).\n\
        hops(@X, Y, min<P>) :- path(@X, Y, P).";

    #[test]
    fn disjunctions_lower_to_any_and_guards_only_to_the_oracle() {
        let c = compile(&parse_program(GUARDED).unwrap()).unwrap();
        // Both rows are `link(X, Z) ++ path(Z, Y, P1)`: X, Y, P1 and Z are
        // columns 0, 3, 4 and 1.
        let col = Expr::col;
        let disjunction = Pred::Any(vec![
            Pred::Cmp(col(0), CmpOp::Ne, col(3)),
            Pred::Cmp(col(3), CmpOp::Eq, col(1)),
        ]);
        let guard = Pred::Any(vec![
            Pred::NotInList(col(0), col(4)),
            Pred::Cmp(col(0), CmpOp::Eq, col(3)),
        ]);
        assert_eq!(c.oracle().rules[1].preds, [disjunction.clone(), guard]);
        let plan_preds: Vec<&Pred> = c
            .plan()
            .ops
            .iter()
            .flat_map(|op| match op {
                OpSpec::Map { preds, .. } | OpSpec::Join { preds, .. } => &preds[..],
                _ => &[],
            })
            .collect();
        assert_eq!(plan_preds, [&disjunction]);
    }

    #[test]
    fn aggsel_targets_are_min_or_max_over_one_recursive_relation() {
        let ast = parse_program(GUARDED).unwrap();
        let plan = compile_with_aggsel(&ast, &["hops"]).unwrap().into_parts().0;
        let sels = plan
            .ops
            .iter()
            .filter(|op| matches!(op, OpSpec::AggSel { .. }));
        assert_eq!(sels.count(), 1);
        let rejected = |src: &str, prune: &[&str], head: &str| {
            let err = compile_with_aggsel(&parse_program(src).unwrap(), prune).err();
            assert_eq!(
                err,
                Some(CompileError::AggSelTarget(head.into())),
                "{prune:?}"
            );
        };
        let regions = "active(@S, R) :- seed(@S, R).\n\
            active(@Y, R) :- active(@X, R), near(@X, Y).\n\
            sizes(@R, count<S>) :- active(@S, R).\n\
            cheapest(@X, min<C>) :- link(@X, Y, C).";
        rejected(regions, &["sizes"], "sizes"); // not min/max
        rejected(regions, &["cheapest"], "cheapest"); // over a base relation
        rejected(regions, &["active"], "active"); // not an aggregate
        rejected(regions, &["nowhere"], "nowhere");
        let two_groups = format!("{GUARDED}\nfirst(@X, min<P>) :- path(@X, Y, P).");
        rejected(&two_groups, &["hops", "first"], "first");
    }

    #[test]
    fn compile_reachable() {
        let ast = parse_program(
            "reachable(@X, Y) :- link(@X, Y, C).\n\
             reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).",
        )
        .unwrap();
        let compiled = compile(&ast).unwrap();
        assert!(compiled.plan().is_recursive());
        let plan = compiled.plan();
        let view = plan.catalog.schema(plan.views[0].0);
        assert_eq!((plan.views.len(), view.name.as_str()), (1, "reachable"));
        assert_eq!(compiled.oracle().rules.len(), 2);
    }

    fn location_mismatch(src: &str, relation: &str) -> bool {
        let err = compile(&parse_program(src).unwrap()).err();
        err == Some(CompileError::LocationMismatch {
            relation: relation.into(),
            first: 0,
            second: 1,
        })
    }

    #[test]
    fn relocated_head_is_a_location_mismatch() {
        assert!(location_mismatch(
            "r(@X, Y) :- s(@X, Y).\nq(@Y, X) :- r(X, @Y).",
            "r"
        ));
    }

    #[test]
    fn two_locations_in_one_atom_are_a_location_mismatch() {
        assert!(location_mismatch("r(@X, @Y) :- s(@X, Y).", "r"));
    }

    #[test]
    fn relocated_base_relation_is_a_location_mismatch() {
        assert!(location_mismatch("r(@X, Y) :- s(@X, Y), s(X, @Y).", "s"));
        // An atom without `@` is compatible with any location.
        let c = compile(&parse_program("r(@X, Y) :- s(X, @Y), s(Y, X).").unwrap()).unwrap();
        let catalog = &c.plan().catalog;
        assert_eq!(catalog.schema(catalog.id("s").unwrap()).partition_col, 1);
    }

    #[test]
    fn static_declares_base_relations_only() {
        let src = "r(@X) :- s(@X), t(@X).";
        let c = compile(&parse_program(&format!("static s.\n{src}")).unwrap()).unwrap();
        let statics: Vec<bool> = c
            .plan()
            .ops
            .iter()
            .filter_map(|op| match op {
                OpSpec::Ingress { is_static, .. } => Some(*is_static),
                _ => None,
            })
            .collect();
        assert_eq!(statics, [true, false]);
        for (name, decl) in [("r", "static r."), ("u", "static s, u.")] {
            let err = compile(&parse_program(&format!("{decl}\n{src}")).unwrap()).err();
            assert_eq!(err, Some(CompileError::StaticTarget(name.into())), "{decl}");
        }
        let message = CompileError::StaticTarget("r".into()).to_string();
        assert!(message.contains("base relation"), "{message}");
    }

    #[test]
    fn compile_aggregates() {
        let ast = parse_program(
            "sizes(@G, count<X>) :- member(@G, X).\n\
             biggest(max<S>) :- sizes(@G, S).",
        )
        .unwrap();
        let compiled = compile(&ast).unwrap();
        assert_eq!(compiled.oracle().aggs.len(), 2);
        assert!(!compiled.plan().is_recursive());
    }
}
