//! Semantic analysis + compilation to the oracle program and the
//! distributed plan.

use std::collections::HashMap;

use netrec_engine::expr::{AggFn, CmpOp, Expr, Pred};
use netrec_engine::plan::Plan;
use netrec_engine::reference::{AggClause, Atom, Program, Rule, Term};
use netrec_types::{Catalog, Value};

use crate::ast::{Aggregate, Arg, AstAtom, AstProgram, AstRule, BodyExpr, BodyLit, Cmp};

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
    /// Aggregate rules must have exactly one body atom and no other literals,
    /// and an aggregate head exactly one rule.
    AggregateShape(String),
    /// An aggregate argument appears in a non-head position.
    MisplacedAggregate(String),
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
            CompileError::AggregateShape(r) => {
                write!(
                    f,
                    "aggregate rule for `{r}` must have exactly one body atom"
                )
            }
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
    /// Defined by an aggregate rule (its only rule).
    pub(crate) aggregate: bool,
}

/// A compiled program: the distributed plan plus the matching oracle.
pub struct Compiled {
    plan: Plan,
    oracle: Program,
    views: Vec<String>,
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

    /// Names of the derived relations (all IDB relations are views).
    pub fn views(&self) -> &[String] {
        &self.views
    }
}

/// Analyse relation arities and locations: base relations first, then
/// derived ones, each in order of first appearance.
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

/// Lower a rule's filters (comparisons, `notin`) and head over a row whose
/// variables `bind` maps to columns; assignments resolve in body order, and
/// later ones may reference earlier ones.
pub(crate) fn lower_rule(
    rule: &AstRule,
    bind: &HashMap<String, usize>,
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
            BodyLit::Compare(a, op, b) => {
                preds.push(Pred::Cmp(
                    lower_expr(a, bind, &assigns)?,
                    cmp_op(*op),
                    lower_expr(b, bind, &assigns)?,
                ));
            }
            BodyLit::NotIn(elem, list) => {
                preds.push(Pred::NotInList(
                    lower_expr(elem, bind, &assigns)?,
                    lower_expr(list, bind, &assigns)?,
                ));
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
    let rels = analyse(ast)?;
    let plan = crate::planner::build_plan(ast, &rels)?;
    let oracle = oracle(ast, &plan.catalog)?;
    let views = ast.idb_relations();
    Ok(Compiled {
        plan,
        oracle,
        views,
    })
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
        let (preds, head_exprs) = lower_rule(rule, &bind)?;
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
    let mut agg = None;
    for arg in &rule.head.args {
        match arg {
            Arg::Var { name, .. } => group_cols.push(pos_of(name)?),
            Arg::Agg(f, v) => agg = Some((agg_fn(*f), pos_of(v)?)),
            _ => return Err(CompileError::AggregateShape(rule.head.name.clone())),
        }
    }
    let (func, agg_col) =
        agg.ok_or_else(|| CompileError::AggregateShape(rule.head.name.clone()))?;
    Ok((atom, group_cols, func, agg_col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

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
        let ast = parse_program("m(X, min<C>) :- s(X, C), t(X).").unwrap();
        assert!(matches!(
            compile(&ast),
            Err(CompileError::AggregateShape(_))
        ));
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
        assert_eq!(compiled.views(), &["reachable".to_string()]);
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
