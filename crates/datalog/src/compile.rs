//! Semantic analysis + compilation to the oracle program and the
//! distributed plan.

use std::collections::HashMap;

use netrec_engine::expr::{AggFn, CmpOp, Expr, Pred};
use netrec_engine::plan::Plan;
use netrec_engine::reference::{AggClause, Atom, Program, Rule, Term};
use netrec_types::{Catalog, RelId, Value};

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
    /// Aggregate rules must have exactly one body atom and no other literals.
    AggregateShape(String),
    /// An aggregate argument appears in a non-head position.
    MisplacedAggregate(String),
    /// The rule has no body atoms at all.
    EmptyBody(String),
    /// A relation the rules use is not in the catalog they compile against.
    UnknownRelation(String),
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
            CompileError::UnknownRelation(r) => write!(f, "relation `{r}` is not in the catalog"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Relation facts gathered during analysis.
#[derive(Clone, Debug)]
pub(crate) struct RelInfo {
    pub(crate) name: String,
    pub(crate) arity: usize,
    pub(crate) partition_col: usize,
    pub(crate) is_edb: bool,
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

    /// Take ownership of the plan (to hand to a runner).
    pub fn into_plan(self) -> Plan {
        self.plan
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

/// Analyse relation arities/partitioning.
pub(crate) fn analyse(ast: &AstProgram) -> Result<Vec<RelInfo>, CompileError> {
    let idb = ast.idb_relations();
    let mut rels: Vec<RelInfo> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut note = |atom: &AstAtom, rels: &mut Vec<RelInfo>| {
        match seen.get(&atom.name) {
            Some(&idx) => {
                let info: &RelInfo = &rels[idx];
                if info.arity != atom.args.len() {
                    return Err(CompileError::ArityMismatch {
                        relation: atom.name.clone(),
                        first: info.arity,
                        second: atom.args.len(),
                    });
                }
            }
            None => {
                seen.insert(atom.name.clone(), rels.len());
                rels.push(RelInfo {
                    name: atom.name.clone(),
                    arity: atom.args.len(),
                    partition_col: atom.location_col(),
                    is_edb: !idb.contains(&atom.name),
                });
            }
        }
        Ok(())
    };
    for rule in &ast.rules {
        note(&rule.head, &mut rels)?;
        for lit in &rule.body {
            if let BodyLit::Atom(a) = lit {
                note(a, &mut rels)?;
            }
        }
    }
    Ok(rels)
}

/// Bindings from one rule body: variable → column in the concatenated row.
pub(crate) struct RuleBindings {
    pub(crate) var_col: HashMap<String, usize>,
    /// Equality filters from repeated variables / constants inside atoms.
    pub(crate) eq_preds: Vec<Pred>,
}

pub(crate) fn bind_body(atoms: &[&AstAtom]) -> RuleBindings {
    let mut var_col = HashMap::new();
    let mut eq_preds = Vec::new();
    let mut col = 0usize;
    for atom in atoms {
        for arg in &atom.args {
            match arg {
                Arg::Var { name, .. } => {
                    if let Some(&prev) = var_col.get(name) {
                        if prev != col {
                            eq_preds.push(Pred::Cmp(Expr::col(prev), CmpOp::Eq, Expr::col(col)));
                        }
                    } else {
                        var_col.insert(name.clone(), col);
                    }
                }
                Arg::Int(v) => {
                    eq_preds.push(Pred::Cmp(
                        Expr::col(col),
                        CmpOp::Eq,
                        Expr::Const(Value::Int(*v)),
                    ));
                }
                Arg::Str(s) => {
                    eq_preds.push(Pred::Cmp(
                        Expr::col(col),
                        CmpOp::Eq,
                        Expr::Const(Value::str(s)),
                    ));
                }
                Arg::Agg(..) => {}
            }
            col += 1;
        }
    }
    RuleBindings { var_col, eq_preds }
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

/// Lower a rule body into: atoms, lowered preds, and head exprs.
pub(crate) struct LoweredRule<'a> {
    pub(crate) atoms: Vec<&'a AstAtom>,
    /// User-written filters (comparisons, notin) over row columns.
    pub(crate) user_preds: Vec<Pred>,
    /// Positional equality filters induced by repeated variables and
    /// constant arguments — needed by the row-oriented planner, redundant
    /// (and wrong) for the oracle whose atoms unify by shared variable ids.
    pub(crate) eq_preds: Vec<Pred>,
    pub(crate) head_exprs: Vec<Expr>,
    pub(crate) bindings: RuleBindings,
}

impl LoweredRule<'_> {
    /// All predicates, for the row-oriented planner.
    pub(crate) fn all_preds(&self) -> Vec<Pred> {
        let mut v = self.eq_preds.clone();
        v.extend(self.user_preds.iter().cloned());
        v
    }
}

pub(crate) fn lower_rule(rule: &AstRule) -> Result<LoweredRule<'_>, CompileError> {
    let atoms: Vec<&AstAtom> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            BodyLit::Atom(a) => Some(a),
            _ => None,
        })
        .collect();
    if atoms.is_empty() {
        return Err(CompileError::EmptyBody(rule.head.name.clone()));
    }
    let bindings = bind_body(&atoms);
    // Assignments resolve in body order; later assignments may reference
    // earlier ones.
    let mut assigns: HashMap<String, Expr> = HashMap::new();
    let mut preds = Vec::new();
    for lit in &rule.body {
        match lit {
            BodyLit::Atom(_) => {}
            BodyLit::Assign(name, e) => {
                let lowered = lower_expr(e, &bindings.var_col, &assigns)?;
                assigns.insert(name.clone(), lowered);
            }
            BodyLit::Compare(a, op, b) => {
                preds.push(Pred::Cmp(
                    lower_expr(a, &bindings.var_col, &assigns)?,
                    cmp_op(*op),
                    lower_expr(b, &bindings.var_col, &assigns)?,
                ));
            }
            BodyLit::NotIn(elem, list) => {
                preds.push(Pred::NotInList(
                    lower_expr(elem, &bindings.var_col, &assigns)?,
                    lower_expr(list, &bindings.var_col, &assigns)?,
                ));
            }
        }
    }
    let mut head_exprs = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        match arg {
            Arg::Var { name, .. } => {
                head_exprs.push(
                    lower_expr(&BodyExpr::Var(name.clone()), &bindings.var_col, &assigns).map_err(
                        |_| CompileError::UnboundHeadVar {
                            relation: rule.head.name.clone(),
                            var: name.clone(),
                        },
                    )?,
                );
            }
            Arg::Int(v) => head_exprs.push(Expr::int(*v)),
            Arg::Str(s) => head_exprs.push(Expr::Const(Value::str(s))),
            Arg::Agg(..) => return Err(CompileError::MisplacedAggregate(rule.head.name.clone())),
        }
    }
    let eq_preds = bindings.eq_preds.clone();
    Ok(LoweredRule {
        atoms,
        user_preds: preds,
        eq_preds,
        head_exprs,
        bindings,
    })
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

/// Compile only the oracle program, keyed by the relation ids of an
/// existing `catalog` — the reference for a plan built some other way (by
/// hand). Every relation the rules use must be in the catalog with the
/// arity the rules give it.
pub fn oracle(ast: &AstProgram, catalog: &Catalog) -> Result<Program, CompileError> {
    let mut rel_ids: HashMap<String, RelId> = HashMap::new();
    for info in analyse(ast)? {
        let id = catalog
            .id(&info.name)
            .ok_or_else(|| CompileError::UnknownRelation(info.name.clone()))?;
        let arity = catalog.schema(id).arity();
        if arity != info.arity {
            return Err(CompileError::ArityMismatch {
                relation: info.name,
                first: arity,
                second: info.arity,
            });
        }
        rel_ids.insert(info.name, id);
    }
    let mut rules = Vec::new();
    let mut aggs = Vec::new();
    for rule in &ast.rules {
        if rule.is_aggregate() {
            let (atom, group_cols, func, agg_col) = aggregate_shape(rule)?;
            aggs.push(AggClause {
                head: rel_ids[&rule.head.name],
                source: rel_ids[&atom.name],
                group_cols,
                agg: func,
                agg_col,
            });
            continue;
        }
        let lowered = lower_rule(rule)?;
        // Body atoms as reference Atoms over fresh variable ids: each row
        // column becomes its own oracle variable; equality of repeated
        // variables is enforced by reusing ids.
        let mut body = Vec::new();
        let mut col = 0usize;
        for atom in &lowered.atoms {
            let mut terms = Vec::with_capacity(atom.args.len());
            for arg in &atom.args {
                let term = match arg {
                    Arg::Var { name, .. } => Term::Var(lowered.bindings.var_col[name] as u16),
                    Arg::Int(v) => Term::Const(Value::Int(*v)),
                    Arg::Str(s) => Term::Const(Value::str(s)),
                    Arg::Agg(..) => unreachable!("aggregates rejected in bodies"),
                };
                terms.push(term);
                col += 1;
            }
            body.push(Atom {
                rel: rel_ids[&atom.name],
                terms,
            });
        }
        rules.push(Rule {
            head: rel_ids[&rule.head.name],
            head_exprs: lowered.head_exprs,
            body,
            preds: lowered.user_preds.clone(),
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
    let atoms: Vec<&AstAtom> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            BodyLit::Atom(a) => Some(a),
            _ => None,
        })
        .collect();
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

    #[test]
    fn oracle_checks_rules_against_the_catalog() {
        let rules = "reachable(@X, Y) :- link(@X, Y, C).";
        let mut catalog = Catalog::new();
        let edb =
            |name, cols: &[&str]| netrec_types::Schema::new(name, cols, netrec_types::RelKind::Edb);
        catalog.add(edb("reachable", &["src", "dst"])).unwrap();
        let ast = parse_program(rules).unwrap();
        assert_eq!(
            oracle(&ast, &catalog).unwrap_err(),
            CompileError::UnknownRelation("link".into())
        );
        catalog.add(edb("link", &["src", "dst"])).unwrap();
        assert_eq!(
            oracle(&ast, &catalog).unwrap_err(),
            CompileError::ArityMismatch {
                relation: "link".into(),
                first: 2,
                second: 3,
            }
        );
        // Ids are the catalog's, whatever order it registered them in.
        let mut catalog = Catalog::new();
        let link = catalog.add(edb("link", &["src", "dst", "cost"])).unwrap();
        let reachable = catalog.add(edb("reachable", &["src", "dst"])).unwrap();
        let rule = &oracle(&ast, &catalog).unwrap().rules[0];
        assert_eq!((rule.head, rule.body[0].rel), (reachable, link));
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
