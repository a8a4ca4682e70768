//! Abstract syntax for the NDlog-style dialect.

/// Aggregate functions allowed in rule heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// `min<V>`
    Min,
    /// `max<V>`
    Max,
    /// `count<V>`
    Count,
    /// `sum<V>`
    Sum,
}

/// A head/body atom argument.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Variable (uppercase identifier). `located` marks the `@` specifier.
    Var {
        /// Variable name.
        name: String,
        /// Whether this argument carried the `@` location specifier.
        located: bool,
    },
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Aggregate over a variable (heads only).
    Agg(Aggregate, String),
}

impl Arg {
    /// Plain variable.
    pub fn var(name: &str) -> Arg {
        Arg::Var {
            name: name.into(),
            located: false,
        }
    }

    /// The variable name if this is a variable argument.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            Arg::Var { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// A predicate atom `name(arg, …)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AstAtom {
    /// Relation name.
    pub name: String,
    /// Arguments in order.
    pub args: Vec<Arg>,
}

impl AstAtom {
    /// Indices of the `@`-located arguments; a valid program has at most
    /// one per atom.
    pub fn located_cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Arg::Var { located: true, .. }))
            .map(|(i, _)| i)
    }
}

/// Scalar expressions on the right of `:=` and in comparisons.
#[derive(Clone, Debug, PartialEq)]
pub enum BodyExpr {
    /// Variable reference.
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Addition.
    Add(Box<BodyExpr>, Box<BodyExpr>),
    /// List literal `[X, Y]`.
    List(Vec<BodyExpr>),
    /// Cons `[X | P]`.
    Cons(Box<BodyExpr>, Box<BodyExpr>),
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A body literal.
#[derive(Clone, Debug, PartialEq)]
pub enum BodyLit {
    /// Positive atom.
    Atom(AstAtom),
    /// Assignment `V := expr`.
    Assign(String, BodyExpr),
    /// A filter both the plan and the oracle apply.
    Filter(Filter),
    /// `guard F`: a filter only the oracle applies; the plan skips it.
    Guard(Filter),
}

/// A body filter.
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// Comparison `a op b`.
    Compare(BodyExpr, Cmp, BodyExpr),
    /// Membership filter `X notin P` (cycle avoidance).
    NotIn(BodyExpr, BodyExpr),
    /// Disjunction `(A ; B ; …)`: at least one alternative holds.
    Any(Vec<Filter>),
}

/// One rule `head :- body.`
#[derive(Clone, Debug, PartialEq)]
pub struct AstRule {
    /// Head atom (may contain aggregate arguments).
    pub head: AstAtom,
    /// Body literals in source order.
    pub body: Vec<BodyLit>,
}

impl AstRule {
    /// Whether the head contains an aggregate argument.
    pub fn is_aggregate(&self) -> bool {
        self.head.args.iter().any(|a| matches!(a, Arg::Agg(..)))
    }
}

/// A parsed program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AstProgram {
    /// Rules in source order.
    pub rules: Vec<AstRule>,
    /// Base relations declared `static`: never deleted, so their tuples
    /// carry no provenance variable.
    pub statics: Vec<String>,
}

impl AstProgram {
    /// Names of relations that never appear in a head (the EDB).
    pub fn edb_relations(&self) -> Vec<String> {
        let heads: std::collections::HashSet<&str> =
            self.rules.iter().map(|r| r.head.name.as_str()).collect();
        let mut out: Vec<String> = Vec::new();
        for rule in &self.rules {
            for lit in &rule.body {
                if let BodyLit::Atom(a) = lit {
                    if !heads.contains(a.name.as_str()) && !out.contains(&a.name) {
                        out.push(a.name.clone());
                    }
                }
            }
        }
        out
    }

    /// Names of derived relations, in first-definition order.
    pub fn idb_relations(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for rule in &self.rules {
            if !out.contains(&rule.head.name) {
                out.push(rule.head.name.clone());
            }
        }
        out
    }
}
