//! Recursive-descent parser.

use crate::ast::{Aggregate, Arg, AstAtom, AstProgram, AstRule, BodyExpr, BodyLit, Cmp, Filter};
use crate::lexer::{lex, LexError, Tok};

/// Parse error.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// Unexpected token (with a human-readable expectation).
    Unexpected {
        /// What the parser found (`"end of input"` when exhausted).
        found: String,
        /// What it wanted.
        expected: &'static str,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: unexpected `{}` at byte {}", e.ch, e.at),
            ParseError::Unexpected { found, expected } => {
                write!(f, "parse error: found {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, expected: &'static str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == *want => Ok(()),
            other => Err(unexpected(other, expected)),
        }
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

fn unexpected(found: Option<Tok>, expected: &'static str) -> ParseError {
    ParseError::Unexpected {
        found: found.map_or_else(|| "end of input".to_string(), |t| format!("{t:?}")),
        expected,
    }
}

/// Parse a whole program: a sequence of rules and `static` declarations,
/// each terminated by `.`.
pub fn parse_program(src: &str) -> Result<AstProgram, ParseError> {
    let toks = lex(src).map_err(ParseError::Lex)?;
    let mut p = Parser { toks, pos: 0 };
    let mut prog = AstProgram::default();
    while p.peek().is_some() {
        // `static` before a name declares; before `(` it names a relation.
        match (p.peek(), p.toks.get(p.pos + 1)) {
            (Some(Tok::Ident(kw)), Some(Tok::Ident(_))) if kw == "static" => {
                p.pos += 1;
                parse_static(&mut p, &mut prog.statics)?;
            }
            _ => prog.rules.push(parse_rule(&mut p)?),
        }
    }
    Ok(prog)
}

/// The names of `static a, b.` after its keyword.
fn parse_static(p: &mut Parser, out: &mut Vec<String>) -> Result<(), ParseError> {
    loop {
        match p.next() {
            Some(Tok::Ident(name)) => out.push(name),
            other => return Err(unexpected(other, "relation name")),
        }
        if p.eat(&Tok::Comma) {
            continue;
        }
        return p.expect(&Tok::Dot, "`,` or `.`");
    }
}

fn parse_rule(p: &mut Parser) -> Result<AstRule, ParseError> {
    let head = parse_atom(p, true)?;
    p.expect(&Tok::Turnstile, "`:-`")?;
    let mut body = Vec::new();
    loop {
        body.push(parse_body_lit(p)?);
        if p.eat(&Tok::Comma) {
            continue;
        }
        p.expect(&Tok::Dot, "`,` or `.`")?;
        break;
    }
    Ok(AstRule { head, body })
}

fn parse_atom(p: &mut Parser, allow_agg: bool) -> Result<AstAtom, ParseError> {
    let name = match p.next() {
        Some(Tok::Ident(n)) => n,
        other => return Err(unexpected(other, "relation name")),
    };
    p.expect(&Tok::LParen, "`(`")?;
    let mut args = Vec::new();
    if !p.eat(&Tok::RParen) {
        loop {
            args.push(parse_arg(p, allow_agg)?);
            if p.eat(&Tok::Comma) {
                continue;
            }
            p.expect(&Tok::RParen, "`,` or `)`")?;
            break;
        }
    }
    Ok(AstAtom { name, args })
}

fn parse_arg(p: &mut Parser, allow_agg: bool) -> Result<Arg, ParseError> {
    let located = p.eat(&Tok::At);
    match p.next() {
        Some(Tok::Var(name)) => Ok(Arg::Var { name, located }),
        Some(Tok::Int(v)) => Ok(Arg::Int(v)),
        Some(Tok::Str(s)) => Ok(Arg::Str(s)),
        Some(Tok::Ident(agg)) if allow_agg => {
            let Some(func) = aggregate(&agg) else {
                return Err(unexpected(Some(Tok::Ident(agg)), "aggregate function"));
            };
            p.expect(&Tok::Lt, "`<`")?;
            let var = match p.next() {
                Some(Tok::Var(v)) => v,
                other => return Err(unexpected(other, "aggregated variable")),
            };
            p.expect(&Tok::Gt, "`>`")?;
            Ok(Arg::Agg(func, var))
        }
        other => Err(unexpected(other, "argument")),
    }
}

/// The aggregate a name denotes. A body atom may not take one of these
/// names: aggregates belong in heads.
fn aggregate(name: &str) -> Option<Aggregate> {
    match name {
        "min" => Some(Aggregate::Min),
        "max" => Some(Aggregate::Max),
        "count" => Some(Aggregate::Count),
        "sum" => Some(Aggregate::Sum),
        _ => None,
    }
}

fn parse_body_lit(p: &mut Parser) -> Result<BodyLit, ParseError> {
    // Lookahead: `guard` → oracle-only filter; Ident `(` → atom; Var `:=` →
    // assignment; otherwise a filter.
    match (p.peek().cloned(), p.toks.get(p.pos + 1).cloned()) {
        (Some(Tok::Ident(kw)), _) if kw == "guard" => {
            p.pos += 1;
            parse_filter(p).map(BodyLit::Guard)
        }
        (Some(Tok::Ident(name)), Some(Tok::LParen)) if aggregate(&name).is_none() => {
            parse_atom(p, false).map(BodyLit::Atom)
        }
        (Some(Tok::Var(v)), Some(Tok::Assign)) => {
            p.pos += 2;
            let e = parse_expr(p)?;
            Ok(BodyLit::Assign(v, e))
        }
        _ => parse_filter(p).map(BodyLit::Filter),
    }
}

/// A filter: `(F ; F ; …)`, `X notin P`, or a comparison.
fn parse_filter(p: &mut Parser) -> Result<Filter, ParseError> {
    if p.eat(&Tok::LParen) {
        let mut alternatives = vec![parse_filter(p)?];
        while p.eat(&Tok::Semi) {
            alternatives.push(parse_filter(p)?);
        }
        p.expect(&Tok::RParen, "`;` or `)`")?;
        return Ok(Filter::Any(alternatives));
    }
    match (p.peek().cloned(), p.toks.get(p.pos + 1).cloned()) {
        (Some(Tok::Var(v)), Some(Tok::Ident(kw))) if kw == "notin" => {
            p.pos += 2;
            let list = parse_expr(p)?;
            Ok(Filter::NotIn(BodyExpr::Var(v), list))
        }
        _ => {
            let lhs = parse_expr(p)?;
            let op = match p.next() {
                Some(Tok::Lt) => Cmp::Lt,
                Some(Tok::Le) => Cmp::Le,
                Some(Tok::Gt) => Cmp::Gt,
                Some(Tok::Ge) => Cmp::Ge,
                Some(Tok::EqEq) => Cmp::Eq,
                Some(Tok::Ne) => Cmp::Ne,
                other => return Err(unexpected(other, "comparison operator")),
            };
            let rhs = parse_expr(p)?;
            Ok(Filter::Compare(lhs, op, rhs))
        }
    }
}

fn parse_expr(p: &mut Parser) -> Result<BodyExpr, ParseError> {
    let first = parse_term(p)?;
    if p.eat(&Tok::Plus) {
        let rest = parse_expr(p)?;
        return Ok(BodyExpr::Add(Box::new(first), Box::new(rest)));
    }
    Ok(first)
}

fn parse_term(p: &mut Parser) -> Result<BodyExpr, ParseError> {
    match p.next() {
        Some(Tok::Var(v)) => Ok(BodyExpr::Var(v)),
        Some(Tok::Int(v)) => Ok(BodyExpr::Int(v)),
        Some(Tok::LBracket) => {
            // `[X | P]` cons or `[X, Y, …]` literal (possibly empty).
            if p.eat(&Tok::RBracket) {
                return Ok(BodyExpr::List(vec![]));
            }
            let first = parse_expr(p)?;
            if p.eat(&Tok::Pipe) {
                let tail = parse_expr(p)?;
                p.expect(&Tok::RBracket, "`]`")?;
                return Ok(BodyExpr::Cons(Box::new(first), Box::new(tail)));
            }
            let mut items = vec![first];
            while p.eat(&Tok::Comma) {
                items.push(parse_expr(p)?);
            }
            p.expect(&Tok::RBracket, "`]`")?;
            Ok(BodyExpr::List(items))
        }
        other => Err(unexpected(other, "expression")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reachable() {
        let prog = parse_program(
            "reachable(@X, Y) :- link(@X, Y, C).\n\
             reachable(@X, Y) :- link(@X, Z, C), reachable(@Z, Y).",
        )
        .unwrap();
        assert_eq!(prog.rules.len(), 2);
        assert_eq!(prog.rules[0].head.name, "reachable");
        assert!(prog.rules[0].head.located_cols().eq([0]));
        assert_eq!(prog.edb_relations(), vec!["link".to_string()]);
        assert_eq!(prog.idb_relations(), vec!["reachable".to_string()]);
    }

    #[test]
    fn parses_shortest_path_features() {
        let prog = parse_program(
            "path(@X, Y, P, C, L) :- link(@X, Y, C), P := [X, Y], L := 1.\n\
             path(@X, Y, P, C, L) :- link(@X, Z, C0), path(@Z, Y, P1, C1, L1), \
             C := C0 + C1, P := [X | P1], L := 1 + L1, X notin P1.\n\
             minCost(@X, Y, min<C>) :- path(@X, Y, P, C, L).",
        )
        .unwrap();
        assert_eq!(prog.rules.len(), 3);
        assert!(prog.rules[2].is_aggregate());
        let assigns = prog.rules[1]
            .body
            .iter()
            .filter(|l| matches!(l, BodyLit::Assign(..)))
            .count();
        assert_eq!(assigns, 3);
        assert!(prog.rules[1]
            .body
            .iter()
            .any(|l| matches!(l, BodyLit::Filter(Filter::NotIn(..)))));
    }

    #[test]
    fn parses_comparisons_and_constants() {
        let prog = parse_program(r#"hot(@S) :- reading(@S, V, "temp"), V > 90, S != 0."#).unwrap();
        let cmps = prog.rules[0]
            .body
            .iter()
            .filter(|l| matches!(l, BodyLit::Filter(Filter::Compare(..))))
            .count();
        assert_eq!(cmps, 2);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_program("reachable(X, Y)").is_err()); // missing :- body
        assert!(parse_program("r(X) :- s(X)").is_err()); // missing final dot
        for agg in ["min", "max", "count", "sum"] {
            // An aggregate is a head argument, never a body atom.
            assert!(
                parse_program(&format!("r(X) :- {agg}(X).")).is_err(),
                "{agg}"
            );
        }
        assert!(parse_program("r(bogus<X>) :- s(X).").is_err());
        for decl in ["static a", "static a b.", "static a,.", "static a(X)."] {
            assert!(parse_program(decl).is_err(), "{decl}");
        }
    }

    #[test]
    fn parses_static_declarations() {
        let prog = parse_program("static a, b.\nr(X) :- a(X), b(X).").unwrap();
        assert_eq!(prog.statics, ["a", "b"]);
        assert_eq!(prog.rules.len(), 1);
        // A relation may still be called `static`.
        let prog = parse_program("static(X) :- s(X).").unwrap();
        assert_eq!(prog.rules[0].head.name, "static");
        assert!(prog.statics.is_empty());
    }

    #[test]
    fn parses_disjunctions_and_guards() {
        let prog =
            parse_program("r(X) :- s(X, P, Y), (X notin P ; X == Y), guard (X > 1 ; (Y < 2)).")
                .unwrap();
        let [_, BodyLit::Filter(Filter::Any(any)), BodyLit::Guard(Filter::Any(guard))] =
            &prog.rules[0].body[..]
        else {
            panic!(
                "atom, disjunction, guarded disjunction: {:?}",
                prog.rules[0].body
            );
        };
        assert!(matches!(any[..], [Filter::NotIn(..), Filter::Compare(..)]));
        assert!(matches!(&guard[1], Filter::Any(inner) if inner.len() == 1));
        assert!(parse_program("r(X) :- s(X), (X > 1 ; ).").is_err());
        assert!(parse_program("r(X) :- s(X), guard s(X).").is_err());
    }

    #[test]
    fn error_display() {
        let err = parse_program("r(X)").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }
}
