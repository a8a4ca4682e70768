//! Human-readable rendering of BDDs: sum-of-products strings, cube
//! enumeration and Graphviz DOT export. Used by the `provenance_explorer`
//! example and by test assertions against the paper's worked tables.

use std::fmt::Write as _;

use crate::arena::Var;
use crate::handle::Bdd;

/// A satisfying cube: the variables tested along one TRUE-path of the BDD,
/// with their polarities. Variables not mentioned are "don't care".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cube {
    /// `(variable, polarity)` pairs in ascending variable order.
    pub literals: Vec<(Var, bool)>,
}

impl Cube {
    /// Only the positively-tested variables — for monotone provenance (which
    /// absorption provenance of plain Datalog always is) these identify the
    /// base tuples of one derivation.
    pub fn positive_vars(&self) -> Vec<Var> {
        self.literals
            .iter()
            .filter(|(_, pol)| *pol)
            .map(|(v, _)| *v)
            .collect()
    }
}

impl Bdd {
    /// Enumerate up to `limit` satisfying cubes.
    pub fn cubes(&self, limit: usize) -> Vec<Cube> {
        self.mgr
            .with_arena(|a| a.cubes(self.id, limit))
            .into_iter()
            .map(|literals| Cube { literals })
            .collect()
    }

    /// Render as a sum-of-products string like `p1.p2 + p4`, naming variable
    /// `v` as `p{v}`. Truncates after `max_terms` cubes with a trailing `…`.
    pub fn to_sop(&self, max_terms: usize) -> String {
        to_sop_string(self, max_terms)
    }

    /// Graphviz DOT rendering of the DAG rooted at this function.
    pub fn to_dot(&self) -> String {
        let triples = self.mgr.with_arena(|a| a.nodes_triples(self.id));
        // A reference is 0/1 for the terminals, `k + 2` for the k-th triple.
        let name = |r: u32| -> String {
            match r {
                0 => "f".into(),
                1 => "t".into(),
                k => format!("n{}", k - 2),
            }
        };
        let mut s = String::from("digraph bdd {\n  rankdir=TB;\n  node [shape=circle];\n");
        s.push_str("  f [label=\"false\", shape=box];\n  t [label=\"true\", shape=box];\n");
        for (i, (var, lo, hi)) in triples.iter().enumerate() {
            let _ = writeln!(s, "  n{i} [label=\"p{var}\"];");
            let _ = writeln!(s, "  n{i} -> {} [style=dashed];", name(*lo));
            let _ = writeln!(s, "  n{i} -> {};", name(*hi));
        }
        s.push_str("  root [shape=point];\n");
        let root = if triples.is_empty() {
            self.id
        } else {
            triples.len() as u32 + 1
        };
        let _ = writeln!(s, "  root -> {};", name(root));
        s.push_str("}\n");
        s
    }
}

pub(crate) fn to_sop_string(bdd: &Bdd, max_terms: usize) -> String {
    if bdd.is_false() {
        return "0".into();
    }
    if bdd.is_true() {
        return "1".into();
    }
    let cubes = bdd.cubes(max_terms + 1);
    let mut parts: Vec<String> = Vec::new();
    for cube in cubes.iter().take(max_terms) {
        let pos = cube.positive_vars();
        if pos.is_empty() {
            // A cube of purely negative literals — render explicitly.
            let lits: Vec<String> = cube
                .literals
                .iter()
                .map(|(v, pol)| {
                    if *pol {
                        format!("p{v}")
                    } else {
                        format!("!p{v}")
                    }
                })
                .collect();
            parts.push(lits.join("."));
        } else {
            let lits: Vec<String> = cube
                .literals
                .iter()
                .filter(|(_, pol)| *pol)
                .map(|(v, _)| format!("p{v}"))
                .collect();
            parts.push(lits.join("."));
        }
    }
    let mut s = parts.join(" + ");
    if cubes.len() > max_terms {
        s.push_str(" + …");
    }
    s
}
