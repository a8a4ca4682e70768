//! Author views in the NDlog-style Datalog dialect and let the planner
//! distribute them — the declarative-networking workflow from the paper's
//! §2, end to end. The same planner compiles every `netrec-core` query
//! (`reachable`, `paths`, `regions`) to the paper's Fig. 4 plans: here
//! `twoHop` joins at the owner of `Y` and is exchanged to the owner of `X`,
//! and `bestTwoHop` aggregates where `twoHop` is stored.
//!
//! ```text
//! cargo run --release --example datalog_views
//! ```

use netrec::datalog::{compile, parse_program};
use netrec::engine::runner::{Runner, RunnerConfig};
use netrec::Strategy;
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

const PROGRAM: &str = r#"
    % Two-hop neighbourhood with per-destination best cost, written directly
    % in the dialect: note the @ location specifiers.
    twoHop(@X, Z, C) :- link(@X, Y, C1), link(@Y, Z, C2), C := C1 + C2, X != Z.
    bestTwoHop(@X, Z, min<C>) :- twoHop(@X, Z, C).
"#;

fn addr(i: u32) -> Value {
    Value::Addr(NetAddr(i))
}

fn main() {
    let ast = parse_program(PROGRAM).expect("parse");
    println!(
        "parsed {} rules; EDB = {:?}, IDB = {:?}",
        ast.rules.len(),
        ast.edb_relations(),
        ast.idb_relations()
    );
    let compiled = compile(&ast).expect("compile");
    println!(
        "compiled to a {}-operator distributed plan",
        compiled.plan().ops.len()
    );
    let oracle = compiled.oracle().clone();
    let catalog = compiled.plan().catalog.clone();

    let mut runner = Runner::new(
        compiled.into_parts().0,
        RunnerConfig::new(Strategy::absorption_lazy(), 4),
    );
    let links = [
        (0u32, 1u32, 3i64),
        (1, 2, 4),
        (0, 2, 20),
        (2, 3, 1),
        (1, 3, 9),
    ];
    let mut base = netrec::engine::reference::Db::new();
    for (a, b, c) in links {
        let t = Tuple::new(vec![addr(a), addr(b), Value::Int(c)]);
        base.entry(catalog.id("link").unwrap())
            .or_default()
            .insert(t.clone());
        runner.inject("link", t, UpdateKind::Insert, None);
    }
    let rep = runner.run_phase("load");
    println!(
        "loaded {} links; converged in {:.2} simulated ms",
        links.len(),
        rep.convergence.as_millis_f64()
    );

    println!("\nbestTwoHop:");
    for t in runner.view("bestTwoHop") {
        println!("  {} → {} at cost {}", t.get(0), t.get(1), t.get(2));
    }
    // Verify against the compiled oracle.
    let want = oracle.evaluate(&base);
    assert_eq!(
        runner.view("bestTwoHop"),
        want[&catalog.id("bestTwoHop").unwrap()],
        "distributed plan matches the oracle"
    );
    println!("\nmatches the centralized oracle ✓");
}
