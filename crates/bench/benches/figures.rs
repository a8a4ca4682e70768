//! Print the paper's figures: the four metric panels of each, plus a CSV
//! per figure under `target/figures/`.
//!
//! ```text
//! cargo bench -p netrec-bench --bench figures               # every figure
//! cargo bench -p netrec-bench --bench figures -- fig08 fig10
//! NETREC_SCALE=full cargo bench -p netrec-bench --bench figures -- fig11
//! ```
//!
//! The definitions are `netrec_bench::figures`; the quick scale printed by
//! default is exactly what `tests/paper_claims.rs` asserts on.

use netrec_bench::figures::FIGURES;
use netrec_bench::Scale;

fn main() {
    // `cargo bench` passes `--bench`; every other argument names a figure.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !FIGURES.iter().any(|(id, _)| id == w))
    {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown figure {unknown:?}; figures: {}", ids.join(" "));
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    for (id, figure) in FIGURES {
        if wanted.is_empty() || wanted.iter().any(|w| w == id) {
            let started = std::time::Instant::now();
            figure(scale).finish();
            println!(
                "[{id} took {:.1} s of wall time]\n",
                started.elapsed().as_secs_f64()
            );
        }
    }
}
