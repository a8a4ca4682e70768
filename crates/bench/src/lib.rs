//! The paper's evaluation (§7, Figs. 7–14), each figure defined once.
//!
//! [`figures`] holds one function per figure — its topology and scale, its
//! x-axis, its schemes, its load and churn, and its oracle check — all run
//! by one cell runner. Two programs read those definitions and nothing
//! else: `tests/paper_claims.rs` runs every figure at [`Scale::Quick`] and
//! asserts the paper's claim about it as an ordering over the panels it
//! just measured (REPRODUCTION.md has the table), and the `figures` bench
//! (`harness = false`) prints any figure or all of them — the four metric
//! panels the paper reports — and writes each as a CSV to
//! `target/figures/`.
//!
//! Scale: `NETREC_SCALE=full` runs the paper's parameters (100-node
//! transit-stub / 400 link tuples, 12 peers) under wall-clock budgets;
//! anything else is the quick scale tier-1 asserts on, small enough to run
//! in seconds in a debug build. Budget-exceeded cells print as `>N` — the
//! paper's "did not complete within 5 minutes" entries — from the numbers
//! the run measured up to the cut-off.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use netrec_engine::RunReport;

pub mod figures;

/// Run scale selected via `NETREC_SCALE` (`quick` default, `full` = paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced workloads under deterministic budgets: what tier-1 asserts.
    Quick,
    /// The paper's parameters.
    Full,
}

impl Scale {
    /// Read from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("NETREC_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Pick between quick and full variants.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The four metric panels of every figure, extracted from a phase report.
#[derive(Clone, Debug)]
pub struct Panels {
    /// (a) per-tuple provenance overhead, bytes.
    pub prov_b: f64,
    /// (b) communication overhead, MB.
    pub comm_mb: f64,
    /// (c) operator state, MB.
    pub state_mb: f64,
    /// (d) convergence time, seconds of simulated time.
    pub time_s: f64,
    /// Whether the run finished within budget.
    pub converged: bool,
}

impl Panels {
    /// Extract from a report.
    pub fn from_report(r: &RunReport) -> Panels {
        Panels {
            prov_b: r.prov_bytes_per_tuple,
            comm_mb: r.bytes as f64 / 1e6,
            state_mb: r.state_bytes as f64 / 1e6,
            time_s: r.convergence.micros() as f64 / 1e6,
            converged: r.converged(),
        }
    }

    fn cell(&self, panel: usize) -> String {
        let (value, digits) = match panel {
            0 => (self.prov_b, 1),
            1 => (self.comm_mb, 3),
            2 => (self.state_mb, 3),
            _ => (self.time_s, 2),
        };
        if self.converged {
            format!("{value:.digits$}")
        } else {
            // The paper reports these as ">5 min"-style entries.
            format!(">{value:.digits$}")
        }
    }
}

/// One figure's results: rows = schemes, columns = x-axis points.
pub struct Figure {
    /// Figure id, e.g. `"fig07"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// X-axis points.
    pub xs: Vec<String>,
    /// (scheme label, panels per x).
    pub rows: Vec<(String, Vec<Panels>)>,
}

const PANEL_NAMES: [&str; 4] = [
    "(a) per-tuple prov overhead (B)",
    "(b) communication overhead (MB)",
    "(c) state within operators (MB)",
    "(d) convergence time (s, simulated)",
];

impl Figure {
    fn new(id: &str, title: String, x_label: &str, xs: Vec<String>) -> Figure {
        Figure {
            id: id.into(),
            title,
            x_label: x_label.into(),
            xs,
            rows: Vec::new(),
        }
    }

    fn push_row(&mut self, scheme: &str, panels: Vec<Panels>) {
        assert_eq!(panels.len(), self.xs.len(), "series length for {scheme}");
        self.rows.push((scheme.into(), panels));
    }

    /// The series of `scheme`; panics if the figure has no such row.
    pub fn row(&self, scheme: &str) -> &[Panels] {
        self.rows
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|(_, panels)| panels.as_slice())
            .unwrap_or_else(|| panic!("{} has no row {scheme:?}", self.id))
    }

    /// Render all four panels as aligned text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for (panel, name) in PANEL_NAMES.iter().enumerate() {
            let _ = writeln!(out, "\n{name}   [x = {}]", self.x_label);
            let width = self
                .rows
                .iter()
                .map(|(s, _)| s.len())
                .max()
                .unwrap_or(8)
                .max(8);
            let _ = write!(out, "  {:width$}", "scheme");
            for x in &self.xs {
                let _ = write!(out, " {x:>12}");
            }
            let _ = writeln!(out);
            for (scheme, panels) in &self.rows {
                let _ = write!(out, "  {scheme:width$}");
                for p in panels {
                    let _ = write!(out, " {:>12}", p.cell(panel));
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Write the full figure as CSV under `target/figures/`.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/figures");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut csv =
            String::from("scheme,x,prov_bytes_per_tuple,comm_mb,state_mb,time_s,converged\n");
        for (scheme, panels) in &self.rows {
            for (x, p) in self.xs.iter().zip(panels) {
                let _ = writeln!(
                    csv,
                    "{scheme},{x},{:.3},{:.6},{:.6},{:.4},{}",
                    p.prov_b, p.comm_mb, p.state_mb, p.time_s, p.converged
                );
            }
        }
        fs::write(&path, csv)?;
        Ok(path)
    }

    /// Print and persist.
    pub fn finish(&self) {
        println!("{}", self.render());
        match self.write_csv() {
            Ok(path) => println!("[csv written to {}]", path.display()),
            Err(e) => println!("[csv not written: {e}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(v: f64, ok: bool) -> Panels {
        Panels {
            prov_b: v,
            comm_mb: v,
            state_mb: v,
            time_s: v,
            converged: ok,
        }
    }

    #[test]
    fn render_and_csv() {
        let mut fig = Figure::new(
            "figXX",
            "test".into(),
            "ratio",
            vec!["0.5".into(), "1".into()],
        );
        fig.push_row("DRed", vec![panels(1.0, true), panels(2.0, false)]);
        let text = fig.render();
        assert!(text.contains("figXX"));
        assert!(text.contains(">2.00"), "budget-exceeded marker: {text}");
        assert!(!fig.row("DRed")[1].converged);
        let path = fig.write_csv().unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert!(csv.contains("DRed,0.5"));
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_panics() {
        let mut fig = Figure::new("f", "t".into(), "x", vec!["1".into()]);
        fig.push_row("s", vec![]);
    }
}
