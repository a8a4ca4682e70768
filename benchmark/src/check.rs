//! `--check <prev results.json>`: one verdict per (end-to-end metric,
//! workload) pair, from the bounds in the metric catalogue.

use crate::json::Value;
use crate::metrics::{Better, Class, Def, DEFS};

/// How a metric moved between two results files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the good way by more than the bound.
    Better,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The two runs cannot be compared: the metric is missing on one side,
    /// a run had failed updates or a wrong view, or the sample counts differ
    /// (one side was cut short by `--seconds`).
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare one metric's previous and current value.
pub fn verdict(def: &Def, prev: f64, cur: f64) -> Verdict {
    if !(prev.is_finite() && cur.is_finite()) || prev <= 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the previous value.
    let worsening = match def.better {
        Better::Lower => (cur - prev) / prev,
        Better::Higher => (prev - cur) / prev,
    };
    if worsening > def.bound {
        Verdict::Regressed
    } else if worsening < -def.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// `(value, n)` of one metric in one pass record of a results file.
fn metric(record: &Value, name: &str) -> Option<(f64, Option<f64>)> {
    let m = record.get("metrics")?.get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("n").and_then(Value::as_f64),
    ))
}

fn clean(record: &Value) -> bool {
    record.get("correct").and_then(Value::as_bool) == Some(true)
        && record.get("failed").and_then(Value::as_f64) == Some(0.0)
}

/// Print one row per (metric, workload) and return how many regressed.
/// Every ratio is printed with its base.
pub fn check(prev: &Value, cur: &Value) -> usize {
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "previous", "current", "cur/prev", "bound"
    );
    let mut regressed = 0;
    let empty = Value::Null;
    let workloads = cur.get("workloads").unwrap_or(&empty);
    for (workload, passes) in workloads.fields() {
        let cur_rec = passes.get("untraced").unwrap_or(&empty);
        let prev_rec = prev
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|p| p.get("untraced"))
            .unwrap_or(&empty);
        for def in DEFS.iter().filter(|d| d.class != Class::Layer) {
            let (p, c) = (metric(prev_rec, def.name), metric(cur_rec, def.name));
            if p.is_none() && c.is_none() {
                continue; // this workload does not have the metric
            }
            let v = match (p, c) {
                (Some((pv, pn)), Some((cv, cn)))
                    if clean(prev_rec) && clean(cur_rec) && pn == cn =>
                {
                    verdict(def, pv, cv)
                }
                _ => Verdict::Unresolved,
            };
            regressed += usize::from(v == Verdict::Regressed);
            let show = |x: Option<(f64, Option<f64>)>| {
                x.map_or("-".to_string(), |(v, _)| crate::report::show(v))
            };
            let ratio = match (p, c) {
                (Some((pv, _)), Some((cv, _))) if pv != 0.0 => format!("{:.3}", cv / pv),
                _ => "-".to_string(),
            };
            println!(
                "{:<14} {:<26} {:>14} {:>14} {:>8} {:>6.0}%  {}",
                workload,
                def.name,
                show(p),
                show(c),
                ratio,
                def.bound * 100.0,
                v.as_str()
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = def("delete_visible_ms_p50").unwrap();
        assert_eq!(lower.better, Better::Lower);
        let (inside, outside) = (100.0 * lower.bound * 0.5, 100.0 * lower.bound * 1.1);
        assert_eq!(verdict(lower, 100.0, 100.0 + inside), Verdict::Unchanged);
        assert_eq!(verdict(lower, 100.0, 100.0 + outside), Verdict::Regressed);
        assert_eq!(verdict(lower, 100.0, 100.0 - outside), Verdict::Better);
        let higher = def("updates_per_s").unwrap();
        assert_eq!(higher.better, Better::Higher);
        let outside = 100.0 * higher.bound * 1.1;
        assert_eq!(verdict(higher, 100.0, 100.0 - outside), Verdict::Regressed);
        assert_eq!(verdict(higher, 100.0, 100.0 + outside), Verdict::Better);
        assert_eq!(verdict(higher, 0.0, 5.0), Verdict::Unresolved);
    }

    fn results(p50: f64, n: i64, failed: i64) -> Value {
        crate::json::parse(&format!(
            r#"{{"workloads": {{"link_flap": {{"untraced": {{"correct": true, "failed": {failed},
                "metrics": {{"delete_visible_ms_p50": {{"value": {p50}, "unit": "ms", "n": {n}}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn check_counts_regressions_and_refuses_unequal_samples() {
        assert_eq!(check(&results(100.0, 64, 0), &results(104.0, 64, 0)), 0);
        assert_eq!(check(&results(100.0, 64, 0), &results(120.0, 64, 0)), 1);
        // Cut-short or failed runs are unresolved, never "regressed".
        assert_eq!(check(&results(100.0, 64, 0), &results(120.0, 40, 0)), 0);
        assert_eq!(check(&results(100.0, 64, 0), &results(120.0, 64, 3)), 0);
    }
}
