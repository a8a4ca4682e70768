//! Turning an [`Outcome`] into named metrics, and printing them.

use netrec_types::UpdateKind;

use crate::client::{latencies_ms, totals};
use crate::json::Value;
use crate::metrics::{def, Class, Metric, DEFS};
use crate::stats::{median, percentile};
use crate::workloads::Outcome;

/// `VmHWM` of this process, in MB. Each workload runs in its own process,
/// so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The end-to-end metrics of one run: the ones every workload has, then the
/// ones only this workload has.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let ins = latencies_ms(o.samples(), UpdateKind::Insert);
    let del = latencies_ms(o.samples(), UpdateKind::Delete);
    let totals = totals(o.samples());
    let updates = o.samples().count();
    let latency_s: f64 = o.samples().map(|s| s.latency_ns as f64 / 1e9).sum();
    let state_bytes: usize = o.samples().map(|s| s.state_bytes).sum();

    let mut m = vec![
        Metric::with_n("setup_s", median(&o.setup_s), o.setup_s.len()),
        Metric::with_n("updates_per_s", updates as f64 / latency_s, updates),
        Metric::with_n(
            "shipped_kb_per_update",
            totals.bytes as f64 / 1e3 / updates as f64,
            updates,
        ),
        // Mean over the stream, not the state it happens to end in: on
        // `region_churn` state swings 0.8–1.4 MB within one lap of the cycle.
        Metric::with_n(
            "state_mb",
            state_bytes as f64 / 1e6 / updates as f64,
            updates,
        ),
        Metric::new(
            "prov_bytes_per_tuple",
            totals.prov_bytes as f64 / totals.tuples as f64,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb()),
        Metric::with_n("insert_visible_ms_p50", percentile(&ins, 0.5), ins.len()),
        Metric::with_n("insert_visible_ms_p80", percentile(&ins, 0.8), ins.len()),
    ];
    if !del.is_empty() {
        m.push(Metric::with_n(
            "delete_visible_ms_p50",
            percentile(&del, 0.5),
            del.len(),
        ));
        m.push(Metric::with_n(
            "delete_visible_ms_p80",
            percentile(&del, 0.8),
            del.len(),
        ));
    }
    if !o.bulk_load_s.is_empty() {
        m.push(Metric::with_n(
            "bulk_load_s",
            median(&o.bulk_load_s),
            o.bulk_load_s.len(),
        ));
    }
    let reads: Vec<_> = o.rounds.iter().filter_map(|r| r.reads.as_ref()).collect();
    if !reads.is_empty() {
        let lookups: u64 = reads.iter().map(|r| r.lookups).sum();
        let sampled = crate::stats::sorted(
            reads
                .iter()
                .flat_map(|r| r.sampled_ns.iter().copied())
                .collect(),
        );
        m.push(Metric::with_n(
            "reads_per_s",
            lookups as f64 / o.stream_s(),
            lookups as usize,
        ));
        m.push(Metric::with_n(
            "lookup_ns_p99",
            percentile(&sampled, 0.99),
            sampled.len(),
        ));
    }
    m
}

/// Four decimals, six below 1 (a 0.6 ms set-up is `0.000612 s`).
pub fn show(value: f64) -> String {
    if value.abs() < 1.0 {
        format!("{value:.6}")
    } else {
        format!("{value:.4}")
    }
}

/// `name  value unit  (n=…)` lines, one per metric, in catalogue order.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    let measured = |d: &&crate::metrics::Def| metrics.iter().find(|m| m.name == d.name);
    for (d, m) in DEFS.iter().filter_map(|d| Some((d, measured(&d)?))) {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<40} {:>16} {}{n}", m.name, show(m.value), d.unit);
    }
}

/// `{"name": {"value": …, "unit": …, "n": …}, …}`.
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> Value {
    Value::obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Value::Num(m.value)),
            ("unit", Value::str(def(m.name).map_or("", |d| d.unit))),
        ];
        if let (true, Some(n)) = (with_n, m.n) {
            fields.push(("n", Value::Int(n as i64)));
        }
        (m.name, Value::obj(fields))
    }))
}

/// The metrics the driver expects on the result line: every catalogue entry
/// of the pass's kind, in catalogue order, 0 where this workload has no such
/// quantity (a DES workload has no TCP retransmits).
pub fn driver_metrics(measured: &[Metric], traced: bool) -> Vec<Metric> {
    DEFS.iter()
        .filter(|d| (d.class == Class::EndToEnd) != traced)
        .map(|d| {
            measured
                .iter()
                .find(|m| m.name == d.name)
                .cloned()
                .unwrap_or(Metric::new(d.name, 0.0))
        })
        .collect()
}
