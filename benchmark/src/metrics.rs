//! The benchmark's metric catalogue: every name it prints, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! is the same table in the driver's format (a test keeps them equal).

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// End-to-end, reported by every workload: `end_to_end` in
    /// `BENCHMARK.json`, printed by the untraced pass.
    EndToEnd,
    /// End-to-end, but not every workload has it (deletes, reader
    /// throughput) or it is not steady on every workload (insert
    /// percentiles). The driver's format wants every workload to report
    /// every `end_to_end` metric within its bound, so these sit in
    /// `per_layer` there; this benchmark's own `--check` still applies
    /// their bound.
    Specific,
    /// One layer's cost or count, from the traced pass. No bound.
    Layer,
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the previous value by which the metric may worsen before
    /// `--check` calls it a regression (unused for `Class::Layer`).
    pub bound: f64,
    pub class: Class,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        class: Class::EndToEnd,
    }
}

const fn specific(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        class: Class::Specific,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        class: Class::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric, in print order.
pub const DEFS: &[Def] = &[
    // ---- end to end, every workload ------------------------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("shipped_kb_per_update", "kB", Lower, 0.10),
    e2e("state_mb", "MB", Lower, 0.10),
    e2e("prov_bytes_per_tuple", "B", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    // ---- end to end, some workloads ------------------------------------
    specific("insert_visible_ms_p50", "ms", Lower, 0.10),
    specific("insert_visible_ms_p80", "ms", Lower, 0.15),
    specific("delete_visible_ms_p50", "ms", Lower, 0.10),
    specific("delete_visible_ms_p80", "ms", Lower, 0.15),
    specific("bulk_load_s", "s", Lower, 0.10),
    specific("reads_per_s", "1/s", Higher, 0.15),
    specific("lookup_ns_p99", "ns", Lower, 0.20),
    // ---- core / engine.runner ------------------------------------------
    layer("core.inject_us", "us", Lower),
    layer("engine.run_phase_ms", "ms", Lower),
    layer("engine.boundary_ms", "ms", Lower),
    layer("engine.rederive_ms", "ms", Lower),
    layer("engine.events_per_update", "count", Lower),
    layer("engine.msgs_per_update", "count", Lower),
    layer("engine.tuples_per_update", "count", Lower),
    layer("engine.us_per_event", "us", Lower),
    layer("engine.accounted_pct", "%", Higher),
    // ---- engine.ckptstore ----------------------------------------------
    layer("engine.ckpt_kb", "kB", Lower),
    layer("engine.ckpt_encode_us_per_kb", "us/kB", Lower),
    layer("engine.ckpt_decode_us_per_kb", "us/kB", Lower),
    // ---- bdd -------------------------------------------------------------
    layer("bdd.or_ns", "ns", Lower),
    layer("bdd.and_ns", "ns", Lower),
    layer("bdd.restrict_ns", "ns", Lower),
    layer("bdd.encode_ns_per_node", "ns", Lower),
    layer("bdd.decode_ns_per_node", "ns", Lower),
    layer("bdd.dag_nodes_p50", "count", Lower),
    layer("bdd.dag_nodes_max", "count", Lower),
    layer("bdd.arena_nodes", "count", Lower),
    layer("bdd.ite_hit_ratio", "ratio", Higher),
    // ---- prov ------------------------------------------------------------
    layer("prov.or_ns", "ns", Lower),
    layer("prov.and_ns", "ns", Lower),
    layer("prov.rel_merge_ns", "ns", Lower),
    layer("prov.rel_kill_ns", "ns", Lower),
    layer("prov.rel_nodes_p50", "count", Lower),
    layer("prov.shipped_share", "ratio", Lower),
    // ---- sim -------------------------------------------------------------
    layer("sim.envelopes_per_update", "count", Lower),
    layer("sim.msgs_per_envelope", "ratio", Higher),
    layer("sim.envelope_bytes_per_update", "B", Lower),
    layer("sim.peer_bytes_skew", "ratio", Lower),
    layer("sim.coalesce_ns_per_msg", "ns", Lower),
    layer("sim.tcp.reconnects", "count", Lower),
    layer("sim.tcp.retransmits", "count", Lower),
    layer("sim.tcp.heartbeat_timeouts", "count", Lower),
    layer("sim.tcp.insert_ms_p50", "ms", Lower),
    layer("sim.sharded.overhead_ms_per_insert", "ms", Lower),
    layer("sim.tcp.overhead_ms_per_insert", "ms", Lower),
    layer("sim.tcp.dred_delete_ratio", "ratio", Lower),
    // ---- types.wire ------------------------------------------------------
    layer("wire.tuple_put_ns", "ns", Lower),
    layer("wire.tuple_get_ns", "ns", Lower),
    layer("wire.stream_frame_put_ns_per_kb", "ns/kB", Lower),
    layer("wire.stream_frame_get_ns_per_kb", "ns/kB", Lower),
    layer("wire.crc32_ns_per_kb", "ns/kB", Lower),
    // ---- serve -----------------------------------------------------------
    layer("serve.publish_ns_per_op", "ns", Lower),
    layer("serve.lookup_ns", "ns", Lower),
    layer("serve.snapshot_ns_per_tuple", "ns", Lower),
    layer("serve.epochs", "count", Higher),
    // ---- datalog, topo, tracing itself -----------------------------------
    layer("datalog.compile_us", "us", Lower),
    layer("topo.generate_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// One measured value. `n` is the sample count behind a percentile or
/// mean, printed beside it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        debug_assert!(def(name).is_some(), "metric `{name}` not in the catalogue");
        Metric {
            name,
            value,
            n: None,
        }
    }

    pub fn with_n(name: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            n: Some(n),
            ..Metric::new(name, value)
        }
    }
}

/// `error_rate`: failed updates ÷ attempted, or 1.0 outright when the final
/// view is wrong — a benchmark that produced the wrong answer measured
/// nothing. The driver's result line carries the same facts as
/// `correct` / `attempted` / `failed`.
pub fn error_rate(correct: bool, attempted: u64, failed: u64) -> f64 {
    if !correct {
        1.0
    } else if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(DEFS[..i].iter().all(|e| e.name != d.name), "{}", d.name);
            if d.class != Class::Layer {
                assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
            }
        }
    }

    #[test]
    fn error_rate_is_one_on_a_wrong_view() {
        assert_eq!(error_rate(true, 128, 0), 0.0);
        assert_eq!(error_rate(true, 128, 32), 0.25);
        assert_eq!(error_rate(false, 128, 0), 1.0);
    }
}
