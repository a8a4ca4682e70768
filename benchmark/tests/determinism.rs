//! Same seed ⇒ same counters on the DES; different seed ⇒ different stream;
//! a wrong expected view is an error rate of 1.

use std::collections::BTreeSet;

use netrec_benchmark::client::Counters;
use netrec_benchmark::metrics::error_rate;
use netrec_benchmark::report::end_to_end;
use netrec_benchmark::workloads::{run, scenario, views_correct, Outcome, Pass};

/// Everything the DES decides, per update: the `engine.*` / `sim.*` counters
/// are sums and ratios of these.
fn counters(o: &Outcome) -> Vec<Counters> {
    o.samples()
        .map(|s| Counters {
            run_wall_ns: 0, // wall time, not a count
            ..s.counters
        })
        .collect()
}

fn value(o: &Outcome, name: &str) -> f64 {
    end_to_end(o)
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

#[test]
fn des_workloads_repeat_exactly_for_one_seed() {
    for workload in ["link_flap", "dense_grow"] {
        let a = run(workload, 7, 60.0, true, false);
        let b = run(workload, 7, 60.0, true, true); // tracing must not change counts
        assert_eq!(a.skipped(), 0);
        assert!(a.samples().count() > 0);
        assert_eq!(counters(&a), counters(&b), "{workload}");
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.peer_bytes_sent, rb.peer_bytes_sent, "{workload}");
        }
        for metric in ["shipped_kb_per_update", "state_mb", "prov_bytes_per_tuple"] {
            assert_eq!(value(&a, metric), value(&b, metric), "{workload} {metric}");
        }
        assert!(a.samples().all(|s| s.ok));
        assert!(a.correct());
    }
}

#[test]
fn seed_drives_the_stream_and_nothing_else() {
    for workload in ["link_flap", "region_churn", "tcp_set_churn", "dense_grow"] {
        let (a, b, c) = (
            scenario(workload, Pass::only(1), true),
            scenario(workload, Pass::only(1), true),
            scenario(workload, Pass::only(2), true),
        );
        assert_eq!(a.stream, b.stream, "{workload}: same seed, same stream");
        assert_ne!(
            a.stream, c.stream,
            "{workload}: another seed, another order"
        );
        assert_eq!(a.load, c.load, "{workload}: the scenario is fixed");
        let set = |s: &[netrec_topo::BaseOp]| -> BTreeSet<String> {
            s.iter().map(|op| format!("{op:?}")).collect()
        };
        assert_eq!(set(&a.stream), set(&c.stream), "{workload}: same updates");
    }
}

#[test]
fn a_wrong_expected_view_is_an_error_rate_of_one() {
    let o = run("link_flap", 3, 60.0, true, false);
    let attempted = o.samples().count() as u64;
    assert!(views_correct(&o.client, o.views, |sys, v| sys.oracle_view(v)));
    assert_eq!(error_rate(true, attempted, 0), 0.0);
    // Hand the checker an expected view with one tuple missing.
    let wrong = views_correct(&o.client, o.views, |sys, v| {
        let mut view = sys.oracle_view(v);
        let first = view.iter().next().cloned().expect("non-empty view");
        view.remove(&first);
        view
    });
    assert!(!wrong);
    assert_eq!(error_rate(wrong, attempted, 0), 1.0);
}
