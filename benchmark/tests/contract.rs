//! `BENCHMARK.json` at the repository root is the metric catalogue in the
//! driver's format; keep the two equal.

use netrec_benchmark::json::{self, Value};
use netrec_benchmark::metrics::{Class, DEFS};
use netrec_benchmark::workloads::WORKLOADS;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable")).unwrap()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("`{key}` missing"))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let m = manifest();
    let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(field(&m, "paths").to_string(), "[\"benchmark\"]");
    let seconds = field(&m, "run_seconds").as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds));
}

#[test]
fn manifest_lists_the_four_workloads() {
    let m = manifest();
    let names: Vec<&str> = field(&m, "workloads")
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            let why = field(w, "why").as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            field(w, "name").as_str().unwrap()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn manifest_metrics_equal_the_catalogue() {
    let m = manifest();
    let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
        field(&m, key)
            .as_array()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    field(e, "name").as_str().unwrap().to_string(),
                    field(e, "unit").as_str().unwrap().to_string(),
                    field(e, "better").as_str().unwrap().to_string(),
                    e.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    };
    let catalogue = |end_to_end: bool| -> Vec<(String, String, String, Option<f64>)> {
        DEFS.iter()
            .filter(|d| (d.class == Class::EndToEnd) == end_to_end)
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    end_to_end.then_some(d.bound),
                )
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalogue(true));
    assert_eq!(listed("per_layer"), catalogue(false));
}
