//! `netrec-benchmark`: run one workload in this process, or compare two
//! results files. `run.sh` builds this binary and drives it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use netrec_benchmark::json::{self, Value};
use netrec_benchmark::metrics::{error_rate, Metric};
use netrec_benchmark::workloads::WORKLOADS;
use netrec_benchmark::{check, layers, report, workloads};

const USAGE: &str = "usage:
  netrec-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  netrec-benchmark --check <previous results.json> [--out DIR]   (compares DIR/results.json)
workloads: link_flap region_churn tcp_set_churn dense_grow";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 26.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--check" => a.check = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// `updates_per_s` of the untraced pass of the same workload, seed and
/// size, if one has been run into the same output directory.
fn untraced_updates_per_s(a: &Args, workload: &str) -> Option<f64> {
    let rec = read_json(&record_path(&a.out, workload, false)).ok()?;
    let same = rec.get("seed")?.as_f64()? == a.seed as f64
        && rec.get("smoke")?.as_bool()? == a.smoke
        && rec.get("skipped")?.as_f64()? == 0.0;
    same.then(|| {
        rec.get("metrics")?
            .get("updates_per_s")?
            .get("value")?
            .as_f64()
    })?
}

fn run_workload(a: &Args, workload: &str) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let o = workloads::run(workload, a.seed, a.seconds, a.smoke, a.trace);
    let correct = o.correct();
    let attempted = o.samples().count() as u64;
    let failed = o.samples().filter(|s| !s.ok).count() as u64;

    let mut measured = report::end_to_end(&o);
    println!(
        "== {workload}  seed {}  {}{}  {attempted} updates in {:.2} s over {} round(s)",
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        if a.smoke { "  smoke" } else { "" },
        o.stream_s(),
        o.rounds.len(),
    );
    if o.skipped() > 0 {
        println!(
            "   --seconds {} ran out: {} stream operations not attempted",
            a.seconds,
            o.skipped()
        );
    }
    report::print_table(
        if a.trace {
            "end to end (traced pass; the untraced pass is the one of record)"
        } else {
            "end to end"
        },
        &measured,
    );
    let err = error_rate(correct, attempted, failed);
    println!(
        "  {:<40} {:>16} ratio  (n={attempted})",
        "error_rate",
        report::show(err)
    );

    if a.trace {
        layers::print_layer_table(&o);
        let mut layer = layers::per_layer(&o, workload, a.seed, a.smoke);
        let traced_ups = measured
            .iter()
            .find(|m| m.name == "updates_per_s")
            .map_or(0.0, |m| m.value);
        match untraced_updates_per_s(a, workload) {
            Some(base) if base > 0.0 => {
                println!("  traced {traced_ups:.4} vs untraced {base:.4} updates/s");
                layer.push(Metric::new(
                    "trace.overhead_pct",
                    100.0 * (1.0 - traced_ups / base),
                ));
            }
            _ => eprintln!(
                "no untraced pass of {workload} seed {} in {}: trace.overhead_pct not measured",
                a.seed,
                a.out.display()
            ),
        }
        report::print_table("per layer", &layer);
        measured.extend(layer);
        let trace_path = a.out.join(format!("trace-{workload}.json"));
        let trace = o.tracer.to_json(workload, a.seed);
        std::fs::write(&trace_path, format!("{trace}\n"))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("spans written to {}", trace_path.display());
    }

    let record = Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Int(a.seed as i64)),
        ("smoke", Value::Bool(a.smoke)),
        ("trace", Value::Bool(a.trace)),
        ("seconds", Value::Num(a.seconds)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("skipped", Value::Int(o.skipped() as i64)),
        ("error_rate", Value::Num(err)),
        ("metrics", report::metrics_json(&measured, true)),
    ]);
    let path = record_path(&a.out, workload, a.trace);
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;

    // The driver reads the last line of standard output.
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted.max(1) as i64)),
        ("failed", Value::Int(failed as i64)),
        (
            "metrics",
            report::metrics_json(&report::driver_metrics(&measured, a.trace), false),
        ),
    ]);
    println!("{line}");
    Ok(if correct && failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(prev) = &args.check {
        let cur = args.out.join("results.json");
        read_json(prev).and_then(|p| {
            let regressed = check::check(&p, &read_json(&cur)?);
            println!("{regressed} regressed");
            Ok(if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        })
    } else if let Some(w) = &args.workload {
        run_workload(&args, w)
    } else {
        Err("nothing to do".to_string())
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}
