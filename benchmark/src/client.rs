//! The load generator: one closed-loop client.
//!
//! An *update* is one base-tuple operation carried from `System::inject`
//! through `System::run` returning converged to a `ViewReader::enter()` that
//! observes the new epoch, timed with one `Instant` pair. The next update is
//! injected only after the previous one is visible, so a slow system
//! receives less load. A DRed delete is inject → over-delete run →
//! `rederive_all` → re-derive run → visible.

use std::time::Instant;

use netrec_core::{RunReport, System};
use netrec_engine::ViewReader;
use netrec_topo::BaseOp;
use netrec_types::UpdateKind;

use crate::trace::Tracer;

/// `RunReport` counters of one update (summed over its run phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub msgs: u64,
    pub tuples: u64,
    pub bytes: u64,
    pub prov_bytes: u64,
    pub envelopes: u64,
    pub envelope_bytes: u64,
    /// Σ `RunReport.wall`: substrate busy time.
    pub run_wall_ns: u64,
}

impl Counters {
    fn add_report(&mut self, r: &RunReport) {
        self.events += r.events;
        self.msgs += r.msgs;
        self.tuples += r.tuples;
        self.bytes += r.bytes;
        self.prov_bytes += r.prov_bytes;
        self.envelopes += r.envelopes;
        self.envelope_bytes += r.envelope_bytes;
        self.run_wall_ns += r.wall.as_nanos() as u64;
    }

    pub fn add(&mut self, o: &Counters) {
        self.events += o.events;
        self.msgs += o.msgs;
        self.tuples += o.tuples;
        self.bytes += o.bytes;
        self.prov_bytes += o.prov_bytes;
        self.envelopes += o.envelopes;
        self.envelope_bytes += o.envelope_bytes;
        self.run_wall_ns += o.run_wall_ns;
    }
}

/// One timed update.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: UpdateKind,
    pub latency_ns: u64,
    /// Every run phase converged and the reader saw the expected epoch.
    pub ok: bool,
    pub counters: Counters,
    /// Operator state once the update was visible.
    pub state_bytes: usize,
}

/// The closed-loop client: the system under test and the reader that
/// decides visibility.
pub struct Client {
    pub sys: System,
    pub reader: ViewReader,
    /// Deletes follow the DRed protocol (set-semantics strategies).
    dred: bool,
}

impl Client {
    /// `sys` must already have a serving handle attached; `reader` is it.
    pub fn new(sys: System, reader: ViewReader, dred: bool) -> Client {
        Client { sys, reader, dred }
    }

    /// One `System::run`, recorded as two sibling spans: the substrate's own
    /// busy time (`RunReport.wall`) and the boundary work after it (publish,
    /// checkpoint hook, metrics fold, `state_bytes` scan).
    fn run_phase(&mut self, tracer: &mut Tracer, counters: &mut Counters) -> RunReport {
        let start = tracer.now_ns();
        let report = self.sys.run("update");
        let end = tracer.now_ns();
        counters.add_report(&report);
        if tracer.enabled() {
            // `System::run` starts its own clock a few nanoseconds in; the
            // split attributes that sliver to the boundary.
            let split = (start + report.wall.as_nanos() as u64).min(end);
            tracer.record(
                "engine.run_phase",
                start,
                split,
                vec![
                    ("events", report.events),
                    ("msgs", report.msgs),
                    ("tuples", report.tuples),
                    ("bytes", report.bytes),
                    ("prov_bytes", report.prov_bytes),
                    ("envelopes", report.envelopes),
                    ("envelope_bytes", report.envelope_bytes),
                    ("state_bytes", report.state_bytes as u64),
                ],
            );
            tracer.record("engine.boundary", split, end, Vec::new());
        }
        report
    }

    /// Carry one base operation to visibility. Spans go to `tracer`, tagged
    /// with `update_id`.
    pub fn update(&mut self, tracer: &mut Tracer, update_id: u32, op: &BaseOp) -> Sample {
        let dred_delete = self.dred && op.kind == UpdateKind::Delete;
        // Every converged run publishes exactly one epoch.
        let published = self
            .sys
            .runner_ref()
            .served_version()
            .expect("serving attached");
        let expect = published + if dred_delete { 2 } else { 1 };
        let mut counters = Counters::default();
        tracer.set_update(Some(update_id));

        let t0 = Instant::now();
        let root = tracer.begin("update");
        let s = tracer.begin("core.inject");
        self.sys.inject(&op.rel, op.tuple.clone(), op.kind, op.ttl);
        tracer.end(s);
        let mut report = self.run_phase(tracer, &mut counters);
        let mut ok = report.converged();
        if dred_delete {
            let s = tracer.begin("engine.rederive");
            self.sys.runner().rederive_all();
            tracer.end(s);
            report = self.run_phase(tracer, &mut counters);
            ok &= report.converged();
        }
        let s = tracer.begin("serve.visible");
        let seen = self.reader.enter().version();
        tracer.end(s);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        tracer.end(root);
        tracer.set_update(None);

        Sample {
            kind: op.kind,
            latency_ns,
            ok: ok && seen == expect,
            counters,
            state_bytes: report.state_bytes,
        }
    }
}

/// Latencies of one kind, in milliseconds, ascending.
pub fn latencies_ms<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    kind: UpdateKind,
) -> Vec<f64> {
    crate::stats::sorted(
        samples
            .into_iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// Counter totals over `samples`.
pub fn totals<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Counters {
    let mut t = Counters::default();
    for s in samples {
        t.add(&s.counters);
    }
    t
}
