//! Small-scale pins for the benchmark's own machinery: the layer
//! decorators change nothing the program computes, the sharded workloads
//! are thread-invariant, and `BENCHMARK.json` names exactly the metrics the
//! binary prints.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::sync::Arc;

use grouter::runtime::dataplane::{DataOp, DataPlane, Destination, PlaneCtx, PlaneStats, PutOp};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::store::{AccessToken, DataId, StoreError};
use grouter::topology::{presets, GpuRef};
use grouter::{GrouterConfig, GrouterPlane};
use grouter_llm::fnv64;
use grouter_perfbench::layers::{PlaneProbe, ProbedPlane};
use grouter_perfbench::metrics::{END_TO_END, PER_LAYER};
use grouter_perfbench::workloads::{run, suite_arrivals, Mode, Probes, Scale, Workload};

const SMALL: Scale = Scale {
    suite_secs: 5,
    suite_rps: 12.0,
    serve_total: 1_500,
    serve_rps: 2_000.0,
    llm_requests: 300,
    llm_rps: 20.0,
};

#[test]
fn decorated_suite_matches_the_plain_run() {
    let plain = run(Workload::SuiteV100, &SMALL, 3, &Mode::Plain);
    assert!(
        plain.out.violations.is_empty(),
        "{:?}",
        plain.out.violations
    );
    assert!(plain.out.completed > 50);
    let probes = Probes::default();
    let traced = run(
        Workload::SuiteV100,
        &SMALL,
        3,
        &Mode::Traced(probes.clone()),
    );
    assert!(
        traced.out.violations.is_empty(),
        "{:?}",
        traced.out.violations
    );
    assert_eq!(plain.out.digest, traced.out.digest);
    // Every plane method was reached through the decorator.
    for (name, _, stats) in probes.plane.methods() {
        assert!(stats.calls() > 0, "{name} never called through the probe");
    }
    assert_eq!(
        probes.plane.on_request.calls(),
        plain.out.attempted,
        "one pre-warm hook per request"
    );
}

#[test]
fn decorated_service_matches_the_plain_run_and_is_thread_invariant() {
    let plain = run(Workload::ServeUniform64, &SMALL, 5, &Mode::Plain);
    assert!(
        plain.out.violations.is_empty(),
        "{:?}",
        plain.out.violations
    );
    let probes = Probes::default();
    let traced = run(
        Workload::ServeUniform64,
        &SMALL,
        5,
        &Mode::Traced(probes.clone()),
    );
    assert!(
        traced.out.violations.is_empty(),
        "{:?}",
        traced.out.violations
    );
    // The serve digest covers the admission log, so a router decorator
    // that dropped `admission_log` would fail here.
    assert_eq!(plain.out.digest, traced.out.digest);
    assert_eq!(probes.router.route.calls(), plain.out.attempted);
    assert!(probes.router.heartbeat.calls() > 0);
    let two = run(Workload::ServeUniform64, &SMALL, 5, &Mode::TwoWorkers);
    assert_eq!(plain.out.digest, two.out.digest);
}

#[test]
fn llm_is_thread_invariant() {
    let one = run(Workload::LlmH800, &SMALL, 7, &Mode::Plain);
    let two = run(Workload::LlmH800, &SMALL, 7, &Mode::TwoWorkers);
    assert_eq!(one.out.completed, SMALL.llm_requests);
    assert_eq!(one.out.digest, two.out.digest);
}

/// A decorator that forwards everything except the defaulted
/// `on_request` hook — the mistake the digest check must catch.
struct SkipsOnRequest(Box<dyn DataPlane>);

impl DataPlane for SkipsOnRequest {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        self.0.put(ctx, token, source, bytes, consumers)
    }
    fn get(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        id: DataId,
        dest: Destination,
    ) -> Result<DataOp, StoreError> {
        self.0.get(ctx, token, id, dest)
    }
    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        self.0.on_consumed(ctx, id)
    }
    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        self.0.on_memory_change(ctx, gpu)
    }
    fn stats(&self) -> PlaneStats {
        self.0.stats()
    }
}

fn suite_digest(wrap: impl FnOnce(Box<dyn DataPlane>) -> Box<dyn DataPlane>) -> u64 {
    let plane = wrap(Box::new(GrouterPlane::new(GrouterConfig::full())));
    let config = RuntimeConfig {
        seed: 3,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 2, plane, config);
    for (spec, t) in suite_arrivals(&SMALL, 3) {
        rt.submit(spec, t);
    }
    rt.run();
    fnv64(rt.metrics().to_csv().as_bytes())
}

#[test]
fn the_digest_catches_a_decorator_that_drops_on_request() {
    let plain = suite_digest(|p| p);
    let probed = suite_digest(|p| ProbedPlane::wrap(p, Arc::new(PlaneProbe::default())));
    let skipping = suite_digest(|p| Box::new(SkipsOnRequest(p)));
    assert_eq!(plain, probed);
    assert_ne!(
        plain, skipping,
        "pre-warming off left the outputs unchanged"
    );
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(spec.matches(&entry).count(), 1, "{entry}");
    }
    let listed = spec.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
}
