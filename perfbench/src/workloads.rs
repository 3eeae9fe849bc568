//! The three benchmark workloads: inputs generated from the seed, one
//! timed repetition each, output digests and correctness checks.
//!
//! Every workload is open loop in simulated time: arrivals are virtual-time
//! events, so the generator can never run late, and a slow host only
//! stretches host time, never the simulated metrics.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use grouter::runtime::cluster::ClusterSim;
use grouter::runtime::simple_plane::LocalityPlane;
use grouter::runtime::spec::WorkflowSpec;
use grouter::runtime::world::{RuntimeConfig, World};
use grouter::runtime::{DataPlane, Runtime};
use grouter::sim::params;
use grouter::sim::rng::DetRng;
use grouter::sim::stats::Summary;
use grouter::sim::time::{SimDuration, SimTime};
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_ctl::{HeartbeatRouter, ServiceConfig, ServiceSim};
use grouter_llm::{fnv64, run_llm_serve, LlmServeConfig, PlaneKind};
use grouter_obs::{Comp, Trace};
use grouter_workloads::apps::{suite, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::cluster::{service_setups, ClusterPreset, ROUTER_GROUP};
use grouter_workloads::models::GpuClass;

use crate::layers::{PlaneProbe, ProbedPlane, ProbedRouter, RouterProbe};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's setting: the six-workflow suite on 2×DGX-V100 with the
    /// full GROUTER plane, one world.
    SuiteV100,
    /// Service mode on the 64-GPU `uniform_64` preset: heartbeat router,
    /// locality plane, sharded engine.
    ServeUniform64,
    /// Disaggregated LLM serving, `LlmServeConfig::reference` on GROUTER.
    LlmH800,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuiteV100,
        Workload::ServeUniform64,
        Workload::LlmH800,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteV100 => "suite_v100",
            Workload::ServeUniform64 => "serve_uniform64",
            Workload::LlmH800 => "llm_h800",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload runs on the sharded engine (and so has a
    /// worker-thread count to vary).
    pub fn sharded(self) -> bool {
        self != Workload::SuiteV100
    }
}

/// Trace sizes. [`Scale::BENCH`] is what the benchmark times; tests use
/// smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `suite_v100`: simulated seconds of arrivals.
    pub suite_secs: u64,
    /// `suite_v100`: arrivals per second per workflow.
    pub suite_rps: f64,
    /// `serve_uniform64`: invocations in the trace.
    pub serve_total: u64,
    /// `serve_uniform64`: offered load at the router, requests per second.
    pub serve_rps: f64,
    /// `llm_h800`: requests in the trace.
    pub llm_requests: u64,
    /// `llm_h800`: mean arrival rate, requests per second.
    pub llm_rps: f64,
}

impl Scale {
    pub const BENCH: Scale = Scale {
        suite_secs: 600,
        suite_rps: 12.0,
        serve_total: 100_000,
        serve_rps: 10_000.0,
        llm_requests: 10_000,
        llm_rps: 14.0,
    };
}

/// How one repetition runs.
#[derive(Clone)]
pub enum Mode {
    /// The program as users run it: no decorators, tracing off, one worker.
    Plain,
    /// Decorated trait objects and `RuntimeConfig::trace` on, one worker.
    Traced(Probes),
    /// Undecorated, untraced, on two workers (sharded workloads only).
    TwoWorkers,
}

/// Shared probes the decorators of a traced run report into.
#[derive(Clone, Default)]
pub struct Probes {
    pub plane: Arc<PlaneProbe>,
    pub router: Arc<RouterProbe>,
}

/// One repetition's host timings and simulated results.
pub struct Rep {
    /// Host nanoseconds spent building inputs and worlds before the first
    /// event (fractional for `llm_h800`, timed over a batch of builds).
    pub setup_ns: f64,
    /// Host nanoseconds from the first event to quiescence.
    pub run_ns: u64,
    pub out: Outcome,
}

/// What a run produced, all of it deterministic for a seed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// FNV-64 of the run's simulated output (metrics CSV, plus the
    /// admission log in service mode; `LlmReport::digest` for LLM).
    pub digest: u64,
    /// Response latency, `(mean, p99)` ms: end-to-end for workflows, TTFT
    /// for LLM.
    pub lat: (f64, f64),
    /// `(mean, p99)` ms of data passing per request for workflows, of TBT
    /// for LLM.
    pub pass: (f64, f64),
    /// Failed correctness checks (empty when the run is correct).
    pub violations: Vec<String>,
    /// Deterministic per-layer counters by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The checks every workload shares: the trace drained, and nothing
    /// failed on these fault-free runs.
    fn check_drained(&mut self) {
        let (a, c, f) = (self.attempted, self.completed, self.failed);
        self.check(a > 0 && c + f == a, || {
            format!("not drained: completed {c} + failed {f} != attempted {a}")
        });
        self.check(f == 0, || {
            format!("{f} requests failed on a fault-free run")
        });
    }
}

/// Longest the simulation may run past the last arrival before the run
/// counts as backlogged, per workload (ms of simulated time). Below the
/// knee the tail request finishes within a few p99 latencies.
fn drain_lag_limit_ms(w: Workload) -> f64 {
    match w {
        Workload::SuiteV100 => 2_000.0,
        Workload::ServeUniform64 => 250.0,
        Workload::LlmH800 => f64::INFINITY,
    }
}

/// Run one repetition of `w`.
pub fn run(w: Workload, scale: &Scale, seed: u64, mode: &Mode) -> Rep {
    match w {
        Workload::SuiteV100 => run_suite(scale, seed, mode),
        Workload::ServeUniform64 => run_serve(scale, seed, mode),
        Workload::LlmH800 => run_llm(scale, seed, mode),
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn fnv(text: &str) -> u64 {
    fnv64(text.as_bytes())
}

fn mean_p99(s: &Summary) -> (f64, f64) {
    (s.mean(), s.p99())
}

/// The suite's arrival trace: sporadic (Poisson) arrivals per workflow,
/// one forked stream per workflow, merged in time order.
pub fn suite_arrivals(scale: &Scale, seed: u64) -> Vec<(Arc<WorkflowSpec>, SimTime)> {
    let specs = suite(WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    });
    let mut rng = DetRng::new(seed);
    let mut out = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            scale.suite_rps,
            SimDuration::from_secs(scale.suite_secs),
            &mut sub,
        ) {
            out.push((spec.clone(), t));
        }
    }
    out.sort_by_key(|&(_, t)| t);
    out
}

fn run_suite(scale: &Scale, seed: u64, mode: &Mode) -> Rep {
    let t0 = Instant::now();
    let arrivals = suite_arrivals(scale, seed);
    let last_arrival = arrivals.last().map(|&(_, t)| t).unwrap_or(SimTime::ZERO);
    let mut plane: Box<dyn DataPlane> = Box::new(GrouterPlane::new(GrouterConfig::full()));
    let traced = matches!(mode, Mode::Traced(_));
    if let Mode::Traced(p) = mode {
        plane = ProbedPlane::wrap(plane, p.plane.clone());
    }
    let config = RuntimeConfig {
        seed,
        trace: traced,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(presets::dgx_v100(), 2, plane, config);
    for (spec, t) in arrivals {
        rt.submit(spec, t);
    }
    let mut sim = rt.into_sim();
    let setup_ns = ns_since(t0) as f64;

    // `Simulation::run` is exactly `while step() {}`; stepping here only
    // adds the event count.
    let t1 = Instant::now();
    let mut events = 0u64;
    while sim.step() {
        events += 1;
    }
    let run_ns = ns_since(t1);

    let world = &sim.world;
    let m = &world.metrics;
    let mut out = Outcome {
        attempted: m.arrivals,
        completed: m.completed() as u64,
        failed: m.failed,
        digest: fnv(&m.to_csv()),
        lat: mean_p99(&m.latency_ms(None)),
        pass: mean_p99(&m.passing_ms(None)),
        ..Outcome::default()
    };
    out.check_drained();
    out.check(world.quiescent() && world.ledgers_idle(), || {
        "world not quiescent after the run".to_string()
    });
    let lag_ms = sim.now().since(last_arrival).as_millis_f64();
    check_lag(&mut out, Workload::SuiteV100, lag_ms);
    let c = &mut out.counters;
    c.insert("sim.events", events as f64);
    c.insert("runtime.drain_lag_ms", lag_ms);
    world_counters(c, &[world]);
    if traced {
        recorder_counters(c, &[world.rec.snapshot()]);
    }
    Rep {
        setup_ns,
        run_ns,
        out,
    }
}

fn check_lag(out: &mut Outcome, w: Workload, lag_ms: f64) {
    let limit = drain_lag_limit_ms(w);
    out.check(lag_ms <= limit, || {
        format!("backlog: run ended {lag_ms:.1} ms after the last arrival (limit {limit} ms)")
    });
}

/// Counters every world keeps whether or not it traces: data operations,
/// rebalances, the plane's own stats and the path caches' hit ratio.
fn world_counters(c: &mut BTreeMap<&'static str, f64>, worlds: &[&World]) {
    let (mut hits, mut lookups) = (0u64, 0u64);
    for w in worlds {
        *c.entry("runtime.data_ops").or_default() += w.next_op as f64;
        *c.entry("runtime.rebalances").or_default() += w.rebalances_applied as f64;
        if let Some(plane) = &w.plane {
            plane_stats(c, plane.as_ref());
        }
        for l in &w.ledgers {
            let s = l.cache_stats();
            hits += s.hits;
            lookups += s.hits + s.misses;
        }
    }
    c.insert("topo.path_lookups", lookups as f64);
    if lookups > 0 {
        c.insert("topo.cache_hit_pct", 100.0 * hits as f64 / lookups as f64);
    }
}

fn plane_stats(c: &mut BTreeMap<&'static str, f64>, plane: &dyn DataPlane) {
    let s = plane.stats();
    *c.entry("core.migrations").or_default() += s.migrations as f64;
    *c.entry("core.restores").or_default() += s.restores as f64;
    *c.entry("core.degraded_legs").or_default() += s.degraded_legs as f64;
}

/// Per-layer counters the worlds' flight recorders accumulated under
/// `RuntimeConfig::trace`. Counters sum over worlds; histogram quantiles
/// cannot be merged, so they report the worst world.
fn recorder_counters(c: &mut BTreeMap<&'static str, f64>, traces: &[Trace]) {
    let sum = |comp: Comp, name: &str| -> f64 {
        traces.iter().map(|t| t.counter(comp, name) as f64).sum()
    };
    let worst = |comp: Comp, name: &str, q: f64| -> f64 {
        traces
            .iter()
            .filter_map(|t| t.hist(comp, name).and_then(|h| h.quantile(q)))
            .max()
            .unwrap_or(0) as f64
    };
    c.insert(
        "runtime.stage_dispatches",
        sum(Comp::Runtime, "stage_dispatches"),
    );
    c.insert(
        "runtime.queue_wait_p50_ms",
        worst(Comp::Runtime, "queue_wait_ns", 0.5) / 1e6,
    );
    c.insert(
        "runtime.queue_wait_p99_ms",
        worst(Comp::Runtime, "queue_wait_ns", 0.99) / 1e6,
    );
    c.insert("net.realloc_waves", sum(Comp::Net, "realloc_waves"));
    c.insert(
        "net.component_flows_p50",
        worst(Comp::Net, "component_flows", 0.5),
    );
    c.insert(
        "net.component_flows_p99",
        worst(Comp::Net, "component_flows", 0.99),
    );
    c.insert("mem.native_allocs", sum(Comp::Mem, "native_allocs"));
    for (metric, name) in [
        ("store.puts", "puts"),
        ("store.gets", "gets"),
        ("store.grows", "grows"),
        ("store.migrations", "migrations"),
    ] {
        c.insert(metric, sum(Comp::Store, name));
    }
}

fn serve_config(scale: &Scale, seed: u64) -> ServiceConfig {
    ServiceConfig {
        pattern: ArrivalPattern::Sporadic,
        rps: scale.serve_rps,
        total: scale.serve_total,
        seed,
        hb_interval: params::HEARTBEAT_INTERVAL,
        ctl_faults: None,
    }
}

/// `ServiceSim::build` for a fault-free run, with each group's plane and
/// the router agent wrapped in probes and the flight recorders on.
fn traced_service(preset: &ClusterPreset, cfg: &ServiceConfig, probes: &Probes) -> ClusterSim {
    let mut setups = service_setups(
        preset,
        cfg.pattern,
        cfg.rps,
        cfg.total,
        cfg.seed,
        cfg.hb_interval,
        |_| ProbedPlane::wrap(Box::new(LocalityPlane::new()), probes.plane.clone()),
    );
    let n = setups.len() as u32;
    for s in &mut setups {
        s.config.trace = true;
    }
    if let Some(router) = setups.get_mut(ROUTER_GROUP as usize) {
        router.agent = Some(ProbedRouter::wrap(
            Box::new(HeartbeatRouter::new(n, cfg.hb_interval)),
            probes.router.clone(),
            ROUTER_GROUP,
        ));
    }
    ClusterSim::new(cfg.seed, setups)
}

/// The untraced runs drive the program's own service facade; the traced
/// run rebuilds the same cluster with decorated trait objects, and the
/// digest comparison proves the two are the same program.
enum Cluster {
    Service(ServiceSim),
    Probed(ClusterSim),
}

fn run_serve(scale: &Scale, seed: u64, mode: &Mode) -> Rep {
    let t0 = Instant::now();
    let preset = ClusterPreset::uniform_64();
    let cfg = serve_config(scale, seed);
    let mut cluster = match mode {
        Mode::Traced(p) => Cluster::Probed(traced_service(&preset, &cfg, p)),
        _ => Cluster::Service(ServiceSim::build(&preset, &cfg)),
    };
    let setup_ns = ns_since(t0) as f64;

    let threads = if matches!(mode, Mode::TwoWorkers) {
        2
    } else {
        1
    };
    let t1 = Instant::now();
    let stats = match &mut cluster {
        Cluster::Service(s) => s.run(threads),
        Cluster::Probed(c) => c.run(threads),
    };
    let run_ns = ns_since(t1);

    let sim = match &cluster {
        Cluster::Service(s) => s.cluster(),
        Cluster::Probed(c) => c,
    };
    let worlds: Vec<&World> = (0..sim.groups()).map(|g| sim.world(g)).collect();
    let mut lat = Summary::new();
    let mut pass = Summary::new();
    let mut last_arrival = SimTime::ZERO;
    for w in &worlds {
        for r in w.metrics.records() {
            lat.record(r.latency().as_millis_f64());
            pass.record(r.passing_total().as_millis_f64());
            last_arrival = last_arrival.max(r.arrived);
        }
    }
    let end = (0..sim.groups())
        .map(|g| sim.now(g))
        .max()
        .unwrap_or(SimTime::ZERO);
    let admissions = sim.admission_log().unwrap_or_default();
    let mut out = Outcome {
        attempted: sim.arrivals(),
        completed: sim.completed() as u64,
        failed: sim.failed(),
        digest: fnv(&(sim.merged_csv() + &admissions)),
        lat: mean_p99(&lat),
        pass: mean_p99(&pass),
        ..Outcome::default()
    };
    out.check_drained();
    out.check(worlds.iter().all(|w| w.quiescent()), || {
        "a group world is not quiescent after the run".to_string()
    });
    let (routed, attempted) = (admissions.lines().count() as u64, out.attempted);
    out.check(routed == attempted, || {
        format!("router admitted {routed} of {attempted} requests")
    });
    let lag_ms = end.since(last_arrival).as_millis_f64();
    check_lag(&mut out, Workload::ServeUniform64, lag_ms);
    let (sent, _recv, dropped) = sim.heartbeat_stats();
    let c = &mut out.counters;
    c.insert("sim.epochs", stats.epochs as f64);
    c.insert("sim.messages", stats.messages as f64);
    c.insert("runtime.drain_lag_ms", lag_ms);
    c.insert("ctl.hb_sent", sent as f64);
    c.insert("ctl.hb_dropped", dropped as f64);
    world_counters(c, &worlds);
    if let Cluster::Probed(_) = cluster {
        let traces: Vec<Trace> = worlds.iter().map(|w| w.rec.snapshot()).collect();
        recorder_counters(c, &traces);
    }
    Rep {
        setup_ns,
        run_ns,
        out,
    }
}

/// The LLM workload's configuration. `run_llm_serve` builds its worlds and
/// arrival stream inside the call, so this is all the set-up the benchmark
/// itself does.
pub fn llm_config(scale: &Scale, seed: u64, threads: usize) -> LlmServeConfig {
    LlmServeConfig {
        seed,
        requests: scale.llm_requests,
        rps: scale.llm_rps,
        threads,
        ..LlmServeConfig::reference(PlaneKind::Grouter)
    }
}

/// Configurations built per timed set-up sample of `llm_h800`: one build
/// takes well under a microsecond, below what a single clock read resolves.
pub const LLM_SETUP_BATCH: u32 = 1_000;

fn run_llm(scale: &Scale, seed: u64, mode: &Mode) -> Rep {
    let threads = if matches!(mode, Mode::TwoWorkers) {
        2
    } else {
        1
    };
    let t0 = Instant::now();
    let mut cfg = llm_config(scale, seed, threads);
    for _ in 1..LLM_SETUP_BATCH {
        cfg = std::hint::black_box(llm_config(scale, seed, threads));
    }
    let setup_ns = ns_since(t0) as f64 / LLM_SETUP_BATCH as f64;

    let t1 = Instant::now();
    let report = run_llm_serve(&cfg);
    let run_ns = ns_since(t1);

    let m = &report.metrics;
    let mut out = Outcome {
        attempted: cfg.requests,
        completed: report.completed,
        failed: report.failed,
        digest: report.digest,
        lat: (m.ttft.mean() * 1e3, m.ttft.p99() * 1e3),
        pass: (m.tbt.mean() * 1e3, m.tbt.p99() * 1e3),
        ..Outcome::default()
    };
    out.check_drained();
    out.check(m.admitted == cfg.requests, || {
        format!("admitted {} of {} requests", m.admitted, cfg.requests)
    });
    out.check(report.migrations > 0 && report.restores > 0, || {
        format!(
            "memory-pressure path idle: {} migrations, {} restores",
            report.migrations, report.restores
        )
    });
    let c = &mut out.counters;
    c.insert("sim.epochs", report.epochs as f64);
    c.insert("sim.messages", report.messages as f64);
    c.insert("llm.admitted", m.admitted as f64);
    c.insert("llm.tokens", m.tokens as f64);
    c.insert("llm.migrations", report.migrations as f64);
    c.insert("llm.restores", report.restores as f64);
    c.insert("llm.restore_stalls", m.restore_stalls as f64);
    c.insert("llm.rematerialized", m.rematerialized as f64);
    Rep {
        setup_ns,
        run_ns,
        out,
    }
}

/// Copy the probe readings of a traced run into `c`.
pub fn probe_counters(c: &mut BTreeMap<&'static str, f64>, p: &Probes, run_ns: u64) {
    let plane = &p.plane;
    for (calls, ns, stats) in plane.methods() {
        c.insert(calls, stats.calls() as f64);
        c.insert(ns, stats.ns_per_call());
    }
    if run_ns > 0 {
        c.insert(
            "core.self_pct",
            100.0 * plane.total_ns() as f64 / run_ns as f64,
        );
    }
    c.insert(
        "core.get_legs",
        plane.get_legs.load(Ordering::Relaxed) as f64,
    );
    c.insert("core.errors", plane.errors.load(Ordering::Relaxed) as f64);
    let r = &p.router;
    c.insert("ctl.route_calls", r.route.calls() as f64);
    c.insert("ctl.route_ns", r.route.ns_per_call());
    c.insert("ctl.hb_calls", r.heartbeat.calls() as f64);
    c.insert("ctl.hb_ns", r.heartbeat.ns_per_call());
    if r.route.calls() > 0 {
        c.insert(
            "ctl.route_remote_pct",
            100.0 * r.remote.load(Ordering::Relaxed) as f64 / r.route.calls() as f64,
        );
    }
}
