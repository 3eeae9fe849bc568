//! `bench_e2e` — whole-trace macro benchmark for the simulator core.
//!
//! Unlike `bench_flownet` / `bench_paths`, which gate micro hot paths, this
//! group runs a *complete* multi-workflow trace — arrival, placement, data
//! plane, flow network, stage lifecycle, metrics — end to end on the
//! GROUTER plane, on both evaluation testbeds:
//!
//! * `v100_contended`: a two-node DGX-V100 cluster driven by the full
//!   six-workflow suite at a rate that keeps GPUs queued and the NVLink
//!   fabric contended — the macro regime of ROADMAP item 4.
//! * `a100_steady`: a single DGX-A100 box under a lighter steady trace.
//!
//! For every case an `E2E_JSON` line reports the per-run work (data
//! operations issued, events fired, simulated nanoseconds) so
//! `scripts/bench_smoke.sh` can turn Criterion's median run time into the
//! two macro metrics the roadmap tracks: **ops/sec** and **simulated
//! seconds per wall second**, gated in `BENCH_e2e.json`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use grouter::runtime::spec::WorkflowSpec;
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::graph::TopologySpec;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_workloads::apps::{suite, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::models::GpuClass;

const SEED: u64 = 42;

struct Testbed {
    name: &'static str,
    topo: fn() -> TopologySpec,
    nodes: usize,
    gpu: GpuClass,
    rps_per_spec: f64,
    secs: u64,
}

const TESTBEDS: [Testbed; 2] = [
    Testbed {
        name: "v100_contended",
        topo: presets::dgx_v100,
        nodes: 2,
        gpu: GpuClass::V100,
        rps_per_spec: 3.0,
        secs: 4,
    },
    Testbed {
        name: "a100_steady",
        topo: presets::dgx_a100,
        nodes: 1,
        gpu: GpuClass::A100,
        rps_per_spec: 1.0,
        secs: 4,
    },
];

/// Pre-generated arrivals for one testbed (generation stays out of the
/// measured loop).
fn arrivals(bed: &Testbed) -> Vec<(Arc<WorkflowSpec>, grouter::sim::time::SimTime)> {
    let specs = suite(WorkloadParams {
        batch: 4,
        gpu: bed.gpu,
    });
    let mut rng = DetRng::new(SEED);
    let mut out = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            bed.rps_per_spec,
            SimDuration::from_secs(bed.secs),
            &mut sub,
        ) {
            out.push((spec.clone(), t));
        }
    }
    out.sort_by_key(|&(_, t)| t);
    out
}

/// One full trace run; returns the number of completed workflows.
fn trace_run(bed: &Testbed, trace: &[(Arc<WorkflowSpec>, grouter::sim::time::SimTime)]) -> u64 {
    let mut rt = Runtime::new(
        (bed.topo)(),
        bed.nodes,
        Box::new(GrouterPlane::new(GrouterConfig::full())),
        RuntimeConfig::default(),
    );
    for (spec, t) in trace {
        rt.submit(spec.clone(), *t);
    }
    rt.run();
    assert_eq!(
        rt.metrics().completed() as u64 + rt.metrics().failed,
        rt.metrics().arrivals,
        "trace must drain"
    );
    rt.metrics().completed() as u64
}

fn bench_e2e(c: &mut Criterion) {
    for bed in &TESTBEDS {
        let trace = arrivals(bed);
        // One audit run outside the timed loop reports the per-run work so
        // the smoke script can derive ops/sec and sim-sec/wall-sec.
        {
            let mut rt = Runtime::new(
                (bed.topo)(),
                bed.nodes,
                Box::new(GrouterPlane::new(GrouterConfig::full())),
                RuntimeConfig::default(),
            );
            for (spec, t) in &trace {
                rt.submit(spec.clone(), *t);
            }
            rt.run();
            println!(
                "E2E_JSON {{\"name\":\"{}\",\"arrivals\":{},\"completed\":{},\"ops\":{},\"sim_ns\":{}}}",
                bed.name,
                rt.metrics().arrivals,
                rt.metrics().completed(),
                rt.world().next_op,
                rt.now().as_nanos(),
            );
        }
        c.bench_function(&format!("e2e/{}", bed.name), |b| {
            b.iter(|| black_box(trace_run(bed, &trace)))
        });
    }
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
