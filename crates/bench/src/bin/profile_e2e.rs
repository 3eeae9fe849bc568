//! Allocation profile of one contended e2e trace run (developer tool).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_workloads::apps::{suite, WorkloadParams};
use grouter_workloads::azure::{generate_trace, ArrivalPattern};
use grouter_workloads::models::GpuClass;

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn main() {
    let specs = suite(WorkloadParams {
        batch: 4,
        gpu: GpuClass::V100,
    });
    let mut rng = DetRng::new(42);
    let mut trace = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut sub = rng.fork(k as u64);
        for t in generate_trace(
            ArrivalPattern::Sporadic,
            3.0,
            SimDuration::from_secs(4),
            &mut sub,
        ) {
            trace.push((spec.clone(), t));
        }
    }
    trace.sort_by_key(|&(_, t)| t);

    let rounds: u32 = std::env::var("PROFILE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    // Warm one run, then measure the rest.
    for round in 0..rounds {
        let mut rt = Runtime::new(
            presets::dgx_v100(),
            2,
            Box::new(GrouterPlane::new(GrouterConfig::full())),
            RuntimeConfig::default(),
        );
        for (spec, t) in &trace {
            rt.submit(spec.clone(), *t);
        }
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let b0 = BYTES.load(Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        rt.run();
        let dt = t0.elapsed();
        let a1 = ALLOCS.load(Ordering::Relaxed);
        let b1 = BYTES.load(Ordering::Relaxed);
        println!(
            "round {round}: run() allocs={} bytes={} wall={:?} ops={} ns/op={:.0}",
            a1 - a0,
            b1 - b0,
            dt,
            rt.world().next_op,
            dt.as_nanos() as f64 / rt.world().next_op as f64,
        );
    }
}
