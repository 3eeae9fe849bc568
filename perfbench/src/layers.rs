//! Outside-in layer probes: decorators around the trait objects the program
//! already takes.
//!
//! [`ProbedPlane`] wraps any [`DataPlane`] and [`ProbedRouter`] wraps any
//! [`RouterAgent`]. Each forwards every trait method — including the
//! defaulted `on_request`, `stats` and `admission_log` — to the wrapped
//! object, and times the call with the host clock into a shared probe. The
//! program never sees the host clock: the decorators live outside it.
//!
//! Probes are shared with `Arc` because the world owns (and, in the sharded
//! engine, may move) the decorated object; counters are relaxed atomics
//! since they publish no other data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grouter::runtime::dataplane::{DataOp, DataPlane, Destination, PlaneCtx, PlaneStats, PutOp};
use grouter::runtime::{Heartbeat, RouterAgent};
use grouter::sim::time::SimTime;
use grouter::store::{AccessToken, DataId, StoreError};
use grouter::topology::GpuRef;
use grouter_obs::Recorder;

/// Calls made into one method and the host time they took.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallStats {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total host nanoseconds spent inside the method.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean host nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.ns() as f64 / n as f64,
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(dt, Ordering::Relaxed);
        out
    }
}

/// What a [`ProbedPlane`] saw, summed over every plane sharing the probe.
#[derive(Debug, Default)]
pub struct PlaneProbe {
    pub put: CallStats,
    pub get: CallStats,
    pub on_consumed: CallStats,
    pub on_memory_change: CallStats,
    pub on_request: CallStats,
    /// Transfer legs in the operations `get` returned.
    pub get_legs: AtomicU64,
    /// `put`/`get` calls that returned an error.
    pub errors: AtomicU64,
}

impl PlaneProbe {
    /// The five timed methods with their `(calls, ns per call)` metric
    /// names, in report order.
    pub fn methods(&self) -> [(&'static str, &'static str, &CallStats); 5] {
        [
            ("core.put_calls", "core.put_ns", &self.put),
            ("core.get_calls", "core.get_ns", &self.get),
            (
                "core.on_consumed_calls",
                "core.on_consumed_ns",
                &self.on_consumed,
            ),
            (
                "core.on_memory_change_calls",
                "core.on_memory_change_ns",
                &self.on_memory_change,
            ),
            (
                "core.on_request_calls",
                "core.on_request_ns",
                &self.on_request,
            ),
        ]
    }

    /// Host nanoseconds spent inside the plane, all methods.
    pub fn total_ns(&self) -> u64 {
        self.methods().iter().map(|(_, _, c)| c.ns()).sum()
    }
}

/// A transparent, timed [`DataPlane`] decorator.
pub struct ProbedPlane {
    inner: Box<dyn DataPlane>,
    probe: Arc<PlaneProbe>,
}

impl ProbedPlane {
    pub fn wrap(inner: Box<dyn DataPlane>, probe: Arc<PlaneProbe>) -> Box<dyn DataPlane> {
        Box::new(ProbedPlane { inner, probe })
    }
}

impl DataPlane for ProbedPlane {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn put(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        source: Destination,
        bytes: f64,
        consumers: u32,
    ) -> Result<PutOp, StoreError> {
        let inner = &mut self.inner;
        let out = self
            .probe
            .put
            .time(|| inner.put(ctx, token, source, bytes, consumers));
        if out.is_err() {
            self.probe.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn get(
        &mut self,
        ctx: &mut PlaneCtx<'_>,
        token: AccessToken,
        id: DataId,
        dest: Destination,
    ) -> Result<DataOp, StoreError> {
        let inner = &mut self.inner;
        let out = self.probe.get.time(|| inner.get(ctx, token, id, dest));
        match &out {
            Ok(op) => {
                self.probe
                    .get_legs
                    .fetch_add(op.legs.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.probe.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn on_consumed(&mut self, ctx: &mut PlaneCtx<'_>, id: DataId) -> Vec<DataOp> {
        let inner = &mut self.inner;
        self.probe.on_consumed.time(|| inner.on_consumed(ctx, id))
    }

    fn on_memory_change(&mut self, ctx: &mut PlaneCtx<'_>, gpu: GpuRef) -> Vec<DataOp> {
        let inner = &mut self.inner;
        self.probe
            .on_memory_change
            .time(|| inner.on_memory_change(ctx, gpu))
    }

    fn on_request(&mut self, ctx: &mut PlaneCtx<'_>, stages: &[Destination]) {
        let inner = &mut self.inner;
        self.probe.on_request.time(|| inner.on_request(ctx, stages))
    }

    fn stats(&self) -> PlaneStats {
        self.inner.stats()
    }
}

/// What a [`ProbedRouter`] saw.
#[derive(Debug, Default)]
pub struct RouterProbe {
    pub route: CallStats,
    pub heartbeat: CallStats,
    /// Routes that sent the request away from the admitting group.
    pub remote: AtomicU64,
}

/// A transparent, timed [`RouterAgent`] decorator for the agent installed
/// on group `home`.
pub struct ProbedRouter {
    inner: Box<dyn RouterAgent>,
    probe: Arc<RouterProbe>,
    home: u32,
}

impl ProbedRouter {
    pub fn wrap(
        inner: Box<dyn RouterAgent>,
        probe: Arc<RouterProbe>,
        home: u32,
    ) -> Box<dyn RouterAgent> {
        Box::new(ProbedRouter { inner, probe, home })
    }
}

impl RouterAgent for ProbedRouter {
    fn on_heartbeat(&mut self, now: SimTime, src: u32, hb: &Heartbeat, rec: &Recorder) {
        let inner = &mut self.inner;
        self.probe
            .heartbeat
            .time(|| inner.on_heartbeat(now, src, hb, rec))
    }

    fn route(&mut self, now: SimTime, spec: u32, rec: &Recorder) -> u32 {
        let inner = &mut self.inner;
        let to = self.probe.route.time(|| inner.route(now, spec, rec));
        if to != self.home {
            self.probe.remote.fetch_add(1, Ordering::Relaxed);
        }
        to
    }

    fn admission_log(&self) -> String {
        self.inner.admission_log()
    }
}
