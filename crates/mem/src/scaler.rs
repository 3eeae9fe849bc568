//! Histogram-based pool pre-warming (paper §4.4.1, Fig. 11a).
//!
//! For each function the scaler tracks sliding-window 99th percentiles of:
//!
//! * `R_window` — request inter-arrival time: how long after the last
//!   request memory should stay reserved;
//! * `R_size` — intermediate (output) data size;
//! * `R_con` — data accumulation / concurrency in the store.
//!
//! After each execution the function's share of the pool is
//! `Data_size = R_size · R_con`, held while `now < last_request + R_window`;
//! the total target is the sum over currently active functions
//! (`MemPool_size = Σ Data_size · 1{window overlaps now}`), floored at the
//! minimum pool.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use grouter_sim::params;
use grouter_sim::stats::WindowedPercentile;
use grouter_sim::time::SimTime;

/// Samples remembered per function per signal.
const WINDOW: usize = 256;

#[derive(Debug)]
struct FuncStats {
    interval_s: WindowedPercentile,
    size_bytes: WindowedPercentile,
    concurrency: WindowedPercentile,
    last_request: Option<SimTime>,
    live_outputs: u32,
}

impl FuncStats {
    fn new() -> FuncStats {
        FuncStats {
            interval_s: WindowedPercentile::new(WINDOW),
            size_bytes: WindowedPercentile::new(WINDOW),
            concurrency: WindowedPercentile::new(WINDOW),
            last_request: None,
            live_outputs: 0,
        }
    }

    /// `R_size · R_con` — the reservation while the function is active.
    fn reservation(&mut self) -> f64 {
        let size = self.size_bytes.p99().unwrap_or(0.0);
        let con = self.concurrency.p99().unwrap_or(1.0).max(1.0);
        size * con
    }

    /// `R_window` in seconds; a conservative default before any history.
    fn window_s(&mut self) -> f64 {
        self.interval_s.p99().unwrap_or(1.0)
    }

    fn active_at(&mut self, now: SimTime) -> bool {
        match self.last_request {
            None => false,
            Some(last) => (now - last.min(now)).as_secs_f64() <= self.window_s(),
        }
    }
}

/// Per-GPU pre-warm estimator across all functions that store data there.
#[derive(Debug, Default)]
pub struct PrewarmScaler {
    /// Functions with a `last_request` — the only ones that can be active,
    /// so `target_bytes` walks this map alone.
    requested: BTreeMap<u64, FuncStats>,
    /// Functions that produced outputs but never saw a request. The LLM
    /// path keys outputs per request, so this map grows with requests
    /// served and must stay off the `target_bytes` walk.
    unrequested: BTreeMap<u64, FuncStats>,
}

impl PrewarmScaler {
    pub fn new() -> PrewarmScaler {
        Self::default()
    }

    fn entry(&mut self, func: u64) -> &mut FuncStats {
        match self.requested.get_mut(&func) {
            Some(stats) => stats,
            None => self.unrequested.entry(func).or_insert_with(FuncStats::new),
        }
    }

    /// Record a request arrival for `func` (feeds `R_window`).
    pub fn on_request(&mut self, func: u64, now: SimTime) {
        let stats = match self.requested.entry(func) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(
                self.unrequested
                    .remove(&func)
                    .unwrap_or_else(FuncStats::new),
            ),
        };
        if let Some(last) = stats.last_request {
            stats.interval_s.record((now - last.min(now)).as_secs_f64());
        }
        stats.last_request = Some(now);
    }

    /// Record that `func` produced an output of `bytes` (feeds `R_size` and,
    /// via the live-output count, `R_con`).
    pub fn on_output(&mut self, func: u64, bytes: f64) {
        let stats = self.entry(func);
        stats.size_bytes.record(bytes);
        stats.live_outputs += 1;
        let live = stats.live_outputs;
        stats.concurrency.record(live as f64);
    }

    /// Record that one of `func`'s outputs was consumed/deleted.
    pub fn on_consumed(&mut self, func: u64) {
        let stats = self.entry(func);
        stats.live_outputs = stats.live_outputs.saturating_sub(1);
    }

    /// The pool size the GPU should hold at `now`:
    /// `max(Σ_active R_size·R_con, MIN_POOL_BYTES)`.
    pub fn target_bytes(&mut self, now: SimTime) -> f64 {
        let mut demand = 0.0;
        for s in self.requested.values_mut() {
            if s.active_at(now) {
                demand += s.reservation();
            }
        }
        let target = demand.max(params::MIN_POOL_BYTES);
        #[cfg(feature = "audit")]
        grouter_audit::check(
            "scaler.floor",
            target.is_finite() && target >= params::MIN_POOL_BYTES,
            || format!("pre-warm target {target} violates the 300 MB floor"),
        );
        target
    }

    /// Reservation window for one function, if known (testing/diagnostics).
    pub fn window_secs(&mut self, func: u64) -> Option<f64> {
        self.requested
            .get_mut(&func)
            .or_else(|| self.unrequested.get_mut(&func))
            .map(|s| s.window_s())
    }

    /// Outstanding (produced but unconsumed) outputs currently counted for
    /// `func` (testing/diagnostics). Every `on_output` must eventually be
    /// balanced by an `on_consumed`, or the concurrency p99 ratchets up and
    /// the pre-warm target over-reserves.
    pub fn live_outputs(&self, func: u64) -> u32 {
        self.requested
            .get(&func)
            .or_else(|| self.unrequested.get(&func))
            .map_or(0, |s| s.live_outputs)
    }

    /// Total outstanding outputs across every tracked function — the leak
    /// indicator chaos tests assert drains to zero.
    pub fn total_live_outputs(&self) -> u64 {
        self.requested
            .values()
            .chain(self.unrequested.values())
            .map(|s| s.live_outputs as u64)
            .sum()
    }

    /// Drop every reservation this GPU's scaler holds: the GPU failed, its
    /// stored outputs are gone, and keeping their histograms would inflate
    /// the pre-warm target of the (empty) pool when the GPU rejoins. The
    /// scaler restarts with no history, exactly as at boot.
    pub fn quarantine(&mut self) {
        self.requested.clear();
        self.unrequested.clear();
    }

    /// Number of tracked functions.
    pub fn len(&self) -> usize {
        self.requested.len() + self.unrequested.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouter_sim::time::SimDuration;

    const MB: f64 = 1e6;

    #[test]
    fn empty_scaler_targets_the_floor() {
        let mut s = PrewarmScaler::new();
        assert_eq!(s.target_bytes(SimTime::ZERO), params::MIN_POOL_BYTES);
    }

    #[test]
    fn active_function_reserves_size_times_concurrency() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        // Steady 100 ms arrivals, 200 MB outputs, concurrency up to 4.
        for i in 0..100 {
            t += SimDuration::from_millis(100);
            s.on_request(7, t);
            s.on_output(7, 200.0 * MB);
            if i % 4 == 3 {
                for _ in 0..4 {
                    s.on_consumed(7);
                }
            }
        }
        // Right after a request the function is active: target ≈ 200 MB × 4.
        let target = s.target_bytes(t);
        assert!(
            (target - 800.0 * MB).abs() < 1.0,
            "target {target} vs expected 800 MB"
        );
    }

    #[test]
    fn window_expiry_releases_reservation() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            t += SimDuration::from_millis(10);
            s.on_request(1, t);
            s.on_output(1, 800.0 * MB);
            s.on_consumed(1);
        }
        // Active now (interval p99 ≈ 10 ms).
        assert!(s.target_bytes(t) > params::MIN_POOL_BYTES);
        // Two seconds of silence ≫ R_window → back to the floor.
        let later = t + SimDuration::from_secs(2);
        assert_eq!(s.target_bytes(later), params::MIN_POOL_BYTES);
    }

    #[test]
    fn target_sums_across_functions() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            t += SimDuration::from_millis(100);
            s.on_request(1, t);
            s.on_output(1, 400.0 * MB);
            s.on_consumed(1);
            s.on_request(2, t);
            s.on_output(2, 300.0 * MB);
            s.on_consumed(2);
        }
        let target = s.target_bytes(t);
        assert!((target - 700.0 * MB).abs() < 1.0, "target {target}");
    }

    #[test]
    fn concurrency_p99_scales_reservation() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        // Bursts of 8 outstanding outputs before consumption.
        for _ in 0..30 {
            t += SimDuration::from_millis(100);
            s.on_request(3, t);
            for _ in 0..8 {
                s.on_output(3, 100.0 * MB);
            }
            for _ in 0..8 {
                s.on_consumed(3);
            }
        }
        let target = s.target_bytes(t);
        assert!((target - 800.0 * MB).abs() < 1.0, "target {target}");
    }

    #[test]
    fn window_tracks_interval_p99() {
        let mut s = PrewarmScaler::new();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_millis(250);
            s.on_request(9, t);
        }
        let w = s.window_secs(9).unwrap();
        assert!((w - 0.25).abs() < 1e-9, "window {w}");
    }

    /// Reference model: every function in one map, the target a
    /// key-ordered walk over all of them.
    #[derive(Default)]
    struct FullScan(BTreeMap<u64, FuncStats>);

    impl FullScan {
        fn stats(&mut self, func: u64) -> &mut FuncStats {
            self.0.entry(func).or_insert_with(FuncStats::new)
        }

        fn on_request(&mut self, func: u64, now: SimTime) {
            let stats = self.stats(func);
            if let Some(last) = stats.last_request {
                stats.interval_s.record((now - last.min(now)).as_secs_f64());
            }
            stats.last_request = Some(now);
        }

        fn on_output(&mut self, func: u64, bytes: f64) {
            let stats = self.stats(func);
            stats.size_bytes.record(bytes);
            stats.live_outputs += 1;
            stats.concurrency.record(stats.live_outputs as f64);
        }

        fn target(&mut self, now: SimTime) -> f64 {
            let mut demand = 0.0;
            for f in self.0.values_mut() {
                if f.active_at(now) {
                    demand += f.reservation();
                }
            }
            demand.max(params::MIN_POOL_BYTES)
        }
    }

    #[test]
    fn requested_only_target_equals_full_scan() {
        // Functions 0..8 see requests (some only after their first
        // outputs); 100.. only produce and consume outputs, like per-request
        // KV keys. The target must match the single-map walk to the bit at
        // every step, across a quarantine.
        let mut rng = grouter_sim::rng::DetRng::new(0x5CA1E);
        let mut s = PrewarmScaler::new();
        let mut reference = FullScan::default();
        let mut t = SimTime::ZERO;
        let mut above_floor = 0;
        for step in 0..3_000 {
            t += SimDuration::from_millis(rng.next_below(40));
            let func = if rng.next_below(2) == 0 {
                rng.next_below(8)
            } else {
                100 + rng.next_below(400)
            };
            match rng.next_below(3) {
                0 if func < 8 => {
                    s.on_request(func, t);
                    reference.on_request(func, t);
                }
                0 | 1 => {
                    let bytes = rng.uniform(1.0, 500.0) * MB;
                    s.on_output(func, bytes);
                    reference.on_output(func, bytes);
                }
                _ => {
                    s.on_consumed(func);
                    let stats = reference.stats(func);
                    stats.live_outputs = stats.live_outputs.saturating_sub(1);
                }
            }
            if step == 1_500 {
                s.quarantine();
                reference = FullScan::default();
            }
            let want = reference.target(t);
            above_floor += usize::from(want > params::MIN_POOL_BYTES);
            assert_eq!(s.target_bytes(t).to_bits(), want.to_bits(), "step {step}");
        }
        assert!(
            !s.unrequested.is_empty(),
            "script never mixed the two kinds"
        );
        assert!(
            above_floor > 1_000,
            "only {above_floor} steps above the floor"
        );
    }
}
