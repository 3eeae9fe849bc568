//! Metric names and units, and the JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_mean_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("pass_mean_ms", "ms"),
    ("pass_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.put_calls", "count"),
    ("core.put_ns", "ns"),
    ("core.get_calls", "count"),
    ("core.get_ns", "ns"),
    ("core.on_consumed_calls", "count"),
    ("core.on_consumed_ns", "ns"),
    ("core.on_memory_change_calls", "count"),
    ("core.on_memory_change_ns", "ns"),
    ("core.on_request_calls", "count"),
    ("core.on_request_ns", "ns"),
    ("core.self_pct", "%"),
    ("core.get_legs", "count"),
    ("core.errors", "count"),
    ("core.migrations", "count"),
    ("core.restores", "count"),
    ("core.degraded_legs", "count"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("net.realloc_waves", "count"),
    ("net.component_flows_p50", "count"),
    ("net.component_flows_p99", "count"),
    ("topo.path_lookups", "count"),
    ("topo.cache_hit_pct", "%"),
    ("runtime.stage_dispatches", "count"),
    ("runtime.queue_wait_p50_ms", "ms"),
    ("runtime.queue_wait_p99_ms", "ms"),
    ("runtime.data_ops", "count"),
    ("runtime.rebalances", "count"),
    ("runtime.drain_lag_ms", "ms"),
    ("mem.native_allocs", "count"),
    ("store.puts", "count"),
    ("store.gets", "count"),
    ("store.grows", "count"),
    ("store.migrations", "count"),
    ("sim.epochs", "count"),
    ("sim.messages", "count"),
    ("sim.ns_per_epoch", "ns"),
    ("sim.w2_over_w1", "ratio"),
    ("ctl.route_calls", "count"),
    ("ctl.route_ns", "ns"),
    ("ctl.hb_calls", "count"),
    ("ctl.hb_ns", "ns"),
    ("ctl.route_remote_pct", "%"),
    ("ctl.hb_sent", "count"),
    ("ctl.hb_dropped", "count"),
    ("llm.admitted", "count"),
    ("llm.tokens", "count"),
    ("llm.migrations", "count"),
    ("llm.restores", "count"),
    ("llm.restore_stalls", "count"),
    ("llm.rematerialized", "count"),
    ("llm.ns_per_token", "ns"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.traced_run_s", "s"),
    ("obs.untraced_run_s", "s"),
];

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The `q`-quantile of `v` by nearest rank (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[(q * (s.len() - 1) as f64).round() as usize]
}

/// The result line:`values` holds every metric of `spec`; a metric the
/// run could not measure is reported as 0 and listed by the caller.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
