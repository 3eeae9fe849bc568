//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_v100 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Repeats the workload's whole trace, each repetition built fresh from the
//! seed, while another repetition still fits in `--seconds` of host time,
//! and prints one JSON line last: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Every repetition must drain with
//! no failures and the same output digest, or the line reports
//! `"correct": false`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grouter_perfbench::metrics::{median, quantile, result_json, END_TO_END, PER_LAYER};
use grouter_perfbench::workloads::{self, probe_counters, Mode, Probes, Rep, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile of the per-repetition request rates reported as `req_per_s`.
const REQ_PER_S_QUANTILE: f64 = 0.1;

/// Repetitions of `mode` while another one still fits in `budget` of host
/// time (judged by the last one's length), at least `min_reps` of them.
fn repeat(
    w: Workload,
    seed: u64,
    budget: Duration,
    min_reps: usize,
    mut mode: impl FnMut() -> Mode,
    mut each: impl FnMut(&Mode, &Rep),
) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    while reps.len() < min_reps || t0.elapsed() + last <= budget {
        let t_rep = Instant::now();
        let m = mode();
        let rep = workloads::run(w, &Scale::BENCH, seed, &m);
        each(&m, &rep);
        eprintln!(
            "{} rep {}: setup {:.4} s, run {:.4} s, digest {:016x}",
            w.name(),
            reps.len(),
            rep.setup_ns / 1e9,
            rep.run_ns as f64 / 1e9,
            rep.out.digest
        );
        reps.push(rep);
        last = t_rep.elapsed();
    }
    reps
}

fn run_secs(reps: &[Rep]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.run_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    )
}

/// Checks that hold across repetitions: each one correct, all with the same
/// digest as the first plain repetition.
fn cross_check(w: Workload, plain: &[Rep], others: &[(&str, &[Rep])]) -> Vec<String> {
    let mut bad = Vec::new();
    let want = plain.first().map(|r| r.out.digest);
    for (label, reps) in [("untraced", plain)]
        .into_iter()
        .chain(others.iter().copied())
    {
        for (i, r) in reps.iter().enumerate() {
            for v in &r.out.violations {
                bad.push(format!("{} {label} rep {i}: {v}", w.name()));
            }
            if Some(r.out.digest) != want {
                bad.push(format!(
                    "{} {label} rep {i}: digest {:016x} differs from untraced {:016x}",
                    w.name(),
                    r.out.digest,
                    want.unwrap_or(0)
                ));
            }
        }
    }
    bad
}

fn totals(groups: &[&[Rep]]) -> (u64, u64) {
    let reps = groups.iter().flat_map(|g| g.iter());
    reps.fold((0, 0), |(a, f), r| (a + r.out.attempted, f + r.out.failed))
}

fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: u64,
) -> (Vec<String>, u64, u64, BTreeMap<&'static str, f64>) {
    let plain = repeat(
        w,
        seed,
        Duration::from_secs(seconds),
        3,
        || Mode::Plain,
        |_, _| {},
    );
    let bad = cross_check(w, &plain, &[]);
    let first = &plain[0].out;
    let mut v = BTreeMap::new();
    // The rate nine in ten repetitions reach. On a shared host the fast
    // spells come and go with other tenants' load, so a run's median lands
    // wherever the spells fell; the slower, contended rate recurs at the
    // same level in every run (see README.md, "Steadiness").
    v.insert(
        "req_per_s",
        quantile(
            &plain
                .iter()
                .map(|r| r.out.attempted as f64 / (r.run_ns as f64 / 1e9))
                .collect::<Vec<_>>(),
            REQ_PER_S_QUANTILE,
        ),
    );
    v.insert(
        "setup_s",
        median(&plain.iter().map(|r| r.setup_ns / 1e9).collect::<Vec<_>>()),
    );
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert("lat_mean_ms", first.lat.0);
    v.insert("lat_p99_ms", first.lat.1);
    v.insert("pass_mean_ms", first.pass.0);
    v.insert("pass_p99_ms", first.pass.1);
    println!(
        "{}: seed {seed}, {} reps, attempted {} completed {} failed {} per rep, digest {:016x}",
        w.name(),
        plain.len(),
        first.attempted,
        first.completed,
        first.failed,
        first.digest
    );
    let (attempted, failed) = totals(&[&plain]);
    (bad, attempted, failed, v)
}

fn per_layer(
    w: Workload,
    seed: u64,
    seconds: u64,
) -> (Vec<String>, u64, u64, BTreeMap<&'static str, f64>) {
    let half = Duration::from_secs(seconds) / 2;
    let plain = repeat(w, seed, half, 2, || Mode::Plain, |_, _| {});
    // `run_llm_serve` builds its own disabled recorder and planes, so the
    // LLM workload has nothing to trace from outside.
    let traceable = w != Workload::LlmH800;
    let mut probe_maps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let traced = if traceable {
        repeat(
            w,
            seed,
            half,
            2,
            || Mode::Traced(Probes::default()),
            |m, rep| {
                if let Mode::Traced(p) = m {
                    let mut c = rep.out.counters.clone();
                    probe_counters(&mut c, p, rep.run_ns);
                    probe_maps.push(c);
                }
            },
        )
    } else {
        Vec::new()
    };
    let two = if w.sharded() {
        repeat(w, seed, Duration::ZERO, 1, || Mode::TwoWorkers, |_, _| {})
    } else {
        Vec::new()
    };
    let bad = cross_check(w, &plain, &[("traced", &traced), ("2-worker", &two)]);

    // Counts are identical in every repetition; host-time readings are the
    // median over the traced repetitions.
    let mut v: BTreeMap<&'static str, f64> = plain[0].out.counters.clone();
    if let Some(first) = probe_maps.first() {
        for key in first.keys() {
            let xs: Vec<f64> = probe_maps
                .iter()
                .filter_map(|m| m.get(key).copied())
                .collect();
            v.insert(key, median(&xs));
        }
    }
    let untraced_s = run_secs(&plain);
    let events = v.get("sim.events").copied().unwrap_or(0.0);
    let epochs = v.get("sim.epochs").copied().unwrap_or(0.0);
    let tokens = v.get("llm.tokens").copied().unwrap_or(0.0);
    for (metric, count) in [
        ("sim.ns_per_event", events),
        ("sim.ns_per_epoch", epochs),
        ("llm.ns_per_token", tokens),
    ] {
        if count > 0.0 {
            v.insert(metric, untraced_s * 1e9 / count);
        }
    }
    v.insert("obs.untraced_run_s", untraced_s);
    if !traced.is_empty() {
        let traced_s = run_secs(&traced);
        v.insert("obs.traced_run_s", traced_s);
        v.insert(
            "obs.trace_overhead_pct",
            100.0 * (traced_s / untraced_s - 1.0),
        );
    }
    if !two.is_empty() {
        v.insert("sim.w2_over_w1", run_secs(&two) / untraced_s);
    }
    let unmeasured: Vec<&str> = PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !v.contains_key(name))
        .collect();
    println!(
        "{}: not measured on this workload (reported as 0): {}",
        w.name(),
        unmeasured.join(", ")
    );
    let (attempted, failed) = totals(&[&plain, &traced, &two]);
    (bad, attempted, failed, v)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: grouter-perfbench --workload <suite_v100|serve_uniform64|llm_h800> \
                 --seed <n> [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let (bad, attempted, failed, values) = if args.trace {
        per_layer(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(bad.is_empty(), attempted, failed, spec, &values)
    );
    ExitCode::SUCCESS
}
