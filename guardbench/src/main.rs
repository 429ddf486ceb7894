//! End-to-end and per-layer benchmark of RABIT's guarded-command path,
//! its rule service and its RAD stream.
//!
//! ```text
//! cargo run --release --manifest-path guardbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload puts one layer of the guard into one regime (see
//! `BENCHMARK.json` for why each was chosen, and `predictions.json` for
//! which end-to-end metric each per-layer metric should move). Every
//! loop is closed: the caller waits for each verdict or reply. Inputs
//! come from `--seed` only.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics, measured by a traced
//! pass beside an untraced one, and writes its spans to
//! `guardbench/out/spans-<workload>.jsonl`. A per-layer metric of a layer
//! the workload does not run reads 0. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Regime-guard and correctness failures are listed on standard error,
//! reported as `correct: false`, and make the exit code 1.

mod alloc;
mod churn;
mod cold;
mod guard;
mod rad;
mod stats;
mod trace;

use stats::RunResult;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 5] = [
    "steady_guard",
    "epoch_resweep",
    "cold_motion",
    "rule_churn",
    "rad_stream",
];

/// Every per-layer metric, with its unit. Traced runs report all of
/// them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("core.step_us", "us"),
    ("core.step_self_us", "us"),
    ("core.fetch_state_us", "us"),
    ("core.apply_us", "us"),
    ("core.allocs_per_step", "count"),
    ("rulebase.check_us", "us"),
    ("rulebase.expected_state_us", "us"),
    ("devices.diff_overlay_us", "us"),
    ("tracer.run_us", "us"),
    ("sim.validate_us", "us"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.samples_checked", "count"),
    ("sim.sample_skip_ratio", "ratio"),
    ("sim.distance_queries", "count"),
    ("sim.narrow_checks", "count"),
    ("sim.certificate_spans", "count"),
    ("sim.ik_memo_growth", "count"),
    ("kinematics.ik_solve_us", "us"),
    ("kinematics.ik_fail_ratio", "ratio"),
    ("service.commit_p50_us", "us"),
    ("service.commit_p99_us", "us"),
    ("service.cmds_per_commit", "count"),
    ("service.worker_parks", "count"),
    ("service.snapshot_us", "us"),
    ("rad.gen_ns_per_cmd", "ns"),
    ("rad.observe_ns_per_cmd", "ns"),
    ("rad.drift_events", "count"),
    ("rad.peak_live_kib", "KiB"),
    ("bench.allocs_per_unit", "count"),
    ("bench.untraced_throughput_per_s", "1/s"),
    ("bench.traced_throughput_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.threads_peak", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("guardbench: {e}");
            std::process::exit(2);
        }
    };
    let mut res: RunResult = match args.workload.as_str() {
        "steady_guard" => guard::run(
            guard::Mode::Steady,
            args.seed,
            args.seconds,
            args.trace,
            started,
        ),
        "epoch_resweep" => guard::run(
            guard::Mode::Resweep,
            args.seed,
            args.seconds,
            args.trace,
            started,
        ),
        "cold_motion" => cold::run(args.seed, args.seconds, args.trace, started),
        "rule_churn" => churn::run(args.seed, args.seconds, args.trace, started),
        "rad_stream" => rad::run(args.seed, args.seconds, args.trace, started),
        _ => unreachable!("workload validated in parse_args"),
    };

    let metrics: Vec<String> = if args.trace {
        let untraced = res.layers.get("bench.untraced_throughput_per_s").copied();
        let traced = res.layers.get("bench.traced_throughput_per_s").copied();
        if let (Some(u), Some(t)) = (untraced, traced) {
            res.layer("bench.trace_overhead_pct", (u / t - 1.0) * 100.0);
        }
        let threads = res.threads_peak.max(stats::live_threads());
        res.layer("bench.threads_peak", threads as f64);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, res.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let mut pooled = res.window.pooled();
        let n = pooled.len();
        res.require(n >= stats::MIN_SAMPLES as u64, || {
            format!("only {n} samples; the p99 needs {}", stats::MIN_SAMPLES)
        });
        eprintln!(
            "guardbench: {n} samples in {} rounds, {} work units, set-up times {:?}",
            res.window.rounds.len(),
            res.window.work(),
            res.setup_s
        );
        vec![
            metric("setup_s", stats::median(&res.setup_s), "s"),
            metric("latency_p50_us", pooled.percentile_us(0.5), "us"),
            metric("latency_p99_us", res.window.p99_us(), "us"),
            metric("throughput_per_s", res.window.throughput(), "1/s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ]
    };
    if args.trace {
        let path =
            std::path::Path::new("guardbench/out").join(format!("spans-{}.jsonl", args.workload));
        if let Some(log) = &res.spans {
            if let Err(e) = log.write_jsonl(&path) {
                res.problems
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    for p in &res.problems {
        eprintln!("guardbench: FAILED CHECK: {p}");
    }
    let correct = res.problems.is_empty() && res.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        res.failed,
        metrics.join(", ")
    );
    if !res.problems.is_empty() {
        std::process::exit(1);
    }
}
