//! `rad_stream`: a drifting `TraceStream` feeds
//! `OnlineMiner::observe_trace`, one session at a time. The stream runs
//! in laps of `LAP_SESSIONS` seeded sessions with the lab's conventions
//! drifting halfway; each lap gets a fresh miner and must show the drift
//! as a collapse and an emergence.

use crate::alloc;
use crate::guard::COUNT_PREFIX;
use crate::stats::{Rounds, RunResult, Window};
use rabit_rad::{MineParams, OnlineMiner, RadGenParams, TraceStream};
use std::time::{Duration, Instant};

const LAP_SESSIONS: usize = 1_000;
/// The drifted convention emerges some 150 sessions after the drift.
const DRIFT_AT: usize = 250;
/// Untimed laps each round runs first.
const WARMUP_LAPS: u64 = 2;

fn lap_params(seed: u64, lap: u64) -> RadGenParams {
    RadGenParams::new()
        .with_sessions(LAP_SESSIONS)
        .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(lap))
        .with_drift_at(DRIFT_AT)
}

/// Whether the miner saw the drift: a collapse and an emergence at or
/// after the drift session.
fn drift_seen(miner: &OnlineMiner) -> bool {
    let events = miner.drift_events();
    events.iter().any(|e| e.is_collapse())
        && events.iter().any(|e| {
            matches!(e, rabit_rad::DriftEvent::Emerged { session, .. } if *session >= DRIFT_AT as u64)
        })
}

/// One lap, every session timed as a sample unit (generation plus
/// observation). Returns whether the drift was seen.
fn timed_lap(seed: u64, lap: u64, window: &mut Window, allocs: &mut (u64, u64)) -> bool {
    let mut miner = OnlineMiner::new(MineParams::default());
    let mut stream = TraceStream::new(&lap_params(seed, lap));
    let mut commands = miner.commands_seen();
    while stream.remaining() > 0 {
        let a0 = alloc::thread_allocs();
        window.time(0, || {
            let trace = stream.next().expect("the stream has sessions left");
            miner.observe_trace(&trace);
        });
        let a1 = alloc::thread_allocs();
        if allocs.0 < COUNT_PREFIX {
            allocs.0 += 1;
            allocs.1 += a1 - a0;
        }
        window.current().work += miner.commands_seen() - commands;
        commands = miner.commands_seen();
    }
    drift_seen(&miner)
}

fn untimed_lap(seed: u64, lap: u64) -> bool {
    let mut miner = OnlineMiner::new(MineParams::default());
    for trace in TraceStream::new(&lap_params(seed, lap)) {
        miner.observe_trace(&trace);
    }
    drift_seen(&miner)
}

/// Laps until `budget` elapses and at least `min_sessions` ran.
fn timed_laps(
    res: &mut RunResult,
    seed: u64,
    first_lap: u64,
    budget: Duration,
    min_sessions: u64,
    window: &mut Window,
    allocs: &mut (u64, u64),
) -> u64 {
    let t0 = Instant::now();
    let mut lap = first_lap;
    let start_samples = window.samples();
    while t0.elapsed() < budget || (window.samples() - start_samples) < min_sessions {
        let ok = timed_lap(seed, lap, window, allocs);
        res.attempted += LAP_SESSIONS as u64;
        if !ok {
            res.failed += LAP_SESSIONS as u64;
            res.problems.push(format!(
                "lap {lap}: the drift was not seen as a collapse and an emergence"
            ));
        }
        lap += 1;
    }
    lap
}

pub fn run(seed: u64, seconds: f64, trace: bool, started: Instant) -> RunResult {
    let mut res = RunResult::default();
    let mut allocs = (0, 0);
    let mut lap = 0u64;
    if !trace {
        let rounds = Rounds::new(seconds);
        let mut window = Window::default();
        for round in 0..rounds.count {
            let t = if round == 0 { started } else { Instant::now() };
            for _ in 0..WARMUP_LAPS {
                assert!(untimed_lap(seed, lap), "warm-up lap sees the drift");
                lap += 1;
            }
            res.setup_s.push(t.elapsed().as_secs_f64());
            window.start_round();
            lap = timed_laps(
                &mut res,
                seed,
                lap,
                rounds.per_round,
                rounds.min_units,
                &mut window,
                &mut allocs,
            );
        }
        res.window = window;
        return res;
    }

    // Traced run: each lap runs twice in turn, once timed per session and
    // once with generation and observation timed apart, so both see the
    // same host conditions; then one lap under the live-bytes peak.
    for _ in 0..WARMUP_LAPS {
        assert!(untimed_lap(seed, lap), "warm-up lap sees the drift");
        lap += 1;
    }
    res.setup_s.push(started.elapsed().as_secs_f64());
    let mut untraced = Window::default();
    let first = lap;
    let (mut gen_ns, mut observe_ns, mut commands) = (0u128, 0u128, 0u64);
    let mut events = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || lap == first {
        let ok = timed_lap(seed, lap, &mut untraced, &mut allocs);
        res.attempted += LAP_SESSIONS as u64;
        if !ok {
            res.failed += LAP_SESSIONS as u64;
        }
        let mut miner = OnlineMiner::new(MineParams::default());
        let mut stream = TraceStream::new(&lap_params(seed, lap));
        while stream.remaining() > 0 {
            let t = Instant::now();
            let trace = stream.next().expect("the stream has sessions left");
            let t1 = Instant::now();
            miner.observe_trace(&trace);
            drop(trace);
            let t2 = Instant::now();
            gen_ns += (t1 - t).as_nanos();
            observe_ns += (t2 - t1).as_nanos();
        }
        commands += miner.commands_seen();
        if lap == first {
            events = miner.drift_events().len() as u64;
        }
        lap += 1;
    }
    res.layer("bench.allocs_per_unit", allocs.1 as f64 / allocs.0 as f64);
    res.layer("bench.untraced_throughput_per_s", untraced.throughput());
    let busy_s = (gen_ns + observe_ns) as f64 / 1e9;
    res.layer("bench.traced_throughput_per_s", commands as f64 / busy_s);
    res.layer("rad.gen_ns_per_cmd", gen_ns as f64 / commands as f64);
    res.layer(
        "rad.observe_ns_per_cmd",
        observe_ns as f64 / commands as f64,
    );
    res.layer("rad.drift_events", events as f64);

    let baseline = alloc::reset_peak();
    assert!(untimed_lap(seed, first), "replayed lap sees the drift");
    res.layer(
        "rad.peak_live_kib",
        alloc::peak_bytes().saturating_sub(baseline) as f64 / 1024.0,
    );
    res
}
