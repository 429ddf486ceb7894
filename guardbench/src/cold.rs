//! `cold_motion`: seeded novel `MoveToLocation` targets for the ViperX,
//! each guarded through `Rabit::step`, so every motion misses both the
//! verdict cache and the IK memo.

use crate::alloc;
use crate::guard::{
    build_rabit, new_lab, replay_ik, replay_layers, sim_layers, span_layers, StepRecord,
    COUNT_PREFIX, SPAN_CAPACITY, TRACE_BLOCK,
};
use crate::stats::{Rounds, RunResult, Window};
use crate::trace::{Regime, RegimeCounters, Tracing};
use rabit_core::{Alert, Lab, Rabit, StepOutcome};
use rabit_devices::{ActionKind, Command};
use rabit_geometry::Vec3;
use rabit_util::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Radial bands (metres from the ViperX base) the targets are drawn
/// from, one target per band and azimuth sector in every block. The
/// first four lie in the arm's workspace, where IK mostly converges
/// within a few milliseconds. The last lies just beyond what the arm can
/// reach but inside the lab's 0.85 m reach summary: every IK start fails
/// to converge (the cold tail, tens of milliseconds), the simulator
/// reports no trajectory, and the lab still executes the move.
const BANDS: [(f64, f64); 5] = [
    (0.35, 0.45),
    (0.45, 0.55),
    (0.55, 0.62),
    (0.62, 0.70),
    (0.76, 0.84),
];
const SECTORS: usize = 4;

/// The seeded target stream. Targets are stratified over radius band
/// and azimuth sector (one of each pair per block of 20), so every run
/// sees the same mix of easy, hard and unreachable IK problems.
pub struct Targets {
    rng: Rng,
    next: usize,
}

impl Targets {
    pub fn new(seed: u64) -> Self {
        Targets {
            rng: Rng::seed_from_u64(seed ^ 0xC01D_0000),
            next: 0,
        }
    }

    pub fn next_command(&mut self) -> Command {
        let k = self.next % (BANDS.len() * SECTORS);
        self.next += 1;
        let (r0, r1) = BANDS[k / SECTORS];
        let sector = std::f64::consts::TAU / SECTORS as f64;
        let azimuth = (k % SECTORS) as f64 * sector + self.rng.random_range(0.0..sector);
        let radius = self.rng.random_range(r0..r1);
        let z = self.rng.random_range(0.05..0.45_f64).min(radius * 0.9);
        let horizontal = (radius * radius - z * z).sqrt();
        let target = Vec3::new(horizontal * azimuth.cos(), horizontal * azimuth.sin(), z);
        Command::new("viperx", ActionKind::MoveToLocation { target })
    }
}

/// Warm-up targets guarded during set-up, from a stream no run draws
/// its timed targets from.
const WARMUP_TARGETS: usize = 20;
const WARMUP_SEED: u64 = u64::MAX;

/// The set-up commands: park the Ned2 (time multiplexing), home the
/// ViperX, then one block of warm-up targets so code and allocator are
/// warm; their IK-memo and verdict-cache entries can never serve the
/// timed targets.
fn setup_commands() -> Vec<Command> {
    let mut warmup = Targets::new(WARMUP_SEED);
    [
        Command::new("ned2", ActionKind::MoveToSleep),
        Command::new("viperx", ActionKind::MoveHome),
    ]
    .into_iter()
    .chain((0..WARMUP_TARGETS).map(|_| warmup.next_command()))
    .collect()
}

/// A verdict in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Executed,
    Rule(Vec<String>),
    Trajectory(String, usize, u64),
    Unexpected(String),
}

#[allow(clippy::result_large_err)]
fn verdict(out: &Result<StepOutcome, Alert>) -> Verdict {
    match out {
        Ok(_) => Verdict::Executed,
        Err(Alert::InvalidCommand { violations, .. }) => {
            Verdict::Rule(violations.iter().map(|v| v.rule.to_string()).collect())
        }
        Err(Alert::InvalidTrajectory { collision, .. }) => Verdict::Trajectory(
            collision.device.to_string(),
            collision.link,
            collision.at_fraction.to_bits(),
        ),
        Err(other) => Verdict::Unexpected(other.headline().to_string()),
    }
}

struct Rig {
    rabit: Rabit,
    lab: Lab,
    regime: Arc<RegimeCounters>,
}

fn setup(tracing: Option<Tracing>, dense_reference: bool) -> Rig {
    let (mut rabit, regime) = build_rabit(tracing, |c| {
        if dense_reference {
            c.dense_sampling = true;
            c.verdict_cache = false;
        }
    });
    let mut lab = new_lab();
    rabit.initialize(&mut lab);
    for command in setup_commands() {
        let out = rabit.step(&mut lab, &command);
        assert!(
            !matches!(verdict(&out), Verdict::Unexpected(_)),
            "set-up command {command} raised {out:?}"
        );
    }
    Rig { rabit, lab, regime }
}

/// Guards the stream's next command, timed as one sample unit.
#[allow(clippy::result_large_err)]
fn plain_command(
    rig: &mut Rig,
    targets: &mut Targets,
    window: &mut Window,
    allocs: &mut (u64, u64),
) -> (Command, Verdict) {
    let command = targets.next_command();
    let a0 = alloc::thread_allocs();
    let step = window.time(1, || rig.rabit.step(&mut rig.lab, &command));
    let a1 = alloc::thread_allocs();
    if allocs.0 < COUNT_PREFIX {
        allocs.0 += 1;
        allocs.1 += a1 - a0;
    }
    let verdict = verdict(&step);
    (command, verdict)
}

/// Every validated motion must miss both the verdict cache and the IK
/// memo.
fn check_regime(res: &mut RunResult, before: Regime, after: Regime) {
    let d = after.since(&before);
    res.require(d.validations > 0, || "cold_motion validated nothing".into());
    res.require(
        d.verdict_hits == 0 && d.memo_misses == d.validations,
        || {
            format!(
                "cold_motion left its regime: {} verdict-cache hits, {} IK-memo misses \
             in {} validations",
                d.verdict_hits, d.memo_misses, d.validations
            )
        },
    );
}

/// Replays one setup's stream through a dense-sampling simulator with
/// the verdict cache off; every verdict must match.
fn check_against_reference(res: &mut RunResult, stream: &[(Command, Verdict)]) {
    let mut reference = setup(None, true);
    for (command, seen) in stream {
        res.attempted += 1;
        let expected = verdict(&reference.rabit.step(&mut reference.lab, command));
        let ok = *seen == expected && !matches!(seen, Verdict::Unexpected(_));
        if !ok {
            res.failed += 1;
            if res.problems.len() < 8 {
                res.problems.push(format!(
                    "{command}: verdict {seen:?}, dense reference {expected:?}"
                ));
            }
        }
    }
}

#[allow(clippy::result_large_err)]
pub fn run(seed: u64, seconds: f64, trace: bool, started: Instant) -> RunResult {
    let mut res = RunResult::default();
    let mut targets = Targets::new(seed);
    let mut allocs = (0, 0);

    if !trace {
        let rounds = Rounds::new(seconds);
        let mut window = Window::default();
        let mut streams = Vec::new();
        for round in 0..rounds.count {
            let t = if round == 0 { started } else { Instant::now() };
            let mut rig = setup(None, false);
            res.setup_s.push(t.elapsed().as_secs_f64());
            window.start_round();
            let regime0 = rig.regime.snapshot();
            let mut stream = Vec::new();
            let t0 = Instant::now();
            while t0.elapsed() < rounds.per_round || (stream.len() as u64) < rounds.min_units {
                stream.push(plain_command(
                    &mut rig,
                    &mut targets,
                    &mut window,
                    &mut allocs,
                ));
            }
            check_regime(&mut res, regime0, rig.regime.snapshot());
            streams.push(stream);
        }
        res.window = window;
        for stream in &streams {
            check_against_reference(&mut res, stream);
        }
        return res;
    }

    // Traced run: an untraced engine and a traced one, each guarding the
    // same target stream, interleaved in blocks so both see the same host
    // conditions; then layer replays.
    let mut plain = setup(None, false);
    res.setup_s.push(started.elapsed().as_secs_f64());
    let tracing = Tracing::new(SPAN_CAPACITY);
    res.spans = Some(Arc::clone(&tracing.log));
    let mut traced = setup(Some(tracing.clone()), false);
    tracing.clear();
    let mut traced_targets = Targets::new(seed);
    let mut plain_window = Window::default();
    let mut traced_window = Window::default();
    let mut stream = Vec::new();
    let plain0 = plain.regime.snapshot();
    let sweep0 = traced.rabit.validator_sweep_stats();
    let narrow0 = traced.rabit.validator_narrow_checks();
    let traced0 = traced.regime.snapshot();
    let (mut unit, mut step_allocs, mut prefix) = (0u64, 0u64, None);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || unit < COUNT_PREFIX {
        for _ in 0..TRACE_BLOCK {
            stream.push(plain_command(
                &mut plain,
                &mut targets,
                &mut plain_window,
                &mut allocs,
            ));
        }
        for _ in 0..TRACE_BLOCK {
            unit += 1;
            let command = traced_targets.next_command();
            let a0 = alloc::thread_allocs();
            traced_window
                .time(1, || {
                    tracing.step(&mut traced.rabit, &mut traced.lab, &command, unit)
                })
                .ok();
            if unit <= COUNT_PREFIX {
                step_allocs += alloc::thread_allocs() - a0;
            }
            if unit == COUNT_PREFIX {
                prefix = Some((
                    traced.rabit.validator_sweep_stats().since(&sweep0),
                    traced.rabit.validator_narrow_checks() - narrow0,
                    traced.regime.snapshot(),
                ));
            }
        }
    }
    check_regime(&mut res, plain0, plain.regime.snapshot());
    check_regime(&mut res, traced0, traced.regime.snapshot());
    check_against_reference(&mut res, &stream);
    res.layer("bench.allocs_per_unit", allocs.1 as f64 / allocs.0 as f64);
    res.layer("bench.untraced_throughput_per_s", plain_window.throughput());
    res.layer("bench.traced_throughput_per_s", traced_window.throughput());
    res.layer(
        "core.allocs_per_step",
        step_allocs as f64 / COUNT_PREFIX as f64,
    );
    let (sweep, narrow, regime) = prefix.expect("the traced pass covers the count prefix");
    sim_layers(&mut res, sweep, narrow, regime.since(&traced0));
    span_layers(&mut res, &tracing);

    // The first commands again, on a fresh engine, with the engine's
    // state recorded before each step for the layer replays.
    let (mut rabit, _) = build_rabit(None, |_| {});
    let mut lab = new_lab();
    rabit.initialize(&mut lab);
    let mut targets = Targets::new(seed);
    let commands = setup_commands()
        .into_iter()
        .chain((0..COUNT_PREFIX).map(|_| targets.next_command()));
    let mut steps = Vec::new();
    for command in commands {
        let before = rabit.current_state().clone();
        let executed = rabit.step(&mut lab, &command).is_ok();
        steps.push(StepRecord {
            command,
            before,
            executed,
        });
    }
    replay_layers(&mut res, &rabit, &steps, 20);
    replay_ik(&mut res, &tracing.records.lock().expect("records"), 2);
    res
}
