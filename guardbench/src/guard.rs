//! The guarded-command workloads on the testbed: `steady_guard` and
//! `epoch_resweep` replay the fig5 safe workflow through `Tracer::run`;
//! the helpers here are shared with `cold_motion`.

use crate::alloc;
use crate::stats::{median_us, Rounds, RunResult, Window};
use crate::trace::{ProbedValidator, Regime, RegimeCounters, Tracing, ValidateRecord};
use rabit_core::{Lab, Rabit, RabitConfig};
use rabit_devices::{Command, LabState};
use rabit_kinematics::ik::{solve_position, IkParams};
use rabit_rulebase::{transition, RuleId};
use rabit_sim::SimConfig;
use rabit_testbed::{rulebase_for, workflows, RabitStage, Testbed};
use rabit_tracer::{Tracer, Workflow};
use std::sync::Arc;
use std::time::Instant;

/// Leading units over which deterministic counts (allocations, sweep
/// counters) are taken, so they do not depend on how far a run got.
pub const COUNT_PREFIX: u64 = 64;
/// Laps that fill the verdict cache and IK memo before timing starts:
/// the first lap starts from the registration pose, the second from the
/// steady end-of-lap pose, the third confirms the orbit.
const WARMUP_LAPS: usize = 3;
/// Spans a traced run keeps (the first ones recorded); later spans are
/// timed the same way but dropped, so memory stays bounded.
pub const SPAN_CAPACITY: usize = 1 << 16;
/// Units each engine runs in turn when a traced run interleaves its
/// untraced and traced engines.
pub const TRACE_BLOCK: usize = 4;
/// The verdict cache's capacity: `epoch_resweep` warms up until its LRU
/// is full, so eviction cost is in steady state.
const VERDICT_CACHE_CAPACITY: u64 = 512;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Steady,
    Resweep,
}

pub fn new_lab() -> Lab {
    Testbed::new().lab
}

/// The deployed engine: Modified rulebase, headless Extended Simulator
/// behind a probe, stop-at-first-violation.
pub fn build_rabit(
    tracing: Option<Tracing>,
    configure: impl FnOnce(&mut SimConfig),
) -> (Rabit, Arc<RegimeCounters>) {
    let mut sim = Testbed::build_extended_simulator(false);
    configure(sim.config_mut());
    let regime = Arc::new(RegimeCounters::default());
    let arms = Testbed::simulator_arms()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let validator = ProbedValidator::new(sim, arms, Arc::clone(&regime), tracing);
    let mut rabit = Rabit::new(
        rulebase_for(RabitStage::Modified),
        Testbed::build_catalog(),
        RabitConfig::default(),
    )
    .with_validator(Box::new(validator));
    rabit.config_mut().first_violation_only = true;
    (rabit, regime)
}

/// The rule a seed toggles in `epoch_resweep`.
fn toggled_rule(rabit: &Rabit, seed: u64) -> RuleId {
    let rules = rabit.rulebase().rules();
    rules[(seed % rules.len() as u64) as usize].id().clone()
}

/// Publishes a new rulebase epoch with unchanged rules: the seeded rule
/// is switched off and on again.
fn publish_epoch(rabit: &mut Rabit, rule: &RuleId) {
    let rulebase = rabit.rulebase_mut();
    assert!(rulebase.set_enabled(rule, false), "toggled rule exists");
    assert!(rulebase.set_enabled(rule, true), "toggled rule exists");
}

struct Rig {
    mode: Mode,
    rabit: Rabit,
    regime: Arc<RegimeCounters>,
    rule: RuleId,
}

/// Builds the engine and runs the warm-up laps.
fn setup(mode: Mode, seed: u64, wf: &Workflow, tracing: Option<Tracing>) -> Rig {
    let (mut rabit, regime) = build_rabit(tracing, |_| {});
    let rule = toggled_rule(&rabit, seed);
    let mut laps = 0;
    loop {
        if mode == Mode::Resweep {
            publish_epoch(&mut rabit, &rule);
        }
        let mut lab = new_lab();
        let report = Tracer::guarded(&mut lab, &mut rabit).run(wf);
        assert!(report.completed(), "warm-up lap must complete");
        laps += 1;
        let misses = rabit.validator_cache_stats().1;
        let warm = match mode {
            Mode::Steady => laps >= WARMUP_LAPS,
            Mode::Resweep => laps >= WARMUP_LAPS && misses >= VERDICT_CACHE_CAPACITY + 64,
        };
        if warm {
            break;
        }
    }
    Rig {
        mode,
        rabit,
        regime,
        rule,
    }
}

/// Checks the regime of a timed window from the probe's counter deltas
/// since `before`.
fn check_regime(res: &mut RunResult, rig: &Rig, before: Regime) {
    let d = rig.regime.snapshot().since(&before);
    res.require(d.validations > 0, || "no validations in the window".into());
    match rig.mode {
        Mode::Steady => res.require(
            d.verdict_hits == d.validations && d.memo_growth == 0,
            || {
                format!(
                    "steady_guard left its regime: {} verdict-cache misses, {} IK-memo growth",
                    d.validations - d.verdict_hits,
                    d.memo_growth
                )
            },
        ),
        Mode::Resweep => res.require(d.verdict_hits == 0 && d.memo_growth == 0, || {
            format!(
                "epoch_resweep left its regime: {} verdict-cache hits, {} IK-memo growth",
                d.verdict_hits, d.memo_growth
            )
        }),
    }
}

/// The final lab state of an unguarded fig5 run: a safe workflow under
/// guard must end in exactly this state.
fn reference_final_state(wf: &Workflow) -> LabState {
    let mut lab = new_lab();
    let report = Rabit::run_unchecked(&mut lab, wf.commands());
    assert!(report.completed(), "fig5 runs unguarded");
    lab.fetch_state()
}

/// Guards one fig5 experiment through `Tracer::run` on a freshly built
/// lab, timed as one sample unit, and checks its outcome.
fn plain_lap(
    res: &mut RunResult,
    rig: &mut Rig,
    wf: &Workflow,
    reference: &LabState,
    window: &mut Window,
    allocs: &mut (u64, u64),
) {
    let mut lab = new_lab();
    if rig.mode == Mode::Resweep {
        publish_epoch(&mut rig.rabit, &rig.rule);
    }
    let a0 = alloc::thread_allocs();
    let report = window.time(wf.len() as u64, || {
        Tracer::guarded(&mut lab, &mut rig.rabit).run(wf)
    });
    let a1 = alloc::thread_allocs();
    if allocs.0 < COUNT_PREFIX {
        allocs.0 += 1;
        allocs.1 += a1 - a0;
    }
    res.attempted += wf.len() as u64;
    let good = report.completed()
        && report.executed == wf.len()
        && lab.fetch_state() == *reference
        && lab.damage_log().is_empty();
    if !good {
        res.failed += wf.len() as u64;
    }
}

/// The same experiment driven step by step, so each `Rabit::step` is a
/// `core.step` span with the probe's `sim.validate` span nested inside.
/// Returns the allocations made inside the steps.
fn traced_lap(
    res: &mut RunResult,
    rig: &mut Rig,
    wf: &Workflow,
    reference: &LabState,
    window: &mut Window,
    tracing: &Tracing,
    unit: u64,
) -> u64 {
    let mut lab = new_lab();
    if rig.mode == Mode::Resweep {
        publish_epoch(&mut rig.rabit, &rig.rule);
    }
    let mut step_allocs = 0;
    let completed = window.time(wf.len() as u64, || {
        rig.rabit.initialize(&mut lab);
        for command in wf.commands() {
            let a0 = alloc::thread_allocs();
            let out = tracing.step(&mut rig.rabit, &mut lab, command, unit);
            step_allocs += alloc::thread_allocs() - a0;
            if out.is_err() {
                return false;
            }
        }
        true
    });
    res.attempted += wf.len() as u64;
    if !(completed && lab.fetch_state() == *reference && lab.damage_log().is_empty()) {
        res.failed += wf.len() as u64;
    }
    step_allocs
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool, started: Instant) -> RunResult {
    let mut res = RunResult::default();
    let wf = workflows::fig5_safe_workflow(&Testbed::new().locations);
    let reference = reference_final_state(&wf);
    let mut allocs = (0, 0);

    if !trace {
        let rounds = Rounds::new(seconds);
        let mut window = Window::default();
        for round in 0..rounds.count {
            let t = if round == 0 { started } else { Instant::now() };
            let mut rig = setup(mode, seed, &wf, None);
            res.setup_s.push(t.elapsed().as_secs_f64());
            window.start_round();
            let regime0 = rig.regime.snapshot();
            let t0 = Instant::now();
            let mut laps = 0;
            while t0.elapsed() < rounds.per_round || laps < rounds.min_units {
                plain_lap(
                    &mut res,
                    &mut rig,
                    &wf,
                    &reference,
                    &mut window,
                    &mut allocs,
                );
                laps += 1;
            }
            check_regime(&mut res, &rig, regime0);
        }
        res.window = window;
        return res;
    }

    // Traced run: an untraced engine and a traced one, interleaved in
    // blocks so both see the same host conditions; then replays of the
    // layers that have no trait seam.
    let mut plain = setup(mode, seed, &wf, None);
    res.setup_s.push(started.elapsed().as_secs_f64());
    let tracing = Tracing::new(SPAN_CAPACITY);
    res.spans = Some(Arc::clone(&tracing.log));
    let mut traced = setup(mode, seed, &wf, Some(tracing.clone()));
    tracing.clear();
    let mut plain_window = Window::default();
    let mut traced_window = Window::default();
    let plain0 = plain.regime.snapshot();
    let sweep0 = traced.rabit.validator_sweep_stats();
    let narrow0 = traced.rabit.validator_narrow_checks();
    let traced0 = traced.regime.snapshot();
    let (mut unit, mut step_allocs, mut prefix) = (0u64, 0u64, None);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || unit < COUNT_PREFIX {
        for _ in 0..TRACE_BLOCK {
            plain_lap(
                &mut res,
                &mut plain,
                &wf,
                &reference,
                &mut plain_window,
                &mut allocs,
            );
        }
        for _ in 0..TRACE_BLOCK {
            unit += 1;
            let a = traced_lap(
                &mut res,
                &mut traced,
                &wf,
                &reference,
                &mut traced_window,
                &tracing,
                unit,
            );
            if unit <= COUNT_PREFIX {
                step_allocs += a;
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
    check_regime(&mut res, &plain, plain0);
    check_regime(&mut res, &traced, traced0);
    res.layer("tracer.run_us", plain_window.pooled().percentile_us(0.5));
    res.layer("bench.allocs_per_unit", allocs.1 as f64 / allocs.0 as f64);
    res.layer("bench.untraced_throughput_per_s", plain_window.throughput());
    res.layer("bench.traced_throughput_per_s", traced_window.throughput());
    res.layer(
        "core.allocs_per_step",
        step_allocs as f64 / (COUNT_PREFIX * wf.len() as u64) as f64,
    );
    let (sweep, narrow, regime) = prefix.expect("the traced pass covers the count prefix");
    sim_layers(&mut res, sweep, narrow, regime.since(&traced0));
    span_layers(&mut res, &tracing);

    // One more lap with the engine's state recorded before every step.
    if mode == Mode::Resweep {
        publish_epoch(&mut plain.rabit, &plain.rule);
    }
    let mut lab = new_lab();
    plain.rabit.initialize(&mut lab);
    let mut steps = Vec::with_capacity(wf.len());
    for command in wf.commands() {
        let before = plain.rabit.current_state().clone();
        let executed = plain.rabit.step(&mut lab, command).is_ok();
        steps.push(StepRecord {
            command: command.clone(),
            before,
            executed,
        });
    }
    replay_layers(&mut res, &plain.rabit, &steps, 40);
    replay_ik(&mut res, &tracing.records.lock().expect("records"), 20);
    res
}

/// Step and validation times from the traced pass's spans.
pub fn span_layers(res: &mut RunResult, tracing: &Tracing) {
    let log = &tracing.log;
    res.layer("core.step_us", median_us(&log.durations("core.step")));
    res.layer("core.step_self_us", median_us(&log.self_times("core.step")));
    res.layer("sim.validate_us", median_us(&log.durations("sim.validate")));
}

/// Sweep-kernel and cache counts per validation over the count prefix
/// (`sweep`, `narrow` and `regime` are deltas over it).
pub fn sim_layers(res: &mut RunResult, sweep: rabit_core::SweepStats, narrow: u64, regime: Regime) {
    let validations = regime.validations.max(1) as f64;
    let hits = regime.verdict_hits as f64;
    let growth = regime.memo_growth as f64;
    let grid = sweep.samples_checked + sweep.samples_skipped;
    res.layer("sim.cache_hit_ratio", hits / validations);
    res.layer("sim.ik_memo_growth", growth / validations);
    res.layer(
        "sim.samples_checked",
        sweep.samples_checked as f64 / validations,
    );
    res.layer(
        "sim.sample_skip_ratio",
        if grid == 0 {
            0.0
        } else {
            sweep.samples_skipped as f64 / grid as f64
        },
    );
    res.layer(
        "sim.distance_queries",
        sweep.distance_queries as f64 / validations,
    );
    res.layer("sim.narrow_checks", narrow as f64 / validations);
    res.layer(
        "sim.certificate_spans",
        sweep.certificate_spans as f64 / validations,
    );
}

/// One guarded command with the engine's state before it.
pub struct StepRecord {
    pub command: Command,
    pub before: LabState,
    pub executed: bool,
}

/// Replays recorded steps through the engine's layers one public call at
/// a time: the rule check, the expected-state transition, the lab's
/// apply and state fetch, and the expected-vs-actual diff with overlay.
pub fn replay_layers(res: &mut RunResult, rabit: &Rabit, steps: &[StepRecord], reps: usize) {
    let catalog = rabit.catalog();
    let rulebase = rabit.rulebase();
    let first_only = rabit.config().first_violation_only;
    let tolerance = rabit.config().state_tolerance;
    let mut check = Vec::new();
    let mut expected_ns = Vec::new();
    let mut apply = Vec::new();
    let mut fetch = Vec::new();
    let mut diff = Vec::new();
    for _ in 0..reps {
        for s in steps {
            let t = Instant::now();
            if first_only {
                std::hint::black_box(rulebase.check_first(&s.command, &s.before, catalog));
            } else {
                std::hint::black_box(rulebase.check(&s.command, &s.before, catalog));
            }
            check.push(t.elapsed().as_nanos() as u64);
        }
        let mut lab = new_lab();
        lab.fetch_state();
        for s in steps.iter().filter(|s| s.executed) {
            let t = Instant::now();
            let expected = transition::expected_state(catalog, &s.before, &s.command);
            expected_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let applied = lab.apply(&s.command);
            apply.push(t.elapsed().as_nanos() as u64);
            assert!(applied.is_ok(), "replayed command applies");
            let t = Instant::now();
            let actual = lab.fetch_state();
            fetch.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            let diffs = expected.diff_reported(&actual, tolerance);
            let mut current = expected;
            current.overlay(&actual);
            diff.push(t.elapsed().as_nanos() as u64);
            std::hint::black_box((diffs, current));
        }
    }
    res.layer("rulebase.check_us", median_us(&check));
    res.layer("rulebase.expected_state_us", median_us(&expected_ns));
    res.layer("core.apply_us", median_us(&apply));
    res.layer("core.fetch_state_us", median_us(&fetch));
    res.layer("devices.diff_overlay_us", median_us(&diff));
}

/// Replays `ik::solve_position` on the IK targets the validator saw,
/// seeded with the arm's pose before each motion.
pub fn replay_ik(res: &mut RunResult, records: &[ValidateRecord], reps: usize) {
    let models: Vec<_> = Testbed::simulator_arms()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let params = IkParams::default();
    let mut ns = Vec::new();
    let (mut solves, mut fails) = (0u64, 0u64);
    for _ in 0..reps {
        for r in records {
            let Some(target) = r.ik_target else { continue };
            let t = Instant::now();
            let out = solve_position(&models[r.arm], &r.start, target, &params);
            ns.push(t.elapsed().as_nanos() as u64);
            solves += 1;
            fails += u64::from(out.is_err());
        }
    }
    res.layer("kinematics.ik_solve_us", median_us(&ns));
    res.layer(
        "kinematics.ik_fail_ratio",
        if solves == 0 {
            0.0
        } else {
            fails as f64 / solves as f64
        },
    );
}
