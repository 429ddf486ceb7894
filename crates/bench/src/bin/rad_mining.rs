//! §II-A at production scale: the streaming RAD pipeline.
//!
//! The original rulebase-construction step — mine the Robot Arm Dataset
//! for the lab's conventions — is re-run here the way a deployment would
//! run it: sessions are *streamed* through [`OnlineMiner`] one command
//! at a time, never materialising a corpus, while a counting global
//! allocator proves the pipeline's memory stays `O(rules)` no matter
//! how many commands flow through. Mid-stream the lab's conventions
//! drift (dosing flips from door-closed to door-open); the decayed
//! window re-scores, logs the collapse/emergence, and the qualifying
//! rule set is promoted into a live `RuleStore` epoch that a fleet run
//! validates against.
//!
//! Writes `BENCH_rad.json` (envelope kind `"rad"`; full-mode artifacts
//! must clear the `RAD_MIN_COMMANDS` volume and
//! `RAD_MIN_COMMANDS_PER_SEC` throughput floors in the schema).
//! `--quick` streams a small corpus for CI smoke checks.
//!
//! Run with `cargo run --release -p rabit-bench --bin rad_mining`.

use rabit_bench::alloc::{peak_bytes, reset_peak};
use rabit_bench::report::render_table;
use rabit_bench::schema::{write_artifact_with_kind, RAD_MIN_COMMANDS};
use rabit_core::{Lab, Stage, Substrate};
use rabit_devices::{DeviceType, DosingDevice, RobotArm, Vial};
use rabit_geometry::{Aabb, Vec3};
use rabit_rad::{
    mine, score, LabTraceStream, MineParams, MinedRule, OnlineMiner, RadGenParams, RulePromoter,
    TraceStream, DRIFTED_TRUTH, GROUND_TRUTH,
};
use rabit_rulebase::{DeviceCatalog, DeviceMeta, Rulebase, RulebaseSnapshot, TenantId};
use rabit_service::RuleStore;
use rabit_tracer::{run_fleet_on_live, Workflow};
use rabit_util::Json;
use std::time::Instant;

#[global_allocator]
static ALLOC: rabit_bench::alloc::CountingAlloc = rabit_bench::alloc::CountingAlloc;

/// The streaming phase may not retain more than this above its baseline
/// (one session in flight + miner counters + decay bookkeeping). A
/// materialised 100M-command corpus would be gigabytes; this bound is
/// what "constant memory" means operationally.
const PEAK_DELTA_BOUND: u64 = 8 * 1024 * 1024;

/// The same mini-lab the live-CRUD suite drives: one arm, one dosing
/// device with a door, one vial — enough surface for every mined rule
/// class to fire.
struct MiniSubstrate;

impl Substrate for MiniSubstrate {
    fn name(&self) -> &str {
        "mini"
    }
    fn stage(&self) -> Stage {
        Stage::Simulator
    }
    fn build_lab(&self) -> Lab {
        Lab::new()
            .with_device(RobotArm::new(
                "viperx",
                Vec3::new(0.3, 0.0, 0.3),
                Vec3::new(0.1, -0.3, 0.2),
            ))
            .with_device(DosingDevice::new(
                "doser",
                Aabb::new(Vec3::new(0.1, 0.35, 0.0), Vec3::new(0.25, 0.55, 0.3)),
            ))
            .with_device(Vial::new("vial", Vec3::new(0.537, 0.018, 0.12)))
    }
    fn rulebase(&self) -> RulebaseSnapshot {
        Rulebase::new().into()
    }
    fn catalog(&self) -> DeviceCatalog {
        DeviceCatalog::new()
            .with(
                DeviceMeta::new("viperx", DeviceType::RobotArm)
                    .with_arm_positions(Vec3::new(0.3, 0.0, 0.3), Vec3::new(0.1, -0.3, 0.2)),
            )
            .with(DeviceMeta::new("doser", DeviceType::DosingSystem).with_door())
            .with(DeviceMeta::new("vial", DeviceType::Container))
    }
}

fn fleet_workflows() -> Vec<Workflow> {
    vec![
        Workflow::new("drift_safe")
            .set_door("doser", true)
            .dose_solid("doser", 12.0, "vial")
            .move_inside("viperx", "doser")
            .move_out("viperx")
            .set_door("doser", false),
        Workflow::new("old_habit")
            .dose_solid("doser", 12.0, "vial")
            .set_door("doser", true)
            .move_inside("viperx", "doser")
            .move_out("viperx"),
    ]
}

fn rule_table(rules: &[MinedRule]) -> String {
    let rows: Vec<Vec<String>> = rules
        .iter()
        .map(|r| {
            vec![
                r.name().to_string(),
                r.support().to_string(),
                format!("{:.1}%", r.confidence() * 100.0),
            ]
        })
        .collect();
    render_table(&["Mined rule", "Support", "Confidence"], &rows)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("§II-A — streaming rule mining from the Robot Arm Dataset\n");

    // Size the stream: full mode must clear the 100M-command floor.
    // Session length varies with the RNG (noise skips commands, drifted
    // sessions skip the re-open), so estimate from a drifted sample and
    // add headroom.
    let sampled: usize =
        TraceStream::new(&RadGenParams::new().with_sessions(100).with_drift_at(50))
            .map(|t| t.executed_commands().count())
            .sum();
    let cmds_per_session = (sampled / 100).max(1);
    let target_commands: u64 = if quick {
        200_000
    } else {
        RAD_MIN_COMMANDS as u64
    };
    let sessions = (target_commands as usize / cmds_per_session) * 11 / 10;
    let drift_at = sessions / 2;
    let params = RadGenParams::new()
        .with_sessions(sessions)
        .with_drift_at(drift_at);
    println!(
        "Stream: {sessions} sessions (~{cmds_per_session} commands each), \
         conventions drift at session {drift_at}{}",
        if quick { " [--quick]" } else { "" }
    );

    // --- Phase 1: constant-memory streaming through the drift. -------
    let mut miner = OnlineMiner::new(MineParams::default());
    let mut before_drift: Vec<MinedRule> = Vec::new();
    let baseline = reset_peak();
    let start = Instant::now();
    for (i, trace) in TraceStream::new(&params).enumerate() {
        miner.observe_trace(&trace);
        if i + 1 == drift_at {
            before_drift = miner.decayed_rules();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_delta = peak_bytes().saturating_sub(baseline);
    let commands = miner.commands_seen();
    let rate = commands as f64 / wall;

    println!(
        "\nStreamed {commands} commands in {wall:.2}s — {:.2}M commands/s, \
         peak working set {:.1} KiB above baseline",
        rate / 1e6,
        peak_delta as f64 / 1024.0
    );
    assert!(
        commands >= target_commands,
        "stream volume {commands} below target {target_commands}"
    );
    assert!(
        peak_delta <= PEAK_DELTA_BOUND,
        "streaming path retained {peak_delta} bytes (> {PEAK_DELTA_BOUND}): \
         a corpus is being materialised somewhere"
    );

    // --- Phase 2: drift scoring. -------------------------------------
    let after_drift = miner.decayed_rules();
    let (p_before, r_before) = score(&before_drift, &GROUND_TRUTH);
    let (p_after, r_after) = score(&after_drift, &DRIFTED_TRUTH);
    println!("\nDecayed window at the drift boundary (old conventions):");
    println!("{}", rule_table(&before_drift));
    println!("precision {p_before:.2} / recall {r_before:.2} vs the pre-drift truth\n");
    println!("Decayed window at end of stream (new conventions):");
    println!("{}", rule_table(&after_drift));
    println!("precision {p_after:.2} / recall {r_after:.2} vs the drifted truth");

    let collapses = miner
        .drift_events()
        .iter()
        .filter(|e| e.is_collapse())
        .count();
    let emergences = miner.drift_events().len() - collapses;
    println!("\nDrift events: {collapses} collapse(s), {emergences} emergence(s):");
    for e in miner.drift_events() {
        println!("  {e}");
    }
    assert!(
        collapses >= 1 && emergences >= 1,
        "the drift must be observed as both a collapse and an emergence"
    );

    // --- Phase 3: promotion into a live epoch the fleet validates. ---
    let tenant = TenantId::new("rad-bench");
    let store = RuleStore::new();
    store.seed_tenant(tenant.clone(), Rulebase::new());
    let outcome = RulePromoter::new(tenant.clone())
        .promote(&after_drift, &store)
        .expect("promotion against the seeded bench tenant");
    println!(
        "\nPromoted {} mined rule(s) into tenant \"{tenant}\" at epoch {}",
        outcome.created.len(),
        outcome.epoch
    );

    let sub = MiniSubstrate;
    let wfs = fleet_workflows();
    let jobs: Vec<(&dyn Substrate, &Workflow)> = wfs.iter().map(|w| (&sub as _, w)).collect();
    let fleet = run_fleet_on_live(&jobs, 2, &store, &tenant);
    let fleet_epoch = fleet.runs.first().map_or(0, |r| r.rulebase_epoch);
    assert!(
        fleet.runs.iter().all(|r| r.rulebase_epoch == outcome.epoch),
        "every fleet run must validate against the promoted epoch"
    );
    assert_eq!(
        fleet.completed_runs(),
        1,
        "the old-habit workflow is blocked by a mined rule"
    );
    println!(
        "Fleet on the live store: {}/{} runs completed at rulebase epoch {fleet_epoch} \
         (the old-convention workflow is blocked by the promoted rules)",
        fleet.completed_runs(),
        fleet.runs.len()
    );

    // --- Cross-check: the batch facade and the lab-captured stream. --
    let small = RadGenParams::new();
    let batch = mine(&rabit_rad::generate_corpus(&small), &MineParams::default());
    let (p_batch, r_batch) = score(&batch, &GROUND_TRUTH);
    let lab_sessions = if quick { 10 } else { 60 };
    let mut lab_miner = OnlineMiner::new(MineParams::default());
    for trace in LabTraceStream::new(lab_sessions, 11) {
        lab_miner.observe_trace(&trace);
    }
    let lab_rules = lab_miner.rules();
    let (p_lab, r_lab) = score(&lab_rules, &GROUND_TRUTH);
    println!(
        "\nBatch facade on the default corpus: {} rules, precision {p_batch:.2} / recall \
         {r_batch:.2}\nLab-captured stream (pass-through RATracer on the testbed, \
         {lab_sessions} sessions): {} rules, precision {p_lab:.2} / recall {r_lab:.2}",
        batch.len(),
        lab_rules.len(),
    );

    let config = Json::obj([
        ("quick_mode", Json::Bool(quick)),
        ("sessions", Json::Num(sessions as f64)),
        ("drift_at", Json::Num(drift_at as f64)),
        ("noise_rate", Json::Num(params.noise_rate)),
        ("seed", Json::Num(params.seed as f64)),
    ]);
    let results = Json::obj([
        ("commands", Json::Num(commands as f64)),
        ("commands_per_sec", Json::Num(rate)),
        ("wall_seconds", Json::Num(wall)),
        ("peak_live_bytes", Json::Num(peak_delta as f64)),
        ("rules_mined", Json::Num(after_drift.len() as f64)),
        ("precision_before_drift", Json::Num(p_before)),
        ("recall_before_drift", Json::Num(r_before)),
        ("precision_after_drift", Json::Num(p_after)),
        ("recall_after_drift", Json::Num(r_after)),
        ("drift_collapses", Json::Num(collapses as f64)),
        ("drift_emergences", Json::Num(emergences as f64)),
        ("promoted_epoch", Json::Num(outcome.epoch as f64)),
        ("fleet_rulebase_epoch", Json::Num(fleet_epoch as f64)),
    ]);
    write_artifact_with_kind("rad", "rad", config, results);
}
