//! Tracing for the traced run: spans kept in memory, and a validator
//! wrapper that records the simulator's `validate` spans nested in the
//! engine's `Rabit::step` spans.

use rabit_core::{
    Alert, Lab, Rabit, StepOutcome, SweepStats, TrajectoryValidator, TrajectoryVerdict,
};
use rabit_devices::{ActionKind, Command, LabState, StateKey};
use rabit_geometry::Vec3;
use rabit_kinematics::JointConfig;
use rabit_sim::ExtendedSimulator;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval at a layer boundary. Spans of one sample unit
/// share `unit`; `parent` is the id of the span that caused this one
/// (0 for roots).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log of fixed capacity, written out once at exit.
/// It keeps the first `capacity` spans and drops later ones.
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    capacity: usize,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            capacity,
            spans: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent span is closed).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        if spans.len() < self.capacity {
            spans.push(span);
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time (ns) of every span named `name`: its duration minus the
    /// time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = std::collections::BTreeMap::<u64, u64>::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.duration_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.unit, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Validations whose IK targets a traced run keeps for the kinematics
/// replay.
pub const VALIDATE_RECORDS: usize = 48;

/// What the wrapper saw of one validation, for the kinematics replay.
#[derive(Debug, Clone, Copy)]
pub struct ValidateRecord {
    /// Index of the arm in the testbed's simulator arm list.
    pub arm: usize,
    /// The arm's mirrored configuration before the motion (the IK seed).
    pub start: JointConfig,
    /// The Cartesian IK target, for goals that need IK.
    pub ik_target: Option<Vec3>,
}

/// The engine's current step span, set by the benchmark loop before each
/// `Rabit::step` so `validate` spans can name their parent.
#[derive(Default)]
pub struct StepCursor {
    pub step: AtomicU64,
    pub unit: AtomicU64,
}

/// Cache behaviour of every validation, for the regime guards.
#[derive(Default)]
pub struct RegimeCounters {
    pub validations: AtomicU64,
    pub verdict_hits: AtomicU64,
    /// Validations that added an IK-memo entry (an IK-memo miss).
    pub memo_misses: AtomicU64,
    /// IK-memo entries added in total.
    pub memo_growth: AtomicU64,
}

impl RegimeCounters {
    pub fn snapshot(&self) -> Regime {
        Regime {
            validations: self.validations.load(Ordering::Relaxed),
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            memo_growth: self.memo_growth.load(Ordering::Relaxed),
        }
    }
}

/// A reading of [`RegimeCounters`], or the difference of two.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    pub validations: u64,
    pub verdict_hits: u64,
    pub memo_misses: u64,
    pub memo_growth: u64,
}

impl Regime {
    pub fn since(&self, before: &Regime) -> Regime {
        Regime {
            validations: self.validations - before.validations,
            verdict_hits: self.verdict_hits - before.verdict_hits,
            memo_misses: self.memo_misses - before.memo_misses,
            memo_growth: self.memo_growth - before.memo_growth,
        }
    }
}

/// Span recording for a traced pass, shared by the benchmark loop and the
/// validator probe.
#[derive(Clone)]
pub struct Tracing {
    pub log: Arc<SpanLog>,
    pub cursor: Arc<StepCursor>,
    pub records: Arc<Mutex<Vec<ValidateRecord>>>,
}

impl Tracing {
    pub fn new(capacity: usize) -> Self {
        Tracing {
            log: SpanLog::with_capacity(capacity),
            cursor: Arc::new(StepCursor::default()),
            records: Arc::new(Mutex::new(Vec::with_capacity(VALIDATE_RECORDS))),
        }
    }

    /// Drops what set-up recorded, so the traced pass starts clean.
    pub fn clear(&self) {
        self.log.spans.lock().expect("span log poisoned").clear();
        self.records
            .lock()
            .expect("validate records poisoned")
            .clear();
    }

    /// One guarded step as a `core.step` span; the probe nests its
    /// `sim.validate` span inside.
    #[allow(clippy::result_large_err)]
    pub fn step(
        &self,
        rabit: &mut Rabit,
        lab: &mut Lab,
        command: &Command,
        unit: u64,
    ) -> Result<StepOutcome, Alert> {
        let id = self.log.next_id();
        self.cursor.step.store(id, Ordering::Relaxed);
        self.cursor.unit.store(unit, Ordering::Relaxed);
        let start_ns = self.log.now_ns();
        let out = rabit.step(lab, command);
        let end_ns = self.log.now_ns();
        self.log.record(Span {
            id,
            parent: 0,
            unit,
            name: "core.step",
            start_ns,
            end_ns,
        });
        out
    }
}

/// Wraps the Extended Simulator, forwarding every trait method so its
/// counters stay intact. It counts cache behaviour per validation for
/// the regime guards and, when tracing, records a `sim.validate` span
/// nested in the current step span.
pub struct ProbedValidator {
    inner: ExtendedSimulator,
    arms: Vec<rabit_devices::DeviceId>,
    regime: Arc<RegimeCounters>,
    tracing: Option<Tracing>,
}

impl ProbedValidator {
    pub fn new(
        inner: ExtendedSimulator,
        arms: Vec<rabit_devices::DeviceId>,
        regime: Arc<RegimeCounters>,
        tracing: Option<Tracing>,
    ) -> Self {
        ProbedValidator {
            inner,
            arms,
            regime,
            tracing,
        }
    }
}

/// The Cartesian target the simulator hands to IK for this command, if
/// its goal is positional (mirrors the simulator's goal resolution).
pub fn ik_target(command: &Command, state: &LabState) -> Option<Vec3> {
    match &command.action {
        ActionKind::MoveToLocation { target } => Some(*target),
        ActionKind::PickObject { object } | ActionKind::PlaceObject { object, into: None } => state
            .get(object, &StateKey::Location)
            .and_then(|v| v.as_position()),
        ActionKind::PlaceObject {
            into: Some(device), ..
        }
        | ActionKind::MoveInsideDevice { device } => state
            .get(device, &StateKey::Footprint)
            .and_then(|v| v.as_box())
            .map(|fp| {
                let c = fp.center();
                Vec3::new(c.x, c.y, fp.max().z + 0.05)
            }),
        _ => None,
    }
}

impl TrajectoryValidator for ProbedValidator {
    fn validate(&mut self, command: &Command, state: &LabState) -> TrajectoryVerdict {
        let memo_before = self.inner.ik_cache_len();
        let hits_before = self.inner.cache_hits();
        let start = self.inner.arm_configuration(&command.actor);
        let verdict = match &self.tracing {
            None => self.inner.validate(command, state),
            Some(t) => {
                let id = t.log.next_id();
                let start_ns = t.log.now_ns();
                let verdict = self.inner.validate(command, state);
                let end_ns = t.log.now_ns();
                t.log.record(Span {
                    id,
                    parent: t.cursor.step.load(Ordering::Relaxed),
                    unit: t.cursor.unit.load(Ordering::Relaxed),
                    name: "sim.validate",
                    start_ns,
                    end_ns,
                });
                verdict
            }
        };
        let memo_after = self.inner.ik_cache_len();
        // The memo is cleared wholesale when full.
        let growth = if memo_after >= memo_before {
            (memo_after - memo_before) as u64
        } else {
            memo_after as u64
        };
        let hit = self.inner.cache_hits() > hits_before;
        let r = &self.regime;
        r.validations.fetch_add(1, Ordering::Relaxed);
        r.verdict_hits.fetch_add(u64::from(hit), Ordering::Relaxed);
        r.memo_misses
            .fetch_add(u64::from(growth > 0), Ordering::Relaxed);
        r.memo_growth.fetch_add(growth, Ordering::Relaxed);
        if let Some(t) = &self.tracing {
            let arm = self.arms.iter().position(|a| *a == command.actor);
            let mut records = t.records.lock().expect("validate records poisoned");
            if let (Some(arm), Some(start), true) = (arm, start, records.len() < VALIDATE_RECORDS) {
                records.push(ValidateRecord {
                    arm,
                    start,
                    ik_target: ik_target(command, state),
                });
            }
        }
        verdict
    }

    fn note_rulebase_epoch(&mut self, epoch: u64) {
        self.inner.note_rulebase_epoch(epoch);
    }

    fn check_latency_s(&self) -> f64 {
        TrajectoryValidator::check_latency_s(&self.inner)
    }

    fn narrow_checks_performed(&self) -> u64 {
        TrajectoryValidator::narrow_checks_performed(&self.inner)
    }

    fn cache_hits(&self) -> u64 {
        TrajectoryValidator::cache_hits(&self.inner)
    }

    fn cache_misses(&self) -> u64 {
        TrajectoryValidator::cache_misses(&self.inner)
    }

    fn samples_checked(&self) -> u64 {
        TrajectoryValidator::samples_checked(&self.inner)
    }

    fn samples_skipped(&self) -> u64 {
        TrajectoryValidator::samples_skipped(&self.inner)
    }

    fn distance_queries(&self) -> u64 {
        TrajectoryValidator::distance_queries(&self.inner)
    }

    fn distance_evals_batched(&self) -> u64 {
        TrajectoryValidator::distance_evals_batched(&self.inner)
    }

    fn certificate_spans(&self) -> u64 {
        TrajectoryValidator::certificate_spans(&self.inner)
    }

    fn sweep_stats(&self) -> SweepStats {
        self.inner.sweep_stats()
    }
}
