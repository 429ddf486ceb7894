//! `rule_churn`: one `ServiceBroker` worker commits net-zero CRUD rounds
//! across six tenants while the main thread, with one batch in flight,
//! issues live reads (`RuleStore::snapshot_for` + `Rulebase::check`)
//! against the same tenants.

use crate::alloc;
use crate::guard::{new_lab, COUNT_PREFIX};
use crate::stats::{live_threads, percentile, Rounds, RunResult, Samples, Window, MIN_SAMPLES};
use rabit_core::Rabit;
use rabit_devices::{ActionKind, Command, LabState};
use rabit_rulebase::{DeviceCatalog, Rule, RuleId, Rulebase, TenantId};
use rabit_service::{
    CreateRuleRequest, RuleCommand, RuleOp, RuleStore, ServiceBroker, UpdateRuleRequest,
};
use rabit_testbed::{rulebase_for, workflows, RabitStage, Testbed};
use rabit_util::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 6;
/// CRUD rounds per tenant in one submitted batch (five commands each).
const ROUNDS_PER_BATCH: usize = 4;
/// Live reads between two polls of the tenants' epochs.
const READS_PER_POLL: usize = 8;
/// Length of each untraced or traced slice of a traced run.
const TRACE_SLICE: Duration = Duration::from_millis(20);

/// A read fixture: a command, the engine state it is checked against,
/// and the rule ids the seeded rulebase raises on it.
struct Fixture {
    command: Command,
    state: LabState,
    expected: Vec<RuleId>,
}

/// The fig5 workflow's commands with the engine state before each (all
/// pass), plus a command the door rule blocks.
fn fixtures(catalog: &DeviceCatalog, rulebase: &Rulebase) -> Vec<Fixture> {
    let tb = Testbed::new();
    let wf = workflows::fig5_safe_workflow(&tb.locations);
    let mut rabit = Rabit::new(rulebase.clone(), catalog.clone(), Default::default());
    let mut lab = new_lab();
    rabit.initialize(&mut lab);
    let mut out = Vec::new();
    let mut push = |command: Command, state: LabState| {
        let expected = rulebase
            .check(&command, &state, catalog)
            .iter()
            .map(|v| v.rule.clone())
            .collect();
        out.push(Fixture {
            command,
            state,
            expected,
        });
    };
    push(
        Command::new(
            "viperx",
            ActionKind::MoveInsideDevice {
                device: "dosing_device".into(),
            },
        ),
        rabit.current_state().clone(),
    );
    for command in wf.commands() {
        let state = rabit.current_state().clone();
        rabit.step(&mut lab, command).expect("fig5 is safe");
        push(command.clone(), state);
    }
    out
}

fn staged_rule(name: &str) -> Rule {
    Rule::new(
        RuleId::Custom(name.to_string()),
        "staged by guardbench",
        |_, _, _| None,
    )
}

/// One net-zero round for a tenant: create a staged rule (disabled),
/// disable a general rule, enable the staged rule, re-enable the general
/// rule, remove the staged rule.
fn round_commands(tenant: &TenantId, round: u64, toggled: &RuleId) -> [RuleCommand; 5] {
    let name = format!("staged-{round}");
    [
        RuleCommand::new(
            tenant.clone(),
            RuleOp::Create(CreateRuleRequest::new(staged_rule(&name)).disabled()),
        ),
        RuleCommand::new(tenant.clone(), RuleOp::Disable(toggled.clone())),
        RuleCommand::new(
            tenant.clone(),
            RuleOp::Update(
                RuleId::Custom(name.clone()),
                UpdateRuleRequest::new().with_enabled(true),
            ),
        ),
        RuleCommand::new(tenant.clone(), RuleOp::Enable(toggled.clone())),
        RuleCommand::new(tenant.clone(), RuleOp::Remove(RuleId::Custom(name))),
    ]
}

struct Service {
    store: Arc<RuleStore>,
    broker: ServiceBroker,
    tenants: Vec<TenantId>,
    catalog: DeviceCatalog,
    seeded: Vec<(RuleId, bool)>,
    fixtures: Vec<Fixture>,
    /// Rules the rounds may toggle: none raises on any fixture.
    toggles: Vec<RuleId>,
    rng: Rng,
    next_round: u64,
    /// Commits each tenant's receipts must continue from.
    epochs: Vec<u64>,
}

fn rule_table(rulebase: &Rulebase) -> Vec<(RuleId, bool)> {
    rulebase
        .rules()
        .iter()
        .map(|r| (r.id().clone(), rulebase.is_enabled(r.id()).unwrap_or(false)))
        .collect()
}

fn setup(seed: u64) -> Service {
    let rulebase = rulebase_for(RabitStage::Modified);
    let catalog = Testbed::build_catalog();
    let fixtures = fixtures(&catalog, &rulebase);
    let toggles: Vec<RuleId> = rulebase
        .rules()
        .iter()
        .map(|r| r.id().clone())
        .filter(|id| !fixtures.iter().any(|f| f.expected.contains(id)))
        .collect();
    assert!(
        !toggles.is_empty(),
        "some rule never raises on the fixtures"
    );
    let store = Arc::new(RuleStore::new());
    let tenants: Vec<TenantId> = (0..TENANTS)
        .map(|i| TenantId::new(format!("lab{i}")))
        .collect();
    for t in &tenants {
        store.seed_tenant(t.clone(), rulebase.clone());
    }
    let broker = ServiceBroker::new(Arc::clone(&store), 1);
    Service {
        store,
        broker,
        tenants,
        catalog,
        seeded: rule_table(&rulebase),
        fixtures,
        toggles,
        rng: Rng::seed_from_u64(seed ^ 0x5E4_u64),
        next_round: 0,
        epochs: vec![rabit_rulebase::STATIC_EPOCH; TENANTS],
    }
}

impl Service {
    /// The next batch: `ROUNDS_PER_BATCH` rounds for every tenant, each
    /// round toggling a seeded rule.
    fn next_batch(&mut self) -> Vec<RuleCommand> {
        let mut batch = Vec::with_capacity(TENANTS * ROUNDS_PER_BATCH * 5);
        for _ in 0..ROUNDS_PER_BATCH {
            let round = self.next_round;
            self.next_round += 1;
            for t in &self.tenants {
                let toggled = &self.toggles[self.rng.random_range(0..self.toggles.len())];
                batch.extend(round_commands(t, round, toggled));
            }
        }
        batch
    }

    fn batch_landed(&self, targets: &[u64]) -> bool {
        self.tenants
            .iter()
            .zip(targets)
            .all(|(t, &e)| self.store.epoch_of(t).expect("seeded tenant") >= e)
    }

    /// Checks a batch's receipts: every command committed, and each
    /// tenant's epochs advance by exactly one per commit.
    fn check_receipts(
        &mut self,
        res: &mut RunResult,
        batch: &[RuleCommand],
        receipts: Vec<Result<rabit_service::RuleCommit, rabit_service::ServiceError>>,
    ) {
        res.attempted += batch.len() as u64;
        if receipts.len() != batch.len() {
            res.failed += batch.len() as u64;
            res.problems.push(format!(
                "{} receipts for {} commands",
                receipts.len(),
                batch.len()
            ));
            return;
        }
        for (command, receipt) in batch.iter().zip(receipts) {
            let i = self
                .tenants
                .iter()
                .position(|t| *t == command.tenant)
                .expect("batch tenants are seeded");
            match receipt {
                Ok(commit) if commit.epoch == self.epochs[i] + 1 => self.epochs[i] += 1,
                other => {
                    res.failed += 1;
                    if res.problems.len() < 8 {
                        res.problems.push(format!("unexpected receipt {other:?}"));
                    }
                }
            }
        }
    }

    /// After the window: epochs equal the commits counted, and every
    /// tenant's rulebase is the seeded one again.
    fn check_final(&self, res: &mut RunResult) {
        for (i, t) in self.tenants.iter().enumerate() {
            let epoch = self.store.epoch_of(t).expect("seeded tenant");
            res.require(epoch == self.epochs[i], || {
                format!(
                    "{t}: epoch {epoch}, but {} commits were receipted",
                    self.epochs[i]
                )
            });
            let snapshot = self.store.snapshot_for(t).expect("seeded tenant");
            res.require(rule_table(&snapshot) == self.seeded, || {
                format!("{t}: final rulebase differs from the seeded one")
            });
        }
    }
}

/// What one pass of the churn loop measured besides its window.
#[derive(Default)]
struct PassStats {
    snapshot: Samples,
    check: Samples,
}

/// The churn loop: submit a batch, issue live reads until it has
/// landed, collect its receipts, repeat. With `split`, the snapshot and
/// the check of each read are timed separately (traced pass).
fn churn(
    res: &mut RunResult,
    svc: &mut Service,
    budget: Duration,
    min_reads: u64,
    window: &mut Window,
    allocs: &mut (u64, u64),
    mut split: Option<&mut PassStats>,
) {
    let t0 = Instant::now();
    let mut reads = 0u64;
    let mut fixture = 0usize;
    let mut threads_peak = 0;
    while t0.elapsed() < budget || reads < min_reads {
        let batch = svc.next_batch();
        let targets: Vec<u64> = svc
            .epochs
            .iter()
            .map(|e| e + (ROUNDS_PER_BATCH * 5) as u64)
            .collect();
        let ticket = svc.broker.submit_batch(&batch);
        threads_peak = threads_peak.max(live_threads());
        loop {
            for _ in 0..READS_PER_POLL {
                let f = &svc.fixtures[fixture % svc.fixtures.len()];
                let tenant = &svc.tenants[fixture % TENANTS];
                fixture += 1;
                let a0 = alloc::thread_allocs();
                let ok = match split.as_deref_mut() {
                    None => {
                        let t = Instant::now();
                        let snapshot = svc.store.snapshot_for(tenant).expect("seeded tenant");
                        let v = snapshot.check(&f.command, &f.state, &svc.catalog);
                        window.push(t.elapsed().as_nanos() as u64);
                        v.iter().map(|v| &v.rule).eq(f.expected.iter())
                    }
                    Some(pass) => {
                        let t = Instant::now();
                        let snapshot = svc.store.snapshot_for(tenant).expect("seeded tenant");
                        let t1 = Instant::now();
                        let v = snapshot.check(&f.command, &f.state, &svc.catalog);
                        let t2 = Instant::now();
                        pass.snapshot.push((t1 - t).as_nanos() as u64);
                        pass.check.push((t2 - t1).as_nanos() as u64);
                        window.push((t2 - t).as_nanos() as u64);
                        v.iter().map(|v| &v.rule).eq(f.expected.iter())
                    }
                };
                let a1 = alloc::thread_allocs();
                if allocs.0 < COUNT_PREFIX {
                    allocs.0 += 1;
                    allocs.1 += a1 - a0;
                }
                reads += 1;
                res.attempted += 1;
                if !ok {
                    res.failed += 1;
                }
            }
            if svc.batch_landed(&targets) {
                break;
            }
        }
        let receipts = ticket.wait();
        svc.check_receipts(res, &batch, receipts);
        window.current().work += batch.len() as u64;
    }
    window.current().busy += t0.elapsed();
    res.threads_peak = res.threads_peak.max(threads_peak);
}

fn check_threads(res: &mut RunResult) {
    let peak = res.threads_peak;
    res.require(peak <= 2, || {
        format!("rule_churn ran {peak} threads; at most 2 allowed")
    });
}

pub fn run(seed: u64, seconds: f64, trace: bool, started: Instant) -> RunResult {
    let mut res = RunResult::default();
    let mut allocs = (0, 0);
    if !trace {
        let rounds = Rounds::new(seconds);
        let mut window = Window::default();
        for round in 0..rounds.count {
            let t = if round == 0 { started } else { Instant::now() };
            let mut svc = setup(seed.wrapping_add(round as u64));
            res.setup_s.push(t.elapsed().as_secs_f64());
            window.start_round();
            churn(
                &mut res,
                &mut svc,
                rounds.per_round,
                rounds.min_units,
                &mut window,
                &mut allocs,
                None,
            );
            svc.check_final(&mut res);
        }
        res.window = window;
        check_threads(&mut res);
        return res;
    }

    // Traced run: untraced and traced slices in turn (the traced ones
    // time snapshot and check apart), so both see the same host
    // conditions; then a commit pass with no reads (submit → wait).
    let mut svc = setup(seed);
    res.setup_s.push(started.elapsed().as_secs_f64());
    let mut untraced = Window::default();
    let mut traced = Window::default();
    let mut pass = PassStats::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds / 2.0 {
        churn(
            &mut res,
            &mut svc,
            TRACE_SLICE,
            COUNT_PREFIX,
            &mut untraced,
            &mut allocs,
            None,
        );
        churn(
            &mut res,
            &mut svc,
            TRACE_SLICE,
            COUNT_PREFIX,
            &mut traced,
            &mut (0, 0),
            Some(&mut pass),
        );
    }
    res.layer("bench.allocs_per_unit", allocs.1 as f64 / allocs.0 as f64);
    res.layer("bench.untraced_throughput_per_s", untraced.throughput());
    res.layer("bench.traced_throughput_per_s", traced.throughput());
    res.layer("service.snapshot_us", pass.snapshot.percentile_us(0.5));
    res.layer("rulebase.check_us", pass.check.percentile_us(0.5));

    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let stats0 = svc.broker.stats();
    let mut commit_us = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < quarter || commit_us.len() < MIN_SAMPLES {
        let batch = svc.next_batch();
        let t = Instant::now();
        let receipts = svc.broker.submit_batch(&batch).wait();
        commit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        svc.check_receipts(&mut res, &batch, receipts);
    }
    let stats = svc.broker.stats();
    commit_us.sort_by(f64::total_cmp);
    let batches = commit_us.len() as f64;
    res.layer("service.commit_p50_us", percentile(&commit_us, 0.5));
    res.layer("service.commit_p99_us", percentile(&commit_us, 0.99));
    res.layer(
        "service.cmds_per_commit",
        (stats.committed - stats0.committed) as f64
            / (stats.batches - stats0.batches).max(1) as f64,
    );
    res.layer(
        "service.worker_parks",
        (stats.worker_parks - stats0.worker_parks) as f64 / batches,
    );
    svc.check_final(&mut res);
    check_threads(&mut res);
    res
}
