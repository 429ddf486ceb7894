//! Sample statistics and the per-run result every workload returns.

use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest timed samples a run accepts, and the block size of the p99:
/// each block's p99 has ten samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up rounds per run.
const ROUNDS: usize = 5;

/// Splits a run's measuring time into rounds. Each round sets the
/// workload up afresh and then measures for its share of the time, so a
/// run reports a median set-up time over several independently built
/// engines. The p50 and the throughput are taken over every sample of the
/// run; the p99 is described at [`Window`].
pub struct Rounds {
    pub count: usize,
    pub per_round: Duration,
    /// Fewest sample units a round measures, so the run reaches
    /// `MIN_SAMPLES` whatever its speed.
    pub min_units: u64,
}

impl Rounds {
    pub fn new(seconds: f64) -> Self {
        Rounds {
            count: ROUNDS,
            per_round: Duration::from_secs_f64(seconds / ROUNDS as f64),
            min_units: (MIN_SAMPLES as u64).div_ceil(ROUNDS as u64),
        }
    }
}

/// Latency samples in nanoseconds. Values below 2^16 ns are kept as
/// exact counts, larger ones as a list, so millions of sub-microsecond
/// samples cost a fixed 256 KiB and percentiles stay exact.
#[derive(Default, Clone)]
pub struct Samples {
    small: Vec<u32>,
    large: Vec<u64>,
    len: u64,
}

const SMALL_NS: usize = 1 << 16;

impl Samples {
    pub fn push(&mut self, ns: u64) {
        match usize::try_from(ns) {
            Ok(i) if i < SMALL_NS => {
                if self.small.is_empty() {
                    self.small = vec![0; SMALL_NS];
                }
                self.small[i] += 1;
            }
            _ => self.large.push(ns),
        }
        self.len += 1;
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn merge(&mut self, other: &Samples) {
        if !other.small.is_empty() {
            if self.small.is_empty() {
                self.small = vec![0; SMALL_NS];
            }
            for (a, b) in self.small.iter_mut().zip(&other.small) {
                *a += b;
            }
        }
        self.large.extend_from_slice(&other.large);
        self.len += other.len;
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) in microseconds; 0 for
    /// no samples.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((q * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0u64;
        for (ns, &count) in self.small.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as f64 / 1e3;
            }
        }
        self.large.sort_unstable();
        self.large[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

/// Median of per-item nanosecond timings, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let mut s = Samples::default();
    ns.iter().for_each(|&n| s.push(n));
    s.percentile_us(0.5)
}

/// One round of a run's timed window.
#[derive(Default)]
pub struct Round {
    /// Sample latencies, one per sample unit.
    pub samples: Samples,
    /// Work units completed (the throughput numerator).
    pub work: u64,
    /// Wall time over which `work` was done.
    pub busy: Duration,
}

/// The timed window of one run, round by round.
///
/// Its p99 is the median of the p99s of consecutive blocks of
/// `MIN_SAMPLES` samples. On a shared host, interference comes in bursts
/// of a second or so that slow every unit they overlap; over the whole
/// run's samples, one burst would set the tail. A block's p99 still
/// counts its own slowest units, ten beyond it.
#[derive(Default)]
pub struct Window {
    pub rounds: Vec<Round>,
    block: Vec<u64>,
    block_p99_us: Vec<f64>,
}

impl Window {
    /// Starts a new round.
    pub fn start_round(&mut self) {
        self.rounds.push(Round::default());
    }

    pub fn current(&mut self) -> &mut Round {
        if self.rounds.is_empty() {
            self.start_round();
        }
        self.rounds.last_mut().expect("a round exists")
    }

    /// Times one sample unit that also completes `work` work units.
    pub fn time<R>(&mut self, work: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        self.push(d.as_nanos() as u64);
        let round = self.current();
        round.busy += d;
        round.work += work;
        r
    }

    /// Records one sample unit's latency.
    pub fn push(&mut self, ns: u64) {
        self.current().samples.push(ns);
        self.block.push(ns);
        if self.block.len() == MIN_SAMPLES {
            let (_, p99, _) = self.block.select_nth_unstable(MIN_SAMPLES * 99 / 100 - 1);
            self.block_p99_us.push(*p99 as f64 / 1e3);
            self.block.clear();
        }
    }

    /// The median of the full blocks' p99s; 0 before the first block.
    pub fn p99_us(&self) -> f64 {
        if self.block_p99_us.is_empty() {
            0.0
        } else {
            median(&self.block_p99_us)
        }
    }

    pub fn work(&self) -> u64 {
        self.rounds.iter().map(|r| r.work).sum()
    }

    pub fn busy(&self) -> Duration {
        self.rounds.iter().map(|r| r.busy).sum()
    }

    pub fn samples(&self) -> u64 {
        self.rounds.iter().map(|r| r.samples.len()).sum()
    }

    /// Work units per second of timed window.
    pub fn throughput(&self) -> f64 {
        self.work() as f64 / self.busy().as_secs_f64()
    }

    /// All rounds' samples together.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for r in &self.rounds {
            all.merge(&r.samples);
        }
        all
    }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness and regime-guard failures, by description.
    pub problems: Vec<String>,
    pub setup_s: Vec<f64>,
    pub window: Window,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced pass, written out at exit.
    pub spans: Option<Arc<SpanLog>>,
    /// Most threads seen alive during the run.
    pub threads_peak: usize,
}

impl RunResult {
    /// Records a correctness or regime failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads alive in this process (`Threads` in `/proc/self/status`).
pub fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
