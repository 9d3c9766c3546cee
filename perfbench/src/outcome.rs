//! What one workload run measured and checked.

use crate::host::HostRefs;
use crate::probe::Probe;
use crate::stats::{median, quartile_spread, tail};

/// One measured metric: a value, how many samples it summarises, and the
/// samples' interquartile range over their median (0 where there is only
/// one value).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
    pub spread: f64,
    /// The same code on the same inputs gives exactly this value again:
    /// a count, or a modelled (virtual-time) quantity. Anything derived
    /// from wall time is not exact.
    pub exact: bool,
}

impl Metric {
    /// The median of timed `samples`.
    pub fn median(name: &str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            value: median(samples),
            samples: samples.len(),
            spread: quartile_spread(samples),
            exact: false,
        }
    }

    /// A single value derived from wall times, such as a ratio of two
    /// totals.
    pub fn timed(name: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            samples,
            spread: 0.0,
            exact: false,
        }
    }

    /// A value that repeats exactly: a count or a modelled quantity.
    pub fn exact(name: &str, value: f64, samples: usize) -> Metric {
        Metric {
            exact: true,
            ..Metric::timed(name, value, samples)
        }
    }
}

/// Operations attempted and the checks they failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    const KEEP: usize = 16;

    /// Records one operation and the problems found with it, if any.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = Self::KEEP.saturating_sub(self.failures.len());
            self.failures.extend(problems.into_iter().take(room));
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    /// How the inputs were made from the seed.
    pub inputs: String,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Percentile reported as `op_s_tail`, when the run had enough samples.
    pub tail_q: Option<u32>,
    pub host: HostRefs,
}

impl Outcome {
    pub fn new(workload: &str, inputs: String, host: HostRefs) -> Outcome {
        Outcome {
            workload: workload.into(),
            inputs,
            checks: Checks::default(),
            metrics: Vec::new(),
            tail_q: None,
            host,
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Counts each cold set-up probe as one operation and records
    /// `setup_s`, the median over the probes that passed.
    pub fn setup(&mut self, probes: &[Probe]) {
        for p in probes {
            self.checks.op(p.problems.clone());
        }
        let ok: Vec<f64> = probes
            .iter()
            .filter(|p| p.problems.is_empty())
            .map(|p| p.setup_s)
            .collect();
        if !ok.is_empty() {
            self.push(Metric::median("setup_s", &ok));
        }
    }

    /// The host references as per-layer metrics.
    pub fn host_metrics(&mut self) {
        let (memcpy, serial) = (self.host.memcpy_gbs, self.host.serial_s);
        self.push(Metric::timed("host.memcpy_gbs", memcpy, 1));
        self.push(Metric::timed("host.serial_s", serial, 1));
    }

    /// Records the per-operation wall times: `op_s_p50` and, when at least
    /// 20 samples allow it, `op_s_tail`.
    pub fn ops(&mut self, times: &[f64]) {
        if times.is_empty() {
            return;
        }
        self.push(Metric::median("op_s_p50", times));
        if let Some((q, v)) = tail(times) {
            self.tail_q = Some(q);
            self.push(Metric::timed("op_s_tail", v, times.len()));
        }
    }

    /// `1 − failed / attempted`: the share of operations that passed every
    /// check.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }
}
