//! `service_overload`: four tenants submit 24 jobs of 256³ on p = 16 (UMD
//! model) in an open loop of virtual arrivals at twice the service rate,
//! each with a deadline of 1.5× its isolated time.

use crate::host::simulated_refs;
use crate::outcome::{Metric, Outcome};
use crate::probe::Probe;
use cfft::Direction;
use fft3d::{JobSpec, ProblemSpec, Service, ServiceConfig, ServiceReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::model::umd_cluster;
use std::time::Instant;

const N: usize = 256;
const RANKS: usize = 16;
const JOBS: usize = 24;
const TENANTS: usize = 4;
/// Arrival jitter, as a share of the mean inter-arrival gap.
const JITTER: f64 = 0.25;

fn service() -> Service {
    Service::new(ServiceConfig::new(umd_cluster(), RANKS))
}

fn template() -> JobSpec {
    JobSpec::new(0, ProblemSpec::cube(N, 1), Direction::Forward)
}

/// The submissions for `seed`: one every `iso / 2` (twice the rate one
/// job at a time could sustain), each moved by up to ±25% of that gap.
pub fn jobs(iso: f64, seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gap = iso * 0.5;
    (0..JOBS)
        .map(|i| {
            let at = i as f64 * gap + rng.gen_range(-JITTER..JITTER) * gap;
            JobSpec::new(i % TENANTS, ProblemSpec::cube(N, 1), Direction::Forward)
                .with_priority((i % 3) as u8)
                .with_deadline(iso * 1.5)
                .at(at.max(0.0))
        })
        .collect()
}

/// The service bench's acceptance gate: load is shed, accepted jobs keep
/// p99 slowdown ≤ 1.5×, and tenants are treated alike (Jain ≥ 0.9).
fn gate(rep: &ServiceReport) -> Vec<String> {
    let ok = rep.completed() > 0
        && rep.rejected() > 0
        && rep.slowdown.p99 <= 1.5 + 1e-9
        && rep.jain >= 0.9;
    if ok {
        Vec::new()
    } else {
        vec![format!(
            "gate failed: {} completed, {} rejected, p99 slowdown {:.3}, Jain {:.3}",
            rep.completed(),
            rep.rejected(),
            rep.slowdown.p99,
            rep.jain
        )]
    }
}

/// The report fields a repeat of the same scenario must reproduce.
fn summary(rep: &ServiceReport) -> (usize, usize, usize, usize, u64, u64, u64) {
    (
        rep.completed(),
        rep.rejected(),
        rep.cancelled(),
        rep.plan_reuses,
        rep.slowdown.p99.to_bits(),
        rep.jain.to_bits(),
        rep.makespan.to_bits(),
    )
}

/// One cold set-up in this (fresh) process: `Service::new` plus the
/// `isolated_run` of the template job.
pub fn probe() -> Probe {
    let t0 = Instant::now();
    let iso = service().isolated_run(&template());
    let setup_s = t0.elapsed().as_secs_f64();
    let problems = match iso {
        Ok(run) if run.time.is_finite() && run.time > 0.0 => Vec::new(),
        Ok(run) => vec![format!("isolated time {}", run.time)],
        Err(e) => vec![format!("template job infeasible: {e}")],
    };
    Probe {
        setup_s,
        problems,
        ..Probe::default()
    }
}

/// Runs the scenario repeatedly until `until` (at least once).
pub fn run(seed: u64, until: Instant, probes: &[Probe], traced: bool) -> Outcome {
    let mut out = Outcome::new(
        "service_overload",
        format!(
            "{JOBS} jobs of {N}^3 from {TENANTS} tenants every iso/2 of virtual time, \
             arrivals jittered by up to +-{JITTER} of the gap from StdRng seed {seed}"
        ),
        simulated_refs(),
    );
    out.setup(probes);
    let svc = service();
    let iso = match svc.isolated_run(&template()) {
        Ok(run) => run.time,
        Err(e) => {
            out.checks.op(vec![format!("template job infeasible: {e}")]);
            return out;
        }
    };
    let jobs = jobs(iso, seed);

    let mut walls = Vec::new();
    let mut first: Option<ServiceReport> = None;
    while first.is_none() || Instant::now() < until {
        let t0 = Instant::now();
        let rep = svc.run(&jobs);
        walls.push(t0.elapsed().as_secs_f64());
        let mut found = gate(&rep);
        if let Some(f) = &first {
            if summary(f) != summary(&rep) {
                found.push("a repeat of the scenario gave a different report".into());
            }
        }
        out.checks.op(found);
        first.get_or_insert(rep);
    }
    out.ops(&walls);
    let rep = first.expect("ran at least once");
    let n = walls.len();
    out.push(Metric::exact(
        "svc_slowdown_p99",
        rep.slowdown.p99,
        rep.slowdown.count,
    ));
    out.push(Metric::exact(
        "svc_completed_ratio",
        rep.completed() as f64 / JOBS as f64,
        JOBS,
    ));
    if traced {
        out.host_metrics();
        out.push(Metric::exact("svc.rejected", rep.rejected() as f64, n));
        out.push(Metric::exact("svc.cancelled", rep.cancelled() as f64, n));
        out.push(Metric::exact("svc.plan_reuses", rep.plan_reuses as f64, n));
        out.push(Metric::exact("svc.jain", rep.jain, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_follow_the_seed_and_keep_the_rate() {
        let a = jobs(1.0, 5);
        assert_eq!(a.len(), JOBS);
        let at = |js: &[JobSpec]| js.iter().map(|j| j.arrival).collect::<Vec<_>>();
        assert_eq!(at(&a), at(&jobs(1.0, 5)));
        assert_ne!(at(&a), at(&jobs(1.0, 6)));
        for (i, j) in a.iter().enumerate() {
            let due = i as f64 * 0.5;
            assert!((j.arrival - due.max(0.0)).abs() <= JITTER * 0.5 + 1e-12);
        }
    }
}
