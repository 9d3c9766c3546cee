//! `slab_128` and `slab_64_fine`: the real backend (NEW over mpisim rank
//! threads) in a closed loop of steady-state `FftSession::execute` calls.

use crate::host::{memcpy_gbs, repeat_for, serial_reference, HostRefs};
use crate::outcome::{Checks, Metric, Outcome};
use crate::probe::Probe;
use crate::stats::median;
use cfft::batch::{execute_batch, BatchLayout, BatchScratch};
use cfft::planner::Rigor;
use cfft::transpose::{xzy_fast, Dims3};
use cfft::{Complex64, Direction, PlanCache};
use fft3d::decomp::Decomp;
use fft3d::real_env::compare_with_serial;
use fft3d::{
    derive_step_times, overlap_summary, FftSession, MemRecorder, ProblemSpec, Resilience,
    RunOutput, StepTimes, TuningParams, Variant,
};
use mpisim::Comm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rank threads: one per core of the 2-core reference host, with `Th = 1`.
const P: usize = 2;

/// Session executions before timing starts: the first initialises the
/// per-tile exchange plans, the second runs warm.
const WARMUP: usize = 2;

/// One real workload's problem and parameters.
#[derive(Debug, Clone, Copy)]
pub struct Slab {
    pub spec: ProblemSpec,
    pub params: TuningParams,
}

impl Slab {
    pub fn by_name(name: &str) -> Option<Slab> {
        match name {
            // Seed parameters: T = 8, W = 2, Th = 1; 1 MiB tile exchanges.
            "slab_128" => {
                let spec = ProblemSpec::cube(128, P);
                Some(Slab {
                    spec,
                    params: TuningParams::seed(&spec),
                })
            }
            // T = 1 (Pz = Uz = 1): 64 tiles of 32 KiB, the rest at seed.
            "slab_64_fine" => {
                let spec = ProblemSpec::cube(64, P);
                Some(Slab {
                    spec,
                    params: TuningParams {
                        t: 1,
                        pz: 1,
                        uz: 1,
                        ..TuningParams::seed(&spec)
                    },
                })
            }
            _ => None,
        }
    }

    /// Elements one rank contributes to one tile's all-to-all.
    pub fn tile_len(&self) -> usize {
        self.params.t * self.nxl() * self.spec.ny
    }

    fn nxl(&self) -> usize {
        Decomp::new(self.spec.nx, self.spec.ny, self.spec.p)
            .x
            .count(0)
    }

    fn session<'a>(&self, comm: &'a Comm) -> FftSession<'a> {
        FftSession::new(
            comm,
            self.spec,
            Variant::New,
            self.params,
            Direction::Forward,
            Rigor::Estimate,
        )
    }
}

/// The seeded input: every element uniform in `[-1, 1)²`, drawn with the
/// vendored `rand` generator.
pub fn random_field(len: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// `rank`'s x-slab (x-y-z layout) of the full field.
fn x_slab(full: &[Complex64], spec: &ProblemSpec, rank: usize) -> Vec<Complex64> {
    let d = Decomp::new(spec.nx, spec.ny, spec.p);
    let plane = spec.ny * spec.nz;
    full[d.x.offset(rank) * plane..][..d.x.count(rank) * plane].to_vec()
}

/// Largest deviation from the serial reference a correct transform may
/// show: far above rounding, far below any indexing or data error.
fn tolerance(spec: &ProblemSpec) -> f64 {
    1e-9 * (spec.len() as f64).sqrt()
}

/// The inputs and serial reference shared by every rank thread.
struct Problem {
    slab: Slab,
    slabs: Vec<Vec<Complex64>>,
    reference: Vec<Complex64>,
    serial_s: f64,
}

impl Problem {
    fn new(slab: Slab, seed: u64) -> Arc<Problem> {
        let full = random_field(slab.spec.len(), seed);
        let (reference, serial_s) = serial_reference(&full, &slab.spec);
        let slabs = (0..slab.spec.p)
            .map(|r| x_slab(&full, &slab.spec, r))
            .collect();
        Arc::new(Problem {
            slab,
            slabs,
            reference,
            serial_s,
        })
    }

    fn check(
        &self,
        rank: usize,
        run: &Result<RunOutput, fft3d::Error>,
        steady: bool,
    ) -> Vec<String> {
        check(&self.slab.spec, &self.reference, rank, run, steady)
    }
}

/// What is wrong with one rank's output, if anything. `steady` adds the
/// setup-once promise: no planning and no exchange setups.
fn check(
    spec: &ProblemSpec,
    reference: &[Complex64],
    rank: usize,
    run: &Result<RunOutput, fft3d::Error>,
    steady: bool,
) -> Vec<String> {
    let out = match run {
        Ok(out) => out,
        Err(e) => return vec![format!("rank {rank}: execute failed: {e}")],
    };
    let mut found = Vec::new();
    let err = compare_with_serial(spec, rank, out, reference);
    if err.is_nan() || err > tolerance(spec) {
        found.push(format!(
            "rank {rank}: max error {err:e} against fft3_serial"
        ));
    }
    if steady && out.exchange_setups != 0 {
        found.push(format!(
            "rank {rank}: {} exchange setups in steady state",
            out.exchange_setups
        ));
    }
    if steady && !out.planning.is_zero() {
        found.push(format!(
            "rank {rank}: {:?} planning in steady state",
            out.planning
        ));
    }
    found
}

/// Runs `body(i)` on every rank in lock-step until rank 0 has spent
/// `budget` (and at least `min` iterations).
fn lockstep(comm: &Comm, budget: Duration, min: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let mut go = vec![u8::from(i < min || start.elapsed() < budget)];
        comm.bcast(&mut go, 0);
        if go[0] == 0 {
            return;
        }
        body(i);
        i += 1;
    }
}

/// One cold set-up in this (fresh) process: `FftSession::new` through the
/// end of the first execute, slowest rank.
pub fn probe(slab: Slab, seed: u64) -> Probe {
    let full = random_field(slab.spec.len(), seed);
    let slabs: Vec<_> = (0..P).map(|r| x_slab(&full, &slab.spec, r)).collect();
    let runs = mpisim::run(P, move |comm| {
        comm.barrier();
        let t0 = Instant::now();
        let mut session = slab.session(&comm);
        let run = session.execute(&slabs[comm.rank()]);
        (t0.elapsed().as_secs_f64(), run)
    });
    let misses = PlanCache::global().stats().misses;
    // The reference comes after the timed set-up so its plans stay cold.
    let (reference, _) = serial_reference(&full, &slab.spec);
    let mut problems = Vec::new();
    let mut setup_s: f64 = 0.0;
    let mut planning_s: f64 = 0.0;
    for (rank, (dt, run)) in runs.iter().enumerate() {
        setup_s = setup_s.max(*dt);
        if let Ok(out) = run {
            planning_s = planning_s.max(out.planning.as_secs_f64());
        }
        problems.extend(check(&slab.spec, &reference, rank, run, false));
    }
    Probe {
        setup_s,
        planning_s,
        plan_misses: misses as f64,
        problems,
    }
}

/// Per-rank record of one measuring loop.
#[derive(Default)]
struct RankLog {
    /// Wall time of each iteration (`None` for iterations of the other
    /// kind in the traced run).
    untraced: Vec<Option<f64>>,
    traced: Vec<Option<f64>>,
    problems: Vec<Vec<String>>,
    /// Traced iterations only: summed derived step times and wall.
    steps: StepTimes,
    traced_wall: f64,
    coverage: Vec<f64>,
    tests_per_tile: Vec<f64>,
    setups: u64,
    ladder: u64,
}

/// `derive_step_times` over the events must reproduce the breakdown the
/// pipeline accumulated itself, category by category.
pub fn steps_agree(derived: &StepTimes, reported: &StepTimes) -> bool {
    let scale = reported.total().max(derived.total());
    derived
        .entries()
        .iter()
        .zip(reported.entries())
        .all(|((_, a), (_, b))| (a - b).abs() <= 1e-9 + 1e-9 * scale)
}

fn measure(problem: &Arc<Problem>, budget: Duration, traced: bool) -> Vec<RankLog> {
    let problem = problem.clone();
    mpisim::run(P, move |comm| {
        let rank = comm.rank();
        let input = &problem.slabs[rank];
        let mut session = problem.slab.session(&comm);
        let mut log = RankLog::default();
        for i in 0..WARMUP {
            let run = session.execute(input);
            log.problems.push(problem.check(rank, &run, i > 0));
        }
        lockstep(&comm, budget, 4, |i| {
            let trace_this = traced && i % 2 == 1;
            let mut rec = MemRecorder::default();
            comm.barrier();
            let t0 = Instant::now();
            let run = if trace_this {
                session.execute_traced(input, &Resilience::default(), &mut rec)
            } else {
                session.execute(input)
            };
            let dt = t0.elapsed().as_secs_f64();
            let mut found = problem.check(rank, &run, true);
            if let Ok(out) = &run {
                log.setups += out.exchange_setups;
                log.ladder += out.recovery.actions.len() as u64;
                if trace_this {
                    let derived = derive_step_times(&rec.events);
                    if !steps_agree(&derived, &out.stats.steps) {
                        found.push(format!(
                            "rank {rank}: derived steps {derived:?} != reported {:?}",
                            out.stats.steps
                        ));
                    }
                    log.steps += derived;
                    log.traced_wall += dt;
                    let overlap = overlap_summary(&rec.events);
                    log.coverage.push(overlap.coverage);
                    log.tests_per_tile.push(overlap.tests_per_tile);
                }
            }
            log.untraced.push((!trace_this).then_some(dt));
            log.traced.push(trace_this.then_some(dt));
            log.problems.push(found);
        });
        session.free();
        log
    })
}

/// Slowest rank's time per iteration, over the iterations that have one.
fn slowest(logs: &[RankLog], pick: impl Fn(&RankLog) -> &Vec<Option<f64>>) -> Vec<f64> {
    (0..pick(&logs[0]).len())
        .filter_map(|i| {
            logs.iter()
                .map(|l| pick(l)[i])
                .try_fold(0.0f64, |m, t| t.map(|t| m.max(t)))
        })
        .collect()
}

/// One transform is one operation; it fails when any rank's output does.
fn tally(logs: Vec<RankLog>, checks: &mut Checks) -> Vec<RankLog> {
    for i in 0..logs[0].problems.len() {
        checks.op(logs.iter().flat_map(|l| l.problems[i].clone()).collect());
    }
    logs
}

fn inputs(slab: &Slab, seed: u64) -> String {
    let s = &slab.spec;
    format!(
        "{}x{}x{} complex field, every element uniform in [-1,1)^2 from StdRng seed {seed}; \
         NEW on p = {} rank threads, T = {}, W = {}, Th = {}",
        s.nx, s.ny, s.nz, s.p, slab.params.t, slab.params.w, slab.params.threads
    )
}

/// The end-to-end run: cold set-ups from `probes`, then steady-state
/// transforms until `until`, each checked against `fft3_serial`.
pub fn run(name: &str, slab: Slab, seed: u64, until: Instant, probes: &[Probe]) -> Outcome {
    let problem = Problem::new(slab, seed);
    let mut out = Outcome::new(name, inputs(&slab, seed), host_refs(&problem));
    out.setup(probes);
    let logs = tally(
        measure(
            &problem,
            until.saturating_duration_since(Instant::now()),
            false,
        ),
        &mut out.checks,
    );
    out.ops(&slowest(&logs, |l| &l.untraced));
    out
}

fn host_refs(problem: &Problem) -> HostRefs {
    let s = &problem.slab.spec;
    HostRefs {
        problem: format!("{}x{}x{} on p = {}", s.nx, s.ny, s.nz, s.p),
        memcpy_gbs: memcpy_gbs(problem.slabs[0].len(), Duration::from_millis(200)),
        serial_s: problem.serial_s,
    }
}

/// The traced run: layer probes (cfft kernels, mpisim all-to-all) at this
/// workload's shapes, then alternating untraced and traced transforms.
pub fn run_traced(name: &str, slab: Slab, seed: u64, until: Instant, probes: &[Probe]) -> Outcome {
    let problem = Problem::new(slab, seed);
    let mut out = Outcome::new(name, inputs(&slab, seed), host_refs(&problem));
    out.setup(probes);
    out.host_metrics();
    let host = out.host.clone();
    let cold: Vec<&Probe> = probes.iter().filter(|p| p.problems.is_empty()).collect();
    if !cold.is_empty() {
        let of = |f: fn(&Probe) -> f64| cold.iter().map(|p| f(p)).collect::<Vec<_>>();
        out.push(Metric {
            exact: true,
            ..Metric::median("cfft.plan_misses", &of(|p| p.plan_misses))
        });
        out.push(Metric::median(
            "cfft.planning_frac",
            &of(|p| p.planning_s / p.setup_s),
        ));
    }
    for m in cfft_probes(&problem) {
        out.push(m);
    }
    let a2a = alltoall_probes();
    out.push(Metric::timed(
        "mpisim.copy_ratio",
        a2a[0].value / (host.memcpy_gbs * 1e3),
        a2a[0].samples,
    ));
    out.metrics.extend(a2a);

    let left = until
        .saturating_duration_since(Instant::now())
        .max(Duration::from_secs(2));
    let logs = tally(measure(&problem, left, true), &mut out.checks);
    let untraced = slowest(&logs, |l| &l.untraced);
    let traced = slowest(&logs, |l| &l.traced);
    out.push(Metric::timed(
        "host.parallel_eff",
        host.serial_s / (P as f64 * median(&untraced)),
        untraced.len(),
    ));
    out.push(Metric::timed(
        "pipe.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        traced.len(),
    ));
    let wall: f64 = logs.iter().map(|l| l.traced_wall).sum();
    let steps = logs
        .iter()
        .fold(StepTimes::default(), |acc, l| acc + l.steps);
    let n = traced.len() * P;
    let mut attributed = 0.0;
    for (label, secs) in steps.entries() {
        attributed += secs;
        let name = format!("pipe.{}_frac", label.to_ascii_lowercase());
        out.push(Metric::timed(&name, secs / wall, n));
    }
    out.push(Metric::timed(
        "pipe.unattributed_frac",
        1.0 - attributed / wall,
        n,
    ));
    let all = |f: fn(&RankLog) -> &Vec<f64>| logs.iter().flat_map(f).copied().collect::<Vec<_>>();
    out.push(Metric::median(
        "pipe.overlap_coverage",
        &all(|l| &l.coverage),
    ));
    out.push(Metric::median(
        "pipe.tests_per_tile",
        &all(|l| &l.tests_per_tile),
    ));
    let total = |f: fn(&RankLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
    out.push(Metric::exact(
        "pipe.exchange_setups",
        total(|l| l.setups),
        n,
    ));
    out.push(Metric::exact("pipe.ladder_actions", total(|l| l.ladder), n));
    out
}

/// Batched FFTz over one rank's slab (its `nx/p · ny` contiguous lines of
/// length `nz`) and the x-z-y transpose after it, on rank 0's input.
fn cfft_probes(problem: &Problem) -> [Metric; 2] {
    let s = problem.slab.spec;
    let src = &problem.slabs[0];
    let lines = src.len() / s.nz;
    let plan = PlanCache::global().plan(s.nz, Direction::Forward, Rigor::Estimate);
    let mut scratch = BatchScratch::for_plan(&plan);
    let mut data = src.clone();
    let budget = Duration::from_millis(300);
    let fft = repeat_for(budget, 5, || {
        data.copy_from_slice(src);
        let t0 = Instant::now();
        execute_batch(
            &plan,
            &mut data,
            BatchLayout::contiguous(s.nz, lines),
            &mut scratch,
        );
        t0.elapsed().as_secs_f64()
    });
    let flops = 5.0 * (s.nz * lines) as f64 * (s.nz as f64).log2();
    let gflops: Vec<f64> = fft.iter().map(|t| flops / t / 1e9).collect();

    let mut dst = vec![Complex64::ZERO; src.len()];
    let dims = Dims3::new(src.len() / (s.ny * s.nz), s.ny, s.nz);
    let tr = repeat_for(budget, 5, || {
        let t0 = Instant::now();
        xzy_fast(src, &mut dst, dims);
        t0.elapsed().as_secs_f64()
    });
    let bytes = 2.0 * 16.0 * src.len() as f64;
    let gbs: Vec<f64> = tr.iter().map(|t| bytes / t / 1e9).collect();
    [
        Metric::median("cfft.batch_gflops", &gflops),
        Metric::median("cfft.transpose_gbs", &gbs),
    ]
}

/// Blocking `alltoall` between the rank threads at `slab_128`'s tile size
/// (per-rank MB/s) and at `slab_64_fine`'s 32 KiB tile (exchanges per
/// second), slowest rank per exchange.
fn alltoall_probes() -> [Metric; 2] {
    let big = Slab::by_name("slab_128").map_or(0, |s| s.tile_len());
    let small = Slab::by_name("slab_64_fine").map_or(0, |s| s.tile_len());
    let per_rank = mpisim::run(P, move |comm| {
        [big, small].map(|len| {
            let send = vec![Complex64::new(1.0, -1.0); len];
            let mut recv = vec![Complex64::ZERO; len];
            let mut times = Vec::new();
            lockstep(&comm, Duration::from_millis(400), 20, |_| {
                comm.barrier();
                let t0 = Instant::now();
                comm.alltoall(&send, len / P, &mut recv);
                times.push(t0.elapsed().as_secs_f64());
            });
            times
        })
    });
    let slowest_of = |k: usize| -> Vec<f64> {
        (0..per_rank[0][k].len())
            .map(|i| per_rank.iter().map(|r| r[k][i]).fold(0.0, f64::max))
            .collect()
    };
    let mbs: Vec<f64> = slowest_of(0)
        .iter()
        .map(|t| (big * 16) as f64 / t / 1e6)
        .collect();
    let rate: Vec<f64> = slowest_of(1).iter().map(|t| 1.0 / t).collect();
    [
        Metric::median("mpisim.alltoall_mbs", &mbs),
        Metric::median("mpisim.alltoall_small_per_s", &rate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_match_their_definition() {
        let big = Slab::by_name("slab_128").unwrap();
        assert_eq!((big.params.t, big.params.w, big.params.threads), (8, 2, 1));
        assert_eq!(big.tile_len() * 16, 1 << 20, "1 MiB tile exchanges");
        let fine = Slab::by_name("slab_64_fine").unwrap();
        assert_eq!(fine.params.tiles(&fine.spec), 64);
        assert_eq!(fine.tile_len() * 16, 32 << 10, "32 KiB tiles");
        assert_eq!((fine.params.pz, fine.params.uz), (1, 1));
    }

    #[test]
    fn seed_determines_the_input() {
        assert_eq!(random_field(64, 7), random_field(64, 7));
        assert_ne!(random_field(64, 7), random_field(64, 8));
    }

    #[test]
    fn traced_step_sums_equal_derive_step_times() {
        let spec = ProblemSpec::cube(16, P);
        let slab = Slab {
            spec,
            params: TuningParams::seed(&spec),
        };
        let problem = Problem::new(slab, 3);
        let logs = measure(&problem, Duration::ZERO, true);
        for log in &logs {
            assert!(log.problems.iter().all(Vec::is_empty), "{:?}", log.problems);
            assert!(log.traced_wall > 0.0 && log.steps.total() > 0.0);
        }
        // The comparison itself: equal breakdowns agree, a shifted one
        // does not.
        let a = logs[0].steps;
        assert!(steps_agree(&a, &a));
        let mut b = a;
        b.wait += 1e-6 + 1e-6 * a.total();
        assert!(!steps_agree(&a, &b));
    }
}
