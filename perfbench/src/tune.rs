//! `tune_cells`: the `fft_bench::cells::run_cell` unit of work on two
//! paper cells, with every objective call timed from outside.

use crate::host::simulated_refs;
use crate::outcome::{Metric, Outcome};
use crate::probe::Probe;
use fft3d::{fft3_simulated, th_simulated, ProblemSpec, ThParams, TuningParams, Variant};
use fft_bench::cells::{platform_by_tag, CellResult};
use fft_bench::paper::TABLE2;
use std::time::Instant;
use tuner::driver::{tune_new, tune_th, DEFAULT_MAX_EVALS};

/// The cells: (platform, p, N). Fixed by the paper; no seed enters.
pub const CELLS: [(&str, usize, usize); 2] = [("umd", 16, 256), ("hopper", 16, 256)];

/// What one cell's tuning and evaluation produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub new_params: TuningParams,
    pub th_params: ThParams,
    /// Modelled FFTW / NEW and FFTW / TH end-to-end time ratios.
    pub new_x: f64,
    pub th_x: f64,
    /// Tuner counts, NEW and TH searches summed.
    pub requests: usize,
    pub executed: usize,
    pub cache_hits: usize,
    pub infeasible: usize,
    /// Wall seconds of each objective call the tuners made.
    pub objective: Vec<f64>,
    /// Wall seconds of the three direct evaluations (FFTW, tuned NEW,
    /// tuned TH).
    pub direct: Vec<f64>,
    /// Wall seconds inside `tune_new` + `tune_th`.
    pub tune_wall: f64,
}

fn timed<R>(log: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    log.push(t0.elapsed().as_secs_f64());
    r
}

/// `fft_bench::cells::run_cell`'s calls, in its order and with its
/// arguments, each timed. [`drift`] checks the copy against the original.
pub fn run_cell(tag: &str, p: usize, n: usize) -> CellRun {
    let platform = platform_by_tag(tag);
    let spec = ProblemSpec::cube(n, p);
    let (mut objective, mut direct) = (Vec::new(), Vec::new());
    let seed = TuningParams::seed(&spec);
    let fftw = timed(&mut direct, || {
        fft3_simulated(platform.clone(), spec, Variant::Fftw, seed, false).time
    });

    let t0 = Instant::now();
    let tuned_new = tune_new(
        &spec,
        |params| {
            timed(&mut objective, || {
                fft3_simulated(platform.clone(), spec, Variant::New, *params, true).time
            })
        },
        DEFAULT_MAX_EVALS,
    );
    let mut tune_wall = t0.elapsed().as_secs_f64();
    let new = timed(&mut direct, || {
        fft3_simulated(platform.clone(), spec, Variant::New, tuned_new.best, false).time
    });

    let t0 = Instant::now();
    let tuned_th = tune_th(
        &spec,
        |params| {
            timed(&mut objective, || {
                th_simulated(platform.clone(), spec, *params, true).time
            })
        },
        DEFAULT_MAX_EVALS,
    );
    tune_wall += t0.elapsed().as_secs_f64();
    let th = timed(&mut direct, || {
        th_simulated(platform.clone(), spec, tuned_th.best, false).time
    });

    CellRun {
        new_params: tuned_new.best,
        th_params: tuned_th.best,
        new_x: fftw / new,
        th_x: fftw / th,
        requests: tuned_new.requests + tuned_th.requests,
        executed: tuned_new.executed + tuned_th.executed,
        cache_hits: tuned_new.cache_hits + tuned_th.cache_hits,
        infeasible: tuned_new.infeasible + tuned_th.infeasible,
        objective,
        direct,
        tune_wall,
    }
}

/// The paper's NEW× and TH× (FFTW time over each) for a Table 2 cell.
pub fn paper_speedups(tag: &str, p: usize, n: usize) -> Option<(f64, f64)> {
    TABLE2
        .iter()
        .find(|r| r.0 == tag && r.1 == p && r.2 == n)
        .map(|&(_, _, _, fftw, new, th)| (fftw / new, fftw / th))
}

/// `max |ln(model / paper)|` over the cells and over NEW× and TH×.
pub fn paper_err(cells: &[(&str, usize, usize)], runs: &[CellRun]) -> f64 {
    cells
        .iter()
        .zip(runs)
        .flat_map(|(&(tag, p, n), run)| {
            let (new, th) = paper_speedups(tag, p, n).expect("every cell is in Table 2");
            [(run.new_x / new).ln().abs(), (run.th_x / th).ln().abs()]
        })
        .fold(0.0, f64::max)
}

/// One cold set-up in this (fresh) process: the first simulated transform
/// of each cell, the FFTW baseline `run_cell` starts with.
pub fn probe() -> Probe {
    let t0 = Instant::now();
    let times: Vec<f64> = CELLS
        .iter()
        .map(|&(tag, p, n)| {
            let spec = ProblemSpec::cube(n, p);
            let seed = TuningParams::seed(&spec);
            fft3_simulated(platform_by_tag(tag), spec, Variant::Fftw, seed, false).time
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    Probe {
        setup_s,
        problems: times
            .iter()
            .filter(|t| !(t.is_finite() && **t > 0.0))
            .map(|t| format!("simulated FFTW time {t}"))
            .collect(),
        ..Probe::default()
    }
}

/// Where the timed copy of a cell differs from the program's own
/// `run_cell` on it.
pub fn drift(tag: &str, ours: &CellRun, theirs: &CellResult) -> Vec<String> {
    let same = ours.new_params == theirs.new_params
        && ours.th_params == theirs.th_params
        && ours.new_x == theirs.speedup_new()
        && ours.th_x == theirs.speedup_th()
        && ours.objective.len() == theirs.new_evals + theirs.th_evals;
    if same {
        return Vec::new();
    }
    vec![format!(
        "{tag}: timed copy gave {:?} {:?} NEW x {} TH x {} in {} evaluations; run_cell gave \
         {:?} {:?} NEW x {} TH x {} in {}",
        ours.new_params,
        ours.th_params,
        ours.new_x,
        ours.th_x,
        ours.objective.len(),
        theirs.new_params,
        theirs.th_params,
        theirs.speedup_new(),
        theirs.speedup_th(),
        theirs.new_evals + theirs.th_evals
    )]
}

/// What is wrong with a repetition: infeasible or non-finite results, or
/// any difference from the program's own `run_cell` (which also makes
/// every repetition pick the same parameters).
fn problems(runs: &[CellRun], reference: &[CellResult]) -> Vec<String> {
    let mut found = Vec::new();
    for ((&(tag, p, n), run), base) in CELLS.iter().zip(runs).zip(reference) {
        if !run.new_params.is_feasible(&ProblemSpec::cube(n, p)) {
            found.push(format!(
                "{tag}: tuned NEW params {:?} infeasible",
                run.new_params
            ));
        }
        if !(run.new_x.is_finite() && run.new_x > 0.0 && run.th_x.is_finite() && run.th_x > 0.0) {
            found.push(format!("{tag}: speedups {} / {}", run.new_x, run.th_x));
        }
        found.extend(drift(tag, run, base));
    }
    found
}

/// Tunes and evaluates both cells repeatedly until `until` (at least
/// once); with `traced`, reports the simulator and tuner layers.
pub fn run(until: Instant, probes: &[Probe], traced: bool) -> Outcome {
    let mut out = Outcome::new(
        "tune_cells",
        "the paper's fixed cells UMD and Hopper, p = 16, 256^3; the seed is ignored".into(),
        simulated_refs(),
    );
    out.setup(probes);
    // Untimed: the program's own run of each cell, for the checks.
    let reference: Vec<CellResult> = CELLS
        .iter()
        .map(|&(t, p, n)| fft_bench::cells::run_cell(t, p, n))
        .collect();

    let mut reps: Vec<Vec<CellRun>> = Vec::new();
    let mut walls = Vec::new();
    while reps.is_empty() || Instant::now() < until {
        let t0 = Instant::now();
        let runs: Vec<CellRun> = CELLS.iter().map(|&(t, p, n)| run_cell(t, p, n)).collect();
        walls.push(t0.elapsed().as_secs_f64());
        out.checks.op(problems(&runs, &reference));
        reps.push(runs);
    }
    out.ops(&walls);
    let first = &reps[0];
    out.push(Metric::exact(
        "paper_err",
        paper_err(&CELLS, first),
        reps.len(),
    ));
    if !traced {
        return out;
    }

    out.host_metrics();
    let all = reps.iter().flatten();
    let evals: Vec<f64> = all
        .clone()
        .flat_map(|c| c.objective.iter().chain(&c.direct))
        .copied()
        .collect();
    out.push(Metric::timed(
        "sim.evals_per_s",
        evals.len() as f64 / evals.iter().sum::<f64>(),
        evals.len(),
    ));
    out.push(Metric::exact(
        "sim.evals",
        (evals.len() / reps.len()) as f64,
        reps.len(),
    ));
    let tune_wall: f64 = all.clone().map(|c| c.tune_wall).sum();
    let objective: f64 = all.flat_map(|c| &c.objective).sum();
    out.push(Metric::timed(
        "tuner.self_frac",
        (tune_wall - objective) / tune_wall,
        reps.len(),
    ));
    let total = |f: fn(&CellRun) -> usize| first.iter().map(f).sum::<usize>() as f64;
    let n = reps.len();
    out.push(Metric::exact("tuner.requests", total(|c| c.requests), n));
    out.push(Metric::exact("tuner.executed", total(|c| c.executed), n));
    out.push(Metric::exact(
        "tuner.cache_hits",
        total(|c| c.cache_hits),
        n,
    ));
    out.push(Metric::exact(
        "tuner.infeasible",
        total(|c| c.infeasible),
        n,
    ));
    for (&(tag, ..), cell) in CELLS.iter().zip(first) {
        let name = |m: &str| format!("tuner.{tag}.{m}");
        out.push(Metric::exact(
            &name("new_threads"),
            cell.new_params.threads as f64,
            n,
        ));
        out.push(Metric::exact(&name("new_x"), cell.new_x, n));
        out.push(Metric::exact(&name("th_x"), cell.th_x, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_err_against_hand_computed_table2() {
        // UMD p = 16, 256³: FFTW 0.369 s, NEW 0.245 s, TH 0.319 s.
        let (new, th) = paper_speedups("umd", 16, 256).expect("in Table 2");
        assert!((new - 0.369 / 0.245).abs() < 1e-12);
        assert!((th - 0.369 / 0.319).abs() < 1e-12);
        let cell = |new_x: f64, th_x: f64| CellRun {
            new_params: TuningParams::seed(&ProblemSpec::cube(256, 16)),
            th_params: ThParams::seed(&ProblemSpec::cube(256, 16)),
            new_x,
            th_x,
            requests: 0,
            executed: 0,
            cache_hits: 0,
            infeasible: 0,
            objective: Vec::new(),
            direct: Vec::new(),
            tune_wall: 0.0,
        };
        let umd = [("umd", 16, 256)];
        // Exactly the paper: no error.
        assert!(paper_err(&umd, &[cell(new, th)]) < 1e-12);
        // NEW× off by a factor e^0.5, TH× by e^-0.2: the larger counts.
        let err = paper_err(&umd, &[cell(new * 0.5f64.exp(), th * (-0.2f64).exp())]);
        assert!((err - 0.5).abs() < 1e-12, "{err}");
        // Hopper p = 16, 256³: NEW× 0.096 / 0.087; a model NEW× of 4.20
        // is ln(4.20 / 1.1034) ≈ 1.337 off.
        let (hn, ht) = paper_speedups("hopper", 16, 256).expect("in Table 2");
        let err = paper_err(&CELLS, &[cell(new, th), cell(4.20, ht)]);
        assert!((err - (4.20 / hn).ln()).abs() < 1e-12);
        assert!((err - 1.337).abs() < 1e-3, "{err}");
    }

    #[test]
    fn timed_cell_matches_run_cell() {
        let ours = run_cell("umd", 16, 256);
        let theirs = fft_bench::cells::run_cell("umd", 16, 256);
        assert_eq!(drift("umd", &ours, &theirs), Vec::<String>::new());
        assert_eq!(ours.direct.len(), 3);
        // Any difference is reported.
        let off = CellRun {
            new_x: ours.new_x * 2.0,
            ..ours
        };
        assert_eq!(drift("umd", &off, &theirs).len(), 1);
    }
}
