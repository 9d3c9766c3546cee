//! Printing a run: the human report, the result file and the one-line
//! JSON summary.

use crate::host::Fingerprint;
use crate::json;
use crate::outcome::{Metric, Outcome};
use crate::spec::Spec;
use std::fmt::Write as _;

/// How a run was invoked.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub traced: bool,
}

/// The workload-specific name of a shared metric (`op_s_p50` is one
/// transform on the real workloads, one tuning pass on `tune_cells`).
fn alias(workload: &str, name: &str) -> Option<&'static str> {
    let slab = workload.starts_with("slab_");
    Some(match (name, workload) {
        ("op_s_p50", _) if slab => "transform_s_p50",
        ("op_s_tail", _) if slab => "transform_s_p90",
        ("op_s_p50", "tune_cells") => "tune_s_p50",
        ("op_s_p50", "service_overload") => "svc_wall_s_p50",
        ("ok_ratio", _) => "1 - fail_ratio",
        _ => return None,
    })
}

fn unit(spec: &Spec, name: &str) -> String {
    match name {
        "op_s_tail" => "s".into(),
        "fail_ratio" => "ratio".into(),
        _ => spec
            .find(name)
            .map_or_else(|| "?".into(), |d| d.unit.clone()),
    }
}

/// Every metric the run measured, plus `ok_ratio` and `fail_ratio`.
fn all_metrics(out: &Outcome) -> Vec<Metric> {
    let ops = out.checks.attempted as usize;
    let mut all = out.metrics.clone();
    all.push(Metric::exact("ok_ratio", out.ok_ratio(), ops));
    all.push(Metric::exact("fail_ratio", 1.0 - out.ok_ratio(), ops));
    all
}

/// The metrics the run reports under the declaration: every end-to-end
/// metric untraced, every per-layer metric traced. A per-layer metric of
/// a layer the workload does not run reads 0; an end-to-end metric the
/// run failed to measure reads 0 and fails the run.
pub fn declared(spec: &Spec, out: &mut Outcome, traced: bool) -> Vec<(String, String, f64)> {
    let all = all_metrics(out);
    let list = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    list.iter()
        .map(|d| {
            let value = all.iter().find(|m| m.name == d.name).map(|m| m.value);
            if value.is_none() && !traced {
                out.checks.failed += 1;
                out.checks
                    .failures
                    .push(format!("{} was not measured", d.name));
            }
            (d.name.clone(), d.unit.clone(), value.unwrap_or(0.0))
        })
        .collect()
}

/// The human-readable report: what ran, on what, and every metric with
/// its unit and sample count.
pub fn human(spec: &Spec, fp: &Fingerprint, args: RunArgs, out: &Outcome) -> String {
    let mut s = String::new();
    let mode = if args.traced { "traced" } else { "untraced" };
    let _ = writeln!(
        s,
        "== {} (seed {}, {} s, {mode}) ==\ninputs: {}\nhost: nproc {}, L2 {} KiB, L3 {} KiB, \
         {}, {}, commit {}\nhost refs ({}): memcpy {:.3} GB/s, serial fft3 {:.4} s",
        out.workload,
        args.seed,
        spec.run_seconds,
        out.inputs,
        fp.nproc,
        fp.l2_kib,
        fp.l3_kib,
        fp.rustc,
        fp.profile,
        fp.commit,
        out.host.problem,
        out.host.memcpy_gbs,
        out.host.serial_s,
    );
    let _ = writeln!(
        s,
        "{:<28} {:>14} {:<8} {:>8} {:>8}  also called",
        "metric", "value", "unit", "samples", "spread"
    );
    for m in all_metrics(out) {
        let alias = match (m.name.as_str(), out.tail_q) {
            ("op_s_tail", Some(q)) => format!(
                "{} (p{q}: {} samples beyond)",
                alias(&out.workload, &m.name).unwrap_or("tail"),
                m.samples - (q as usize * m.samples).div_ceil(100)
            ),
            _ => alias(&out.workload, &m.name).unwrap_or("").to_string(),
        };
        let _ = writeln!(
            s,
            "{:<28} {:>14.6} {:<8} {:>8} {:>8.4}  {alias}",
            m.name,
            m.value,
            unit(spec, &m.name),
            m.samples,
            m.spread
        );
    }
    let c = &out.checks;
    let _ = writeln!(s, "checks: {} operations, {} failed", c.attempted, c.failed);
    for f in &c.failures {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    s
}

/// One run's entry in a result file.
pub fn result_json(spec: &Spec, args: RunArgs, out: &Outcome) -> String {
    let metrics: Vec<String> = all_metrics(out)
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"spread\": {}, \
                 \"exact\": {}}}",
                json::string(&m.name),
                json::num(m.value),
                json::string(&unit(spec, &m.name)),
                m.samples,
                json::num(m.spread),
                m.exact
            )
        })
        .collect();
    let failures: Vec<String> = out
        .checks
        .failures
        .iter()
        .map(|f| json::string(f))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"inputs\": {}, \
         \"host\": {{\"problem\": {}, \"memcpy_gbs\": {}, \"serial_s\": {}}}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"tail_percentile\": {}, \"metrics\": {{{}}}}}",
        json::string(&out.workload),
        args.seed,
        json::num(spec.run_seconds),
        u8::from(args.traced),
        json::string(&out.inputs),
        json::string(&out.host.problem),
        json::num(out.host.memcpy_gbs),
        json::num(out.host.serial_s),
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        failures.join(", "),
        out.tail_q.map_or_else(|| "null".into(), |q| q.to_string()),
        metrics.join(", ")
    )
}

/// A result file: the host fingerprint and every run.
pub fn result_file(fp: &Fingerprint, runs: &[String]) -> String {
    format!(
        "{{\"fingerprint\": {},\n\"runs\": [\n{}\n]}}\n",
        fp.to_json(),
        runs.join(",\n")
    )
}

/// The one-line summary: `correct`, `attempted`, `failed` and the
/// declared metrics.
pub fn summary_line(out: &Outcome, metrics: &[(String, String, f64)]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::num(*v),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        m.join(", ")
    )
}
