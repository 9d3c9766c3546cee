//! `--compare OLD NEW`: one row per workload, each metric's change marked
//! better, worse or unresolved.

use crate::json::{self, Json};
use crate::spec::Spec;

/// How one metric moved from `old` to `new`.
///
/// A change counts only beyond `margin`, the noise the metric may show
/// between two runs of the same code; within it the change is unresolved.
pub fn mark(old: f64, new: f64, lower_is_better: bool, margin: f64) -> &'static str {
    let rel = if old == new {
        0.0
    } else if old == 0.0 {
        f64::INFINITY.copysign(new)
    } else {
        (new - old) / old.abs()
    };
    if rel.abs() <= margin {
        "unresolved"
    } else if (rel > 0.0) == lower_is_better {
        "worse"
    } else {
        "better"
    }
}

struct Entry {
    value: f64,
    spread: f64,
    exact: bool,
}

/// The noise margin for one metric: its declared bound, if it has one,
/// and either run's own quartile spread. A value derived from wall time
/// also gets at least `timing_floor`: its run-to-run spread is not known
/// from one run (a ratio of totals or a tail has no spread of its own),
/// so only a change beyond the widest end-to-end bound counts. Exact
/// values (counts, modelled quantities) get no floor: any change is real.
fn margin(bound: Option<f64>, was: &Entry, now: &Entry, timing_floor: f64) -> f64 {
    let floor = if was.exact && now.exact {
        0.0
    } else {
        timing_floor
    };
    bound
        .unwrap_or(0.0)
        .max(was.spread)
        .max(now.spread)
        .max(floor)
}

fn entries(run: &Json) -> Vec<(String, Entry)> {
    run.get("metrics")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
        .filter_map(|(k, v)| {
            Some((
                k.clone(),
                Entry {
                    value: v.get("value")?.as_f64()?,
                    spread: v.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
                    exact: v.get("exact") == Some(&Json::Bool(true)),
                },
            ))
        })
        .collect()
}

fn key(run: &Json) -> Option<(String, u64)> {
    let w = run.get("workload")?.as_str()?.to_string();
    Some((w, run.get("trace")?.as_f64()? as u64))
}

/// The comparison table for two result files.
pub fn compare(spec: &Spec, old: &str, new: &str) -> Result<String, String> {
    let old = json::parse(old).map_err(|e| format!("old result file: {e}"))?;
    let new = json::parse(new).map_err(|e| format!("new result file: {e}"))?;
    let runs = |doc: &Json| {
        doc.get("runs")
            .map(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let old_runs = runs(&old);
    let timing_floor = spec
        .end_to_end
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    let mut table = String::new();
    for run in runs(&new) {
        let Some(k) = key(&run) else { continue };
        let Some(base) = old_runs.iter().find(|r| key(r).as_ref() == Some(&k)) else {
            table.push_str(&format!("{} (trace {}): not in the old file\n", k.0, k.1));
            continue;
        };
        let before = entries(base);
        let mut cells = Vec::new();
        for (name, now) in entries(&run) {
            let Some((_, was)) = before.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            let declared = spec.find(&name);
            let lower = declared.map_or(name != "ok_ratio", |d| d.lower_is_better);
            let bound = declared.and_then(|d| d.bound);
            let m = mark(
                was.value,
                now.value,
                lower,
                margin(bound, was, &now, timing_floor),
            );
            let delta = if was.value != 0.0 {
                format!("{:+.1}%", 100.0 * (now.value - was.value) / was.value.abs())
            } else {
                format!("{:+}", now.value - was.value)
            };
            cells.push(format!("{name} {delta} {m}"));
        }
        table.push_str(&format!("{} (trace {}): {}\n", k.0, k.1, cells.join(" | ")));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_respect_margin_and_direction() {
        // 10% slower within a 25% margin.
        assert_eq!(mark(1.0, 1.1, true, 0.25), "unresolved");
        // 30% slower: worse; 30% faster: better.
        assert_eq!(mark(1.0, 1.3, true, 0.25), "worse");
        assert_eq!(mark(1.0, 0.7, true, 0.25), "better");
        // Higher-is-better flips the reading.
        assert_eq!(mark(1.0, 0.7, false, 0.25), "worse");
        // With no margin any change counts, and no change is unresolved.
        assert_eq!(mark(0.0, 2.0, true, 0.0), "worse");
        assert_eq!(mark(3.0, 3.0, true, 0.0), "unresolved");
    }

    #[test]
    fn margin_floors_timed_values_only() {
        let entry = |spread: f64, exact: bool| Entry {
            value: 1.0,
            spread,
            exact,
        };
        // Exact on both sides: the bound, or nothing.
        assert_eq!(
            margin(None, &entry(0.0, true), &entry(0.0, true), 0.25),
            0.0
        );
        assert_eq!(
            margin(Some(0.01), &entry(0.0, true), &entry(0.0, true), 0.25),
            0.01
        );
        // Timed on either side: at least the floor.
        assert_eq!(
            margin(None, &entry(0.0, false), &entry(0.0, true), 0.25),
            0.25
        );
        // A spread wider than the floor widens the margin.
        assert_eq!(
            margin(None, &entry(0.4, false), &entry(0.1, false), 0.25),
            0.4
        );
    }

    #[test]
    fn compares_matching_workloads() {
        let file = |v: f64, tail: f64| {
            format!(
                "{{\"runs\": [{{\"workload\": \"slab_128\", \"trace\": 0, \"metrics\": \
                 {{\"op_s_p50\": {{\"value\": {v}, \"unit\": \"s\", \"samples\": 9, \
                 \"spread\": 0.01, \"exact\": false}}, \
                 \"op_s_tail\": {{\"value\": {tail}, \"unit\": \"s\", \"samples\": 9, \
                 \"spread\": 0, \"exact\": false}}}}}}]}}"
            )
        };
        let table = compare(&Spec::load(), &file(1.0, 1.0), &file(2.0, 1.1)).expect("valid files");
        // The tail has no spread of its own; 10% is within the timing floor.
        assert_eq!(
            table.trim(),
            "slab_128 (trace 0): op_s_p50 +100.0% worse | op_s_tail +10.0% unresolved"
        );
    }
}
