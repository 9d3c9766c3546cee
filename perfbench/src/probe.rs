//! Cold set-up probes. Plan caches are process-wide and cannot be
//! emptied, so each set-up is measured in a fresh child process of this
//! binary (`--probe <workload> --seed <n>`), which prints one line.

use std::process::Command;

/// One cold set-up.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Wall seconds of the set-up (slowest rank where there are ranks).
    pub setup_s: f64,
    /// Planning time inside it (real workloads; 0 elsewhere).
    pub planning_s: f64,
    /// FFT plans the process had to build (real workloads; 0 elsewhere).
    pub plan_misses: f64,
    /// Failed checks on the set-up's output.
    pub problems: Vec<String>,
}

const TAG: &str = "PROBE";

impl Probe {
    /// The child's report line.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{TAG} {:?} {:?} {:?}",
            self.setup_s, self.planning_s, self.plan_misses
        );
        for p in &self.problems {
            s.push('\t');
            s.push_str(&p.replace(['\t', '\n'], " "));
        }
        s
    }

    fn parse(line: &str) -> Option<Probe> {
        let mut parts = line.split('\t');
        let head: Vec<f64> = parts
            .next()?
            .strip_prefix(TAG)?
            .split_whitespace()
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let [setup_s, planning_s, plan_misses] = head[..] else {
            return None;
        };
        Some(Probe {
            setup_s,
            planning_s,
            plan_misses,
            problems: parts.map(str::to_string).collect(),
        })
    }
}

/// Runs `count` cold set-ups of `workload`, one child process each,
/// waiting for every child to exit.
pub fn run(workload: &str, seed: u64, count: usize) -> Vec<Probe> {
    let exe = std::env::current_exe().expect("the benchmark's own executable path");
    (0..count)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--probe", workload, "--seed", &seed.to_string()])
                .output()
                .expect("spawn a set-up probe");
            let text = String::from_utf8_lossy(&out.stdout);
            match text.lines().rev().find_map(Probe::parse) {
                Some(p) if out.status.success() => p,
                _ => Probe {
                    problems: vec![format!(
                        "set-up probe exited with {}: {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    )],
                    ..Probe::default()
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_round_trips() {
        let p = Probe {
            setup_s: 0.123456789,
            planning_s: 1e-5,
            plan_misses: 3.0,
            problems: vec!["rank 1: bad\tthing".into(), "other".into()],
        };
        let q = Probe::parse(&p.line()).expect("parses");
        assert_eq!(
            (q.setup_s, q.planning_s, q.plan_misses),
            (0.123456789, 1e-5, 3.0)
        );
        assert_eq!(q.problems, vec!["rank 1: bad thing", "other"]);
        assert!(Probe::parse("noise").is_none());
    }
}
