//! Host fingerprint and host reference measurements (memcpy bandwidth,
//! serial 3-D FFT time), plus the timing loop the layer probes share.

use crate::json;
use crate::slab::random_field;
use cfft::{Complex64, Direction};
use fft3d::serial::fft3_serial_spec;
use fft3d::ProblemSpec;
use std::time::{Duration, Instant};

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub l2_kib: u64,
    pub l3_kib: u64,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
}

impl Fingerprint {
    pub fn probe() -> Self {
        let (l2_kib, l3_kib) = cache_kib();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_kib,
            l3_kib,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"l2_kib\": {}, \"l3_kib\": {}, \"rustc\": {}, \"profile\": {}, \
             \"commit\": {}}}",
            self.nproc,
            self.l2_kib,
            self.l3_kib,
            json::string(self.rustc),
            json::string(self.profile),
            json::string(&self.commit)
        )
    }
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// L2 and L3 data-cache sizes in KiB, as Linux reports them for cpu0 in
/// sysfs; 0 where unknown.
fn cache_kib() -> (u64, u64) {
    let (mut l2, mut l3) = (0, 0);
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).unwrap_or_default();
        if read("type").trim() == "Instruction" {
            continue;
        }
        let kib = read("size")
            .trim()
            .strip_suffix('K')
            .and_then(|k| k.parse().ok());
        match (read("level").trim(), kib) {
            ("2", Some(k)) => l2 = k,
            ("3", Some(k)) => l3 = k,
            _ => {}
        }
    }
    (l2, l3)
}

/// Runs `f` at least `min_reps` times and until `budget` has passed;
/// returns what each call reports: the seconds of the part it times.
pub fn repeat_for(budget: Duration, min_reps: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        times.push(f());
    }
    times
}

/// Median memcpy bandwidth (bytes copied per second, in GB/s) over a
/// buffer of `len` complex values.
pub fn memcpy_gbs(len: usize, budget: Duration) -> f64 {
    let src: Vec<Complex64> = (0..len).map(|i| Complex64::new(i as f64, 1.0)).collect();
    let mut dst = vec![Complex64::ZERO; len];
    let times = repeat_for(budget, 5, || {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        t0.elapsed().as_secs_f64()
    });
    (len * 16) as f64 / crate::stats::median(&times) / 1e9
}

/// Host references recorded with every result: memcpy bandwidth over one
/// rank's slab and the serial 3-D FFT time, both on `problem`.
#[derive(Debug, Clone)]
pub struct HostRefs {
    pub problem: String,
    pub memcpy_gbs: f64,
    pub serial_s: f64,
}

/// The references for the simulated workloads: memcpy over one rank's
/// slab of 256³ on p = 16, and the serial FFT at 128³ (256³ would need
/// 0.5 GiB).
pub fn simulated_refs() -> HostRefs {
    let reference = ProblemSpec::cube(128, 1);
    let (_, serial_s) = serial_reference(&random_field(reference.len(), 0), &reference);
    HostRefs {
        problem: "memcpy: 256x256x16 (one rank of 256^3 on p = 16); serial: 128^3".into(),
        memcpy_gbs: memcpy_gbs(256 * 256 * 16, Duration::from_millis(200)),
        serial_s,
    }
}

/// The serial reference transform of `field`, and its wall time (one
/// thread, `fft3_serial`).
pub fn serial_reference(field: &[Complex64], spec: &ProblemSpec) -> (Vec<Complex64>, f64) {
    let mut out = field.to_vec();
    let t0 = Instant::now();
    fft3_serial_spec(&mut out, spec, Direction::Forward);
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reports_the_build() {
        let fp = Fingerprint::probe();
        assert!(fp.nproc >= 1);
        assert!(fp.rustc.starts_with("rustc"), "{}", fp.rustc);
        assert!(json::parse(&fp.to_json()).is_ok());
    }
}
