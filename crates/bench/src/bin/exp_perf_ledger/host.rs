//! Host fingerprint printed with every report, and the process's peak
//! resident set. Numbers from different fingerprints are not comparable.

use std::process::Command;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostFingerprint {
    pub nproc: usize,
    pub simd: &'static str,
    pub pool_threads: usize,
    pub rustc: String,
    pub seed: u64,
}

/// The widest kernel tier `hs_tensor`'s runtime dispatch will pick on this
/// CPU (same feature tests, same order).
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2+fma";
        }
    }
    "portable"
}

impl HostFingerprint {
    pub fn detect(seed: u64) -> Self {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostFingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            simd: simd_tier(),
            pool_threads: hs_parallel::num_threads(),
            rustc,
            seed,
        }
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} simd={} hs_parallel_threads={} rustc=\"{}\" seed={}",
            self.nproc, self.simd, self.pool_threads, self.rustc, self.seed
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
