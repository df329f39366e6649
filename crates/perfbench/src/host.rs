//! The host block written into every result file: a timing without its
//! machine is not a measurement.

use std::process::Command;

use crate::json::Json;

/// What the run was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    /// Output of `nproc` (0 if the command is unavailable).
    pub nproc: u64,
    /// `std::thread::available_parallelism` (0 if unknown).
    pub available_parallelism: u64,
    /// Compiler that built this binary.
    pub rustc: &'static str,
    /// Cargo profile that built this binary.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the working directory, or `unknown`
    /// (the checkout the benchmark is driven in is not a repository).
    pub commit: String,
    /// 1-minute load average when the run started (-1 if unreadable).
    pub load_1m: f64,
}

fn stdout_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        Host {
            nproc: stdout_of("nproc", &[])
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            available_parallelism: std::thread::available_parallelism()
                .map_or(0, |p| p.get() as u64),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            // Only ask git inside a repository root: elsewhere it would
            // search (and could report) the parent directories.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| stdout_of("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
            load_1m: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(-1.0),
        }
    }

    /// Whether a 2-worker arm can have a core per worker. When it cannot,
    /// results are marked `degraded` rather than silently timing an
    /// oversubscribed run.
    pub fn can_run_two_workers(&self) -> bool {
        self.available_parallelism >= 2
    }

    /// The block as result-file members.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("nproc", self.nproc)
            .with("available_parallelism", self.available_parallelism)
            .with("rustc", self.rustc)
            .with("profile", self.profile)
            .with("commit", self.commit.as_str())
            .with("load_1m", self.load_1m)
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
