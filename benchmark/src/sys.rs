//! What the harness reads from the host: process CPU time, peak resident
//! memory, and the facts that go into the run manifest.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI; ticks are therefore 10 ms and only per-repetition
/// sums of CPU time are meaningful).
const USER_HZ: f64 = 100.0;

/// Process CPU time (utime + stime, all threads) in seconds.
pub fn cpu_time_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// CPU time the hypervisor gave to someone else, read from the `steal`
/// column of `/proc/stat` (all CPUs, `USER_HZ` ticks). On the shared
/// sandbox it is the one disturbance that can be measured independently
/// of the result: a repetition of the engine workloads loses a third of
/// its rate at 10 % steal.
pub struct StealClock {
    ticks: f64,
    at: std::time::Instant,
}

impl StealClock {
    fn ticks() -> f64 {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        stat.lines()
            .next()
            .and_then(|cpu| cpu.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// Starts watching.
    pub fn start() -> Self {
        StealClock {
            ticks: Self::ticks(),
            at: std::time::Instant::now(),
        }
    }

    /// Stolen time since `start` as a share of the CPU time the host's
    /// cores could have given (0 where the hypervisor reports none).
    pub fn stolen_share(&self) -> f64 {
        let capacity = self.at.elapsed().as_secs_f64() * USER_HZ * nproc() as f64;
        (Self::ticks() - self.ticks) / capacity.max(1.0)
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The checked-out git revision, read from `.git` under `root` without
/// starting a process; `"unknown"` outside a git checkout (the benchmark
/// driver's copy is one).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version`, or `"unknown"` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Names of the `NFC_*` environment variables that are set. The harness
/// measures what users get by default, so any of them aborts the run.
pub fn nfc_env_overrides() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NFC_"))
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.1);
        let before = cpu_time_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_s() >= before + 0.03, "CPU time must advance");
        assert!(nproc() >= 1);
    }
}
