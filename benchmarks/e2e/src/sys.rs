//! Host-side process counters (Linux): CPU time, page faults, resident
//! memory, and the environment block printed with every report.

use std::ffi::c_long;

const MB: f64 = 1024.0;

/// Linux `struct rusage`: two `timeval`s, then 14 `long` counters of which
/// `ru_minflt` is the fifth.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    _rss: [c_long; 4],
    minflt: c_long,
    _rest: [c_long; 9],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Cumulative CPU seconds and minor page faults of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout Linux
    // documents for 64-bit targets, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
        minflt: ru.minflt as u64,
    }
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / MB)
}

/// Current resident set in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Peak resident set of this process image in MB (`VmHWM`; unlike
/// `ru_maxrss` it does not inherit the parent's peak across `exec`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` pairs describing the machine and the build.
pub fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(str::to_string))
        })
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_sha", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
    ]
}
