//! What `/proc` and the toolchain say about a process and its machine.

use std::process::Command;

/// On-CPU nanoseconds of every live thread of `pid`, summed (the first
/// field of each `/proc/<pid>/task/*/schedstat`).
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()))
        .sum()
}

fn status_kb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|r| r.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        })
        .unwrap_or(0.0)
}

/// Peak resident set of `pid` (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:") / 1024.0
}

/// Current resident set of `pid` (`VmRSS`), in MB.
pub fn rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmRSS:") / 1024.0
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).lines().next().unwrap_or("").to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine a report was measured on.
pub struct Machine {
    pub cores: usize,
    pub kernel: String,
    pub rustc: String,
}

pub fn machine() -> Machine {
    Machine {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        rustc: first_line("rustc", &["-V"]),
    }
}
