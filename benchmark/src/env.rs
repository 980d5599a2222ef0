//! The host the numbers were taken on, this process's own CPU time and
//! peak memory (Linux `/proc`), and which CPUs it runs on.

use serde::Serialize;
use std::process::Command;

/// Environment block of a result file.
#[derive(Debug, Clone, Serialize)]
pub struct Env {
    /// `std::thread::available_parallelism()`: what the program's
    /// default worker threads are sized from.
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    /// 1-minute load average when the run started.
    pub loadavg_1m: f64,
    /// The host was already busier than its CPU count: timings from
    /// this run are suspect.
    pub noisy: bool,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Reads the environment and warns on stderr when the host is loaded.
pub fn probe() -> Env {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    let noisy = loadavg_1m > nproc as f64;
    if noisy {
        eprintln!(
            "warning: 1-min load average {loadavg_1m} exceeds {nproc} CPUs; timings are noisy"
        );
    }
    Env {
        nproc,
        cpu_model,
        rustc: command_line("rustc", &["--version"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        loadavg_1m,
        noisy,
    }
}

/// User + system CPU seconds of this process so far, all threads
/// (fields 14 and 15 of `/proc/self/stat`, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may itself contain spaces and
    // parentheses; the numeric fields start after its closing one.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|v| v.parse::<u64>().ok()).expect("cpu ticks");
    (ticks() + ticks()) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// A set of CPUs, in the layout of glibc's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on; `None` when the kernel
    /// does not say.
    pub fn of_this_thread() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the pointer is to 128 writable bytes, the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..1024).filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Confines the calling thread, and every thread it spawns from now
    /// on, to this set. Returns whether the kernel agreed.
    pub fn confine_this_thread(&self) -> bool {
        // SAFETY: the pointer is to 128 readable bytes, the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_sees_one_cpu_and_can_be_released() {
        let Some(all) = CpuSet::of_this_thread() else { return };
        let first = all.cpus()[0];
        assert!(CpuSet::only(first).confine_this_thread());
        assert_eq!(CpuSet::of_this_thread().map(|s| s.cpus()), Some(vec![first]));
        // What the program sizes its worker threads from.
        assert_eq!(std::thread::available_parallelism().map(|n| n.get()).ok(), Some(1));
        assert!(all.confine_this_thread());
        assert_eq!(CpuSet::of_this_thread(), Some(all));
    }
}
