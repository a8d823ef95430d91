//! `/proc` accounting of a process from outside: CPU time and context
//! switches per thread, grouped by thread name, and peak resident memory.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second for `utime`/`stime` (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// The group a thread name belongs to. Server threads are named
/// `native-nmp-*` (combiners), `native-conn-*` (workers), `reactor-*`
/// and `acceptor`.
pub fn group_of(comm: &str) -> &'static str {
    if comm.starts_with("native-nmp-") {
        "combiner"
    } else if comm.starts_with("native-conn-") {
        "worker"
    } else if comm.starts_with("reactor-") {
        "reactor"
    } else if comm == "acceptor" {
        "acceptor"
    } else {
        "other"
    }
}

/// Per-thread CPU seconds and context switches at one instant.
#[derive(Debug, Clone, Default)]
pub struct TaskSample {
    pub cpu_s: f64,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

/// Every thread of `pid`, keyed by thread id, with its name.
pub fn sample_tasks(pid: u32) -> BTreeMap<u32, (String, TaskSample)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else { return out };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else { continue };
        let base = entry.path();
        let Ok(stat) = fs::read_to_string(base.join("stat")) else { continue };
        // `comm` sits in parentheses and may itself contain spaces.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else { continue };
        let comm = stat[open + 1..close].to_string();
        let fields: Vec<&str> = stat[close + 2..].split_whitespace().collect();
        // After `comm`, field 3 (state) is index 0: utime is field 14,
        // stime field 15.
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        let cpu_s = (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC;
        let status = fs::read_to_string(base.join("status")).unwrap_or_default();
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        let sample = TaskSample {
            cpu_s,
            vol_ctxsw: field("voluntary_ctxt_switches:"),
            invol_ctxsw: field("nonvoluntary_ctxt_switches:"),
        };
        out.insert(tid, (comm, sample));
    }
    out
}

/// Per-group totals of the change between two samples of the same
/// process. Threads that appear only in `after` count from zero.
pub fn group_delta(
    before: &BTreeMap<u32, (String, TaskSample)>,
    after: &BTreeMap<u32, (String, TaskSample)>,
    group: impl Fn(&str) -> &'static str,
) -> BTreeMap<&'static str, TaskSample> {
    let mut out: BTreeMap<&'static str, TaskSample> = BTreeMap::new();
    for (tid, (comm, a)) in after {
        let b = before.get(tid).map(|(_, s)| s.clone()).unwrap_or_default();
        let g = out.entry(group(comm)).or_default();
        g.cpu_s += a.cpu_s - b.cpu_s;
        g.vol_ctxsw += a.vol_ctxsw.saturating_sub(b.vol_ctxsw);
        g.invol_ctxsw += a.invol_ctxsw.saturating_sub(b.invol_ctxsw);
    }
    out
}

/// Whole-process CPU seconds (all threads, user + system).
pub fn process_cpu_s(pid: u32) -> f64 {
    sample_tasks(pid).values().map(|(_, s)| s.cpu_s).sum()
}

/// Peak resident set (`VmHWM`) of `pid` in MiB, or `None` if unreadable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Number of online processors.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_threads() {
        let pid = std::process::id();
        let tasks = sample_tasks(pid);
        assert!(!tasks.is_empty());
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert_eq!(group_of("native-nmp-3"), "combiner");
        assert_eq!(group_of("native-conn-0"), "worker");
        assert_eq!(group_of("reactor-1"), "reactor");
    }
}
