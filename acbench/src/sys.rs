//! Process-level measurements read from `/proc` (the benchmark links no
//! `libc`): CPU time of the whole process and of the calling thread, and
//! the process's peak resident set.

use std::fs;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, all threads
/// included (also threads that have already exited).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, `utime` and `stime`
    // being fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU seconds the calling thread has run so far, to the nanosecond
/// (the first field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<f64>().ok())
        .expect("run time field");
    ns / 1e9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}
