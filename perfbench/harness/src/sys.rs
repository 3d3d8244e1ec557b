//! The few operating-system facilities `std` does not expose: this
//! process's CPU time and peak resident memory (`getrusage`), signalling
//! a child (`kill`), another process's CPU time and peak resident
//! memory (`/proc/<pid>/stat`, `/proc/<pid>/task/*/schedstat`,
//! `/proc/<pid>/status`). Linux only.

use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kib: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;
/// `SIGTERM`: asks `hmcs-serve` to drain and exit.
pub const SIGTERM: i32 = 15;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn self_rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    usage
}

/// User plus system CPU seconds this process has used, all threads.
pub fn self_cpu_s() -> f64 {
    let u = self_rusage();
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
}

/// Peak resident memory of this process, MiB.
pub fn self_peak_rss_mb() -> f64 {
    self_rusage().maxrss_kib as f64 / 1024.0
}

/// Sends `signal` to process `pid`.
pub fn signal(pid: u32, signal: i32) {
    // SAFETY: `kill` takes plain integers and touches no memory of
    // ours; a stale pid only makes it return an error, ignored here.
    unsafe {
        kill(pid as i32, signal);
    }
}

/// User plus system CPU seconds process `pid` has used, all threads
/// including finished ones, at clock-tick resolution.
pub fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("unparseable /proc stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or_else(|| "short /proc stat".into())
    };
    // SAFETY: `sysconf` takes an integer and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((ticks(11)? + ticks(12)?) / hz)
}

/// CPU seconds the live threads of process `pid` have run, at
/// nanosecond resolution (`/proc/<pid>/task/*/schedstat`), for spans too
/// short for clock ticks. Threads that have exited are not counted.
pub fn proc_thread_cpu_s(pid: u32) -> Result<f64, String> {
    let tasks = format!("/proc/{pid}/task");
    let mut ns = 0u64;
    for task in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
        let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(&path) else { continue };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: unparseable", path.display()))?;
    }
    Ok(ns as f64 * 1e-9)
}

/// Peak resident memory (`VmHWM`) of process `pid`, MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// Wall seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
