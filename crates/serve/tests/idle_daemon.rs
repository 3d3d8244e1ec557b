//! An idle `hmcs-serve` sleeps on events, not timers: across one quiet
//! second its threads barely context-switch, and SIGTERM still drains
//! it to a clean exit.
//!
//! Linux only: the switch counts come from `/proc/<pid>/task/*/status`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, signum: i32) -> i32;
}

/// Kills the daemon if the test fails before it exits on its own.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sum of `voluntary_ctxt_switches` over every thread of `pid`.
fn voluntary_switches(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("daemon task list");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}

#[test]
fn idle_daemon_wakes_for_nothing_and_drains_on_sigterm() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_hmcs-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--batch-window-us", "200"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hmcs-serve"),
    );
    // Held open to the end, so the daemon never writes into a closed pipe.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    assert!(banner.starts_with("hmcs-serve listening on "), "unexpected banner {banner:?}");
    let pid = daemon.0.id();

    // Let the worker threads reach their queue wait, then count.
    std::thread::sleep(Duration::from_millis(200));
    let before = voluntary_switches(pid);
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(pid) - before;
    // A timer-polling acceptor or main loop wakes hundreds of times a
    // second; a daemon blocked on events wakes for nothing.
    assert!(woke <= 10, "idle daemon switched context {woke} times in one second");

    // SAFETY: `kill` is the libc call of that name; `pid` is our live
    // child, which `daemon` has not reaped yet.
    assert_eq!(unsafe { kill(pid as i32, SIGTERM) }, 0, "send SIGTERM");
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait for daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon still running 2 s after SIGTERM");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "SIGTERM drain must exit 0, got {status}");
}
