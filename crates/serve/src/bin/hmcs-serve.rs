//! The `hmcs-serve` daemon binary.
//!
//! Thin shell around [`hmcs_serve::server::Server`]: parse flags,
//! install signal handlers, start serving, and drain gracefully on
//! SIGINT/SIGTERM — the process exits 0 after a clean drain, which CI
//! asserts.
//!
//! The main thread does not poll: it blocks reading one end of a Unix
//! socket pair, and the signal handler writes one byte to the other
//! end. An idle daemon therefore wakes for nothing.

use hmcs_serve::server::{Server, ServerConfig};
use std::io::Read;
use std::os::unix::io::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

/// The write end of the wake-up socket pair, never closed; -1 until it
/// exists.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

// `std` links libc already; declaring `signal` and `write` directly
// avoids a dependency for the two calls the daemon needs.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic load and `write(2)`, both async-signal-safe. The
    // write end is non-blocking, so a full buffer (a burst of signals)
    // drops the byte rather than blocking the handler; one byte already
    // waiting is enough to wake `main`.
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: `fd` is the write end of the socket pair, which
        // `main` leaks so it stays open for the life of the process,
        // and the buffer is one valid byte on this stack frame.
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

const USAGE: &str = "usage: hmcs-serve [options]

options:
  --addr HOST:PORT        bind address (default 127.0.0.1:8377)
  --workers N             worker threads (default: HMCS_POOL_WORKERS or
                          available parallelism)
  --queue-capacity N      admission queue bound (default 64)
  --deadline-ms N         per-request deadline in ms (default 10000)
  --retry-after-s N       Retry-After value on shed responses (default 1)
  --max-body-bytes N      request body cap (default 1048576)
  --idle-timeout-ms N     close kept-alive connections idle this long
                          (default 5000)
  --max-conn-requests N   requests served per connection before the
                          server closes it (default 100000)
  --batch-window-us N     micro-batching gather window for distinct
                          evaluate points, held only when the previous
                          one came within a window; 0 never holds it
                          and gathers nobody, so each request is solved
                          at once, alone (default 0)
  --handler-latency-ms N  artificial /v1/* latency, fault injection
                          for soak tests (default 0)
  --help                  print this help
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--workers" => config.workers = value.parse().map_err(bad)?,
            "--queue-capacity" => config.queue_capacity = value.parse().map_err(bad)?,
            "--deadline-ms" => {
                config.deadline = Duration::from_millis(value.parse().map_err(bad)?);
            }
            "--retry-after-s" => config.retry_after_s = value.parse().map_err(bad)?,
            "--max-body-bytes" => config.max_body_bytes = value.parse().map_err(bad)?,
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(value.parse().map_err(bad)?);
            }
            "--max-conn-requests" => config.max_conn_requests = value.parse().map_err(bad)?,
            "--batch-window-us" => {
                config.batch_window = Duration::from_micros(value.parse().map_err(bad)?);
            }
            "--handler-latency-ms" => {
                config.handler_latency = Duration::from_millis(value.parse().map_err(bad)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

fn main() {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    let (mut wake_rx, wake_tx) = match UnixStream::pair().and_then(|(rx, tx)| {
        tx.set_nonblocking(true)?;
        Ok((rx, tx))
    }) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: failed to create the signal wake-up socket: {e}");
            std::process::exit(1);
        }
    };
    WAKE_FD.store(wake_tx.into_raw_fd(), Ordering::SeqCst);
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` that calls only
    // async-signal-safe functions.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            std::process::exit(1);
        }
    };
    println!("hmcs-serve listening on http://{}", server.local_addr());

    // Blocks until a signal handler writes its byte (`read_exact`
    // retries a read the signal interrupted). The write end is never
    // closed, so the read cannot see end-of-file first.
    if let Err(e) = wake_rx.read_exact(&mut [0u8; 1]) {
        eprintln!("error: signal wake-up socket failed: {e}");
    }
    eprintln!("hmcs-serve: draining {} queued request(s)", server.queue_len());
    server.shutdown();
    eprintln!("hmcs-serve: drained, exiting");
}
