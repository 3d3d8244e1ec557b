//! The load generator behind the `serve-*` workloads.
//!
//! One thread per connection, each multiplexing its own socket's reads
//! and writes with `ppoll`, so a run uses exactly as many threads as
//! connections (the calling thread drives the first one). Requests go
//! out either on a fixed schedule (open loop: request `i` is due at
//! `start + i/rate`, whatever the server does) or whenever fewer than
//! `depth` are in flight (closed loop). Open-loop latency runs from the
//! scheduled send time, so a stall that delays later sends shows up in
//! their latency, and how late the generator itself ran is recorded per
//! request as its send lag.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Aggregate requests per second across all connections.
    Open { rate: f64 },
    /// Requests kept in flight per connection.
    Closed { depth: usize },
}

/// One phase of load.
pub struct Load<'a> {
    pub addr: &'a str,
    /// Request bytes by template.
    pub templates: &'a [Vec<u8>],
    /// Template of each request, indexed by its global number.
    pub sequence: &'a [u32],
    /// Global number of the phase's first request.
    pub offset: u64,
    /// Requests in the phase.
    pub total: u64,
    pub pace: Pace,
    pub connections: usize,
    /// Keep the response body of global request `i` when this is true.
    pub keep_body: &'a (dyn Fn(u64) -> bool + Sync),
}

/// What a phase observed.
#[derive(Default, Debug)]
pub struct Outcome {
    pub sent: u64,
    pub completed: u64,
    /// Responses with a status outside 2xx.
    pub non2xx: u64,
    /// Requests never answered (connection lost or phase deadline).
    pub dropped: u64,
    /// Requests outstanding at the moment the last one was sent.
    pub backlog_at_end: u64,
    /// Per 2xx response: µs from scheduled (open) or actual (closed)
    /// send time to the full response.
    pub latency_us: Vec<u64>,
    /// Per request sent on schedule: µs between due and written.
    pub send_lag_us: Vec<u64>,
    /// First send to last response.
    pub wall_s: f64,
    /// Kept bodies, by global request number.
    pub bodies: Vec<(u64, Vec<u8>)>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.non2xx += other.non2xx;
        self.dropped += other.dropped;
        self.backlog_at_end += other.backlog_at_end;
        self.latency_us.extend(other.latency_us);
        self.send_lag_us.extend(other.send_lag_us);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.bodies.extend(other.bodies);
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;

const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Asks the kernel to wake this thread's timed waits within 1 µs of
/// their deadline instead of the default 50 µs slack, so sends leave on
/// schedule.
fn tight_timer_slack() {
    // SAFETY: `PR_SET_TIMERSLACK` takes the slack in ns as its only
    // argument and touches no memory of ours; on failure the default
    // slack stays, which only makes sends later, as recorded in the
    // send lag.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Sleeps until `fd` is readable (or writable, if asked) or `wait`
/// has passed, at sub-millisecond resolution.
fn wait_on(fd: i32, writable: bool, wait: Duration) {
    let mut pfd = PollFd { fd, events: POLLIN | if writable { POLLOUT } else { 0 }, revents: 0 };
    let ts = TimeSpec { sec: wait.as_secs() as i64, nsec: wait.subsec_nanos() as i64 };
    // SAFETY: `pfd` and `ts` are live for the call and laid out as the
    // kernel's `struct pollfd` / `struct timespec`; one descriptor is
    // passed and a null signal mask leaves the mask unchanged. A
    // failed or interrupted poll only ends this wait early.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// A parsed response at the front of a buffer: status, body range and
/// bytes consumed.
pub type Parsed = (u16, std::ops::Range<usize>, usize);

/// Parses one HTTP/1.1 response at the front of `buf`, or `None` while
/// it is incomplete.
pub fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let status =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or("unparseable status line")?;
    let mut length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "unparseable content-length")?;
            }
        }
    }
    let end = head_end + length;
    Ok((buf.len() >= end).then_some((status, head_end..end, end)))
}

/// Opens a connection and makes one `GET /healthz` round trip on it, so
/// a server worker holds the connection before any timed request.
pub fn attach(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, _, _)) = parse_response(&buf)? {
            if status != 200 {
                return Err(format!("/healthz answered {status}"));
            }
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            return Ok(stream);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection during attach".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("attach read: {e}")),
        }
    }
}

/// How long a phase waits for stragglers after its last send. A ladder
/// rung above the host's capacity ends with a backlog that the server
/// works off in order; those answers are slow, which fails the rung on
/// its p99, not lost, so the wait outlasts any such backlog and a
/// request counts as dropped only when its connection fails.
const PATIENCE: Duration = Duration::from_secs(20);

/// Runs one phase to completion over freshly attached connections.
pub fn run(load: &Load) -> Result<Outcome, String> {
    let streams: Vec<TcpStream> =
        (0..load.connections).map(|_| attach(load.addr)).collect::<Result<_, _>>()?;
    let start = Instant::now();
    let mut streams = streams.into_iter().enumerate();
    let (_, first) = streams.next().ok_or("no connections")?;
    std::thread::scope(|scope| {
        let others: Vec<_> =
            streams.map(|(c, stream)| scope.spawn(move || drive(load, c, stream, start))).collect();
        let mut total = drive(load, 0, first, start);
        for handle in others {
            total.merge(handle.join().expect("load thread panicked"));
        }
        Ok(total)
    })
}

/// Drives connection `c`: requests `c, c + n, c + 2n, …` of the phase.
fn drive(load: &Load, c: usize, mut stream: TcpStream, start: Instant) -> Outcome {
    tight_timer_slack();
    let step = load.connections as u64;
    let due = |i: u64| match load.pace {
        Pace::Open { rate } => start + Duration::from_secs_f64(i as f64 / rate),
        Pace::Closed { .. } => start,
    };
    let fd = stream.as_raw_fd();
    let mut out = Outcome::default();
    let mut next = c as u64;
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let (mut wbuf, mut wpos) = (Vec::<u8>::new(), 0usize);
    let mut rbuf = Vec::<u8>::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_send: Option<Instant> = None;
    let mut last_done = start;
    let mut alive = true;

    while alive {
        let now = Instant::now();
        // Queue everything that is due.
        let first_new = next;
        match load.pace {
            Pace::Open { .. } => {
                while next < load.total && due(next) <= now {
                    let due_at = due(next);
                    out.send_lag_us.push((now - due_at).as_micros() as u64);
                    pending.push_back((next, due_at));
                    next += step;
                }
            }
            Pace::Closed { depth } => {
                if pending.len() <= depth / 2 {
                    while next < load.total && pending.len() < depth {
                        pending.push_back((next, now));
                        next += step;
                    }
                }
            }
        }
        for i in (first_new..next).step_by(step as usize) {
            let g = load.offset + i;
            let t = load.sequence[(g % load.sequence.len() as u64) as usize];
            wbuf.extend_from_slice(&load.templates[t as usize]);
            out.sent += 1;
        }
        if next >= load.total && first_new < load.total {
            last_send = Some(now);
            out.backlog_at_end = pending.len() as u64;
        }
        // Write what the socket takes.
        while wpos < wbuf.len() {
            match stream.write(&wbuf[wpos..]) {
                Ok(n) => wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        if wpos == wbuf.len() {
            wbuf.clear();
            wpos = 0;
        }
        // Read and match whatever has arrived.
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        let mut used = 0;
        while let Ok(Some((status, body, n))) = parse_response(&rbuf[used..]) {
            let Some((i, sent_at)) = pending.pop_front() else {
                alive = false;
                break;
            };
            let done = Instant::now();
            last_done = done;
            out.completed += 1;
            if (200..300).contains(&status) {
                out.latency_us.push((done - sent_at).as_micros() as u64);
            } else {
                out.non2xx += 1;
            }
            let g = load.offset + i;
            if (load.keep_body)(g) {
                out.bodies.push((g, rbuf[used + body.start..used + body.end].to_vec()));
            }
            used += n;
        }
        rbuf.drain(..used);

        if next >= load.total && pending.is_empty() {
            break;
        }
        if last_send.is_some_and(|t| t.elapsed() > PATIENCE) {
            break;
        }
        // Sleep until the next send is due or a response arrives; never
        // while a closed loop could already refill.
        let wait = match load.pace {
            Pace::Open { .. } if next < load.total => {
                due(next).saturating_duration_since(Instant::now())
            }
            Pace::Closed { depth } if next < load.total && pending.len() <= depth / 2 => {
                Duration::ZERO
            }
            _ => Duration::from_millis(10),
        };
        if alive && !wait.is_zero() {
            wait_on(fd, wpos < wbuf.len(), wait);
        }
    }
    out.dropped = pending.len() as u64 + load.total.saturating_sub(next).div_ceil(step);
    out.wall_s = (last_done - start).as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::parse_response;

    #[test]
    fn parses_pipelined_responses_and_waits_for_partial_ones() {
        let one = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        let mut wire = one.to_vec();
        wire.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nno");
        let (status, body, used) = parse_response(&wire).unwrap().unwrap();
        assert_eq!((status, &wire[body], used), (200, &b"ok"[..], one.len()));
        // The second response is one body byte short.
        assert_eq!(parse_response(&wire[used..]).unwrap(), None);
    }
}
