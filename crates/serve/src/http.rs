//! A minimal hand-rolled HTTP/1.1 subset with keep-alive.
//!
//! Just enough protocol for the daemon: `Content-Length` bodies only,
//! bounded header and body sizes, persistent connections via
//! [`RequestReader`] (a per-connection buffered reader that carries
//! pipelined bytes over from one request to the next), and no
//! dependency beyond `std::io`. The parser is strict where it matters
//! for robustness — malformed request lines, oversized headers/bodies,
//! duplicate or non-numeric `Content-Length` values (the classic
//! request-smuggling levers once connections are reused) and
//! `Transfer-Encoding` (which this server deliberately does not
//! implement) are all rejected with precise status codes rather than
//! being misread.

use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

/// Hard cap on the request head (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Socket read granularity. One read of a pipelined connection can
/// pull many small requests into the buffer at once.
const READ_CHUNK: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// The path with any query string stripped.
    pub path: String,
    /// The raw body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether this request ends the connection: `Connection: close`,
    /// or HTTP/1.0 without an explicit `Connection: keep-alive`.
    pub wants_close: bool,
}

/// Why a request could not be read. Each variant maps to one status.
#[derive(Debug)]
pub enum ReadError {
    /// Protocol violation → `400`.
    Malformed(String),
    /// Head or body over the configured cap → `431` / `413`.
    TooLarge(&'static str),
    /// Unsupported mechanism (`Transfer-Encoding`) → `501`.
    Unsupported(&'static str),
    /// Socket error or timeout → no response possible / `408`.
    Io(std::io::Error),
}

impl ReadError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ReadError::Malformed(_) => 400,
            ReadError::TooLarge("head") => 431,
            ReadError::TooLarge(_) => 413,
            ReadError::Unsupported(_) => 501,
            ReadError::Io(e) if is_timeout(e) => 408,
            ReadError::Io(_) => 400,
        }
    }

    /// A short human-readable reason (never echoes raw request bytes).
    pub fn reason(&self) -> String {
        match self {
            ReadError::Malformed(what) => format!("malformed request: {what}"),
            ReadError::TooLarge(what) => format!("request {what} too large"),
            ReadError::Unsupported(what) => format!("{what} not supported"),
            ReadError::Io(e) => format!("read failed: {}", e.kind()),
        }
    }
}

/// A buffered per-connection request reader.
///
/// Under keep-alive, one socket read routinely pulls bytes belonging
/// to *several* pipelined requests. The reader owns the carry-over
/// buffer: [`RequestReader::read_request`] consumes exactly one
/// request (head + `Content-Length` body) and leaves everything after
/// it buffered for the next call — those bytes are the next request,
/// not a protocol error.
#[derive(Debug, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
}

impl RequestReader {
    /// Creates a reader with an empty carry-over buffer.
    pub fn new() -> Self {
        RequestReader { buf: Vec::with_capacity(1024) }
    }

    /// Whether bytes of a further (pipelined) request are already
    /// buffered — if so, the next [`RequestReader::read_request`] can
    /// make progress without touching the socket.
    pub(crate) fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads more of the connection into the carry-over buffer through
    /// [`fill`]: the server's idle wait for the next request. It ends
    /// with that request's first bytes buffered, with `Ok(0)` at end of
    /// stream or once `stop()` holds, or with the timeout error when
    /// `deadline` lapses.
    pub(crate) fn fill(
        &mut self,
        stream: &mut impl Read,
        deadline: Instant,
        stop: impl Fn() -> bool,
    ) -> std::io::Result<usize> {
        fill(stream, &mut self.buf, deadline, stop)
    }

    /// Reads one request, enforcing `MAX_HEAD_BYTES` and
    /// `max_body_bytes`. Returns `Ok(None)` on a clean end of
    /// connection (EOF before the first byte of a request). Socket
    /// timeouts (`WouldBlock`/`TimedOut`) are retried until `deadline`,
    /// so the stream's own read timeout may be a short slice.
    pub fn read_request(
        &mut self,
        stream: &mut impl Read,
        max_body_bytes: usize,
        deadline: Instant,
    ) -> Result<Option<Request>, ReadError> {
        let mut more =
            |buf: &mut Vec<u8>| fill(stream, buf, deadline, || false).map_err(ReadError::Io);
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                if pos > MAX_HEAD_BYTES {
                    return Err(ReadError::TooLarge("head"));
                }
                break pos;
            }
            if self.buf.len() >= MAX_HEAD_BYTES {
                return Err(ReadError::TooLarge("head"));
            }
            if more(&mut self.buf)? == 0 {
                if self.buf.is_empty() {
                    return Ok(None); // clean close between requests
                }
                return Err(ReadError::Malformed("connection closed before request head".into()));
            }
        };

        // `head_end` includes the final CRLFCRLF; parse without it.
        let head_text = std::str::from_utf8(&self.buf[..head_end - 4])
            .map_err(|_| ReadError::Malformed("request head is not UTF-8".into()))?;
        let mut lines = head_text.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(ReadError::Malformed("bad request line".into())),
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ReadError::Malformed("unsupported HTTP version".into()));
        }

        let mut content_length: Option<usize> = None;
        let mut close_token = false;
        let mut keep_alive_token = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Malformed("header without ':'".into()));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => {
                    // RFC 7230 §3.3.2: duplicate or conflicting
                    // Content-Length headers make the message boundary
                    // ambiguous — under keep-alive that ambiguity is
                    // how request smuggling starts, so *any* repeat is
                    // rejected outright.
                    if content_length.is_some() {
                        return Err(ReadError::Malformed("duplicate Content-Length".into()));
                    }
                    // ASCII digits only: `usize::from_str` would also
                    // accept a leading `+`, which no peer sends and
                    // some proxies parse differently.
                    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(ReadError::Malformed("unparseable Content-Length".into()));
                    }
                    content_length =
                        Some(value.parse().map_err(|_| {
                            ReadError::Malformed("unparseable Content-Length".into())
                        })?);
                }
                "transfer-encoding" => return Err(ReadError::Unsupported("Transfer-Encoding")),
                "connection" => {
                    for token in value.split(',') {
                        match token.trim().to_ascii_lowercase().as_str() {
                            "close" => close_token = true,
                            "keep-alive" => keep_alive_token = true,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > max_body_bytes {
            return Err(ReadError::TooLarge("body"));
        }
        let wants_close = close_token || (version == "HTTP/1.0" && !keep_alive_token);
        let path = target.split('?').next().unwrap_or(target).to_string();
        let request_line = (method.to_string(), path);

        // Consume the head; everything left in `buf` is body bytes and
        // possibly the start of pipelined follow-up requests.
        self.buf.drain(..head_end);
        while self.buf.len() < content_length {
            if more(&mut self.buf)? == 0 {
                return Err(ReadError::Malformed("connection closed mid-body".into()));
            }
        }
        let body = self.buf[..content_length].to_vec();
        self.buf.drain(..content_length);

        Ok(Some(Request { method: request_line.0, path: request_line.1, body, wants_close }))
    }
}

/// Reads once from `stream` into `buf`: the crate's one socket read
/// loop, shared by requests, the idle wait between them and the load
/// generator's responses. `Interrupted` is retried at once, and a read
/// timeout (`WouldBlock`/`TimedOut`) until `deadline`, so the stream's
/// own read timeout may be a short slice; at each timeout `stop()` is
/// asked first whether to give up. Returns the bytes read, 0 at end of
/// stream or once `stop()` held; a lapsed `deadline` returns the
/// timeout error.
pub(crate) fn fill(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    deadline: Instant,
    stop: impl Fn() -> bool,
) -> std::io::Result<usize> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match stream.read(&mut chunk) {
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if stop() {
                    return Ok(0);
                }
                if Instant::now() >= deadline {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Whether a read failed only because the socket's read timeout lapsed.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Index just past the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// One response, serialised by `write_response`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Emits a `Retry-After: <seconds>` header when set (load shed).
    pub retry_after_s: Option<u64>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A `200` JSON response.
    pub fn json(body: String) -> Self {
        Response { status: 200, content_type: "application/json", retry_after_s: None, body }
    }

    /// A `200` plain-text response.
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            retry_after_s: None,
            body,
        }
    }

    /// The standard reason phrase for this status.
    pub(crate) fn reason_phrase(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Appends the serialised response to `out`. `close` selects the
/// advertised `connection:` disposition; the caller must actually
/// close the socket when it says `close`. Appending lets the server
/// cork several pipelined responses into one socket write.
pub fn serialize_response(out: &mut Vec<u8>, response: &Response, close: bool) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        response.reason_phrase(),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    if let Some(seconds) = response.retry_after_s {
        let _ = write!(out, "retry-after: {seconds}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(response.body.as_bytes());
}

/// Serialises `response` onto `stream` in a single write.
pub(crate) fn write_response(
    stream: &mut impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(256 + response.body.len());
    serialize_response(&mut out, response, close);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    fn parse(raw: &[u8]) -> Result<Request, ReadError> {
        let mut reader = RequestReader::new();
        match reader.read_request(&mut std::io::Cursor::new(raw.to_vec()), 1024, far()) {
            Ok(Some(req)) => Ok(req),
            Ok(None) => Err(ReadError::Malformed("clean close".into())),
            Err(e) => Err(e),
        }
    }

    #[test]
    fn parses_a_simple_post() {
        let req = parse(b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/evaluate");
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body_and_strips_query() {
        let req = parse(b"GET /metrics?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_semantics_follow_the_version() {
        assert!(parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().wants_close);
        assert!(parse(b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap().wants_close);
        assert!(
            parse(b"GET /x HTTP/1.1\r\nConnection: foo, close\r\n\r\n").unwrap().wants_close,
            "close anywhere in the token list wins"
        );
        assert!(parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap().wants_close, "HTTP/1.0 defaults close");
        assert!(
            !parse(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().wants_close,
            "explicit keep-alive overrides the 1.0 default"
        );
    }

    #[test]
    fn pipelined_requests_carry_over_instead_of_erroring() {
        // Regression: bytes after the body used to be rejected as
        // "body longer than Content-Length"; under keep-alive they are
        // the *next* request and must be preserved for it.
        let raw = b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new();
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let first = reader.read_request(&mut cursor, 1024, far()).unwrap().unwrap();
        assert_eq!(first.path, "/v1/evaluate");
        assert_eq!(first.body, b"abcd");
        assert!(reader.has_buffered(), "second request is already buffered");
        let second = reader.read_request(&mut cursor, 1024, far()).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
        // After the last request a clean EOF reads as end of stream.
        assert!(reader.read_request(&mut cursor, 1024, far()).unwrap().is_none());
    }

    #[test]
    fn clean_eof_before_any_request_is_not_an_error() {
        let mut reader = RequestReader::new();
        let got = reader.read_request(&mut std::io::Cursor::new(Vec::new()), 1024, far()).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert_eq!(parse(b"NONSENSE\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET /x HTTP/9.9\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET  HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Identical or conflicting repeats are both message-boundary
        // ambiguities; RFC 7230 §3.3.2 requires rejection.
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.reason().contains("duplicate"), "{}", err.reason());
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 9\r\n\r\nabcd")
            .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_non_digit_content_length_forms() {
        // `usize::from_str` accepts a leading `+`; the wire grammar
        // does not.
        for bad in ["+10", "-1", " 10", "0x10", "10 10", "1,0", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length:{bad}\r\n\r\n");
            let err = parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "Content-Length {bad:?} must be rejected");
        }
        // A plain digit string still parses.
        assert!(parse(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn rejects_oversized_bodies_and_heads() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
        let mut big = b"GET /x HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 16));
        assert_eq!(parse(&big).unwrap_err().status(), 431);
    }

    #[test]
    fn rejects_transfer_encoding() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn rejects_truncated_bodies() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    /// A peer scripted read by read: each step delivers bytes or fails
    /// with an error kind. Past the script the peer is silent: every
    /// read times out after a short slice, like a socket read timeout.
    struct Scripted {
        steps: std::collections::VecDeque<Result<&'static [u8], ErrorKind>>,
        reads: usize,
    }

    impl Scripted {
        fn new(steps: Vec<Result<&'static [u8], ErrorKind>>) -> Self {
            Scripted { steps: steps.into(), reads: 0 }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Ok(bytes)) => {
                    out[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
                Some(Err(kind)) => Err(kind.into()),
                None => {
                    std::thread::sleep(Duration::from_millis(5));
                    Err(ErrorKind::WouldBlock.into())
                }
            }
        }
    }

    #[test]
    fn read_timeouts_are_retried_and_a_split_request_parses_intact() {
        use ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut peer = Scripted::new(vec![
            Err(WouldBlock),
            Err(TimedOut),
            Ok(b"POST /v1/evaluate HTTP/1.1\r\nConte"),
            Err(Interrupted),
            Err(WouldBlock),
            Ok(b"nt-Length: 9\r\n\r\n{\"a\""),
            Err(TimedOut),
            Err(WouldBlock),
            Ok(b":123}"),
        ]);
        let mut reader = RequestReader::new();
        let req = reader.read_request(&mut peer, 1024, far()).unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/v1/evaluate"));
        assert_eq!(req.body, br#"{"a":123}"#);
        assert!(peer.steps.is_empty(), "every scripted read was consumed");
        assert!(!reader.has_buffered());
    }

    #[test]
    fn read_timeout_retries_stop_at_the_deadline() {
        let mut peer = Scripted::new(vec![Ok(b"GET /healthz HTTP/1.1\r\n")]);
        let budget = Duration::from_millis(60);
        let start = Instant::now();
        let err = RequestReader::new().read_request(&mut peer, 1024, start + budget).unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(&err, ReadError::Io(e) if is_timeout(e)), "{err:?}");
        assert_eq!(err.status(), 408);
        assert!(waited >= budget, "gave up early, after {waited:?}");
        assert!(waited < budget * 10, "kept retrying for {waited:?}");
        // Each silent read takes a 5 ms slice, so the retries stopped
        // within a few slices of the deadline.
        assert!(peer.reads < 40, "{} reads", peer.reads);
    }

    #[test]
    fn an_idle_wait_that_lapses_empty_is_idle_not_malformed() {
        let mut reader = RequestReader::new();
        let start = Instant::now();
        let mut silent = Scripted::new(Vec::new());
        let lapsed = reader.fill(&mut silent, start + Duration::from_millis(30), || false);
        assert!(lapsed.as_ref().is_err_and(is_timeout), "{lapsed:?}");
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(!reader.has_buffered(), "nothing was read, so nothing is left to parse");

        // `stop` ends the wait quietly at the first timeout, deadline
        // or not, and a closed peer ends it the same way.
        let mut silent = Scripted::new(Vec::new());
        assert_eq!(reader.fill(&mut silent, far(), || true).unwrap(), 0);
        assert_eq!(reader.fill(&mut Scripted::new(vec![Ok(b"")]), far(), || false).unwrap(), 0);

        // Bytes that end the wait are the start of the next request.
        let mut peer =
            Scripted::new(vec![Err(ErrorKind::WouldBlock), Ok(b"GET /x HTTP/1.1\r\n\r\n")]);
        assert!(reader.fill(&mut peer, far(), || false).unwrap() > 0);
        let req = reader.read_request(&mut peer, 1024, far()).unwrap().unwrap();
        assert_eq!(req.path, "/x");
    }

    #[test]
    fn response_serialisation_includes_retry_after_and_disposition() {
        let mut out = Vec::new();
        let resp = Response {
            status: 503,
            content_type: "application/json",
            retry_after_s: Some(2),
            body: "{}".into(),
        };
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::text("ok".into()), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
    }
}
