//! A minimal, dependency-free HTTP/1.1 wire protocol: request parsing
//! with hard resource limits and a small response writer.
//!
//! Built for `lacnet-serve`, which talks plain `std::net::TcpStream`s.
//! The parser reads exactly one request per call from a `BufRead`, so a
//! connection loop gets pipelining for free; every malformed or oversized
//! input maps to a *typed* error carrying the HTTP status the server
//! should answer with (400, 413, 414 or 431) — never a panic, and, with
//! a read timeout on the socket, never a hang.

use std::fmt;
use std::io::{BufRead, IoSlice, Write};
use std::ops::Deref;
use std::sync::Arc;

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request-line length in bytes (overflow → 414).
    pub max_request_line: usize,
    /// Maximum total header block size in bytes (overflow → 431).
    pub max_header_bytes: usize,
    /// Maximum number of header fields (overflow → 431).
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted (overflow → 413).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_bytes: 32 * 1024,
            max_headers: 100,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, upper-case by convention (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target (before any `?`).
    pub path: String,
    /// The raw query string (after `?`, empty when absent).
    pub query: String,
    /// `true` for `HTTP/1.1` targets, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header fields in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Decode the query string into `key=value` pairs (`+` and `%XX`
    /// unescaped; keys without `=` get an empty value).
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        self.query
            .split('&')
            .filter(|part| !part.is_empty())
            .map(|part| {
                let (k, v) = match part.split_once('=') {
                    Some((k, v)) => (k, v),
                    None => (part, ""),
                };
                (percent_decode(k), percent_decode(v))
            })
            .collect()
    }

    /// Whether the client asked to close the connection after this
    /// exchange (explicit `Connection: close`, or HTTP/1.0 default).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => !self.http11,
        }
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-decode `s`, rejecting malformed escapes instead of passing
/// them through (`+` still decodes to a space). `None` on a `%` not
/// followed by two hex digits — the strict counterpart of the lossy
/// decoding [`Request::query_pairs`] applies.
pub fn percent_decode_strict(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let b = u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                out.push(b);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    Some(String::from_utf8_lossy(&out).into_owned())
}

/// Normalize a raw query string into its canonical pair list: strict
/// percent-decoding (malformed escapes → `None`), duplicate keys
/// resolved last-key-wins, keys sorted. Two spellings of the same query
/// (`?format=tsv`, `?format=%74sv`, `?format=json&format=tsv`) normalize
/// to the same list — the property response caches key on.
pub fn normalize_query(query: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = std::collections::BTreeMap::new();
    for part in query.split('&').filter(|part| !part.is_empty()) {
        let (k, v) = match part.split_once('=') {
            Some((k, v)) => (k, v),
            None => (part, ""),
        };
        pairs.insert(percent_decode_strict(k)?, percent_decode_strict(v)?);
    }
    Some(pairs.into_iter().collect())
}

/// Why a request could not be read. Every protocol-level variant carries
/// the status code the server should answer with before closing.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header or body framing → 400.
    BadRequest(&'static str),
    /// Declared body larger than [`Limits::max_body`] → 413.
    PayloadTooLarge,
    /// Request line longer than [`Limits::max_request_line`] → 414.
    UriTooLong,
    /// Header block larger than the limits allow → 431.
    HeadersTooLarge,
    /// Clean end of stream before the first byte of a request — the
    /// normal end of a keep-alive connection, not an error to report.
    Closed,
    /// The underlying socket failed mid-request (including read
    /// timeouts). The connection is beyond recovery; just drop it.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code to answer with, or `None` when the connection
    /// should simply be dropped.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::PayloadTooLarge => Some(413),
            HttpError::UriTooLong => Some(414),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::Closed | HttpError::Io(_) => None,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::PayloadTooLarge => write!(f, "payload too large"),
            HttpError::UriTooLong => write!(f, "request line too long"),
            HttpError::HeadersTooLarge => write!(f, "header block too large"),
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Outcome of one bounded line read.
enum LineRead {
    Line(Vec<u8>),
    /// End of stream with no bytes read.
    Eof,
    /// End of stream mid-line.
    TruncatedEof,
    /// The line exceeded `cap` bytes.
    Overflow,
}

/// Read one `\n`-terminated line of at most `cap` bytes, stripping the
/// terminator and an optional preceding `\r`.
fn read_line(reader: &mut impl BufRead, cap: usize) -> Result<LineRead, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Ok(if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::TruncatedEof
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(LineRead::Line(line));
                }
                if line.len() >= cap {
                    return Ok(LineRead::Overflow);
                }
                line.push(byte[0]);
            }
            Err(e) if is_timeout(&e) && !line.is_empty() => {
                return Err(HttpError::BadRequest("client stalled mid-request"))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// A read that gave up on the socket deadline. A timeout on an *idle*
/// connection is a normal keep-alive close; the same timeout after the
/// request has started arriving is a stalled (or slow-loris) client and
/// maps to a typed 400 so the peer learns why it was dropped.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// Read exactly one request from `reader`, enforcing `limits`.
///
/// Reads no byte past the end of the request, so pipelined requests on
/// one connection parse back-to-back with repeated calls.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    // Request line; tolerate leading blank lines (RFC 9112 §2.2).
    let line = loop {
        match read_line(reader, limits.max_request_line)? {
            LineRead::Line(l) if l.is_empty() => continue,
            LineRead::Line(l) => break l,
            LineRead::Eof => return Err(HttpError::Closed),
            LineRead::TruncatedEof => return Err(HttpError::BadRequest("truncated request line")),
            LineRead::Overflow => return Err(HttpError::UriTooLong),
        }
    };
    let line =
        String::from_utf8(line).map_err(|_| HttpError::BadRequest("request line not UTF-8"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequest("request line needs 3 parts")),
    };
    if !is_token(method) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };
    if target.is_empty() || (!target.starts_with('/') && target != "*") {
        return Err(HttpError::BadRequest("request target must be absolute"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    // Header block.
    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = match read_line(reader, limits.max_header_bytes) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof | LineRead::TruncatedEof) => {
                return Err(HttpError::BadRequest("truncated header block"))
            }
            Ok(LineRead::Overflow) => return Err(HttpError::HeadersTooLarge),
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                return Err(HttpError::BadRequest("client stalled mid-request"))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.max_header_bytes || headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let line =
            String::from_utf8(line).map_err(|_| HttpError::BadRequest("header not UTF-8"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("header without colon"))?;
        if !is_token(name) {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Body framing: Content-Length only; chunked bodies are refused.
    let mut request = Request {
        method: method.to_owned(),
        path,
        query,
        http11,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest("transfer-encoding not supported"));
    }
    // Every Content-Length field (and every member of a comma-folded
    // list) must agree; conflicting declarations are the classic request
    // smuggling vector and are refused outright (RFC 9112 §6.3).
    let mut declared: Option<usize> = None;
    for (_, raw) in request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
    {
        for part in raw.split(',') {
            let len: usize = part
                .trim()
                .parse()
                .map_err(|_| HttpError::BadRequest("malformed content-length"))?;
            if declared.is_some_and(|prev| prev != len) {
                return Err(HttpError::BadRequest("conflicting content-length"));
            }
            declared = Some(len);
        }
    }
    if let Some(len) = declared {
        if len > limits.max_body {
            return Err(HttpError::PayloadTooLarge);
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof || is_timeout(&e) {
                HttpError::BadRequest("truncated body")
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(request)
}

/// The canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// A response body: immutable bytes behind an [`Arc`], so every response
/// serving one cached body shares it — a clone is a refcount bump, never
/// a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body(Arc<[u8]>);

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body(bytes.into())
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// One response, written with explicit framing (`Content-Length` always
/// present, so keep-alive and pipelining are safe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers beyond the framing set.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Body,
}

impl Response {
    /// A response with the given status, content type and body.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Body>) -> Self {
        Response {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Serialise status line, headers and body to `w`. `close` adds
    /// `Connection: close`; otherwise the connection is keep-alive.
    ///
    /// Head and body go out in one vectored write (looping only on a
    /// short write), never two: on a socket with Nagle's algorithm on, a
    /// body written after the head would wait for the peer's delayed ACK
    /// of the head.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        if close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(&self.body)];
        let mut pending = &mut slices[..];
        while !pending.is_empty() {
            match w.write_vectored(pending) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    /// Yields a fixed prefix, then times out forever — a stalled client.
    struct StallReader(Cursor<Vec<u8>>);

    impl std::io::Read for StallReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(std::io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    fn parse_stalled(prefix: &[u8]) -> Result<Request, HttpError> {
        let mut reader = std::io::BufReader::new(StallReader(Cursor::new(prefix.to_vec())));
        read_request(&mut reader, &Limits::default())
    }

    #[test]
    fn stalls_after_progress_are_bad_requests_not_silent_drops() {
        // Mid-request-line, mid-headers, mid-body: all typed 400s, so the
        // serving loop answers before dropping a slow-loris peer.
        for prefix in [
            b"GET /half".as_slice(),
            b"GET / HTTP/1.1\r\nx-half: ".as_slice(),
            b"GET / HTTP/1.1\r\ncontent-length: 100\r\n\r\nabc".as_slice(),
        ] {
            assert_eq!(
                parse_stalled(prefix).unwrap_err().status(),
                Some(400),
                "prefix {prefix:?}"
            );
        }
        // An idle connection timing out before any byte stays an Io
        // error: keep-alive closes get no error response.
        assert!(matches!(parse_stalled(b"").unwrap_err(), HttpError::Io(_)));
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse(b"GET /fig/11?format=tsv HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/fig/11");
        assert_eq!(req.query, "format=tsv");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(
            req.query_pairs(),
            vec![("format".to_owned(), "tsv".to_owned())]
        );
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_body_and_stops_at_its_end() {
        let mut cursor = Cursor::new(
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET / HTTP/1.1\r\n\r\n".to_vec(),
        );
        let limits = Limits::default();
        let first = read_request(&mut cursor, &limits).unwrap();
        assert_eq!(first.body, b"abcd");
        // The next pipelined request is intact.
        let second = read_request(&mut cursor, &limits).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut cursor = Cursor::new(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec());
        let limits = Limits::default();
        assert_eq!(read_request(&mut cursor, &limits).unwrap().path, "/a");
        assert_eq!(read_request(&mut cursor, &limits).unwrap().path, "/b");
        assert!(matches!(
            read_request(&mut cursor, &limits),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn typed_errors_for_malformed_inputs() {
        assert_eq!(parse(b"NONSENSE\r\n\r\n").unwrap_err().status(), Some(400));
        assert_eq!(
            parse(b"GET /x HTTP/2.0\r\n\r\n").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET x HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse(b"G\0T / HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\ncontent-length: ten\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
    }

    #[test]
    fn oversized_inputs_get_their_own_statuses() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(
            parse(long_target.as_bytes()).unwrap_err().status(),
            Some(414)
        );

        let big_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "b".repeat(40_000));
        assert_eq!(
            parse(big_header.as_bytes()).unwrap_err().status(),
            Some(431)
        );

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..200).map(|i| format!("h{i}: v\r\n")).collect::<String>()
        );
        assert_eq!(
            parse(many_headers.as_bytes()).unwrap_err().status(),
            Some(431)
        );

        let huge_body = b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
        assert_eq!(parse(huge_body).unwrap_err().status(), Some(413));
    }

    #[test]
    fn truncation_is_a_bad_request_not_a_hang() {
        assert_eq!(parse(b"GET / HTT").unwrap_err().status(), Some(400));
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nhost: x").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
                .unwrap_err()
                .status(),
            Some(400)
        );
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        // Blank lines before EOF are still a clean close.
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::Closed)));
    }

    #[test]
    fn connection_semantics() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(close.wants_close());
        let http10 = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(http10.wants_close());
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        // Agreeing duplicates (and comma-folded lists) frame one body.
        let ok = parse(b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(ok.body, b"abcd");
        let folded = parse(b"POST /x HTTP/1.1\r\ncontent-length: 4, 4\r\n\r\nabcd").unwrap();
        assert_eq!(folded.body, b"abcd");
        // Conflicting declarations — across fields or inside one list —
        // are typed 400s, not a silent first-value pick.
        for wire in [
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 5\r\n\r\nabcd".as_slice(),
            b"POST /x HTTP/1.1\r\ncontent-length: 4, 5\r\n\r\nabcd".as_slice(),
            b"POST /x HTTP/1.1\r\ncontent-length: 4,\r\n\r\nabcd".as_slice(),
        ] {
            let err = parse(wire).unwrap_err();
            assert_eq!(err.status(), Some(400), "wire {wire:?}");
        }
        assert!(
            parse(b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 5\r\n\r\nabcd")
                .unwrap_err()
                .to_string()
                .contains("conflicting content-length")
        );
    }

    #[test]
    fn strict_percent_decoding_rejects_malformed_escapes() {
        assert_eq!(percent_decode_strict("t%73v"), Some("tsv".to_owned()));
        assert_eq!(percent_decode_strict("a+b"), Some("a b".to_owned()));
        assert_eq!(percent_decode_strict("%zz"), None);
        assert_eq!(percent_decode_strict("%f"), None);
        assert_eq!(percent_decode_strict("trailing%"), None);
    }

    #[test]
    fn normalized_queries_are_canonical() {
        // Last key wins, escapes decode, keys sort: every spelling of
        // the same query lands on one canonical pair list.
        let canonical = normalize_query("format=tsv").unwrap();
        assert_eq!(normalize_query("format=%74sv").unwrap(), canonical);
        assert_eq!(
            normalize_query("format=json&format=tsv").unwrap(),
            canonical
        );
        assert_eq!(
            normalize_query("b=2&a=1").unwrap(),
            vec![
                ("a".to_owned(), "1".to_owned()),
                ("b".to_owned(), "2".to_owned()),
            ]
        );
        assert_eq!(normalize_query("").unwrap(), Vec::new());
        assert_eq!(
            normalize_query("flag").unwrap(),
            vec![("flag".to_owned(), String::new())]
        );
        // A malformed escape anywhere poisons the whole query.
        assert_eq!(normalize_query("format=%zzv"), None);
        assert_eq!(normalize_query("a=1&%fgkey=2"), None);
    }

    #[test]
    fn query_decoding() {
        let req = parse(b"GET /x?a=1&b=two+words&c=%2Fslash&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(
            req.query_pairs(),
            vec![
                ("a".to_owned(), "1".to_owned()),
                ("b".to_owned(), "two words".to_owned()),
                ("c".to_owned(), "/slash".to_owned()),
                ("flag".to_owned(), String::new()),
            ]
        );
    }

    /// A sink that counts the write calls reaching it.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let mut n = 0;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
                n += buf.len();
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_literal_framing() {
        let big: Vec<u8> = (0..400 * 1024).map(|i| (i % 251) as u8).collect();
        let cases = [
            (Response::new(200, "application/json", b"{}".to_vec()), false, b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n".to_vec()),
            (Response::new(200, "text/plain", big.clone()), false, format!("HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {}\r\n\r\n", big.len()).into_bytes()),
            (Response::new(404, "text/plain", b"nope".to_vec()), true, b"HTTP/1.1 404 Not Found\r\ncontent-type: text/plain\r\ncontent-length: 4\r\nconnection: close\r\n\r\n".to_vec()),
            (Response::new(200, "text/plain", Vec::new()), false, b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 0\r\n\r\n".to_vec()),
        ];
        for (response, close, head) in cases {
            let mut sink = CountingWriter::default();
            response.write_to(&mut sink, close).unwrap();
            assert_eq!(sink.writes, 1, "status {} close {close}", response.status);
            assert_eq!(sink.bytes, [head, response.body.to_vec()].concat());
        }
    }

    /// Accepts at most `chunk` bytes per call, as a full socket buffer does.
    struct ShortWriter {
        bytes: Vec<u8>,
        chunk: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let response = Response::new(200, "text/plain", b"0123456789".repeat(50));
        let mut whole = Vec::new();
        response.write_to(&mut whole, true).unwrap();
        for chunk in [1, 7, 64, 1000] {
            let mut sink = ShortWriter {
                bytes: Vec::new(),
                chunk,
            };
            response.write_to(&mut sink, true).unwrap();
            assert_eq!(sink.bytes, whole, "chunk {chunk}");
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            // Whatever arrives on the socket, the parser returns a typed
            // result — fuzzing for panics and infinite loops.
            let _ = parse(&bytes);
        }

        #[test]
        fn mangled_request_lines_are_typed_errors(
            garbage in proptest::collection::vec(32u8..127, 1..80),
        ) {
            let mut bytes = garbage.clone();
            bytes.extend_from_slice(b"\r\n\r\n");
            if let Err(e) = parse(&bytes) {
                // Every failure carries a client-error status; nothing in
                // a one-line request can be a server-side failure.
                if let Some(status) = e.status() {
                    prop_assert!((400..500).contains(&status), "status {status}");
                }
            }
        }

        #[test]
        fn valid_requests_round_trip(
            seg in proptest::collection::vec(97u8..123, 1..12),
            q in proptest::collection::vec(97u8..123, 0..12),
            body in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let path = format!("/{}", String::from_utf8(seg).unwrap());
            let query = String::from_utf8(q).unwrap();
            let target = if query.is_empty() {
                path.clone()
            } else {
                format!("{path}?{query}")
            };
            let wire = [
                format!(
                    "POST {target} HTTP/1.1\r\nhost: h\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes(),
                body.clone(),
            ]
            .concat();
            let req = parse(&wire).unwrap();
            prop_assert_eq!(req.path, path);
            prop_assert_eq!(req.query, query);
            prop_assert_eq!(req.body, body);
        }

        #[test]
        fn duplicate_content_lengths_agree_or_400(
            a in 0usize..64,
            b in 0usize..64,
            body in proptest::collection::vec(any::<u8>(), 64..80),
        ) {
            // Two Content-Length fields: the request parses iff they
            // agree (framing exactly `a` bytes); any disagreement is a
            // typed 400 — never a body framed by whichever value the
            // parser happened to see first.
            let wire = [
                format!(
                    "POST /x HTTP/1.1\r\ncontent-length: {a}\r\ncontent-length: {b}\r\n\r\n"
                )
                .into_bytes(),
                body.clone(),
            ]
            .concat();
            match parse(&wire) {
                Ok(req) => {
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(req.body, body[..a].to_vec());
                }
                Err(e) => {
                    prop_assert_ne!(a, b);
                    prop_assert_eq!(e.status(), Some(400));
                }
            }
        }

        #[test]
        fn normalized_queries_ignore_escape_spelling(
            key in proptest::collection::vec(97u8..123, 1..8),
            value in proptest::collection::vec(97u8..123, 1..8),
        ) {
            let key = String::from_utf8(key).unwrap();
            let value = String::from_utf8(value).unwrap();
            // Hex-escaping any byte of the value must normalize to the
            // same pairs as the plain spelling.
            let escaped: String = value
                .bytes()
                .map(|b| format!("%{b:02x}"))
                .collect();
            prop_assert_eq!(
                normalize_query(&format!("{key}={value}")).unwrap(),
                normalize_query(&format!("{key}={escaped}")).unwrap()
            );
        }

        #[test]
        fn oversized_header_blocks_always_431(n in 101usize..300) {
            let wire = format!(
                "GET / HTTP/1.1\r\n{}\r\n",
                (0..n).map(|i| format!("h{i}: v\r\n")).collect::<String>()
            );
            prop_assert_eq!(parse(wire.as_bytes()).unwrap_err().status(), Some(431));
        }
    }
}
