//! A minimal HTTP/1.1 layer over byte buffers.
//!
//! The workspace builds fully offline from vendored crates, so there is
//! no external HTTP stack; this module implements exactly the subset
//! the query service needs: an incremental request parser with hard
//! size limits ([`try_parse_request`], fed by the reactor as bytes
//! arrive and by a shard on each forwarded request), `Content-Length`
//! bodies (chunked transfer is refused with `501`), keep-alive
//! accounting, and response serialization. Every parse failure is a
//! typed [`HttpReadError`] that the engine maps to a `4xx` — malformed
//! traffic must never panic a worker.

use std::io::Write;

/// Upper bound on the request line plus all headers.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Largest request body the engine and the shards accept (`413` beyond).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), e.g. `/v1/thermo`.
    pub target: String,
    /// `true` for HTTP/1.1 (keep-alive default), `false` for HTTP/1.0.
    pub http11: bool,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header. Lookup is case-insensitive (RFC 9110
    /// §5.1): header names are lowercased at parse time, and the query
    /// name is matched ignoring ASCII case so callers need not care.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (or is HTTP/1.0 without `keep-alive`).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpReadError {
    /// Syntactically invalid request (maps to `400`).
    Malformed(&'static str),
    /// Headers exceeded [`MAX_HEADER_BYTES`] (maps to `431`).
    HeadersTooLarge,
    /// Declared `Content-Length` exceeds the configured body limit
    /// (maps to `413`).
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A protocol feature this server does not implement (maps to
    /// `501`).
    Unsupported(&'static str),
}

impl std::fmt::Display for HttpReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpReadError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpReadError::HeadersTooLarge => write!(f, "headers exceed {MAX_HEADER_BYTES} bytes"),
            HttpReadError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpReadError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for HttpReadError {}

/// Parse `METHOD TARGET HTTP/1.x` into its validated parts.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpReadError> {
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpReadError::Malformed("bad method"))?
        .to_string();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(HttpReadError::Malformed("bad request target"))?
        .to_string();
    let http11 = match parts.next() {
        Some("HTTP/1.1") => true,
        Some("HTTP/1.0") => false,
        _ => return Err(HttpReadError::Malformed("bad HTTP version")),
    };
    if parts.next().is_some() {
        return Err(HttpReadError::Malformed("extra tokens in request line"));
    }
    Ok((method, target, http11))
}

/// Split one `Name: value` header line, lowercasing the name.
fn parse_header_line(line: &str) -> Result<(String, String), HttpReadError> {
    let (name, value) = line
        .split_once(':')
        .ok_or(HttpReadError::Malformed("header without ':'"))?;
    if name.is_empty() || name.contains(' ') {
        return Err(HttpReadError::Malformed("bad header name"));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

/// Message-framing checks: refuse chunked transfer, refuse duplicate
/// `Content-Length` (RFC 9110 §8.6 — a smuggling vector when two
/// lengths disagree), and return the single declared body length.
fn validate_headers(headers: &[(String, String)]) -> Result<usize, HttpReadError> {
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpReadError::Unsupported("chunked transfer encoding"));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match lengths.next() {
        None => 0,
        Some((_, v)) => {
            if lengths.next().is_some() {
                return Err(HttpReadError::Malformed("duplicate content-length"));
            }
            v.parse::<usize>()
                .map_err(|_| HttpReadError::Malformed("bad content-length"))?
        }
    };
    Ok(content_length)
}

/// Index just past the head terminator (`\r\n\r\n` or bare `\n\n`), if
/// the buffer holds a complete head yet.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    // A lone `\n\n` also terminates (lines may omit the `\r`), so
    // scan for either form in one pass.
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Try to parse one complete request from the front of `buf` without
/// consuming it — the incremental entry point for the readiness-driven
/// reactor, which accumulates bytes as they arrive.
///
/// Returns `Ok(None)` while the buffer holds only a prefix of a
/// request, and `Ok(Some((request, consumed)))` once a full head+body
/// is present; the caller then drains `consumed` bytes. Oversized heads
/// and bodies fail as soon as they are detectable, without waiting for
/// the rest of the bytes.
///
/// # Errors
/// [`HttpReadError`] for oversized, malformed, or unsupported input.
pub fn try_parse_request(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<(Request, usize)>, HttpReadError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpReadError::HeadersTooLarge);
        }
        // The head is incomplete, but garbage should fail now, not
        // when the peer eventually sends a blank line: as soon as the
        // first line is complete, it must be a valid request line.
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&buf[..nl])
                .map_err(|_| HttpReadError::Malformed("non-UTF-8 header bytes"))?;
            parse_request_line(line.strip_suffix('\r').unwrap_or(line))?;
        }
        return Ok(None);
    };
    if head_end > MAX_HEADER_BYTES {
        return Err(HttpReadError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpReadError::Malformed("non-UTF-8 header bytes"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    if request_line.is_empty() {
        return Err(HttpReadError::Malformed("empty request line"));
    }
    let (method, target, http11) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        headers.push(parse_header_line(line)?);
    }
    let content_length = validate_headers(&headers)?;
    if content_length > max_body {
        return Err(HttpReadError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method,
            target,
            http11,
            headers,
            body: buf[head_end..total].to_vec(),
        },
        total,
    )))
}

/// Serialize a parsed request back to wire bytes — the router forwards
/// client requests to shards in this form, and the shard re-parses
/// them with the same validator the edge used. `Content-Length` is
/// re-derived from the actual body so the framing is always canonical.
pub fn serialize_request(req: &Request) -> Vec<u8> {
    let mut head = format!(
        "{} {} {}\r\n",
        req.method,
        req.target,
        if req.http11 { "HTTP/1.1" } else { "HTTP/1.0" }
    );
    for (k, v) in &req.headers {
        if k == "content-length" {
            continue;
        }
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", req.body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(&req.body);
    out
}

/// An outgoing response, built by the handlers.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always sent with `Content-Length`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `("x-cache", "hit")`.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error response with a standard `{"error": ...}` shape.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        dt_telemetry::push_json_string(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

/// Serialize `response` onto `stream`. `close` controls the
/// `Connection` header (and should match what the caller then does).
///
/// # Errors
/// Propagates transport write errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    );
    for (k, v) in &response.extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(if close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Ok(None)` is "wait for more bytes".
    fn parse(raw: &str) -> Result<Option<Request>, HttpReadError> {
        try_parse_request(raw.as_bytes(), 1024).map(|r| r.map(|(req, _)| req))
    }

    fn request(raw: &str) -> Request {
        parse(raw).unwrap().expect("a complete request")
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            request("POST /v1/thermo HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/thermo");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = request("GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_close_semantics() {
        let req = request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
        let req = request("GET / HTTP/1.0\r\n\r\n");
        assert!(req.wants_close());
        let req = request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert_eq!(parse(""), Ok(None));
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Ok(None)
        );
    }

    #[test]
    fn oversized_bodies_and_headers_are_rejected() {
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpReadError::BodyTooLarge {
                declared: 9999,
                limit: 1024
            })
        );
        let huge = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(parse(&huge), Err(HttpReadError::HeadersTooLarge));
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = request(
            "POST / HTTP/1.1\r\nX-Request-ID: abc\r\ncOnTeNt-LeNgTh: 2\r\nConnection: CLOSE\r\n\r\nhi",
        );
        // Mixed-case wire names parse, and lookups match in any case.
        assert_eq!(req.header("x-request-id"), Some("abc"));
        assert_eq!(req.header("X-Request-Id"), Some("abc"));
        assert_eq!(req.header("X-REQUEST-ID"), Some("abc"));
        assert_eq!(req.header("Content-Length"), Some("2"));
        assert_eq!(req.body, b"hi");
        assert!(req.wants_close());
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Disagreeing lengths are a request-smuggling vector...
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi"),
            Err(HttpReadError::Malformed("duplicate content-length"))
        );
        // ...and even agreeing duplicates are refused outright.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi"),
            Err(HttpReadError::Malformed("duplicate content-length"))
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"),
            Err(HttpReadError::Malformed("duplicate content-length"))
        );
    }

    #[test]
    fn incremental_parser_handles_partial_and_pipelined_input() {
        let wire = b"POST /v1/thermo HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        // Every strict prefix is "not yet".
        for cut in 0..wire.len() {
            assert_eq!(try_parse_request(&wire[..cut], 1024), Ok(None), "cut {cut}");
        }
        let (req, consumed) = try_parse_request(wire, 1024).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");

        // A second pipelined request stays in the buffer untouched.
        let mut two = wire.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (first, consumed) = try_parse_request(&two, 1024).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(first.target, "/v1/thermo");
        let (second, rest) = try_parse_request(&two[consumed..], 1024).unwrap().unwrap();
        assert_eq!(second.target, "/healthz");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn incremental_parser_rejects_garbage_before_the_head_completes() {
        // A non-HTTP first line fails as soon as it is complete, even
        // though the head terminator never arrives.
        assert!(matches!(
            try_parse_request(b"EHLO mail.example.com\r\n", 1024),
            Err(HttpReadError::Malformed(_))
        ));
        // A valid-so-far prefix still waits for more bytes.
        assert_eq!(
            try_parse_request(b"GET /healthz HTTP/1.1\r\nhost: x\r\n", 1024),
            Ok(None)
        );
    }

    #[test]
    fn incremental_parser_fails_oversize_early() {
        // Headers that can no longer fit fail before the terminator
        // arrives...
        let endless = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert_eq!(
            try_parse_request(&endless, 1024),
            Err(HttpReadError::HeadersTooLarge)
        );
        // ...and a declared-too-large body fails on the head alone.
        assert_eq!(
            try_parse_request(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 1024),
            Err(HttpReadError::BodyTooLarge {
                declared: 9999,
                limit: 1024
            })
        );
    }

    #[test]
    fn serialized_requests_reparse_identically() {
        let req = request("POST /v1/sro HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}");
        let wire = serialize_request(&req);
        let (back, consumed) = try_parse_request(&wire, 1024).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(back, req);
    }

    #[test]
    fn chunked_transfer_is_unsupported() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpReadError::Unsupported(_))
        ));
    }

    #[test]
    fn responses_serialize_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::error(404, "no such artifact"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("connection: close"));
        assert!(text.contains("{\"error\":\"no such artifact\"}"));
    }
}
