//! A minimal HTTP/1.1 layer over `std::net`: exactly the subset the
//! service needs (JSON in, JSON out, one request per connection,
//! `Connection: close`), hand-rolled because the build environment is
//! offline and the protocol surface is tiny.

use pmt_api::{ApiError, ErrorBody};
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Body bytes reserved before any body byte arrives; the buffer grows
/// from there as the body does.
pub const INITIAL_BODY_BYTES: usize = 64 * 1024;

/// Longest a single read of a request may wait for the client's next
/// bytes before the request is answered `408 request_timeout`.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest the whole header block may take to arrive. Each read takes
/// whatever the client has sent, so without this a client trickling one
/// byte per [`READ_TIMEOUT`] could hold a worker indefinitely.
const HEADER_DEADLINE: Duration = Duration::from_secs(5);

/// Longest a single write of a response may wait on a client that is
/// not reading.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request: method, target path, lower-cased headers, raw body.
#[derive(Clone, Debug)]
pub struct Request {
    /// HTTP method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path only; any query string is kept verbatim).
    pub target: String,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a structured 400.
    pub fn body_utf8(&self) -> Result<&str, ApiError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ApiError::bad_request("bad_body", "request body is not valid UTF-8"))
    }
}

/// Read one request off the stream. `max_body` bounds the accepted
/// `Content-Length`; bodies beyond it are refused with 413 before the
/// rest of them is read (the reads that took the header block may
/// already hold their first bytes). A read that times out (the stream's
/// own read timeout), or a header block still incomplete after the
/// header deadline (5 s), is a `408 request_timeout`.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, ApiError> {
    // Read in chunks until the blank line. Bytes read past it start the
    // body; nothing after the body belongs to another request, since
    // every connection carries one (`Connection: close`).
    let started = Instant::now();
    let mut head = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        // A blank line may straddle the previous chunk's end.
        let from = head.len().saturating_sub(chunk.len() + 3);
        if let Some(at) = head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if started.elapsed() > HEADER_DEADLINE {
            return Err(timed_out("request headers"));
        }
        if head.len() >= MAX_HEADER_BYTES {
            return Err(headers_too_large());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(ApiError::bad_request(
                    "truncated_request",
                    "connection closed before the request headers ended",
                ))
            }
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(timed_out("request headers")),
            Err(e) => {
                return Err(ApiError::bad_request(
                    "read_error",
                    format!("reading request: {e}"),
                ))
            }
        }
    };
    if head_len > MAX_HEADER_BYTES {
        return Err(headers_too_large());
    }
    let body_start = head.split_off(head_len);
    let head = String::from_utf8(head)
        .map_err(|_| ApiError::bad_request("bad_request_line", "headers are not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(ApiError::bad_request(
                "bad_request_line",
                format!("malformed request line `{request_line}`"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ApiError::bad_request(
            "bad_http_version",
            format!("unsupported protocol `{version}`"),
        ));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ApiError::bad_request(
                "bad_header",
                format!("malformed header line `{line}`"),
            ));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    let content_length = match request.header("content-length") {
        None => 0,
        // `1*DIGIT` (RFC 9110 §8.6): `usize::from_str` alone would also
        // take a leading `+`, framing the body differently from a proxy.
        Some(v) => match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => {
                return Err(ApiError::bad_request(
                    "bad_header",
                    format!("unparsable Content-Length `{v}`"),
                ))
            }
        },
    };
    if content_length > max_body {
        return Err(ApiError::too_large(
            "body_too_large",
            format!("request body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    // A declared length is only a claim: reserve at most
    // `INITIAL_BODY_BYTES` up front and grow as the bytes arrive, so a
    // client that declares 64 MiB and sends ten bytes costs ten bytes'
    // worth of buffer, not 64 MiB.
    let early = body_start.len().min(content_length);
    let mut body = Vec::with_capacity(content_length.min(INITIAL_BODY_BYTES));
    body.extend_from_slice(&body_start[..early]);
    let rest = (content_length - early) as u64;
    let truncated = |e: std::io::Error| {
        ApiError::bad_request("truncated_request", format!("reading request body: {e}"))
    };
    match stream.take(rest).read_to_end(&mut body) {
        Err(e) if is_timeout(&e) => Err(timed_out("the request body")),
        Err(e) => Err(truncated(e)),
        // The stream ended early: `read_exact`'s error, word for word.
        Ok(_) if body.len() < content_length => Err(truncated(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        ))),
        Ok(_) => Ok(Request { body, ..request }),
    }
}

fn headers_too_large() -> ApiError {
    ApiError::too_large(
        "headers_too_large",
        format!("request headers exceed {MAX_HEADER_BYTES} bytes"),
    )
}

/// Whether a read failed because the stream's read timeout expired
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn timed_out(what: &str) -> ApiError {
    ApiError::new(
        408,
        "request_timeout",
        format!("{what} did not arrive in time; the connection is closed"),
    )
}

/// A response ready to write: status, JSON body, optional `Retry-After`.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` seconds (429 responses).
    pub retry_after_s: Option<u32>,
}

impl Response {
    /// A 200 carrying `body`.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            body,
            retry_after_s: None,
        }
    }

    /// The response form of an [`ApiError`] (its [`ErrorBody`] as JSON,
    /// plus `Retry-After` when the body carries one).
    pub fn error(err: &ApiError) -> Response {
        Response {
            status: err.status,
            body: err.body_json(),
            retry_after_s: err.body.retry_after_s,
        }
    }

    /// Whether this response is an error (and its body an [`ErrorBody`]).
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }

    /// Serialize onto the wire. Always `Connection: close`: one request
    /// per connection keeps the protocol state machine trivial.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        );
        if let Some(s) = self.retry_after_s {
            out.push_str(&format!("retry-after: {s}\r\n"));
        }
        out.push_str("connection: close\r\n\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the statuses the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Parse an error body back out of a response (client-side helper for
/// tests and the smoke script's Rust twin).
pub fn parse_error_body(body: &str) -> Option<ErrorBody> {
    serde_json::from_str(body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body_and_case_insensitive_headers() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/predict");
        assert_eq!(req.header("CONTENT-length"), Some("4"));
        assert_eq!(req.body_utf8().unwrap(), "{\"a\"");
    }

    /// A body past the initial buffer grows into place, byte for byte,
    /// whether it arrives with the headers or after them.
    #[test]
    fn a_body_larger_than_the_initial_buffer_arrives_whole() {
        let body: Vec<u8> = (0..3 * INITIAL_BODY_BYTES + 7).map(|i| i as u8).collect();
        let mut raw =
            format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).into_bytes();
        raw.extend_from_slice(&body);
        let req = read_request(&mut Cursor::new(raw), body.len()).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn get_without_content_length_has_an_empty_body() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_truncated_and_malformed_requests_are_structured_errors() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 10000\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.body.code, "body_too_large");

        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nab";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.body.code, "truncated_request");
        assert_eq!(
            err.body.message,
            "reading request body: failed to fill whole buffer"
        );

        let raw = b"nonsense\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.body.code, "bad_request_line");

        let raw = b"GET /x SPDY/9\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.body.code, "bad_http_version");

        let raw = b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.to_vec()), 1024).unwrap_err();
        assert_eq!(err.body.code, "bad_header");
    }

    #[test]
    fn a_content_length_is_digits_only() {
        for length in ["+5", "-5", " 5x", "0x5", "5 5"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhello");
            let err = read_request(&mut Cursor::new(raw.into_bytes()), 1024).unwrap_err();
            assert_eq!(err.status, 400, "Content-Length {length:?}");
            assert_eq!(err.body.code, "bad_header", "Content-Length {length:?}");
        }
    }

    /// A client that sends `sent`, then stalls until the read timeout.
    struct Stalls<'a> {
        sent: &'a [u8],
    }

    impl Read for Stalls<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.sent.is_empty() {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.sent.read(buf)
        }
    }

    #[test]
    fn a_stalled_client_is_a_408_in_the_headers_or_the_body() {
        for sent in [
            &b""[..],
            b"GET /x HTTP/1.1\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nab",
        ] {
            let err = read_request(&mut Stalls { sent }, 1024).unwrap_err();
            assert_eq!(
                (err.status, err.body.code.as_str()),
                (408, "request_timeout")
            );
            assert_eq!(status_text(err.status), "Request Timeout");
        }
    }

    /// A client whose bytes arrive in `segments` (one per TCP segment,
    /// say); each `read` returns at most the rest of one, and is counted.
    struct Counting<'a> {
        segments: Vec<&'a [u8]>,
        reads: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(segment) = self.segments.first_mut() else {
                return Ok(0);
            };
            let n = segment.read(buf)?;
            if segment.is_empty() {
                self.segments.remove(0);
            }
            Ok(n)
        }
    }

    #[test]
    fn a_curl_style_predict_takes_at_most_three_reads() {
        let body = br#"{"schema_version":1,"profile":"astar","machine":{"name":"nehalem"}}"#;
        let head = format!(
            "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1:7171\r\nUser-Agent: curl/8.5.0\r\n\
             Accept: */*\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let whole = [head.as_bytes(), body].concat();
        // Headers and body in separate segments, in one, and split
        // inside the blank line.
        let split = head.len() - 2;
        for segments in [
            vec![head.as_bytes(), &body[..]],
            vec![&whole[..]],
            vec![&whole[..split], &whole[split..]],
        ] {
            let mut client = Counting { segments, reads: 0 };
            let req = read_request(&mut client, 1024).unwrap();
            assert_eq!(req.target, "/v1/predict");
            assert_eq!(req.header("content-type"), Some("application/json"));
            assert_eq!(req.body, body);
            assert!(client.reads <= 3, "{} reads", client.reads);
        }
    }

    #[test]
    fn a_header_block_past_the_limit_is_a_413() {
        let padding = "x".repeat(MAX_HEADER_BYTES);
        let endless = format!("GET /x HTTP/1.1\r\nx-pad: {padding}");
        let complete = format!("{endless}\r\n\r\n");
        for raw in [endless, complete] {
            let err = read_request(&mut Cursor::new(raw.into_bytes()), 1024).unwrap_err();
            assert_eq!(
                (err.status, err.body.code.as_str()),
                (413, "headers_too_large")
            );
        }
        // A block that ends exactly at the limit is accepted.
        let line = "GET /x HTTP/1.1\r\nx-pad: \r\n\r\n";
        let fill = "y".repeat(MAX_HEADER_BYTES - line.len());
        let raw = format!("GET /x HTTP/1.1\r\nx-pad: {fill}\r\n\r\n");
        assert_eq!(raw.len(), MAX_HEADER_BYTES);
        let req = read_request(&mut Cursor::new(raw.into_bytes()), 1024).unwrap();
        assert_eq!(req.header("x-pad"), Some(fill.as_str()));
    }

    #[test]
    fn responses_carry_status_length_and_retry_after() {
        let mut out = Vec::new();
        Response::json("{\"ok\":true}".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        assert!(!text.contains("retry-after"));

        let mut out = Vec::new();
        let busy = ApiError::busy("at capacity", 2);
        let resp = Response::error(&busy);
        assert!(resp.is_error());
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let parsed = parse_error_body(body).unwrap();
        assert_eq!(parsed.code, "busy");
        assert_eq!(parsed.retry_after_s, Some(2));
    }
}
