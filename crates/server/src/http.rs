//! A minimal, dependency-free HTTP/1.1 layer: just enough request parsing
//! and response writing for the verification server's JSON API.
//!
//! Connections are one-shot: the server reads a single request, writes a
//! single response carrying `Connection: close`, and closes the stream. The
//! bundled [`client`](crate::client) speaks the same dialect, so no
//! keep-alive, chunked-encoding or pipelining support is needed.

use std::io::{self, BufRead, Write};

/// Largest accepted request body (uploaded model files are a few KB; this is
/// generous headroom, not a streaming limit).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted request line or header line. A connection streaming
/// bytes without a newline hits this cap instead of growing the line buffer
/// without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
fn read_limited_line(stream: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    // `take` caps how much a single malformed line can buffer; a line that
    // hits the cap without a newline is rejected rather than resumed.
    let mut limited = io::Read::take(&mut *stream, MAX_LINE_BYTES as u64);
    let read = limited.read_line(line)?;
    if read == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(bad_request("header line too long"));
    }
    Ok(read)
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/jobs/3/result`).
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter called `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// Reads one request from `stream`. Returns `Ok(None)` when the peer
    /// closed the connection before sending a request line.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] (kind `InvalidData`) on malformed requests and
    /// propagates transport errors.
    pub fn read_from(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
        let mut line = String::new();
        if read_limited_line(stream, &mut line)? == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/1") => {
                (method.to_owned(), target.to_owned())
            }
            _ => return Err(bad_request("malformed request line")),
        };

        let mut content_length = 0usize;
        let mut header_bytes = 0usize;
        loop {
            let mut header = String::new();
            let read = read_limited_line(stream, &mut header)?;
            if read == 0 {
                return Err(bad_request("connection closed inside headers"));
            }
            header_bytes += read;
            if header_bytes > 4 * MAX_LINE_BYTES {
                return Err(bad_request("header section too large"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_request("bad content-length"))?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(bad_request("request body too large"));
        }
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body)?;

        let (raw_path, raw_query) = match target.split_once('?') {
            Some((path, query)) => (path, Some(query)),
            None => (target.as_str(), None),
        };
        let query = raw_query
            .map(|q| {
                q.split('&')
                    .filter(|pair| !pair.is_empty())
                    .map(|pair| match pair.split_once('=') {
                        Some((key, value)) => (percent_decode(key), percent_decode(value)),
                        None => (percent_decode(pair), String::new()),
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Some(Request {
            method,
            path: percent_decode(raw_path),
            query,
            body,
        }))
    }
}

fn bad_request(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

/// Decodes `%XX` escapes and `+`-as-space. Invalid escapes pass through
/// verbatim (the server never emits them, and erroring would only turn a
/// client typo into a connection error instead of a 404).
pub fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(byte: Option<&u8>) -> Option<u8> {
    (*byte? as char).to_digit(16).map(|d| d as u8)
}

/// Encodes a string for use inside a query-parameter value.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (`Retry-After`, …), written after `Content-Type`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

/// The reason phrase of a status code this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    /// Writes the response (status line, headers, body) to `stream` in one
    /// write, so it leaves as one segment rather than a dozen small ones.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        ));
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&self.body);
        stream.write_all(&bytes)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_query_and_body() {
        let raw = b"POST /jobs?model=abc&command=verify&to=C%2B HTTP/1.1\r\n\
                    Host: localhost\r\nContent-Length: 5\r\n\r\nhello";
        let request = Request::read_from(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/jobs");
        assert_eq!(request.query_param("model"), Some("abc"));
        assert_eq!(request.query_param("to"), Some("C+"));
        assert_eq!(request.query_param("missing"), None);
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn eof_before_a_request_is_none_and_garbage_errors() {
        assert!(Request::read_from(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
        assert!(Request::read_from(&mut BufReader::new(&b"nonsense\r\n\r\n"[..])).is_err());
    }

    #[test]
    fn percent_round_trip() {
        for text in ["plain", "a b+c", "C+", "100%", "snake_case-1.2~"] {
            assert_eq!(percent_decode(&percent_encode(text)), text);
        }
        assert_eq!(percent_decode("a%2Gb"), "a%2Gb");
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_owned())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Records the length of every `write` call made on it.
    #[derive(Default)]
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let response =
            Response::json(429, "{}".to_owned()).with_header("Retry-After", "1".to_owned());
        let mut writes = Writes::default();
        response.write_to(&mut writes).unwrap();
        let mut bytes = Vec::new();
        response.write_to(&mut bytes).unwrap();
        assert_eq!(writes.0, vec![bytes.len()]);
    }

    #[test]
    fn extra_headers_and_reason_phrases_are_emitted() {
        let mut out = Vec::new();
        Response::json(429, "{}".to_owned())
            .with_header("Retry-After", "7".to_owned())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert_eq!(reason_phrase(410), "Gone");
        assert_eq!(reason_phrase(503), "Service Unavailable");
    }
}
