//! Hand-rolled HTTP/1.1 subset (DESIGN.md §14): request parsing with
//! persistent keep-alive connections, `Content-Length` bodies, and
//! response writing. No chunked transfer encoding, no TLS, no
//! pipelining beyond one in-flight request per connection — exactly the
//! subset `mlake-load` and curl speak.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional `?query`).
    pub path: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Decoded body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether to drop the connection after this exchange:
    /// `Connection: close`, which the parser also records for an HTTP/1.0
    /// client that did not opt in to keep-alive. HTTP/1.1 persists.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one read attempt on a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request arrived.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// The read timed out with no (or only partial) data; buffered bytes
    /// are kept, so the caller can poll a shutdown flag and try again.
    TimedOut,
    /// The bytes on the wire are not valid HTTP; the caller should answer
    /// 400 and close.
    Malformed(String),
    /// The declared body exceeds the configured cap; answer 413 and close.
    TooLarge(usize),
}

/// One server side of a keep-alive connection: the stream plus the bytes
/// read past the previous request's end.
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    max_body: usize,
    /// A parsed head and its `Content-Length`, while the body is still
    /// arriving: a read that timed out mid-body resumes here.
    pending: Option<(Request, usize)>,
}

impl HttpConn {
    /// Wraps an accepted stream. `max_body` caps `Content-Length`.
    pub fn new(stream: TcpStream, max_body: usize) -> HttpConn {
        HttpConn {
            stream,
            buf: Vec::new(),
            max_body,
            pending: None,
        }
    }

    /// The underlying stream (for timeouts/shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads the next request, honoring the stream's read timeout: on
    /// [`ReadOutcome::TimedOut`] whatever has arrived is kept, head or
    /// body, and the next call carries on from there.
    pub fn read_request(&mut self) -> io::Result<ReadOutcome> {
        if let Some((req, content_len)) = self.pending.take() {
            return self.read_body(req, content_len);
        }
        // 1. Accumulate until the header terminator.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Ok(ReadOutcome::Malformed("header block too large".into()));
            }
            match self.fill()? {
                FillOutcome::Data => {}
                FillOutcome::Eof if self.buf.is_empty() => return Ok(ReadOutcome::Eof),
                FillOutcome::Eof => {
                    return Ok(ReadOutcome::Malformed("eof mid-headers".into()));
                }
                FillOutcome::TimedOut => return Ok(ReadOutcome::TimedOut),
            }
        };

        // 2. Parse request line + headers.
        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(h) => h,
            Err(_) => return Ok(ReadOutcome::Malformed("non-utf8 head".into())),
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => {
                (m.to_ascii_uppercase(), p.to_string(), v)
            }
            _ => {
                return Ok(ReadOutcome::Malformed(format!(
                    "bad request line: '{request_line}'"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Ok(ReadOutcome::Malformed(format!("bad version: '{version}'")));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Ok(ReadOutcome::Malformed(format!("bad header: '{line}'")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let mut req = Request {
            method,
            path,
            headers,
            body: Vec::new(),
        };
        // HTTP/1.0 closes unless the client opted in to keep-alive; say so
        // where `wants_close` looks, so the version need not outlive the
        // parse.
        if version == "HTTP/1.0" && req.header("connection").is_none() {
            req.headers.push(("connection".into(), "close".into()));
        }
        if req.header("transfer-encoding").is_some() {
            return Ok(ReadOutcome::Malformed(
                "transfer-encoding is not supported; send Content-Length".into(),
            ));
        }
        let content_len = match req.header("content-length") {
            None => 0,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    return Ok(ReadOutcome::Malformed(format!(
                        "bad content-length: '{v}'"
                    )))
                }
            },
        };
        if content_len > self.max_body {
            return Ok(ReadOutcome::TooLarge(content_len));
        }

        // 3. Read the body. The head (including its CRLFCRLF terminator)
        // is consumed from the buffer first; over-read bytes past the
        // body stay buffered for the next request on this connection.
        self.buf.drain(..head_end + 4);
        self.read_body(req, content_len)
    }

    fn read_body(&mut self, mut req: Request, content_len: usize) -> io::Result<ReadOutcome> {
        while self.buf.len() < content_len {
            match self.fill()? {
                FillOutcome::Data => {}
                FillOutcome::Eof => {
                    return Ok(ReadOutcome::Malformed("eof mid-body".into()));
                }
                FillOutcome::TimedOut => {
                    self.pending = Some((req, content_len));
                    return Ok(ReadOutcome::TimedOut);
                }
            }
        }
        req.body = self.buf.drain(..content_len).collect();
        Ok(ReadOutcome::Request(req))
    }

    fn fill(&mut self) -> io::Result<FillOutcome> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(FillOutcome::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(FillOutcome::Data)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(FillOutcome::TimedOut)
            }
            Err(e) => Err(e),
        }
    }

    /// Writes one response and flushes it.
    pub fn write_response(&mut self, resp: &Response) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            resp.status,
            reason(resp.status),
            resp.body.len()
        );
        for (name, value) in &resp.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if resp.close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&resp.body)?;
        self.stream.flush()
    }
}

enum FillOutcome {
    Data,
    Eof,
    TimedOut,
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to write.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON).
    pub body: Vec<u8>,
    /// Extra headers beyond Content-Type/Length/Connection.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Whether to close the connection after writing.
    pub close: bool,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            body,
            extra_headers: Vec::new(),
            close: false,
        }
    }
}

/// Reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn reason_phrases_cover_emitted_statuses() {
        for s in [200, 400, 404, 405, 409, 413, 500, 503] {
            assert_ne!(reason(s), "Unknown", "{s}");
        }
    }
}
