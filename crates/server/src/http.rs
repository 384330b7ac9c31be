//! Hand-rolled HTTP/1.1 subset (DESIGN.md §14): request parsing with
//! persistent keep-alive connections, `Content-Length` bodies, and
//! response writing. No chunked transfer encoding, no TLS, no
//! pipelining beyond one in-flight request per connection — exactly the
//! subset `mlake-load` and curl speak.
//!
//! A connection owns two buffers and copies nothing between them and the
//! socket: requests are read straight into the input buffer and parsed in
//! place ([`Request`] borrows from it), and a response's head and body
//! are assembled in the output buffer and sent with one write. Both give
//! back what a large request or response grew them to, down to
//! [`RETAINED_BYTES`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;

/// Largest accepted header block — request line, headers and the blank
/// line that ends them — in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Capacity a connection's two buffers keep between requests, together;
/// each keeps at most half.
pub const RETAINED_BYTES: usize = 64 * 1024;

/// Least free space a read of the socket is offered.
const READ_CHUNK: usize = 4 * 1024;

/// Most the input buffer grows by for one read: a body is not given room
/// before it arrives.
const READ_GROWTH: usize = 256 * 1024;

/// Room reserved in front of a response body for its head: the longest
/// status line, the fixed headers, a 20-digit length and a `Retry-After`
/// fit with a margin.
const HEAD_ROOM: usize = 192;

/// One parsed request, borrowed from the connection's input buffer.
#[derive(Debug)]
pub struct Request<'a> {
    /// Method as sent (`GET`, `POST`, ...); methods are case-sensitive.
    pub method: &'a str,
    /// Request target as sent (path + optional `?query`).
    pub path: &'a str,
    /// The `Content-Length` bytes that followed the head.
    pub body: &'a [u8],
    /// Whether to drop the connection after this exchange: a
    /// `Connection: close`, or HTTP/1.0 without `Connection: keep-alive`.
    pub close: bool,
}

/// Outcome of one read attempt on a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome<'a> {
    /// A complete request arrived.
    Request(Request<'a>),
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// The read timed out with no (or only partial) data; buffered bytes
    /// are kept, so the caller can poll a shutdown flag and try again.
    TimedOut,
    /// The bytes on the wire are not valid HTTP, or are framed ambiguously;
    /// the caller should answer 400 and close.
    Malformed(String),
    /// The declared body exceeds the configured cap; answer 413 and close.
    TooLarge(usize),
}

/// What a response's head says besides the body's length.
#[derive(Debug, Clone, Copy)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, on a shed request.
    pub retry_after: Option<u16>,
    /// Whether the connection closes after this response.
    pub close: bool,
}

/// Where a parsed head's parts lie, as offsets from the first unconsumed
/// byte of the input buffer: they stay valid while the body arrives.
#[derive(Debug, Clone)]
struct Head {
    method: Range<usize>,
    path: Range<usize>,
    /// Length of the head, blank line included: the body starts here.
    len: usize,
    /// `Content-Length`.
    body: usize,
    close: bool,
}

/// One server side of a keep-alive connection.
pub struct HttpConn {
    stream: TcpStream,
    /// Input: `input[start..end]` is read but not yet consumed, and
    /// `input[end..]` is zeroed room the next read writes into.
    input: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes from `start` known to hold no head terminator, so a head that
    /// arrives in pieces is scanned once.
    scanned: usize,
    max_body: usize,
    /// A parsed head whose body is still arriving: a read that timed out
    /// mid-body resumes here.
    pending: Option<Head>,
    /// Output: one response, head and body, at a time.
    output: Vec<u8>,
}

impl HttpConn {
    /// Wraps an accepted stream. `max_body` caps `Content-Length`.
    pub fn new(stream: TcpStream, max_body: usize) -> HttpConn {
        HttpConn {
            stream,
            input: Vec::new(),
            start: 0,
            end: 0,
            scanned: 0,
            max_body,
            pending: None,
            output: Vec::new(),
        }
    }

    /// The underlying stream (for timeouts/shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Bytes of capacity the connection's two buffers hold right now.
    pub fn buffer_capacity(&self) -> usize {
        self.input.capacity() + self.output.capacity()
    }

    /// Reads the next request, honoring the stream's read timeout: on
    /// [`ReadOutcome::TimedOut`] whatever has arrived is kept, head or
    /// body, and the next call carries on from there.
    pub fn read_request(&mut self) -> io::Result<ReadOutcome<'_>> {
        let head = match self.pending.take() {
            Some(head) => head,
            None => {
                self.trim();
                match self.read_head()? {
                    Ok(head) => head,
                    Err(outcome) => return Ok(outcome),
                }
            }
        };
        let total = head.len + head.body;
        while self.end - self.start < total {
            match self.fill(total)? {
                Fill::Data => {}
                Fill::Eof => return Ok(ReadOutcome::Malformed("eof mid-body".into())),
                Fill::TimedOut => {
                    self.pending = Some(head);
                    return Ok(ReadOutcome::TimedOut);
                }
            }
        }
        // Consumed by offset; the bytes stay put until the next read.
        let at = self.start;
        self.start += total;
        self.scanned = 0;
        let bytes = &self.input[at..at + total];
        let (Ok(method), Ok(path)) = (
            std::str::from_utf8(&bytes[head.method]),
            std::str::from_utf8(&bytes[head.path]),
        ) else {
            return Ok(ReadOutcome::Malformed("non-ascii request line".into()));
        };
        Ok(ReadOutcome::Request(Request {
            method,
            path,
            body: &bytes[head.len..],
            close: head.close,
        }))
    }

    /// Reads until a whole head is buffered and parses it; `Err` carries
    /// every outcome other than a head.
    fn read_head(&mut self) -> io::Result<Result<Head, ReadOutcome<'static>>> {
        loop {
            let avail = &self.input[self.start..self.end];
            // The terminator must end within the first MAX_HEAD_BYTES, so
            // how the bytes were split on the wire cannot matter.
            let limit = avail.len().min(MAX_HEAD_BYTES);
            let from = self.scanned.saturating_sub(3);
            if let Some(pos) = find_head_end(&avail[from..limit]) {
                return Ok(parse_head(&avail[..from + pos + 4], self.max_body));
            }
            self.scanned = limit;
            if avail.len() >= MAX_HEAD_BYTES {
                return Ok(Err(ReadOutcome::Malformed("header block too large".into())));
            }
            let empty = avail.is_empty();
            match self.fill(MAX_HEAD_BYTES)? {
                Fill::Data => {}
                Fill::Eof if empty => return Ok(Err(ReadOutcome::Eof)),
                Fill::Eof => return Ok(Err(ReadOutcome::Malformed("eof mid-headers".into()))),
                Fill::TimedOut => return Ok(Err(ReadOutcome::TimedOut)),
            }
        }
    }

    /// One read of the socket straight into the input buffer's free room,
    /// which is made large enough for the bytes the caller still waits for
    /// — `want` past `start` — within [`READ_CHUNK`]..[`READ_GROWTH`].
    fn fill(&mut self, want: usize) -> io::Result<Fill> {
        let missing = want.saturating_sub(self.end - self.start);
        let room = missing.clamp(READ_CHUNK, READ_GROWTH);
        if self.input.len() - self.end < room {
            self.compact();
            if self.input.len() - self.end < room {
                self.input.resize(self.end + room, 0);
            }
        }
        match self.stream.read(&mut self.input[self.end..]) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.end += n;
                Ok(Fill::Data)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(Fill::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(Fill::Data),
            Err(e) => Err(e),
        }
    }

    /// Moves the unconsumed bytes to the front of the input buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.input.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Between requests: resets an empty input buffer to its front, and
    /// gives back capacity past [`RETAINED_BYTES`] that a large request or
    /// response took.
    fn trim(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        let keep = RETAINED_BYTES / 2;
        let unconsumed = self.end - self.start;
        if self.input.capacity() > keep && unconsumed <= keep {
            let mut kept = vec![0; keep];
            kept[..unconsumed].copy_from_slice(&self.input[self.start..self.end]);
            self.input = kept;
            self.start = 0;
            self.end = unconsumed;
        }
        if self.output.capacity() > keep {
            self.output = Vec::new();
        }
    }

    /// Writes one response with one write: `body` appends the body to the
    /// output buffer behind room left for the head, and the head is then
    /// written into the end of that room, right against the body.
    pub fn write_response(
        &mut self,
        head: ResponseHead,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        self.output.clear();
        self.output.resize(HEAD_ROOM, 0);
        body(&mut self.output);
        let body_len = self.output.len() - HEAD_ROOM;
        let mut room = &mut self.output[..HEAD_ROOM];
        write!(
            room,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {body_len}\r\n",
            head.status,
            reason(head.status),
        )?;
        if let Some(secs) = head.retry_after {
            write!(room, "Retry-After: {secs}\r\n")?;
        }
        room.write_all(if head.close {
            b"Connection: close\r\n\r\n"
        } else {
            b"Connection: keep-alive\r\n\r\n"
        })?;
        let head_len = HEAD_ROOM - room.len();
        let at = HEAD_ROOM - head_len;
        self.output.copy_within(..head_len, at);
        let sent = self.stream.write_all(&self.output[at..]);
        self.trim();
        sent
    }
}

enum Fill {
    Data,
    Eof,
    TimedOut,
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a head (terminator included) into offsets, enforcing the
/// framing rules of RFC 9112 §5.1 and §6.3: a field name is a token with
/// no whitespace before its colon, `Content-Length` is `1*DIGIT`, and
/// repeated `Content-Length` fields agree. Anything else could frame the
/// body differently for this server than for a proxy in front of it.
fn parse_head(head: &[u8], max_body: usize) -> Result<Head, ReadOutcome<'static>> {
    let malformed = |msg: String| Err(ReadOutcome::Malformed(msg));
    let Ok(text) = std::str::from_utf8(&head[..head.len() - 4]) else {
        return malformed("non-utf8 head".into());
    };
    let (request_line, fields) = text.split_once("\r\n").unwrap_or((text, ""));
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None)
            if !m.is_empty() && m.bytes().all(is_tchar) && p.starts_with('/') && p.is_ascii() =>
        {
            (m, p, v)
        }
        _ => return malformed(format!("bad request line: '{request_line}'")),
    };
    if !version.starts_with("HTTP/1.") {
        return malformed(format!("bad version: '{version}'"));
    }
    let mut content_len: Option<usize> = None;
    let (mut chunked, mut close, mut keep_alive) = (false, false, false);
    for line in fields.split("\r\n").filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return malformed(format!("bad header: '{line}'"));
        };
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return malformed(format!("bad header name: '{name}'"));
        }
        let value = value.trim_matches([' ', '\t']);
        if name.eq_ignore_ascii_case("content-length") {
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return malformed(format!("bad content-length: '{value}'")),
            };
            if content_len.is_some_and(|seen| seen != n) {
                return malformed("conflicting content-length fields".into());
            }
            content_len = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("connection") {
            for option in value.split(',').map(|o| o.trim_matches([' ', '\t'])) {
                close |= option.eq_ignore_ascii_case("close");
                keep_alive |= option.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    if chunked {
        return malformed("transfer-encoding is not supported; send Content-Length".into());
    }
    let body = content_len.unwrap_or(0);
    if body > max_body {
        return Err(ReadOutcome::TooLarge(body));
    }
    // HTTP/1.0 closes unless the client opted in to keep-alive.
    close |= version == "HTTP/1.0" && !keep_alive;
    Ok(Head {
        method: 0..method.len(),
        path: method.len() + 1..method.len() + 1 + path.len(),
        len: head.len(),
        body,
        close,
    })
}

/// RFC 9110 `tchar`: the characters of a method or field name.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
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

    fn parse(head: &str) -> Result<Head, String> {
        match parse_head(head.as_bytes(), 1 << 20) {
            Ok(head) => Ok(head),
            Err(ReadOutcome::Malformed(msg)) => Err(msg),
            Err(other) => Err(format!("{other:?}")),
        }
    }

    #[test]
    fn content_length_framing_is_strict() {
        let with = |fields: &str| parse(&format!("POST /a HTTP/1.1\r\n{fields}\r\n\r\n"));
        assert_eq!(with("Content-Length: 2").unwrap().body, 2);
        assert_eq!(with("content-length:\t2 ").unwrap().body, 2);
        assert_eq!(
            with("Content-Length: 2\r\nContent-Length: 2").unwrap().body,
            2
        );
        for bad in [
            "Content-Length: 0\r\nContent-Length: 28",
            "Content-Length: +2",
            "Content-Length: -0",
            "Content-Length: 2, 2",
            "Content-Length: 0x10",
            "Content-Length: ",
            "Content-Length: 99999999999999999999999",
            "Content-Length : 2",
            "Content-Length\t: 2",
            " Content-Length: 2",
            "Host: a\r\n Content-Length: 2",
            "Transfer-Encoding: chunked",
        ] {
            assert!(with(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn connection_options_and_versions_decide_close() {
        let close = |version: &str, fields: &str| {
            parse(&format!("GET / {version}\r\n{fields}\r\n\r\n"))
                .unwrap()
                .close
        };
        assert!(!close("HTTP/1.1", "Host: a"));
        assert!(close("HTTP/1.1", "Connection: close"));
        assert!(close("HTTP/1.1", "Connection: Upgrade, CLOSE"));
        assert!(close("HTTP/1.0", "Host: a"));
        assert!(!close("HTTP/1.0", "Connection: keep-alive"));
    }

    #[test]
    fn request_lines_are_three_parts() {
        let line = |l: &str| parse(&format!("{l}\r\nHost: a\r\n\r\n"));
        let head = line("PUT /v1/x?y=1 HTTP/1.1").unwrap();
        assert_eq!((head.method, head.path), (0..3, 4..13));
        for bad in [
            "GET /a",
            "GET /a HTTP/1.1 x",
            "GET  /a HTTP/1.1",
            "GET a HTTP/1.1",
            "GET /a SPDY/3",
        ] {
            assert!(line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
