//! Minimal HTTP/1.1 client: one keep-alive connection, blocking
//! request/response, `Content-Length` bodies — the exact subset
//! `mlake-server` speaks.
//!
//! A request crosses the socket in one write: its head and body are
//! assembled in a buffer the connection owns and reuses. A response is
//! parsed where it lands in the connection's read buffer: the head
//! terminator scan resumes where the last read ended, body reads ask for
//! the bytes `Content-Length` still owes, and bytes past the response stay
//! buffered for the next call.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The least a read asks the socket for.
const READ_CHUNK: usize = 4096;

/// One keep-alive client connection.
pub struct HttpClient {
    stream: TcpStream,
    /// The request being sent, head then body.
    out: Vec<u8>,
    /// Bytes read and not yet consumed by a response.
    buf: Vec<u8>,
}

/// One response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// The head as received, status line included, terminator excluded.
    head: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header; the name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_in(&self.head, name)
    }
}

/// First value of header `name` in a response head: each line after the
/// status line that holds a `:`, name and value trimmed.
fn header_in<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    head.split(|&b| b == b'\n').skip(1).find_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        let (n, v) = (&line[..colon], &line[colon + 1..]);
        if n.trim_ascii().eq_ignore_ascii_case(name.as_bytes()) {
            std::str::from_utf8(v.trim_ascii()).ok()
        } else {
            None
        }
    })
}

/// The status code: the second space-separated field of the first line.
fn status_in(head: &[u8]) -> io::Result<u16> {
    let line = head.split(|&b| b == b'\n').next().unwrap_or(b"");
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    line.split(|&b| b == b' ')
        .nth(1)
        .and_then(|s| std::str::from_utf8(s).ok()?.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: '{}'", String::from_utf8_lossy(line)),
            )
        })
}

impl HttpClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            out: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Sends one request, head and body in one write, and reads the full
    /// response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: mlake\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    /// `GET` sugar.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, b"")
    }

    /// `POST` sugar.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        self.request("POST", path, body)
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = self.buf[scanned..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break scanned + pos;
            }
            // A terminator split across reads starts in the last 3 bytes.
            scanned = self.buf.len().saturating_sub(3);
            if !self.fill(READ_CHUNK)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-response-head",
                ));
            }
        };
        let head = &self.buf[..head_end];
        let status = status_in(head)?;
        let content_len: usize = header_in(head, "content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let body_start = head_end + 4;
        let end = body_start + content_len;
        while self.buf.len() < end {
            if !self.fill(end - self.buf.len())? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-response-body",
                ));
            }
        }
        let response = HttpResponse {
            status,
            body: self.buf[body_start..end].to_vec(),
            head: self.buf[..head_end].to_vec(),
        };
        self.buf.drain(..end);
        Ok(response)
    }

    /// One read straight into the buffer's tail, asking for at least
    /// `want` bytes' room (never less than [`READ_CHUNK`]); false at EOF.
    fn fill(&mut self, want: usize) -> io::Result<bool> {
        let len = self.buf.len();
        self.buf.resize(len + want.max(READ_CHUNK), 0);
        let n = match self.stream.read(&mut self.buf[len..]) {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(len);
                return Err(e);
            }
        };
        self.buf.truncate(len + n);
        Ok(n > 0)
    }
}
