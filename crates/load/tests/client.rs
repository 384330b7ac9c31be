//! The client against a scripted loopback server (DESIGN.md §14): each
//! request leaves in one write, in the same bytes as ever; however the
//! bytes of a response are split on the wire, they parse to the same
//! response; a second response already buffered serves the next request;
//! and a response cut short by EOF is an error, not a short body.

use mlake_load::{HttpClient, HttpResponse};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};

/// What the scripted server saw: each request's bytes and how many reads
/// it took to arrive.
type Seen = Vec<(Vec<u8>, usize)>;

/// Reads one request: its head, then the body its `Content-Length` names.
fn read_request(stream: &mut TcpStream) -> (Vec<u8>, usize) {
    let (mut got, mut reads, mut chunk) = (Vec::new(), 0, [0u8; 1024]);
    loop {
        if let Some(end) = got.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&got[..end]).to_ascii_lowercase();
            let len: usize = head
                .split("\r\n")
                .find_map(|l| l.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse().unwrap());
            if got.len() >= end + 4 + len {
                return (got, reads);
            }
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "eof mid-request");
        got.extend_from_slice(&chunk[..n]);
        reads += 1;
    }
}

/// A server for one connection: for each entry of `replies` it reads one
/// request and writes the entry's chunks, one write each. Then it
/// half-closes and waits for the client to hang up.
fn scripted(replies: Vec<Vec<Vec<u8>>>) -> (SocketAddr, JoinHandle<Seen>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut seen = Vec::new();
        for chunks in replies {
            seen.push(read_request(&mut stream));
            for chunk in chunks {
                stream.write_all(&chunk).unwrap();
            }
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let _ = stream.read_to_end(&mut Vec::new());
        seen
    });
    (addr, server)
}

/// One `GET` answered by `chunks`; the client hangs up before the server
/// is joined.
fn get_once(chunks: Vec<Vec<u8>>) -> io::Result<HttpResponse> {
    let (addr, server) = scripted(vec![chunks]);
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.get("/v1/health");
    drop(client);
    server.join().unwrap();
    response
}

const BODY: &[u8] = b"{\"status\":\"ok\",\"models\":3}";

fn canned() -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n",
        BODY.len()
    );
    [head.as_bytes(), BODY].concat()
}

fn assert_canned(r: &HttpResponse, how: &str) {
    assert_eq!(r.status, 200, "{how}");
    assert_eq!(r.body, BODY, "{how}");
    assert_eq!(r.header("content-type"), Some("application/json"), "{how}");
    assert_eq!(
        r.header("Content-Length"),
        Some(BODY.len().to_string().as_str()),
        "{how}"
    );
    assert_eq!(r.header("CONNECTION"), Some("keep-alive"), "{how}");
    assert_eq!(r.header("retry-after"), None, "{how}");
}

#[test]
fn every_split_of_a_response_parses_the_same() {
    let bytes = canned();
    assert_canned(&get_once(vec![bytes.clone()]).unwrap(), "whole");
    let bytewise = bytes.iter().map(|&b| vec![b]).collect();
    assert_canned(&get_once(bytewise).unwrap(), "one byte per write");
    // Every index: the head terminator, the Content-Length digits and
    // the body all lie in 1..len.
    for at in 1..bytes.len() {
        let halves = vec![bytes[..at].to_vec(), bytes[at..].to_vec()];
        assert_canned(&get_once(halves).unwrap(), &format!("split at {at}"));
    }
}

#[test]
fn a_second_response_in_the_same_read_serves_the_next_request() {
    let second = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}";
    let both = [canned().as_slice(), second].concat();
    // The second request gets no bytes from the server: its response is
    // already buffered.
    let (addr, server) = scripted(vec![vec![both], vec![]]);
    let mut client = HttpClient::connect(addr).unwrap();
    assert_canned(&client.get("/v1/health").unwrap(), "first");
    let next = client.get("/v1/health").unwrap();
    assert_eq!((next.status, next.body.as_slice()), (404, &b"{}"[..]));
    assert_eq!(next.header("content-length"), Some("2"));
    drop(client);
    assert_eq!(server.join().unwrap().len(), 2);
}

#[test]
fn a_300_kb_body_arrives_byte_exact() {
    let body: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
    let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
    let r = get_once(vec![[head.as_bytes(), &body].concat()]).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body == body, "300 KB body differs");
}

#[test]
fn a_response_without_content_length_has_an_empty_body() {
    let r = get_once(vec![
        b"HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n".to_vec(),
    ])
    .unwrap();
    assert_eq!(r.status, 204);
    assert!(r.body.is_empty());
    assert_eq!(r.header("connection"), Some("close"));
}

#[test]
fn eof_mid_head_or_mid_body_is_unexpected_eof() {
    let bytes = canned();
    let in_head = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 2;
    for (at, what) in [
        (10, "mid-head"),
        (in_head, "at the terminator"),
        (bytes.len() - 5, "mid-body"),
    ] {
        let err = get_once(vec![bytes[..at].to_vec()]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{what}");
    }
}

#[test]
fn a_bad_status_line_is_invalid_data() {
    let err = get_once(vec![b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n".to_vec()]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn each_request_arrives_in_one_read_in_the_same_bytes() {
    let body = b"{\"mlql\": \"FIND MODELS\"}";
    let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n".to_vec();
    let (addr, server) = scripted(vec![vec![ok.clone()], vec![ok]]);
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(
        client.post("/v1/lakes/main/query", body).unwrap().status,
        200
    );
    assert_eq!(client.get("/v1/health").unwrap().status, 200);
    drop(client);
    let seen = server.join().unwrap();
    let post = [
        &b"POST /v1/lakes/main/query HTTP/1.1\r\nHost: mlake\r\nContent-Length: 23\r\n\r\n"[..],
        body,
    ]
    .concat();
    let get = b"GET /v1/health HTTP/1.1\r\nHost: mlake\r\nContent-Length: 0\r\n\r\n".to_vec();
    assert_eq!(seen, [(post, 1), (get, 1)]);
}
