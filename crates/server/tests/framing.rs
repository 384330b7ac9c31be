//! Request framing on one connection's reused input buffer (DESIGN.md
//! §14): however the bytes of a request are split on the wire, they parse
//! to the same requests; a read that times out mid-head or mid-body
//! resumes; a large request or response leaves no large buffer behind;
//! and a head whose body length is ambiguous is refused, not guessed.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_server::http::{HttpConn, ReadOutcome, ResponseHead, MAX_HEAD_BYTES, RETAINED_BYTES};
use mlake_server::{LakeRouter, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// What one `read_request` yielded, owned.
#[derive(Debug, Clone, PartialEq)]
enum Parsed {
    Request {
        method: String,
        path: String,
        body: Vec<u8>,
        close: bool,
    },
    Malformed,
    TooLarge(usize),
}

fn request(method: &str, path: &str, body: &[u8], close: bool) -> Parsed {
    Parsed::Request {
        method: method.into(),
        path: path.into(),
        body: body.to_vec(),
        close,
    }
}

/// A loopback connection: the server side, wrapped, and the client side.
fn pair(read_timeout: Duration, max_body: usize) -> (HttpConn, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.set_nodelay(true).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_read_timeout(Some(read_timeout)).unwrap();
    (HttpConn::new(server, max_body), client)
}

/// Reads requests until the peer's EOF or a refusal; returns them and how
/// many reads timed out on the way.
fn drain(conn: &mut HttpConn) -> (Vec<Parsed>, usize) {
    let (mut parsed, mut timeouts) = (Vec::new(), 0);
    loop {
        match conn.read_request().unwrap() {
            ReadOutcome::Request(r) => parsed.push(request(r.method, r.path, r.body, r.close)),
            ReadOutcome::TimedOut => timeouts += 1,
            ReadOutcome::Eof => return (parsed, timeouts),
            ReadOutcome::Malformed(_) => {
                parsed.push(Parsed::Malformed);
                return (parsed, timeouts);
            }
            ReadOutcome::TooLarge(n) => {
                parsed.push(Parsed::TooLarge(n));
                return (parsed, timeouts);
            }
        }
    }
}

/// Sends `chunks` one write each, then half-closes, and parses what
/// arrives.
fn deliver(chunks: Vec<Vec<u8>>) -> Vec<Parsed> {
    let (mut conn, mut client) = pair(Duration::from_millis(5), 1 << 20);
    let writer = thread::spawn(move || {
        for chunk in chunks {
            // A refused request closes the server side mid-delivery.
            if client.write_all(&chunk).is_err() {
                return;
            }
        }
        let _ = client.shutdown(Shutdown::Write);
    });
    let (parsed, _) = drain(&mut conn);
    drop(conn);
    writer.join().unwrap();
    parsed
}

/// Parses `bytes` whole, one byte per write, and split in two at each of
/// `splits`; every delivery must parse to `expected`.
fn check_deliveries(name: &str, bytes: &[u8], expected: &[Parsed], splits: &[usize]) {
    assert_eq!(deliver(vec![bytes.to_vec()]), expected, "{name}: whole");
    let bytewise = bytes.iter().map(|&b| vec![b]).collect();
    assert_eq!(deliver(bytewise), expected, "{name}: one byte per write");
    for &at in splits {
        let halves = vec![bytes[..at].to_vec(), bytes[at..].to_vec()];
        assert_eq!(deliver(halves), expected, "{name}: split at {at}");
    }
}

/// A GET whose head is `len` bytes long, padded by one header.
fn head_of_len(len: usize) -> Vec<u8> {
    let fixed = "GET /v1/health HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
    let pad = "p".repeat(len - fixed);
    format!("GET /v1/health HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into_bytes()
}

const GET: &[u8] = b"GET /v1/health HTTP/1.1\r\nHost: mlake\r\n\r\n";
const POST: &[u8] =
    b"POST /v1/lakes/main/query HTTP/1.1\r\nContent-Length: 23\r\n\r\n{\"mlql\": \"FIND MODELS\"}";

#[test]
fn every_split_of_a_request_parses_the_same() {
    let get = request("GET", "/v1/health", b"", false);
    let post = request(
        "POST",
        "/v1/lakes/main/query",
        b"{\"mlql\": \"FIND MODELS\"}",
        false,
    );
    let pipelined = [GET, POST, b"GET /x HTTP/1.0\r\n\r\n"].concat();
    let cases: [(&str, &[u8], Vec<Parsed>); 3] = [
        ("get", GET, vec![get.clone()]),
        ("post", POST, vec![post.clone()]),
        (
            "pipelined",
            &pipelined,
            vec![get, post, request("GET", "/x", b"", true)],
        ),
    ];
    for (name, bytes, expected) in cases {
        let every: Vec<usize> = (1..bytes.len()).collect();
        check_deliveries(name, bytes, &expected, &every);
    }
}

#[test]
fn a_head_at_the_limit_parses_and_one_byte_more_is_refused() {
    let at_limit = head_of_len(MAX_HEAD_BYTES);
    let over = head_of_len(MAX_HEAD_BYTES + 1);
    assert_eq!(at_limit.len(), MAX_HEAD_BYTES);
    // Every 97th offset, plus every offset near the terminator and the
    // limit: a split anywhere in the padding is like any other.
    let splits = |len: usize| -> Vec<usize> {
        (1..len)
            .filter(|&at| at % 97 == 0 || at + 8 >= len || at < 40)
            .collect()
    };
    let ok = [request("GET", "/v1/health", b"", false)];
    check_deliveries("at limit", &at_limit, &ok, &splits(at_limit.len()));
    // A body behind the largest head still arrives.
    let length = b"Content-Length: 2\r\n";
    let mut with_body = head_of_len(MAX_HEAD_BYTES - length.len());
    let after_request_line = "GET /v1/health HTTP/1.1\r\n".len();
    with_body.splice(
        after_request_line..after_request_line,
        length.iter().copied(),
    );
    with_body.extend_from_slice(b"{}");
    assert_eq!(with_body.len(), MAX_HEAD_BYTES + 2);
    let posted = [request("GET", "/v1/health", b"{}", false)];
    check_deliveries(
        "at limit + body",
        &with_body,
        &posted,
        &splits(with_body.len()),
    );
    check_deliveries("over", &over, &[Parsed::Malformed], &splits(over.len()));
}

#[test]
fn a_read_timeout_mid_head_or_mid_body_resumes() {
    for at in [10, POST.len() - 5] {
        let (mut conn, mut client) = pair(Duration::from_millis(5), 1 << 20);
        let writer = thread::spawn(move || {
            client.write_all(&POST[..at]).unwrap();
            thread::sleep(Duration::from_millis(100));
            client.write_all(&POST[at..]).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
        });
        let (parsed, timeouts) = drain(&mut conn);
        writer.join().unwrap();
        let body = b"{\"mlql\": \"FIND MODELS\"}";
        assert_eq!(
            parsed,
            [request("POST", "/v1/lakes/main/query", body, false)],
            "at {at}"
        );
        assert!(timeouts >= 1, "split at {at}: no read timed out");
    }
}

#[test]
fn a_large_body_and_response_leave_no_large_buffer_behind() {
    const BODY: usize = 4 << 20;
    let (mut conn, mut client) = pair(Duration::from_secs(10), 8 << 20);
    let writer = thread::spawn(move || {
        let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
        let head = format!("POST /v1/lakes/main/models HTTP/1.1\r\nContent-Length: {BODY}\r\n\r\n");
        client.write_all(head.as_bytes()).unwrap();
        client.write_all(&body).unwrap();
        client.write_all(GET).unwrap();
        let mut answers = Vec::new();
        client.read_to_end(&mut answers).unwrap();
        answers
    });
    match conn.read_request().unwrap() {
        ReadOutcome::Request(r) => {
            assert_eq!(r.body.len(), BODY);
            assert!(r
                .body
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (i % 251) as u8));
        }
        other => panic!("expected the large request, got {other:?}"),
    }
    let big_answer = vec![b'7'; 1 << 20];
    conn.write_response(
        ResponseHead {
            status: 200,
            retry_after: None,
            close: false,
        },
        |out| out.extend_from_slice(&big_answer),
    )
    .unwrap();
    assert!(
        conn.buffer_capacity() <= RETAINED_BYTES,
        "{} bytes retained after a 4 MiB request and a 1 MiB response",
        conn.buffer_capacity()
    );
    match conn.read_request().unwrap() {
        ReadOutcome::Request(r) => assert_eq!((r.method, r.path), ("GET", "/v1/health")),
        other => panic!("expected the request behind it, got {other:?}"),
    }
    let head = ResponseHead {
        status: 200,
        retry_after: None,
        close: true,
    };
    conn.write_response(head, |out| out.extend_from_slice(b"{\"ok\":true}"))
        .unwrap();
    assert!(conn.buffer_capacity() <= RETAINED_BYTES);
    drop(conn);
    let answers = writer.join().unwrap();
    let first = format!("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n", 1 << 20);
    assert!(answers.starts_with(first.as_bytes()));
    let second = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}";
    assert_eq!(&answers[first.len() + (1 << 20)..], second);
}

/// RFC 9112 §6.3: a body length two parsers could read two ways is
/// refused. Each of these used to be accepted — the first one framing a
/// second, smuggled request out of the first one's body.
#[test]
fn ambiguous_content_length_is_refused() {
    let smuggle = b"POST /a HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 28\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n";
    assert_eq!(deliver(vec![smuggle.to_vec()]), [Parsed::Malformed]);
    for head in [
        "POST /a HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        "POST /a HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}",
    ] {
        assert_eq!(deliver(vec![head.into()]), [Parsed::Malformed], "{head:?}");
    }
    // Repeating the same length is not ambiguous.
    let twice = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
    assert_eq!(
        deliver(vec![twice.to_vec()]),
        [request("POST", "/a", b"{}", false)]
    );
    let big = b"POST /a HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n";
    assert_eq!(deliver(vec![big.to_vec()]), [Parsed::TooLarge(2 << 20)]);

    // Over the wire: one 400, then the server closes.
    let router = Arc::new(LakeRouter::new());
    router.register("main", ModelLake::new(LakeConfig::default()));
    let server = Server::bind(router, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(smuggle).unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{resp}");
    assert!(resp.contains("Connection: close\r\n"), "{resp}");
    assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");
    server.shutdown().unwrap();
}
