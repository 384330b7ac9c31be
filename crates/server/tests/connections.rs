//! What one connection may cost the others, and what it may not (DESIGN.md
//! §14): a slow request holds only its own connection, a stalled body
//! does not hold up shutdown, and an HTTP/1.0 client is not left waiting
//! for an EOF that never comes.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_load::HttpClient;
use mlake_nn::{Activation, Mlp, Model};
use mlake_server::{LakeRouter, Server, ServerConfig};
use mlake_tensor::{init::Init, Pcg64};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn serve(models: u64) -> Server {
    let lake = ModelLake::new(LakeConfig::default());
    for i in 0..models {
        let mut rng = Pcg64::new(i);
        let mlp = Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
        lake.ingest_model(&format!("m-{i}"), &Model::Mlp(mlp), None).unwrap();
    }
    let router = Arc::new(LakeRouter::new());
    router.register("main", lake);
    Server::bind(router, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

/// Connection A asks for a citation on a lake whose version graph was
/// never built — a rebuild over every model. Connection B's lookups,
/// sent after A's request, are answered while A is still waiting.
#[test]
fn slow_request_does_not_hold_other_connections() {
    let server = serve(120);
    let addr = server.addr();
    let (sent_tx, sent_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let a = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /v1/lakes/main/models/m-7/cite HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        sent_tx.send(()).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        done_tx.send(resp).unwrap();
    });
    sent_rx.recv().unwrap();
    // Several, so that at least one is sent with A's request already
    // being handled, whichever of the two the server read first.
    let mut b = HttpClient::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(b.get("/v1/lakes/main/models/m-3").unwrap().status, 200);
    }
    assert!(
        done_rx.try_recv().is_err(),
        "the citation finished first: the lookups waited behind it, or the lake is too small to tell"
    );
    let resp = done_rx.recv().unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    a.join().unwrap();
    server.shutdown().unwrap();
}

/// A client that promises ten body bytes and sends three must not pin
/// its connection thread: shutdown joins every connection thread.
#[test]
fn stalled_body_does_not_block_shutdown() {
    let server = serve(0);
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled
        .write_all(b"POST /v1/lakes/main/query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"m")
        .unwrap();
    // The server must own the connection before shutdown begins; a
    // second connection answered after it was accepted shows that.
    let mut probe = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(probe.get("/v1/health").unwrap().status, 200);
    drop(probe);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown()).unwrap());
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung behind a half-sent body")
        .unwrap();
    drop(stalled);
}

/// HTTP/1.0 closes by default, HTTP/1.1 persists by default.
#[test]
fn http_1_0_closes_by_default() {
    let server = serve(0);
    let mut old = TcpStream::connect(server.addr()).unwrap();
    old.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    old.write_all(b"GET /v1/health HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    old.read_to_string(&mut resp).expect("no EOF after an HTTP/1.0 response");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("Connection: close\r\n"), "{resp}");

    let mut new = HttpClient::connect(server.addr()).unwrap();
    let first = new.get("/v1/health").unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    assert_eq!(new.get("/v1/health").unwrap().status, 200);
    drop(new);
    server.shutdown().unwrap();
}
