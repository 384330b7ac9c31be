//! A request body nested deeper than the JSON parser's bound is answered
//! 400, and the server keeps serving. Unbounded, the parser's recursion
//! overflowed the connection thread's stack and aborted the whole server,
//! so this case lives in a test binary of its own.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_load::HttpClient;
use mlake_server::{LakeRouter, Server, ServerConfig};
use std::sync::Arc;

#[test]
fn deep_request_is_a_400_and_the_server_keeps_serving() {
    let router = Arc::new(LakeRouter::new());
    router.register("main", ModelLake::new(LakeConfig::default()));
    let server = Server::bind(router, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let api = "/v1/lakes/main/api";
    assert_eq!(client.post(api, b"\"ListModels\"").unwrap().status, 200);
    for body in ["[".repeat(20_000), "{\"Search\":".repeat(20_000)] {
        let resp = client.post(api, body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("nesting deeper than 128"), "{text}");
    }
    // The same connection and a new one are both still answered.
    assert_eq!(client.post(api, b"\"ListModels\"").unwrap().status, 200);
    let mut other = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(other.post(api, b"\"ListModels\"").unwrap().status, 200);
}
