//! Hostile nesting on the wire: a request or response nested deeper than
//! the JSON parser's bound (`serde_json::MAX_DEPTH`) is a `WireError`,
//! decoded on an ordinary 2 MiB thread. Unbounded, the recursive parser
//! overflowed that thread's stack and aborted the process, so these cases
//! live in a test binary of their own.

use mlake_proto::{decode_request, decode_response};

/// Decodes on a fresh thread with the default stack, as a server
/// connection thread does.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().unwrap()
}

#[test]
fn deep_request_is_a_wire_error() {
    for (what, body) in [
        ("10 000 brackets", "[".repeat(10_000)),
        ("100 000 brackets", "[".repeat(100_000)),
        ("objects", "{\"Search\":".repeat(50_000)),
        ("closed", "[".repeat(200) + &"]".repeat(200)),
    ] {
        let err = on_default_stack(move || decode_request(body.as_bytes()).unwrap_err());
        assert!(
            err.to_string().contains("nesting deeper than 128"),
            "{what}: {err}"
        );
    }
}

#[test]
fn deep_response_is_a_wire_error() {
    let body = "{\"Ok\":".repeat(100_000);
    let err = on_default_stack(move || decode_response(body.as_bytes()).unwrap_err());
    assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
}
