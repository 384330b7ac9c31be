//! The server proper: accept loop, connection threads, route table, and
//! the graceful-shutdown sequence (DESIGN.md §14).
//!
//! Threading model: one OS thread per connection, and a request runs on
//! the thread that read it — parse, route, [`Api::handle`], encode,
//! write. A slow or panicking handler therefore costs its own connection
//! and nobody else's. Parallel regions inside a handler share the one
//! `mlake-par` pool; how many handlers run at once is bounded by
//! [`ServerConfig::max_in_flight`], past which a request is answered
//! `503` + `Retry-After` on the spot and the connection stays usable.
//!
//! Shutdown: [`Server::shutdown`] (1) sets the shutdown flag, (2) wakes
//! the blocking `accept` with a loopback connect, (3) joins the acceptor,
//! (4) joins every connection thread — each finishes its in-flight
//! request first, so every acknowledged response is fully written — and
//! (5) syncs every routed lake. An `Ok` response to a write
//! therefore implies the write survives the shutdown, and a crash: the
//! WAL fsyncs each record before the op returns.

use crate::api::{not_found, protocol_error, Api};
use crate::http::{HttpConn, ReadOutcome, Request, ResponseHead};
use crate::router::LakeRouter;
use mlake_core::{ErrorKind, ModelLake};
use mlake_fingerprint::FingerprintKind;
use mlake_proto::{decode_request, encode_response_into, ApiRequest, WireRef};
use serde::{Content, Deserialize};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Lake requests handled at once (minimum 1); one more is shed with
    /// 503 + `Retry-After`.
    pub max_in_flight: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Socket read timeout — the granularity at which idle keep-alive
    /// connections notice shutdown.
    pub read_timeout: Duration,
}

/// `Retry-After` seconds advertised on shed requests.
const RETRY_AFTER_S: u16 = 1;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 128,
            max_body: 16 * 1024 * 1024,
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// A running server. Dropping it without [`Server::shutdown`] aborts
/// accept/connection threads un-gracefully; call `shutdown` for the
/// ordered sequence.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The accept loop; it owns the handles of the connection threads it
    /// spawned and returns those still running when it exits.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    router: Arc<LakeRouter>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `router`.
    pub fn bind(router: Arc<LakeRouter>, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let ctx = Arc::new(ConnCtx {
            router: Arc::clone(&router),
            in_flight: AtomicUsize::new(0),
            shutdown: Arc::clone(&shutdown),
            config,
        });
        let accept_flag = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("mlake-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    mlake_obs::counter!("http.conns").inc();
                    // Moved into the thread: released when it ends, by
                    // return or by unwinding, or when it fails to spawn.
                    let live = GaugeGuard::raise(mlake_obs::gauge!("http.conns.live"));
                    let ctx = Arc::clone(&ctx);
                    let spawned = std::thread::Builder::new()
                        .name("mlake-conn".into())
                        .spawn(move || {
                            let _live = live;
                            serve_connection(stream, &ctx);
                        });
                    match spawned {
                        Ok(handle) => {
                            // Keep only threads still running: the list
                            // tracks live connections, not every one ever
                            // accepted.
                            conns.retain(|h| !h.is_finished());
                            conns.push(handle);
                        }
                        // Thread exhaustion: drop the stream (the client
                        // sees a reset and retries) instead of crashing
                        // the acceptor.
                        Err(_) => {
                            mlake_obs::counter!("http.conns.spawn_failed").inc();
                        }
                    }
                }
                conns
            })?;

        Ok(Server {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
            router,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown; see the module docs for the ordered sequence.
    /// Returns the first lake sync error, after the sequence completes.
    pub fn shutdown(mut self) -> Result<(), mlake_core::LakeError> {
        for conn in self.stop() {
            let _ = conn.join();
        }
        self.router.sync_all()
    }

    /// Steps (1)–(3) of the shutdown sequence: stops accepting and returns
    /// the handles of the connection threads still running when the
    /// acceptor exited. Empty once the acceptor has stopped.
    fn stop(&mut self) -> Vec<JoinHandle<()>> {
        let Some(acceptor) = self.acceptor.take() else {
            return Vec::new();
        };
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway loopback connection.
        let _ = TcpStream::connect(self.addr);
        acceptor.join().unwrap_or_default()
    }
}

struct ConnCtx {
    router: Arc<LakeRouter>,
    /// Lake requests being handled right now, across all connections.
    in_flight: AtomicUsize,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Holds an obs gauge one higher for as long as it lives — released on
/// drop, so an unwinding thread gives back what it took.
struct GaugeGuard(&'static mlake_obs::Gauge);

impl GaugeGuard {
    fn raise(gauge: &'static mlake_obs::Gauge) -> GaugeGuard {
        gauge.add(1);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// One admitted lake request: a slot of [`ServerConfig::max_in_flight`],
/// given back on drop.
struct Admitted<'a> {
    in_flight: &'a AtomicUsize,
    _gauge: GaugeGuard,
}

impl<'a> Admitted<'a> {
    /// Takes a slot, or `None` at the bound. The counter guards no data —
    /// it only counts — so `Relaxed` is enough.
    fn admit(in_flight: &'a AtomicUsize, max: usize) -> Option<Admitted<'a>> {
        if in_flight.fetch_add(1, Ordering::Relaxed) >= max.max(1) {
            in_flight.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(Admitted {
            in_flight,
            _gauge: GaugeGuard::raise(mlake_obs::gauge!("http.in_flight")),
        })
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn serve_connection(stream: TcpStream, ctx: &ConnCtx) {
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream, ctx.config.max_body);
    loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Everything borrowed from the request is used up here: what is
        // left is owned, and the connection is free to write.
        let (routed, close) = match conn.read_request() {
            Err(_) | Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::TimedOut) => continue,
            Ok(ReadOutcome::Malformed(msg)) => (Err(bad_request(msg)), true),
            Ok(ReadOutcome::TooLarge(n)) => {
                let msg = format!("body of {n} bytes exceeds the cap");
                let body = protocol_error(ErrorKind::InvalidInput, 413, msg);
                (Err(Reply::json(413, body)), true)
            }
            Ok(ReadOutcome::Request(req)) => (route_request(&req, ctx), req.close),
        };
        let sent = match routed {
            Ok((lake, request)) => serve_lake(&mut conn, lake, request, close, ctx),
            Err(reply) => {
                let head = ResponseHead {
                    status: reply.status,
                    retry_after: None,
                    close,
                };
                conn.write_response(head, |out| out.extend_from_slice(&reply.body))
            }
        };
        if sent.is_err() || close {
            return;
        }
    }
}

/// A reply built without a lake: a process-level route, or a request
/// refused before it reached one.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: Vec<u8>,
}

impl Reply {
    fn json(status: u16, body: Vec<u8>) -> Reply {
        Reply { status, body }
    }
}

/// Routes one request: the lake it is for and the typed request to run
/// there, or the reply to send without one. Health, the lake list and
/// process metrics are answered here, outside admission.
fn route_request(
    req: &Request<'_>,
    ctx: &ConnCtx,
) -> Result<(Arc<ModelLake>, ApiRequest), Reply> {
    let (lake_name, api_req) = match route(req.method, req.path)? {
        Routed::Lake { lake, rest, query } => {
            (lake, route_lake(req.method, rest, query, req.body)?)
        }
        Routed::Health => return Err(Reply::json(200, b"{\"ok\":true}".to_vec())),
        Routed::Lakes => {
            let body = serde_json::to_vec(&ctx.router.names()).unwrap_or_default();
            return Err(Reply::json(200, body));
        }
        Routed::Metrics => {
            let body = serde_json::to_vec(&mlake_obs::snapshot()).unwrap_or_default();
            return Err(Reply::json(200, body));
        }
    };
    match ctx.router.get(lake_name) {
        Some(lake) => Ok((lake, api_req)),
        None => Err(Reply::json(404, not_found(&format!("lake '{lake_name}'")))),
    }
}

/// Runs a routed request on its lake, once it has an in-flight slot, and
/// encodes the answer straight into the connection's output buffer. Past
/// the bound the request is shed with 503 + `Retry-After`.
fn serve_lake(
    conn: &mut HttpConn,
    lake: Arc<ModelLake>,
    request: ApiRequest,
    close: bool,
    ctx: &ConnCtx,
) -> io::Result<()> {
    let Some(_slot) = Admitted::admit(&ctx.in_flight, ctx.config.max_in_flight) else {
        mlake_obs::counter!("http.shed").inc();
        let body = protocol_error(
            ErrorKind::Unavailable,
            503,
            "too many requests in flight; retry".into(),
        );
        let head = ResponseHead {
            status: 503,
            retry_after: Some(RETRY_AFTER_S),
            close,
        };
        return conn.write_response(head, |out| out.extend_from_slice(&body));
    };
    let (status, resp) = Api::new(lake).handle(request);
    let head = ResponseHead {
        status,
        retry_after: None,
        close,
    };
    conn.write_response(head, |out| encode_response_into(&resp, out))
}

/// Where a request's path leads.
#[derive(Debug, PartialEq)]
enum Routed<'a> {
    Health,
    Lakes,
    Metrics,
    /// `/v1/lakes/{lake}/{rest}?{query}`.
    Lake {
        lake: &'a str,
        rest: &'a str,
        query: &'a str,
    },
}

/// Most path segments any route has (`/v1/lakes/{lake}/models/{ref}/similar`).
const MAX_SEGMENTS: usize = 6;

/// A path's non-empty segments, on the stack; `None` past
/// [`MAX_SEGMENTS`], which no route has.
fn segments(path: &str) -> Option<([&str; MAX_SEGMENTS], usize)> {
    let mut segs = [""; MAX_SEGMENTS];
    let mut n = 0;
    for seg in path.split('/').filter(|s| !s.is_empty()) {
        *segs.get_mut(n)? = seg;
        n += 1;
    }
    Some((segs, n))
}

/// `path` after its first `k` non-empty segments.
fn skip_segments(mut path: &str, k: usize) -> &str {
    for _ in 0..k {
        path = path.trim_start_matches('/');
        path = path.find('/').map_or("", |at| &path[at..]);
    }
    path
}

/// The top of the route table (DESIGN.md §14): process-level routes, and
/// the lake a `/v1/lakes/{lake}/...` path names.
fn route<'a>(method: &str, target: &'a str) -> Result<Routed<'a>, Reply> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let not_found = || Reply::json(404, not_found(path));
    let (segs, n) = segments(path).ok_or_else(not_found)?;
    match (method, &segs[..n]) {
        ("GET", ["v1", "health"]) => Ok(Routed::Health),
        ("GET", ["v1", "metrics"]) => Ok(Routed::Metrics),
        ("GET", ["v1", "lakes"]) => Ok(Routed::Lakes),
        (_, ["v1", "lakes", lake, ..]) => Ok(Routed::Lake {
            lake,
            rest: skip_segments(path, 3),
            query,
        }),
        _ => Err(not_found()),
    }
}

/// The lake half of the route table. REST-shaped routes are thin sugar
/// over the typed protocol: bodies parse into the matching [`ApiRequest`]
/// variant, so the wire protocol has exactly one source of truth.
fn route_lake(method: &str, rest: &str, query: &str, body: &[u8]) -> Result<ApiRequest, Reply> {
    let unrouted = || {
        let rest = rest.trim_matches('/');
        Reply::json(404, not_found(&format!("{method} /v1/lakes/{{lake}}/{rest}")))
    };
    let (segs, n) = segments(rest).ok_or_else(unrouted)?;
    match (method, &segs[..n]) {
        // The typed endpoint: the body IS an ApiRequest.
        ("POST", ["api"]) => decode_request(body).map_err(|e| bad_request(e.to_string())),
        ("GET", ["models"]) => Ok(ApiRequest::ListModels),
        ("POST", ["models"]) => wrap_body("Ingest", body),
        ("GET", ["models", r]) => Ok(ApiRequest::Resolve { model: parse_ref(r) }),
        ("GET", ["models", r, "cite"]) => Ok(ApiRequest::Cite { model: parse_ref(r) }),
        ("GET", ["models", r, "audit"]) => Ok(ApiRequest::Audit { model: parse_ref(r) }),
        ("GET", ["models", r, "similar"]) => {
            let (kind, k) = parse_similar_query(query)?;
            Ok(ApiRequest::Similar {
                model: parse_ref(r),
                kind,
                k,
            })
        }
        ("PUT" | "POST", ["models", r, "card"]) => {
            let card = serde_json::from_slice(body)
                .map_err(|e| bad_request(format!("card decode: {e}")))?;
            Ok(ApiRequest::UpdateCard {
                model: parse_ref(r),
                card,
            })
        }
        // REST sugar for retrieval: the body carries the TextSearch /
        // HybridSearch fields (`{"query": "...", "k": 10, ...}`).
        ("POST", ["search"]) => wrap_body("TextSearch", body),
        ("POST", ["search", "hybrid"]) => wrap_body("HybridSearch", body),
        ("POST", ["query"]) => wrap_body("Query", body),
        ("POST", ["explain"]) => wrap_body("Explain", body),
        ("POST", ["sync"]) => Ok(ApiRequest::Sync),
        ("POST", ["gc"]) => Ok(ApiRequest::Gc),
        ("GET", ["metrics"]) => Ok(ApiRequest::Metrics),
        _ => Err(unrouted()),
    }
}

/// Wraps a JSON body as the payload of enum variant `variant` and decodes
/// the result as an [`ApiRequest`] — REST bodies reuse the typed
/// protocol's field definitions instead of duplicating them.
fn wrap_body(variant: &str, body: &[u8]) -> Result<ApiRequest, Reply> {
    let text =
        std::str::from_utf8(body).map_err(|_| bad_request("body must be utf-8 JSON".into()))?;
    let content =
        serde_json::parse(text).map_err(|e| bad_request(format!("body parse: {e}")))?;
    let wrapped = Content::Map(vec![(variant.to_string(), content)]);
    ApiRequest::from_content(&wrapped).map_err(|e| bad_request(format!("{variant} decode: {e}")))
}

/// `{ref}` path segments: all digits → id, 64 hex chars → digest,
/// anything else → name. Numeric or 64-hex *names* must be addressed via
/// the typed `/api` endpoint, where `WireRef` is explicit.
fn parse_ref(s: &str) -> WireRef {
    if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(id) = s.parse() {
            return WireRef::Id(id);
        }
    }
    if s.len() == 64 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return WireRef::Digest(s.to_ascii_lowercase());
    }
    WireRef::Name(s.to_string())
}

fn parse_similar_query(query: &str) -> Result<(FingerprintKind, usize), Reply> {
    let mut kind = FingerprintKind::Hybrid;
    let mut k = 10usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("kind", v)) => {
                kind = match v {
                    "intrinsic" => FingerprintKind::Intrinsic,
                    "extrinsic" => FingerprintKind::Extrinsic,
                    "hybrid" => FingerprintKind::Hybrid,
                    other => {
                        return Err(bad_request(format!(
                            "unknown fingerprint kind '{other}' \
                             (intrinsic|extrinsic|hybrid)"
                        )))
                    }
                }
            }
            Some(("k", v)) => {
                k = v
                    .parse()
                    .map_err(|_| bad_request(format!("bad k '{v}'")))?;
            }
            _ => return Err(bad_request(format!("bad query pair '{pair}'"))),
        }
    }
    Ok((kind, k))
}

fn bad_request(msg: String) -> Reply {
    Reply::json(400, protocol_error(ErrorKind::InvalidInput, 400, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed request a lake route decodes to.
    fn lake_request(method: &str, target: &str, body: &[u8]) -> Result<ApiRequest, Reply> {
        match route(method, target)? {
            Routed::Lake { lake, rest, query } => {
                assert_eq!(lake, "main");
                route_lake(method, rest, query, body)
            }
            other => panic!("expected a lake route, got {other:?}"),
        }
    }

    /// The acceptor tracks connections that are live, not every one it
    /// ever accepted.
    #[test]
    fn finished_connections_are_not_tracked() {
        use std::io::{Read, Write};
        let router = Arc::new(LakeRouter::new());
        let mut server = Server::bind(router, "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..64 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut resp = Vec::new();
            stream.read_to_end(&mut resp).unwrap();
            assert!(resp.starts_with(b"HTTP/1.1 200"));
        }
        let conns = server.stop();
        let tracked = conns.len();
        assert!(tracked <= 8, "{tracked} join handles tracked after 64 closed connections");
        for conn in conns {
            conn.join().unwrap();
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn ref_segments_parse_by_shape() {
        assert_eq!(parse_ref("17"), WireRef::Id(17));
        assert_eq!(parse_ref("base-legal"), WireRef::Name("base-legal".into()));
        let hex = "AB".repeat(32);
        assert_eq!(parse_ref(&hex), WireRef::Digest("ab".repeat(32)));
    }

    #[test]
    fn routes_map_to_typed_requests() {
        let similar = "/v1/lakes/main/models/3/similar?kind=intrinsic&k=4";
        assert_eq!(
            lake_request("GET", similar, b"").unwrap(),
            ApiRequest::Similar {
                model: WireRef::Id(3),
                kind: FingerprintKind::Intrinsic,
                k: 4
            }
        );
        // Empty segments collapse; a lake may be named like a route word.
        assert_eq!(
            route("GET", "//v1/lakes/v1//models/x?k=1").unwrap(),
            Routed::Lake { lake: "v1", rest: "//models/x", query: "k=1" }
        );
        assert_eq!(route("GET", "/v1/health").unwrap(), Routed::Health);
        assert_eq!(route("GET", "/nope").unwrap_err().status, 404);
        assert_eq!(route("POST", "/v1/health").unwrap_err().status, 404);
        assert_eq!(route("GET", "/v1/lakes/a/b/c/d/e/f").unwrap_err().status, 404);
        assert_eq!(lake_request("GET", "/v1/lakes/main/models/3/nope", b"").unwrap_err().status, 404);
        assert_eq!(lake_request("GET", "/v1/lakes/main/models/3/similar?k=x", b"").unwrap_err().status, 400);
    }

    #[test]
    fn rest_bodies_reuse_the_typed_protocol() {
        let body = b"{\"mlql\": \"FIND MODELS\"}";
        assert_eq!(
            lake_request("POST", "/v1/lakes/main/query", body).unwrap(),
            ApiRequest::Query { mlql: "FIND MODELS".into() }
        );
    }

    #[test]
    fn search_routes_wrap_bodies() {
        // The exact body shapes the README's search quickstart documents.
        let body = b"{\"query\": \"legal summarization\", \"k\": 10}";
        assert_eq!(
            lake_request("POST", "/v1/lakes/main/search", body).unwrap(),
            ApiRequest::TextSearch { query: "legal summarization".into(), k: 10 }
        );
        let body = b"{\"query\": \"legal summarization\", \"model\": {\"Id\": 3}, \
                     \"kind\": \"Hybrid\", \"k\": 10}";
        assert_eq!(
            lake_request("POST", "/v1/lakes/main/search/hybrid", body).unwrap(),
            ApiRequest::HybridSearch {
                query: "legal summarization".into(),
                model: WireRef::Id(3),
                kind: FingerprintKind::Hybrid,
                k: 10
            }
        );
    }
}
