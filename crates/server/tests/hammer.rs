//! End-to-end HTTP hammer (DESIGN.md §14): a durable lake served over
//! real TCP under concurrent mixed load, deliberate backpressure, and a
//! graceful shutdown whose acknowledged writes must all survive a
//! reopen + WAL replay.
//!
//! This is deliberately the only test in this binary: the final
//! assertions read the process-global observability registry, which
//! Rust's threaded test harness would otherwise share between unrelated
//! tests.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::ModelRef;
use mlake_load::HttpClient;
use mlake_nn::{Activation, Mlp, Model};
use mlake_proto::{encode_request, ApiRequest, ApiResponse};
use mlake_server::{LakeRouter, Server, ServerConfig};
use mlake_tensor::{init::Init, Pcg64};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 24;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-hammer-{tag}-{}", std::process::id()))
}

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

fn lake_config() -> LakeConfig {
    // The WAL fsyncs every record before the op returns, so a 2xx ack
    // means it hit stable storage: what the post-shutdown reopen checks.
    LakeConfig::builder().name("hammer").build().unwrap()
}

fn ingest_body(name: &str, seed: u64) -> Vec<u8> {
    encode_request(&ApiRequest::Ingest {
        name: name.to_string(),
        model: model(seed),
        card: None,
    })
}

#[test]
fn hammer_backpressure_and_graceful_shutdown() {
    let dir = tmp("e2e");
    let _ = std::fs::remove_dir_all(&dir);
    mlake_obs::registry().reset();

    // ---- Serve a durable lake --------------------------------------
    let router = Arc::new(LakeRouter::new());
    {
        let lake = ModelLake::create(&dir, lake_config()).unwrap();
        // Seed one model serially so reads always have a target.
        lake.ingest_model("seed-model", &model(0), None).unwrap();
        router.register("main", lake);
    }
    let server = Server::bind(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    // ---- Phase A: concurrent mixed read/write load ------------------
    // Each client thread drives its own keep-alive connection through
    // ingest / similar / MLQL / resolve / list / update-card. Every
    // response must be 200 (capacity 128 never sheds 4 clients), and
    // every acked ingest is recorded for the durability check.
    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..OPS_PER_CLIENT {
                    let (what, resp) = match i % 6 {
                        0 => {
                            let name = format!("m-c{c}-i{i}");
                            let resp = client
                                .post(
                                    "/v1/lakes/main/api",
                                    &ingest_body(&name, (c * 1000 + i) as u64),
                                )
                                .unwrap();
                            if resp.status == 200 {
                                acked.lock().unwrap().push(name);
                            }
                            ("ingest", resp)
                        }
                        1 => (
                            "similar",
                            client
                                .get("/v1/lakes/main/models/seed-model/similar?kind=hybrid&k=3")
                                .unwrap(),
                        ),
                        2 => (
                            "query",
                            client
                                .post(
                                    "/v1/lakes/main/query",
                                    b"{\"mlql\": \"FIND MODELS WHERE params > 0\"}",
                                )
                                .unwrap(),
                        ),
                        3 => (
                            "resolve",
                            client.get("/v1/lakes/main/models/seed-model").unwrap(),
                        ),
                        4 => ("list", client.get("/v1/lakes/main/models").unwrap()),
                        _ => {
                            let mut card =
                                mlake_proto::WireModelCard::skeleton("seed-model", "mlp");
                            card.notes = format!("hammer c{c} i{i}");
                            let body = encode_request(&ApiRequest::UpdateCard {
                                model: mlake_proto::WireRef::Name("seed-model".into()),
                                card,
                            });
                            (
                                "update-card",
                                client.post("/v1/lakes/main/api", &body).unwrap(),
                            )
                        }
                    };
                    assert_eq!(
                        resp.status,
                        200,
                        "{what} (client {c}, op {i}) failed: {}",
                        String::from_utf8_lossy(&resp.body)
                    );
                }
            });
        }
    });
    let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();
    assert_eq!(acked.len(), CLIENTS * OPS_PER_CLIENT.div_ceil(6));

    // Typed protocol sanity over the same wire: list everything back.
    {
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.get("/v1/lakes/main/models").unwrap();
        assert_eq!(resp.status, 200);
        match mlake_proto::decode_response(&resp.body).unwrap() {
            ApiResponse::Models { names } => {
                for name in &acked {
                    assert!(names.contains(name), "acked ingest '{name}' not listed");
                }
            }
            other => panic!("expected Models, got {other:?}"),
        }
        // Health and metrics endpoints answer inline (never queued).
        assert_eq!(client.get("/v1/health").unwrap().status, 200);
        assert_eq!(client.get("/v1/lakes/main/metrics").unwrap().status, 200);
        // Unknown lake and unknown route are clean 404s, not 5xx.
        assert_eq!(client.get("/v1/lakes/nope/models").unwrap().status, 404);
        assert_eq!(client.get("/v1/bogus").unwrap().status, 404);
    }

    // ---- Phase B: deliberate backpressure ---------------------------
    // A second server over the same router that admits one request at a
    // time: six clients hammering write ops must trip the bound. Shed
    // responses are 503 + Retry-After and the connection stays usable.
    let tiny = Server::bind(
        Arc::clone(&router),
        "127.0.0.1:0",
        ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let tiny_addr = tiny.addr();
    let sheds = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..6 {
            let sheds = &sheds;
            scope.spawn(move || {
                let mut client = HttpClient::connect(tiny_addr).unwrap();
                for i in 0..40 {
                    if sheds.load(Ordering::Relaxed) > 0 && i > 8 {
                        break; // backpressure demonstrated; stop early
                    }
                    let name = format!("bp-c{c}-i{i}");
                    let resp = client
                        .post(
                            "/v1/lakes/main/api",
                            &ingest_body(&name, (90_000 + c * 100 + i) as u64),
                        )
                        .unwrap();
                    match resp.status {
                        200 => {}
                        503 => {
                            assert!(
                                resp.header("retry-after").is_some(),
                                "503 without Retry-After"
                            );
                            sheds.fetch_add(1, Ordering::Relaxed);
                            // The shed connection keeps working.
                            let again = client.get("/v1/health").unwrap();
                            assert_eq!(again.status, 200);
                        }
                        other => panic!("unexpected status {other} under backpressure"),
                    }
                }
            });
        }
    });
    assert!(
        sheds.load(Ordering::Relaxed) > 0,
        "max_in_flight=1 under 6 writers never shed — backpressure broken"
    );
    tiny.shutdown().unwrap();

    // ---- Phase C: graceful shutdown under fire ----------------------
    // Clients keep issuing writes while the main server shuts down;
    // whatever they saw acked must survive. Transport errors and 503s
    // after the shutdown flag flips are expected and fine.
    let late_acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let late_acked = Arc::clone(&late_acked);
            scope.spawn(move || {
                let mut client = match HttpClient::connect(addr) {
                    Ok(cl) => cl,
                    Err(_) => return, // accept already closed
                };
                for i in 0..OPS_PER_CLIENT {
                    let name = format!("late-c{c}-i{i}");
                    match client.post(
                        "/v1/lakes/main/api",
                        &ingest_body(&name, (50_000 + c * 1000 + i) as u64),
                    ) {
                        Ok(resp) if resp.status == 200 => {
                            late_acked.lock().unwrap().push(name);
                        }
                        Ok(_) => {}    // shed or refused mid-shutdown
                        Err(_) => break, // connection torn down
                    }
                }
            });
        }
        // Shut down concurrently with the writers above.
        scope.spawn(move || server.shutdown().unwrap());
    });

    let late_acked = Arc::try_unwrap(late_acked).unwrap().into_inner().unwrap();

    // ---- Reopen: every acked write is there, event log is gap-free --
    drop(router);
    let reopened = ModelLake::open(&dir, lake_config()).unwrap();
    for name in acked.iter().chain(late_acked.iter()) {
        reopened
            .resolve(ModelRef::Name(name.as_str()))
            .unwrap_or_else(|e| panic!("acked ingest '{name}' lost across shutdown: {e}"));
    }
    let events = reopened.events();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64 + 1, "event seq gap at position {i}");
    }

    // Served-path spans landed in the obs histograms (skipped on the
    // MLAKE_OBS=off CI leg).
    if mlake_obs::enabled() {
        let snap = mlake_obs::registry().snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count).unwrap_or(0);
        assert!(count("http.ingest") >= acked.len() as u64);
        assert!(count("http.similar") > 0);
        assert!(count("http.query") > 0);
        assert!(count("http.resolve") > 0);
        assert!(snap.counter("http.shed") > 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
