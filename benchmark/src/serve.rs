//! The two HTTP workloads: `serve-search-cold` and `serve-catalog-hot`.
//!
//! The server is bound in-process on `127.0.0.1:0`; the load comes from this
//! process over `nproc` keep-alive connections, one thread each. All requests
//! go to the typed endpoint (`POST /v1/lakes/main/api`, body = one
//! `ApiRequest`), the single funnel every route of the server ends in.

use crate::lakes::{self, Served, LAKE_NAME};
use crate::ops::{cold_op, hot_op, LakeView, ServeOp};
use crate::pace::{self, PacedLog};
use crate::report::{fill_from_spans, Metrics, Outcome};
use crate::speed::Meter;
use crate::stats::{self, median, Samples};
use crate::trace::{self, Span};
use crate::{probes, Run};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use mlake_load::HttpClient;
use mlake_proto::{
    decode_request, decode_response, encode_request, encode_response, ApiRequest, ApiResponse,
};
use mlake_server::api::Api;
use mlake_wal::crc32c;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Hot,
}

/// Fixed arrival rate of the paced leg, requests per second: about a third of
/// the closed-loop capacity of `serve-search-cold` on the reference box, so
/// the server keeps up and the latency is queueing-free unless it stalls.
const PACED_RATE: f64 = 1000.0;
/// Share of the run the closed-loop leg of `serve-search-cold` takes; the
/// paced leg takes the rest.
const COLD_CLOSED_SHARE: f64 = 0.7;
/// Share of a traced closed-loop leg that still runs untraced, to measure
/// what tracing costs.
const UNTRACED_SHARE: f64 = 0.25;
/// Every this many requests a response is kept and checked after the leg.
const CHECK_EVERY: usize = 100;
/// Iteration numbers of the paced leg start here, clear of the closed loop's.
const PACED_BASE: usize = 1 << 40;

fn endpoint() -> String {
    format!("/v1/lakes/{LAKE_NAME}/api")
}

fn facade_span(req: &ApiRequest) -> &'static str {
    match req {
        ApiRequest::Similar { .. } => "lake.similar",
        ApiRequest::TextSearch { .. } => "lake.text_search",
        ApiRequest::HybridSearch { .. } => "lake.hybrid_search",
        ApiRequest::Query { .. } => "lake.query",
        ApiRequest::Resolve { .. } => "lake.resolve",
        ApiRequest::ListModels => "lake.list_models",
        _ => "lake.other",
    }
}

/// A response kept for checking against the replica.
struct Kept {
    op: ServeOp,
    body: Vec<u8>,
}

/// A traced request, to be replayed on the twin lake after the leg.
struct Traced {
    iter: usize,
    /// When the request was sent and when its response had arrived.
    sent: Instant,
    done: Instant,
    /// Length and CRC32C of the response body.
    len: usize,
    hash: u32,
}

#[derive(Default)]
struct ClientLog {
    /// Round-trip time of every request, in send order, and when it was sent.
    rtt: Samples,
    sent: Vec<Instant>,
    /// How many of `rtt` were taken before tracing started.
    untraced: usize,
    kept: Vec<Kept>,
    traced: Vec<Traced>,
    attempted: u64,
    failed: u64,
    shed: u64,
    spans: Vec<Span>,
}

/// Sends one request; `None` on a transport error.
fn send(client: &mut HttpClient, path: &str, body: &[u8]) -> Option<(u16, Vec<u8>)> {
    client
        .request("POST", path, body)
        .ok()
        .map(|r| (r.status, r.body))
}

struct Leg<'a> {
    addr: SocketAddr,
    generate: &'a (dyn Fn(usize, usize) -> ServeOp + Sync),
    epoch: Instant,
    /// Requests from this instant on are traced (never, in an untraced run).
    trace_from: Option<Instant>,
    deadline: Instant,
}

fn push_span(
    spans: &mut Vec<Span>,
    epoch: Instant,
    name: &'static str,
    parent: u32,
    request: u64,
    start: Instant,
    stop: Instant,
) -> u32 {
    spans.push(Span {
        name,
        start_ns: (start - epoch).as_nanos() as u64,
        end_ns: (stop - epoch).as_nanos() as u64,
        parent,
        request,
    });
    spans.len() as u32 - 1
}

fn request_id(client_idx: usize, iter: usize) -> u64 {
    ((client_idx as u64) << 40) | iter as u64
}

/// One closed-loop client. The client that is handed the meter samples the
/// machine's speed between its requests.
fn closed_client(leg: &Leg, client_idx: usize, mut meter: Option<&mut Meter>) -> ClientLog {
    let mut log = ClientLog::default();
    let path = endpoint();
    let mut client = HttpClient::connect(leg.addr).expect("connect to the in-process server");
    for iter in 0.. {
        let op = (leg.generate)(client_idx, iter);
        let body = encode_request(&op.request);
        let t0 = Instant::now();
        if t0 >= leg.deadline {
            break;
        }
        let reply = send(&mut client, &path, &body);
        let t1 = Instant::now();
        log.attempted += 1;
        log.rtt.push_duration(t1 - t0);
        log.sent.push(t0);
        if let Some(meter) = meter.as_deref_mut() {
            meter.poll(t1);
        }
        let Some((status, resp)) = reply else {
            log.failed += 1;
            client = HttpClient::connect(leg.addr).expect("reconnect");
            continue;
        };
        if status != 200 {
            log.failed += 1;
            log.shed += u64::from(status == 503);
            continue;
        }
        if leg.trace_from.is_some_and(|from| t0 >= from) {
            log.traced.push(Traced {
                iter,
                sent: t0,
                done: t1,
                len: resp.len(),
                hash: crc32c(&resp),
            });
        } else {
            log.untraced = log.rtt.len();
        }
        if iter % CHECK_EVERY == 0 {
            log.kept.push(Kept { op, body: resp });
        }
    }
    log
}

/// Replays a client's traced requests on the twin lake — a second open of a
/// copy of the served directory, which sees the same requests in the same
/// per-client order, so its caches and resident set behave like the server's.
/// Decode, facade call and encode are timed apart and recorded as children
/// of the request's `server.rtt` span (so they lie after it in time); what
/// is left of the RTT is the server's. Replaying after the leg keeps the clients off the cores while
/// the RTTs are measured. Returns the number of answers that differ from what
/// the server sent.
fn replay(leg: &Leg, client_idx: usize, twin: &Api, log: &mut ClientLog) -> u64 {
    let mut mismatches = 0;
    for t in &log.traced {
        let id = request_id(client_idx, t.iter);
        let root = push_span(
            &mut log.spans,
            leg.epoch,
            "server.rtt",
            trace::ROOT,
            id,
            t.sent,
            t.done,
        );
        let body = encode_request(&(leg.generate)(client_idx, t.iter).request);
        let a = Instant::now();
        let decoded = decode_request(&body).expect("own request decodes");
        let b = Instant::now();
        push_span(
            &mut log.spans,
            leg.epoch,
            "proto.decode_req",
            root,
            id,
            a,
            b,
        );
        let name = facade_span(&decoded);
        let (_, answer) = twin.handle(decoded);
        let c = Instant::now();
        push_span(&mut log.spans, leg.epoch, name, root, id, b, c);
        let encoded = encode_response(&answer);
        push_span(
            &mut log.spans,
            leg.epoch,
            "proto.encode_resp",
            root,
            id,
            c,
            Instant::now(),
        );
        mismatches += u64::from(encoded.len() != t.len || crc32c(&encoded) != t.hash);
    }
    mismatches
}

fn paced_client(
    leg: &Leg,
    mut client: HttpClient,
    start: Instant,
    client_idx: usize,
    clients: usize,
    duration: Duration,
) -> PacedLog {
    let path = endpoint();
    pace::run_client(start, duration, client_idx, clients, PACED_RATE, |j| {
        let op = (leg.generate)(client_idx, PACED_BASE + j);
        matches!(
            send(&mut client, &path, &encode_request(&op.request)),
            Some((200, _))
        )
    })
}

/// Checks the kept responses: each equals, byte for byte, what an in-memory
/// replica populated from the same ground truth answers (so ids and score
/// bits agree), and a family-vocabulary text query has a member of that
/// family at rank 1. Returns the number of failures.
fn check(kept: &[Kept], replica: &Api, gt: &GroundTruth) -> u64 {
    let mut failures = 0;
    for k in kept {
        let (_, expected) = replica.handle(k.op.request.clone());
        let mut bad = encode_response(&expected) != k.body;
        if let Some(family) = k.op.expect_family {
            bad |= match decode_response(&k.body) {
                Ok(ApiResponse::Scored { hits }) => hits
                    .first()
                    .is_none_or(|h| !gt.family_members(family).contains(&(h.id as usize))),
                _ => true,
            };
        }
        failures += u64::from(bad);
    }
    failures
}

pub fn run(mix: Mix, run: &Run, gt: &GroundTruth, meter: &mut Meter) -> Outcome {
    let view = LakeView::of(gt);
    // Cold: the blob store may hold a quarter of the artifacts, so three in
    // four anchors fault their blob back in. Hot: everything stays resident.
    let cap = match mix {
        Mix::Cold => lakes::artifact_bytes(gt) / 4,
        Mix::Hot => 0,
    };
    let cfg = lakes::config(cap);
    let (served, setup, parts) = lakes::repeat_setup(
        meter,
        |meter| {
            lakes::serve(lakes::build_durable(
                gt,
                &cfg,
                &run.work.join("lake"),
                run.traced,
                meter,
            ))
        },
        Served::stop,
        |s| s.parts,
    );
    let addr = served.server.addr();

    // Not part of the program's set-up: the benchmark's own reference copies.
    let replica = ModelLake::new(lakes::config(0));
    populate_from_ground_truth(&replica, gt, CardPolicy::Honest).expect("populate replica");
    let replica = Api::new(Arc::new(replica));
    let twin = run.traced.then(|| {
        let dir = run.work.join("twin");
        lakes::copy_dir(&served.dir, &dir).expect("copy the lake for the twin");
        let twin = ModelLake::open(&dir, cfg.clone()).expect("open twin");
        twin.similar(ModelId(0), FingerprintKind::Hybrid, 5)
            .expect("warm twin");
        Api::new(Arc::new(twin))
    });

    let generate = |client: usize, iter: usize| match mix {
        Mix::Cold => cold_op(&view, run.seed, client, iter),
        Mix::Hot => hot_op(&view, run.seed, client, iter),
    };
    let clients = run.clients;
    let epoch = Instant::now();
    if run.traced {
        trace::begin(epoch);
        for _ in 0..16 {
            trace::span("server.connect", || drop(HttpClient::connect(addr)));
        }
    }
    let before = mlake_obs::snapshot();

    let closed_secs = match mix {
        Mix::Cold => run.seconds * COLD_CLOSED_SHARE,
        Mix::Hot => run.seconds,
    };
    let start = Instant::now();
    let leg = Leg {
        addr,
        generate: &generate,
        epoch,
        trace_from: run
            .traced
            .then(|| start + Duration::from_secs_f64(closed_secs * UNTRACED_SHARE)),
        deadline: start + Duration::from_secs_f64(closed_secs),
    };
    let mut logs: Vec<ClientLog> = std::thread::scope(|s| {
        let mut meter = Some(&mut *meter);
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Client 0 carries the meter (pinned runs have no other).
                let meter = meter.take();
                s.spawn({
                    let leg = &leg;
                    move || closed_client(leg, c, meter)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let speed = meter.speed();
    let (closed_s, closed_raw_s) = speed.secs(start, Instant::now());

    let paced: Vec<PacedLog> = if mix == Mix::Cold {
        let duration = Duration::from_secs_f64(run.seconds - closed_secs);
        // Connect before the schedule starts, so no request is late for it.
        let connections: Vec<HttpClient> = (0..clients)
            .map(|_| HttpClient::connect(addr).expect("connect to the in-process server"))
            .collect();
        let start = Instant::now() + Duration::from_millis(5);
        std::thread::scope(|s| {
            let handles: Vec<_> = connections
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn({
                        let leg = &leg;
                        move || paced_client(leg, client, start, c, clients, duration)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("paced client thread"))
                .collect()
        })
    } else {
        Vec::new()
    };
    let mut mismatches = 0;
    if let Some(twin) = &twin {
        mismatches = std::thread::scope(|s| {
            let handles: Vec<_> = logs
                .iter_mut()
                .enumerate()
                .map(|(c, log)| {
                    s.spawn({
                        let leg = &leg;
                        move || replay(leg, c, twin, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .sum()
        });
    }
    let after = mlake_obs::snapshot();

    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum::<u64>() + mismatches;
    let closed_ok = attempted - failed;
    for p in &paced {
        attempted += p.latency.len() as u64;
        failed += p.failed;
    }
    for log in &logs {
        failed += check(&log.kept, &replica, gt);
    }

    let rtts: Vec<&Samples> = logs.iter().map(|l| &l.rtt).collect();
    let corrected: Vec<Samples> = logs
        .iter()
        .map(|l| speed.correct(&l.rtt, &l.sent))
        .collect();
    let corrected: Vec<&Samples> = corrected.iter().collect();
    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup.corrected_s);
    m.insert("raw.setup_s".into(), setup.raw_s);
    m.insert("throughput_ops_s".into(), closed_ok as f64 / closed_s);
    m.insert(
        "raw.throughput_ops_s".into(),
        closed_ok as f64 / closed_raw_s,
    );
    m.insert("read_p50_ms".into(), stats::sliced(&corrected, 0.50) / 1e6);
    m.insert("raw.read_p50_ms".into(), stats::sliced(&rtts, 0.50) / 1e6);
    // Nothing is written while serving: the directory is as set-up left it.
    m.insert(
        "space_amp".into(),
        lakes::space_amp(&served.dir, lakes::user_bytes(gt)),
    );
    m.insert("read.p99_ms".into(), stats::sliced(&rtts, 0.99) / 1e6);
    let mut notes = vec![format!(
        "closed loop: {clients} clients, {} requests in {closed_raw_s:.2} s",
        stats::count(&rtts)
    )];
    if !paced.is_empty() {
        let lat: Vec<&Samples> = paced.iter().map(|p| &p.latency).collect();
        let late: Vec<&Samples> = paced.iter().map(|p| &p.late).collect();
        m.insert("paced.p50_ms".into(), stats::sliced(&lat, 0.50) / 1e6);
        m.insert("paced.p99_ms".into(), stats::sliced(&lat, 0.99) / 1e6);
        m.insert("gen.late_ms".into(), stats::whole(&late, 0.99) / 1e6);
        notes.push(format!(
            "paced leg: {PACED_RATE} req/s, {} requests, timed from due time",
            stats::count(&lat)
        ));
    }
    m.insert(
        "check.error_rate".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    m.insert(
        "server.shed".into(),
        logs.iter().map(|l| l.shed).sum::<u64>() as f64,
    );

    // Counters the program already keeps (both lakes of a traced run feed
    // them, with the same requests, so the ratios are unaffected).
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let lookups = delta("cache.hit") + delta("cache.miss");
    m.insert(
        "lake.cache_miss_ratio".into(),
        delta("cache.miss") / lookups.max(1.0),
    );
    let replayed: usize = logs.iter().map(|l| l.traced.len()).sum();
    m.insert(
        "store.fault_ratio".into(),
        delta("store.fault") / (attempted as f64 + replayed as f64),
    );
    m.insert("store.evictions".into(), delta("store.evict"));
    m.insert(
        "store.resident_bytes".into(),
        served.lake.resident_bytes() as f64,
    );
    m.insert("lake.open_us".into(), parts.open_s * 1e6);
    m.insert("lake.index_build_us".into(), parts.index_build_s * 1e6);
    m.insert("persist.full_us".into(), parts.persist_full_s * 1e6);
    crate::fs_metrics(&mut m, &served.fs.counts(), &served.fs.times());

    let mut spans = Vec::new();
    if run.traced {
        // Tracing cost: the same loop's median RTT before and after tracing
        // (and the replay on the twin) started.
        let split = |traced: bool| -> Vec<Samples> {
            logs.iter()
                .map(|l| {
                    let (head, tail) = l.rtt.0.split_at(l.untraced);
                    Samples(if traced { tail.to_vec() } else { head.to_vec() })
                })
                .collect()
        };
        let (plain, traced) = (split(false), split(true));
        let plain_p50 = stats::whole(&plain.iter().collect::<Vec<_>>(), 0.5);
        let traced_refs: Vec<&Samples> = traced.iter().collect();
        let traced_p50 = stats::whole(&traced_refs, 0.5);
        m.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_p50 - plain_p50) / plain_p50.max(1.0),
        );
        m.insert(
            "server.rtt_p99_us".into(),
            stats::sliced(&traced_refs, 0.99) / 1e3,
        );
        let sizes: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.traced.iter().map(|t| t.len as f64))
            .collect();
        m.insert("proto.resp_bytes".into(), median(&sizes));

        // A repeated `similar` is answered from the result cache.
        for i in 0..32u64 {
            let anchor = ModelId(i % gt.models.len() as u64);
            served
                .lake
                .similar(anchor, FingerprintKind::Hybrid, 7)
                .expect("similar");
            trace::span("lake.similar_hit", || {
                served
                    .lake
                    .similar(anchor, FingerprintKind::Hybrid, 7)
                    .expect("similar")
            });
        }
        probes::run(&served.lake, gt, &view, &run.work, &mut m);
        let mut lists: Vec<Vec<Span>> = vec![trace::end()];
        lists.extend(logs.into_iter().map(|l| l.spans));
        spans = trace::merge(lists);
        // RTT minus decode, facade and encode of the same request.
        let own = trace::self_times(&spans);
        let overhead: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "server.rtt")
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        m.insert("server.overhead_us".into(), median(&overhead));
        fill_from_spans(&mut m, &spans);
    }
    drop(twin);
    served.stop();
    Outcome {
        attempted,
        failed,
        metrics: m,
        spans,
        notes,
    }
}
