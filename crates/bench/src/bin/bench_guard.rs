//! Performance regression guard for CI.
//!
//! Six gates, all best-of-N (robust to scheduler noise on loaded hosts):
//!
//! 1. **Tiled matmul** — times the 512x512 tiled matmul (the parallel
//!    layer's flagship kernel; 13.94ms baseline recorded in CHANGES.md)
//!    and fails on a >25% regression past that baseline.
//! 2. **SQ8 flat scan** — times 32 exact top-10 searches over a 20k x 64
//!    flat index in f32 and in `Precision::Sq8Rescore`, and fails unless
//!    the quantized scan is at least 1.3x faster (ISSUE PR 4 acceptance
//!    criterion) and within an absolute budget.
//! 3. **Sharded scatter-gather** — runs the same 32-query batch over a
//!    4-way sharded flat index (ISSUE PR 6), fails unless the merged
//!    results are bit-identical to the single-shard scan (the merge
//!    invariant at equal precision: same ids, same distance bits) and
//!    the batch sustains the queries/s floor.
//! 4. **WAL append throughput** — appends 4096 records of 256B under
//!    group commit (`SyncPolicy::Batch { every: 64 }`) and fails below
//!    the ops/s floor; the WAL's whole point is that per-mutation
//!    durability stays cheap.
//! 5. **Blockstore open / delta size** (ISSUE PR 9) — lazy open fits an
//!    absolute budget and delta segments stay O(ops since last persist),
//!    not O(lake).
//! 6. **Text & hybrid retrieval** (ISSUE PR 10) — populates an honest
//!    lake from datagen ground truth, times a family-vocabulary BM25
//!    query batch against `MLAKE_BENCH_GUARD_TEXT_MS`, and fails unless
//!    hybrid recall@10 is at least the better of text-only and
//!    vector-only — the §16 fusion acceptance bar.
//!
//! ```text
//! cargo run -p mlake-bench --bin bench_guard --release
//! ```
//!
//! Override knobs (env):
//!   MLAKE_BENCH_GUARD_MS        — matmul threshold in ms (default 17.4 = 13.94 * 1.25)
//!   MLAKE_BENCH_GUARD_SQ8_MS    — SQ8 scan budget in ms for the 32-query batch
//!   MLAKE_BENCH_GUARD_SQ8_RATIO — required f32/sq8 speedup (default 1.3)
//!   MLAKE_BENCH_GUARD_SHARD_OPS — sharded scatter-gather floor in queries/s (default 200)
//!   MLAKE_BENCH_GUARD_WAL_OPS   — WAL group-commit append floor in ops/s (default 5000)
//!   MLAKE_BENCH_GUARD_OPEN_MS   — lazy open budget in ms (default 150)
//!   MLAKE_BENCH_GUARD_TEXT_MS   — BM25 query-batch budget in ms (default 50)
//!   MLAKE_GUARD_REPS            — timed repetitions (default 10)

use mlake_bench::exp::e5_index::embeddings;
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_index::{FlatIndex, Precision, ShardedIndex, VectorIndex};
use mlake_tensor::{Matrix, Pcg64};
use mlake_wal::{SyncPolicy, Wal, WalOptions};
use std::time::Instant;

const DEFAULT_BUDGET_MS: f64 = 17.4;
const DEFAULT_SQ8_BUDGET_MS: f64 = 60.0;
const DEFAULT_SQ8_RATIO: f64 = 1.3;
const DEFAULT_SHARD_OPS: f64 = 200.0;
const DEFAULT_WAL_OPS: f64 = 5_000.0;
const DEFAULT_OPEN_MS: f64 = 150.0;
const DEFAULT_TEXT_MS: f64 = 50.0;
const DEFAULT_REPS: usize = 10;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds (after one warm-up).
fn best_of_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up: first run pays pool spawn + page faults
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn guard_matmul(reps: usize) -> bool {
    let budget_ms: f64 = env_or("MLAKE_BENCH_GUARD_MS", DEFAULT_BUDGET_MS);
    let n = 512;
    let mut rng = Pcg64::new(41);
    let a = Matrix::randn(n, n, &mut rng);
    let b = Matrix::randn(n, n, &mut rng);
    let best_ms = best_of_ms(reps, || {
        std::hint::black_box(a.matmul(&b).expect("matmul"));
    });
    println!("bench_guard: matmul {n}x{n} tiled best-of-{reps} = {best_ms:.2}ms (budget {budget_ms:.2}ms)");
    if best_ms > budget_ms {
        eprintln!(
            "bench_guard: FAIL — {best_ms:.2}ms exceeds the {budget_ms:.2}ms budget \
             (13.94ms baseline + 25%); the tiled matmul path has regressed"
        );
        return false;
    }
    true
}

fn guard_sq8_scan(reps: usize) -> bool {
    let budget_ms: f64 = env_or("MLAKE_BENCH_GUARD_SQ8_MS", DEFAULT_SQ8_BUDGET_MS);
    let ratio_floor: f64 = env_or("MLAKE_BENCH_GUARD_SQ8_RATIO", DEFAULT_SQ8_RATIO);
    let (n, dim, k) = (20_000, 64, 10);
    let items: Vec<(u64, Vec<f32>)> = embeddings(n, dim, 31)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    let queries = embeddings(32, dim, 77);
    let mut f32_idx = FlatIndex::new();
    let mut sq8_idx = FlatIndex::with_precision(Precision::Sq8Rescore);
    f32_idx.insert_batch(&items).expect("insert f32");
    sq8_idx.insert_batch(&items).expect("insert sq8");

    let f32_ms = best_of_ms(reps, || {
        std::hint::black_box(f32_idx.search_many(&queries, k).expect("f32 scan"));
    });
    let sq8_ms = best_of_ms(reps, || {
        std::hint::black_box(sq8_idx.search_many(&queries, k).expect("sq8 scan"));
    });
    let speedup = f32_ms / sq8_ms;
    println!(
        "bench_guard: flat scan {n}x{dim}, 32 queries, k={k}, best-of-{reps}: \
         f32 {f32_ms:.2}ms, sq8 {sq8_ms:.2}ms, speedup {speedup:.2}x \
         (floor {ratio_floor:.2}x, budget {budget_ms:.2}ms)"
    );
    let mut ok = true;
    if speedup < ratio_floor {
        eprintln!(
            "bench_guard: FAIL — SQ8 scan speedup {speedup:.2}x is below the \
             {ratio_floor:.2}x floor; the quantized scan path has regressed"
        );
        ok = false;
    }
    if sq8_ms > budget_ms {
        eprintln!(
            "bench_guard: FAIL — SQ8 scan {sq8_ms:.2}ms exceeds the {budget_ms:.2}ms budget"
        );
        ok = false;
    }
    ok
}

fn guard_sharded(reps: usize) -> bool {
    let floor_ops: f64 = env_or("MLAKE_BENCH_GUARD_SHARD_OPS", DEFAULT_SHARD_OPS);
    let (n, dim, k, shards) = (20_000, 64, 10, 4);
    let items: Vec<(u64, Vec<f32>)> = embeddings(n, dim, 31)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    let queries = embeddings(32, dim, 77);
    let mut single = FlatIndex::new();
    single.insert_batch(&items).expect("insert single");
    let mut sharded = ShardedIndex::new(shards, FlatIndex::new);
    sharded.insert_batch(&items).expect("insert sharded");

    // Merge invariant at equal precision: the scatter-gather answer must
    // be bit-identical to the single-shard scan — same ids, same distance
    // bits, every query.
    let want = single.search_many(&queries, k).expect("single scan");
    let got = sharded.search_many(&queries, k).expect("sharded scan");
    for (q, (w, g)) in want.iter().zip(&got).enumerate() {
        let identical = w.len() == g.len()
            && w.iter().zip(g).all(|(wh, gh)| {
                wh.id == gh.id && wh.distance.to_bits() == gh.distance.to_bits()
            });
        if !identical {
            eprintln!(
                "bench_guard: FAIL — {shards}-shard merged top-{k} diverges from the \
                 single-shard scan on query {q}; the merge invariant is broken"
            );
            return false;
        }
    }

    let best_ms = best_of_ms(reps, || {
        std::hint::black_box(sharded.search_many(&queries, k).expect("sharded scan"));
    });
    let ops = queries.len() as f64 / (best_ms / 1e3);
    println!(
        "bench_guard: sharded scatter-gather {n}x{dim}, {shards} shards, 32 queries, k={k}, \
         best-of-{reps} = {best_ms:.2}ms ({ops:.0} queries/s, floor {floor_ops:.0}), \
         merge bit-identical to single shard"
    );
    if ops < floor_ops {
        eprintln!(
            "bench_guard: FAIL — sharded scatter-gather {ops:.0} queries/s is below the \
             {floor_ops:.0} queries/s floor; the scatter-gather path has regressed"
        );
        return false;
    }
    true
}

fn guard_wal_append(reps: usize) -> bool {
    let floor_ops: f64 = env_or("MLAKE_BENCH_GUARD_WAL_OPS", DEFAULT_WAL_OPS);
    let (n, payload) = (4_096usize, [0x5au8; 256]);
    let dir = std::env::temp_dir().join(format!("mlake-guard-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = WalOptions {
        sync: SyncPolicy::Batch { every: 64 },
        ..WalOptions::default()
    };
    let wal = Wal::open(&dir, opts).expect("open guard wal").0;
    let best_ms = best_of_ms(reps, || {
        for _ in 0..n {
            wal.append(&payload).expect("append");
        }
        wal.sync().expect("sync");
    });
    let ops = n as f64 / (best_ms / 1e3);
    println!(
        "bench_guard: wal append {n} x {}B, group commit every 64, best-of-{reps} = \
         {best_ms:.2}ms ({ops:.0} ops/s, floor {floor_ops:.0} ops/s)",
        payload.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    if ops < floor_ops {
        eprintln!(
            "bench_guard: FAIL — WAL append throughput {ops:.0} ops/s is below the \
             {floor_ops:.0} ops/s floor; the durable-append path has regressed"
        );
        return false;
    }
    true
}

/// Text & hybrid retrieval gates (DESIGN.md §16): (a) RRF fusion never
/// loses to the better single channel on family-vocabulary recall@10
/// (reuses the E11 experiment at quick size, so the gate and the
/// experiment can't drift apart); (b) a 32-query BM25 batch over a
/// populated honest lake fits the `MLAKE_BENCH_GUARD_TEXT_MS` budget.
fn guard_text(reps: usize) -> bool {
    let budget_ms: f64 = env_or("MLAKE_BENCH_GUARD_TEXT_MS", DEFAULT_TEXT_MS);

    // (a) Fusion quality.
    let tables = mlake_bench::exp::e11_textsearch::run(true);
    let rows = &tables[0].rows;
    let recall = |r: usize| rows[r][1].parse::<f32>().unwrap_or(0.0);
    let (text, vector, hybrid) = (recall(0), recall(1), recall(2));
    println!(
        "bench_guard: retrieval recall@10: text {text:.3}, vector {vector:.3}, \
         hybrid {hybrid:.3} (floor: max of the single channels)"
    );
    let mut ok = true;
    if hybrid < text.max(vector) {
        eprintln!(
            "bench_guard: FAIL — hybrid recall@10 {hybrid:.3} is below \
             max(text {text:.3}, vector {vector:.3}); RRF fusion has regressed"
        );
        ok = false;
    }

    // (b) BM25 batch latency over an honest lake.
    let gt = mlake_datagen::generate_lake(&mlake_datagen::LakeSpec::tiny(17));
    let lake = ModelLake::new(LakeConfig::builder().name("guard-text").build().expect("config"));
    mlake_core::populate::populate_from_ground_truth(
        &lake,
        &gt,
        mlake_core::populate::CardPolicy::Honest,
    )
    .expect("populate");
    let n = gt.models.len();
    let queries: Vec<String> = (0..32)
        .map(|i| gt.family_vocab(gt.models[i % n].family).join(" "))
        .collect();
    // Results are cached per (query, k, generation), which would let every
    // rep after the first time a hash lookup instead of BM25. Appending a
    // fresh nonsense token each rep defeats the cache without changing
    // the scores — unknown terms contribute nothing to BM25.
    let mut nonce = 0u64;
    let best_ms = best_of_ms(reps, || {
        nonce += 1;
        for q in &queries {
            std::hint::black_box(
                lake.text_search(&format!("{q} zz{nonce}"), 10).expect("text search"),
            );
        }
    });
    println!(
        "bench_guard: bm25 batch 32 queries over {n} models, k=10, best-of-{reps} = \
         {best_ms:.2}ms (budget {budget_ms:.2}ms)"
    );
    if best_ms > budget_ms {
        eprintln!(
            "bench_guard: FAIL — BM25 query batch {best_ms:.2}ms exceeds the \
             {budget_ms:.2}ms budget; the text search path has regressed"
        );
        ok = false;
    }
    ok
}

/// Builds a persisted v3 lake of `n` distinct small MLPs under `dir`.
fn build_lake(dir: &std::path::Path, n: u64) -> ModelLake {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).expect("create guard lake");
    for i in 0..n {
        let mut rng = Pcg64::new(0xb10c + i);
        let model = mlake_nn::Model::Mlp(
            mlake_nn::Mlp::new(
                vec![8, 4, 3],
                mlake_nn::Activation::Relu,
                mlake_tensor::init::Init::HeNormal,
                &mut rng,
            )
            .expect("mlp"),
        );
        lake.ingest_model(&format!("m-{i}"), &model, None).expect("ingest");
    }
    lake.persist(dir).expect("persist");
    lake
}

/// Size in bytes of the highest-numbered sealed segment under `dir`.
fn newest_seg_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir.join("segs"))
        .expect("segs dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .map(|p| std::fs::metadata(p).expect("seg metadata").len())
        .expect("no sealed segments")
}

/// Block-segment storage gates (DESIGN.md §15): (a) lazy open fits the
/// `MLAKE_BENCH_GUARD_OPEN_MS` budget; (b) the delta segment written by a
/// persist covering one ingest has the same size no matter how big the
/// lake is — persist cost is O(ops since last persist), not O(lake).
fn guard_blockstore(reps: usize) -> bool {
    let open_budget_ms: f64 = env_or("MLAKE_BENCH_GUARD_OPEN_MS", DEFAULT_OPEN_MS);
    let n_large = 200u64;
    let n_small = 20u64;
    let pid = std::process::id();
    let v3 = std::env::temp_dir().join(format!("mlake-guard-bs-v3-{pid}"));
    let small = std::env::temp_dir().join(format!("mlake-guard-bs-small-{pid}"));

    // (a) Open reads the superblock and the segment chain, no blobs.
    drop(build_lake(&v3, n_large));
    let lazy_ms = best_of_ms(reps, || {
        ModelLake::open(&v3, LakeConfig::default()).expect("lazy open");
    });
    println!(
        "bench_guard: blockstore open ({n_large} models), lazy best-of-{reps} = \
         {lazy_ms:.2}ms (budget {open_budget_ms:.0}ms)"
    );
    let mut ok = true;
    if lazy_ms > open_budget_ms {
        eprintln!(
            "bench_guard: FAIL — lazy open took {lazy_ms:.2}ms, over the \
             {open_budget_ms:.0}ms budget; open is reading more than superblock + segments"
        );
        ok = false;
    }

    // (b) Persist-after-one-ingest writes a delta whose size does not
    // depend on lake size (byte-exact check, no timing flake).
    let large_lake = ModelLake::open(&v3, LakeConfig::default()).expect("reopen large");
    let small_lake = build_lake(&small, n_small);
    for (lake, dir) in [(&large_lake, &v3), (&small_lake, &small)] {
        let mut rng = Pcg64::new(0xde17a);
        let model = mlake_nn::Model::Mlp(
            mlake_nn::Mlp::new(
                vec![8, 4, 3],
                mlake_nn::Activation::Relu,
                mlake_tensor::init::Init::HeNormal,
                &mut rng,
            )
            .expect("mlp"),
        );
        lake.ingest_model("delta-probe", &model, None).expect("ingest delta");
        lake.persist(dir).expect("delta persist");
    }
    let (large_delta, small_delta) = (newest_seg_bytes(&v3), newest_seg_bytes(&small));
    println!(
        "bench_guard: blockstore delta segment after 1 ingest: {large_delta}B at \
         {n_large} models vs {small_delta}B at {n_small} models"
    );
    if large_delta > small_delta.saturating_mul(2) {
        eprintln!(
            "bench_guard: FAIL — the delta segment grows with lake size \
             ({large_delta}B vs {small_delta}B); persist is no longer incremental"
        );
        ok = false;
    }
    let _ = std::fs::remove_dir_all(&v3);
    let _ = std::fs::remove_dir_all(&small);
    ok
}

fn main() {
    let reps: usize = env_or("MLAKE_GUARD_REPS", DEFAULT_REPS).max(1);
    let ok = guard_matmul(reps)
        & guard_sq8_scan(reps)
        & guard_sharded(reps)
        & guard_wal_append(reps)
        & guard_blockstore(reps)
        & guard_text(reps);
    if !ok {
        std::process::exit(1);
    }
    println!("bench_guard: OK");
}
