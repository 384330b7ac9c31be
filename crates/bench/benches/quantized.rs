//! Criterion benches for the SQ8 quantized search path (ISSUE PR 4).
//!
//! Before the timed groups run, a summary table prints recall@10 and
//! per-query latency for `Precision::F32` vs `Precision::Sq8Rescore` at
//! several rescore factors, plus the flat-scan speedup — the two numbers
//! the PR's acceptance criteria pin (scan ≥ 1.3x faster, recall ≥ 0.95x
//! of f32). CI gates the recall (`crates/index/tests/quantized.rs`); this
//! bench is the instrument for reading the actual values on a machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlake_bench::exp::e5_index::embeddings;
use mlake_bench::table::Table;
use mlake_index::{recall_at_k, FlatIndex, HnswConfig, HnswIndex, Precision, VectorIndex};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 20_000;
const DIM: usize = 64;
const K: usize = 10;

fn fixture() -> (Vec<(u64, Vec<f32>)>, Vec<Vec<f32>>, FlatIndex) {
    let items: Vec<(u64, Vec<f32>)> = embeddings(N, DIM, 31)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    // In-distribution queries, E5a-style: perturbed copies of stored
    // vectors, so recall@10 measures the index rather than the fixture.
    let mut qrng = mlake_tensor::Pcg64::new(77);
    let queries: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            items[(i * 37) % N]
                .1
                .iter()
                .map(|&x| x + qrng.normal() * 0.1)
                .collect()
        })
        .collect();
    let mut truth = FlatIndex::new();
    truth.insert_batch(&items).expect("truth");
    (items, queries, truth)
}

fn hnsw(items: &[(u64, Vec<f32>)], precision: Precision, rescore_factor: usize) -> HnswIndex {
    let mut idx = HnswIndex::new(HnswConfig {
        m: 16,
        ef_construction: 100,
        ef_search: 64,
        seed: 5,
        precision,
        rescore_factor,
        ..Default::default()
    });
    idx.insert_batch(items).expect("build");
    idx
}

/// Per-query latency of `search_many` over the fixture queries, in ms.
fn per_query_ms(index: &dyn VectorIndex, queries: &[Vec<f32>]) -> f64 {
    black_box(index.search_many(queries, K).expect("warmup"));
    let t0 = Instant::now();
    black_box(index.search_many(queries, K).expect("timed"));
    t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
}

/// Prints the recall/latency summary the acceptance criteria reference.
fn print_summary(items: &[(u64, Vec<f32>)], queries: &[Vec<f32>], truth: &FlatIndex) {
    let mut t = Table::new(
        format!("quantized: recall@{K} + per-query latency (n={N}, d={DIM})"),
        &["index", "precision", "query(ms)", "recall@10"],
    );
    let mut row = |name: &str, tag: String, idx: &dyn VectorIndex| {
        let ms = per_query_ms(idx, queries);
        let r = recall_at_k(idx, truth, queries, K).expect("recall");
        t.row(vec![name.into(), tag, format!("{ms:.3}"), format!("{r:.3}")]);
    };
    let mut flat_sq8 = FlatIndex::with_precision(Precision::Sq8Rescore);
    flat_sq8.insert_batch(items).expect("flat sq8");
    row("flat", "f32".into(), truth);
    row("flat", format!("sq8x{}", flat_sq8.rescore_factor()), &flat_sq8);
    row("hnsw", "f32".into(), &hnsw(items, Precision::F32, 1));
    for rf in [1usize, 2, 4, 8] {
        row("hnsw", format!("sq8x{rf}"), &hnsw(items, Precision::Sq8Rescore, rf));
    }
    t.print();

    let f32_ms = per_query_ms(truth, queries);
    let sq8_ms = per_query_ms(&flat_sq8, queries);
    println!(
        "quantized: flat scan speedup f32/sq8 = {:.2}x ({:.3}ms -> {:.3}ms per query)\n",
        f32_ms / sq8_ms,
        f32_ms,
        sq8_ms
    );
}

fn bench_flat_scan(c: &mut Criterion) {
    let (items, queries, truth) = fixture();
    print_summary(&items, &queries, &truth);
    let mut sq8 = FlatIndex::with_precision(Precision::Sq8Rescore);
    sq8.insert_batch(&items).expect("build");
    let mut group = c.benchmark_group(format!("flat-scan-{N}x{DIM}-64q"));
    group.bench_function("f32", |b| {
        b.iter(|| truth.search_many(black_box(&queries), K).unwrap().len())
    });
    group.bench_function("sq8-rescore", |b| {
        b.iter(|| sq8.search_many(black_box(&queries), K).unwrap().len())
    });
    group.finish();
}

fn bench_hnsw_search(c: &mut Criterion) {
    let (items, queries, _truth) = fixture();
    let f32_idx = hnsw(&items, Precision::F32, 1);
    let mut group = c.benchmark_group(format!("hnsw-search-{N}x{DIM}-64q"));
    group.bench_function("f32", |b| {
        b.iter(|| f32_idx.search_many(black_box(&queries), K).unwrap().len())
    });
    for rf in [1usize, 4] {
        let idx = hnsw(&items, Precision::Sq8Rescore, rf);
        group.bench_function(BenchmarkId::new("sq8-rescore", rf), |b| {
            b.iter(|| idx.search_many(black_box(&queries), K).unwrap().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flat_scan, bench_hnsw_search);
criterion_main!(benches);
