//! Criterion benches for E5: index build (a size ladder) and query latency
//! (HNSW vs flat) over synthetic model embeddings.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use mlake_bench::exp::e5_index::embeddings;
use mlake_index::{FlatIndex, HnswConfig, HnswIndex, VectorIndex};
use std::hint::black_box;

fn build<I: VectorIndex>(mut idx: I, vecs: &[Vec<f32>]) -> I {
    for (i, v) in vecs.iter().enumerate() {
        idx.insert(i as u64, v).unwrap();
    }
    idx
}

/// HNSW build cost over a size ladder at the lake's narrowest and widest
/// fingerprint widths (64 and 136), so the indexer has a scaling exponent
/// and not a point. One iteration is a whole build; `thrpt` counts inserts,
/// so µs per insert = 1000 ÷ (Kelem/s). The flat scan's build (an append) is
/// the floor.
fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for &dim in &[64usize, 136] {
        for &n in &[600usize, 2_400, 9_600] {
            let vectors = embeddings(n, dim, 1);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(format!("hnsw/d{dim}"), n), &vectors, |b, vecs| {
                b.iter_batched(|| HnswIndex::new(HnswConfig::default()), |idx| build(idx, vecs), BatchSize::LargeInput);
            });
            group.bench_with_input(BenchmarkId::new(format!("flat/d{dim}"), n), &vectors, |b, vecs| {
                b.iter_batched(FlatIndex::new, |idx| build(idx, vecs), BatchSize::LargeInput);
            });
        }
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_query_k10");
    for &n in &[1_000usize, 10_000] {
        let vectors = embeddings(n, 64, 2);
        let query = &vectors[n / 2];
        let mut hnsw = HnswIndex::new(HnswConfig::default());
        let mut flat = FlatIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        group.bench_function(BenchmarkId::new("hnsw", n), |b| {
            b.iter(|| hnsw.search(black_box(query), 10).unwrap())
        });
        group.bench_function(BenchmarkId::new("flat", n), |b| {
            b.iter(|| flat.search(black_box(query), 10).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
