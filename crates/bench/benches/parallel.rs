//! Criterion benches for the parallel execution layer: tiled vs naive
//! matmul, batched vs sequential HNSW search, and parallel vs
//! serial lake fingerprinting.
//!
//! Each pair runs the identical workload through the parallel kernel and
//! through `mlake_par::serial` (which forces every primitive inline), so
//! the reported ratio is the pool's wall-clock speedup on this machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlake_bench::exp::e1_versioning::lake_probes;
use mlake_bench::exp::e5_index::embeddings;
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::{FingerprintKind, Fingerprinter};
use mlake_index::{HnswConfig, HnswIndex, VectorIndex};
use mlake_tensor::{Matrix, Pcg64};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Pcg64::new(41);
    let mut group = c.benchmark_group("matmul");
    for &n in &[128usize, 256, 512] {
        let a = Matrix::randn(n, n, &mut rng);
        let b = Matrix::randn(n, n, &mut rng);
        group.bench_function(BenchmarkId::new("naive", n), |bch| {
            bch.iter(|| black_box(&a).matmul_naive(black_box(&b)).unwrap())
        });
        group.bench_function(BenchmarkId::new("tiled-serial", n), |bch| {
            bch.iter(|| mlake_par::serial(|| black_box(&a).matmul(black_box(&b)).unwrap()))
        });
        group.bench_function(BenchmarkId::new("tiled-parallel", n), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
        });
    }
    group.finish();
}

fn hnsw_items(n: usize) -> Vec<(u64, Vec<f32>)> {
    embeddings(n, 64, 31)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect()
}

fn bench_hnsw_search(c: &mut Criterion) {
    let items = hnsw_items(20_000);
    let mut idx = HnswIndex::new(HnswConfig {
        m: 16,
        ef_construction: 100,
        ef_search: 64,
        seed: 5,
        ..Default::default()
    });
    idx.insert_batch(&items).unwrap();
    let queries: Vec<Vec<f32>> = embeddings(256, 64, 77);
    let mut group = c.benchmark_group("hnsw-search-256q");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            mlake_par::serial(|| idx.search_many(black_box(&queries), 10).unwrap().len())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| idx.search_many(black_box(&queries), 10).unwrap().len())
    });
    group.finish();
}

fn bench_lake_fingerprint(c: &mut Criterion) {
    let spec = LakeSpec {
        seed: 3,
        num_base_models: 6,
        derivations_per_base: 4,
        ..LakeSpec::default()
    };
    let gt = generate_lake(&spec);
    let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
    let fp = Fingerprinter::new(64, 7, lake_probes(spec.seed));
    let mut group = c.benchmark_group(format!("lake-fingerprint-{}models", models.len()));
    group.bench_function("serial", |b| {
        b.iter(|| {
            mlake_par::serial(|| {
                fp.compute_many(FingerprintKind::Hybrid, black_box(&models))
                    .unwrap()
                    .len()
            })
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            fp.compute_many(FingerprintKind::Hybrid, black_box(&models))
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_hnsw_search,
    bench_lake_fingerprint
);
criterion_main!(benches);
