//! Criterion benches for block-segment storage (DESIGN.md §15): lazy
//! open, incremental persist cost, and GC sweep throughput. The size half
//! of "persist cost is O(ops since last persist)" is a test
//! (`crates/core/tests/delta_segment.rs`); these benches chart the times.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-bench-blockstore-{tag}-{}", std::process::id()))
}

/// Builds a persisted v3 lake with every model from a `small` spec,
/// returning its directory (caller removes it).
fn persisted_lake(tag: &str) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(17));
    let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
    for (i, gm) in gt.models.iter().enumerate() {
        lake.ingest_model(&format!("m-{i}"), &gm.model, None).unwrap();
    }
    lake.persist(&dir).unwrap();
    dir
}

fn bench_open(c: &mut Criterion) {
    let v3 = persisted_lake("open-v3");
    let mut group = c.benchmark_group("blockstore_open");
    group.bench_function("lazy_v3", |b| {
        b.iter(|| ModelLake::open(&v3, LakeConfig::default()).unwrap())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&v3);
}

fn bench_incremental_persist(c: &mut Criterion) {
    let gt = generate_lake(&LakeSpec::tiny(18));
    let extra = &gt.models[0].model;
    c.bench_function("persist_after_one_ingest", |b| {
        let mut n = 0u64;
        b.iter_batched(
            || {
                // A persisted lake with a sealed chain: the timed persist
                // below covers exactly one new ingest.
                n += 1;
                let dir = tmp(&format!("persist-{n}"));
                let _ = std::fs::remove_dir_all(&dir);
                let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
                for (i, gm) in gt.models.iter().enumerate() {
                    lake.ingest_model(&format!("m-{i}"), &gm.model, None).unwrap();
                }
                lake.persist(&dir).unwrap();
                lake.ingest_model("delta", extra, None).unwrap();
                (dir, lake)
            },
            |(dir, lake)| {
                lake.persist(&dir).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
            },
            BatchSize::PerIteration,
        )
    });
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("blockstore_gc");
    group.throughput(Throughput::Elements(1));
    group.bench_function("idle_pass", |b| {
        let dir = persisted_lake("gc");
        let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        b.iter(|| lake.gc().unwrap());
        drop(lake);
        let _ = std::fs::remove_dir_all(&dir);
    });
    group.finish();
}

criterion_group!(benches, bench_open, bench_incremental_persist, bench_gc);
criterion_main!(benches);
