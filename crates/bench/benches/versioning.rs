//! Criterion benches for E1: version-graph recovery cost (known-roots vs
//! blind Edmonds) over a lake-size ladder, and transform classification.

use criterion::{criterion_group, criterion_main, Criterion};
use mlake_bench::exp::e1_versioning::lake_probes;
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_versioning::delta::classify_transform;
use mlake_versioning::recover::{recover_graph, RecoveryOptions};
use std::hint::black_box;

/// Recovery cost over a lake-size ladder, so E1's cost has a scaling
/// exponent and not a point: the tiny test lake, then 20 and 40 base models
/// × 5 derivations (120 and 240 models — the latter is the shape and seed of
/// lakebench's `lineage-tasks` lake).
fn bench_recovery(c: &mut Criterion) {
    let ladder = |bases: usize| {
        LakeSpec::builder()
            .seed(2025)
            .num_base_models(bases)
            .derivations_per_base(5)
            .build()
            .expect("valid ladder rung")
    };
    let mut group = c.benchmark_group("version_recovery");
    group.sample_size(20);
    for spec in [LakeSpec::tiny(3), ladder(20), ladder(40)] {
        let gt = generate_lake(&spec);
        let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
        let probes = lake_probes(spec.seed);
        let known: Vec<usize> = (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .collect();
        let n = models.len();
        group.bench_function(format!("known_roots/{n}"), |b| {
            b.iter(|| {
                recover_graph(
                    black_box(&models),
                    Some(&probes),
                    &RecoveryOptions {
                        known_roots: Some(known.clone()),
                        ..Default::default()
                    },
                )
            })
        });
        group.bench_function(format!("blind_edmonds/{n}"), |b| {
            b.iter(|| recover_graph(black_box(&models), Some(&probes), &RecoveryOptions::default()))
        });
    }
    group.finish();
}

fn bench_classify(c: &mut Criterion) {
    let gt = generate_lake(&LakeSpec::tiny(3));
    let edge = gt.edges.first().expect("has edges");
    let parent = &gt.models[edge.parent].model;
    let child = &gt.models[edge.child].model;
    c.bench_function("classify_transform", |b| {
        b.iter(|| classify_transform(black_box(parent), black_box(child)))
    });
}

criterion_group!(benches, bench_recovery, bench_classify);
criterion_main!(benches);
