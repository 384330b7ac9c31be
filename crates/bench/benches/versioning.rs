//! Criterion benches for E1: version-graph recovery cost (known-roots vs
//! blind Edmonds, and attaching one model to a recovered lake) over a
//! lake-size ladder, and transform classification.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mlake_bench::exp::e1_versioning::lake_probes;
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_versioning::delta::classify_transform;
use mlake_versioning::recover::{recover_graph, RecoveryMemo, RecoveryOptions};
use std::convert::Infallible;
use std::hint::black_box;

/// Recovery cost over a lake-size ladder, so E1's cost has a scaling
/// exponent and not a point: the tiny test lake, then 20, 40 and 340 base
/// models × 5 derivations (120, 240 and 2 040 models — 240 is the shape and
/// seed of lakebench's `lineage-tasks` lake, 2 040 the rung ROADMAP's
/// evidence gate for incremental lineage names). `attach_one/{n}` is what a
/// lake of n − 1 recovered models pays for its n-th: the memo is built
/// outside the timed loop and cloned, untimed, per iteration.
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
    for spec in [LakeSpec::tiny(3), ladder(20), ladder(40), ladder(340)] {
        let gt = generate_lake(&spec);
        let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
        let probes = lake_probes(spec.seed);
        let known: Vec<usize> = (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .collect();
        let n = models.len();
        group.sample_size(if n > 1000 { 10 } else { 20 });
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
        if n >= 100 {
            let load = |i: usize| Ok::<_, Infallible>(&models[i]);
            let mut memo = RecoveryMemo::new(RecoveryOptions::default());
            memo.extend(n - 1, Some(&probes), load).expect("infallible loader");
            group.bench_function(format!("attach_one/{n}"), |b| {
                b.iter_batched(
                    || memo.clone(),
                    |mut memo| memo.extend(black_box(n), Some(&probes), load),
                    BatchSize::LargeInput,
                )
            });
        }
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
