//! Golden recovery fixture: `recover_graph` must stay bit-identical to the
//! output rendered on the commit before recovery computed per-model features
//! once (PR 15) — roots, and per edge parent / child / kind / second parent /
//! distance bits in emitted order, in every mode E1 and the lake use.

use mlake_datagen::lakegen::{generate_lake, LakeSpec};
use mlake_fingerprint::extrinsic::ProbeSet;
use mlake_nn::Model;
use mlake_tensor::Seed;
use mlake_versioning::recover::{recover_graph, RecoveryOptions};
use std::fmt::Write;

/// Two tiny lakes plus one with architecture groups large enough for
/// tie-breaking and the Prim/medoid loops to matter.
fn specs() -> Vec<(&'static str, LakeSpec)> {
    let wide = LakeSpec::builder()
        .seed(2025)
        .num_base_models(10)
        .derivations_per_base(5)
        .train_examples(60)
        .corpus_len(800)
        .epochs(4)
        .build()
        .expect("valid spec");
    vec![
        ("tiny-77", LakeSpec::tiny(77)),
        ("tiny-3", LakeSpec::tiny(3)),
        ("wide-2025", wide),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (label, spec) in specs() {
        let gt = generate_lake(&spec);
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let probes = ProbeSet::standard(8, 32, 2.5, 24, 16, 2, Seed::new(spec.seed).derive("e1-probes"));
        let known: Vec<usize> = (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .collect();
        // Known roots that miss some architecture groups exercise the medoid fallback.
        let partial: Vec<usize> = known.iter().copied().step_by(3).collect();
        let modes = [
            ("known", Some(known.clone()), Some(&probes)),
            ("blind", None, Some(&probes)),
            ("known-noprobes", Some(known), None),
            ("blind-noprobes", None, None),
            ("partial-known", Some(partial), Some(&probes)),
        ];
        for (mode, known_roots, probes) in modes {
            let g = recover_graph(
                &models,
                probes,
                &RecoveryOptions {
                    known_roots,
                    ..Default::default()
                },
            );
            writeln!(out, "# {label} {mode} n={}", g.num_models).unwrap();
            writeln!(out, "roots {:?}", g.roots).unwrap();
            for e in &g.edges {
                writeln!(
                    out,
                    "{} {} {} {:?} {:08x}",
                    e.parent,
                    e.child,
                    e.kind.name(),
                    e.second_parent,
                    e.distance.to_bits()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn recovery_matches_parent_commit_fixture() {
    let got = render();
    let want = include_str!("fixtures/recover_golden.txt");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "recovery diverged from the golden fixture at line {}:\n  got  {:?}\n  want {:?}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}
