//! Cross-crate integration: subsystems consuming each other's outputs in
//! ways no single crate tests — attribution on lake-generated data,
//! weight-space classifiers on lake fingerprints, CKA across lake siblings,
//! index round trips of fingerprint vectors, store persistence of a lake's
//! artifacts.

use model_lakes::attribution::loo::loo_scores;
use model_lakes::attribution::influence::influence_scores;
use model_lakes::attribution::softmax::{SoftmaxConfig, SoftmaxRegression};
use model_lakes::core::hash::sha256;
use model_lakes::core::store::ResidentStore;
use model_lakes::datagen::{generate_lake, tabular, Domain, LakeSpec};
use model_lakes::fingerprint::cka::linear_cka;
use model_lakes::fingerprint::weightspace::{majority_baseline, PropertyClassifier, WeightSpaceConfig};
use model_lakes::fingerprint::{model_dna, Fingerprinter};
use model_lakes::fingerprint::extrinsic::ProbeSet;
use model_lakes::index::{FlatIndex, HnswConfig, HnswIndex, VectorIndex};
use model_lakes::tensor::{stats, Seed};

#[test]
fn attribution_on_lake_domain_data() {
    // Attribution ground truth must hold on the same synthetic domains the
    // lake's models are trained on.
    let data = tabular::sample_tabular(
        &Domain::new("legal"),
        &tabular::TabularSpec {
            dim: 4,
            num_classes: 2,
            separation: 1.5,
            noise: 0.8,
        },
        20,
        Seed::new(1),
        Seed::new(2),
    );
    let cfg = SoftmaxConfig {
        l2: 0.05,
        steps: 250,
        lr: 0.5,
    };
    let model = SoftmaxRegression::train(&data, &cfg).unwrap();
    let test_x: Vec<f32> = data.x.row(0).to_vec();
    let test_y = data.y[0];
    let loo = loo_scores(&data, &test_x, test_y, &cfg).unwrap();
    let inf = influence_scores(&model, &data, &test_x, test_y, 0.01).unwrap();
    let r = stats::pearson(&loo, &inf).unwrap();
    assert!(r > 0.5, "influence-LOO correlation {r}");
}

#[test]
fn weightspace_classifier_on_lake_fingerprints() {
    let gt = generate_lake(&LakeSpec {
        seed: 5,
        num_base_models: 6,
        derivations_per_base: 4,
        ..LakeSpec::tiny(5)
    });
    let features: Vec<Vec<f32>> = gt
        .models
        .iter()
        .map(|m| model_dna(&m.model, 32, 3))
        .collect();
    let labels: Vec<&str> = gt
        .models
        .iter()
        .map(|m| if m.model.as_lm().is_some() { "lm" } else { "classifier" })
        .collect();
    let clf =
        PropertyClassifier::train(&features, &labels, &WeightSpaceConfig::default()).unwrap();
    let acc = clf.accuracy(&features, &labels).unwrap();
    // Family membership is trivially decodable from weights.
    assert!(acc > majority_baseline(&labels), "acc {acc}");
}

#[test]
fn cka_separates_lineage_from_strangers() {
    let gt = generate_lake(&LakeSpec::tiny(21));
    let probes = ProbeSet::standard(8, 24, 2.5, 24, 8, 2, Seed::new(4));
    let fp = Fingerprinter::new(32, 1, probes);
    // Find a weight-preserving MLP edge and an unrelated MLP pair.
    let edge = gt
        .edges
        .iter()
        .find(|e| {
            e.kind.preserves_weights()
                && gt.models[e.parent].model.as_mlp().is_some()
                && gt.models[e.child].model.as_mlp().is_some()
                && gt.models[e.parent].model.architecture()
                    == gt.models[e.child].model.architecture()
        })
        .expect("weight-preserving MLP edge exists");
    let stranger = (0..gt.models.len())
        .find(|&i| {
            gt.models[i].family != gt.models[edge.parent].family
                && gt.models[i].model.as_mlp().is_some()
        })
        .expect("stranger exists");
    let rep_parent = fp.representation(&gt.models[edge.parent].model, 0).unwrap();
    let rep_child = fp.representation(&gt.models[edge.child].model, 0).unwrap();
    let rep_stranger = fp.representation(&gt.models[stranger].model, 0).unwrap();
    let kin = linear_cka(&rep_parent, &rep_child).unwrap();
    let far = linear_cka(&rep_parent, &rep_stranger).unwrap();
    assert!(kin > far, "CKA kin {kin} !> stranger {far}");
}

#[test]
fn fingerprints_round_trip_through_hnsw() {
    let gt = generate_lake(&LakeSpec::tiny(31));
    let probes = ProbeSet::standard(8, 24, 2.5, 24, 8, 2, Seed::new(9));
    let fp = Fingerprinter::new(48, 2, probes);
    let mut hnsw = HnswIndex::new(HnswConfig::default());
    let mut flat = FlatIndex::new();
    let vectors: Vec<Vec<f32>> = gt
        .models
        .iter()
        .map(|m| fp.hybrid(&m.model).unwrap())
        .collect();
    for (i, v) in vectors.iter().enumerate() {
        hnsw.insert(i as u64, v).unwrap();
        flat.insert(i as u64, v).unwrap();
    }
    // On a lake-sized set, HNSW must agree with the exact scan, and the top
    // hit must sit at ~zero distance (self, or a near-duplicate model such
    // as a surgically edited child — ties break by id).
    for (i, v) in vectors.iter().enumerate() {
        let h = hnsw.search(v, 3).unwrap();
        let f = flat.search(v, 3).unwrap();
        assert_eq!(
            h.iter().map(|x| x.id).collect::<Vec<_>>(),
            f.iter().map(|x| x.id).collect::<Vec<_>>(),
            "query {i}"
        );
        assert!(h[0].distance < 1e-4, "query {i}: top distance {}", h[0].distance);
        assert!(
            h.iter().any(|x| x.id == i as u64),
            "query {i}: self missing from top-3 {h:?}"
        );
    }
}

#[test]
fn artifact_store_round_trips_lake_models() {
    let gt = generate_lake(&LakeSpec::tiny(41));
    let store = ResidentStore::new();
    let mut digests = Vec::new();
    for m in &gt.models {
        digests.push(store.put(&m.model.to_bytes().expect("serializes")));
    }
    for (m, d) in gt.models.iter().zip(&digests) {
        let bytes = store.get(d).unwrap();
        let decoded = model_lakes::nn::Model::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.flat_params(), m.model.flat_params());
        // Content addressing is consistent with a fresh hash.
        assert_eq!(*d, sha256(&bytes));
    }
    // Identical models deduplicate.
    let before = store.len();
    store.put(&gt.models[0].model.to_bytes().expect("serializes"));
    assert_eq!(store.len(), before);
}
