//! The op streams. Every request is a pure function of
//! `(seed, client, iteration)` and of the generated lake, so two runs with
//! one seed send the same requests in the same per-client order.

use crate::stats::SplitMix;
use mlake_cards::ModelCard;
use mlake_core::populate::honest_card;
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use mlake_nn::Model;
use mlake_proto::{ApiRequest, WireRef};

const TAG_COLD: u64 = 1;
const TAG_HOT: u64 = 2;
pub const TAG_STORE: u64 = 3;
pub const TAG_LINEAGE: u64 = 4;

/// Distinct queries / anchors / statements the hot mix cycles through: few
/// enough that every one stays in the lake's 128-entry result caches.
const HOT_TEXT: usize = 16;
const HOT_ANCHORS: usize = 16;
const HOT_STATEMENTS: usize = 8;

/// What the generators need to know about the lake they target.
pub struct LakeView {
    pub names: Vec<String>,
    /// `family[i]` is the family of model `i`.
    pub family: Vec<usize>,
    /// Controlled vocabulary per family (see `mlake_datagen::family_vocab`).
    pub vocab: Vec<Vec<String>>,
    pub domains: Vec<String>,
}

impl LakeView {
    pub fn of(gt: &GroundTruth) -> LakeView {
        let families = gt
            .models
            .iter()
            .map(|m| m.family)
            .max()
            .map_or(0, |f| f + 1);
        let mut domains: Vec<String> = gt
            .models
            .iter()
            .map(|m| m.domain.name().to_string())
            .collect();
        domains.sort();
        domains.dedup();
        LakeView {
            names: gt.models.iter().map(|m| m.name.clone()).collect(),
            family: gt.models.iter().map(|m| m.family).collect(),
            vocab: (0..families).map(|f| gt.family_vocab(f)).collect(),
            domains,
        }
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// A generated request plus, for a family-vocabulary text query, the family
/// whose member must come back at rank 1.
pub struct ServeOp {
    pub request: ApiRequest,
    pub expect_family: Option<usize>,
}

fn kind_of(i: usize) -> FingerprintKind {
    FingerprintKind::ALL[i % FingerprintKind::ALL.len()]
}

/// `serve-search-cold`: no two requests share a cache key, and the anchors
/// range over the whole lake so a capped blob store keeps faulting.
pub fn cold_op(view: &LakeView, seed: u64, client: usize, iter: usize) -> ServeOp {
    let mut rng = SplitMix::for_op(seed, TAG_COLD, client, iter);
    let roll = rng.below(100);
    let anchor = rng.below(view.len());
    let fam = view.family[rng.below(view.len())];
    let word = &view.vocab[fam][rng.below(view.vocab[fam].len())];
    // A token no card contains and no other request repeats: it changes the
    // cache key without changing the ranking.
    let rare = format!("zq{client}x{iter}");
    let (request, expect_family) = if roll < 35 {
        (
            ApiRequest::Similar {
                model: WireRef::Id(anchor as u64),
                kind: kind_of(iter),
                k: 5 + rng.below(8),
            },
            None,
        )
    } else if roll < 60 {
        (
            ApiRequest::TextSearch {
                query: format!("{word} {rare}"),
                k: 10,
            },
            Some(fam),
        )
    } else if roll < 80 {
        (
            ApiRequest::HybridSearch {
                query: format!("{word} {rare}"),
                model: WireRef::Id(anchor as u64),
                kind: kind_of(iter),
                k: 10,
            },
            None,
        )
    } else {
        let domain = &view.domains[rng.below(view.domains.len())];
        let limit = 5 + rng.below(20);
        let mlql = match rng.below(4) {
            0 => format!(
                "FIND MODELS WHERE domain = '{domain}' AND params > {} LIMIT {limit}",
                (client * 31 + iter) % 97
            ),
            1 => format!("FIND MODELS MATCHES '{word} {rare}' LIMIT {limit}"),
            2 => format!(
                "FIND MODELS WHERE name LIKE '{domain}%' AND completeness > 0.{:06} \
                 ORDER BY name ASC LIMIT {limit}",
                (client * 500_000 + iter) % 1_000_000
            ),
            _ => format!(
                "FIND MODELS SIMILAR TO MODEL '{}' USING {} MATCHES '{rare} {word}' LIMIT {limit}",
                view.names[anchor],
                kind_of(iter).name()
            ),
        };
        (ApiRequest::Query { mlql }, None)
    };
    ServeOp {
        request,
        expect_family,
    }
}

/// `serve-catalog-hot`: map lookups and a small set of repeating searches
/// that the result caches hold. `ListModels`, the one large response, is 2 %
/// of the mix, so the 99th percentile sits at that op's median — mid-cluster,
/// not on the edge between two kinds of request.
pub fn hot_op(view: &LakeView, seed: u64, client: usize, iter: usize) -> ServeOp {
    let mut rng = SplitMix::for_op(seed, TAG_HOT, client, iter);
    let roll = rng.below(100);
    // The repeating sets are fixed by the seed alone.
    let mut fixed = SplitMix::for_op(seed, TAG_HOT, usize::MAX, rng.below(HOT_TEXT));
    let (request, expect_family) = if roll < 43 {
        let target = rng.below(view.len());
        let model = if rng.below(2) == 0 {
            WireRef::Id(target as u64)
        } else {
            WireRef::Name(view.names[target].clone())
        };
        (ApiRequest::Resolve { model }, None)
    } else if roll < 63 {
        let fam = view.family[fixed.below(view.len())];
        let word = &view.vocab[fam][0];
        (
            ApiRequest::TextSearch {
                query: word.clone(),
                k: 10,
            },
            Some(fam),
        )
    } else if roll < 83 {
        let slot = rng.below(HOT_ANCHORS);
        let anchor = SplitMix::for_op(seed, TAG_HOT, usize::MAX - 1, slot).below(view.len());
        (
            ApiRequest::Similar {
                model: WireRef::Id(anchor as u64),
                kind: kind_of(slot),
                k: 10,
            },
            None,
        )
    } else if roll < 98 {
        let slot = rng.below(HOT_STATEMENTS);
        let domain = &view.domains[slot % view.domains.len()];
        let mlql = if slot.is_multiple_of(2) {
            format!("FIND MODELS WHERE domain = '{domain}' LIMIT {}", 10 + slot)
        } else {
            format!("FIND MODELS MATCHES '{domain}' LIMIT {}", 10 + slot)
        };
        (ApiRequest::Query { mlql }, None)
    } else {
        (ApiRequest::ListModels, None)
    };
    ServeOp {
        request,
        expect_family,
    }
}

/// The `j`-th model a write workload ingests: model `j mod |pool|` of the
/// write pool under a name of its own. From the second pass over the pool on,
/// a parameter is nudged so the artifact bytes (and so the content digest)
/// differ from every earlier ingest.
pub fn write_model(pool: &GroundTruth, j: usize) -> (String, Model, ModelCard) {
    let i = j % pool.models.len();
    let pass = j / pool.models.len();
    let name = format!("w{j}-{}", pool.models[i].name);
    let mut model = pool.models[i].model.clone();
    if pass > 0 {
        match &mut model {
            Model::Mlp(mlp) => mlp.bias_mut(0)[0] += pass as f32 * 1e-3,
            Model::Lm(lm) => lm
                .add_counts(&vec![0; lm.order() + 1], pass as f64)
                .expect("token 0 is in every vocabulary"),
        }
    }
    let mut card = honest_card(pool, i);
    card.model_name = name.clone();
    (name, model, card)
}

/// A card edit for `update_card`: the model's current honest card with a
/// note that changes on every call, so each update rewrites the text index.
pub fn edited_card(gt: &GroundTruth, i: usize, stamp: usize) -> ModelCard {
    let mut card = honest_card(gt, i);
    card.notes.push_str(&format!(" rev{stamp}"));
    card
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_datagen::{generate_lake, LakeSpec};

    #[test]
    fn op_streams_repeat_for_a_seed_and_differ_across_seeds() {
        let gt = generate_lake(&LakeSpec::tiny(5));
        let view = LakeView::of(&gt);
        let stream = |seed: u64, f: fn(&LakeView, u64, usize, usize) -> ServeOp| -> Vec<Vec<u8>> {
            (0..200)
                .map(|i| mlake_proto::encode_request(&f(&view, seed, i % 2, i).request))
                .collect()
        };
        assert_eq!(stream(11, cold_op), stream(11, cold_op));
        assert_eq!(stream(11, hot_op), stream(11, hot_op));
        assert_ne!(stream(11, cold_op), stream(12, cold_op));
        // Cold requests never repeat; hot requests do.
        let mut cold = stream(11, cold_op);
        cold.sort();
        cold.dedup();
        assert!(
            cold.len() >= 190,
            "cold stream repeated itself: {}",
            cold.len()
        );
        let mut hot = stream(11, hot_op);
        hot.sort();
        hot.dedup();
        assert!(hot.len() < 150, "hot stream does not repeat: {}", hot.len());
    }

    #[test]
    fn write_models_are_distinct_across_passes() {
        let pool = generate_lake(&LakeSpec::tiny(6));
        let n = pool.models.len();
        let (name_a, a, card) = write_model(&pool, 1);
        let (name_b, b, _) = write_model(&pool, 1 + n);
        assert_ne!(name_a, name_b);
        assert_eq!(card.model_name, name_a);
        assert_ne!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
        assert_eq!(
            write_model(&pool, 1).1.to_bytes().unwrap(),
            a.to_bytes().unwrap()
        );
    }
}
