//! End-to-end version-graph recovery.
//!
//! Two modes:
//! * **known roots** — hubs usually know which models are foundation models;
//!   recovery grows a minimum spanning forest from them (Prim-style) inside
//!   each architecture group;
//! * **blind** — no roots known: a virtual root with uniform edge cost is
//!   added and Chu-Liu/Edmonds picks roots and tree jointly; direction is
//!   biased by irreversibility heuristics (pruning only adds zeros,
//!   quantisation only removes distinct values) plus kurtosis drift.
//!
//! Cross-architecture children (distilled students) carry no weight lineage;
//! they are attached by behavioural proximity when a probe set is supplied —
//! exactly the intrinsic/extrinsic complementarity the paper's §2 motivates.
//!
//! # Cost
//!
//! Every per-model quantity is computed once, in `features`: one O(n)
//! pass flattens the parameters, takes the layer norms, the zero / distinct
//! fractions and kurtosis the direction heuristics compare, and — with
//! probes — runs the model's forward passes over the probe set. Per
//! architecture group of m_g models, `pair_distances` then fills one
//! symmetric m_g × m_g matrix from its upper triangle (Σ m_g²/2 weight
//! sweeps in all); Edmonds, the known-roots Prim loop, the medoid and the
//! emitted `distance` only read it. Attachment and merge detection stay
//! O(orphans × n) and O(edges × n) but over the precomputed vectors.
//!
//! Nothing is kept across calls: a rebuild sees every model anew, so there
//! is no cache to invalidate when a model is ingested, and the pair pass —
//! quadratic inside a group — is the term a cross-rebuild cache would have
//! to attack, at the price of state that must track the registry.

use crate::arborescence::{minimum_arborescence, DirectedEdge};
use crate::delta::classify_transform;
use crate::graph::{RecoveredEdge, RecoveredGraph};
use mlake_fingerprint::extrinsic::ProbeSet;
use mlake_nn::{Model, TransformKind};
use mlake_tensor::{stats, vector};
use std::collections::BTreeMap;

/// Recovery parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOptions {
    /// Indices of known base models; `None` switches to blind mode.
    pub known_roots: Option<Vec<usize>>,
    /// Behavioural-distance ceiling for attaching distilled children.
    pub distill_threshold: f32,
    /// Virtual-root edge cost in blind mode (should exceed typical
    /// parent-child weight distances but stay below unrelated-pair ones).
    pub virtual_root_cost: f32,
    /// Whether to search for stitch/merge second parents.
    pub detect_second_parents: bool,
    /// Weight-distance ceiling for accepting a lineage edge: two models
    /// further apart than this are not weight-continuous (independently
    /// trained, e.g. distilled students), so the child starts a new tree and
    /// is handed to behavioural attachment instead.
    pub max_weight_distance: f32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            known_roots: None,
            // Measured TV distance of distilled students to their teachers
            // sits around 0.05-0.15; unrelated model pairs at 0.3+.
            distill_threshold: 0.25,
            virtual_root_cost: 0.6,
            detect_second_parents: true,
            max_weight_distance: 0.9,
        }
    }
}

/// What recovery needs of one model, computed once per call.
struct Features {
    /// Flat parameter vector.
    params: Vec<f32>,
    /// L2 norm of every MLP weight matrix in layer order; for an LM, the one
    /// norm of `params`.
    norms: Vec<f32>,
    /// Fractions of parameters that are exactly zero / of distinct bit
    /// patterns, and excess kurtosis: what [`direction_penalty`] compares.
    zero: f32,
    distinct: f32,
    kurtosis: f32,
    /// Response over the probe set; `None` without probes or when probing errs.
    behavior: Option<Vec<f32>>,
}

fn features(model: &Model, probes: Option<&ProbeSet>) -> Features {
    let params = model.flat_params();
    let norms = match model.as_mlp() {
        Some(m) => (0..m.num_layers())
            .map(|l| vector::l2_norm(m.weight(l).as_slice()))
            .collect(),
        None => vec![vector::l2_norm(&params)],
    };
    let len = params.len().max(1) as f32;
    let zero = params.iter().filter(|&&w| w == 0.0).count() as f32 / len;
    let mut bits: Vec<u32> = params.iter().map(|w| w.to_bits()).collect();
    bits.sort_unstable();
    bits.dedup();
    Features {
        norms,
        zero,
        distinct: bits.len() as f32 / len,
        kurtosis: stats::kurtosis(&params),
        behavior: probes.and_then(|p| p.behavior(model).ok()),
        params,
    }
}

/// Symmetric weight distance between two models of one architecture group.
/// MLPs get the layer-aware form: the mean of per-layer (capped) relative
/// changes, discounted by the fraction of layers that are *bitwise
/// identical*. Identical layers are near-proof of shared lineage (LoRA,
/// edits and stitches leave most layers untouched), which the flat norm
/// cannot see — a single wholesale-replaced layer would otherwise put a LoRA
/// child as far from its parent as a stranger. LMs get the flat relative
/// distance. Bitwise symmetric: (a−b)² = (b−a)², `max` commutes and layers
/// are summed in a fixed order.
fn model_distance(ma: &Model, mb: &Model, fa: &Features, fb: &Features) -> f32 {
    let (Some(a), Some(b)) = (ma.as_mlp(), mb.as_mlp()) else {
        let denom = fa.norms[0].max(fb.norms[0]).max(1e-12);
        return vector::l2_distance(&fa.params, &fb.params) / denom;
    };
    let layers = a.num_layers();
    let mut acc = 0.0f32;
    let mut identical = 0usize;
    for l in 0..layers {
        let d = vector::l2_distance(a.weight(l).as_slice(), b.weight(l).as_slice())
            / fa.norms[l].max(fb.norms[l]).max(1e-12);
        if d < 1e-7 {
            identical += 1;
        }
        acc += d.min(1.0);
    }
    let mean = acc / layers.max(1) as f32;
    let bonus = 0.5 * identical as f32 / layers.max(1) as f32;
    (mean - bonus).max(0.0)
}

/// Row-major m × m matrix of [`model_distance`] over one architecture
/// group, indexed by position in `members`; filled from the upper triangle.
fn pair_distances(members: &[usize], models: &[Model], feats: &[Features]) -> Vec<f32> {
    let m = members.len();
    let mut d = vec![0.0f32; m * m];
    for (li, &gi) in members.iter().enumerate() {
        for (lj, &gj) in members.iter().enumerate().skip(li) {
            let v = model_distance(&models[gi], &models[gj], &feats[gi], &feats[gj]);
            d[li * m + lj] = v;
            d[lj * m + li] = v;
        }
    }
    d
}

/// Direction penalty for hypothesised edge `u → v` (0 = consistent with
/// being the parent; positive = suspicious). Irreversible-operation
/// heuristics plus kurtosis drift (Horwitz et al.).
fn direction_penalty(u: &Features, v: &Features) -> f32 {
    let mut penalty = 0.0;
    // Pruned children have more zeros than parents; an edge from the sparser
    // node to the denser one runs the operation backwards.
    if u.zero > v.zero + 0.05 {
        penalty += 0.3;
    }
    // Quantised children have fewer distinct values.
    if u.distinct + 0.05 < v.distinct {
        penalty += 0.3;
    }
    // Kurtosis drifts upward along derivation chains (fine-tuning sharpens
    // tails); mildly prefer the lower-kurtosis node as parent.
    if u.kurtosis > v.kurtosis + 0.5 {
        penalty += 0.1;
    }
    penalty
}

/// Recovers the version graph of `models`. `probes` enables distilled-child
/// attachment and is optional (intrinsic-only recovery without it).
pub fn recover_graph(
    models: &[Model],
    probes: Option<&ProbeSet>,
    opts: &RecoveryOptions,
) -> RecoveredGraph {
    let n = models.len();
    let feats: Vec<Features> = models.iter().map(|m| features(m, probes)).collect();
    // ---- 1. Architecture groups -----------------------------------------
    // BTreeMap: group iteration order must be deterministic so recovery is
    // bit-reproducible (roots/edges are appended per group).
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, m) in models.iter().enumerate() {
        groups
            .entry(m.architecture().signature())
            .or_default()
            .push(i);
    }
    let mut edges: Vec<RecoveredEdge> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();

    for members in groups.values() {
        if members.len() == 1 {
            roots.push(members[0]);
            continue;
        }
        // Everything below works in local indices (positions in `members`).
        let m = members.len();
        let matrix = pair_distances(members, models, &feats);
        let dist = |a: usize, b: usize| matrix[a * m + b];
        let edge = |parent: usize, child: usize| RecoveredEdge {
            parent: members[parent],
            child: members[child],
            kind: classify_transform(&models[members[parent]], &models[members[child]]),
            second_parent: None,
            distance: dist(parent, child),
        };
        match &opts.known_roots {
            Some(known) => {
                // Prim-style forest from known roots (fall back to the group
                // medoid when no known root lives in this group).
                let mut attached: Vec<usize> =
                    (0..m).filter(|&l| known.contains(&members[l])).collect();
                if attached.is_empty() {
                    let spread = |a: usize| (0..m).map(|x| dist(a, x)).sum::<f32>();
                    let medoid = (0..m)
                        .min_by(|&a, &b| spread(a).total_cmp(&spread(b)))
                        .unwrap_or(0);
                    attached.push(medoid);
                }
                roots.extend(attached.iter().map(|&l| members[l]));
                let mut unattached: Vec<usize> =
                    (0..m).filter(|l| !attached.contains(l)).collect();
                while !unattached.is_empty() {
                    let mut best: Option<(f32, usize, usize)> = None;
                    for &v in &unattached {
                        for &u in &attached {
                            let d = dist(u, v);
                            if best.is_none_or(|(bd, _, _)| d < bd) {
                                best = Some((d, u, v));
                            }
                        }
                    }
                    let Some((d, u, v)) = best else {
                        // Defensive: an empty frontier can only mean attached
                        // is empty, which the medoid fallback rules out. Treat
                        // every remaining member as its own root rather than
                        // panicking.
                        roots.extend(unattached.iter().map(|&l| members[l]));
                        break;
                    };
                    if d > opts.max_weight_distance {
                        // No weight continuity to any tree: `v` starts a new
                        // component (an orphan root — a distilled student or
                        // unrelated upload). Its own descendants can still
                        // attach to it in later rounds.
                        roots.push(members[v]);
                    } else {
                        edges.push(edge(u, v));
                    }
                    attached.push(v);
                    unattached.retain(|&x| x != v);
                }
            }
            None => {
                // Blind: Edmonds with a virtual root (local index m = group
                // size) over direction-penalised distances.
                let mut dedges = Vec::with_capacity(m * m + m);
                for li in 0..m {
                    dedges.push(DirectedEdge {
                        from: m,
                        to: li,
                        weight: opts.virtual_root_cost,
                    });
                    for lj in 0..m {
                        if li == lj {
                            continue;
                        }
                        let d = dist(li, lj);
                        if d > opts.max_weight_distance {
                            continue; // not weight-continuous: leave to the virtual root
                        }
                        let (u, v) = (&feats[members[li]], &feats[members[lj]]);
                        let weight = d + direction_penalty(u, v);
                        dedges.push(DirectedEdge { from: li, to: lj, weight });
                    }
                }
                if let Some(parents) = minimum_arborescence(m + 1, &dedges, m) {
                    for (li, &p) in parents.iter().enumerate().take(m) {
                        if p == m {
                            roots.push(members[li]);
                        } else {
                            edges.push(edge(p, li));
                        }
                    }
                } else {
                    roots.extend(members.iter().copied());
                }
            }
        }
    }

    // ---- 2. Distilled-child attachment across architectures --------------
    if let Some(probes) = probes {
        let known = opts.known_roots.clone().unwrap_or_default();
        let orphan_roots: Vec<usize> = roots
            .iter()
            .copied()
            .filter(|r| !known.contains(r))
            .collect();
        // At most one primary edge per child, so a parent array is the graph.
        let mut parent_of: Vec<Option<usize>> = vec![None; n];
        for e in &edges {
            parent_of[e.child] = Some(e.parent);
        }
        for r in orphan_roots {
            let Some(br) = &feats[r].behavior else { continue };
            let mut best: Option<(f32, usize)> = None;
            for cand in 0..n {
                // Never attach to self or to own descendants (acyclicity).
                if cand == r || is_descendant(&parent_of, r, cand) {
                    continue;
                }
                let Some(bc) = &feats[cand].behavior else { continue };
                if let Ok(d) = probes.behavior_distance(&models[cand], bc, br) {
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, cand));
                    }
                }
            }
            if let Some((d, parent)) = best {
                if d < opts.distill_threshold {
                    edges.push(RecoveredEdge {
                        parent,
                        child: r,
                        kind: TransformKind::Distill,
                        second_parent: None,
                        distance: d,
                    });
                    parent_of[r] = Some(parent);
                    roots.retain(|&x| x != r);
                }
            }
        }
    }

    // ---- 3. Second-parent detection (stitch / merge) ---------------------
    if opts.detect_second_parents {
        for e in &mut edges {
            match (&models[e.parent], &models[e.child]) {
                (Model::Mlp(p), Model::Mlp(c)) if p.architecture() == c.architecture() => {
                    // Layers that mismatch the parent but match another model
                    // wholesale indicate stitching.
                    let mismatched: Vec<usize> = (0..p.num_layers())
                        .filter(|&l| {
                            vector::l2_distance(p.weight(l).as_slice(), c.weight(l).as_slice())
                                > 1e-5
                        })
                        .collect();
                    if mismatched.is_empty() || mismatched.len() == p.num_layers() {
                        continue;
                    }
                    'candidates: for (k, other) in models.iter().enumerate() {
                        if k == e.parent || k == e.child {
                            continue;
                        }
                        let Some(o) = other.as_mlp() else { continue };
                        if o.architecture() != p.architecture() {
                            continue;
                        }
                        for &l in &mismatched {
                            if vector::l2_distance(
                                o.weight(l).as_slice(),
                                c.weight(l).as_slice(),
                            ) > 1e-5
                            {
                                continue 'candidates;
                            }
                        }
                        e.second_parent = Some(k);
                        e.kind = TransformKind::Stitch;
                        break;
                    }
                }
                (Model::Lm(p), Model::Lm(c))
                    if p.vocab() == c.vocab() && p.order() == c.order() =>
                {
                    // Merge detection: child ≈ (1-λ)·parent + λ·q.
                    let (pp, cc) = (&feats[e.parent].params, &feats[e.child].params);
                    let delta: Vec<f32> = cc.iter().zip(pp).map(|(a, b)| a - b).collect();
                    if vector::l2_norm(&delta) < 1e-6 {
                        continue;
                    }
                    for (k, other) in models.iter().enumerate() {
                        if k == e.parent || k == e.child {
                            continue;
                        }
                        let Some(q) = other.as_lm() else { continue };
                        if q.vocab() != p.vocab() || q.order() != p.order() {
                            continue;
                        }
                        let qq = &feats[k].params;
                        let dir: Vec<f32> = qq.iter().zip(pp).map(|(a, b)| a - b).collect();
                        let dn = vector::dot(&dir, &dir);
                        if dn < 1e-9 {
                            continue;
                        }
                        let lambda = vector::dot(&delta, &dir) / dn;
                        if !(0.05..=0.95).contains(&lambda) {
                            continue;
                        }
                        let mut resid = 0.0f64;
                        for (&d, &g) in delta.iter().zip(&dir) {
                            let r = d - lambda * g;
                            resid += f64::from(r) * f64::from(r);
                        }
                        // An LM's one norm is that of its flat parameters.
                        let rel = (resid.sqrt() as f32) / feats[e.child].norms[0].max(1e-9);
                        if rel < 0.02 {
                            e.second_parent = Some(k);
                            e.kind = TransformKind::Stitch;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    RecoveredGraph {
        num_models: n,
        edges,
        roots,
    }
}

/// Whether `node` descends from `ancestor` along primary edges. The hop cap
/// keeps a malformed (cyclic) parent array from looping.
fn is_descendant(parent_of: &[Option<usize>], ancestor: usize, node: usize) -> bool {
    let mut cur = node;
    for _ in 0..parent_of.len() {
        match parent_of[cur] {
            Some(p) if p == ancestor => return true,
            Some(p) => cur = p,
            None => return false,
        }
    }
    false
}

/// Random-parent baseline: every non-root model gets a uniformly random
/// earlier model as parent with a random kind. The floor for E1.
pub fn random_baseline(
    num_models: usize,
    num_roots: usize,
    seed: u64,
) -> RecoveredGraph {
    let mut rng = mlake_tensor::Pcg64::new(seed);
    let mut edges = Vec::new();
    for child in num_roots..num_models {
        let parent = rng.index(child.max(1));
        let kind = TransformKind::ALL[rng.index(TransformKind::ALL.len())];
        edges.push(RecoveredEdge {
            parent,
            child,
            kind,
            second_parent: None,
            distance: 1.0,
        });
    }
    RecoveredGraph {
        num_models,
        edges,
        roots: (0..num_roots.min(num_models)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{evaluate, TrueEdge};
    use mlake_datagen::lakegen::{generate_lake, LakeSpec};
    use mlake_tensor::Seed;

    fn lake_and_probes() -> (mlake_datagen::GroundTruth, ProbeSet) {
        let gt = generate_lake(&LakeSpec::tiny(77));
        let probes = ProbeSet::standard(
            8,  // tabular dim (matches TabularSpec::default)
            24, 2.5, 24, 16, 2, Seed::new(5),
        );
        (gt, probes)
    }

    fn truth_edges(gt: &mlake_datagen::GroundTruth) -> Vec<TrueEdge> {
        gt.edges
            .iter()
            .map(|e| TrueEdge {
                parent: e.parent,
                child: e.child,
                kind: e.kind,
                second_parent: e.second_parent,
            })
            .collect()
    }

    #[test]
    fn known_roots_recovery_beats_random() {
        let (gt, probes) = lake_and_probes();
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let known: Vec<usize> = (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .collect();
        let graph = recover_graph(
            &models,
            Some(&probes),
            &RecoveryOptions {
                known_roots: Some(known.clone()),
                ..Default::default()
            },
        );
        let truth = truth_edges(&gt);
        let ev = evaluate(&graph, &truth);
        let rand = random_baseline(models.len(), known.len(), 3);
        let ev_rand = evaluate(&rand, &truth);
        assert!(
            ev.edge_f1 > ev_rand.edge_f1 + 0.2,
            "recovered F1 {} vs random {}",
            ev.edge_f1,
            ev_rand.edge_f1
        );
        assert!(ev.edge_f1 > 0.5, "F1 {}", ev.edge_f1);
    }

    #[test]
    fn blind_recovery_is_reasonable() {
        let (gt, probes) = lake_and_probes();
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let graph = recover_graph(&models, Some(&probes), &RecoveryOptions::default());
        let ev = evaluate(&graph, &truth_edges(&gt));
        assert!(ev.edge_recall > 0.3, "recall {}", ev.edge_recall);
    }

    #[test]
    fn recovered_graph_is_acyclic() {
        let (gt, probes) = lake_and_probes();
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let graph = recover_graph(&models, Some(&probes), &RecoveryOptions::default());
        for i in 0..models.len() {
            assert!(graph.depth_of(i) <= models.len(), "cycle at {i}");
        }
        // At most one primary parent per child.
        for i in 0..models.len() {
            let parents = graph.edges.iter().filter(|e| e.child == i).count();
            assert!(parents <= 1, "model {i} has {parents} parents");
        }
    }

    /// `pair_distances` fills both triangles from one evaluation; that is
    /// only sound because the distance is symmetric to the bit.
    #[test]
    fn pair_distance_is_bitwise_symmetric() {
        let (gt, _) = lake_and_probes();
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let feats: Vec<Features> = models.iter().map(|m| features(m, None)).collect();
        let mut pairs = 0;
        for a in 0..models.len() {
            for b in 0..models.len() {
                if models[a].architecture() != models[b].architecture() {
                    continue;
                }
                let ab = model_distance(&models[a], &models[b], &feats[a], &feats[b]);
                let ba = model_distance(&models[b], &models[a], &feats[b], &feats[a]);
                assert_eq!(ab.to_bits(), ba.to_bits(), "pair ({a}, {b})");
                pairs += 1;
            }
        }
        assert!(pairs > models.len(), "no multi-member architecture group");
    }

    #[test]
    fn random_baseline_shape() {
        let g = random_baseline(10, 3, 1);
        assert_eq!(g.edges.len(), 7);
        assert_eq!(g.roots, vec![0, 1, 2]);
        for e in &g.edges {
            assert!(e.parent < e.child);
        }
    }

    #[test]
    fn empty_and_singleton_lakes() {
        let g = recover_graph(&[], None, &RecoveryOptions::default());
        assert!(g.edges.is_empty());
        let (gt, _) = lake_and_probes();
        let one = vec![gt.models[0].model.clone()];
        let g1 = recover_graph(&one, None, &RecoveryOptions::default());
        assert!(g1.edges.is_empty());
        assert_eq!(g1.roots, vec![0]);
    }
}
