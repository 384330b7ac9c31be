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
//! Recovery is a set of stages over a [`RecoveryMemo`], and
//! [`RecoveryMemo::extend`] runs each stage only where new models reach:
//!
//! * per **new model**, `features`: one O(n) pass over its parameters for
//!   the layer norms and the zero / distinct fractions and kurtosis the
//!   direction heuristics compare, and — with probes — its forward passes
//!   over the probe set;
//! * per **architecture group that gained a member** (m_g models, all
//!   decoded for the call): the newcomers' rows of the group's symmetric
//!   m_g × m_g distance matrix, then Edmonds (or the known-roots Prim
//!   loop), `classify_transform` per edge and the second-parent scan over
//!   that group alone — a stitch or merge donor shares its child's
//!   architecture, so no other group can hold one;
//! * **globally**, every time: distilled-child attachment, O(orphan roots ×
//!   n) total-variation distances over the kept behaviour vectors, and the
//!   assembly of roots and edges in group order. No model is decoded for it.
//!
//! [`recover_graph`] extends an empty memo by every model, so a from-scratch
//! build does all of the above once (Σ m_g²/2 weight sweeps in the pair
//! pass) and there is no second algorithm.
//!
//! What the memo keeps: per model the features above — a few hundred bytes,
//! most of it the behaviour vector — and per group its members, its matrix
//! (Σ m_g² × 4 B over the lake; ≈ 30 KB at 250 models) and its stage
//! results. It never keeps parameters: the distance rows, the transform
//! classifier and the second-parent scan need the weights of every member
//! of a group that changed, and those are decoded again through the
//! caller's loader — m_g + 1 loads to attach one model — rather than held
//! as a second copy of the lake outside whatever bounds the caller's store.

use crate::arborescence::{minimum_arborescence, DirectedEdge};
use crate::delta::classify_transform;
use crate::graph::{RecoveredEdge, RecoveredGraph};
use mlake_fingerprint::extrinsic::ProbeSet;
use mlake_nn::{Family, Model, TransformKind};
use mlake_tensor::{stats, vector};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

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

/// What the memo keeps of one model: everything recovery compares that is
/// small. The parameters are not among it.
#[derive(Debug, Clone)]
struct Features {
    /// Position of the model's architecture group in `RecoveryMemo::groups`.
    group: usize,
    /// Decides which probes `behavior` answers.
    family: Family,
    /// L2 norm of every MLP weight matrix in layer order; for an LM, the one
    /// norm of its flat parameters.
    norms: Vec<f32>,
    /// Fractions of parameters that are exactly zero / of distinct bit
    /// patterns, and excess kurtosis: what [`direction_penalty`] compares.
    zero: f32,
    distinct: f32,
    kurtosis: f32,
    /// Response over the probe set; `None` without probes or when probing errs.
    behavior: Option<Vec<f32>>,
}

/// A decoded model with its flat parameter vector, held for one
/// [`RecoveryMemo::extend`] call.
struct Loaded<M> {
    model: M,
    params: Vec<f32>,
}

/// How the stages reach their models: each requested index is decoded at
/// most once per call, so a from-scratch build loads the lake once and an
/// attach loads one group.
struct Loader<M, F> {
    load: F,
    loaded: BTreeMap<usize, Loaded<M>>,
}

impl<M: Borrow<Model>, E, F: FnMut(usize) -> Result<M, E>> Loader<M, F> {
    fn fetch(&mut self, i: usize) -> Result<&Loaded<M>, E> {
        use std::collections::btree_map::Entry;
        Ok(match self.loaded.entry(i) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let model = (self.load)(i)?;
                let params = model.borrow().flat_params();
                slot.insert(Loaded { model, params })
            }
        })
    }

    fn fetch_all(&mut self, ids: &[usize]) -> Result<(), E> {
        ids.iter().try_for_each(|&i| self.fetch(i).map(drop))
    }
}

/// One member of an architecture group as the per-group stages see it; they
/// work in local indices (positions in `Group::members`).
#[derive(Clone, Copy)]
struct Member<'a> {
    model: &'a Model,
    params: &'a [f32],
    feats: &'a Features,
}

/// The members of `group`, every one of which the caller has fetched.
fn members_of<'a, M: Borrow<Model>>(
    group: &Group,
    loaded: &'a BTreeMap<usize, Loaded<M>>,
    feats: &'a [Features],
) -> Vec<Member<'a>> {
    let member = |&i: &usize| {
        let decoded = &loaded[&i];
        Member {
            model: decoded.model.borrow(),
            params: &decoded.params,
            feats: &feats[i],
        }
    };
    group.members.iter().map(member).collect()
}

fn features(
    loaded: &Loaded<impl Borrow<Model>>,
    group: usize,
    probes: Option<&ProbeSet>,
) -> Features {
    let (model, params) = (loaded.model.borrow(), &loaded.params);
    let norms = match model.as_mlp() {
        Some(m) => (0..m.num_layers())
            .map(|l| vector::l2_norm(m.weight(l).as_slice()))
            .collect(),
        None => vec![vector::l2_norm(params)],
    };
    let len = params.len().max(1) as f32;
    let zero = params.iter().filter(|&&w| w == 0.0).count() as f32 / len;
    let mut bits: Vec<u32> = params.iter().map(|w| w.to_bits()).collect();
    bits.sort_unstable();
    bits.dedup();
    Features {
        group,
        family: model.family(),
        norms,
        zero,
        distinct: bits.len() as f32 / len,
        kurtosis: stats::kurtosis(params),
        behavior: probes.and_then(|p| p.behavior(model).ok()),
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
fn model_distance(ma: Member, mb: Member) -> f32 {
    let (fa, fb) = (ma.feats, mb.feats);
    let (Some(a), Some(b)) = (ma.model.as_mlp(), mb.model.as_mlp()) else {
        let denom = fa.norms[0].max(fb.norms[0]).max(1e-12);
        return vector::l2_distance(ma.params, mb.params) / denom;
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

/// Grows a group's row-major symmetric matrix of [`model_distance`] from
/// its first `old` members to all of `members`: the old block is copied,
/// every pair with a newer member is evaluated once and fills both
/// triangles.
fn grow_matrix(matrix: &[f32], old: usize, members: &[Member]) -> Vec<f32> {
    let m = members.len();
    let mut d = vec![0.0f32; m * m];
    for (new_row, old_row) in d.chunks_exact_mut(m).zip(matrix.chunks_exact(old.max(1))) {
        new_row[..old].copy_from_slice(old_row);
    }
    for lj in old..m {
        for li in 0..=lj {
            let v = model_distance(members[li], members[lj]);
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

/// Stage 1 of one architecture group: its roots and primary edges (global
/// indices, second parents not yet looked for) from its distance `matrix`.
fn primary_edges(
    ids: &[usize],
    members: &[Member],
    matrix: &[f32],
    opts: &RecoveryOptions,
) -> (Vec<usize>, Vec<RecoveredEdge>) {
    let m = ids.len();
    let (mut roots, mut edges) = (Vec::new(), Vec::new());
    let dist = |a: usize, b: usize| matrix[a * m + b];
    let edge = |parent: usize, child: usize| RecoveredEdge {
        parent: ids[parent],
        child: ids[child],
        kind: classify_transform(members[parent].model, members[child].model),
        second_parent: None,
        distance: dist(parent, child),
    };
    if m == 1 {
        roots.push(ids[0]);
        return (roots, edges);
    }
    match &opts.known_roots {
        Some(known) => {
            // Prim-style forest from known roots (fall back to the group
            // medoid when no known root lives in this group).
            let mut attached: Vec<usize> = (0..m).filter(|&l| known.contains(&ids[l])).collect();
            if attached.is_empty() {
                let spread = |a: usize| (0..m).map(|x| dist(a, x)).sum::<f32>();
                let medoid = (0..m)
                    .min_by(|&a, &b| spread(a).total_cmp(&spread(b)))
                    .unwrap_or(0);
                attached.push(medoid);
            }
            roots.extend(attached.iter().map(|&l| ids[l]));
            let mut unattached: Vec<usize> = (0..m).filter(|l| !attached.contains(l)).collect();
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
                    roots.extend(unattached.iter().map(|&l| ids[l]));
                    break;
                };
                if d > opts.max_weight_distance {
                    // No weight continuity to any tree: `v` starts a new
                    // component (an orphan root — a distilled student or
                    // unrelated upload). Its own descendants can still
                    // attach to it in later rounds.
                    roots.push(ids[v]);
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
                    let weight = d + direction_penalty(members[li].feats, members[lj].feats);
                    dedges.push(DirectedEdge { from: li, to: lj, weight });
                }
            }
            if let Some(parents) = minimum_arborescence(m + 1, &dedges, m) {
                for (li, &p) in parents.iter().enumerate().take(m) {
                    if p == m {
                        roots.push(ids[li]);
                    } else {
                        edges.push(edge(p, li));
                    }
                }
            } else {
                roots.extend(ids.iter().copied());
            }
        }
    }
    (roots, edges)
}

/// Looks for the second parent of edge `e`, both ends of which are in the
/// group `ids` / `members`, among the group's other members in index order,
/// and on a find marks `e` a stitch. The group is the whole candidate set:
/// a donor shares the child's architecture.
fn detect_second_parent(e: &mut RecoveredEdge, ids: &[usize], members: &[Member]) {
    let local = |i: usize| ids.binary_search(&i).ok().map(|l| members[l]);
    let (Some(parent), Some(child)) = (local(e.parent), local(e.child)) else {
        return;
    };
    let mut others = ids
        .iter()
        .zip(members)
        .filter(|(&k, _)| k != e.parent && k != e.child);
    let donor = match (parent.model, child.model) {
        (Model::Mlp(p), Model::Mlp(c)) => {
            // Layers that mismatch the parent but match another model
            // wholesale indicate stitching.
            let differs = |a: &mlake_nn::Mlp, l: usize| {
                vector::l2_distance(a.weight(l).as_slice(), c.weight(l).as_slice()) > 1e-5
            };
            let mismatched: Vec<usize> = (0..p.num_layers()).filter(|&l| differs(p, l)).collect();
            if mismatched.is_empty() || mismatched.len() == p.num_layers() {
                return;
            }
            others.find(|(_, other)| {
                other
                    .model
                    .as_mlp()
                    .is_some_and(|o| !mismatched.iter().any(|&l| differs(o, l)))
            })
        }
        (Model::Lm(_), Model::Lm(_)) => {
            // Merge detection: child ≈ (1-λ)·parent + λ·q.
            let (pp, cc) = (parent.params, child.params);
            let delta: Vec<f32> = cc.iter().zip(pp).map(|(a, b)| a - b).collect();
            if vector::l2_norm(&delta) < 1e-6 {
                return;
            }
            others.find(|(_, other)| {
                let dir: Vec<f32> = other.params.iter().zip(pp).map(|(a, b)| a - b).collect();
                let dn = vector::dot(&dir, &dir);
                if dn < 1e-9 {
                    return false;
                }
                let lambda = vector::dot(&delta, &dir) / dn;
                if !(0.05..=0.95).contains(&lambda) {
                    return false;
                }
                let mut resid = 0.0f64;
                for (&d, &g) in delta.iter().zip(&dir) {
                    let r = d - lambda * g;
                    resid += f64::from(r) * f64::from(r);
                }
                // An LM's one norm is that of its flat parameters.
                (resid.sqrt() as f32) / child.feats.norms[0].max(1e-9) < 0.02
            })
        }
        _ => None,
    };
    if let Some((&donor, _)) = donor {
        e.second_parent = Some(donor);
        e.kind = TransformKind::Stitch;
    }
}

/// Stage 2, global: distilled-child attachment across architectures. Every
/// orphan root (a stage-1 root not known to be one) with a behaviour vector
/// is attached under the behaviourally closest model that is not its own
/// descendant, if that is closer than `distill_threshold`; the new edges
/// are appended to `edges` and their children leave `roots`. Reads kept
/// features only.
fn attach_distilled(
    feats: &[Features],
    probes: &ProbeSet,
    opts: &RecoveryOptions,
    roots: &mut Vec<usize>,
    edges: &mut Vec<RecoveredEdge>,
) {
    let known = opts.known_roots.as_deref().unwrap_or_default();
    let orphan_roots: Vec<usize> = roots
        .iter()
        .copied()
        .filter(|r| !known.contains(r))
        .collect();
    // At most one primary edge per child, so a parent array is the graph.
    let mut parent_of: Vec<Option<usize>> = vec![None; feats.len()];
    for e in edges.iter() {
        parent_of[e.child] = Some(e.parent);
    }
    for r in orphan_roots {
        let Some(br) = &feats[r].behavior else { continue };
        let mut best: Option<(f32, usize)> = None;
        for (cand, f) in feats.iter().enumerate() {
            // Never attach to self or to own descendants (acyclicity).
            if cand == r || is_descendant(&parent_of, r, cand) {
                continue;
            }
            let Some(bc) = &f.behavior else { continue };
            if let Ok(d) = probes.family_distance(f.family, bc, br) {
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

/// What the memo keeps of one architecture group.
#[derive(Debug, Clone, Default)]
struct Group {
    /// Member model indices, ascending.
    members: Vec<usize>,
    /// Row-major `members.len()`² symmetric matrix of [`model_distance`].
    matrix: Vec<f32>,
    /// Stage-1 roots and primary edges in emitted order, the edges with
    /// their second-parent verdict applied.
    roots: Vec<usize>,
    edges: Vec<RecoveredEdge>,
    /// Second-parent verdicts for distilled edges that stayed inside the
    /// group (a student attached under a model of its own architecture), as
    /// the finished edge. Stage 2 is global and may emit such an edge on any
    /// call; its verdict holds until the group gains a member.
    distilled: Vec<RecoveredEdge>,
}

/// Version-graph recovery over a growing model set: the per-model and
/// per-group results recovery can keep, so that extending it by a few
/// models redoes only the groups they join (module docs, "Cost"). The graph
/// [`extend`](Self::extend) returns is, bit for bit, what [`recover_graph`]
/// returns over the same models — that *is* an empty memo extended once.
#[derive(Debug, Clone, Default)]
pub struct RecoveryMemo {
    opts: RecoveryOptions,
    /// Per model, in index order.
    feats: Vec<Features>,
    /// Per architecture group, in order of first appearance (so a model's
    /// `Features::group` stays valid as groups are added).
    groups: Vec<Group>,
    /// Group positions by architecture signature. BTreeMap: roots and edges
    /// are emitted in signature order, which must be deterministic for
    /// recovery to be bit-reproducible.
    by_signature: BTreeMap<String, usize>,
}

impl RecoveryMemo {
    /// An empty memo that will recover under `opts`.
    pub fn new(opts: RecoveryOptions) -> RecoveryMemo {
        RecoveryMemo {
            opts,
            ..RecoveryMemo::default()
        }
    }

    /// The options every graph from this memo is recovered under.
    pub fn options(&self) -> &RecoveryOptions {
        &self.opts
    }

    /// Extends the memo to cover models `0..n` and returns their version
    /// graph. `load(i)` decodes model `i`; it is asked for each model not
    /// yet covered and each member of a group one of them joins, once each.
    /// `probes` enables distilled-child attachment and must be the set every
    /// earlier extension was given. On `Err` (only ever `load`'s) the memo
    /// stays whole — it covers what it covered before or, if the failed load
    /// was a late second-parent scan, all of `0..n` — and the call can be
    /// repeated.
    pub fn extend<M: Borrow<Model>, E>(
        &mut self,
        n: usize,
        probes: Option<&ProbeSet>,
        load: impl FnMut(usize) -> Result<M, E>,
    ) -> Result<RecoveredGraph, E> {
        let first = self.feats.len();
        let mut loader = Loader {
            load,
            loaded: BTreeMap::new(),
        };
        // Every load the per-group stages need, before anything is changed.
        let mut signatures = Vec::new();
        for i in first..n {
            let signature = loader.fetch(i)?.model.borrow().architecture().signature();
            if let Some(&g) = self.by_signature.get(&signature) {
                loader.fetch_all(&self.groups[g].members)?;
            }
            signatures.push(signature);
        }

        // ---- Features and architecture groups of the newcomers -----------
        let mut dirty = BTreeSet::new();
        for (i, signature) in (first..n).zip(signatures) {
            let g = *self.by_signature.entry(signature).or_insert_with(|| {
                self.groups.push(Group::default());
                self.groups.len() - 1
            });
            self.groups[g].members.push(i);
            self.feats.push(features(&loader.loaded[&i], g, probes));
            dirty.insert(g);
        }

        // ---- 1. Primary edges and second parents, per group that grew -----
        for g in dirty {
            let group = &mut self.groups[g];
            let members = members_of(group, &loader.loaded, &self.feats);
            let old = group.members.partition_point(|&i| i < first);
            group.matrix = grow_matrix(&group.matrix, old, &members);
            (group.roots, group.edges) =
                primary_edges(&group.members, &members, &group.matrix, &self.opts);
            if self.opts.detect_second_parents {
                for e in &mut group.edges {
                    detect_second_parent(e, &group.members, &members);
                }
            }
            group.distilled.clear();
        }

        // ---- 2. Assembly and distilled-child attachment, globally ---------
        let (mut roots, mut edges) = (Vec::new(), Vec::new());
        for &g in self.by_signature.values() {
            roots.extend_from_slice(&self.groups[g].roots);
            edges.extend_from_slice(&self.groups[g].edges);
        }
        if let Some(probes) = probes {
            let primary = edges.len();
            attach_distilled(&self.feats, probes, &self.opts, &mut roots, &mut edges);
            if self.opts.detect_second_parents {
                for e in &mut edges[primary..] {
                    let g = self.feats[e.child].group;
                    if self.feats[e.parent].group != g {
                        continue; // a donor would have to match both ends' architecture
                    }
                    let group = &mut self.groups[g];
                    let ends = (e.parent, e.child);
                    let done = group.distilled.iter().find(|d| (d.parent, d.child) == ends);
                    if let Some(done) = done {
                        *e = *done;
                        continue;
                    }
                    loader.fetch_all(&group.members)?;
                    let members = members_of(group, &loader.loaded, &self.feats);
                    detect_second_parent(e, &group.members, &members);
                    group.distilled.push(*e);
                }
            }
        }
        Ok(RecoveredGraph {
            num_models: self.feats.len(),
            edges,
            roots,
        })
    }
}

/// Recovers the version graph of `models`. `probes` enables distilled-child
/// attachment and is optional (intrinsic-only recovery without it).
pub fn recover_graph(
    models: &[Model],
    probes: Option<&ProbeSet>,
    opts: &RecoveryOptions,
) -> RecoveredGraph {
    let load = |i: usize| Ok::<&Model, Infallible>(&models[i]);
    match RecoveryMemo::new(opts.clone()).extend(models.len(), probes, load) {
        Ok(graph) => graph,
        Err(never) => match never {},
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

    /// `grow_matrix` fills both triangles from one evaluation; that is only
    /// sound because the distance is symmetric to the bit.
    #[test]
    fn pair_distance_is_bitwise_symmetric() {
        let (gt, _) = lake_and_probes();
        let loaded: Vec<Loaded<&Model>> = gt
            .models
            .iter()
            .map(|m| Loaded { model: &m.model, params: m.model.flat_params() })
            .collect();
        let feats: Vec<Features> = loaded.iter().map(|l| features(l, 0, None)).collect();
        let member = |i: usize| Member {
            model: loaded[i].model,
            params: &loaded[i].params,
            feats: &feats[i],
        };
        let mut pairs = 0;
        for a in 0..loaded.len() {
            for b in 0..loaded.len() {
                if loaded[a].model.architecture() != loaded[b].model.architecture() {
                    continue;
                }
                let ab = model_distance(member(a), member(b));
                let ba = model_distance(member(b), member(a));
                assert_eq!(ab.to_bits(), ba.to_bits(), "pair ({a}, {b})");
                pairs += 1;
            }
        }
        assert!(pairs > loaded.len(), "no multi-member architecture group");
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
