//! Hierarchical Navigable Small World graphs (Malkov & Yashunin 2020),
//! implemented from scratch.
//!
//! Layered proximity graph: each node is assigned a top layer from a
//! geometric distribution; greedy descent from the global entry point narrows
//! to layer 0, where a best-first beam of width `ef` collects candidates.
//! Neighbour sets are pruned with the paper's *heuristic* selection (keep a
//! candidate only if it is closer to the query than to any already-kept
//! neighbour), which preserves graph navigability on clustered data.
//!
//! # Insertion computes each distance once
//!
//! An adjacency entry ([`Link`]) stores the neighbour, its distance to the
//! *owning* node (known when the link is made: the beam just computed it, and
//! `dot` is bitwise commutative, so a back-link's distance is the same bits)
//! and the verdict of the owner's last run of the selection heuristic:
//! **kept**, **dominated by kept neighbour `w`**, or **unexamined** (appended
//! since). `select_neighbors` — the only implementation of Algorithm 4 —
//! reads those verdicts instead of re-deriving them. After a run over the
//! distance-sorted list, a *kept* entry was checked against every kept entry
//! before it; an entry *dominated by `w`* has `w` kept and before it; and the
//! entry a full list drops is dominated or the unexamined last, so it was
//! never a witness and influenced no verdict. The next run's list is thus the
//! stored one plus unexamined newcomers, and walking it in order with
//! `new_kept` (kept now, not last time) and `flipped` (kept last time,
//! dominated now) is exact: an *unexamined* entry gets the full check against
//! the current kept set; a *kept* entry already passed every surviving old
//! kept entry before it (the stable merge keeps their relative order), so only
//! `new_kept` can dominate it; a *dominated* entry stays dominated while its
//! witness stays kept (domination is existential, and a kept witness at an
//! equal distance is stored, hence sorted, first) and gets the full check
//! when the witness is in `flipped`. An initial selection passes every
//! candidate as unexamined, which is the from-scratch algorithm (kept under
//! `#[cfg(test)]` as the oracle).
//!
//! Cost per insert and layer: one beam, one stable sort and selection over
//! its output, and at most `cap` incremental re-prunes of a handful of dots
//! each. Once the index's [`Scratch`] has grown, that path allocates only
//! the new node's lists on layers ≥ 1, sized for the back-link that next
//! overfills them, and its row of the layer-0 arena: the beam's heaps, the
//! candidate list and the selection's sets are reused. A back-link to a
//! layer-0 row with room is appended in place. A full row whose entries
//! all carry a verdict, meeting a newcomer that is dominated, is re-pruned
//! in the arena: no verdict changes, so the newcomer only takes its sorted
//! place in the dominated run (`reprune_in_place`, checked against the walk
//! by the selection proptest). Any other full row is copied into the
//! scratch, re-selected and written back. A re-prune merges the stored
//! list's sorted runs (kept, dominated, then each unexamined link appended
//! since) instead of sorting it, and splits kept from dominated in the same
//! walk that judges them. Beam and domination distances are evaluated four
//! at a time by `vector::dot_rows`. Of an insert's time on 2 076 clustered
//! points at d = 64 and 136, about half is the beam, a third the
//! back-links' re-prunes and a sixth the new node's own sort and selection.
//!
//! # Search cost
//!
//! A search is a greedy descent through the few upper-layer nodes, then a
//! layer-0 beam: at `ef` = 64 on a 600-node graph, about 64 expansions and
//! 270 distance evaluations. Each expansion reads the popped node's
//! neighbour ids, checks each against the visited stamps and evaluates the
//! unvisited ones. Layer 0 therefore lives in one flat arena ([`Layer0`]),
//! `2·m` slots per node: the ids the beam reads fill one `u32` array, a row
//! of 128 bytes at `m` = 16, and the distances and verdicts that only a
//! re-selection reads sit in arrays of their own, so they are not pulled
//! into the cache with the ids. Layers ≥ 1 hold a node's links with
//! probability `1/m` per layer and keep per-node lists. A `&self` search
//! reuses its thread's [`Scratch`] (visited stamps, heaps, batch), and the
//! final sort resolves each result's id once and sorts `(distance, id)`.

use crate::{par_search_many, Hit, VectorIndex, DEFAULT_RESCORE_FACTOR};
use mlake_tensor::{vector, Pcg64, TensorError};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Static per-layer visit-counter names (layers ≥ 7 fold into the last
/// entry) so the search hot path never formats a metric name.
const LAYER_VISITS: [&str; 8] = [
    "hnsw.search.visited.l0",
    "hnsw.search.visited.l1",
    "hnsw.search.visited.l2",
    "hnsw.search.visited.l3",
    "hnsw.search.visited.l4",
    "hnsw.search.visited.l5",
    "hnsw.search.visited.l6",
    "hnsw.search.visited.l7",
];

/// Visit/expansion tallies for one beam search, accumulated locally and
/// flushed to the registry once per query.
#[derive(Default)]
struct SearchStats {
    /// Nodes whose distance to the query was evaluated.
    visits: u64,
    /// Frontier pops that survived the termination check (beam expansions).
    expansions: u64,
}

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HnswConfig {
    /// Max neighbours per node on layers ≥ 1 (layer 0 keeps `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Default beam width during search (override per query with
    /// [`HnswIndex::search_ef`]).
    pub ef_search: usize,
    /// Seed for layer assignment.
    pub seed: u64,
    /// Per-shard over-fetch of [`crate::ShardedIndex`]: each shard returns
    /// its top `rescore_factor · k` before the global merge. A single
    /// index ignores it.
    pub rescore_factor: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
        }
    }
}

/// [`Link::state`]: kept by the owner's last selection run.
const KEPT: u32 = u32::MAX;
/// [`Link::state`]: appended since the owner's last selection run. Any other
/// value is the node index of the kept neighbour that dominates the entry.
const UNEXAMINED: u32 = u32::MAX - 1;

/// One adjacency entry (see the module doc).
#[derive(Debug, Clone, Copy)]
struct Link {
    to: u32,
    /// Cosine distance between `to` and the owning node.
    dist: f32,
    state: u32,
}

#[derive(Debug, Clone)]
struct Node {
    id: u64,
    /// Neighbour lists of layers 1 to the node's top layer:
    /// `neighbors[l - 1]` is layer `l`'s. Layer 0 lives in [`Layer0`].
    neighbors: Vec<Vec<Link>>,
}

/// Every node's layer-0 list in flat arrays of `stride` (= `2·m`) slots per
/// node: node `i`'s entries are slots `i·stride ..` of each array, the first
/// `len[i]` of them in use. The ids the beam reads stand apart from the
/// distances and verdicts only a re-selection reads (module doc).
#[derive(Debug, Clone)]
struct Layer0 {
    stride: usize,
    len: Vec<u32>,
    to: Vec<u32>,
    dist: Vec<f32>,
    state: Vec<u32>,
}

impl Layer0 {
    fn new(stride: usize) -> Layer0 {
        Layer0 {
            stride,
            len: Vec::new(),
            to: Vec::new(),
            dist: Vec::new(),
            state: Vec::new(),
        }
    }

    /// Appends an empty row for the next node.
    fn push_node(&mut self) {
        self.len.push(0);
        let slots = self.len.len() * self.stride;
        self.to.resize(slots, 0);
        self.dist.resize(slots, 0.0);
        self.state.resize(slots, 0);
    }

    /// Node `i`'s neighbour ids, in stored order.
    #[inline]
    fn ids(&self, i: u32) -> &[u32] {
        let start = i as usize * self.stride;
        &self.to[start..start + self.len[i as usize] as usize]
    }

    /// Appends node `i`'s row to `out`.
    fn read(&self, i: u32, out: &mut Vec<Link>) {
        let start = i as usize * self.stride;
        let end = start + self.len[i as usize] as usize;
        out.extend((start..end).map(|s| Link {
            to: self.to[s],
            dist: self.dist[s],
            state: self.state[s],
        }));
    }

    /// Replaces node `i`'s row with `links` (at most `stride` of them).
    fn write(&mut self, i: u32, links: &[Link]) {
        debug_assert!(links.len() <= self.stride);
        let start = i as usize * self.stride;
        for (s, link) in (start..).zip(links) {
            self.to[s] = link.to;
            self.dist[s] = link.dist;
            self.state[s] = link.state;
        }
        self.len[i as usize] = links.len() as u32;
    }

    /// Appends `link` to node `i`'s row; `false`, changing nothing, when
    /// the row is full.
    fn push(&mut self, i: u32, link: Link) -> bool {
        let n = self.len[i as usize] as usize;
        if n == self.stride {
            return false;
        }
        let s = i as usize * self.stride + n;
        self.to[s] = link.to;
        self.dist[s] = link.dist;
        self.state[s] = link.state;
        self.len[i as usize] += 1;
        true
    }
}

thread_local! {
    /// The [`Scratch`] of this thread's `&self` searches. A search takes it
    /// and puts it back, so a search nested inside another (a pool worker
    /// running a job while it waits) finds an empty one and grows its own.
    static SEARCH_SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Reusable buffers: the beam's epoch-stamped visited set, its two heaps
/// and the batch it is evaluating; the selection's id sets, its dominated
/// entries and the run it is merging; the new node's candidate links and
/// the full neighbour row being re-selected; a search's normalised query.
/// `insert` reuses the index's own; a `&self` search reuses its thread's
/// ([`SEARCH_SCRATCH`]), which serves any index: the epoch is bumped for
/// every beam, so no stamp left by an earlier search, of this index or
/// another, reads as visited.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `stamp[i] == epoch` ⇔ the current beam has visited node `i`.
    stamp: Vec<u32>,
    epoch: u32,
    batch: Vec<u32>,
    dists: Vec<f32>,
    frontier: BinaryHeap<NearFirst>,
    /// The beam's result set; after a beam, its output in heap order.
    results: BinaryHeap<FarFirst>,
    kept: Vec<u32>,
    new_kept: Vec<u32>,
    flipped: Vec<u32>,
    dominated: Vec<Link>,
    run: Vec<Link>,
    links: Vec<Link>,
    row: Vec<Link>,
    query: Vec<f32>,
}

/// The HNSW index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    config: HnswConfig,
    dim: usize,
    /// Normalised vectors, contiguous.
    data: Vec<f32>,
    nodes: Vec<Node>,
    layer0: Layer0,
    /// The ids in `nodes` (ordered, so `Debug` output is deterministic).
    ids: BTreeSet<u64>,
    entry: Option<u32>,
    max_layer: usize,
    rng: Pcg64,
    /// Inverse of ln(M), the geometric layer parameter.
    level_lambda: f64,
    scratch: Scratch,
}

/// Max-heap entry ordered by distance (for the result set).
#[derive(Debug, Clone, PartialEq)]
struct FarFirst(f32, u32);
impl Eq for FarFirst {}
impl PartialOrd for FarFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Min-heap entry (via reversed ordering) for the candidate frontier.
#[derive(Debug, Clone, PartialEq)]
struct NearFirst(f32, u32);
impl Eq for NearFirst {}
impl PartialOrd for NearFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NearFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// Stable sort of `list` by distance for a list made of a few ascending
/// runs, as a stored list is: its kept run, its dominated run, then each
/// unexamined link appended since. Each run after the first is copied to
/// `run` and merged into the sorted prefix from the back, ties going to
/// the prefix, so the order is exactly the stable sort's.
fn sort_runs(list: &mut [Link], run: &mut Vec<Link>) {
    let ascending = |l: &[Link], i: usize| l[i - 1].dist.total_cmp(&l[i].dist) != Ordering::Greater;
    let mut sorted = 1;
    while sorted < list.len() {
        if ascending(list, sorted) {
            sorted += 1;
            continue;
        }
        let mut end = sorted + 1;
        while end < list.len() && ascending(list, end) {
            end += 1;
        }
        run.clear();
        run.extend_from_slice(&list[sorted..end]);
        let (mut i, mut k) = (sorted, end);
        while let Some(&r) = run.last() {
            k -= 1;
            if i > 0 && list[i - 1].dist.total_cmp(&r.dist) == Ordering::Greater {
                i -= 1;
                list[k] = list[i];
            } else {
                list[k] = r;
                run.pop();
            }
        }
        sorted = end;
    }
}

/// The first of `against` closer to node `c` than `d` — the neighbour that
/// dominates a candidate at distance `d` from the base, if any. `data`
/// holds the index's normalised vectors, `dim` wide.
fn dominator(
    data: &[f32],
    dim: usize,
    c: u32,
    d: f32,
    against: &[u32],
    dots: &mut Vec<f32>,
) -> Option<u32> {
    let base = &data[c as usize * dim..(c as usize + 1) * dim];
    against.chunks(4).find_map(|ks| {
        vector::dot_rows(base, data, ks, dots);
        ks.iter()
            .zip(dots.iter())
            .find(|&(_, &dot)| 1.0 - dot < d)
            .map(|(&k, _)| k)
    })
}

impl HnswIndex {
    /// Creates an empty index.
    pub fn new(config: HnswConfig) -> HnswIndex {
        let m = config.m.max(2);
        HnswIndex {
            config: HnswConfig { m, ..config },
            dim: 0,
            data: Vec::new(),
            nodes: Vec::new(),
            layer0: Layer0::new(2 * m),
            ids: BTreeSet::new(),
            entry: None,
            max_layer: 0,
            rng: Pcg64::with_stream(config.seed, 0x484e_5357),
            level_lambda: 1.0 / (m as f64).ln(),
            scratch: Scratch::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> HnswConfig {
        self.config
    }

    #[cfg(test)]
    fn vec_of(&self, idx: u32) -> &[f32] {
        let d = self.dim;
        &self.data[idx as usize * d..(idx as usize + 1) * d]
    }

    /// Cosine distance of normalised `q` to each of `ids`, in order.
    fn dists(&self, q: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        vector::dot_rows(q, &self.data, ids, out);
        out.iter_mut().for_each(|d| *d = 1.0 - *d);
    }

    fn random_layer(&mut self) -> usize {
        let u = (1.0 - self.rng.next_f64()).max(f64::MIN_POSITIVE);
        ((-u.ln() * self.level_lambda) as usize).min(31)
    }

    /// Greedy best-first search on one layer; leaves up to `ef` closest
    /// nodes in `scratch.results`, whose drain is their *unsorted* heap
    /// order. `q` is the normalised query. The unvisited neighbours of a
    /// popped node are evaluated together and then processed in list order.
    /// When `stats` is provided, tallies visited nodes and beam expansions.
    fn search_layer(
        &self,
        q: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        scratch: &mut Scratch,
        mut stats: Option<&mut SearchStats>,
    ) {
        let Scratch {
            stamp,
            epoch,
            batch,
            dists: ds,
            frontier,
            results,
            ..
        } = scratch;
        if *epoch == u32::MAX {
            stamp.fill(0);
            *epoch = 0;
        }
        *epoch += 1;
        stamp.resize(self.nodes.len(), 0);
        stamp[entry as usize] = *epoch;
        self.dists(q, &[entry], ds);
        let d0 = ds[0];
        if let Some(s) = stats.as_deref_mut() {
            s.visits += 1;
        }
        frontier.clear();
        frontier.push(NearFirst(d0, entry));
        results.clear();
        results.push(FarFirst(d0, entry));
        // The result set's largest distance; changes only when it does.
        let mut worst = d0;

        while let Some(NearFirst(d_cand, cand)) = frontier.pop() {
            if d_cand > worst && results.len() >= ef {
                break;
            }
            batch.clear();
            let mut visit = |to: u32| {
                if stamp[to as usize] != *epoch {
                    stamp[to as usize] = *epoch;
                    batch.push(to);
                }
            };
            if layer == 0 {
                self.layer0.ids(cand).iter().for_each(|&to| visit(to));
            } else {
                let links = &self.nodes[cand as usize].neighbors[layer - 1];
                links.iter().for_each(|l| visit(l.to));
            }
            if let Some(s) = stats.as_deref_mut() {
                s.expansions += 1;
                s.visits += batch.len() as u64;
            }
            self.dists(q, batch, ds);
            for (&nb, &d) in batch.iter().zip(ds.iter()) {
                if results.len() < ef || d < worst {
                    frontier.push(NearFirst(d, nb));
                    results.push(FarFirst(d, nb));
                    if results.len() > ef {
                        results.pop();
                    }
                    worst = results.peek().map_or(f32::INFINITY, |f| f.0);
                }
            }
        }
    }

    /// The neighbour-selection heuristic from the paper (Algorithm 4): scan
    /// candidates nearest-first, keep one only if it is closer to the base
    /// point than to every already-kept neighbour; stop at `m` kept, else
    /// fill up to `m` with the nearest dominated ones (keeps degree up on
    /// dense clusters). Rewrites `list` to that selection with each entry's
    /// verdict, and reuses the verdicts it arrives with (module doc): all
    /// [`UNEXAMINED`] is the algorithm from scratch. Kept entries move up
    /// to the front as they are found and dominated ones wait in
    /// `scratch.dominated`, so the result is kept in distance order, then
    /// the nearest dominated, without a second sort.
    fn select_neighbors(&self, list: &mut Vec<Link>, m: usize, scratch: &mut Scratch) {
        let Scratch {
            kept,
            new_kept,
            flipped,
            dominated,
            run,
            dists: dots,
            ..
        } = scratch;
        kept.clear();
        new_kept.clear();
        flipped.clear();
        dominated.clear();
        sort_runs(list, run);
        for i in 0..list.len() {
            if kept.len() >= m {
                break;
            }
            let link = list[i];
            let Link {
                to: c,
                dist: d,
                state,
            } = link;
            let witness = match state {
                KEPT => dominator(&self.data, self.dim, c, d, new_kept, dots),
                w if w != UNEXAMINED && !flipped.contains(&w) => Some(w),
                _ => dominator(&self.data, self.dim, c, d, kept, dots),
            };
            match witness {
                // `kept.len() <= i`: the slot's own entry was read above.
                None => {
                    list[kept.len()] = Link {
                        state: KEPT,
                        ..link
                    };
                    kept.push(c);
                    if state != KEPT {
                        new_kept.push(c);
                    }
                }
                Some(w) => {
                    if state == KEPT {
                        flipped.push(c);
                    }
                    dominated.push(Link { state: w, ..link });
                }
            }
        }
        list.truncate(kept.len());
        list.extend(dominated.iter().take(m - kept.len()));
    }

    /// [`Self::select_neighbors`] over node `nb`'s full layer-0 row plus
    /// the newcomer `back`, done in the arena, in the case where its
    /// outcome is known without the walk: the row holds no unexamined
    /// entry, and the newcomer is dropped or dominated. The walk over the
    /// merged list would then find no newly kept entry, so every stored
    /// verdict stands; the newcomer's witness is the first kept entry
    /// before it (ties sort the stored entry first) closer to it than
    /// `back.dist`, and it joins the dominated run at its sorted place,
    /// pushing the farthest dominated entry off the full row. Returns
    /// `false`, changing nothing, when the case does not hold.
    fn reprune_in_place(&mut self, nb: u32, back: Link, dots: &mut Vec<f32>) -> bool {
        let Layer0 {
            stride,
            to,
            dist,
            state,
            ..
        } = &mut self.layer0;
        let row = nb as usize * *stride..(nb as usize + 1) * *stride;
        if state[row.clone()].contains(&UNEXAMINED) {
            return false;
        }
        let n_kept = state[row.clone()]
            .iter()
            .take_while(|&&s| s == KEPT)
            .count();
        let not_after = |d: &f32| d.total_cmp(&back.dist) != Ordering::Greater;
        let (kept, dominated) = dist[row.clone()].split_at(n_kept);
        let before = kept.partition_point(not_after);
        let at = row.start + n_kept + dominated.partition_point(not_after);
        // Every entry kept and all before the newcomer: the walk stops at
        // `m` kept without looking at it.
        if n_kept == *stride && before == n_kept {
            return true;
        }
        let kept_before = &to[row.start..row.start + before];
        let Some(w) = dominator(&self.data, self.dim, back.to, back.dist, kept_before, dots) else {
            return false;
        };
        if at < row.end {
            to.copy_within(at..row.end - 1, at + 1);
            dist.copy_within(at..row.end - 1, at + 1);
            state.copy_within(at..row.end - 1, at + 1);
            to[at] = back.to;
            dist[at] = back.dist;
            state[at] = w;
        }
        true
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Search with an explicit beam width (recall/latency knob of E5).
    pub fn search_ef(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Hit>, TensorError> {
        let Some(entry) = self.entry else {
            return Ok(Vec::new());
        };
        if query.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "hnsw_search",
                lhs: (self.dim, 1),
                rhs: (query.len(), 1),
            });
        }
        let _span = mlake_obs::span("hnsw.search");
        let ef = ef.max(k).max(1);
        let mut hits = self.traverse(entry, query, ef);
        // Ids are unique, so (distance, id) is a total order.
        hits.sort_unstable_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        Ok(hits)
    }

    /// Greedy descent from `entry`: on each of `layers` (all ≥ 1) in turn,
    /// hop to the closest neighbour until none improves. Tallies evaluated
    /// nodes per layer into `visits`.
    fn descend(
        &self,
        q: &[f32],
        entry: u32,
        layers: impl Iterator<Item = usize>,
        scratch: &mut Scratch,
        visits: &mut [u64; LAYER_VISITS.len()],
    ) -> u32 {
        let Scratch {
            batch, dists: ds, ..
        } = scratch;
        self.dists(q, &[entry], ds);
        let (mut ep, mut ep_dist) = (entry, ds[0]);
        for layer in layers {
            loop {
                let mut improved = false;
                batch.clear();
                if let Some(links) = self.nodes[ep as usize].neighbors.get(layer - 1) {
                    batch.extend(links.iter().map(|l| l.to));
                }
                visits[layer.min(LAYER_VISITS.len() - 1)] += batch.len() as u64;
                self.dists(q, batch, ds);
                for (&nb, &d) in batch.iter().zip(ds.iter()) {
                    if d < ep_dist {
                        ep = nb;
                        ep_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        ep
    }

    /// Greedy upper-layer descent followed by the layer-0 beam for `query`,
    /// on the thread's [`SEARCH_SCRATCH`]; returns the beam's output unsorted
    /// and flushes visit counters once per call.
    fn traverse(&self, entry: u32, query: &[f32], ef: usize) -> Vec<Hit> {
        let obs = mlake_obs::enabled();
        let mut layer_visits = [0u64; LAYER_VISITS.len()];
        let mut scratch = SEARCH_SCRATCH.take();
        // Normalised in the scratch's buffer, held apart while the beam
        // borrows the rest of the scratch.
        let mut q = std::mem::take(&mut scratch.query);
        q.clear();
        q.extend_from_slice(query);
        vector::normalize(&mut q);
        let ep = self.descend(
            &q,
            entry,
            (1..=self.max_layer).rev(),
            &mut scratch,
            &mut layer_visits,
        );
        let mut stats = SearchStats::default();
        self.search_layer(&q, ep, ef, 0, &mut scratch, obs.then_some(&mut stats));
        let found = scratch
            .results
            .drain()
            .map(|FarFirst(distance, i)| Hit {
                id: self.nodes[i as usize].id,
                distance,
            })
            .collect();
        scratch.query = q;
        SEARCH_SCRATCH.set(scratch);
        if obs {
            layer_visits[0] += stats.visits;
            for (l, &v) in layer_visits.iter().enumerate() {
                if v > 0 {
                    mlake_obs::registry().counter(LAYER_VISITS[l]).add(v);
                }
            }
            mlake_obs::counter!("hnsw.search.expansions").add(stats.expansions);
            mlake_obs::counter!("hnsw.search.queries").inc();
        }
        found
    }
}

impl VectorIndex for HnswIndex {
    fn insert(&mut self, id: u64, vec_in: &[f32]) -> Result<(), TensorError> {
        if vec_in.is_empty() {
            return Err(TensorError::Empty("hnsw insert"));
        }
        if self.dim == 0 {
            self.dim = vec_in.len();
        } else if vec_in.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "hnsw_insert",
                lhs: (self.dim, 1),
                rhs: (vec_in.len(), 1),
            });
        }
        if self.ids.contains(&id) {
            return Err(TensorError::Numerical("duplicate id in index"));
        }
        let mut q = vec_in.to_vec();
        vector::normalize(&mut q);
        let new_idx = self.nodes.len() as u32;
        let layer = self.random_layer();
        self.ids.insert(id);
        self.data.extend_from_slice(&q);
        self.nodes.push(Node {
            id,
            neighbors: vec![Vec::new(); layer],
        });
        self.layer0.push_node();

        let Some(entry) = self.entry else {
            // First node becomes the entry point.
            self.entry = Some(new_idx);
            self.max_layer = layer;
            return Ok(());
        };

        let mut scratch = std::mem::take(&mut self.scratch);
        let mut links = std::mem::take(&mut scratch.links);
        let mut row = std::mem::take(&mut scratch.row);
        // Descend to the new node's top layer.
        let above = ((layer + 1)..=self.max_layer).rev();
        let mut ep = self.descend(&q, entry, above, &mut scratch, &mut [0; LAYER_VISITS.len()]);
        // Connect on each layer from min(layer, max_layer) down to 0.
        for l in (0..=layer.min(self.max_layer)).rev() {
            let cap = self.max_degree(l);
            self.search_layer(&q, ep, self.config.ef_construction, l, &mut scratch, None);
            links.clear();
            let beam = scratch.results.drain();
            links.extend(beam.map(|FarFirst(dist, to)| Link {
                to,
                dist,
                state: UNEXAMINED,
            }));
            // Heap order is not a few runs: one stable sort up front.
            links.sort_by(|a, b| a.dist.total_cmp(&b.dist));
            self.select_neighbors(&mut links, cap, &mut scratch);
            // Keep the closest candidate (always kept, so first) as next
            // layer's entry point.
            if let Some(best) = links.first() {
                ep = best.to;
            }
            // Bidirectional links: the back-link's distance is the link's,
            // and only an over-full list is re-selected.
            for &Link { to: nb, dist, .. } in &links {
                let back = Link {
                    to: new_idx,
                    dist,
                    state: UNEXAMINED,
                };
                if l == 0 {
                    let done = self.layer0.push(nb, back)
                        || self.reprune_in_place(nb, back, &mut scratch.dists);
                    if !done {
                        row.clear();
                        self.layer0.read(nb, &mut row);
                        row.push(back);
                        self.select_neighbors(&mut row, cap, &mut scratch);
                        self.layer0.write(nb, &row);
                    }
                    continue;
                }
                let mut theirs = std::mem::take(&mut self.nodes[nb as usize].neighbors[l - 1]);
                theirs.push(back);
                if theirs.len() > cap {
                    self.select_neighbors(&mut theirs, cap, &mut scratch);
                }
                self.nodes[nb as usize].neighbors[l - 1] = theirs;
            }
            if l == 0 {
                self.layer0.write(new_idx, &links);
            } else {
                // Room for the back-link that next overfills it.
                let mut own = Vec::with_capacity(cap + 1);
                own.extend_from_slice(&links);
                self.nodes[new_idx as usize].neighbors[l - 1] = own;
            }
        }
        scratch.links = links;
        scratch.row = row;
        self.scratch = scratch;
        if layer > self.max_layer {
            self.max_layer = layer;
            self.entry = Some(new_idx);
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError> {
        self.search_ef(query, k, self.config.ef_search)
    }

    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        par_search_many(self, queries, k)
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn name(&self) -> &'static str {
        "hnsw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use proptest::prelude::*;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg64::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.normal()).collect())
            .collect()
    }

    #[test]
    fn single_and_empty() {
        let mut idx = HnswIndex::new(HnswConfig::default());
        assert!(idx.search(&[1.0, 0.0], 3).unwrap().is_empty());
        idx.insert(7, &[1.0, 0.0]).unwrap();
        let hits = idx.search(&[1.0, 0.1], 3).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn exact_on_small_sets() {
        // With ef >= n, HNSW search must equal the flat scan.
        let vecs = random_vectors(50, 8, 3);
        let mut hnsw = HnswIndex::new(HnswConfig {
            ef_search: 64,
            ..Default::default()
        });
        let mut flat = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        let queries = random_vectors(10, 8, 4);
        for q in &queries {
            let h: Vec<u64> = hnsw.search(q, 5).unwrap().iter().map(|x| x.id).collect();
            let f: Vec<u64> = flat.search(q, 5).unwrap().iter().map(|x| x.id).collect();
            assert_eq!(h, f, "query {q:?}");
        }
    }

    #[test]
    fn high_recall_on_larger_set() {
        let vecs = random_vectors(1000, 16, 5);
        let mut hnsw = HnswIndex::new(HnswConfig {
            m: 12,
            ef_construction: 80,
            ef_search: 48,
            seed: 1,
            ..Default::default()
        });
        let mut flat = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        let queries = random_vectors(30, 16, 6);
        let mut recall_acc = 0.0f32;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).unwrap().iter().map(|h| h.id).collect();
            let got = hnsw.search(q, 10).unwrap();
            let inter = got.iter().filter(|h| truth.contains(&h.id)).count();
            recall_acc += inter as f32 / 10.0;
        }
        let recall = recall_acc / queries.len() as f32;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn ef_improves_recall() {
        let vecs = random_vectors(800, 16, 7);
        let mut hnsw = HnswIndex::new(HnswConfig {
            m: 6,
            ef_construction: 40,
            ef_search: 4,
            seed: 2,
            ..Default::default()
        });
        let mut flat = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        let queries = random_vectors(40, 16, 8);
        let recall = |ef: usize| -> f32 {
            let mut acc = 0.0;
            for q in &queries {
                let truth: std::collections::HashSet<u64> =
                    flat.search(q, 10).unwrap().iter().map(|h| h.id).collect();
                let got = hnsw.search_ef(q, 10, ef).unwrap();
                acc += got.iter().filter(|h| truth.contains(&h.id)).count() as f32 / 10.0;
            }
            acc / queries.len() as f32
        };
        let low = recall(10);
        let high = recall(200);
        assert!(high >= low, "ef=200 recall {high} < ef=10 recall {low}");
        assert!(high > 0.95, "recall at high ef {high}");
    }

    #[test]
    fn validation() {
        let mut idx = HnswIndex::new(HnswConfig::default());
        idx.insert(1, &[1.0, 0.0]).unwrap();
        idx.insert(4, &[0.6, 0.8]).unwrap();
        // A rejected duplicate leaves the graph, the id set and the RNG
        // (all in the Debug rendering) untouched.
        let before = format!("{idx:?}");
        assert!(idx.insert(1, &[0.0, 1.0]).is_err());
        assert_eq!(format!("{idx:?}"), before);
        assert!(idx.insert(2, &[1.0]).is_err());
        assert!(idx.insert(3, &[]).is_err());
        assert!(idx.search(&[1.0], 1).is_err());
        assert_eq!(idx.name(), "hnsw");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn search_many_matches_individual_searches() {
        let vecs = random_vectors(400, 8, 24);
        let mut idx = HnswIndex::new(HnswConfig {
            seed: 7,
            ..Default::default()
        });
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v).unwrap();
        }
        let queries = random_vectors(25, 8, 25);
        let batched = idx.search_many(&queries, 5).unwrap();
        for (q, hits) in queries.iter().zip(&batched) {
            let single = idx.search(q, 5).unwrap();
            assert_eq!(&single, hits);
        }
    }

    /// `insert` reuses its buffers and a `&self` search brings its own, so
    /// no state leaks between them: a graph built with searches after every
    /// insert renders (`Debug`, the insert buffers included) the same as
    /// one built without.
    #[test]
    fn searches_between_inserts_leave_the_build_unchanged() {
        let mut vecs = random_vectors(300, 8, 31);
        vecs[150] = vecs[40].clone();
        let mut quiet = HnswIndex::new(HnswConfig {
            seed: 5,
            ..Default::default()
        });
        let mut probed = quiet.clone();
        for (i, v) in vecs.iter().enumerate() {
            quiet.insert(i as u64, v).unwrap();
            probed.insert(i as u64, v).unwrap();
            probed.search(&vecs[i * 7 % vecs.len()], 5).unwrap();
            probed.search_ef(v, 3, 200).unwrap();
        }
        assert_eq!(format!("{quiet:?}"), format!("{probed:?}"));
    }

    /// Algorithm 4 from scratch over (distance, idx) candidates, as
    /// `select_neighbors` was before links remembered anything: the oracle
    /// the incremental walk must equal.
    fn select_from_scratch(idx: &HnswIndex, candidates: &mut [(f32, u32)], m: usize) -> Vec<u32> {
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut kept: Vec<(f32, u32)> = Vec::with_capacity(m);
        for &(d, c) in candidates.iter() {
            if kept.len() >= m {
                break;
            }
            let dominated = kept
                .iter()
                .any(|&(_, k)| 1.0 - vector::dot(idx.vec_of(c), idx.vec_of(k)) < d);
            if !dominated {
                kept.push((d, c));
            }
        }
        for &(d, c) in candidates.iter() {
            if kept.len() >= m {
                break;
            }
            if !kept.iter().any(|&(_, k)| k == c) {
                kept.push((d, c));
            }
        }
        kept.into_iter().map(|(_, c)| c).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One node's neighbour list through a random history — an initial
        /// selection over few or many candidates, then newcomers appended
        /// one at a time and re-selected whenever the list overflows — is,
        /// after every selection, what Algorithm 4 from scratch makes of
        /// the same stored list: same ids, same order. A share of cases
        /// re-uploads earlier points (exact duplicates, of the base too)
        /// and draws coordinates from a five-value grid (distinct points at
        /// exactly equal distances), so ties are exercised. Every
        /// overflow that `reprune_in_place` takes on, given the stored row
        /// in an arena, leaves there exactly the walk's output: the same
        /// ids, distance bits and verdicts.
        #[test]
        fn incremental_selection_equals_from_scratch(seed in any::<u64>()) {
            let mut rng = Pcg64::new(seed);
            let (dim, n, cap) = (2 + rng.index(4), 12 + rng.index(40), 2 + rng.index(7));
            let grid = rng.bernoulli(0.4);
            let reupload = if rng.bernoulli(0.5) { 0.3 } else { 0.0 };
            let mut idx = HnswIndex::new(HnswConfig::default());
            idx.dim = dim;
            for i in 0..n {
                let mut v: Vec<f32> = if i > 0 && rng.bernoulli(reupload) {
                    idx.vec_of(rng.index(i) as u32).to_vec()
                } else if grid {
                    (0..dim).map(|_| rng.index(5) as f32 - 2.0).collect()
                } else {
                    (0..dim).map(|_| rng.normal()).collect()
                };
                if v.iter().all(|&x| x == 0.0) {
                    v[0] = 1.0;
                }
                vector::normalize(&mut v);
                idx.data.extend_from_slice(&v);
            }
            let to_base: Vec<f32> = (0..n as u32)
                .map(|c| 1.0 - vector::dot(idx.vec_of(0), idx.vec_of(c)))
                .collect();
            let dist_to_base = |c: u32| to_base[c as usize];
            let mut arrivals: Vec<u32> = (1..n as u32).collect();
            rng.shuffle(&mut arrivals);
            let first = rng.index(2 * cap + 2).min(arrivals.len());
            let mut scratch = Scratch::default();
            let mut list: Vec<Link> = Vec::new();
            let mut stored: Vec<u32> = Vec::new();
            for (t, &c) in arrivals.iter().enumerate() {
                list.push(Link { to: c, dist: dist_to_base(c), state: UNEXAMINED });
                stored.push(c);
                // The initial selection runs once, over `first` candidates;
                // afterwards only an over-full list is re-selected.
                if t + 1 == first || (t >= first && list.len() > cap) {
                    let in_place = t >= first && {
                        idx.layer0 = Layer0::new(cap);
                        idx.layer0.push_node();
                        idx.layer0.write(0, &list[..cap]);
                        idx.reprune_in_place(0, list[cap], &mut scratch.dists)
                    };
                    idx.select_neighbors(&mut list, cap, &mut scratch);
                    if in_place {
                        let mut row = Vec::new();
                        idx.layer0.read(0, &mut row);
                        let bits = |l: &[Link]| -> Vec<(u32, u32, u32)> {
                            l.iter().map(|x| (x.to, x.dist.to_bits(), x.state)).collect()
                        };
                        prop_assert_eq!(bits(&row), bits(&list), "seed {} arrival {}: in place", seed, t);
                    }
                    let mut cands: Vec<(f32, u32)> = stored.iter().map(|&x| (dist_to_base(x), x)).collect();
                    stored = select_from_scratch(&idx, &mut cands, cap);
                    let got: Vec<u32> = list.iter().map(|l| l.to).collect();
                    prop_assert_eq!(got, stored, "seed {} arrival {} (dim {} n {} cap {})", seed, t, dim, n, cap);
                }
            }
        }
    }

    /// The golden workload at width `dim`: 200 cluster centres × 6 members
    /// (σ = 0.1), arriving round-robin so every cluster keeps growing, with
    /// an exact duplicate of an earlier vector after every 60th arrival
    /// (re-uploaded models: zero distances and tied candidates). Ids are
    /// not the arrival index, so id tie-breaks are visible.
    fn golden_points(dim: usize) -> Vec<(u64, Vec<f32>)> {
        let mut rng = Pcg64::new(0x6f1d + dim as u64);
        let bases = random_vectors(200, dim, 77 + dim as u64);
        let mut points: Vec<Vec<f32>> = Vec::with_capacity(1220);
        for t in 0..1200 {
            let member = bases[t % 200]
                .iter()
                .map(|&x| x + 0.1 * rng.normal())
                .collect();
            points.push(member);
            if t % 60 == 59 {
                points.push(points[points.len() - 31].clone());
            }
        }
        points
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64 * 3 + 1, v))
            .collect()
    }

    /// Renders the graph (entry point, `max_layer`, per node id / top layer /
    /// per layer degree and FNV-1a of the neighbour ids in stored order —
    /// the full lists would make the fixture ten times larger and say no
    /// more) and the bits of 32 top-10 answers, per width and seed.
    fn render_golden() -> String {
        use std::fmt::Write;
        let graph = |idx: &HnswIndex| {
            let mut out = String::new();
            writeln!(out, "entry {:?} max_layer {}", idx.entry, idx.max_layer).unwrap();
            for (i, node) in (0u32..).zip(&idx.nodes) {
                write!(out, "{} {}", node.id, node.neighbors.len()).unwrap();
                let upper = node
                    .neighbors
                    .iter()
                    .map(|links| links.iter().map(|l| l.to).collect());
                for ids in std::iter::once(idx.layer0.ids(i).to_vec()).chain(upper) {
                    let h = ids
                        .iter()
                        .flat_map(|to| to.to_le_bytes())
                        .fold(0x811c_9dc5u32, |h, b| {
                            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
                        });
                    write!(out, " {}:{h:08x}", ids.len()).unwrap();
                }
                out.push('\n');
            }
            out
        };
        let mut out = String::new();
        for dim in [64usize, 72, 136] {
            let points = golden_points(dim);
            // Half the queries are stored vectors (every other one a
            // duplicated vector, so the top two tie), half are fresh.
            let mut queries: Vec<Vec<f32>> = (0..16)
                .map(|i| points[i * 61 + 60 - (i % 2) * 17].1.clone())
                .collect();
            queries.extend(random_vectors(16, dim, 5 + dim as u64));
            for seed in [0u64, 9] {
                let mut idx = HnswIndex::new(HnswConfig {
                    seed,
                    ..Default::default()
                });
                for (id, v) in &points {
                    idx.insert(*id, v).unwrap();
                }
                writeln!(out, "# d={dim} seed={seed} F32 answers").unwrap();
                for (qi, q) in queries.iter().enumerate() {
                    write!(out, "q{qi}").unwrap();
                    for h in idx.search(q, 10).unwrap() {
                        write!(out, " {}:{:08x}", h.id, h.distance.to_bits()).unwrap();
                    }
                    out.push('\n');
                }
                writeln!(out, "# d={dim} seed={seed} graph").unwrap();
                out.push_str(&graph(&idx));
            }
        }
        out
    }

    #[test]
    fn graph_and_answers_match_parent_commit_fixture() {
        let got = render_golden();
        let want = include_str!("../tests/fixtures/hnsw_golden.txt");
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            panic!(
                "HNSW diverged from the golden fixture at line {}:\n  got  {:?}\n  want {:?}",
                first + 1,
                got.lines().nth(first),
                want.lines().nth(first)
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = random_vectors(200, 8, 9);
        let build = || {
            let mut idx = HnswIndex::new(HnswConfig {
                seed: 11,
                ..Default::default()
            });
            for (i, v) in vecs.iter().enumerate() {
                idx.insert(i as u64, v).unwrap();
            }
            idx
        };
        let a = build();
        let b = build();
        let q = &vecs[0];
        assert_eq!(
            a.search(q, 5)
                .unwrap()
                .iter()
                .map(|h| h.id)
                .collect::<Vec<_>>(),
            b.search(q, 5)
                .unwrap()
                .iter()
                .map(|h| h.id)
                .collect::<Vec<_>>()
        );
    }
}
