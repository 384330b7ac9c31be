//! Sharded scatter-gather search: one index partitioned into `N` sub-shards.
//!
//! A [`ShardedIndex`] owns `N` (power of two) inner indexes and routes every
//! vector to exactly one of them off the low bits of a caller-supplied
//! routing key (`shard = key & (N − 1)` — the lake passes the model digest,
//! so placement is content-addressed and stable across re-opens). Search
//! fans out over `mlake_par` — one scatter task per shard, each shard
//! returning its own top `rescore_factor · k` candidates — and the gather
//! half merges the per-shard pools into a global top-`k` with a u64-packed
//! `select_nth_unstable` selection.
//!
//! # Merge invariant
//!
//! The packed key is `(order(distance) << 32) | id`, where `order` is the
//! sign-magnitude bit twiddle that makes unsigned comparison of f32 bits
//! agree with [`f32::total_cmp`]. Keys are unique (the id suffix breaks
//! distance ties), so the merged top-`k` is a total order independent of
//! shard count, arrival order and thread count. For an exact inner index
//! (the flat scan) every shard's top `≥ k` candidates is a superset of the
//! global winners that live in that shard, so the merged result is
//! **bit-identical** to the unsharded index over the same vectors — at any
//! `N` and any `MLAKE_THREADS`. For approximate inner indexes (HNSW) each
//! shard runs the same beam over a smaller graph, so recall is ≥ the
//! single-graph configuration while per-query latency scales with shard
//! size on multi-core hosts.
//!
//! `N = 1` (the default lake configuration) bypasses the scatter entirely
//! and forwards to the single inner index.

use crate::{par_search_many, Hit, VectorIndex, DEFAULT_RESCORE_FACTOR};
use mlake_tensor::TensorError;

/// A vector index partitioned into a power-of-two number of sub-shards
/// searched scatter-gather. See the module docs for the merge invariant.
pub struct ShardedIndex<I> {
    shards: Vec<I>,
    /// `shards.len() - 1`; routing is `key & mask`.
    mask: u64,
    /// Per-shard overfetch multiplier: each shard returns up to
    /// `rescore_factor · k` candidates to the merge.
    rescore_factor: usize,
}

/// Maps f32 bits to a u32 whose unsigned order equals [`f32::total_cmp`]
/// order (sign-magnitude → biased representation).
#[inline]
fn order_of(distance: f32) -> u32 {
    let b = distance.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`order_of`]: recovers the exact f32 bits.
#[inline]
fn distance_of(ord: u32) -> f32 {
    let bits = if ord & 0x8000_0000 != 0 {
        ord ^ 0x8000_0000
    } else {
        !ord
    };
    f32::from_bits(bits)
}

/// Packs a hit into one u64 key: distance order in the high half, id in
/// the low half. Unsigned key order is (distance, id) order and the
/// distance round-trips bit-exactly.
#[inline]
fn pack_hit(h: &Hit) -> u64 {
    ((order_of(h.distance) as u64) << 32) | (h.id & 0xffff_ffff)
}

#[inline]
fn unpack_hit(key: u64) -> Hit {
    Hit {
        id: key & 0xffff_ffff,
        distance: distance_of((key >> 32) as u32),
    }
}

/// Selects the global top-`k` of a merged candidate pool, ascending by
/// `(total_cmp(distance), id)`.
///
/// The hot path packs each candidate into a u64 and selects with
/// `select_nth_unstable` — O(n) selection, no comparator calls. Ids wider
/// than 32 bits cannot pack losslessly; that (lake ids are dense and
/// small, so it never happens there) falls back to comparator-based
/// selection with identical ordering semantics.
fn merge_top_k(mut pool: Vec<Hit>, k: usize) -> Vec<Hit> {
    if k == 0 || pool.is_empty() {
        return Vec::new();
    }
    if pool.iter().all(|h| h.id <= u32::MAX as u64) {
        let mut keys: Vec<u64> = pool.iter().map(pack_hit).collect();
        if keys.len() > k {
            keys.select_nth_unstable(k - 1);
            keys.truncate(k);
        }
        keys.sort_unstable();
        return keys.into_iter().map(unpack_hit).collect();
    }
    let cmp = |a: &Hit, b: &Hit| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id));
    if pool.len() > k {
        pool.select_nth_unstable_by(k - 1, cmp);
        pool.truncate(k);
    }
    pool.sort_unstable_by(cmp);
    pool
}

impl<I: VectorIndex> ShardedIndex<I> {
    /// Creates a sharded index with `shards` sub-shards built by `factory`.
    ///
    /// The shard count is normalized to the next power of two (minimum 1)
    /// so the mask routing is always valid; callers that must reject
    /// non-power-of-two counts (the lake config builder does) validate
    /// before constructing.
    pub fn new(shards: usize, mut factory: impl FnMut() -> I) -> ShardedIndex<I> {
        let n = shards.max(1).next_power_of_two();
        ShardedIndex {
            shards: (0..n).map(|_| factory()).collect(),
            mask: (n - 1) as u64,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
        }
    }

    /// Sets the per-shard overfetch multiplier (clamped to ≥ 1): each
    /// shard answers with `rescore_factor · k` candidates before the merge.
    pub fn with_rescore_factor(mut self, rescore_factor: usize) -> ShardedIndex<I> {
        self.rescore_factor = rescore_factor.max(1);
        self
    }

    /// Number of sub-shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a routing key maps to.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// Read access to one sub-shard (for tests and reporting).
    pub fn shard(&self, s: usize) -> Option<&I> {
        self.shards.get(s)
    }

    /// Inserts a vector into the shard selected by `key` (the lake passes
    /// the low 8 bytes of the model's content digest). Ids must still be
    /// unique across the *whole* sharded index — the merge assumes one hit
    /// per id.
    pub fn insert_by_key(&mut self, key: u64, id: u64, vector: &[f32]) -> Result<(), TensorError> {
        let s = self.route(key);
        self.shards[s].insert(id, vector)
    }

    /// Per-shard candidate fetch for a top-`k` query.
    fn per_shard_k(&self, k: usize) -> usize {
        self.rescore_factor.max(1).saturating_mul(k)
    }
}

impl<I: VectorIndex + Send + Sync> VectorIndex for ShardedIndex<I> {
    /// Trait-path insert routes on the id itself; callers with a better
    /// routing key (content digests) use [`ShardedIndex::insert_by_key`].
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), TensorError> {
        self.insert_by_key(id, id, vector)
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError> {
        if self.shards.len() == 1 {
            // Single shard: forward verbatim — bit-identical to the
            // unsharded index, no scatter overhead.
            return self.shards[0].search(query, k);
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let per_shard = self.per_shard_k(k);
        let results = {
            let _span = mlake_obs::span("shard.search");
            if mlake_obs::enabled() {
                mlake_obs::counter!("shard.fanout").add(self.shards.len() as u64);
            }
            mlake_par::par_scatter(self.shards.len(), |s| {
                self.shards[s].search(query, per_shard)
            })
        };
        let _span = mlake_obs::span("shard.merge");
        let mut pool = Vec::new();
        for r in results {
            pool.extend(r?);
        }
        Ok(merge_top_k(pool, k))
    }

    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        par_search_many(self, queries, k)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    fn vecs(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..n)
            .map(|i| {
                let v = (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                    })
                    .collect();
                (i as u64, v)
            })
            .collect()
    }

    #[test]
    fn order_key_roundtrips_and_orders() {
        let samples = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1e-7,
            -1e-7,
            f32::MAX,
            f32::MIN_POSITIVE,
            2.0,
        ];
        for &a in &samples {
            assert_eq!(distance_of(order_of(a)).to_bits(), a.to_bits());
            for &b in &samples {
                assert_eq!(
                    order_of(a).cmp(&order_of(b)),
                    a.total_cmp(&b),
                    "order mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn shard_count_normalizes_to_power_of_two() {
        assert_eq!(ShardedIndex::new(0, FlatIndex::new).shard_count(), 1);
        assert_eq!(ShardedIndex::new(1, FlatIndex::new).shard_count(), 1);
        assert_eq!(ShardedIndex::new(3, FlatIndex::new).shard_count(), 4);
        assert_eq!(ShardedIndex::new(8, FlatIndex::new).shard_count(), 8);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let idx = ShardedIndex::new(4, FlatIndex::new);
        for key in [0u64, 1, 2, 3, 4, 0xdead_beef, u64::MAX] {
            let s = idx.route(key);
            assert!(s < 4);
            assert_eq!(s, idx.route(key));
            assert_eq!(s, (key % 4) as usize);
        }
    }

    #[test]
    fn sharded_flat_matches_unsharded_bit_for_bit() {
        let data = vecs(150, 16, 7);
        let mut flat = FlatIndex::new();
        for (id, v) in &data {
            flat.insert(*id, v).unwrap();
        }
        let queries: Vec<Vec<f32>> = data.iter().take(10).map(|(_, v)| v.clone()).collect();
        for n in [1usize, 2, 4, 8] {
            let mut sharded = ShardedIndex::new(n, FlatIndex::new);
            for (id, v) in &data {
                sharded.insert(*id, v).unwrap();
            }
            assert_eq!(sharded.len(), flat.len());
            for q in &queries {
                let want = flat.search(q, 12).unwrap();
                let got = sharded.search(q, 12).unwrap();
                assert_eq!(got.len(), want.len(), "shards={n}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.id, w.id, "shards={n}");
                    assert_eq!(
                        g.distance.to_bits(),
                        w.distance.to_bits(),
                        "shards={n}: distance must round-trip the merge exactly"
                    );
                }
            }
        }
    }

    #[test]
    fn errors_propagate_from_shards() {
        let mut idx = ShardedIndex::new(4, FlatIndex::new);
        idx.insert(0, &[1.0, 0.0]).unwrap();
        // Wrong dimension against the shard that holds id 0.
        assert!(idx.insert_by_key(0, 4, &[1.0, 0.0, 0.0]).is_err());
        // Duplicate id within one shard.
        assert!(idx.insert_by_key(0, 0, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn search_many_matches_search() {
        let data = vecs(90, 8, 11);
        let mut idx = ShardedIndex::new(4, FlatIndex::new);
        for (id, v) in &data {
            idx.insert(*id, v).unwrap();
        }
        let queries: Vec<Vec<f32>> = data.iter().take(6).map(|(_, v)| v.clone()).collect();
        let batched = idx.search_many(&queries, 5).unwrap();
        for (q, want) in queries.iter().zip(&batched) {
            assert_eq!(&idx.search(q, 5).unwrap(), want);
        }
    }
}
