//! [`ShardedIndex`]: a wrapper over one inner index, kept only because the
//! frozen end-to-end benchmark (`benchmark/src/probes.rs`) still builds its
//! replica of the lake's hybrid index through it. The lake holds one
//! [`crate::HnswIndex`] per fingerprint kind and never shards; nothing in
//! the workspace constructs this type outside its tests
//! (`tests/sharded_determinism.rs` checks its answers are HNSW's).

use crate::{Hit, VectorIndex};
use mlake_tensor::TensorError;

/// One inner index behind the constructor the frozen benchmark calls.
/// Every [`VectorIndex`] method forwards to it, so its answers are the
/// inner index's bit for bit.
pub struct ShardedIndex<I> {
    inner: I,
}

impl<I: VectorIndex> ShardedIndex<I> {
    /// Wraps the one index `factory` builds. `shards` is not read: the
    /// benchmark passes `LakeConfig::shards`, which is always 1.
    pub fn new(_shards: usize, mut factory: impl FnMut() -> I) -> ShardedIndex<I> {
        ShardedIndex { inner: factory() }
    }

    /// Returns `self`: there is no merge to over-fetch for.
    pub fn with_rescore_factor(self, _rescore_factor: usize) -> ShardedIndex<I> {
        self
    }
}

impl<I: VectorIndex> VectorIndex for ShardedIndex<I> {
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), TensorError> {
        self.inner.insert(id, vector)
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError> {
        self.inner.search(query, k)
    }

    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        self.inner.search_many(queries, k)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
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
    fn sharded_flat_matches_unsharded_bit_for_bit() {
        let data = vecs(150, 16, 7);
        let mut flat = FlatIndex::new();
        for (id, v) in &data {
            flat.insert(*id, v).unwrap();
        }
        let queries: Vec<Vec<f32>> = data.iter().take(10).map(|(_, v)| v.clone()).collect();
        for n in [1usize, 2, 4, 8] {
            let mut sharded = ShardedIndex::new(n, FlatIndex::new).with_rescore_factor(4);
            for (id, v) in &data {
                sharded.insert(*id, v).unwrap();
            }
            assert_eq!(sharded.len(), flat.len());
            let bits = |hits: Vec<Hit>| -> Vec<(u64, u32)> {
                hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
            };
            for q in &queries {
                let want = bits(flat.search(q, 12).unwrap());
                assert_eq!(bits(sharded.search(q, 12).unwrap()), want, "shards={n}");
            }
        }
    }

    #[test]
    fn errors_propagate_from_shards() {
        let mut idx = ShardedIndex::new(4, FlatIndex::new);
        idx.insert(0, &[1.0, 0.0]).unwrap();
        // Wrong dimension.
        assert!(idx.insert(4, &[1.0, 0.0, 0.0]).is_err());
        // Duplicate id.
        assert!(idx.insert(0, &[0.5, 0.5]).is_err());
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
