//! Exact brute-force index: the recall ground truth and latency baseline.

use crate::{par_search_many, Hit, Precision, VectorIndex, DEFAULT_RESCORE_FACTOR, SQ8_TRAIN_MIN};
use mlake_tensor::{quant, vector, Sq8Codec, TensorError};

/// Multiply-accumulates per parallel scan block: keeps tiny indexes on the
/// inline path and gives big ones cache-sized chunks.
const SCAN_BLOCK_FLOPS: usize = 1 << 18;

/// Contiguous-storage exact-scan index over normalised vectors.
///
/// Vectors are stored back-to-back in one buffer (one allocation, streaming
/// scans) and normalised at insert so a search is a single pass of dot
/// products. Under [`Precision::Sq8Rescore`] a parallel SQ8 code arena
/// shadows the f32 buffer — block scans then stream a quarter of the bytes
/// on integer lanes and the top `rescore_factor · k` candidates are
/// re-ranked exactly (see [`crate::Precision`]).
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>,
    precision: Precision,
    rescore_factor: usize,
    codec: Option<Sq8Codec>,
    codes: Vec<u8>,
}

impl Default for FlatIndex {
    fn default() -> FlatIndex {
        FlatIndex::new()
    }
}

impl FlatIndex {
    /// Creates an empty f32 index; the dimension locks on first insert.
    pub fn new() -> FlatIndex {
        FlatIndex::with_precision(Precision::F32)
    }

    /// Creates an empty index with the given scan precision.
    pub fn with_precision(precision: Precision) -> FlatIndex {
        FlatIndex {
            dim: 0,
            ids: Vec::new(),
            data: Vec::new(),
            precision,
            rescore_factor: DEFAULT_RESCORE_FACTOR,
            codec: None,
            codes: Vec::new(),
        }
    }

    /// Dimensionality (0 before the first insert).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The scan precision this index was created with.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The rescore pool multiplier in effect (`Sq8Rescore` only).
    pub fn rescore_factor(&self) -> usize {
        self.rescore_factor.max(1)
    }

    /// Keeps the SQ8 code arena in lockstep with the f32 buffer: calibrates
    /// the codec once [`SQ8_TRAIN_MIN`] rows exist (backfilling earlier
    /// rows), then encodes every new row. No-op in `F32` mode.
    fn maintain_codes(&mut self) {
        if self.precision != Precision::Sq8Rescore || self.dim == 0 {
            return;
        }
        if self.codec.is_none() {
            if self.ids.len() < SQ8_TRAIN_MIN {
                return;
            }
            // Rows are normalised (finite) and the arena is non-empty, so
            // training cannot fail; if it somehow does, stay on f32 scans.
            match Sq8Codec::train_flat(&self.data, self.dim) {
                Ok(c) => self.codec = Some(c),
                Err(_) => return,
            }
        }
        let Some(codec) = self.codec.take() else { return };
        for row in (self.codes.len() / self.dim)..self.ids.len() {
            let v = &self.data[row * self.dim..(row + 1) * self.dim];
            if codec.encode_into(v, &mut self.codes).is_err() {
                break; // unreachable: row width matches the codec by construction
            }
        }
        self.codec = Some(codec);
    }

    /// The codec, iff SQ8 scanning is configured *and* the code arena fully
    /// covers the stored vectors (below the training threshold it does not,
    /// and searches fall back to the exact f32 scan).
    fn sq8_ready(&self) -> Option<&Sq8Codec> {
        if self.precision != Precision::Sq8Rescore {
            return None;
        }
        let codec = self.codec.as_ref()?;
        (self.codes.len() == self.ids.len() * self.dim).then_some(codec)
    }

    /// SQ8 block scan: rank in code space by raw integer L2 (monotone in
    /// the decoded distance — the shared-step s² factor cannot reorder),
    /// keep the top `rescore_factor · k` per block, merge, then re-rank the
    /// pool with exact f32 dots. `q` must already be normalised.
    ///
    /// Each candidate packs as `raw << 32 | row` in one `u64`, so per-block
    /// top-pool extraction is an O(n) `select_nth_unstable` on plain
    /// integers instead of a full comparator sort — the selection would
    /// otherwise rival the distance kernel for scan time. Raw distances
    /// saturate at `u32::MAX` (unreachable below ~66k dims, where
    /// `dim · 255² < 2³²`), and the row suffix makes every key unique, so
    /// the pool is deterministic across thread counts.
    fn search_sq8(&self, codec: &Sq8Codec, q: &[f32], k: usize) -> Vec<Hit> {
        let dim = self.dim.max(1);
        let Ok(qc) = codec.encode(q) else {
            return Vec::new(); // unreachable: caller validated the dimension
        };
        let pool = self.rescore_factor().saturating_mul(k);
        // Codes are 4× denser than f32, so blocks hold 4× the vectors.
        let block = (SCAN_BLOCK_FLOPS * 4 / dim).max(64);
        let top_pool = |mut cands: Vec<u64>| {
            if cands.len() > pool {
                cands.select_nth_unstable(pool - 1);
                cands.truncate(pool);
            }
            cands.sort_unstable();
            cands
        };
        let top = mlake_par::par_map_reduce(
            self.ids.len(),
            block,
            |range| {
                top_pool(
                    range
                        .map(|i| {
                            let raw =
                                quant::l2_distance_sq_u8(&qc, &self.codes[i * dim..(i + 1) * dim]);
                            raw.min(u64::from(u32::MAX)) << 32 | i as u64
                        })
                        .collect(),
                )
            },
            |mut acc, other| {
                acc.extend(other);
                top_pool(acc)
            },
        )
        .unwrap_or_default();
        let mut hits: Vec<Hit> = top
            .into_iter()
            .map(|packed| {
                let row = (packed & u64::from(u32::MAX)) as usize;
                Hit {
                    id: self.ids[row],
                    distance: 1.0 - vector::dot(q, &self.data[row * dim..(row + 1) * dim]),
                }
            })
            .collect();
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        hits
    }

    fn check_insert(&mut self, id: u64, vector: &[f32]) -> Result<Vec<f32>, TensorError> {
        if vector.is_empty() {
            return Err(TensorError::Empty("index insert"));
        }
        if self.dim == 0 {
            self.dim = vector.len();
        } else if vector.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "index_insert",
                lhs: (self.dim, 1),
                rhs: (vector.len(), 1),
            });
        }
        if self.ids.contains(&id) {
            return Err(TensorError::Numerical("duplicate id in index"));
        }
        let mut v = vector.to_vec();
        vector::normalize(&mut v);
        Ok(v)
    }
}

impl VectorIndex for FlatIndex {
    fn insert(&mut self, id: u64, vec: &[f32]) -> Result<(), TensorError> {
        let v = self.check_insert(id, vec)?;
        self.ids.push(id);
        self.data.extend_from_slice(&v);
        self.maintain_codes();
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError> {
        if self.dim != 0 && query.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "index_search",
                lhs: (self.dim, 1),
                rhs: (query.len(), 1),
            });
        }
        let mut q = query.to_vec();
        vector::normalize(&mut q);
        if let Some(codec) = self.sq8_ready() {
            return Ok(self.search_sq8(codec, &q, k));
        }
        let dim = self.dim.max(1);
        // Parallel block scan: each fixed block yields its sorted top-k;
        // block results merge in block order (deterministic across thread
        // counts — (distance, id) is a strict total order, so the global
        // top-k is unique).
        let block = (SCAN_BLOCK_FLOPS / dim).max(64);
        let top = mlake_par::par_map_reduce(
            self.ids.len(),
            block,
            |range| {
                let mut hits: Vec<Hit> = range
                    .map(|i| Hit {
                        id: self.ids[i],
                        distance: 1.0 - vector::dot(&q, &self.data[i * dim..(i + 1) * dim]),
                    })
                    .collect();
                hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
                hits.truncate(k);
                hits
            },
            |mut acc, other| {
                acc.extend(other);
                acc.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
                acc.truncate(k);
                acc
            },
        );
        Ok(top.unwrap_or_default())
    }

    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        par_search_many(self, queries, k)
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn name(&self) -> &'static str {
        "flat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> FlatIndex {
        let mut idx = FlatIndex::new();
        idx.insert(1, &[1.0, 0.0]).unwrap();
        idx.insert(2, &[0.0, 1.0]).unwrap();
        idx.insert(3, &[0.7, 0.7]).unwrap();
        idx
    }

    #[test]
    fn exact_nearest() {
        let idx = populated();
        let hits = idx.search(&[1.0, 0.1], 2).unwrap();
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3);
        assert!(hits[0].distance < hits[1].distance);
    }

    #[test]
    fn k_larger_than_len() {
        let idx = populated();
        assert_eq!(idx.search(&[1.0, 0.0], 10).unwrap().len(), 3);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn dimension_and_duplicate_checks() {
        let mut idx = populated();
        assert!(idx.insert(4, &[1.0, 2.0, 3.0]).is_err());
        assert!(idx.insert(1, &[0.5, 0.5]).is_err());
        assert!(idx.insert(5, &[]).is_err());
        assert!(idx.search(&[1.0], 1).is_err());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new();
        assert!(idx.search(&[1.0, 0.0], 3).unwrap().is_empty());
        assert!(idx.is_empty());
        assert_eq!(idx.name(), "flat");
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = FlatIndex::new();
        idx.insert(9, &[1.0, 0.0]).unwrap();
        idx.insert(4, &[2.0, 0.0]).unwrap(); // same direction after normalise
        let hits = idx.search(&[1.0, 0.0], 2).unwrap();
        assert_eq!(hits[0].id, 4);
        assert_eq!(hits[1].id, 9);
    }

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = mlake_tensor::Pcg64::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.normal()).collect())
            .collect()
    }

    #[test]
    fn sq8_arena_tracks_inserts() {
        let vecs = random_vectors(SQ8_TRAIN_MIN + 6, 8, 31);
        let mut idx = FlatIndex::with_precision(Precision::Sq8Rescore);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v).unwrap();
            if i + 1 < SQ8_TRAIN_MIN {
                assert!(idx.codec.is_none() && idx.codes.is_empty());
            } else {
                // Trained at the threshold, backfilled, then kept in
                // lockstep with every subsequent insert.
                assert!(idx.codec.is_some());
                assert_eq!(idx.codes.len(), (i + 1) * 8);
            }
        }
        assert!(idx.sq8_ready().is_some());
    }

    #[test]
    fn sq8_below_threshold_is_the_exact_scan() {
        let vecs = random_vectors(SQ8_TRAIN_MIN - 1, 8, 32);
        let mut a = FlatIndex::with_precision(Precision::Sq8Rescore);
        let mut b = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            a.insert(i as u64, v).unwrap();
            b.insert(i as u64, v).unwrap();
        }
        for q in random_vectors(5, 8, 33) {
            assert_eq!(a.search(&q, 7).unwrap(), b.search(&q, 7).unwrap());
        }
    }

    #[test]
    fn sq8_rescore_distances_are_exact_and_recall_high() {
        let vecs = random_vectors(500, 16, 34);
        let mut sq8 = FlatIndex::with_precision(Precision::Sq8Rescore);
        let mut exact = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            sq8.insert(i as u64, v).unwrap();
            exact.insert(i as u64, v).unwrap();
        }
        let queries = random_vectors(20, 16, 35);
        let mut overlap = 0usize;
        for q in &queries {
            let truth = exact.search(q, 10).unwrap();
            let got = sq8.search(q, 10).unwrap();
            assert_eq!(got.len(), 10);
            for h in &got {
                // Rescoring re-ranks with the exact f32 kernel, so every
                // returned distance must equal the f32 index's distance
                // for the same id bit-for-bit.
                let want = truth
                    .iter()
                    .find(|t| t.id == h.id)
                    .map(|t| t.distance)
                    .unwrap_or_else(|| {
                        1.0 - {
                            let mut qn = q.clone();
                            vector::normalize(&mut qn);
                            let d = 16;
                            let row = sq8.ids.iter().position(|&x| x == h.id).unwrap();
                            vector::dot(&qn, &sq8.data[row * d..(row + 1) * d])
                        }
                    });
                assert_eq!(h.distance, want);
            }
            overlap += got.iter().filter(|h| truth.iter().any(|t| t.id == h.id)).count();
        }
        let recall = overlap as f32 / (queries.len() * 10) as f32;
        assert!(recall >= 0.95, "flat sq8 rescored recall {recall}");
        // Deterministic across repeat searches.
        assert_eq!(sq8.search(&queries[0], 10).unwrap(), sq8.search(&queries[0], 10).unwrap());
    }
}
