//! Exact brute-force index: the recall ground truth and latency baseline.

use crate::{par_search_many, Hit, VectorIndex};
use mlake_tensor::{vector, TensorError};

/// Multiply-accumulates per parallel scan block: keeps tiny indexes on the
/// inline path and gives big ones cache-sized chunks.
const SCAN_BLOCK_FLOPS: usize = 1 << 18;

/// Contiguous-storage exact-scan index over normalised vectors.
///
/// Vectors are stored back-to-back in one buffer (one allocation, streaming
/// scans) and normalised at insert so a search is a single pass of dot
/// products.
#[derive(Debug, Clone, Default)]
pub struct FlatIndex {
    dim: usize,
    ids: Vec<u64>,
    data: Vec<f32>,
}

impl FlatIndex {
    /// Creates an empty index; the dimension locks on first insert.
    pub fn new() -> FlatIndex {
        FlatIndex::default()
    }

    /// Dimensionality (0 before the first insert).
    pub fn dim(&self) -> usize {
        self.dim
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
}
