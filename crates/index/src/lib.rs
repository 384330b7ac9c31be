//! # mlake-index
//!
//! Vector indexes over model embeddings — the lake's **indexer** component
//! (§5: "A central component of a model lake is the indexer, which would be
//! used to embed and provide scalable sublinear search over the model
//! embeddings... Indices like HNSW have proven effective in practice").
//!
//! Two implementations behind [`VectorIndex`]:
//! * [`flat::FlatIndex`] — exact scan, the recall ground truth and the
//!   baseline the approximate index must beat on latency;
//! * [`hnsw::HnswIndex`] — Hierarchical Navigable Small World graphs
//!   (Malkov & Yashunin 2020), built from scratch. One build routine:
//!   sequential [`VectorIndex::insert`], so a graph is a pure function of
//!   the insert order.
//!
//! The lake keeps one HNSW graph per fingerprint kind.
//! [`sharded::ShardedIndex`] is a forwarding wrapper over one index, kept
//! only for the frozen end-to-end benchmark that still names it.
//!
//! All indexes use cosine distance over L2-normalised vectors, matching the
//! fingerprint metric.

pub mod eval;
pub mod flat;
pub mod hnsw;
pub mod sharded;

pub use eval::recall_at_k;
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use sharded::ShardedIndex;

use mlake_tensor::TensorError;

/// A search hit: external id plus cosine distance (smaller is closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Caller-supplied identifier.
    pub id: u64,
    /// Cosine distance to the query.
    pub distance: f32,
}

/// Common interface over all index implementations.
pub trait VectorIndex {
    /// Inserts a vector under an external id. Ids must be unique; dimensions
    /// must match the index's first insert.
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), TensorError>;

    /// Returns up to `k` nearest neighbours, ascending by distance.
    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError>;

    /// Batched search: one result list per query, in query order.
    ///
    /// The default is the sequential query loop; implementations override
    /// it to answer queries in parallel on the shared pool. Queries are
    /// independent, so per-query results are identical to [`Self::search`]
    /// regardless of thread count. The first error (in query order) is
    /// returned if any query fails.
    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// `true` when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short implementation name for reports ("hnsw", "flat").
    fn name(&self) -> &'static str;
}

/// Answers `queries` in parallel on the shared pool, one [`VectorIndex::search`]
/// per query, results in query order; the first error (in query order) wins.
///
/// The building block behind the `search_many` overrides of the concrete
/// indexes — exposed so external [`VectorIndex`] implementations can reuse it.
pub fn par_search_many<I: VectorIndex + Sync + ?Sized>(
    index: &I,
    queries: &[Vec<f32>],
    k: usize,
) -> Result<Vec<Vec<Hit>>, TensorError> {
    mlake_par::par_map(queries, |q| index.search(q, k))
        .into_iter()
        .collect()
}
