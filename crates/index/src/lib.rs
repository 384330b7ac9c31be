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
//! [`sharded::ShardedIndex`] composes either into `N` digest-routed
//! sub-shards searched scatter-gather, so search cost scales with shard
//! size and cores rather than lake size; it is also where a build goes
//! parallel — shards build concurrently, each one sequentially.
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

/// Scan/traversal precision of an index.
///
/// Under [`Precision::Sq8Rescore`] the index keeps an SQ8 code arena
/// (`mlake_tensor::quant`) alongside the f32 data: candidate generation —
/// the flat block scan or the HNSW beam — runs on integer kernels over the
/// codes, then the top `rescore_factor · k` candidates are re-ranked with
/// the exact f32 kernels. Returned distances therefore always match the
/// [`Precision::F32`] path's semantics; quantization only costs recall when
/// it pushes a true neighbour out of the rescore pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Full-precision f32 storage and kernels (the default).
    #[default]
    F32,
    /// SQ8 codes drive candidate generation; f32 re-ranks the pool.
    Sq8Rescore,
}

/// Default rescore pool multiplier for [`Precision::Sq8Rescore`].
pub const DEFAULT_RESCORE_FACTOR: usize = 4;

/// Vector count at which SQ8 indexes calibrate their codec. Earlier
/// inserts scan in f32 (the sample is too small to be representative);
/// when the threshold is crossed the whole arena is backfilled.
pub const SQ8_TRAIN_MIN: usize = 64;

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

    /// Inserts a batch of vectors.
    ///
    /// The default — which both leaf indexes take — is the sequential
    /// insert loop, stopping at the first error.
    /// [`sharded::ShardedIndex`] overrides it to build its shards
    /// concurrently, each through this loop.
    fn insert_batch(&mut self, items: &[(u64, Vec<f32>)]) -> Result<(), TensorError> {
        for (id, v) in items {
            self.insert(*id, v)?;
        }
        Ok(())
    }

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
