//! The [`ModelLake`]: the unified system of Figure 2.
//!
//! One object owns storage, registry, fingerprinting, indexing, the event
//! log and the cached version graph, and exposes every model-lake task the
//! paper formalises: ingestion, content-based search, version-graph
//! recovery, benchmarking, document generation, card verification, auditing,
//! citation and declarative MLQL querying.

use crate::blockstore::{self, Block, ModelBlock};
use crate::cache::{CacheKey, CachedQuery, QueryCache};
use crate::error::{LakeError, Result};
use crate::event::{Event, EventKind, EventLog};
use crate::hash::Digest;
use crate::registry::{BenchmarkEntry, ModelEntry, ModelId, ModelRef, Registry};
use crate::store::ResidentStore;
use mlake_benchlab::{Benchmark, Leaderboard, LeaderboardRow, Score};
use mlake_cards::{
    audit::{run_audit, standard_questionnaire, AuditReport},
    Citation, ModelCard, ReportedMetric,
    {verify_card, CardEvidence, VerificationReport},
};
use mlake_fingerprint::{extrinsic::ProbeSet, FingerprintKind, Fingerprinter};
use mlake_index::{HnswConfig, HnswIndex, ShardedIndex, VectorIndex};
use mlake_nn::{Architecture, Model};
use mlake_query::{execute, parse, FieldValue, QueryError, QueryHit, QueryTarget};
use mlake_versioning::{RecoveredEdge, RecoveredGraph, RecoveryMemo, RecoveryOptions};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// When automatic compaction runs (DESIGN.md §13). Attached to a durable
/// lake via [`LakeConfigBuilder::background_compaction`]; after every
/// committed op the lake checks these thresholds and, when either is
/// crossed, that op persists the lake into its own directory and runs GC
/// before it returns. A threshold of 0 disables that trigger; at least one
/// must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CompactionPolicy {
    /// Compact once the WAL's live on-disk footprint reaches this many
    /// bytes (0 = never trigger on size).
    pub wal_bytes: u64,
    /// Compact once this many sealed WAL segments await collection
    /// (0 = never trigger on segment count).
    pub wal_segments: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            wal_bytes: 4 * 1024 * 1024,
            wal_segments: 4,
        }
    }
}

/// Lake configuration. Probe parameters must match the model population
/// (feature dimension, vocabulary) — defaults align with
/// `mlake_datagen::LakeSpec::default()`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LakeConfig {
    /// Lake name (appears in citations).
    pub name: String,
    /// Root seed for probes and sketches.
    pub seed: u64,
    /// Fingerprint sketch width.
    pub sketch_dim: usize,
    /// Classifier probe count / feature dimension / scale.
    pub probes: (usize, usize, f32),
    /// LM probe context count / context length / vocabulary.
    pub lm_probes: (usize, usize, usize),
    /// HNSW parameters for the three fingerprint indexes.
    pub hnsw: HnswConfig,
    /// Capacity of the facade query-result caches (`similar` and MLQL
    /// execution), in entries per cache. Results are keyed by
    /// `(query digest, k, event-log generation)`, so any lake mutation
    /// invalidates by construction. 0 disables caching.
    pub query_cache: usize,
    /// Commit durability of the write-ahead log on durable lakes
    /// ([`ModelLake::create`] / [`ModelLake::open`]); ignored by
    /// ephemeral in-memory lakes. [`mlake_wal::SyncPolicy::Always`]
    /// fsyncs every mutation; [`mlake_wal::SyncPolicy::Batch`] group-
    /// commits every N mutations.
    pub wal_sync: mlake_wal::SyncPolicy,
    /// Number of sub-shards each fingerprint index is partitioned into
    /// (power of two, 1..=256). The default 1 is exactly the unsharded
    /// behavior; with N > 1 vectors route by model digest and searches
    /// scatter-gather over the shards (DESIGN.md §13).
    pub shards: usize,
    /// Automatic compaction trigger policy for durable lakes (`None`
    /// keeps compaction explicit via [`ModelLake::persist`]); the op that
    /// crosses a threshold compacts before it returns. Ignored by
    /// ephemeral in-memory lakes, which have nothing to compact.
    pub compaction: Option<CompactionPolicy>,
    /// Resident-set cap in bytes for the blob store's in-memory cache
    /// (DESIGN.md §15). `0` — the default — is unbounded, the pre-v3
    /// behavior. On a durable lake with a cap, least-recently-used blobs
    /// whose bytes are safely on disk are evicted once the cap is
    /// exceeded and page back in on demand; ephemeral lakes never evict
    /// (memory is their only copy).
    #[serde(default)]
    pub resident_bytes: u64,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig {
            name: "model-lake".into(),
            seed: 0,
            sketch_dim: 64,
            probes: (32, 8, 2.5),
            lm_probes: (16, 2, 24),
            hnsw: HnswConfig::default(),
            query_cache: 128,
            wal_sync: mlake_wal::SyncPolicy::Always,
            shards: 1,
            compaction: None,
            resident_bytes: 0,
        }
    }
}

impl LakeConfig {
    /// Starts a validated builder seeded with the defaults.
    pub fn builder() -> LakeConfigBuilder {
        LakeConfigBuilder {
            config: LakeConfig::default(),
        }
    }

    /// Re-runs the builder's validation on an already-constructed config.
    ///
    /// `LakeConfig` derives `Deserialize` so it can travel over the wire
    /// (`mlake-proto`), which bypasses the builder; deserializers must call
    /// this before using the value so every `LakeConfig` in a running lake
    /// is builder-validated regardless of where it came from.
    pub fn validated(self) -> Result<LakeConfig> {
        LakeConfigBuilder { config: self }.build()
    }
}

/// Builder for [`LakeConfig`]. Field setters accept anything; invalid
/// combinations are rejected with [`LakeError::Config`] at
/// [`LakeConfigBuilder::build`], so a `LakeConfig` obtained through the
/// builder is always usable.
#[derive(Debug, Clone)]
pub struct LakeConfigBuilder {
    config: LakeConfig,
}

impl LakeConfigBuilder {
    /// Lake name (appears in citations).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    /// Root seed for probes and sketches.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Fingerprint sketch width.
    pub fn sketch_dim(mut self, dim: usize) -> Self {
        self.config.sketch_dim = dim;
        self
    }

    /// Classifier probe count / feature dimension / scale.
    pub fn probes(mut self, count: usize, dim: usize, scale: f32) -> Self {
        self.config.probes = (count, dim, scale);
        self
    }

    /// LM probe context count / context length / vocabulary size.
    pub fn lm_probes(mut self, contexts: usize, ctx_len: usize, vocab: usize) -> Self {
        self.config.lm_probes = (contexts, ctx_len, vocab);
        self
    }

    /// HNSW parameters for the three fingerprint indexes.
    pub fn hnsw(mut self, hnsw: HnswConfig) -> Self {
        self.config.hnsw = hnsw;
        self
    }

    /// Query-result cache capacity in entries per cache (0 disables).
    pub fn query_cache(mut self, capacity: usize) -> Self {
        self.config.query_cache = capacity;
        self
    }

    /// WAL commit durability for durable lakes (fsync every mutation vs
    /// count-based group commit).
    pub fn wal_sync(mut self, sync: mlake_wal::SyncPolicy) -> Self {
        self.config.wal_sync = sync;
        self
    }

    /// Number of sub-shards per fingerprint index (power of two,
    /// 1..=256). 1 — the default — is exactly the unsharded path.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Enables automatic compaction under `policy` on durable lakes: the
    /// op that crosses a threshold compacts before it returns (DESIGN.md
    /// §13).
    pub fn background_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.config.compaction = Some(policy);
        self
    }

    /// Caps the blob store's resident set at `bytes` (0 = unbounded).
    /// Cold blobs page back in from disk on first touch (DESIGN.md §15).
    pub fn resident_bytes(mut self, bytes: u64) -> Self {
        self.config.resident_bytes = bytes;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<LakeConfig> {
        let c = &self.config;
        if c.name.trim().is_empty() {
            return Err(LakeError::Config("lake name must not be empty".into()));
        }
        if c.sketch_dim == 0 {
            return Err(LakeError::Config("sketch_dim must be positive".into()));
        }
        let (n_probe, probe_dim, probe_scale) = c.probes;
        if n_probe == 0 || probe_dim == 0 {
            return Err(LakeError::Config(format!(
                "classifier probes need positive count and dimension, got {n_probe}x{probe_dim}"
            )));
        }
        if !probe_scale.is_finite() || probe_scale <= 0.0 {
            return Err(LakeError::Config(format!(
                "probe scale must be finite and positive, got {probe_scale}"
            )));
        }
        let (n_ctx, ctx_len, vocab) = c.lm_probes;
        if n_ctx == 0 || ctx_len == 0 || vocab == 0 {
            return Err(LakeError::Config(format!(
                "LM probes need positive contexts/length/vocab, got {n_ctx}/{ctx_len}/{vocab}"
            )));
        }
        if c.hnsw.m < 2 {
            return Err(LakeError::Config(format!(
                "hnsw.m must be at least 2, got {}",
                c.hnsw.m
            )));
        }
        if c.hnsw.ef_construction == 0 || c.hnsw.ef_search == 0 {
            return Err(LakeError::Config(
                "hnsw ef_construction and ef_search must be positive".into(),
            ));
        }
        if c.shards == 0 || !c.shards.is_power_of_two() || c.shards > 256 {
            return Err(LakeError::Config(format!(
                "shards must be a power of two in 1..=256, got {}",
                c.shards
            )));
        }
        if let Some(p) = &c.compaction {
            if p.wal_bytes == 0 && p.wal_segments == 0 {
                return Err(LakeError::Config(
                    "background compaction needs a positive wal_bytes or \
                     wal_segments threshold"
                        .into(),
                ));
            }
        }
        Ok(self.config)
    }
}

/// Segment bookkeeping for incremental persistence (DESIGN.md §15): the
/// live segment chain plus high-water marks recording how much of the
/// catalogue the chain already covers, so `persist()` writes only the
/// delta. It is what `op_lock` guards: a function that takes a
/// `&mut SegState` runs under the op lock (or inside the single-threaded
/// open, before the lake is shared).
#[derive(Debug, Default)]
pub(crate) struct SegState {
    /// Sequence numbers of the live segments, in fold order.
    pub(crate) live: Vec<u64>,
    /// Next segment sequence number to allocate (`max(live) + 1`;
    /// defaults such that the first persist writes segment 1).
    pub(crate) next_seq: u64,
    /// Models already covered by `live` (registry prefix length).
    pub(crate) models: usize,
    /// Datasets already covered by `live` (registry prefix length).
    pub(crate) datasets: usize,
    /// Benchmark names already covered by `live`.
    pub(crate) benchmarks: std::collections::BTreeSet<String>,
    /// Events already covered by `live` (log prefix length).
    pub(crate) events: usize,
    /// Ids whose card changed after their covering segment was written;
    /// the next delta emits `CardOverride` blocks for them.
    pub(crate) dirty_cards: std::collections::BTreeSet<u64>,
}

impl SegState {
    /// `next_seq` floor: sequence numbers start at 1.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq.max(1)
    }
}

/// The architecture a registry entry records as its signature — what the
/// benchmarking and documentation reads ask instead of decoding the blob.
/// Every entry's `arch` was written by `Architecture::signature`, which
/// `parse_signature` round-trips, so a failure here is a corrupt catalogue.
fn entry_architecture(entry: &ModelEntry) -> Result<Architecture> {
    Architecture::parse_signature(&entry.arch).ok_or_else(|| {
        LakeError::CorruptArtifact(format!(
            "model '{}' has unparseable architecture signature '{}'",
            entry.name, entry.arch
        ))
    })
}

/// How far past `k` each branch of [`ModelLake::hybrid_search`] fetches
/// before reciprocal-rank fusion: deeper pools let RRF reward mid-list
/// agreement between the text and vector rankings.
pub(crate) const HYBRID_POOL_FACTOR: usize = 3;

/// The fielded text document of one model (DESIGN.md §16): every card
/// section plus the identity metadata, each under its own [`TextField`]
/// so BM25 can weight a name hit above a notes hit. Pure function of
/// `(name, arch, card)`, indexed by [`ModelLake::apply_block`] whether the
/// block came from a live op, the segment chain or the WAL — which is what
/// keeps text search bit-identical across restarts.
pub(crate) fn text_document(
    name: &str,
    arch: &str,
    card: &ModelCard,
) -> Vec<(mlake_text::Field, String)> {
    use mlake_text::Field;
    let mut doc = vec![
        (Field::Name, name.to_string()),
        (Field::Arch, arch.to_string()),
        (Field::Tags, card.task_tags.join(" ")),
        (Field::Domains, card.domains.join(" ")),
        (Field::Notes, card.notes.clone()),
    ];
    if let Some(alg) = &card.training_algorithm {
        doc.push((Field::Algorithm, alg.clone()));
    }
    let lineage: Vec<&str> = [
        card.lineage.base_model.as_deref(),
        card.lineage.transform.as_deref(),
        card.lineage.second_parent.as_deref(),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !lineage.is_empty() {
        doc.push((Field::Lineage, lineage.join(" ")));
    }
    if !card.training_data.is_empty() {
        let names: Vec<&str> = card
            .training_data
            .iter()
            .map(|t| t.dataset_name.as_str())
            .collect();
        doc.push((Field::Datasets, names.join(" ")));
    }
    if !card.metrics.is_empty() {
        let names: Vec<&str> = card.metrics.iter().map(|m| m.benchmark.as_str()).collect();
        doc.push((Field::Benchmarks, names.join(" ")));
    }
    doc
}

/// A version graph as the lake publishes it: what recovery returned, plus
/// what the reads on it would otherwise work out per call.
struct PublishedGraph {
    graph: RecoveredGraph,
    /// Per model, the position in `graph.edges` of the edge it is the child
    /// of (at most one): a lineage walk is one lookup per ancestor.
    edge_of: Vec<Option<usize>>,
    /// Sequence number of the `GraphRebuilt` event appended when this graph
    /// was published — the timestamp a citation of a path on it carries.
    timestamp: u64,
}

impl PublishedGraph {
    fn new(graph: RecoveredGraph, timestamp: u64) -> PublishedGraph {
        let mut edge_of = vec![None; graph.num_models];
        for (at, e) in graph.edges.iter().enumerate() {
            edge_of[e.child] = Some(at);
        }
        PublishedGraph { graph, edge_of, timestamp }
    }

    /// The edge `model` is the child of, if it has a recovered parent.
    fn parent_edge(&self, model: usize) -> Option<&RecoveredEdge> {
        let at = (*self.edge_of.get(model)?)?;
        Some(&self.graph.edges[at])
    }

    /// The ancestors of `model`, nearest first. Capped at `num_models` hops,
    /// so a malformed (cyclic) graph cannot loop.
    fn ancestors(&self, model: usize) -> impl Iterator<Item = usize> + '_ {
        let parent = |i: usize| self.parent_edge(i).map(|e| e.parent);
        std::iter::successors(parent(model), move |&p| parent(p)).take(self.graph.num_models)
    }
}

/// The version graph as a projection of the registry, caught up on demand
/// like the fingerprint indexes.
#[derive(Default)]
struct GraphState {
    /// Recovery over a prefix of the registry. An ingest leaves it behind;
    /// [`ModelLake::current_graph`] extends it by the suffix it lacks.
    memo: RecoveryMemo,
    /// The graph of the last catch-up, `None` once a `Model` block made it
    /// stale. Shared out as an `Arc` so a task read borrows it instead of
    /// copying every edge.
    published: Option<Arc<PublishedGraph>>,
}

/// The model lake.
pub struct ModelLake {
    pub(crate) config: LakeConfig,
    pub(crate) store: ResidentStore,
    pub(crate) registry: RwLock<Registry>,
    pub(crate) events: RwLock<EventLog>,
    /// Durability link (`None` for ephemeral in-memory lakes): the WAL
    /// every mutating facade op appends to before touching state above.
    /// See `crate::durable` and DESIGN.md §12.
    pub(crate) wal: Option<crate::durable::WalLink>,
    /// Full-text inverted index over card sections and model metadata
    /// (DESIGN.md §16). Derived state, rebuilt from the cards on open.
    /// Rank **27 (core.text)**: leaf — never held across another ranked
    /// acquisition.
    pub(crate) text: RwLock<mlake_text::TextIndex>,
    /// Serializes mutating facade ops so WAL append order always equals
    /// in-memory apply order (replay must reproduce state exactly), and
    /// guards the incremental-persist marks (DESIGN.md §15): the guard is
    /// the `&mut SegState` every locked writer takes. Read paths never
    /// take it.
    pub(crate) op_lock: parking_lot::Mutex<SegState>,
    fingerprinter: Fingerprinter,
    /// One HNSW index per fingerprint kind, in [`FingerprintKind::ALL`]
    /// order: a projection of the registry's `ModelEntry::fps`, caught up
    /// to the registry by [`ModelLake::ensure_indexes`] before a search
    /// reads it. Its own `len()` is the watermark; nothing else writes it.
    indexes: RwLock<[ShardedIndex<HnswIndex>; 3]>,
    /// The recovered version graph and the recovery memo behind it.
    graph: RwLock<GraphState>,
    score_cache: RwLock<HashMap<(u64, String), Score>>,
    /// `similar()` results keyed by (query digest, k, event generation).
    similar_cache: QueryCache<Vec<(ModelId, f32)>>,
    /// MLQL execution results keyed the same way (k = 0).
    mlql_cache: QueryCache<Vec<QueryHit>>,
    /// `text_search` / `hybrid_search` results keyed the same way.
    text_cache: QueryCache<Vec<(ModelId, f32)>>,
}

impl ModelLake {
    /// Creates an empty lake.
    // lint: no-span — constructor; observability may not be enabled yet
    pub fn new(config: LakeConfig) -> ModelLake {
        let (n_probe, probe_dim, probe_scale) = config.probes;
        let (n_ctx, ctx_len, vocab) = config.lm_probes;
        let probes = ProbeSet::standard(
            probe_dim,
            n_probe,
            probe_scale,
            vocab,
            n_ctx,
            ctx_len,
            mlake_tensor::Seed::new(config.seed).derive("lake-probes"),
        );
        let fingerprinter = Fingerprinter::new(config.sketch_dim, config.seed, probes);
        let indexes = FingerprintKind::ALL.map(|_| {
            ShardedIndex::new(config.shards, || HnswIndex::new(config.hnsw))
                .with_rescore_factor(config.hnsw.rescore_factor)
        });
        let config_cache = config.query_cache;
        let resident_cap = config.resident_bytes;
        ModelLake {
            config,
            store: ResidentStore::with_cap(resident_cap),
            registry: RwLock::new(Registry::default()),
            events: RwLock::new(EventLog::new()),
            text: RwLock::new(mlake_text::TextIndex::new(mlake_text::Bm25Params::default())),
            wal: None,
            op_lock: parking_lot::Mutex::new(SegState::default()),
            fingerprinter,
            indexes: RwLock::new(indexes),
            graph: RwLock::new(GraphState::default()),
            score_cache: RwLock::new(HashMap::new()),
            similar_cache: QueryCache::new(config_cache),
            mlql_cache: QueryCache::new(config_cache),
            text_cache: QueryCache::new(config_cache),
        }
    }

    /// Whether mutations are backed by a write-ahead log on disk.
    // lint: no-span — trivial accessor
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The lake's configuration.
    // lint: no-span — trivial accessor
    pub fn config(&self) -> &LakeConfig {
        &self.config
    }

    /// The shared probe set / fingerprinter.
    // lint: no-span — trivial accessor
    pub fn fingerprinter(&self) -> &Fingerprinter {
        &self.fingerprinter
    }

    /// Number of models in the lake.
    // lint: no-span — trivial accessor
    pub fn len(&self) -> usize {
        self.registry.read().models.len()
    }

    /// `true` when no models are stored.
    // lint: no-span — trivial accessor
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of blob payload currently resident in memory (the live value
    /// behind the `store.resident.bytes` gauge). On a lazily opened lake
    /// this starts at zero and grows as artifacts are touched.
    // lint: no-span — trivial accessor
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    // ------------------------------------------------------------------
    // Ingestion & catalogue
    // ------------------------------------------------------------------

    /// Ingests a model: stores the artifact content-addressed, computes all
    /// three fingerprints, installs the supplied card (or a skeleton), and
    /// logs the events. Names must be unique. On a durable lake the
    /// artifact blob and the op's WAL record hit disk before any in-memory
    /// state changes.
    pub fn ingest_model(
        &self,
        name: &str,
        model: &Model,
        card: Option<ModelCard>,
    ) -> Result<ModelId> {
        let _span = mlake_obs::span("lake.ingest");
        let mut seg = self.op_lock.lock();
        let id = {
            let reg = self.registry.read();
            if reg.by_name.contains_key(name) {
                return Err(LakeError::Duplicate {
                    kind: "model",
                    name: name.into(),
                });
            }
            ModelId(reg.models.len() as u64)
        };
        if !model.is_finite() {
            return Err(LakeError::CorruptArtifact(format!(
                "model '{name}' contains non-finite parameters"
            )));
        }
        let bytes = model.to_bytes()?;
        let digest = self.store.put(&bytes);
        let card =
            card.unwrap_or_else(|| ModelCard::skeleton(name, model.architecture().signature()));
        // Everything fallible runs before the WAL append so a logged op
        // is one that replay can always re-apply.
        let block = self.model_block(name, &digest, model, card)?;
        self.write_blob(&digest, &bytes)?;
        self.commit(
            &mut seg,
            vec![block],
            &[
                (EventKind::ModelIngested, name),
                (EventKind::CardUpdated, name),
            ],
        )?;
        Ok(id)
    }

    /// The registration record of `model`: a `Model` block carrying what
    /// the registry needs, with all three fingerprints, in
    /// [`FingerprintKind::ALL`] order, computed and width-checked here —
    /// the only place the lake runs its fingerprinters.
    pub(crate) fn model_block(
        &self,
        name: &str,
        digest: &Digest,
        model: &Model,
        card: ModelCard,
    ) -> Result<Block> {
        let fps = self.checked_fingerprints([
            self.fingerprinter.intrinsic(model),
            self.fingerprinter.extrinsic(model)?,
            self.fingerprinter.hybrid(model)?,
        ])?;
        Ok(Block::Model(ModelBlock {
            name: name.into(),
            digest: digest.to_hex(),
            arch: model.architecture().signature(),
            params: model.num_params() as u64,
            card,
            fps: blockstore::fp_bits(&fps),
        }))
    }

    /// The gate every fingerprint triple passes on its way onto a registry
    /// entry — computed by [`ModelLake::model_block`], decoded from a
    /// `Model` block by [`ModelLake::apply_block`]: its widths must be the
    /// ones `sketch_dim` implies (`model_dna` is 8 moments ++ the sketch,
    /// the behaviour sketch is `sketch_dim` wide, hybrid concatenates the
    /// two), so the catch-up insert in [`ModelLake::ensure_indexes`] cannot
    /// fail on its input. A lake opened under a different `sketch_dim` than
    /// it was written with fails here, at open.
    fn checked_fingerprints(&self, fps: [Vec<f32>; 3]) -> Result<[Vec<f32>; 3]> {
        let d = self.config.sketch_dim;
        let want = [8 + d, d, 8 + 2 * d];
        let got = [fps[0].len(), fps[1].len(), fps[2].len()];
        if got != want {
            return Err(LakeError::Config(format!(
                "fingerprint widths {got:?} do not match sketch_dim {d} (expected {want:?})"
            )));
        }
        Ok(fps)
    }

    /// One op's record: `blocks` plus one `Events` block numbering `events`
    /// after the log head. Callers hold `op_lock` (or are the
    /// single-threaded open), so this is the numbering
    /// [`ModelLake::apply_block`] checks.
    pub(crate) fn with_events(
        &self,
        mut blocks: Vec<Block>,
        events: &[(EventKind, &str)],
    ) -> Vec<Block> {
        let head = self.events.read().head();
        let events = events
            .iter()
            .zip(head + 1..)
            .map(|((kind, subject), seq)| Event {
                seq,
                kind: kind.clone(),
                subject: subject.to_string(),
            })
            .collect();
        blocks.push(Block::Events { events });
        blocks
    }

    /// Logs one op's record (see [`ModelLake::with_events`]) as one WAL
    /// record on a durable lake, applies it, then compacts if the op
    /// crossed the compaction policy. Returns the sequence number of the
    /// op's last event. `seg` is the `op_lock` guard.
    fn commit(
        &self,
        seg: &mut SegState,
        blocks: Vec<Block>,
        events: &[(EventKind, &str)],
    ) -> Result<u64> {
        let blocks = self.with_events(blocks, events);
        self.log_record(&blocks)?;
        for block in blocks {
            self.apply_block(seg, block)?;
        }
        self.maybe_compact(seg);
        Ok(self.events.read().head())
    }

    /// The one writer of the catalogue — registry, text index and event
    /// log — for live ops, the folded segment chain at open and WAL replay
    /// alike. A `Model` block withdraws the published version graph and
    /// touches neither the vector indexes nor the recovery memo: the next
    /// search catches the indexes up from the registry, the next graph
    /// read the memo. A second `Model` block for a registered name, a card
    /// override for an unknown id and an event that does not follow the
    /// log head are corruption. `seg` is the `op_lock` guard, or open's
    /// marks while the lake is not yet shared.
    pub(crate) fn apply_block(&self, seg: &mut SegState, block: Block) -> Result<()> {
        match block {
            Block::Model(m) => {
                let digest = Digest::from_hex(&m.digest).ok_or_else(|| {
                    LakeError::CorruptArtifact(format!("bad digest for '{}'", m.name))
                })?;
                let fps = Arc::new(self.checked_fingerprints(blockstore::fp_floats(&m.fps))?);
                let doc = text_document(&m.name, &m.arch, &m.card);
                let id = {
                    let mut reg = self.registry.write();
                    if reg.by_name.contains_key(&m.name) {
                        return Err(LakeError::CorruptArtifact(format!(
                            "model '{}' is registered twice",
                            m.name
                        )));
                    }
                    let id = ModelId(reg.models.len() as u64);
                    reg.by_name.insert(m.name.clone(), id);
                    reg.models.push(ModelEntry {
                        id,
                        name: m.name,
                        arch: m.arch,
                        digest,
                        params: m.params,
                        tags: m.card.task_tags.clone(),
                        card: m.card,
                        fps,
                    });
                    id
                };
                {
                    // lock-order: 27 (core.text)
                    self.text.write().insert(id.0, &doc);
                }
                self.graph.write().published = None;
            }
            Block::CardOverride { id, card } => {
                let doc = {
                    let mut reg = self.registry.write();
                    let entry = reg.model_mut(ModelId(id)).ok_or_else(|| {
                        LakeError::CorruptArtifact(format!(
                            "card override for unknown model id {id}"
                        ))
                    })?;
                    entry.tags = card.task_tags.clone();
                    entry.card = card;
                    text_document(&entry.name, &entry.arch, &entry.card)
                };
                // lock-order: 27 (core.text)
                self.text.write().insert(id, &doc);
                // The next delta segment must carry a CardOverride for this
                // model (persist skips ids its fresh Model blocks cover).
                seg.dirty_cards.insert(id);
            }
            Block::Dataset { dataset } => self.registry.write().datasets.push(dataset),
            Block::Benchmark { benchmark, domain } => {
                let name = benchmark.name.clone();
                self.registry
                    .write()
                    .benchmarks
                    .insert(name, BenchmarkEntry { benchmark, domain });
            }
            Block::Events { events } => {
                let mut log = self.events.write();
                for event in events {
                    log.push(event)?;
                }
            }
            Block::TextIndex {} => {}
        }
        Ok(())
    }

    /// Resolves any model identity — id, name or content digest — to the
    /// lake-local [`ModelId`]. All facade reads funnel through here, so the
    /// three identities are interchangeable everywhere.
    // lint: no-span — identity funnel on every read path; a span here
    // would dominate the recorder with noise
    pub fn resolve<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelId> {
        let r = model.into();
        let reg = self.registry.read();
        let found = match r {
            ModelRef::Id(id) => reg.model(id).map(|e| e.id),
            ModelRef::Name(name) => reg.id_of(name),
            ModelRef::Digest(d) => reg.models.iter().find(|e| &e.digest == d).map(|e| e.id),
        };
        found.ok_or_else(|| LakeError::NotFound {
            kind: "model",
            name: r.to_string(),
        })
    }

    /// Decodes a model artifact from the store.
    pub fn model<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Model> {
        let _span = mlake_obs::span("lake.model.decode");
        let id = self.resolve(model)?;
        let digest = {
            let reg = self.registry.read();
            reg.model(id)
                .ok_or_else(|| LakeError::NotFound {
                    kind: "model",
                    name: id.to_string(),
                })?
                .digest
        };
        let bytes = self.store.get(&digest)?;
        Model::from_bytes(&bytes).map_err(|e| LakeError::CorruptArtifact(e.to_string()))
    }

    /// Registry entry snapshot of a model.
    // lint: no-span — cheap registry clone on every read path
    pub fn entry<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelEntry> {
        let id = self.resolve(model)?;
        self.registry
            .read()
            .model(id)
            .cloned()
            .ok_or_else(|| LakeError::NotFound {
                kind: "model",
                name: id.to_string(),
            })
    }

    /// All model names in id order.
    // lint: no-span — trivial accessor
    pub fn model_names(&self) -> Vec<String> {
        self.registry
            .read()
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }

    /// Replaces a model's card. Accepts any model identity
    /// (id / name / digest), like every other facade entry point.
    pub fn update_card<'a>(&self, model: impl Into<ModelRef<'a>>, card: ModelCard) -> Result<()> {
        let _span = mlake_obs::span("lake.card.update");
        let mut seg = self.op_lock.lock();
        let id = self.resolve(model)?;
        let name = self.entry(id)?.name;
        self.commit(
            &mut seg,
            vec![Block::CardOverride { id: id.0, card }],
            &[(EventKind::CardUpdated, &name)],
        )?;
        Ok(())
    }

    /// Registers a dataset (names unique).
    pub fn register_dataset(&self, dataset: mlake_datagen::Dataset) -> Result<()> {
        let _span = mlake_obs::span("lake.register.dataset");
        let mut seg = self.op_lock.lock();
        if self.registry.read().datasets.iter().any(|d| d.name == dataset.name) {
            return Err(LakeError::Duplicate {
                kind: "dataset",
                name: dataset.name,
            });
        }
        let name = dataset.name.clone();
        self.commit(
            &mut seg,
            vec![Block::Dataset { dataset }],
            &[(EventKind::DatasetRegistered, &name)],
        )?;
        Ok(())
    }

    /// Registers a benchmark with an optional domain label (names unique).
    pub fn register_benchmark(&self, benchmark: Benchmark, domain: Option<String>) -> Result<()> {
        let _span = mlake_obs::span("lake.register.benchmark");
        let mut seg = self.op_lock.lock();
        if self.registry.read().benchmarks.contains_key(&benchmark.name) {
            return Err(LakeError::Duplicate {
                kind: "benchmark",
                name: benchmark.name,
            });
        }
        let name = benchmark.name.clone();
        self.commit(
            &mut seg,
            vec![Block::Benchmark { benchmark, domain }],
            &[(EventKind::BenchmarkRegistered, &name)],
        )?;
        Ok(())
    }

    /// Names of registered benchmarks.
    // lint: no-span — trivial accessor
    pub fn benchmark_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.registry.read().benchmarks.keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Search (§3 Model Search)
    // ------------------------------------------------------------------

    /// Content-based related-model search ("model as query", Lu et al.):
    /// the `k` models most similar to `id` under fingerprint `kind`.
    /// Similarity is `1 − cosine distance ∈ [0, 1]`-ish; self is excluded.
    pub fn similar<'a>(
        &self,
        model: impl Into<ModelRef<'a>>,
        kind: FingerprintKind,
        k: usize,
    ) -> Result<Vec<(ModelId, f32)>> {
        let _span = mlake_obs::span("lake.similar");
        let id = self.resolve(model)?;
        // One registry read: the lake's size, to clamp `k` (it arrives as
        // sent from the socket, no answer is longer than the lake, and
        // `k + 1` below must not overflow), and the anchor — the model's
        // own record, the very bits the index was built from; no blob
        // fault, decode or probe run.
        let (k, fps) = {
            let reg = self.registry.read();
            let entry = reg.model(id).ok_or_else(|| LakeError::NotFound {
                kind: "model",
                name: id.to_string(),
            })?;
            (k.min(reg.models.len()), Arc::clone(&entry.fps))
        };
        // Cache key: the query and the event-log head as generation —
        // any lake mutation bumps the head, so stale results are
        // unreachable by construction (see `crate::cache`).
        let key = CacheKey {
            query: CachedQuery::Similar { id, kind, k },
            generation: self.events.read().head(),
        };
        if let Some(hits) = self.similar_cache.get(&key) {
            return Ok(hits);
        }
        self.ensure_indexes()?;
        let hits = self.indexes.read()[kind as usize].search(&fps[kind as usize], k + 1)?;
        let out: Vec<(ModelId, f32)> = hits
            .into_iter()
            .filter(|h| h.id != id.0)
            .take(k)
            .map(|h| (ModelId(h.id), 1.0 - h.distance))
            .collect();
        self.similar_cache.put(key, out.clone());
        Ok(out)
    }

    /// Full-text search over card sections and model metadata
    /// (DESIGN.md §16): the `k` models ranked by Okapi BM25 against
    /// `query`. Results are deterministic — bit-identical across thread
    /// counts, restarts and WAL replay — and invalidate on any lake
    /// mutation via the generation-keyed cache.
    pub fn text_search(&self, query: &str, k: usize) -> Result<Vec<(ModelId, f32)>> {
        let _span = mlake_obs::span("lake.text");
        let key = CacheKey {
            query: CachedQuery::Text { query: query.to_string(), k },
            generation: self.events.read().head(),
        };
        if let Some(hits) = self.text_cache.get(&key) {
            return Ok(hits);
        }
        let out: Vec<(ModelId, f32)> = {
            // lock-order: 27 (core.text)
            self.text.read().search(query, k)
        }
        .into_iter()
        .map(|(doc, score)| (ModelId(doc), score))
        .collect();
        self.text_cache.put(key, out.clone());
        Ok(out)
    }

    /// Hybrid retrieval (DESIGN.md §16): reciprocal-rank fusion of the
    /// BM25 text ranking for `query` with the `kind`-fingerprint vector
    /// ranking around `model`. Each branch over-fetches
    /// [`HYBRID_POOL_FACTOR`]`·k` candidates so fusion has mid-list
    /// agreement to reward; the anchor model itself is excluded from
    /// both lists. Scores are RRF mass, not BM25 or cosine values.
    pub fn hybrid_search<'a>(
        &self,
        query: &str,
        model: impl Into<ModelRef<'a>>,
        kind: FingerprintKind,
        k: usize,
    ) -> Result<Vec<(ModelId, f32)>> {
        let _span = mlake_obs::span("lake.hybrid");
        let id = self.resolve(model)?;
        // Same clamp as `similar`: the pool arithmetic must not overflow.
        let k = k.min(self.len());
        let key = CacheKey {
            query: CachedQuery::Hybrid { id, kind, query: query.to_string(), k },
            generation: self.events.read().head(),
        };
        if let Some(hits) = self.text_cache.get(&key) {
            return Ok(hits);
        }
        let pool = k.max(1) * HYBRID_POOL_FACTOR;
        let text_ranks: Vec<u64> = {
            // lock-order: 27 (core.text)
            self.text.read().search(query, pool + 1)
        }
        .into_iter()
        .map(|(doc, _)| doc)
        .filter(|doc| *doc != id.0)
        .take(pool)
        .collect();
        let vec_ranks: Vec<u64> = self
            .similar(id, kind, pool)?
            .into_iter()
            .map(|(m, _)| m.0)
            .collect();
        let out: Vec<(ModelId, f32)> =
            mlake_text::rrf_fuse(&[text_ranks, vec_ranks], mlake_text::RRF_C, k)
                .into_iter()
                .map(|(doc, score)| (ModelId(doc), score))
                .collect();
        self.text_cache.put(key, out.clone());
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Versioning (§3 Model Versioning)
    // ------------------------------------------------------------------

    /// Recovers and republishes the version graph — always, even when the
    /// published one is current. `known_roots` follows hub practice where
    /// foundation models are known; pass `None` for blind recovery.
    // lint: no-span — the locked half spans itself
    pub fn rebuild_version_graph(
        &self,
        known_roots: Option<Vec<ModelId>>,
    ) -> Result<RecoveredGraph> {
        let mut seg = self.op_lock.lock();
        Ok(self.rebuild_graph_locked(&mut seg, known_roots)?.graph.clone())
    }

    /// Catches the recovery memo up to the registry and publishes its
    /// graph; `seg` is the `op_lock` guard. A memo recovered under the same
    /// options is extended by the registry suffix it does not cover, which
    /// decodes the newcomers and the members of the architecture groups
    /// they join and nothing else (`RecoveryMemo::extend`; cost model in its
    /// module doc). A memo recovered under other options — the blind
    /// catch-up after a `rebuild_version_graph(Some(roots))`, or the
    /// reverse — is discarded and recovery starts from nothing, decoding
    /// every model. Either way the graph is the one `recover_graph` returns
    /// over the whole lake, and one `GraphRebuilt` WAL record and event mark
    /// its publication.
    fn rebuild_graph_locked(
        &self,
        seg: &mut SegState,
        known_roots: Option<Vec<ModelId>>,
    ) -> Result<Arc<PublishedGraph>> {
        let _span = mlake_obs::span("lake.graph.rebuild");
        let opts = RecoveryOptions {
            known_roots: known_roots.map(|ids| ids.into_iter().map(|i| i.0 as usize).collect()),
            ..RecoveryOptions::default()
        };
        // The memo leaves the lock for the duration: only `op_lock` holders
        // touch it, and readers of `published` are not held up behind blob
        // decodes.
        let mut memo = std::mem::take(&mut self.graph.write().memo);
        if memo.options() != &opts {
            memo = RecoveryMemo::new(opts);
        }
        let recovered = memo.extend(self.len(), Some(&self.fingerprinter.probes), |i| {
            self.model(ModelId(i as u64))
        });
        self.graph.write().memo = memo;
        let graph = recovered?;
        // The graph is derived state: its record is the event alone.
        let timestamp = self.commit(seg, Vec::new(), &[(EventKind::GraphRebuilt, "*")])?;
        let published = Arc::new(PublishedGraph::new(graph, timestamp));
        self.graph.write().published = Some(Arc::clone(&published));
        Ok(published)
    }

    /// The current version graph, caught up blind if an ingest made it stale.
    /// Returns an owned copy; the facade's own readers share the cached one.
    // lint: no-span — cache hit is a clone; the catch-up path spans itself
    pub fn version_graph(&self) -> Result<RecoveredGraph> {
        Ok(self.current_graph()?.graph.clone())
    }

    /// The published graph, catching it up first when stale. Staleness is
    /// re-checked under `op_lock`: of k readers that find the graph stale
    /// after one ingest, the first catches up and the rest, queued behind
    /// it, take its result — one catch-up, one `GraphRebuilt` record and
    /// event, one cache-generation bump, not k.
    fn current_graph(&self) -> Result<Arc<PublishedGraph>> {
        if let Some(g) = self.graph.read().published.clone() {
            return Ok(g);
        }
        let mut seg = self.op_lock.lock();
        if let Some(g) = self.graph.read().published.clone() {
            return Ok(g);
        }
        self.rebuild_graph_locked(&mut seg, None)
    }

    /// Lineage path of a model from its recovered root, root first, as names.
    pub fn lineage_path<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Vec<String>> {
        let _span = mlake_obs::span("lake.lineage");
        let id = self.resolve(model)?;
        Ok(self.path_on(&*self.current_graph()?, id))
    }

    /// The names from `id`'s recovered root down to `id` on `graph`.
    fn path_on(&self, graph: &PublishedGraph, id: ModelId) -> Vec<String> {
        let me = id.0 as usize;
        let mut path: Vec<usize> = std::iter::once(me).chain(graph.ancestors(me)).collect();
        path.reverse();
        let reg = self.registry.read();
        path.into_iter()
            .filter_map(|i| reg.model(ModelId(i as u64)).map(|m| m.name.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Benchmarking (§3 Benchmarking)
    // ------------------------------------------------------------------

    /// `S(M, B)` with caching. The `lake.score` span covers a measurement,
    /// not a cache hit: a hit is one map probe, and every task read makes
    /// one per applicable benchmark.
    pub fn score_of<'a>(&self, model: impl Into<ModelRef<'a>>, benchmark: &str) -> Result<Score> {
        let id = self.resolve(model)?;
        if let Some(s) = self.score_cache.read().get(&(id.0, benchmark.to_string())) {
            return Ok(s.clone());
        }
        let _span = mlake_obs::span("lake.score");
        let bench = {
            let reg = self.registry.read();
            reg.benchmarks
                .get(benchmark)
                .ok_or_else(|| LakeError::NotFound {
                    kind: "benchmark",
                    name: benchmark.into(),
                })?
                .benchmark
                .clone()
        };
        let model = self.model(id)?;
        let score = bench.score(&model)?;
        self.score_cache
            .write()
            .insert((id.0, benchmark.to_string()), score.clone());
        Ok(score)
    }

    /// Full leaderboard of a registered benchmark over the lake. Which
    /// models it applies to comes from the registry's architecture
    /// signatures and each score through [`ModelLake::score_of`], so only a
    /// model never scored on this benchmark is decoded; rows, order and
    /// `skipped` are those of [`Leaderboard::run`] over every model.
    pub fn leaderboard(&self, benchmark: &str) -> Result<Leaderboard> {
        let _span = mlake_obs::span("lake.leaderboard");
        let (mut applicable, mut skipped) = (Vec::new(), Vec::new());
        {
            let reg = self.registry.read();
            let entry = reg.benchmarks.get(benchmark).ok_or_else(|| LakeError::NotFound {
                kind: "benchmark",
                name: benchmark.into(),
            })?;
            for e in &reg.models {
                if entry.benchmark.applicable_to(&entry_architecture(e)?) {
                    applicable.push(e.id);
                } else {
                    skipped.push(e.id.0);
                }
            }
        }
        let mut scored = Vec::with_capacity(applicable.len());
        for id in applicable {
            let score = self.score_of(id, benchmark)?;
            scored.push(LeaderboardRow { model_id: id.0, score });
        }
        Ok(Leaderboard::ranked(benchmark, scored, skipped))
    }

    // ------------------------------------------------------------------
    // Documentation generation, verification, audit (§6)
    // ------------------------------------------------------------------

    /// Measured evidence about a model: benchmark scores, recovered
    /// lineage, predicted domain. This is what verification trusts instead
    /// of the card. Which benchmarks apply is read off the registry's
    /// architecture signature and every score goes through
    /// [`ModelLake::score_of`], so once a model's scores are cached this
    /// reads no blob — only a never-scored (model, benchmark) pair decodes
    /// the artifact.
    // lint: no-span — `evidence_of` opens `lake.evidence`
    pub fn evidence_for<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<CardEvidence> {
        let id = self.resolve(model)?;
        self.evidence_of(id, &entry_architecture(&self.entry(id)?)?)
    }

    /// [`ModelLake::evidence_for`] for a caller that already parsed the
    /// entry's architecture.
    fn evidence_of(&self, id: ModelId, arch: &Architecture) -> Result<CardEvidence> {
        let _span = mlake_obs::span("lake.evidence");
        let mut applicable: Vec<(String, Option<String>)> = {
            let reg = self.registry.read();
            reg.benchmarks
                .iter()
                .filter(|(_, e)| e.benchmark.applicable_to(arch))
                .map(|(name, e)| (name.clone(), e.domain.clone()))
                .collect()
        };
        // Name order: the map's is arbitrary, and both the metric list and
        // the domain tie-break follow it.
        applicable.sort_by(|a, b| a.0.cmp(&b.0));
        let mut measured = Vec::with_capacity(applicable.len());
        let mut best_domain: Option<(String, f32)> = None;
        for (name, domain) in applicable {
            let score = self.score_of(id, &name)?;
            if let Some(d) = domain {
                let goodness = score.goodness();
                if best_domain.as_ref().is_none_or(|(_, g)| goodness > *g) {
                    best_domain = Some((d, goodness));
                }
            }
            measured.push(ReportedMetric {
                benchmark: score.benchmark,
                metric: score.metric,
                value: score.value,
            });
        }
        let graph = self.current_graph()?;
        let (recovered_base, recovered_transform) = {
            let reg = self.registry.read();
            match graph.parent_edge(id.0 as usize) {
                Some(e) => (
                    reg.model(ModelId(e.parent as u64)).map(|m| m.name.clone()),
                    Some(e.kind.name().to_string()),
                ),
                None => (None, None),
            }
        };
        Ok(CardEvidence {
            measured_metrics: measured,
            recovered_base,
            recovered_transform,
            predicted_domain: best_domain.map(|(d, _)| d),
        })
    }

    /// Auto-generates a model card from lake evidence — the §6 document-
    /// generation application. The result reflects what the lake can
    /// *measure*, independent of any uploaded documentation.
    pub fn generate_card<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelCard> {
        let _span = mlake_obs::span("lake.card.generate");
        let id = self.resolve(model)?;
        let entry = self.entry(id)?;
        let arch = entry_architecture(&entry)?;
        let evidence = self.evidence_of(id, &arch)?;
        let mut card = ModelCard::skeleton(&entry.name, &entry.arch);
        card.task_tags = vec![match arch {
            Architecture::Mlp { .. } => "classification".to_string(),
            Architecture::NgramLm { .. } => "language-modeling".to_string(),
        }];
        if let Some(d) = evidence.predicted_domain {
            card.domains = vec![d];
        }
        card.metrics = evidence.measured_metrics;
        card.lineage.base_model = evidence.recovered_base;
        card.lineage.transform = evidence.recovered_transform;
        card.quantitative = Some(mlake_cards::NutritionalLabel {
            demographic_parity_gap: None,
            group_accuracies: None,
            calibration_ece: None,
            parameter_count: Some(entry.params),
        });
        card.notes = format!(
            "Auto-generated by {} from measured evidence; artifact {}.",
            self.config.name,
            entry.digest.short()
        );
        card.created_at = self.events.read().head();
        Ok(card)
    }

    /// Verifies a model's *uploaded* card against measured evidence.
    pub fn verify_model_card<'a>(
        &self,
        model: impl Into<ModelRef<'a>>,
    ) -> Result<VerificationReport> {
        let _span = mlake_obs::span("lake.verify");
        let id = self.resolve(model)?;
        let entry = self.entry(id)?;
        let evidence = self.evidence_of(id, &entry_architecture(&entry)?)?;
        Ok(verify_card(&entry.card, &evidence))
    }

    /// Runs the standard audit questionnaire against a model.
    pub fn audit_model<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<AuditReport> {
        let _span = mlake_obs::span("lake.audit");
        let id = self.resolve(model)?;
        let entry = self.entry(id)?;
        let evidence = self.evidence_of(id, &entry_architecture(&entry)?)?;
        Ok(run_audit(&entry.card, &evidence, &standard_questionnaire()))
    }

    /// Generates a graph-timestamped citation (§6 Data and Model Citation).
    pub fn cite<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Citation> {
        let _span = mlake_obs::span("lake.cite");
        let id = self.resolve(model)?;
        let entry = self.entry(id)?;
        // Path and timestamp come off one published graph: an ingest that
        // lands meanwhile cannot stamp this path with a newer graph's time.
        let graph = self.current_graph()?;
        Ok(Citation {
            model_name: entry.name,
            version_path: self.path_on(&graph, id),
            graph_timestamp: graph.timestamp,
            lake_name: self.config.name.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Declarative queries (§6 Model Search)
    // ------------------------------------------------------------------

    /// Parses an MLQL query once into a typed handle that can be executed,
    /// explained or counted any number of times without re-parsing:
    ///
    /// ```ignore
    /// let q = lake.prepare("FIND MODELS WHERE domain = 'legal'")?;
    /// let hits = q.run()?;       // execute
    /// let plan = q.explain();    // access plan, no execution
    /// let n = q.count()?;        // cardinality
    /// ```
    pub fn prepare(&self, mlql: &str) -> Result<PreparedQuery<'_>> {
        let _span = mlake_obs::span("lake.query.prepare");
        let query = parse(mlql)?;
        Ok(PreparedQuery {
            lake: self,
            query,
            text: mlql.to_string(),
        })
    }

    /// Current graph timestamp (for citation stability tests).
    // lint: no-span — trivial accessor
    pub fn graph_timestamp(&self) -> u64 {
        self.events.read().graph_timestamp()
    }

    /// Event-log snapshot.
    // lint: no-span — trivial accessor
    pub fn events(&self) -> Vec<crate::event::Event> {
        self.events.read().events().to_vec()
    }

    /// Catches the fingerprint indexes up to the registry (DESIGN.md §15):
    /// inserts entries `[index len .. registry len)` in id order, so the
    /// HNSW graphs are the same whether the models arrived by live ingest,
    /// segment fold or WAL replay, and whenever the searches fell between
    /// them. A freshly opened lake pays its whole HNSW build here, on the
    /// first search, instead of inside `open()`. All three kinds advance
    /// together. Vectors route to sub-shards by artifact digest, not by
    /// the lake-local id: the digest is a pure function of content, so
    /// every restart routes every model to the same shard.
    // lint: no-span — the catch-up opens lake.index.build itself; the
    // no-op fast path is two uncontended read probes on a search miss
    pub(crate) fn ensure_indexes(&self) -> Result<()> {
        let built = self.indexes.read()[0].len();
        // The registry suffix is copied out (one `Arc` bump per model)
        // so no lock is held across another, or across the HNSW build.
        let fresh: Vec<_> = {
            let reg = self.registry.read();
            let past = reg.models.iter().skip(built);
            past.map(|e| (e.digest.route_key(), e.id.0, Arc::clone(&e.fps))).collect()
        };
        if fresh.is_empty() {
            return Ok(());
        }
        let _span = mlake_obs::span("lake.index.build");
        let mut idx = self.indexes.write();
        // A concurrent search may have caught part of the suffix up.
        let done = idx[0].len() - built;
        for (route, id, fps) in fresh.iter().skip(done) {
            for (index, fp) in idx.iter_mut().zip(fps.iter()) {
                index.insert_by_key(*route, *id, fp)?;
            }
        }
        Ok(())
    }
}

/// An MLQL query parsed once against a lake, executable many times.
///
/// Obtained from [`ModelLake::prepare`]; borrows the lake, so handles are
/// cheap and cannot outlive it. Repeated [`PreparedQuery::run`] calls skip
/// lexing/parsing entirely and execute the cached AST.
#[derive(Clone)]
pub struct PreparedQuery<'l> {
    lake: &'l ModelLake,
    query: mlake_query::Query,
    text: String,
}

impl PreparedQuery<'_> {
    /// The original MLQL source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed query AST.
    pub fn ast(&self) -> &mlake_query::Query {
        &self.query
    }

    /// Executes the query, returning ranked hits. Results are served from
    /// the lake's generation-keyed cache when the lake has not mutated
    /// since an identical query last ran (see `crate::cache`).
    pub fn run(&self) -> Result<Vec<QueryHit>> {
        let _span = mlake_obs::span("lake.query.run");
        let key = CacheKey {
            query: CachedQuery::Mlql { text: self.text.clone() },
            generation: self.lake.events.read().head(),
        };
        if let Some(hits) = self.lake.mlql_cache.get(&key) {
            return Ok(hits);
        }
        let hits = execute(&self.query, self.lake)?;
        self.lake.mlql_cache.put(key, hits.clone());
        Ok(hits)
    }

    /// The access plan, without executing.
    pub fn explain(&self) -> Vec<String> {
        mlake_query::explain(&self.query)
    }

    /// Result-set cardinality (`COUNT MODELS …` or any `FIND`).
    pub fn count(&self) -> Result<usize> {
        Ok(self.run()?.len())
    }
}

impl std::fmt::Debug for PreparedQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("text", &self.text)
            .finish_non_exhaustive()
    }
}

impl QueryTarget for ModelLake {
    fn all_models(&self) -> Vec<u64> {
        (0..self.len() as u64).collect()
    }

    fn field(&self, id: u64, field: &str) -> Option<FieldValue> {
        let reg = self.registry.read();
        let entry = reg.model(ModelId(id))?;
        if let Some(bench) = field.strip_prefix("score:") {
            // Benchmarks may be expensive; rely on the cache, computing on
            // demand when the benchmark exists.
            drop(reg);
            return match self.score_of(ModelId(id), bench) {
                Ok(s) => Some(FieldValue::Num(f64::from(s.value))),
                Err(_) => None,
            };
        }
        match field {
            "name" => Some(FieldValue::Str(entry.name.clone())),
            "arch" => Some(FieldValue::Str(entry.arch.clone())),
            "params" => Some(FieldValue::Num(entry.params as f64)),
            "domain" => entry
                .card
                .domains
                .first()
                .map(|d| FieldValue::Str(d.clone())),
            "domains" => Some(FieldValue::StrList(entry.card.domains.clone())),
            "task" | "tags" => Some(FieldValue::StrList(entry.card.task_tags.clone())),
            "transform" => entry
                .card
                .lineage
                .transform
                .clone()
                .map(FieldValue::Str),
            "base_model" => entry
                .card
                .lineage
                .base_model
                .clone()
                .map(FieldValue::Str),
            "completeness" => Some(FieldValue::Num(f64::from(entry.card.completeness()))),
            "depth" => {
                drop(reg);
                let graph = self.graph.read().published.clone()?;
                Some(FieldValue::Num(graph.ancestors(id as usize).count() as f64))
            }
            _ => None,
        }
    }

    fn similar_models(
        &self,
        model: &str,
        using: &str,
        k: usize,
    ) -> std::result::Result<Vec<(u64, f32)>, QueryError> {
        let id = self.resolve(model).map_err(|_| QueryError::UnknownEntity {
            kind: "model",
            name: model.into(),
        })?;
        let kind = match using {
            "weights" | "intrinsic" => FingerprintKind::Intrinsic,
            "behavior" | "behaviour" | "extrinsic" => FingerprintKind::Extrinsic,
            "hybrid" => FingerprintKind::Hybrid,
            other => {
                return Err(QueryError::UnknownEntity {
                    kind: "field",
                    name: other.into(),
                })
            }
        };
        self.similar(id, kind, k)
            .map(|v| v.into_iter().map(|(m, s)| (m.0, s)).collect())
            .map_err(|e| QueryError::Execution(e.to_string()))
    }

    fn text_search(&self, query: &str, k: usize) -> std::result::Result<Vec<(u64, f32)>, QueryError> {
        ModelLake::text_search(self, query, k)
            .map(|v| v.into_iter().map(|(m, s)| (m.0, s)).collect())
            .map_err(|e| QueryError::Execution(e.to_string()))
    }

    fn trained_on(
        &self,
        dataset: &str,
        include_versions: bool,
    ) -> std::result::Result<Vec<u64>, QueryError> {
        let reg = self.registry.read();
        let names: Vec<String> = if include_versions {
            reg.dataset_version_closure(dataset)
                .iter()
                .map(|d| d.name.clone())
                .collect()
        } else {
            reg.dataset_by_name(dataset)
                .map(|d| vec![d.name.clone()])
                .unwrap_or_default()
        };
        if names.is_empty() {
            return Err(QueryError::UnknownEntity {
                kind: "dataset",
                name: dataset.into(),
            });
        }
        Ok(reg
            .models
            .iter()
            .filter(|m| {
                m.card
                    .training_data
                    .iter()
                    .any(|t| names.contains(&t.dataset_name))
            })
            .map(|m| m.id.0)
            .collect())
    }

    fn outperformers(
        &self,
        model: &str,
        benchmark: &str,
    ) -> std::result::Result<Vec<u64>, QueryError> {
        let id = self.resolve(model).map_err(|_| QueryError::UnknownEntity {
            kind: "model",
            name: model.into(),
        })?;
        let lb = self
            .leaderboard(benchmark)
            .map_err(|e| QueryError::Execution(e.to_string()))?;
        Ok(lb.outperformers(id.0))
    }
}
