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
use crate::hash::{sha256, Digest};
use crate::registry::{BenchmarkEntry, ModelEntry, ModelId, ModelRef, Registry};
use crate::store::ResidentStore;
use mlake_benchlab::{Benchmark, Leaderboard, LeaderboardRow, Score};
use mlake_cards::{
    audit::{run_audit, standard_questionnaire, AuditReport},
    Citation, ModelCard, ReportedMetric,
    {verify_card, CardEvidence, VerificationReport},
};
use mlake_fingerprint::{extrinsic::ProbeSet, FingerprintKind, Fingerprinter};
use mlake_index::{HnswConfig, HnswIndex, VectorIndex};
use mlake_nn::{Architecture, Model};
use mlake_query::{execute, parse, FieldValue, QueryError, QueryHit, QueryTarget};
use mlake_versioning::{RecoveredEdge, RecoveredGraph, RecoveryMemo, RecoveryOptions};
use mlake_wal::lockorder::{self, ranks, OrderToken};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// When automatic compaction runs (DESIGN.md §13). Attached to a durable
/// lake via [`LakeConfigBuilder::compaction`]; after every
/// committed op the lake checks these thresholds and, when either is
/// crossed, that op persists the lake into its own directory and runs GC
/// before it returns. A threshold of 0 disables that trigger; at least one
/// must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Root seed of the lake's fingerprint space: the probe set and every
/// sketch derive from it. Nothing on disk records it, so it is a constant:
/// every fingerprint a lake stores and every one it computes after a
/// reopen come from the same function (DESIGN.md §13).
pub(crate) const FINGERPRINT_SEED: u64 = 0;

/// Fingerprint sketch width: `model_dna` is 8 moments ++ this many sketch
/// values, the behaviour sketch is this wide, hybrid concatenates the two.
pub(crate) const SKETCH_DIM: usize = 64;

/// Classifier probe count / feature dimension / scale. The probe
/// dimensions must match the model population (feature dimension,
/// vocabulary): these and [`LM_PROBES`] align with
/// `mlake_datagen::LakeSpec::default()`.
pub(crate) const CLASSIFIER_PROBES: (usize, usize, f32) = (32, 8, 2.5);

/// LM probe context count / context length / vocabulary.
pub(crate) const LM_PROBES: (usize, usize, usize) = (16, 2, 24);

/// Capacity of each facade query-result cache (`similar`, MLQL, text), in
/// entries. Results are keyed by `(query, event-log generation)`, so any
/// lake mutation invalidates by construction (DESIGN.md §11).
pub(crate) const QUERY_CACHE_ENTRIES: usize = 128;

/// Lake configuration: what a caller sets when it creates or opens a lake
/// (DESIGN.md §13). The fingerprint space (`FINGERPRINT_SEED`,
/// `SKETCH_DIM`, `CLASSIFIER_PROBES`, `LM_PROBES`) and the query-cache size
/// (`QUERY_CACHE_ENTRIES`) are constants of the lake, not fields.
#[derive(Debug, Clone, PartialEq)]
pub struct LakeConfig {
    /// Lake name (appears in citations).
    pub name: String,
    /// HNSW parameters for the three fingerprint indexes.
    pub hnsw: HnswConfig,
    /// Commit durability of the write-ahead log on durable lakes
    /// ([`ModelLake::create`] / [`ModelLake::open`]); ignored by
    /// ephemeral in-memory lakes. Its one value,
    /// [`mlake_wal::SyncPolicy::Always`], fsyncs every mutation before
    /// the op returns.
    pub wal_sync: mlake_wal::SyncPolicy,
    /// Always 1, and the lake does not read it: each fingerprint kind has
    /// one HNSW graph. The frozen end-to-end benchmark still reads it.
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
    pub resident_bytes: u64,
}

impl Default for LakeConfig {
    fn default() -> Self {
        LakeConfig {
            name: "model-lake".into(),
            hnsw: HnswConfig::default(),
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

    /// HNSW parameters for the three fingerprint indexes.
    pub fn hnsw(mut self, hnsw: HnswConfig) -> Self {
        self.config.hnsw = hnsw;
        self
    }

    /// Enables automatic compaction under `policy` on durable lakes: the
    /// op that crosses a threshold compacts before it returns (DESIGN.md
    /// §13).
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
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
        if let Some(p) = &c.compaction {
            if p.wal_bytes == 0 && p.wal_segments == 0 {
                return Err(LakeError::Config(
                    "compaction needs a positive wal_bytes or \
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
    /// Sequence numbers of the live segments, in chain order.
    pub(crate) live: Vec<u64>,
    /// Next segment sequence number to allocate (`max(live) + 1`; 0 reads
    /// as 1, so the first persist writes segment 1).
    pub(crate) next_seq: u64,
    /// Models already covered by `live` (registry prefix length).
    pub(crate) models: usize,
    /// Datasets already covered by `live` (registry prefix length).
    pub(crate) datasets: usize,
    /// Benchmark names already covered by `live`.
    pub(crate) benchmarks: BTreeSet<String>,
    /// Events already covered by `live` (log prefix length).
    pub(crate) events: usize,
}

/// The catalogue (DESIGN.md §12): the registry and the event log, one value
/// behind one lock, changed only by [`Catalogue::apply`]. The vector and text
/// indexes and the version graph are projections of it, caught up on read.
#[derive(Debug, Default)]
pub(crate) struct Catalogue {
    pub(crate) registry: Registry,
    pub(crate) events: EventLog,
}

impl Catalogue {
    /// The one writer of the catalogue, for live ops, the segment chain and
    /// WAL replay alike. A second `Model` block for a registered name, a card
    /// override for an unknown id and an event that does not follow the log
    /// head are corruption.
    pub(crate) fn apply(&mut self, block: Block) -> Result<()> {
        let reg = &mut self.registry;
        match block {
            Block::Model(m) => {
                let digest = Digest::from_hex(&m.digest).ok_or_else(|| {
                    LakeError::CorruptArtifact(format!("bad digest for '{}'", m.name))
                })?;
                let fps = checked_fingerprints(blockstore::fp_floats(&m.fps))?;
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
                    fps: Arc::new(fps),
                });
            }
            Block::CardOverride { id, card } => {
                let entry = reg.model_mut(ModelId(id)).ok_or_else(|| {
                    LakeError::CorruptArtifact(format!("card override for unknown model id {id}"))
                })?;
                entry.tags = card.task_tags.clone();
                entry.card = card;
            }
            Block::Dataset { dataset } => reg.datasets.push(dataset),
            Block::Benchmark { benchmark, domain } => {
                let name = benchmark.name.clone();
                reg.benchmarks.insert(name, BenchmarkEntry { benchmark, domain });
            }
            Block::Events { events } => {
                for event in events {
                    self.events.push(event)?;
                }
            }
        }
        Ok(())
    }

    /// The entry of any model identity — id, name or content digest. All
    /// facade reads funnel through here, so the three identities are
    /// interchangeable everywhere.
    pub(crate) fn find(&self, model: ModelRef<'_>) -> Result<&ModelEntry> {
        let reg = &self.registry;
        let found = match model {
            ModelRef::Id(id) => reg.model(id),
            ModelRef::Name(name) => reg.id_of(name).and_then(|id| reg.model(id)),
            ModelRef::Digest(d) => reg.models.iter().find(|e| &e.digest == d),
        };
        found.ok_or_else(|| LakeError::NotFound {
            kind: "model",
            name: model.to_string(),
        })
    }
}

/// A catalogue guard, then its lock-order token (rank 8, `core.catalogue`),
/// released in that order: a thread that takes the catalogue twice panics in
/// a debug build instead of deadlocking behind a queued writer.
pub(crate) struct Held<G> {
    guard: G,
    _ord: OrderToken,
}

pub(crate) type CatalogueRead<'a> = Held<RwLockReadGuard<'a, Catalogue>>;
type CatalogueWrite<'a> = Held<RwLockWriteGuard<'a, Catalogue>>;

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// The gate every fingerprint triple passes on its way onto a registry
/// entry — computed by [`ModelLake::model_block`], decoded from a `Model`
/// block by [`Catalogue::apply`]: its widths must be the ones
/// [`SKETCH_DIM`] implies (`model_dna` is 8 moments ++ the sketch, the
/// behaviour sketch is `SKETCH_DIM` wide, hybrid concatenates the two), so
/// no insert in [`ModelLake::with_index`], whether it builds a kind's graph
/// on its first read or catches a built one up, can fail on its input. The
/// fingerprinter always computes these widths, so other widths can only
/// come from damaged or foreign bytes: corruption, at open.
fn checked_fingerprints(fps: [Vec<f32>; 3]) -> Result<[Vec<f32>; 3]> {
    let d = SKETCH_DIM;
    let want = [8 + d, d, 8 + 2 * d];
    let got = [fps[0].len(), fps[1].len(), fps[2].len()];
    if got != want {
        return Err(LakeError::CorruptArtifact(format!(
            "fingerprint widths {got:?} do not match sketch width {d} (expected {want:?})"
        )));
    }
    Ok(fps)
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

/// The child spans of `lake.index.build`, one per fingerprint kind, indexed
/// by `kind as usize`: a trace shows which kinds' graphs a read paid for.
static INDEX_BUILD_SPANS: [&str; 3] = [
    "lake.index.build.intrinsic",
    "lake.index.build.extrinsic",
    "lake.index.build.hybrid",
];

/// The fielded text document of one model (DESIGN.md §16): every card
/// section plus the identity metadata, each under its own [`TextField`]
/// so BM25 can weight a name hit above a notes hit. Pure function of
/// `(name, arch, card)`, indexed from the catalogue by the text catch-up
/// however the card arrived — live op, segment chain or WAL — which is
/// what keeps text search bit-identical across restarts.
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
    /// Sequence number of the log's latest graph event when this graph was
    /// published: the `ModelIngested` or explicit `GraphRebuilt` event whose
    /// registry prefix and options it was recovered from. It is the
    /// timestamp a citation of a path on it carries.
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

    /// The names from `id`'s recovered root down to `id`.
    fn path(&self, reg: &Registry, id: ModelId) -> Vec<String> {
        let me = id.0 as usize;
        let mut path: Vec<usize> = std::iter::once(me).chain(self.ancestors(me)).collect();
        path.reverse();
        path.into_iter()
            .filter_map(|i| reg.model(ModelId(i as u64)).map(|m| m.name.clone()))
            .collect()
    }
}

/// The version graph as a projection of the registry, caught up on demand
/// like the fingerprint indexes.
#[derive(Default)]
struct GraphState {
    /// Recovery over a prefix of the registry. An ingest leaves it behind;
    /// [`ModelLake::current_graph`] extends it by the suffix it lacks.
    memo: RecoveryMemo,
    /// The graph of the last catch-up; stale once it covers fewer models
    /// than the registry holds. Shared out as an `Arc` so a task read
    /// borrows it instead of copying every edge.
    published: Option<Arc<PublishedGraph>>,
}

/// The full-text index (DESIGN.md §16), caught up by
/// [`ModelLake::with_text`] to `seq`, the event-log head it covers.
#[derive(Default)]
struct TextState {
    index: mlake_text::TextIndex,
    seq: u64,
}

/// The model lake.
pub struct ModelLake {
    pub(crate) config: LakeConfig,
    pub(crate) store: ResidentStore,
    /// Taken only by [`ModelLake::catalogue`] and [`ModelLake::apply_record`].
    catalogue: RwLock<Catalogue>,
    /// Durability link (`None` for ephemeral in-memory lakes): the WAL
    /// every mutating facade op appends to before touching state above.
    /// See `crate::durable` and DESIGN.md §12.
    pub(crate) wal: Option<crate::durable::WalLink>,
    text: RwLock<TextState>,
    /// Serializes mutating facade ops so WAL append order always equals
    /// in-memory apply order (replay must reproduce state exactly), and
    /// guards the incremental-persist marks (DESIGN.md §15): the guard is
    /// the `&mut SegState` every locked writer takes. Never taken under the
    /// catalogue: a read that needs the graph caught up does that first.
    pub(crate) op_lock: parking_lot::Mutex<SegState>,
    fingerprinter: Fingerprinter,
    /// One HNSW index slot per fingerprint kind, in [`FingerprintKind::ALL`]
    /// order: a projection of the registry's `ModelEntry::fps`, `None` until
    /// a search first reads that kind. [`ModelLake::with_index`] builds it
    /// then and catches every built kind up to the reader's catalogue, so
    /// all built kinds share one `len()`, the watermark.
    indexes: RwLock<[Option<HnswIndex>; 3]>,
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
        let (n_probe, probe_dim, probe_scale) = CLASSIFIER_PROBES;
        let (n_ctx, ctx_len, vocab) = LM_PROBES;
        let probes = ProbeSet::standard(
            probe_dim,
            n_probe,
            probe_scale,
            vocab,
            n_ctx,
            ctx_len,
            mlake_tensor::Seed::new(FINGERPRINT_SEED).derive("lake-probes"),
        );
        let fingerprinter = Fingerprinter::new(SKETCH_DIM, FINGERPRINT_SEED, probes);
        let resident_cap = config.resident_bytes;
        ModelLake {
            config,
            store: ResidentStore::with_cap(resident_cap),
            catalogue: RwLock::new(Catalogue::default()),
            text: RwLock::new(TextState::default()),
            wal: None,
            op_lock: parking_lot::Mutex::new(SegState::default()),
            fingerprinter,
            indexes: RwLock::new([None, None, None]),
            graph: RwLock::new(GraphState::default()),
            score_cache: RwLock::new(HashMap::new()),
            similar_cache: QueryCache::new(QUERY_CACHE_ENTRIES),
            mlql_cache: QueryCache::new(QUERY_CACHE_ENTRIES),
            text_cache: QueryCache::new(QUERY_CACHE_ENTRIES),
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
        self.catalogue().registry.models.len()
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

    /// The one guard a read takes and holds to its end, so its answer
    /// describes the lake at one op boundary.
    pub(crate) fn catalogue(&self) -> CatalogueRead<'_> {
        let _ord = lockorder::acquire(ranks::CORE_CATALOGUE, "core.catalogue");
        // lock-order: 8 (core.catalogue)
        let guard = self.catalogue.read();
        Held { guard, _ord }
    }

    fn catalogue_mut(&self) -> CatalogueWrite<'_> {
        let _ord = lockorder::acquire(ranks::CORE_CATALOGUE, "core.catalogue");
        // lock-order: 8 (core.catalogue)
        let guard = self.catalogue.write();
        Held { guard, _ord }
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
            let cat = self.catalogue();
            if cat.registry.by_name.contains_key(name) {
                return Err(LakeError::Duplicate {
                    kind: "model",
                    name: name.into(),
                });
            }
            ModelId(cat.registry.models.len() as u64)
        };
        if !model.is_finite() {
            return Err(LakeError::CorruptArtifact(format!(
                "model '{name}' contains non-finite parameters"
            )));
        }
        let bytes = model.to_bytes()?;
        let digest = sha256(&bytes);
        let card =
            card.unwrap_or_else(|| ModelCard::skeleton(name, model.architecture().signature()));
        // Everything fallible runs before the WAL append so a logged op
        // is one that replay can always re-apply.
        let block = self.model_block(name, &digest, model, card)?;
        self.write_blob(&digest, &bytes)?;
        // Resident only once the blob file landed, so a rejected model
        // leaves nothing behind; before the commit, so no read of the new
        // entry finds its blob missing. On a durable lake the file makes it
        // evictable; on an ephemeral one it is the only copy, so pinned.
        let admitted = self.store.admit(digest, bytes, self.is_durable());
        let committed = self.commit(
            &mut seg,
            vec![block],
            &[
                (EventKind::ModelIngested, name),
                (EventKind::CardUpdated, name),
            ],
        );
        if committed.is_err() && admitted {
            self.store.discard(&digest);
        }
        committed?;
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
        let intrinsic = self.fingerprinter.intrinsic(model);
        let extrinsic = self.fingerprinter.extrinsic(model)?;
        let hybrid = Fingerprinter::hybrid_of(&intrinsic, &extrinsic);
        let fps = checked_fingerprints([intrinsic, extrinsic, hybrid])?;
        Ok(Block::Model(ModelBlock {
            name: name.into(),
            digest: digest.to_hex(),
            arch: model.architecture().signature(),
            params: model.num_params() as u64,
            card,
            fps: blockstore::fp_bits(&fps),
        }))
    }

    /// One op's record: `blocks` plus one `Events` block numbering `events`
    /// after the log head. Callers hold `op_lock` (or are the
    /// single-threaded upgrade), so this is the numbering
    /// [`Catalogue::apply`] checks.
    pub(crate) fn with_events(
        &self,
        mut blocks: Vec<Block>,
        events: &[(EventKind, &str)],
    ) -> Vec<Block> {
        let head = self.catalogue().events.head();
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
        let head = self.apply_record(blocks)?;
        // Reindex the cards this op changed now: reads after a write stay cheap.
        self.with_text(&self.catalogue(), |_| ());
        self.maybe_compact(seg);
        Ok(head)
    }

    /// Applies one record — a live op's blocks, a WAL record, a segment —
    /// under one write guard, so no read sees part of it; returns the log
    /// head after it. No projection is touched: reads catch them up.
    pub(crate) fn apply_record(&self, blocks: Vec<Block>) -> Result<u64> {
        let mut cat = self.catalogue_mut();
        for block in blocks {
            cat.apply(block)?;
        }
        Ok(cat.events.head())
    }

    /// Resolves any model identity — id, name or content digest — to the
    /// lake-local [`ModelId`].
    // lint: no-span — identity funnel on every read path; a span here
    // would dominate the recorder with noise
    pub fn resolve<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelId> {
        Ok(self.catalogue().find(model.into())?.id)
    }

    /// Decodes a model artifact from the store.
    pub fn model<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Model> {
        let _span = mlake_obs::span("lake.model.decode");
        let digest = self.catalogue().find(model.into())?.digest;
        self.load(&digest)
    }

    /// Decodes the artifact stored under `digest`.
    pub(crate) fn load(&self, digest: &Digest) -> Result<Model> {
        let bytes = self.store.get(digest)?;
        Model::from_bytes(&bytes).map_err(|e| LakeError::CorruptArtifact(e.to_string()))
    }

    /// All three identities of a model — id, name and content digest —
    /// under one guard, copying the name and nothing else of the entry.
    // lint: no-span — identity funnel like `resolve`; the served Resolve
    // route is its caller and spans itself
    pub fn identity<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<(ModelId, String, Digest)> {
        let cat = self.catalogue();
        let entry = cat.find(model.into())?;
        Ok((entry.id, entry.name.clone(), entry.digest))
    }

    /// Registry entry snapshot of a model.
    // lint: no-span — cheap registry clone on every read path
    pub fn entry<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelEntry> {
        Ok(self.catalogue().find(model.into())?.clone())
    }

    /// All model names in id order.
    // lint: no-span — trivial accessor
    pub fn model_names(&self) -> Vec<String> {
        let cat = self.catalogue();
        cat.registry.models.iter().map(|m| m.name.clone()).collect()
    }

    /// Replaces a model's card. Accepts any model identity
    /// (id / name / digest), like every other facade entry point.
    pub fn update_card<'a>(&self, model: impl Into<ModelRef<'a>>, card: ModelCard) -> Result<()> {
        let _span = mlake_obs::span("lake.card.update");
        let mut seg = self.op_lock.lock();
        let (id, name) = {
            let cat = self.catalogue();
            let entry = cat.find(model.into())?;
            (entry.id, entry.name.clone())
        };
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
        if self.catalogue().registry.dataset_by_name(&dataset.name).is_some() {
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
        if self.catalogue().registry.benchmarks.contains_key(&benchmark.name) {
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
        let mut names: Vec<String> = self.catalogue().registry.benchmarks.keys().cloned().collect();
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
        let cat = self.catalogue();
        self.similar_on(&cat, cat.find(model.into())?.id, kind, k)
    }

    fn similar_on(
        &self,
        cat: &Catalogue,
        id: ModelId,
        kind: FingerprintKind,
        k: usize,
    ) -> Result<Vec<(ModelId, f32)>> {
        // `k` arrives as sent from the socket: no answer is longer than the
        // lake, and `k + 1` below must not overflow. The generation is the
        // event-log head, so stale results are unreachable (`crate::cache`).
        let k = k.min(cat.registry.models.len());
        let key = CacheKey {
            query: CachedQuery::Similar { id, kind, k },
            generation: cat.events.head(),
        };
        if let Some(hits) = self.similar_cache.get(&key) {
            return Ok(hits);
        }
        // The anchor is the bits the index was built from: no blob fault.
        let fps = &cat.find(ModelRef::Id(id))?.fps;
        let hits = self.with_index(cat, kind, |index| index.search(&fps[kind as usize], k + 1))??;
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
        Ok(self.text_on(&self.catalogue(), query, k))
    }

    fn text_on(&self, cat: &Catalogue, query: &str, k: usize) -> Vec<(ModelId, f32)> {
        let key = CacheKey {
            query: CachedQuery::Text { query: query.to_string(), k },
            generation: cat.events.head(),
        };
        if let Some(hits) = self.text_cache.get(&key) {
            return hits;
        }
        let out: Vec<(ModelId, f32)> = self
            .with_text(cat, |index| index.search(query, k))
            .into_iter()
            .map(|(doc, score)| (ModelId(doc), score))
            .collect();
        self.text_cache.put(key, out.clone());
        out
    }

    /// Hybrid retrieval (DESIGN.md §16): reciprocal-rank fusion of the
    /// BM25 text ranking for `query` with the `kind`-fingerprint vector
    /// ranking around `model`, both taken on one catalogue. Each branch
    /// over-fetches [`HYBRID_POOL_FACTOR`]`·k` candidates so fusion has
    /// mid-list agreement to reward; the anchor model itself is excluded
    /// from both lists. Scores are RRF mass, not BM25 or cosine values.
    pub fn hybrid_search<'a>(
        &self,
        query: &str,
        model: impl Into<ModelRef<'a>>,
        kind: FingerprintKind,
        k: usize,
    ) -> Result<Vec<(ModelId, f32)>> {
        let _span = mlake_obs::span("lake.hybrid");
        let cat = self.catalogue();
        let id = cat.find(model.into())?.id;
        // Same clamp as `similar`: the pool arithmetic must not overflow.
        let k = k.min(cat.registry.models.len());
        let key = CacheKey {
            query: CachedQuery::Hybrid { id, kind, query: query.to_string(), k },
            generation: cat.events.head(),
        };
        if let Some(hits) = self.text_cache.get(&key) {
            return Ok(hits);
        }
        let pool = k.max(1) * HYBRID_POOL_FACTOR;
        let text_ranks: Vec<u64> = self
            .with_text(&cat, |index| index.search(query, pool + 1))
            .into_iter()
            .map(|(doc, _)| doc)
            .filter(|doc| *doc != id.0)
            .take(pool)
            .collect();
        let vec_ranks: Vec<u64> = self
            .similar_on(&cat, id, kind, pool)?
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

    /// Runs `read` on the text index caught up to `cat`: the models that
    /// `ModelIngested` / `CardUpdated` events past its watermark name are
    /// reindexed, once each, from their current cards. The index layout does
    /// not depend on insertion order (DESIGN.md §16), so neither do rankings.
    fn with_text<R>(&self, cat: &Catalogue, read: impl FnOnce(&mlake_text::TextIndex) -> R) -> R {
        let head = cat.events.head();
        let text = self.text.read();
        if text.seq == head {
            return read(&text.index);
        }
        drop(text);
        let mut text = self.text.write();
        let fresh: BTreeSet<ModelId> = cat.events.events()[text.seq as usize..]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ModelIngested | EventKind::CardUpdated))
            .filter_map(|e| cat.registry.id_of(&e.subject))
            .collect();
        for e in fresh.into_iter().filter_map(|id| cat.registry.model(id)) {
            text.index.insert(e.id.0, &text_document(&e.name, &e.arch, &e.card));
        }
        text.seq = head;
        read(&text.index)
    }

    // ------------------------------------------------------------------
    // Versioning (§3 Model Versioning)
    // ------------------------------------------------------------------

    /// Recovers and republishes the version graph — always, even when the
    /// published one is current — and logs one `GraphRebuilt` event naming
    /// the options, the only op that does: a failed recovery logs nothing.
    /// `known_roots` follows hub practice where foundation models are
    /// known; pass `None` for blind recovery. A root that names no model
    /// is [`LakeError::NotFound`], an empty root list [`LakeError::Config`].
    // lint: no-span — the recovery spans itself
    pub fn rebuild_version_graph(
        &self,
        known_roots: Option<Vec<ModelId>>,
    ) -> Result<RecoveredGraph> {
        let mut seg = self.op_lock.lock();
        let roots = match known_roots {
            Some(ids) => {
                let cat = self.catalogue();
                let ids = ids.into_iter().map(|id| Ok(cat.find(ModelRef::Id(id))?.id.0 as usize));
                Some(ids.collect::<Result<Vec<usize>>>()?)
            }
            None => None,
        };
        let subject = crate::event::graph_subject(roots.as_deref())?;
        let graph = self.rebuild_graph_locked(&seg, roots)?;
        // The graph is derived state: its record is the event alone.
        let timestamp = self.commit(&mut seg, Vec::new(), &[(EventKind::GraphRebuilt, &subject)])?;
        Ok(self.publish(graph, timestamp).graph.clone())
    }

    /// Catches the recovery memo up to the registry under `known_roots` and
    /// returns its graph; `_seg` is the `op_lock` guard, the one exclusion
    /// between recoveries. Logs, applies and publishes nothing: the callers
    /// do what each needs. A memo recovered under the same options is
    /// extended by the registry suffix it does not cover, which decodes the
    /// newcomers and the members of the architecture groups they join and
    /// nothing else (`RecoveryMemo::extend`; cost model in its module doc).
    /// A memo recovered under other options — the blind catch-up after a
    /// `rebuild_version_graph(Some(roots))`, or the reverse — is discarded
    /// and recovery starts from nothing, decoding every model. Either way
    /// the graph is the one `recover_graph` returns over the whole lake.
    fn rebuild_graph_locked(
        &self,
        _seg: &SegState,
        known_roots: Option<Vec<usize>>,
    ) -> Result<RecoveredGraph> {
        let _span = mlake_obs::span("lake.graph.rebuild");
        let opts = RecoveryOptions {
            known_roots,
            ..RecoveryOptions::default()
        };
        // The memo leaves the lock for the duration: only `op_lock` holders
        // touch it, and readers of `published` are not held up behind blob
        // decodes.
        let mut memo = std::mem::take(&mut self.graph.write().memo);
        if memo.options() != &opts {
            memo = RecoveryMemo::new(opts);
        }
        let recovered = {
            let cat = self.catalogue();
            memo.extend(cat.registry.models.len(), Some(&self.fingerprinter.probes), |i| {
                self.load(&cat.find(ModelRef::Id(ModelId(i as u64)))?.digest)
            })
        };
        self.graph.write().memo = memo;
        recovered
    }

    /// Makes `graph`, named by `timestamp`, the one graph reads see.
    fn publish(&self, graph: RecoveredGraph, timestamp: u64) -> Arc<PublishedGraph> {
        let published = Arc::new(PublishedGraph::new(graph, timestamp));
        self.graph.write().published = Some(Arc::clone(&published));
        published
    }

    /// The current version graph, caught up if an ingest made it stale.
    /// Returns an owned copy; the facade's own readers share the cached one.
    // lint: no-span — cache hit is a clone; the catch-up path spans itself
    pub fn version_graph(&self) -> Result<RecoveredGraph> {
        Ok(self.current_graph()?.0.graph.clone())
    }

    /// The published graph with a graph read's one catalogue guard, the graph
    /// covering exactly that catalogue. A stale graph (fewer models than the
    /// registry, or none since an open) is caught up first, under `op_lock`,
    /// with no catalogue guard held across the recovery; `op_lock` is let go
    /// only once the guard is taken, so no op lands in between. Staleness is
    /// re-checked under `op_lock`, so k readers that find the graph stale
    /// after one ingest run one catch-up, not k. The catch-up writes
    /// nothing: it recovers under the options of the log's latest graph
    /// event — blind after an ingest or a `"*"` rebuild, under the named
    /// roots after a `roots:` one — and publishes with that event's seq, so
    /// a key `@v<t>` names the same graph before and after a reopen.
    fn current_graph(&self) -> Result<(Arc<PublishedGraph>, CatalogueRead<'_>)> {
        let fresh = |cat: &Catalogue| {
            let g = self.graph.read().published.clone()?;
            (g.graph.num_models == cat.registry.models.len()).then_some(g)
        };
        let cat = self.catalogue();
        if let Some(g) = fresh(&cat) {
            return Ok((g, cat));
        }
        drop(cat);
        let seg = self.op_lock.lock();
        let published = fresh(&self.catalogue());
        let g = match published {
            Some(g) => g,
            None => {
                let (timestamp, known_roots) = match self.catalogue().events.graph_event() {
                    Some(e) => (e.seq, e.known_roots()?),
                    None => (0, None),
                };
                let graph = self.rebuild_graph_locked(&seg, known_roots)?;
                self.publish(graph, timestamp)
            }
        };
        Ok((g, self.catalogue()))
    }

    /// Lineage path of a model from its recovered root, root first, as names.
    pub fn lineage_path<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Vec<String>> {
        let _span = mlake_obs::span("lake.lineage");
        let (graph, cat) = self.current_graph()?;
        Ok(graph.path(&cat.registry, cat.find(model.into())?.id))
    }

    // ------------------------------------------------------------------
    // Benchmarking (§3 Benchmarking)
    // ------------------------------------------------------------------

    /// `S(M, B)` with caching.
    // lint: no-span — `score_on` spans a measurement, not a cache hit
    pub fn score_of<'a>(&self, model: impl Into<ModelRef<'a>>, benchmark: &str) -> Result<Score> {
        let cat = self.catalogue();
        self.score_on(&cat, cat.find(model.into())?.id, benchmark)
    }

    /// The `lake.score` span covers a measurement, not a cache hit: a hit is
    /// one map probe, and every task read makes one per applicable benchmark.
    fn score_on(&self, cat: &Catalogue, id: ModelId, benchmark: &str) -> Result<Score> {
        if let Some(s) = self.score_cache.read().get(&(id.0, benchmark.to_string())) {
            return Ok(s.clone());
        }
        let _span = mlake_obs::span("lake.score");
        let bench = cat.registry.benchmarks.get(benchmark).ok_or_else(|| LakeError::NotFound {
            kind: "benchmark",
            name: benchmark.into(),
        })?;
        let model = self.load(&cat.find(ModelRef::Id(id))?.digest)?;
        let score = bench.benchmark.score(&model)?;
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
        self.leaderboard_on(&self.catalogue(), benchmark)
    }

    fn leaderboard_on(&self, cat: &Catalogue, benchmark: &str) -> Result<Leaderboard> {
        let entry = cat.registry.benchmarks.get(benchmark).ok_or_else(|| LakeError::NotFound {
            kind: "benchmark",
            name: benchmark.into(),
        })?;
        let (mut scored, mut skipped) = (Vec::new(), Vec::new());
        for e in &cat.registry.models {
            if entry.benchmark.applicable_to(&entry_architecture(e)?) {
                let score = self.score_on(cat, e.id, benchmark)?;
                scored.push(LeaderboardRow { model_id: e.id.0, score });
            } else {
                skipped.push(e.id.0);
            }
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
    // lint: no-span — `with_evidence` opens `lake.evidence`
    pub fn evidence_for<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<CardEvidence> {
        self.with_evidence(model.into(), |_, _, evidence| Ok(evidence))
    }

    /// What the §6 document reads share: the caught-up graph and one
    /// catalogue guard ([`ModelLake::current_graph`]), under which `read`
    /// gets the model's entry and its measured evidence.
    fn with_evidence<R>(
        &self,
        model: ModelRef<'_>,
        read: impl FnOnce(&Catalogue, &ModelEntry, CardEvidence) -> Result<R>,
    ) -> Result<R> {
        let _span = mlake_obs::span("lake.evidence");
        let (graph, cat) = self.current_graph()?;
        let entry = cat.find(model)?;
        let arch = entry_architecture(entry)?;
        let mut applicable: Vec<(&String, &Option<String>)> = cat
            .registry
            .benchmarks
            .iter()
            .filter(|(_, e)| e.benchmark.applicable_to(&arch))
            .map(|(name, e)| (name, &e.domain))
            .collect();
        // Name order: the map's is arbitrary, and both the metric list and
        // the domain tie-break follow it.
        applicable.sort_by(|a, b| a.0.cmp(b.0));
        let mut measured = Vec::with_capacity(applicable.len());
        let mut best_domain: Option<(&String, f32)> = None;
        for (name, domain) in applicable {
            let score = self.score_on(&cat, entry.id, name)?;
            if let Some(d) = domain {
                let goodness = score.goodness();
                if best_domain.is_none_or(|(_, g)| goodness > g) {
                    best_domain = Some((d, goodness));
                }
            }
            measured.push(ReportedMetric {
                benchmark: score.benchmark,
                metric: score.metric,
                value: score.value,
            });
        }
        let (recovered_base, recovered_transform) = match graph.parent_edge(entry.id.0 as usize) {
            Some(e) => (
                cat.registry.model(ModelId(e.parent as u64)).map(|m| m.name.clone()),
                Some(e.kind.name().to_string()),
            ),
            None => (None, None),
        };
        let evidence = CardEvidence {
            measured_metrics: measured,
            recovered_base,
            recovered_transform,
            predicted_domain: best_domain.map(|(d, _)| d.clone()),
        };
        read(&cat, entry, evidence)
    }

    /// Auto-generates a model card from lake evidence — the §6 document-
    /// generation application. The result reflects what the lake can
    /// *measure*, independent of any uploaded documentation.
    pub fn generate_card<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<ModelCard> {
        let _span = mlake_obs::span("lake.card.generate");
        self.with_evidence(model.into(), |cat, entry, evidence| {
            let mut card = ModelCard::skeleton(&entry.name, &entry.arch);
            card.task_tags = vec![match entry_architecture(entry)? {
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
            card.created_at = cat.events.head();
            Ok(card)
        })
    }

    /// Verifies a model's *uploaded* card against measured evidence.
    pub fn verify_model_card<'a>(
        &self,
        model: impl Into<ModelRef<'a>>,
    ) -> Result<VerificationReport> {
        let _span = mlake_obs::span("lake.verify");
        self.with_evidence(model.into(), |_, entry, evidence| {
            Ok(verify_card(&entry.card, &evidence))
        })
    }

    /// Runs the standard audit questionnaire against a model.
    pub fn audit_model<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<AuditReport> {
        let _span = mlake_obs::span("lake.audit");
        self.with_evidence(model.into(), |_, entry, evidence| {
            Ok(run_audit(&entry.card, &evidence, &standard_questionnaire()))
        })
    }

    /// Generates a graph-timestamped citation (§6 Data and Model Citation).
    pub fn cite<'a>(&self, model: impl Into<ModelRef<'a>>) -> Result<Citation> {
        let _span = mlake_obs::span("lake.cite");
        // Path and timestamp come off one published graph: an ingest that
        // lands meanwhile cannot stamp this path with a newer graph's time.
        let (graph, cat) = self.current_graph()?;
        let entry = cat.find(model.into())?;
        Ok(Citation {
            model_name: entry.name.clone(),
            version_path: graph.path(&cat.registry, entry.id),
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
        self.catalogue().events.graph_timestamp()
    }

    /// Event-log snapshot.
    // lint: no-span — trivial accessor
    pub fn events(&self) -> Vec<crate::event::Event> {
        self.catalogue().events.events().to_vec()
    }

    /// Runs `read` on the `kind` fingerprint index caught up to `cat`
    /// (DESIGN.md §15). A kind's graph is built on that kind's first read;
    /// after that every built kind catches up together, inserting entries
    /// `[watermark .. registry len)` in id order, so each HNSW graph is the
    /// same however the models arrived, wherever the searches fell between
    /// them and whenever its kind was first read, and no read builds a graph
    /// it does not read. The fast path is one read probe; the catch-up opens
    /// `lake.index.build` with one child span per kind it inserts into.
    /// A build runs under the indexes' write guard, so searches of every
    /// kind wait for it. Deferring a kind's build saves its work only if
    /// that kind is never read; otherwise the same build runs later, on
    /// that kind's first read.
    fn with_index<R>(
        &self,
        cat: &Catalogue,
        kind: FingerprintKind,
        read: impl FnOnce(&HnswIndex) -> R,
    ) -> Result<R> {
        let models = &cat.registry.models;
        let want = kind as usize;
        if let Some(index) = &self.indexes.read()[want] {
            if index.len() == models.len() {
                return Ok(read(index));
            }
        }
        let catch_up = |index: &mut HnswIndex, k: usize| -> Result<()> {
            if index.len() < models.len() {
                let _span = mlake_obs::span(INDEX_BUILD_SPANS[k]);
                for e in &models[index.len()..] {
                    index.insert(e.id.0, &e.fps[k])?;
                }
            }
            Ok(())
        };
        let _span = mlake_obs::span("lake.index.build");
        let mut idx = self.indexes.write();
        // A concurrent search on the same catalogue may have caught part of
        // the suffix up, or built this kind.
        for (k, slot) in idx.iter_mut().enumerate() {
            if k != want {
                if let Some(index) = slot {
                    catch_up(index, k)?;
                }
            }
        }
        let index = idx[want].get_or_insert_with(|| HnswIndex::new(self.config.hnsw));
        catch_up(index, want)?;
        Ok(read(index))
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
    /// since an identical query last ran (see `crate::cache`). It runs on one
    /// catalogue guard, with the graph caught up to it when it compares
    /// `depth`.
    pub fn run(&self) -> Result<Vec<QueryHit>> {
        let _span = mlake_obs::span("lake.query.run");
        let (graph, cat) = match &self.query.filter {
            Some(filter) if names_field(filter, "depth") => {
                let (graph, cat) = self.lake.current_graph()?;
                (Some(graph), cat)
            }
            _ => (None, self.lake.catalogue()),
        };
        let key = CacheKey {
            query: CachedQuery::Mlql { text: self.text.clone() },
            generation: cat.events.head(),
        };
        if let Some(hits) = self.lake.mlql_cache.get(&key) {
            return Ok(hits);
        }
        let view = LakeView {
            lake: self.lake,
            cat: &cat,
            graph,
        };
        let hits = execute(&self.query, &view)?;
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

/// Whether the filter `expr` compares `field` anywhere.
fn names_field(expr: &mlake_query::Expr, field: &str) -> bool {
    use mlake_query::Expr;
    match expr {
        Expr::Cmp { field: f, .. } => f == field,
        Expr::And(a, b) | Expr::Or(a, b) => names_field(a, field) || names_field(b, field),
        Expr::Not(a) => names_field(a, field),
    }
}

/// The lake as MLQL sees it during one [`PreparedQuery::run`]. The executor
/// and the pool workers of its parallel scan read the caller's catalogue and
/// never lock it: a worker blocked behind a queued writer would deadlock.
struct LakeView<'a> {
    lake: &'a ModelLake,
    cat: &'a Catalogue,
    /// The caught-up version graph, when the query compares `depth`.
    graph: Option<Arc<PublishedGraph>>,
}

impl LakeView<'_> {
    fn id_of(&self, model: &str) -> std::result::Result<ModelId, QueryError> {
        let entry = self.cat.find(ModelRef::Name(model));
        entry.map(|e| e.id).map_err(|_| QueryError::UnknownEntity {
            kind: "model",
            name: model.into(),
        })
    }
}

impl QueryTarget for LakeView<'_> {
    fn all_models(&self) -> Vec<u64> {
        (0..self.cat.registry.models.len() as u64).collect()
    }

    fn field(&self, id: u64, field: &str) -> Option<FieldValue<'_>> {
        let entry = self.cat.registry.model(ModelId(id))?;
        if let Some(bench) = field.strip_prefix("score:") {
            // Benchmarks may be expensive; rely on the cache, computing on
            // demand when the benchmark exists.
            let score = self.lake.score_on(self.cat, ModelId(id), bench).ok()?;
            return Some(FieldValue::Num(f64::from(score.value)));
        }
        fn text(s: &str) -> FieldValue<'_> {
            FieldValue::Str(Cow::Borrowed(s))
        }
        fn list(l: &[String]) -> FieldValue<'_> {
            FieldValue::StrList(Cow::Borrowed(l))
        }
        match field {
            "name" => Some(text(&entry.name)),
            "arch" => Some(text(&entry.arch)),
            "params" => Some(FieldValue::Num(entry.params as f64)),
            "domain" => entry.card.domains.first().map(|d| text(d)),
            "domains" => Some(list(&entry.card.domains)),
            "task" | "tags" => Some(list(&entry.card.task_tags)),
            "transform" => entry.card.lineage.transform.as_deref().map(text),
            "base_model" => entry.card.lineage.base_model.as_deref().map(text),
            "completeness" => Some(FieldValue::Num(f64::from(entry.card.completeness()))),
            "depth" => {
                let graph = self.graph.as_ref()?;
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
        let id = self.id_of(model)?;
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
        self.lake
            .similar_on(self.cat, id, kind, k)
            .map(|v| v.into_iter().map(|(m, s)| (m.0, s)).collect())
            .map_err(|e| QueryError::Execution(e.to_string()))
    }

    fn text_search(&self, query: &str, k: usize) -> std::result::Result<Vec<(u64, f32)>, QueryError> {
        let hits = self.lake.text_on(self.cat, query, k);
        Ok(hits.into_iter().map(|(m, s)| (m.0, s)).collect())
    }

    fn trained_on(
        &self,
        dataset: &str,
        include_versions: bool,
    ) -> std::result::Result<Vec<u64>, QueryError> {
        let reg = &self.cat.registry;
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
        let id = self.id_of(model)?;
        let lb = self
            .lake
            .leaderboard_on(self.cat, benchmark)
            .map_err(|e| QueryError::Execution(e.to_string()))?;
        Ok(lb.outperformers(id.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read holds the catalogue once: taking it again on the same thread
    /// would deadlock behind a queued writer, so the debug token panics.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn a_nested_catalogue_acquisition_panics() {
        let lake = ModelLake::new(LakeConfig::default());
        let _read = lake.catalogue();
        let _again = lake.catalogue();
    }

    /// A read builds only the graph of the kind it reads; once built, a
    /// kind catches up with every later read of any kind.
    #[test]
    fn a_read_builds_only_the_graph_it_reads() {
        use mlake_datagen::{generate_lake, LakeSpec};
        let dir = std::env::temp_dir().join(format!("mlake-lake-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gt = generate_lake(&LakeSpec::tiny(9));
        let (old, new) = gt.models.split_at(gt.models.len() - 1);
        {
            let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
            for m in old {
                lake.ingest_model(&m.name, &m.model, None).unwrap();
            }
            lake.persist(&dir).unwrap();
        }
        let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        let built = |lake: &ModelLake| {
            let idx = lake.indexes.read();
            idx.each_ref().map(|slot| slot.as_ref().map(|index| index.len()))
        };
        assert_eq!(built(&lake), [None, None, None], "open builds no graph");
        lake.similar(ModelId(0), FingerprintKind::Hybrid, 3).unwrap();
        assert_eq!(built(&lake), [None, None, Some(old.len())]);
        lake.ingest_model(&new[0].name, &new[0].model, None).unwrap();
        lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
        let n = gt.models.len();
        assert_eq!(built(&lake), [Some(n), None, Some(n)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
