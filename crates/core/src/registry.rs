//! The lake registry: models, datasets and benchmarks with their metadata.

use crate::hash::Digest;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_datagen::Dataset;
use std::collections::HashMap;

/// Stable model identifier within a lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model-{:04}", self.0)
    }
}

/// A reference to a model by any of its three identities: lake-local id,
/// unique name, or content digest. Every read on the
/// [`crate::ModelLake`] facade accepts `impl Into<ModelRef>`, so call
/// sites pass whichever identity they hold:
///
/// ```ignore
/// lake.model(id)?;                  // ModelId
/// lake.model("legal-mlp16-base")?;  // &str name
/// lake.model(&digest)?;             // &Digest content hash
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelRef<'a> {
    /// Lake-local identifier.
    Id(ModelId),
    /// Unique registered name.
    Name(&'a str),
    /// Content digest of the stored artifact.
    Digest(&'a Digest),
}

impl From<ModelId> for ModelRef<'static> {
    fn from(id: ModelId) -> Self {
        ModelRef::Id(id)
    }
}

impl<'a> From<&'a str> for ModelRef<'a> {
    fn from(name: &'a str) -> Self {
        ModelRef::Name(name)
    }
}

impl<'a> From<&'a String> for ModelRef<'a> {
    fn from(name: &'a String) -> Self {
        ModelRef::Name(name)
    }
}

impl<'a> From<&'a Digest> for ModelRef<'a> {
    fn from(digest: &'a Digest) -> Self {
        ModelRef::Digest(digest)
    }
}

impl std::fmt::Display for ModelRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelRef::Id(id) => write!(f, "{id}"),
            ModelRef::Name(n) => write!(f, "{n}"),
            ModelRef::Digest(d) => write!(f, "sha256:{}", d.short()),
        }
    }
}

/// Registry record of one model.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Identifier.
    pub id: ModelId,
    /// Unique name.
    pub name: String,
    /// Architecture signature.
    pub arch: String,
    /// Artifact digest in the blob store.
    pub digest: Digest,
    /// Parameter count.
    pub params: u64,
    /// Current model card.
    pub card: ModelCard,
    /// Free-form tags (task tags, hub labels).
    pub tags: Vec<String>,
    /// The intrinsic / extrinsic / hybrid fingerprints, in
    /// `FingerprintKind::ALL` order — their one in-memory home. Segments
    /// persist these bits, the vector indexes are built from them and
    /// `similar` anchors on them; nothing recomputes them after ingest.
    /// Shared, so cloning an entry does not copy the vectors.
    pub fps: std::sync::Arc<[Vec<f32>; 3]>,
}

/// Registry record of one benchmark (with optional domain label used by
/// domain prediction).
#[derive(Debug, Clone)]
pub struct BenchmarkEntry {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Domain it probes, when domain-specific.
    pub domain: Option<String>,
}

/// The mutable registry state.
#[derive(Debug, Default)]
pub struct Registry {
    /// Models by id.
    pub models: Vec<ModelEntry>,
    /// Name → id.
    pub by_name: HashMap<String, ModelId>,
    /// Registered datasets.
    pub datasets: Vec<Dataset>,
    /// Registered benchmarks by name.
    pub benchmarks: HashMap<String, BenchmarkEntry>,
}

impl Registry {
    /// Looks up a model entry by id.
    pub fn model(&self, id: ModelId) -> Option<&ModelEntry> {
        self.models.get(id.0 as usize)
    }

    /// Mutable lookup.
    pub fn model_mut(&mut self, id: ModelId) -> Option<&mut ModelEntry> {
        self.models.get_mut(id.0 as usize)
    }

    /// Resolves a model name.
    pub fn id_of(&self, name: &str) -> Option<ModelId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a dataset by name.
    pub fn dataset_by_name(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Datasets derived (transitively) from the named dataset, including it.
    pub fn dataset_version_closure(&self, name: &str) -> Vec<&Dataset> {
        let Some(root) = self.dataset_by_name(name) else {
            return Vec::new();
        };
        let mut ids = vec![root.id];
        loop {
            let before = ids.len();
            for d in &self.datasets {
                if let Some(p) = d.parent {
                    if ids.contains(&p) && !ids.contains(&d.id) {
                        ids.push(d.id);
                    }
                }
            }
            if ids.len() == before {
                break;
            }
        }
        self.datasets.iter().filter(|d| ids.contains(&d.id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_datagen::{DatasetId, DatasetKind, Domain};

    fn ds(id: u64, name: &str, parent: Option<u64>) -> Dataset {
        Dataset {
            id: DatasetId(id),
            name: name.into(),
            domain: Domain::new("legal"),
            kind: DatasetKind::Corpus(vec![0, 1, 2]),
            parent: parent.map(DatasetId),
            derived_by: None,
        }
    }

    #[test]
    fn version_closure_walks_chains() {
        let mut reg = Registry::default();
        reg.datasets.push(ds(0, "v1", None));
        reg.datasets.push(ds(1, "v2", Some(0)));
        reg.datasets.push(ds(2, "v3", Some(1)));
        reg.datasets.push(ds(3, "other", None));
        let closure = reg.dataset_version_closure("v1");
        let names: Vec<&str> = closure.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["v1", "v2", "v3"]);
        assert!(reg.dataset_version_closure("ghost").is_empty());
        assert_eq!(reg.dataset_version_closure("other").len(), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(ModelId(3).to_string(), "model-0003");
    }
}
