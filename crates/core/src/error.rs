//! Error type of the lake API.

use std::fmt;

/// Stable, exhaustive classification of every [`LakeError`], decoupling
/// *what went wrong* from the variant's diagnostic payload. Servers and
/// other wire layers dispatch on this (never on error strings); the
/// canonical HTTP mapping lives in `mlake-proto::status_for` and is
/// documented in DESIGN.md §14:
///
/// | kind           | HTTP | meaning                                        |
/// |----------------|------|------------------------------------------------|
/// | `NotFound`     | 404  | name/id/digest did not resolve                 |
/// | `Conflict`     | 409  | unique-name collision                          |
/// | `InvalidInput` | 400  | caller-supplied config/query/payload rejected  |
/// | `Corrupt`      | 500  | stored state failed integrity/decode checks    |
/// | `Unavailable`  | 503  | transient: I/O failure, broken WAL, shed load  |
/// | `Internal`     | 500  | lake bug — an internal invariant was violated  |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ErrorKind {
    /// A referenced entity does not exist.
    NotFound,
    /// The operation collides with existing state (duplicate name).
    Conflict,
    /// The caller's input (config, query, payload) was rejected.
    InvalidInput,
    /// Persistent state is damaged (checksum/decode/version failures).
    Corrupt,
    /// The operation cannot run right now but may succeed on retry
    /// (filesystem errors, a WAL that refuses writes until reopen).
    Unavailable,
    /// An internal invariant was violated — a bug in the lake itself.
    Internal,
}

impl ErrorKind {
    /// Stable lowercase label, used on the wire and in logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::NotFound => "not_found",
            ErrorKind::Conflict => "conflict",
            ErrorKind::InvalidInput => "invalid_input",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors surfaced by [`crate::ModelLake`] operations.
#[derive(Debug)]
pub enum LakeError {
    /// A model/dataset/benchmark name or id did not resolve.
    NotFound {
        /// Entity kind.
        kind: &'static str,
        /// The name or id used.
        name: String,
    },
    /// A name was already registered (names are unique within a lake).
    Duplicate {
        /// Entity kind.
        kind: &'static str,
        /// The conflicting name.
        name: String,
    },
    /// Invalid lake configuration rejected by
    /// [`crate::lake::LakeConfigBuilder::build`], or recovery options
    /// rejected by [`crate::ModelLake::rebuild_version_graph`].
    Config(String),
    /// Stored artifact failed integrity or decode checks.
    CorruptArtifact(String),
    /// A manifest's format version is not the one `open` reads: an older
    /// lake opens after `ModelLake::upgrade`, a newer one needs a newer build.
    UnsupportedManifest {
        /// Version found on disk.
        found: u32,
        /// The version this build opens.
        supported: u32,
    },
    /// Write-ahead log failure (append, recovery or compaction).
    Wal(mlake_wal::WalError),
    /// A numeric/shape failure bubbled up from the compute layers.
    Tensor(mlake_tensor::TensorError),
    /// MLQL parse/execution failure.
    Query(mlake_query::QueryError),
    /// Filesystem persistence failure.
    Io(std::io::Error),
    /// An internal invariant was violated (a lake bug, not a caller error);
    /// surfaced as an error rather than a panic so library callers can
    /// recover.
    Internal(String),
}

impl LakeError {
    /// Classifies this error into the stable [`ErrorKind`] taxonomy.
    ///
    /// The match is deliberately wildcard-free (including the nested
    /// `WalError`), so adding a variant to either enum is a compile error
    /// here — the wire mapping can never silently lag the error type.
    pub fn kind(&self) -> ErrorKind {
        match self {
            LakeError::NotFound { .. } => ErrorKind::NotFound,
            LakeError::Duplicate { .. } => ErrorKind::Conflict,
            LakeError::Config(_) => ErrorKind::InvalidInput,
            LakeError::CorruptArtifact(_) => ErrorKind::Corrupt,
            // Another manifest version is not damage, but this build cannot
            // serve the lake until one of them is upgraded — operationally
            // "try another node", hence Unavailable rather than Corrupt.
            LakeError::UnsupportedManifest { .. } => ErrorKind::Unavailable,
            LakeError::Wal(e) => match e {
                mlake_wal::WalError::Corrupt { .. } => ErrorKind::Corrupt,
                mlake_wal::WalError::Io(_) | mlake_wal::WalError::Broken => {
                    ErrorKind::Unavailable
                }
            },
            LakeError::Tensor(_) => ErrorKind::InvalidInput,
            LakeError::Query(_) => ErrorKind::InvalidInput,
            LakeError::Io(_) => ErrorKind::Unavailable,
            LakeError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::NotFound { kind, name } => write!(f, "{kind} not found: '{name}'"),
            LakeError::Duplicate { kind, name } => write!(f, "duplicate {kind}: '{name}'"),
            LakeError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            LakeError::CorruptArtifact(msg) => write!(f, "corrupt artifact: {msg}"),
            LakeError::UnsupportedManifest { found, supported } => write!(
                f,
                "manifest version {found}, this build opens {supported}: \
                 older: run `ModelLake::upgrade`; newer: use a newer build"
            ),
            LakeError::Wal(e) => write!(f, "wal error: {e}"),
            LakeError::Tensor(e) => write!(f, "compute error: {e}"),
            LakeError::Query(e) => write!(f, "query error: {e}"),
            LakeError::Io(e) => write!(f, "io error: {e}"),
            LakeError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for LakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LakeError::Tensor(e) => Some(e),
            LakeError::Query(e) => Some(e),
            LakeError::Io(e) => Some(e),
            LakeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mlake_tensor::TensorError> for LakeError {
    fn from(e: mlake_tensor::TensorError) -> Self {
        LakeError::Tensor(e)
    }
}

impl From<mlake_query::QueryError> for LakeError {
    fn from(e: mlake_query::QueryError) -> Self {
        LakeError::Query(e)
    }
}

impl From<std::io::Error> for LakeError {
    fn from(e: std::io::Error) -> Self {
        LakeError::Io(e)
    }
}

impl From<mlake_wal::WalError> for LakeError {
    fn from(e: mlake_wal::WalError) -> Self {
        LakeError::Wal(e)
    }
}

/// Lake result alias.
pub type Result<T> = std::result::Result<T, LakeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LakeError::NotFound {
            kind: "model",
            name: "ghost".into(),
        };
        assert!(e.to_string().contains("model not found"));
        let t: LakeError = mlake_tensor::TensorError::Empty("x").into();
        assert!(std::error::Error::source(&t).is_some());
        let q: LakeError = mlake_query::QueryError::Execution("y".into()).into();
        assert!(q.to_string().contains("query error"));
        let d = LakeError::Duplicate { kind: "model", name: "m".into() };
        assert!(d.to_string().contains("duplicate"));
        let u = LakeError::UnsupportedManifest {
            found: 9,
            supported: 2,
        };
        assert!(u.to_string().contains("version 9"));
        let w: LakeError = mlake_wal::WalError::Broken.into();
        assert!(w.to_string().contains("wal error"));
        assert!(std::error::Error::source(&w).is_some());
    }

    /// One constructed value per `LakeError` variant (and per nested
    /// `WalError` variant), each checked against its documented kind.
    /// Together with the wildcard-free match in `kind()`, this pins the
    /// full taxonomy: a new variant fails compilation there and a
    /// reclassified variant fails here.
    #[test]
    fn every_variant_has_a_stable_kind() {
        use ErrorKind::*;
        let io = || std::io::Error::other("disk on fire");
        let cases: Vec<(LakeError, ErrorKind)> = vec![
            (LakeError::NotFound { kind: "model", name: "ghost".into() }, NotFound),
            (LakeError::Duplicate { kind: "model", name: "twin".into() }, Conflict),
            (LakeError::Config("lake name must not be empty".into()), InvalidInput),
            (LakeError::CorruptArtifact("digest mismatch".into()), Corrupt),
            (LakeError::UnsupportedManifest { found: 9, supported: 2 }, Unavailable),
            (
                LakeError::Wal(mlake_wal::WalError::Corrupt {
                    segment: "seg-0001.wal".into(),
                    offset: 64,
                    detail: "bad crc".into(),
                }),
                Corrupt,
            ),
            (LakeError::Wal(mlake_wal::WalError::Io(io())), Unavailable),
            (LakeError::Wal(mlake_wal::WalError::Broken), Unavailable),
            (LakeError::Tensor(mlake_tensor::TensorError::Empty("x")), InvalidInput),
            (LakeError::Query(mlake_query::QueryError::Execution("y".into())), InvalidInput),
            (LakeError::Io(io()), Unavailable),
            (LakeError::Internal("generation went backwards".into()), Internal),
        ];
        for (err, want) in cases {
            assert_eq!(err.kind(), want, "{err}");
        }
        // The wire labels are stable, lowercase, and distinct.
        let kinds = [NotFound, Conflict, InvalidInput, Corrupt, Unavailable, Internal];
        let labels: std::collections::HashSet<&str> =
            kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels.len(), kinds.len());
        assert_eq!(NotFound.to_string(), "not_found");
    }
}
