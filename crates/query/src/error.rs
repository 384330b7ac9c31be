//! MLQL error type.

use std::fmt;

/// Errors from parsing or executing an MLQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte position in the input.
        position: usize,
        /// Description.
        message: String,
    },
    /// Parse error with the offending token.
    Parse {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// A referenced entity does not exist in the lake.
    UnknownEntity {
        /// Entity kind ("model", "dataset", "benchmark", "field").
        kind: &'static str,
        /// The name used.
        name: String,
    },
    /// Execution failed downstream (index/benchmark error).
    Execution(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            QueryError::Parse { expected, found } => {
                write!(f, "parse error: expected {expected}, found {found}")
            }
            QueryError::UnknownEntity { kind, name } => {
                write!(f, "unknown {kind}: '{name}'")
            }
            QueryError::Execution(msg) => write!(f, "execution error: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = QueryError::Parse {
            expected: "LIMIT".into(),
            found: "'legal'".into(),
        };
        assert!(e.to_string().contains("expected LIMIT"));
        assert!(QueryError::UnknownEntity {
            kind: "model",
            name: "x".into()
        }
        .to_string()
        .contains("unknown model"));
        assert!(QueryError::Lex {
            position: 3,
            message: "bad char".into()
        }
        .to_string()
        .contains("byte 3"));
        assert!(QueryError::Execution("boom".into())
            .to_string()
            .contains("boom"));
    }
}
