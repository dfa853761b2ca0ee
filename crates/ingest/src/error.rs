//! The ingestion error type.

use std::fmt;
use std::path::{Path, PathBuf};

use gnnie_graph::GraphBuildError;

/// Anything that can go wrong between a path on disk and a runnable
/// [`gnnie_graph::GraphDataset`].
///
/// Parse errors carry the path and 1-based line number so a malformed
/// million-line edge list is diagnosable without a binary search.
#[derive(Debug)]
pub enum IngestError {
    /// An I/O failure on `path`.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying error, stringified.
        msg: String,
    },
    /// A malformed line in a text edge list.
    Parse {
        /// The file being parsed.
        path: PathBuf,
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The file's format could not be determined or is unsupported.
    Format(String),
    /// A `.gnniecsr` snapshot is truncated, corrupted, has a
    /// checksum mismatch, or an unsupported version.
    Snapshot(String),
    /// The parsed edges do not form a valid graph.
    Graph(GraphBuildError),
}

impl IngestError {
    /// Helper: an [`IngestError::Io`] for `path`.
    pub fn io(path: &Path, err: impl fmt::Display) -> Self {
        IngestError::Io { path: path.to_path_buf(), msg: err.to_string() }
    }

    /// Helper: an [`IngestError::Parse`] at `line` (1-based) of `path`.
    pub fn parse(path: &Path, line: usize, msg: impl Into<String>) -> Self {
        IngestError::Parse { path: path.to_path_buf(), line, msg: msg.into() }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            IngestError::Parse { path, line, msg } => {
                write!(f, "{}:{line}: {msg}", path.display())
            }
            IngestError::Format(msg) => write!(f, "unrecognized format: {msg}"),
            IngestError::Snapshot(msg) => write!(f, "bad snapshot: {msg}"),
            IngestError::Graph(err) => write!(f, "malformed graph: {err}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<GraphBuildError> for IngestError {
    fn from(err: GraphBuildError) -> Self {
        IngestError::Graph(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_name_path_and_line() {
        let err = IngestError::parse(Path::new("data/cora.edges"), 17, "expected 2 fields");
        let s = err.to_string();
        assert!(s.contains("cora.edges"), "{s}");
        assert!(s.contains(":17:"), "{s}");
        assert!(s.contains("expected 2 fields"), "{s}");
    }

    #[test]
    fn graph_errors_convert() {
        let err: IngestError =
            GraphBuildError::VertexOutOfRange { edge_index: 3, vertex: 9, num_vertices: 4 }
                .into();
        assert!(err.to_string().contains("vertex id 9"), "{err}");
    }
}
