//! Core layer error type.

use deeplake_codec::CodecError;
use deeplake_format::FormatError;
use deeplake_storage::StorageError;
use deeplake_tensor::TensorError;

/// Errors surfaced by the dataset layer.
#[derive(Debug)]
pub enum CoreError {
    /// A tensor name was not found in the dataset.
    NoSuchTensor(String),
    /// A tensor with this name already exists.
    TensorExists(String),
    /// A row index was out of range.
    RowOutOfRange {
        /// Requested row.
        row: u64,
        /// Dataset length.
        len: u64,
    },
    /// A version/branch/commit reference could not be resolved.
    NoSuchVersion(String),
    /// A branch with this name already exists.
    BranchExists(String),
    /// The dataset is checked out at a historical commit and cannot be
    /// written.
    ReadOnlyVersion,
    /// Merge found conflicting updates and the policy was
    /// [`crate::version::merge::MergePolicy::Fail`].
    MergeConflict {
        /// Sample ids updated on both sides.
        sample_ids: Vec<u64>,
    },
    /// A linked sample's pointer could not be resolved.
    LinkResolution(String),
    /// Malformed dataset structure on storage.
    Corrupt(String),
    /// Storage layer failure.
    Storage(StorageError),
    /// Format layer failure.
    Format(FormatError),
    /// Tensor layer failure.
    Tensor(TensorError),
    /// Codec failure.
    Codec(CodecError),
    /// Vector index failure.
    Index(deeplake_index::IndexError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoSuchTensor(n) => write!(f, "no such tensor: {n}"),
            CoreError::TensorExists(n) => write!(f, "tensor already exists: {n}"),
            CoreError::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range for dataset of length {len}")
            }
            CoreError::NoSuchVersion(v) => write!(f, "no such version: {v}"),
            CoreError::BranchExists(b) => write!(f, "branch already exists: {b}"),
            CoreError::ReadOnlyVersion => {
                write!(
                    f,
                    "dataset is checked out at a historical commit (read-only)"
                )
            }
            CoreError::MergeConflict { sample_ids } => {
                write!(f, "merge conflict on {} sample(s)", sample_ids.len())
            }
            CoreError::LinkResolution(msg) => write!(f, "link resolution failed: {msg}"),
            CoreError::Corrupt(msg) => write!(f, "corrupt dataset: {msg}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Format(e) => write!(f, "format error: {e}"),
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Codec(e) => write!(f, "codec error: {e}"),
            CoreError::Index(e) => write!(f, "vector index error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// A read of a file a dataset may lawfully lack (written by a later
/// format generation, or only when there is something to record): only
/// [`StorageError::NotFound`] means absent. Any other failure — an I/O
/// error, an overloaded hub's `Busy` — is the caller's error, never an
/// empty default that the next flush would write back over the real file.
pub(crate) fn optional<T>(read: Result<T, StorageError>) -> crate::Result<Option<T>> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(StorageError::NotFound(_)) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}
impl From<FormatError> for CoreError {
    fn from(e: FormatError) -> Self {
        CoreError::Format(e)
    }
}
impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}
impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Codec(e)
    }
}
impl From<deeplake_index::IndexError> for CoreError {
    fn from(e: deeplake_index::IndexError) -> Self {
        CoreError::Index(e)
    }
}
impl From<serde_json::Error> for CoreError {
    fn from(e: serde_json::Error) -> Self {
        // stored metadata that does not parse is a malformed dataset
        CoreError::Corrupt(format!("metadata json: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_display() {
        let e: CoreError = StorageError::ReadOnly.into();
        assert!(e.to_string().contains("storage"));
        let e: CoreError = TensorError::UnknownName("q".into()).into();
        assert!(e.to_string().contains("tensor"));
        assert!(CoreError::MergeConflict {
            sample_ids: vec![1, 2]
        }
        .to_string()
        .contains("2 sample"));
    }
}
