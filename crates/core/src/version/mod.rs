//! Version control built into the format (§4.2).
//!
//! "Different versions of the dataset exist in the same storage, separated
//! by sub-directories. [...] A version control info file present at the
//! root of the directory keeps track of the relationship between these
//! versions as a branching version-control tree."
//!
//! * [`tree`] — the version tree (nodes, branches, LCA, ref resolution).
//! * [`diff`] — per-tensor commit diffs and user-facing diff summaries.
//! * [`merge`] — merge policies.

pub mod diff;
pub mod merge;
pub mod tree;

pub use diff::{CommitDiff, DiffSummary, RowSet, TensorDiff};
pub use merge::MergePolicy;
pub use tree::{VersionNode, VersionTree};

/// Key of the version control info file at the dataset root.
pub const VERSION_INFO_KEY: &str = "version_control_info.json";

/// Storage prefix of one version's sub-directory.
pub fn version_prefix(node_id: &str) -> String {
    format!("versions/{node_id}")
}

/// Storage prefix of one tensor within one version.
pub fn tensor_prefix(node_id: &str, tensor: &str) -> String {
    format!("versions/{node_id}/{tensor}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes() {
        assert_eq!(version_prefix("v000001"), "versions/v000001");
        assert_eq!(
            tensor_prefix("v000001", "images"),
            "versions/v000001/images"
        );
    }
}
