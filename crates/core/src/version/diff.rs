//! Commit diffs (§4.2: "for each version, a commit diff file is also
//! stored per tensor. This makes it faster to compare across versions and
//! branches").
//!
//! A diff names rows, and rows change in runs: every append lands at the
//! end of the tensor, so the rows a version added are ONE run however many
//! there are, and updates are scattered singletons. [`RowSet`] therefore
//! holds runs, not rows, and `commit_diff.json` stores them —
//! `{"added":[[0,16384]],"updated":[[7,8]]}`, each pair a half-open
//! `[start, end)` — so writing the file on a flush costs what the version's
//! shape costs (one run), not what its row count costs. Datasets written
//! before runs existed hold flat row arrays (`{"added":[0,1,2],..}`);
//! [`CommitDiff::from_json`] still reads them and the next flush rewrites
//! the file in run form.

use serde::{Deserialize, Serialize, Value};

use crate::{CoreError, Result};

/// A set of row indices, held as sorted, disjoint, non-adjacent half-open
/// runs `[start, end)`. Every operation costs in runs, never in rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSet {
    runs: Vec<(u64, u64)>,
}

impl RowSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring arbitrary non-empty runs into the canonical form: sorted,
    /// overlapping and adjacent ones coalesced.
    fn from_runs(mut runs: Vec<(u64, u64)>) -> Self {
        runs.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (start, end) in runs {
            match out.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => out.push((start, end)),
            }
        }
        RowSet { runs: out }
    }

    /// Add one row. Appending the row after the last run's end — the only
    /// thing the write path does to `added` — extends that run in place.
    ///
    /// # Panics
    /// On `u64::MAX`, which is a length and never a row index.
    pub fn insert(&mut self, row: u64) {
        let end = row
            .checked_add(1)
            .expect("u64::MAX is a length, never a row index");
        // the first run ending at or after `row`: the only one that can
        // hold it or touch it from the left
        let i = self.runs.partition_point(|r| r.1 < row);
        match self.runs.get(i).copied() {
            Some((start, stop)) if start <= row => {
                if stop == row {
                    self.runs[i].1 = end;
                    if self.runs.get(i + 1).is_some_and(|next| next.0 == end) {
                        self.runs[i].1 = self.runs.remove(i + 1).1;
                    }
                }
            }
            Some((start, _)) if start == end => self.runs[i].0 = row,
            _ => self.runs.insert(i, (row, end)),
        }
    }

    /// Whether `row` is in the set (a binary search over the runs).
    pub fn contains(&self, row: u64) -> bool {
        let i = self.runs.partition_point(|r| r.1 <= row);
        self.runs.get(i).is_some_and(|r| r.0 <= row)
    }

    /// Number of rows. Disjoint runs inside `0..u64::MAX` cannot sum past
    /// `u64::MAX`.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.1 - r.0).sum()
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs, ascending.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Every row, ascending. O(rows): for sets known to be small
    /// (`updated`), never for `added`.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|&(start, end)| start..end)
    }

    /// Union `other` into this set.
    pub fn merge_from(&mut self, other: &RowSet) {
        let mut runs = std::mem::take(&mut self.runs);
        runs.extend_from_slice(&other.runs);
        *self = RowSet::from_runs(runs);
    }

    /// Remove every row of `other` from this set.
    fn subtract(&mut self, other: &RowSet) {
        let mut out = Vec::with_capacity(self.runs.len());
        for &(mut start, end) in &self.runs {
            // the cuts that overlap this run, ascending
            let first = other.runs.partition_point(|cut| cut.1 <= start);
            for &(cut_start, cut_end) in other.runs[first..].iter().take_while(|cut| cut.0 < end) {
                if cut_start > start {
                    out.push((start, cut_start));
                }
                start = cut_end;
            }
            if start < end {
                out.push((start, end));
            }
        }
        self.runs = out;
    }
}

impl FromIterator<u64> for RowSet {
    fn from_iter<T: IntoIterator<Item = u64>>(rows: T) -> Self {
        let mut set = RowSet::new();
        for row in rows {
            set.insert(row);
        }
        set
    }
}

impl Serialize for RowSet {
    fn to_value(&self) -> Value {
        self.runs.to_value()
    }
}

/// Reads bytes this program may not have written. Costs O(elements of the
/// array), never O(rows): `[[0, 18446744073709551615]]` is one run. Each
/// element is a `[start, end]` pair or — the format before runs — a bare
/// row number `n`, read as `[n, n + 1]`. REFUSED: a pair whose length is
/// not 2, a pair with `start >= end` (this writer never stores an empty or
/// inverted run, so it is damage, not data), the row number `u64::MAX`,
/// and anything that is not an unsigned integer. NORMALISED to the
/// canonical form: unsorted, overlapping or adjacent runs and arrays
/// mixing numbers with pairs — all are unambiguous descriptions of a set,
/// and the legacy form is adjacent singletons by construction.
impl Deserialize for RowSet {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let items = v
            .as_array()
            .ok_or_else(|| serde::Error::custom(format!("expected array, got {}", v.kind())))?;
        let mut runs = Vec::with_capacity(items.len());
        for item in items {
            let (start, end) = match item {
                Value::Array(_) => <(u64, u64)>::from_value(item)?,
                row => {
                    let row = u64::from_value(row)?;
                    // u64::MAX has no successor and falls to the refusal below
                    (row, row.saturating_add(1))
                }
            };
            if start >= end {
                return Err(serde::Error::custom(format!(
                    "[{start}, {end}) is not a run of rows"
                )));
            }
            runs.push((start, end));
        }
        Ok(RowSet::from_runs(runs))
    }
}

/// What one version changed in one tensor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitDiff {
    /// Rows appended in this version (row indices are dataset-global).
    pub added: RowSet,
    /// Rows updated in place in this version.
    pub updated: RowSet,
}

impl CommitDiff {
    /// Empty diff.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.updated.is_empty()
    }

    /// Fold another diff into this one (accumulating along a branch path).
    pub fn merge_from(&mut self, other: &CommitDiff) {
        self.added.merge_from(&other.added);
        self.updated.merge_from(&other.updated);
        // a row both added and updated along the path counts as added
        self.updated.subtract(&self.added);
    }

    /// Serialize to JSON: `{"added":[[0,16384]],"updated":[[7,8]]}`.
    pub fn to_json(&self) -> Result<Vec<u8>> {
        Ok(serde_json::to_vec(self)?)
    }

    /// Parse from JSON, in run form or the older flat-array form; see
    /// [`RowSet`]'s `Deserialize` for what is refused and what is
    /// normalised. Anything refused is [`CoreError::Corrupt`].
    pub fn from_json(data: &[u8]) -> Result<Self> {
        serde_json::from_slice(data)
            .map_err(|e| CoreError::Corrupt(format!("commit_diff.json: {e}")))
    }
}

/// Per-tensor entry of a [`DiffSummary`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorDiff {
    /// Tensor name.
    pub tensor: String,
    /// Rows added between the two versions.
    pub rows_added: u64,
    /// Rows updated between the two versions.
    pub rows_updated: u64,
}

/// User-facing summary of `diff(a, b)`: changes on each side relative to
/// the merge base.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffSummary {
    /// Merge base the two sides are compared against.
    pub base: String,
    /// Changes on the first side since the base.
    pub left: Vec<TensorDiff>,
    /// Changes on the second side since the base.
    pub right: Vec<TensorDiff>,
}

impl DiffSummary {
    /// Whether both sides are identical to the base.
    pub fn is_empty(&self) -> bool {
        self.left
            .iter()
            .all(|d| d.rows_added == 0 && d.rows_updated == 0)
            && self
                .right
                .iter()
                .all(|d| d.rows_added == 0 && d.rows_updated == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rows: impl IntoIterator<Item = u64>) -> RowSet {
        rows.into_iter().collect()
    }

    #[test]
    fn merge_from_accumulates() {
        let mut a = CommitDiff::new();
        a.added = set([1, 2]);
        let mut b = CommitDiff::new();
        b.added.insert(3);
        b.updated = set([1, 9]);
        a.merge_from(&b);
        assert_eq!(a.added.runs(), [(1, 4)]);
        // row 1 was added earlier on the same path -> not an update
        assert_eq!(a.updated.runs(), [(9, 10)]);
    }

    #[test]
    fn empty_checks() {
        assert!(CommitDiff::new().is_empty());
        let mut d = CommitDiff::new();
        d.updated.insert(0);
        assert!(!d.is_empty());
        assert!(DiffSummary::default().is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let mut d = CommitDiff::new();
        d.added = set([5, 6]);
        d.updated.insert(1);
        let json = d.to_json().unwrap();
        assert_eq!(json, br#"{"added":[[5,7]],"updated":[[1,2]]}"#);
        assert_eq!(CommitDiff::from_json(&json).unwrap(), d);
    }

    #[test]
    fn insert_coalesces_and_contains_searches() {
        let mut s = RowSet::new();
        for row in [10, 12, 11, 11, 9, 20, 13, 0] {
            s.insert(row);
        }
        assert_eq!(s.runs(), [(0, 1), (9, 14), (20, 21)]);
        assert_eq!(s.len(), 7);
        for row in [0, 9, 13, 20] {
            assert!(s.contains(row), "{row}");
        }
        for row in [1, 8, 14, 19, 21, u64::MAX] {
            assert!(!s.contains(row), "{row}");
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 9, 10, 11, 12, 13, 20]);
    }

    #[test]
    fn added_wins_over_updated_run_wise() {
        let runs = |added: &[(u64, u64)], updated: &[(u64, u64)]| {
            let mut d = CommitDiff {
                added: RowSet::from_runs(added.to_vec()),
                updated: RowSet::new(),
            };
            d.merge_from(&CommitDiff {
                added: RowSet::new(),
                updated: RowSet::from_runs(updated.to_vec()),
            });
            d.updated.runs().to_vec()
        };
        // cut inside, at both edges, across two runs, and missing entirely
        assert_eq!(runs(&[(3, 5)], &[(0, 10)]), [(0, 3), (5, 10)]);
        assert_eq!(runs(&[(0, 2), (8, 12)], &[(0, 10)]), [(2, 8)]);
        assert_eq!(
            runs(&[(4, 20)], &[(0, 6), (8, 9), (18, 25)]),
            [(0, 4), (20, 25)]
        );
        assert_eq!(runs(&[(0, 100)], &[(5, 6), (50, 60)]), []);
        assert_eq!(runs(&[(50, 60)], &[(5, 6), (70, 71)]), [(5, 6), (70, 71)]);
    }

    /// The widest run there is decodes in constant time (this test would
    /// not finish otherwise) and counts without overflow.
    #[test]
    fn widest_run_is_one_run() {
        let d =
            CommitDiff::from_json(br#"{"added":[[0,18446744073709551615]],"updated":[]}"#).unwrap();
        assert_eq!(d.added.runs(), [(0, u64::MAX)]);
        assert_eq!(d.added.len(), u64::MAX);
        assert!(d.added.contains(u64::MAX - 1));
        assert_eq!(CommitDiff::from_json(&d.to_json().unwrap()).unwrap(), d);
    }

    #[test]
    fn decoder_refuses_or_normalises_each_malformed_shape() {
        let added = |json: &str| {
            CommitDiff::from_json(format!(r#"{{"added":{json},"updated":[]}}"#).as_bytes())
                .map(|d| d.added.runs().to_vec())
        };
        // refused, each as Corrupt
        for bad in [
            "[[5,5]]",
            "[[6,5]]",
            "[[1]]",
            "[[1,2,3]]",
            "[[]]",
            "[18446744073709551615]",
            "[-1]",
            "[1.5]",
            r#"["1"]"#,
            "[[0,1],null]",
            "{}",
            "3",
        ] {
            assert!(matches!(added(bad), Err(CoreError::Corrupt(_))), "{bad}");
        }
        for missing in [r#"{"added":[]}"#, r#"{"updated":[]}"#, "[]", "", "{"] {
            let got = CommitDiff::from_json(missing.as_bytes());
            assert!(matches!(got, Err(CoreError::Corrupt(_))), "{missing}");
        }
        // normalised: unsorted, overlapping, adjacent, legacy, mixed
        assert_eq!(added("[[8,9],[0,2]]").unwrap(), [(0, 2), (8, 9)]);
        assert_eq!(added("[[0,5],[3,9],[4,6]]").unwrap(), [(0, 9)]);
        assert_eq!(added("[[0,2],[2,4]]").unwrap(), [(0, 4)]);
        assert_eq!(added("[0,1,2,7,9,8,2]").unwrap(), [(0, 3), (7, 10)]);
        assert_eq!(added("[3,[4,6],[0,2],2]").unwrap(), [(0, 6)]);
    }

    /// A version of 12 appended rows with two updates as the serializer
    /// before runs wrote it (`BTreeSet<u64>` fields): pinned, since that
    /// writer no longer exists to regenerate it.
    const LEGACY: &str =
        r#"{"added":[100,101,102,103,104,105,106,107,108,109,110,111],"updated":[7,42]}"#;

    #[test]
    fn legacy_flat_arrays_still_read() {
        let d = CommitDiff::from_json(LEGACY.as_bytes()).unwrap();
        assert_eq!(d.added.runs(), [(100, 112)]);
        assert_eq!(d.updated.runs(), [(7, 8), (42, 43)]);
        assert_eq!(
            d.to_json().unwrap(),
            br#"{"added":[[100,112]],"updated":[[7,8],[42,43]]}"#
        );
    }

    /// Every truncation and every single-byte mutation of three stored
    /// files is refused or decodes to a canonical set (one that survives
    /// `serialize -> parse` unchanged) — never a panic, never a hang.
    #[test]
    fn truncations_and_byte_mutations_are_refused_or_canonical() {
        let one_run = CommitDiff {
            added: RowSet::from_runs(vec![(0, 16_384)]),
            updated: RowSet::new(),
        };
        let singletons = CommitDiff {
            added: RowSet::new(),
            updated: (0..40).map(|i| i * 977 + 3).collect(),
        };
        let check = |data: &[u8]| {
            if let Ok(d) = CommitDiff::from_json(data) {
                for s in [&d.added, &d.updated] {
                    assert!(s.runs().iter().all(|r| r.0 < r.1), "{s:?}");
                    assert!(s.runs().windows(2).all(|w| w[0].1 < w[1].0), "{s:?}");
                }
                assert_eq!(CommitDiff::from_json(&d.to_json().unwrap()).unwrap(), d);
            }
        };
        for base in [
            one_run.to_json().unwrap(),
            singletons.to_json().unwrap(),
            LEGACY.as_bytes().to_vec(),
        ] {
            assert!(CommitDiff::from_json(&base).is_ok());
            for cut in 0..base.len() {
                check(&base[..cut]);
            }
            let mut data = base.clone();
            for at in 0..base.len() {
                for byte in 0..=u8::MAX {
                    data[at] = byte;
                    check(&data);
                }
                data[at] = base[at];
            }
        }
    }

    #[test]
    fn append_only_diff_size_is_independent_of_row_count() {
        let size = |rows: u64| {
            let mut d = CommitDiff::new();
            (0..rows).for_each(|r| d.added.insert(r));
            d.to_json().unwrap().len()
        };
        assert_eq!(size(1_000), size(9_999));
        assert!(size(1_000_000) <= size(1_000) + 3);
    }
}
