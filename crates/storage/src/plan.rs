//! Read plans: batched scatter-gather storage I/O.
//!
//! The paper's streaming numbers (§3.5, §4.6) come from overlapping many
//! concurrent range requests against object storage. A single-key
//! `get`/`get_range` API forces one round trip per chunk; a [`ReadPlan`]
//! instead carries *all* the reads one loader task needs, and lets the
//! provider
//!
//! * **coalesce** — adjacent/overlapping ranges on the same key (and
//!   ranges within [`ReadPlan::gap_tolerance`] bytes of each other) merge
//!   into one backend fetch, and any whole-object request subsumes every
//!   range on that key;
//! * **parallelize / amortize** — [`crate::LocalProvider`] fans fetches
//!   out over scoped threads, [`crate::SimulatedCloudProvider`] charges a
//!   single amortized first-byte latency per batch, and
//!   [`crate::LruCacheProvider`] fills all misses with one base batch and
//!   a single eviction pass.
//!
//! The planning logic lives here so every provider — including
//! third-party ones that only implement the single-key methods — shares
//! one implementation of merge and scatter-back (see
//! [`ReadPlan::coalesce`] and [`CoalescedFetch::distribute`]).

use bytes::Bytes;

use crate::error::StorageError;
use crate::Result;

/// Gap (in bytes) below which two ranges on one key are merged into a
/// single backend fetch. Mirrors the classic object-store heuristic that
/// re-reading a small gap is cheaper than a second round trip.
pub const DEFAULT_GAP_TOLERANCE: u64 = 4096;

/// One logical read: a whole object or a byte range of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequest {
    /// Object key.
    pub key: String,
    /// `None` = whole object; `Some((start, end))` = byte range, end
    /// exclusive, clamped to the object length like
    /// [`crate::StorageProvider::get_range`].
    pub range: Option<(u64, u64)>,
}

impl ReadRequest {
    /// Request a whole object.
    pub fn whole(key: impl Into<String>) -> Self {
        ReadRequest {
            key: key.into(),
            range: None,
        }
    }

    /// Request `start..end` (end exclusive) of an object.
    pub fn range(key: impl Into<String>, start: u64, end: u64) -> Self {
        ReadRequest {
            key: key.into(),
            range: Some((start, end)),
        }
    }
}

/// A batch of logical reads a provider may coalesce and parallelize.
#[derive(Debug, Clone, Default)]
pub struct ReadPlan {
    requests: Vec<ReadRequest>,
    gap_tolerance: u64,
}

impl ReadPlan {
    /// An empty plan with the default gap tolerance.
    pub fn new() -> Self {
        ReadPlan {
            requests: Vec::new(),
            gap_tolerance: DEFAULT_GAP_TOLERANCE,
        }
    }

    /// An empty plan merging ranges separated by up to `gap` bytes
    /// (`0` = only adjacent/overlapping ranges merge).
    pub fn with_gap_tolerance(gap: u64) -> Self {
        ReadPlan {
            requests: Vec::new(),
            gap_tolerance: gap,
        }
    }

    /// Append a whole-object read; returns the request's index.
    pub fn whole(&mut self, key: impl Into<String>) -> usize {
        self.push(ReadRequest::whole(key))
    }

    /// Append a byte-range read; returns the request's index.
    pub fn range(&mut self, key: impl Into<String>, start: u64, end: u64) -> usize {
        self.push(ReadRequest::range(key, start, end))
    }

    /// Append any request; returns its index (results are positional).
    pub fn push(&mut self, request: ReadRequest) -> usize {
        self.requests.push(request);
        self.requests.len() - 1
    }

    /// The logical requests, in insertion order.
    pub fn requests(&self) -> &[ReadRequest] {
        &self.requests
    }

    /// Number of logical requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the plan holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The configured merge gap.
    pub fn gap_tolerance(&self) -> u64 {
        self.gap_tolerance
    }

    /// Compute the minimal set of backend fetches covering every request.
    ///
    /// Per key (in first-appearance order): a whole-object request
    /// subsumes all ranges on that key into one whole-object fetch;
    /// otherwise ranges are sorted and merged whenever the next range
    /// starts within `gap_tolerance` bytes of the current span's end.
    /// An *inverted* range (`start > end`) never merges — it becomes its
    /// own degenerate fetch so the backend rejects it exactly as the
    /// single-key path would, without poisoning neighbouring requests.
    ///
    /// A plan of whole-object requests whose keys strictly ascend — what
    /// `Dataset::prefetch` emits for one tensor's sorted, deduplicated
    /// chunk ids — has nothing to group: its keys are distinct, so it is
    /// one fetch per request, in order, found without hashing a key.
    /// Every other plan takes the grouping path. Both give the same
    /// fetches for any plan the first accepts.
    pub fn coalesce(&self) -> Vec<CoalescedFetch<'_>> {
        self.distinct_whole().unwrap_or_else(|| self.grouped())
    }

    /// [`coalesce`](Self::coalesce)'s fast path: `Some` only for a plan
    /// of whole-object requests in strictly ascending key order.
    fn distinct_whole(&self) -> Option<Vec<CoalescedFetch<'_>>> {
        let accepted = self.requests.iter().all(|r| r.range.is_none())
            && self.requests.windows(2).all(|w| w[0].key < w[1].key);
        accepted.then(|| {
            self.requests
                .iter()
                .enumerate()
                .map(|(i, r)| CoalescedFetch {
                    key: &r.key,
                    range: None,
                    parts: vec![FetchPart {
                        request_index: i,
                        offset: 0,
                        len: None,
                    }],
                })
                .collect()
        })
    }

    /// [`coalesce`](Self::coalesce)'s grouping path: requests grouped by
    /// key, any plan.
    fn grouped(&self) -> Vec<CoalescedFetch<'_>> {
        // group request indices by key, keeping first-appearance order
        let mut key_order: Vec<&str> = Vec::new();
        let mut by_key: std::collections::HashMap<&str, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, r) in self.requests.iter().enumerate() {
            by_key
                .entry(r.key.as_str())
                .or_insert_with(|| {
                    key_order.push(&r.key);
                    Vec::new()
                })
                .push(i);
        }
        let mut fetches = Vec::new();
        for key in key_order {
            let indices = &by_key[key];
            // inverted ranges keep single-key error semantics: issue them
            // verbatim so the backend reports RangeOutOfBounds itself
            for &i in indices {
                if matches!(self.requests[i].range, Some((s, e)) if s > e) {
                    let (s, e) = self.requests[i].range.expect("matched Some");
                    fetches.push(CoalescedFetch {
                        key,
                        range: Some((s, e)),
                        parts: vec![FetchPart {
                            request_index: i,
                            offset: 0,
                            len: Some(0),
                        }],
                    });
                }
            }
            let valid: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| !matches!(self.requests[i].range, Some((s, e)) if s > e))
                .collect();
            if valid.is_empty() {
                continue;
            }
            if valid.iter().any(|&i| self.requests[i].range.is_none()) {
                // one whole-object fetch serves everything on this key
                let parts = valid
                    .iter()
                    .map(|&i| match self.requests[i].range {
                        None => FetchPart {
                            request_index: i,
                            offset: 0,
                            len: None,
                        },
                        Some((s, e)) => FetchPart {
                            request_index: i,
                            offset: s,
                            len: Some(e - s),
                        },
                    })
                    .collect();
                fetches.push(CoalescedFetch {
                    key,
                    range: None,
                    parts,
                });
                continue;
            }
            // ranges only: sort by start, merge within the gap tolerance
            let mut ranged: Vec<(usize, u64, u64)> = valid
                .iter()
                .map(|&i| {
                    let (s, e) = self.requests[i].range.expect("whole-object handled above");
                    (i, s, e)
                })
                .collect();
            ranged.sort_by_key(|&(_, s, e)| (s, e));
            let mut span_start = ranged[0].1;
            let mut span_end = ranged[0].2;
            let mut members: Vec<(usize, u64, u64)> = Vec::new();
            for &(i, s, e) in &ranged {
                if s > span_end.saturating_add(self.gap_tolerance) {
                    fetches.push(Self::span_fetch(key, span_start, span_end, &members));
                    members.clear();
                    span_start = s;
                    span_end = e;
                } else {
                    span_end = span_end.max(e);
                }
                members.push((i, s, e));
            }
            fetches.push(Self::span_fetch(key, span_start, span_end, &members));
        }
        fetches
    }

    fn span_fetch<'p>(
        key: &'p str,
        start: u64,
        end: u64,
        members: &[(usize, u64, u64)],
    ) -> CoalescedFetch<'p> {
        CoalescedFetch {
            key,
            range: Some((start, end)),
            parts: members
                .iter()
                .map(|&(i, s, e)| FetchPart {
                    request_index: i,
                    offset: s - start,
                    len: Some(e - s),
                })
                .collect(),
        }
    }
}

impl FromIterator<ReadRequest> for ReadPlan {
    fn from_iter<I: IntoIterator<Item = ReadRequest>>(iter: I) -> Self {
        ReadPlan {
            requests: iter.into_iter().collect(),
            gap_tolerance: DEFAULT_GAP_TOLERANCE,
        }
    }
}

/// One backend fetch produced by [`ReadPlan::coalesce`], with the logical
/// requests it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedFetch<'p> {
    /// Object key to fetch, borrowed from the plan's requests.
    pub key: &'p str,
    /// `None` = whole object, else the merged byte span.
    pub range: Option<(u64, u64)>,
    /// Logical requests sliced out of this fetch.
    pub parts: Vec<FetchPart>,
}

/// How one logical request maps into its coalesced fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPart {
    /// Index into [`ReadPlan::requests`].
    pub request_index: usize,
    /// Byte offset of the request inside the fetched bytes.
    pub offset: u64,
    /// Requested length (`None` = the whole fetched object).
    pub len: Option<u64>,
}

impl CoalescedFetch<'_> {
    /// Scatter the fetched bytes (or the fetch error) back onto the
    /// logical requests, writing into `out[request_index]`.
    ///
    /// Clamping follows single-key semantics: a request whose start lies
    /// beyond the (possibly clamped) fetched extent yields
    /// [`StorageError::RangeOutOfBounds`]; an over-long end is clamped.
    pub fn distribute(&self, fetched: Result<Bytes>, out: &mut [Option<Result<Bytes>>]) {
        match fetched {
            Err(e) => {
                for part in &self.parts {
                    out[part.request_index] = Some(Err(e.clone()));
                }
            }
            Ok(data) => {
                let span_start = self.range.map(|(s, _)| s).unwrap_or(0);
                let extent = data.len() as u64;
                for part in &self.parts {
                    let result = match part.len {
                        None => Ok(data.clone()),
                        Some(len) => {
                            if part.offset > extent {
                                Err(StorageError::RangeOutOfBounds {
                                    start: span_start + part.offset,
                                    end: span_start + part.offset + len,
                                    len: span_start + extent,
                                })
                            } else {
                                let end = (part.offset + len).min(extent);
                                Ok(data.slice(part.offset as usize..end as usize))
                            }
                        }
                    };
                    out[part.request_index] = Some(result);
                }
            }
        }
    }
}

/// The outcome of executing a [`ReadPlan`].
#[derive(Debug)]
pub struct ReadResult {
    /// Per-request outcomes, positionally matching
    /// [`ReadPlan::requests`].
    pub results: Vec<Result<Bytes>>,
    /// Backend fetches actually issued (≤ logical requests when the
    /// provider coalesced).
    pub fetches: u64,
}

impl ReadResult {
    /// Unwrap every outcome, failing on the first error.
    pub fn into_bytes(self) -> Result<Vec<Bytes>> {
        self.results.into_iter().collect()
    }
}

/// Assemble a [`ReadResult`] by fetching each coalesced span through
/// `fetch` — the shared skeleton of every provider's `execute`.
pub(crate) fn execute_coalesced(
    plan: &ReadPlan,
    mut fetch: impl FnMut(&CoalescedFetch) -> Result<Bytes>,
) -> ReadResult {
    let mut out: Vec<Option<Result<Bytes>>> = vec![None; plan.len()];
    let fetches = plan.coalesce();
    let n = fetches.len() as u64;
    for f in &fetches {
        f.distribute(fetch(f), &mut out);
    }
    ReadResult {
        results: out
            .into_iter()
            .map(|slot| slot.expect("coalesce covers every request"))
            .collect(),
        fetches: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{MemoryProvider, StorageProvider};
    use proptest::prelude::*;

    fn spans(plan: &ReadPlan) -> Vec<(String, Option<(u64, u64)>)> {
        plan.coalesce()
            .into_iter()
            .map(|f| (f.key.to_string(), f.range))
            .collect()
    }

    /// Whether `plan` takes the distinct whole-object fast path, checked
    /// against the grouping path either way: the fetches are grouping's,
    /// and executing the plan on a `MemoryProvider` holding every key
    /// counts one batch of grouping's fetches and answers each request as
    /// the single-key call does.
    fn takes_fast_path(plan: &ReadPlan) -> bool {
        let grouped = plan.grouped();
        let fast = plan.distinct_whole();
        if let Some(fast) = &fast {
            assert_eq!(fast, &grouped);
        }
        assert_eq!(plan.coalesce(), grouped);
        let p = MemoryProvider::new();
        for r in plan.requests() {
            p.put(&r.key, Bytes::from(format!("{:-<40}", r.key)))
                .unwrap();
        }
        let before = p.stats().snapshot();
        let outcome = p.execute(plan);
        let counted = p.stats().snapshot().delta_since(&before);
        assert_eq!(counted.batch_requests, 1);
        assert_eq!(counted.logical_reads, plan.len() as u64);
        assert_eq!(counted.coalesced_fetches, grouped.len() as u64);
        assert_eq!(outcome.fetches, grouped.len() as u64);
        for (r, got) in plan.requests().iter().zip(outcome.results) {
            let single = match r.range {
                None => p.get(&r.key),
                Some((start, end)) => p.get_range(&r.key, start, end),
            };
            assert_eq!(got, single, "{r:?}");
        }
        fast.is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Every plan the fast path accepts coalesces exactly as the
        /// grouping path does. Keys are drawn from a few chunk ids, so
        /// duplicates are common; `sorted` gives the sorted, deduplicated
        /// whole-object plans `Dataset::prefetch` emits, and `ranged`
        /// mixes range requests in.
        #[test]
        fn the_fast_path_coalesces_as_grouping_does(
            ids in proptest::collection::vec(0u64..12, 0..20),
            sorted in any::<bool>(),
            ranged in proptest::collection::vec(0u8..8, 20..=20),
        ) {
            let mut ids = ids;
            if sorted {
                ids.sort_unstable();
                ids.dedup();
            }
            let mut plan = ReadPlan::new();
            for (i, id) in ids.iter().enumerate() {
                let key = format!("t/chunks/{id:016x}");
                match ranged[i] {
                    0 => plan.range(key, 3, 9),
                    1 => plan.range(key, 9, 3),
                    _ => plan.whole(key),
                };
            }
            let accepted = takes_fast_path(&plan);
            let whole = ranged[..ids.len()].iter().all(|&r| r >= 2);
            prop_assert_eq!(accepted, whole && ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sorted_distinct_whole_objects_take_the_fast_path() {
        let mut plan = ReadPlan::new();
        for key in ["a/chunks/01", "a/chunks/02", "b/chunks/00"] {
            plan.whole(key);
        }
        assert!(takes_fast_path(&plan));
        assert_eq!(plan.coalesce().len(), 3);
        assert!(takes_fast_path(&ReadPlan::new()));
    }

    #[test]
    fn a_duplicate_key_takes_the_grouping_path() {
        let mut plan = ReadPlan::new();
        plan.whole("k1");
        plan.whole("k2");
        plan.whole("k2");
        assert!(!takes_fast_path(&plan));
        assert_eq!(
            plan.coalesce().len(),
            2,
            "one fetch serves both k2 requests"
        );
    }

    #[test]
    fn a_range_request_takes_the_grouping_path() {
        let mut plan = ReadPlan::new();
        plan.whole("k1");
        plan.range("k2", 0, 4);
        plan.whole("k3");
        assert!(!takes_fast_path(&plan));
        assert_eq!(plan.coalesce()[1].range, Some((0, 4)));
    }

    #[test]
    fn an_out_of_order_key_takes_the_grouping_path() {
        let mut plan = ReadPlan::new();
        plan.whole("k2");
        plan.whole("k1");
        assert!(!takes_fast_path(&plan));
        // first-appearance order, one fetch a key
        assert_eq!(spans(&plan), vec![("k2".into(), None), ("k1".into(), None)]);
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut plan = ReadPlan::with_gap_tolerance(0);
        plan.range("k", 0, 10);
        plan.range("k", 10, 20);
        assert_eq!(spans(&plan), vec![("k".into(), Some((0, 20)))]);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut plan = ReadPlan::with_gap_tolerance(0);
        plan.range("k", 0, 15);
        plan.range("k", 10, 30);
        plan.range("k", 5, 12);
        assert_eq!(spans(&plan), vec![("k".into(), Some((0, 30)))]);
    }

    #[test]
    fn gapped_ranges_split_beyond_tolerance() {
        let mut plan = ReadPlan::with_gap_tolerance(4);
        plan.range("k", 0, 10);
        plan.range("k", 14, 20); // gap 4 ≤ tolerance → merge
        plan.range("k", 100, 110); // far → separate fetch
        assert_eq!(
            spans(&plan),
            vec![("k".into(), Some((0, 20))), ("k".into(), Some((100, 110)))]
        );
    }

    #[test]
    fn whole_object_subsumes_ranges() {
        let mut plan = ReadPlan::new();
        plan.range("k", 5, 10);
        plan.whole("k");
        plan.range("k", 90, 95);
        let fetches = plan.coalesce();
        assert_eq!(fetches.len(), 1);
        assert_eq!(fetches[0].range, None);
        assert_eq!(fetches[0].parts.len(), 3);
    }

    #[test]
    fn keys_do_not_merge_across() {
        let mut plan = ReadPlan::with_gap_tolerance(u64::MAX);
        plan.range("a", 0, 10);
        plan.range("b", 0, 10);
        assert_eq!(plan.coalesce().len(), 2);
    }

    #[test]
    fn distribute_slices_by_offset() {
        let mut plan = ReadPlan::with_gap_tolerance(0);
        let first = plan.range("k", 10, 14);
        let second = plan.range("k", 14, 20);
        let fetches = plan.coalesce();
        assert_eq!(fetches.len(), 1);
        let mut out = vec![None, None];
        fetches[0].distribute(Ok(bytes::Bytes::from_static(b"0123456789")), &mut out);
        assert_eq!(
            out[first].take().unwrap().unwrap(),
            bytes::Bytes::from_static(b"0123")
        );
        assert_eq!(
            out[second].take().unwrap().unwrap(),
            bytes::Bytes::from_static(b"456789")
        );
    }

    #[test]
    fn distribute_clamps_and_errors_like_single_key() {
        // object of 10 bytes; requests: in-bounds, over-long (clamped),
        // start-past-end (error)
        let mut plan = ReadPlan::with_gap_tolerance(u64::MAX);
        plan.range("k", 0, 10);
        plan.range("k", 8, 100);
        plan.range("k", 50, 60);
        let fetches = plan.coalesce();
        assert_eq!(fetches.len(), 1, "gap tolerance ∞ merges all");
        let mut out = vec![None, None, None];
        // provider clamps the merged 0..100 fetch to the 10-byte object
        fetches[0].distribute(Ok(bytes::Bytes::from_static(b"0123456789")), &mut out);
        assert_eq!(out[0].take().unwrap().unwrap().len(), 10);
        assert_eq!(
            out[1].take().unwrap().unwrap(),
            bytes::Bytes::from_static(b"89")
        );
        assert!(matches!(
            out[2].take().unwrap(),
            Err(StorageError::RangeOutOfBounds { start: 50, .. })
        ));
    }

    #[test]
    fn distribute_fans_errors_to_all_parts() {
        let mut plan = ReadPlan::new();
        plan.range("gone", 0, 4);
        plan.whole("gone");
        let fetches = plan.coalesce();
        let mut out = vec![None, None];
        fetches[0].distribute(Err(StorageError::NotFound("gone".into())), &mut out);
        assert!(matches!(
            out[0].take().unwrap(),
            Err(StorageError::NotFound(_))
        ));
        assert!(matches!(
            out[1].take().unwrap(),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn inverted_ranges_stay_isolated() {
        // start > end must not merge with (or poison) valid neighbours —
        // it surfaces through its own degenerate fetch
        let mut plan = ReadPlan::with_gap_tolerance(u64::MAX);
        plan.range("k", 0, 10);
        plan.range("k", 8, 3);
        let fetches = plan.coalesce();
        assert_eq!(fetches.len(), 2);
        let degenerate = fetches.iter().find(|f| f.range == Some((8, 3))).unwrap();
        assert_eq!(degenerate.parts.len(), 1);
        let merged = fetches.iter().find(|f| f.range == Some((0, 10))).unwrap();
        assert_eq!(merged.parts.len(), 1);
    }

    #[test]
    fn empty_plan_coalesces_to_nothing() {
        assert!(ReadPlan::new().coalesce().is_empty());
        assert!(ReadPlan::new().is_empty());
    }
}
