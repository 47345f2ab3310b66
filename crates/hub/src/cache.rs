//! The version-pinned query-result cache.
//!
//! Every offloaded query result is pinned to an immutable dataset
//! version (`QueryResult::version` — PR 4), so a repeated query against
//! the same version is *perfectly* cacheable: the hub keys entries by
//! `(dataset, resolved version, canonical TQL text, QueryOptions)` and
//! stores the **already-encoded response frame** behind an `Arc`, so a
//! hit copies a pointer under the cache lock and the frame itself is
//! written to the socket from the one stored copy — zero plan, zero
//! storage round trips.
//!
//! **What a hit costs, and where it runs.** The first arrival of a query
//! text is parsed and canonicalized on a pool worker, which then records
//! `raw text → canonical key` ([`ResultCache::alias`]). Every later
//! arrival of that text is answered by the hub's *event loop* with
//! [`ResultCache::lookup_raw`]: one hash probe of the raw bytes, whose
//! alias holds the [`RecencyHandle`] of the canonical entry, so the
//! recency touch relinks one node without hashing the canonical key — no
//! TQL parse, no queue, no worker, no allocation. Aliases live under the
//! cache's one lock and inside its one byte budget: an alias is charged
//! to the entry it points at and dies with it (eviction or invalidation),
//! and a frame is only ever obtained through the canonical entry, so an
//! alias can neither outlive nor bypass an invalidation. (Were that
//! invariant ever broken, the handle finds nothing and the text is a
//! miss for the pool, not a panic on the event loop.)
//!
//! Three facts keep the cache correct:
//!
//! * the *text* component is [`deeplake_tql::canonical_text`], so
//!   whitespace/case/alias variants of one query share one entry;
//! * the *version* component is the resolved head node, and entries are
//!   flagged **pinned** only when that node is a committed (immutable)
//!   version — results computed against a *mutable* branch tip are
//!   dropped by [`ResultCache::invalidate_mutable`] whenever the hub
//!   routes a write into the dataset, because an uncommitted tip mutates
//!   *without changing its id*;
//! * eviction is byte-budgeted LRU over a [`Recency`], the structure the
//!   storage-tier LRU and the chunk cache keep their entries in, weighted
//!   by each entry's charge (frame, key strings and aliases) — the victim
//!   is found in `O(1)`, never by a scan, because the event
//!   loop waits on this lock for every hit — with
//!   [`StorageStats::evictions`] counted per dropped entry so budget
//!   pressure is observable (the same counter contract the storage-tier
//!   LRU exposes).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use deeplake_storage::{Recency, RecencyHandle, StorageStats};
use deeplake_tql::QueryOptions;
use parking_lot::Mutex;

/// An encoded response frame, shared between the cache and every
/// connection write queue it is being sent from.
pub type Frame = Arc<Vec<u8>>;

/// Raw texts one entry remembers; a ninth displaces the oldest. Bounds
/// what a client cycling formatting variants of one query can pin.
const MAX_ALIASES_PER_ENTRY: usize = 8;

/// Longest raw text that is remembered. A longer one (whitespace padding
/// is free to a hostile client) is parsed on a worker every time, as
/// every text was before aliases existed.
const MAX_ALIAS_TEXT_BYTES: usize = 16 * 1024;

/// What one key — canonical or raw — is charged: its strings plus 64
/// bytes of bookkeeping.
fn key_cost(dataset: &str, version: &str, text: &str) -> u64 {
    (dataset.len() + version.len() + text.len() + 64) as u64
}

/// Cache key: one logical query against one immutable dataset version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the dataset.
    pub dataset: String,
    /// Resolved head node the query executed against.
    pub version: String,
    /// Canonical query text ([`deeplake_tql::canonical_text`]).
    pub text: String,
    /// Execution options (they select pruned/ANN paths, which report
    /// different [`deeplake_tql::QueryStats`] in the cached frame).
    pub options: QueryOptions,
}

impl CacheKey {
    fn cost(&self, frame_len: usize) -> u64 {
        // entry footprint: the frame plus the owned key strings
        frame_len as u64 + key_cost(&self.dataset, &self.version, &self.text)
    }
}

/// A [`CacheKey`] with the client's *raw* text in place of the canonical
/// one: what the event loop can build without parsing. Owned in the
/// alias map, borrowed from the request for a probe.
#[derive(PartialEq, Eq, Hash)]
struct RawKey<'a> {
    dataset: Cow<'a, str>,
    version: Cow<'a, str>,
    text: Cow<'a, str>,
    options: QueryOptions,
}

impl<'a> RawKey<'a> {
    fn borrowed(dataset: &'a str, version: &'a str, text: &'a str, options: QueryOptions) -> Self {
        RawKey {
            dataset: Cow::Borrowed(dataset),
            version: Cow::Borrowed(version),
            text: Cow::Borrowed(text),
            options,
        }
    }

    fn cost(&self) -> u64 {
        key_cost(&self.dataset, &self.version, &self.text)
    }

    fn into_owned(self) -> RawKey<'static> {
        RawKey {
            dataset: Cow::Owned(self.dataset.into_owned()),
            version: Cow::Owned(self.version.into_owned()),
            text: Cow::Owned(self.text.into_owned()),
            options: self.options,
        }
    }
}

/// `raw key → where its canonical entry lives`.
type Aliases<'a> = HashMap<Arc<RawKey<'a>>, RecencyHandle>;

struct Entry {
    key: Arc<CacheKey>,
    frame: Frame,
    /// True when the result can never change (committed version inside
    /// and out): survives write invalidation.
    pinned: bool,
    /// Raw texts that resolve to this entry, oldest first.
    aliases: Vec<Arc<RawKey<'static>>>,
}

impl Entry {
    /// Forget this entry's raw texts: it has left the cache.
    fn unalias(&self, aliases: &mut Aliases<'static>) {
        for raw in &self.aliases {
            aliases.remove(raw);
        }
    }
}

struct CacheState {
    /// Weighted by the bytes each is charged: frame, key strings and
    /// every alias.
    entries: Recency<Arc<CacheKey>, Entry>,
    /// Every value is a live entry's handle.
    aliases: Aliases<'static>,
}

impl CacheState {
    /// Evict least-recently-used entries until `budget` holds.
    fn evict_to(&mut self, budget: u64, stats: &StorageStats) {
        while self.entries.weight() > budget {
            let (_, victim) = self.entries.pop_lru().expect("weight > 0 implies entries");
            victim.unalias(&mut self.aliases);
            stats.record_eviction();
        }
    }

    /// Where the canonical entry `raw` is known to resolve to lives.
    fn alias_target(&self, raw: &RawKey<'_>) -> Option<RecencyHandle> {
        // the map owns `RawKey<'static>`s; shortening that lifetime (the
        // map is covariant in its key type) lets a key that borrows from
        // the request probe it without copying the text first
        let aliases: &Aliases<'_> = &self.aliases;
        aliases.get(raw).copied()
    }
}

/// Byte-budgeted LRU over encoded query-response frames.
pub struct ResultCache {
    state: Mutex<CacheState>,
    budget: u64,
    stats: StorageStats,
}

impl ResultCache {
    /// Cache up to `budget_bytes` of encoded result frames. A budget of
    /// zero disables caching (every lookup misses, nothing is stored).
    pub fn new(budget_bytes: u64) -> Self {
        ResultCache {
            state: Mutex::new(CacheState {
                entries: Recency::new(),
                aliases: HashMap::new(),
            }),
            budget: budget_bytes,
            stats: StorageStats::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Fraction of lookups served from memory.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// Entries evicted to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.stats.evictions()
    }

    /// Bytes currently held (frames, key strings and remembered raw
    /// texts).
    pub fn cached_bytes(&self) -> u64 {
        self.state.lock().entries.weight()
    }

    /// Entries currently held.
    pub fn cached_entries(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Look one query up by its canonical key; a hit returns the encoded
    /// response frame (shared, not copied), ready to write to the wire.
    /// Counts one hit or one miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Frame> {
        let hit = self.state.lock().entries.get(key).map(|e| e.frame.clone());
        match hit {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        hit
    }

    /// Look one query up by the text the client sent, without parsing
    /// it: a hit when [`alias`](Self::alias) recorded this exact text
    /// for an entry that is still cached, and then it counts one hit and
    /// returns the canonical key with the frame. An unknown text counts
    /// nothing — the caller falls back to parsing it and calling
    /// [`lookup`](Self::lookup), which counts the query once.
    ///
    /// One SipHash probe of the client's bytes (they are hostile input),
    /// then the alias's handle touches the entry: the canonical key is
    /// not hashed again, and nothing is allocated.
    pub fn lookup_raw(
        &self,
        dataset: &str,
        version: &str,
        raw_text: &str,
        options: QueryOptions,
    ) -> Option<(Arc<CacheKey>, Frame)> {
        let raw = RawKey::borrowed(dataset, version, raw_text, options);
        let mut st = self.state.lock();
        let handle = st.alias_target(&raw)?;
        let hit = st
            .entries
            .touch(handle)
            .map(|(key, e)| (key.clone(), e.frame.clone()));
        drop(st);
        // an alias dies with its entry; should that ever fail, the text is
        // a miss the pool answers, never a panic on the event loop
        debug_assert!(hit.is_some(), "an alias outlived its entry");
        let hit = hit?;
        self.stats.record_hit();
        Some(hit)
    }

    /// Remember that `raw_text` canonicalizes to `key.text`, so the next
    /// arrival of it is a [`lookup_raw`](Self::lookup_raw) hit. A no-op
    /// unless `key` is cached; the alias is charged to that entry's
    /// share of the budget and dropped with it.
    pub fn alias(&self, key: &CacheKey, raw_text: &str) {
        if raw_text.len() > MAX_ALIAS_TEXT_BYTES {
            return;
        }
        let raw = RawKey::borrowed(&key.dataset, &key.version, raw_text, key.options);
        let cost = raw.cost();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some(handle) = st.entries.handle(key) else {
            return;
        };
        if st
            .alias_target(&raw)
            .is_some_and(|h| st.entries.at(h).is_some())
        {
            return;
        }
        // an alias is not a use: the entry keeps its place in the order
        st.entries.update(key, |entry, weight| {
            if *weight + cost > self.budget {
                return; // could never fit: not worth evicting the rest for
            }
            if entry.aliases.len() == MAX_ALIASES_PER_ENTRY {
                let oldest = entry.aliases.remove(0);
                st.aliases.remove(&oldest);
                *weight -= oldest.cost();
            }
            let raw = Arc::new(raw.into_owned());
            entry.aliases.push(raw.clone());
            *weight += cost;
            st.aliases.insert(raw, handle);
        });
        st.evict_to(self.budget, &self.stats);
    }

    /// Store one encoded response frame. `pinned` marks results whose
    /// version can never mutate (committed inside and out); unpinned
    /// entries are dropped on the next write to the dataset. Frames
    /// larger than the whole budget are never stored.
    pub fn insert(&self, key: CacheKey, frame: impl Into<Frame>, pinned: bool) {
        self.insert_if(key, frame.into(), pinned, || true);
    }

    /// [`ResultCache::insert`] gated on `still_valid`, evaluated *under
    /// the cache lock*. The hub passes an epoch check here so an insert
    /// racing a write invalidation can never install a stale entry: the
    /// invalidation bumps the epoch before it scans the cache, so either
    /// the predicate observes the bump and refuses, or the insert lands
    /// first and the scan drops it.
    pub fn insert_if(
        &self,
        key: CacheKey,
        frame: Frame,
        pinned: bool,
        still_valid: impl FnOnce() -> bool,
    ) {
        let cost = key.cost(frame.len());
        if cost > self.budget {
            return;
        }
        let mut st = self.state.lock();
        if !still_valid() {
            return;
        }
        let key = Arc::new(key);
        let entry = Entry {
            key: key.clone(),
            frame,
            pinned,
            aliases: Vec::new(),
        };
        if let Some(replaced) = st.entries.insert(key, entry, cost) {
            replaced.unalias(&mut st.aliases);
        }
        st.evict_to(self.budget, &self.stats);
    }

    /// Drop every entry for `dataset` — mount/unmount and explicit
    /// out-of-band invalidation.
    pub fn invalidate_dataset(&self, dataset: &str) {
        self.retain(|e| e.key.dataset != dataset);
    }

    /// Drop the entries for `dataset` whose results could change under a
    /// write (unpinned — resolved against a mutable branch tip). Entries
    /// pinned to committed versions survive: committed nodes are
    /// immutable by construction.
    pub fn invalidate_mutable(&self, dataset: &str) {
        self.retain(|e| e.key.dataset != dataset || e.pinned);
    }

    fn retain(&self, keep: impl Fn(&Entry) -> bool) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.entries.retain(|_, entry| {
            let kept = keep(entry);
            if !kept {
                entry.unalias(&mut st.aliases);
            }
            kept
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dataset: &str, version: &str, text: &str) -> CacheKey {
        CacheKey {
            dataset: dataset.into(),
            version: version.into(),
            text: text.into(),
            options: QueryOptions::default(),
        }
    }

    #[test]
    fn hit_is_a_frame_copy() {
        let cache = ResultCache::new(1 << 20);
        let k = key("d", "v1", "SELECT * FROM d");
        assert!(cache.lookup(&k).is_none());
        cache.insert(k.clone(), vec![1, 2, 3], true);
        assert_eq!(*cache.lookup(&k).unwrap(), vec![1, 2, 3]);
        assert_eq!(cache.stats().cache_hits(), 1);
        assert_eq!(cache.stats().cache_misses(), 1);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let cache = ResultCache::new(1 << 20);
        let k1 = key("d", "v1", "q");
        let mut k2 = k1.clone();
        k2.options.ann = true;
        cache.insert(k1.clone(), vec![1], true);
        assert!(cache.lookup(&k2).is_none());
        cache.insert(k2.clone(), vec![2], true);
        assert_eq!(*cache.lookup(&k1).unwrap(), vec![1]);
        assert_eq!(*cache.lookup(&k2).unwrap(), vec![2]);
    }

    #[test]
    fn byte_budget_evicts_lru_and_counts() {
        // each entry costs 64 overhead + strings (~3+2+2=7) + 100 frame
        let cache = ResultCache::new(400);
        for i in 0..4 {
            cache.insert(key("d", "v", &format!("q{i}")), vec![0u8; 100], true);
        }
        assert!(cache.cached_bytes() <= 400);
        assert!(cache.cached_entries() <= 2);
        assert_eq!(cache.evictions(), 2);
        // oversized frames are never stored
        cache.insert(key("d", "v", "huge"), vec![0u8; 1000], true);
        assert!(cache.lookup(&key("d", "v", "huge")).is_none());
    }

    #[test]
    fn write_invalidation_spares_pinned_entries() {
        let cache = ResultCache::new(1 << 20);
        let head = key("d", "tip", "q1");
        let committed = key("d", "commit1", "q2");
        let other = key("e", "tip", "q3");
        cache.insert(head.clone(), vec![1], false);
        cache.insert(committed.clone(), vec![2], true);
        cache.insert(other.clone(), vec![3], false);
        cache.invalidate_mutable("d");
        assert!(cache.lookup(&head).is_none(), "mutable entry dropped");
        assert!(cache.lookup(&committed).is_some(), "pinned entry survives");
        assert!(cache.lookup(&other).is_some(), "other dataset untouched");
        cache.invalidate_dataset("d");
        assert!(cache.lookup(&committed).is_none());
    }

    /// 20 000 small entries through a budget that holds a fraction of
    /// them: every insert past the budget evicts exactly the least
    /// recently used entry, found without a scan of the survivors under
    /// the lock the event loop takes for every hit.
    #[test]
    fn small_entry_flood_evicts_strictly_lru() {
        const INSERTS: usize = 20_000;
        let cache = ResultCache::new(100_000);
        let k = |i: usize| key("d", "v", &format!("q{i:05}"));
        for i in 0..INSERTS {
            cache.insert(k(i), vec![0u8; 8], true);
            assert!(cache.cached_bytes() <= cache.budget());
        }
        let survivors = cache.cached_entries();
        assert!((2..INSERTS / 4).contains(&survivors), "{survivors}");
        let oldest = INSERTS - survivors;
        assert_eq!(cache.evictions() as usize, oldest);
        // equal costs: the survivors are exactly the newest inserts (and
        // probing them oldest first leaves their order as it was)
        for i in 0..INSERTS {
            assert_eq!(cache.lookup(&k(i)).is_some(), i >= oldest, "entry {i}");
        }
        // recency, not insertion order, picks the victim: touch the
        // oldest survivor and the next insert takes the second oldest
        assert!(cache.lookup(&k(oldest)).is_some());
        cache.insert(k(INSERTS), vec![0u8; 8], true);
        assert_eq!(cache.evictions() as usize, oldest + 1);
        assert!(cache.lookup(&k(oldest)).is_some());
        assert!(cache.lookup(&k(oldest + 1)).is_none());
        assert!(cache.lookup(&k(oldest + 2)).is_some());
    }

    #[test]
    fn raw_text_hits_through_the_canonical_entry() {
        let cache = ResultCache::new(1 << 20);
        let k = key("d", "v1", "SELECT * FROM d");
        let raw = "select  *  from d";
        let probe = |text: &str| cache.lookup_raw("d", "v1", text, QueryOptions::default());
        cache.insert(k.clone(), vec![1, 2, 3], true);
        // an unknown text is not a lookup: the caller parses and counts
        assert!(probe(raw).is_none());
        assert_eq!(cache.stats().cache_hits() + cache.stats().cache_misses(), 0);
        cache.alias(&k, raw);
        let (canonical, frame) = probe(raw).expect("the text is known now");
        assert_eq!(*canonical, k);
        assert!(
            Arc::ptr_eq(&frame, &cache.lookup(&k).unwrap()),
            "a hit shares the stored frame"
        );
        assert_eq!(cache.stats().cache_hits(), 2);
        assert_eq!(cache.stats().cache_misses(), 0);
        // the raw key is the canonical key with another text: a different
        // version, dataset or option set does not match it
        assert!(cache
            .lookup_raw("d", "v2", raw, QueryOptions::default())
            .is_none());
        assert!(cache
            .lookup_raw("e", "v1", raw, QueryOptions::default())
            .is_none());
        let ann = QueryOptions {
            ann: true,
            ..QueryOptions::default()
        };
        assert!(cache.lookup_raw("d", "v1", raw, ann).is_none());
        // a raw-text hit is a use: it protects the entry from eviction
        let small = ResultCache::new(450);
        small.insert(key("d", "v", "q0"), vec![0u8; 100], true);
        small.alias(&key("d", "v", "q0"), "Q0");
        small.insert(key("d", "v", "q1"), vec![0u8; 100], true);
        assert!(small
            .lookup_raw("d", "v", "Q0", QueryOptions::default())
            .is_some());
        small.insert(key("d", "v", "q2"), vec![0u8; 100], true);
        assert!(small.lookup(&key("d", "v", "q0")).is_some());
        assert!(small.lookup(&key("d", "v", "q1")).is_none());
    }

    #[test]
    fn an_alias_dies_with_its_entry() {
        let probe = |cache: &ResultCache| {
            cache
                .lookup_raw("d", "tip", "RAW", QueryOptions::default())
                .is_some()
        };
        let aliased = |pinned: bool| {
            let cache = ResultCache::new(400);
            cache.insert(key("d", "tip", "q"), vec![0u8; 100], pinned);
            let entry_only = cache.cached_bytes();
            cache.alias(&key("d", "tip", "q"), "RAW");
            assert_eq!(cache.cached_bytes(), entry_only + 1 + 3 + 3 + 64);
            assert!(probe(&cache));
            cache
        };
        let gone = |cache: &ResultCache| {
            assert!(!probe(cache));
            assert!(cache.state.lock().aliases.is_empty());
        };

        let cache = aliased(false);
        cache.invalidate_mutable("d");
        gone(&cache);
        assert_eq!(cache.cached_bytes(), 0, "its bytes went with it");

        let cache = aliased(true);
        cache.invalidate_mutable("d");
        assert!(probe(&cache), "a pinned entry keeps its aliases");
        cache.invalidate_dataset("d");
        gone(&cache);
        assert_eq!(cache.cached_bytes(), 0);

        // evicted by budget pressure
        let cache = aliased(true);
        cache.insert(key("d", "tip", "r"), vec![0u8; 100], true);
        cache.insert(key("d", "tip", "s"), vec![0u8; 100], true);
        assert!(cache.lookup(&key("d", "tip", "q")).is_none());
        gone(&cache);

        // replaced by a fresh insert of the same key
        let cache = aliased(true);
        cache.insert(key("d", "tip", "q"), vec![1u8; 100], true);
        gone(&cache);

        // and an alias for a key that is not cached is never recorded
        let cache = ResultCache::new(400);
        cache.alias(&key("d", "tip", "q"), "RAW");
        gone(&cache);
        assert_eq!(cache.cached_bytes(), 0);
    }

    #[test]
    fn aliases_stay_inside_the_budget_and_their_bounds() {
        let cache = ResultCache::new(4096);
        let k = key("d", "v", "select");
        cache.insert(k.clone(), vec![0u8; 100], true);
        cache.insert(key("d", "v", "other"), vec![0u8; 100], true);
        for i in 0..10_000 {
            cache.alias(&k, &format!("select{}", " ".repeat(i % 97 + 1 + i / 97)));
            assert!(cache.cached_bytes() <= cache.budget());
        }
        let known = cache.state.lock().aliases.len();
        assert!((1..=MAX_ALIASES_PER_ENTRY).contains(&known), "{known}");
        // recording the same text twice charges it once
        let before = cache.cached_bytes();
        cache.alias(&k, "SELECT");
        let once = cache.cached_bytes();
        cache.alias(&k, "SELECT");
        assert_eq!(cache.cached_bytes(), once);
        assert!(once <= before + 6 + 1 + 1 + 64);
        // a text over the length bound is never remembered
        let long = " ".repeat(MAX_ALIAS_TEXT_BYTES + 1);
        let cache = ResultCache::new(1 << 20);
        cache.insert(k.clone(), vec![0u8; 100], true);
        cache.alias(&k, &long);
        assert!(cache.state.lock().aliases.is_empty());
        // nor one that could only fit by evicting its own entry
        let cache = ResultCache::new(400);
        cache.insert(k.clone(), vec![0u8; 100], true);
        cache.alias(&k, &" ".repeat(300));
        assert!(cache.state.lock().aliases.is_empty());
        assert_eq!(cache.cached_entries(), 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ResultCache::new(0);
        let k = key("d", "v", "q");
        cache.insert(k.clone(), vec![1], true);
        assert!(cache.lookup(&k).is_none());
        cache.alias(&k, "Q");
        assert!(cache
            .lookup_raw("d", "v", "Q", QueryOptions::default())
            .is_none());
        assert_eq!(cache.cached_bytes(), 0);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        struct ModelEntry {
            key: CacheKey,
            frame: Vec<u8>,
            pinned: bool,
            cost: u64,
            /// Raw texts, oldest first.
            aliases: Vec<String>,
        }

        /// The reference model: entries in recency order, the least
        /// recently used first, with the counters the cache keeps.
        struct Model {
            budget: u64,
            entries: Vec<ModelEntry>,
            evictions: u64,
            hits: u64,
            misses: u64,
        }

        impl Model {
            fn new(budget: u64) -> Self {
                Model {
                    budget,
                    entries: Vec::new(),
                    evictions: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn position(&self, key: &CacheKey) -> Option<usize> {
                self.entries.iter().position(|e| e.key == *key)
            }

            fn bytes(&self) -> u64 {
                self.entries.iter().map(|e| e.cost).sum()
            }

            /// The entry that holds `text` as an alias under the raw key
            /// `(dataset, version, text, options)`.
            fn raw_owner(&self, probe: &CacheKey, text: &str) -> Option<usize> {
                self.entries.iter().position(|e| {
                    (&e.key.dataset, &e.key.version, e.key.options)
                        == (&probe.dataset, &probe.version, probe.options)
                        && e.aliases.iter().any(|a| a == text)
                })
            }

            /// A hit on entry `i`: it becomes the most recently used.
            fn hit(&mut self, i: usize) -> (CacheKey, Vec<u8>) {
                let entry = self.entries.remove(i);
                let out = (entry.key.clone(), entry.frame.clone());
                self.entries.push(entry);
                self.hits += 1;
                out
            }

            fn lookup(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
                match self.position(key) {
                    Some(i) => Some(self.hit(i).1),
                    None => {
                        self.misses += 1;
                        None
                    }
                }
            }

            fn lookup_raw(&mut self, probe: &CacheKey, text: &str) -> Option<(CacheKey, Vec<u8>)> {
                let i = self.raw_owner(probe, text)?;
                Some(self.hit(i))
            }

            fn evict(&mut self) {
                while self.bytes() > self.budget {
                    self.entries.remove(0);
                    self.evictions += 1;
                }
            }

            fn insert(&mut self, key: CacheKey, frame: Vec<u8>, pinned: bool) {
                let cost = frame.len() as u64 + key_cost(&key.dataset, &key.version, &key.text);
                if cost > self.budget {
                    return;
                }
                if let Some(i) = self.position(&key) {
                    self.entries.remove(i);
                }
                self.entries.push(ModelEntry {
                    key,
                    frame,
                    pinned,
                    cost,
                    aliases: Vec::new(),
                });
                self.evict();
            }

            fn alias(&mut self, key: &CacheKey, text: &str) {
                if text.len() > MAX_ALIAS_TEXT_BYTES || self.raw_owner(key, text).is_some() {
                    return;
                }
                let Some(i) = self.position(key) else {
                    return;
                };
                let charge = |text: &str| key_cost(&key.dataset, &key.version, text);
                let entry = &mut self.entries[i];
                if entry.cost + charge(text) > self.budget {
                    return;
                }
                if entry.aliases.len() == MAX_ALIASES_PER_ENTRY {
                    entry.cost -= charge(&entry.aliases.remove(0));
                }
                entry.aliases.push(text.to_string());
                entry.cost += charge(text);
                self.evict();
            }

            fn invalidate(&mut self, dataset: &str, spare_pinned: bool) {
                self.entries
                    .retain(|e| e.key.dataset != dataset || (spare_pinned && e.pinned));
            }
        }

        /// Key `k` of 32: two datasets, two versions, two option sets,
        /// four texts.
        fn model_key(k: usize) -> CacheKey {
            let text = format!("q{}", k >> 3);
            let mut key = key(["d", "e"][k & 1], ["v", "w"][k >> 1 & 1], &text);
            key.options.ann = k & 4 != 0;
            key
        }

        /// Raw text `t` of 14: twelve short ones (so an entry can be
        /// offered a ninth), one that costs a good share of a small
        /// budget, and one over the length bound.
        fn raw_text(t: usize) -> String {
            match t {
                12 => " ".repeat(200),
                13 => " ".repeat(MAX_ALIAS_TEXT_BYTES + 1),
                _ => format!("r{t}"),
            }
        }

        /// Every `(raw text, canonical key)` the cache's alias map holds;
        /// a raw key is its canonical key with another text.
        fn alias_map(cache: &ResultCache) -> HashSet<(String, CacheKey)> {
            let st = cache.state.lock();
            st.aliases
                .iter()
                .map(|(raw, &handle)| {
                    let (key, _) = st.entries.at(handle).expect("an alias names a live entry");
                    let fields = (&*raw.dataset, &*raw.version, raw.options);
                    assert_eq!(fields, (&*key.dataset, &*key.version, key.options));
                    (raw.text.to_string(), (**key).clone())
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn result_cache_agrees_with_the_reference_model(
                budget in proptest::sample::select(vec![0u64, 250, 600, 1_200, 3_000]),
                ops in proptest::collection::vec(
                    (0u8..10, 0usize..32, 0usize..14, 0usize..300, any::<bool>()),
                    0..160,
                ),
            ) {
                let cache = ResultCache::new(budget);
                let mut model = Model::new(budget);
                for (seq, (op, k, t, len, flag)) in ops.into_iter().enumerate() {
                    let key = model_key(k);
                    match op {
                        0 | 1 => {
                            let frame = vec![seq as u8; len];
                            cache.insert(key.clone(), frame.clone(), flag);
                            model.insert(key, frame, flag);
                        }
                        // refused under the lock: nothing changes
                        2 => cache.insert_if(key, Arc::new(vec![0; len]), flag, || false),
                        3 | 4 => prop_assert_eq!(
                            cache.lookup(&key).map(|f| f.to_vec()),
                            model.lookup(&key)
                        ),
                        5 | 6 => {
                            let text = raw_text(t);
                            let hit = cache.lookup_raw(&key.dataset, &key.version, &text, key.options);
                            prop_assert_eq!(
                                hit.map(|(k, f)| ((*k).clone(), f.to_vec())),
                                model.lookup_raw(&key, &text)
                            );
                        }
                        // a run of up to ten texts, so a ninth is common
                        7 | 8 => {
                            for text in (t..=t + len % 10).map(|t| raw_text(t % 14)) {
                                cache.alias(&key, &text);
                                model.alias(&key, &text);
                            }
                        }
                        _ if flag => {
                            cache.invalidate_mutable(&key.dataset);
                            model.invalidate(&key.dataset, true);
                        }
                        _ => {
                            cache.invalidate_dataset(&key.dataset);
                            model.invalidate(&key.dataset, false);
                        }
                    }
                    prop_assert_eq!(cache.cached_bytes(), model.bytes());
                    prop_assert_eq!(cache.cached_entries(), model.entries.len());
                    prop_assert!(cache.cached_bytes() <= budget);
                    prop_assert_eq!(cache.evictions(), model.evictions);
                    prop_assert_eq!(cache.stats().cache_hits(), model.hits);
                    prop_assert_eq!(cache.stats().cache_misses(), model.misses);
                    // the alias map holds exactly the live entries'
                    // aliases: every handle `lookup_raw` touches names a live entry
                    let want: Vec<(String, CacheKey)> = model
                        .entries
                        .iter()
                        .flat_map(|e| e.aliases.iter().map(|t| (t.clone(), e.key.clone())))
                        .collect();
                    let got = alias_map(&cache);
                    prop_assert_eq!(got.len(), want.len());
                    prop_assert_eq!(got, want.into_iter().collect::<HashSet<_>>());
                }
            }
        }
    }
}
