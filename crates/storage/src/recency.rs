//! The one recency structure of every bounded cache in the tree:
//! [`crate::LruCacheProvider`]'s object cache, `deeplake-core`'s
//! parsed-chunk cache (one per store), and the hub's query-result cache
//! and per-reference dataset handles.
//!
//! [`Recency`] is a hash map plus a tick-ordered index. Every entry
//! carries the tick of its last use and a weight the caller chose (bytes
//! for the caches, one per handle for the hub's handles), so a touch moves
//! one key in the index and the least recently used entry is the index's
//! first: touch, insert, remove and evict are O(log n), with no scan. An
//! [`update`](Recency::update) reweighs an entry without touching it. It
//! only orders and weighs; *when* to evict is each caller's policy,
//! written as a loop over [`pop_lru`](Recency::pop_lru) against
//! [`weight`](Recency::weight) and [`len`](Recency::len).

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

struct Entry<V> {
    value: V,
    weight: u64,
    /// Its key in `Recency::order`.
    tick: u64,
}

/// Entries in least-recently-used order, each with a weight.
///
/// Every entry has exactly one index slot (its last use's tick), and
/// `weight` is the sum of the entries' weights.
pub struct Recency<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// `tick → key`: the first is the least recently used.
    order: BTreeMap<u64, K>,
    tick: u64,
    weight: u64,
}

impl<K, V> Default for Recency<K, V> {
    fn default() -> Self {
        Recency {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            weight: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Recency<K, V> {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value under `key`, which becomes the most recently used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key)?;
        self.tick += 1;
        let key = self
            .order
            .remove(&entry.tick)
            .expect("every entry has an index slot");
        entry.tick = self.tick;
        self.order.insert(self.tick, key);
        Some(&entry.value)
    }

    /// Store `value` under `key` as the most recently used, weighing
    /// `weight`; returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> Option<V> {
        self.tick += 1;
        let entry = Entry {
            value,
            weight,
            tick: self.tick,
        };
        self.order.insert(self.tick, key.clone());
        self.weight += weight;
        let old = self.entries.insert(key, entry)?;
        self.unindex(&old);
        Some(old.value)
    }

    /// Change `key`'s value and weight in place through `f`, leaving its
    /// recency as it was; returns what `f` returns, or `None` when `key`
    /// is absent.
    pub fn update<Q, R>(&mut self, key: &Q, f: impl FnOnce(&mut V, &mut u64) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.entries.get_mut(key)?;
        let before = entry.weight;
        let out = f(&mut entry.value, &mut entry.weight);
        self.weight = self.weight - before + entry.weight;
        Some(out)
    }

    /// Remove `key`'s entry; returns its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let old = self.entries.remove(key)?;
        self.unindex(&old);
        Some(old.value)
    }

    /// Remove the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let (_, key) = self.order.pop_first()?;
        let old = self
            .entries
            .remove(&key)
            .expect("every index slot has an entry");
        self.weight -= old.weight;
        Some((key, old.value))
    }

    /// Keep only the entries `keep` accepts. O(n): for bulk invalidation,
    /// not for eviction.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let Recency {
            entries,
            order,
            weight,
            ..
        } = self;
        entries.retain(|key, entry| {
            let kept = keep(key, &entry.value);
            if !kept {
                order.remove(&entry.tick);
                *weight -= entry.weight;
            }
            kept
        });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of the entries' weights.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Drop a removed entry's index slot and weight.
    fn unindex(&mut self, old: &Entry<V>) {
        self.order.remove(&old.tick);
        self.weight -= old.weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: `(key, value, weight)` in recency order, the
    /// least recently used first.
    #[derive(Default)]
    struct Model(Vec<(u8, u32, u64)>);

    impl Model {
        fn position(&self, key: u8) -> Option<usize> {
            self.0.iter().position(|&(k, _, _)| k == key)
        }
        fn get(&mut self, key: u8) -> Option<u32> {
            let entry = self.0.remove(self.position(key)?);
            self.0.push(entry);
            Some(entry.1)
        }
        fn insert(&mut self, key: u8, value: u32, weight: u64) -> Option<u32> {
            let old = self.remove(key);
            self.0.push((key, value, weight));
            old
        }
        fn remove(&mut self, key: u8) -> Option<u32> {
            Some(self.0.remove(self.position(key)?).1)
        }
        fn update(&mut self, key: u8, value: u32, weight: u64) -> Option<u32> {
            let i = self.position(key)?;
            let entry = &mut self.0[i];
            let old = entry.1;
            (entry.1, entry.2) = (value, weight);
            Some(old)
        }
        fn pop_lru(&mut self) -> Option<(u8, u32)> {
            (!self.0.is_empty()).then(|| {
                let (k, v, _) = self.0.remove(0);
                (k, v)
            })
        }
    }

    /// Contents, order and total weight agree, and the index has one slot
    /// per entry.
    fn assert_agrees(r: &Recency<u8, u32>, model: &Model) {
        let order: Vec<u8> = r.order.values().copied().collect();
        let want: Vec<u8> = model.0.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(order, want, "recency order");
        assert_eq!(r.len(), model.0.len());
        assert_eq!(r.is_empty(), model.0.is_empty());
        assert_eq!(r.weight(), model.0.iter().map(|&(_, _, w)| w).sum::<u64>());
        for &(k, v, w) in &model.0 {
            let entry = &r.entries[&k];
            assert_eq!((entry.value, entry.weight), (v, w), "entry {k}");
            assert_eq!(r.order[&entry.tick], k, "entry {k}'s index slot");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recency_agrees_with_the_reference_model(
            ops in proptest::collection::vec((0u8..8, 0u8..12, any::<u32>(), 0u64..5_000), 0..120),
        ) {
            let mut r = Recency::new();
            let mut model = Model::default();
            for (op, key, value, weight) in ops {
                match op {
                    // get (a hit or a miss)
                    0 | 1 => prop_assert_eq!(r.get(&key).copied(), model.get(key)),
                    // insert: a new key or an overwrite
                    2 | 3 => prop_assert_eq!(r.insert(key, value, weight), model.insert(key, value, weight)),
                    4 => prop_assert_eq!(r.remove(&key), model.remove(key)),
                    5 => prop_assert_eq!(r.pop_lru(), model.pop_lru()),
                    // reweigh in place: heavier or lighter, order unchanged
                    6 => prop_assert_eq!(
                        r.update(&key, |v, w| {
                            let old = *v;
                            (*v, *w) = (value, weight);
                            old
                        }),
                        model.update(key, value, weight)
                    ),
                    // by key and by value
                    _ => {
                        let keep = |k: u8, v: u32| k % 3 != key % 3 || v & 1 == 0;
                        r.retain(|&k, &v| keep(k, v));
                        model.0.retain(|&(k, v, _)| keep(k, v));
                    }
                }
                assert_agrees(&r, &model);
            }
            // draining pops the whole model, least recently used first
            while let Some(popped) = model.pop_lru() {
                prop_assert_eq!(r.pop_lru(), Some(popped));
            }
            prop_assert_eq!(r.pop_lru(), None);
            prop_assert_eq!(r.weight(), 0);
        }
    }
}
