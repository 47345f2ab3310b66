//! The one recency structure of every bounded cache in the tree:
//! [`crate::LruCacheProvider`]'s object cache, `deeplake-core`'s
//! parsed-chunk cache (one per store), and the hub's query-result cache
//! and per-reference dataset handles.
//!
//! [`Recency`] is a hash map from key to a node of a slab, and the nodes
//! are threaded on one doubly linked list in recency order, each carrying
//! a weight the caller chose (bytes for the caches, one per handle for
//! the hub's handles). A touch relinks one node at the back and the least
//! recently used entry is the front: touch, insert, remove and evict are
//! O(1) after the key's hash probe, with no scan, and once the slab has
//! grown to the largest population it held none of them allocates (a
//! vacated node is reused). A caller that already knows where an entry
//! lives — the hub's result cache keeps a [`Handle`] beside each raw
//! query text — touches it through the handle without hashing its key a
//! second time; a handle to an entry that has since left finds nothing.
//! An [`update`](Recency::update) reweighs an entry without touching it.
//! It only orders and weighs; *when* to evict is each caller's policy,
//! written as a loop over [`pop_lru`](Recency::pop_lru) against
//! [`weight`](Recency::weight) and [`len`](Recency::len).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// End of a list: no node.
const NIL: usize = usize::MAX;

/// One place in the slab: an entry, or a vacancy on the free list.
struct Node<K, V> {
    /// `None` while the node is vacant.
    entry: Option<(K, V)>,
    weight: u64,
    /// Bumped every time the node's occupant leaves, so a [`Handle`] to
    /// a former occupant never reaches the next one.
    generation: u64,
    /// Neighbours in recency order, `prev` the less recently used; on
    /// the free list `next` is the next vacancy.
    prev: usize,
    next: usize,
}

/// Where one entry lives, for [`Recency::touch`]: valid until that
/// entry is removed, evicted or replaced, and `None` from every lookup
/// after that, whatever occupies its place then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle {
    node: usize,
    generation: u64,
}

/// Entries in least-recently-used order, each with a weight.
///
/// The entries live in a slab of nodes threaded on one doubly linked
/// list, least recently used first; a key finds its node through one
/// hash probe, and a [`Handle`] finds it with none. `weight` is the sum
/// of the entries' weights.
pub struct Recency<K, V> {
    index: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// The least and the most recently used node.
    head: usize,
    tail: usize,
    /// First vacant node.
    free: usize,
    weight: u64,
}

impl<K, V> Default for Recency<K, V> {
    fn default() -> Self {
        Recency {
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
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
        let node = *self.index.get(key)?;
        self.move_to_back(node);
        self.nodes[node].entry.as_ref().map(|(_, v)| v)
    }

    /// Where `key`'s entry lives now, without touching it.
    pub fn handle<Q>(&self, key: &Q) -> Option<Handle>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let node = *self.index.get(key)?;
        Some(Handle {
            node,
            generation: self.nodes[node].generation,
        })
    }

    /// The entry `handle` names, which becomes the most recently used —
    /// [`get`](Self::get) without hashing the key. `None` once that
    /// entry has left.
    pub fn touch(&mut self, handle: Handle) -> Option<(&K, &V)> {
        self.live(handle)?;
        self.move_to_back(handle.node);
        self.nodes[handle.node].entry.as_ref().map(|(k, v)| (k, v))
    }

    /// The entry `handle` names, left where it is in the order.
    pub fn at(&self, handle: Handle) -> Option<(&K, &V)> {
        self.live(handle)?;
        self.nodes[handle.node].entry.as_ref().map(|(k, v)| (k, v))
    }

    /// Store `value` under `key` as the most recently used, weighing
    /// `weight`; returns the value it replaced. A replaced entry's
    /// handles are void.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> Option<V> {
        self.weight += weight;
        if let Some(&node) = self.index.get(&key) {
            let n = &mut self.nodes[node];
            let (_, old) = n
                .entry
                .replace((key, value))
                .expect("an indexed node is full");
            n.generation += 1;
            self.weight -= std::mem::replace(&mut n.weight, weight);
            self.move_to_back(node);
            return Some(old);
        }
        let node = match self.free {
            NIL => {
                self.nodes.push(Node {
                    entry: None,
                    weight: 0,
                    generation: 0,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
            vacant => {
                self.free = self.nodes[vacant].next;
                vacant
            }
        };
        self.index.insert(key.clone(), node);
        let n = &mut self.nodes[node];
        n.entry = Some((key, value));
        n.weight = weight;
        self.link_back(node);
        None
    }

    /// Change `key`'s value and weight in place through `f`, leaving its
    /// recency as it was; returns what `f` returns, or `None` when `key`
    /// is absent.
    pub fn update<Q, R>(&mut self, key: &Q, f: impl FnOnce(&mut V, &mut u64) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let n = &mut self.nodes[*self.index.get(key)?];
        let before = n.weight;
        let (_, value) = n.entry.as_mut().expect("an indexed node is full");
        let out = f(value, &mut n.weight);
        self.weight = self.weight - before + n.weight;
        Some(out)
    }

    /// Remove `key`'s entry; returns its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let node = self.index.remove(key)?;
        Some(self.vacate(node).1)
    }

    /// Remove the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let (key, value) = self.vacate(self.head);
        self.index.remove(&key);
        Some((key, value))
    }

    /// Keep only the entries `keep` accepts. O(n): for bulk invalidation,
    /// not for eviction.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        for node in 0..self.nodes.len() {
            let doomed = match &self.nodes[node].entry {
                Some((k, v)) => !keep(k, v),
                None => false,
            };
            if doomed {
                let (key, _) = self.vacate(node);
                self.index.remove(&key);
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of the entries' weights.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// `Some` when `handle`'s entry is still in its node.
    fn live(&self, handle: Handle) -> Option<()> {
        let n = self.nodes.get(handle.node)?;
        (n.generation == handle.generation && n.entry.is_some()).then_some(())
    }

    /// Make `node` the most recently used.
    fn move_to_back(&mut self, node: usize) {
        if self.tail != node {
            self.unlink(node);
            self.link_back(node);
        }
    }

    fn link_back(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        n.prev = self.tail;
        n.next = NIL;
        match self.tail {
            NIL => self.head = node,
            tail => self.nodes[tail].next = node,
        }
        self.tail = node;
    }

    fn unlink(&mut self, node: usize) {
        let Node { prev, next, .. } = self.nodes[node];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next].prev = prev,
        }
    }

    /// Take `node`'s entry out of the order and the weight and put the
    /// node on the free list; the caller drops its index slot.
    fn vacate(&mut self, node: usize) -> (K, V) {
        self.unlink(node);
        let n = &mut self.nodes[node];
        let entry = n.entry.take().expect("a linked node is full");
        self.weight -= n.weight;
        n.generation += 1;
        n.next = self.free;
        self.free = node;
        entry
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

    /// Contents, order and total weight agree: the list walked from
    /// either end is the model's order, and the index names each entry's
    /// node.
    fn assert_agrees(r: &Recency<u8, u32>, model: &Model) {
        let mut forward = Vec::new();
        let mut node = r.head;
        let mut prev = NIL;
        while node != NIL {
            let n = &r.nodes[node];
            assert_eq!(n.prev, prev, "node {node}'s back link");
            forward.push(n.entry.as_ref().expect("a linked node is full").0);
            (prev, node) = (node, n.next);
        }
        assert_eq!(prev, r.tail);
        let want: Vec<u8> = model.0.iter().map(|&(k, _, _)| k).collect();
        assert_eq!(forward, want, "recency order");
        assert_eq!(r.len(), model.0.len());
        assert_eq!(r.is_empty(), model.0.is_empty());
        assert_eq!(r.weight(), model.0.iter().map(|&(_, _, w)| w).sum::<u64>());
        for &(k, v, w) in &model.0 {
            let n = &r.nodes[r.index[&k]];
            assert_eq!(n.entry, Some((k, v)), "entry {k}");
            assert_eq!(n.weight, w, "entry {k}'s weight");
        }
        // every other node is vacant and on the free list, once
        let mut vacant = 0;
        let mut node = r.free;
        while node != NIL {
            assert!(r.nodes[node].entry.is_none(), "free node {node} is full");
            vacant += 1;
            node = r.nodes[node].next;
        }
        assert_eq!(vacant + r.len(), r.nodes.len(), "no node is lost");
    }

    /// Hundreds of entries, a fifth of them removed: the order and the
    /// handles hold, a handle to a removed entry finds nothing, and the
    /// vacated nodes are reused before the slab grows.
    #[test]
    fn hundreds_of_entries_keep_their_order_and_handles() {
        let n = 773;
        let mut r = Recency::new();
        let mut model: Vec<usize> = Vec::new();
        for k in 0..n {
            r.insert(k, k as u32, 1);
            model.push(k);
        }
        let handles: Vec<Handle> = (0..n).map(|k| r.handle(&k).unwrap()).collect();
        for k in (0..n).step_by(5) {
            assert_eq!(r.remove(&k), Some(k as u32));
            model.retain(|&m| m != k);
        }
        for k in (0..n).step_by(7) {
            let touched = r.touch(handles[k]).map(|(&k, &v)| (k, v));
            assert_eq!(touched, (k % 5 != 0).then_some((k, k as u32)), "key {k}");
            if let Some(i) = model.iter().position(|&m| m == k) {
                let k = model.remove(i);
                model.push(k);
            }
        }
        let nodes = r.nodes.len();
        for k in n..n + n / 5 {
            r.insert(k, k as u32, 1);
            model.push(k);
        }
        assert_eq!(r.nodes.len(), nodes, "vacancies reused first");
        assert_eq!(r.weight(), model.len() as u64);
        let popped: Vec<usize> = std::iter::from_fn(|| r.pop_lru().map(|(k, _)| k)).collect();
        assert_eq!(popped, model);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A handle taken of a key reaches that entry — and touches it as
        /// `get` would — until the entry is removed, evicted or replaced;
        /// after that it reaches nothing, whatever reuses its node.
        #[test]
        fn recency_agrees_with_the_reference_model(
            ops in proptest::collection::vec((0u8..10, 0u8..12, any::<u32>(), 0u64..5_000), 0..120),
        ) {
            let mut r = Recency::new();
            let mut model = Model::default();
            // the handle last taken of each key, with the incarnation of
            // the key's entry it was taken of; an insert, a removal or an
            // eviction ends an incarnation
            let mut handles: Vec<Option<(Handle, u64)>> = vec![None; 12];
            let mut incarnation = [0u64; 12];
            for (op, key, value, weight) in ops {
                let k = key as usize;
                match op {
                    // get (a hit or a miss)
                    0 | 1 => prop_assert_eq!(r.get(&key).copied(), model.get(key)),
                    // insert: a new key or an overwrite
                    2 | 3 => {
                        incarnation[k] += 1;
                        prop_assert_eq!(r.insert(key, value, weight), model.insert(key, value, weight));
                    }
                    4 => {
                        incarnation[k] += 1;
                        prop_assert_eq!(r.remove(&key), model.remove(key));
                    }
                    5 => {
                        let popped = model.pop_lru();
                        if let Some((k, _)) = popped {
                            incarnation[k as usize] += 1;
                        }
                        prop_assert_eq!(r.pop_lru(), popped);
                    }
                    // reweigh in place: heavier or lighter, order unchanged
                    6 => prop_assert_eq!(
                        r.update(&key, |v, w| {
                            let old = *v;
                            (*v, *w) = (value, weight);
                            old
                        }),
                        model.update(key, value, weight)
                    ),
                    7 => {
                        let handle = r.handle(&key);
                        prop_assert_eq!(handle.is_some(), model.position(key).is_some());
                        handles[k] = handle.map(|h| (h, incarnation[k]));
                    }
                    // touch through the handle: `get` while its entry lives
                    8 => {
                        if let Some((handle, seen)) = handles[k] {
                            let want = if seen == incarnation[k] { model.get(key) } else { None };
                            prop_assert_eq!(r.at(handle).map(|(&k, &v)| (k, v)), want.map(|v| (key, v)));
                            prop_assert_eq!(r.touch(handle).map(|(&k, &v)| (k, v)), want.map(|v| (key, v)));
                        }
                    }
                    // by key and by value
                    _ => {
                        let keep = |k: u8, v: u32| k % 3 != key % 3 || v & 1 == 0;
                        for &(k, v, _) in &model.0 {
                            if !keep(k, v) {
                                incarnation[k as usize] += 1;
                            }
                        }
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
