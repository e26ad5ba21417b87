//! A byte-budgeted least-recently-used map: the one eviction policy
//! behind every cache in the workspace (the stage cache here, the result
//! cache in `sjcore`, the plan cache in `sjserve`, the route cache in
//! `sjroute`).
//!
//! Every entry carries a caller-supplied byte charge. An insertion that
//! pushes the total past the budget evicts least-recently-used entries
//! until it fits again. Entries live in a `HashMap`; a `BTreeMap` from a
//! monotone tick to key orders them by recency, so each eviction pops the
//! oldest entry instead of scanning the map.
//!
//! An entry charged more than the whole budget is never stored:
//! [`Lru::insert`] drops any older entry under the same key and hands the
//! new one straight back as its only evicted entry, disturbing nothing
//! else. An owner that already published the value elsewhere (the stage
//! cache's slots) clears it from that list like any other victim. It does
//! not count in [`CacheStats::evictions`], since it displaced nothing.
//!
//! Only [`Lru::get`] counts hits and misses; [`Lru::peek`] and
//! [`Lru::touch`] count nothing, for owners that keep their own
//! accounting. The map is not synchronized: each owner keeps it behind
//! the one lock it already has.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Counters every cache reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`Lru::get`] calls that found their key.
    pub hits: u64,
    /// [`Lru::get`] calls that did not.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Bytes currently charged.
    pub bytes: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

/// A byte-budgeted LRU map (see the [module docs](self)).
#[derive(Debug)]
pub struct Lru<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Recency index: tick of last use → key; the first entry is the
    /// eviction victim.
    recency: BTreeMap<u64, K>,
    tick: u64,
    bytes: usize,
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty map holding at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        Lru {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            budget,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, counting a hit or a miss; a hit becomes the most
    /// recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if !self.touch(key) {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.peek(key)
    }

    /// Look up `key` without counting or refreshing it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Make `key` the most recently used entry without counting a hit.
    /// Returns whether it was present.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(entry) = self.entries.get_mut(key) else {
            return false;
        };
        let key = self
            .recency
            .remove(&entry.tick)
            .expect("the recency index holds every entry");
        self.tick += 1;
        entry.tick = self.tick;
        self.recency.insert(self.tick, key);
        true
    }

    /// Store `value` under `key`, charged `bytes`, replacing any older
    /// entry for the key. Returns the evicted entries, least recent
    /// first — just the new entry itself if it alone exceeds the budget.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        self.remove(&key);
        if bytes > self.budget {
            return vec![(key, value)];
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        let tick = self.tick;
        self.entries.insert(key, Entry { value, bytes, tick });
        self.bytes += bytes;
        self.evict_over_budget()
    }

    /// Remove every entry `pred` accepts, least recent first. Removals
    /// are not evictions.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let doomed: Vec<K> = self
            .recency
            .values()
            .filter(|key| pred(key, &self.entries[*key].value))
            .cloned()
            .collect();
        doomed
            .into_iter()
            .filter_map(|key| self.remove(&key).map(|value| (key, value)))
            .collect()
    }

    /// Change the budget, evicting least-recently-used entries until the
    /// contents fit. Returns the evicted entries, least recent first.
    pub fn set_budget(&mut self, budget: usize) -> Vec<(K, V)> {
        self.budget = budget;
        self.evict_over_budget()
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Drop every entry. Nothing counts as evicted.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len() as u64,
            bytes: self.bytes as u64,
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.entries.remove(key)?;
        self.recency.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry.value)
    }

    fn evict_over_budget(&mut self) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.bytes > self.budget {
            let Some((_, key)) = self.recency.pop_first() else {
                break;
            };
            let entry = self
                .entries
                .remove(&key)
                .expect("the recency index holds every entry");
            self.bytes -= entry.bytes;
            self.evictions += 1;
            evicted.push((key, entry.value));
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru = Lru::new(30);
        for k in 0..3 {
            assert!(lru.insert(k, k * 10, 10).is_empty());
        }
        assert!(lru.touch(&0)); // 1 is now the oldest
        assert_eq!(lru.insert(3, 30, 15), vec![(1, 10), (2, 20)]);
        let s = lru.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 25, 2));
    }

    #[test]
    fn only_get_counts_hits_and_misses() {
        let mut lru = Lru::new(100);
        lru.insert("a", 1, 1);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.peek(&"a"), Some(&1));
        assert!(lru.touch(&"a"));
        assert!(!lru.touch(&"b"));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn oversized_entry_is_handed_back_and_displaces_nothing() {
        let mut lru = Lru::new(10);
        lru.insert(1, "small", 5);
        lru.insert(2, "stale", 5);
        assert_eq!(lru.insert(2, "huge", 11), vec![(2, "huge")]);
        assert_eq!(lru.peek(&1), Some(&"small"));
        assert_eq!(lru.peek(&2), None, "the older entry under the key is gone");
        let s = lru.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 5, 0));
    }
}
