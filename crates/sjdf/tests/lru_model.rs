//! Reference-model test for [`sjdf::Lru`], the eviction policy behind
//! every cache in the workspace: random operation sequences over a few
//! keys must produce exactly what a naive model produces — the same
//! lookups, the same victims in the same order, the same counters — and
//! the map must stay within its budget after every operation.

use proptest::prelude::*;
use sjdf::{CacheStats, Lru};

/// The naive model: a flat list whose victim is found by a linear scan
/// for the oldest use.
#[derive(Default)]
struct Model {
    /// (key, value, bytes, tick of last use).
    entries: Vec<(usize, usize, usize, u64)>,
    tick: u64,
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Model {
    fn position(&self, key: usize) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == key)
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.2).sum()
    }

    fn touch(&mut self, key: usize) -> bool {
        let Some(i) = self.position(key) else {
            return false;
        };
        self.tick += 1;
        self.entries[i].3 = self.tick;
        true
    }

    fn get(&mut self, key: usize) -> Option<usize> {
        if self.touch(key) {
            self.hits += 1;
            self.position(key).map(|i| self.entries[i].1)
        } else {
            self.misses += 1;
            None
        }
    }

    fn peek(&self, key: usize) -> Option<usize> {
        self.position(key).map(|i| self.entries[i].1)
    }

    fn insert(&mut self, key: usize, value: usize, bytes: usize) -> Vec<(usize, usize)> {
        if let Some(i) = self.position(key) {
            self.entries.remove(i);
        }
        if bytes > self.budget {
            return vec![(key, value)];
        }
        self.tick += 1;
        self.entries.push((key, value, bytes, self.tick));
        self.evict()
    }

    fn remove_where(&mut self, pred: impl Fn(usize, usize) -> bool) -> Vec<(usize, usize)> {
        let mut doomed: Vec<_> = self
            .entries
            .iter()
            .filter(|e| pred(e.0, e.1))
            .copied()
            .collect();
        doomed.sort_by_key(|e| e.3);
        self.entries.retain(|e| !pred(e.0, e.1));
        doomed.into_iter().map(|e| (e.0, e.1)).collect()
    }

    fn set_budget(&mut self, budget: usize) -> Vec<(usize, usize)> {
        self.budget = budget;
        self.evict()
    }

    fn evict(&mut self) -> Vec<(usize, usize)> {
        let mut victims = Vec::new();
        while self.bytes() > self.budget {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].3)
                .expect("over budget means non-empty");
            let (key, value, _, _) = self.entries.remove(oldest);
            self.evictions += 1;
            victims.push((key, value));
        }
        victims
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len() as u64,
            bytes: self.bytes() as u64,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lru_matches_the_linear_scan_model(
        budget in 0usize..200,
        ops in prop::collection::vec((0usize..7, 0usize..16, 0usize..60, 0usize..200), 1..160),
    ) {
        let mut lru: Lru<usize, usize> = Lru::new(budget);
        let mut model = Model { budget, ..Model::default() };
        for (step, &(op, key, bytes, arg)) in ops.iter().enumerate() {
            match op {
                0 | 1 => prop_assert_eq!(
                    lru.insert(key, step, bytes),
                    model.insert(key, step, bytes),
                    "step {}: insert {} ({} bytes)", step, key, bytes
                ),
                2 => prop_assert_eq!(lru.get(&key).copied(), model.get(key), "step {}", step),
                3 => prop_assert_eq!(lru.touch(&key), model.touch(key), "step {}", step),
                4 => prop_assert_eq!(lru.peek(&key).copied(), model.peek(key), "step {}", step),
                5 => {
                    // Alternate between key- and value-based predicates.
                    let pred = |k: usize, v: usize| {
                        if arg % 2 == 0 { k % 3 == arg % 3 } else { v % 4 == arg % 4 }
                    };
                    prop_assert_eq!(
                        lru.remove_where(|k, v| pred(*k, *v)),
                        model.remove_where(pred),
                        "step {}: remove_where", step
                    );
                }
                _ => prop_assert_eq!(
                    lru.set_budget(arg),
                    model.set_budget(arg),
                    "step {}: set_budget {}", step, arg
                ),
            }
            let stats = lru.stats();
            prop_assert_eq!(stats, model.stats(), "step {}: counters diverged", step);
            prop_assert!(
                stats.bytes <= lru.budget() as u64,
                "step {}: {} bytes over a {} budget", step, stats.bytes, lru.budget()
            );
        }
    }
}
