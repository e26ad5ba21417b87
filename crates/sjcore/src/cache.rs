//! Opt-in LRU cache of intermediate derivation results (§5.4).
//!
//! Two derivation sequences that perform the same expensive derivation
//! should compute it only once. The plan executor fingerprints every plan
//! node; when caching is enabled, a node's materialized rows are stored
//! under that fingerprint and reused by later executions. Capacity is
//! bounded in bytes by the shared [`sjdf::Lru`]. Entries are shared, so
//! a hit hands back the stored rows without copying them.

use crate::row::Row;
use crate::schema::Schema;
use parking_lot::Mutex;
use sjdf::{ByteSize, CacheStats, Lru};
use std::sync::Arc;

/// One cached materialization.
pub type CachedResult = Arc<(Schema, Vec<Row>)>;

/// LRU intermediate-result cache keyed by plan-node fingerprints.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Lru<u64, CachedResult>>,
}

impl ResultCache {
    /// In-memory cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity_bytes)),
        }
    }

    /// Look up a materialization by fingerprint.
    pub fn get(&self, key: u64) -> Option<CachedResult> {
        self.inner.lock().get(&key).cloned()
    }

    /// Insert a materialization and return the stored entry. An entry
    /// larger than the whole capacity is returned but not kept.
    pub fn put(&self, key: u64, schema: Schema, rows: Vec<Row>) -> CachedResult {
        let bytes = rows.iter().map(ByteSize::byte_size).sum::<usize>();
        let entry = Arc::new((schema, rows));
        // Evicted rows are freed after the lock is released.
        let _evicted = self.inner.lock().insert(key, Arc::clone(&entry), bytes);
        entry
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::semantics::FieldSemantics;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![FieldDef::new(
            "x",
            FieldSemantics::value("temperature", "celsius"),
        )])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn put_get_round_trip() {
        let c = ResultCache::new(1 << 20);
        c.put(42, schema(), rows(3));
        let hit = c.get(42).unwrap();
        assert_eq!(hit.0, schema());
        assert_eq!(hit.1.len(), 3);
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(43).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hits_share_the_stored_rows() {
        let c = ResultCache::new(1 << 20);
        let stored = c.put(7, schema(), rows(5));
        assert!(Arc::ptr_eq(&stored, &c.get(7).unwrap()));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Each 10-row entry is ~400 bytes; capacity fits two.
        let entry_bytes = rows(10).iter().map(ByteSize::byte_size).sum::<usize>();
        let c = ResultCache::new(entry_bytes * 2 + 10);
        c.put(1, schema(), rows(10));
        c.put(2, schema(), rows(10));
        // Touch 1 so 2 becomes the LRU victim.
        c.get(1).unwrap();
        c.put(3, schema(), rows(10));
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes <= (entry_bytes * 2 + 10) as u64);
    }

    #[test]
    fn oversized_entries_are_returned_but_not_cached() {
        let c = ResultCache::new(10);
        assert_eq!(c.put(1, schema(), rows(100)).1.len(), 100);
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn replacing_an_entry_adjusts_bytes() {
        let c = ResultCache::new(1 << 20);
        c.put(1, schema(), rows(100));
        let b1 = c.stats().bytes;
        c.put(1, schema(), rows(10));
        assert!(c.stats().bytes < b1);
        assert_eq!(c.stats().entries, 1);
    }
}
