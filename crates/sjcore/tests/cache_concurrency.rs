//! Concurrency tests for the LRU result cache: many threads hammering
//! `get`/`put` on a capacity-bounded cache must never deadlock, corrupt
//! the byte accounting, or lose the LRU invariant. This is the exact
//! access pattern the query service's worker pool produces.

use sjcore::cache::ResultCache;
use sjcore::{FieldDef, FieldSemantics, Row, Schema, Value};
use std::sync::Arc;
use std::thread;

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
        FieldDef::new("temp", FieldSemantics::value("temperature", "celsius")),
    ])
    .unwrap()
}

fn rows(tag: u64, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("cab{tag}-{i}")),
                Value::Float(60.0 + (i % 9) as f64),
            ])
        })
        .collect()
}

#[test]
fn concurrent_get_put_with_eviction_stays_consistent() {
    // Small capacity so eviction happens constantly under load.
    let cache = Arc::new(ResultCache::new(64 << 10));
    let schema = schema();
    let threads = 8;
    let keys_per_thread = 32u64;
    let rounds = 40;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let schema = schema.clone();
            thread::spawn(move || {
                let mut local_hits = 0u64;
                for round in 0..rounds {
                    for k in 0..keys_per_thread {
                        // Threads overlap on half the key space, so gets
                        // race puts of the same key and evictions of
                        // other keys.
                        let key = if k % 2 == 0 { k } else { t * 1000 + k };
                        match cache.get(key) {
                            Some(entry) => {
                                let (s, r) = &*entry;
                                // An entry must come back whole, never a
                                // torn or partially evicted state.
                                assert_eq!(s.len(), 2);
                                assert!(!r.is_empty());
                                assert_eq!(r[0].values().len(), 2);
                                local_hits += 1;
                            }
                            None => {
                                cache.put(key, schema.clone(), rows(key, 8 + (round % 5)));
                            }
                        }
                    }
                }
                local_hits
            })
        })
        .collect();

    let total_hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = cache.stats();

    // The cache was far smaller than the working set: eviction must have
    // happened, and the byte accounting must still respect capacity.
    assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
    assert!(
        stats.bytes <= 64 << 10,
        "cache over budget: {} bytes",
        stats.bytes
    );
    // Overlapping keys guarantee some hits, and the shared counters must
    // at least account for every hit the threads observed.
    assert!(total_hits > 0, "overlapping keys should produce hits");
    assert!(
        stats.hits >= total_hits,
        "{stats:?} vs {total_hits} observed"
    );
    assert!(stats.misses > 0);

    // After the storm the cache still works single-threaded.
    cache.put(u64::MAX, schema.clone(), rows(9, 4));
    let entry = cache.get(u64::MAX).expect("fresh entry readable");
    assert_eq!(entry.1.len(), 4);
}

#[test]
fn concurrent_readers_of_one_hot_key_all_see_the_same_rows() {
    let cache = Arc::new(ResultCache::new(1 << 20));
    let expected = rows(7, 16);
    cache.put(7, schema(), expected.clone());

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let expected = expected.clone();
            thread::spawn(move || {
                for _ in 0..200 {
                    let got = cache.get(7).expect("hot key stays resident");
                    assert_eq!(got.1, expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cache.stats().hits, 8 * 200);
}
