//! The router's answer cache.
//!
//! Keyed by the solved plan's fingerprint plus the effective row limit —
//! everything that determines the answer's bytes — and cleared wholesale
//! whenever any worker's catalog epoch changes (the router cannot know
//! which cached results the changed shard contributed to, and epochs
//! change rarely, so a full invalidation is both correct and cheap).
//!
//! An entry is a ready-to-send response whose rows are one encoded
//! section ([`Response::result_rows`]): the section a worker's
//! single-shard answer arrived in, or a merged answer's rows encoded
//! once. Storing or returning an entry therefore copies the small
//! envelope and clones an `Arc`, never the rows. A byte-budgeted [`Lru`]
//! under [`ROUTE_CACHE_BYTES`], each answer charged its column names
//! plus its section's length.

use parking_lot::Mutex;
use sjdf::{ByteSize, CacheStats, Lru};
use sjserve::protocol::Response;

/// Byte budget of the route cache: the worker result cache's default.
pub const ROUTE_CACHE_BYTES: usize = 64 << 20;

/// Bounded map of (plan fingerprint, limit) → ready-to-send response.
#[derive(Debug)]
pub struct RouteCache {
    inner: Mutex<Lru<(u64, usize), Response>>,
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache {
            inner: Mutex::new(Lru::new(ROUTE_CACHE_BYTES)),
        }
    }
}

impl RouteCache {
    pub fn get(&self, plan_fingerprint: u64, limit: usize) -> Option<Response> {
        self.inner.lock().get(&(plan_fingerprint, limit)).cloned()
    }

    /// Keep an answer, encoding its rows first if they are not already.
    pub fn put(&self, plan_fingerprint: u64, limit: usize, mut response: Response) {
        if response.result_rows.is_none() {
            response.encode_result_rows();
        }
        let bytes = response
            .result
            .as_ref()
            .map_or(0, |r| r.columns.byte_size())
            + response
                .result_rows
                .as_ref()
                .map_or(0, |rows| rows.as_bytes().len());
        // Evicted answers are freed after the lock is released.
        let _evicted = self
            .inner
            .lock()
            .insert((plan_fingerprint, limit), response, bytes);
    }

    /// Epoch invalidation: drop everything.
    pub fn invalidate_all(&self) {
        self.inner.lock().clear();
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(id: &str) -> Response {
        Response::ok(id)
    }

    #[test]
    fn caches_and_counts_hits() {
        let cache = RouteCache::default();
        assert!(cache.get(0xabc, 100).is_none());
        cache.put(0xabc, 100, resp("a"));
        assert_eq!(cache.get(0xabc, 100).unwrap().id, "a");
        assert!(
            cache.get(0xabc, 200).is_none(),
            "the limit is part of the key"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let cache = RouteCache::default();
        cache.put(1, 10, resp("1"));
        cache.put(2, 10, resp("2"));
        cache.invalidate_all();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(1, 10).is_none());
    }
}
