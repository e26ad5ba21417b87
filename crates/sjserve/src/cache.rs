//! The plan-compilation cache: the upper level of the service's
//! two-level cache.
//!
//! Level 1 (here) memoizes the *derivation search*: a normalized,
//! canonicalized [`Query`] plus the engine knobs that shape plans maps to
//! the solved [`Plan`]. The search is the expensive combinatorial part of
//! ScrubJay (§5.2), and two clients asking for the same dimensions in a
//! different order land on the same entry. Level 2 is the existing
//! [`sjcore::cache::ResultCache`], keyed by [`Plan::fingerprint`], which
//! memoizes *materialized rows*; the service wires both together.
//!
//! Clients choose the knobs, so the key space is unbounded: the cache is
//! a byte-budgeted [`Lru`] under [`PLAN_CACHE_BYTES`], each plan charged
//! its JSON length.

use parking_lot::Mutex;
use sjcore::engine::{Plan, Query};
use sjdf::{CacheStats, Lru};
use std::sync::Arc;

/// Byte budget of one plan cache. A plan's JSON runs from a few hundred
/// bytes to about a KiB, so this holds thousands of distinct queries.
pub const PLAN_CACHE_BYTES: usize = 4 << 20;

/// Cache key: the normalized query plus every engine knob that can change
/// the solved plan. Window and step are carried as microsecond integers
/// so the key stays `Eq + Hash` without hashing raw floats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    query: Query,
    window_us: u64,
    step_us: u64,
}

impl PlanKey {
    /// Build a key from a *canonicalized* query (aliases resolved) and
    /// the effective engine knobs. Normalization makes domain/value order
    /// irrelevant.
    ///
    /// Returns `None` for knobs no plan can be keyed on — NaN, infinite,
    /// or negative values — instead of silently collapsing them all to
    /// key 0 where they would collide with each other and with legitimate
    /// zero-window queries. Finite values beyond ~5.8e5 years saturate to
    /// `u64::MAX` microseconds (the `as` cast saturates), which keeps
    /// them distinct from every practical knob.
    pub fn new(canonical_query: &Query, window_secs: f64, step_secs: f64) -> Option<Self> {
        Some(PlanKey {
            query: canonical_query.normalized(),
            window_us: knob_to_us(window_secs)?,
            step_us: knob_to_us(step_secs)?,
        })
    }
}

/// Microsecond representation of a window/step knob; `None` when the
/// knob is not a usable duration (non-finite or negative).
fn knob_to_us(secs: f64) -> Option<u64> {
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((secs * 1e6) as u64)
}

/// Thread-safe memo of solved plans.
#[derive(Debug)]
pub struct PlanCacheLayer {
    plans: Mutex<Lru<PlanKey, Arc<Plan>>>,
}

impl Default for PlanCacheLayer {
    fn default() -> Self {
        PlanCacheLayer {
            plans: Mutex::new(Lru::new(PLAN_CACHE_BYTES)),
        }
    }
}

impl PlanCacheLayer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a solved plan, counting the hit or miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        self.plans.lock().get(key).cloned()
    }

    /// Insert a freshly solved plan. If another thread solved the same
    /// query first, its entry wins and is returned — both plans satisfy
    /// the query, and keeping one maximizes downstream result-cache hits.
    pub fn insert(&self, key: PlanKey, plan: Plan) -> Arc<Plan> {
        let bytes = plan.to_json().len();
        let mut plans = self.plans.lock();
        if let Some(winner) = plans.peek(&key) {
            return Arc::clone(winner);
        }
        let plan = Arc::new(plan);
        plans.insert(key, Arc::clone(&plan), bytes);
        plan
    }

    pub fn stats(&self) -> CacheStats {
        self.plans.lock().stats()
    }

    pub fn clear(&self) {
        self.plans.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcore::engine::QueryValue;

    fn q(domains: &[&str], values: &[&str]) -> Query {
        Query {
            domains: domains.iter().map(|s| s.to_string()).collect(),
            values: values.iter().map(|v| QueryValue::dim(v)).collect(),
        }
    }

    #[test]
    fn order_insensitive_keys() {
        let a = PlanKey::new(&q(&["rack", "job"], &["heat", "application"]), 120.0, 60.0).unwrap();
        let b = PlanKey::new(&q(&["job", "rack"], &["application", "heat"]), 120.0, 60.0).unwrap();
        assert_eq!(a, b);
        let c = PlanKey::new(&q(&["job", "rack"], &["application", "heat"]), 300.0, 60.0).unwrap();
        assert_ne!(a, c, "different window must be a different key");
    }

    #[test]
    fn counts_hits_and_misses() {
        let cache = PlanCacheLayer::new();
        let key = PlanKey::new(&q(&["rack"], &["heat"]), 120.0, 60.0).unwrap();
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), Plan::load("sensors"));
        assert!(cache.get(&key).is_some());
        assert!(cache.get(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert_eq!(s.bytes, Plan::load("sensors").to_json().len() as u64);
    }

    #[test]
    fn invalid_knobs_are_rejected_not_collapsed_to_zero() {
        // Regression: NaN, infinities, and negatives used to all cast to
        // key 0 via `as u64`, colliding with each other and with a real
        // zero-window query.
        let query = q(&["rack"], &["heat"]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-9] {
            assert!(PlanKey::new(&query, bad, 60.0).is_none(), "window {bad}");
            assert!(PlanKey::new(&query, 60.0, bad).is_none(), "step {bad}");
        }
        // A genuine zero window remains a valid, unique key.
        let zero = PlanKey::new(&query, 0.0, 0.0).unwrap();
        let normal = PlanKey::new(&query, 120.0, 60.0).unwrap();
        assert_ne!(zero, normal);
        // Huge finite knobs saturate but stay distinct from zero.
        let huge = PlanKey::new(&query, 1e300, 60.0).unwrap();
        assert_ne!(huge, PlanKey::new(&query, 0.0, 60.0).unwrap());
    }

    #[test]
    fn first_insert_wins_races() {
        let cache = PlanCacheLayer::new();
        let key = PlanKey::new(&q(&["rack"], &["heat"]), 120.0, 60.0).unwrap();
        let first = cache.insert(key.clone(), Plan::load("a"));
        let second = cache.insert(key, Plan::load("b"));
        assert_eq!(first, second, "racing insert must return the winner");
    }
}
