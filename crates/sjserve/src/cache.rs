//! The worker's two cache levels.
//!
//! Level 1, [`PlanCacheLayer`], memoizes the *derivation search*: a
//! normalized, canonicalized [`Query`] plus the engine knobs that shape
//! plans maps to the solved [`Plan`]. The search is the expensive
//! combinatorial part of ScrubJay (§5.2), and two clients asking for the
//! same dimensions in a different order land on the same entry. Clients
//! choose the knobs, so the key space is unbounded: the cache is a
//! byte-budgeted [`Lru`] under [`PLAN_CACHE_BYTES`], each plan charged
//! its JSON length.
//!
//! Level 2, [`AnswerCache`], keyed by [`Plan::fingerprint`], memoizes
//! *answers*, and holds each one in wire form: an [`EncodedAnswer`] is
//! the column names, the row count and one result-rows section
//! ([`crate::wire::RowSection`]), rendered and encoded once when the
//! answer enters the cache. A hit cuts the request's `limit` prefix from
//! that section and formats no cell; the cut is the section a fresh
//! encoding of those rows would be. Entries are charged their encoded
//! length against the `result_cache_bytes` budget; a budget of 0 turns
//! the level off. A miss whose answer the level cannot keep (off, or
//! rows larger than the budget) renders only the rows it returns. (`sjcore::cache::ResultCache`, which keeps `Row`s, is
//! the §5.4 plan-node cache, not this level.)

use parking_lot::Mutex;
use sjcore::engine::{Plan, Query};
use sjcore::row::Row;
use sjcore::schema::Schema;
use sjdf::{ByteSize, CacheStats, Lru};
use std::sync::Arc;

use crate::wire::RowSection;

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

/// One query answer in wire form: what the worker's result cache holds.
#[derive(Debug)]
pub struct EncodedAnswer {
    /// Column names, in schema order.
    pub columns: Vec<String>,
    /// Rows the query produced.
    pub row_count: usize,
    /// The leading `encoded_rows` rows, rendered and encoded.
    rows: RowSection,
    encoded_rows: usize,
}

impl EncodedAnswer {
    /// Render and encode the first `keep` of `rows`: all of them for an
    /// answer the cache may keep, and only the prefix a request returns
    /// when it cannot ([`AnswerCache::admit`]).
    pub fn new(schema: &Schema, rows: &[Row], keep: usize) -> Self {
        let kept = &rows[..keep.min(rows.len())];
        EncodedAnswer {
            columns: schema.fields().iter().map(|f| f.name.clone()).collect(),
            row_count: rows.len(),
            encoded_rows: kept.len(),
            rows: RowSection::render(kept, schema.len()),
        }
    }

    /// The answer's charge in the cache: its section's length.
    pub fn encoded_len(&self) -> usize {
        self.rows.as_bytes().len()
    }

    /// The first `limit` rows as a section, `None` when that is no rows:
    /// the stored section itself when it holds no more, else a cut from
    /// it.
    pub fn rows(&self, limit: usize) -> Option<RowSection> {
        debug_assert!(limit.min(self.row_count) <= self.encoded_rows);
        match limit.min(self.encoded_rows) {
            0 => None,
            n if n == self.encoded_rows => Some(self.rows.clone()),
            n => Some(
                self.rows
                    .prefix(n)
                    .expect("a section this worker encoded cuts cleanly"),
            ),
        }
    }
}

/// The worker's result cache: encoded answers by plan fingerprint.
#[derive(Debug)]
pub struct AnswerCache {
    answers: Mutex<Lru<u64, Arc<EncodedAnswer>>>,
}

impl AnswerCache {
    /// A cache holding at most `budget` encoded bytes; 0 keeps nothing.
    pub fn new(budget: usize) -> Self {
        AnswerCache {
            answers: Mutex::new(Lru::new(budget)),
        }
    }

    /// Look up an answer, counting the hit or miss.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<EncodedAnswer>> {
        self.answers.lock().get(&fingerprint).cloned()
    }

    /// Encode a freshly executed answer, keep it if it fits, and return
    /// it. Only an answer the cache can keep is encoded whole; otherwise
    /// just the `limit` rows the request returns are, and nothing is
    /// kept. Which one is judged before any cell is rendered, from the
    /// rows' in-memory size (what this level charged when it held
    /// `Row`s, so it keeps what it kept then): the encoding is smaller
    /// for strings and dict-heavy tables, and an encoding that still
    /// exceeds the budget is served but not kept. A kept answer is
    /// charged [`EncodedAnswer::encoded_len`].
    pub fn admit(
        &self,
        fingerprint: u64,
        schema: &Schema,
        rows: &[Row],
        limit: usize,
    ) -> Arc<EncodedAnswer> {
        let budget = self.answers.lock().budget();
        let keepable = budget > 0 && rows.iter().map(ByteSize::byte_size).sum::<usize>() <= budget;
        if !keepable {
            return Arc::new(EncodedAnswer::new(schema, rows, limit));
        }
        let answer = Arc::new(EncodedAnswer::new(schema, rows, rows.len()));
        // Evicted answers are freed after the lock is released.
        let _evicted =
            self.answers
                .lock()
                .insert(fingerprint, Arc::clone(&answer), answer.encoded_len());
        answer
    }

    pub fn stats(&self) -> CacheStats {
        self.answers.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjcore::engine::QueryValue;
    use sjcore::schema::FieldDef;
    use sjcore::semantics::FieldSemantics;
    use sjcore::value::Value;

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

    /// `nrows` rows of one `column` value each, plus a repeated node.
    fn table(nrows: usize, column: impl Fn(usize) -> Value) -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            FieldDef::new("node", FieldSemantics::domain("compute-node", "node-id")),
            FieldDef::new("power", FieldSemantics::value("power", "watts")),
        ])
        .unwrap();
        let rows = (0..nrows)
            .map(|i| Row::new(vec![Value::str(format!("cab{}", i % 4)), column(i)]))
            .collect();
        (schema, rows)
    }

    fn answer(nrows: usize, keep: usize) -> EncodedAnswer {
        let (schema, rows) = table(nrows, |i| Value::Int(i as i64));
        EncodedAnswer::new(&schema, &rows, keep)
    }

    #[test]
    fn answers_serve_every_limit_from_one_encoding() {
        let full = answer(50, 50);
        assert_eq!((full.row_count, full.columns.len()), (50, 2));
        assert!(full.rows(0).is_none());
        for limit in [1, 7, 49, 50, 51, 1000] {
            let rows = full.rows(limit).unwrap().decode().unwrap();
            assert_eq!(rows.len(), limit.min(50));
            assert_eq!(rows[0], vec!["cab0".to_string(), "0".to_string()]);
        }
        assert_eq!(
            full.rows(50),
            Some(full.rows.clone()),
            "no cut past the end"
        );
        // An answer the cache cannot keep renders only the returned prefix.
        let prefix = answer(50, 7);
        assert_eq!(prefix.row_count, 50);
        assert_eq!(prefix.rows(7).unwrap().decode().unwrap().len(), 7);
        assert!(prefix.encoded_len() < full.encoded_len());
    }

    #[test]
    fn answers_are_charged_their_encoded_length() {
        let (schema, rows) = table(50, |i| Value::Int(i as i64));
        let cache = AnswerCache::new(1 << 20);
        assert!(cache.get(1).is_none());
        let stored = cache.admit(1, &schema, &rows, 7);
        assert_eq!(stored.encoded_rows, 50, "a kept answer is encoded whole");
        assert!(Arc::ptr_eq(&stored, &cache.get(1).unwrap()));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 1));
        assert_eq!(s.bytes, stored.encoded_len() as u64);
    }

    #[test]
    fn answers_the_cache_cannot_keep_are_encoded_only_to_their_limit() {
        let (schema, rows) = table(50, |i| Value::Int(i as i64));
        let row_bytes: usize = rows.iter().map(ByteSize::byte_size).sum();
        // Off, or too small for the rows: the miss renders and encodes
        // the 7 rows it returns, and nothing is kept.
        for budget in [0, row_bytes - 1] {
            let cache = AnswerCache::new(budget);
            let served = cache.admit(1, &schema, &rows, 7);
            assert_eq!((served.row_count, served.encoded_rows), (50, 7));
            assert_eq!(served.rows(7).unwrap().decode().unwrap().len(), 7);
            assert_eq!(cache.stats().entries, 0, "budget {budget}");
        }
        let cache = AnswerCache::new(row_bytes);
        assert_eq!(cache.admit(1, &schema, &rows, 7).encoded_rows, 50);
        assert_eq!(cache.stats().entries, 1);

        // Long, distinct renderings encode larger than the rows: such an
        // answer passes the size check, is encoded whole and served, but
        // is not kept.
        let (schema, rows) = table(50, |i| Value::Float((i + 1) as f64 * 1e-40));
        let row_bytes: usize = rows.iter().map(ByteSize::byte_size).sum();
        let cache = AnswerCache::new(row_bytes);
        let served = cache.admit(1, &schema, &rows, 7);
        assert!(served.encoded_len() > row_bytes);
        assert_eq!(served.encoded_rows, 50);
        assert_eq!(cache.stats().entries, 0);
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
