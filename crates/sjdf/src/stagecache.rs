//! Byte-budgeted memory manager for materialized stages.
//!
//! Spark's `persist()` keeps computed partitions in executor memory under
//! a block-manager budget; this module is the analogue for `sjdf`. Two
//! kinds of stage register here:
//!
//! * explicitly persisted datasets ([`Rdd::persist`](crate::Rdd::persist)),
//!   one entry per partition, and
//! * shuffle outputs (auto-persisted by every wide op), one entry per
//!   materialized bucket set.
//!
//! The cache never owns the data — the typed slots live inside the ops —
//! it only *accounts* for it (sizes come from [`crate::bytesize`]) and
//! decides what to drop, with the shared byte-budgeted [`Lru`]. When an
//! insertion pushes the total past the budget, least-recently-used
//! entries are evicted via a type-erased callback that clears the owning
//! slot; the lineage simply recomputes an evicted stage on its next
//! access, so eviction is always safe.
//!
//! # Locking
//!
//! The registry lock is a leaf-free zone: eviction callbacks are invoked
//! only *after* the registry lock is released, and slot implementations
//! must never call back into the registry while holding their slot lock.
//! This makes the lock order `registry → slot` acyclic even though
//! computing a partition (slot business) triggers insertions (registry
//! business).
//!
//! # Interaction with the fault model
//!
//! Recovery leans on the cache for partition-level recompute: when a task
//! attempt fails (genuinely or via an injected fault) and is retried, any
//! shuffle stage it consumes that is already `Full` is served from its
//! slot — the retry re-fetches, it does not re-shuffle. If the failure
//! happened *inside* a shuffle materialization, the cell's unwind guard
//! rolls the slot back from `InProgress` to `Empty`, so the next attempt
//! re-materializes from lineage and the exactly-once-compute invariant
//! (per successful materialization) is preserved. Eviction under fault
//! injection is likewise safe: a retried task that finds its input
//! evicted simply recomputes it, paying the cost but never changing the
//! result.

use crate::lru::Lru;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Globally unique id for one cache owner (a persisted dataset or one
/// shuffle cell).
pub(crate) fn next_owner_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Mint a fresh owner id for an external slot table (e.g. a streaming
/// emission cache) that wants its entries accounted and evicted by the
/// shared stage cache alongside persisted partitions.
pub fn mint_owner_id() -> u64 {
    next_owner_id()
}

/// A typed slot table that can drop one of its materialized entries.
///
/// Implementations must only take their own slot lock — never a
/// [`StageCache`] lock — inside [`evict`](EvictableSlot::evict), and must
/// treat an evict of an in-progress or already-empty slot as a no-op.
pub trait EvictableSlot: Send + Sync {
    /// Drop the cached value for `part`, if present.
    fn evict(&self, part: usize);
}

/// What the registry keeps per `(owner id, partition)`: the slot to clear
/// on eviction, and an optional invalidation group —
/// [`StageCache::invalidate_tag`] drops every entry sharing a tag,
/// regardless of owner. Streaming uses tags to key cached window
/// evaluations on (subscription, window id) and invalidate exactly the
/// cells whose input windows received appends.
type Registered = (Weak<dyn EvictableSlot>, Option<u64>);

/// Registry entries handed back for their slots to be cleared.
type Victims = Vec<((u64, usize), Registered)>;

/// Point-in-time counters for the stage cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Partition (or bucket-set) lookups served from memory.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped to respect the byte budget (or by `unpersist`).
    pub evictions: u64,
    /// Entries dropped because their tag was invalidated (streaming
    /// appends touching a cached window).
    pub invalidations: u64,
    /// Bytes currently accounted.
    pub bytes: u64,
    /// Entries currently accounted.
    pub entries: u64,
    /// Configured budget in bytes (`u64::MAX` = unlimited).
    pub budget: u64,
}

/// The per-context accounting/eviction layer. Shared (via `Arc`) by every
/// clone of an [`ExecCtx`](crate::exec::ExecCtx).
#[derive(Debug)]
pub struct StageCache {
    registry: Mutex<Lru<(u64, usize), Registered>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for StageCache {
    fn default() -> Self {
        StageCache {
            registry: Mutex::new(Lru::new(usize::MAX)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }
}

impl StageCache {
    /// An unlimited-budget cache.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Set the byte budget, evicting LRU entries immediately if the
    /// current contents exceed it. `u64::MAX` means unlimited.
    pub fn set_budget(&self, bytes: u64) {
        let budget = usize::try_from(bytes).unwrap_or(usize::MAX);
        let victims = self.registry.lock().set_budget(budget);
        self.run_evictions(victims);
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.registry.lock().budget() as u64
    }

    /// Record a lookup served from a cached slot and refresh its LRU
    /// position.
    pub fn record_hit(&self, owner_id: u64, part: usize) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.registry.lock().touch(&(owner_id, part));
    }

    /// Account a freshly materialized slot, evicting older entries if the
    /// budget is now exceeded. An entry larger than the whole budget is
    /// evicted itself (an oversized partition must not pin the cache over
    /// budget). Returns how many entries were evicted.
    pub fn insert(
        &self,
        owner_id: u64,
        part: usize,
        bytes: usize,
        owner: &Arc<dyn EvictableSlot>,
    ) -> usize {
        self.insert_tagged(owner_id, part, bytes, owner, None)
    }

    /// Like [`insert`](StageCache::insert), but additionally files the
    /// entry under an invalidation `tag` so a later
    /// [`invalidate_tag`](StageCache::invalidate_tag) can drop it without
    /// knowing the owner.
    pub fn insert_tagged(
        &self,
        owner_id: u64,
        part: usize,
        bytes: usize,
        owner: &Arc<dyn EvictableSlot>,
        tag: Option<u64>,
    ) -> usize {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let victims =
            self.registry
                .lock()
                .insert((owner_id, part), (Arc::downgrade(owner), tag), bytes);
        self.run_evictions(victims)
    }

    /// Drop every entry filed under `tag`, clearing the owning slots.
    /// Returns how many entries were invalidated. This is the streaming
    /// invalidation rule's hook: an append that touches a window
    /// invalidates exactly the cached cells keyed by that window's tag.
    pub fn invalidate_tag(&self, tag: u64) -> usize {
        let victims = self
            .registry
            .lock()
            .remove_where(|_, (_, t)| *t == Some(tag));
        self.invalidations
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        clear_slots(victims)
    }

    /// Drop every entry belonging to `owner_id` (used by `unpersist` and
    /// by owners' `Drop`), returning the bytes released.
    pub fn release_owner(&self, owner_id: u64) -> usize {
        let (victims, released) = {
            let mut reg = self.registry.lock();
            let before = reg.stats().bytes;
            let victims = reg.remove_where(|(id, _), _| *id == owner_id);
            (victims, before - reg.stats().bytes)
        };
        self.run_evictions(victims);
        released as usize
    }

    /// Current counters.
    pub fn stats(&self) -> StageCacheStats {
        let (lru, budget) = {
            let reg = self.registry.lock();
            (reg.stats(), reg.budget() as u64)
        };
        StageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes: lru.bytes,
            entries: lru.entries,
            budget,
        }
    }

    /// Outside the registry lock: count the victims as evictions and clear
    /// their typed slots. Returns the number of victims.
    fn run_evictions(&self, victims: Victims) -> usize {
        self.evictions
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        clear_slots(victims)
    }
}

/// Clear each victim's typed slot (never under the registry lock).
/// Returns the number of victims.
fn clear_slots(victims: Victims) -> usize {
    let n = victims.len();
    for ((_, part), (owner, _)) in victims {
        if let Some(owner) = owner.upgrade() {
            owner.evict(part);
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Default)]
    struct CountingSlot {
        evicted: AtomicUsize,
    }

    impl EvictableSlot for CountingSlot {
        fn evict(&self, _part: usize) {
            self.evicted.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn slot() -> (Arc<CountingSlot>, Arc<dyn EvictableSlot>) {
        let s = Arc::new(CountingSlot::default());
        let erased: Arc<dyn EvictableSlot> = Arc::clone(&s) as Arc<dyn EvictableSlot>;
        (s, erased)
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let cache = StageCache::new();
        let (counting, erased) = slot();
        let id = next_owner_id();
        for part in 0..32 {
            cache.insert(id, part, 1 << 20, &erased);
        }
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 0);
        let s = cache.stats();
        assert_eq!(s.entries, 32);
        assert_eq!(s.bytes, 32 << 20);
        assert_eq!(s.misses, 32);
    }

    #[test]
    fn over_budget_evicts_lru_first() {
        let cache = StageCache::new();
        cache.set_budget(250);
        let (counting, erased) = slot();
        let id = next_owner_id();
        cache.insert(id, 0, 100, &erased);
        cache.insert(id, 1, 100, &erased);
        cache.record_hit(id, 0); // partition 0 is now most recent
        cache.insert(id, 2, 100, &erased); // must evict partition 1
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 200);
        assert_eq!(s.evictions, 1);
        // Partition 0 survived: a hit on it does not touch the counter.
        cache.record_hit(id, 0);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn oversized_entry_is_self_evicted() {
        let cache = StageCache::new();
        cache.set_budget(50);
        let (counting, erased) = slot();
        cache.insert(next_owner_id(), 0, 1000, &erased);
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn release_owner_frees_bytes_and_clears_slots() {
        let cache = StageCache::new();
        let (counting, erased) = slot();
        let id = next_owner_id();
        cache.insert(id, 0, 10, &erased);
        cache.insert(id, 1, 20, &erased);
        let (other_counting, other) = slot();
        let other_id = next_owner_id();
        cache.insert(other_id, 0, 5, &other);
        assert_eq!(cache.release_owner(id), 30);
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 2);
        assert_eq!(other_counting.evicted.load(Ordering::SeqCst), 0);
        let s = cache.stats();
        assert_eq!(s.bytes, 5);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let cache = StageCache::new();
        let (counting, erased) = slot();
        let id = next_owner_id();
        for part in 0..4 {
            cache.insert(id, part, 100, &erased);
        }
        cache.set_budget(150);
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 3);
        assert!(cache.stats().bytes <= 150);
    }

    #[test]
    fn invalidate_tag_drops_only_tagged_entries() {
        let cache = StageCache::new();
        let (counting, erased) = slot();
        let id = next_owner_id();
        cache.insert_tagged(id, 0, 10, &erased, Some(7));
        cache.insert_tagged(id, 1, 10, &erased, Some(8));
        cache.insert(id, 2, 10, &erased);
        assert_eq!(cache.invalidate_tag(7), 1);
        assert_eq!(counting.evicted.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 20);
        assert_eq!(s.invalidations, 1);
        // Untagged entries and other tags are untouched; a second
        // invalidation of the same tag is a no-op.
        assert_eq!(cache.invalidate_tag(7), 0);
    }

    #[test]
    fn reinserting_same_key_replaces_accounting() {
        let cache = StageCache::new();
        let (_counting, erased) = slot();
        let id = next_owner_id();
        cache.insert(id, 0, 100, &erased);
        cache.insert(id, 0, 40, &erased);
        let s = cache.stats();
        assert_eq!(s.bytes, 40);
        assert_eq!(s.entries, 1);
    }
}
