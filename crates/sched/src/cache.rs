//! Bounded, admission-controlled cache storage for the plan plane.
//!
//! [`PlanCache`](crate::PlanCache) used to hold two unbounded
//! `Mutex<HashMap>` stores — fine for benches, fatal for a serve trace
//! with ~10^5 distinct shape classes. [`BoundedCache`] is the shared
//! replacement: a byte/entry-budgeted LRU with optional Bloom-filter
//! admission (the Stream-K++ "doorkeeper": a shape class must be seen
//! twice before it may displace resident entries) and single-flight
//! miss coalescing so two threads missing the same key never both run
//! the expensive compute (the stampede the old `or_insert` pattern
//! silently tolerated).
//!
//! The default [`CacheConfig`] is **unbounded + admit-always +
//! feedback off** — bit-for-bit the pre-refactor behavior, which is
//! what every golden/parity test pins as the control arm.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How a [`BoundedCache`] decides whether a freshly computed value may
/// take up residence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every computed value is inserted (classic LRU).
    Always,
    /// Bloom-filter doorkeeper over `bits` filter bits: the first time
    /// a key is computed it is *recorded but not admitted*; from its
    /// second computation on it is always admitted (the filter has no
    /// false negatives). One-off shapes therefore never evict hot
    /// entries.
    Bloom {
        /// Filter size in bits (rounded up to a power of two, min 64).
        bits: usize,
    },
}

impl AdmissionPolicy {
    /// The doorkeeper with its default filter size (1 Mi-bit = 128 KiB).
    pub fn bloom() -> Self {
        AdmissionPolicy::Bloom { bits: 1 << 20 }
    }
}

/// Feedback-loop knobs for observation-aware selection (consumed by
/// [`PlanCache`](crate::PlanCache), carried here so one `CacheConfig`
/// describes the whole plane).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackConfig {
    /// Master switch. Off = predictions are trusted forever (the
    /// control arm; bit-identical to the pre-feedback scheduler).
    pub enabled: bool,
    /// EWMA weight of the newest observed/predicted ratio.
    pub alpha: f64,
    /// Corrections apply only when `|ratio − 1|` exceeds this, so
    /// model noise never perturbs a well-calibrated device.
    pub divergence: f64,
    /// Observations required per shape class before its ratio is
    /// trusted.
    pub min_observations: u64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            enabled: false,
            alpha: 0.3,
            divergence: 0.1,
            min_observations: 1,
        }
    }
}

impl FeedbackConfig {
    /// The feedback arm with default tuning.
    pub fn enabled() -> Self {
        FeedbackConfig {
            enabled: true,
            ..FeedbackConfig::default()
        }
    }
}

/// Budget + admission + feedback configuration for the plan plane.
///
/// Budgets apply to **each** store a `PlanCache` owns (the tuned-plan
/// store and the cost-pass store) independently, so those two stores
/// together hold at most twice `max_bytes`. The budget covers nothing
/// else: the `SharedTuner` winner map and the feedback ratio map each
/// keep one entry per distinct shape class outside it, and a Bloom
/// doorkeeper adds its fixed bit array per store.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Max resident entries per store (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Max resident bytes per store (`None` = unbounded). Entry weight
    /// is the value's [`CacheWeight`] plus the key size.
    pub max_bytes: Option<usize>,
    /// Admission policy for freshly computed values.
    pub admission: AdmissionPolicy,
    /// Observation-feedback knobs.
    pub feedback: FeedbackConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: None,
            max_bytes: None,
            admission: AdmissionPolicy::Always,
            feedback: FeedbackConfig::default(),
        }
    }
}

impl CacheConfig {
    /// A byte-budgeted store with Bloom admission — the production
    /// shape for long mixed traces.
    pub fn bounded(max_bytes: usize) -> Self {
        CacheConfig {
            max_bytes: Some(max_bytes),
            admission: AdmissionPolicy::bloom(),
            ..CacheConfig::default()
        }
    }

    /// Enable the observation-feedback loop on this configuration.
    pub fn with_feedback(mut self) -> Self {
        self.feedback.enabled = true;
        self
    }
}

/// Approximate resident size of a cached value, in bytes. Bounded
/// stores charge `weight_bytes() + size_of::<K>()` per entry against
/// the byte budget.
pub trait CacheWeight {
    /// Approximate heap + inline bytes this value keeps resident.
    fn weight_bytes(&self) -> usize;
}

impl CacheWeight for Vec<u8> {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity()
    }
}

/// Counter snapshot of one [`BoundedCache`] store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident.
    pub resident_bytes: usize,
    /// Lookups served from the store (including single-flight waits).
    pub hits: u64,
    /// Lookups that ran the compute.
    pub misses: u64,
    /// Entries displaced by the budget.
    pub evictions: u64,
    /// Computed values the admission policy declined to cache
    /// (Bloom first-sighting or oversized value).
    pub admission_rejected: u64,
    /// Concurrent misses of the same key that waited for the in-flight
    /// compute instead of duplicating it.
    pub stampedes_avoided: u64,
}

/// Two-probe Bloom filter over a power-of-two bit array. Probes derive
/// from one 64-bit hash, so a key's probe positions are stable: once
/// recorded, a key is *always* reported seen (no false negatives).
#[derive(Debug)]
struct Bloom {
    words: Vec<u64>,
    mask: usize,
}

impl Bloom {
    fn new(bits: usize) -> Self {
        let bits = bits.next_power_of_two().max(64);
        Bloom {
            words: vec![0; bits / 64],
            mask: bits - 1,
        }
    }

    fn probe(&self, bit: usize) -> bool {
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Record `h` and report whether it had (apparently) been seen
    /// before.
    fn check_and_set(&mut self, h: u64) -> bool {
        let b1 = (h as usize) & self.mask;
        let b2 = ((h >> 32) as usize ^ (h as usize).rotate_left(17)) & self.mask;
        let seen = self.probe(b1) && self.probe(b2);
        self.set(b1);
        self.set(b2);
        seen
    }
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    /// LRU stamp — the key's position in `Inner::lru`.
    stamp: u64,
}

enum FlightState<V> {
    Pending,
    Done(V),
    Failed,
}

/// One in-flight compute, shared between the leading thread and any
/// waiters that missed the same key while it ran.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// stamp → key, oldest first. Stamps are unique (monotone tick).
    lru: BTreeMap<u64, K>,
    tick: u64,
    resident_bytes: usize,
    bloom: Option<Bloom>,
    flights: HashMap<K, Arc<Flight<V>>>,
}

/// Budgeted LRU store with Bloom admission and single-flight miss
/// coalescing. See the module docs for the design; the default
/// configuration is unbounded and admit-always, reproducing a plain
/// `HashMap` exactly (every existing counter-sequence test pins this).
pub struct BoundedCache<K, V> {
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admission_rejected: AtomicU64,
    stampedes_avoided: AtomicU64,
}

/// Completes the flight on every exit path: a leader that panics
/// mid-compute must fail its flight, or waiters would block forever.
struct FlightGuard<'a, K: Hash + Eq + Clone, V: Clone> {
    cache: &'a BoundedCache<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    done: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> FlightGuard<'_, K, V> {
    fn settle(&mut self, outcome: FlightState<V>) {
        self.done = true;
        self.cache.locked().flights.remove(&self.key);
        let mut st = self.flight.state.lock().unwrap_or_else(|p| p.into_inner());
        *st = outcome;
        self.flight.cv.notify_all();
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.settle(FlightState::Failed);
        }
    }
}

impl<K, V> BoundedCache<K, V> {
    fn locked(&self) -> MutexGuard<'_, Inner<K, V>> {
        // A panicking worker never leaves the maps mid-update (all
        // mutations complete under one guard), so poison is recoverable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl<K: Hash + Eq + Clone, V: Clone + CacheWeight> BoundedCache<K, V> {
    /// A store with the budget/admission knobs of `config` (its
    /// feedback section is inert at this layer).
    pub fn new(config: &CacheConfig) -> Self {
        let bloom = match config.admission {
            AdmissionPolicy::Always => None,
            AdmissionPolicy::Bloom { bits } => Some(Bloom::new(bits)),
        };
        BoundedCache {
            max_entries: config.max_entries,
            max_bytes: config.max_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                resident_bytes: 0,
                bloom,
                flights: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            stampedes_avoided: AtomicU64::new(0),
        }
    }

    /// Resident value for `key`, bumping its LRU position and the hit
    /// counter; `None` counts nothing (the caller decides whether a
    /// compute follows).
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.locked();
        let v = Self::lookup(&mut inner, key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    fn lookup(inner: &mut Inner<K, V>, key: &K) -> Option<V> {
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.get_mut(key)?;
        let old = std::mem::replace(&mut slot.stamp, tick);
        let value = slot.value.clone();
        inner.lru.remove(&old);
        inner.lru.insert(tick, key.clone());
        Some(value)
    }

    /// The cached value for `key`, running `compute` on a miss. Returns
    /// the value and whether it was served without computing.
    ///
    /// Misses are **single-flight**: concurrent misses of the same key
    /// elect one leader to run `compute`; the rest wait on the in-flight
    /// entry and count a hit plus `stampedes_avoided`. The leader counts
    /// its miss *before* computing (the counter sequence every caller
    /// observes today). A failed compute propagates to the leader only;
    /// waiters retry, so a transient error never poisons the key.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let mut compute = Some(compute);
        loop {
            let (flight, leading) = {
                let mut inner = self.locked();
                if let Some(v) = Self::lookup(&mut inner, &key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((v, true));
                }
                match inner.flights.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight::new());
                        inner.flights.insert(key.clone(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if leading {
                // Leader: compute outside every lock.
                self.misses.fetch_add(1, Ordering::Relaxed);
                let mut guard = FlightGuard {
                    cache: self,
                    key: key.clone(),
                    flight,
                    done: false,
                };
                let value = (compute.take().expect("leader computes once"))()?;
                // Guard's Drop fails the flight if `compute` panics or
                // errors (the `?` above); on success, admit + publish.
                {
                    let mut inner = self.locked();
                    if self.admit(&mut inner, &key) {
                        self.insert_locked(&mut inner, key.clone(), value.clone());
                    }
                }
                guard.settle(FlightState::Done(value.clone()));
                return Ok((value, false));
            }
            // Waiter: block on the leader's flight.
            let mut st = flight.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                match &*st {
                    FlightState::Pending => {
                        st = flight.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                    }
                    FlightState::Done(v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.stampedes_avoided.fetch_add(1, Ordering::Relaxed);
                        return Ok((v.clone(), true));
                    }
                    FlightState::Failed => break,
                }
            }
            // Leader failed — loop and try again (possibly as leader).
        }
    }

    /// References held to `key`'s in-flight compute: the flight table's
    /// own, the leader's, and one per waiter that has joined (0 when
    /// nothing is in flight).
    #[cfg(test)]
    fn flight_refs(&self, key: &K) -> usize {
        self.locked().flights.get(key).map_or(0, Arc::strong_count)
    }

    /// Mutate the resident value for `key` in place, if present.
    /// Re-weighs the entry afterwards (an update may grow it past the
    /// budget, triggering eviction).
    pub fn update(&self, key: &K, mutate: impl FnOnce(&mut V)) -> bool {
        let mut inner = self.locked();
        let Some(slot) = inner.map.get_mut(key) else {
            return false;
        };
        mutate(&mut slot.value);
        let bytes = std::mem::size_of::<K>() + slot.value.weight_bytes();
        let old = std::mem::replace(&mut slot.bytes, bytes);
        inner.resident_bytes = inner.resident_bytes - old + bytes;
        self.evict_to_budget(&mut inner);
        true
    }

    fn admit(&self, inner: &mut Inner<K, V>, key: &K) -> bool {
        let Some(bloom) = inner.bloom.as_mut() else {
            return true;
        };
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let seen = bloom.check_and_set(h.finish());
        if !seen {
            self.admission_rejected.fetch_add(1, Ordering::Relaxed);
        }
        seen
    }

    fn insert_locked(&self, inner: &mut Inner<K, V>, key: K, value: V) {
        let bytes = std::mem::size_of::<K>() + value.weight_bytes();
        if self.max_bytes.is_some_and(|m| bytes > m) {
            // Larger than the whole budget: caching it is pure churn.
            self.admission_rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.tick += 1;
        let stamp = inner.tick;
        if let Some(old) = inner.map.insert(
            key.clone(),
            Slot {
                value,
                bytes,
                stamp,
            },
        ) {
            inner.resident_bytes -= old.bytes;
            inner.lru.remove(&old.stamp);
        }
        inner.resident_bytes += bytes;
        inner.lru.insert(stamp, key);
        self.evict_to_budget(inner);
    }

    fn evict_to_budget(&self, inner: &mut Inner<K, V>) {
        loop {
            let over = self.max_entries.is_some_and(|m| inner.map.len() > m)
                || self.max_bytes.is_some_and(|m| inner.resident_bytes > m);
            if !over {
                return;
            }
            let Some((&oldest, _)) = inner.lru.iter().next() else {
                return;
            };
            let key = inner.lru.remove(&oldest).expect("lru stamp present");
            if let Some(slot) = inner.map.remove(&key) {
                inner.resident_bytes -= slot.bytes;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resident value without bumping LRU or counters (tests/metrics).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.locked().map.get(key).map(|s| s.value.clone())
    }

    /// Whether `key` is resident (no LRU bump, no counters).
    pub fn contains(&self, key: &K) -> bool {
        self.locked().map.contains_key(key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.locked().map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.locked().resident_bytes
    }

    /// Lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries displaced by the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Computed values the admission policy declined to cache.
    pub fn admission_rejected(&self) -> u64 {
        self.admission_rejected.load(Ordering::Relaxed)
    }

    /// Concurrent misses that waited instead of recomputing.
    pub fn stampedes_avoided(&self) -> u64 {
        self.stampedes_avoided.load(Ordering::Relaxed)
    }

    /// Full counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        let (entries, resident_bytes) = {
            let inner = self.locked();
            (inner.map.len(), inner.resident_bytes)
        };
        CacheCounters {
            entries,
            resident_bytes,
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            admission_rejected: self.admission_rejected(),
            stampedes_avoided: self.stampedes_avoided(),
        }
    }
}

/// Number of finite buckets in a [`RatioHistogram`].
pub const RATIO_BUCKETS: usize = 16;

/// Histogram of observed/predicted makespan ratios, bucketed on a
/// log₂ scale in half-steps over `[2⁻⁴, 2⁴)`; out-of-range ratios
/// clamp into the end buckets. Bucket-wise exact under [`merge`].
///
/// [`merge`]: RatioHistogram::merge
#[derive(Debug, Clone, PartialEq)]
pub struct RatioHistogram {
    counts: [u64; RATIO_BUCKETS],
    count: u64,
    sum: f64,
}

impl Default for RatioHistogram {
    fn default() -> Self {
        RatioHistogram {
            counts: [0; RATIO_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl RatioHistogram {
    /// Record one observed/predicted ratio (non-finite and non-positive
    /// ratios are dropped).
    pub fn record(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio <= 0.0 {
            return;
        }
        let idx = ((ratio.log2() + 4.0) * 2.0).floor();
        let idx = idx.clamp(0.0, (RATIO_BUCKETS - 1) as f64) as usize;
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += ratio;
    }

    /// Upper bound of bucket `i` (the last bucket is a catch-all).
    pub fn upper_bound(i: usize) -> f64 {
        2f64.powf((i as f64 + 1.0) / 2.0 - 4.0)
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; RATIO_BUCKETS] {
        &self.counts
    }

    /// Total ratios recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded ratios (for a Prometheus `_sum` series).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of recorded ratios (1.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold `other` into `self`, bucket-wise exact.
    pub fn merge(&mut self, other: &RatioHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn val(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn unbounded_default_behaves_like_a_map() {
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&CacheConfig::default());
        let (v, hit) = cache
            .get_or_try_compute(7, || Ok::<_, ()>(val(10)))
            .unwrap();
        assert!(!hit);
        assert_eq!(v.len(), 10);
        let (_, hit) = cache
            .get_or_try_compute(7, || -> Result<Vec<u8>, ()> {
                panic!("must not recompute")
            })
            .unwrap();
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let cfg = CacheConfig {
            max_bytes: Some(3 * (std::mem::size_of::<u64>() + val(100).weight_bytes())),
            ..CacheConfig::default()
        };
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&cfg);
        for k in 0..3u64 {
            cache
                .get_or_try_compute(k, || Ok::<_, ()>(val(100)))
                .unwrap();
        }
        // Touch key 0 so key 1 is the LRU victim.
        assert!(cache.get(&0).is_some());
        cache
            .get_or_try_compute(3, || Ok::<_, ()>(val(100)))
            .unwrap();
        assert!(cache.contains(&0) && !cache.contains(&1));
        assert!(cache.contains(&2) && cache.contains(&3));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.resident_bytes() <= cfg.max_bytes.unwrap());
    }

    #[test]
    fn entry_budget_holds() {
        let cfg = CacheConfig {
            max_entries: Some(2),
            ..CacheConfig::default()
        };
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&cfg);
        for k in 0..10u64 {
            cache.get_or_try_compute(k, || Ok::<_, ()>(val(8))).unwrap();
            assert!(cache.len() <= 2);
        }
        assert_eq!(cache.evictions(), 8);
    }

    #[test]
    fn bloom_admits_only_on_second_sighting() {
        let cfg = CacheConfig {
            admission: AdmissionPolicy::bloom(),
            ..CacheConfig::default()
        };
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&cfg);
        let (_, hit) = cache
            .get_or_try_compute(42, || Ok::<_, ()>(val(4)))
            .unwrap();
        assert!(!hit && !cache.contains(&42), "first sighting is doorkept");
        assert_eq!(cache.admission_rejected(), 1);
        let (_, hit) = cache
            .get_or_try_compute(42, || Ok::<_, ()>(val(4)))
            .unwrap();
        assert!(!hit && cache.contains(&42), "second sighting is admitted");
        let (_, hit) = cache
            .get_or_try_compute(42, || -> Result<Vec<u8>, ()> { panic!("resident now") })
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn oversized_values_are_never_cached() {
        let cfg = CacheConfig {
            max_bytes: Some(64),
            ..CacheConfig::default()
        };
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&cfg);
        cache
            .get_or_try_compute(1, || Ok::<_, ()>(val(1000)))
            .unwrap();
        assert!(!cache.contains(&1));
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.admission_rejected(), 1);
    }

    #[test]
    fn leader_error_propagates_and_key_stays_computable() {
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&CacheConfig::default());
        assert!(cache
            .get_or_try_compute(5, || Err::<Vec<u8>, &str>("boom"))
            .is_err());
        let (_, hit) = cache
            .get_or_try_compute(5, || Ok::<_, &str>(val(1)))
            .unwrap();
        assert!(!hit, "failed compute must not poison the key");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_misses_single_flight() {
        let cache: BoundedCache<u64, Vec<u8>> = BoundedCache::new(&CacheConfig::default());
        let cache = &cache;
        let (enter_tx, enter_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let leader = s.spawn(move || {
                cache
                    .get_or_try_compute(9, || {
                        enter_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok::<_, ()>(val(3))
                    })
                    .unwrap()
            });
            // Wait until the leader is mid-compute, then miss the same key.
            enter_rx.recv().unwrap();
            let waiter = s.spawn(|| {
                cache
                    .get_or_try_compute(9, || -> Result<Vec<u8>, ()> {
                        panic!("stampede: waiter recomputed")
                    })
                    .unwrap()
            });
            // Release the leader only once the waiter holds the flight;
            // released earlier, the waiter could find the value resident
            // and take a plain hit instead of joining.
            while cache.flight_refs(&9) < 3 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let (lv, lhit) = leader.join().unwrap();
            let (wv, whit) = waiter.join().unwrap();
            assert!(!lhit && whit);
            assert_eq!(lv, wv);
        });
        assert_eq!(cache.misses(), 1, "exactly one compute ran");
        assert_eq!(cache.stampedes_avoided(), 1);
    }

    #[test]
    fn ratio_histogram_buckets_and_merges() {
        let mut h = RatioHistogram::default();
        h.record(1.0);
        h.record(2.0);
        h.record(1000.0); // clamps into the catch-all
        h.record(f64::NAN); // dropped
        assert_eq!(h.count(), 3);
        assert!((h.mean() - (1.0 + 2.0 + 1000.0) / 3.0).abs() < 1e-12);
        // 1.0 → log2=0 → bucket 8; 2.0 → bucket 10; huge → bucket 15.
        assert_eq!(h.counts()[8], 1);
        assert_eq!(h.counts()[10], 1);
        assert_eq!(h.counts()[RATIO_BUCKETS - 1], 1);
        assert!(RatioHistogram::upper_bound(8) > 1.0);
        let mut other = RatioHistogram::default();
        other.record(1.0);
        other.merge(&h);
        assert_eq!(other.count(), 4);
        assert_eq!(other.counts()[8], 2);
    }
}
