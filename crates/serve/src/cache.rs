//! Feature cache for the serving fast path, with an LRU capacity bound.
//!
//! Collecting features for a prediction request means simulating the
//! workload on the CPU and GPU models — cheap next to the ground-truth
//! bag simulation, but still the dominant per-request cost. Features are
//! pure functions of the workload (per-app features key on
//! `(benchmark, batch_size)`, i.e. [`Workload`]) or of the bag (fairness
//! and n-bag aggregates key on the canonicalized bag), so the cache can
//! return bit-identical values forever.
//!
//! The n-bag key space is combinatorial (any multiset of up to four
//! workloads), so a long-lived service cannot let the maps grow without
//! bound. Each map is therefore capped at a configurable capacity and
//! evicts its least-recently-used entry on overflow; evictions only cost
//! a recomputation later, never correctness.
//!
//! Every map keeps its own hit/miss/eviction counters (surfaced by
//! `stats` and the `metrics` exposition as [`CacheMapStats`]), so cache
//! efficacy is observable per quantity, not just in aggregate.

use bagpred_core::nbag::{NBag, NBagMeasurement};
use bagpred_core::{AppFeatures, Bag, Measurement, Platforms};
use bagpred_cpusim::fairness;
use bagpred_trace::KernelProfile;
use bagpred_workloads::Workload;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A `Mutex`-guarded hash map with least-recently-used eviction.
///
/// Recency is a monotonic stamp bumped on every hit and insert; eviction
/// scans for the minimum stamp, which is O(capacity) but runs only when
/// the map is full and capacities are small (hundreds to thousands). A
/// `Mutex` rather than an `RwLock` because even a read must update the
/// recency stamp. Hit/miss/eviction counters live on the map itself so
/// callers get per-map efficacy for free.
#[derive(Debug)]
struct LruMap<K, V> {
    state: Mutex<LruState<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct LruState<K, V> {
    entries: HashMap<K, (V, u64)>,
    clock: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruMap<K, V> {
    /// `capacity == 0` means unbounded.
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency and counting the outcome.
    fn get(&self, key: &K) -> Option<V> {
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.clock += 1;
        let clock = state.clock;
        let found = state.entries.get_mut(key).map(|(value, stamp)| {
            *stamp = clock;
            value.clone()
        });
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `value` unless `key` is already present (first writer wins,
    /// so every caller sees one canonical value — values are identical
    /// anyway: collection is deterministic). Returns the canonical value;
    /// an eviction made to create room is counted on the map.
    fn insert(&self, key: K, value: V) -> V {
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.clock += 1;
        let clock = state.clock;
        if let Some((existing, stamp)) = state.entries.get_mut(&key) {
            *stamp = clock;
            return existing.clone();
        }
        if self.capacity > 0 && state.entries.len() >= self.capacity {
            if let Some(oldest) = state
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                state.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.entries.insert(key, (value.clone(), clock));
        value
    }

    /// Whether `key` is cached, without refreshing its recency or
    /// counting a hit or miss.
    fn contains(&self, key: &K) -> bool {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .entries
            .contains_key(key)
    }

    fn len(&self) -> usize {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .entries
            .len()
    }

    fn stats(&self, name: &'static str) -> CacheMapStats {
        CacheMapStats {
            name,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Point-in-time counters for one of the cache's three maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMapStats {
    /// Stable map name: `apps`, `fairness`, `nbags` or `profiles`.
    pub name: &'static str,
    /// Lookups answered from this map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Thread-safe, LRU-bounded cache of collected features.
///
/// Four maps, one per cacheable quantity:
///
/// * per-app features, keyed by [`Workload`] (benchmark + batch size);
/// * pair-bag fairness, keyed by [`Bag`];
/// * n-bag aggregate measurements, keyed by [`NBag`];
/// * kernel profiles, keyed by [`Workload`] — profiling runs the real
///   vision kernel, so it is the dominant cost of a *fresh* n-bag
///   measurement; caching it means a new candidate bag over known
///   workloads costs aggregation plus one fairness simulation, never a
///   re-profile.
///
/// Each map holds at most [`capacity`](Self::capacity) entries (0 =
/// unbounded) and evicts least-recently-used on overflow. Hit, miss and
/// eviction counters feed the `stats` command and the `metrics`
/// exposition, both in aggregate and per map ([`Self::map_stats`]).
#[derive(Debug)]
pub struct FeatureCache {
    apps: LruMap<Workload, Arc<AppFeatures>>,
    fairness: LruMap<Bag, f64>,
    nbags: LruMap<NBag, Arc<NBagMeasurement>>,
    profiles: LruMap<Workload, Arc<KernelProfile>>,
    capacity: usize,
}

impl Default for FeatureCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty cache bounding **each** of the three maps at `capacity`
    /// entries; `0` means unbounded.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            apps: LruMap::new(capacity),
            fairness: LruMap::new(capacity),
            nbags: LruMap::new(capacity),
            profiles: LruMap::new(capacity),
            capacity,
        }
    }

    /// The per-map entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-app features for `workload`, computed on first use.
    pub fn app_features(&self, workload: Workload, platforms: &Platforms) -> Arc<AppFeatures> {
        if let Some(hit) = self.apps.get(&workload) {
            return hit;
        }
        // Compute outside the lock: simulation is the expensive part.
        let computed = Arc::new(AppFeatures::collect(&workload, platforms));
        self.apps.insert(workload, computed)
    }

    /// Whether every app's features are cached. A request over such apps
    /// cannot run a kernel profile: the features were collected from
    /// the app's profile, which [`Workload::profile`] keeps for the
    /// life of the process, so a feature, fairness or n-bag miss over
    /// them costs simulation only. Read-only: touches no counter and no
    /// recency stamp, so peeking leaves the cache statistics exactly as
    /// the request's own lookups will make them.
    pub fn is_warm(&self, apps: &[Workload]) -> bool {
        apps.iter().all(|w| self.apps.contains(w))
    }

    /// Fairness of `bag`'s multicore co-run, computed on first use.
    pub fn fairness(&self, bag: Bag, platforms: &Platforms) -> f64 {
        if let Some(hit) = self.fairness.get(&bag) {
            return hit;
        }
        let computed = Measurement::collect_fairness(&bag, platforms);
        self.fairness.insert(bag, computed)
    }

    /// A ground-truth-free [`Measurement`] for a two-app bag, assembled
    /// from cached parts. `bag_gpu_time_s` is NaN — that is the quantity
    /// being predicted.
    pub fn pair_measurement(&self, bag: Bag, platforms: &Platforms) -> Measurement {
        let [a, b] = bag.members();
        let apps = [
            (*self.app_features(a, platforms)).clone(),
            (*self.app_features(b, platforms)).clone(),
        ];
        let fairness = self.fairness(bag, platforms);
        Measurement::from_parts(bag, apps, fairness, f64::NAN)
    }

    /// The kernel profile of `workload`, computed on first use.
    /// Profiling executes the real vision kernel, so this is the single
    /// most expensive cacheable quantity.
    pub fn kernel_profile(&self, workload: Workload) -> Arc<KernelProfile> {
        if let Some(hit) = self.profiles.get(&workload) {
            return hit;
        }
        let computed = Arc::new(workload.profile());
        self.profiles.insert(workload, computed)
    }

    /// A ground-truth-free [`NBagMeasurement`], computed on first use.
    ///
    /// A miss is assembled from the cached per-member parts
    /// ([`NBagMeasurement::from_apps_unlabeled`]): per-app features and
    /// kernel profiles are shared across every bag a member appears in,
    /// so only the Eq. 2 fairness simulation and the order-statistic
    /// aggregation run per fresh bag — bit-identical to a from-scratch
    /// [`NBagMeasurement::collect_unlabeled`].
    pub fn nbag_measurement(&self, bag: &NBag, platforms: &Platforms) -> Arc<NBagMeasurement> {
        if let Some(hit) = self.nbags.get(bag) {
            return hit;
        }
        let apps: Vec<AppFeatures> = bag
            .members()
            .iter()
            .map(|&w| (*self.app_features(w, platforms)).clone())
            .collect();
        let profiles: Vec<KernelProfile> = bag
            .members()
            .iter()
            .map(|&w| (*self.kernel_profile(w)).clone())
            .collect();
        let fair = fairness(platforms.cpu(), &profiles);
        let computed = Arc::new(NBagMeasurement::from_apps_unlabeled(
            bag.clone(),
            &apps,
            fair,
        ));
        self.nbags.insert(bag.clone(), computed)
    }

    /// Per-map counters, in stable order: `apps`, `fairness`, `nbags`,
    /// `profiles`.
    pub fn map_stats(&self) -> [CacheMapStats; 4] {
        [
            self.apps.stats("apps"),
            self.fairness.stats("fairness"),
            self.nbags.stats("nbags"),
            self.profiles.stats("profiles"),
        ]
    }

    /// Lookups answered from the cache (all maps).
    pub fn hits(&self) -> u64 {
        self.map_stats().iter().map(|m| m.hits).sum()
    }

    /// Lookups that had to compute (all maps).
    pub fn misses(&self) -> u64 {
        self.map_stats().iter().map(|m| m.misses).sum()
    }

    /// Entries evicted to respect the capacity bound (all maps).
    pub fn evictions(&self) -> u64 {
        self.map_stats().iter().map(|m| m.evictions).sum()
    }

    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Number of cached entries across all three maps.
    pub fn len(&self) -> usize {
        self.apps.len() + self.fairness.len() + self.nbags.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_core::Feature;
    use bagpred_workloads::Benchmark;

    #[test]
    fn pair_measurement_matches_direct_collection_bit_for_bit() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let bag = Bag::pair(
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
        );
        let cached = cache.pair_measurement(bag, &platforms);
        let direct = Measurement::collect(bag, &platforms);
        for feature in Feature::ALL {
            let slots = if feature.is_bag_level() { 1 } else { 2 };
            for slot in 0..slots {
                assert_eq!(
                    cached.raw_value(feature, slot).to_bits(),
                    direct.raw_value(feature, slot).to_bits(),
                    "{feature} slot {slot}"
                );
            }
        }
        assert!(
            cached.bag_gpu_time_s().is_nan(),
            "serving has no ground truth"
        );
    }

    #[test]
    fn second_lookup_is_all_hits_and_bit_identical() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let bag = Bag::pair(
            Workload::new(Benchmark::Hog, 20),
            Workload::new(Benchmark::Fast, 80),
        );
        let cold = cache.pair_measurement(bag, &platforms);
        assert_eq!(cache.hits(), 0);
        let misses_after_cold = cache.misses();
        assert_eq!(
            misses_after_cold, 3,
            "two app lookups + one fairness lookup"
        );

        let warm = cache.pair_measurement(bag, &platforms);
        assert_eq!(
            cache.misses(),
            misses_after_cold,
            "warm path computes nothing"
        );
        assert_eq!(cache.hits(), 3);
        for feature in Feature::ALL {
            let slots = if feature.is_bag_level() { 1 } else { 2 };
            for slot in 0..slots {
                assert_eq!(
                    cold.raw_value(feature, slot).to_bits(),
                    warm.raw_value(feature, slot).to_bits()
                );
            }
        }
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_map_stats_attribute_traffic_to_the_right_map() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let bag = Bag::pair(
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
        );
        cache.pair_measurement(bag, &platforms);
        cache.pair_measurement(bag, &platforms);
        let [apps, fairness, nbags, profiles] = cache.map_stats();
        assert_eq!(apps.name, "apps");
        assert_eq!((apps.hits, apps.misses, apps.entries), (2, 2, 2));
        assert_eq!(fairness.name, "fairness");
        assert_eq!(
            (fairness.hits, fairness.misses, fairness.entries),
            (1, 1, 1)
        );
        assert_eq!(nbags.name, "nbags");
        assert_eq!((nbags.hits, nbags.misses, nbags.entries), (0, 0, 0));
        assert_eq!(profiles.name, "profiles");
        assert_eq!(
            (profiles.hits, profiles.misses, profiles.entries),
            (0, 0, 0),
            "the pair path never profiles"
        );
        assert_eq!(cache.hits(), 3, "aggregate is the sum of the maps");
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn app_features_are_shared_across_bags() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let sift = Workload::new(Benchmark::Sift, 20);
        cache.pair_measurement(
            Bag::pair(sift, Workload::new(Benchmark::Knn, 40)),
            &platforms,
        );
        let misses = cache.misses();
        // A different bag sharing SIFT@20 only misses on KNN@80 + fairness.
        cache.pair_measurement(
            Bag::pair(sift, Workload::new(Benchmark::Knn, 80)),
            &platforms,
        );
        assert_eq!(cache.misses() - misses, 2);
        assert!(cache.hits() >= 1);
    }

    #[test]
    fn nbag_measurement_matches_direct_collection() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let bag = NBag::new(vec![
            Workload::new(Benchmark::Sift, 20),
            Workload::new(Benchmark::Knn, 40),
            Workload::new(Benchmark::Orb, 10),
        ]);
        let cached = cache.nbag_measurement(&bag, &platforms);
        let direct = NBagMeasurement::collect_unlabeled(bag.clone(), &platforms);
        assert_eq!(cached.features(), direct.features());
        assert!(cached.bag_gpu_time_s().is_nan());
        let misses = cache.misses();
        cache.nbag_measurement(&bag, &platforms);
        assert_eq!(cache.misses(), misses);
    }

    #[test]
    fn nbag_bags_share_member_profiles_and_app_features() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        let sift = Workload::new(Benchmark::Sift, 20);
        let knn = Workload::new(Benchmark::Knn, 40);
        cache.nbag_measurement(
            &NBag::new(vec![sift, knn, Workload::new(Benchmark::Orb, 10)]),
            &platforms,
        );
        let [_, _, _, cold] = cache.map_stats();
        assert_eq!((cold.hits, cold.misses), (0, 3), "three members profiled");
        // A second bag sharing two members re-profiles only the new one.
        cache.nbag_measurement(
            &NBag::new(vec![sift, knn, Workload::new(Benchmark::Hog, 20)]),
            &platforms,
        );
        let [apps, _, nbags, warm] = cache.map_stats();
        assert_eq!((warm.hits, warm.misses), (2, 4));
        assert_eq!((apps.hits, apps.misses), (2, 4));
        assert_eq!(nbags.misses, 2, "each distinct bag assembled once");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::new();
        assert_eq!(cache.capacity(), 0);
        for bench in Benchmark::ALL {
            for batch in [10, 20, 40, 80] {
                cache.app_features(Workload::new(bench, batch), &platforms);
            }
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 36);
    }

    #[test]
    fn bounded_cache_respects_capacity() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::with_capacity(3);
        for bench in Benchmark::ALL {
            cache.app_features(Workload::new(bench, 20), &platforms);
        }
        assert!(cache.len() <= 3, "len {} exceeds capacity", cache.len());
        assert_eq!(cache.evictions(), 6);
        let [apps, fairness, _, _] = cache.map_stats();
        assert_eq!(apps.evictions, 6, "evictions attributed to the apps map");
        assert_eq!(fairness.evictions, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::with_capacity(2);
        let a = Workload::new(Benchmark::Sift, 20);
        let b = Workload::new(Benchmark::Knn, 20);
        let c = Workload::new(Benchmark::Hog, 20);
        cache.app_features(a, &platforms); // {a}
        cache.app_features(b, &platforms); // {a, b}
        cache.app_features(a, &platforms); // hit: a becomes most recent
        cache.app_features(c, &platforms); // evicts b, the LRU entry
        assert_eq!(cache.evictions(), 1);

        let misses = cache.misses();
        cache.app_features(a, &platforms);
        assert_eq!(cache.misses(), misses, "recently used entry survived");
        cache.app_features(b, &platforms);
        assert_eq!(cache.misses(), misses + 1, "LRU entry was evicted");
    }

    #[test]
    fn evicted_entries_recompute_bit_identically() {
        let platforms = Platforms::paper();
        let cache = FeatureCache::with_capacity(1);
        let a = Workload::new(Benchmark::Surf, 40);
        let b = Workload::new(Benchmark::Orb, 40);
        let first = cache.app_features(a, &platforms);
        cache.app_features(b, &platforms); // evicts a
        let again = cache.app_features(a, &platforms); // recomputed
        assert_eq!(*first, *again);
    }
}
