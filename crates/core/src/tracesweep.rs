//! The streaming trace-analysis subsystem: online reuse-distance histograms
//! and miss-ratio curves over traces that are never materialized.
//!
//! The batch pipeline (`symloc_cache::reuse::reuse_profile`) allocates a
//! Fenwick tree over the *whole trace length* and a distance vector of the
//! same size, which caps it at toy traces. This module re-applies the sweep
//! subsystem's engineering — streaming aggregation, sharded parallelism,
//! hand-rolled JSON checkpoints, bench gates — to arbitrary-length traces:
//!
//! * [`OnlineReuseEngine`] — the exact single-pass engine: an address
//!   interner (u64 → dense u32 ids, array-indexed last-access state) plus a
//!   [`Fenwick`] tree over **compressed timestamps**. Only live markers
//!   (one per distinct address) survive compaction, so the tree is
//!   `O(footprint)` instead of `O(trace length)`; each access costs
//!   `O(log footprint)` with no hash-map probe on the hot path.
//! * [`ShardsEstimator`] — a bounded-memory sampled estimator in the style
//!   of SHARDS (hash-based spatial sampling): addresses are sampled by a
//!   fixed hash condition, the tracked set is capped at `s_max` by evicting
//!   the largest-hash address and lowering the sampling threshold, and
//!   sampled distances/counts are rescaled by the sampling rate. Memory is
//!   `O(s_max)` no matter how many distinct addresses the trace touches.
//! * [`SampledIngest`] — the **hash-space-sharded parallel sampled
//!   pipeline**: the address-hash space is partitioned into `N` residue
//!   classes, each running a private [`ShardsEstimator`] with its own
//!   budget and threshold (rate adaptation without any synchronization);
//!   shards execute concurrently, merge deterministically in shard order,
//!   and checkpoint per shard, so the bounded-memory path is both parallel
//!   and killable. Thread-count-invariant by construction; with one shard
//!   it *is* the sequential estimator.
//! * [`ChunkPartial`] / [`MergeState`] — chunk-sharded parallel ingestion:
//!   each worker folds a contiguous chunk of the trace into a *mergeable*
//!   partial (resolved within-chunk distances, the chunk's first accesses
//!   with their distinct-before counts, and its distinct addresses in
//!   last-access order); partials merge left-to-right into exactly the
//!   sequential result. This is the PARDA decomposition of the stack
//!   distance problem, driven by [`symloc_par::parallel_reduce_chunked`].
//! * [`TraceIngest`] — the one resumable chunked trace job: chunk
//!   partials are absorbed in order and the merge state (histogram +
//!   compressed timeline) checkpoints as hand-rolled JSON after every
//!   batch, so a killed ingest resumes to a byte-identical final
//!   checkpoint (same guarantee, and same test strategy, as
//!   `crate::shard::ShardedSweep`). Planned with a [`SampledPlan`] it is
//!   the fused single-pass pipeline: **one** streaming pass per chunk
//!   drives a broadcast tap feeding the exact chunk folder, the per-shard
//!   routing buffers of every hash-sharded [`ShardsEstimator`], and any
//!   extra [`AccessSink`]; absorbing the partials in chunk order advances
//!   the exact merge *and* replays each shard's slice through its live
//!   estimator, so one pass produces an exact histogram byte-identical to
//!   the exact-only job and sampled results bit-identical to
//!   [`SampledIngest`] at the same shard count.
//!
//! ```
//! use symloc_core::tracesweep::OnlineReuseEngine;
//!
//! let mut engine = OnlineReuseEngine::new();
//! for addr in [0u64, 1, 2, 0, 1, 2] {
//!     engine.record(addr);
//! }
//! assert_eq!(engine.footprint(), 3);
//! assert_eq!(engine.histogram().count_at(3), 3);
//! ```

use crate::job::{self, Job, JobKind, JobRunner, RunOptions};
use crate::jsonio::{self, JsonValue};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use symloc_par::split_indices;
use symloc_perm::fenwick::Fenwick;
use symloc_trace::stream::{splitmix64, AccessSink, BlockRead, CountingSink, TraceSource};

/// Smallest Fenwick capacity a timeline starts with (kept low so the
/// compaction path is exercised constantly, not only at scale).
const MIN_TIMELINE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Distances at or below this bound live in the histogram's dense front
/// array (one `u64` per distance, `record_finite` is an increment);
/// distances above it spill to the sparse tree. `1 << 16` entries is 512
/// KiB fully grown — and the front only grows to the largest distance
/// actually seen.
const DENSE_DISTANCE_LIMIT: usize = 1 << 16;

/// A reuse-distance histogram with `u64` counts, built online.
///
/// The streaming counterpart of `symloc_cache`'s dense-trace histogram.
/// `record_finite` sits on the exact engine's per-access path, so common
/// (small) distances are a plain array increment — `dense[d - 1]`, grown
/// geometrically up to `DENSE_DISTANCE_LIMIT` — and only the rare huge
/// distances pay a `BTreeMap` probe. Counts are 64-bit so
/// multi-billion-access traces aggregate without overflow.
#[derive(Debug, Clone, Default)]
pub struct StreamHistogram {
    /// Count of distance `d` at index `d - 1`, for `d` up to the grown
    /// length (zeros are "no such distance", exactly like an absent key).
    dense: Vec<u64>,
    /// Counts for distances beyond `DENSE_DISTANCE_LIMIT` — every key
    /// here is strictly larger than any dense index.
    counts: BTreeMap<usize, u64>,
    cold: u64,
}

/// Logical equality: the same recorded distances and counts, regardless of
/// how far the dense front happened to grow.
impl PartialEq for StreamHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.cold == other.cold && self.iter().eq(other.iter())
    }
}

impl Eq for StreamHistogram {}

impl StreamHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` accesses at finite reuse distance `d`.
    ///
    /// # Panics
    ///
    /// Panics on `d == 0`; the smallest legal stack distance is 1.
    #[inline]
    pub fn record_finite(&mut self, d: usize, count: u64) {
        assert!(d > 0, "reuse distance 0 is not representable");
        if d <= DENSE_DISTANCE_LIMIT {
            if d > self.dense.len() {
                self.dense
                    .resize(d.next_power_of_two().max(MIN_TIMELINE_CAPACITY), 0);
            }
            self.dense[d - 1] += count;
        } else {
            *self.counts.entry(d).or_insert(0) += count;
        }
    }

    /// Records `count` cold (infinite-distance) accesses.
    pub fn record_cold(&mut self, count: u64) {
        self.cold += count;
    }

    /// Number of accesses with exactly distance `d`.
    #[must_use]
    pub fn count_at(&self, d: usize) -> u64 {
        if d == 0 {
            0
        } else if d <= self.dense.len() {
            self.dense[d - 1]
        } else {
            self.counts.get(&d).copied().unwrap_or(0)
        }
    }

    /// Number of cold accesses.
    #[must_use]
    pub fn cold_count(&self) -> u64 {
        self.cold
    }

    /// Number of accesses with finite distance.
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        self.dense.iter().sum::<u64>() + self.counts.values().sum::<u64>()
    }

    /// Total recorded accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.cold + self.finite_count()
    }

    /// Number of accesses with distance `<= c` (hits of an LRU cache of
    /// size `c`).
    #[must_use]
    pub fn hits_up_to(&self, c: usize) -> u64 {
        self.dense[..c.min(self.dense.len())].iter().sum::<u64>()
            + self.counts.range(..=c).map(|(_, &n)| n).sum::<u64>()
    }

    /// Miss ratio of an LRU cache of size `c`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn miss_ratio(&self, c: usize) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.hits_up_to(c) as f64 / total as f64
    }

    /// Largest finite distance recorded.
    #[must_use]
    pub fn max_distance(&self) -> Option<usize> {
        self.counts.keys().next_back().copied().or_else(|| {
            self.dense
                .iter()
                .rposition(|&c| c > 0)
                .map(|index| index + 1)
        })
    }

    /// Iterates over `(distance, count)` in increasing distance order.
    /// Every dense distance is smaller than every spilled one, so the
    /// chain stays sorted.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(index, &c)| (index + 1, c))
            .chain(self.counts.iter().map(|(&d, &c)| (d, c)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StreamHistogram) {
        for (d, c) in other.iter() {
            self.record_finite(d, c);
        }
        self.cold += other.cold;
    }

    /// The miss-ratio curve evaluated at `sizes` (each in one pass over the
    /// histogram; `sizes` need not be sorted).
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        mrc_points_from(sizes, self.accesses() as f64, |c| self.hits_up_to(c) as f64)
    }
}

/// A weighted (fractional-count) reuse-distance histogram, the accumulator
/// of the sampled estimator: every sampled access contributes `1/rate`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedHistogram {
    counts: BTreeMap<usize, f64>,
    cold: f64,
}

impl WeightedHistogram {
    /// Records a finite distance with the given weight.
    pub fn record_finite(&mut self, d: usize, weight: f64) {
        assert!(d > 0, "reuse distance 0 is not representable");
        *self.counts.entry(d).or_insert(0.0) += weight;
    }

    /// Records a cold access with the given weight.
    pub fn record_cold(&mut self, weight: f64) {
        self.cold += weight;
    }

    /// Estimated cold (first-touch) accesses.
    #[must_use]
    pub fn cold_weight(&self) -> f64 {
        self.cold
    }

    /// Estimated total accesses.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.cold + self.counts.values().sum::<f64>()
    }

    /// Estimated accesses with distance `<= c`.
    #[must_use]
    pub fn hits_up_to(&self, c: usize) -> f64 {
        self.counts.range(..=c).map(|(_, &w)| w).sum()
    }

    /// Estimated miss ratio of an LRU cache of size `c`.
    #[must_use]
    pub fn miss_ratio(&self, c: usize) -> f64 {
        let total = self.total_weight();
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.hits_up_to(c) / total).clamp(0.0, 1.0)
    }

    /// Largest (scaled) finite distance recorded.
    #[must_use]
    pub fn max_distance(&self) -> Option<usize> {
        self.counts.keys().next_back().copied()
    }

    /// The estimated miss-ratio curve evaluated at `sizes`.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        mrc_points_from(sizes, self.total_weight(), |c| self.hits_up_to(c))
    }

    /// Merges another weighted histogram into this one. Weights add in key
    /// order, so merging a fixed sequence of histograms is deterministic
    /// (the float sums see the same addition order every time).
    pub fn merge(&mut self, other: &WeightedHistogram) {
        for (&d, &w) in &other.counts {
            *self.counts.entry(d).or_insert(0.0) += w;
        }
        self.cold += other.cold;
    }

    /// Iterates over `(scaled distance, weight)` in increasing distance
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.counts.iter().map(|(&d, &w)| (d, w))
    }
}

/// One point of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// Cache size (distinct elements held).
    pub cache_size: usize,
    /// Miss ratio at that size.
    pub miss_ratio: f64,
}

fn mrc_points_from(
    sizes: &[usize],
    total: f64,
    hits_up_to: impl Fn(usize) -> f64,
) -> Vec<MrcPoint> {
    sizes
        .iter()
        .map(|&c| MrcPoint {
            cache_size: c,
            miss_ratio: if total <= 0.0 {
                0.0
            } else {
                (1.0 - hits_up_to(c) / total).clamp(0.0, 1.0)
            },
        })
        .collect()
}

/// `count` log-spaced cache sizes covering `1 ..= max` (deduplicated,
/// ascending, always ending at `max`). The natural evaluation grid for an
/// MRC whose footprint spans orders of magnitude.
#[must_use]
pub fn log_spaced_sizes(max: usize, count: usize) -> Vec<usize> {
    if max == 0 {
        return Vec::new();
    }
    let count = count.max(2);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| {
            let exponent = i as f64 / (count - 1) as f64;
            ((max as f64).powf(exponent)).round() as usize
        })
        .map(|c| c.clamp(1, max))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

// ---------------------------------------------------------------------------
// Address interning
// ---------------------------------------------------------------------------

/// Sentinel id meaning "empty" in the interner's lookup tables. Doubles as
/// the hard ceiling on distinct addresses: the id space is `0 .. u32::MAX`,
/// and interning past it errors loudly instead of wrapping.
const NO_ID: u32 = u32::MAX;

/// Addresses below this bound intern through a direct-indexed array (one
/// load, no hashing) instead of the open-addressing table. The array grows
/// geometrically with the largest small address actually seen, so a trace
/// over `m` cache lines pays `O(m)` for it, and a sparse 64-bit address
/// space never allocates more than `4 * SMALL_ADDR_LIMIT` bytes for it.
const SMALL_ADDR_LIMIT: u64 = 1 << 21;

/// Maps arbitrary `u64` addresses to dense `u32` ids, so per-address engine
/// state lives in flat arrays instead of a `HashMap<u64, usize>`.
///
/// Two-tier lookup: addresses under `SMALL_ADDR_LIMIT` resolve through a
/// direct-indexed array (the common case for cache-line traces); larger
/// ones go through a linear-probing open-addressing table keyed by
/// `splitmix64`. Ids are handed out in first-touch order and never
/// recycled, so `id → addr` is a plain `Vec` lookup.
#[derive(Debug, Clone)]
pub struct AddrInterner {
    /// Direct `addr → id` array for small addresses (`NO_ID` = unseen).
    small: Vec<u32>,
    /// Open-addressing `hash slot → id` table for large addresses
    /// (`NO_ID` = empty); keys live in `addrs`. Power-of-two sized,
    /// resized at 1/2 load.
    table: Vec<u32>,
    /// `id → addr`, in first-touch order.
    addrs: Vec<u64>,
    /// Ids held by the large-address table (for the load factor).
    large: usize,
    /// Hard ceiling on ids handed out (`NO_ID` by default; lowered only by
    /// tests exercising the exhaustion path).
    max_ids: u32,
}

impl Default for AddrInterner {
    fn default() -> Self {
        AddrInterner::new()
    }
}

impl AddrInterner {
    /// Creates an empty interner with the full `u32` id space.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_limit(NO_ID)
    }

    /// Creates an interner that errors after `max_ids` distinct addresses.
    ///
    /// Exists so the exhaustion behavior is testable without interning
    /// four billion addresses; production engines use [`AddrInterner::new`].
    #[must_use]
    pub fn with_capacity_limit(max_ids: u32) -> Self {
        AddrInterner {
            small: Vec::new(),
            table: Vec::new(),
            addrs: Vec::new(),
            large: 0,
            max_ids,
        }
    }

    /// Distinct addresses interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when no address has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The address a previously handed-out id stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out by this interner.
    #[must_use]
    #[inline]
    pub fn address(&self, id: u32) -> u64 {
        self.addrs[id as usize]
    }

    /// Returns `addr`'s id, handing out the next dense id on first touch.
    ///
    /// # Panics
    ///
    /// Panics when the id space is exhausted (more than `u32::MAX` distinct
    /// addresses — or the test-configured limit): wrapping ids would
    /// silently alias two addresses, so exhaustion must be loud.
    #[inline]
    pub fn intern(&mut self, addr: u64) -> u32 {
        if addr < SMALL_ADDR_LIMIT {
            let idx = addr as usize;
            if let Some(&id) = self.small.get(idx) {
                if id != NO_ID {
                    return id;
                }
            } else {
                let want = (idx + 1).next_power_of_two().max(1024);
                self.small
                    .resize(want.min(SMALL_ADDR_LIMIT as usize), NO_ID);
            }
            let id = self.push_addr(addr);
            self.small[idx] = id;
            id
        } else {
            self.intern_large(addr)
        }
    }

    /// Returns `addr`'s id if it has been interned, without interning it.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: u64) -> Option<u32> {
        if addr < SMALL_ADDR_LIMIT {
            let id = *self.small.get(addr as usize)?;
            (id != NO_ID).then_some(id)
        } else {
            if self.table.is_empty() {
                return None;
            }
            let mask = self.table.len() - 1;
            let mut pos = splitmix64(addr) as usize & mask;
            loop {
                let id = self.table[pos];
                if id == NO_ID {
                    return None;
                }
                if self.addrs[id as usize] == addr {
                    return Some(id);
                }
                pos = (pos + 1) & mask;
            }
        }
    }

    fn intern_large(&mut self, addr: u64) -> u32 {
        if self.table.is_empty() {
            self.table = vec![NO_ID; 64];
        }
        let mask = self.table.len() - 1;
        let mut pos = splitmix64(addr) as usize & mask;
        loop {
            let id = self.table[pos];
            if id == NO_ID {
                break;
            }
            if self.addrs[id as usize] == addr {
                return id;
            }
            pos = (pos + 1) & mask;
        }
        let id = self.push_addr(addr);
        self.table[pos] = id;
        self.large += 1;
        if self.large * 2 >= self.table.len() {
            self.grow_table();
        }
        id
    }

    fn grow_table(&mut self) {
        let mut table = vec![NO_ID; self.table.len() * 2];
        let mask = table.len() - 1;
        for &id in &self.table {
            if id == NO_ID {
                continue;
            }
            let mut pos = splitmix64(self.addrs[id as usize]) as usize & mask;
            while table[pos] != NO_ID {
                pos = (pos + 1) & mask;
            }
            table[pos] = id;
        }
        self.table = table;
    }

    fn push_addr(&mut self, addr: u64) -> u32 {
        let next = self.addrs.len();
        assert!(
            next < self.max_ids as usize,
            "address interner exhausted: more than {} distinct addresses \
             (ids would wrap and alias)",
            self.max_ids
        );
        self.addrs.push(addr);
        #[allow(clippy::cast_possible_truncation)]
        {
            next as u32
        }
    }
}

// ---------------------------------------------------------------------------
// The compressed timeline
// ---------------------------------------------------------------------------

/// The core of the exact engines: a Fenwick tree over *compressed
/// timestamps* plus per-address last-access state. Each distinct address
/// owns exactly one marker; timestamps are dense slot indices that are
/// periodically compacted (live markers re-packed in order), so the tree's
/// size tracks the number of live addresses, not the number of accesses.
///
/// Addresses are interned to dense `u32` ids, so the per-access state is
/// two flat-array lookups (`slot_of`, `id_of_slot`) instead of a hash-map
/// probe — the single biggest cost in the old `HashMap<u64, usize>` inner
/// loop. The interner grows with distinct-addresses-ever-seen, which is
/// exactly the exact path's `O(footprint)` budget; the bounded-memory
/// sampled estimator keeps its own hash-based [`SampledTimeline`] instead,
/// because an interner would defeat its `O(s_max)` eviction guarantee.
#[derive(Debug, Clone)]
struct Timeline {
    tree: Fenwick,
    interner: AddrInterner,
    /// `id → slot of its live marker` (`NO_SLOT` = the address is not live).
    slot_of: Vec<usize>,
    /// `slot → id of the marker occupying it`. Valid iff `slot_of` points
    /// back at the slot; moves and removals leave stale entries behind
    /// rather than erasing them. Always `tree.len()` long.
    id_of_slot: Vec<u32>,
    /// Live (tracked) addresses.
    live: usize,
    next_slot: usize,
    /// Slot-compaction passes performed (observability only — never read
    /// back into the computation).
    compactions: u64,
}

/// Sentinel slot meaning "this id has no live marker".
const NO_SLOT: usize = usize::MAX;

impl Timeline {
    fn new() -> Self {
        Timeline {
            tree: Fenwick::new(MIN_TIMELINE_CAPACITY),
            interner: AddrInterner::new(),
            slot_of: Vec::new(),
            id_of_slot: vec![0; MIN_TIMELINE_CAPACITY],
            live: 0,
            next_slot: 0,
            compactions: 0,
        }
    }

    /// Number of live (tracked) addresses.
    fn live(&self) -> usize {
        self.live
    }

    /// Current tree capacity (for memory-bound assertions).
    fn capacity(&self) -> usize {
        self.tree.len()
    }

    /// Compaction passes performed so far.
    fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Interns `addr`, growing the id-indexed state alongside the id space.
    #[inline]
    fn intern(&mut self, addr: u64) -> usize {
        let id = self.interner.intern(addr) as usize;
        if id == self.slot_of.len() {
            self.slot_of.push(NO_SLOT);
        }
        id
    }

    /// Re-packs the live markers into slots `0..live` (preserving order)
    /// and resizes the tree to twice the live count. Called when the slot
    /// counter reaches the capacity; amortized `O(log)` per access.
    ///
    /// Walking the slots in ascending order visits live markers exactly in
    /// the order the old implementation obtained by sorting `(slot, addr)`
    /// pairs, so the repacked layout is identical — and since `new_slot`
    /// never overtakes the read cursor, the repack is safely in place.
    fn compact(&mut self) {
        let mut new_slot = 0usize;
        for slot in 0..self.next_slot {
            let id = self.id_of_slot[slot];
            if self.slot_of[id as usize] == slot {
                self.id_of_slot[new_slot] = id;
                self.slot_of[id as usize] = new_slot;
                new_slot += 1;
            }
        }
        debug_assert_eq!(new_slot, self.live, "live count drifted");
        let capacity = (self.live * 2).max(MIN_TIMELINE_CAPACITY);
        // Repacked markers occupy exactly the slots 0..live, so the tree is
        // rebuilt in one O(capacity) pass instead of live × O(log) adds.
        self.tree.reset_ones_prefix(capacity, new_slot);
        self.id_of_slot.resize(capacity, 0);
        self.next_slot = new_slot;
        self.compactions += 1;
    }

    fn ensure_slot(&mut self) {
        if self.next_slot >= self.tree.len() {
            self.compact();
        }
    }

    /// Records one access: returns `Some(reuse distance)` when the address
    /// was live, `None` on a first touch. Either way the address's marker
    /// ends up at the newest slot.
    #[inline]
    fn observe(&mut self, addr: u64) -> Option<usize> {
        self.ensure_slot();
        let id = self.intern(addr);
        let prev = self.slot_of[id];
        let distance = if prev == NO_SLOT {
            self.live += 1;
            None
        } else {
            let between = self.tree.range_sum(prev + 1, self.next_slot);
            self.tree.sub(prev, 1);
            Some(usize::try_from(between).expect("distance fits usize") + 1)
        };
        self.tree.add(self.next_slot, 1);
        self.slot_of[id] = self.next_slot;
        #[allow(clippy::cast_possible_truncation)]
        {
            self.id_of_slot[self.next_slot] = id as u32;
        }
        self.next_slot += 1;
        distance
    }

    /// Number of live markers strictly after `slot`.
    fn markers_after(&self, slot: usize) -> u64 {
        self.tree.range_sum(slot + 1, self.next_slot)
    }

    /// Removes an address's marker; returns the slot it occupied.
    fn remove(&mut self, addr: u64) -> Option<usize> {
        let id = self.interner.lookup(addr)? as usize;
        let slot = *self.slot_of.get(id)?;
        if slot == NO_SLOT {
            return None;
        }
        self.slot_of[id] = NO_SLOT;
        self.live -= 1;
        self.tree.sub(slot, 1);
        Some(slot)
    }

    /// Appends a marker for `addr` at the newest slot (the address must not
    /// be live).
    fn append(&mut self, addr: u64) {
        self.ensure_slot();
        let id = self.intern(addr);
        debug_assert_eq!(self.slot_of[id], NO_SLOT, "append of live addr");
        self.tree.add(self.next_slot, 1);
        self.slot_of[id] = self.next_slot;
        #[allow(clippy::cast_possible_truncation)]
        {
            self.id_of_slot[self.next_slot] = id as u32;
        }
        self.live += 1;
        self.next_slot += 1;
    }

    /// The live addresses in timeline (last-access) order.
    fn ordered_addresses(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.live);
        for slot in 0..self.next_slot {
            let id = self.id_of_slot[slot];
            if self.slot_of[id as usize] == slot {
                out.push(self.interner.address(id));
            }
        }
        out
    }
}

/// The bounded-memory sibling of [`Timeline`], used by the SHARDS-style
/// sampled estimator: per-address state lives in a `HashMap` that shrinks
/// on eviction, so memory stays `O(s_max)` no matter how many distinct
/// addresses the trace touches. (An interner never forgets an address, so
/// the dense timeline's footprint is distinct-addresses-ever-seen —
/// exactly right for the exact path, fatal for the sampled one.)
#[derive(Debug, Clone)]
struct SampledTimeline {
    tree: Fenwick,
    last_slot: HashMap<u64, usize>,
    next_slot: usize,
    /// Slot-compaction passes performed (observability only — never read
    /// back into the computation).
    compactions: u64,
}

impl SampledTimeline {
    fn new() -> Self {
        SampledTimeline {
            tree: Fenwick::new(MIN_TIMELINE_CAPACITY),
            last_slot: HashMap::new(),
            next_slot: 0,
            compactions: 0,
        }
    }

    /// Number of live (tracked) addresses.
    fn live(&self) -> usize {
        self.last_slot.len()
    }

    /// Compaction passes performed so far.
    fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current tree capacity (for memory-bound assertions).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.tree.len()
    }

    /// Re-packs the live markers into slots `0..live` (preserving order)
    /// and resizes the tree to twice the live count.
    fn compact(&mut self) {
        let mut live: Vec<(usize, u64)> = self
            .last_slot
            .iter()
            .map(|(&addr, &slot)| (slot, addr))
            .collect();
        live.sort_unstable();
        let capacity = (live.len() * 2).max(MIN_TIMELINE_CAPACITY);
        self.tree.reset_ones_prefix(capacity, live.len());
        self.last_slot.clear();
        for (new_slot, &(_, addr)) in live.iter().enumerate() {
            self.last_slot.insert(addr, new_slot);
        }
        self.next_slot = live.len();
        self.compactions += 1;
    }

    fn ensure_slot(&mut self) {
        if self.next_slot >= self.tree.len() {
            self.compact();
        }
    }

    /// Records one access: returns `Some(reuse distance)` when the address
    /// was live, `None` on a first touch.
    fn observe(&mut self, addr: u64) -> Option<usize> {
        self.ensure_slot();
        let distance = self.last_slot.get(&addr).copied().map(|prev| {
            let between = self.tree.range_sum(prev + 1, self.next_slot);
            self.tree.sub(prev, 1);
            usize::try_from(between).expect("distance fits usize") + 1
        });
        self.tree.add(self.next_slot, 1);
        self.last_slot.insert(addr, self.next_slot);
        self.next_slot += 1;
        distance
    }

    /// Removes an address's marker; returns the slot it occupied.
    fn remove(&mut self, addr: u64) -> Option<usize> {
        let slot = self.last_slot.remove(&addr)?;
        self.tree.sub(slot, 1);
        Some(slot)
    }

    /// The live addresses in timeline (last-access) order — the same order
    /// [`SampledTimeline::compact`] repacks them in, so re-observing the
    /// list into a fresh timeline reproduces the relative marker order
    /// (which is all future distances depend on). The canonical
    /// serialization of the timeline for mid-stream checkpoints.
    fn ordered_addresses(&self) -> Vec<u64> {
        let mut live: Vec<(usize, u64)> = self
            .last_slot
            .iter()
            .map(|(&addr, &slot)| (slot, addr))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, addr)| addr).collect()
    }
}

// ---------------------------------------------------------------------------
// The exact online engine
// ---------------------------------------------------------------------------

/// The exact streaming reuse-distance engine: one `Timeline` pass, the
/// Olken algorithm over compressed timestamps. `O(log footprint)` per
/// access, `O(footprint)` memory, no dependence on trace length.
#[derive(Debug, Clone, Default)]
pub struct OnlineReuseEngine {
    timeline: Timeline,
    histogram: StreamHistogram,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl OnlineReuseEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access and returns its reuse distance (`None` = first
    /// touch).
    pub fn record(&mut self, addr: u64) -> Option<usize> {
        let distance = self.timeline.observe(addr);
        match distance {
            Some(d) => self.histogram.record_finite(d, 1),
            None => self.histogram.record_cold(1),
        }
        distance
    }

    /// Records every access of an iterator.
    pub fn record_all(&mut self, accesses: impl IntoIterator<Item = u64>) {
        for addr in accesses {
            self.record(addr);
        }
    }

    /// Records every access of a decoded block — the slice counterpart of
    /// [`OnlineReuseEngine::record_all`] used by the block-streaming ingest
    /// path, which hands the engine whole decoded chunks instead of one
    /// virtual-dispatch iterator call per access.
    pub fn record_block(&mut self, block: &[u64]) {
        for &addr in block {
            self.record(addr);
        }
    }

    /// The histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> &StreamHistogram {
        &self.histogram
    }

    /// Consumes the engine, yielding the histogram.
    #[must_use]
    pub fn into_histogram(self) -> StreamHistogram {
        self.histogram
    }

    /// Accesses recorded so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.histogram.accesses()
    }

    /// Distinct addresses seen so far.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.timeline.live()
    }

    /// Current Fenwick capacity — bounded by twice the footprint (plus a
    /// small constant floor), never by the trace length.
    #[must_use]
    pub fn timeline_capacity(&self) -> usize {
        self.timeline.capacity()
    }

    /// Timeline slot-compaction passes performed so far.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.timeline.compactions()
    }

    /// Mirrors the engine's point-in-time state into `registry` as
    /// `engine.*` gauges (footprint, timeline capacity, compactions,
    /// accesses). Read-only: recording never changes results.
    pub fn record_gauges(&self, registry: &mut crate::obs::MetricsRegistry) {
        registry.set_gauge("engine.footprint", self.footprint() as f64);
        registry.set_gauge("engine.timeline_capacity", self.timeline_capacity() as f64);
        registry.set_gauge("engine.compactions", self.compactions() as f64);
        registry.set_gauge("engine.accesses", self.accesses() as f64);
    }

    /// Miss-ratio curve at the given cache sizes.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        self.histogram.mrc_points(sizes)
    }
}

/// The engine consumes trace streams directly, so it can sit behind any
/// [`symloc_trace::stream::AccessSink`] adapter — e.g. a
/// [`MeteredSink`](symloc_trace::stream::MeteredSink) splitting decode
/// from compute time without touching the engine itself.
impl symloc_trace::stream::AccessSink for OnlineReuseEngine {
    fn on_access(&mut self, addr: u64) {
        self.record(addr);
    }

    fn on_block(&mut self, block: &[u64]) {
        self.record_block(block);
    }
}

// ---------------------------------------------------------------------------
// The SHARDS-style bounded-memory estimator
// ---------------------------------------------------------------------------

/// The hash-space modulus of the sampling condition (`hash(addr) mod P`).
/// Public so callers (fixed-threshold runs, tests, the CLI) can express
/// thresholds as fractions of the hash space.
pub const SHARDS_MODULUS: u64 = 1 << 24;

/// The bounded-memory sampled reuse-distance estimator (SHARDS-style).
///
/// An address is *sampled* iff `splitmix64(addr) mod P < T`; the sampling
/// rate is `R = T/P`. Sampled accesses run through a private `Timeline`
/// (so a sampled distance counts only sampled addresses) and are recorded
/// with distance and weight rescaled by `1/R`. When the tracked set
/// exceeds the `s_max` budget, the largest-hash address is evicted and `T`
/// drops to its hash — rate adaptation — keeping memory at `O(s_max)`
/// forever while the estimate keeps covering the whole address space.
///
/// Accuracy caveat: spatial sampling keeps or drops *whole addresses*, so
/// the estimator's variance is governed by the access share of individual
/// addresses — when a single address owns several percent of the trace
/// (tiny, extremely skewed synthetic address spaces), its hash luck moves
/// the whole weighted curve. On workloads where no address dominates
/// (real cache-line traces, moderate skew, large address spaces) the
/// error behaves like `1/√s_max`; the property tests pin both regimes.
#[derive(Debug, Clone)]
pub struct ShardsEstimator {
    s_max: usize,
    threshold: u64,
    /// This estimator's slice of the hash space: it only processes
    /// addresses with `hash % shard_count == shard_index`. The default
    /// (`0` of `1`) is the whole space — the classic sequential estimator.
    shard_index: u64,
    shard_count: u64,
    timeline: SampledTimeline,
    /// Max-heap of `(hash, addr)` over tracked addresses, for eviction.
    by_hash: BinaryHeap<(u64, u64)>,
    histogram: WeightedHistogram,
    /// Every access of this estimator's hash shard, sampled or not.
    raw_accesses: u64,
    /// Sampled accesses actually processed.
    sampled_accesses: u64,
    evictions: u64,
}

impl ShardsEstimator {
    /// Creates an estimator with a tracked-address budget of `s_max`.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0`.
    #[must_use]
    pub fn new(s_max: usize) -> Self {
        Self::for_shard(s_max, SHARDS_MODULUS, 0, 1)
    }

    /// Creates an estimator whose threshold *starts* at `threshold` instead
    /// of the full modulus: the initial sampling rate is
    /// `threshold / SHARDS_MODULUS`, and rate adaptation still lowers it
    /// further if the budget binds. With a budget large enough that no
    /// eviction ever fires, the threshold is *fixed* for the whole run —
    /// the deterministic regime the parallel sampled pipeline is pinned in.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0` or `threshold` is not in
    /// `1 ..= SHARDS_MODULUS`.
    #[must_use]
    pub fn with_threshold(s_max: usize, threshold: u64) -> Self {
        Self::for_shard(s_max, threshold, 0, 1)
    }

    /// Creates the estimator of one *hash shard*: it processes only
    /// addresses with `splitmix64(addr) % SHARDS_MODULUS ≡ shard_index
    /// (mod shard_count)` — a `1/shard_count` spatial sample of the address
    /// space — and samples within that slice under `threshold`. Sampled
    /// *distances* rescale by the full-space rate `(threshold /
    /// SHARDS_MODULUS) / shard_count`; sampled *weights* rescale by the
    /// within-slice rate `threshold / SHARDS_MODULUS`, so shard histograms
    /// sum to one estimate of the whole trace (the shards partition the
    /// accesses). `shard_count = 1` is exactly the sequential estimator.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0`, `threshold` is not in `1 ..=
    /// SHARDS_MODULUS`, or `shard_index >= shard_count`.
    #[must_use]
    pub fn for_shard(s_max: usize, threshold: u64, shard_index: u64, shard_count: u64) -> Self {
        assert!(s_max > 0, "the sampling budget must be positive");
        assert!(
            (1..=SHARDS_MODULUS).contains(&threshold),
            "threshold {threshold} outside 1..={SHARDS_MODULUS}"
        );
        assert!(
            shard_index < shard_count,
            "shard index {shard_index} outside 0..{shard_count}"
        );
        ShardsEstimator {
            s_max,
            threshold,
            shard_index,
            shard_count,
            timeline: SampledTimeline::new(),
            by_hash: BinaryHeap::new(),
            histogram: WeightedHistogram::default(),
            raw_accesses: 0,
            sampled_accesses: 0,
            evictions: 0,
        }
    }

    /// Rebuilds the estimator of one hash shard from mid-stream checkpoint
    /// state: the counters and weighted histogram restore verbatim, the
    /// timeline is rebuilt by re-observing `tracked` (the live addresses in
    /// last-access order — relative marker order fully determines every
    /// future distance), and the eviction heap is rebuilt from the
    /// addresses' recomputed hashes (the heap is a multiset with a unique
    /// maximum, so its internal layout never affects behavior). A restored
    /// estimator is therefore logically identical to the one serialized:
    /// continuing both over the same accesses produces identical results
    /// *and* identical re-serializations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem with
    /// `tracked`: more addresses than the budget, a duplicate, one hashing
    /// outside this shard, or one hashing at or above the threshold (none
    /// of which a real checkpoint can contain).
    ///
    /// # Panics
    ///
    /// Panics on the same parameter violations as
    /// [`ShardsEstimator::for_shard`].
    pub(crate) fn restore_for_shard(
        s_max: usize,
        shard_index: u64,
        shard_count: u64,
        shard: SampledShardResult,
        tracked: &[u64],
    ) -> Result<Self, String> {
        let threshold = shard.threshold;
        let mut est = Self::for_shard(s_max, threshold, shard_index, shard_count);
        if tracked.len() > s_max {
            return Err(format!(
                "{} tracked addresses exceed the budget {s_max}",
                tracked.len()
            ));
        }
        for &addr in tracked {
            let hash = splitmix64(addr) % SHARDS_MODULUS;
            if hash % shard_count != shard_index {
                return Err(format!(
                    "tracked address {addr} does not belong to hash shard {shard_index}"
                ));
            }
            if hash >= threshold {
                return Err(format!(
                    "tracked address {addr} hashes at or above the threshold {threshold}"
                ));
            }
            if est.timeline.observe(addr).is_some() {
                return Err(format!("tracked address {addr} appears twice"));
            }
            est.by_hash.push((hash, addr));
        }
        est.histogram = shard.histogram;
        est.raw_accesses = shard.raw_accesses;
        est.sampled_accesses = shard.sampled_accesses;
        est.evictions = shard.evictions;
        Ok(est)
    }

    /// The tracked addresses in timeline (last-access) order — the
    /// canonical serialization of the estimator's live set for mid-stream
    /// checkpoints (see [`ShardsEstimator::restore_for_shard`]).
    pub(crate) fn tracked_in_order(&self) -> Vec<u64> {
        self.timeline.ordered_addresses()
    }

    /// The current sampling rate relative to the whole address space:
    /// `(T / P) / shard_count` (1.0 for an unsharded estimator until the
    /// budget first binds).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn sampling_rate(&self) -> f64 {
        self.threshold as f64 / SHARDS_MODULUS as f64 / self.shard_count as f64
    }

    /// The current threshold `T` of the sampling condition `hash < T`.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Records one access.
    pub fn record(&mut self, addr: u64) {
        let hash = splitmix64(addr) % SHARDS_MODULUS;
        if hash % self.shard_count != self.shard_index {
            return;
        }
        self.record_hashed(addr, hash);
    }

    /// Records one access whose hash (`splitmix64(addr) % SHARDS_MODULUS`)
    /// the caller already computed and shard-matched — the dispatch path of
    /// the parallel sampled ingest, which hashes each access once and
    /// routes it to the owning shard.
    ///
    /// The two rescalings deliberately use *different* rates: a sampled
    /// **distance** counts only this shard's sampled addresses — a
    /// `(T/P)/shard_count` spatial sample of the whole address space — so
    /// it scales by the full-space rate; a sampled **access** stands in
    /// only for this shard's slice of the trace (the shards partition the
    /// accesses), so its weight scales by the within-slice rate `T/P`.
    /// Merged shard histograms therefore *sum* to an estimate of the whole
    /// trace (Σ slice estimates), instead of each shard re-estimating the
    /// full trace and the merge overcounting it `shard_count` times. For an
    /// unsharded estimator the two rates coincide.
    #[allow(clippy::cast_precision_loss)]
    fn record_hashed(&mut self, addr: u64, hash: u64) {
        debug_assert_eq!(hash % self.shard_count, self.shard_index);
        self.raw_accesses += 1;
        if hash >= self.threshold {
            return;
        }
        let slice_rate = self.threshold as f64 / SHARDS_MODULUS as f64;
        let rate = slice_rate / self.shard_count as f64;
        let weight = 1.0 / slice_rate;
        self.sampled_accesses += 1;
        match self.timeline.observe(addr) {
            Some(sampled_distance) => {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let scaled = ((sampled_distance as f64 / rate).round() as usize).max(1);
                self.histogram.record_finite(scaled, weight);
            }
            None => {
                self.histogram.record_cold(weight);
                self.by_hash.push((hash, addr));
                if self.timeline.live() > self.s_max {
                    self.evict();
                }
            }
        }
    }

    /// Records every access of an iterator.
    pub fn record_all(&mut self, accesses: impl IntoIterator<Item = u64>) {
        for addr in accesses {
            self.record(addr);
        }
    }

    /// Evicts the largest-hash tracked address and lowers the threshold so
    /// that hash (and everything above) is never sampled again.
    fn evict(&mut self) {
        let Some(&(max_hash, _)) = self.by_hash.peek() else {
            return;
        };
        self.threshold = max_hash;
        while let Some(&(hash, addr)) = self.by_hash.peek() {
            if hash < self.threshold {
                break;
            }
            self.by_hash.pop();
            if self.timeline.remove(addr).is_some() {
                self.evictions += 1;
            }
        }
    }

    /// The weighted histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> &WeightedHistogram {
        &self.histogram
    }

    /// Every access seen (sampled or not).
    #[must_use]
    pub fn raw_accesses(&self) -> u64 {
        self.raw_accesses
    }

    /// Sampled accesses actually processed.
    #[must_use]
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Addresses currently tracked (always `<= s_max + 1` transiently,
    /// `<= s_max` between records).
    #[must_use]
    pub fn tracked_addresses(&self) -> usize {
        self.timeline.live()
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.s_max
    }

    /// Rate-adaptation evictions performed so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Estimated distinct addresses (weighted cold count).
    #[must_use]
    pub fn estimated_footprint(&self) -> f64 {
        self.histogram.cold_weight()
    }

    /// Timeline slot-compaction passes performed so far.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.timeline.compactions()
    }

    /// Mirrors the estimator's point-in-time state into `registry` as
    /// `estimator.*` gauges (threshold, sampling rate, tracked set,
    /// evictions, compactions, estimated footprint). Sharded pipelines
    /// aggregate across estimators instead of calling this per shard (the
    /// gauges are last-write-wins). Read-only: recording never changes
    /// results.
    pub fn record_gauges(&self, registry: &mut crate::obs::MetricsRegistry) {
        registry.set_gauge("estimator.threshold", self.threshold() as f64);
        registry.set_gauge("estimator.sampling_rate", self.sampling_rate());
        registry.set_gauge("estimator.tracked", self.tracked_addresses() as f64);
        registry.set_gauge("estimator.evictions", self.evictions() as f64);
        registry.set_gauge("estimator.compactions", self.compactions() as f64);
        registry.set_gauge("estimator.estimated_footprint", self.estimated_footprint());
    }

    /// Estimated miss-ratio curve at the given cache sizes.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        self.histogram.mrc_points(sizes)
    }
}

// ---------------------------------------------------------------------------
// Hash-space-sharded parallel sampling
// ---------------------------------------------------------------------------

/// Format tag embedded in every sampled-ingest checkpoint document.
#[cfg(test)]
const SAMPLED_CHECKPOINT_KIND: &str = JobKind::SampledIngest.kind_str();

/// The completed result of one hash shard of a [`SampledIngest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampledShardResult {
    /// The shard's weighted (rescaled) histogram.
    pub histogram: WeightedHistogram,
    /// The shard's final threshold (== the initial one when the budget
    /// never bound).
    pub threshold: u64,
    /// Accesses belonging to this hash shard.
    pub raw_accesses: u64,
    /// Sampled accesses the shard actually processed.
    pub sampled_accesses: u64,
    /// Rate-adaptation evictions the shard performed.
    pub evictions: u64,
    /// Addresses the shard still tracked at the end.
    pub tracked: usize,
}

impl SampledShardResult {
    fn from_estimator(est: &ShardsEstimator) -> Self {
        SampledShardResult {
            histogram: est.histogram().clone(),
            threshold: est.threshold(),
            raw_accesses: est.raw_accesses(),
            sampled_accesses: est.sampled_accesses(),
            evictions: est.evictions(),
            tracked: est.tracked_addresses(),
        }
    }
}

/// How a checkpointed shard entry records its tracked set: a finished
/// shard of a [`SampledIngest`] stores only the count, a live shard of a
/// fused [`TraceIngest`] the addresses themselves in last-access order
/// (they are its estimator's resume state).
enum Tracked<'a> {
    Count(usize),
    Addresses(&'a [u64]),
}

/// Writes the body of one shard entry of a checkpoint — everything after
/// the caller's opening `{` and any caller-specific leading fields,
/// through the closing `}`. The kinds order the fields differently; every
/// layout is frozen, since checkpoints must stay byte-identical.
fn write_shard_entry(
    out: &mut String,
    threshold: u64,
    raw_accesses: u64,
    sampled_accesses: u64,
    evictions: u64,
    histogram: &WeightedHistogram,
    tracked: Tracked<'_>,
) {
    let _ = write!(
        out,
        "\"threshold\": {threshold}, \"raw\": {raw_accesses}, \"sampled\": {sampled_accesses}, \"evictions\": {evictions}, "
    );
    if let Tracked::Count(count) = tracked {
        let _ = write!(out, "\"tracked\": {count}, ");
    }
    let _ = write!(
        out,
        "\"cold\": {}, \"histogram\": [",
        histogram.cold_weight()
    );
    for (j, (d, w)) in histogram.iter().enumerate() {
        let comma = if j == 0 { "" } else { ", " };
        let _ = write!(out, "{comma}[{d}, {w}]");
    }
    out.push(']');
    if let Tracked::Addresses(addresses) = tracked {
        out.push_str(", \"tracked\": [");
        for (j, addr) in addresses.iter().enumerate() {
            let comma = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{comma}{addr}");
        }
        out.push(']');
    }
    out.push('}');
}

/// [`write_shard_entry`] for a live estimator, whose tracked addresses are
/// its resume state.
pub(crate) fn write_estimator_entry(out: &mut String, est: &ShardsEstimator) {
    write_shard_entry(
        out,
        est.threshold(),
        est.raw_accesses(),
        est.sampled_accesses(),
        est.evictions(),
        est.histogram(),
        Tracked::Addresses(&est.tracked_in_order()),
    );
}

/// Parses the fields every checkpointed estimator entry shares — a
/// threshold in `1..=max_threshold`, the counters and the weighted
/// histogram — into a [`SampledShardResult`] tracking `tracked` addresses.
/// The `"tracked"` field itself differs by kind (see [`Tracked`]) and is
/// the caller's; `what` names the entry in errors (`shard`, `tenant`).
pub(crate) fn parse_shard_entry(
    entry: &JsonValue,
    what: &str,
    max_threshold: u64,
    tracked: usize,
) -> Result<SampledShardResult, String> {
    let field = |key: &str| {
        entry
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{what} missing {key}"))
    };
    let threshold = field("threshold")?;
    if threshold == 0 || threshold > max_threshold {
        return Err(format!(
            "{what} threshold {threshold} outside 1..={max_threshold}"
        ));
    }
    let cold = entry
        .get("cold")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what} missing cold"))?;
    if !cold.is_finite() || cold < 0.0 {
        return Err(format!("{what} cold weight {cold} is not a finite count"));
    }
    let mut histogram = WeightedHistogram::default();
    histogram.record_cold(cold);
    let bins = entry
        .get("histogram")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{what} missing histogram"))?;
    for bin in bins {
        let pair = bin.as_array().ok_or("histogram entry is not a pair")?;
        let (d, w) = match pair {
            [d, w] => (
                d.as_usize().ok_or("bad histogram distance")?,
                w.as_f64().ok_or("bad histogram weight")?,
            ),
            _ => return Err("histogram entry is not a pair".to_string()),
        };
        if d == 0 {
            return Err("histogram distance 0 is not representable".to_string());
        }
        if !w.is_finite() || w < 0.0 {
            return Err(format!("histogram weight {w} is not a finite count"));
        }
        histogram.record_finite(d, w);
    }
    Ok(SampledShardResult {
        histogram,
        threshold,
        raw_accesses: field("raw")?,
        sampled_accesses: field("sampled")?,
        evictions: field("evictions")?,
        tracked,
    })
}

/// The merged outcome of a completed [`SampledIngest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSummary {
    /// The merged weighted histogram (shards merged in index order, so the
    /// float sums are deterministic).
    pub histogram: WeightedHistogram,
    /// Total accesses of the trace (every access belongs to exactly one
    /// hash shard).
    pub raw_accesses: u64,
    /// Total sampled accesses across shards.
    pub sampled_accesses: u64,
    /// Total rate-adaptation evictions across shards.
    pub evictions: u64,
    /// The smallest per-shard sampling rate (the coarsest slice of the
    /// estimate).
    pub min_rate: f64,
}

impl SampledSummary {
    /// Estimated distinct addresses (merged weighted cold count).
    #[must_use]
    pub fn estimated_footprint(&self) -> f64 {
        self.histogram.cold_weight()
    }

    /// Merges the results of all `shard_count` hash shards in shard order,
    /// so the float sums — and therefore the summaries of every pipeline
    /// that samples the same shards — are bit-identical.
    #[allow(clippy::cast_precision_loss)]
    fn of(shards: &[SampledShardResult], shard_count: usize) -> SampledSummary {
        let mut summary = SampledSummary {
            histogram: WeightedHistogram::default(),
            raw_accesses: 0,
            sampled_accesses: 0,
            evictions: 0,
            min_rate: f64::INFINITY,
        };
        for shard in shards {
            summary.histogram.merge(&shard.histogram);
            summary.raw_accesses += shard.raw_accesses;
            summary.sampled_accesses += shard.sampled_accesses;
            summary.evictions += shard.evictions;
            let rate = shard.threshold as f64 / SHARDS_MODULUS as f64 / shard_count as f64;
            summary.min_rate = summary.min_rate.min(rate);
        }
        summary
    }
}

/// The hash-space-sharded, checkpointable parallel sampled ingest — the
/// bounded-memory counterpart of [`TraceIngest`].
///
/// The address-hash space is partitioned into `shard_count` residue classes
/// (`hash % shard_count`); shard `i` runs a [`ShardsEstimator`] over its
/// class with a private budget and threshold, so rate adaptation needs no
/// synchronization whatsoever. Shards execute concurrently (each worker of
/// [`symloc_par::parallel_map_chunked`] streams the source **once** and
/// routes every access to the owning shard among those it was assigned),
/// and the per-shard weighted histograms merge in shard order.
///
/// Semantics worth being precise about:
///
/// * **Deterministic and thread-invariant.** A shard's result depends only
///   on the access sequence and the shard parameters, never on which worker
///   ran it or how shards were grouped; merging happens in shard order.
///   Running with 1 thread or 64 produces byte-identical checkpoints — the
///   property the equivalence proptests pin across every generator pattern
///   and shard count.
/// * **The shard count is part of the estimator's identity** (like the
///   hash function): each shard estimates the full curve from a
///   `1/shard_count` spatial sample, so different shard counts are
///   different (equally unbiased) estimators, not reorderings of the same
///   one. `shard_count = 1` *is* the sequential [`ShardsEstimator`], result
///   for result.
/// * **Killable.** A shard is the checkpoint unit: completed shards
///   serialize (weights as shortest-round-trip decimals, so re-serializing
///   parsed state is byte-identical) and a resumed ingest recomputes only
///   the shards that were in flight.
///
/// A fused [`TraceIngest`] produces the same shard results from its single
/// chunked pass; this job remains the reference it is checked against, and
/// runs sampled-only traces with its shards in parallel where the chunked
/// job replays them serially.
#[derive(Debug, Clone)]
pub struct SampledIngest {
    fingerprint: String,
    total: u64,
    shard_count: usize,
    budget_per_shard: usize,
    threshold: u64,
    threads: usize,
    partials: Vec<SampledShardResult>,
}

impl SampledIngest {
    /// Plans a sampled ingest of `source` over `shard_count` hash shards
    /// with `budget_per_shard` tracked addresses each, starting at the full
    /// sampling rate.
    ///
    /// Scans the source once to learn (and validate) its length.
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0` or `budget_per_shard == 0`.
    pub fn new(
        source: &TraceSource,
        shard_count: usize,
        budget_per_shard: usize,
        threads: usize,
    ) -> Result<Self, String> {
        Self::with_threshold(
            source,
            shard_count,
            budget_per_shard,
            SHARDS_MODULUS,
            threads,
        )
    }

    /// [`SampledIngest::new`] with an explicit initial threshold (see
    /// [`ShardsEstimator::with_threshold`]).
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`, `budget_per_shard == 0`, or
    /// `threshold` is outside `1 ..= SHARDS_MODULUS`.
    pub fn with_threshold(
        source: &TraceSource,
        shard_count: usize,
        budget_per_shard: usize,
        threshold: u64,
        threads: usize,
    ) -> Result<Self, String> {
        let total = scan_total(source)?;
        Ok(Self::with_total(
            source,
            total,
            shard_count,
            budget_per_shard,
            threshold,
            threads,
        ))
    }

    fn with_total(
        source: &TraceSource,
        total: u64,
        shard_count: usize,
        budget_per_shard: usize,
        threshold: u64,
        threads: usize,
    ) -> Self {
        assert!(shard_count > 0, "at least one hash shard is required");
        assert!(
            budget_per_shard > 0,
            "the per-shard budget must be positive"
        );
        assert!(
            (1..=SHARDS_MODULUS).contains(&threshold),
            "threshold {threshold} outside 1..={SHARDS_MODULUS}"
        );
        SampledIngest {
            fingerprint: source.fingerprint(),
            total,
            shard_count,
            budget_per_shard,
            threshold,
            threads: threads.max(1),
            partials: Vec::new(),
        }
    }

    /// The source fingerprint the ingest belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Total accesses of the source.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Number of hash shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The per-shard tracked-address budget.
    #[must_use]
    pub fn budget_per_shard(&self) -> usize {
        self.budget_per_shard
    }

    /// Number of shards already completed.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.partials.len()
    }

    /// True when every shard has run.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.partials.len() >= self.shard_count
    }

    /// Runs up to `limit` pending shards (all of them when `None`) in one
    /// parallel pass: the pending shards are split contiguously across the
    /// configured workers, and each worker streams the source **once**,
    /// feeding only the shards it owns. The per-access hash is therefore
    /// computed once per worker pass — at most `threads` passes total, one
    /// when sequential — while the expensive timeline work is split
    /// `shard_count` ways.
    ///
    /// Returns how many shards were processed.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the ingest's fingerprint, or
    /// if it fails to stream (sources are validated on construction).
    pub fn run_pending(&mut self, source: &TraceSource, limit: Option<usize>) -> usize {
        let options = RunOptions {
            limit,
            ..RunOptions::default()
        };
        self.run(source, options)
            .expect("a run without a checkpoint does no I/O")
    }

    /// Runs pending shards through [`JobRunner::run`] with `options`
    /// (limit, checkpoint, metrics, batch callback); with a checkpoint a
    /// kill loses at most one batch of `threads` shards.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the ingest's fingerprint, or
    /// if it fails to stream (sources are validated on construction).
    pub fn run(&mut self, source: &TraceSource, options: RunOptions<'_>) -> std::io::Result<usize> {
        assert_eq!(
            source.fingerprint(),
            self.fingerprint,
            "sampled ingest resumed against a different trace source"
        );
        let mut job = SampledIngestJob {
            ingest: self,
            source,
        };
        JobRunner::run(&mut job, options)
    }

    /// The completed shards so far (in shard order).
    #[must_use]
    pub fn shard_results(&self) -> &[SampledShardResult] {
        &self.partials
    }

    /// The merged summary, or `None` while shards are pending.
    #[must_use]
    pub fn merged(&self) -> Option<SampledSummary> {
        self.is_complete()
            .then(|| SampledSummary::of(&self.partials, self.shard_count))
    }

    /// Serializes the ingest — plan, progress, completed shard results —
    /// as a JSON checkpoint document. Weights print as Rust's shortest
    /// round-trip decimals, so two ingests in the same logical state
    /// serialize byte-identically however they got there.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        job::write_checkpoint_header(&mut out, JobKind::SampledIngest, &self.fingerprint);
        let _ = writeln!(out, "  \"total_accesses\": {},", self.total);
        let _ = writeln!(out, "  \"shard_count\": {},", self.shard_count);
        let _ = writeln!(out, "  \"budget_per_shard\": {},", self.budget_per_shard);
        let _ = writeln!(out, "  \"threshold\": {},", self.threshold);
        let _ = writeln!(out, "  \"next_shard\": {},", self.partials.len());
        out.push_str("  \"shards\": [\n");
        for (i, shard) in self.partials.iter().enumerate() {
            out.push_str("    {");
            write_shard_entry(
                &mut out,
                shard.threshold,
                shard.raw_accesses,
                shard.sampled_accesses,
                shard.evictions,
                &shard.histogram,
                Tracked::Count(shard.tracked),
            );
            out.push_str(if i + 1 < self.partials.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Rebuilds a sampled ingest from a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(text: &str, threads: usize) -> Result<SampledIngest, String> {
        let doc = job::parse_checkpoint(text, JobKind::SampledIngest)?;
        let (fingerprint, total) = parse_trace_header(&doc)?;
        let (plan, threshold) = parse_sampled_plan(&doc)?;
        let next_shard = doc
            .get("next_shard")
            .and_then(JsonValue::as_usize)
            .ok_or("missing next_shard")?;
        if next_shard > plan.shard_count {
            return Err(format!(
                "next_shard {next_shard} exceeds shard_count {}",
                plan.shard_count
            ));
        }
        let entries = doc
            .get("shards")
            .and_then(JsonValue::as_array)
            .ok_or("missing shards")?;
        if entries.len() != next_shard {
            return Err(format!(
                "next_shard {next_shard} does not match {} shard entries",
                entries.len()
            ));
        }
        let partials = entries
            .iter()
            .map(|entry| {
                let tracked = entry
                    .get("tracked")
                    .and_then(JsonValue::as_usize)
                    .ok_or("shard missing tracked")?;
                parse_shard_entry(entry, "shard", threshold, tracked)
            })
            .collect::<Result<_, String>>()?;
        Ok(SampledIngest {
            fingerprint,
            total,
            shard_count: plan.shard_count,
            budget_per_shard: plan.budget_per_shard,
            threshold,
            threads: threads.max(1),
            partials,
        })
    }

    /// Loads a checkpoint from `path`, or plans a fresh sampled ingest when
    /// the file does not exist or belongs to a different source or plan
    /// (same policy, and same length-based staleness check, as
    /// [`TraceIngest::resume_or_new`]). Returns the ingest and whether
    /// progress was actually resumed.
    ///
    /// # Errors
    ///
    /// Returns the source scan error, or a loud kind-mismatch error when
    /// the file holds a checkpoint of a *different* job kind (see
    /// [`crate::job::resume_or_new_with`]).
    pub fn resume_or_new(
        source: &TraceSource,
        shard_count: usize,
        budget_per_shard: usize,
        threads: usize,
        path: &Path,
    ) -> Result<(SampledIngest, bool), String> {
        let total = scan_total(source)?;
        job::resume_or_new_with(
            path,
            JobKind::SampledIngest,
            |text| SampledIngest::from_json(text, threads),
            |ingest| {
                ingest.fingerprint == source.fingerprint()
                    && ingest.total == total
                    && ingest.shard_count == shard_count
                    && ingest.budget_per_shard == budget_per_shard
                    && ingest.threshold == SHARDS_MODULUS
            },
            SampledIngest::completed_count,
            || {
                Self::with_total(
                    source,
                    total,
                    shard_count,
                    budget_per_shard,
                    SHARDS_MODULUS,
                    threads,
                )
            },
        )
    }
}

/// A [`SampledIngest`] bound to its trace source: the [`Job`] the generic
/// runner drives. One *span* of hash-shard units is one worker's single
/// streaming pass over the source, routing each access to the owning
/// shard among the span's estimators — the hash is computed once per
/// worker pass while the timeline work splits `shard_count` ways.
struct SampledIngestJob<'a> {
    ingest: &'a mut SampledIngest,
    source: &'a TraceSource,
}

impl Job for SampledIngestJob<'_> {
    type Partial = SampledShardResult;

    fn kind(&self) -> JobKind {
        JobKind::SampledIngest
    }

    fn fingerprint(&self) -> String {
        self.ingest.fingerprint.clone()
    }

    fn threads(&self) -> usize {
        self.ingest.threads
    }

    fn unit_count(&self) -> usize {
        self.ingest.shard_count
    }

    fn completed_count(&self) -> usize {
        self.ingest.partials.len()
    }

    /// Completion is always a contiguous prefix (shards absorb in order),
    /// so the pending list is the remaining suffix.
    fn pending_units(&self) -> Vec<usize> {
        (self.ingest.partials.len()..self.ingest.shard_count).collect()
    }

    fn run_span(&self, units: &[usize], out: &mut Vec<(usize, SampledShardResult)>) {
        let (lo, hi) = (units[0] as u64, units[units.len() - 1] as u64 + 1);
        debug_assert_eq!(hi - lo, units.len() as u64, "shard spans are contiguous");
        let count = self.ingest.shard_count as u64;
        let mut estimators: Vec<ShardsEstimator> = (lo..hi)
            .map(|i| {
                ShardsEstimator::for_shard(
                    self.ingest.budget_per_shard,
                    self.ingest.threshold,
                    i,
                    count,
                )
            })
            .collect();
        let mut blocks = self
            .source
            .stream_blocks_range(0, self.ingest.total)
            .expect("validated source streams");
        let mut buf = Vec::new();
        while blocks.next_block(&mut buf) > 0 {
            for &addr in &buf {
                let hash = splitmix64(addr) % SHARDS_MODULUS;
                let shard = hash % count;
                if shard >= lo && shard < hi {
                    estimators[(shard - lo) as usize].record_hashed(addr, hash);
                }
            }
        }
        for (offset, est) in estimators.iter().enumerate() {
            out.push((
                lo as usize + offset,
                SampledShardResult::from_estimator(est),
            ));
        }
    }

    fn absorb(&mut self, unit: usize, partial: SampledShardResult) {
        debug_assert_eq!(unit, self.ingest.partials.len(), "shards absorb in order");
        self.ingest.partials.push(partial);
    }

    fn to_json(&self) -> String {
        self.ingest.to_json()
    }
}

/// Scans `source` once for its access count, validating it on the way.
fn scan_total(source: &TraceSource) -> Result<u64, String> {
    source
        .total_accesses()
        .map_err(|e| format!("cannot scan {source}: {e}"))
}

/// The fields every trace checkpoint starts with: the source fingerprint
/// and its access count.
fn parse_trace_header(doc: &JsonValue) -> Result<(String, u64), String> {
    let fingerprint = doc
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .ok_or("missing fingerprint")?;
    let total = doc
        .get("total_accesses")
        .and_then(JsonValue::as_u64)
        .ok_or("missing total_accesses")?;
    Ok((fingerprint.to_string(), total))
}

/// A checkpoint's sampled plan and initial threshold, each validated.
fn parse_sampled_plan(doc: &JsonValue) -> Result<(SampledPlan, u64), String> {
    let shard_count = doc
        .get("shard_count")
        .and_then(JsonValue::as_usize)
        .ok_or("missing shard_count")?;
    if shard_count == 0 {
        return Err("shard_count must be positive".to_string());
    }
    let budget_per_shard = doc
        .get("budget_per_shard")
        .and_then(JsonValue::as_usize)
        .ok_or("missing budget_per_shard")?;
    if budget_per_shard == 0 {
        return Err("budget_per_shard must be positive".to_string());
    }
    let threshold = doc
        .get("threshold")
        .and_then(JsonValue::as_u64)
        .ok_or("missing threshold")?;
    if threshold == 0 || threshold > SHARDS_MODULUS {
        return Err(format!(
            "threshold {threshold} outside 1..={SHARDS_MODULUS}"
        ));
    }
    let plan = SampledPlan {
        shard_count,
        budget_per_shard,
    };
    Ok((plan, threshold))
}

// ---------------------------------------------------------------------------
// Chunk-sharded parallel ingestion
// ---------------------------------------------------------------------------

/// The mergeable partial result of one contiguous trace chunk.
///
/// Within-chunk reuses are fully resolved into `histogram`; each address's
/// *first* chunk access is recorded in `unresolved` together with the
/// number of distinct addresses the chunk touched before it (its exact
/// within-chunk distance contribution); `last_order` lists the chunk's
/// distinct addresses by last access, which is all later chunks ever need
/// to know about this one. Merging partials left-to-right through
/// [`MergeState::absorb`] reproduces the sequential engine exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPartial {
    /// Resolved within-chunk distances.
    pub histogram: StreamHistogram,
    /// `(addr, distinct addresses seen earlier in the chunk)` for every
    /// first-in-chunk access, in access order.
    pub unresolved: Vec<(u64, u64)>,
    /// The chunk's distinct addresses ordered by their last access.
    pub last_order: Vec<u64>,
    /// Accesses in the chunk.
    pub accesses: u64,
}

/// The in-progress fold of one chunk, shared by the iterator- and
/// block-shaped entry points below.
#[derive(Default)]
struct ChunkFolder {
    timeline: Timeline,
    histogram: StreamHistogram,
    unresolved: Vec<(u64, u64)>,
    count: u64,
}

impl ChunkFolder {
    #[inline]
    fn push(&mut self, addr: u64) {
        self.count += 1;
        match self.timeline.observe(addr) {
            Some(d) => self.histogram.record_finite(d, 1),
            None => self
                .unresolved
                .push((addr, (self.timeline.live() - 1) as u64)),
        }
    }

    fn finish(self) -> ChunkPartial {
        ChunkPartial {
            histogram: self.histogram,
            unresolved: self.unresolved,
            last_order: self.timeline.ordered_addresses(),
            accesses: self.count,
        }
    }
}

/// Folds one contiguous chunk of accesses into a [`ChunkPartial`].
/// Embarrassingly parallel across chunks; `O(chunk footprint)` memory.
#[must_use]
pub fn chunk_partial(accesses: impl IntoIterator<Item = u64>) -> ChunkPartial {
    let mut folder = ChunkFolder::default();
    for addr in accesses {
        folder.push(addr);
    }
    folder.finish()
}

/// Block-streaming variant of [`chunk_partial`]: identical result, but the
/// accesses arrive as decoded slices (see
/// [`TraceSource::stream_blocks_range`]) instead of one virtual iterator
/// call each. This is the shape the parallel ingest workers consume, so
/// `.sltr` chunks decode zero-copy and pre-intern in parallel while the
/// exact [`MergeState::absorb`] merge stays sequential and in chunk order.
#[must_use]
pub fn chunk_partial_blocks(blocks: &mut dyn BlockRead) -> ChunkPartial {
    let mut folder = ChunkFolder::default();
    let mut buf = Vec::new();
    while blocks.next_block(&mut buf) > 0 {
        for &addr in &buf {
            folder.push(addr);
        }
    }
    folder.finish()
}

/// The left-to-right merge state of sharded ingestion: a global compressed
/// timeline of every address's last absorbed access, plus the global
/// histogram. Absorbing the chunks of a trace in order yields exactly the
/// sequential [`OnlineReuseEngine`] result.
#[derive(Debug, Clone, Default)]
pub struct MergeState {
    timeline: Timeline,
    histogram: StreamHistogram,
}

impl MergeState {
    /// Creates an empty state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the next chunk's partial. Must be called in chunk order.
    pub fn absorb(&mut self, partial: &ChunkPartial) {
        // Resolve the chunk's first accesses against the global timeline:
        // the distance of a cross-chunk reuse is (distinct addresses earlier
        // in the chunk) + (older-chunk addresses whose marker still sits
        // after the previous access) + 1. Removing each resolved address's
        // marker as we go is exactly Olken's dedup — an address both in the
        // global timeline and earlier in this chunk is counted once, by the
        // chunk-local term.
        for &(addr, distinct_before) in &partial.unresolved {
            match self.timeline.remove(addr) {
                Some(prev) => {
                    let between = self.timeline.markers_after(prev);
                    let d = usize::try_from(distinct_before + between).expect("distance fits") + 1;
                    self.histogram.record_finite(d, 1);
                }
                None => self.histogram.record_cold(1),
            }
        }
        self.histogram.merge(&partial.histogram);
        // Extend the global timeline with the chunk's last accesses, in
        // their within-chunk order.
        for &addr in &partial.last_order {
            self.timeline.append(addr);
        }
    }

    /// The global histogram so far.
    #[must_use]
    pub fn histogram(&self) -> &StreamHistogram {
        &self.histogram
    }

    /// Distinct addresses absorbed so far.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.timeline.live()
    }
}

// ---------------------------------------------------------------------------
// The resumable chunked trace ingest (exact, optionally fused with sampling)
// ---------------------------------------------------------------------------

/// Format tag of an exact-only [`TraceIngest`] checkpoint document.
#[cfg(test)]
const CHECKPOINT_KIND: &str = JobKind::TraceIngest.kind_str();
/// Format tag of a fused exact+sampled [`TraceIngest`] checkpoint document.
#[cfg(test)]
const FUSED_CHECKPOINT_KIND: &str = JobKind::FusedIngest.kind_str();

/// The sampled half of a fused [`TraceIngest`]: the address-hash space
/// splits into `shard_count` residue classes, each sampled by a
/// [`ShardsEstimator`] tracking at most `budget_per_shard` addresses —
/// the same estimator [`SampledIngest`] runs at the same shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledPlan {
    /// Number of hash shards.
    pub shard_count: usize,
    /// The per-shard tracked-address budget.
    pub budget_per_shard: usize,
}

/// The mergeable partial result of one trace chunk of a [`TraceIngest`]:
/// the exact [`ChunkPartial`] plus, when the ingest is fused, the chunk's
/// accesses routed to their owning hash shards. Shard `i` holds the
/// sub-sequence of the chunk with `splitmix64(addr) % SHARDS_MODULUS ≡ i
/// (mod shard_count)`, in access order, so concatenating a shard's slices
/// across chunks (which absorbing in chunk order does) reproduces exactly
/// the access sequence [`SampledIngest`] feeds that shard's
/// [`ShardsEstimator`]. `routed` is empty for an exact-only ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChunkPartial {
    /// The exact mergeable partial of the chunk.
    pub exact: ChunkPartial,
    /// The chunk's accesses partitioned by owning hash shard (access order
    /// preserved within each shard; every access lands in exactly one).
    pub routed: Vec<Vec<u64>>,
}

/// Folds one contiguous chunk of block-streamed accesses into a
/// [`FusedChunkPartial`], broadcasting every decoded block to the exact
/// chunk folder, the per-shard routing buffers *and* `sink` — the single
/// decode pass of the fused pipeline. `sink` is the extension seam for
/// future per-access consumers (the serve daemon's live feed); pass a
/// [`CountingSink`] to prove the pass touches each access exactly once.
///
/// # Panics
///
/// Panics if `shard_count == 0`, or on the block reader's deferred I/O
/// errors (callers validate sources with `total_accesses` first).
#[must_use]
pub fn fused_chunk_partial(
    blocks: &mut dyn BlockRead,
    shard_count: usize,
    sink: &mut dyn AccessSink,
) -> FusedChunkPartial {
    assert!(shard_count > 0, "at least one hash shard is required");
    let mut folder = ChunkFolder::default();
    let mut routed = vec![Vec::new(); shard_count];
    let count = shard_count as u64;
    let mut buf = Vec::new();
    while blocks.next_block(&mut buf) > 0 {
        sink.on_block(&buf);
        for &addr in &buf {
            folder.push(addr);
            let shard = splitmix64(addr) % SHARDS_MODULUS % count;
            routed[usize::try_from(shard).expect("shard index fits usize")].push(addr);
        }
    }
    FusedChunkPartial {
        exact: folder.finish(),
        routed,
    }
}

/// The sampled state of a fused [`TraceIngest`]: the plan, its initial
/// threshold and one live estimator per hash shard.
#[derive(Debug, Clone)]
struct SampledHalf {
    plan: SampledPlan,
    threshold: u64,
    estimators: Vec<ShardsEstimator>,
}

/// The chunk-sharded, checkpointable ingest of one trace source: exact
/// always, and fused with the hash-sharded sampled estimate when planned
/// with a [`SampledPlan`].
///
/// The trace is split into `chunk_count` contiguous chunks; each pending
/// batch of up to `threads` chunks is folded into partials in parallel
/// ([`symloc_par::parallel_reduce_chunked`] — the partials are the monoid)
/// and absorbed in order into the [`MergeState`]. After every batch the
/// state serializes to a JSON checkpoint; a killed ingest resumes from it
/// and finishes with a byte-identical final checkpoint.
///
/// * **Exact only** (`sampled: None`): a worker folds its chunk with
///   [`chunk_partial_blocks`] — no hashing, no routing, nothing to replay.
///   Checkpoints carry the `symloc_trace_ingest_checkpoint` tag.
/// * **Fused** (`sampled: Some(plan)`): **one** block-decode pass per
///   chunk ([`fused_chunk_partial`]) feeds the exact folder and routes
///   every access to its owning hash shard. Absorbing partials in chunk
///   order advances the exact merge and replays each shard's slice through
///   its **live** [`ShardsEstimator`] — the concatenated replays are
///   exactly the call sequence [`SampledIngest`] makes, so the sampled
///   results (thresholds, counters, weighted histograms, float for float)
///   are bit-identical to that pipeline at the same shard count, and the
///   exact side is byte-identical to an exact-only run. Checkpoints carry
///   the `symloc_fused_trace_checkpoint` tag and every estimator's
///   mid-stream state.
///
/// Both documents keep the layouts earlier releases wrote, so checkpoints
/// resume across versions in either direction.
#[derive(Debug, Clone)]
pub struct TraceIngest {
    fingerprint: String,
    total: u64,
    chunk_count: usize,
    threads: usize,
    next_chunk: usize,
    state: MergeState,
    sampled: Option<SampledHalf>,
}

impl TraceIngest {
    /// Plans an ingest of `source` split into `chunk_count` chunks, fused
    /// with the hash-sharded sampled estimate when `sampled` is given.
    ///
    /// Scans the source once to learn (and validate) its length.
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_count == 0`, or if the sampled plan has no shards
    /// or a zero budget.
    pub fn new(
        source: &TraceSource,
        chunk_count: usize,
        sampled: Option<SampledPlan>,
        threads: usize,
    ) -> Result<Self, String> {
        let total = scan_total(source)?;
        Ok(Self::with_total(
            source,
            total,
            chunk_count,
            sampled,
            threads,
        ))
    }

    /// Plans a fresh ingest for a source whose length is already known.
    fn with_total(
        source: &TraceSource,
        total: u64,
        chunk_count: usize,
        sampled: Option<SampledPlan>,
        threads: usize,
    ) -> Self {
        assert!(chunk_count > 0, "at least one chunk is required");
        let sampled = sampled.map(|plan| {
            assert!(plan.shard_count > 0, "at least one hash shard is required");
            assert!(
                plan.budget_per_shard > 0,
                "the per-shard budget must be positive"
            );
            let count = plan.shard_count as u64;
            SampledHalf {
                plan,
                threshold: SHARDS_MODULUS,
                estimators: (0..count)
                    .map(|i| {
                        ShardsEstimator::for_shard(plan.budget_per_shard, SHARDS_MODULUS, i, count)
                    })
                    .collect(),
            }
        });
        TraceIngest {
            fingerprint: source.fingerprint(),
            total,
            chunk_count: Self::effective_chunk_count(chunk_count, total),
            threads: threads.max(1),
            next_chunk: 0,
            state: MergeState::new(),
            sampled,
        }
    }

    /// More chunks than accesses degrade gracefully to one chunk per access
    /// (and one chunk for an empty trace), mirroring the shard planner.
    fn effective_chunk_count(requested: usize, total: u64) -> usize {
        requested.min(usize::try_from(total.max(1)).unwrap_or(usize::MAX))
    }

    /// The checkpoint kind: exact-only or fused.
    fn kind(&self) -> JobKind {
        match self.sampled {
            None => JobKind::TraceIngest,
            Some(_) => JobKind::FusedIngest,
        }
    }

    /// The source fingerprint the ingest belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Total accesses of the source.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Number of planned chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.chunk_count
    }

    /// The sampled plan of a fused ingest, `None` for an exact-only one.
    #[must_use]
    pub fn sampled_plan(&self) -> Option<SampledPlan> {
        self.sampled.as_ref().map(|half| half.plan)
    }

    /// Number of chunks already absorbed.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.next_chunk
    }

    /// True when every chunk has been absorbed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next_chunk >= self.chunk_count
    }

    /// The deterministic chunk plan (contiguous access ranges).
    fn chunk_bounds(&self) -> Vec<(u64, u64)> {
        split_indices(
            usize::try_from(self.total).expect("trace length fits usize"),
            self.chunk_count,
        )
        .into_iter()
        .map(|c| (c.start as u64, c.end as u64))
        .collect()
    }

    /// Accesses streamed so far: absorbed chunks are a contiguous prefix
    /// of the access range, so this is the end of the last absorbed
    /// chunk's bounds. Each access is decoded exactly once, so a complete
    /// run reports exactly the trace length — where running the exact and
    /// the sampled pipelines separately would stream every access at least
    /// twice.
    #[must_use]
    pub fn streamed_accesses(&self) -> u64 {
        self.next_chunk
            .checked_sub(1)
            .map_or(0, |last| self.chunk_bounds()[last].1)
    }

    /// Runs up to `limit` pending chunks (all of them when `None`) in
    /// parallel batches of the configured thread count, absorbing partials
    /// in chunk order. Returns how many chunks were processed.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the ingest's fingerprint, or
    /// if it fails to stream (sources are validated by [`TraceIngest::new`]).
    pub fn run_pending(&mut self, source: &TraceSource, limit: Option<usize>) -> usize {
        let options = RunOptions {
            limit,
            ..RunOptions::default()
        };
        self.run(source, options)
            .expect("a run without a checkpoint does no I/O")
    }

    /// Runs pending chunks through [`JobRunner::run`] with `options`
    /// (limit, checkpoint, metrics, batch callback); with a checkpoint a
    /// kill loses at most one batch of `threads` chunks.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the ingest's fingerprint, or
    /// if it fails to stream (sources are validated on construction).
    pub fn run(&mut self, source: &TraceSource, options: RunOptions<'_>) -> std::io::Result<usize> {
        assert_eq!(
            source.fingerprint(),
            self.fingerprint,
            "ingest resumed against a different trace source"
        );
        let bounds = self.chunk_bounds();
        let mut job = ChunkedTraceJob {
            ingest: self,
            source,
            bounds,
        };
        JobRunner::run(&mut job, options)
    }

    /// The exact histogram, or `None` while chunks are pending.
    #[must_use]
    pub fn histogram(&self) -> Option<&StreamHistogram> {
        self.is_complete().then(|| self.state.histogram())
    }

    /// The partial exact histogram absorbed so far (complete or not).
    #[must_use]
    pub fn partial_histogram(&self) -> &StreamHistogram {
        self.state.histogram()
    }

    /// Distinct addresses absorbed so far (exact side).
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.state.footprint()
    }

    /// The per-shard sampled results as they stand now (mid-stream while
    /// chunks are pending; final when complete — then bit-identical to
    /// [`SampledIngest::shard_results`] at the same shard count). Empty
    /// for an exact-only ingest.
    #[must_use]
    pub fn sampled_shard_results(&self) -> Vec<SampledShardResult> {
        self.sampled.as_ref().map_or_else(Vec::new, |half| {
            half.estimators
                .iter()
                .map(SampledShardResult::from_estimator)
                .collect()
        })
    }

    /// The merged sampled summary — bit-identical to
    /// [`SampledIngest::merged`] at the same shard count — or `None` while
    /// chunks are pending or when the ingest is exact-only.
    #[must_use]
    pub fn sampled_summary(&self) -> Option<SampledSummary> {
        let plan = self.sampled_plan()?;
        self.is_complete()
            .then(|| SampledSummary::of(&self.sampled_shard_results(), plan.shard_count))
    }

    /// Serializes the ingest — plan, progress, exact merge state and, when
    /// fused, every estimator's mid-stream state — as a JSON checkpoint
    /// document under the tag of its kind. Both sides serialize
    /// canonically (timelines as ordered address lists, weights as
    /// shortest round-trip decimals), so two ingests in the same logical
    /// state serialize byte-identically however they got there.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        job::write_checkpoint_header(&mut out, self.kind(), &self.fingerprint);
        let _ = writeln!(out, "  \"total_accesses\": {},", self.total);
        let _ = writeln!(out, "  \"chunk_count\": {},", self.chunk_count);
        if let Some(half) = &self.sampled {
            let _ = writeln!(out, "  \"shard_count\": {},", half.plan.shard_count);
            let _ = writeln!(
                out,
                "  \"budget_per_shard\": {},",
                half.plan.budget_per_shard
            );
            let _ = writeln!(out, "  \"threshold\": {},", half.threshold);
        }
        let _ = writeln!(out, "  \"next_chunk\": {},", self.next_chunk);
        if self.sampled.is_some() {
            let _ = writeln!(out, "  \"streamed\": {},", self.streamed_accesses());
        }
        let _ = writeln!(out, "  \"cold\": {},", self.state.histogram.cold_count());
        out.push_str("  \"histogram\": [");
        for (i, (d, c)) in self.state.histogram.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}[{d}, {c}]");
        }
        out.push_str("],\n");
        out.push_str("  \"timeline\": [");
        for (i, addr) in self.state.timeline.ordered_addresses().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{addr}");
        }
        let Some(half) = &self.sampled else {
            out.push_str("]\n}\n");
            return out;
        };
        out.push_str("],\n");
        out.push_str("  \"shards\": [\n");
        for (i, est) in half.estimators.iter().enumerate() {
            out.push_str("    {");
            write_estimator_entry(&mut out, est);
            out.push_str(if i + 1 < half.estimators.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Rebuilds an ingest from a checkpoint document of either trace kind:
    /// an exact-only document restores an exact-only ingest, a fused one a
    /// fused ingest.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem — including
    /// an exact timeline that repeats an address or whose length differs
    /// from the cold count (the footprint), which no real run can write.
    pub fn from_json(text: &str, threads: usize) -> Result<TraceIngest, String> {
        let doc = jsonio::parse(text)?;
        let kind = job::checkpoint_kind(&doc, &[JobKind::TraceIngest, JobKind::FusedIngest])?;
        let (fingerprint, total) = parse_trace_header(&doc)?;
        let chunk_count = doc
            .get("chunk_count")
            .and_then(JsonValue::as_usize)
            .ok_or("missing chunk_count")?;
        if chunk_count == 0 {
            return Err("chunk_count must be positive".to_string());
        }
        if chunk_count != Self::effective_chunk_count(chunk_count, total) {
            return Err(format!(
                "chunk_count {chunk_count} exceeds the {total} accesses of the trace"
            ));
        }
        let plan = match kind {
            JobKind::FusedIngest => Some(parse_sampled_plan(&doc)?),
            _ => None,
        };
        let next_chunk = doc
            .get("next_chunk")
            .and_then(JsonValue::as_usize)
            .ok_or("missing next_chunk")?;
        if next_chunk > chunk_count {
            return Err(format!(
                "next_chunk {next_chunk} exceeds chunk_count {chunk_count}"
            ));
        }
        let mut ingest = TraceIngest {
            fingerprint,
            total,
            chunk_count,
            threads: threads.max(1),
            next_chunk,
            state: MergeState::new(),
            sampled: None,
        };
        if plan.is_some() {
            let streamed = doc
                .get("streamed")
                .and_then(JsonValue::as_u64)
                .ok_or("missing streamed")?;
            if streamed != ingest.streamed_accesses() {
                return Err(format!(
                    "streamed {streamed} does not match the {} accesses of the \
                     {next_chunk} absorbed chunks",
                    ingest.streamed_accesses()
                ));
            }
        }
        ingest.state = parse_merge_state(&doc)?;
        if let Some((plan, threshold)) = plan {
            ingest.sampled = Some(parse_sampled_half(&doc, plan, threshold)?);
        }
        Ok(ingest)
    }

    /// Loads a checkpoint from `path`, or plans a fresh ingest when the
    /// file does not exist or belongs to a different source or plan.
    /// Returns the ingest and whether progress was actually resumed.
    ///
    /// The source is always re-scanned: a checkpoint only resumes when its
    /// fingerprint, its chunk plan, its sampled plan *and* its recorded
    /// access count all match the source as it exists now. File
    /// fingerprints are path-based, so the length check is what catches a
    /// file that was truncated, appended to or replaced between runs (an
    /// equal-length content swap is not detectable without hashing every
    /// resume — don't do that).
    ///
    /// # Errors
    ///
    /// Returns the source scan error, or a loud kind-mismatch error when
    /// the file holds a checkpoint of a *different* job kind — an exact
    /// plan pointed at a fused checkpoint included (see
    /// [`crate::job::resume_or_new_with`]).
    pub fn resume_or_new(
        source: &TraceSource,
        chunk_count: usize,
        sampled: Option<SampledPlan>,
        threads: usize,
        path: &Path,
    ) -> Result<(TraceIngest, bool), String> {
        let total = scan_total(source)?;
        let kind = match sampled {
            None => JobKind::TraceIngest,
            Some(_) => JobKind::FusedIngest,
        };
        job::resume_or_new_with(
            path,
            kind,
            |text| TraceIngest::from_json(text, threads),
            |ingest| {
                ingest.fingerprint == source.fingerprint()
                    && ingest.total == total
                    && ingest.chunk_count == Self::effective_chunk_count(chunk_count, total)
                    && ingest.sampled_plan() == sampled
                    && ingest
                        .sampled
                        .as_ref()
                        .is_none_or(|half| half.threshold == SHARDS_MODULUS)
            },
            TraceIngest::completed_count,
            || Self::with_total(source, total, chunk_count, sampled, threads),
        )
    }
}

/// Restores the exact merge state of a trace checkpoint: the histogram and
/// the timeline, rejecting a timeline that repeats an address or does not
/// hold exactly one address per cold access.
fn parse_merge_state(doc: &JsonValue) -> Result<MergeState, String> {
    let cold = doc
        .get("cold")
        .and_then(JsonValue::as_u64)
        .ok_or("missing cold")?;
    let mut state = MergeState::new();
    state.histogram.record_cold(cold);
    let entries = doc
        .get("histogram")
        .and_then(JsonValue::as_array)
        .ok_or("missing histogram")?;
    for entry in entries {
        let pair = entry.as_array().ok_or("histogram entry is not a pair")?;
        let (d, c) = match pair {
            [d, c] => (
                d.as_usize().ok_or("bad histogram distance")?,
                c.as_u64().ok_or("bad histogram count")?,
            ),
            _ => return Err("histogram entry is not a pair".to_string()),
        };
        if d == 0 {
            return Err("histogram distance 0 is not representable".to_string());
        }
        state.histogram.record_finite(d, c);
    }
    let timeline = doc
        .get("timeline")
        .and_then(JsonValue::as_array)
        .ok_or("missing timeline")?;
    for addr in timeline {
        let addr = addr.as_u64().ok_or("bad timeline address")?;
        if state.timeline.observe(addr).is_some() {
            return Err(format!("timeline address {addr} appears twice"));
        }
    }
    if state.timeline.live() as u64 != cold {
        return Err(format!(
            "timeline holds {} addresses but the cold count (footprint) is {cold}",
            state.timeline.live()
        ));
    }
    Ok(state)
}

/// Restores the live estimators of a fused trace checkpoint.
fn parse_sampled_half(
    doc: &JsonValue,
    plan: SampledPlan,
    threshold: u64,
) -> Result<SampledHalf, String> {
    let entries = doc
        .get("shards")
        .and_then(JsonValue::as_array)
        .ok_or("missing shards")?;
    if entries.len() != plan.shard_count {
        return Err(format!(
            "shard_count {} does not match {} shard entries",
            plan.shard_count,
            entries.len()
        ));
    }
    let mut estimators = Vec::with_capacity(plan.shard_count);
    for (index, entry) in entries.iter().enumerate() {
        estimators.push(parse_estimator_entry(
            entry,
            "shard",
            plan.budget_per_shard,
            threshold,
            (index as u64, plan.shard_count as u64),
        )?);
    }
    Ok(SampledHalf {
        plan,
        threshold,
        estimators,
    })
}

/// Restores the live estimator of one checkpointed entry written by
/// [`write_estimator_entry`]: hash shard `shard.0` of `shard.1`, with a
/// tracked-address budget and a threshold of at most `max_threshold`.
pub(crate) fn parse_estimator_entry(
    entry: &JsonValue,
    what: &str,
    budget: usize,
    max_threshold: u64,
    shard: (u64, u64),
) -> Result<ShardsEstimator, String> {
    let tracked = entry
        .get("tracked")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{what} missing tracked"))?
        .iter()
        .map(|addr| addr.as_u64().ok_or("bad tracked address"))
        .collect::<Result<Vec<u64>, _>>()?;
    let result = parse_shard_entry(entry, what, max_threshold, tracked.len())?;
    ShardsEstimator::restore_for_shard(budget, shard.0, shard.1, result, &tracked)
}

/// A [`TraceIngest`] bound to its trace source and materialized chunk
/// plan: the [`Job`] the generic runner drives. One unit is one contiguous
/// trace chunk, streamed **once**; absorption advances the exact merge
/// and, when fused, replays the routed slices through the live
/// estimators, both strictly in chunk order.
struct ChunkedTraceJob<'a> {
    ingest: &'a mut TraceIngest,
    source: &'a TraceSource,
    bounds: Vec<(u64, u64)>,
}

impl Job for ChunkedTraceJob<'_> {
    type Partial = FusedChunkPartial;

    fn kind(&self) -> JobKind {
        self.ingest.kind()
    }

    fn fingerprint(&self) -> String {
        self.ingest.fingerprint.clone()
    }

    fn threads(&self) -> usize {
        self.ingest.threads
    }

    fn unit_count(&self) -> usize {
        self.ingest.chunk_count
    }

    fn completed_count(&self) -> usize {
        self.ingest.next_chunk
    }

    /// Completion is always a contiguous prefix (the merge state advances
    /// chunk by chunk), so the pending list is the remaining suffix.
    fn pending_units(&self) -> Vec<usize> {
        (self.ingest.next_chunk..self.ingest.chunk_count).collect()
    }

    /// The merge state must absorb each pass before the next is planned,
    /// so one pass takes at most one chunk per worker.
    fn units_per_pass(&self, threads: usize) -> usize {
        threads
    }

    /// Workers decode and fold chunks in parallel over the block-streaming
    /// path — `.sltr` sources seek via the SLIX sidecar and decode varint
    /// runs zero-copy — while [`ChunkedTraceJob::absorb`] keeps the merges
    /// sequential and in chunk order. An exact-only chunk never hashes or
    /// routes an access.
    fn run_span(&self, units: &[usize], out: &mut Vec<(usize, FusedChunkPartial)>) {
        for &unit in units {
            let (start, end) = self.bounds[unit];
            let mut blocks = self
                .source
                .stream_blocks_range(start, end)
                .expect("validated source streams");
            let partial = match &self.ingest.sampled {
                None => FusedChunkPartial {
                    exact: chunk_partial_blocks(blocks.as_mut()),
                    routed: Vec::new(),
                },
                Some(half) => {
                    let mut tap = CountingSink::new();
                    let partial =
                        fused_chunk_partial(blocks.as_mut(), half.plan.shard_count, &mut tap);
                    debug_assert_eq!(
                        tap.accesses(),
                        partial.exact.accesses,
                        "the broadcast tap observes every access exactly once"
                    );
                    partial
                }
            };
            out.push((unit, partial));
        }
    }

    fn absorb(&mut self, unit: usize, partial: FusedChunkPartial) {
        debug_assert_eq!(unit, self.ingest.next_chunk, "chunks absorb in order");
        self.ingest.state.absorb(&partial.exact);
        if let Some(half) = &mut self.ingest.sampled {
            for (shard, slice) in partial.routed.iter().enumerate() {
                let est = &mut half.estimators[shard];
                for &addr in slice {
                    est.record_hashed(addr, splitmix64(addr) % SHARDS_MODULUS);
                }
            }
        }
        self.ingest.next_chunk += 1;
    }

    fn to_json(&self) -> String {
        self.ingest.to_json()
    }

    fn progress_items(&self) -> Option<(&'static str, u64)> {
        Some(("accesses", self.ingest.streamed_accesses()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_cache::reuse::reuse_distances;
    use symloc_trace::generators::{cyclic_trace, sawtooth_trace, zipfian_trace};
    use symloc_trace::stream::GenSpec;
    use symloc_trace::Trace;

    /// A fused plan of `shard_count` hash shards × `budget_per_shard`.
    fn plan(shard_count: usize, budget_per_shard: usize) -> Option<SampledPlan> {
        Some(SampledPlan {
            shard_count,
            budget_per_shard,
        })
    }

    /// The two trace jobs' shared run surface, so one checkpointing helper
    /// drives both.
    trait TraceRun {
        fn run_on(
            &mut self,
            source: &TraceSource,
            options: RunOptions<'_>,
        ) -> std::io::Result<usize>;
    }

    impl TraceRun for TraceIngest {
        fn run_on(
            &mut self,
            source: &TraceSource,
            options: RunOptions<'_>,
        ) -> std::io::Result<usize> {
            self.run(source, options)
        }
    }

    impl TraceRun for SampledIngest {
        fn run_on(
            &mut self,
            source: &TraceSource,
            options: RunOptions<'_>,
        ) -> std::io::Result<usize> {
            self.run(source, options)
        }
    }

    /// Runs up to `limit` pending units checkpointing to `path`, appending
    /// every batch's `(completed, total)` to `progress`.
    fn run_checkpointed(
        job: &mut impl TraceRun,
        source: &TraceSource,
        path: &Path,
        limit: Option<usize>,
        progress: &mut Vec<(usize, usize)>,
    ) -> usize {
        let mut record = |done, total| progress.push((done, total));
        let options = RunOptions {
            limit,
            checkpoint: Some(path),
            metrics: None,
            on_batch: Some(&mut record),
        };
        job.run_on(source, options).unwrap()
    }

    fn engine_over(trace: &Trace) -> OnlineReuseEngine {
        let mut engine = OnlineReuseEngine::new();
        engine.record_all(trace.iter().map(|a| a.value() as u64));
        engine
    }

    fn batch_histogram(trace: &Trace) -> StreamHistogram {
        let mut h = StreamHistogram::new();
        for d in reuse_distances(trace) {
            match d {
                Some(d) => h.record_finite(d, 1),
                None => h.record_cold(1),
            }
        }
        h
    }

    #[test]
    fn online_engine_matches_batch_olken() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for trace in [
            Trace::new(),
            sawtooth_trace(7, 3),
            cyclic_trace(5, 4),
            zipfian_trace(40, 600, 0.9, &mut rng),
        ] {
            let engine = engine_over(&trace);
            assert_eq!(*engine.histogram(), batch_histogram(&trace));
            assert_eq!(engine.accesses(), trace.len() as u64);
            assert_eq!(engine.footprint(), trace.distinct_count());
        }
    }

    #[test]
    fn online_engine_distances_match_per_access() {
        let trace = sawtooth_trace(5, 4);
        let batch = reuse_distances(&trace);
        let mut engine = OnlineReuseEngine::new();
        for (addr, expect) in trace.iter().zip(batch) {
            assert_eq!(engine.record(addr.value() as u64), expect);
        }
    }

    #[test]
    fn timeline_capacity_is_bounded_by_footprint_not_length() {
        // 50_000 accesses over 40 addresses: the tree must stay tiny.
        let mut engine = OnlineReuseEngine::new();
        for i in 0..50_000u64 {
            engine.record(i % 40);
        }
        assert_eq!(engine.footprint(), 40);
        assert!(
            engine.timeline_capacity() <= MIN_TIMELINE_CAPACITY.max(2 * 40),
            "capacity {} grew past the footprint bound",
            engine.timeline_capacity()
        );
        assert_eq!(engine.accesses(), 50_000);
        // Every non-cold access of the cyclic pattern has distance 40.
        assert_eq!(engine.histogram().count_at(40), 50_000 - 40);
    }

    #[test]
    fn histogram_queries_and_merge() {
        let mut h = StreamHistogram::new();
        h.record_finite(2, 3);
        h.record_finite(5, 1);
        h.record_cold(2);
        assert_eq!(h.count_at(2), 3);
        assert_eq!(h.finite_count(), 4);
        assert_eq!(h.accesses(), 6);
        assert_eq!(h.hits_up_to(4), 3);
        assert!((h.miss_ratio(4) - 0.5).abs() < 1e-12);
        assert_eq!(h.max_distance(), Some(5));
        let mut other = StreamHistogram::new();
        other.record_finite(2, 1);
        other.record_cold(1);
        h.merge(&other);
        assert_eq!(h.count_at(2), 4);
        assert_eq!(h.cold_count(), 3);
        assert_eq!(StreamHistogram::new().miss_ratio(4), 0.0);
        let points = h.mrc_points(&[1, 4, 100]);
        assert_eq!(points.len(), 3);
        assert!((points[2].miss_ratio - h.miss_ratio(100)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distance 0")]
    fn histogram_rejects_distance_zero() {
        StreamHistogram::new().record_finite(0, 1);
    }

    #[test]
    fn log_spaced_sizes_cover_the_range() {
        assert!(log_spaced_sizes(0, 8).is_empty());
        assert_eq!(log_spaced_sizes(1, 8), vec![1]);
        let sizes = log_spaced_sizes(100_000, 16);
        assert_eq!(*sizes.first().unwrap(), 1);
        assert_eq!(*sizes.last().unwrap(), 100_000);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes.len() <= 16);
    }

    #[test]
    fn shards_at_full_budget_equals_exact_engine() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let trace = zipfian_trace(60, 800, 0.8, &mut rng);
        let exact = engine_over(&trace);
        // Budget above the footprint: rate stays 1, every access sampled.
        let mut shards = ShardsEstimator::new(200);
        shards.record_all(trace.iter().map(|a| a.value() as u64));
        assert_eq!(shards.sampling_rate(), 1.0);
        assert_eq!(shards.evictions(), 0);
        assert_eq!(shards.sampled_accesses(), trace.len() as u64);
        for c in [1usize, 2, 5, 10, 30, 60, 100] {
            assert!(
                (shards.histogram().miss_ratio(c) - exact.histogram().miss_ratio(c)).abs() < 1e-9,
                "c={c}"
            );
        }
        assert!((shards.estimated_footprint() - exact.footprint() as f64).abs() < 1e-9);
    }

    #[test]
    fn shards_budget_binds_memory_and_still_estimates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        // 4000 distinct addresses, budget 2048: eviction must kick in.
        let trace = zipfian_trace(4000, 40_000, 0.7, &mut rng);
        let exact = engine_over(&trace);
        let mut shards = ShardsEstimator::new(2048);
        shards.record_all(trace.iter().map(|a| a.value() as u64));
        assert!(shards.sampling_rate() < 1.0);
        assert!(shards.evictions() > 0);
        assert!(shards.tracked_addresses() <= shards.budget());
        assert!(shards.timeline.capacity() <= 2 * (shards.budget() + 1) + MIN_TIMELINE_CAPACITY);
        // The estimate stays close to the exact curve. Spatial sampling
        // keeps or drops whole addresses, so on a small, highly skewed
        // synthetic address space the hash luck of the few hot addresses
        // dominates the error; a budget of ~half the footprint keeps the
        // worst pointwise gap within a few percent.
        let mut worst = 0.0f64;
        for c in log_spaced_sizes(exact.footprint(), 12) {
            worst = worst
                .max((shards.histogram().miss_ratio(c) - exact.histogram().miss_ratio(c)).abs());
        }
        assert!(worst < 0.05, "worst MRC error {worst}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shards_rejects_zero_budget() {
        let _ = ShardsEstimator::new(0);
    }

    #[test]
    fn fixed_threshold_starts_below_full_rate() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let trace = zipfian_trace(500, 6000, 0.7, &mut rng);
        let threshold = SHARDS_MODULUS / 4;
        let mut est = ShardsEstimator::with_threshold(4096, threshold);
        assert!((est.sampling_rate() - 0.25).abs() < 1e-12);
        est.record_all(trace.iter().map(|a| a.value() as u64));
        // Budget way above the sampled set: the threshold never moved.
        assert_eq!(est.threshold(), threshold);
        assert_eq!(est.evictions(), 0);
        // Roughly a quarter of the accesses were sampled, and the weighted
        // total estimates the true access count.
        assert!(est.sampled_accesses() < est.raw_accesses() / 2);
        let total = est.histogram().total_weight();
        let true_len = trace.len() as f64;
        assert!(
            (total - true_len).abs() / true_len < 0.25,
            "estimated {total} accesses vs {}",
            trace.len()
        );
    }

    #[test]
    fn single_hash_shard_is_the_sequential_estimator() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(37);
        let trace = zipfian_trace(3000, 30_000, 0.8, &mut rng);
        let mut sequential = ShardsEstimator::new(1024);
        sequential.record_all(trace.iter().map(|a| a.value() as u64));
        let source = TraceSource::Memory(trace);
        let mut ingest = SampledIngest::new(&source, 1, 1024, 3).unwrap();
        assert_eq!(ingest.run_pending(&source, None), 1);
        let merged = ingest.merged().unwrap();
        assert_eq!(merged.histogram, *sequential.histogram());
        assert_eq!(merged.raw_accesses, sequential.raw_accesses());
        assert_eq!(merged.sampled_accesses, sequential.sampled_accesses());
        assert_eq!(merged.evictions, sequential.evictions());
        assert!((merged.min_rate - sequential.sampling_rate()).abs() < 1e-15);
    }

    #[test]
    fn sampled_ingest_is_thread_invariant_and_deterministic() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:400:8000:0.9:5").unwrap());
        let mut reference = SampledIngest::new(&source, 5, 64, 1).unwrap();
        reference.run_pending(&source, None);
        let expected = reference.to_json();
        for threads in [2, 3, 8] {
            let mut ingest = SampledIngest::new(&source, 5, 64, threads).unwrap();
            ingest.run_pending(&source, None);
            assert_eq!(ingest.to_json(), expected, "threads={threads}");
        }
        // Each access lands in exactly one shard.
        assert_eq!(reference.merged().unwrap().raw_accesses, 8000);
    }

    #[test]
    fn sampled_ingest_is_bit_identical_across_source_kinds() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use symloc_trace::binio::{sltr_index_path, write_sltr, write_sltr_indexed};
        use symloc_trace::io::write_trace;
        let mut rng = StdRng::seed_from_u64(29);
        // Several BLOCK_LEN refills and index intervals per pass.
        let trace = zipfian_trace(2000, 12_000, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let text = dir.join(format!("symloc_sampled_kinds_{pid}.trace"));
        let plain = dir.join(format!("symloc_sampled_kinds_plain_{pid}.sltr"));
        let indexed = dir.join(format!("symloc_sampled_kinds_indexed_{pid}.sltr"));
        write_trace(&trace, &text).unwrap();
        write_sltr(&trace, &plain).unwrap();
        write_sltr_indexed(&trace, &indexed, 512).unwrap();
        let merged = |source: &TraceSource| {
            let mut ingest = SampledIngest::new(source, 4, 64, 2).unwrap();
            ingest.run_pending(source, None);
            ingest.merged().unwrap()
        };
        let reference = merged(&TraceSource::Memory(trace));
        assert_eq!(reference.raw_accesses, 12_000);
        for source in [
            TraceSource::Text(text.clone()),
            TraceSource::Binary(plain.clone()),
            TraceSource::Binary(indexed.clone()),
        ] {
            let summary = merged(&source);
            assert_eq!(summary, reference, "{source}");
            // `Debug` prints every float in shortest round-trip form (and
            // tells -0.0 from 0.0), so equal renderings are equal bits.
            assert_eq!(format!("{summary:?}"), format!("{reference:?}"), "{source}");
        }
        for path in [&text, &plain, &indexed] {
            std::fs::remove_file(path).ok();
        }
        std::fs::remove_file(sltr_index_path(&indexed)).ok();
    }

    #[test]
    fn sampled_ingest_resumes_to_byte_identical_checkpoint() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:300:5000:0.8:11").unwrap());
        let mut reference = SampledIngest::new(&source, 6, 48, 2).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        let mut interrupted = SampledIngest::new(&source, 6, 48, 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(!interrupted.is_complete());
        assert!(interrupted.merged().is_none());
        let checkpoint = interrupted.to_json();
        drop(interrupted);

        let mut resumed = SampledIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(resumed.merged(), reference.merged());
    }

    #[test]
    fn sampled_ingest_checkpoint_files_and_resume_or_new() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_tracesweep_sampled_checkpoint.json");
        std::fs::remove_file(&path).ok();
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:200:3000:0.7:13").unwrap());

        let (mut ingest, resumed) = SampledIngest::resume_or_new(&source, 4, 32, 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        run_checkpointed(&mut ingest, &source, &path, Some(2), &mut progress);
        assert_eq!(progress, vec![(2, 4)]);
        assert!(!ingest.is_complete());

        let (mut resumed_ingest, resumed) =
            SampledIngest::resume_or_new(&source, 4, 32, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_ingest.completed_count(), 2);
        run_checkpointed(&mut resumed_ingest, &source, &path, None, &mut Vec::new());
        assert!(resumed_ingest.is_complete());

        // A different plan ignores the stale checkpoint.
        let (fresh, resumed) = SampledIngest::resume_or_new(&source, 5, 32, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);

        // Complete ingest: nothing pending, checkpoint still rewritten.
        let (mut done, _) = SampledIngest::resume_or_new(&source, 4, 32, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            run_checkpointed(&mut done, &source, &path, None, &mut Vec::new()),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampled_ingest_rejects_corrupted_checkpoints() {
        let source = TraceSource::Gen(GenSpec::parse("gen:cyclic:16:8").unwrap());
        let mut ingest = SampledIngest::new(&source, 2, 8, 1).unwrap();
        ingest.run_pending(&source, Some(1));
        let good = ingest.to_json();
        assert!(SampledIngest::from_json(&good, 1).is_ok());
        assert!(SampledIngest::from_json("{}", 1).is_err());
        assert!(SampledIngest::from_json("not json", 1).is_err());
        assert!(SampledIngest::from_json(&good.replace(SAMPLED_CHECKPOINT_KIND, "x"), 1).is_err());
        assert!(
            SampledIngest::from_json(&good.replace("\"version\": 1", "\"version\": 7"), 1).is_err()
        );
        assert!(SampledIngest::from_json(
            &good.replace("\"next_shard\": 1", "\"next_shard\": 9"),
            1
        )
        .is_err());
        assert!(SampledIngest::from_json(
            &good.replace("\"budget_per_shard\": 8", "\"budget_per_shard\": 0"),
            1
        )
        .is_err());
    }

    #[test]
    fn merged_sampled_estimate_tracks_the_exact_curve() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(43);
        let trace = zipfian_trace(4000, 40_000, 0.7, &mut rng);
        let exact = engine_over(&trace);
        let source = TraceSource::Memory(trace);
        // 4 shards × 512 budget = the same total budget as the sequential
        // accuracy test above; the merged estimate must stay comparably
        // close to the exact curve.
        let mut ingest = SampledIngest::new(&source, 4, 512, 2).unwrap();
        ingest.run_pending(&source, None);
        let merged = ingest.merged().unwrap();
        assert!(merged.min_rate < 1.0);
        let mut worst = 0.0f64;
        for c in log_spaced_sizes(exact.footprint(), 12) {
            worst =
                worst.max((merged.histogram.miss_ratio(c) - exact.histogram().miss_ratio(c)).abs());
        }
        assert!(worst < 0.08, "worst MRC error {worst}");
        // Absolute (not just ratio) quantities are unbiased too: the merged
        // total weight estimates the access count and the cold weight the
        // footprint — shard estimates sum, they do not multiply
        // (regression test: weights scale by the within-slice rate).
        let total = merged.histogram.total_weight();
        assert!(
            (total - 40_000.0).abs() / 40_000.0 < 0.2,
            "estimated {total} accesses"
        );
        let footprint = merged.estimated_footprint();
        assert!(
            (footprint - 4000.0).abs() / 4000.0 < 0.2,
            "estimated footprint {footprint}"
        );
    }

    #[test]
    fn chunked_merge_equals_sequential_for_any_chunking() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for trace in [
            sawtooth_trace(9, 4),
            cyclic_trace(6, 5),
            zipfian_trace(50, 700, 1.0, &mut rng),
        ] {
            let expected = batch_histogram(&trace);
            let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
            for chunks in [1usize, 2, 3, 7, 16] {
                let mut state = MergeState::new();
                for span in split_indices(addrs.len(), chunks) {
                    let partial = chunk_partial(addrs[span.start..span.end].iter().copied());
                    state.absorb(&partial);
                }
                assert_eq!(*state.histogram(), expected, "chunks={chunks}");
                assert_eq!(state.footprint(), trace.distinct_count());
            }
        }
    }

    #[test]
    fn ingest_is_thread_and_chunk_invariant() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:80:2000:0.9:7").unwrap());
        let mut reference = TraceIngest::new(&source, 1, None, 1).unwrap();
        assert_eq!(reference.run_pending(&source, None), 1);
        let expected = reference.histogram().unwrap().clone();
        for (chunks, threads) in [(4, 1), (4, 3), (9, 2), (16, 8)] {
            let mut ingest = TraceIngest::new(&source, chunks, None, threads).unwrap();
            ingest.run_pending(&source, None);
            assert_eq!(
                *ingest.histogram().unwrap(),
                expected,
                "chunks={chunks} threads={threads}"
            );
        }
    }

    #[test]
    fn interrupted_ingest_resumes_to_byte_identical_checkpoint() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:60:1500:0.8:9").unwrap());

        // The uninterrupted reference run.
        let mut reference = TraceIngest::new(&source, 6, None, 2).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        // Run part of the ingest, "die", serialize, resume, finish.
        let mut interrupted = TraceIngest::new(&source, 6, None, 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(!interrupted.is_complete());
        assert!(interrupted.histogram().is_none());
        let checkpoint = interrupted.to_json();
        drop(interrupted);

        let mut resumed = TraceIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(
            *resumed.histogram().unwrap(),
            *reference.histogram().unwrap()
        );
    }

    #[test]
    fn ingest_checkpoint_files_and_resume_or_new() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_tracesweep_ingest_checkpoint.json");
        std::fs::remove_file(&path).ok();
        let source = TraceSource::Gen(GenSpec::parse("gen:sawtooth:30:40").unwrap());

        let (mut ingest, resumed) = TraceIngest::resume_or_new(&source, 5, None, 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        run_checkpointed(&mut ingest, &source, &path, Some(2), &mut progress);
        assert_eq!(progress, vec![(2, 5)]);
        assert!(!ingest.is_complete());

        // Resume from disk and finish.
        let (mut resumed_ingest, resumed) =
            TraceIngest::resume_or_new(&source, 5, None, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_ingest.completed_count(), 2);
        run_checkpointed(&mut resumed_ingest, &source, &path, None, &mut Vec::new());
        assert!(resumed_ingest.is_complete());

        // A different source ignores the stale checkpoint.
        let other = TraceSource::Gen(GenSpec::parse("gen:cyclic:30:40").unwrap());
        let (fresh, resumed) = TraceIngest::resume_or_new(&other, 5, None, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);

        // Complete ingest: nothing pending, checkpoint still rewritten.
        let (mut done, _) = TraceIngest::resume_or_new(&source, 5, None, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            run_checkpointed(&mut done, &source, &path, None, &mut Vec::new()),
            0
        );
        // And matches the sequential engine.
        let expected = engine_over(&sawtooth_trace(30, 40));
        assert_eq!(*done.histogram().unwrap(), *expected.histogram());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_file_that_changed_length() {
        // File fingerprints are path-based, so a checkpoint must also be
        // tied to the access count: replacing the trace file between runs
        // restarts the ingest instead of silently resuming against the
        // wrong data (regression test).
        let dir = std::env::temp_dir();
        let trace_path = dir.join("symloc_tracesweep_swap_test.trace");
        let ckpt_path = dir.join("symloc_tracesweep_swap_test.ckpt.json");
        std::fs::remove_file(&ckpt_path).ok();
        std::fs::write(&trace_path, "0\n1\n2\n0\n1\n2\n0\n1\n").unwrap();
        let source = TraceSource::Text(trace_path.clone());

        let (mut ingest, _) = TraceIngest::resume_or_new(&source, 4, None, 1, &ckpt_path).unwrap();
        run_checkpointed(&mut ingest, &source, &ckpt_path, Some(2), &mut Vec::new());
        assert!(!ingest.is_complete());

        // Same path, different (shorter) content: fresh plan, not a resume.
        std::fs::write(&trace_path, "7\n7\n").unwrap();
        let (fresh, resumed) = TraceIngest::resume_or_new(&source, 4, None, 1, &ckpt_path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);
        assert_eq!(fresh.total_accesses(), 2);
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&ckpt_path).ok();
    }

    #[test]
    fn ingest_rejects_corrupted_checkpoints() {
        let source = TraceSource::Gen(GenSpec::parse("gen:cyclic:8:4").unwrap());
        let mut ingest = TraceIngest::new(&source, 2, None, 1).unwrap();
        ingest.run_pending(&source, Some(1));
        let good = ingest.to_json();
        assert!(TraceIngest::from_json(&good, 1).is_ok());
        assert!(TraceIngest::from_json("{}", 1).is_err());
        assert!(TraceIngest::from_json("not json", 1).is_err());
        assert!(TraceIngest::from_json(&good.replace(CHECKPOINT_KIND, "other"), 1).is_err());
        assert!(
            TraceIngest::from_json(&good.replace("\"version\": 1", "\"version\": 9"), 1).is_err()
        );
        assert!(TraceIngest::from_json(
            &good.replace("\"next_chunk\": 1", "\"next_chunk\": 99"),
            1
        )
        .is_err());
        assert!(TraceIngest::from_json(
            &good.replace("\"chunk_count\": 2", "\"chunk_count\": 0"),
            1
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "different trace source")]
    fn ingest_refuses_a_mismatched_source() {
        let source = TraceSource::Gen(GenSpec::parse("gen:cyclic:8:4").unwrap());
        let other = TraceSource::Gen(GenSpec::parse("gen:cyclic:8:5").unwrap());
        let mut ingest = TraceIngest::new(&source, 2, None, 1).unwrap();
        ingest.run_pending(&other, None);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn ingest_rejects_zero_chunks() {
        let source = TraceSource::Gen(GenSpec::parse("gen:cyclic:4:2").unwrap());
        let _ = TraceIngest::new(&source, 0, None, 1);
    }

    #[test]
    fn ingest_reports_source_errors() {
        let source = TraceSource::Text(std::path::PathBuf::from("/no/such/trace.txt"));
        assert!(TraceIngest::new(&source, 2, None, 1).is_err());
    }

    #[test]
    fn empty_trace_ingests_cleanly() {
        let source = TraceSource::Memory(Trace::new());
        let mut ingest = TraceIngest::new(&source, 3, None, 2).unwrap();
        ingest.run_pending(&source, None);
        assert!(ingest.is_complete());
        assert_eq!(ingest.histogram().unwrap().accesses(), 0);
        assert_eq!(ingest.footprint(), 0);
    }

    #[test]
    fn fused_chunk_partial_broadcasts_each_access_exactly_once() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(51);
        let trace = zipfian_trace(100, 1500, 0.8, &mut rng);
        let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
        let source = TraceSource::Memory(trace);
        let mut blocks = source.stream_blocks_range(0, addrs.len() as u64).unwrap();
        let mut tap = CountingSink::new();
        let partial = fused_chunk_partial(blocks.as_mut(), 3, &mut tap);
        // The counting tap proves the single pass: exactly one observation
        // per access, and the fold agrees.
        assert_eq!(tap.accesses(), addrs.len() as u64);
        assert_eq!(partial.exact.accesses, addrs.len() as u64);
        // The exact side is exactly what the plain chunk fold produces.
        assert_eq!(partial.exact, chunk_partial(addrs.iter().copied()));
        // Every access routes to exactly one shard — the right one — and
        // each shard's slice preserves access order.
        assert_eq!(
            partial.routed.iter().map(Vec::len).sum::<usize>(),
            addrs.len()
        );
        let mut replayed: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for &addr in &addrs {
            replayed[(splitmix64(addr) % SHARDS_MODULUS % 3) as usize].push(addr);
        }
        assert_eq!(partial.routed, replayed);
    }

    #[test]
    fn fused_ingest_equals_exact_and_sampled_pipelines() {
        // The headline invariant: one fused pass produces an exact
        // histogram byte-identical to TraceIngest and sampled results
        // bit-identical to SampledIngest at the same shard count.
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:300:5000:0.8:21").unwrap());
        let mut exact = TraceIngest::new(&source, 6, None, 2).unwrap();
        exact.run_pending(&source, None);
        let mut sampled = SampledIngest::new(&source, 3, 16, 2).unwrap();
        sampled.run_pending(&source, None);

        let mut fused = TraceIngest::new(&source, 6, plan(3, 16), 2).unwrap();
        fused.run_pending(&source, None);
        assert!(fused.is_complete());
        assert_eq!(fused.histogram().unwrap(), exact.histogram().unwrap());
        assert_eq!(fused.footprint(), exact.footprint());
        assert_eq!(fused.sampled_shard_results(), sampled.shard_results());
        assert_eq!(fused.sampled_summary(), sampled.merged());
        // …and the single-pass counter covers the whole trace exactly once,
        // where the two separate pipelines streamed it (at least) twice.
        assert_eq!(fused.streamed_accesses(), fused.total_accesses());
    }

    #[test]
    fn fused_ingest_is_thread_and_chunk_invariant() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:200:3000:0.9:31").unwrap());
        let mut reference = TraceIngest::new(&source, 5, plan(2, 24), 1).unwrap();
        reference.run_pending(&source, None);
        let expected = reference.to_json();
        for threads in [2, 3, 8] {
            let mut fused = TraceIngest::new(&source, 5, plan(2, 24), threads).unwrap();
            fused.run_pending(&source, None);
            assert_eq!(fused.to_json(), expected, "threads={threads}");
        }
        // A different chunking changes the plan but not either result.
        for chunks in [1usize, 3, 11] {
            let mut fused = TraceIngest::new(&source, chunks, plan(2, 24), 2).unwrap();
            fused.run_pending(&source, None);
            assert_eq!(
                fused.histogram().unwrap(),
                reference.histogram().unwrap(),
                "chunks={chunks}"
            );
            assert_eq!(
                fused.sampled_summary(),
                reference.sampled_summary(),
                "chunks={chunks}"
            );
        }
    }

    #[test]
    fn interrupted_fused_ingest_resumes_to_byte_identical_checkpoint() {
        // Small budgets over a large footprint so thresholds have dropped
        // and shards carry non-trivial tracked sets at the kill point.
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:300:5000:0.8:41").unwrap());
        let mut reference = TraceIngest::new(&source, 6, plan(3, 16), 2).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        let mut interrupted = TraceIngest::new(&source, 6, plan(3, 16), 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(!interrupted.is_complete());
        assert!(interrupted.histogram().is_none());
        assert!(interrupted.sampled_summary().is_none());
        let checkpoint = interrupted.to_json();
        drop(interrupted);

        let mut resumed = TraceIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        // Restoring is lossless: re-serializing the restored state gives
        // the same bytes back.
        assert_eq!(resumed.to_json(), checkpoint);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(resumed.sampled_summary(), reference.sampled_summary());
    }

    #[test]
    fn fused_ingest_checkpoint_files_and_resume_or_new() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_tracesweep_fused_checkpoint.json");
        std::fs::remove_file(&path).ok();
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:100:2000:0.7:51").unwrap());

        let (mut fused, resumed) =
            TraceIngest::resume_or_new(&source, 5, plan(2, 16), 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        run_checkpointed(&mut fused, &source, &path, Some(2), &mut progress);
        assert_eq!(progress, vec![(2, 5)]);
        assert!(!fused.is_complete());

        let (mut resumed_fused, resumed) =
            TraceIngest::resume_or_new(&source, 5, plan(2, 16), 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_fused.completed_count(), 2);
        run_checkpointed(&mut resumed_fused, &source, &path, None, &mut Vec::new());
        assert!(resumed_fused.is_complete());

        // A different sampled plan ignores the stale checkpoint even though
        // the exact plan still matches.
        let (fresh, resumed) =
            TraceIngest::resume_or_new(&source, 5, plan(4, 16), 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);
        let (fresh, resumed) =
            TraceIngest::resume_or_new(&source, 5, plan(2, 8), 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);

        // Complete ingest: nothing pending, checkpoint still rewritten.
        let (mut done, _) = TraceIngest::resume_or_new(&source, 5, plan(2, 16), 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            run_checkpointed(&mut done, &source, &path, None, &mut Vec::new()),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fused_ingest_rejects_corrupted_checkpoints() {
        let source = TraceSource::Gen(GenSpec::parse("gen:zipf:50:600:0.9:61").unwrap());
        let mut fused = TraceIngest::new(&source, 3, plan(2, 8), 1).unwrap();
        fused.run_pending(&source, Some(1));
        let good = fused.to_json();
        assert!(TraceIngest::from_json(&good, 1).is_ok());
        assert!(TraceIngest::from_json("{}", 1).is_err());
        assert!(TraceIngest::from_json("not json", 1).is_err());
        assert!(TraceIngest::from_json(&good.replace(FUSED_CHECKPOINT_KIND, "other"), 1).is_err());
        assert!(
            TraceIngest::from_json(&good.replace("\"version\": 1", "\"version\": 9"), 1).is_err()
        );
        assert!(TraceIngest::from_json(
            &good.replace("\"next_chunk\": 1", "\"next_chunk\": 99"),
            1
        )
        .is_err());
        assert!(TraceIngest::from_json(
            &good.replace("\"shard_count\": 2", "\"shard_count\": 5"),
            1
        )
        .is_err());
        assert!(TraceIngest::from_json(
            &good.replace("\"budget_per_shard\": 8", "\"budget_per_shard\": 0"),
            1
        )
        .is_err());
        // Mangled tracked lists are rejected: a duplicated address, and an
        // address that does not belong to its shard's residue class.
        let mangled = good.replace("\"tracked\": [", "\"tracked\": [1, 1, ");
        assert!(TraceIngest::from_json(&mangled, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "different trace source")]
    fn fused_ingest_refuses_a_mismatched_source() {
        let source = TraceSource::Gen(GenSpec::parse("gen:cyclic:8:4").unwrap());
        let other = TraceSource::Gen(GenSpec::parse("gen:cyclic:8:5").unwrap());
        let mut fused = TraceIngest::new(&source, 2, plan(2, 8), 1).unwrap();
        fused.run_pending(&other, None);
    }

    #[test]
    fn empty_trace_fuses_cleanly() {
        let source = TraceSource::Memory(Trace::new());
        let mut fused = TraceIngest::new(&source, 3, plan(2, 8), 2).unwrap();
        fused.run_pending(&source, None);
        assert!(fused.is_complete());
        assert_eq!(fused.streamed_accesses(), 0);
        assert_eq!(fused.histogram().unwrap().accesses(), 0);
        assert_eq!(fused.footprint(), 0);
        let summary = fused.sampled_summary().unwrap();
        assert_eq!(summary.raw_accesses, 0);
        // Same rate floor as SampledIngest: threshold never moved, so the
        // per-shard rate is 1/shard_count.
        assert!((summary.min_rate - 0.5).abs() < 1e-15);
    }
}
