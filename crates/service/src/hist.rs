//! Log-linear latency histograms for the service layer.
//!
//! The service records per-request-kind latencies (end-to-end, queue
//! wait, solve) into histograms with a **fixed, universal bucket
//! schema** so that histograms from different daemons merge *exactly*
//! (bucket-wise addition) — the federation router never averages
//! percentiles, it adds bucket counts and recomputes quantiles from
//! the merged distribution. This is the same reasoning HdrHistogram
//! popularised; the implementation here is a small log-linear variant:
//!
//! * values are **microseconds** (`u64`);
//! * values `0..16` get one bucket each (exact);
//! * every power-of-two octave above that is split into
//!   [`SUB_BUCKETS`] = 16 linear sub-buckets, so the relative
//!   quantization error is bounded by 1/16 ≈ 6.25% and the absolute
//!   error by one bucket width;
//! * the schema tops out at 2⁴⁰ µs (≈ 12.7 days); larger values clamp
//!   into the last bucket.
//!
//! The schema is a compile-time constant ([`BUCKET_COUNT`] buckets) —
//! there is no per-histogram configuration to disagree about, which is
//! what makes cross-daemon merging safe. A schema change is a wire
//! format change and must bump [`SCHEMA_VERSION`].
//!
//! Recording is kept cheap under concurrency by sharding: the server
//! gives each reactor worker its own shard ([`Sharded`]), so `record`
//! takes an uncontended `Mutex` (a couple of atomic ops) and snapshots
//! merge shards on demand. Each shard is internally consistent, so
//! every snapshot satisfies `Σ bucket counts == count` even while 16
//! threads are recording (property-tested in `hist_properties.rs`).

use std::sync::Mutex;

/// Log₂ of the linear sub-buckets per octave.
pub const SUB_BUCKET_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two octave (16).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Highest representable exponent: values `>= 2^(MAX_EXP+1)` µs clamp
/// into the final bucket.
const MAX_EXP: u32 = 39;
/// Total buckets in the fixed schema: 16 exact unit buckets for
/// `0..16`, then 16 sub-buckets for each octave `2^4 ..= 2^39`.
pub const BUCKET_COUNT: usize = (MAX_EXP as usize - SUB_BUCKET_BITS as usize + 2) * SUB_BUCKETS;
/// Bucket-schema version carried on the wire; decoders reject merges
/// across different versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Bucket index for a microsecond value (total function, clamps at the
/// top of the schema).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp > MAX_EXP {
        return BUCKET_COUNT - 1;
    }
    let sub = ((v >> (exp - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
    (exp - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Inclusive lower bound (µs) of a bucket.
#[must_use]
pub fn bucket_lower(i: usize) -> u64 {
    assert!(i < BUCKET_COUNT, "bucket index {i} out of range");
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let exp = (i / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
    let sub = (i % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (exp - SUB_BUCKET_BITS)
}

/// Width (µs) of a bucket; quantization error is below this.
#[must_use]
pub fn bucket_width(i: usize) -> u64 {
    assert!(i < BUCKET_COUNT, "bucket index {i} out of range");
    if i < SUB_BUCKETS {
        return 1;
    }
    let exp = (i / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
    1 << (exp - SUB_BUCKET_BITS)
}

/// Inclusive upper bound (µs) of a bucket — the value quantiles report
/// for samples landing in it (Prometheus `le` semantics).
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    bucket_lower(i) + bucket_width(i) - 1
}

/// A single mergeable log-linear histogram over microsecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one microsecond value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration given in seconds (rounded to whole µs).
    pub fn record_secs(&mut self, secs: f64) {
        let clamped = secs.max(0.0) * 1e6;
        // f64 above u64::MAX saturates via the cast's defined clamping.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.record(clamped.round() as u64);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values (µs).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-wise merge; exact because every histogram shares the one
    /// fixed schema.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding the `ceil(q·count)`-th smallest sample
    /// (capped by the recorded max, so a single-value histogram reports
    /// that value's bucket without overshooting past `max`).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound(i).min(self.max));
            }
        }
        unreachable!("count ({}) exceeds bucket total", self.count);
    }

    /// Sparse `(bucket index, count)` dump of the non-empty buckets —
    /// the wire representation (ascending index order).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                #[allow(clippy::cast_possible_truncation)]
                let i32b = i as u32;
                (i32b, c)
            })
            .collect()
    }

    /// Rebuild a histogram from wire parts. Indices outside the schema
    /// are rejected (schema mismatch), keeping merges exact.
    pub fn from_parts(
        buckets: &[(u32, u64)],
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Result<Self, String> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            let i = i as usize;
            if i >= BUCKET_COUNT {
                return Err(format!(
                    "histogram bucket index {i} outside schema (max {})",
                    BUCKET_COUNT - 1
                ));
            }
            h.counts[i] += c;
            h.count += c;
        }
        h.sum = sum;
        h.min = min.unwrap_or(u64::MAX);
        h.max = max.unwrap_or(0);
        if h.count > 0 && (min.is_none() || max.is_none()) {
            return Err("non-empty histogram missing min/max".into());
        }
        Ok(h)
    }
}

/// A histogram sharded across worker threads: `record` touches only
/// the caller's shard (uncontended mutex), `merged` folds all shards
/// into one consistent [`Histogram`].
pub struct Sharded {
    shards: Vec<Mutex<Histogram>>,
}

impl std::fmt::Debug for Sharded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Sharded {
    /// A sharded histogram with `shards` independent lanes (≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Histogram::new())).collect(),
        }
    }

    /// Record `v` µs on the caller's shard (wrapped modulo the lane
    /// count so any worker index is valid).
    pub fn record(&self, shard: usize, v: u64) {
        let lane = &self.shards[shard % self.shards.len()];
        lane.lock().expect("histogram shard poisoned").record(v);
    }

    /// Record a duration in seconds on the caller's shard.
    pub fn record_secs(&self, shard: usize, secs: f64) {
        let clamped = secs.max(0.0) * 1e6;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.record(shard, clamped.round() as u64);
    }

    /// Merge all shards into one histogram. Shards are locked one at a
    /// time, so the result can lag concurrent recorders but is always
    /// internally consistent (`Σ buckets == count`).
    #[must_use]
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for lane in &self.shards {
            out.merge(&lane.lock().expect("histogram shard poisoned"));
        }
        out
    }
}

/// The latency quantities the service tracks, one fixed histogram per
/// kind. The wire carries the `label()` string. Every `*_e2e` kind is
/// the request's queue wait plus its time inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Map request end to end.
    MapE2e,
    /// Admission-queue wait charged to a map request.
    MapQueueWait,
    /// Solver time inside a map request.
    MapSolve,
    /// Release request end to end.
    ReleaseE2e,
    /// Stats request end to end.
    StatsE2e,
    /// Remap request end to end.
    RemapE2e,
    /// Lease-journal lookup end to end.
    JournalE2e,
    /// Trace-ring dump end to end.
    TraceDumpE2e,
}

impl HistKind {
    /// All kinds, in stable wire/report order.
    pub const ALL: [HistKind; 8] = [
        HistKind::MapE2e,
        HistKind::MapQueueWait,
        HistKind::MapSolve,
        HistKind::ReleaseE2e,
        HistKind::StatsE2e,
        HistKind::RemapE2e,
        HistKind::JournalE2e,
        HistKind::TraceDumpE2e,
    ];

    /// Stable name used on the wire and in the Prometheus exposition.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HistKind::MapE2e => "map_e2e",
            HistKind::MapQueueWait => "map_queue_wait",
            HistKind::MapSolve => "map_solve",
            HistKind::ReleaseE2e => "release_e2e",
            HistKind::StatsE2e => "stats_e2e",
            HistKind::RemapE2e => "remap_e2e",
            HistKind::JournalE2e => "journal_e2e",
            HistKind::TraceDumpE2e => "trace_dump_e2e",
        }
    }

    /// Position in [`HistKind::ALL`], which lists the kinds in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// The service's full histogram set: one [`Sharded`] histogram per
/// [`HistKind`]. `off()` turns every `record` into a no-op so the
/// criterion overhead contract can measure the plain path.
pub struct HistSet {
    enabled: bool,
    hists: Vec<Sharded>,
}

impl std::fmt::Debug for HistSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSet")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl HistSet {
    /// An active set with `shards` lanes per histogram.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            enabled: true,
            hists: HistKind::ALL.iter().map(|_| Sharded::new(shards)).collect(),
        }
    }

    /// A disabled set: `record*` are no-ops, `merged` is always empty.
    #[must_use]
    pub fn off() -> Self {
        Self {
            enabled: false,
            hists: HistKind::ALL.iter().map(|_| Sharded::new(1)).collect(),
        }
    }

    /// Is recording active?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record `v` µs for `kind` on the worker's shard.
    pub fn record(&self, kind: HistKind, shard: usize, v: u64) {
        if self.enabled {
            self.hists[kind.index()].record(shard, v);
        }
    }

    /// Record a duration in seconds for `kind` on the worker's shard.
    pub fn record_secs(&self, kind: HistKind, shard: usize, secs: f64) {
        if self.enabled {
            self.hists[kind.index()].record_secs(shard, secs);
        }
    }

    /// Merged snapshot of one kind.
    #[must_use]
    pub fn merged(&self, kind: HistKind) -> Histogram {
        self.hists[kind.index()].merged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_contiguous_and_monotone() {
        // Every bucket's lower bound is the previous bucket's bound + 1.
        for i in 1..BUCKET_COUNT {
            assert_eq!(
                bucket_lower(i),
                bucket_bound(i - 1) + 1,
                "gap or overlap at bucket {i}"
            );
        }
        assert_eq!(bucket_lower(0), 0);
    }

    #[test]
    fn index_respects_bucket_bounds() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            u64::from(u32::MAX),
        ] {
            let i = bucket_index(v);
            assert!(
                bucket_lower(i) <= v && v <= bucket_bound(i),
                "value {v} bucket {i}"
            );
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1 << 40), BUCKET_COUNT - 1);
        // The largest in-schema value still lands in the last bucket.
        assert_eq!(bucket_index((1 << 40) - 1), BUCKET_COUNT - 1);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_value_quantiles_report_that_value() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = h.quantile(q).unwrap();
            let i = bucket_index(777);
            assert!(got >= bucket_lower(i) && got <= bucket_bound(i));
            assert!(got <= 777, "quantile overshot the recorded max");
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
        assert_eq!(h.sum(), 777);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 50, 50, 9000] {
            a.record(v);
        }
        for v in [2u64, 50, 100_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.min(), Some(1));
        assert_eq!(merged.max(), Some(100_000));
        let mut all = Histogram::new();
        for v in [1u64, 50, 50, 9000, 2, 50, 100_000] {
            all.record(v);
        }
        assert_eq!(all.nonzero_buckets(), merged.nonzero_buckets());
    }

    #[test]
    fn wire_round_trip_preserves_distribution() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 40, 500, 1 << 30] {
            h.record(v);
        }
        let back = Histogram::from_parts(&h.nonzero_buckets(), h.sum(), h.min(), h.max()).unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.nonzero_buckets(), h.nonzero_buckets());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn from_parts_rejects_out_of_schema_indices() {
        #[allow(clippy::cast_possible_truncation)]
        let bad = BUCKET_COUNT as u32;
        let err = Histogram::from_parts(&[(bad, 1)], 1, Some(1), Some(1)).unwrap_err();
        assert!(err.contains("outside schema"), "{err}");
    }

    #[test]
    fn sharded_record_merges_consistently() {
        let s = Sharded::new(4);
        for i in 0..100u64 {
            s.record(i as usize, i * 10);
        }
        let m = s.merged();
        assert_eq!(m.count(), 100);
        assert_eq!(m.min(), Some(0));
        assert_eq!(m.max(), Some(990));
    }

    #[test]
    fn histset_off_records_nothing() {
        let hs = HistSet::off();
        hs.record(HistKind::MapE2e, 0, 123);
        hs.record_secs(HistKind::MapSolve, 1, 0.5);
        assert_eq!(hs.merged(HistKind::MapE2e).count(), 0);
        assert_eq!(hs.merged(HistKind::MapSolve).count(), 0);
        assert!(!hs.enabled());
    }

    #[test]
    fn record_secs_rounds_to_micros() {
        let mut h = Histogram::new();
        h.record_secs(0.001_5); // 1500 µs
        assert_eq!(h.min(), Some(1500));
        h.record_secs(-4.0); // clamps to zero
        assert_eq!(h.min(), Some(0));
    }
}
