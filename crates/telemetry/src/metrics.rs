//! The metrics registry: named counters and log2-bucket histograms,
//! plus the [`Stopwatch`] that times what a histogram observes.
//!
//! A [`Metrics`] is owned by one engine and mutated through interior
//! mutability ([`std::cell::Cell`]), so hot paths can bump a counter or
//! observe a sample through a shared reference while the engine holds
//! `&mut self` on its own state — no locks, no borrow contortions. The
//! registry is `Clone` (a snapshot) and mergeable by name, which is how a
//! batch runner aggregates per-scenario registries into one report.
//!
//! Registration is name-idempotent and returns a dense handle
//! ([`CounterId`], [`TimerId`]); the hot-path operations are a single
//! bounds-checked index plus a `Cell` read-modify-write.
//! Rendering is left to the caller: [`Metrics::counters_sorted`] /
//! [`Metrics::timers_sorted`] expose deterministic (name-sorted) views.

use std::cell::Cell;
use std::time::Instant;

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle of a registered timer (log2-bucket histogram of microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u32);

/// Number of log2 buckets: bucket `b` holds values `v` with
/// `bit_length(v) == b` (bucket 0 holds only `v == 0`), so `u64::MAX`
/// lands in bucket 64.
pub const BUCKETS: usize = 65;

/// One histogram: count / sum / min / max plus log2 buckets.
#[derive(Debug, Clone)]
struct Hist {
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
    buckets: [Cell<u64>; BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
            buckets: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl Hist {
    fn observe(&self, v: u64) {
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().saturating_add(v));
        self.min.set(self.min.get().min(v));
        self.max.set(self.max.get().max(v));
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b].set(self.buckets[b].get() + 1);
    }

    fn absorb(&self, other: &Hist) {
        if other.count.get() == 0 {
            return;
        }
        self.count.set(self.count.get() + other.count.get());
        self.sum.set(self.sum.get().saturating_add(other.sum.get()));
        self.min.set(self.min.get().min(other.min.get()));
        self.max.set(self.max.get().max(other.max.get()));
        for b in 0..BUCKETS {
            self.buckets[b].set(self.buckets[b].get() + other.buckets[b].get());
        }
    }

    fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count.get(),
            sum: self.sum.get(),
            min: if self.count.get() == 0 {
                0
            } else {
                self.min.get()
            },
            max: self.max.get(),
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
        }
    }

    /// Estimates the `q`-th percentile (`q` in 1..=100) from the log2
    /// buckets: the bucket holding the target rank is located exactly,
    /// then the estimate interpolates linearly across the bucket's value
    /// range and is clamped to the observed `[min, max]`. The clamp makes
    /// single-sample and single-value histograms exact, and the whole
    /// computation is integer-only, so merged shards estimate identically
    /// regardless of merge order (bucket counts and extrema are
    /// commutative under [`Hist::absorb`]).
    fn percentile(&self, q: u64) -> u64 {
        let count = self.count.get();
        if count == 0 {
            return 0;
        }
        // ceil(count * q / 100), >= 1 — the 1-based target rank.
        let rank = (count as u128 * q as u128).div_ceil(100);
        let rank = rank.max(1);
        let mut below: u128 = 0;
        for b in 0..BUCKETS {
            let n = self.buckets[b].get() as u128;
            if n == 0 {
                continue;
            }
            if below + n >= rank {
                let pos = rank - below; // 1..=n within this bucket
                let lo: u64 = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let hi: u64 = match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
                let est = lo as u128 + ((hi - lo) as u128 * pos) / n;
                let est = est.min(u64::MAX as u128) as u64;
                return est.clamp(self.min.get(), self.max.get());
            }
            below += n;
        }
        self.max.get()
    }
}

/// A rendered histogram snapshot (the buckets stay internal; `min`/`max`
/// and the percentile estimates are what the reports consume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Estimated median (0 when empty; exact when all samples share one
    /// value, otherwise interpolated within the target log2 bucket).
    pub p50: u64,
    /// Estimated 90th percentile (same estimation contract as `p50`).
    pub p90: u64,
    /// Estimated 99th percentile (same estimation contract as `p50`).
    pub p99: u64,
}

/// The per-engine metrics registry. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Vec<(&'static str, Cell<u64>)>,
    timers: Vec<(&'static str, Hist)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }

    /// Registers (or finds) the counter `name` and returns its handle.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name, Cell::new(0)));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        let c = &self.counters[id.0 as usize].1;
        c.set(c.get() + n);
    }

    /// Reads a counter by handle.
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1.get()
    }

    /// Registers `name` if needed and adds `n` — the cold-path
    /// convenience for call sites without a cached handle.
    pub fn add_named(&mut self, name: &'static str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Reads a counter by name (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.get())
            .unwrap_or(0)
    }

    /// Registers (or finds) the timer `name` and returns its handle.
    pub fn timer(&mut self, name: &'static str) -> TimerId {
        if let Some(i) = self.timers.iter().position(|(n, _)| *n == name) {
            return TimerId(i as u32);
        }
        self.timers.push((name, Hist::default()));
        TimerId((self.timers.len() - 1) as u32)
    }

    /// Records one observation (e.g. elapsed microseconds) into a timer.
    #[inline]
    pub fn observe(&self, id: TimerId, v: u64) {
        self.timers[id.0 as usize].1.observe(v);
    }

    /// Reads a timer's summary by name (zeros when absent).
    pub fn timer_summary(&self, name: &str) -> HistSummary {
        self.timers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.summary())
            .unwrap_or_default()
    }

    /// All counters, sorted by name — the deterministic render order.
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> =
            self.counters.iter().map(|(n, c)| (*n, c.get())).collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// All timers, sorted by name.
    pub fn timers_sorted(&self) -> Vec<(&'static str, HistSummary)> {
        let mut out: Vec<(&'static str, HistSummary)> =
            self.timers.iter().map(|(n, h)| (*n, h.summary())).collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    /// Folds `other` into `self`, matching by name: counters add,
    /// histograms absorb bucket-wise. This is how the batch runner
    /// aggregates per-scenario registries.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, c) in &other.counters {
            let id = self.counter(name);
            self.add(id, c.get());
        }
        for (name, h) in &other.timers {
            let id = self.timer(name);
            self.timers[id.0 as usize].1.absorb(h);
        }
    }
}

/// A wall-clock stopwatch for a timed region; the engine mutates itself
/// inside its phases, so it times them with this and records the
/// elapsed microseconds with [`Metrics::observe`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall microseconds since [`Stopwatch::start`].
    #[inline]
    pub fn micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_idempotently_and_accumulate() {
        let mut m = Metrics::new();
        let a = m.counter("relabel_region");
        let b = m.counter("relabel_region");
        assert_eq!(a, b);
        m.inc(a);
        m.add(b, 4);
        assert_eq!(m.get(a), 5);
        assert_eq!(m.counter_value("relabel_region"), 5);
        assert_eq!(m.counter_value("missing"), 0);
        m.add_named("late", 2);
        m.add_named("late", 3);
        assert_eq!(m.counter_value("late"), 5);
    }

    #[test]
    fn timers_bucket_by_log2_and_track_extrema() {
        let mut m = Metrics::new();
        let t = m.timer("phase");
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            m.observe(t, v);
        }
        let s = m.timer_summary("phase");
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, u64::MAX); // saturated
        assert_eq!(m.timer_summary("missing"), HistSummary::default());
    }

    /// Satellite: percentile estimation at the log2-bucket boundaries —
    /// empty histograms, single samples, and exact powers of two (the
    /// lowest value of their bucket) must all come out exact.
    #[test]
    fn percentiles_are_exact_at_bucket_boundaries() {
        // Empty histogram: all percentiles are 0.
        let mut m = Metrics::new();
        let t = m.timer("t");
        let s = m.timer_summary("t");
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));

        // Single sample: min == max pins every percentile exactly, even
        // though the sample sits at the very bottom of its bucket.
        m.observe(t, 1024);
        let s = m.timer_summary("t");
        assert_eq!((s.p50, s.p90, s.p99), (1024, 1024, 1024));

        // Exact powers of two, one per bucket: every percentile estimate
        // stays inside the observed range and is monotone in q.
        let mut m = Metrics::new();
        let t = m.timer("t");
        for k in 0..16u32 {
            m.observe(t, 1u64 << k);
        }
        let s = m.timer_summary("t");
        assert!(s.p50 >= s.min && s.p99 <= s.max);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        // p99 of 16 samples is the largest one: rank ceil(16*99/100)=16.
        assert_eq!(s.p99, 1 << 15);

        // All-zero samples exercise bucket 0's degenerate [0, 0] range.
        let mut m = Metrics::new();
        let t = m.timer("t");
        for _ in 0..5 {
            m.observe(t, 0);
        }
        let s = m.timer_summary("t");
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));

        // u64::MAX lands in the top bucket without overflowing the
        // interpolation arithmetic.
        let mut m = Metrics::new();
        let t = m.timer("t");
        m.observe(t, u64::MAX);
        m.observe(t, u64::MAX - 1);
        let s = m.timer_summary("t");
        assert!(s.p99 >= u64::MAX - 1);
    }

    /// Satellite: merging shards in any order yields identical
    /// percentile estimates — bucket counts and extrema are commutative.
    #[test]
    fn merge_then_percentile_is_order_independent() {
        let shard = |values: &[u64]| {
            let mut m = Metrics::new();
            let t = m.timer("phase");
            for &v in values {
                m.observe(t, v);
            }
            m
        };
        let a = shard(&[1, 2, 3, 700, 900]);
        let b = shard(&[4096, 4097, 65_000]);
        let c = shard(&[0, 0, 12]);

        let mut ab_c = Metrics::new();
        ab_c.merge(&a);
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_b_a = Metrics::new();
        c_b_a.merge(&c);
        c_b_a.merge(&b);
        c_b_a.merge(&a);
        assert_eq!(
            ab_c.timer_summary("phase"),
            c_b_a.timer_summary("phase"),
            "percentiles must not depend on shard merge order"
        );
    }

    #[test]
    fn merge_matches_by_name() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add_named("x", 1);
        b.add_named("x", 2);
        b.add_named("y", 7);
        let tb = b.timer("t");
        b.observe(tb, 10);
        a.merge(&b);
        assert_eq!(a.counter_value("x"), 3);
        assert_eq!(a.counter_value("y"), 7);
        assert_eq!(a.timer_summary("t").sum, 10);
        // Render order is name-sorted, deterministic.
        let names: Vec<&str> = a.counters_sorted().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut m = Metrics::new();
        let c = m.counter("c");
        m.inc(c);
        let snap = m.clone();
        m.inc(c);
        assert_eq!(snap.counter_value("c"), 1);
        assert_eq!(m.counter_value("c"), 2);
    }
}
