//! Lightweight operational metrics: atomic counters and gauges,
//! fixed-bucket latency histograms, and a Prometheus-style text
//! exposition.
//!
//! The serving tier (`batchhl-server`) and the oracle's own commit path
//! both record into these, so query/commit latency is observable with
//! or without a network front end. Everything is lock-free on the hot
//! path: a [`Counter`] is one relaxed atomic add, a [`Histogram`]
//! observation is two adds plus one bucket increment (bucket chosen by
//! a branchless scan over 17 fixed upper bounds).
//!
//! Metrics live in a [`Registry`]. The process-wide default registry
//! ([`global`]) is what the oracle facade records into; a server
//! typically creates its own registry per listening node so two nodes
//! in one process (e.g. a primary and a replica in a test) do not mix
//! their request counters, and renders both on `GET /metrics`.
//!
//! ```
//! use batchhl_common::metrics::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total");
//! hits.inc();
//! let lat = registry.histogram("query_latency_us");
//! lat.observe(Duration::from_micros(42));
//! let text = registry.render();
//! assert!(text.contains("cache_hits_total 1"));
//! assert!(text.contains("query_latency_us_count 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Histogram bucket upper bounds in microseconds (the last bucket is
/// `+Inf`). Chosen to resolve both sub-microsecond label lookups and
/// multi-second batch commits.
pub const BUCKET_BOUNDS_US: [u64; 16] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000,
];

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that is set rather than accumulated (sizes, last-seen
/// counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency/size histogram (cumulative-bucket exposition,
/// microsecond domain).
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; index `BUCKET_BOUNDS_US.len()`
    /// is the overflow (`+Inf`) bucket.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one duration.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation, given directly in microseconds (also
    /// used for unit-less sizes such as batch occupancy).
    #[inline]
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean observation in µs (0.0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us() as f64 / n as f64
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket counts:
    /// the upper bound of the bucket the quantile falls in (`+Inf`
    /// reports the largest finite bound). Coarse by construction —
    /// intended for dashboards and tests, not statistics.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }

    /// Non-cumulative bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> [u64; BUCKET_BOUNDS_US.len() + 1] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics with text exposition.
///
/// Lookup takes a mutex; hold the returned `Arc` instead of re-looking
/// up on hot paths.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as another kind of metric.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as another kind of metric.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is registered as a {}", other.kind()),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as another kind of metric.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is registered as a {}", other.kind()),
        }
    }

    /// Render every metric in the Prometheus text exposition format
    /// (counters as `counter`, histograms as cumulative-bucket
    /// `histogram` families with `_bucket`/`_sum`/`_count` series; the
    /// microsecond domain is part of each histogram's name by
    /// convention, e.g. `*_latency_us`).
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, &count) in counts.iter().enumerate() {
                        cumulative += count;
                        match BUCKET_BOUNDS_US.get(i) {
                            Some(bound) => out.push_str(&format!(
                                "{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
                            )),
                            None => out
                                .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n")),
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n", h.sum_us()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// The process-wide default registry: what the oracle facade records
/// commit/query latency into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        let c = r.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same counter.
        assert_eq!(r.counter("requests_total").get(), 5);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let r = Registry::new();
        let g = r.gauge("resident_bytes");
        g.set(7);
        g.set(3);
        assert_eq!(r.gauge("resident_bytes").get(), 3);
        assert!(r
            .render()
            .contains("# TYPE resident_bytes gauge\nresident_bytes 3\n"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for us in [1, 3, 9, 40, 900, 2_000_000] {
            h.observe_us(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 1 + 3 + 9 + 40 + 900 + 2_000_000);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "1µs lands in le=1");
        assert_eq!(counts.last().copied().unwrap(), 1, "2s overflows to +Inf");
        assert_eq!(h.quantile_us(0.5), 10, "median bucket bound");
        assert!(h.quantile_us(1.0) >= 1_000_000);
        assert_eq!(Histogram::new().quantile_us(0.5), 0, "empty histogram");
    }

    #[test]
    fn bucket_boundary_is_inclusive() {
        let h = Histogram::new();
        h.observe_us(25);
        assert_eq!(h.bucket_counts()[4], 1, "25 lands in le=25, not le=50");
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter("a_total").add(7);
        r.histogram("lat_us").observe(Duration::from_micros(3));
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter\na_total 7\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"5\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_us_sum 3"));
        assert!(text.contains("lat_us_count 1"));
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let r = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    let c = r.counter("hits_total");
                    let h = r.histogram("obs_us");
                    for i in 0..1000 {
                        c.inc();
                        h.observe_us(i % 64);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits_total").get(), 4000);
        assert_eq!(r.histogram("obs_us").count(), 4000);
    }
}
