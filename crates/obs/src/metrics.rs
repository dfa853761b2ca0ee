//! The metrics registry: named counters, gauges, and histograms behind
//! one queryable, deterministically-renderable surface.
//!
//! Names are dotted paths owned by the recording layer
//! (`core.engine.total_cycles`, `mem.tier.onchip.evictions`,
//! `serve.queue_wait_us.interactive`, ...). The registry stores them in a
//! `BTreeMap`, so every dump — `--metrics` output, the daemon drain
//! report — renders in one stable order regardless of recording order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Nearest-rank percentile of `values` (`q` in [0, 1], clamped; 0.0 on an
/// empty set).
///
/// The rank is `⌈q·n⌉`, computed tolerantly: a `q·n` within 1e-9 of an
/// integer rounds to it instead of ceiling up. Over the 25 values 1..=25
/// at q = 0.28, `q·n` is 7.000000000000001 in f64, so the naive ceil
/// would report 8 instead of 7.
pub fn percentile_nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let nearest = pos.round();
    let rank =
        if (pos - nearest).abs() < 1e-9 { nearest as usize } else { pos.ceil() as usize };
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A histogram of observed samples. Samples are kept (runs observe at
/// most a few thousand values), so percentiles are exact nearest-rank
/// ([`percentile_nearest_rank`], which the serving reports use too).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0f64, f64::max)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Nearest-rank percentile of the observed samples, `q` in `[0, 1]`
    /// (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_nearest_rank(&self.samples, q)
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated integer.
    Counter(u64),
    /// A last-write-wins value.
    Gauge(f64),
    /// A distribution of samples.
    Histogram(Histogram),
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

/// The registry: a name → metric map with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to the counter `name`, registering it at 0 first if new.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind — a
    /// name collision is a programming error, not a runtime condition.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.entries.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the gauge `name` to `v` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics on a kind collision, like [`counter_add`](Self::counter_add).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.entries.entry(name.to_string()).or_insert(Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Observes `v` into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics on a kind collision, like [`counter_add`](Self::counter_add).
    pub fn observe(&mut self, name: &str, v: f64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.observe(v),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// The histogram `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.entries.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as indented text, one metric per line in name
    /// order. This is the `--metrics` dump and is byte-stable for equal
    /// registries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.entries {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("  {name:<44} counter   {c}\n"));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("  {name:<44} gauge     {g:.4}\n"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "  {name:<44} histogram n={} mean={:.2} p50={:.2} p95={:.2} max={:.2}\n",
                        h.count(),
                        h.mean(),
                        h.percentile(0.50),
                        h.percentile(0.95),
                        h.max(),
                    ));
                }
            }
        }
        out
    }
}

/// The handle threaded through the stack: `Metrics::off()` (the default)
/// records nothing at zero cost; a recording handle is a cheap clonable
/// reference to one shared registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Arc<Mutex<MetricsRegistry>>>);

impl Metrics {
    /// The disabled handle.
    pub fn off() -> Self {
        Metrics(None)
    }

    /// A live handle over a fresh registry.
    pub fn recording() -> Self {
        Metrics(Some(Arc::new(Mutex::new(MetricsRegistry::new()))))
    }

    /// Whether recordings are being kept.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Counter accumulation (no-op when off).
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(reg) = &self.0 {
            reg.lock().expect("metrics registry poisoned").counter_add(name, v);
        }
    }

    /// Gauge write (no-op when off).
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(reg) = &self.0 {
            reg.lock().expect("metrics registry poisoned").gauge_set(name, v);
        }
    }

    /// Histogram observation (no-op when off).
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(reg) = &self.0 {
            reg.lock().expect("metrics registry poisoned").observe(name, v);
        }
    }

    /// A point-in-time copy of the registry (empty when off).
    pub fn snapshot(&self) -> MetricsRegistry {
        match &self.0 {
            Some(reg) => reg.lock().expect("metrics registry poisoned").clone(),
            None => MetricsRegistry::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("a.hits", 3);
        reg.counter_add("a.hits", 4);
        reg.gauge_set("a.rate", 0.5);
        reg.gauge_set("a.rate", 0.75);
        assert_eq!(reg.get("a.hits"), Some(&Metric::Counter(7)));
        assert_eq!(reg.get("a.rate"), Some(&Metric::Gauge(0.75)));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(0.50), 3.0);
        assert_eq!(h.percentile(0.95), 5.0);
        assert_eq!(h.percentile(0.0), 1.0, "q=0 clamps to the smallest sample");
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(Histogram::default().percentile(0.99), 0.0, "empty histogram reads 0");
        // 0.28 × 25 is 7.000000000000001 in f64: the tolerant rank is 7.
        let mut h = Histogram::default();
        for v in (1..=25).rev() {
            h.observe(v as f64);
        }
        assert_eq!(h.percentile(0.28), 7.0);
        assert_eq!(percentile_nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn render_is_name_ordered_and_stable() {
        let mut reg = MetricsRegistry::new();
        reg.observe("z.latency", 2.0);
        reg.counter_add("a.hits", 1);
        reg.gauge_set("m.ratio", 0.25);
        let text = reg.render();
        let a = text.find("a.hits").unwrap();
        let m = text.find("m.ratio").unwrap();
        let z = text.find("z.latency").unwrap();
        assert!(a < m && m < z, "name order regardless of recording order:\n{text}");
        assert_eq!(text, reg.render(), "byte-stable");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_collisions_panic_loudly() {
        let mut reg = MetricsRegistry::new();
        reg.observe("x", 1.0);
        reg.counter_add("x", 1);
    }

    #[test]
    fn the_off_handle_is_a_no_op() {
        let m = Metrics::off();
        m.counter_add("a", 1);
        m.observe("b", 2.0);
        m.gauge_set("c", 3.0);
        assert!(m.snapshot().is_empty());
        let live = Metrics::recording();
        let clone = live.clone();
        clone.counter_add("a", 1);
        assert_eq!(live.snapshot().get("a"), Some(&Metric::Counter(1)));
    }
}
