//! A dependency-free metrics registry with a Prometheus text-format encoder.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every stored value is an integer (`u64` counters and
//!    histogram cells, `i64` gauges). Histograms use fixed log2 buckets, so the
//!    rendered `_bucket`/`_sum`/`_count` lines contain no floats and no
//!    environment-dependent formatting. Families whose *values* are inherently
//!    wall-clock (latencies, busy time) are marked so at registration and can
//!    be excluded from a deterministic render
//!    ([`Registry::render_deterministic`]).
//! 2. **Cheap hot-path writes.** [`Counter`] spreads increments over a small
//!    array of per-shard cells (picked by caller-supplied shard, falling back
//!    to a thread-id hash) and only sums them at scrape time.
//! 3. **No dependencies.** The container builds offline; everything here is
//!    `std`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of striped cells per counter: enough to keep a handful of worker
/// threads off each other's cache lines without bloating scrape-time sums.
const COUNTER_CELLS: usize = 8;

/// Histogram bucket upper bounds are `2^0 ..= 2^HIST_MAX_POW`, plus `+Inf`.
/// `2^26` microseconds is ~67 s — beyond any slice we run; larger observations
/// land in `+Inf` but still contribute exactly to `_sum` and `_count`.
const HIST_MAX_POW: usize = 26;

/// Bucket count including the `+Inf` bucket.
const HIST_BUCKETS: usize = HIST_MAX_POW + 2;

/// A monotone counter with striped cells, aggregated at scrape time.
#[derive(Debug)]
pub struct Counter {
    cells: [AtomicU64; COUNTER_CELLS],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cells: Default::default(),
        }
    }

    /// Adds `v`, picking a stripe from the calling thread's id.
    #[inline]
    pub fn add(&self, v: u64) {
        let cell = thread_stripe() % COUNTER_CELLS;
        self.cells[cell].fetch_add(v, Ordering::Relaxed);
    }

    /// Adds `v` to an explicit stripe (shard-pinned writers avoid even the
    /// thread-id hash).
    #[inline]
    pub fn add_to_cell(&self, cell: usize, v: u64) {
        self.cells[cell % COUNTER_CELLS].fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The aggregated value (sum over all stripes).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// A cheap stable stripe index for the calling thread.
fn thread_stripe() -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    hasher.finish() as usize
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `v`.
    #[inline]
    pub fn add(&self, v: i64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed log2-bucket integer histogram: bucket `i` counts observations
/// `v <= 2^i`, with one terminal `+Inf` bucket. The integer `_sum` makes the
/// whole rendered family deterministic whenever the observed values are.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index observing `v`.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            let pow = 64 - (v - 1).leading_zeros() as usize;
            pow.min(HIST_BUCKETS - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Renders the cumulative `_bucket`/`_sum`/`_count` lines for one child.
    /// `labels` is either empty or a `key="value"` prefix without braces.
    fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if i == HIST_BUCKETS - 1 {
                out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
                ));
            } else {
                let le = 1u64 << i;
                out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
                ));
            }
        }
        let brace = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        out.push_str(&format!("{name}_sum{brace} {}\n", self.sum()));
        out.push_str(&format!("{name}_count{brace} {cumulative}\n"));
    }
}

/// A family of [`Counter`] children keyed by one label value.
#[derive(Debug)]
pub struct CounterVec {
    children: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl CounterVec {
    /// The child for label value `v`, created on first use.
    #[must_use]
    pub fn with(&self, v: &str) -> Arc<Counter> {
        let mut children = lock_unpoisoned(&self.children);
        Arc::clone(
            children
                .entry(v.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Every child's label value and count, in label order.
    #[must_use]
    pub fn values(&self) -> Vec<(String, u64)> {
        let children = lock_unpoisoned(&self.children);
        children
            .iter()
            .map(|(label, counter)| (label.clone(), counter.value()))
            .collect()
    }
}

/// A family of [`Gauge`] children keyed by one label value.
#[derive(Debug)]
pub struct GaugeVec {
    children: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl GaugeVec {
    /// The child for label value `v`, created on first use.
    #[must_use]
    pub fn with(&self, v: &str) -> Arc<Gauge> {
        let mut children = lock_unpoisoned(&self.children);
        Arc::clone(children.entry(v.to_string()).or_default())
    }
}

/// A family of [`Histogram`] children keyed by one label value.
#[derive(Debug)]
pub struct HistogramVec {
    children: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl HistogramVec {
    /// The child for label value `v`, created on first use.
    #[must_use]
    pub fn with(&self, v: &str) -> Arc<Histogram> {
        let mut children = lock_unpoisoned(&self.children);
        Arc::clone(
            children
                .entry(v.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }
}

/// Metrics hold no invariants a panicking writer could break (atomics only), so
/// a poisoned child map is safe to keep using.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug)]
enum FamilyData {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>, String),
    GaugeVec(Arc<GaugeVec>, String),
    HistogramVec(Arc<HistogramVec>, String),
}

impl FamilyData {
    fn type_name(&self) -> &'static str {
        match self {
            FamilyData::Counter(_) | FamilyData::CounterVec(..) => "counter",
            FamilyData::Gauge(_) | FamilyData::GaugeVec(..) => "gauge",
            FamilyData::Histogram(_) | FamilyData::HistogramVec(..) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    wall_clock: bool,
    data: FamilyData,
}

/// A registry of metric families, rendered in registration order.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, data: FamilyData) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut families = lock_unpoisoned(&self.families);
        debug_assert!(
            families.iter().all(|f| f.name != name),
            "duplicate metric family {name:?}"
        );
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            wall_clock: false,
            data,
        });
    }

    /// Registers a deterministic counter.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.register(name, help, FamilyData::Counter(Arc::clone(&counter)));
        counter
    }

    /// Registers a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::default());
        self.register(name, help, FamilyData::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Registers a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.register(name, help, FamilyData::Histogram(Arc::clone(&histogram)));
        histogram
    }

    /// Registers a counter family keyed by one label.
    #[must_use]
    pub fn counter_vec(&self, name: &str, help: &str, label: &str) -> Arc<CounterVec> {
        let vec = Arc::new(CounterVec {
            children: Mutex::new(BTreeMap::new()),
        });
        self.register(
            name,
            help,
            FamilyData::CounterVec(Arc::clone(&vec), label.to_string()),
        );
        vec
    }

    /// Registers a gauge family keyed by one label.
    #[must_use]
    pub fn gauge_vec(&self, name: &str, help: &str, label: &str) -> Arc<GaugeVec> {
        let vec = Arc::new(GaugeVec {
            children: Mutex::new(BTreeMap::new()),
        });
        self.register(
            name,
            help,
            FamilyData::GaugeVec(Arc::clone(&vec), label.to_string()),
        );
        vec
    }

    /// Registers a histogram family keyed by one label.
    #[must_use]
    pub fn histogram_vec(&self, name: &str, help: &str, label: &str) -> Arc<HistogramVec> {
        let vec = Arc::new(HistogramVec {
            children: Mutex::new(BTreeMap::new()),
        });
        self.register(
            name,
            help,
            FamilyData::HistogramVec(Arc::clone(&vec), label.to_string()),
        );
        vec
    }

    /// Marks a family as wall-clock: its values are measurements (latencies,
    /// busy time), excluded by [`Registry::render_deterministic`].
    pub fn mark_wall_clock(&self, name: &str) {
        let mut families = lock_unpoisoned(&self.families);
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            family.wall_clock = true;
        } else {
            debug_assert!(false, "mark_wall_clock on unknown family {name:?}");
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.render(true)
    }

    /// Renders only the families **not** marked wall-clock — the text two
    /// identical seeded runs must reproduce byte-for-byte.
    #[must_use]
    pub fn render_deterministic(&self) -> String {
        self.render(false)
    }

    fn render(&self, include_wall_clock: bool) -> String {
        let families = lock_unpoisoned(&self.families);
        let mut out = String::new();
        for family in families.iter() {
            if family.wall_clock && !include_wall_clock {
                continue;
            }
            let name = &family.name;
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.data.type_name()));
            match &family.data {
                FamilyData::Counter(c) => out.push_str(&format!("{name} {}\n", c.value())),
                FamilyData::Gauge(g) => out.push_str(&format!("{name} {}\n", g.value())),
                FamilyData::Histogram(h) => h.render_into(&mut out, name, ""),
                FamilyData::CounterVec(vec, label) => {
                    for (value, child) in lock_unpoisoned(&vec.children).iter() {
                        out.push_str(&format!(
                            "{name}{{{label}=\"{}\"}} {}\n",
                            escape_label(value),
                            child.value()
                        ));
                    }
                }
                FamilyData::GaugeVec(vec, label) => {
                    for (value, child) in lock_unpoisoned(&vec.children).iter() {
                        out.push_str(&format!(
                            "{name}{{{label}=\"{}\"}} {}\n",
                            escape_label(value),
                            child.value()
                        ));
                    }
                }
                FamilyData::HistogramVec(vec, label) => {
                    for (value, child) in lock_unpoisoned(&vec.children).iter() {
                        let labels = format!("{label}=\"{}\"", escape_label(value));
                        child.render_into(&mut out, name, &labels);
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Structurally validates a Prometheus text scrape: every sample belongs to a
/// `# TYPE`-declared family, every value is an integer, and every histogram
/// child carries a terminal `+Inf` bucket whose cumulative count matches its
/// `_count` sample. Returns the first problem found.
///
/// # Errors
/// A human-readable description of the first ill-formed line or family.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, labels-without-le) -> (last +Inf cumulative, _count value)
    let mut inf_buckets: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if name.is_empty() {
                        return Err(format!("line {lineno}: HELP without a family name"));
                    }
                }
                "TYPE" => {
                    let ty = parts.next().unwrap_or("");
                    if !matches!(ty, "counter" | "gauge" | "histogram") {
                        return Err(format!("line {lineno}: unknown TYPE {ty:?}"));
                    }
                    types.insert(name.to_string(), ty.to_string());
                }
                _ => {
                    return Err(format!(
                        "line {lineno}: unknown comment keyword {keyword:?}"
                    ))
                }
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {lineno}: no value separator"));
        };
        if value.parse::<i64>().is_err() {
            return Err(format!("line {lineno}: non-integer value {value:?}"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let Some(labels) = rest.strip_suffix('}') else {
                    return Err(format!("line {lineno}: unterminated label set"));
                };
                (name, labels)
            }
            None => (series, ""),
        };
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                types
                    .get(base)
                    .filter(|ty| ty.as_str() == "histogram")
                    .map(|_| base)
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!("line {lineno}: sample {name:?} has no TYPE"));
        }
        if name.ends_with("_bucket") && types.get(family).map(String::as_str) == Some("histogram") {
            let child: String = labels
                .split(',')
                .filter(|part| !part.starts_with("le="))
                .collect::<Vec<_>>()
                .join(",");
            if labels.split(',').any(|part| part == "le=\"+Inf\"") {
                inf_buckets.insert(
                    (family.to_string(), child),
                    value.parse::<u64>().unwrap_or(0),
                );
            }
        }
        if let Some(base) = name.strip_suffix("_count") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                counts.insert(
                    (base.to_string(), labels.to_string()),
                    value.parse::<u64>().unwrap_or(0),
                );
            }
        }
    }
    for (key, count) in &counts {
        match inf_buckets.get(key) {
            None => {
                return Err(format!(
                    "histogram {}{{{}}} has no +Inf bucket",
                    key.0, key.1
                ))
            }
            Some(inf) if inf != count => {
                return Err(format!(
                    "histogram {}{{{}}}: +Inf bucket {} != count {}",
                    key.0, key.1, inf, count
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_across_stripes() {
        let reg = Registry::new();
        let c = reg.counter("test_total", "a counter");
        c.add_to_cell(0, 5);
        c.add_to_cell(3, 7);
        c.inc();
        assert_eq!(c.value(), 13);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn render_is_valid_and_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter("jobs_total", "jobs").add_to_cell(0, 3);
            reg.gauge("depth", "queue depth").set(-2);
            let lat = reg.histogram_vec("latency_us", "slice latency", "tenant");
            lat.with("a").observe(3);
            lat.with("a").observe(700);
            lat.with("b").observe(0);
            let hits = reg.counter_vec("http_requests_total", "by code", "code");
            hits.with("200").add(4);
            reg
        };
        let a = build().render_prometheus();
        let b = build().render_prometheus();
        assert_eq!(a, b, "identical registries must render identical bytes");
        validate_prometheus_text(&a).expect("well-formed scrape");
        assert!(a.contains("# TYPE latency_us histogram"), "{a}");
        assert!(
            a.contains("latency_us_bucket{tenant=\"a\",le=\"+Inf\"} 2"),
            "{a}"
        );
        assert!(a.contains("latency_us_sum{tenant=\"a\"} 703"), "{a}");
        assert!(a.contains("http_requests_total{code=\"200\"} 4"), "{a}");
        assert!(a.contains("depth -2"), "{a}");
    }

    #[test]
    fn wall_clock_families_are_excluded_from_deterministic_render() {
        let reg = Registry::new();
        let _ = reg.counter("det_total", "deterministic");
        let _ = reg.histogram("latency_us", "wall clock");
        reg.mark_wall_clock("latency_us");
        let full = reg.render_prometheus();
        let det = reg.render_deterministic();
        assert!(full.contains("latency_us"));
        assert!(!det.contains("latency_us"), "{det}");
        assert!(det.contains("det_total"), "{det}");
    }

    #[test]
    fn validator_rejects_ill_formed_text() {
        assert!(validate_prometheus_text("orphan 1\n").is_err());
        assert!(validate_prometheus_text("# TYPE x widget\n").is_err());
        assert!(
            validate_prometheus_text("# TYPE x gauge\nx 1.5\n").is_err(),
            "floats are ill-formed here by design"
        );
        let missing_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus_text(missing_inf).is_err());
        let ok = "# HELP h help\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        validate_prometheus_text(ok).expect("valid");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let v = reg.counter_vec("t_total", "t", "tenant");
        v.with("a\"b\\c\nd").inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("t_total{tenant=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }
}
