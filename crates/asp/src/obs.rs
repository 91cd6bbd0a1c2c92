//! Observability primitives: a ring-buffered structured event log and
//! lock-free fixed-bucket latency histograms.
//!
//! Both facilities are designed for the runtime's hot path:
//!
//! * [`LatencyHistogram`] records one observation with two relaxed atomic
//!   adds into a fixed power-of-two bucket array — no locks, no
//!   allocation, and instances can be read while workers keep writing.
//!   The harness samples one in every
//!   [`ExecutorConfig::proc_latency_every`](crate::runtime::ExecutorConfig::proc_latency_every)
//!   tuples, so the amortized cost per tuple is a fraction of a
//!   nanosecond.
//! * [`EventLog`] is a control-plane facility (task lifecycle, progress
//!   reports, teardown anomalies): bounded memory via a ring, one short
//!   mutex hold per emission, never on the per-tuple path. There is no
//!   network, no I/O, and no external dependency — the ring is exported
//!   as part of [`RunReport`](crate::runtime::RunReport) and rendered by
//!   [`RunReport::to_json`](crate::runtime::RunReport::to_json).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

/// Severity of a structured log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Level {
    /// Fine-grained diagnostics (flush decisions, chain wiring).
    Debug,
    /// Normal lifecycle milestones (task start/finish, progress reports).
    Info,
    /// Unexpected but tolerated conditions (late data, clamped config).
    Warn,
    /// Conditions that abort or corrupt a run.
    Error,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        };
        f.write_str(s)
    }
}

/// One structured event in the ring.
#[derive(Debug, Clone, Serialize)]
pub struct LogEvent {
    /// Monotone sequence number across the whole log (gaps reveal events
    /// displaced from the ring).
    pub seq: u64,
    /// Milliseconds since the log's epoch (run start).
    pub elapsed_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting task or subsystem (e.g. `"executor"`, `"progress"`).
    pub task: String,
    /// Human-readable description.
    pub message: String,
}

/// A bounded, ring-buffered structured event log.
///
/// When the ring is full the oldest event is displaced (and counted in
/// [`EventLog::displaced`]); emission therefore never blocks on a reader
/// and memory stays bounded regardless of run length. A capacity of 0
/// disables the log entirely (every emission counts as displaced).
pub struct EventLog {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    displaced: AtomicU64,
    ring: Mutex<VecDeque<LogEvent>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.capacity)
            .field("emitted", &self.seq.load(Ordering::Relaxed))
            .field("displaced", &self.displaced.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events (0 disables retention).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            epoch: Instant::now(),
            capacity,
            seq: AtomicU64::new(0),
            displaced: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Append an event, displacing the oldest one if the ring is full.
    pub fn emit(&self, level: Level, task: &str, message: impl Into<String>) {
        if self.capacity == 0 {
            self.seq.fetch_add(1, Ordering::Relaxed);
            self.displaced.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let task = task.to_string();
        let message = message.into();
        let mut ring = self.ring.lock();
        // Drawn under the ring lock, so retained events are appended in
        // `seq` order even with concurrent emitters.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = LogEvent {
            seq,
            elapsed_ms: self.epoch.elapsed().as_millis() as u64,
            level,
            task,
            message,
        };
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.displaced.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Copy of the currently retained events, oldest first.
    pub fn snapshot(&self) -> Vec<LogEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Total events emitted over the log's lifetime (including displaced).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events pushed out of the ring (or discarded at capacity 0).
    pub fn displaced(&self) -> u64 {
        self.displaced.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`LatencyHistogram`]: bucket `i`
/// covers `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally covers 0),
/// so the range spans 1 ns .. ~9.2 minutes — wide enough for any
/// per-tuple or per-watermark processing time.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket, lock-free latency histogram.
///
/// Writers call [`LatencyHistogram::record`] with relaxed atomics; readers
/// take a [`HistogramSummary`] at any time. Relaxed ordering is sufficient
/// because each counter is independent and the report is only assembled
/// after worker threads are joined (the join is the synchronization edge);
/// mid-run samples tolerate being approximate.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Bucket index for an observation: `floor(log2(ns))`, clamped to the
    /// last bucket; 0 ns lands in bucket 0.
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` in nanoseconds.
    #[inline]
    pub fn bucket_upper_ns(i: usize) -> u64 {
        if i + 1 >= 64 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Record one observation in nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.counts[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot the histogram into an owned, mergeable summary.
    pub fn summary(&self) -> HistogramSummary {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some(HistogramBucket {
                    le_ns: Self::bucket_upper_ns(i),
                    count,
                })
            })
            .collect();
        HistogramSummary {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty histogram bucket: `count` observations at most `le_ns`
/// nanoseconds (and above the previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, nanoseconds.
    pub le_ns: u64,
    /// Observations that fell into this bucket.
    pub count: u64,
}

/// An owned snapshot of a [`LatencyHistogram`], mergeable across operator
/// instances and exportable to JSON.
#[derive(Debug, Clone, Default, Serialize)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSummary {
    /// Arithmetic mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Upper bound (ns) of the bucket holding the `q`-quantile
    /// observation, by ceiling nearest rank over bucket counts. Returns 0
    /// when empty. Resolution is one power of two — adequate for "p99 is
    /// tens of microseconds" statements, not for exact percentiles.
    pub fn quantile_le_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.le_ns;
            }
        }
        self.max_ns
    }

    /// Fold another summary into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        let mut merged: std::collections::BTreeMap<u64, u64> =
            self.buckets.iter().map(|b| (b.le_ns, b.count)).collect();
        for b in &other.buckets {
            *merged.entry(b.le_ns).or_insert(0) += b.count;
        }
        self.buckets = merged
            .into_iter()
            .map(|(le_ns, count)| HistogramBucket { le_ns, count })
            .collect();
    }
}

/// Statically derived hard limits for one pipeline run, produced by a
/// plan-level cost model (e.g. `cep2asp::analyze::runtime_bounds`) and
/// checked against the observed telemetry by
/// [`RunReport::check_bounds`](crate::runtime::RunReport::check_bounds).
///
/// `None` means "no claim" for that quantity. The check makes the cost
/// model *falsifiable*: a bound the run exceeds is a bug in the model (or
/// a leak in the runtime), not an overload condition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticBounds {
    /// Upper bound on the total tuples delivered to all sinks.
    pub max_sink_tuples: Option<u64>,
    /// Upper bound on the summed per-operator peak state, bytes.
    pub max_total_state_bytes: Option<u64>,
    /// Upper bound on the longest per-key run any keyed join side may
    /// buffer (tuples sharing one partition key on one side of one join
    /// instance).
    pub max_keyed_run: Option<u64>,
    /// Where the bounds came from (module path or experiment name),
    /// echoed in violation reports.
    pub origin: String,
}

/// One observed quantity that exceeded its [`StaticBounds`] limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundViolation {
    /// Which quantity overflowed (`"sink_tuples"`, `"state_bytes"`,
    /// `"keyed_run_len"`).
    pub quantity: &'static str,
    /// The value the run actually reached.
    pub actual: u64,
    /// The static limit it was expected to stay under.
    pub bound: u64,
    /// The `origin` of the violated [`StaticBounds`].
    pub origin: String,
}

impl std::fmt::Display for BoundViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bound violation: {} = {} exceeds static bound {} (from {})",
            self.quantity, self.actual, self.bound, self.origin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heavier loops are wasteful under Miri's interpreter; keep the
    /// interleaving coverage, shrink the constants.
    const CONCURRENCY_ITERS: u64 = if cfg!(miri) { 50 } else { 5_000 };

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 1);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(1023), 9);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_upper_ns(0), 1);
        assert_eq!(LatencyHistogram::bucket_upper_ns(9), 1023);
    }

    #[test]
    fn record_and_summarize() {
        let h = LatencyHistogram::default();
        for ns in [100u64, 200, 300, 90_000] {
            h.record(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 90_600);
        assert_eq!(s.max_ns, 90_000);
        assert!((s.mean_us() - 22.65).abs() < 1e-9);
        // p50 lands in the bucket of the 2nd observation (200 ns → [128, 255]).
        assert_eq!(s.quantile_le_ns(0.50), 255);
        // p99 lands in the top bucket (90 µs → [65536, 131071]).
        assert_eq!(s.quantile_le_ns(0.99), 131_071);
    }

    #[test]
    fn summaries_merge_bucketwise() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record(100);
        a.record(1_000);
        b.record(100);
        b.record(1_000_000);
        let mut s = a.summary();
        s.merge(&b.summary());
        assert_eq!(s.count, 4);
        assert_eq!(s.max_ns, 1_000_000);
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        // The two 100 ns observations share one bucket after the merge.
        assert!(s.buckets.iter().any(|b| b.le_ns == 127 && b.count == 2));
    }

    #[test]
    fn event_log_displaces_oldest_and_keeps_seq() {
        let log = EventLog::new(2);
        log.emit(Level::Info, "a", "first");
        log.emit(Level::Warn, "b", "second");
        log.emit(Level::Error, "c", "third");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 1);
        assert_eq!(snap[1].seq, 2);
        assert_eq!(snap[1].message, "third");
        assert_eq!(log.emitted(), 3);
        assert_eq!(log.displaced(), 1);
    }

    #[test]
    fn zero_capacity_log_retains_nothing() {
        let log = EventLog::new(0);
        log.emit(Level::Info, "a", "dropped");
        assert!(log.snapshot().is_empty());
        assert_eq!(log.emitted(), 1);
        assert_eq!(log.displaced(), 1);
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::default());
        let per_thread = CONCURRENCY_ITERS / 5;
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for k in 0..per_thread {
                        h.record(i * 1000 + k);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().expect("recorder thread");
        }
        assert_eq!(h.count(), 4 * per_thread);
        assert_eq!(
            h.summary().buckets.iter().map(|b| b.count).sum::<u64>(),
            4 * per_thread
        );
    }

    #[test]
    fn histogram_summary_is_coherent_under_concurrent_writes() {
        // Readers snapshot while writers keep recording: every snapshot
        // must be internally coherent (bucket sum never exceeds count
        // recorded *after* the snapshot completes; totals settle exactly).
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::default());
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for k in 0..CONCURRENCY_ITERS {
                        h.record(k % 4096);
                    }
                })
            })
            .collect();
        let reader = {
            let h = h.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..20 {
                    let s = h.summary();
                    let bucketed: u64 = s.buckets.iter().map(|b| b.count).sum();
                    // A snapshot may tear between buckets and counters,
                    // but can never exceed the total writes issued.
                    assert!(bucketed <= 2 * CONCURRENCY_ITERS);
                    assert!(s.count <= 2 * CONCURRENCY_ITERS);
                    assert!(s.count >= last, "count went backwards");
                    last = s.count;
                }
            })
        };
        for t in writers {
            t.join().expect("writer thread");
        }
        reader.join().expect("reader thread");
        let s = h.summary();
        assert_eq!(s.count, 2 * CONCURRENCY_ITERS);
        assert_eq!(
            s.buckets.iter().map(|b| b.count).sum::<u64>(),
            2 * CONCURRENCY_ITERS
        );
    }

    #[test]
    fn event_log_is_coherent_under_concurrent_emitters() {
        use std::sync::Arc;
        let log = Arc::new(EventLog::new(64));
        let per_thread = (CONCURRENCY_ITERS / 10).max(10);
        let emitters: Vec<_> = (0..3)
            .map(|i| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for k in 0..per_thread {
                        log.emit(Level::Info, "worker", format!("t{i} msg {k}"));
                    }
                })
            })
            .collect();
        for t in emitters {
            t.join().expect("emitter thread");
        }
        let total = 3 * per_thread;
        assert_eq!(log.emitted(), total);
        assert_eq!(log.displaced(), total.saturating_sub(64));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 64usize.min(total as usize));
        // The ring holds the newest events in `seq` order, with no gaps.
        for w in snap.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
    }

    #[test]
    fn bound_violation_renders_origin() {
        let v = BoundViolation {
            quantity: "sink_tuples",
            actual: 12,
            bound: 10,
            origin: "test-model".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("sink_tuples"), "{s}");
        assert!(s.contains("test-model"), "{s}");
        assert_eq!(StaticBounds::default().max_sink_tuples, None);
    }
}
