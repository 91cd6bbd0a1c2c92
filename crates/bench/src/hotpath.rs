//! Hot-path micro-pipelines for the micro-batching baseline.
//!
//! Three pipelines isolate the runtime's per-message costs, each run
//! end-to-end through the [`Executor`] with **operator chaining disabled**
//! so every edge is a real channel and the cost being measured is channel
//! synchronization, not operator logic:
//!
//! * **filter→map chain** — a saturating source through a cheap filter and
//!   identity map into a counting sink. With per-tuple sends the channel
//!   handoff dominates; micro-batching amortizes it `batch_size`-fold.
//!   Both stages are declarative ([`FilterOp::with_spec`] /
//!   [`MapOp::identity`]) so the whole chain runs vectorized.
//! * **hash fan-out** — one source hash-partitioned across 4 slots. Routes
//!   with multiple senders cannot pre-resolve their destination, so this
//!   exercises the per-destination output buffers.
//! * **window-join fire** — two sources into a sliding window join, the
//!   heaviest Section-5 operator, showing batching's effect when compute
//!   shares the profile with communication.
//! * **keyed-join sweep** — the same window-join graph swept over key
//!   cardinality K, once with the key-partitioned [`WindowJoinOp`] and
//!   once with the frozen pre-rework
//!   [`GlobalScanWindowJoinOp`](crate::baseline::GlobalScanWindowJoinOp),
//!   plus an interval-join variant. The keyed/global-scan ratio at K = 64
//!   is the headline number the CI smoke gate asserts on.
//!
//! Shared by the `hotpath` criterion bench (relative numbers, regression
//! tracking) and the `hotpath` binary (absolute numbers, emitted to
//! `BENCH_hotpath.json` by `scripts/bench_hotpath.sh`).

use std::sync::Arc;

use asp::event::Attr;
use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder, OperatorFactory, SinkId};
use asp::operator::{
    cross_join, Cmp, FilterOp, FilterSpec, IntervalBounds, IntervalJoinOp, MapOp, WindowJoinOp,
};
use asp::runtime::{Executor, ExecutorConfig, RunReport};
use asp::time::{Duration, Timestamp};
use asp::tuple::{TsRule, Tuple};
use asp::window::SlidingWindows;

/// The batch sizes the baseline sweeps, smallest (per-tuple sends) first.
pub const BATCH_SIZES: [usize; 4] = [1, 16, 64, 256];

/// Key cardinalities for the keyed-join sweep. K = 1 is the degenerate
/// uniform-key case (the keyed layout collapses to a single run and should
/// roughly tie the global scan); at K = 1024 runs approach one tuple each
/// and the per-key probe advantage is largest.
pub const KEY_CARDINALITIES: [u32; 4] = [1, 4, 64, 1024];

/// Deterministic pseudo-stream: one event per sensor per minute, LCG
/// values in `[0, 100)`, types alternating Q/V.
pub fn stream(n: usize, sensors: u32, seed: u64) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    let mut x = seed | 1;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let minute = (i as u32 / sensors) as i64;
        out.push(Event::new(
            EventType((i % 2) as u16),
            (i as u32) % sensors,
            Timestamp::from_minutes(minute),
            (x >> 33) as f64 / (1u64 << 31) as f64 * 100.0,
        ));
    }
    out
}

/// Events per minute in [`dense_stream`], chosen so a 5-minute join pane
/// holds `5 × DENSE_RATE` tuples per side regardless of key cardinality.
pub const DENSE_RATE: u32 = 512;

/// Dense pseudo-stream for the keyed-join sweep: `DENSE_RATE` events per
/// minute with ids round-robin over `sensors`. Unlike [`stream`] (one
/// event per sensor per minute), the pane *size* here is fixed by the
/// rate and key cardinality only divides it into runs — so sweeping K
/// isolates the state layout (global scan vs per-key runs) instead of
/// also changing how much data is in flight.
pub fn dense_stream(n: usize, sensors: u32, seed: u64) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    let mut x = seed | 1;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(Event::new(
            EventType((i % 2) as u16),
            (i as u32) % sensors,
            Timestamp::from_minutes((i as u32 / DENSE_RATE) as i64),
            (x >> 33) as f64 / (1u64 << 31) as f64 * 100.0,
        ));
    }
    out
}

/// Key space of the zipf-skewed sharded scenario (~1M distinct keys).
pub const ZIPF_KEYS: u32 = 1 << 20;

/// Stride between consecutive zipf *ranks* in [`zipf_stream`]'s key
/// space. 29 is chosen adversarially against the shard runtime's 64-slot
/// multiply-shift placement hash: the top-36 zipf ranks all land on ONE
/// initial shard (spread over its 8 round-robin slots), so static hashing
/// funnels ~34% of a million-key zipf stream — 2.7× the fair share — into
/// a single worker. Real workloads hit this whenever a key schema
/// resonates with the placement hash (sequential order ids, strided
/// sensor addresses); the point of the scenario is that *adaptive*
/// placement recovers while static placement cannot.
pub const ZIPF_STRIDE: u32 = 29;

/// Zipf-skewed dense pseudo-stream over `keys` distinct ids: uniform LCG
/// draws mapped through `exp(u·ln K)` (log-uniform) give continuous
/// Zipf(s=1) ranks — `P(rank=z) ∝ 1/z`, the hottest rank soaking up ~7%
/// of a million-key stream — and each rank maps to id `ZIPF_STRIDE · z`,
/// which piles the hot head of the distribution onto one shard of the
/// 64-slot placement table (see [`ZIPF_STRIDE`]). Timestamps advance at
/// [`DENSE_RATE`] events per minute, like [`dense_stream`].
pub fn zipf_stream(n: usize, keys: u32, seed: u64) -> Vec<Event> {
    let mut out = Vec::with_capacity(n);
    let mut x = seed | 1;
    let ln_k = (keys as f64).ln();
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let rank = ((u * ln_k).exp() as u32).min(keys) - 1;
        out.push(Event::new(
            EventType((i % 2) as u16),
            rank * ZIPF_STRIDE,
            Timestamp::from_minutes((i as u32 / DENSE_RATE) as i64),
            (x >> 33) as f64 / (1u64 << 31) as f64 * 100.0,
        ));
    }
    out
}

/// θ for the keyed-join sweep: a ~1% value-band predicate. With a dense
/// stream a cross join's output would grow quadratically in the per-key
/// pane population and emission cost would drown the probe cost being
/// measured; a selective θ keeps the measured work candidate *scanning*.
fn band_theta() -> asp::operator::JoinPredicate {
    Arc::new(|l: &Tuple, r: &Tuple| (l.events[0].value - r.events[0].value).abs() < 0.5)
}

/// Executor settings for the sweep: chaining off (every edge is a
/// channel), everything else at defaults except the swept `batch_size`.
fn cfg(batch_size: usize) -> ExecutorConfig {
    ExecutorConfig {
        batch_size,
        operator_chaining: false,
        ..ExecutorConfig::default()
    }
}

fn run(g: GraphBuilder, batch_size: usize) -> RunReport {
    Executor::new(cfg(batch_size))
        .run(g)
        .expect("hotpath pipeline runs to completion")
}

/// Build the filter→map chain graph shared by the measured and the
/// instrumented runs. Both operators are declarative, so the chain runs
/// vectorized.
fn chain_graph(events: Vec<Event>) -> (GraphBuilder, SinkId) {
    let mut g = GraphBuilder::new();
    let src = g.source("src", events, 1);
    let f = g.unary(
        src,
        Exchange::Forward,
        1,
        Box::new(|_| {
            Box::new(FilterOp::with_spec(
                "σ",
                FilterSpec::default().clause(Attr::Value, Cmp::Ge, 50.0),
            ))
        }),
    );
    g.name_last("filter");
    let m = g.unary(
        f,
        Exchange::Forward,
        1,
        Box::new(|_| Box::new(MapOp::identity("id"))),
    );
    g.name_last("map");
    let sink = g.counting_sink(m, Exchange::Forward);
    (g, sink)
}

/// Saturating source → filter (passes ~half) → identity map → counting
/// sink, one slot per stage.
pub fn run_chain(events: Vec<Event>, batch_size: usize) -> (RunReport, SinkId) {
    let (g, sink) = chain_graph(events);
    (run(g, batch_size), sink)
}

/// One fully instrumented run of the filter→map chain: resource sampling
/// and the progress reporter are enabled on top of the sweep
/// configuration, so the resulting [`RunReport::to_json`] carries every
/// telemetry surface (histograms, gauges, samples, event log). Used for
/// the `BENCH_hotpath_telemetry.json` artifact, never for the measured
/// throughput points.
pub fn run_chain_instrumented(events: Vec<Event>, batch_size: usize) -> (RunReport, SinkId) {
    let (g, sink) = chain_graph(events);
    let report = Executor::new(ExecutorConfig {
        sample_interval: Some(std::time::Duration::from_millis(20)),
        progress_interval: Some(std::time::Duration::from_millis(100)),
        ..cfg(batch_size)
    })
    .run(g)
    .expect("instrumented hotpath pipeline runs to completion");
    (report, sink)
}

/// Source hash-partitioned across `fanout` identity-map slots.
pub fn run_fanout(events: Vec<Event>, batch_size: usize, fanout: usize) -> (RunReport, SinkId) {
    let mut g = GraphBuilder::new();
    let src = g.source("src", events, 1);
    let m = g.unary(
        src,
        Exchange::Hash,
        fanout,
        Box::new(|_| Box::new(MapOp::identity("id"))),
    );
    let sink = g.counting_sink(m, Exchange::Hash);
    (run(g, batch_size), sink)
}

/// The window shape every join scenario uses: 5 min panes sliding by
/// 1 min (band = 5 panes per pair on average).
fn join_windows() -> SlidingWindows {
    SlidingWindows::new(Duration::from_minutes(5), Duration::from_minutes(1))
}

/// Shared two-source binary-join graph. Keyed and global-scan runs differ
/// *only* in the operator `factory` — sources, exchanges, parallelism, and
/// sink are identical, so throughput ratios isolate the state layout.
fn join_graph(
    left: Vec<Event>,
    right: Vec<Event>,
    factory: OperatorFactory,
) -> (GraphBuilder, SinkId) {
    let mut g = GraphBuilder::new();
    let a = g.source("a", left, 1);
    let b = g.source("b", right, 1);
    let j = g.binary(a, b, Exchange::Hash, 2, factory);
    let sink = g.counting_sink(j, Exchange::Hash);
    (g, sink)
}

/// Two sources into the key-partitioned sliding window join (5 min
/// window, 1 min slide), parallelism 2. Key cardinality is whatever the
/// `sensors` argument of [`stream`] produced.
pub fn run_window_join(
    left: Vec<Event>,
    right: Vec<Event>,
    batch_size: usize,
) -> (RunReport, SinkId) {
    let (g, sink) = join_graph(
        left,
        right,
        Box::new(|_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                join_windows(),
                cross_join(),
                TsRule::Max,
            ))
        }),
    );
    (run(g, batch_size), sink)
}

/// The keyed-sweep scenario: key-partitioned window join with the
/// selective `band_theta` θ, meant to be fed [`dense_stream`] sides so
/// the probe cost — not the source or the sink — dominates.
pub fn run_window_join_keyed(
    left: Vec<Event>,
    right: Vec<Event>,
    batch_size: usize,
) -> (RunReport, SinkId) {
    let (g, sink) = join_graph(
        left,
        right,
        Box::new(|_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                join_windows(),
                band_theta(),
                TsRule::Max,
            ))
        }),
    );
    (run(g, batch_size), sink)
}

/// Same graph and θ as [`run_window_join_keyed`] but with the frozen
/// pre-rework global-scan operator — the honest denominator for the keyed
/// speedup.
pub fn run_window_join_global_scan(
    left: Vec<Event>,
    right: Vec<Event>,
    batch_size: usize,
) -> (RunReport, SinkId) {
    let (g, sink) = join_graph(
        left,
        right,
        Box::new(|_| {
            Box::new(crate::baseline::GlobalScanWindowJoinOp::new(
                "⋈g",
                join_windows(),
                band_theta(),
                TsRule::Max,
            ))
        }),
    );
    (run(g, batch_size), sink)
}

/// The sharded scenario: key-partitioned window join fanned out over
/// `shards` shared-nothing instances (`GraphBuilder::shard_node`), fed
/// zipf-skewed sides. `adaptive` enables the hot-key rebalancer; with it
/// off the 64-slot table stays at its static round-robin placement, so
/// the hottest hash slots pin one unlucky shard — the honest denominator
/// for the adaptive speedup. `shards == 1` is the single-instance
/// baseline. Env overrides are pinned off so the scenario measures the
/// graph it built, not the ambient `ASP_SHARDS`.
pub fn run_window_join_sharded(
    left: Vec<Event>,
    right: Vec<Event>,
    batch_size: usize,
    shards: usize,
    adaptive: bool,
) -> (RunReport, SinkId) {
    let mut g = GraphBuilder::new();
    let a = g.source("a", left, 1);
    let b = g.source("b", right, 1);
    let j = g.nary(
        &[(a, Exchange::Hash), (b, Exchange::Hash)],
        shards,
        Box::new(|_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                join_windows(),
                band_theta(),
                TsRule::Max,
            ))
        }),
    );
    if shards > 1 {
        g.shard_node(j);
    }
    let sink = g.counting_sink(j, Exchange::Hash);
    let report = Executor::new(ExecutorConfig {
        shards: None,
        env_errors: Vec::new(),
        rebalance_interval: adaptive.then(|| std::time::Duration::from_millis(10)),
        ..cfg(batch_size)
    })
    .run(g)
    .expect("sharded hotpath pipeline runs to completion");
    (report, sink)
}

/// Two sources into the key-partitioned interval join (sequence bounds,
/// 5 min span), parallelism 2 — the other operator whose state the rework
/// partitioned. Same θ as the keyed window-join sweep.
pub fn run_interval_join(
    left: Vec<Event>,
    right: Vec<Event>,
    batch_size: usize,
) -> (RunReport, SinkId) {
    let (g, sink) = join_graph(
        left,
        right,
        Box::new(|_| {
            Box::new(IntervalJoinOp::new(
                "i⋈",
                IntervalBounds::seq(Duration::from_minutes(5)),
                band_theta(),
                TsRule::Max,
            ))
        }),
    );
    (run(g, batch_size), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_counts_are_batch_size_independent() {
        let (r1, s1) = run_chain(stream(4_000, 4, 1), 1);
        let (r64, s64) = run_chain(stream(4_000, 4, 1), 64);
        assert_eq!(r1.sink_count(s1), r64.sink_count(s64));
        assert_eq!(r1.source_events, 4_000);
    }

    #[test]
    fn fanout_and_join_produce_output() {
        let (r, s) = run_fanout(stream(2_000, 8, 2), 16, 4);
        assert_eq!(r.sink_count(s), 2_000);
        let (rj, sj) = run_window_join(stream(1_000, 4, 3), stream(1_000, 4, 4), 64);
        assert!(rj.sink_count(sj) > 0, "join fired");
    }

    #[test]
    fn keyed_and_global_scan_joins_emit_the_same_count() {
        let left = dense_stream(2_000, 64, 6);
        let right = dense_stream(2_000, 64, 7);
        let (rk, sk) = run_window_join_keyed(left.clone(), right.clone(), 64);
        let (rg, sg) = run_window_join_global_scan(left.clone(), right.clone(), 64);
        assert!(rk.sink_count(sk) > 0, "keyed join fired");
        assert_eq!(
            rk.sink_count(sk),
            rg.sink_count(sg),
            "layouts must be observationally equivalent"
        );
        let (ri, si) = run_interval_join(left, right, 64);
        assert!(ri.sink_count(si) > 0, "interval join fired");
    }

    #[test]
    fn sharded_join_counts_match_single_instance() {
        let left = zipf_stream(3_000, ZIPF_KEYS, 8);
        let right = zipf_stream(3_000, ZIPF_KEYS, 9);
        let (r1, s1) = run_window_join_sharded(left.clone(), right.clone(), 64, 1, false);
        assert!(r1.sink_count(s1) > 0, "zipf join fired");
        for adaptive in [false, true] {
            let (r8, s8) = run_window_join_sharded(left.clone(), right.clone(), 64, 8, adaptive);
            assert_eq!(
                r8.sink_count(s8),
                r1.sink_count(s1),
                "sharded (adaptive={adaptive}) diverged from single instance"
            );
        }
    }

    #[test]
    fn larger_batches_mean_fewer_messages() {
        let (r1, _) = run_chain(stream(8_000, 4, 5), 1);
        let (r64, _) = run_chain(stream(8_000, 4, 5), 64);
        let msgs = |r: &RunReport| -> u64 { r.nodes.iter().map(|n| n.batches_out).sum() };
        assert!(
            msgs(&r64) * 8 < msgs(&r1),
            "batch_size=64 should send far fewer channel messages: {} vs {}",
            msgs(&r64),
            msgs(&r1)
        );
        let src = r64
            .nodes
            .iter()
            .find(|n| n.name == "src")
            .expect("src node");
        assert!(
            src.avg_batch() > 8.0,
            "mean batch too small: {}",
            src.avg_batch()
        );
    }
}
