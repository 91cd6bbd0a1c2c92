//! End-to-end tests of the threaded dataflow runtime: watermark merging,
//! keyed parallelism, backpressure, failure propagation, and metrics.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder, OperatorFactory, SourceConfig};
use asp::operator::{
    cross_join, FilterOp, IntervalBounds, IntervalJoinOp, MapOp, UnionOp, WindowJoinOp,
};
use asp::runtime::{key_partition, Executor, ExecutorConfig};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;

fn events(etype: u16, ids: &[u32], minutes: std::ops::Range<i64>) -> Vec<Event> {
    let mut out = Vec::new();
    for m in minutes {
        for &id in ids {
            out.push(Event::new(
                EventType(etype),
                id,
                Timestamp::from_minutes(m),
                (m as f64) + id as f64 / 100.0,
            ));
        }
    }
    out
}

fn sorted_keys(tuples: &[Tuple]) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = tuples.iter().map(Tuple::match_key).collect();
    keys.sort();
    keys
}

#[test]
fn filter_pipeline_end_to_end() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..100), 1);
    let f = g.unary(
        src,
        Exchange::Forward,
        1,
        Box::new(|_| {
            Box::new(FilterOp::new(
                "σ",
                Arc::new(|t: &Tuple| t.events[0].value >= 50.0),
            ))
        }),
    );
    let sink = g.sink(f, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 50);
    assert_eq!(report.source_events, 100);
    assert!(report.throughput() > 0.0);
}

#[test]
fn union_merges_sources_with_aligned_watermarks() {
    let mut g = GraphBuilder::new();
    let a = g.source("a", events(0, &[1], 0..50), 1);
    let b = g.source("b", events(1, &[2], 0..50), 1);
    let u = g.nary(
        &[(a, Exchange::Forward), (b, Exchange::Forward)],
        1,
        Box::new(|_| Box::new(UnionOp::new("∪", 2))),
    );
    let sink = g.sink(u, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 100);
}

/// A tumbling join over two sources must produce exactly the cross product
/// per window, regardless of thread interleaving.
#[test]
fn window_join_pipeline_is_deterministic() {
    let run = || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1], 0..40), 1);
        let b = g.source("b", events(1, &[1], 0..40), 1);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            1,
            Box::new(|_| {
                Box::new(WindowJoinOp::new(
                    "⋈",
                    SlidingWindows::tumbling(Duration::from_minutes(10)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Forward);
        let mut report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let first = run();
    // 4 windows × 10 × 10 pairs.
    assert_eq!(first.len(), 400);
    for _ in 0..3 {
        assert_eq!(run(), first, "same matches on every run");
    }
}

/// Keyed parallel execution must produce exactly the same matches as the
/// single-slot execution (co-partitioning correctness).
#[test]
fn keyed_parallelism_preserves_semantics() {
    let ids: Vec<u32> = (0..16).collect();
    let run = |par: usize| {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &ids, 0..30), 1);
        let b = g.source("b", events(1, &ids, 0..30), 1);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            par,
            Box::new(|_| {
                Box::new(WindowJoinOp::new(
                    "⋈=",
                    SlidingWindows::tumbling(Duration::from_minutes(5)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Hash);
        let mut report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.len(), 16 * 6 * 25, "16 keys × 6 windows × 5×5 pairs");
    assert_eq!(serial, parallel);
}

#[test]
fn rebalance_distributes_and_preserves_count() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1, 2, 3], 0..100), 1);
    let m = g.unary(
        src,
        Exchange::Rebalance,
        4,
        Box::new(|_| Box::new(MapOp::new("id", Arc::new(|t| t)))),
    );
    let sink = g.sink(m, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 300);
    let map_node = report.nodes.iter().find(|n| n.name == "op1").unwrap();
    assert_eq!(map_node.records_in, 300);
    assert_eq!(map_node.records_out, 300);
}

#[test]
fn memory_limit_failure_aborts_pipeline() {
    let mut g = GraphBuilder::new();
    let a = g.source("a", events(0, &[1], 0..2000), 1);
    let b = g.source("b", events(1, &[1], 0..2000), 1);
    let j = g.binary(
        a,
        b,
        Exchange::Hash,
        1,
        Box::new(|_| {
            Box::new(
                WindowJoinOp::new(
                    "⋈",
                    SlidingWindows::new(Duration::from_minutes(100), Duration::from_minutes(1)),
                    cross_join(),
                    TsRule::Max,
                )
                .with_memory_limit(64 * 1024),
            )
        }),
    );
    let _sink = g.counting_sink(j, Exchange::Forward);
    let err = Executor::new(ExecutorConfig::default()).run(g).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exhausted memory"), "got: {msg}");
}

#[test]
fn rate_limited_source_paces_emission() {
    use asp::graph::SourceConfig;
    let evs = events(0, &[1], 0..200);
    let mut g = GraphBuilder::new();
    let src = g.source_with("paced", SourceConfig::new(evs).with_rate(2000.0), 1);
    let sink = g.sink(src, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 200);
    // 200 events at 2000/s ≥ 100 ms.
    assert!(
        report.duration.as_millis() >= 95,
        "run finished too fast: {:?}",
        report.duration
    );
    // Throughput reflects pacing, not machine speed.
    assert!(report.throughput() < 3000.0);
}

#[test]
fn latency_is_measured_at_sink() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..500), 1);
    let sink = g.sink(src, Exchange::Forward);
    let cfg = ExecutorConfig {
        latency_stride: 1,
        ..Default::default()
    };
    let report = Executor::new(cfg).run(g).unwrap();
    let lat = report.latency(sink);
    assert!(lat.samples > 0);
    assert!(lat.p50_ms <= lat.p99_ms);
    assert!(lat.max_ms < 10_000.0, "latency sane: {:?}", lat);
}

#[test]
fn resource_sampling_produces_series() {
    let mut g = GraphBuilder::new();
    let evs = events(0, &[1], 0..2000);
    use asp::graph::SourceConfig;
    let src = g.source_with("s", SourceConfig::new(evs).with_rate(10_000.0), 1);
    let j = g.binary(
        src,
        src,
        Exchange::Hash,
        1,
        Box::new(|_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                SlidingWindows::tumbling(Duration::from_minutes(50)),
                cross_join(),
                TsRule::Max,
            ))
        }),
    );
    let _sink = g.counting_sink(j, Exchange::Forward);
    let cfg = ExecutorConfig {
        sample_interval: Some(std::time::Duration::from_millis(10)),
        ..Default::default()
    };
    let report = Executor::new(cfg).run(g).unwrap();
    assert!(!report.samples.is_empty(), "sampler collected data");
    assert!(report.peak_state_bytes() > 0, "join buffered state");
}

#[test]
fn key_partition_is_balanced_for_sequential_keys() {
    for p in [2usize, 4, 8, 16] {
        let mut counts = vec![0usize; p];
        for k in 0..128u64 {
            counts[key_partition(k, p)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= min.max(1) * 4,
            "partitioning too skewed for p={p}: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "empty partition for p={p}");
    }
}

#[test]
fn invalid_graphs_are_rejected() {
    // No sink.
    let mut g = GraphBuilder::new();
    let _src = g.source("s", events(0, &[1], 0..1), 1);
    assert!(Executor::new(ExecutorConfig::default()).run(g).is_err());

    // Forward with unequal parallelism.
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..1), 1);
    let f = g.unary(
        src,
        Exchange::Forward,
        3,
        Box::new(|_| Box::new(MapOp::new("id", Arc::new(|t| t)))),
    );
    let _ = g.sink(f, Exchange::Rebalance);
    assert!(Executor::new(ExecutorConfig::default()).run(g).is_err());
}

#[test]
fn parallel_sources_preserve_all_events() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..1000), 4);
    let sink = g.sink(src, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 1000);
    assert_eq!(report.source_events, 1000);
}

/// Operator chaining is a pure optimization: fused and unfused executions
/// of the same graph must produce identical match sets.
#[test]
fn chaining_does_not_change_results() {
    let build = || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1, 2], 0..60), 1);
        let fa = g.unary(
            a,
            Exchange::Forward,
            1,
            Box::new(|_| {
                Box::new(FilterOp::new(
                    "σ",
                    Arc::new(|t: &Tuple| t.events[0].value < 40.0),
                ))
            }),
        );
        let b = g.source("b", events(1, &[1, 2], 0..60), 1);
        let j = g.binary(
            fa,
            b,
            Exchange::Hash,
            1,
            Box::new(|_| {
                Box::new(WindowJoinOp::new(
                    "⋈",
                    SlidingWindows::new(Duration::from_minutes(5), Duration::from_minutes(1)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let m = g.unary(
            j,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(MapOp::ts_to_max("Π"))),
        );
        let sink = g.sink(m, Exchange::Forward);
        (g, sink)
    };
    let run = |chaining: bool| {
        let (g, sink) = build();
        let cfg = ExecutorConfig {
            operator_chaining: chaining,
            ..Default::default()
        };
        let mut report = Executor::new(cfg).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let fused = run(true);
    let unfused = run(false);
    assert!(!fused.is_empty());
    assert_eq!(fused, unfused);
}

/// A panicking operator must surface as a pipeline error, not a hang.
#[test]
fn worker_panic_is_reported() {
    struct Bomb;
    impl asp::operator::Operator for Bomb {
        fn process(
            &mut self,
            _input: usize,
            _tuple: Tuple,
            _out: &mut dyn asp::operator::Collector,
        ) -> Result<(), asp::OpError> {
            panic!("boom");
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..10), 1);
    // Rebalance prevents fusing the bomb into the source thread, so the
    // panic travels the worker-join path.
    let b = g.unary(src, Exchange::Rebalance, 2, Box::new(|_| Box::new(Bomb)));
    let _sink = g.counting_sink(b, Exchange::Rebalance);
    let err = Executor::new(ExecutorConfig::default()).run(g).unwrap_err();
    assert!(err.to_string().contains("panic"), "{err}");
}

/// Fails with [`asp::OpError::Failed`] once it has seen `k` tuples, either
/// through the row shim (`columnar == false`) or through
/// `process_columnar`, counting every selected row of each batch.
struct FailAt {
    k: u64,
    seen: u64,
    columnar: bool,
}

impl FailAt {
    fn count(&mut self, n: u64) -> Result<(), asp::OpError> {
        self.seen += n;
        if self.seen >= self.k {
            return Err(asp::OpError::Failed {
                operator: "fail_at".to_string(),
                reason: format!("injected failure at tuple {}", self.k),
            });
        }
        Ok(())
    }
}

impl asp::operator::Operator for FailAt {
    fn process(
        &mut self,
        _input: usize,
        tuple: Tuple,
        out: &mut dyn asp::operator::Collector,
    ) -> Result<(), asp::OpError> {
        self.count(1)?;
        out.emit(tuple);
        Ok(())
    }

    fn batch_support(&self) -> asp::operator::BatchSupport {
        if self.columnar {
            asp::operator::BatchSupport::Columnar
        } else {
            asp::operator::BatchSupport::Row
        }
    }

    fn process_columnar(
        &mut self,
        _input: usize,
        batch: &mut asp::columnar::ColumnarBatch,
    ) -> Result<(), asp::OpError> {
        self.count(batch.selected_len() as u64)
    }

    fn name(&self) -> &str {
        "fail_at"
    }
}

/// Fault-injection table: an operator failing at its k-th tuple — row-only
/// and columnar, single-instance and 2-way sharded, one-row and 64-row
/// batches — must end the run with [`asp::PipelineError::Operator`] within
/// 10 s. `Executor::run` joins every worker, source, sink and helper
/// thread before it returns, so a result inside the deadline also means
/// nothing hung. The inboxes are tiny so upstream tasks are blocked on
/// backpressure when the failure strikes.
#[test]
fn operator_failure_is_a_prompt_typed_error() {
    for columnar in [false, true] {
        for shards in [None, Some(2)] {
            for batch_size in [1usize, 64] {
                let ctx = format!("columnar={columnar} shards={shards:?} batch_size={batch_size}");
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let mut g = GraphBuilder::new();
                    let src = g.source("s", events(0, &(0..16).collect::<Vec<_>>(), 0..500), 1);
                    let f = g.unary(
                        src,
                        Exchange::Hash,
                        1,
                        Box::new(move |_| {
                            Box::new(FailAt {
                                k: 100,
                                seen: 0,
                                columnar,
                            })
                        }),
                    );
                    g.shard_node(f);
                    let _sink = g.counting_sink(f, Exchange::Rebalance);
                    let result = Executor::new(ExecutorConfig {
                        batch_size,
                        shards,
                        env_errors: Vec::new(),
                        channel_capacity: 4,
                        ..ExecutorConfig::default()
                    })
                    .run(g);
                    let _ = tx.send(result.map(|r| r.source_events));
                });
                match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                    Ok(Err(asp::PipelineError::Operator(asp::OpError::Failed {
                        operator,
                        ..
                    }))) => assert_eq!(operator, "fail_at", "{ctx}"),
                    Ok(other) => panic!("{ctx}: expected an operator error, got {other:?}"),
                    Err(_) => panic!("{ctx}: run did not return within 10 s"),
                }
            }
        }
    }
}

/// Punctuation rides batches as in-band marks, so a route flush is one
/// message however many watermarks it spans: with the idle-flush deadline
/// out of reach, the source sends exactly ⌈rows/64⌉ messages per
/// destination (a watermark every 4 events would otherwise cut every
/// batch into 4-row segments), and the sink sees what a batch-1 run sees.
#[test]
fn a_route_flush_is_one_message_per_destination() {
    let ids: Vec<u32> = (0..16).collect();
    let evs = events(0, &ids, 0..100);
    let run = |batch_size: usize| {
        let mut g = GraphBuilder::new();
        let src = g.source_with(
            "s",
            SourceConfig::new(evs.clone()).with_watermark_every(4),
            1,
        );
        let m = g.unary(
            src,
            Exchange::Hash,
            2,
            Box::new(|_| Box::new(MapOp::identity("id"))),
        );
        let sink = g.counting_sink(m, Exchange::Rebalance);
        let report = Executor::new(ExecutorConfig {
            batch_size,
            idle_flush: std::time::Duration::from_secs(10),
            shards: None,
            env_errors: Vec::new(),
            ..ExecutorConfig::default()
        })
        .run(g)
        .unwrap();
        let batches = report
            .nodes
            .iter()
            .find(|n| n.name == "s")
            .unwrap()
            .batches_out;
        (report.sink_count(sink), batches)
    };
    let mut rows = [0u64; 2];
    for e in &evs {
        rows[key_partition(u64::from(e.id), 2)] += 1;
    }
    let want: u64 = rows.iter().map(|r| r.div_ceil(64)).sum();
    let (count, batches) = run(64);
    assert_eq!(batches, want, "rows per destination: {rows:?}");
    assert_eq!(count, run(1).0);
    assert_eq!(count, evs.len() as u64);
}

/// Fault-injection table: a keyed join hitting its `memory_limit` —
/// interval and window joins, single-instance and 2-way sharded, one-row
/// and 64-row batches, a watermark every 4 events so most batches carry
/// marks and the failure strikes between two of them — ends the run with
/// [`asp::OpError::MemoryExhausted`] within 10 s. `Executor::run` joins
/// every thread before it returns. Neither join evicts before the input
/// ends (the bound and the window outspan it), so every shard's state
/// grows past the limit whatever the key placement.
#[test]
fn memory_limit_is_a_prompt_typed_error_between_marks() {
    let factory = |join: &str| -> OperatorFactory {
        if join == "interval" {
            Box::new(|_| {
                Box::new(
                    IntervalJoinOp::new(
                        "i⋈",
                        IntervalBounds::seq(Duration::from_minutes(100_000)),
                        cross_join(),
                        TsRule::Max,
                    )
                    .with_memory_limit(64 * 1024),
                )
            })
        } else {
            Box::new(|_| {
                Box::new(
                    WindowJoinOp::new(
                        "w⋈",
                        SlidingWindows::tumbling(Duration::from_minutes(100_000)),
                        cross_join(),
                        TsRule::Max,
                    )
                    .with_memory_limit(64 * 1024),
                )
            })
        }
    };
    for join in ["interval", "window"] {
        for shards in [None, Some(2)] {
            for batch_size in [1usize, 64] {
                let ctx = format!("join={join} shards={shards:?} batch_size={batch_size}");
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let ids: Vec<u32> = (0..4).collect();
                    let mut g = GraphBuilder::new();
                    let src = |etype, g: &mut GraphBuilder, name: &str| {
                        let cfg =
                            SourceConfig::new(events(etype, &ids, 0..1000)).with_watermark_every(4);
                        g.source_with(name, cfg, 1)
                    };
                    let a = src(0, &mut g, "a");
                    let b = src(1, &mut g, "b");
                    let j = g.binary(a, b, Exchange::Hash, 1, factory(join));
                    g.shard_node(j);
                    let _sink = g.counting_sink(j, Exchange::Rebalance);
                    let result = Executor::new(ExecutorConfig {
                        batch_size,
                        shards,
                        env_errors: Vec::new(),
                        ..ExecutorConfig::default()
                    })
                    .run(g);
                    let _ = tx.send(result.map(|r| r.source_events));
                });
                match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                    Ok(Err(asp::PipelineError::Operator(asp::OpError::MemoryExhausted {
                        ..
                    }))) => {}
                    Ok(other) => panic!("{ctx}: expected a memory-limit error, got {other:?}"),
                    Err(_) => panic!("{ctx}: run did not return within 10 s"),
                }
            }
        }
    }
}

/// Sinks are delivery targets of their producers' collectors, not tasks:
/// every emission reaches the sink on the producing thread. Three ways of
/// feeding `Collect` sinks — a parallelism-2 producer over `Rebalance`, a
/// paced and an unpaced source directly (plus a count-only twin on the
/// unpaced one), and one row-path node fanning out to three sinks — run
/// with chaining on and off at batch sizes 1 and 64. Each sink holds
/// exactly the reference multiset (the input, filtered where the topology
/// filters), has ⌊count / stride⌋ latency samples with the stride counted
/// across producer instances, reports its delivered count as the sink
/// node's `records_in`, and the run spawns one task thread per source or
/// operator instance and none per sink.
#[test]
fn sinks_are_fed_on_the_producer_thread() {
    use asp::graph::{SinkId, SinkMode};
    const STRIDE: usize = 3;
    let evs = events(0, &[0, 1, 2, 3], 0..100);
    let keep = |t: &Tuple| (t.events[0].value as i64) % 3 != 0;
    let all: Vec<Tuple> = evs.iter().copied().map(Tuple::from_event).collect();
    let kept: Vec<Tuple> = all.iter().filter(|t| keep(t)).cloned().collect();
    let filter = move || -> OperatorFactory {
        Box::new(move |_| Box::new(FilterOp::new("σ", Arc::new(keep))))
    };
    // (name, graph, sinks with their references, task threads with
    // chaining on and off)
    type Case = (
        &'static str,
        GraphBuilder,
        Vec<(SinkId, Vec<Tuple>)>,
        [usize; 2],
    );
    let cases = || -> Vec<Case> {
        let mut out: Vec<Case> = Vec::new();

        let mut g = GraphBuilder::new();
        let src = g.source("s", evs.clone(), 1);
        let m = g.unary(
            src,
            Exchange::Rebalance,
            2,
            Box::new(|_| Box::new(MapOp::identity("id"))),
        );
        let sink = g.sink(m, Exchange::Rebalance);
        out.push(("rebalance_p2", g, vec![(sink, all.clone())], [3, 3]));

        let mut g = GraphBuilder::new();
        let src = g.source_with("s", SourceConfig::new(evs.clone()).with_rate(40_000.0), 1);
        let sink = g.sink(src, Exchange::Forward);
        out.push(("paced_source", g, vec![(sink, all.clone())], [1, 1]));

        let mut g = GraphBuilder::new();
        let src = g.source("s", evs.clone(), 1);
        let sink = g.sink(src, Exchange::Forward);
        let count_only = g.sink_with_mode(src, Exchange::Forward, SinkMode::CountOnly);
        out.push((
            "unpaced_source",
            g,
            vec![(sink, all.clone()), (count_only, Vec::new())],
            [1, 1],
        ));

        let mut g = GraphBuilder::new();
        let src = g.source("s", evs.clone(), 1);
        let f = g.unary(src, Exchange::Forward, 1, filter());
        let sinks = (0..3)
            .map(|_| (g.sink(f, Exchange::Forward), kept.clone()))
            .collect();
        out.push(("fan_out_3", g, sinks, [1, 2]));
        out
    };
    for chaining in [true, false] {
        for batch_size in [1usize, 64] {
            for (name, g, sinks, tasks) in cases() {
                let ctx = format!("{name} chaining={chaining} batch_size={batch_size}");
                let report = Executor::new(ExecutorConfig {
                    operator_chaining: chaining,
                    batch_size,
                    latency_stride: STRIDE,
                    shards: None,
                    env_errors: Vec::new(),
                    ..ExecutorConfig::default()
                })
                .run(g)
                .unwrap();
                // Each case lists all of its sinks in creation order, and
                // sink `i` is named `sink{i}`.
                for (i, (sink, want)) in sinks.iter().enumerate() {
                    let count = report.sink_count(*sink);
                    if want.is_empty() {
                        assert!(report.sink(*sink).is_empty(), "{ctx}: count-only sink");
                        assert_eq!(count, all.len() as u64, "{ctx}: count-only count");
                    } else {
                        assert_eq!(sorted_keys(report.sink(*sink)), sorted_keys(want), "{ctx}");
                        assert_eq!(count, want.len() as u64, "{ctx}");
                    }
                    assert_eq!(
                        report.latency(*sink).samples,
                        count as usize / STRIDE,
                        "{ctx}: latency samples"
                    );
                    let name = format!("sink{i}");
                    let stats = report.nodes.iter().find(|n| n.name == name).unwrap();
                    assert_eq!(stats.records_in, count, "{ctx}: sink records_in");
                }
                let started = report
                    .events
                    .iter()
                    .find(|e| e.task == "executor" && e.message.starts_with("run started"))
                    .unwrap();
                let want_tasks = tasks[usize::from(!chaining)];
                assert!(
                    started
                        .message
                        .contains(&format!(", {want_tasks} task threads,")),
                    "{ctx}: {}",
                    started.message
                );
            }
        }
    }
}

/// Fault injection for the sink hop: sinks are fed on the producer's
/// thread, so an operator that panics after its first rows reached a
/// directly attached sink is the failing-sink case. Fused into the source
/// (chaining on) or in its own task (chaining off), with a collecting and
/// a count-only sink, the run must return [`asp::PipelineError::WorkerPanic`]
/// within 10 s.
#[test]
fn panic_beside_a_sink_is_a_prompt_worker_panic() {
    struct PanicAt(u64);
    impl asp::operator::Operator for PanicAt {
        fn process(
            &mut self,
            _input: usize,
            tuple: Tuple,
            out: &mut dyn asp::operator::Collector,
        ) -> Result<(), asp::OpError> {
            self.0 -= 1;
            assert!(self.0 > 0, "injected panic beside a sink");
            out.emit(tuple);
            Ok(())
        }
        fn name(&self) -> &str {
            "panic_at"
        }
    }
    for chaining in [true, false] {
        for batch_size in [1usize, 64] {
            let ctx = format!("chaining={chaining} batch_size={batch_size}");
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut g = GraphBuilder::new();
                let src = g.source("s", events(0, &[1, 2], 0..500), 1);
                let p = g.unary(
                    src,
                    Exchange::Forward,
                    1,
                    Box::new(|_| Box::new(PanicAt(100))),
                );
                let _collect = g.sink(p, Exchange::Forward);
                let _count = g.counting_sink(p, Exchange::Forward);
                let result = Executor::new(ExecutorConfig {
                    operator_chaining: chaining,
                    batch_size,
                    channel_capacity: 4,
                    shards: None,
                    env_errors: Vec::new(),
                    ..ExecutorConfig::default()
                })
                .run(g);
                let _ = tx.send(result.map(|r| r.source_events));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(Err(asp::PipelineError::WorkerPanic(msg))) => {
                    assert!(msg.contains("injected panic"), "{ctx}: {msg}")
                }
                Ok(other) => panic!("{ctx}: expected a worker panic, got {other:?}"),
                Err(_) => panic!("{ctx}: run did not return within 10 s"),
            }
        }
    }
}
