//! Flush-ordering determinism regression test.
//!
//! The columnar oracle used to flake because the wall-clock `idle_flush`
//! timer raced the owed-watermark settlement in the sender buffers:
//! depending on when a soft flush fired, a watermark could overtake
//! buffered tuples in one run but not the next, shifting late-drop
//! verdicts between runs. The fix pins watermark/tuple relative order
//! positionally in the send buffer, so the verdict stream is a pure
//! function of the input — independent of flush cadence and batch size.
//!
//! This test pins exactly that: one disordered keyed-join input (with
//! genuine late data beyond the watermark lag) executed across a grid of
//! `idle_flush` cadences × batch sizes must produce the identical sink
//! multiset AND the identical late-drop count. The 1 µs cadence makes soft
//! flushes fire constantly (maximal raciness), the 1 s cadence effectively
//! disables them; `batch_size == 1` sends one-row batches.

#![allow(clippy::unwrap_used)] // test code

use std::time::Duration as StdDuration;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder, SinkId, SourceConfig};
use asp::operator::{cross_join, WindowJoinOp};
use asp::runtime::{Executor, ExecutorConfig, RunReport};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule};
use asp::window::SlidingWindows;

/// Deterministic xorshift so the disorder pattern is fixed forever —
/// this is a regression pin, not a fuzz test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One side: 400 events, timestamps wandering ±3 min around a monotone
/// base while the watermark lag is only 1 min — a fixed subset is
/// genuinely late and must be dropped identically in every configuration.
fn side(etype: u16, seed: u64) -> Vec<Event> {
    let mut rng = Rng(seed);
    (0..400)
        .map(|i| {
            let base = i as i64 * 20_000;
            let jitter = (rng.next() % 360_000) as i64 - 180_000;
            let key = (rng.next() % 16) as u32;
            Event::new(
                EventType(etype),
                key,
                Timestamp((base + jitter).max(0)),
                i as f64,
            )
        })
        .collect()
}

fn run(batch_size: usize, idle_flush: StdDuration) -> (RunReport, SinkId) {
    let mut g = GraphBuilder::new();
    let src = |etype: u16, seed: u64| {
        SourceConfig::new(side(etype, seed))
            .with_watermark_every(8)
            .with_watermark_lag(Duration::from_minutes(1))
    };
    let l = g.source_with("l", src(0, 0x9E37_79B9), 1);
    let r = g.source_with("r", src(1, 0xDEAD_BEEF), 1);
    let join = g.nary(
        &[(l, Exchange::Hash), (r, Exchange::Hash)],
        1,
        Box::new(|_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                SlidingWindows::new(Duration::from_minutes(4), Duration::from_minutes(2)),
                cross_join(),
                TsRule::Max,
            ))
        }),
    );
    let sink = g.sink(join, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig {
        batch_size,
        idle_flush,
        shards: None,
        env_errors: Vec::new(),
        ..ExecutorConfig::default()
    })
    .run(g)
    .expect("flush-ordering pipeline runs to completion");
    (report, sink)
}

type CanonRow = (u64, i64, MatchKey);

fn canon(report: &RunReport, sink: SinkId) -> Vec<CanonRow> {
    let mut out: Vec<_> = report
        .sink(sink)
        .iter()
        .map(|t| (t.key, t.ts.millis(), t.match_key()))
        .collect();
    out.sort();
    out
}

fn late(report: &RunReport) -> u64 {
    report.nodes.iter().map(|n| n.late_dropped).sum()
}

#[test]
fn sink_and_late_drops_are_invariant_to_flush_cadence_and_batching() {
    let (ref_report, ref_sink) = run(64, StdDuration::from_millis(5));
    let want = canon(&ref_report, ref_sink);
    let want_late = late(&ref_report);
    assert!(!want.is_empty(), "reference run must produce output");
    assert!(want_late > 0, "scenario must contain genuine late data");

    for batch_size in [1usize, 7, 64] {
        for idle_flush in [
            StdDuration::from_micros(1),
            StdDuration::from_millis(5),
            StdDuration::from_secs(1),
        ] {
            let (report, sink) = run(batch_size, idle_flush);
            let ctx = format!("batch_size={batch_size} idle_flush={idle_flush:?}");
            assert_eq!(canon(&report, sink), want, "sink diverged at {ctx}");
            assert_eq!(late(&report), want_late, "late drops diverged at {ctx}");
        }
    }
}
