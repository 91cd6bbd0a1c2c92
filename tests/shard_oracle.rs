//! Shard-count invariance oracle for the shared-nothing multi-shard
//! runtime: random keyed window-join pipelines executed with 1, 2, and 8
//! shards — the 2- and 8-shard runs with the adaptive rebalancer on an
//! aggressive cadence so hot-slot migrations can strike mid-stream — must
//! deliver the identical sink multiset and late-drop accounting.
//!
//! Because the shard count (and therefore marker traffic, watermark
//! freezes, state handoffs, and stash replays) is the *only* thing that
//! differs, any divergence is a sharding-protocol bug by construction: the
//! single-instance run is the reference semantics.
//!
//! Streams are generated with disorder bounded by the configured watermark
//! lag, so no tuple is ever late. That is the regime in which shard-count
//! invariance is exact: a watermark withheld during a migration freeze can
//! only *delay* lateness verdicts, never flip one, when the lag already
//! covers the disorder.
//!
//! A deterministic companion test forces migrations (two hot keys whose
//! slots collide on one initial shard) and asserts via
//! [`NodeStats::shard_migrations`] that the adaptive path actually ran —
//! the oracle must not pass merely because no migration ever happened.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;
use std::time::Duration as StdDuration;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder, SinkId, SourceConfig};
use asp::operator::{cross_join, JoinPredicate, WindowJoinOp};
use asp::runtime::{Executor, ExecutorConfig, RunReport};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;
use proptest::prelude::*;

/// Mirrors `asp::runtime::shard`: 64 fixed slots, multiply-shift hash.
/// Duplicated here (the module is runtime-internal) so the deterministic
/// test can construct keys that collide on one initial shard.
const SHARD_SLOTS: u64 = 64;

fn slot_of(key: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % SHARD_SLOTS
}

#[derive(Debug, Clone)]
struct Case {
    /// Per event: (left side?, hot die 0..10 — <7 is hot, raw key,
    /// lag-bounded ts jitter).
    events: Vec<(bool, u32, u32, i64)>,
    /// Two hot sensor ids that soak up most of the traffic.
    hot: (u32, u32),
    /// (size, slide) in minutes.
    win: (i64, i64),
    batch_size: usize,
    watermark_every: usize,
    lag_min: i64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((any::<bool>(), 0u32..10, 0u32..24, 0i64..5), 60..300),
        (1u32..1000, 1u32..1000),
        prop_oneof![Just((2i64, 1i64)), Just((4, 4)), Just((6, 2))],
        (
            prop_oneof![Just(1usize), Just(8), Just(64)],
            prop_oneof![Just(1usize), Just(7), Just(32)],
        ),
        prop_oneof![Just(0i64), Just(4)],
    )
        .prop_map(
            |(events, hot, win, (batch_size, watermark_every), lag_min)| Case {
                events,
                hot: (hot.0, 1000 + hot.1),
                win,
                batch_size,
                watermark_every,
                lag_min,
            },
        )
}

impl Case {
    /// Materialize one side's event stream. Base timestamps advance 30 s
    /// per generated event (both sides share the global clock), and the
    /// jitter never exceeds the configured watermark lag, so watermarks
    /// cover the disorder and nothing is ever late.
    fn side(&self, left: bool) -> Vec<Event> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, (l, ..))| *l == left)
            .map(|(i, (_, hot_die, raw, jitter))| {
                let id = if *hot_die < 7 {
                    if raw % 2 == 0 {
                        self.hot.0
                    } else {
                        self.hot.1
                    }
                } else {
                    *raw
                };
                let base = Timestamp(i as i64 * 30_000);
                let ts = if self.lag_min == 0 {
                    base
                } else {
                    base.saturating_add(Duration::from_minutes(jitter % (self.lag_min + 1)))
                };
                Event::new(EventType(u16::from(left)), id, ts, (i % 7) as f64)
            })
            .collect()
    }
}

/// Build and run the case's keyed-join pipeline with `shards` instances.
fn run_case(case: &Case, shards: usize, theta: JoinPredicate) -> (RunReport, SinkId) {
    let mut g = GraphBuilder::new();
    let src = |events: Vec<Event>| {
        SourceConfig::new(events)
            .with_watermark_every(case.watermark_every)
            .with_watermark_lag(Duration::from_minutes(case.lag_min))
    };
    let l = g.source_with("l", src(case.side(true)), 1);
    let r = g.source_with("r", src(case.side(false)), 1);
    let (size, slide) = case.win;
    let join = g.nary(
        &[(l, Exchange::Hash), (r, Exchange::Hash)],
        shards,
        Box::new(move |_| {
            Box::new(WindowJoinOp::new(
                "⋈",
                SlidingWindows::new(Duration::from_minutes(size), Duration::from_minutes(slide)),
                theta.clone(),
                TsRule::Max,
            ))
        }),
    );
    if shards > 1 {
        g.shard_node(join);
    }
    let sink = g.sink(join, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig {
        batch_size: case.batch_size,
        // Hermetic against the CI env matrix: the oracle controls shard
        // counts through graph parallelism, not the env override.
        shards: None,
        env_errors: Vec::new(),
        // Aggressive cadences so migrations can strike mid-stream even in
        // runs lasting a few milliseconds.
        rebalance_interval: Some(StdDuration::from_millis(1)),
        idle_flush: StdDuration::from_millis(1),
        ..ExecutorConfig::default()
    })
    .run(g)
    .expect("shard oracle pipeline runs to completion");
    (report, sink)
}

/// One sink tuple, canonicalized: key, working ts, and full match identity.
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

fn late_dropped(report: &RunReport) -> u64 {
    report.nodes.iter().map(|n| n.late_dropped).sum()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// THE invariance oracle: 1, 2, and 8 shards (the latter two with the
    /// adaptive rebalancer live) agree on every random keyed pipeline.
    #[test]
    fn shard_count_is_invisible_in_the_sink(case in arb_case()) {
        let (r1, s1) = run_case(&case, 1, cross_join());
        let want = canon(&r1, s1);
        for shards in [2usize, 8] {
            let (rn, sn) = run_case(&case, shards, cross_join());
            prop_assert_eq!(rn.sink_count(sn), r1.sink_count(s1), "shards={}", shards);
            prop_assert_eq!(&canon(&rn, sn), &want, "shards={}", shards);
            prop_assert_eq!(late_dropped(&rn), late_dropped(&r1), "shards={}", shards);
        }
    }
}

/// Forced-migration companion: two hot keys whose slots collide on the
/// same initial shard, paced so the rebalancer observes enough per-tick
/// traffic to act. The adaptive 8-shard run must (a) actually migrate and
/// (b) still match the single-instance reference exactly.
#[test]
fn adaptive_rebalancing_migrates_and_preserves_output() {
    let shards = 8u64;
    let hot_a = 1u32;
    let sa = slot_of(hot_a as u64);
    // A second hot key on the same initial shard (slots are dealt
    // round-robin: shard = slot % shards) but in a different slot, so the
    // rebalancer can split them.
    let hot_b = (2u32..10_000)
        .find(|&k| {
            let s = slot_of(k as u64);
            s != sa && s % shards == sa % shards
        })
        .expect("a colliding key exists");

    let n = 12_000usize;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..n {
        let id = match i % 10 {
            0..=3 => hot_a,
            4..=7 => hot_b,
            _ => 20_000 + (i as u32 % 24),
        };
        // 0.5 s per event-pair; value classes keep the cross product small.
        let ev = Event::new(
            EventType(u16::from(i % 2 == 0)),
            id,
            Timestamp((i as i64 / 2) * 500),
            (i / 2 % 40) as f64,
        );
        if i % 2 == 0 {
            left.push(ev);
        } else {
            right.push(ev);
        }
    }
    // Equality on the value class: selective enough that output volume
    // stays small while every window still produces matches.
    let theta: JoinPredicate =
        Arc::new(|l: &Tuple, r: &Tuple| l.head().map(|e| e.value) == r.head().map(|e| e.value));

    let build = |shards: usize| {
        let mut g = GraphBuilder::new();
        let src = |events: Vec<Event>| {
            SourceConfig::new(events)
                .with_watermark_every(32)
                // Paced so the run spans several rebalance ticks with
                // above-threshold per-tick traffic.
                .with_rate(100_000.0)
        };
        let l = g.source_with("l", src(left.clone()), 1);
        let r = g.source_with("r", src(right.clone()), 1);
        let theta = theta.clone();
        let join = g.nary(
            &[(l, Exchange::Hash), (r, Exchange::Hash)],
            shards,
            Box::new(move |_| {
                Box::new(WindowJoinOp::new(
                    "⋈",
                    SlidingWindows::tumbling(Duration::from_minutes(1)),
                    theta.clone(),
                    TsRule::Max,
                ))
            }),
        );
        if shards > 1 {
            g.shard_node(join);
        }
        let sink = g.sink(join, Exchange::Rebalance);
        (g, sink)
    };

    let run = |shards: usize, rebalance: Option<StdDuration>| {
        let (g, sink) = build(shards);
        let report = Executor::new(ExecutorConfig {
            shards: None,
            env_errors: Vec::new(),
            rebalance_interval: rebalance,
            idle_flush: StdDuration::from_millis(1),
            ..ExecutorConfig::default()
        })
        .run(g)
        .expect("skewed pipeline runs to completion");
        (report, sink)
    };

    let (r1, s1) = run(1, None);
    let (r8, s8) = run(8, Some(StdDuration::from_millis(10)));

    assert!(r1.sink_count(s1) > 0, "scenario must produce matches");
    assert_eq!(
        canon(&r8, s8),
        canon(&r1, s1),
        "adaptive 8-shard run diverged"
    );
    assert_eq!(late_dropped(&r8), 0);

    let migrations: u64 = r8.nodes.iter().map(|n| n.shard_migrations).sum();
    assert!(
        migrations >= 1,
        "skewed paced run must trigger at least one migration (got {})",
        migrations
    );
}

/// End-race companion: a stream short enough that migrations publish while
/// the sources are running out, so the drain races the channels' `End`s
/// and the deferred-`End` promotion path (see `asp::sim::config_end_race`,
/// which enumerates this race exhaustively) is exercised against the real
/// threaded runtime. Every attempt must match the single-instance
/// reference; across attempts, at least one must actually migrate.
#[test]
fn migration_racing_stream_end_preserves_output() {
    let shards = 4u64;
    let hot_a = 1u32;
    let sa = slot_of(hot_a as u64);
    let hot_b = (2u32..10_000)
        .find(|&k| {
            let s = slot_of(k as u64);
            s != sa && s % shards == sa % shards
        })
        .expect("a colliding key exists");

    // Short skewed stream: ~6k events at 100k ev/s per source lasts a few
    // rebalance ticks at most, so a migration that starts at all starts
    // near the end of the stream.
    let n = 6_000usize;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..n {
        // Each left/right pair shares one hot key, alternating pair-wise,
        // so both sides feed both hot slots and every window matches.
        let id = if (i / 2) % 2 == 0 { hot_a } else { hot_b };
        let ev = Event::new(
            EventType(u16::from(i % 2 == 0)),
            id,
            Timestamp((i as i64 / 2) * 500),
            (i / 2 % 40) as f64,
        );
        if i % 2 == 0 {
            left.push(ev);
        } else {
            right.push(ev);
        }
    }
    let theta: JoinPredicate =
        Arc::new(|l: &Tuple, r: &Tuple| l.head().map(|e| e.value) == r.head().map(|e| e.value));

    let run = |shards: usize, rebalance: Option<StdDuration>| {
        let mut g = GraphBuilder::new();
        let src = |events: Vec<Event>| {
            SourceConfig::new(events)
                .with_watermark_every(32)
                .with_rate(100_000.0)
        };
        let l = g.source_with("l", src(left.clone()), 1);
        let r = g.source_with("r", src(right.clone()), 1);
        let theta = theta.clone();
        let join = g.nary(
            &[(l, Exchange::Hash), (r, Exchange::Hash)],
            shards,
            Box::new(move |_| {
                Box::new(WindowJoinOp::new(
                    "⋈",
                    SlidingWindows::tumbling(Duration::from_minutes(1)),
                    theta.clone(),
                    TsRule::Max,
                ))
            }),
        );
        if shards > 1 {
            g.shard_node(join);
        }
        let sink = g.sink(join, Exchange::Rebalance);
        let report = Executor::new(ExecutorConfig {
            shards: None,
            env_errors: Vec::new(),
            rebalance_interval: rebalance,
            idle_flush: StdDuration::from_millis(1),
            ..ExecutorConfig::default()
        })
        .run(g)
        .expect("end-race pipeline runs to completion");
        (report, sink)
    };

    let (r1, s1) = run(1, None);
    let want = canon(&r1, s1);
    assert!(r1.sink_count(s1) > 0, "scenario must produce matches");

    let mut migrated = false;
    for attempt in 0..10 {
        let (r4, s4) = run(4, Some(StdDuration::from_millis(5)));
        assert_eq!(
            canon(&r4, s4),
            want,
            "end-race run diverged (attempt {attempt})"
        );
        assert_eq!(late_dropped(&r4), late_dropped(&r1));
        if r4.nodes.iter().map(|n| n.shard_migrations).sum::<u64>() >= 1 {
            migrated = true;
            break;
        }
    }
    assert!(
        migrated,
        "no attempt migrated — the race window was never exercised"
    );
}
