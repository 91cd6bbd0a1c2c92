//! Tests of the `invariant-checks` feature: a task that breaks the
//! watermark contract must abort the pipeline with a diagnosable panic
//! instead of silently producing wrong (late) results downstream.

#![cfg(feature = "invariant-checks")]
#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder};
use asp::operator::{Collector, MapOp, Operator};
use asp::runtime::{Executor, ExecutorConfig};
use asp::time::Timestamp;
use asp::tuple::Tuple;
use asp::OpError;

fn events(n: i64) -> Vec<Event> {
    (0..n)
        .map(|m| Event::new(EventType(0), 1, Timestamp::from_minutes(m), m as f64))
        .collect()
}

/// A well-behaved pipeline runs to completion with the checks enabled.
#[test]
fn clean_pipeline_passes_invariant_checks() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(500), 1);
    let m = g.unary(
        src,
        Exchange::Rebalance,
        2,
        Box::new(|_| Box::new(MapOp::new("id", Arc::new(|t| t)))),
    );
    let sink = g.sink(m, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 500);
}

/// An operator that forwards watermarks honestly but pins every emitted
/// tuple to t=0 — emitting behind its own broadcast watermark.
struct TimeTraveler;

impl Operator for TimeTraveler {
    fn process(
        &mut self,
        _input: usize,
        mut tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        tuple.ts = Timestamp(0);
        out.emit(tuple);
        Ok(())
    }
    fn name(&self) -> &str {
        "time-traveler"
    }
}

#[test]
fn emission_behind_watermark_aborts_the_run() {
    let mut g = GraphBuilder::new();
    // Frequent watermarks so the contract floor rises during the run.
    use asp::graph::SourceConfig;
    let cfg = SourceConfig::new(events(2000)).with_watermark_every(8);
    let src = g.source_with("s", cfg, 1);
    // Parallelism 2 prevents chaining (a 1→2 edge is not fusible), so the
    // rogue operator runs in its own task with its own collector floor —
    // fused into the source it would inherit the source exemption instead.
    let bad = g.unary(
        src,
        Exchange::Rebalance,
        2,
        Box::new(|_| Box::new(TimeTraveler)),
    );
    let _sink = g.counting_sink(bad, Exchange::Rebalance);
    let err = Executor::new(ExecutorConfig::default()).run(g).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("invariant violation"), "got: {msg}");
}

/// Sources are exempt from the emission-floor contract: with an
/// under-estimated `watermark_lag` they legitimately emit tuples behind
/// their own watermark, and `drop_late` at the next *operator* task is the
/// degradation path. When operator chaining fuses the whole pipeline into
/// the source task, no such task exists before the sink — so the sink must
/// accept the late tuples rather than flag a (false) contract violation.
/// Regression test: found by the columnar oracle.
#[test]
fn late_tuples_from_a_fused_source_chain_reach_the_sink() {
    use asp::graph::SourceConfig;
    // Punctuation every 2 events with zero lag: after ts=39min the source
    // watermark is 39min, making the ts=27min event behind it late.
    let disordered: Vec<Event> = [10i64, 39, 27, 40]
        .iter()
        .map(|&m| Event::new(EventType(0), 0, Timestamp::from_minutes(m), 1.0))
        .collect();
    let mut g = GraphBuilder::new();
    let src = g.source_with(
        "s",
        SourceConfig::new(disordered).with_watermark_every(2),
        1,
    );
    // Forward + equal parallelism: the map fuses into the source task, so
    // nothing between the source and the sink applies `drop_late`.
    let op = g.unary(
        src,
        Exchange::Forward,
        1,
        Box::new(|_| Box::new(MapOp::identity("id"))),
    );
    let sink = g.sink(op, Exchange::Forward);
    let report = Executor::new(ExecutorConfig {
        batch_size: 1,
        operator_chaining: true,
        ..ExecutorConfig::default()
    })
    .run(g)
    .expect("late tuples on a source-fed sink port are not a violation");
    assert_eq!(report.sink_count(sink), 4);
}
