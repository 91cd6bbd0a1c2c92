//! Equivalence oracle for the columnar operator path: random stateless
//! pipelines (spec filters, declarative maps, closure filters, unions) ×
//! batch sizes × watermark cadences, each executed twice — as built, and
//! as a *row-shim twin* whose every stage is wrapped to declare
//! [`BatchSupport::Row`], so the runtime drives it one materialized tuple
//! at a time through [`Operator::process`]. The two runs must deliver the
//! identical sink multiset — same matches ([`MatchKey`]), same keys and
//! working timestamps — and the same late-drop accounting.
//!
//! The wrapper is the *only* difference between the runs, so any
//! divergence is a bug in the vectorized path (`process_columnar`, batch
//! routing, selection-vector compaction). Closure stages force the row
//! shim mid-pipeline in the as-built run too, so mixed chains (vectorized
//! σ feeding a row-only op and back) are covered. Cases whose watermark
//! lag covers the whole stream (nothing is ever late) are additionally
//! checked against a naive single-threaded fold of the stages over the
//! events, with no runtime involved.
//!
//! The file also pins the G016 contract: an operator that *declares*
//! columnar support but rejects its payload at runtime surfaces as a
//! [`Code::ColumnarPayloadMismatch`] validation error, not a panic or a
//! silent row fallback.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::columnar::ColumnarBatch;
use asp::error::{OpError, PipelineError};
use asp::event::{Attr, Event, EventType};
use asp::graph::{Exchange, GraphBuilder, SourceConfig};
use asp::operator::{
    BatchSupport, Cmp, Collector, FilterOp, FilterSpec, MapOp, Operator, UnionOp, VecCollector,
};
use asp::runtime::{Executor, ExecutorConfig, RunReport};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, Tuple};
use asp::validate::Code;
use proptest::prelude::*;

const CMPS: [Cmp; 6] = [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne];

/// One stateless pipeline stage, as generatable data.
#[derive(Debug, Clone)]
enum Stage {
    /// Declarative filter — vectorizes.
    Spec {
        etype: Option<u16>,
        clauses: Vec<(usize, usize, f64)>, // (Attr::ALL idx, CMPS idx, const)
    },
    /// Closure filter with the same semantics — row path only, forcing
    /// the shim when it appears in an otherwise columnar pipeline.
    Closure { threshold: f64 },
    /// Declarative map kind: 0 = identity, 1 = uniform key, 2 = key by
    /// head event id, 3 = ts→max, 4 = ts→min.
    Map(u8),
}

impl Stage {
    fn build(&self, n: usize) -> Box<dyn Operator> {
        match self.clone() {
            Stage::Spec { etype, clauses } => {
                let mut spec = FilterSpec {
                    etype: etype.map(EventType),
                    clauses: Vec::new(),
                };
                for (a, c, k) in clauses {
                    spec = spec.clause(Attr::ALL[a], CMPS[c], k);
                }
                Box::new(FilterOp::with_spec(format!("σ{n}"), spec))
            }
            Stage::Closure { threshold } => Box::new(FilterOp::new(
                format!("σc{n}"),
                Arc::new(move |t: &Tuple| t.head().is_some_and(|e| e.value >= threshold)),
            )),
            Stage::Map(0) => Box::new(MapOp::identity(format!("Π{n}"))),
            Stage::Map(1) => Box::new(MapOp::uniform_key(format!("Π{n}"), 7)),
            Stage::Map(2) => Box::new(MapOp::key_by_event_id(format!("Π{n}"), 0)),
            Stage::Map(3) => Box::new(MapOp::ts_to_max(format!("Π{n}"))),
            Stage::Map(_) => Box::new(MapOp::ts_to_min(format!("Π{n}"))),
        }
    }
}

/// Delegates everything to the wrapped operator but declares
/// [`BatchSupport::Row`], so the runtime never calls `process_columnar`
/// and feeds the operator through the row shim instead.
struct RowShim(Box<dyn Operator>);

impl Operator for RowShim {
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        self.0.process(input, tuple, out)
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        self.0.on_watermark(wm, out)
    }

    fn on_finish(&mut self, out: &mut dyn Collector) -> Result<(), OpError> {
        self.0.on_finish(out)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Wrap `op` in a [`RowShim`] when building the row-shim twin.
fn shimmed(op: Box<dyn Operator>, row_shim: bool) -> Box<dyn Operator> {
    if row_shim {
        Box::new(RowShim(op))
    } else {
        op
    }
}

#[derive(Debug, Clone)]
struct Case {
    events: Vec<Event>,
    stages: Vec<Stage>,
    /// Merge the stream with its second half through a ∪ first.
    union: bool,
    batch_size: usize,
    watermark_every: usize,
    lag_minutes: i64,
    chaining: bool,
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u16..3, 0u32..4, 0i64..40, 0u32..100).prop_map(|(t, id, minute, v)| {
        Event::new(EventType(t), id, Timestamp::from_minutes(minute), v as f64)
    })
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (
            // 3 encodes "no etype gate".
            (0u16..4).prop_map(|t| (t < 3).then_some(t)),
            proptest::collection::vec((0usize..3, 0usize..6, 0u32..100), 0..3)
        )
            .prop_map(|(etype, raw)| {
                let clauses = raw
                    .into_iter()
                    .map(|(a, c, k)| {
                        // Keep constants in the attribute's natural range so
                        // filters are neither all-pass nor all-drop.
                        let k = match Attr::ALL[a] {
                            Attr::Ts => Timestamp::from_minutes((k % 40) as i64).millis() as f64,
                            Attr::Id => (k % 4) as f64,
                            _ => k as f64,
                        };
                        (a, c, k)
                    })
                    .collect();
                Stage::Spec { etype, clauses }
            }),
        (0u32..100).prop_map(|t| Stage::Closure {
            threshold: t as f64
        }),
        (0u32..5).prop_map(|m| Stage::Map(m as u8)),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            proptest::collection::vec(arb_event(), 5..120),
            proptest::collection::vec(arb_stage(), 1..4),
            any::<bool>(),
        ),
        (
            prop_oneof![Just(1usize), Just(3), Just(64)],
            prop_oneof![Just(1usize), Just(7), Just(64)],
            prop_oneof![Just(0i64), Just(40)],
            any::<bool>(),
        ),
    )
        .prop_map(
            |((events, stages, union), (batch_size, watermark_every, lag_minutes, chaining))| {
                Case {
                    events,
                    stages,
                    union,
                    batch_size,
                    watermark_every,
                    lag_minutes,
                    chaining,
                }
            },
        )
}

/// Run the case's pipeline — as built, or as its row-shim twin — and
/// return the report + sink.
fn run_case(case: &Case, row_shim: bool) -> (RunReport, asp::graph::SinkId) {
    let mut g = GraphBuilder::new();
    let src_cfg = |events: Vec<Event>| {
        SourceConfig::new(events)
            .with_watermark_every(case.watermark_every)
            .with_watermark_lag(Duration::from_minutes(case.lag_minutes))
    };
    let head = if case.union {
        let mid = case.events.len() / 2;
        let a = g.source_with("a", src_cfg(case.events[..mid].to_vec()), 1);
        let b = g.source_with("b", src_cfg(case.events[mid..].to_vec()), 1);
        g.binary(
            a,
            b,
            Exchange::Forward,
            1,
            Box::new(move |_| shimmed(Box::new(UnionOp::new("∪", 2)), row_shim)),
        )
    } else {
        g.source_with("s", src_cfg(case.events.clone()), 1)
    };
    let mut node = head;
    for (n, stage) in case.stages.iter().enumerate() {
        let stage = stage.clone();
        node = g.unary(
            node,
            Exchange::Forward,
            1,
            Box::new(move |_| shimmed(stage.build(n), row_shim)),
        );
    }
    let sink = g.sink(node, Exchange::Forward);
    let report = Executor::new(ExecutorConfig {
        batch_size: case.batch_size,
        operator_chaining: case.chaining,
        ..ExecutorConfig::default()
    })
    .run(g)
    .expect("stateless oracle pipeline runs to completion");
    (report, sink)
}

/// The reference with no runtime at all: every event, as a row tuple,
/// folded through each stage's [`Operator::process`] in turn on one thread.
/// Equals the sink whenever nothing is late (the union only interleaves
/// the two halves, which a multiset cannot see).
fn naive_fold(case: &Case) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = case.events.iter().map(|e| Tuple::from_event(*e)).collect();
    for (n, stage) in case.stages.iter().enumerate() {
        let mut op = stage.build(n);
        let mut out = VecCollector::default();
        for t in rows {
            op.process(0, t, &mut out)
                .expect("stateless stages never fail");
        }
        rows = out.out;
    }
    rows
}

/// One sink tuple, canonicalized: (key, ts ms, ats ms, agg bits, match id).
type CanonRow = (u64, i64, Option<i64>, Option<u64>, MatchKey);

/// Canonical multiset of what reached the sink: match identity plus the
/// routing/timing metadata the stages rewrite (key, working ts, ats, agg).
/// Wall stamps are excluded — they are harness-clock readings and differ
/// across runs by construction.
fn canon(rows: &[Tuple]) -> Vec<CanonRow> {
    let mut out: Vec<_> = rows
        .iter()
        .map(|t| {
            (
                t.key,
                t.ts.millis(),
                t.ats.map(|a| a.millis()),
                t.agg.map(f64::to_bits),
                t.match_key(),
            )
        })
        .collect();
    out.sort();
    out
}

fn late_dropped(report: &RunReport) -> u64 {
    report.nodes.iter().map(|n| n.late_dropped).sum()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// THE equivalence oracle: the as-built pipeline agrees with its
    /// row-shim twin on every random stateless pipeline, batch size, and
    /// punctuation cadence — and with the naive fold when nothing is late.
    #[test]
    fn columnar_path_agrees_with_row_shim_twin_and_naive_fold(case in arb_case()) {
        let (rc, sc) = run_case(&case, false);
        let (rr, sr) = run_case(&case, true);
        prop_assert_eq!(rc.sink_count(sc), rr.sink_count(sr));
        prop_assert_eq!(canon(rc.sink(sc)), canon(rr.sink(sr)));
        prop_assert_eq!(late_dropped(&rc), late_dropped(&rr));
        if case.lag_minutes == 40 {
            // Events span minutes 0..40, so a 40-minute lag never lets a
            // watermark overtake an event.
            prop_assert_eq!(late_dropped(&rc), 0);
            prop_assert_eq!(canon(rc.sink(sc)), canon(&naive_fold(&case)));
        }
    }
}

/// An operator that *declares* columnar support but rejects every columnar
/// payload — the defect class G016 exists to surface.
struct LyingOp;

impl Operator for LyingOp {
    fn process(
        &mut self,
        _input: usize,
        tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        out.emit(tuple);
        Ok(())
    }

    fn batch_support(&self) -> BatchSupport {
        BatchSupport::Columnar
    }

    fn process_columnar(
        &mut self,
        _input: usize,
        _batch: &mut ColumnarBatch,
    ) -> Result<(), OpError> {
        Err(OpError::ColumnarUnsupported {
            operator: "liar".to_string(),
            detail: "declares columnar support but cannot honor it".to_string(),
        })
    }

    fn name(&self) -> &str {
        "liar"
    }
}

fn lying_graph(row_shim: bool) -> GraphBuilder {
    let events: Vec<Event> = (0..64)
        .map(|i| Event::new(EventType(0), i, Timestamp::from_minutes(i as i64), 1.0))
        .collect();
    let mut g = GraphBuilder::new();
    let src = g.source("s", events, 1);
    let op = g.unary(
        src,
        Exchange::Forward,
        1,
        Box::new(move |_| shimmed(Box::new(LyingOp), row_shim)),
    );
    let _sink = g.sink(op, Exchange::Forward);
    g
}

/// A columnar-declaring operator that rejects its payload at runtime is a
/// G016 validation error, attributable and typed — not a panic.
#[test]
fn rejected_columnar_payload_surfaces_as_g016() {
    let err = Executor::new(ExecutorConfig {
        batch_size: 16,
        operator_chaining: false,
        ..ExecutorConfig::default()
    })
    .run(lying_graph(false))
    .expect_err("the lying operator must fail the run");
    match err {
        PipelineError::Validation(diags) => {
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == Code::ColumnarPayloadMismatch),
                "expected a G016 diagnostic, got {diags:?}"
            );
        }
        other => panic!("expected a G016 validation error, got {other}"),
    }
}

/// The same operator is perfectly legal behind the row shim — its row
/// path works; only the columnar declaration is a lie.
#[test]
fn lying_operator_is_fine_behind_the_row_shim() {
    let report = Executor::new(ExecutorConfig {
        batch_size: 16,
        operator_chaining: false,
        ..ExecutorConfig::default()
    })
    .run(lying_graph(true))
    .expect("the row shim never exercises the columnar path");
    assert_eq!(report.source_events, 64);
}
