//! Semantic oracle for the shared-subplan optimizer: random batches of
//! 2–8 patterns run through [`cep2asp::run_patterns_with`] — which interns
//! structurally equal subtrees into one DAG and fans shared results out to
//! every consumer — must produce, for **every** pattern in the batch,
//! exactly the deduplicated matches of that pattern's solo run. The solo
//! run never sees the sharing pass, so any divergence is a sharing bug by
//! construction: a canonical key that merged two behaviorally different
//! subtrees, a fan-out edge that dropped or duplicated a consumer, or
//! stats/watermark plumbing that leaked between patterns.
//!
//! The grid multiplies random pattern batches by micro-batch sizes
//! {1, 64}; the `Arc`ed broadcast fast path engages on full batches, and
//! the per-route gather path takes the rest. Each case also checks the
//! accounting contract: the number of source events the runtime actually
//! ingested equals the DAG's static prediction
//! ([`cep2asp::ShareReport::expected_source_events`]), i.e. merged scans
//! really were lowered once.

#![allow(clippy::unwrap_used)] // test code

use asp::event::{Attr, Event, EventType};
use asp::runtime::ExecutorConfig;
use asp::time::Timestamp;
use cep2asp::exec::{run_pattern, split_by_type};
use cep2asp::{
    run_patterns_with, shared_catalog, MapperOptions, MultiOptions, PatternJob, PhysicalConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sea::pattern::{builders, Pattern, WindowSpec};
use sea::predicate::{CmpOp, Predicate};

/// One generatable pattern: shape, adjacent type pair, window, and
/// optional predicates drawn from small sets so batches overlap heavily
/// (the regime the sharing pass exists for).
#[derive(Debug, Clone)]
struct PatSpec {
    /// false = SEQ, true = AND.
    and: bool,
    /// First leaf type (0..3); second is the next type mod 3.
    first: u16,
    window_minutes: i64,
    /// Optional value threshold on the first leaf: (Le?, constant).
    threshold: Option<(bool, u32)>,
    /// Equi-join on ids (enables O3 keying for AND shapes).
    same_id: bool,
}

impl PatSpec {
    fn build(&self) -> (Pattern, MapperOptions) {
        let a = EventType(self.first);
        let b = EventType((self.first + 1) % 3);
        let mut preds = Vec::new();
        if let Some((le, c)) = self.threshold {
            let op = if le { CmpOp::Le } else { CmpOp::Ge };
            preds.push(Predicate::threshold(0, Attr::Value, op, c as f64));
        }
        if self.same_id {
            preds.push(Predicate::same_id(0, 1));
        }
        let window = WindowSpec::minutes(self.window_minutes);
        let leaves = [(a, "A"), (b, "B")];
        let (pattern, opts) = if self.and {
            let opts = if self.same_id {
                MapperOptions::o1().and_o3()
            } else {
                MapperOptions::o1()
            };
            (builders::and(&leaves, window, preds), opts)
        } else {
            (builders::seq(&leaves, window, preds), MapperOptions::o1())
        };
        (pattern, opts)
    }
}

fn arb_pat() -> impl Strategy<Value = PatSpec> {
    (
        any::<bool>(),
        0u16..3,
        2i64..7,
        prop_oneof![
            Just(None),
            (any::<bool>(), prop_oneof![Just(30u32), Just(50), Just(70)]).prop_map(Some),
        ],
        any::<bool>(),
    )
        .prop_map(|(and, first, window_minutes, threshold, same_id)| PatSpec {
            and,
            first,
            window_minutes,
            threshold,
            same_id,
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u16..3, 0u32..3, 0i64..45, 0u32..100).prop_map(|(t, id, minute, v)| {
        Event::new(EventType(t), id, Timestamp::from_minutes(minute), v as f64)
    })
}

#[derive(Debug, Clone)]
struct Case {
    pats: Vec<PatSpec>,
    events: Vec<Event>,
    batch_size: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(arb_pat(), 2..9),
        proptest::collection::vec(arb_event(), 30..120),
        prop_oneof![Just(1usize), Just(64)],
    )
        .prop_map(|(pats, events, batch_size)| Case {
            pats,
            events,
            batch_size,
        })
}

fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let sources = split_by_type(&case.events);
    let built: Vec<(Pattern, MapperOptions)> = case.pats.iter().map(PatSpec::build).collect();
    let jobs: Vec<PatternJob> = built
        .iter()
        .enumerate()
        .map(|(i, (p, o))| PatternJob::new(format!("p{i}"), p.clone(), o.clone()))
        .collect();
    let exec = ExecutorConfig {
        batch_size: case.batch_size,
        ..ExecutorConfig::default()
    };
    let phys = PhysicalConfig::default();
    let multi = run_patterns_with(
        &jobs,
        &shared_catalog(&sources),
        &phys,
        &exec,
        &MultiOptions::default(),
    )
    .expect("multi run succeeds");

    // Accounting: the runtime ingested exactly what the shared DAG's
    // lowered scans predict — no scan ran twice, none was skipped.
    prop_assert_eq!(
        multi.report.source_events,
        multi.share.expected_source_events,
        "source volume must match the DAG prediction: {:?}",
        multi.share
    );

    // Semantics: each pattern's canonical matches equal its solo run.
    for (i, (pattern, opts)) in built.iter().enumerate() {
        let solo = run_pattern(pattern, opts, &sources, &phys, &exec).expect("solo run succeeds");
        prop_assert_eq!(
            multi.dedup_matches(&format!("p{i}")),
            solo.dedup_matches(),
            "pattern p{} diverged under sharing ({:?})",
            i,
            case.pats[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// THE sharing oracle: every pattern of a random shared batch agrees
    /// with its solo run, at batch sizes {1, 64}.
    #[test]
    fn shared_batches_agree_with_solo_runs(case in arb_case()) {
        check_case(&case)?;
    }
}

/// Deterministic sharing × sharding pin: two keyed (O3) patterns whose
/// scans and join merge, lowered with shard groups — the merged DAG must
/// still honor the typechecker's per-node shard-safety verdicts, and a
/// third non-identical pattern keeps partial overlap in play.
#[test]
fn sharing_composes_with_sharded_keyed_joins() {
    let events: Vec<Event> = (0..60i64)
        .flat_map(|m| {
            (0..3u32).flat_map(move |id| {
                [
                    Event::new(
                        EventType(0),
                        id,
                        Timestamp::from_minutes(m),
                        ((m * 11 + id as i64) % 100) as f64,
                    ),
                    Event::new(
                        EventType(1),
                        id,
                        Timestamp::from_minutes(m),
                        ((m * 17 + id as i64) % 100) as f64,
                    ),
                ]
            })
        })
        .collect();
    let sources = split_by_type(&events);
    let keyed = builders::and(
        &[(EventType(0), "A"), (EventType(1), "B")],
        WindowSpec::minutes(4),
        vec![Predicate::same_id(0, 1)],
    );
    let wider = builders::and(
        &[(EventType(0), "A"), (EventType(1), "B")],
        WindowSpec::minutes(6),
        vec![Predicate::same_id(0, 1)],
    );
    let opts = MapperOptions::o1().and_o3();
    let jobs = vec![
        PatternJob::new("k1", keyed.clone(), opts.clone()),
        PatternJob::new("k2", keyed.clone(), opts.clone()),
        PatternJob::new("wide", wider.clone(), opts.clone()),
    ];
    let phys = PhysicalConfig {
        shards: Some(2),
        ..PhysicalConfig::default()
    };
    let exec = ExecutorConfig::default();
    let multi = run_patterns_with(
        &jobs,
        &shared_catalog(&sources),
        &phys,
        &exec,
        &MultiOptions::default(),
    )
    .expect("sharded multi run succeeds");

    // k1/k2 are identical: their whole pipeline (scans + keyed join)
    // interns to one subtree; "wide" shares the scans only.
    assert!(multi.share.scans_saved() >= 3, "{:?}", multi.share);
    assert_eq!(
        multi.report.source_events,
        multi.share.expected_source_events
    );
    assert_eq!(multi.dedup_matches("k1"), multi.dedup_matches("k2"));
    for (name, pattern) in [("k1", &keyed), ("wide", &wider)] {
        let solo = run_pattern(pattern, &opts, &sources, &phys, &exec).unwrap();
        assert_eq!(
            multi.dedup_matches(name),
            solo.dedup_matches(),
            "{name} diverged under sharing+sharding"
        );
        assert!(
            !multi.dedup_matches(name).is_empty(),
            "{name} found matches"
        );
    }
}

/// Delegates to the wrapped operator and fails with
/// [`asp::OpError::Failed`] at its `k`-th input tuple, whether the tuples
/// arrive one by one or as a columnar batch.
struct FailAt {
    inner: Box<dyn asp::operator::Operator>,
    left: u64,
}

impl FailAt {
    fn count(&mut self, n: usize) -> Result<(), asp::OpError> {
        self.left = self.left.saturating_sub(n as u64);
        if self.left == 0 {
            return Err(asp::OpError::Failed {
                operator: "fail_at".to_string(),
                reason: "injected failure".to_string(),
            });
        }
        Ok(())
    }
}

impl asp::operator::Operator for FailAt {
    fn process(
        &mut self,
        input: usize,
        tuple: asp::tuple::Tuple,
        out: &mut dyn asp::operator::Collector,
    ) -> Result<(), asp::OpError> {
        self.count(1)?;
        self.inner.process(input, tuple, out)
    }
    fn batch_support(&self) -> asp::operator::BatchSupport {
        self.inner.batch_support()
    }
    fn process_columnar(
        &mut self,
        input: usize,
        batch: &mut asp::columnar::ColumnarBatch,
    ) -> Result<(), asp::OpError> {
        self.count(batch.selected_len())?;
        self.inner.process_columnar(input, batch)
    }
    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn asp::operator::Collector,
    ) -> Result<Timestamp, asp::OpError> {
        self.inner.on_watermark(wm, out)
    }
    fn on_finish(&mut self, out: &mut dyn asp::operator::Collector) -> Result<(), asp::OpError> {
        self.inner.on_finish(out)
    }
    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
    fn name(&self) -> &str {
        "fail_at"
    }
}

/// Fault injection inside a multi-pattern DAG: the first operator of a
/// `build_multi_pipeline` graph (a scan every pattern reads when sharing
/// is on, one pattern's own scan when it is off) fails at its 50th tuple.
/// With sharing on and off, at batch sizes 1 and 64, the run must return
/// [`asp::PipelineError::Operator`] within 10 s while the rest of the DAG
/// and its sinks are live.
#[test]
fn operator_failure_inside_a_shared_dag_is_a_prompt_typed_error() {
    let events: Vec<Event> = (0..60i64)
        .flat_map(|m| {
            (0..3u32).flat_map(move |id| {
                (0..3u16).map(move |t| {
                    Event::new(
                        EventType(t),
                        id,
                        Timestamp::from_minutes(m),
                        ((m * 7 + id as i64 + t as i64) % 50) as f64,
                    )
                })
            })
        })
        .collect();
    let sources = split_by_type(&events);
    let specs = [
        PatSpec {
            and: false,
            first: 0,
            window_minutes: 5,
            threshold: None,
            same_id: false,
        },
        PatSpec {
            and: true,
            first: 0,
            window_minutes: 5,
            threshold: Some((true, 30)),
            same_id: true,
        },
        PatSpec {
            and: false,
            first: 1,
            window_minutes: 3,
            threshold: None,
            same_id: true,
        },
    ];
    let plans: Vec<cep2asp::LogicalPlan> = specs
        .iter()
        .map(|s| {
            let (p, o) = s.build();
            cep2asp::translate(&p, &o).unwrap()
        })
        .collect();
    let named: Vec<(&str, &cep2asp::LogicalPlan)> = plans.iter().map(|p| ("p", p)).collect();
    for share in [true, false] {
        for batch_size in [1usize, 64] {
            let ctx = format!("share={share} batch_size={batch_size}");
            let mut built = cep2asp::build_multi_pipeline(
                &named,
                &shared_catalog(&sources),
                &PhysicalConfig::default(),
                share,
            )
            .unwrap();
            let first_op = (0..built.graph.node_count())
                .find(|&i| {
                    built
                        .graph
                        .wrap_operator(i, |inner| Box::new(FailAt { inner, left: 50 }))
                })
                .expect("the DAG has an operator");
            let (tx, rx) = std::sync::mpsc::channel();
            let graph = built.graph;
            std::thread::spawn(move || {
                let result = asp::runtime::Executor::new(ExecutorConfig {
                    batch_size,
                    channel_capacity: 4,
                    ..ExecutorConfig::default()
                })
                .run(graph);
                let _ = tx.send(result.map(|r| r.source_events));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(Err(asp::PipelineError::Operator(asp::OpError::Failed {
                    operator, ..
                }))) => {
                    assert_eq!(operator, "fail_at", "{ctx} (node {first_op})")
                }
                Ok(other) => panic!("{ctx}: expected an operator error, got {other:?}"),
                Err(_) => panic!("{ctx}: run did not return within 10 s"),
            }
        }
    }
}
