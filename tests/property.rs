//! Property-based cross-engine testing: random streams × random patterns,
//! all three evaluators must agree on the deduplicated match set.
//!
//! This is the strongest correctness evidence in the repository: the
//! oracle implements the paper's formal semantics (Equations 3–14)
//! literally; the NFA engine and the mapped ASP plans are independent
//! implementations with entirely different execution models (stateful
//! automaton vs decomposed window joins), so agreement across thousands of
//! random cases pins the mapping's semantic-equivalence claim.

use std::collections::HashMap;

use asp::event::{Attr, Event, EventType};
use asp::runtime::{Executor, ExecutorConfig};
use asp::time::Timestamp;
use asp::tuple::MatchKey;
use cep::BaselineConfig;
use cep2asp::exec::{dedup_sorted, run_pattern, split_by_type};
use cep2asp::{MapperOptions, PhysicalConfig};
use proptest::prelude::*;
use sea::pattern::{builders, Leaf, Pattern, WindowSpec};
use sea::predicate::{CmpOp, Predicate};

const TYPES: [(EventType, &str); 3] = [
    (EventType(0), "A"),
    (EventType(1), "B"),
    (EventType(2), "C"),
];

fn arb_event() -> impl Strategy<Value = Event> {
    (0u16..3, 0u32..3, 0i64..40, 0u32..100).prop_map(|(t, id, minute, v)| {
        Event::new(EventType(t), id, Timestamp::from_minutes(minute), v as f64)
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(arb_event(), 5..60)
}

#[derive(Debug, Clone)]
enum PatternShape {
    Seq(Vec<usize>),
    And(Vec<usize>),
    Iter {
        t: usize,
        m: usize,
        pairwise: bool,
    },
    Nseq {
        first: usize,
        absent: usize,
        last: usize,
    },
}

fn arb_shape() -> impl Strategy<Value = PatternShape> {
    prop_oneof![
        proptest::collection::vec(0usize..3, 2..4).prop_map(PatternShape::Seq),
        proptest::collection::vec(0usize..3, 2..3).prop_map(PatternShape::And),
        (0usize..3, 2usize..4, any::<bool>()).prop_map(|(t, m, pairwise)| PatternShape::Iter {
            t,
            m,
            pairwise
        }),
        (0usize..3, 0usize..3, 0usize..3)
            .prop_filter("absent must differ from first", |(f, a, _)| f != a)
            .prop_map(|(first, absent, last)| PatternShape::Nseq {
                first,
                absent,
                last
            }),
    ]
}

fn make_pattern(shape: &PatternShape, w_minutes: i64, threshold: f64) -> Pattern {
    let w = WindowSpec::minutes(w_minutes);
    match shape {
        PatternShape::Seq(ts) => {
            let types: Vec<_> = ts.iter().map(|&i| TYPES[i]).collect();
            let preds = vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, threshold)];
            builders::seq(&types, w, preds)
        }
        PatternShape::And(ts) => {
            let types: Vec<_> = ts.iter().map(|&i| TYPES[i]).collect();
            builders::and(&types, w, vec![])
        }
        PatternShape::Iter { t, m, pairwise } => {
            let (etype, name) = TYPES[*t];
            let preds = if *pairwise {
                (0..m - 1)
                    .map(|i| Predicate::cross(i, Attr::Value, CmpOp::Lt, i + 1, Attr::Value))
                    .collect()
            } else {
                vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, threshold)]
            };
            builders::iter(etype, name, *m, w, preds)
        }
        PatternShape::Nseq {
            first,
            absent,
            last,
        } => builders::nseq(
            TYPES[*first],
            Leaf::new(TYPES[*absent].0, TYPES[*absent].1, "n").with_filter(
                Attr::Value,
                CmpOp::Gt,
                threshold,
            ),
            TYPES[*last],
            w,
            vec![],
        ),
    }
}

fn oracle_matches(p: &Pattern, events: &[Event]) -> Vec<MatchKey> {
    sea::oracle::evaluate(p, events)
        .into_iter()
        .map(MatchKey)
        .collect()
}

fn fasp_matches(
    p: &Pattern,
    opts: &MapperOptions,
    sources: &HashMap<EventType, Vec<Event>>,
) -> Vec<MatchKey> {
    run_pattern(
        p,
        opts,
        sources,
        &PhysicalConfig::default(),
        &ExecutorConfig::default(),
    )
    .expect("mapped run")
    .dedup_matches()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    /// The mapped plan (plain, O1, O3, O1+O3) equals the formal oracle on
    /// random streams and patterns; optionally with a random equi-key
    /// predicate so keyed, global, and mixed join chains are all hit.
    #[test]
    fn fasp_equals_oracle(
        events in arb_stream(),
        shape in arb_shape(),
        w in 2i64..8,
        threshold in 10.0f64..90.0,
        add_key in any::<bool>(),
    ) {
        let mut pattern = make_pattern(&shape, w, threshold);
        if add_key && pattern.positions() >= 2 {
            let mut preds = pattern.predicates.clone();
            preds.push(Predicate::same_id(pattern.positions() - 2, pattern.positions() - 1));
            pattern = Pattern::new(
                pattern.name.clone(), pattern.expr.clone(), pattern.window, preds,
            ).expect("valid");
        }
        let sources = split_by_type(&events);
        let oracle = oracle_matches(&pattern, &events);
        for (label, opts) in [
            ("plain", MapperOptions::plain()),
            ("O1", MapperOptions::o1()),
            ("O3", MapperOptions::o3()),
            ("O1+O3", MapperOptions::o1().and_o3()),
        ] {
            let got = fasp_matches(&pattern, &opts, &sources);
            prop_assert_eq!(&got, &oracle, "{} mapping vs oracle", label);
        }
    }

    /// The NFA baseline equals the oracle for the operators it supports.
    #[test]
    fn fcep_equals_oracle(
        events in arb_stream(),
        shape in arb_shape(),
        w in 2i64..8,
        threshold in 10.0f64..90.0,
    ) {
        let pattern = make_pattern(&shape, w, threshold);
        if matches!(shape, PatternShape::And(_)) {
            return Ok(()); // FCEP does not support conjunction (Table 2).
        }
        let sources = split_by_type(&events);
        let oracle = oracle_matches(&pattern, &events);
        let (g, sink) = cep::build_baseline(&pattern, &sources, &BaselineConfig::default())
            .expect("supported pattern");
        let mut report = Executor::new(ExecutorConfig::default()).run(g).expect("run");
        let fcep = dedup_sorted(&report.take_sink(sink));
        prop_assert_eq!(&fcep, &oracle);
    }

    /// Interval joins are duplicate-free while producing the same match
    /// set (the O1 claim of Section 4.3.1).
    #[test]
    fn interval_join_is_duplicate_free(
        events in arb_stream(),
        ts in proptest::collection::vec(0usize..3, 2..3),
        w in 2i64..8,
    ) {
        // Byte-identical events would produce legitimately identical
        // matches that the dedup view cannot distinguish from window
        // duplicates; the claim under test is about *window overlap* only.
        let mut events = events;
        events.sort_by_key(|e| (e.ts, e.etype, e.id, e.value.to_bits()));
        events.dedup();
        let types: Vec<_> = ts.iter().map(|&i| TYPES[i]).collect();
        let pattern = builders::seq(&types, WindowSpec::minutes(w), vec![]);
        let sources = split_by_type(&events);
        let run = run_pattern(
            &pattern,
            &MapperOptions::o1(),
            &sources,
            &PhysicalConfig::default(),
            &ExecutorConfig::default(),
        ).expect("o1 run");
        let raw = run.raw_count() as usize;
        let dedup = run.dedup_matches().len();
        prop_assert_eq!(raw, dedup, "O1 must not emit duplicates");
    }

    /// Theorem 1+2 as a property: with slide = stream granularity, the
    /// windowed evaluation loses no match and invents none — encoded by
    /// comparing the oracle against a direct span-based enumerator for
    /// binary sequences.
    #[test]
    fn window_discretization_preserves_matches(
        events in arb_stream(),
        w in 2i64..8,
    ) {
        let pattern = builders::seq(
            &[TYPES[0], TYPES[1]],
            WindowSpec::minutes(w),
            vec![],
        );
        let oracle = oracle_matches(&pattern, &events);
        // Direct enumeration from the definition: pairs (a, b) with
        // a ∈ A, b ∈ B, a.ts < b.ts, b.ts − a.ts < W.
        let w_ms = w * asp::time::MINUTE_MS;
        let mut direct: Vec<MatchKey> = Vec::new();
        for a in events.iter().filter(|e| e.etype == TYPES[0].0) {
            for b in events.iter().filter(|e| e.etype == TYPES[1].0) {
                if a.ts < b.ts && (b.ts - a.ts).millis() < w_ms {
                    direct.push(MatchKey(vec![*a, *b]));
                }
            }
        }
        direct.sort();
        direct.dedup();
        prop_assert_eq!(oracle, direct);
    }

    /// Mirror of the graph-validator property for the plan layer: every
    /// plan `translate` produces — across plain, O1, O2, and O3 — is clean
    /// under [`cep2asp::typecheck()`]. (The optimizations rewrite windowing,
    /// partitioning, and aggregation; none may break a plan invariant.)
    #[test]
    fn translated_plans_are_lint_clean(
        shape in arb_shape(),
        w in 2i64..8,
        threshold in 10.0f64..90.0,
        add_key in any::<bool>(),
    ) {
        let mut pattern = make_pattern(&shape, w, threshold);
        if add_key && pattern.positions() >= 2 {
            let mut preds = pattern.predicates.clone();
            preds.push(Predicate::same_id(pattern.positions() - 2, pattern.positions() - 1));
            pattern = Pattern::new(
                pattern.name.clone(), pattern.expr.clone(), pattern.window, preds,
            ).expect("valid");
        }
        for (label, opts) in [
            ("plain", MapperOptions::plain()),
            ("O1", MapperOptions::o1()),
            ("O2", MapperOptions::o2()),
            ("O3", MapperOptions::o3()),
            ("O1+O3", MapperOptions::o1().and_o3()),
        ] {
            let plan = cep2asp::translate(&pattern, &opts).expect("translates");
            let checked = cep2asp::typecheck(&plan);
            prop_assert!(
                checked.is_clean(),
                "{} plan fails typecheck: {}",
                label,
                checked.render(),
            );
        }
    }
}
