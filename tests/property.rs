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

/// Fragments the parser fuzz strings are assembled from: PSL keywords and
/// punctuation (so inputs get deep into the grammar), every comparison
/// operator spelling, and multibyte characters placed right where a byte
/// slice of the input would cut one in half.
const PSL_PIECES: [&str; 32] = [
    "PATTERN ",
    "SEQ",
    "AND",
    "OR",
    "NOT ",
    "ITER",
    "(",
    ")",
    ", ",
    "Q a",
    "V b",
    " WHERE ",
    "a.value",
    "b.id",
    "<",
    "<=",
    ">",
    ">=",
    "=",
    "==",
    "!",
    "!=",
    "<>",
    "3",
    "4.5",
    " WITHIN ",
    "4 MINUTES",
    "+",
    "é",
    "😀",
    "ß",
    "\u{301}",
];

fn arb_psl_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(0usize..PSL_PIECES.len(), 0..24)
            .prop_map(|ix| ix.into_iter().map(|i| PSL_PIECES[i]).collect::<String>()),
        // Arbitrary code points, surrogates replaced by U+FFFD.
        proptest::collection::vec(0u32..0x11_0000, 0..24).prop_map(|cs| {
            cs.into_iter()
                .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
                .collect::<String>()
        }),
    ]
}

/// Field fragments for CSV fuzzing: valid values next to the ones a lax
/// reader would saturate or truncate (negative or fractional ids, NaN,
/// infinities, out-of-range magnitudes), empty fields and non-ASCII text.
const CSV_FIELDS: [&str; 20] = [
    "Q",
    "V",
    "PM10",
    "17",
    "0",
    "-1",
    "4.7",
    "4294967296",
    "540000",
    "-540000",
    "1e300",
    "NaN",
    "inf",
    "-inf",
    "42.5",
    "",
    " 3 ",
    "é",
    "😀",
    "9223372036854775808",
];

/// Arbitrary CSV file contents: a header line then rows of 0–8 fields
/// drawn from [`CSV_FIELDS`], or arbitrary bytes (not necessarily UTF-8).
fn arb_csv_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(
            proptest::collection::vec(0usize..CSV_FIELDS.len(), 0..8),
            0..12,
        )
        .prop_map(|rows| {
            let mut text = String::from("type,id,lat,lon,ts_ms,value\n");
            for row in rows {
                let fields: Vec<&str> = row.into_iter().map(|i| CSV_FIELDS[i]).collect();
                text.push_str(&fields.join(","));
                text.push('\n');
            }
            text.into_bytes()
        }),
        proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        max_shrink_iters: 200,
    })]

    /// Bad CSV input gets an `io::Error`, never a panic: the reader
    /// returns on arbitrary lines, including out-of-range numbers and
    /// invalid UTF-8.
    #[test]
    fn csv_reader_never_panics_on_arbitrary_lines(bytes in arb_csv_bytes()) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cep2asp_csv_fuzz_{}_{}.csv",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).expect("write the fuzz input");
        let mut reg = workloads::registry();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            workloads::csv::read_stream(&path, &mut reg).map(|_| ())
        }));
        std::fs::remove_file(&path).ok();
        prop_assert!(
            outcome.is_ok(),
            "CSV reader panicked on {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }

    /// Bad pattern text gets a typed error, never a panic: the SEA parser
    /// returns (it may accept an input that happens to be valid) on
    /// arbitrary strings, including non-ASCII ones.
    #[test]
    fn sea_parser_never_panics_on_arbitrary_text(text in arb_psl_text()) {
        let mut reg = asp::event::TypeRegistry::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sea::parser::parse(&text, &mut reg).map(|_| ())
        }));
        prop_assert!(outcome.is_ok(), "parser panicked on {:?}", text);
    }
}

/// Name every leaf type `T<id>`, so a registry interning `T0, T1, …` in
/// order maps each rendered name back to its original [`EventType`] (the
/// builders reuse display names such as `A`/`B` for different types).
fn name_types_by_id(e: &mut sea::pattern::PatternExpr) {
    use sea::pattern::PatternExpr as E;
    let name = |l: &mut Leaf| l.type_name = format!("T{}", l.etype.0);
    match e {
        E::Leaf(l) | E::Iter { leaf: l, .. } => name(l),
        E::Seq(parts) | E::And(parts) | E::Or(parts) => parts.iter_mut().for_each(name_types_by_id),
        E::NegSeq {
            first,
            absent,
            last,
        } => [first, absent, last].into_iter().for_each(name),
    }
}

/// Render `p` with [`sea::parser::to_psl`], parse the text back, and
/// translate both under `opts`: the canonical keys of the two plans (or
/// the two translation errors) must agree.
fn assert_psl_round_trip(
    p: &Pattern,
    opts: &MapperOptions,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut named = p.clone();
    name_types_by_id(&mut named.expr);
    let text = sea::parser::to_psl(&named);
    let mut reg = asp::event::TypeRegistry::new();
    let top = p.expr.input_types().iter().map(|t| t.0).max().unwrap_or(0);
    for t in 0..=top {
        reg.intern(&format!("T{t}"));
    }
    let parsed = sea::parser::parse(&text, &mut reg).map_err(|e| {
        proptest::test_runner::TestCaseError::Fail(format!("{text:?} does not parse back: {e}"))
    })?;
    let key = |p: &Pattern| {
        cep2asp::translate(p, opts)
            .map(|plan| cep2asp::canonical_key(&plan.root))
            .map_err(|e| e.to_string())
    };
    prop_assert_eq!(key(&parsed), key(p), "round trip of {:?}", text);
    Ok(())
}

/// Every evaluation pattern under every mapper-option variant, and all
/// 1000 multi-pattern catalog variants under their own options, survive
/// print → parse with an unchanged canonical plan.
#[test]
fn psl_round_trip_keeps_suite_and_catalog_plans() {
    for (name, p) in bench::preflight::pattern_suite() {
        for (variant, opts) in bench::preflight::option_variants() {
            assert_psl_round_trip(&p, &opts)
                .unwrap_or_else(|e| panic!("{name} under {variant}: {e:?}"));
        }
    }
    for job in bench::multi::variant_catalog(1000) {
        assert_psl_round_trip(&job.pattern, &job.opts)
            .unwrap_or_else(|e| panic!("{}: {e:?}", job.name));
    }
}

/// A random 2–3 leaf SEQ or AND over four types, with optional value
/// thresholds on its leaves and an optional same-id predicate.
fn arb_seq_and_pattern() -> impl Strategy<Value = Pattern> {
    (
        any::<bool>(),
        proptest::collection::vec(0u16..4, 2..4),
        1i64..30,
        proptest::collection::vec((any::<bool>(), any::<bool>(), -1_000i32..100_000), 3..4),
        (any::<bool>(), 0usize..2),
    )
        .prop_map(|(and, types, w, thresholds, same_id)| {
            let leaves: Vec<(EventType, &str)> =
                types.iter().map(|&t| (EventType(t), "T")).collect();
            let mut preds: Vec<Predicate> = thresholds
                .iter()
                .take(leaves.len())
                .enumerate()
                .filter(|(_, &(present, _, _))| present)
                .map(|(i, &(_, le, c))| {
                    let op = if le { CmpOp::Le } else { CmpOp::Ge };
                    Predicate::threshold(i, Attr::Value, op, f64::from(c) / 1000.0)
                })
                .collect();
            if let (true, i) = same_id {
                let i = i.min(leaves.len() - 2);
                preds.push(Predicate::same_id(i, i + 1));
            }
            let window = WindowSpec::minutes(w);
            if and {
                builders::and(&leaves, window, preds)
            } else {
                builders::seq(&leaves, window, preds)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_shrink_iters: 200,
    })]

    /// Generated SEQ/AND patterns with threshold and same-id predicates
    /// survive print → parse with an unchanged canonical plan under every
    /// mapper-option variant.
    #[test]
    fn psl_round_trip_keeps_generated_plans(p in arb_seq_and_pattern()) {
        for (_, opts) in bench::preflight::option_variants() {
            assert_psl_round_trip(&p, &opts)?;
        }
    }
}
