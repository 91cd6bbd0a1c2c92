//! Golden diagnostic corpus for the plan checker.
//!
//! `tests/golden/plan_diagnostics.txt` records, for every plan of a fixed
//! corpus, the set of `code@node-kind` facts the plan checks reported
//! when the plan linter (`Pxxx` codes) and the typechecker (`Sxxx` codes)
//! were still two passes. The corpus is every plan `translate` emits for
//! the pre-flight pattern suite under each option variant, the 1000-plan
//! multi-pattern variant catalog, and the hand-built defective plans of
//! both passes' unit tests.
//!
//! [`cep2asp::typecheck()`], which now carries both passes' rules, must
//! report exactly those facts once each retired `P` code is renamed
//! through DESIGN.md's alias table and exact duplicates are collapsed —
//! save the deltas listed in [`DELTAS`], each with its reason.

#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, BTreeSet};

use asp::event::{Attr, EventType};
use asp::time::Duration;
use cep2asp::{translate, typecheck_with, JoinWindowing, LogicalPlan, Partitioning, PlanNode};
use sea::pattern::{Leaf, WindowSpec};
use sea::predicate::{CmpOp, Predicate, VarId};
use sea::schema::SchemaCatalog;

/// Facts that deliberately differ from the two-pass record:
/// `(plan id, fact, appears?, reason)`.
const DELTAS: &[(&str, &str, bool, &str)] = &[(
    "hand/duplicate_binding",
    "S003@Scan",
    false,
    "a variable bound twice is reported once, at the join where the two \
     bindings meet (S003@Join), not again at one of the scans",
)];

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

fn scan(t: u16, var: VarId) -> PlanNode {
    PlanNode::Scan {
        etype: EventType(t),
        type_name: format!("T{t}"),
        leaf: Leaf::new(EventType(t), format!("T{t}"), format!("e{}", var + 1)),
        var,
        predicates: vec![],
    }
}

fn join(left: PlanNode, right: PlanNode) -> PlanNode {
    PlanNode::Join {
        left: Box::new(left),
        right: Box::new(right),
        windowing: JoinWindowing::Sliding {
            size: Duration::from_minutes(4),
            slide: Duration::from_minutes(1),
        },
        partitioning: Partitioning::Global,
        order_pairs: vec![],
        predicates: vec![],
        span_ms: 4 * asp::time::MINUTE_MS,
        ats_check: None,
        key_pair: None,
    }
}

fn plan(root: PlanNode) -> LogicalPlan {
    LogicalPlan {
        root,
        positions: 2,
        mapping: "test".into(),
        window: WindowSpec::minutes(4),
    }
}

/// `join(scan e1, scan e2)` with one field of the join rewritten.
fn with_join(f: impl FnOnce(&mut PlanNode)) -> LogicalPlan {
    let mut root = join(scan(0, 0), scan(1, 1));
    f(&mut root);
    plan(root)
}

fn windowing(w: JoinWindowing) -> LogicalPlan {
    with_join(|j| {
        if let PlanNode::Join { windowing, .. } = j {
            *windowing = w;
        }
    })
}

fn keyed(p: Partitioning, k: Option<(VarId, VarId)>, equi: bool) -> LogicalPlan {
    with_join(|j| {
        if let PlanNode::Join {
            partitioning,
            key_pair,
            predicates,
            ..
        } = j
        {
            *partitioning = p;
            *key_pair = k;
            if equi {
                predicates.push(Predicate::same_id(0, 1));
            }
        }
    })
}

fn aggregate(input: PlanNode, m: u64, w: i64, p: Partitioning) -> LogicalPlan {
    plan(PlanNode::Aggregate {
        input: Box::new(input),
        m,
        window: WindowSpec::minutes(w),
        partitioning: p,
    })
}

fn sliding(size: i64, slide: i64) -> JoinWindowing {
    JoinWindowing::Sliding {
        size: Duration::from_minutes(size),
        slide: Duration::from_minutes(slide),
    }
}

fn interval(lower: Duration, upper: Duration) -> JoinWindowing {
    JoinWindowing::Interval { lower, upper }
}

/// The hand-built plans of the linter's and the typechecker's unit tests:
/// one per diagnostic code plus the clean boundary cases.
fn hand_built() -> Vec<(String, LogicalPlan, SchemaCatalog)> {
    let any = SchemaCatalog::new;
    let plans: Vec<(&str, LogicalPlan, SchemaCatalog)> = vec![
        ("clean_join", plan(join(scan(0, 0), scan(1, 1))), any()),
        ("slide_exceeds_size", windowing(sliding(2, 5)), any()),
        (
            "slide_exceeds_window_sized_join",
            windowing(sliding(4, 5)),
            any(),
        ),
        (
            "interval_bounds_inverted",
            windowing(interval(Duration::from_minutes(4), Duration::ZERO)),
            any(),
        ),
        (
            "interval_exceeds_window",
            windowing(interval(Duration::ZERO, Duration::from_minutes(99))),
            any(),
        ),
        (
            "interval_upper_equals_window",
            windowing(interval(Duration::ZERO, Duration::from_minutes(4))),
            any(),
        ),
        (
            "interval_upper_one_ms_past_window",
            windowing(interval(
                Duration::ZERO,
                Duration::from_millis(4 * asp::time::MINUTE_MS + 1),
            )),
            any(),
        ),
        (
            "join_predicate_unbound_var",
            with_join(|j| {
                if let PlanNode::Join { predicates, .. } = j {
                    predicates.push(Predicate::cross(0, Attr::Value, CmpOp::Le, 7, Attr::Value));
                }
            }),
            any(),
        ),
        (
            "scan_predicate_other_var",
            {
                let mut s = scan(0, 0);
                if let PlanNode::Scan { predicates, .. } = &mut s {
                    predicates.push(Predicate::cross(0, Attr::Value, CmpOp::Le, 1, Attr::Value));
                }
                plan(join(s, scan(1, 1)))
            },
            any(),
        ),
        (
            "duplicate_binding",
            plan(join(scan(0, 0), scan(1, 0))),
            any(),
        ),
        (
            "rebinding_across_union_branches",
            plan(PlanNode::Union {
                inputs: vec![join(scan(0, 0), scan(1, 1)), join(scan(0, 0), scan(2, 1))],
            }),
            any(),
        ),
        (
            "bykey_without_key_pair",
            keyed(Partitioning::ByKey, None, false),
            any(),
        ),
        (
            "global_with_key_pair",
            keyed(Partitioning::Global, Some((0, 1)), false),
            any(),
        ),
        (
            "key_pair_sides_swapped",
            keyed(Partitioning::ByKey, Some((1, 0)), false),
            any(),
        ),
        (
            "key_pair_sides_swapped_equi",
            keyed(Partitioning::ByKey, Some((1, 0)), true),
            any(),
        ),
        (
            "key_pair_outside_equi_class",
            keyed(Partitioning::ByKey, Some((0, 1)), false),
            any(),
        ),
        (
            "key_pair_in_equi_class",
            keyed(Partitioning::ByKey, Some((0, 1)), true),
            any(),
        ),
        (
            "order_pair_unbound_var",
            with_join(|j| {
                if let PlanNode::Join { order_pairs, .. } = j {
                    order_pairs.push((0, 9));
                }
            }),
            any(),
        ),
        (
            "ats_check_on_left_var",
            with_join(|j| {
                if let PlanNode::Join { ats_check, .. } = j {
                    *ats_check = Some(0);
                }
            }),
            any(),
        ),
        (
            "ats_check_without_provider",
            with_join(|j| {
                if let PlanNode::Join { ats_check, .. } = j {
                    *ats_check = Some(1);
                }
            }),
            any(),
        ),
        (
            "next_occurrence_provides_ats",
            {
                let mut root = join(
                    PlanNode::NextOccurrence {
                        trigger: Box::new(scan(0, 0)),
                        marker: Leaf::new(EventType(7), "N", "n"),
                        w: Duration::from_minutes(4),
                    },
                    scan(1, 1),
                );
                if let PlanNode::Join { ats_check, .. } = &mut root {
                    *ats_check = Some(1);
                }
                plan(root)
            },
            any(),
        ),
        (
            "hold_exceeds_window",
            plan(join(
                PlanNode::NextOccurrence {
                    trigger: Box::new(scan(0, 0)),
                    marker: Leaf::new(EventType(5), "M", "m"),
                    w: Duration::from_minutes(99),
                },
                scan(1, 1),
            )),
            any(),
        ),
        (
            "nonpositive_pattern_window",
            {
                let mut p = plan(join(scan(0, 0), scan(1, 1)));
                p.window.size = Duration::ZERO;
                p
            },
            any(),
        ),
        ("sliding_join_twice_window", windowing(sliding(8, 1)), any()),
        ("sliding_join_half_window", windowing(sliding(2, 1)), any()),
        (
            "aggregate_window_twice_pattern",
            aggregate(scan(0, 0), 2, 8, Partitioning::Global),
            any(),
        ),
        (
            "union_of_one",
            plan(PlanNode::Union {
                inputs: vec![scan(0, 0)],
            }),
            any(),
        ),
        (
            "aggregate_count_zero",
            aggregate(scan(0, 0), 0, 4, Partitioning::Global),
            any(),
        ),
        (
            "span_mismatch",
            with_join(|j| {
                if let PlanNode::Join { span_ms, .. } = j {
                    *span_ms = 123;
                }
            }),
            any(),
        ),
        (
            "undeclared_attribute",
            with_join(|j| {
                if let PlanNode::Join { predicates, .. } = j {
                    predicates.push(Predicate::cross(0, Attr::Lat, CmpOp::Lt, 1, Attr::Lat));
                }
            }),
            {
                let mut cat = SchemaCatalog::new();
                cat.declare(EventType(0), "T0", &[Attr::Value]);
                cat
            },
        ),
        (
            "undeclared_attribute_permissive",
            with_join(|j| {
                if let PlanNode::Join { predicates, .. } = j {
                    predicates.push(Predicate::cross(0, Attr::Lat, CmpOp::Lt, 1, Attr::Lat));
                }
            }),
            any(),
        ),
        (
            "scan_leaf_type_clash",
            {
                let mut s = scan(0, 0);
                if let PlanNode::Scan { etype, .. } = &mut s {
                    *etype = EventType(9);
                }
                plan(s)
            },
            any(),
        ),
        (
            "projection_not_a_permutation",
            plan(PlanNode::Project {
                input: Box::new(join(scan(0, 0), scan(1, 1))),
                layout: vec![0, 2],
            }),
            any(),
        ),
        (
            "projection_permutation",
            plan(PlanNode::Project {
                input: Box::new(join(scan(0, 0), scan(1, 1))),
                layout: vec![1, 0],
            }),
            any(),
        ),
        (
            "bykey_aggregate_over_global_join",
            aggregate(join(scan(0, 0), scan(1, 1)), 2, 4, Partitioning::ByKey),
            any(),
        ),
        (
            "aggregate_over_composite",
            aggregate(join(scan(0, 0), scan(1, 1)), 2, 4, Partitioning::Global),
            any(),
        ),
        (
            "union_of_mixed_keys",
            plan(PlanNode::Union {
                inputs: vec![scan(0, 0), scan(1, 1)],
            }),
            any(),
        ),
    ];
    plans
        .into_iter()
        .map(|(name, p, cat)| (format!("hand/{name}"), p, cat))
        .collect()
}

/// Every plan of the corpus with its id and the catalog it is checked
/// against: the pre-flight suite under every option variant, the
/// multi-pattern variant catalog, and the hand-built defective plans.
fn corpus() -> Vec<(String, LogicalPlan, SchemaCatalog)> {
    let mut out = Vec::new();
    for (pname, pattern) in bench::preflight::pattern_suite() {
        for (oname, opts) in bench::preflight::option_variants() {
            if let Ok(p) = translate(&pattern, &opts) {
                out.push((
                    format!("preflight/{pname}/{oname}"),
                    p,
                    SchemaCatalog::new(),
                ));
            }
        }
    }
    for job in bench::multi::variant_catalog(1000) {
        let p = translate(&job.pattern, &job.opts).expect("catalog variants translate");
        out.push((format!("variant/{}", job.name), p, SchemaCatalog::new()));
    }
    out.extend(hand_built());
    out
}

/// The node kind a diagnostic is anchored at: the leading identifier of
/// its node label (`Join`, `Scan`, `NextOccurrence`, `Plan`, …).
fn kind(node: &str) -> &str {
    let end = node
        .find(|c: char| !c.is_ascii_alphabetic())
        .unwrap_or(node.len());
    &node[..end]
}

/// `P` code → the `S` code that reports it now, from DESIGN.md's alias
/// rows (`| P005 | S003 | ... |`).
fn aliases() -> BTreeMap<String, String> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md readable");
    design
        .lines()
        .filter_map(|line| {
            let mut cells = line.trim().strip_prefix('|')?.split('|').map(str::trim);
            let (p, s) = (cells.next()?, cells.next()?);
            (p.len() == 4 && p.starts_with('P') && s.starts_with('S'))
                .then(|| (p.to_string(), s.to_string()))
        })
        .collect()
}

fn facts(plan: &LogicalPlan, catalog: &SchemaCatalog) -> BTreeSet<String> {
    typecheck_with(plan, catalog)
        .diagnostics
        .iter()
        .map(|d| format!("{}@{}", d.code, kind(&d.node)))
        .collect()
}

#[test]
fn merged_checker_reports_the_recorded_facts() {
    let aliases = aliases();
    assert_eq!(aliases.len(), 12, "one alias row per retired P code");
    let golden = include_str!("golden/plan_diagnostics.txt");
    let mut expected: BTreeMap<&str, BTreeSet<String>> = golden
        .lines()
        .map(|line| {
            let (id, facts) = line.split_once('\t').expect("`id<TAB>facts` line");
            let set = facts
                .split(',')
                .filter(|f| *f != "-")
                .map(|f| {
                    let (code, node) = f.split_once('@').expect("`code@node` fact");
                    let code = aliases.get(code).map_or(code, String::as_str);
                    format!("{code}@{node}")
                })
                .collect();
            (id, set)
        })
        .collect();
    for (id, fact, appears, _) in DELTAS {
        let set = expected.get_mut(id).expect("delta names a corpus plan");
        let changed = if *appears {
            set.insert(fact.to_string())
        } else {
            set.remove(*fact)
        };
        assert!(changed, "stale delta {id} {fact}");
    }

    let corpus = corpus();
    assert_eq!(
        corpus.len(),
        expected.len(),
        "corpus and record differ in size"
    );
    let mut mismatches = Vec::new();
    for (id, plan, catalog) in &corpus {
        let want = expected
            .get(id.as_str())
            .expect("plan recorded in the golden file");
        let got = facts(plan, catalog);
        if &got != want {
            mismatches.push(format!("{id}: expected {want:?}, got {got:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
