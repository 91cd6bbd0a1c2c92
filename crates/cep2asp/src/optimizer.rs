//! Automatic optimization selection from stream statistics — the paper's
//! future-work item: "collecting information on data and pattern
//! characteristics such as frequency and selectivity enables the automated
//! application of the proposed optimization opportunities" (Section 7).
//!
//! [`StreamStats`] measures per-type arrival rates and samples per-leaf
//! filter pass rates; [`auto_options`] then derives a [`MapperOptions`]:
//!
//! * **O3** whenever the pattern provides an equi-key (partitioned joins
//!   strictly dominate a single global partition);
//! * **O2** for Kleene+ iterations (the only mapping that supports them);
//!   exact `ITER_m` keeps the join chain — O2 would change the output
//!   shape (Section 4.3.2 calls it approximate);
//! * **O1** per Section 4.3.1's frequency rule: interval joins win unless
//!   the window-defining (left) stream is much more frequent than the
//!   right stream;
//! * **join order**: cost-driven left-deep enumeration
//!   ([`OrderingStrategy::CostBased`], the default): every left-deep
//!   permutation of the top-level operands is priced by the analyzer's
//!   candidate-volume formula `Σ_k |acc_k| · r_k · W`, applying a cross
//!   predicate's selectivity (`1/key_fanout` for equi-keys, `0.5`
//!   otherwise) at the first join where both its variables are bound.
//!   This subsumes the ascending-rate heuristic of Section 4.2.2 — which
//!   remains reachable via [`OrderingStrategy::RateHeuristic`] for A/B
//!   comparison — and beats it whenever a selective cross predicate can
//!   be bound early (the core insight of Kolchinsky & Schuster's join-
//!   order work for CEP).

use std::collections::{HashMap, HashSet};

use asp::event::{Event, EventType};

use sea::annotations::Annotations;
use sea::pattern::{Pattern, PatternExpr};
use sea::predicate::VarId;

use crate::translate::{JoinOrder, MapperOptions};

/// How many events per stream the selectivity sampler inspects.
const SAMPLE_SIZE: usize = 4096;

/// Per-type arrival statistics plus a sample for selectivity probing.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    per_type: HashMap<EventType, TypeStats>,
}

#[derive(Debug, Clone)]
struct TypeStats {
    count: u64,
    /// Events per minute over the observed span.
    rate_per_min: f64,
    /// Distinct `id` values in the stream (partition-key fanout).
    distinct_ids: u64,
    /// Evenly spaced sample for pass-rate estimation.
    sample: Vec<Event>,
}

impl StreamStats {
    /// Measure the registered source streams.
    pub fn from_sources(sources: &HashMap<EventType, Vec<Event>>) -> Self {
        let mut per_type = HashMap::new();
        for (t, evs) in sources {
            if evs.is_empty() {
                per_type.insert(
                    *t,
                    TypeStats {
                        count: 0,
                        rate_per_min: 0.0,
                        distinct_ids: 0,
                        sample: Vec::new(),
                    },
                );
                continue;
            }
            let span_ms = (evs[evs.len() - 1].ts - evs[0].ts).millis().max(1) as f64;
            let rate = evs.len() as f64 / (span_ms / 60_000.0).max(1.0 / 60.0);
            let stride = (evs.len() / SAMPLE_SIZE).max(1);
            let sample: Vec<Event> = evs.iter().step_by(stride).copied().collect();
            let distinct_ids = evs.iter().map(|e| e.id).collect::<HashSet<_>>().len() as u64;
            per_type.insert(
                *t,
                TypeStats {
                    count: evs.len() as u64,
                    rate_per_min: rate,
                    distinct_ids,
                    sample,
                },
            );
        }
        StreamStats { per_type }
    }

    /// Raw arrival rate of a type, events/minute.
    pub fn rate(&self, t: EventType) -> f64 {
        self.per_type.get(&t).map_or(0.0, |s| s.rate_per_min)
    }

    /// Total observed events of a type.
    pub fn count(&self, t: EventType) -> u64 {
        self.per_type.get(&t).map_or(0, |s| s.count)
    }

    /// Distinct `id` values observed in a type's stream — the fanout an
    /// equi-key join partitions over (0 for unknown types).
    pub fn distinct_ids(&self, t: EventType) -> u64 {
        self.per_type.get(&t).map_or(0, |s| s.distinct_ids)
    }

    /// Sampled pass rate of a pattern leaf: its type's events surviving
    /// the leaf filters and the pattern's single-variable predicates.
    pub fn pass_rate(&self, pattern: &Pattern, leaf: &sea::pattern::Leaf) -> f64 {
        let Some(stats) = self.per_type.get(&leaf.etype) else {
            return 0.0;
        };
        if stats.sample.is_empty() {
            return 0.0;
        }
        let single = if leaf.var != usize::MAX {
            pattern.single_var_predicates(leaf.var)
        } else {
            Vec::new()
        };
        let mut pass = 0usize;
        let mut binding: Vec<Option<Event>> = vec![None; pattern.positions().max(1)];
        for e in &stats.sample {
            if !leaf.accepts(e) {
                continue;
            }
            let ok = if leaf.var == usize::MAX || single.is_empty() {
                true
            } else {
                binding.iter_mut().for_each(|b| *b = None);
                binding[leaf.var] = Some(*e);
                single.iter().all(|p| p.eval_sparse(&binding))
            };
            if ok {
                pass += 1;
            }
        }
        pass as f64 / stats.sample.len() as f64
    }

    /// Effective (post-filter) rate of a sub-pattern: the sum of its
    /// leaves' filtered rates — the cost driver for joins over it.
    pub fn effective_rate(&self, pattern: &Pattern, expr: &PatternExpr) -> f64 {
        expr.leaves()
            .iter()
            .filter(|l| l.var != usize::MAX)
            .map(|l| self.rate(l.etype) * self.pass_rate(pattern, l))
            .sum()
    }
}

/// Section 4.3.1's crossover threshold: prefer sliding windows only when
/// the leftmost (window-defining) stream is this many times more frequent
/// than the rest combined.
const INTERVAL_JOIN_FREQ_THRESHOLD: f64 = 8.0;

/// How the automatic optimizer orders a multi-way join chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingStrategy {
    /// Price every left-deep permutation with the analyzer's candidate-
    /// volume cost model (predicate-aware selectivities). The default.
    #[default]
    CostBased,
    /// The prior heuristic: ascending effective rate, rarest stream
    /// first. Kept reachable for A/B comparison (`plan-explain --order`).
    RateHeuristic,
}

/// Derive the optimization set for a pattern from measured statistics,
/// using the default [`OrderingStrategy::CostBased`] join ordering.
pub fn auto_options(pattern: &Pattern, stats: &StreamStats) -> MapperOptions {
    auto_options_with(pattern, stats, OrderingStrategy::CostBased)
}

/// [`auto_options`] with an explicit join-ordering strategy.
pub fn auto_options_with(
    pattern: &Pattern,
    stats: &StreamStats,
    strategy: OrderingStrategy,
) -> MapperOptions {
    // O3: equi-keys always help (anything beats one global partition).
    let partition_by_key = !pattern.equi_keys().is_empty();

    // O2: required for Kleene+; exact ITER keeps the composing join chain.
    let aggregate_iteration = matches!(pattern.expr, PatternExpr::Iter { at_least: true, .. });

    // Join order over the top-level SEQ/AND operands only.
    let join_order = match &pattern.expr {
        PatternExpr::Seq(parts) | PatternExpr::And(parts) if parts.len() > 2 => {
            let mut rates: Vec<f64> = parts
                .iter()
                .map(|p| stats.effective_rate(pattern, p))
                .collect();
            // Guard against degenerate all-zero stats.
            if rates.iter().all(|r| *r == 0.0) {
                rates = vec![1.0; parts.len()];
            }
            let idx = match strategy {
                OrderingStrategy::CostBased => cost_based_order(pattern, parts, &rates, stats),
                OrderingStrategy::RateHeuristic => {
                    let mut idx: Vec<usize> = (0..parts.len()).collect();
                    idx.sort_by(|a, b| rates[*a].total_cmp(&rates[*b]));
                    idx
                }
            };
            if idx.windows(2).all(|w| w[0] < w[1]) {
                JoinOrder::Textual // already sorted
            } else {
                JoinOrder::Permutation(idx)
            }
        }
        _ => JoinOrder::Textual,
    };

    // O1: interval joins unless the window-defining stream dwarfs the rest.
    let interval_join = match &pattern.expr {
        PatternExpr::Seq(parts) | PatternExpr::And(parts) => {
            let first = match &join_order {
                JoinOrder::Permutation(p) => &parts[p[0]],
                JoinOrder::Textual => &parts[0],
            };
            let left = stats.effective_rate(pattern, first);
            let rest: f64 = parts
                .iter()
                .map(|p| stats.effective_rate(pattern, p))
                .sum::<f64>()
                - left;
            left <= INTERVAL_JOIN_FREQ_THRESHOLD * rest.max(1e-9)
        }
        _ => true,
    };

    MapperOptions {
        interval_join,
        aggregate_iteration,
        partition_by_key,
        join_order,
    }
}

/// Exhaustive enumeration cap: up to 7 operands we price all `n!`
/// left-deep orders (≤ 5040 cheap evaluations); beyond that a greedy
/// cheapest-next construction keeps planning O(n²).
const EXHAUSTIVE_ORDER_LIMIT: usize = 7;

/// Price every left-deep order of `parts` and return the cheapest.
///
/// Cost of an order is the total candidate volume its join chain
/// examines: `Σ_k |acc_{k−1}| · r_k · W`, where the accumulated rate
/// shrinks by a cross predicate's selectivity at the first join that
/// binds all its variables — `1/key_fanout` for equi-key predicates,
/// [`sea::annotations::DEFAULT_TERM_SELECTIVITY`] otherwise. Ties break
/// toward ascending input rates and then the lexicographically smallest
/// permutation, so planning is deterministic.
fn cost_based_order(
    pattern: &Pattern,
    parts: &[PatternExpr],
    rates: &[f64],
    stats: &StreamStats,
) -> Vec<usize> {
    let n = parts.len();
    let w_min = pattern.window.size_minutes().max(1.0 / 60.0);
    // Variables bound by each operand.
    let part_vars: Vec<Vec<VarId>> = parts
        .iter()
        .map(|p| {
            p.leaves()
                .iter()
                .filter(|l| l.var != usize::MAX)
                .map(|l| l.var)
                .collect()
        })
        .collect();
    let preds = pattern.cross_predicates();
    let key_fanout = pattern
        .expr
        .input_types()
        .into_iter()
        .map(|t| stats.distinct_ids(t))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let pred_sel: Vec<f64> = preds
        .iter()
        .map(|p| {
            if p.is_equi_key() {
                1.0 / key_fanout
            } else {
                sea::annotations::DEFAULT_TERM_SELECTIVITY
            }
        })
        .collect();

    let cost_of = |order: &[usize]| -> f64 {
        let mut bound: HashSet<VarId> = part_vars[order[0]].iter().copied().collect();
        let mut applied = vec![false; preds.len()];
        // Predicates confined to the first operand are already folded
        // into its effective rate's pass sampling; just mark them.
        for (i, p) in preds.iter().enumerate() {
            if p.vars().iter().all(|v| bound.contains(v)) {
                applied[i] = true;
            }
        }
        let mut acc = rates[order[0]].max(1e-9);
        let mut cost = 0.0;
        for &k in &order[1..] {
            let cand = acc * rates[k].max(1e-9) * w_min;
            cost += cand;
            bound.extend(part_vars[k].iter().copied());
            let mut sel = 1.0;
            for (i, p) in preds.iter().enumerate() {
                if !applied[i] && p.vars().iter().all(|v| bound.contains(v)) {
                    applied[i] = true;
                    sel *= pred_sel[i];
                }
            }
            acc = cand * sel;
        }
        cost
    };

    let better = |best: &(f64, Vec<usize>), cost: f64, order: &[usize]| -> bool {
        match cost.total_cmp(&best.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                // Tie-break 1: ascending input-rate sequence (matches the
                // rate heuristic on predicate-free patterns).
                let a: Vec<f64> = order.iter().map(|i| rates[*i]).collect();
                let b: Vec<f64> = best.1.iter().map(|i| rates[*i]).collect();
                for (x, y) in a.iter().zip(&b) {
                    match x.total_cmp(y) {
                        std::cmp::Ordering::Less => return true,
                        std::cmp::Ordering::Greater => return false,
                        std::cmp::Ordering::Equal => {}
                    }
                }
                // Tie-break 2: lexicographically smallest permutation.
                order < best.1.as_slice()
            }
        }
    };

    if n <= EXHAUSTIVE_ORDER_LIMIT {
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut order: Vec<usize> = (0..n).collect();
        permute(&mut order, 0, &mut |cand| {
            let cost = cost_of(cand);
            match &best {
                Some(b) if !better(b, cost, cand) => {}
                _ => best = Some((cost, cand.to_vec())),
            }
        });
        best.map(|(_, o)| o).unwrap_or_else(|| (0..n).collect())
    } else {
        // Greedy: start from the rarest operand, then repeatedly append
        // the operand whose join is cheapest given what is bound so far.
        let mut remaining: Vec<usize> = (0..n).collect();
        remaining.sort_by(|a, b| rates[*a].total_cmp(&rates[*b]));
        let mut order = vec![remaining.remove(0)];
        while !remaining.is_empty() {
            let (pos, _) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let mut oa = order.clone();
                    oa.push(**a);
                    let mut ob = order.clone();
                    ob.push(**b);
                    cost_of(&oa).total_cmp(&cost_of(&ob))
                })
                .map(|(i, v)| (i, *v))
                .unwrap_or((0, remaining[0]));
            order.push(remaining.remove(pos));
        }
        order
    }
}

/// Heap's algorithm, calling `visit` with every permutation of `items`.
fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    let n = items.len();
    if k == n.saturating_sub(1) || n == 0 {
        visit(items);
        return;
    }
    for i in k..n {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Turn measured stream statistics into analyzer [`Annotations`]: rates
/// and per-position pass rates from the samples, key fanout from the
/// distinct-id counts. Per-window peaks fall back to the `2 × rate × W`
/// burst allowance (the stats keep no full timeline); use
/// [`Annotations::measured`] when the complete streams are at hand.
pub fn annotations_from_stats(pattern: &Pattern, stats: &StreamStats) -> Annotations {
    let mut ann = Annotations::for_pattern(pattern);
    for t in pattern.expr.input_types() {
        ann = ann.with_rate(t, stats.rate(t));
    }
    for leaf in pattern.expr.leaves() {
        if leaf.var != usize::MAX {
            ann = ann.with_selectivity(leaf.var, stats.pass_rate(pattern, leaf));
        }
    }
    ann.key_fanout = pattern
        .expr
        .input_types()
        .into_iter()
        .map(|t| stats.distinct_ids(t))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    ann
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::Attr;
    use asp::time::Timestamp;
    use sea::pattern::{builders, WindowSpec};
    use sea::predicate::{CmpOp, Predicate};

    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);
    const PM: EventType = EventType(2);

    fn stream(t: EventType, n: usize, per_min: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    t,
                    1,
                    Timestamp((i as i64) * 60_000 / per_min.max(1) as i64),
                    (i % 100) as f64,
                )
            })
            .collect()
    }

    fn sources(specs: &[(EventType, usize, usize)]) -> HashMap<EventType, Vec<Event>> {
        specs
            .iter()
            .map(|(t, n, r)| (*t, stream(*t, *n, *r)))
            .collect()
    }

    #[test]
    fn rates_are_measured_per_minute() {
        let s = StreamStats::from_sources(&sources(&[(Q, 600, 1), (V, 1200, 4)]));
        assert!((s.rate(Q) - 1.0).abs() < 0.1, "rate(Q)={}", s.rate(Q));
        assert!((s.rate(V) - 4.0).abs() < 0.2, "rate(V)={}", s.rate(V));
        assert_eq!(s.count(Q), 600);
    }

    #[test]
    fn pass_rate_reflects_filters() {
        let s = StreamStats::from_sources(&sources(&[(Q, 1000, 1)]));
        // value cycles 0..99 uniformly → threshold ≤ 24 passes ~25 %.
        let p = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(5),
            vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, 24.0)],
        );
        let leaf = p.expr.leaves()[0].clone();
        let rate = s.pass_rate(&p, &leaf);
        assert!((rate - 0.25).abs() < 0.05, "pass rate {rate}");
    }

    #[test]
    fn equi_key_enables_o3() {
        let s = StreamStats::default();
        let keyed = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(5),
            vec![Predicate::same_id(0, 1)],
        );
        assert!(auto_options(&keyed, &s).partition_by_key);
        let unkeyed = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(5), vec![]);
        assert!(!auto_options(&unkeyed, &s).partition_by_key);
    }

    #[test]
    fn kleene_selects_o2_exact_iter_does_not() {
        let s = StreamStats::default();
        let kp = builders::kleene_plus(V, "V", 3, WindowSpec::minutes(5));
        assert!(auto_options(&kp, &s).aggregate_iteration);
        let exact = builders::iter(V, "V", 3, WindowSpec::minutes(5), vec![]);
        assert!(!auto_options(&exact, &s).aggregate_iteration);
    }

    #[test]
    fn rare_streams_are_ordered_first() {
        // Q: 16/min, V: 4/min, PM: 0.5/min → order should be PM, V, Q.
        let src = sources(&[(Q, 4800, 16), (V, 1200, 4), (PM, 150, 1)]);
        let mut src = src;
        // Halve PM's rate via timestamps: regenerate with 1 every 2 min.
        src.insert(
            PM,
            (0..150)
                .map(|i| Event::new(PM, 1, Timestamp(i * 120_000), (i % 100) as f64))
                .collect(),
        );
        let s = StreamStats::from_sources(&src);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(5),
            vec![],
        );
        match auto_options(&p, &s).join_order {
            JoinOrder::Permutation(order) => assert_eq!(order, vec![2, 1, 0]),
            JoinOrder::Textual => panic!("expected reordering"),
        }
    }

    #[test]
    fn interval_join_follows_frequency_rule() {
        // Balanced rates → interval join.
        let s = StreamStats::from_sources(&sources(&[(Q, 1200, 4), (V, 1200, 4)]));
        let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(5), vec![]);
        assert!(auto_options(&p, &s).interval_join);
        // Left stream 20× more frequent → sliding windows.
        let s = StreamStats::from_sources(&sources(&[(Q, 24_000, 80), (V, 1200, 4)]));
        assert!(!auto_options(&p, &s).interval_join);
    }

    #[test]
    fn filters_shift_the_effective_order() {
        // Equal raw rates, but V is filtered to 10 %: V becomes "rare" and
        // moves to the front of the join order.
        let src = sources(&[(Q, 2400, 4), (V, 2400, 4), (PM, 2400, 4)]);
        let s = StreamStats::from_sources(&src);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(5),
            vec![Predicate::threshold(1, Attr::Value, CmpOp::Le, 9.0)],
        );
        match auto_options(&p, &s).join_order {
            JoinOrder::Permutation(order) => assert_eq!(order[0], 1, "filtered V first"),
            JoinOrder::Textual => panic!("expected reordering"),
        }
        // A filter on the already-first operand keeps the textual order.
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(5),
            vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, 9.0)],
        );
        assert_eq!(auto_options(&p, &s).join_order, JoinOrder::Textual);
    }

    #[test]
    fn selective_predicate_pulls_joined_streams_together() {
        // Q and PM are frequent (8/min) but share a highly selective
        // equi-key (64 distinct sensors); V is rare (1/min). The rate
        // heuristic joins rare V first and pays 8/min × 8/min joins later;
        // the cost model binds the 1/64 key early by joining Q ⋈ PM first.
        let mk = |t: EventType, n: i64, step_ms: i64| -> Vec<Event> {
            (0..n)
                .map(|i| Event::new(t, (i % 64) as u32, Timestamp(i * step_ms), (i % 100) as f64))
                .collect()
        };
        let src = HashMap::from([
            (Q, mk(Q, 4800, 7_500)),
            (V, mk(V, 600, 60_000)),
            (PM, mk(PM, 4800, 7_500)),
        ]);
        let s = StreamStats::from_sources(&src);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(5),
            vec![Predicate::same_id(0, 2)],
        );
        match auto_options_with(&p, &s, OrderingStrategy::RateHeuristic).join_order {
            JoinOrder::Permutation(order) => assert_eq!(order[0], 1, "heuristic puts rare V first"),
            JoinOrder::Textual => panic!("heuristic should reorder"),
        }
        match auto_options(&p, &s).join_order {
            JoinOrder::Permutation(order) => {
                assert_eq!(order[2], 1, "cost model defers V: {order:?}");
                let mut first_two = [order[0], order[1]];
                first_two.sort_unstable();
                assert_eq!(first_two, [0, 2], "keyed streams join first: {order:?}");
            }
            JoinOrder::Textual => panic!("cost model should reorder"),
        }
    }

    #[test]
    fn annotations_from_stats_carry_rates_and_fanout() {
        let mut src = sources(&[(Q, 600, 1), (V, 2400, 4)]);
        for (i, e) in src.get_mut(&Q).expect("q").iter_mut().enumerate() {
            e.id = (i % 16) as u32;
        }
        let s = StreamStats::from_sources(&src);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(5),
            vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, 24.0)],
        );
        let ann = annotations_from_stats(&p, &s);
        assert!((ann.rate(V) - 4.0).abs() < 0.2, "rate {}", ann.rate(V));
        assert!((ann.selectivity(0) - 0.25).abs() < 0.05);
        assert_eq!(ann.key_fanout, 16.0);
    }

    #[test]
    fn auto_options_produce_correct_plans() {
        // End-to-end sanity: auto-chosen options yield oracle-equal results.
        use crate::exec::{run_pattern_simple, split_by_type};
        let mut events = Vec::new();
        for m in 0..40i64 {
            for id in 0..3u32 {
                events.push(Event::new(
                    Q,
                    id,
                    Timestamp(m * 60_000),
                    ((m * 7 + id as i64) % 100) as f64,
                ));
                events.push(Event::new(
                    V,
                    id,
                    Timestamp(m * 60_000),
                    ((m * 13 + id as i64) % 100) as f64,
                ));
                if m % 3 == 0 {
                    events.push(Event::new(
                        PM,
                        id,
                        Timestamp(m * 60_000),
                        ((m * 29 + id as i64) % 100) as f64,
                    ));
                }
            }
        }
        let sources = split_by_type(&events);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(5),
            vec![Predicate::same_id(0, 1), Predicate::same_id(1, 2)],
        );
        let stats = StreamStats::from_sources(&sources);
        let opts = auto_options(&p, &stats);
        assert!(opts.partition_by_key);
        let run = run_pattern_simple(&p, &opts, &sources).expect("auto run");
        let oracle: Vec<_> = sea::oracle::evaluate(&p, &events)
            .into_iter()
            .map(asp::tuple::MatchKey)
            .collect();
        assert_eq!(run.dedup_matches(), oracle);
    }
}
