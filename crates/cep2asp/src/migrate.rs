//! Migration-safety analysis (`M`-codes) for the sharded executor.
//!
//! The fourth static-analysis layer, alongside the graph validator
//! (`G`-codes), the cost analyzer (`A`-codes, [`mod@crate::analyze`]), and
//! the plan checker (`S`-codes, [`mod@crate::typecheck`]). Where the `S`-pass
//! decides *whether* an operator may be sharded by key, this pass decides
//! whether a sharded deployment can *move* that operator's state at
//! runtime: the shard runtime's 4-step migration protocol (publish →
//! drain → handoff → replay; see `asp::runtime::shard` and the `asp::sim`
//! model checker) only works for operators that implement the live
//! state-handoff hooks, and it imposes per-plan obligations — marker
//! need-sets to drain, stash memory to buffer re-routed tuples — that are
//! knowable at translate time.
//!
//! The pass probes *real* operator instances for
//! `Operator::shard_handoff_supported` (constructing a representative
//! `WindowJoinOp` / `IntervalJoinOp` / `WindowAggregateOp` per plan node),
//! so the verdicts can never drift from the runtime's actual capability
//! surface. All findings are warnings: every plan still runs, but a
//! deployment that ignores them either cannot rebalance (M001/M002), may
//! pause unboundedly during a drain (M006), or leaves throughput on the
//! table (M004).
//!
//! | code | deployment hazard |
//! |------|-------------------|
//! | M001 | shardable node whose operator lacks live state handoff |
//! | M002 | adaptive rebalancing requested over a non-migratable operator |
//! | M003 | per-node migration obligations (marker need-set, stash bound) |
//! | M004 | global-only node pins a multi-shard deployment to one instance |
//! | M005 | adaptive rebalancing enabled with nothing to rebalance |
//! | M006 | unbounded handoff payload — drain pause is O(state) |
//! | M007 | several sharded nodes share one serialized migration lane |
//!
//! The pass is wired into [`crate::explain::explain_analyzed`] (under the
//! default, single-shard [`MigrateConfig`], where only the
//! config-independent M001 can fire) and into `plan-explain --schema` /
//! `--schema-json`, which evaluate the suite under a hypothetical
//! multi-shard adaptive deployment.

use std::fmt;

use asp::operator::{
    cross_join, IntervalBounds, IntervalJoinOp, Operator, WindowAggregateOp, WindowJoinOp,
};
use asp::tuple::TsRule;
use asp::window::SlidingWindows;

use crate::diag::{Diag, DiagCode};
use crate::plan::{JoinWindowing, LogicalPlan, PlanNode};
use crate::typecheck::{ShardSafety, TypecheckResult, TypedNode};

/// Stable identifier of a migration-safety hazard found by
/// [`migration_safety`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrateCode {
    /// M001: a shardable-by-key node whose physical operator does not
    /// implement live state handoff (`shard_handoff_supported` is false) —
    /// the node can be sharded statically, but its slots can never
    /// migrate.
    HandoffUnsupported,
    /// M002: the deployment requests adaptive rebalancing over a sharded
    /// node that cannot migrate — the rebalancer detects the hot slot but
    /// every `begin_migration` it publishes stalls at the handoff step.
    AdaptivePinned,
    /// M003: the per-node migration obligations — how many (port ×
    /// channel) markers a drain must collect before cut-over, and the
    /// stash bound for tuples re-routed mid-migration. Informational.
    MigrationObligations,
    /// M004: a global-only stateful node under a multi-shard deployment —
    /// every tuple funnels through one instance regardless of the shard
    /// count.
    GlobalUnderShards,
    /// M005: adaptive rebalancing is enabled but the plan has no sharded
    /// operator (or the deployment has a single shard) — the rebalancer
    /// thread only burns cycles.
    RebalancerIdle,
    /// M006: a migratable node with no memory limit — the handoff payload
    /// (and so the drain's watermark-freeze window) is unbounded.
    UnboundedHandoffState,
    /// M007: several shardable nodes in one plan — migrations are
    /// serialized per plan, so concurrent hot spots on different
    /// operators queue behind each other.
    MultipleShardedNodes,
}

impl MigrateCode {
    /// Every code, in `Mxxx` order — the doc-sync test checks DESIGN.md's
    /// code table against this list, so keep it exhaustive.
    pub const ALL: &'static [MigrateCode] = &[
        MigrateCode::HandoffUnsupported,
        MigrateCode::AdaptivePinned,
        MigrateCode::MigrationObligations,
        MigrateCode::GlobalUnderShards,
        MigrateCode::RebalancerIdle,
        MigrateCode::UnboundedHandoffState,
        MigrateCode::MultipleShardedNodes,
    ];

    /// The stable `Mxxx` string for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            MigrateCode::HandoffUnsupported => "M001",
            MigrateCode::AdaptivePinned => "M002",
            MigrateCode::MigrationObligations => "M003",
            MigrateCode::GlobalUnderShards => "M004",
            MigrateCode::RebalancerIdle => "M005",
            MigrateCode::UnboundedHandoffState => "M006",
            MigrateCode::MultipleShardedNodes => "M007",
        }
    }
}

impl fmt::Display for MigrateCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl DiagCode for MigrateCode {
    fn as_str(&self) -> &'static str {
        MigrateCode::as_str(self)
    }
}

/// One migration-safety finding. All findings are warnings — the plan
/// runs either way; the deployment just cannot (fully) rebalance.
pub type MigrateDiagnostic = Diag<MigrateCode>;

/// The hypothetical deployment the plan is checked against.
///
/// `Default` is the all-off single-shard deployment: only capability
/// findings (M001) apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrateConfig {
    /// Shard instances per shardable node; `None` (or `Some(1)`) means a
    /// single-shard deployment where only capability findings (M001)
    /// apply.
    pub shards: Option<usize>,
    /// Whether the adaptive hot-key rebalancer is enabled.
    pub adaptive: bool,
    /// Per-operator memory limit (bounds the handoff payload), bytes.
    pub memory_limit: Option<usize>,
}

impl MigrateConfig {
    /// A representative multi-shard adaptive deployment — what
    /// `plan-explain --schema` evaluates the suite against.
    pub fn sharded(shards: usize) -> Self {
        MigrateConfig {
            shards: Some(shards),
            adaptive: true,
            memory_limit: None,
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1)
    }
}

/// Probe whether `node`'s physical operator supports live state handoff,
/// by constructing a representative instance and asking it. Returns `None`
/// for nodes the physical planner never shards (scans, unions, the NSEQ
/// UDF, projections — stateless or global-only by construction).
fn handoff_capable(node: &PlanNode) -> Option<bool> {
    match node {
        PlanNode::Join { windowing, .. } => {
            let op: Box<dyn Operator> = match *windowing {
                JoinWindowing::Sliding { size, slide } => Box::new(WindowJoinOp::new(
                    "probe",
                    SlidingWindows::new(size, slide),
                    cross_join(),
                    TsRule::Min,
                )),
                JoinWindowing::Interval { lower, upper } => Box::new(IntervalJoinOp::new(
                    "probe",
                    IntervalBounds { lower, upper },
                    cross_join(),
                    TsRule::Min,
                )),
            };
            Some(op.shard_handoff_supported())
        }
        PlanNode::Aggregate { m, window, .. } => {
            let op = WindowAggregateOp::count_at_least(
                "probe",
                SlidingWindows::new(window.size, window.slide),
                *m,
            );
            Some(op.shard_handoff_supported())
        }
        _ => None,
    }
}

/// The number of input ports a node's physical operator drains markers
/// from (its plan-tree fan-in).
fn input_ports(node: &PlanNode) -> usize {
    // The NSEQ UDF also drains the physical marker scan.
    node.children().count() + usize::from(matches!(node, PlanNode::NextOccurrence { .. }))
}

struct Walk<'a> {
    cfg: &'a MigrateConfig,
    diags: Vec<MigrateDiagnostic>,
    shardable: usize,
}

impl Walk<'_> {
    fn warn(&mut self, code: MigrateCode, node: &str, msg: String) {
        self.diags.push(MigrateDiagnostic::warning(code, node, msg));
    }

    fn visit(&mut self, plan: &PlanNode, typed: &TypedNode) {
        let shards = self.cfg.shard_count();
        match typed.safety {
            ShardSafety::ShardableByKey => {
                self.shardable += 1;
                let capable = handoff_capable(plan).unwrap_or(false);
                if !capable {
                    self.warn(
                        MigrateCode::HandoffUnsupported,
                        &typed.label,
                        "operator does not support live state handoff \
                         (shard_handoff_supported = false) — shardable statically, \
                         but its slots can never migrate"
                            .to_string(),
                    );
                    if shards > 1 && self.cfg.adaptive {
                        self.warn(
                            MigrateCode::AdaptivePinned,
                            &typed.label,
                            format!(
                                "adaptive rebalancing over {shards} shards cannot move \
                                 this operator's state — hot slots stay pinned to \
                                 their initial placement"
                            ),
                        );
                    }
                }
                if shards > 1 {
                    let ports = input_ports(plan);
                    let stash = match self.cfg.memory_limit {
                        Some(b) => format!("≤ {b} B (operator memory limit)"),
                        None => "unbounded".to_string(),
                    };
                    self.warn(
                        MigrateCode::MigrationObligations,
                        &typed.label,
                        format!(
                            "each migration drains a need-set of {ports}×{shards} \
                             (port × channel) markers before cut-over; \
                             stash bound {stash}"
                        ),
                    );
                    if capable && self.cfg.adaptive && self.cfg.memory_limit.is_none() {
                        self.warn(
                            MigrateCode::UnboundedHandoffState,
                            &typed.label,
                            "no memory limit bounds the handoff payload — the drain's \
                             watermark-freeze window is O(operator state)"
                                .to_string(),
                        );
                    }
                }
            }
            ShardSafety::GlobalOnly => {
                if shards > 1 {
                    self.warn(
                        MigrateCode::GlobalUnderShards,
                        &typed.label,
                        format!(
                            "global-only node under a {shards}-shard deployment — \
                             every tuple funnels through one instance"
                        ),
                    );
                }
            }
            ShardSafety::Stateless => {}
        }
        // The typed tree mirrors the plan's child order.
        for (p, c) in plan.children().zip(&typed.children) {
            self.visit(p, c);
        }
    }
}

/// Analyze `plan` (typed by [`crate::typecheck::typecheck`]) against a
/// hypothetical deployment `cfg` and return every migration-safety
/// finding, in walk order. All findings are warnings.
pub fn migration_safety(
    plan: &LogicalPlan,
    typed: &TypecheckResult,
    cfg: &MigrateConfig,
) -> Vec<MigrateDiagnostic> {
    let mut w = Walk {
        cfg,
        diags: Vec::new(),
        shardable: 0,
    };
    w.visit(&plan.root, &typed.root);
    let shards = cfg.shard_count();
    if cfg.adaptive && (shards <= 1 || w.shardable == 0) {
        w.diags.push(MigrateDiagnostic::warning(
            MigrateCode::RebalancerIdle,
            typed.root.label.clone(),
            if shards <= 1 {
                "adaptive rebalancing enabled on a single-shard deployment — \
                 the rebalancer has nothing to move"
                    .to_string()
            } else {
                "adaptive rebalancing enabled but the plan has no shardable \
                 operator — the rebalancer only burns cycles"
                    .to_string()
            },
        ));
    }
    if shards > 1 && w.shardable >= 2 {
        w.diags.push(MigrateDiagnostic::warning(
            MigrateCode::MultipleShardedNodes,
            typed.root.label.clone(),
            format!(
                "{} shardable nodes share one serialized migration lane — \
                 concurrent hot spots on different operators queue behind \
                 each other",
                w.shardable
            ),
        ));
    }
    w.diags
}

/// Serialize findings as a JSON array (hand-rolled — this crate carries no
/// serialization dependency), for the `plan-explain --schema-json`
/// artifact.
pub fn migration_json(diags: &[MigrateDiagnostic]) -> String {
    let objs: Vec<String> = diags.iter().map(MigrateDiagnostic::to_json).collect();
    format!("[{}]", objs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asp::event::EventType;
    use asp::time::Duration;
    use sea::pattern::{Leaf, WindowSpec};
    use sea::predicate::{Predicate, VarId};

    use crate::plan::Partitioning;
    use crate::typecheck::typecheck;

    fn scan(t: u16, var: VarId) -> PlanNode {
        PlanNode::Scan {
            etype: EventType(t),
            type_name: format!("T{t}"),
            leaf: Leaf::new(EventType(t), format!("T{t}"), format!("e{}", var + 1)),
            var,
            predicates: vec![],
        }
    }

    fn bykey_join(windowing: JoinWindowing) -> PlanNode {
        PlanNode::Join {
            left: Box::new(scan(0, 0)),
            right: Box::new(scan(1, 1)),
            windowing,
            partitioning: Partitioning::ByKey,
            order_pairs: vec![],
            predicates: vec![Predicate::same_id(0, 1)],
            span_ms: 4 * asp::time::MINUTE_MS,
            ats_check: None,
            key_pair: Some((0, 1)),
        }
    }

    fn bykey_aggregate() -> PlanNode {
        PlanNode::Aggregate {
            input: Box::new(scan(0, 0)),
            m: 3,
            window: WindowSpec::minutes(4),
            partitioning: Partitioning::ByKey,
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

    fn codes(p: &LogicalPlan, cfg: &MigrateConfig) -> Vec<MigrateCode> {
        let typed = typecheck(p);
        migration_safety(p, &typed, cfg)
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn m001_fires_on_non_handoff_shardable_node() {
        // WindowAggregateOp has no live handoff: M001 even on the default
        // (single-shard) config.
        let p = plan(bykey_aggregate());
        assert_eq!(
            codes(&p, &MigrateConfig::default()),
            vec![MigrateCode::HandoffUnsupported]
        );
    }

    #[test]
    fn m001_m002_absent_on_handoff_capable_joins() {
        // Both join operators implement live handoff, so a sharded
        // adaptive deployment only reports the obligations note (M003)
        // and the unbounded-payload warning (M006).
        for windowing in [
            JoinWindowing::Sliding {
                size: Duration::from_minutes(4),
                slide: Duration::from_minutes(1),
            },
            JoinWindowing::Interval {
                lower: Duration::from_minutes(-4),
                upper: Duration::from_minutes(4),
            },
        ] {
            let p = plan(bykey_join(windowing));
            assert_eq!(codes(&p, &MigrateConfig::default()), vec![]);
            assert_eq!(
                codes(&p, &MigrateConfig::sharded(8)),
                vec![
                    MigrateCode::MigrationObligations,
                    MigrateCode::UnboundedHandoffState,
                ]
            );
        }
    }

    #[test]
    fn m002_fires_only_under_adaptive_shards() {
        let p = plan(bykey_aggregate());
        let found = codes(&p, &MigrateConfig::sharded(8));
        assert!(
            found.contains(&MigrateCode::HandoffUnsupported),
            "{found:?}"
        );
        assert!(found.contains(&MigrateCode::AdaptivePinned), "{found:?}");
        // Static sharding (no rebalancer) never migrates: no M002.
        let static_cfg = MigrateConfig {
            shards: Some(8),
            ..MigrateConfig::default()
        };
        let found = codes(&p, &static_cfg);
        assert!(!found.contains(&MigrateCode::AdaptivePinned), "{found:?}");
    }

    #[test]
    fn m003_reports_need_set_and_stash_bound() {
        let p = plan(bykey_join(JoinWindowing::Sliding {
            size: Duration::from_minutes(4),
            slide: Duration::from_minutes(1),
        }));
        let typed = typecheck(&p);
        let cfg = MigrateConfig {
            memory_limit: Some(1 << 20),
            ..MigrateConfig::sharded(4)
        };
        let diags = migration_safety(&p, &typed, &cfg);
        let m003 = diags
            .iter()
            .find(|d| d.code == MigrateCode::MigrationObligations)
            .expect("M003 present");
        assert!(m003.message.contains("2×4"), "{}", m003.message);
        assert!(m003.message.contains("1048576 B"), "{}", m003.message);
        // The memory limit also discharges M006.
        assert!(
            !diags
                .iter()
                .any(|d| d.code == MigrateCode::UnboundedHandoffState),
            "{diags:?}"
        );
    }

    #[test]
    fn m004_m007_fire_on_mixed_and_repeated_shardable_nodes() {
        // global join over two ByKey aggregates: one global-only node,
        // two shardable ones.
        let root = PlanNode::Join {
            left: Box::new(bykey_aggregate()),
            right: Box::new(PlanNode::Aggregate {
                input: Box::new(scan(1, 1)),
                m: 2,
                window: WindowSpec::minutes(4),
                partitioning: Partitioning::ByKey,
            }),
            windowing: JoinWindowing::Sliding {
                size: Duration::from_minutes(4),
                slide: Duration::from_minutes(4),
            },
            partitioning: Partitioning::Global,
            order_pairs: vec![],
            predicates: vec![],
            span_ms: 4 * asp::time::MINUTE_MS,
            ats_check: None,
            key_pair: None,
        };
        let found = codes(&plan(root), &MigrateConfig::sharded(4));
        assert!(found.contains(&MigrateCode::GlobalUnderShards), "{found:?}");
        assert!(
            found.contains(&MigrateCode::MultipleShardedNodes),
            "{found:?}"
        );
    }

    #[test]
    fn m005_fires_when_rebalancer_has_no_work() {
        // Adaptive on a single shard…
        let p = plan(bykey_aggregate());
        let cfg = MigrateConfig {
            adaptive: true,
            ..MigrateConfig::default()
        };
        assert!(codes(&p, &cfg).contains(&MigrateCode::RebalancerIdle));
        // …or over a plan with nothing shardable.
        let global = plan(PlanNode::Aggregate {
            input: Box::new(scan(0, 0)),
            m: 2,
            window: WindowSpec::minutes(4),
            partitioning: Partitioning::Global,
        });
        assert!(codes(&global, &MigrateConfig::sharded(4)).contains(&MigrateCode::RebalancerIdle));
    }

    #[test]
    fn codes_are_dense_and_render_uniformly() {
        for (i, c) in MigrateCode::ALL.iter().enumerate() {
            assert_eq!(c.as_str(), format!("M{:03}", i + 1));
        }
        let d =
            MigrateDiagnostic::warning(MigrateCode::HandoffUnsupported, "Join", "no live handoff");
        assert_eq!(d.to_string(), "M001 warning at Join: no live handoff");
    }

    #[test]
    fn migration_json_escapes_and_balances() {
        let diags = vec![MigrateDiagnostic::warning(
            MigrateCode::MigrationObligations,
            "Join \"q\"",
            "need-set 2×4",
        )];
        let j = migration_json(&diags);
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\\\"q\\\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(migration_json(&[]), "[]");
    }
}
