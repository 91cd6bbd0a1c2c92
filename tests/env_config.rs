//! Environment-override parsing (`ASP_SHARDS`) and the shard-topology
//! graph check.
//!
//! Parsing is strict: every unrecognized value is refused by
//! `Executor::run` as diagnostic `G017` instead of being ignored. `G018`
//! guards shard topology: only operator nodes with all-`Hash` inputs may
//! be marked sharded.
//!
//! Environment variables are process-global, so every scenario runs
//! sequentially inside ONE test function — and this file is its own test
//! binary so no parallel test in another file observes the mutations.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::error::PipelineError;
use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder};
use asp::operator::FilterOp;
use asp::runtime::{Executor, ExecutorConfig};
use asp::time::Timestamp;
use asp::validate::Code;

fn set(k: &str, v: &str) {
    std::env::set_var(k, v);
}

fn clear(k: &str) {
    std::env::remove_var(k);
}

/// A minimal runnable graph so `Executor::run` reaches (or refuses before)
/// the spawn path.
fn tiny_graph() -> GraphBuilder {
    let mut g = GraphBuilder::new();
    let src = g.source("s", vec![Event::new(EventType(0), 1, Timestamp(0), 1.0)], 1);
    let f = g.nary(
        &[(src, Exchange::Hash)],
        1,
        Box::new(|_| Box::new(FilterOp::new("σ", Arc::new(|_| true)))),
    );
    g.sink(f, Exchange::Rebalance);
    g
}

/// Run a default-config executor and return the G-codes it was refused
/// with (empty = it ran).
fn refused_with() -> Vec<Code> {
    match Executor::new(ExecutorConfig::default()).run(tiny_graph()) {
        Ok(_) => Vec::new(),
        Err(PipelineError::Validation(diags)) => diags.iter().map(|d| d.code).collect(),
        Err(e) => panic!("unexpected error class: {e:?}"),
    }
}

#[test]
fn env_overrides_parse_strictly_and_misconfig_is_g017() {
    // The runtime has one data plane; the retired `ASP_DATA_PLANE`
    // selector is not read, so a stale value neither errors nor refuses.
    set("ASP_DATA_PLANE", "row");
    clear("ASP_SHARDS");
    assert!(ExecutorConfig::default().env_errors.is_empty());
    assert!(refused_with().is_empty(), "ASP_DATA_PLANE is ignored");
    clear("ASP_DATA_PLANE");

    // -- ASP_SHARDS: an integer ≥ 1 --
    set("ASP_SHARDS", "4");
    assert_eq!(ExecutorConfig::default().shards, Some(4));
    set("ASP_SHARDS", " 8 ");
    assert_eq!(
        ExecutorConfig::default().shards,
        Some(8),
        "whitespace tolerated"
    );
    for v in ["0", "-1", "abc", "2.5", ""] {
        set("ASP_SHARDS", v);
        let cfg = ExecutorConfig::default();
        assert_eq!(cfg.shards, None);
        assert!(
            !cfg.env_errors.is_empty(),
            "ASP_SHARDS={v:?} must be captured as a parse error"
        );
        assert_eq!(refused_with(), vec![Code::InvalidEnvConfig]);
    }

    // -- Unset: defaults, no errors, pipeline runs --
    clear("ASP_SHARDS");
    let cfg = ExecutorConfig::default();
    assert_eq!(cfg.shards, None);
    assert!(cfg.env_errors.is_empty());
    assert!(refused_with().is_empty(), "clean env must run");
}

#[test]
fn sharded_node_topology_is_g018_checked() {
    // A sharded operator fed by a Rebalance edge would scatter one key's
    // tuples across shard instances — refused as G018.
    let mut g = GraphBuilder::new();
    let src = g.source("s", vec![Event::new(EventType(0), 1, Timestamp(0), 1.0)], 1);
    let f = g.nary(
        &[(src, Exchange::Rebalance)],
        2,
        Box::new(|_| Box::new(FilterOp::new("σ", Arc::new(|_| true)))),
    );
    g.shard_node(f);
    g.sink(f, Exchange::Rebalance);
    let cfg = ExecutorConfig {
        shards: None,
        env_errors: Vec::new(),
        ..ExecutorConfig::default()
    };
    match Executor::new(cfg).run(g) {
        Err(PipelineError::Validation(diags)) => {
            assert!(
                diags.iter().any(|d| d.code == Code::InvalidShardedNode),
                "expected G018 among {diags:?}"
            );
        }
        other => panic!("expected G018 refusal, got {other:?}"),
    }
}
