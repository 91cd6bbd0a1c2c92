//! Pre-flight validation for the reproduction harness.
//!
//! `repro` runs experiments that take minutes to hours; a malformed plan or
//! dataflow graph should be refused *before* any workload is generated, not
//! discovered as a worker panic deep into a run. [`check`] pushes every
//! evaluation pattern of Section 5 through the full static-analysis stack —
//! [`cep2asp::typecheck()`] on the translated plan and [`asp::validate`] on
//! the built dataflow graph — for every mapper-option variant the
//! experiments use.

use std::collections::HashMap;

use asp::event::{Event, EventType};
use cep2asp::{build_pipeline, translate, typecheck, MapperOptions, PhysicalConfig};
use sea::pattern::Pattern;
use workloads::{HUM, PM10, PM25, Q, TEMP, V};

use crate::patterns;

/// The mapper-option variants the experiments exercise.
pub fn option_variants() -> Vec<(&'static str, MapperOptions)> {
    vec![
        ("plain", MapperOptions::plain()),
        ("O1", MapperOptions::o1()),
        ("O2", MapperOptions::o2()),
        ("O3", MapperOptions::o3()),
        ("O1+O3", MapperOptions::o1().and_o3()),
    ]
}

/// The evaluation patterns of Section 5 at representative parameters.
pub fn pattern_suite() -> Vec<(&'static str, Pattern)> {
    vec![
        ("SEQ1(2)", patterns::seq1(0.1, 15)),
        ("ITER3_1(1)", patterns::iter_threshold(3, 0.1, 15)),
        ("ITER3_pairwise", patterns::iter_pairwise(3, 15)),
        ("NSEQ1(3)", patterns::nseq1(0.1, 0.05, 15)),
        ("SEQ(4)", patterns::seq_n(4, 0.1, 15)),
        ("SEQ7(3)", patterns::seq7(0.1, 15)),
        ("ITER4_4(1)", patterns::iter4(0.1, 15)),
    ]
}

/// Empty per-type sources: enough for the physical planner, free to build.
fn empty_sources() -> HashMap<EventType, Vec<Event>> {
    [Q, V, PM10, PM25, TEMP, HUM]
        .into_iter()
        .map(|t| (t, Vec::new()))
        .collect()
}

/// Statically validate every (pattern, options) pair the experiments run.
///
/// Returns `Err` with a human-readable report naming the pattern, the
/// option variant, and every diagnostic, if any pair fails the plan check or
/// graph validation. Translation failures for unsupported combinations
/// (e.g. Kleene+ without O2) are not errors — the experiments skip those
/// combinations too.
pub fn check() -> Result<(), String> {
    let sources = empty_sources();
    let phys = PhysicalConfig::default();
    let mut problems = Vec::new();
    for (pname, pattern) in pattern_suite() {
        for (oname, opts) in option_variants() {
            let plan = match translate(&pattern, &opts) {
                Ok(p) => p,
                Err(_) => continue, // unsupported combination; skipped by experiments too
            };
            let checked = typecheck(&plan);
            if !checked.is_clean() {
                for d in &checked.diagnostics {
                    problems.push(format!("{pname} [{oname}]: {d}"));
                }
                continue;
            }
            match build_pipeline(&plan, &sources, &phys) {
                Ok((graph, _sink)) => {
                    if let Err(diags) = asp::validate::validate(&graph) {
                        for d in &diags {
                            problems.push(format!("{pname} [{oname}]: {d}"));
                        }
                    }
                }
                Err(e) => problems.push(format!("{pname} [{oname}]: build failed: {e}")),
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_suite_passes_preflight() {
        if let Err(report) = check() {
            panic!("pre-flight validation failed:\n{report}");
        }
    }
}
