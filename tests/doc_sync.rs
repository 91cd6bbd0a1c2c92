//! Doc-sync: DESIGN.md's diagnostic-code tables must match the enums.
//!
//! Each stable code family (`Gxxx` graph validation, `Axxx` analyzer
//! diagnostics, `Sxxx` plan checks, `Mxxx` migration safety) is documented
//! as a markdown table in DESIGN.md ("Static analysis & invariants" /
//! "Static cost model" / "Schema & partition-safety" / "Migration
//! safety"). The retired `Pxxx` plan-lint codes survive only as alias rows
//! naming the `S` code that now reports them.
//! Renaming, adding, or removing a variant without updating the docs —
//! or documenting a code that no longer exists — fails here.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

/// Collect the code column of every `| X0nn | ... |` table row in
/// DESIGN.md for the given prefix letter.
fn documented_codes(design: &str, prefix: char) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|line| {
            let line = line.trim();
            let cell = line.strip_prefix('|')?.split('|').next()?.trim();
            let mut chars = cell.chars();
            if chars.next()? != prefix {
                return None;
            }
            let digits: String = chars.collect();
            if digits.len() == 3 && digits.chars().all(|c| c.is_ascii_digit()) {
                Some(cell.to_string())
            } else {
                None
            }
        })
        .collect()
}

fn design_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    std::fs::read_to_string(path).expect("DESIGN.md readable at workspace root")
}

fn assert_in_sync(family: &str, documented: &BTreeSet<String>, code: &BTreeSet<String>) {
    let missing: Vec<&String> = code.difference(documented).collect();
    let stale: Vec<&String> = documented.difference(code).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "{family} code table out of sync with DESIGN.md — \
         undocumented in DESIGN.md: {missing:?}; documented but gone from the enum: {stale:?}"
    );
}

#[test]
fn graph_validator_codes_match_design_md() {
    let code: BTreeSet<String> = asp::validate::Code::ALL
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    assert_eq!(
        code.len(),
        asp::validate::Code::ALL.len(),
        "duplicate G code"
    );
    assert_in_sync("Gxxx", &documented_codes(&design_md(), 'G'), &code);
}

#[test]
fn plan_lint_codes_match_design_md() {
    // P001..P012 each appear exactly once, as `| Pxxx | Syyy | ... |`,
    // and the S code they name is live.
    let design = design_md();
    let live: BTreeSet<&str> = cep2asp::TypeCode::ALL.iter().map(|c| c.as_str()).collect();
    for n in 1..=12 {
        let p = format!("P{n:03}");
        let rows: Vec<Vec<&str>> = design
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.trim().strip_prefix('|')?.split('|').collect();
                (cells.first()?.trim() == p).then(|| cells.iter().map(|c| c.trim()).collect())
            })
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "{p} must have exactly one alias row in DESIGN.md"
        );
        let target = rows[0].get(1).copied().unwrap_or_default();
        assert!(
            live.contains(target),
            "{p} is documented as an alias of `{target}`, which is not a live S code"
        );
    }
    assert_eq!(
        documented_codes(&design, 'P').len(),
        12,
        "DESIGN.md documents P codes beyond the retired P001..P012"
    );
}

#[test]
fn analyzer_codes_match_design_md() {
    let code: BTreeSet<String> = cep2asp::AnalyzeCode::ALL
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    assert_eq!(
        code.len(),
        cep2asp::AnalyzeCode::ALL.len(),
        "duplicate A code"
    );
    assert_in_sync("Axxx", &documented_codes(&design_md(), 'A'), &code);
}

#[test]
fn typecheck_codes_match_design_md() {
    let code: BTreeSet<String> = cep2asp::TypeCode::ALL
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    assert_eq!(code.len(), cep2asp::TypeCode::ALL.len(), "duplicate S code");
    assert_in_sync("Sxxx", &documented_codes(&design_md(), 'S'), &code);
}

#[test]
fn migrate_codes_match_design_md() {
    let code: BTreeSet<String> = cep2asp::MigrateCode::ALL
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    assert_eq!(
        code.len(),
        cep2asp::MigrateCode::ALL.len(),
        "duplicate M code"
    );
    assert_in_sync("Mxxx", &documented_codes(&design_md(), 'M'), &code);
}

#[test]
fn code_tables_are_dense_and_ordered() {
    // Codes are stable identifiers: each family must be X001..X00n with
    // no gaps, in declaration order, so a new code can only be appended.
    let families: [(&str, Vec<String>); 4] = [
        (
            "G",
            asp::validate::Code::ALL
                .iter()
                .map(|c| c.as_str().to_string())
                .collect(),
        ),
        (
            "A",
            cep2asp::AnalyzeCode::ALL
                .iter()
                .map(|c| c.as_str().to_string())
                .collect(),
        ),
        (
            "S",
            cep2asp::TypeCode::ALL
                .iter()
                .map(|c| c.as_str().to_string())
                .collect(),
        ),
        (
            "M",
            cep2asp::MigrateCode::ALL
                .iter()
                .map(|c| c.as_str().to_string())
                .collect(),
        ),
    ];
    for (prefix, codes) in families {
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(
                code,
                &format!("{prefix}{:03}", i + 1),
                "{prefix} codes must be dense and in declaration order"
            );
        }
    }
}
