//! One diagnostic-reporting path for every static-analysis family.
//!
//! The workspace carries four families of coded diagnostics — `G` (graph
//! validation, `asp::validate`), `S` (the plan checker: well-formedness,
//! schema and partition safety, [`mod@crate::typecheck`]), `A` (cost
//! pathologies, [`mod@crate::analyze`]), and `M` (migration safety,
//! [`mod@crate::migrate`]). [`Diag`] is their single carrier — code,
//! severity, anchoring node, message — with one `Display` impl and one
//! JSON writer, so every family prints identically:
//!
//! ```text
//! S016 error at Join: span guard differs
//! ```
//!
//! (`asp::validate::Diagnostic` lives below this crate and keeps its own
//! struct, but its format string is the same and its `Code` implements
//! [`DiagCode`] here so callers can render mixed findings uniformly.)

use std::fmt;

use asp::validate::Severity;

/// A stable diagnostic code: renders as a short family-prefixed
/// identifier (`G005`, `A001`, `S003`, `M002`, …).
pub trait DiagCode {
    /// The stable code string.
    fn as_str(&self) -> &'static str;
}

impl DiagCode for asp::validate::Code {
    fn as_str(&self) -> &'static str {
        asp::validate::Code::as_str(self)
    }
}

/// One coded finding, anchored at a node, across all analysis families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag<C> {
    /// Stable identifier of the violated rule.
    pub code: C,
    /// Error (the plan/graph is wrong) or warning (it runs, expensively).
    pub severity: Severity,
    /// The node kind or label the finding is anchored at.
    pub node: String,
    /// Human-readable explanation.
    pub message: String,
}

impl<C> Diag<C> {
    /// A new diagnostic with explicit severity.
    pub fn new(
        code: C,
        severity: Severity,
        node: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diag {
            code,
            severity,
            node: node.into(),
            message: message.into(),
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: C, node: impl Into<String>, message: impl Into<String>) -> Self {
        Diag::new(code, Severity::Error, node, message)
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: C, node: impl Into<String>, message: impl Into<String>) -> Self {
        Diag::new(code, Severity::Warning, node, message)
    }
}

impl<C: DiagCode> Diag<C> {
    /// The finding as a JSON object `{code, severity, node, message}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"severity\":{},\"node\":{},\"message\":{}}}",
            json_str(self.code.as_str()),
            json_str(&self.severity.to_string()),
            json_str(&self.node),
            json_str(&self.message)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the hand-rolled JSON artifacts — this crate carries no serialization
/// dependency.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl<C: DiagCode> fmt::Display for Diag<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {}",
            self.code.as_str(),
            self.severity,
            self.node,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalyzeCode;
    use crate::migrate::MigrateCode;
    use crate::typecheck::TypeCode;

    #[test]
    fn all_families_render_through_one_format() {
        let m = Diag::warning(MigrateCode::GlobalUnderShards, "Join", "one instance");
        assert_eq!(m.to_string(), "M004 warning at Join: one instance");
        let a = Diag::warning(AnalyzeCode::StateSuperLinear, "Join", "state grows as W^2");
        assert_eq!(a.to_string(), "A001 warning at Join: state grows as W^2");
        let s = Diag::error(TypeCode::JoinKeyNotCoPartitioned, "Join", "keys unrelated");
        assert_eq!(s.to_string(), "S005 error at Join: keys unrelated");
    }

    #[test]
    fn diagnostics_serialize_as_escaped_json_objects() {
        let d = Diag::error(TypeCode::SpanMismatch, "Join", "a \"quoted\"\nline");
        assert_eq!(
            d.to_json(),
            "{\"code\":\"S016\",\"severity\":\"error\",\"node\":\"Join\",\
             \"message\":\"a \\\"quoted\\\"\\nline\"}"
        );
    }

    #[test]
    fn graph_codes_implement_diag_code() {
        // G diagnostics stay in `asp`, but their codes join the shared
        // vocabulary so mixed reports can render them identically.
        let code = *asp::validate::Code::ALL.first().expect("non-empty");
        assert!(DiagCode::as_str(&code).starts_with('G'));
    }
}
