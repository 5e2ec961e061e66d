//! Deterministic finding collection and emission.
//!
//! Findings sort by `(path, line, rule, message)` and both emitters are
//! pure functions of the sorted list, so two runs over the same tree
//! produce byte-identical output — the same property the rest of the
//! workspace guarantees for BC scores and Prometheus expositions, here
//! applied to the analyzer's own reports (and snapshot-tested in
//! `tests/lint.rs`).

use std::fmt::Write as _;

/// One rule violation (or annotation defect) at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`ordered-iteration`, …).
    pub rule: &'static str,
    /// What went wrong and what the contract requires instead.
    pub message: String,
}

impl Finding {
    /// Builds a finding; `line` is 1-based.
    pub fn new(path: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Self {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }
}

/// A whole-workspace lint result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of source lines scanned.
    pub lines_scanned: usize,
}

impl Report {
    /// Sorts (and dedups) the findings into canonical report order.
    pub fn finish(&mut self) {
        self.findings.sort();
        self.findings.dedup();
    }

    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report: one `path:line: [rule] message` per
    /// finding plus a summary line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "dynbc-lint: {} finding{} in {} files ({} lines)",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files_scanned,
            self.lines_scanned
        );
        out
    }

    /// Machine-readable report; byte-identical across runs on the same
    /// tree (keys in fixed order, findings in canonical order).
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"lines_scanned\": {},", self.lines_scanned);
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_string(&f.path),
                f.line,
                json_string(f.rule),
                json_string(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping. A copy of `dynbc_prof::json::string`
/// plus `\r`, kept here because the lint stays dependency-free and the
/// `tests/lint.rs` JSON snapshot pins its escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_and_json_shape() {
        let mut r = Report {
            findings: vec![
                Finding::new("b.rs", 2, "no-wall-clock", "later"),
                Finding::new("a.rs", 9, "unsafe-safety", "earlier \"quoted\""),
                Finding::new("a.rs", 9, "unsafe-safety", "earlier \"quoted\""),
            ],
            files_scanned: 2,
            lines_scanned: 10,
        };
        r.finish();
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].path, "a.rs");
        assert!(r.json().contains("\\\"quoted\\\""));
        assert_eq!(r.json(), r.json());
        assert!(r.human().contains("a.rs:9: [unsafe-safety]"));
    }
}
