//! Baseline files: accepted findings that `--check` tolerates.
//!
//! A baseline entry is keyed on `(rule, file, function, snippet-hash)` —
//! deliberately *not* on line numbers, so unrelated edits above a
//! grandfathered finding don't churn the file. The human-readable
//! snippet rides along for review; only the hash is compared.
//!
//! Format, one entry per line, tab-separated:
//! ```text
//! # comments and blank lines ignored
//! rule<TAB>file<TAB>function<TAB>snippet_hash_hex<TAB>snippet
//! ```

use std::collections::BTreeSet;

use crate::rules::Finding;

/// FNV-1a over the trimmed snippet (the same hash family the memo
/// fingerprints use; collisions here only over-suppress one lint line,
/// never affect correctness).
fn snippet_hash(snippet: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in snippet.trim().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The key a finding is matched under.
fn key(f: &Finding) -> String {
    format!(
        "{}\t{}\t{}\t{:016x}",
        f.rule,
        f.file,
        f.function,
        snippet_hash(&f.snippet)
    )
}

/// A parsed baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<String>,
}

impl Baseline {
    /// Parse baseline text (missing file → empty baseline).
    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                // Keep only the first four fields — the snippet text is
                // display-only.
                let fields: Vec<&str> = l.splitn(5, '\t').collect();
                if fields.len() >= 4 {
                    Some(fields[..4].join("\t"))
                } else {
                    None
                }
            })
            .collect();
        Baseline { entries }
    }

    /// Number of baselined findings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is this finding grandfathered?
    pub fn contains(&self, f: &Finding) -> bool {
        self.entries.contains(&key(f))
    }

    /// Serialize findings as a fresh baseline file.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# detlint baseline — grandfathered findings, one per line.\n\
             # rule\tfile\tfunction\tsnippet_hash\tsnippet\n\
             # Remove lines as the findings are fixed; `--check` fails on\n\
             # any finding not listed here.\n",
        );
        let mut lines: Vec<String> = findings
            .iter()
            .map(|f| format!("{}\t{}", key(f), f.snippet))
            .collect();
        lines.sort();
        lines.dedup();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Severity};

    fn finding(rule: &'static str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: "crates/core/src/dmon/mod.rs".to_string(),
            line,
            col: 9,
            function: "poll".to_string(),
            message: "msg".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn roundtrip_ignores_line_numbers() {
        let f1 = finding("unordered-iter", 10, "for k in m.keys() {");
        let text = Baseline::render(std::slice::from_ref(&f1));
        let bl = Baseline::parse(&text);
        assert_eq!(bl.len(), 1);
        // Same finding, shifted 40 lines: still matched.
        let moved = finding("unordered-iter", 50, "for k in m.keys() {");
        assert!(bl.contains(&moved));
        // Different snippet: not matched.
        let other = finding("unordered-iter", 10, "for k in other.keys() {");
        assert!(!bl.contains(&other));
        // Different rule: not matched.
        let rule = finding("ambient-time", 10, "for k in m.keys() {");
        assert!(!bl.contains(&rule));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let bl = Baseline::parse("# header\n\n  # more\n");
        assert!(bl.is_empty());
    }
}
