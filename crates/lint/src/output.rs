//! Rendering: human-readable `file:line:col: ID: message` lines and the
//! machine-readable JSON document (hand-rolled — ia-lint is
//! zero-dependency by design, like the rest of the offline build).

use crate::lints::Finding;
use std::fmt::Write as _;

/// Renders the findings as text for humans/CI logs.
#[must_use]
pub fn text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    let _ = writeln!(
        out,
        "ia-lint: {} file(s) scanned, {} finding(s)",
        files_scanned,
        findings.len()
    );
    out
}

/// Renders the findings as a stable JSON document, in sorted order,
/// suitable for diffing across runs.
#[must_use]
pub fn json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::from("{\"version\":3");
    let _ = write!(out, ",\"files_scanned\":{files_scanned}");
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_finding(&mut out, f);
    }
    out.push_str("]}\n");
    out
}

fn write_finding(out: &mut String, f: &Finding) {
    let _ = write!(
        out,
        "{{\"file\":{},\"line\":{},\"col\":{},\"id\":{},\"message\":{}",
        quote(&f.file),
        f.line,
        f.col,
        quote(f.id),
        quote(&f.message)
    );
    if !f.witness.is_empty() {
        out.push_str(",\"witness\":[");
        for (i, w) in f.witness.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quote(w));
        }
        out.push(']');
    }
    out.push('}');
}

/// Minimal JSON string quoting.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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

    fn findings() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/x/src/lib.rs".to_owned(),
                line: 3,
                col: 7,
                id: "P001",
                message: "`.unwrap()` in non-test code — return a Result instead".to_owned(),
                witness: Vec::new(),
            },
            Finding {
                file: "crates/x/src/lib.rs".to_owned(),
                line: 9,
                col: 5,
                id: "P003",
                message: "panic site `.unwrap()` is reachable from report entry \
                      `bench::exp02_rowclone::report`"
                    .to_owned(),
                witness: vec![
                    "bench::exp02_rowclone::report".to_owned(),
                    "x::helper".to_owned(),
                ],
            },
        ]
    }

    #[test]
    fn text_lists_findings_in_grep_friendly_form() {
        let t = text(&findings(), 5);
        assert!(t.contains("crates/x/src/lib.rs:3:7: P001:"));
        assert!(t.contains("5 file(s) scanned, 2 finding(s)"));
        assert!(
            t.contains("[via: bench::exp02_rowclone::report -> x::helper]"),
            "witness chains print inline: {t}"
        );
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let j = json(&findings(), 5);
        assert!(j.contains("\"files_scanned\":5"));
        assert!(j.contains("\"id\":\"P001\""));
        assert!(
            j.contains("\"witness\":[\"bench::exp02_rowclone::report\",\"x::helper\"]"),
            "witness arrays in JSON: {j}"
        );
        assert!(
            !j.contains("3,\"id\":\"P001\",\"message\":\"`.unwrap()` in non-test code — return a Result instead\",\"witness\""),
            "witness key absent when the chain is empty"
        );
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        // Byte-stable: rendering twice is identical.
        assert_eq!(j, json(&findings(), 5));
    }
}
