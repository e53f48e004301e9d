//! Human-readable and JSON emitters for batches of diagnostics.
//!
//! A [`Report`] groups the findings of one analysis run under a subject
//! label (typically `benchmark@voltage/seed`); [`render_text`] and
//! [`render_json_envelope`] turn a batch of reports into the two output
//! formats of the sweep tools (`dvs-verify`, `dvs-diff`). JSON is emitted
//! by hand — the workspace's vendored serde speaks only its internal
//! binary format.

use dvs_linker::{json_escape, Diagnostic, Severity};

/// The findings of one analysis run.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was analysed, e.g. `crc32@440mV/seed3`.
    pub subject: String,
    /// Every finding, in lint-registry order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Creates a report for `subject`.
    pub fn new(subject: impl Into<String>, diagnostics: Vec<Diagnostic>) -> Self {
        Report {
            subject: subject.into(),
            diagnostics,
        }
    }

    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }
}

/// Renders reports for humans: one `subject: finding` line per
/// diagnostic plus a trailing summary line.
pub fn render_text(reports: &[Report]) -> String {
    let mut out = String::new();
    let mut denies = 0;
    let mut warns = 0;
    for report in reports {
        for d in &report.diagnostics {
            out.push_str(&format!("{}: {d}\n", report.subject));
        }
        denies += report.deny_count();
        warns += report.warn_count();
    }
    out.push_str(&format!(
        "{} subject(s) analysed: {denies} deny finding(s), {warns} warning(s)\n",
        reports.len()
    ));
    out
}

/// Renders the envelope's body, one JSON object:
///
/// ```json
/// {"reports":[{"subject":"…","diagnostics":[…]}],"denies":0,"warns":0}
/// ```
fn render_json(reports: &[Report]) -> String {
    let mut out = String::from("{\"reports\":[");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"subject\":\"{}\",\"diagnostics\":[",
            json_escape(&report.subject)
        ));
        for (j, d) in report.diagnostics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
    }
    let denies: usize = reports.iter().map(Report::deny_count).sum();
    let warns: usize = reports.iter().map(Report::warn_count).sum();
    out.push_str(&format!("],\"denies\":{denies},\"warns\":{warns}}}"));
    out
}

/// Name and level of one registered lint, for the JSON envelope.
#[derive(Debug, Clone)]
pub struct LintMeta {
    /// Stable lint identifier (see [`dvs_linker::lint_ids`]).
    pub name: &'static str,
    /// `"warn"` or `"deny"` — the lint's configured level.
    pub level: &'static str,
}

/// Renders reports inside a versioned envelope:
///
/// ```json
/// {"schema":"dvs-verify/1","lints":[{"name":"…","level":"deny"}],
///  "reports":[…],"denies":0,"warns":0}
/// ```
///
/// `schema` identifies the producing tool and format revision
/// (`dvs-verify/1`, `dvs-diff/1`), mirroring `dvs-profile/1`; `lints`
/// names every pass that ran with its configured level, so a consumer
/// can distinguish "clean" from "not checked".
pub fn render_json_envelope(schema: &str, lints: &[LintMeta], reports: &[Report]) -> String {
    let mut out = format!("{{\"schema\":\"{}\",\"lints\":[", json_escape(schema));
    for (i, lint) in lints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"level\":\"{}\"}}",
            json_escape(lint.name),
            json_escape(lint.level)
        ));
    }
    out.push_str("],");
    let body = render_json(reports);
    // Splice the envelope around the existing body object.
    out.push_str(body.trim_start_matches('{'));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_linker::{lint_ids, Location};

    fn sample() -> Vec<Report> {
        vec![
            Report::new(
                "crc32@440mV/seed0",
                vec![Diagnostic::deny(
                    lint_ids::CHUNK_CONTAINMENT,
                    Location::Block {
                        id: 3,
                        word: Some(2),
                    },
                    "placed word maps to defective cache word 17".to_string(),
                )],
            ),
            Report::new("adpcm@440mV/seed0", Vec::new()),
        ]
    }

    #[test]
    fn text_output_names_subject_and_counts() {
        let text = render_text(&sample());
        assert!(text.contains("crc32@440mV/seed0: deny[chunk-containment]"));
        assert!(text.contains("2 subject(s) analysed: 1 deny finding(s), 0 warning(s)"));
    }

    #[test]
    fn json_output_is_well_formed() {
        let json = render_json(&sample());
        assert!(json.starts_with("{\"reports\":["));
        assert!(json.contains("\"subject\":\"crc32@440mV/seed0\""));
        assert!(json.contains("\"lint\":\"chunk-containment\""));
        assert!(json.ends_with("\"denies\":1,\"warns\":0}"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the workspace).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn envelope_carries_schema_and_lint_table() {
        let lints = [
            LintMeta {
                name: "chunk-containment",
                level: "deny",
            },
            LintMeta {
                name: "cfg-reachability",
                level: "warn",
            },
        ];
        let json = render_json_envelope("dvs-verify/1", &lints, &sample());
        assert!(json.starts_with("{\"schema\":\"dvs-verify/1\",\"lints\":["));
        assert!(json.contains("{\"name\":\"chunk-containment\",\"level\":\"deny\"}"));
        assert!(json.contains("{\"name\":\"cfg-reachability\",\"level\":\"warn\"}"));
        assert!(json.contains("\"reports\":["));
        assert!(json.ends_with("\"denies\":1,\"warns\":0}"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_batch_renders_cleanly() {
        assert_eq!(
            render_json(&[]),
            "{\"reports\":[],\"denies\":0,\"warns\":0}"
        );
        assert!(render_text(&[]).contains("0 subject(s)"));
    }
}
