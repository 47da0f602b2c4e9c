//! Rendering of ingestion and data-quality reports.
//!
//! Turns the [`IngestReport`] produced by policy-driven loading into
//! the plain-text summary `repro --trace` prints, so an operator sees
//! at a glance how dirty the input was and what the recovery did.

use crate::table::Table;
use hpcfail_store::ingest::IngestReport;

/// How many quarantined lines are listed individually before the rest
/// are folded into a "... and N more" line.
const MAX_QUARANTINE_LINES: usize = 10;

/// Renders an [`IngestReport`] as a plain-text block: a headline, the
/// quarantine list (truncated), and the data-quality audit table.
pub fn render_ingest_report(report: &IngestReport) -> String {
    let mut out = format!(
        "ingestion ({} policy): {} rows parsed, {} quarantined, {} fields defaulted\n",
        report.policy,
        report.rows_ok,
        report.quarantined.len(),
        report.defaulted_fields,
    );
    if !report.quarantined.is_empty() {
        out.push_str("quarantined lines:\n");
        for q in report.quarantined.iter().take(MAX_QUARANTINE_LINES) {
            out.push_str(&format!("  {q}\n"));
        }
        let rest = report
            .quarantined
            .len()
            .saturating_sub(MAX_QUARANTINE_LINES);
        if rest > 0 {
            out.push_str(&format!("  ... and {rest} more\n"));
        }
    }
    let q = &report.quality;
    if q.is_clean() {
        out.push_str("data-quality audit: clean\n");
    } else {
        out.push_str("data-quality audit:\n");
        let mut table = Table::new(&["finding", "count"]);
        for (name, value) in [
            ("negative downtime", q.negative_downtime),
            ("out-of-order timestamps", q.out_of_order_timestamps),
            ("unresolvable node ids", q.unresolvable_nodes),
            ("overlapping repair windows", q.overlapping_repairs),
            ("duplicate records", q.duplicate_records),
            ("unknown-system records", q.unknown_system_records),
            ("records outside their span", q.out_of_span_records),
        ] {
            if value > 0 {
                table.row(&[name, &value.to_string()]);
            }
        }
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::ingest::{IngestPolicy, QuarantinedLine};

    #[test]
    fn clean_report_is_one_headline_plus_verdict() {
        let report = IngestReport::new(IngestPolicy::Strict);
        let text = render_ingest_report(&report);
        assert!(text.contains("strict policy"));
        assert!(text.contains("audit: clean"));
    }

    #[test]
    fn quarantine_list_truncates() {
        let mut report = IngestReport::new(IngestPolicy::Lenient);
        for i in 0..15 {
            report.quarantined.push(QuarantinedLine {
                file: "failures.csv".into(),
                line: i + 2,
                message: "bad field".into(),
                raw: "x".into(),
            });
        }
        report.quality.negative_downtime = 3;
        let text = render_ingest_report(&report);
        assert!(text.contains("... and 5 more"), "{text}");
        assert!(text.contains("negative downtime"), "{text}");
        assert!(
            !text.contains("duplicate records"),
            "zero-count findings are omitted: {text}"
        );
    }
}
