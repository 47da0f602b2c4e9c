//! Property-based tests for the text renderers: alignment invariants
//! and chart bounds.

use hpcfail_report::chart::{BarChart, ScatterPlot};
use hpcfail_report::fmt::{factor, p_value, pct, stars};
use hpcfail_report::table::Table;
use proptest::prelude::*;

fn cell() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 .%-]{0,12}"
}

proptest! {
    #[test]
    fn table_lines_share_width(
        rows in prop::collection::vec(prop::collection::vec(cell(), 3..4usize), 1..12),
    ) {
        let mut t = Table::new(&["a", "b", "c"]);
        for row in &rows {
            t.row(&[row[0].as_str(), row[1].as_str(), row[2].as_str()]);
        }
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 2);
        // All data lines padded to the same width (trailing-space
        // differences only come from left-aligned last cells, which the
        // renderer pads too).
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        let header_w = widths[0];
        for (i, w) in widths.iter().enumerate().skip(2) {
            prop_assert_eq!(*w, header_w, "line {} width", i);
        }
    }

    #[test]
    fn bar_chart_hash_count_bounded(values in prop::collection::vec(0.0f64..1000.0, 1..10)) {
        let mut chart = BarChart::new("t");
        for (i, &v) in values.iter().enumerate() {
            chart.bar(&format!("bar{i}"), v, "");
        }
        let text = chart.render(40);
        for line in text.lines().skip(1) {
            let hashes = line.chars().filter(|&c| c == '#').count();
            prop_assert!(hashes <= 40);
        }
    }

    #[test]
    fn scatter_render_never_panics(
        points in prop::collection::vec((-1000.0f64..1000.0, -1000.0f64..1000.0), 0..50),
    ) {
        let mut plot = ScatterPlot::new("t", "x", "y");
        for &(x, y) in &points {
            plot.point(x, y, '*');
        }
        let text = plot.render(30, 10);
        prop_assert!(!text.is_empty());
        if !points.is_empty() {
            // Grid rows bounded by requested height + decorations.
            prop_assert!(text.lines().count() <= 10 + 3);
        }
    }

    #[test]
    fn fmt_functions_total(p in 0.0f64..1.0, f in 0.0f64..10_000.0) {
        // Formatting never panics and always yields non-empty strings.
        prop_assert!(!pct(p).is_empty());
        prop_assert!(!factor(Some(f)).is_empty());
        prop_assert!(!p_value(p).is_empty());
        let _ = stars(p);
    }
}
