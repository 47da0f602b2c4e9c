//! Aligned plain-text tables.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table builder.
///
/// # Examples
///
/// ```
/// use hpcfail_report::table::Table;
///
/// let mut t = Table::new(&["type", "P(fail)", "factor"]);
/// t.row(&["ENV", "47.2%", "23.1x"]);
/// t.row(&["NET", "30.4%", "14.9x"]);
/// let text = t.render();
/// assert!(text.contains("ENV"));
/// assert!(text.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers. The first column
    /// is left-aligned, the rest right-aligned (override with
    /// [`Table::align`]).
    pub fn new(headers: &[&str]) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Overrides one column's alignment.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range.
    pub fn align(&mut self, column: usize, align: Align) -> &mut Self {
        self.aligns[column] = align;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_owned()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with padded columns, a header rule, and two-space gutters.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let pad = |cell: &str, width: usize, align: Align| match align {
            Align::Left => format!("{cell:<width$}"),
            Align::Right => format!("{cell:>width$}"),
        };
        for (i, header) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&pad(header, widths[i], self.aligns[i]));
        }
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&pad(&row[i], widths[i], self.aligns[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["beta-long-name", "22"]);
        t
    }

    #[test]
    fn columns_are_padded() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        // Numbers right-aligned: "1" ends the line.
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn header_rule_present() {
        let text = sample().render();
        assert!(text.lines().nth(1).unwrap().chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn align_override() {
        let mut t = Table::new(&["a", "b"]);
        t.align(1, Align::Left);
        t.row(&["x", "y"]);
        let lines: Vec<String> = t.render().lines().map(String::from).collect();
        assert!(lines[2].starts_with("x  y"));
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(&["h1", "h2"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
