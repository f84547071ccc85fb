//! Plain-text table formatting for the harness binaries, mirroring the
//! row/column layout of the paper's tables.

/// A simple aligned text table with a title.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (shorter rows are right-padded with blanks).
    ///
    /// # Panics
    /// Panics if the row is longer than the header.
    pub fn row(&mut self, cells: &[String]) {
        assert!(
            cells.len() <= self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        let mut r = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate().take(ncols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (for machine consumption alongside the text table).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["model", "mse"]);
        t.row(&["Conformer".into(), "0.21".into()]);
        t.row(&["GRU".into(), "0.73".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Conformer  0.21"), "{s}");
        assert!(s.contains("GRU        0.73"), "{s}");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }
}
