//! Plain-text report tables.
//!
//! The benchmark harnesses regenerate the paper's tables and figure series
//! as aligned ASCII tables on stdout; this module is the shared renderer.

/// A simple column-aligned ASCII table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells. Short rows are padded.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .take(ncols)
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a byte count as adaptive `B`/`KB`/`MB`/`GB` (decimal).
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1e9 {
        format!("{:.3} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        // all data lines same width
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["x".into()]);
        let r = t.render();
        assert!(r.lines().count() >= 3);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(12), "12 B");
        assert_eq!(fmt_bytes(1500), "1.5 KB");
        assert_eq!(fmt_bytes(2_500_000), "2.50 MB");
        assert_eq!(fmt_bytes(952_000_000), "952.00 MB");
        assert_eq!(fmt_bytes(1_904_000_000), "1.904 GB");
    }
}
