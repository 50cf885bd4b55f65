//! Minimal markdown table builder used by the experiment harness.

use std::fmt;

/// A simple markdown table: a header row plus data rows, rendered with
/// `Display`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }
}

/// One markdown row: the cells with their pipes escaped, so a cell such
/// as `|T|` stays one column.
fn row(cells: &[String]) -> String {
    let cells: Vec<String> = cells.iter().map(|cell| cell.replace('|', "\\|")).collect();
    format!("| {} |", cells.join(" | "))
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}\n", self.title)?;
        writeln!(f, "{}", row(&self.header))?;
        writeln!(
            f,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for cells in &self.rows {
            writeln!(f, "{}", row(cells))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["3".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("### Demo"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 3 | 4 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pipes_in_headers_and_cells_stay_one_column() {
        let mut t = Table::new("Demo", &["n", "constructed |T|"]);
        t.push_row(vec!["4".into(), "|x|".into()]);
        let s = t.to_string();
        assert!(s.contains("| n | constructed \\|T\\| |"), "{s}");
        assert!(s.contains("| 4 | \\|x\\| |"), "{s}");
        // Two columns: three unescaped pipes on every row.
        for line in s.lines().skip(2) {
            let unescaped = line.replace("\\|", "");
            assert_eq!(unescaped.matches('|').count(), 3, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
