//! ASCII tables for printing the paper's rows to the terminal.

use core::fmt;

/// A simple monospace table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsciiTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Creates a table with the given headers.
    ///
    /// # Panics
    ///
    /// Panics on an empty header list.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push<T: fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
        self
    }
}

impl fmt::Display for AsciiTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        let row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)
        };
        line(f)?;
        row(f, &self.headers)?;
        line(f)?;
        for r in &self.rows {
            row(f, r)?;
        }
        line(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = AsciiTable::new(&["SoC", "Power (mW)"]);
        t.push(&["BISC", "38.88"]);
        t.push(&["HALO*", "10.00"]);
        let text = t.to_string();
        assert!(text.contains("|  BISC |"), "{text}");
        assert!(text.contains("38.88"));
        assert_eq!(t.rows.len(), 2);
        // Every line has the same width.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn numbers_are_right_aligned() {
        let mut t = AsciiTable::new(&["n"]);
        t.push(&[5]);
        t.push(&[50_000]);
        let text = t.to_string();
        assert!(text.contains("|     5 |"), "{text}");
        assert!(text.contains("| 50000 |"), "{text}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        AsciiTable::new(&["a", "b"]).push(&["only"]);
    }
}
