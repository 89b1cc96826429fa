//! Minimal CSV writing (RFC 4180-style quoting) for experiment series.

use core::fmt;

/// An in-memory CSV document with a fixed header.
#[derive(Debug, Clone, PartialEq)]
pub struct Csv {
    columns: usize,
    buffer: String,
    rows: usize,
}

impl Csv {
    /// Creates a document with the given header row.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty — a CSV without columns is a logic
    /// error at the call site.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "CSV needs at least one column");
        let mut doc = Self {
            columns: headers.len(),
            buffer: String::new(),
            rows: 0,
        };
        doc.write_row(headers.iter().map(|h| field(h)));
        doc
    }

    /// Appends a row of display-able cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn push<T: fmt::Display>(&mut self, cells: &[T]) {
        assert_eq!(
            cells.len(),
            self.columns,
            "row width {} != header width {}",
            cells.len(),
            self.columns
        );
        self.write_row(cells.iter().map(|c| field(&c.to_string())));
        self.rows += 1;
    }

    /// Appends a row of raw numeric cells with full precision.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn push_numbers(&mut self, cells: &[f64]) {
        assert_eq!(cells.len(), self.columns);
        self.write_row(cells.iter().map(|c| format!("{c}")));
        self.rows += 1;
    }

    fn write_row(&mut self, cells: impl Iterator<Item = String>) {
        let mut first = true;
        for cell in cells {
            if !first {
                self.buffer.push(',');
            }
            first = false;
            self.buffer.push_str(&cell);
        }
        self.buffer.push('\n');
    }

    /// The document text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.buffer
    }
}

impl fmt::Display for Csv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.buffer)
    }
}

/// Quotes a field when needed.
fn field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let mut csv = Csv::new(&["n", "power_mw"]);
        csv.push(&["1024", "38.9"]);
        csv.push_numbers(&[2048.0, 77.8]);
        assert_eq!(csv.rows, 2);
        let text = csv.to_string();
        assert!(text.starts_with("n,power_mw\n"));
        assert!(text.contains("1024,38.9\n"));
        assert!(text.contains("2048,77.8\n"));
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let mut csv = Csv::new(&["name", "value"]);
        csv.push(&["Muller et al., scaled", "1"]);
        assert!(csv.as_str().contains("\"Muller et al., scaled\",1"));
    }

    #[test]
    fn quotes_are_escaped() {
        let mut csv = Csv::new(&["a"]);
        csv.push(&["say \"hi\""]);
        assert!(csv.as_str().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut csv = Csv::new(&["a", "b"]);
        csv.push(&["only one"]);
    }
}
