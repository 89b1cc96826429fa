//! # MINDFUL plot — minimal scientific output
//!
//! The artifact's matplotlib figures have no Rust equivalent, so this
//! crate provides the three output formats the experiment harness needs:
//! dependency-free SVG charts (line and stacked/grouped bar), CSV series,
//! and ASCII tables for terminal reports.
//!
//! ## Quick start
//!
//! ```
//! use mindful_plot::prelude::*;
//!
//! let mut chart = LineChart::new("QAM efficiency", "channels", "min efficiency [%]");
//! chart.push_series(Series::new("SoC 1", vec![(1024.0, 2.0), (2048.0, 9.0)]));
//! let svg = chart.to_svg();
//! assert!(svg.starts_with("<svg"));
//! ```

pub mod csv;
pub mod svg;
pub mod table;

pub use csv::Csv;
pub use svg::{BarChart, LineChart, Series};
pub use table::AsciiTable;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::csv::Csv;
    pub use crate::svg::{BarChart, LineChart, Series};
    pub use crate::table::AsciiTable;
}
