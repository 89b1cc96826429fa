//! Dependency-free SVG charts: multi-series line charts and grouped
//! (optionally stacked) bar charts, enough to render every figure of the
//! paper.

use core::fmt::Write as _;

/// The categorical palette used for series.
pub(crate) const PALETTE: [&str; 10] = [
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c", "#dc7ec0", "#797979",
    "#d5bb67", "#82c6e2",
];

const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 520.0;
const MARGIN_LEFT: f64 = 80.0;
const MARGIN_RIGHT: f64 = 180.0;
const MARGIN_TOP: f64 = 50.0;
const MARGIN_BOTTOM: f64 = 60.0;

/// One named line series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub(crate) label: String,
    /// `(x, y)` points in data coordinates.
    pub(crate) points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }
}

/// A multi-series line chart.
#[derive(Debug, Clone, Default)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    reference: Option<(f64, String)>,
}

impl LineChart {
    /// Creates an empty chart with axis labels.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            reference: None,
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Draws a labelled horizontal reference line (e.g., the power
    /// budget).
    pub fn reference_line(&mut self, y: f64, label: impl Into<String>) -> &mut Self {
        self.reference = Some((y, label.into()));
        self
    }

    /// Renders the chart to an SVG document.
    #[must_use]
    pub fn to_svg(&self) -> String {
        let points: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .chain(self.reference.iter().map(|(y, _)| (f64::NAN, *y)))
            .collect();
        let (x0, x1) = finite_range(points.iter().map(|p| p.0));
        let (y0, y1) = finite_range(points.iter().map(|p| p.1));
        let map_x = |x: f64| {
            MARGIN_LEFT + (x - x0) / (x1 - x0).max(1e-300) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
        };
        let map_y = |y: f64| {
            HEIGHT
                - MARGIN_BOTTOM
                - (y - y0) / (y1 - y0).max(1e-300) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        };

        let mut svg = svg_header(&self.title, &self.x_label, &self.y_label);
        axis_ticks(&mut svg, x0, x1, y0, y1, map_x, map_y);

        if let Some((y, label)) = &self.reference {
            let py = map_y(*y);
            let _ = write!(
                svg,
                "<line x1='{MARGIN_LEFT}' y1='{py:.1}' x2='{:.1}' y2='{py:.1}' \
                 stroke='#c44' stroke-dasharray='7 4' stroke-width='1.5'/>\
                 <text x='{:.1}' y='{:.1}' font-size='12' fill='#c44'>{}</text>",
                WIDTH - MARGIN_RIGHT,
                MARGIN_LEFT + 6.0,
                py - 6.0,
                escape(label),
            );
        }

        for (idx, series) in self.series.iter().enumerate() {
            let color = PALETTE[idx % PALETTE.len()];
            let mut path = String::new();
            for (i, &(x, y)) in series.points.iter().enumerate() {
                let _ = write!(
                    path,
                    "{}{:.2},{:.2} ",
                    if i == 0 { "M" } else { "L" },
                    map_x(x),
                    map_y(y)
                );
            }
            let _ = write!(
                svg,
                "<path d='{path}' fill='none' stroke='{color}' stroke-width='2'/>"
            );
            legend_entry(&mut svg, idx, color, &series.label);
        }
        svg.push_str("</svg>\n");
        svg
    }
}

/// One bar of a grouped bar chart: a label and its stacked segment
/// values (bottom first, matching the chart's segment labels).
pub(crate) type Bar = (String, Vec<f64>);

/// A grouped bar chart; each bar may be a stack of named segments.
#[derive(Debug, Clone, Default)]
pub struct BarChart {
    title: String,
    y_label: String,
    /// Segment names shared by every bar (stack order, bottom first).
    segment_labels: Vec<String>,
    /// Group label → bars within the group.
    groups: Vec<(String, Vec<Bar>)>,
    reference: Option<(f64, String)>,
}

impl BarChart {
    /// Creates a chart whose bars stack the given segments.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        y_label: impl Into<String>,
        segment_labels: &[&str],
    ) -> Self {
        Self {
            title: title.into(),
            y_label: y_label.into(),
            segment_labels: segment_labels.iter().map(|s| (*s).to_owned()).collect(),
            groups: Vec::new(),
            reference: None,
        }
    }

    /// Adds a group of bars.
    ///
    /// # Panics
    ///
    /// Panics if any bar's segment count differs from the chart's
    /// segment labels.
    pub fn push_group(&mut self, label: impl Into<String>, bars: Vec<Bar>) -> &mut Self {
        for (_, segments) in &bars {
            assert_eq!(segments.len(), self.segment_labels.len());
        }
        self.groups.push((label.into(), bars));
        self
    }

    /// Draws a labelled horizontal reference line.
    pub fn reference_line(&mut self, y: f64, label: impl Into<String>) -> &mut Self {
        self.reference = Some((y, label.into()));
        self
    }

    /// Renders the chart to an SVG document.
    #[must_use]
    pub fn to_svg(&self) -> String {
        let max_stack = self
            .groups
            .iter()
            .flat_map(|(_, bars)| bars.iter())
            .map(|(_, segs)| segs.iter().sum::<f64>())
            .chain(self.reference.iter().map(|(y, _)| *y))
            .fold(1e-12_f64, f64::max);
        let map_y =
            |y: f64| HEIGHT - MARGIN_BOTTOM - y / max_stack * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM);

        let mut svg = svg_header(&self.title, "", &self.y_label);
        // Y ticks.
        for t in 0..=5 {
            let y = max_stack * f64::from(t) / 5.0;
            let py = map_y(y);
            let _ = write!(
                svg,
                "<line x1='{:.1}' y1='{py:.1}' x2='{:.1}' y2='{py:.1}' stroke='#ddd'/>\
                 <text x='{:.1}' y='{:.1}' font-size='11' text-anchor='end'>{}</text>",
                MARGIN_LEFT,
                WIDTH - MARGIN_RIGHT,
                MARGIN_LEFT - 6.0,
                py + 4.0,
                nice_number(y),
            );
        }

        let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
        let n_groups = self.groups.len().max(1) as f64;
        let group_w = plot_w / n_groups;
        for (g, (label, bars)) in self.groups.iter().enumerate() {
            let gx = MARGIN_LEFT + g as f64 * group_w;
            let n_bars = bars.len().max(1) as f64;
            let bar_w = (group_w * 0.8) / n_bars;
            for (b, (bar_label, segments)) in bars.iter().enumerate() {
                let x = gx + group_w * 0.1 + b as f64 * bar_w;
                let mut base = 0.0;
                for (s, &value) in segments.iter().enumerate() {
                    let color = PALETTE[s % PALETTE.len()];
                    let y_top = map_y(base + value);
                    let h = map_y(base) - y_top;
                    let _ = write!(
                        svg,
                        "<rect x='{:.1}' y='{y_top:.1}' width='{:.1}' height='{h:.1}' \
                         fill='{color}' stroke='white' stroke-width='0.5'>\
                         <title>{}: {}</title></rect>",
                        x,
                        bar_w - 2.0,
                        escape(bar_label),
                        nice_number(value),
                    );
                    base += value;
                }
            }
            let _ = write!(
                svg,
                "<text x='{:.1}' y='{:.1}' font-size='12' text-anchor='middle'>{}</text>",
                gx + group_w / 2.0,
                HEIGHT - MARGIN_BOTTOM + 18.0,
                escape(label),
            );
        }

        if let Some((y, label)) = &self.reference {
            let py = map_y(*y);
            let _ = write!(
                svg,
                "<line x1='{MARGIN_LEFT}' y1='{py:.1}' x2='{:.1}' y2='{py:.1}' \
                 stroke='#c44' stroke-dasharray='7 4' stroke-width='1.5'/>\
                 <text x='{:.1}' y='{:.1}' font-size='12' fill='#c44'>{}</text>",
                WIDTH - MARGIN_RIGHT,
                MARGIN_LEFT + 6.0,
                py - 6.0,
                escape(label),
            );
        }

        for (idx, label) in self.segment_labels.iter().enumerate() {
            legend_entry(&mut svg, idx, PALETTE[idx % PALETTE.len()], label);
        }
        svg.push_str("</svg>\n");
        svg
    }
}

fn svg_header(title: &str, x_label: &str, y_label: &str) -> String {
    let mut svg = String::with_capacity(16_384);
    let _ = write!(
        svg,
        "<svg xmlns='http://www.w3.org/2000/svg' width='{WIDTH}' height='{HEIGHT}' \
         viewBox='0 0 {WIDTH} {HEIGHT}' font-family='sans-serif'>\
         <rect width='100%' height='100%' fill='white'/>\
         <text x='{:.1}' y='28' font-size='16' text-anchor='middle' font-weight='bold'>{}</text>\
         <text x='{:.1}' y='{:.1}' font-size='13' text-anchor='middle'>{}</text>\
         <text x='18' y='{:.1}' font-size='13' text-anchor='middle' \
         transform='rotate(-90 18 {:.1})'>{}</text>",
        (MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2.0,
        escape(title),
        (MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2.0,
        HEIGHT - 14.0,
        escape(x_label),
        HEIGHT / 2.0,
        HEIGHT / 2.0,
        escape(y_label),
    );
    svg
}

fn axis_ticks(
    svg: &mut String,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    map_x: impl Fn(f64) -> f64,
    map_y: impl Fn(f64) -> f64,
) {
    for t in 0..=5 {
        let frac = f64::from(t) / 5.0;
        let x = x0 + (x1 - x0) * frac;
        let y = y0 + (y1 - y0) * frac;
        let px = map_x(x);
        let py = map_y(y);
        let _ = write!(
            svg,
            "<line x1='{px:.1}' y1='{MARGIN_TOP}' x2='{px:.1}' y2='{:.1}' stroke='#eee'/>\
             <text x='{px:.1}' y='{:.1}' font-size='11' text-anchor='middle'>{}</text>\
             <line x1='{MARGIN_LEFT}' y1='{py:.1}' x2='{:.1}' y2='{py:.1}' stroke='#eee'/>\
             <text x='{:.1}' y='{:.1}' font-size='11' text-anchor='end'>{}</text>",
            HEIGHT - MARGIN_BOTTOM,
            HEIGHT - MARGIN_BOTTOM + 16.0,
            nice_number(x),
            WIDTH - MARGIN_RIGHT,
            MARGIN_LEFT - 6.0,
            py + 4.0,
            nice_number(y),
        );
    }
}

fn legend_entry(svg: &mut String, idx: usize, color: &str, label: &str) {
    let y = MARGIN_TOP + 8.0 + idx as f64 * 20.0;
    let x = WIDTH - MARGIN_RIGHT + 14.0;
    let _ = write!(
        svg,
        "<rect x='{x:.1}' y='{:.1}' width='14' height='14' fill='{color}'/>\
         <text x='{:.1}' y='{:.1}' font-size='12'>{}</text>",
        y - 11.0,
        x + 20.0,
        y,
        escape(label),
    );
}

fn finite_range(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for v in values.filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 1.0)
    } else if (hi - lo).abs() < 1e-300 {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn nice_number(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_renders_all_series() {
        let mut chart = LineChart::new("Power", "channels", "mW");
        chart.push_series(Series::new("BISC", vec![(1024.0, 38.9), (2048.0, 77.8)]));
        chart.push_series(Series::new("HALO*", vec![(1024.0, 10.0), (2048.0, 20.0)]));
        chart.reference_line(57.6, "Power Budget");
        let svg = chart.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("BISC"));
        assert!(svg.contains("HALO*"));
        assert!(svg.contains("Power Budget"));
        assert_eq!(svg.matches("<path").count(), 2);
    }

    #[test]
    fn bar_chart_stacks_segments() {
        let mut chart = BarChart::new("Fig 5", "P/Pbudget", &["Sensing", "Non-Sensing"]);
        chart.push_group(
            "1024",
            vec![
                ("1".to_owned(), vec![0.3, 0.4]),
                ("2".to_owned(), vec![0.5, 0.3]),
            ],
        );
        chart.push_group("2048", vec![("1".to_owned(), vec![0.4, 0.5])]);
        chart.reference_line(1.0, "Power Budget");
        let svg = chart.to_svg();
        // 3 bars x 2 segments, each carrying a tooltip title.
        assert_eq!(svg.matches("<title>").count(), 3 * 2);
        assert!(svg.contains("Sensing"));
        assert!(svg.contains("1024"));
    }

    #[test]
    fn empty_chart_still_valid_svg() {
        let chart = LineChart::new("empty", "x", "y");
        let svg = chart.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut chart = LineChart::new("a < b & c", "x", "y");
        chart.push_series(Series::new("s<1>", vec![(0.0, 0.0), (1.0, 1.0)]));
        let svg = chart.to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(svg.contains("s&lt;1&gt;"));
        assert!(!svg.contains("s<1>"));
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn mismatched_segments_panic() {
        let mut chart = BarChart::new("x", "y", &["a", "b"]);
        chart.push_group("g", vec![("bar".to_owned(), vec![1.0])]);
    }

    #[test]
    fn range_handles_degenerate_input() {
        assert_eq!(finite_range([].into_iter()), (0.0, 1.0));
        let (lo, hi) = finite_range([2.0, 2.0].into_iter());
        assert!(lo < 2.0 && hi > 2.0);
        let (lo, hi) = finite_range([f64::NAN, 1.0, 3.0].into_iter());
        assert_eq!((lo, hi), (1.0, 3.0));
    }
}
