//! ASCII bar charts for the paper's figures, plus inline-SVG stacked
//! bars for the HTML report.
//!
//! Figures 8 and 9 in the paper are grouped bar charts on a logarithmic
//! vertical axis; [`render_log_bars`] renders the same data as
//! horizontal ASCII bars with a log-scaled length, so the repro
//! binary's output is visually comparable to the paper's plots.
//!
//! [`render_stacked_svg`] renders the §4.2–§4.4 cycle breakdowns as
//! normalized horizontal stacked bars (one segment per breakdown
//! category), self-contained SVG with no external tools. Colors come
//! from the same deterministic hash palette as the flamegraphs
//! ([`triarch_profile::frame_color`]), so a category has one color
//! across every exhibit, and all coordinates use fixed two-decimal
//! precision so the markup is byte-stable.

use std::fmt::Write as _;

use triarch_profile::{frame_color, xml_escape};
use triarch_timeline::Timeline;

/// One bar: a label and a positive value.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Row label (e.g. `"VIRAM / Corner Turn"`).
    pub label: String,
    /// Bar value; must be positive to render on a log axis.
    pub value: f64,
}

/// Renders horizontal bars on a log10 axis.
///
/// Bars are scaled so the largest value spans `width` characters; values
/// of 1.0 (no speedup) have zero length, values below 1.0 render as a
/// left marker. Returns an empty string for an empty input.
///
/// # Example
///
/// ```
/// use triarch_core::chart::{render_log_bars, Bar};
///
/// let bars = vec![
///     Bar { label: "Raw".into(), value: 200.0 },
///     Bar { label: "VIRAM".into(), value: 50.0 },
/// ];
/// let chart = render_log_bars(&bars, 40);
/// assert!(chart.contains("Raw"));
/// assert!(chart.contains('#'));
/// ```
#[must_use]
pub fn render_log_bars(bars: &[Bar], width: usize) -> String {
    if bars.is_empty() || width == 0 {
        return String::new();
    }
    let max_log = bars
        .iter()
        .map(|b| b.value.max(f64::MIN_POSITIVE).log10())
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-9);
    let label_width = bars.iter().map(|b| b.label.len()).max().unwrap_or(0);

    let mut out = String::new();
    for bar in bars {
        let log = bar.value.max(f64::MIN_POSITIVE).log10();
        let len = if log <= 0.0 { 0 } else { ((log / max_log) * width as f64).round() as usize };
        out.push_str(&format!(
            "{:<label_width$} |{}{} {:.1}x\n",
            bar.label,
            "#".repeat(len),
            if log < 0.0 { "<" } else { "" },
            bar.value,
        ));
    }
    // Log-axis legend: decade tick marks.
    let decades = max_log.ceil() as usize;
    out.push_str(&format!(
        "{:<label_width$} +{}\n",
        "",
        (1..=decades)
            .map(|d| {
                let pos = (d as f64 / max_log) * width as f64;
                format!("10^{d}@{:.0}", pos.min(width as f64))
            })
            .collect::<Vec<_>>()
            .join(" "),
    ));
    out
}

/// One stacked bar: a row label plus `(segment label, weight)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackedBar {
    /// Row label (e.g. `"VIRAM / Corner Turn"`).
    pub label: String,
    /// Segments in display order; each bar is normalized to 100%.
    pub segments: Vec<(String, u64)>,
}

/// Label gutter width in the stacked-bar SVG.
const GUTTER: f64 = 210.0;
/// Stacked-bar plot width.
const PLOT_W: f64 = 760.0;
/// Height of one stacked bar.
const BAR_H: f64 = 20.0;
/// Vertical gap between bars.
const BAR_GAP: f64 = 6.0;
/// Vertical space reserved for the chart title.
const TITLE_H: f64 = 26.0;

/// Renders normalized horizontal stacked bars as a self-contained SVG.
///
/// Every bar spans the full plot width; segment widths are
/// proportional to their share of the bar's total, matching the
/// percentage-stacked presentation of the paper's §4.2–§4.4 breakdown
/// discussion. Segments carry `<title>` tooltips with the raw cycle
/// weight and percentage. Zero-total bars render their label with an
/// empty track; empty input renders an empty SVG shell.
#[must_use]
pub fn render_stacked_svg(title: &str, bars: &[StackedBar]) -> String {
    let height = TITLE_H + bars.len() as f64 * (BAR_H + BAR_GAP) + 4.0;
    let width = GUTTER + PLOT_W + 10.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">",
    );
    let _ = writeln!(
        out,
        "<text x=\"4\" y=\"17\" font-size=\"13\" font-family=\"monospace\" \
         font-weight=\"bold\" fill=\"black\">{}</text>",
        xml_escape(title),
    );
    for (row, bar) in bars.iter().enumerate() {
        let y = TITLE_H + row as f64 * (BAR_H + BAR_GAP);
        let _ = writeln!(
            out,
            "<text x=\"4\" y=\"{ty:.2}\" font-size=\"11\" \
             font-family=\"monospace\" fill=\"black\">{}</text>",
            xml_escape(&bar.label),
            ty = y + BAR_H - 6.0,
        );
        let total: u64 = bar.segments.iter().map(|(_, w)| *w).sum();
        if total == 0 {
            continue;
        }
        let mut x = GUTTER;
        for (name, weight) in &bar.segments {
            if *weight == 0 {
                continue;
            }
            let w = PLOT_W * *weight as f64 / total as f64;
            let (r, g, b) = frame_color(name);
            let pct = 100.0 * *weight as f64 / total as f64;
            let _ = writeln!(
                out,
                "<g><title>{esc}: {weight} cycles ({pct:.2}%)</title>\
                 <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" \
                 height=\"{h:.2}\" fill=\"rgb({r},{g},{b})\" stroke=\"white\" \
                 stroke-width=\"0.5\"/></g>",
                esc = xml_escape(name),
                h = BAR_H,
            );
            x += w;
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Maximum number of window columns in a timeline SVG; finer timelines
/// are losslessly coarsened ([`Timeline::coarsen`]) to fit.
const TIMELINE_MAX_COLUMNS: usize = 64;
/// Height of one component lane in the timeline SVG.
const LANE_H: f64 = 16.0;
/// Vertical gap between lanes.
const LANE_GAP: f64 = 4.0;
/// Height of the busy/stall/idle occupancy strip.
const STRIP_H: f64 = 22.0;
/// Occupancy strip colors (busy, stall, idle).
const OCC_BUSY: &str = "rgb(88,150,86)";
const OCC_STALL: &str = "rgb(201,93,74)";
const OCC_IDLE: &str = "rgb(225,225,225)";

/// One SVG lane: `(track, counted, per-category window series)`.
type TimelineLane<'a> = (&'static str, bool, Vec<(&'static str, &'a [u64])>);

/// Renders a [`Timeline`] as a Gantt-style utilization SVG.
///
/// One lane per track (counted lanes first, then uncounted *detail*
/// lanes at reduced opacity), one column per cycle window. Within a
/// column, per-category segments stack left-to-right scaled by the
/// window's cycle capacity, so unfilled column width is idle time.
/// Below the lanes, a per-window occupancy strip stacks the
/// busy/stall/idle split across every counted track. Category colors
/// come from the deterministic FNV-1a palette
/// ([`triarch_profile::frame_color`]) shared with the stacked bars and
/// flamegraphs; all coordinates are fixed two-decimal, so the markup is
/// byte-stable.
#[must_use]
pub fn render_timeline_svg(title: &str, timeline: &Timeline) -> String {
    // Coarsen to at most TIMELINE_MAX_COLUMNS columns (lossless).
    let fine = timeline.windows();
    let factor = (fine as u64).div_ceil(TIMELINE_MAX_COLUMNS as u64).max(1);
    let view = timeline.coarsen(factor);
    let windows = view.windows();
    let window = view.window();

    // Group series by track: counted lanes first, then detail lanes.
    let mut lanes: Vec<TimelineLane> = Vec::new();
    for (counted, tracks) in [(true, view.counted_tracks()), (false, view.detail_tracks())] {
        for track in tracks {
            let series: Vec<(&'static str, &[u64])> = if counted {
                view.counted_series()
                    .filter(|&(t, _, _)| t == track)
                    .map(|(_, category, s)| (category, s))
                    .collect()
            } else {
                view.detail_series()
                    .filter(|&(t, _, _)| t == track)
                    .map(|(_, category, s)| (category, s))
                    .collect()
            };
            lanes.push((track, counted, series));
        }
    }

    let lanes_h = lanes.len() as f64 * (LANE_H + LANE_GAP);
    let height = TITLE_H + lanes_h + STRIP_H + LANE_GAP + 16.0;
    let width = GUTTER + PLOT_W + 10.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">",
    );
    let _ = writeln!(
        out,
        "<text x=\"4\" y=\"17\" font-size=\"13\" font-family=\"monospace\" \
         font-weight=\"bold\" fill=\"black\">{} — {windows} windows × {window} \
         cycles</text>",
        xml_escape(title),
    );
    if windows == 0 {
        out.push_str("</svg>\n");
        return out;
    }
    let col_w = PLOT_W / windows as f64;
    for (row, (track, counted, series)) in lanes.iter().enumerate() {
        let y = TITLE_H + row as f64 * (LANE_H + LANE_GAP);
        let _ = writeln!(
            out,
            "<text x=\"4\" y=\"{ty:.2}\" font-size=\"11\" \
             font-family=\"monospace\" fill=\"black\">{}{}</text>",
            xml_escape(track),
            if *counted { "" } else { " (detail)" },
            ty = y + LANE_H - 5.0,
        );
        let _ = writeln!(
            out,
            "<rect x=\"{gx:.2}\" y=\"{y:.2}\" width=\"{pw:.2}\" height=\"{h:.2}\" \
             fill=\"rgb(246,246,246)\"/>",
            gx = GUTTER,
            pw = PLOT_W,
            h = LANE_H,
        );
        let opacity = if *counted { "" } else { " fill-opacity=\"0.55\"" };
        for w in 0..windows {
            let x0 = GUTTER + w as f64 * col_w;
            let mut filled = 0.0f64;
            for (category, s) in series {
                let cycles = s.get(w).copied().unwrap_or(0);
                if cycles == 0 {
                    continue;
                }
                // Scale by the window's cycle capacity; clamp so a
                // column never spills into its neighbour.
                let seg = (col_w * cycles as f64 / window as f64).min(col_w - filled);
                if seg <= 0.0 {
                    continue;
                }
                let (r, g, b) = frame_color(category);
                let _ = writeln!(
                    out,
                    "<g><title>w{w} {esc}: {cycles} cycles</title>\
                     <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{sw:.2}\" \
                     height=\"{h:.2}\" fill=\"rgb({r},{g},{b})\"{opacity}/></g>",
                    esc = xml_escape(category),
                    x = x0 + filled,
                    sw = seg,
                    h = LANE_H,
                );
                filled += seg;
            }
        }
    }
    // Busy/stall/idle occupancy strip across every counted track.
    let sy = TITLE_H + lanes_h + LANE_GAP;
    let _ = writeln!(
        out,
        "<text x=\"4\" y=\"{ty:.2}\" font-size=\"11\" font-family=\"monospace\" \
         fill=\"black\">occupancy</text>",
        ty = sy + STRIP_H - 7.0,
    );
    for (w, occ) in view.occupancy().iter().enumerate() {
        let x0 = GUTTER + w as f64 * col_w;
        if occ.span == 0 {
            continue;
        }
        let mut yy = sy;
        for (cycles, fill) in [(occ.busy, OCC_BUSY), (occ.stall, OCC_STALL), (occ.idle(), OCC_IDLE)]
        {
            if cycles == 0 {
                continue;
            }
            let h = STRIP_H * cycles as f64 / occ.span as f64;
            let _ = writeln!(
                out,
                "<g><title>w{w}: {cycles} of {span} cycles</title>\
                 <rect x=\"{x0:.2}\" y=\"{yy:.2}\" width=\"{cw:.2}\" \
                 height=\"{h:.2}\" fill=\"{fill}\"/></g>",
                span = occ.span,
                cw = col_w,
            );
            yy += h;
        }
    }
    // Window axis: first window start, midpoint, and run end in cycles.
    let ay = sy + STRIP_H + 12.0;
    let mid = (windows as u64 / 2) * window;
    let _ = writeln!(
        out,
        "<text x=\"{gx:.2}\" y=\"{ay:.2}\" font-size=\"10\" \
         font-family=\"monospace\" fill=\"black\">cycle 0</text>\
         <text x=\"{mx:.2}\" y=\"{ay:.2}\" font-size=\"10\" \
         font-family=\"monospace\" fill=\"black\">{mid}</text>\
         <text x=\"{ex:.2}\" y=\"{ay:.2}\" font-size=\"10\" \
         font-family=\"monospace\" text-anchor=\"end\" fill=\"black\">{end}</text>",
        gx = GUTTER,
        mx = GUTTER + PLOT_W / 2.0,
        ex = GUTTER + PLOT_W,
        end = view.span_end(),
    );
    out.push_str("</svg>\n");
    out
}

/// A deterministic color legend for the categories used by
/// [`render_stacked_svg`], as inline HTML chips.
#[must_use]
pub fn render_legend_html(categories: &[&str]) -> String {
    let mut out = String::from("<p class=\"legend\">");
    for (i, name) in categories.iter().enumerate() {
        if i != 0 {
            out.push(' ');
        }
        let (r, g, b) = frame_color(name);
        let _ = write!(
            out,
            "<span style=\"background:rgb({r},{g},{b});padding:0 6px;\
             border:1px solid #999;\">&nbsp;</span>&nbsp;{}",
            xml_escape(name),
        );
    }
    out.push_str("</p>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bars(values: &[f64]) -> Vec<Bar> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| Bar { label: format!("row{i}"), value: *v })
            .collect()
    }

    #[test]
    fn empty_input_renders_nothing() {
        assert_eq!(render_log_bars(&[], 40), "");
        assert_eq!(render_log_bars(&bars(&[5.0]), 0), "");
    }

    #[test]
    fn longest_bar_belongs_to_largest_value() {
        let chart = render_log_bars(&bars(&[10.0, 100.0, 1000.0]), 30);
        let lines: Vec<&str> = chart.lines().collect();
        let count = |s: &str| s.matches('#').count();
        assert!(count(lines[0]) < count(lines[1]));
        assert!(count(lines[1]) < count(lines[2]));
        assert_eq!(count(lines[2]), 30);
    }

    #[test]
    fn log_scale_compresses_ratios() {
        // 10 -> 100 and 100 -> 1000 are the same distance on a log axis.
        let chart = render_log_bars(&bars(&[10.0, 100.0, 1000.0]), 30);
        let lines: Vec<&str> = chart.lines().collect();
        let count = |s: &str| s.matches('#').count() as i64;
        let step1 = count(lines[1]) - count(lines[0]);
        let step2 = count(lines[2]) - count(lines[1]);
        assert!((step1 - step2).abs() <= 1, "steps {step1} vs {step2}");
    }

    #[test]
    fn unity_speedup_has_zero_length() {
        let chart = render_log_bars(&bars(&[1.0, 100.0]), 20);
        let first = chart.lines().next().unwrap();
        assert_eq!(first.matches('#').count(), 0);
    }

    #[test]
    fn sub_unity_marks_left() {
        let chart = render_log_bars(&bars(&[0.5, 100.0]), 20);
        assert!(chart.lines().next().unwrap().contains('<'));
    }

    #[test]
    fn values_appear_in_output() {
        let chart = render_log_bars(&bars(&[42.0]), 10);
        assert!(chart.contains("42.0x"));
        assert!(chart.contains("10^"));
    }

    fn stacked(label: &str, segments: &[(&str, u64)]) -> StackedBar {
        StackedBar {
            label: label.to_string(),
            segments: segments.iter().map(|(n, w)| (n.to_string(), *w)).collect(),
        }
    }

    #[test]
    fn stacked_svg_is_normalized_and_stable() {
        let rows = vec![
            stacked("VIRAM / Corner Turn", &[("memory", 750), ("compute", 250)]),
            stacked("Raw / CSLC", &[("dram-port", 10)]),
        ];
        let svg = render_stacked_svg("Cycle breakdowns", &rows);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("memory: 750 cycles (75.00%)"), "{svg}");
        // A single-segment bar spans the full plot width.
        assert!(svg.contains("width=\"760.00\""), "{svg}");
        assert_eq!(svg, render_stacked_svg("Cycle breakdowns", &rows));
    }

    #[test]
    fn stacked_svg_skips_zero_weights_and_totals() {
        let rows = vec![stacked("empty", &[]), stacked("zeros", &[("a", 0)])];
        let svg = render_stacked_svg("t", &rows);
        assert!(svg.contains("empty"));
        assert!(svg.contains("zeros"));
        assert!(!svg.contains("<rect"));
    }

    #[test]
    fn legend_colors_match_segments() {
        let legend = render_legend_html(&["memory", "compute"]);
        let (r, g, b) = frame_color("memory");
        assert!(legend.contains(&format!("rgb({r},{g},{b})")));
        assert!(legend.contains("memory"));
        assert!(legend.contains("compute"));
    }

    #[test]
    fn timeline_svg_renders_lanes_strip_and_axis() {
        let mut t = Timeline::new(16);
        t.add_span("mach.mem", "memory", 0, 30, true);
        t.add_span("mach.vec", "compute", 40, 10, true);
        t.add_span("mach.vec", "precharge", 50, 6, true);
        t.add_span("mach.dram", "dram-burst", 0, 12, false);
        let svg = render_timeline_svg("VIRAM / Corner Turn", &t);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("VIRAM / Corner Turn — 4 windows × 16 cycles"), "{svg}");
        assert!(svg.contains("mach.mem"));
        assert!(svg.contains("mach.dram (detail)"));
        assert!(svg.contains("fill-opacity=\"0.55\""));
        assert!(svg.contains("occupancy"));
        assert!(svg.contains(OCC_BUSY) && svg.contains(OCC_STALL) && svg.contains(OCC_IDLE));
        assert!(svg.contains("cycle 0") && svg.contains(">56<"), "{svg}");
        // Byte-stable across re-renders.
        assert_eq!(svg, render_timeline_svg("VIRAM / Corner Turn", &t));
    }

    #[test]
    fn timeline_svg_coarsens_to_the_column_cap() {
        let mut t = Timeline::new(1);
        t.add_span("m", "compute", 0, 1000, true);
        let svg = render_timeline_svg("long", &t);
        // 1000 one-cycle windows coarsen by ceil(1000/64)=16 to 63 columns.
        assert!(svg.contains("63 windows × 16 cycles"), "{svg}");
    }

    #[test]
    fn empty_timeline_renders_a_shell() {
        let svg = render_timeline_svg("empty", &Timeline::new(8));
        assert!(svg.contains("empty — 0 windows"));
        assert!(!svg.contains("<rect"));
    }

    #[test]
    fn xml_escaping_in_chart_labels() {
        let rows = vec![stacked("a<b>&\"", &[("x&y", 1)])];
        let svg = render_stacked_svg("t&t", &rows);
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;"));
        assert!(svg.contains("x&amp;y"));
        assert!(svg.contains("t&amp;t"));
        assert!(!svg.contains("a<b>"));
    }
}
