//! Self-contained inline-SVG flamegraphs — no external tools.
//!
//! Renders a [`Fold`] as a three-level icicle (root `arch;kernel`,
//! then breakdown categories, then span leaves), the exact depth the
//! collapsed-stack output carries. The SVG is deterministic: frames are
//! laid out from the sanitized, sorted fold; colors come from an
//! FNV-1a hash of the frame label ([`frame_color`]); and every
//! coordinate is emitted with fixed two-decimal precision, so the
//! rendering is byte-stable across runs and worker counts. Each frame
//! carries a `<title>` tooltip with its label, cycle weight, and share
//! of the total, which browsers show on hover with no JavaScript.

use std::fmt::Write as _;

use crate::fold::Fold;

/// Canvas width in pixels.
const WIDTH: f64 = 1000.0;
/// Height of one frame row.
const FRAME_H: f64 = 18.0;
/// Vertical space reserved for the title line.
const TITLE_H: f64 = 24.0;
/// Bottom margin.
const MARGIN_B: f64 = 6.0;
/// Approximate glyph advance of the 11-px monospace labels.
const GLYPH_W: f64 = 6.6;
/// Minimum frame width that still gets an inline label.
const MIN_LABEL_W: f64 = 30.0;

/// Deterministic warm palette: FNV-1a over the frame label
/// ([`crate::hash::fnv1a64`]) mapped into the classic flamegraph
/// red–orange–yellow band. Equal labels always get equal colors, across
/// cells and across processes.
#[must_use]
pub fn frame_color(label: &str) -> (u8, u8, u8) {
    let h = crate::hash::fnv1a64(label.as_bytes());
    let r = 205 + (h % 50) as u8;
    let g = 60 + ((h >> 8) % 120) as u8;
    let b = ((h >> 16) % 40) as u8;
    (r, g, b)
}

/// Escapes text for XML attribute and element content — the one
/// escaper behind every SVG and HTML artifact in the workspace.
#[must_use]
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// One frame rectangle, with label text when it fits.
fn frame(out: &mut String, x: f64, y: f64, w: f64, label: &str, cycles: u64, total: u64) {
    let (r, g, b) = frame_color(label);
    let pct = if total == 0 { 0.0 } else { 100.0 * cycles as f64 / total as f64 };
    let esc = xml_escape(label);
    let _ = writeln!(
        out,
        "<g><title>{esc} ({cycles} cycles, {pct:.2}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" \
         fill=\"rgb({r},{g},{b})\" stroke=\"white\" stroke-width=\"0.5\"/>",
        h = FRAME_H,
    );
    if w >= MIN_LABEL_W {
        let fit = ((w - 6.0) / GLYPH_W) as usize;
        let shown: String = if label.chars().count() <= fit {
            label.to_string()
        } else {
            let mut s: String = label.chars().take(fit.saturating_sub(2)).collect();
            s.push_str("..");
            s
        };
        let _ = writeln!(
            out,
            "<text x=\"{tx:.2}\" y=\"{ty:.2}\" font-size=\"11\" \
             font-family=\"monospace\" fill=\"black\">{}</text>",
            xml_escape(&shown),
            tx = x + 3.0,
            ty = y + FRAME_H - 5.0,
        );
    }
    out.push_str("</g>\n");
}

/// Renders `fold` as a self-contained SVG flamegraph rooted at
/// `arch;kernel`.
///
/// The root frame spans the full width and carries the fold's total;
/// the middle row is one frame per breakdown category; the bottom row
/// one frame per span leaf. Frame widths are proportional to cycle
/// weight. An empty fold renders a placeholder banner instead of
/// frames.
#[must_use]
pub fn flamegraph_svg(arch: &str, kernel: &str, fold: &Fold) -> String {
    let sanitized = fold.sanitized_leaves(arch, kernel);
    let total = sanitized.total();
    let height = TITLE_H + 3.0 * FRAME_H + MARGIN_B;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {WIDTH:.0} {height:.0}\">",
    );
    let _ = writeln!(
        out,
        "<text x=\"{tx:.2}\" y=\"16\" font-size=\"13\" font-family=\"monospace\" \
         text-anchor=\"middle\" fill=\"black\">{} cycle flamegraph \
         ({total} cycles)</text>",
        xml_escape(&sanitized.root),
        tx = WIDTH / 2.0,
    );
    if total == 0 {
        let _ = writeln!(
            out,
            "<text x=\"{tx:.2}\" y=\"{ty:.2}\" font-size=\"11\" \
             font-family=\"monospace\" text-anchor=\"middle\" \
             fill=\"gray\">(no counted cycles)</text>",
            tx = WIDTH / 2.0,
            ty = TITLE_H + FRAME_H,
        );
        out.push_str("</svg>\n");
        return out;
    }

    // Root frame: the whole cell.
    frame(&mut out, 0.0, TITLE_H, WIDTH, &sanitized.root, total, total);

    // Category row, then leaf row, both in sorted fold order so the
    // leaf frames nest exactly under their category frame.
    let scale = WIDTH / total as f64;
    let mut cat_x = 0.0f64;
    for (category, cat_cycles) in sanitized.categories() {
        frame(
            &mut out,
            cat_x,
            TITLE_H + FRAME_H,
            cat_cycles as f64 * scale,
            &category,
            cat_cycles,
            total,
        );
        let mut leaf_x = cat_x;
        for ((leaf_cat, name), &cycles) in &sanitized.leaves {
            if *leaf_cat != category {
                continue;
            }
            let w = cycles as f64 * scale;
            frame(&mut out, leaf_x, TITLE_H + 2.0 * FRAME_H, w, name, cycles, total);
            leaf_x += w;
        }
        cat_x += cat_cycles as f64 * scale;
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_trace::TraceEvent;

    fn span(category: &'static str, name: &'static str, dur: u64) -> TraceEvent {
        TraceEvent::Span { track: "t", category, name, start: 0, dur, counted: true }
    }

    #[test]
    fn colors_are_deterministic_and_warm() {
        assert_eq!(frame_color("memory"), frame_color("memory"));
        let (r, _, b) = frame_color("anything");
        assert!(r >= 205);
        assert!(b < 40);
        assert_ne!(frame_color("memory"), frame_color("compute"));
    }

    #[test]
    fn escape_covers_xml_metacharacters() {
        assert_eq!(xml_escape("a<b>&\"'c"), "a&lt;b&gt;&amp;&quot;&apos;c");
    }

    #[test]
    fn svg_is_self_contained_and_stable() {
        let fold = Fold::from_events(&[span("mem", "vld", 750), span("alu", "vfp", 250)]);
        let svg = flamegraph_svg("VIRAM", "Corner Turn", &fold);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("VIRAM;Corner-Turn"));
        assert!(svg.contains("(1000 cycles)"));
        assert!(svg.contains("mem (750 cycles, 75.00%)"));
        assert!(svg.contains("vfp (250 cycles, 25.00%)"));
        // No external references: self-contained means no href/src.
        assert!(!svg.contains("href"));
        assert!(!svg.contains("src="));
        // Byte-stable.
        assert_eq!(svg, flamegraph_svg("VIRAM", "Corner Turn", &fold));
    }

    #[test]
    fn empty_fold_renders_placeholder() {
        let svg = flamegraph_svg("A", "K", &Fold::new());
        assert!(svg.contains("no counted cycles"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn long_labels_are_truncated_not_overflowed() {
        // A 4%-wide frame (40 px) fits ~5 glyphs; this 21-char label
        // must be truncated with a ".." suffix rather than overflow.
        let fold =
            Fold::from_events(&[span("mem", "a-very-long-leaf-name", 4), span("mem", "big", 96)]);
        let svg = flamegraph_svg("A", "K", &fold);
        assert!(svg.contains("..</text>"), "{svg}");
    }
}
