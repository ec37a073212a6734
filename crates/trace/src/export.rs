//! Hand-rolled exporters: Chrome `trace_event` JSON and CSV.
//!
//! The workspace's dependency policy forbids serde; the JSON writer below
//! emits exactly the subset of the [Chrome trace-event format] the viewers
//! need — complete (`"X"`) spans, instants (`"i"`), counters (`"C"`) and
//! thread-name metadata (`"M"`) — with manual string escaping. Cycle stamps
//! are written as microsecond ticks (1 cycle = 1 µs), so viewer timelines
//! read directly in cycles.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use triarch_metrics::escape_json;

use crate::event::TraceEvent;

/// Stable first-seen ordering of track names -> Chrome `tid`s.
fn track_table<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<&'static str> {
    let mut tracks: Vec<&'static str> = Vec::new();
    for event in events {
        let track = event.track();
        if !tracks.contains(&track) {
            tracks.push(track);
        }
    }
    tracks
}

fn tid_of(tracks: &[&'static str], track: &'static str) -> usize {
    tracks.iter().position(|&t| t == track).unwrap_or(0)
}

/// Renders events as a Chrome `trace_event` JSON array, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Each distinct track becomes a named thread (via `"M"` metadata); counted
/// spans carry `"args":{"counted":true}` so the two kinds are
/// distinguishable in the viewer.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let tracks = track_table(events);
    // ~96 bytes per event line is a good preallocation for this format.
    let mut out = String::with_capacity(64 + 96 * (events.len() + tracks.len()));
    out.push_str("[\n");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    for (tid, track) in tracks.iter().enumerate() {
        emit(&mut out, &mut first);
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"args\":{\"name\":\"");
        out.push_str(&escape_json(track));
        out.push_str("\"}}");
    }

    for event in events {
        emit(&mut out, &mut first);
        let tid = tid_of(&tracks, event.track());
        match *event {
            TraceEvent::Span { category, name, start, dur, counted, .. } => {
                out.push_str("{\"ph\":\"X\",\"name\":\"");
                out.push_str(&escape_json(name));
                out.push_str("\",\"cat\":\"");
                out.push_str(&escape_json(category));
                let _ = write!(
                    out,
                    "\",\"pid\":0,\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\
                     \"args\":{{\"counted\":{counted}}}}}"
                );
            }
            TraceEvent::Instant { name, at, .. } => {
                out.push_str("{\"ph\":\"i\",\"name\":\"");
                out.push_str(&escape_json(name));
                let _ = write!(out, "\",\"pid\":0,\"tid\":{tid},\"ts\":{at},\"s\":\"t\"}}");
            }
            TraceEvent::Counter { name, at, value, .. } => {
                out.push_str("{\"ph\":\"C\",\"name\":\"");
                out.push_str(&escape_json(name));
                let _ = write!(out, "\",\"pid\":0,\"tid\":{tid},\"ts\":{at},\"args\":{{\"");
                out.push_str(&escape_json(name));
                let _ = write!(out, "\":{value}}}}}");
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Escapes a CSV field (quotes it when it contains a comma, quote, or
/// newline).
fn push_csv_escaped(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Renders events as a flat CSV table with header
/// `kind,track,category,name,start,dur,counted,value`.
///
/// Point events leave `dur`/`counted` or `value` empty as appropriate.
#[must_use]
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(48 + 48 * events.len());
    out.push_str("kind,track,category,name,start,dur,counted,value\n");
    for event in events {
        match *event {
            TraceEvent::Span { track, category, name, start, dur, counted } => {
                out.push_str("span,");
                push_csv_escaped(&mut out, track);
                out.push(',');
                push_csv_escaped(&mut out, category);
                out.push(',');
                push_csv_escaped(&mut out, name);
                let _ = write!(out, ",{start},{dur},{counted},");
            }
            TraceEvent::Instant { track, name, at } => {
                out.push_str("instant,");
                push_csv_escaped(&mut out, track);
                out.push_str(",,");
                push_csv_escaped(&mut out, name);
                let _ = write!(out, ",{at},,,");
            }
            TraceEvent::Counter { track, name, at, value } => {
                out.push_str("counter,");
                push_csv_escaped(&mut out, track);
                out.push_str(",,");
                push_csv_escaped(&mut out, name);
                let _ = write!(out, ",{at},,,{value}");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Span {
                track: "viram.mem",
                category: "memory",
                name: "vld.strided",
                start: 0,
                dur: 120,
                counted: true,
            },
            TraceEvent::Span {
                track: "viram.detail",
                category: "memory",
                name: "dram-data",
                start: 0,
                dur: 100,
                counted: false,
            },
            TraceEvent::Instant { track: "viram.mem", name: "tlb-miss", at: 64 },
            TraceEvent::Counter { track: "viram.mem", name: "row-misses", at: 120, value: 3.0 },
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        // Two tracks -> two metadata records with distinct tids.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert!(json.contains("\"args\":{\"name\":\"viram.mem\"}"));
        assert!(json.contains("\"args\":{\"name\":\"viram.detail\"}"));
        assert!(json.contains(
            "{\"ph\":\"X\",\"name\":\"vld.strided\",\"cat\":\"memory\",\"pid\":0,\"tid\":0,\
             \"ts\":0,\"dur\":120,\"args\":{\"counted\":true}}"
        ));
        assert!(json.contains("\"counted\":false"));
        assert!(json.contains("{\"ph\":\"i\",\"name\":\"tlb-miss\""));
        assert!(json.contains("{\"ph\":\"C\",\"name\":\"row-misses\""));
        assert!(json.contains("\"args\":{\"row-misses\":3}"));
    }

    #[test]
    fn chrome_json_is_structurally_valid() {
        // A tiny structural check without a JSON parser: balanced braces,
        // no trailing comma before the closing bracket, comma-separated
        // one-object lines.
        let json = chrome_trace_json(&sample());
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",\n]"));
        let body: Vec<&str> = json.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(body.len(), 2 + sample().len());
        for line in &body[..body.len() - 1] {
            assert!(line.ends_with("},") || line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn json_escapes_special_characters() {
        // Every label position — thread name, span name and category,
        // instant name, counter name and its args key — is escaped.
        let events = [
            TraceEvent::Span {
                track: "t\"rk",
                category: "c\\at",
                name: "a\nb",
                start: 0,
                dur: 1,
                counted: true,
            },
            TraceEvent::Instant { track: "t\"rk", name: "i\u{1}", at: 1 },
            TraceEvent::Counter { track: "t\"rk", name: "k\tv", at: 2, value: 1.0 },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"args\":{\"name\":\"t\\\"rk\"}"), "{json}");
        assert!(json.contains("\"name\":\"a\\nb\",\"cat\":\"c\\\\at\""), "{json}");
        assert!(json.contains("\"name\":\"i\\u0001\""), "{json}");
        assert!(json.contains("\"name\":\"k\\tv\""), "{json}");
        assert!(json.contains("\"args\":{\"k\\tv\":1}"), "{json}");
        // No raw control character survives: one record per line.
        assert!(!json.chars().any(|c| c != '\n' && c.is_control()), "{json}");
        assert_eq!(json.lines().filter(|l| l.starts_with('{')).count(), 1 + events.len());
    }

    #[test]
    fn csv_shape_and_escaping() {
        let csv = csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("kind,track,category,name,start,dur,counted,value"));
        assert_eq!(lines.next(), Some("span,viram.mem,memory,vld.strided,0,120,true,"));
        assert_eq!(lines.next(), Some("span,viram.detail,memory,dram-data,0,100,false,"));
        assert_eq!(lines.next(), Some("instant,viram.mem,,tlb-miss,64,,,"));
        assert_eq!(lines.next(), Some("counter,viram.mem,,row-misses,120,,,3"));
        assert_eq!(lines.next(), None);

        let mut field = String::new();
        push_csv_escaped(&mut field, "a,b\"c");
        assert_eq!(field, "\"a,b\"\"c\"");
    }
}
