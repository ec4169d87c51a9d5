//! Chrome trace-event JSON export.
//!
//! Emits the "JSON Array Format" of the Trace Event spec wrapped in a
//! `traceEvents` object, loadable in Perfetto (ui.perfetto.dev) and
//! `chrome://tracing`:
//!
//! * one metadata event (`ph:"M"`) per thread naming its track,
//! * one complete event (`ph:"X"`) per span,
//! * one counter event (`ph:"C"`) per counter sample (its own track),
//! * one instant event (`ph:"i"`) per point event.
//!
//! Timestamps are microseconds with nanosecond fraction preserved
//! (`ts`/`dur` are decimal). All strings pass through [`escape_json`];
//! the output is self-contained ASCII JSON.

use crate::Recording;
use std::fmt::Write as _;

/// Escape `s` for inclusion inside a JSON string literal (adds no
/// surrounding quotes). Non-ASCII characters are `\u`-escaped so the
/// output is ASCII-safe regardless of consumer encoding handling.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c if c.is_ascii() => out.push(c),
            c => {
                // Encode as UTF-16 escape(s), surrogate pair if needed.
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{:04x}", unit);
                }
            }
        }
    }
    out
}

/// Microseconds with 3 decimal places from nanoseconds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Recording {
    /// Render as Chrome trace-event JSON (see module docs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(
            64 + 128 * (self.spans.len() + self.counters.len() + self.events.len()),
        );
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
        };

        // Process metadata, then one thread-name record per track.
        sep(&mut out);
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"hpa\"}}",
        );
        for (tid, name) in &self.threads {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            );
            // Keep Perfetto's track order aligned with registration
            // order (main thread first, then workers).
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            );
        }

        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"cat\":\"{}\",\"name\":\"{}\"",
                s.tid,
                us(s.start_ns),
                us(s.dur_ns),
                escape_json(s.cat),
                escape_json(s.name),
            );
            if let Some(arg) = s.arg {
                let _ = write!(out, ",\"args\":{{\"arg\":{arg}}}");
            }
            out.push('}');
        }

        for c in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\
                 \"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                c.tid,
                us(c.ts_ns),
                escape_json(c.cat),
                escape_json(c.name),
                c.value,
            );
        }

        for e in &self.events {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\
                 \"name\":\"{}\",\"s\":\"t\"}}",
                e.tid,
                us(e.ts_ns),
                escape_json(e.cat),
                escape_json(e.name),
            );
        }

        // Cost-model predictions render as thread-scoped instants whose
        // args carry the priced duration; the run ledger reads PredictRec
        // directly, this is for eyeballing in Perfetto.
        for p in &self.predictions {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\
                 \"name\":\"{}\",\"s\":\"t\",\"args\":{{\"predicted_ns\":{}}}}}",
                p.tid,
                us(p.ts_ns),
                escape_json(p.cat),
                escape_json(p.name),
                p.predicted_ns,
            );
        }

        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterRec, EventRec, PredictRec, SpanRec};

    fn sample() -> Recording {
        Recording {
            spans: vec![SpanRec {
                cat: "pool",
                name: "task",
                start_ns: 1_234_567,
                dur_ns: 890,
                arg: Some(3),
                tid: 2,
            }],
            counters: vec![CounterRec {
                cat: "readahead",
                name: "queue-depth",
                ts_ns: 2_000_000,
                value: 4,
                tid: 0,
            }],
            events: vec![EventRec {
                cat: "phase",
                name: "flush",
                ts_ns: 3_000_001,
                tid: 1,
            }],
            predictions: vec![PredictRec {
                cat: "pool",
                name: "task",
                ts_ns: 1_234_000,
                predicted_ns: 750,
                tid: 2,
            }],
            threads: vec![(0, "main".into()), (2, "hpa-worker-0".into())],
        }
    }

    #[test]
    fn escape_handles_specials_and_unicode() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("é"), "\\u00e9");
        assert_eq!(escape_json("𝄞"), "\\ud834\\udd1e"); // surrogate pair
        assert!(escape_json("ключ").is_ascii());
    }

    #[test]
    fn microsecond_timestamps_preserve_nanos() {
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
    }

    #[test]
    fn json_contains_all_record_kinds() {
        let j = sample().to_chrome_json();
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"C\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"ph\":\"M\""));
        assert!(j.contains("\"name\":\"hpa-worker-0\""));
        assert!(j.contains("\"ts\":1234.567"));
        assert!(j.contains("\"dur\":0.890"));
        assert!(j.contains("\"args\":{\"arg\":3}"));
        assert!(j.contains("\"args\":{\"value\":4}"));
        assert!(j.contains("\"args\":{\"predicted_ns\":750}"));
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn empty_recording_is_still_valid_json_scaffold() {
        let j = Recording::default().to_chrome_json();
        assert!(j.contains("process_name"));
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
