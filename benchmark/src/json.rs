//! The JSON the benchmark writes: result files, traces and the one-line
//! result the driver reads. Write-only; nothing here is parsed back.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Rendered with every digit `f64` has; NaN and infinities, which
    /// JSON cannot hold, render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `{"value": v, "unit": u}` — how every metric is written.
    pub fn metric(value: f64, unit: &str) -> Json {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }

    /// An object of metrics by name. Panics on a name the benchmark
    /// contract does not allow (see [`valid_name`]): a metric is named in
    /// this crate's tables, so a bad one is a bug here.
    pub fn metrics(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(name, metric)| {
                    assert!(valid_name(name), "metric name '{name}' breaks the contract");
                    (name.to_string(), metric)
                })
                .collect(),
        )
    }

    /// Compact, on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented two spaces per level, for the files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The benchmark contract's rule for a metric or workload name: starts
/// with a letter or digit, then at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(30)),
            (
                "metrics",
                Json::obj([("wall_s", Json::metric(0.4312, "s"))]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct":true,"attempted":30,"metrics":{"wall_s":{"value":0.4312,"unit":"s"}},"empty":[],"none":null}"#
        );
        let pretty = v.render_pretty();
        assert!(pretty.starts_with("{\n  \"correct\": true,\n  \"attempted\": 30,\n"));
        assert!(pretty.contains("\"wall_s\": {\n      \"value\": 0.4312,"));
        assert!(pretty.ends_with("\"none\": null\n}\n"));
    }

    #[test]
    fn escapes_strings_and_drops_non_finite_numbers() {
        let v = Json::Arr(vec![
            Json::str("a\"b\\c\n\u{1}"),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(1e-9),
        ]);
        assert_eq!(v.render(), r#"["a\"b\\c\n\u0001",null,null,0.000000001]"#);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 1.234_567_890_123_456_7_f64;
        assert_eq!(Json::Num(x).render().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "wall_s",
            "io.load_s",
            "exec.kmeans_speedup",
            "mb_per_s",
            "9x-y",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        let ok = Json::metrics([("wall_s", Json::metric(1.5, "s"))]);
        assert_eq!(ok.render(), r#"{"wall_s":{"value":1.5,"unit":"s"}}"#);
    }

    #[test]
    #[should_panic(expected = "breaks the contract")]
    fn metrics_object_refuses_a_bad_name() {
        Json::metrics([("wall s", Json::Null)]);
    }
}
