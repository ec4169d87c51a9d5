//! Serializer for the `LEDGER_*.json` artifacts.
//!
//! The run ledger ([`crate::RunLedger`]) and the `calibrate` bin's
//! calibration tables write their JSON through [`JsonWriter`], so every
//! artifact carries the same indentation, escaping, and the same
//! `schema_version` and `host_cores` stamps that let a reader comparing
//! two artifacts tell a changed layout or a different machine from a
//! changed number.
//!
//! [`JsonWriter`] is deliberately tiny: 2-space-indented objects and
//! arrays of objects, and string/integer/boolean/float fields. It is a
//! writer, not a data model — callers keep their flat row structs and
//! stream them through. Strings are escaped by [`escape_json`], the
//! workspace's one escaper.

use crate::escape_json;
use std::fmt::Write as _;

/// Version stamp embedded in every artifact. Bump when an artifact's
/// keys change meaning, so a reader comparing two artifacts can tell.
///
/// Version history:
/// * 1 — initial versioned layout.
/// * 2 — adds the unconditional `host_cores` field (the machine's
///   available parallelism at render time).
pub const SCHEMA_VERSION: u64 = 2;

/// The host's available parallelism, as stamped into every artifact's
/// `host_cores` field (schema v2). Real-mode timings are only
/// comparable between hosts with the same core budget.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Minimal streaming JSON writer producing the ledgers' 2-space style.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    depth: usize,
    first: Vec<bool>,
}

impl JsonWriter {
    /// Render one top-level object; `build` adds its fields. The
    /// `schema_version` and `host_cores` fields are written first,
    /// unconditionally, so a reader can tell a changed layout or a
    /// different machine from a changed number.
    pub fn document(build: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter {
            out: String::from("{\n"),
            depth: 1,
            first: vec![true],
        };
        w.u64_field("schema_version", SCHEMA_VERSION);
        w.u64_field("host_cores", host_cores());
        build(&mut w);
        w.out.push_str("\n}\n");
        w.out
    }

    fn pad(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn next_entry(&mut self) {
        if let Some(first) = self.first.last_mut() {
            if *first {
                *first = false;
            } else {
                self.out.push_str(",\n");
            }
        }
        self.pad();
    }

    fn key(&mut self, k: &str) {
        self.next_entry();
        let _ = write!(self.out, "\"{}\": ", escape_json(k));
    }

    /// String field (escaped).
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        let _ = write!(self.out, "\"{}\"", escape_json(v));
    }

    /// Unsigned-integer field.
    pub fn u64_field(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Boolean field.
    pub fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Float field at a fixed precision (the ledgers' stable format).
    pub fn f64_field(&mut self, k: &str, v: f64, prec: usize) {
        self.key(k);
        let _ = write!(self.out, "{v:.prec$}");
    }

    /// Float field in shortest-round-trip form (for values like `scale`
    /// whose literal spelling matters more than a fixed width).
    pub fn f64_field_display(&mut self, k: &str, v: f64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Array-valued field; `build` appends elements via
    /// [`JsonWriter::object_elem`].
    pub fn array_field(&mut self, k: &str, build: impl FnOnce(&mut JsonWriter)) {
        self.key(k);
        self.out.push_str("[\n");
        self.depth += 1;
        self.first.push(true);
        build(self);
        self.first.pop();
        self.depth -= 1;
        self.out.push('\n');
        self.pad();
        self.out.push(']');
    }

    /// Object element inside an array; `build` adds its fields.
    pub fn object_elem(&mut self, build: impl FnOnce(&mut JsonWriter)) {
        self.next_entry();
        self.out.push_str("{\n");
        self.depth += 1;
        self.first.push(true);
        build(self);
        self.first.pop();
        self.depth -= 1;
        self.out.push('\n');
        self.pad();
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_leads_with_schema_version_and_balances_braces() {
        let doc = JsonWriter::document(|w| {
            w.str_field("bench", "demo");
            w.f64_field("speedup", 2.29639, 4);
            w.bool_field("drifted", false);
            w.array_field("arms", |w| {
                w.object_elem(|w| {
                    w.str_field("kernel", "naive");
                    w.u64_field("docs", 10);
                });
                w.object_elem(|w| w.str_field("kernel", "blocked"));
            });
        });
        let head = format!(
            "{{\n  \"schema_version\": 2,\n  \"host_cores\": {},\n  \"bench\": \"demo\"",
            host_cores()
        );
        assert!(doc.starts_with(&head), "{doc}");
        assert!(doc.contains("\"speedup\": 2.2964"));
        assert!(doc.contains("\"drifted\": false"));
        assert!(doc.contains("      \"kernel\": \"naive\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn strings_are_escaped() {
        let doc = JsonWriter::document(|w| w.str_field("name", "a\"b\\c\nd"));
        assert!(doc.contains("\"a\\\"b\\\\c\\nd\""));
    }
}
