#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! ARFF (Attribute-Relation File Format) reader and writer.
//!
//! The paper's discrete TF/IDF → K-means workflow communicates through
//! ARFF files on disk (ARFF is WEKA's native format, [Hall et al. 2009]).
//! Two properties of the format matter to the paper's argument:
//!
//! * TF/IDF vectors are written as **sparse rows** (`{index value, ...}`)
//!   sorted by attribute index — which is why the TF/IDF output phase must
//!   sort its dictionaries;
//! * the format has a single sequential header + row stream, which "does
//!   not facilitate parallel output" (§3.2) — the writer here is
//!   deliberately a plain sequential encoder for the same reason.
//!
//! [`ArffWriter`] encodes; [`ArffReader`] parses (both sparse and dense
//! rows, comments, quoted attribute names). Parse errors carry line
//! numbers.

mod fmt;
mod reader;
mod writer;

pub use reader::{parse_data_line, ArffReader};
pub use writer::ArffWriter;

use std::borrow::Cow;

/// Attribute type. TF/IDF matrices only need numeric attributes, but the
/// parser accepts the other standard kinds so real WEKA files load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrKind {
    /// `NUMERIC` / `REAL` / `INTEGER`.
    Numeric,
    /// `STRING`.
    String,
    /// `{a,b,c}` nominal with its value list.
    Nominal(Vec<String>),
}

/// One `@ATTRIBUTE` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (unescaped).
    pub name: String,
    /// Declared type.
    pub kind: AttrKind,
}

/// The `@RELATION` + `@ATTRIBUTE` preamble of an ARFF file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArffHeader {
    /// Relation name.
    pub relation: String,
    /// Attributes in declaration order; row indices refer to this order.
    pub attributes: Vec<Attribute>,
}

impl ArffHeader {
    /// A numeric-only header, as TF/IDF matrices use: one attribute per
    /// term, named by the term.
    pub fn numeric(relation: &str, attribute_names: impl IntoIterator<Item = String>) -> Self {
        ArffHeader {
            relation: relation.to_string(),
            attributes: attribute_names
                .into_iter()
                .map(|name| Attribute {
                    name,
                    kind: AttrKind::Numeric,
                })
                .collect(),
        }
    }

    /// Number of attributes (the row dimensionality).
    pub fn dim(&self) -> usize {
        self.attributes.len()
    }
}

/// ARFF parse/encode errors, with 1-based line numbers where known.
#[derive(Debug)]
pub enum ArffError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content at a line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ArffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArffError::Io(e) => write!(f, "arff i/o error: {e}"),
            ArffError::Parse { line, message } => {
                write!(f, "arff parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ArffError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArffError::Io(e) => Some(e),
            ArffError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ArffError {
    fn from(e: std::io::Error) -> Self {
        ArffError::Io(e)
    }
}

/// Quote an identifier if it contains characters ARFF treats specially;
/// borrow it unchanged otherwise.
pub(crate) fn quote_name(name: &str) -> Cow<'_, str> {
    let needs = name.is_empty()
        || name
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, '{' | '}' | ',' | '%' | '\'' | '"'));
    if needs {
        let escaped = name.replace('\\', "\\\\").replace('\'', "\\'");
        Cow::Owned(format!("'{escaped}'"))
    } else {
        Cow::Borrowed(name)
    }
}

/// Inverse of [`quote_name`] for a single token (single-pass unescape, so
/// `\\` followed by `'` decodes unambiguously).
pub(crate) fn unquote_name(token: &str) -> String {
    let t = token.trim();
    if t.len() >= 2 && t.starts_with('\'') && t.ends_with('\'') {
        let inner = &t[1..t.len() - 1];
        let mut out = String::with_capacity(inner.len());
        let mut escaped = false;
        for c in inner.chars() {
            if escaped {
                out.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else {
                out.push(c);
            }
        }
        out
    } else {
        t.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_header_builder() {
        let h = ArffHeader::numeric("tfidf", ["alpha".to_string(), "beta".to_string()]);
        assert_eq!(h.relation, "tfidf");
        assert_eq!(h.dim(), 2);
        assert_eq!(h.attributes[1].name, "beta");
        assert_eq!(h.attributes[0].kind, AttrKind::Numeric);
    }

    #[test]
    fn quote_round_trip() {
        for name in [
            "plain",
            "has space",
            "com,ma",
            "qu'ote",
            "",
            "per%cent",
            "a{b}",
        ] {
            let quoted = quote_name(name);
            assert_eq!(unquote_name(&quoted), name, "through {quoted}");
        }
        assert_eq!(quote_name("plain"), "plain", "no gratuitous quoting");
    }

    #[test]
    fn error_display_includes_line() {
        let e = ArffError::Parse {
            line: 12,
            message: "bad row".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }
}
