//! Differential test of the sparse-row scanner: `parse_data_line` must
//! accept exactly what the previous split-and-trim parser accepted, with
//! the same row (weights compared by bits), and reject everything else
//! with the same message and line. The previous parser is kept below,
//! verbatim, as the oracle.

use hpa_arff::{parse_data_line, ArffError};
use hpa_rng::SplitMix64;

mod oracle {
    use hpa_arff::ArffError;
    use hpa_sparse::SparseVec;

    /// Parse one raw line of the `@DATA` section against a header of `dim`
    /// attributes. Handles comment stripping, blank lines (`Ok(None)`), CRLF
    /// endings (the trailing `\r` trims away), both sparse and dense rows,
    /// and WEKA's `?` missing-value token — missing numeric values carry no
    /// weight, so they sparsify to absent entries. `line_no` (1-based) is
    /// only used for error reporting.
    ///
    /// This is the per-line half of [`ArffReader::next_row`], exposed so the
    /// data section can be parsed in parallel, line-aligned chunks with
    /// results identical to the streaming reader.
    pub fn parse_data_line(
        raw: &str,
        dim: usize,
        line_no: usize,
    ) -> Result<Option<SparseVec>, ArffError> {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            return Ok(None);
        }
        let err = |message: String| ArffError::Parse {
            line: line_no,
            message,
        };
        if let Some(inner) = line.strip_prefix('{') {
            let inner = inner
                .strip_suffix('}')
                .ok_or_else(|| err("sparse row missing closing '}'".into()))?;
            // WEKA requires ascending indices, as our writer emits them, so
            // rows are built in place; we tolerate any order: the first id
            // out of order or repeated falls back to pairs, sorted and summed.
            let items = inner.bytes().filter(|&b| b == b',').count() + 1;
            let mut terms = Vec::with_capacity(items);
            let mut weights = Vec::with_capacity(items);
            let mut unsorted: Option<Vec<(u32, f64)>> = None;
            for item in inner.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let (idx_s, val_s) = item
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(format!("sparse entry '{item}' lacks a value")))?;
                let idx: u32 = idx_s
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad index '{idx_s}'")))?;
                if idx as usize >= dim {
                    return Err(err(format!("index {idx} out of range (dim {dim})")));
                }
                let val_s = val_s.trim();
                if val_s == "?" {
                    continue; // missing value: no weight
                }
                let val: f64 = val_s
                    .parse()
                    .map_err(|_| err(format!("bad value '{val_s}'")))?;
                match &mut unsorted {
                    Some(pairs) => pairs.push((idx, val)),
                    None if terms.last().is_some_and(|&t| t >= idx) => {
                        let mut pairs: Vec<_> = terms.drain(..).zip(weights.drain(..)).collect();
                        pairs.push((idx, val));
                        unsorted = Some(pairs);
                    }
                    None => {
                        terms.push(idx);
                        weights.push(val);
                    }
                }
            }
            Ok(Some(match unsorted {
                Some(pairs) => SparseVec::from_pairs(pairs),
                None => SparseVec::from_sorted_parts(terms, weights),
            }))
        } else {
            let values: Vec<&str> = line.split(',').collect();
            if values.len() != dim {
                return Err(err(format!(
                    "dense row has {} values, header declares {dim}",
                    values.len()
                )));
            }
            let mut pairs = Vec::new();
            for (i, v) in values.iter().enumerate() {
                let v = v.trim();
                if v == "?" {
                    continue; // missing value: no weight
                }
                let x: f64 = v.parse().map_err(|_| err(format!("bad value '{v}'")))?;
                if x != 0.0 {
                    pairs.push((i as u32, x));
                }
            }
            Ok(Some(SparseVec::from_pairs(pairs)))
        }
    }

    /// Strip an unquoted `%` comment (respecting `\'` escapes inside quotes).
    fn strip_comment(line: &str) -> &str {
        if !line.as_bytes().contains(&b'%') {
            return line;
        }
        let mut in_quote = false;
        let mut escaped = false;
        for (i, c) in line.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quote => escaped = true,
                '\'' => in_quote = !in_quote,
                '%' if !in_quote => return &line[..i],
                _ => {}
            }
        }
        line
    }
}

/// A parser's verdict on one line, comparable: the row's ids and weight
/// bits, or the error text.
type Verdict = Result<Option<(Vec<u32>, Vec<u64>)>, String>;

fn verdict(
    parse: impl Fn(&str, usize, usize) -> Result<Option<hpa_sparse::SparseVec>, ArffError>,
    line: &str,
    dim: usize,
) -> Verdict {
    match parse(line, dim, 7) {
        Ok(row) => Ok(row.map(|r| {
            let bits = r.weights().iter().map(|w| w.to_bits()).collect();
            (r.terms().to_vec(), bits)
        })),
        Err(e) => Err(e.to_string()),
    }
}

#[track_caller]
fn assert_same(line: &str, dim: usize) {
    assert_eq!(
        verdict(parse_data_line, line, dim),
        verdict(oracle::parse_data_line, line, dim),
        "line {line:?}, dim {dim}"
    );
}

/// Whitespace the scanner must treat as `char::is_whitespace` does —
/// ASCII, Latin-1 and wide — plus two non-whitespace non-ASCII chars.
const SEPARATORS: [&str; 9] = [
    " ", "\t", "  ", " \t ", "\u{a0}", "\u{3000}", "\u{b}", "\u{85}", "\u{2003}",
];
const NOT_WHITESPACE: [&str; 2] = ["é", "\u{200b}"];

#[test]
fn hand_picked_lines_agree() {
    for line in [
        "{0 1.5,2 3}",
        "{}",
        "{ }",
        "{,}",
        "{0 1,}",
        "{,0 1}",
        "{0\t1.5}",
        "{0    1.5 ,  2\t\t3  }",
        "{0\u{a0}1.5,1\u{3000}2}",
        "{\u{3000}0 1\u{3000}}",
        "{+7 1}",
        "{-0 1}",
        "{+ 1}",
        "{0000000003 1}",
        "{1234567890 1}",
        "{4294967295 1}",
        "{4294967296 1}",
        "{99999999999999999999 1}",
        "{3 ?}",
        "{3 ??}",
        "{3 1.2?}",
        "{3}",
        "{3 }",
        "{3\u{a0}}",
        "{é 1}",
        "{3é 1}",
        "{3 1é}",
        "{3\u{200b}1}",
        "{2 3,0 1.5,1 ?,1 2}",
        "{0 0.1,1 4,1 0.2,2 ?,1 0.3}",
        "{1 1,1 1}",
        "{0 1 2}",
        "{0 1e3,1 -2.5E-3,2 inf,3 NaN,4 -0}",
        "{0 1.5",
        "{0 1.5}}",
        "{0 1.5} % trailing comment",
        "  {0 1.5}\r\n",
        "{0 1.5,9 1}",
        "{0 1.5,10 1}",
        "0,2.5,0,0,0,0,0,0,0,0",
        "?,1",
    ] {
        assert_same(line, 10);
    }
}

/// Random lines over the robustness fuzz alphabet widened with the
/// separators, signs and long ids the scanner special-cases.
#[test]
fn random_lines_agree() {
    let mut tokens: Vec<&str> = "{}0123456789. ,?-e'%"
        .split("")
        .filter(|t| !t.is_empty())
        .collect();
    tokens.extend(SEPARATORS);
    tokens.extend(NOT_WHITESPACE);
    tokens.extend(["+7", "1234567890", "4294967296", "\r"]);
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_d1ff);
    for _ in 0..20_000 {
        let mut line = String::from(if rng.gen_ratio(3, 4) { "{" } else { "" });
        for _ in 0..rng.gen_index(24) {
            line.push_str(tokens[rng.gen_index(tokens.len())]);
        }
        if rng.gen_ratio(3, 4) {
            line.push('}');
        }
        assert_same(&line, 1 + rng.gen_index(12));
    }
}

/// Random well-formed rows — sorted, unsorted and repeated ids, missing
/// values, every separator — so most lines take the `Ok` path.
#[test]
fn random_rows_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_d200);
    for _ in 0..20_000 {
        let dim = 1 + rng.gen_index(40);
        let mut entries = Vec::new();
        let mut id = 0;
        for _ in 0..rng.gen_index(12) {
            id = if rng.gen_ratio(1, 5) {
                rng.gen_index(dim + 2)
            } else {
                id + rng.gen_index(4)
            };
            let id_text = match rng.gen_index(8) {
                0 => format!("+{id}"),
                1 => format!("{id:010}"),
                _ => id.to_string(),
            };
            let value = match rng.gen_index(6) {
                0 => "?".to_string(),
                1 => format!("{:e}", rng.gen_normal()),
                _ => rng.gen_f64().to_string(),
            };
            let pad = |rng: &mut SplitMix64| {
                if rng.gen_ratio(1, 4) {
                    SEPARATORS[rng.gen_index(SEPARATORS.len())]
                } else {
                    ""
                }
            };
            let sep = SEPARATORS[rng.gen_index(SEPARATORS.len())];
            entries.push(format!(
                "{}{id_text}{sep}{value}{}",
                pad(&mut rng),
                pad(&mut rng)
            ));
        }
        assert_same(&format!("{{{}}}", entries.join(",")), dim);
    }
}
