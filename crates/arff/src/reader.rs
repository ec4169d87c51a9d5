//! ARFF parser.
//!
//! Parses the header eagerly, then streams data rows as [`SparseVec`]s
//! (dense rows are sparsified: zeros dropped). Supports `%` comments,
//! blank lines, quoted names, CRLF line endings, WEKA's `?`
//! missing-value token (treated as 0-weight, as TF/IDF matrices demand),
//! and case-insensitive keywords — enough to read files WEKA itself
//! writes.
//!
//! Row parsing is exposed standalone as [`parse_data_line`] so the data
//! section can also be consumed in parallel, line-aligned chunks
//! (`hpa_tfidf::read_arff_parallel`); [`ArffReader::into_parts`] hands
//! over the input positioned at the first data byte for exactly that.

use crate::{unquote_name, ArffError, ArffHeader, AttrKind, Attribute};
use hpa_sparse::SparseVec;
use std::io::BufRead;

/// Streaming ARFF reader.
pub struct ArffReader<R: BufRead> {
    input: R,
    header: ArffHeader,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> ArffReader<R> {
    /// Parse the header; the reader is then positioned at the first row.
    pub fn new(mut input: R) -> Result<Self, ArffError> {
        let mut header = ArffHeader::default();
        let mut line_no = 0usize;
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = input.read_line(&mut buf)?;
            if n == 0 {
                return Err(ArffError::Parse {
                    line: line_no,
                    message: "end of file before @DATA".into(),
                });
            }
            line_no += 1;
            let line = strip_comment(&buf).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = keyword(line, "@RELATION") {
                header.relation = unquote_name(rest);
            } else if let Some(rest) = keyword(line, "@ATTRIBUTE") {
                header.attributes.push(parse_attribute(rest, line_no)?);
            } else if starts_with_ignore_case(line, "@DATA") {
                break;
            } else {
                return Err(ArffError::Parse {
                    line: line_no,
                    message: format!("unexpected header line: {line}"),
                });
            }
        }
        Ok(ArffReader {
            input,
            header,
            line_no,
            buf,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &ArffHeader {
        &self.header
    }

    /// Dismantle the reader after header parsing: the header, the input
    /// (positioned at the first byte after the `@DATA` line), and the
    /// number of lines consumed so far (for downstream line numbering).
    pub fn into_parts(self) -> (ArffHeader, R, usize) {
        (self.header, self.input, self.line_no)
    }

    /// Read the next data row, or `None` at end of file.
    pub fn next_row(&mut self) -> Result<Option<SparseVec>, ArffError> {
        loop {
            self.buf.clear();
            let n = self.input.read_line(&mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            match parse_data_line(&self.buf, self.header.dim(), self.line_no)? {
                Some(row) => return Ok(Some(row)),
                None => continue,
            }
        }
    }

    /// Read all remaining rows.
    pub fn read_all(&mut self) -> Result<Vec<SparseVec>, ArffError> {
        let mut rows = Vec::new();
        while let Some(r) = self.next_row()? {
            rows.push(r);
        }
        Ok(rows)
    }
}

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
        let items = count_commas(inner.as_bytes()) + 1;
        let mut terms = Vec::with_capacity(items);
        let mut weights = Vec::with_capacity(items);
        let mut unsorted: Option<Vec<(u32, f64)>> = None;
        for entry in sparse_entries(inner) {
            let (idx_s, idx, val_s) =
                entry.map_err(|item| err(format!("sparse entry '{item}' lacks a value")))?;
            let idx = idx.ok_or_else(|| err(format!("bad index '{idx_s}'")))?;
            if idx as usize >= dim {
                return Err(err(format!("index {idx} out of range (dim {dim})")));
            }
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

/// The entries of a sparse row's `{…}` interior, in one byte pass:
/// `Ok((index, id, value))` split at the entry's first whitespace
/// character and trimmed, where `id` is the index as `u32::from_str`
/// reads it, or `Err(entry)` (trimmed) for an entry without a value.
/// Blank entries are skipped. Whitespace is `char::is_whitespace`'s; only
/// a byte ≥ 0x80 is decoded as a `char` to test it.
fn sparse_entries(inner: &str) -> impl Iterator<Item = Result<(&str, Option<u32>, &str), &str>> {
    let bytes = inner.as_bytes();
    let mut pos = 0;
    std::iter::from_fn(move || loop {
        let start = skip_whitespace(inner, pos);
        if start >= bytes.len() {
            return None;
        }
        if bytes[start] == b',' {
            pos = start + 1;
            continue;
        }
        // The index runs to the first whitespace, comma or the end; its
        // digits are summed on the way.
        let (mut sep, mut digits, mut digits_only) = (start, 0u32, true);
        while sep < bytes.len() {
            let b = bytes[sep];
            if b.is_ascii_digit() {
                digits = digits.wrapping_mul(10).wrapping_add((b - b'0') as u32);
            } else if b == b',' || (inner.is_char_boundary(sep) && whitespace_at(inner, sep) > 0) {
                break;
            } else {
                digits_only = false;
            }
            sep += 1;
        }
        // The value runs from the next non-whitespace to the comma.
        let value = skip_whitespace(inner, sep);
        let mut end = find_comma(bytes, value);
        pos = end + 1;
        if value == end {
            return Some(Err(&inner[start..sep]));
        }
        while let n @ 1.. = whitespace_before(inner, end) {
            end -= n;
        }
        let index = &inner[start..sep];
        // Nine digits cannot overflow; anything else (longer, signed,
        // malformed) is read as before.
        let id = if digits_only && index.len() <= 9 {
            Some(digits)
        } else {
            index.parse().ok()
        };
        return Some(Ok((index, id, &inner[value..end])));
    })
}

/// Index of the first `,` in `bytes` at or after `from`, or `bytes.len()`:
/// eight bytes per step, by the has-zero-byte test on `word ^ ",,,,,,,,"`
/// (the lowest flagged byte is always a true match).
fn find_comma(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const COMMAS: u64 = u64::from_ne_bytes([b','; 8]);
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ COMMAS;
        let zeros = word.wrapping_sub(ONES) & !word & HIGHS;
        if zeros != 0 {
            return i + (zeros.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&b| b == b',')
        .unwrap_or(bytes.len() - i)
}

/// Commas in `bytes`. Per-chunk `u8` sums vectorize where a plain
/// `filter().count()` does not; 255 keeps each sum from overflowing.
fn count_commas(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|c| c.iter().map(|&b| (b == b',') as u8).sum::<u8>() as usize)
        .sum()
}

/// Index of the first non-whitespace character of `s` at or after byte
/// `i` (a character boundary).
fn skip_whitespace(s: &str, mut i: usize) -> usize {
    while i < s.len() {
        match whitespace_at(s, i) {
            0 => break,
            n => i += n,
        }
    }
    i
}

/// Byte length of the whitespace character starting at byte `i` of `s`
/// (a character boundary below `s.len()`), or 0 if it is not whitespace.
fn whitespace_at(s: &str, i: usize) -> usize {
    let b = s.as_bytes()[i];
    if b < 0x80 {
        (b as char).is_whitespace() as usize
    } else {
        match s[i..].chars().next() {
            Some(c) if c.is_whitespace() => c.len_utf8(),
            _ => 0,
        }
    }
}

/// Byte length of the whitespace character ending at byte `end` of `s`
/// (a character boundary above 0), or 0 if it is not whitespace.
fn whitespace_before(s: &str, end: usize) -> usize {
    let b = s.as_bytes()[end - 1];
    if b < 0x80 {
        (b as char).is_whitespace() as usize
    } else {
        match s[..end].chars().next_back() {
            Some(c) if c.is_whitespace() => c.len_utf8(),
            _ => 0,
        }
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

/// Index of the quote closing a name that starts with `'` at index 0,
/// honouring `\\` escapes.
fn closing_quote(s: &str) -> Option<usize> {
    debug_assert!(s.starts_with('\''));
    let bytes = s.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Whether `s` starts with the ASCII `prefix`, ignoring ASCII case.
fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
    s.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

/// The rest of `line` after the ASCII keyword `kw` (any case), if it
/// starts with it.
fn keyword<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    if starts_with_ignore_case(line, kw) {
        Some(line[kw.len()..].trim_start())
    } else {
        None
    }
}

fn parse_attribute(rest: &str, line_no: usize) -> Result<Attribute, ArffError> {
    let err = |message: String| ArffError::Parse {
        line: line_no,
        message,
    };
    let rest = rest.trim();
    // Name may be quoted (and contain spaces and escaped quotes) or a
    // bare token.
    let (name, type_part) = if rest.starts_with('\'') {
        let close =
            closing_quote(rest).ok_or_else(|| err("unterminated quoted attribute name".into()))?;
        (unquote_name(&rest[..=close]), rest[close + 1..].trim())
    } else {
        let (n, t) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(format!("attribute '{rest}' lacks a type")))?;
        (n.to_string(), t.trim())
    };
    let is = |kw| starts_with_ignore_case(type_part, kw);
    let kind = if is("NUMERIC") || is("REAL") || is("INTEGER") {
        AttrKind::Numeric
    } else if is("STRING") {
        AttrKind::String
    } else if type_part.starts_with('{') {
        let inner = type_part
            .trim_start_matches('{')
            .trim_end_matches('}')
            .trim();
        AttrKind::Nominal(inner.split(',').map(|v| unquote_name(v.trim())).collect())
    } else {
        return Err(err(format!("unknown attribute type '{type_part}'")));
    };
    Ok(Attribute { name, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> ArffReader<Cursor<&[u8]>> {
        ArffReader::new(Cursor::new(text.as_bytes())).unwrap()
    }

    const SAMPLE: &str = "\
% a comment\n\
@RELATION 'my rel'\n\
\n\
@ATTRIBUTE alpha NUMERIC\n\
@attribute 'two words' real\n\
@ATTRIBUTE gamma INTEGER\n\
\n\
@DATA\n\
{0 1.5,2 3}\n\
0,2.5,0\n\
% trailing comment\n\
{}\n";

    #[test]
    fn parses_header_case_insensitively() {
        let r = reader(SAMPLE);
        assert_eq!(r.header().relation, "my rel");
        assert_eq!(r.header().dim(), 3);
        assert_eq!(r.header().attributes[1].name, "two words");
        assert_eq!(r.header().attributes[2].kind, AttrKind::Numeric);
    }

    #[test]
    fn reads_sparse_dense_and_empty_rows() {
        let mut r = reader(SAMPLE);
        let rows = r.read_all().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].iter().collect::<Vec<_>>(), [(0, 1.5), (2, 3.0)]);
        assert_eq!(rows[1].iter().collect::<Vec<_>>(), [(1, 2.5)]);
        assert!(rows[2].is_empty());
    }

    #[test]
    fn nominal_attributes_parse() {
        let mut r = reader("@RELATION r\n@ATTRIBUTE cls {yes, no}\n@DATA\n");
        assert_eq!(
            r.header().attributes[0].kind,
            AttrKind::Nominal(vec!["yes".into(), "no".into()])
        );
        assert_eq!(r.next_row().unwrap(), None);
    }

    #[test]
    fn out_of_range_sparse_index_is_an_error() {
        let mut r = reader("@RELATION r\n@ATTRIBUTE a NUMERIC\n@DATA\n{3 1.0}\n");
        let e = r.next_row().unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn wrong_dense_width_is_an_error_with_line_number() {
        let mut r = reader("@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@DATA\n1.0\n");
        let e = r.next_row().unwrap_err();
        assert!(e.to_string().contains("line 5"), "{e}");
    }

    #[test]
    fn missing_data_section_is_an_error() {
        let e = ArffReader::new(Cursor::new(b"@RELATION r\n" as &[u8]))
            .err()
            .expect("must fail");
        assert!(e.to_string().contains("before @DATA"), "{e}");
    }

    #[test]
    fn comment_inside_quotes_is_preserved() {
        let r = reader("@RELATION 'has % inside'\n@ATTRIBUTE a NUMERIC\n@DATA\n");
        assert_eq!(r.header().relation, "has % inside");
    }

    #[test]
    fn missing_value_token_means_zero_weight() {
        // WEKA writes `?` for missing values in both dense and sparse
        // rows; a TF/IDF matrix treats missing as weight 0.
        let mut r = reader(
            "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@ATTRIBUTE c NUMERIC\n\
             @DATA\n?,2.5,?\n{0 1.5,1 ?}\n?,?,?\n",
        );
        let rows = r.read_all().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].iter().collect::<Vec<_>>(), [(1, 2.5)]);
        assert_eq!(rows[1].iter().collect::<Vec<_>>(), [(0, 1.5)]);
        assert!(rows[2].is_empty(), "all-missing dense row sparsifies empty");
    }

    #[test]
    fn question_mark_inside_a_value_is_still_an_error() {
        let mut r = reader("@RELATION r\n@ATTRIBUTE a NUMERIC\n@DATA\n1.2?\n");
        let e = r.next_row().unwrap_err();
        assert!(e.to_string().contains("bad value"), "{e}");
    }

    #[test]
    fn crlf_line_endings_parse_everywhere() {
        let text = "@RELATION r\r\n\r\n@ATTRIBUTE a NUMERIC\r\n@ATTRIBUTE b NUMERIC\r\n\r\n\
                    @DATA\r\n{0 1.5}\r\n0,2.25\r\n?,3\r\n";
        let mut r = reader(text);
        assert_eq!(r.header().dim(), 2);
        let rows = r.read_all().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].iter().collect::<Vec<_>>(), [(0, 1.5)]);
        assert_eq!(rows[1].iter().collect::<Vec<_>>(), [(1, 2.25)]);
        assert_eq!(rows[2].iter().collect::<Vec<_>>(), [(1, 3.0)]);
    }

    #[test]
    fn quoted_attribute_names_with_comment_and_separator_chars() {
        let r = reader(
            "@RELATION r\n@ATTRIBUTE 'per%cent' NUMERIC\n@ATTRIBUTE 'com,ma' NUMERIC\n@DATA\n",
        );
        assert_eq!(r.header().attributes[0].name, "per%cent");
        assert_eq!(r.header().attributes[1].name, "com,ma");
    }

    #[test]
    fn parse_data_line_matches_streaming_reader() {
        for (raw, dim) in [
            ("{0 1.5,2 3}\n", 3),
            ("0,2.5,0\r\n", 3),
            ("  \n", 3),
            ("% comment only\n", 3),
            ("?,1,?\n", 3),
        ] {
            let parsed = parse_data_line(raw, dim, 1).unwrap();
            // Feed the same line through the streaming path.
            let mut text = String::from(
                "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@ATTRIBUTE c NUMERIC\n@DATA\n",
            );
            text.push_str(raw);
            let mut full = ArffReader::new(Cursor::new(text.into_bytes())).unwrap();
            assert_eq!(full.next_row().unwrap(), parsed, "line {raw:?}");
        }
    }

    #[test]
    fn unsorted_and_repeated_sparse_indices_sort_and_sum() {
        let mut r = reader(
            "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@ATTRIBUTE c NUMERIC\n\
             @DATA\n{2 3,0 1.5,1 ?,1 2}\n{0 0.1,1 4,1 0.2,2 ?,1 0.3}\n",
        );
        let rows = r.read_all().unwrap();
        assert_eq!(
            rows[0].iter().collect::<Vec<_>>(),
            [(0, 1.5), (1, 2.0), (2, 3.0)]
        );
        assert_eq!(
            rows[0],
            SparseVec::from_pairs(vec![(2, 3.0), (0, 1.5), (1, 2.0)])
        );
        // A repeated id's weights are summed, as `from_pairs` sums them.
        assert_eq!(rows[1].terms(), [0, 1]);
        assert!((rows[1].weights()[1] - 4.5).abs() < 1e-12);
        assert_eq!(
            rows[1],
            SparseVec::from_pairs(vec![(0, 0.1), (1, 4.0), (1, 0.2), (1, 0.3)])
        );
    }

    #[test]
    fn garbage_header_line_is_an_error() {
        let e = ArffReader::new(Cursor::new(b"hello\n@DATA\n" as &[u8]))
            .err()
            .expect("must fail");
        assert!(e.to_string().contains("unexpected header line"), "{e}");
    }
}
