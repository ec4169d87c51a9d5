//! Sequential ARFF encoder.

use crate::fmt::{push_f64, push_u32};
use crate::{quote_name, ArffError, ArffHeader, AttrKind};
use hpa_sparse::SparseVec;
use std::io::Write;

/// Writes an ARFF stream: header first, then data rows.
///
/// The encoder is sequential by construction — one header, one row at a
/// time, in order — mirroring the paper's observation that the format
/// precludes parallel output.
pub struct ArffWriter<W: Write> {
    out: W,
    dim: usize,
    header_written: bool,
    rows: u64,
    /// The row being rendered; each row reaches `out` in one write.
    line: Vec<u8>,
}

impl<W: Write> ArffWriter<W> {
    /// New writer over `out`.
    pub fn new(out: W) -> Self {
        ArffWriter {
            out,
            dim: 0,
            header_written: false,
            rows: 0,
            line: Vec::new(),
        }
    }

    /// A writer that *continues* a stream whose header (of `dim`
    /// attributes) was already emitted elsewhere — the pipelined ARFF
    /// writer formats disjoint row chunks into separate buffers with one
    /// continuation writer each, then concatenates the buffers in order.
    /// Calling [`write_header`](Self::write_header) on a continuation
    /// writer panics, exactly like writing a header twice.
    pub fn continuation(out: W, dim: usize) -> Self {
        ArffWriter {
            out,
            dim,
            header_written: true,
            rows: 0,
            line: Vec::new(),
        }
    }

    /// The inner writer (e.g. to read a `ByteCounter`'s running cost
    /// while rows are still being written, or after a failure).
    pub fn inner(&self) -> &W {
        &self.out
    }

    /// Write the `@RELATION`/`@ATTRIBUTE`/`@DATA` preamble. Must be called
    /// exactly once, before any row.
    pub fn write_header(&mut self, header: &ArffHeader) -> Result<(), ArffError> {
        assert!(!self.header_written, "header written twice");
        writeln!(self.out, "@RELATION {}", quote_name(&header.relation))?;
        writeln!(self.out)?;
        for attr in &header.attributes {
            match &attr.kind {
                AttrKind::Numeric => {
                    writeln!(self.out, "@ATTRIBUTE {} NUMERIC", quote_name(&attr.name))?
                }
                AttrKind::String => {
                    writeln!(self.out, "@ATTRIBUTE {} STRING", quote_name(&attr.name))?
                }
                AttrKind::Nominal(values) => {
                    let list: Vec<_> = values.iter().map(|v| quote_name(v)).collect();
                    writeln!(
                        self.out,
                        "@ATTRIBUTE {} {{{}}}",
                        quote_name(&attr.name),
                        list.join(",")
                    )?
                }
            }
        }
        writeln!(self.out)?;
        writeln!(self.out, "@DATA")?;
        self.dim = header.dim();
        self.header_written = true;
        Ok(())
    }

    /// Write one sparse row: `{index value, index value, ...}`. Indices
    /// must lie within the header's dimensionality.
    pub fn write_sparse_row(&mut self, row: &SparseVec) -> Result<(), ArffError> {
        assert!(self.header_written, "row before header");
        if let Some(&max_t) = row.terms().last() {
            assert!(
                (max_t as usize) < self.dim,
                "row index {max_t} exceeds header dim {}",
                self.dim
            );
        }
        let line = &mut self.line;
        line.clear();
        line.push(b'{');
        for (i, (t, w)) in row.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            push_u32(line, t);
            line.push(b' ');
            push_f64(line, w);
        }
        line.extend_from_slice(b"}\n");
        self.out.write_all(line)?;
        self.rows += 1;
        Ok(())
    }

    /// Write one dense row: comma-separated values, one per attribute.
    pub fn write_dense_row(&mut self, values: &[f64]) -> Result<(), ArffError> {
        assert!(self.header_written, "row before header");
        assert_eq!(values.len(), self.dim, "dense row width mismatch");
        let line = &mut self.line;
        line.clear();
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            push_f64(line, v);
        }
        line.push(b'\n');
        self.out.write_all(line)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> Result<W, ArffError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header2() -> ArffHeader {
        ArffHeader::numeric("rel", ["a".to_string(), "b word".to_string()])
    }

    #[test]
    fn header_format_matches_arff() {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header2()).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(text.starts_with("@RELATION rel\n"));
        assert!(text.contains("@ATTRIBUTE a NUMERIC\n"));
        assert!(text.contains("@ATTRIBUTE 'b word' NUMERIC\n"));
        assert!(text.trim_end().ends_with("@DATA"));
    }

    #[test]
    fn sparse_rows_sorted_and_braced() {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header2()).unwrap();
        w.write_sparse_row(&SparseVec::from_pairs(vec![(1, 2.5), (0, 1.0)]))
            .unwrap();
        w.write_sparse_row(&SparseVec::new()).unwrap();
        assert_eq!(w.rows(), 2);
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(text.contains("{0 1,1 2.5}\n"));
        assert!(text.contains("{}\n"));
    }

    #[test]
    fn dense_rows_comma_separated() {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header2()).unwrap();
        w.write_dense_row(&[0.5, -2.0]).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(text.ends_with("0.5,-2\n"));
    }

    #[test]
    #[should_panic(expected = "row before header")]
    fn row_before_header_panics() {
        let mut w = ArffWriter::new(Vec::new());
        let _ = w.write_sparse_row(&SparseVec::new());
    }

    #[test]
    #[should_panic(expected = "exceeds header dim")]
    fn out_of_range_index_panics() {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header2()).unwrap();
        let _ = w.write_sparse_row(&SparseVec::from_pairs(vec![(5, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_dense_width_panics() {
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&header2()).unwrap();
        let _ = w.write_dense_row(&[1.0]);
    }
}
