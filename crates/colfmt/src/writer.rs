//! Streaming serial writer: file header up front, then chunk blocks in
//! document order.
//!
//! Two entry points feed the same stream: [`ColWriter::write_chunk`]
//! encodes rows in place (the serial path), while
//! [`ColWriter::write_raw_chunk`] appends a chunk block some worker
//! already encoded with [`encode_chunk`] — the
//! drain half of the pipelined writer, where formatting runs chunk-
//! parallel behind a `Sequencer` and only the ordered byte append is
//! serial. Both produce identical bytes for identical rows, which the
//! equivalence tests assert.

use crate::{encode_chunk, ChunkHeader, FileHeader, CHUNK_HEADER_LEN};
use hpa_sparse::SparseVec;
use std::io::Write;

/// Streaming colfmt writer over any byte sink.
pub struct ColWriter<W: Write> {
    out: W,
    header: FileHeader,
    docs_written: u64,
    chunks_written: u64,
    /// Scratch buffer reused across [`write_chunk`](Self::write_chunk)
    /// calls.
    buf: Vec<u8>,
}

impl<W: Write> ColWriter<W> {
    /// Start a file of `num_docs` rows of dimensionality `dim`, split
    /// into chunks of `chunk_rows` rows each (the last may be short).
    /// Writes the file header immediately.
    ///
    /// # Panics
    /// Panics if `chunk_rows` is zero — that is a programmer error, not
    /// a data error.
    pub fn new(mut out: W, num_docs: u64, dim: u64, chunk_rows: usize) -> std::io::Result<Self> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let chunks = num_docs.div_ceil(chunk_rows as u64);
        let header = FileHeader {
            num_docs,
            dim,
            chunks,
        };
        out.write_all(&header.encode())?;
        Ok(ColWriter {
            out,
            header,
            docs_written: 0,
            chunks_written: 0,
            buf: Vec::new(),
        })
    }

    /// The header this writer committed to.
    pub fn header(&self) -> FileHeader {
        self.header
    }

    /// The underlying sink (e.g. to read a byte counter mid-stream).
    pub fn sink(&self) -> &W {
        &self.out
    }

    /// Encode and write the next chunk of rows, in document order.
    pub fn write_chunk(&mut self, docs: &[SparseVec]) -> std::io::Result<()> {
        self.buf.clear();
        encode_chunk(docs, self.docs_written, &mut self.buf);
        let buf = std::mem::take(&mut self.buf);
        let res = self.write_raw_chunk(&buf);
        self.buf = buf;
        res
    }

    /// Append a pre-encoded chunk block (header + payload, as produced
    /// by [`encode_chunk`]).
    ///
    /// # Panics
    /// Panics if the block's `doc_start` does not continue the stream —
    /// chunks arriving out of order is a sequencing bug, not bad data.
    pub fn write_raw_chunk(&mut self, block: &[u8]) -> std::io::Result<()> {
        assert!(
            block.len() >= CHUNK_HEADER_LEN,
            "chunk block shorter than its header"
        );
        let header = ChunkHeader::decode(
            &block[..CHUNK_HEADER_LEN]
                .try_into()
                .expect("fixed-size header"),
        );
        assert_eq!(
            header.doc_start, self.docs_written,
            "chunk written out of order: starts at doc {} but the stream is at doc {}",
            header.doc_start, self.docs_written
        );
        self.out.write_all(block)?;
        self.docs_written += header.doc_count;
        self.chunks_written += 1;
        Ok(())
    }

    /// Flush and return the sink, verifying every promised row and chunk
    /// was written.
    ///
    /// # Panics
    /// Panics on a row or chunk count mismatch — the header already hit
    /// the sink, so finishing short would write a structurally corrupt
    /// file.
    pub fn finish(mut self) -> std::io::Result<W> {
        assert_eq!(
            self.docs_written, self.header.num_docs,
            "finish() after {} of {} promised rows",
            self.docs_written, self.header.num_docs
        );
        assert_eq!(
            self.chunks_written, self.header.chunks,
            "finish() after {} of {} promised chunks",
            self.chunks_written, self.header.chunks
        );
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_CHUNK_ROWS;

    fn doc(seed: u32) -> SparseVec {
        SparseVec::from_sorted(vec![(seed, 1.0 + seed as f64), (seed + 10, -0.5)])
    }

    #[test]
    fn serial_and_raw_paths_emit_identical_bytes() {
        let docs: Vec<SparseVec> = (0..5).map(doc).collect();

        let mut w = ColWriter::new(Vec::new(), 5, 64, 2).unwrap();
        for chunk in docs.chunks(2) {
            w.write_chunk(chunk).unwrap();
        }
        let serial = w.finish().unwrap();

        let mut w = ColWriter::new(Vec::new(), 5, 64, 2).unwrap();
        let mut start = 0u64;
        for chunk in docs.chunks(2) {
            let mut block = Vec::new();
            encode_chunk(chunk, start, &mut block);
            w.write_raw_chunk(&block).unwrap();
            start += chunk.len() as u64;
        }
        let raw = w.finish().unwrap();

        assert_eq!(serial, raw);
    }

    #[test]
    fn empty_file_is_just_the_header() {
        let w = ColWriter::new(Vec::new(), 0, 10, DEFAULT_CHUNK_ROWS).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), crate::FILE_HEADER_LEN);
    }

    #[test]
    #[should_panic(expected = "promised rows")]
    fn finishing_short_panics() {
        let w = ColWriter::new(Vec::new(), 5, 64, 2).unwrap();
        let _ = w.finish();
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_chunk_panics() {
        let docs: Vec<SparseVec> = (0..4).map(doc).collect();
        let mut w = ColWriter::new(Vec::new(), 4, 64, 2).unwrap();
        let mut block = Vec::new();
        encode_chunk(&docs[2..4], 2, &mut block); // second chunk first
        let _ = w.write_raw_chunk(&block);
    }

    #[test]
    fn io_errors_pass_through() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = match ColWriter::new(Full, 1, 4, 1) {
            Err(e) => e,
            Ok(_) => panic!("header write must fail"),
        };
        assert_eq!(err.to_string(), "disk full");
    }
}
