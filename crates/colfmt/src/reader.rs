//! The reader: [`ColReader`] parses the file header, then either
//! decodes one chunk at a time ([`ColReader::read_chunk`]) or reads a
//! window of whole chunks, unverified, into one reused buffer
//! ([`ColReader::fill_window`]) for a caller to verify and decode in
//! parallel ([`ChunkWindow::decode`]).
//!
//! Both paths read a payload through `Read::take`, so a lying length
//! costs at most the real stream's bytes, and convert premature
//! end-of-input into [`ColFmtError::Corrupt`] naming the chunk (or the
//! file header), so a truncated intermediate reports *where* it was cut,
//! not a bare "unexpected EOF".

use crate::{
    decode_chunk, ChunkHeader, ColFmtError, FileHeader, CHUNK_HEADER_LEN, FILE_HEADER_LEN,
};
use hpa_sparse::SparseVec;
use std::io::Read;
use std::ops::Range;

/// Read exactly `buf.len()` bytes, mapping EOF to a corruption error
/// located at `chunk` (`None` = file header).
fn read_exact_or_corrupt<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    chunk: Option<u64>,
    what: &str,
) -> Result<(), ColFmtError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ColFmtError::Corrupt {
                chunk,
                message: format!("file truncated while reading {what}"),
            }
        } else {
            ColFmtError::Io(e)
        }
    })
}

/// Streaming colfmt reader: parses the file header on construction,
/// then yields chunks in document order.
#[derive(Debug)]
pub struct ColReader<R: Read> {
    src: R,
    header: FileHeader,
    /// Index of the next chunk to read.
    next_chunk: u64,
    /// Document id the next chunk must start at.
    next_doc: u64,
    /// Payload buffer reused across [`read_chunk`](Self::read_chunk)
    /// calls.
    payload: Vec<u8>,
}

impl<R: Read> ColReader<R> {
    /// Read and validate the file header.
    pub fn new(mut src: R) -> Result<Self, ColFmtError> {
        let mut raw = [0u8; FILE_HEADER_LEN];
        read_exact_or_corrupt(&mut src, &mut raw, None, "the 32-byte file header")?;
        let header = FileHeader::decode(&raw)?;
        Ok(ColReader {
            src,
            header,
            next_chunk: 0,
            next_doc: 0,
            payload: Vec::new(),
        })
    }

    /// The validated file header.
    pub fn header(&self) -> FileHeader {
        self.header
    }

    /// Past the promised chunks: the stream must be exhausted — trailing
    /// bytes mean the header lied about the chunk count — and the chunks
    /// must have carried the promised rows.
    fn check_end(&mut self) -> Result<(), ColFmtError> {
        let mut probe = [0u8; 1];
        match self.src.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => {
                return Err(ColFmtError::corrupt_header(format!(
                    "trailing bytes after the {} promised chunks",
                    self.header.chunks
                )))
            }
            Err(e) => return Err(ColFmtError::Io(e)),
        }
        if self.next_doc != self.header.num_docs {
            return Err(ColFmtError::corrupt_header(format!(
                "chunks carried {} rows but the header promises {}",
                self.next_doc, self.header.num_docs
            )));
        }
        Ok(())
    }

    /// Read the next chunk's header and append its payload to `buf`,
    /// checking that the chunk continues the document range and that its
    /// payload is all there — but neither its checksum nor its structure.
    /// The caller has checked that a chunk is due.
    fn read_raw_chunk(&mut self, buf: &mut Vec<u8>) -> Result<ChunkHeader, ColFmtError> {
        let index = self.next_chunk;
        let mut raw = [0u8; CHUNK_HEADER_LEN];
        read_exact_or_corrupt(
            &mut self.src,
            &mut raw,
            Some(index),
            "the 40-byte chunk header",
        )?;
        let header = ChunkHeader::decode(&raw);
        if header.doc_start != self.next_doc {
            return Err(ColFmtError::corrupt(
                index,
                format!(
                    "chunk starts at doc {} but the stream is at doc {}",
                    header.doc_start, self.next_doc
                ),
            ));
        }
        // Never size an allocation from an untrusted header field: a
        // corrupted `payload_len` could demand exabytes. `take` +
        // `read_to_end` grows the buffer only as bytes actually arrive,
        // so a lying header costs at most the real stream length.
        let got = (&mut self.src)
            .take(header.payload_len)
            .read_to_end(buf)
            .map_err(ColFmtError::Io)?;
        if (got as u64) < header.payload_len {
            return Err(ColFmtError::corrupt(
                index,
                format!(
                    "file truncated while reading the chunk payload \
                     ({got} of {} bytes present)",
                    header.payload_len
                ),
            ));
        }
        self.next_chunk += 1;
        self.next_doc += header.doc_count;
        Ok(header)
    }

    /// Decode the next chunk, or `None` after the last one. Verifies
    /// the chunk checksum, structure, and that document ranges tile the
    /// file contiguously.
    pub fn read_chunk(&mut self) -> Result<Option<(ChunkHeader, Vec<SparseVec>)>, ColFmtError> {
        if self.next_chunk == self.header.chunks {
            self.check_end()?;
            return Ok(None);
        }
        let index = self.next_chunk;
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        let decoded = self
            .read_raw_chunk(&mut payload)
            .and_then(|h| Ok((h, decode_chunk(&h, &payload, self.header.dim, index)?)));
        self.payload = payload;
        decoded.map(Some)
    }

    /// Stream every chunk and return all rows, verifying the total row
    /// count matches the header.
    pub fn read_all(mut self) -> Result<Vec<SparseVec>, ColFmtError> {
        let mut docs = Vec::with_capacity(self.rows_hint());
        while let Some((_, mut chunk)) = self.read_chunk()? {
            docs.append(&mut chunk);
        }
        Ok(docs)
    }

    /// The header's row count as a capacity hint — capped, so a corrupt
    /// `num_docs` cannot trigger a pathological allocation before
    /// validation fails.
    pub fn rows_hint(&self) -> usize {
        usize::try_from(self.header.num_docs)
            .unwrap_or(0)
            .min(1 << 20)
    }

    /// Replace `window`'s contents with the next whole chunks, at most
    /// `max_chunks` (at least one): their headers, and their payloads in
    /// the window's one byte buffer. Only what
    /// [`read_chunk`](Self::read_chunk) checks before its decode is
    /// checked here — the document range continues and the payload is all
    /// there; checksums and structure are [`ChunkWindow::decode`]'s.
    ///
    /// Returns `Ok(true)` while chunks remain, and `Ok(false)` once the
    /// last chunk is in the window and the stream is checked to end with
    /// the promised rows.
    ///
    /// # Errors
    ///
    /// A fault reading the chunk after the window's last. The window then
    /// holds the chunks read before it: decode them first, so that a
    /// corrupt earlier chunk is reported, as the streaming reader
    /// reports it.
    pub fn fill_window(
        &mut self,
        window: &mut ChunkWindow,
        max_chunks: usize,
    ) -> Result<bool, ColFmtError> {
        window.bytes.clear();
        window.chunks.clear();
        window.first = self.next_chunk;
        while window.chunks.len() < max_chunks.max(1) && self.next_chunk < self.header.chunks {
            let start = window.bytes.len();
            let header = self.read_raw_chunk(&mut window.bytes)?;
            window.chunks.push((header, start..window.bytes.len()));
        }
        if self.next_chunk < self.header.chunks {
            return Ok(true);
        }
        self.check_end()?;
        Ok(false)
    }
}

/// Whole chunks read ahead of their decode by
/// [`ColReader::fill_window`]: one byte buffer, reused from window to
/// window, and each chunk's header and payload range in it.
#[derive(Debug, Default)]
pub struct ChunkWindow {
    bytes: Vec<u8>,
    chunks: Vec<(ChunkHeader, Range<usize>)>,
    /// File index of the window's first chunk.
    first: u64,
}

impl ChunkWindow {
    /// Chunks in the window.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the window holds no chunk.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Bytes the window read: the chunk headers and payloads.
    pub fn bytes_read(&self) -> u64 {
        (self.chunks.len() * CHUNK_HEADER_LEN + self.bytes.len()) as u64
    }

    /// Bytes of chunk `i`'s block: its header and payload.
    pub fn block_len(&self, i: usize) -> u64 {
        (CHUNK_HEADER_LEN + self.chunks[i].1.len()) as u64
    }

    /// Verify and decode chunk `i` of the window (see [`decode_chunk`]);
    /// errors name the chunk's index in the file. `dim` is the file
    /// header's.
    pub fn decode(&self, i: usize, dim: u64) -> Result<Vec<SparseVec>, ColFmtError> {
        let (header, range) = &self.chunks[i];
        decode_chunk(
            header,
            &self.bytes[range.clone()],
            dim,
            self.first + i as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColWriter;

    fn sample_file(chunk_rows: usize) -> (Vec<SparseVec>, Vec<u8>) {
        let docs: Vec<SparseVec> = (0..7u32)
            .map(|i| {
                if i == 3 {
                    SparseVec::new()
                } else {
                    SparseVec::from_sorted(vec![(i, i as f64 * 0.5), (i + 20, 1.0)])
                }
            })
            .collect();
        let mut w = ColWriter::new(Vec::new(), docs.len() as u64, 64, chunk_rows).unwrap();
        for chunk in docs.chunks(chunk_rows) {
            w.write_chunk(chunk).unwrap();
        }
        (docs.clone(), w.finish().unwrap())
    }

    /// Each window's first chunk index and chunk count.
    type Windows = Vec<(u64, usize)>;

    /// Read `bytes` a window of `max_chunks` chunks at a time, decoding
    /// each window's chunks before acting on the fill's error; returns
    /// the rows and each window's first chunk index and length.
    fn windowed(bytes: &[u8], max_chunks: usize) -> Result<(Vec<SparseVec>, Windows), ColFmtError> {
        let mut reader = ColReader::new(bytes)?;
        let dim = reader.header().dim;
        let mut window = ChunkWindow::default();
        let (mut rows, mut shape) = (Vec::new(), Vec::new());
        loop {
            let more = reader.fill_window(&mut window, max_chunks);
            shape.push((window.first, window.len()));
            for i in 0..window.len() {
                rows.extend(window.decode(i, dim)?);
            }
            if !more? {
                return Ok((rows, shape));
            }
        }
    }

    #[test]
    fn streaming_read_recovers_all_rows() {
        let (docs, bytes) = sample_file(3);
        let reader = ColReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.header().num_docs, 7);
        assert_eq!(reader.header().chunks, 3);
        assert_eq!(reader.read_all().unwrap(), docs);
    }

    #[test]
    fn chunk_table_tiles_the_file() {
        let (docs, bytes) = sample_file(3);
        let (rows, shape) = windowed(&bytes, 2).unwrap();
        assert_eq!(rows, docs);
        assert_eq!(shape, [(0, 2), (2, 1)]);
        let (rows, shape) = windowed(&bytes, 3).unwrap();
        assert_eq!(rows, docs);
        assert_eq!(shape, [(0, 3)]);
        // Zero is read as one chunk per window.
        assert_eq!(windowed(&bytes, 0).unwrap().1, [(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn a_window_reuses_its_buffer() {
        let (_, bytes) = sample_file(3);
        let mut reader = ColReader::new(&bytes[..]).unwrap();
        let mut window = ChunkWindow::default();
        assert!(reader.fill_window(&mut window, 2).unwrap());
        let capacity = window.bytes.capacity();
        let read = window.bytes_read();
        assert_eq!(read, window.block_len(0) + window.block_len(1));
        assert!(!reader.fill_window(&mut window, 2).unwrap());
        assert_eq!(window.bytes.capacity(), capacity);
        assert_eq!(
            read + window.bytes_read(),
            (bytes.len() - FILE_HEADER_LEN) as u64
        );
    }

    #[test]
    fn truncation_names_the_chunk() {
        let (_, bytes) = sample_file(3);
        // Cut inside the last chunk's payload.
        let cut = bytes.len() - 4;
        let err = ColReader::new(&bytes[..cut])
            .unwrap()
            .read_all()
            .unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        for max_chunks in 1..=3 {
            let windowed = windowed(&bytes[..cut], max_chunks).unwrap_err();
            assert_eq!(windowed.to_string(), err.to_string());
        }
    }

    #[test]
    fn header_shorter_than_fixed_size_is_corrupt() {
        let (_, bytes) = sample_file(3);
        let err = ColReader::new(&bytes[..10]).unwrap_err();
        assert!(err.to_string().contains("file header"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (_, mut bytes) = sample_file(3);
        bytes.push(0);
        let err = ColReader::new(&bytes[..]).unwrap().read_all().unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        let err = windowed(&bytes, 2).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn empty_file_round_trips() {
        let w = ColWriter::new(Vec::new(), 0, 16, 4).unwrap();
        let bytes = w.finish().unwrap();
        assert!(ColReader::new(&bytes[..])
            .unwrap()
            .read_all()
            .unwrap()
            .is_empty());
        let (rows, shape) = windowed(&bytes, 4).unwrap();
        assert!(rows.is_empty());
        assert_eq!(shape, [(0, 0)]);
    }
}
