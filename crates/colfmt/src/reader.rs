//! Readers: a streaming chunk-at-a-time [`ColReader`] over any byte
//! source, and [`index_chunks`] — the zero-copy chunk table used by the
//! parallel read path, which slurps the file once and hands each
//! worker a `(header, payload range)` slice to decode independently.
//!
//! Both paths convert premature end-of-input into
//! [`ColFmtError::Corrupt`] naming the chunk (or the file header), so
//! a truncated intermediate reports *where* it was cut, not a bare
//! "unexpected EOF".

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
        })
    }

    /// The validated file header.
    pub fn header(&self) -> FileHeader {
        self.header
    }

    /// Decode the next chunk, or `None` after the last one. Verifies
    /// the chunk checksum, structure, and that document ranges tile the
    /// file contiguously.
    pub fn read_chunk(&mut self) -> Result<Option<(ChunkHeader, Vec<SparseVec>)>, ColFmtError> {
        if self.next_chunk == self.header.chunks {
            // Past the promised chunks the stream must be exhausted —
            // trailing bytes mean the header lied about the chunk count.
            let mut probe = [0u8; 1];
            match self.src.read(&mut probe) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    return Err(ColFmtError::corrupt_header(format!(
                        "trailing bytes after the {} promised chunks",
                        self.header.chunks
                    )))
                }
                Err(e) => return Err(ColFmtError::Io(e)),
            }
        }
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
        let mut payload = Vec::new();
        let got = (&mut self.src)
            .take(header.payload_len)
            .read_to_end(&mut payload)
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
        let docs = decode_chunk(&header, &payload, self.header.dim, index)?;
        self.next_chunk += 1;
        self.next_doc += header.doc_count;
        Ok(Some((header, docs)))
    }

    /// Stream every chunk and return all rows, verifying the total row
    /// count matches the header.
    pub fn read_all(mut self) -> Result<Vec<SparseVec>, ColFmtError> {
        // Capacity hint only — capped so a corrupt `num_docs` cannot
        // trigger a pathological allocation before validation fails.
        let hint = usize::try_from(self.header.num_docs).unwrap_or(0);
        let mut docs = Vec::with_capacity(hint.min(1 << 20));
        while let Some((_, mut chunk)) = self.read_chunk()? {
            docs.append(&mut chunk);
        }
        if docs.len() as u64 != self.header.num_docs {
            return Err(ColFmtError::corrupt_header(format!(
                "chunks carried {} rows but the header promises {}",
                docs.len(),
                self.header.num_docs
            )));
        }
        Ok(docs)
    }
}

/// Build the chunk table of a fully slurped file: the validated file
/// header plus, per chunk, its header and the byte range of its
/// payload within `bytes`. Only the fixed headers are touched — no
/// payload is hashed or decoded — so this is the cheap serial prefix
/// of the parallel read path; workers then call
/// [`decode_chunk`] on disjoint slices.
///
/// Validates chunk contiguity, the total row count, and that the file
/// ends exactly after the last payload.
#[allow(clippy::type_complexity)]
pub fn index_chunks(
    bytes: &[u8],
) -> Result<(FileHeader, Vec<(ChunkHeader, Range<usize>)>), ColFmtError> {
    if bytes.len() < FILE_HEADER_LEN {
        return Err(ColFmtError::corrupt_header(format!(
            "file is {} bytes, shorter than the {FILE_HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    let header = FileHeader::decode(
        &bytes[..FILE_HEADER_LEN]
            .try_into()
            .expect("fixed-size header"),
    )?;
    // Capacity hint bounded by what the file could physically hold.
    let hint = usize::try_from(header.chunks).unwrap_or(0);
    let mut table = Vec::with_capacity(hint.min(bytes.len() / CHUNK_HEADER_LEN + 1));
    let mut pos = FILE_HEADER_LEN;
    let mut next_doc = 0u64;
    for index in 0..header.chunks {
        if bytes.len() - pos < CHUNK_HEADER_LEN {
            return Err(ColFmtError::corrupt(
                index,
                "file truncated while reading the 40-byte chunk header".to_string(),
            ));
        }
        let ch = ChunkHeader::decode(
            &bytes[pos..pos + CHUNK_HEADER_LEN]
                .try_into()
                .expect("fixed-size header"),
        );
        pos += CHUNK_HEADER_LEN;
        if ch.doc_start != next_doc {
            return Err(ColFmtError::corrupt(
                index,
                format!(
                    "chunk starts at doc {} but the stream is at doc {next_doc}",
                    ch.doc_start
                ),
            ));
        }
        let payload_len = usize::try_from(ch.payload_len).map_err(|_| {
            ColFmtError::corrupt(
                index,
                format!("payload length {} overflows usize", ch.payload_len),
            )
        })?;
        if bytes.len() - pos < payload_len {
            return Err(ColFmtError::corrupt(
                index,
                format!(
                    "file truncated inside the chunk payload ({} of {payload_len} bytes present)",
                    bytes.len() - pos
                ),
            ));
        }
        table.push((ch, pos..pos + payload_len));
        pos += payload_len;
        next_doc += ch.doc_count;
    }
    if pos != bytes.len() {
        return Err(ColFmtError::corrupt_header(format!(
            "trailing bytes after the {} promised chunks",
            header.chunks
        )));
    }
    if next_doc != header.num_docs {
        return Err(ColFmtError::corrupt_header(format!(
            "chunks carried {next_doc} rows but the header promises {}",
            header.num_docs
        )));
    }
    Ok((header, table))
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
        let (header, table) = index_chunks(&bytes).unwrap();
        assert_eq!(table.len(), 3);
        let mut all = Vec::new();
        for (i, (ch, range)) in table.iter().enumerate() {
            let chunk = decode_chunk(ch, &bytes[range.clone()], header.dim, i as u64).unwrap();
            all.extend(chunk);
        }
        assert_eq!(all, docs);
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
        let err = index_chunks(&bytes[..cut]).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
    }

    #[test]
    fn header_shorter_than_fixed_size_is_corrupt() {
        let (_, bytes) = sample_file(3);
        let err = ColReader::new(&bytes[..10]).unwrap_err();
        assert!(err.to_string().contains("file header"), "{err}");
        let err = index_chunks(&bytes[..10]).unwrap_err();
        assert!(err.to_string().contains("file header"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (_, mut bytes) = sample_file(3);
        bytes.push(0);
        let err = ColReader::new(&bytes[..]).unwrap().read_all().unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        let err = index_chunks(&bytes).unwrap_err();
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
        let (header, table) = index_chunks(&bytes).unwrap();
        assert_eq!(header.num_docs, 0);
        assert!(table.is_empty());
    }
}
