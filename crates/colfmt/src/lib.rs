#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Chunk-aligned binary sparse columnar intermediate format.
//!
//! The discrete TF/IDF → K-means workflow materializes the TF/IDF matrix
//! between operators. ARFF — the paper's (WEKA's) format — is text:
//! every weight round-trips through decimal formatting and byte-by-byte
//! parsing, which is the dominant cost of the discrete workflow even
//! after the round-trip was pipelined. This crate is the binary
//! alternative ("Binary" in `hpa_core::IntermediateFormat`): a
//! chunk-aligned sparse columnar layout in the spirit of "Optimizing I/O
//! for Big Array Analytics" (chunked layouts sized to the I/O unit) and
//! Tupleware's compact-binary-intermediates argument.
//!
//! ## File layout
//!
//! ```text
//! FileHeader (32 bytes)
//!   magic    [u8;4]  = b"HPAC"
//!   version  u16 LE  = 1
//!   flags    u16 LE  = 0 (reserved)
//!   num_docs u64 LE     total rows in the file
//!   dim      u64 LE     matrix dimensionality (vocabulary size)
//!   chunks   u64 LE     number of chunk blocks that follow
//! Chunk block, repeated `chunks` times
//!   ChunkHeader (40 bytes)
//!     doc_start   u64 LE  first document id of the chunk
//!     doc_count   u64 LE  rows in the chunk
//!     nnz         u64 LE  total entries in the chunk
//!     payload_len u64 LE  bytes of payload that follow
//!     checksum    u64 LE  FNV-1a 64 over the payload bytes
//!   Payload (columnar, `payload_len` bytes)
//!     row lengths  doc_count varints   (nnz per document)
//!     term ids     delta+varint        (per row: first id, then gaps)
//!     weights      nnz × f64 LE        (raw bits, no compression)
//! ```
//!
//! Term ids are strictly increasing within a row, so they compress well
//! as first-id + per-entry gaps (gap ≥ 1), each LEB128-varint encoded —
//! ~2 bytes per entry instead of ~7 of decimal text. Weights stay raw
//! little-endian `f64`: TF·IDF weights are normalized doubles with
//! near-random mantissas, so byte-level compression buys little, and raw
//! bits make the read path a bounds-checked memcpy while guaranteeing
//! bit-exact round-trips (the equivalence suites assert the same
//! `TfIdfMatrix` bits across formats).
//!
//! Chunks are self-contained — their byte length and checksum sit in
//! front of the payload — so a writer can produce them in parallel and
//! drain them in order (the `Sequencer` pipeline of
//! `hpa_tfidf::write_colfmt_overlapped`), and a reader can either stream
//! chunk-by-chunk ([`ColReader`]) or slice a slurped file at chunk
//! boundaries and decode the slices in parallel
//! (`hpa_tfidf::read_colfmt_parallel`). The chunk grain is a fixed row
//! count ([`DEFAULT_CHUNK_ROWS`]), independent of thread count, so the
//! emitted bytes are deterministic for a fixed input whatever executor
//! produced them.
//!
//! Every decode path verifies the magic, version, chunk checksum, and
//! structural invariants (lengths sum to `nnz`, ids strictly increasing
//! and `< dim`, payload fully consumed, document ranges contiguous), and
//! corruption surfaces as a [`ColFmtError::Corrupt`] naming the chunk —
//! never a panic, never silently wrong data.

pub mod chunk;
pub mod reader;
pub mod varint;
pub mod writer;

pub use chunk::{decode_chunk, encode_chunk};
pub use reader::{index_chunks, ColReader};
pub use writer::ColWriter;

use std::fmt;

/// File magic: the first four bytes of every colfmt intermediate.
pub const MAGIC: [u8; 4] = *b"HPAC";

/// Format version this crate reads and writes.
pub const VERSION: u16 = 1;

/// Encoded [`FileHeader`] size in bytes.
pub const FILE_HEADER_LEN: usize = 32;

/// Encoded [`ChunkHeader`] size in bytes.
pub const CHUNK_HEADER_LEN: usize = 40;

/// Rows per chunk. A fixed constant — deliberately *not* derived from
/// the executor's thread count — so the same matrix always produces the
/// same bytes; ~256 rows keeps chunks in the hundreds of kilobytes at
/// corpus scale, enough blocks to keep every worker busy.
pub const DEFAULT_CHUNK_ROWS: usize = 256;

/// FNV-1a 64-bit over a byte slice — the per-chunk payload checksum.
/// The fold is the workspace-shared [`hpa_sparse::fnv`] implementation;
/// this wrapper keeps the format-facing name so call sites and the wire
/// contract read the same as before the dedupe.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    hpa_sparse::fnv1a(bytes)
}

/// Decode/encode errors. Corruption always names the chunk it was
/// detected in (`None` = the file header), so operators can report
/// *which* block of the intermediate went bad.
#[derive(Debug)]
pub enum ColFmtError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are not a valid colfmt stream.
    Corrupt {
        /// Chunk index the corruption was detected in; `None` for the
        /// file header.
        chunk: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

impl ColFmtError {
    /// Helper: corruption in chunk `chunk`.
    pub fn corrupt(chunk: u64, message: impl Into<String>) -> Self {
        ColFmtError::Corrupt {
            chunk: Some(chunk),
            message: message.into(),
        }
    }

    /// Helper: corruption in the file header.
    pub fn corrupt_header(message: impl Into<String>) -> Self {
        ColFmtError::Corrupt {
            chunk: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ColFmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColFmtError::Io(e) => write!(f, "colfmt i/o error: {e}"),
            ColFmtError::Corrupt {
                chunk: Some(i),
                message,
            } => write!(f, "colfmt corrupt intermediate at chunk {i}: {message}"),
            ColFmtError::Corrupt {
                chunk: None,
                message,
            } => write!(f, "colfmt corrupt intermediate in file header: {message}"),
        }
    }
}

impl std::error::Error for ColFmtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColFmtError::Io(e) => Some(e),
            ColFmtError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for ColFmtError {
    fn from(e: std::io::Error) -> Self {
        ColFmtError::Io(e)
    }
}

/// The fixed file header in front of the chunk blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Total rows (documents) in the file.
    pub num_docs: u64,
    /// Matrix dimensionality (vocabulary size).
    pub dim: u64,
    /// Number of chunk blocks that follow.
    pub chunks: u64,
}

impl FileHeader {
    /// Encode to the fixed 32-byte wire form.
    pub fn encode(&self) -> [u8; FILE_HEADER_LEN] {
        let mut out = [0u8; FILE_HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&VERSION.to_le_bytes());
        // bytes 6..8: flags, reserved as zero.
        out[8..16].copy_from_slice(&self.num_docs.to_le_bytes());
        out[16..24].copy_from_slice(&self.dim.to_le_bytes());
        out[24..32].copy_from_slice(&self.chunks.to_le_bytes());
        out
    }

    /// Decode and validate the wire form: magic and version mismatches
    /// are header corruption, not I/O errors.
    pub fn decode(bytes: &[u8; FILE_HEADER_LEN]) -> Result<Self, ColFmtError> {
        if bytes[0..4] != MAGIC {
            return Err(ColFmtError::corrupt_header(format!(
                "bad magic {:02x?} (expected {:02x?} = \"HPAC\")",
                &bytes[0..4],
                MAGIC
            )));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(ColFmtError::corrupt_header(format!(
                "unsupported version {version} (this reader understands {VERSION})"
            )));
        }
        let word = |i: usize| {
            u64::from_le_bytes(
                bytes[i..i + 8]
                    .try_into()
                    .expect("8-byte slice of the fixed header"),
            )
        };
        Ok(FileHeader {
            num_docs: word(8),
            dim: word(16),
            chunks: word(24),
        })
    }
}

/// The per-chunk header in front of each payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// First document id of the chunk.
    pub doc_start: u64,
    /// Rows in the chunk.
    pub doc_count: u64,
    /// Total entries in the chunk.
    pub nnz: u64,
    /// Payload bytes that follow this header.
    pub payload_len: u64,
    /// FNV-1a 64 of the payload bytes.
    pub checksum: u64,
}

impl ChunkHeader {
    /// Encode to the fixed 40-byte wire form.
    pub fn encode(&self) -> [u8; CHUNK_HEADER_LEN] {
        let mut out = [0u8; CHUNK_HEADER_LEN];
        out[0..8].copy_from_slice(&self.doc_start.to_le_bytes());
        out[8..16].copy_from_slice(&self.doc_count.to_le_bytes());
        out[16..24].copy_from_slice(&self.nnz.to_le_bytes());
        out[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode the wire form (structural validation happens against the
    /// payload in [`decode_chunk`], which knows the chunk index).
    pub fn decode(bytes: &[u8; CHUNK_HEADER_LEN]) -> Self {
        let word = |i: usize| {
            u64::from_le_bytes(
                bytes[i..i + 8]
                    .try_into()
                    .expect("8-byte slice of the fixed header"),
            )
        };
        ChunkHeader {
            doc_start: word(0),
            doc_count: word(8),
            nnz: word(16),
            payload_len: word(24),
            checksum: word(32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_header_round_trips() {
        let h = FileHeader {
            num_docs: 12,
            dim: 185_000,
            chunks: 3,
        };
        assert_eq!(FileHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn bad_magic_is_header_corruption() {
        let mut bytes = FileHeader {
            num_docs: 0,
            dim: 0,
            chunks: 0,
        }
        .encode();
        bytes[0] = b'X';
        let err = FileHeader::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("file header"), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn future_version_is_rejected_cleanly() {
        let mut bytes = FileHeader {
            num_docs: 0,
            dim: 0,
            chunks: 0,
        }
        .encode();
        bytes[4] = 99;
        let err = FileHeader::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
    }

    #[test]
    fn chunk_header_round_trips() {
        let h = ChunkHeader {
            doc_start: 256,
            doc_count: 256,
            nnz: 31_000,
            payload_len: 310_000,
            checksum: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(ChunkHeader::decode(&h.encode()), h);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn error_display_names_the_chunk() {
        let e = ColFmtError::corrupt(7, "checksum mismatch");
        assert!(e.to_string().contains("chunk 7"), "{e}");
    }
}
