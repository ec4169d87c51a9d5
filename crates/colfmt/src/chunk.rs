//! Chunk payload codec: rows of sparse vectors ↔ the columnar wire
//! form (row lengths, delta+varint term ids, raw `f64` weights).
//!
//! Encoding is infallible and deterministic — the same rows always
//! produce the same bytes. Decoding is paranoid: the checksum is
//! verified *before* any structural parse, and every structural
//! invariant (canonical varints, strictly increasing ids, ids below
//! `dim`, lengths summing to `nnz`, payload fully consumed) is checked
//! so corruption that survives the checksum lottery still cannot
//! produce a silently wrong matrix.

use crate::{checksum, varint, ChunkHeader, ColFmtError};
use hpa_sparse::SparseVec;

/// Encode `docs` (the rows starting at document `doc_start`) as one
/// chunk block — header then payload — appended to `out`. Returns the
/// number of bytes appended.
pub fn encode_chunk(docs: &[SparseVec], doc_start: u64, out: &mut Vec<u8>) -> usize {
    let before = out.len();
    let nnz: u64 = docs.iter().map(|d| d.nnz() as u64).sum();

    // Reserve the header, fill it in once the payload is known.
    let header_at = out.len();
    out.resize(out.len() + crate::CHUNK_HEADER_LEN, 0);
    let payload_at = out.len();

    // Section A: row lengths.
    for d in docs {
        varint::write_u64(out, d.nnz() as u64);
    }
    // Section B: term ids, first id then gaps (strict ascent ⇒ gap ≥ 1).
    for d in docs {
        let mut prev: Option<u64> = None;
        for &t in d.terms() {
            let t = t as u64;
            match prev {
                None => varint::write_u64(out, t),
                Some(p) => varint::write_u64(out, t - p),
            }
            prev = Some(t);
        }
    }
    // Section C: raw little-endian weights.
    for d in docs {
        for &w in d.weights() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    let payload = &out[payload_at..];
    let header = ChunkHeader {
        doc_start,
        doc_count: docs.len() as u64,
        nnz,
        payload_len: payload.len() as u64,
        checksum: checksum(payload),
    };
    out[header_at..payload_at].copy_from_slice(&header.encode());
    out.len() - before
}

/// Decode one chunk payload back into rows, verifying the checksum and
/// every structural invariant. `chunk_index` is only used to label
/// errors; `dim` bounds the term ids.
pub fn decode_chunk(
    header: &ChunkHeader,
    payload: &[u8],
    dim: u64,
    chunk_index: u64,
) -> Result<Vec<SparseVec>, ColFmtError> {
    let corrupt = |msg: String| ColFmtError::corrupt(chunk_index, msg);
    if payload.len() as u64 != header.payload_len {
        return Err(corrupt(format!(
            "payload is {} bytes but the header promised {}",
            payload.len(),
            header.payload_len
        )));
    }
    let actual = checksum(payload);
    if actual != header.checksum {
        return Err(corrupt(format!(
            "checksum mismatch: payload hashes to {actual:#018x}, header says {:#018x}",
            header.checksum
        )));
    }

    let doc_count = usize::try_from(header.doc_count)
        .map_err(|_| corrupt(format!("doc_count {} overflows usize", header.doc_count)))?;
    let total_nnz = usize::try_from(header.nnz)
        .map_err(|_| corrupt(format!("nnz {} overflows usize", header.nnz)))?;
    // The checksum only covers the payload, so `doc_count`/`nnz` are
    // still untrusted here. Bound them by what the payload could
    // physically hold — each row length costs ≥ 1 byte, each entry ≥ 9
    // (one id byte + an 8-byte weight) — before they size any
    // allocation.
    let floor = (doc_count as u128) + 9 * (total_nnz as u128);
    if floor > payload.len() as u128 {
        return Err(corrupt(format!(
            "header claims {doc_count} rows and {total_nnz} entries, needing at least \
             {floor} payload bytes, but only {} are present",
            payload.len()
        )));
    }

    // The label is formatted only on the error path: a decode that
    // succeeds pays per row and per chunk, never per entry.
    let mut pos = 0usize;
    let take_varint = |pos: &mut usize, section: &str, row: usize| -> Result<u64, ColFmtError> {
        let (v, used) = varint::read_u64(&payload[*pos..]).ok_or_else(|| {
            ColFmtError::corrupt(
                chunk_index,
                format!(
                    "truncated or malformed varint in {section} (row {row}) at payload offset {pos}",
                    pos = *pos
                ),
            )
        })?;
        *pos += used;
        Ok(v)
    };

    // Section A: row lengths, which must sum to the header's nnz.
    let mut lens = Vec::with_capacity(doc_count);
    let mut lens_sum: u64 = 0;
    for row in 0..doc_count {
        let len = take_varint(&mut pos, "row-length table", row)?;
        lens_sum = lens_sum
            .checked_add(len)
            .ok_or_else(|| corrupt("row lengths overflow u64".to_string()))?;
        lens.push(len as usize);
    }
    if lens_sum != header.nnz {
        return Err(corrupt(format!(
            "row lengths sum to {lens_sum} but the header promises nnz {}",
            header.nnz
        )));
    }

    // Section B: term ids, straight into each row's final array.
    let mut row_terms: Vec<Vec<u32>> = Vec::with_capacity(doc_count);
    for (row, &len) in lens.iter().enumerate() {
        let mut terms = Vec::with_capacity(len);
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let raw = take_varint(&mut pos, "term ids", row)?;
            let id = match prev {
                None => raw,
                Some(p) => {
                    if raw == 0 {
                        return Err(corrupt(format!(
                            "zero delta in row {row}: term ids must be strictly increasing"
                        )));
                    }
                    p.checked_add(raw)
                        .ok_or_else(|| corrupt(format!("term id overflow in row {row}")))?
                }
            };
            if id >= dim {
                return Err(corrupt(format!(
                    "term id {id} in row {row} is out of range for dimension {dim}"
                )));
            }
            let id32 = u32::try_from(id)
                .map_err(|_| corrupt(format!("term id {id} in row {row} overflows u32")))?;
            terms.push(id32);
            prev = Some(id);
        }
        row_terms.push(terms);
    }

    // Section C: raw weights — exactly nnz × 8 bytes, ending the payload.
    let weights_len = total_nnz
        .checked_mul(8)
        .ok_or_else(|| corrupt("weight section length overflows usize".to_string()))?;
    let remaining = payload.len() - pos;
    if remaining != weights_len {
        return Err(corrupt(format!(
            "weight section is {remaining} bytes, expected {weights_len} (nnz {total_nnz} × 8); \
             payload not fully consumed"
        )));
    }

    let docs = row_terms
        .into_iter()
        .map(|terms| {
            let bytes = &payload[pos..pos + 8 * terms.len()];
            pos += bytes.len();
            let weights: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect();
            // Strict ascent was validated during delta decoding, so
            // `from_sorted_parts`'s assert cannot fire on hostile input.
            SparseVec::from_sorted_parts(terms, weights)
        })
        .collect();
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CHUNK_HEADER_LEN;

    fn rows() -> Vec<SparseVec> {
        vec![
            SparseVec::from_sorted(vec![(0, 1.5), (7, -2.25), (90, 1e-300)]),
            SparseVec::new(), // empty document
            SparseVec::from_sorted(vec![(3, 0.0), (4, f64::MIN_POSITIVE)]),
        ]
    }

    fn encode(docs: &[SparseVec]) -> (ChunkHeader, Vec<u8>) {
        let mut buf = Vec::new();
        let n = encode_chunk(docs, 10, &mut buf);
        assert_eq!(n, buf.len());
        let header = ChunkHeader::decode(
            &buf[..CHUNK_HEADER_LEN]
                .try_into()
                .expect("fixed-size header"),
        );
        (header, buf[CHUNK_HEADER_LEN..].to_vec())
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let docs = rows();
        let (header, payload) = encode(&docs);
        assert_eq!(header.doc_start, 10);
        assert_eq!(header.doc_count, 3);
        assert_eq!(header.nnz, 5);
        let back = decode_chunk(&header, &payload, 100, 0).unwrap();
        assert_eq!(back, docs);
        // Bit-exactness, not just PartialEq: compare raw weight bits.
        for (a, b) in docs.iter().zip(&back) {
            let ab: Vec<u64> = a.weights().iter().map(|w| w.to_bits()).collect();
            let bb: Vec<u64> = b.weights().iter().map(|w| w.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let docs = rows();
        let mut a = Vec::new();
        let mut b = vec![0xAAu8; 3]; // pre-existing bytes are untouched
        encode_chunk(&docs, 10, &mut a);
        encode_chunk(&docs, 10, &mut b);
        assert_eq!(a, b[3..]);
    }

    #[test]
    fn bit_flip_anywhere_in_payload_is_caught() {
        let docs = rows();
        let (header, payload) = encode(&docs);
        for byte in 0..payload.len() {
            let mut bad = payload.clone();
            bad[byte] ^= 0x40;
            let err = decode_chunk(&header, &bad, 100, 4).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("chunk 4"), "error must name the chunk: {msg}");
            assert!(msg.contains("checksum mismatch"), "{msg}");
        }
    }

    #[test]
    fn truncated_payload_is_caught_by_length_check() {
        let docs = rows();
        let (header, payload) = encode(&docs);
        let err = decode_chunk(&header, &payload[..payload.len() - 1], 100, 2).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
    }

    /// A header with an honest length and checksum for `payload`,
    /// claiming `doc_count` rows and `nnz` entries.
    fn forged(doc_count: u64, nnz: u64, payload: &[u8]) -> ChunkHeader {
        ChunkHeader {
            doc_start: 0,
            doc_count,
            nnz,
            payload_len: payload.len() as u64,
            checksum: checksum(payload),
        }
    }

    #[test]
    fn structural_lies_are_caught_even_with_matching_checksum() {
        // Forge a chunk whose checksum is honest but whose contents lie:
        // a delta of zero (duplicate term id).
        let mut payload = Vec::new();
        varint::write_u64(&mut payload, 2); // one row, two entries
        varint::write_u64(&mut payload, 5); // first id
        varint::write_u64(&mut payload, 0); // zero delta: duplicate
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        payload.extend_from_slice(&2.0f64.to_le_bytes());
        let header = forged(1, 2, &payload);
        let err = decode_chunk(&header, &payload, 100, 0).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");

        // An id past the dimension.
        let mut payload = Vec::new();
        varint::write_u64(&mut payload, 1);
        varint::write_u64(&mut payload, 100); // dim is 100 ⇒ max id 99
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        let header = forged(1, 1, &payload);
        let err = decode_chunk(&header, &payload, 100, 0).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Row lengths that disagree with nnz (payload padded out so the
        // cheaper physical-size bound cannot fire first).
        let mut payload = Vec::new();
        varint::write_u64(&mut payload, 3); // row claims 3 entries
        for id in [1u64, 1, 1] {
            varint::write_u64(&mut payload, id);
        }
        for w in [1.0f64, 2.0, 3.0] {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        let header = forged(1, 2, &payload); // lies: the row table sums to 3
        let err = decode_chunk(&header, &payload, 100, 0).unwrap_err();
        assert!(err.to_string().contains("row lengths sum"), "{err}");

        // A header whose claims cannot physically fit its payload is
        // rejected before any allocation is sized from them.
        let header = ChunkHeader {
            doc_start: 0,
            doc_count: 1,
            nnz: u64::MAX / 16, // would demand exabytes
            payload_len: 1,
            checksum: checksum(&[0]),
        };
        let err = decode_chunk(&header, &[0], 100, 0).unwrap_err();
        assert!(err.to_string().contains("payload bytes"), "{err}");
    }

    #[test]
    fn malformed_varint_names_its_section_row_and_offset() {
        // Row 1's only term id is `0x80 0x00`, a non-canonical varint,
        // at payload offset 3 (after two row lengths and row 0's id).
        let mut payload = vec![1, 1, 5, 0x80, 0x00];
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        payload.extend_from_slice(&2.0f64.to_le_bytes());
        let err = decode_chunk(&forged(2, 2, &payload), &payload, 100, 6).unwrap_err();
        assert_eq!(
            err.to_string(),
            "colfmt corrupt intermediate at chunk 6: \
             truncated or malformed varint in term ids (row 1) at payload offset 3"
        );

        // Row 1's length is the malformed varint, at payload offset 1.
        let mut payload = vec![1, 0x80, 0x00, 5];
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        let err = decode_chunk(&forged(2, 1, &payload), &payload, 100, 6).unwrap_err();
        assert_eq!(
            err.to_string(),
            "colfmt corrupt intermediate at chunk 6: \
             truncated or malformed varint in row-length table (row 1) at payload offset 1"
        );
    }

    #[test]
    fn max_term_id_round_trips() {
        let dim = u32::MAX as u64 + 1;
        let docs = vec![SparseVec::from_sorted(vec![
            (0, 1.0),
            (u32::MAX - 1, 2.0),
            (u32::MAX, 3.0),
        ])];
        let (header, payload) = encode(&docs);
        let back = decode_chunk(&header, &payload, dim, 0).unwrap();
        assert_eq!(back, docs);
    }

    #[test]
    fn empty_chunk_round_trips() {
        let docs: Vec<SparseVec> = Vec::new();
        let (header, payload) = encode(&docs);
        assert_eq!(header.nnz, 0);
        assert!(payload.is_empty());
        let back = decode_chunk(&header, &payload, 10, 0).unwrap();
        assert!(back.is_empty());
    }
}
