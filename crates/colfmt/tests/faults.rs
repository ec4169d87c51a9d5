//! Fault injection against whole files on disk: a corrupted
//! intermediate must surface a clean error naming the chunk it died in
//! — never a panic, never a silently wrong matrix. Exercises both read
//! paths — streaming `ColReader::read_chunk`, and the windows of whole
//! chunks (`ColReader::fill_window`) the parallel reader decodes — and
//! holds them to the same message.

use hpa_colfmt::{
    ChunkHeader, ChunkWindow, ColFmtError, ColReader, ColWriter, CHUNK_HEADER_LEN, FILE_HEADER_LEN,
};
use hpa_sparse::SparseVec;
use std::ops::Range;

/// A three-chunk sample file and the rows it encodes.
fn sample() -> (Vec<SparseVec>, Vec<u8>) {
    let docs: Vec<SparseVec> = (0..10u32)
        .map(|i| {
            if i % 4 == 3 {
                SparseVec::new()
            } else {
                SparseVec::from_sorted(vec![
                    (i, 0.25 * i as f64),
                    (i + 5, -1.5),
                    (i + 40, 1e-200 * (i + 1) as f64),
                ])
            }
        })
        .collect();
    let mut w = ColWriter::new(Vec::new(), docs.len() as u64, 64, 4).unwrap();
    for chunk in docs.chunks(4) {
        w.write_chunk(chunk).unwrap();
    }
    (docs.clone(), w.finish().unwrap())
}

/// Read `bytes` a window of `max_chunks` chunks at a time, as the
/// parallel reader does: decode a window's chunks, earliest first,
/// before acting on the error that ended its fill.
fn windowed(bytes: &[u8], max_chunks: usize) -> Result<Vec<SparseVec>, ColFmtError> {
    let mut reader = ColReader::new(bytes)?;
    let dim = reader.header().dim;
    let mut window = ChunkWindow::default();
    let mut rows = Vec::new();
    loop {
        let more = reader.fill_window(&mut window, max_chunks);
        for i in 0..window.len() {
            rows.extend(window.decode(i, dim)?);
        }
        if !more? {
            return Ok(rows);
        }
    }
}

/// Each chunk's header and payload range in a well-formed file.
fn chunk_table(bytes: &[u8]) -> Vec<(ChunkHeader, Range<usize>)> {
    let mut table = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    while pos < bytes.len() {
        let header = ChunkHeader::decode(bytes[pos..pos + CHUNK_HEADER_LEN].try_into().unwrap());
        let start = pos + CHUNK_HEADER_LEN;
        pos = start + header.payload_len as usize;
        table.push((header, start..pos));
    }
    table
}

/// Run both read paths over `bytes` — windows of one and of two chunks
/// on the windowed one; they must agree that the file is corrupt, with
/// one message, and it must satisfy `check`.
fn both_paths_reject(bytes: &[u8], check: impl Fn(&str)) {
    let streaming = match ColReader::new(bytes).and_then(|r| r.read_all()) {
        Ok(_) => panic!("streaming reader accepted a corrupt file"),
        Err(e) => e.to_string(),
    };
    check(&streaming);
    for max_chunks in [1, 2] {
        match windowed(bytes, max_chunks) {
            Ok(_) => panic!("windowed reader accepted a corrupt file"),
            Err(e) => assert_eq!(e.to_string(), streaming, "windows of {max_chunks}"),
        }
    }
}

#[test]
fn pristine_file_reads_back_on_both_paths() {
    let (docs, bytes) = sample();
    assert_eq!(
        ColReader::new(&bytes[..]).unwrap().read_all().unwrap(),
        docs
    );
    for max_chunks in 1..=4 {
        assert_eq!(windowed(&bytes, max_chunks).unwrap(), docs);
    }
}

#[test]
fn truncated_file_names_the_cut_chunk() {
    let (_, bytes) = sample();
    // A sweep of truncation points: every prefix must be rejected
    // cleanly (the file is only ~700 bytes, so try them all).
    for cut in 0..bytes.len() {
        let prefix = &bytes[..cut];
        both_paths_reject(prefix, |msg| {
            assert!(
                msg.contains("truncated") || msg.contains("shorter than"),
                "cut at {cut}: unexpected message {msg}"
            );
        });
    }
}

#[test]
fn bit_flip_in_any_payload_is_a_checksum_mismatch() {
    let (_, bytes) = sample();
    let table = chunk_table(&bytes);
    assert_eq!(table.len(), 3);
    for (i, (_, range)) in table.iter().enumerate() {
        // Flip one bit in the middle of each chunk's payload.
        let target = range.start + (range.end - range.start) / 2;
        let mut bad = bytes.clone();
        bad[target] ^= 0x10;
        both_paths_reject(&bad, |msg| {
            assert!(
                msg.contains(&format!("chunk {i}")),
                "flip in chunk {i}: message does not name it: {msg}"
            );
            assert!(msg.contains("checksum mismatch"), "{msg}");
        });
    }
}

#[test]
fn bad_magic_is_rejected_before_any_payload_work() {
    let (_, mut bytes) = sample();
    bytes[0] = b'Z';
    both_paths_reject(&bytes, |msg| {
        assert!(msg.contains("bad magic"), "{msg}");
        assert!(msg.contains("file header"), "{msg}");
    });
}

#[test]
fn future_version_is_rejected_with_the_version_number() {
    let (_, mut bytes) = sample();
    bytes[4] = 3;
    bytes[5] = 0;
    both_paths_reject(&bytes, |msg| {
        assert!(msg.contains("unsupported version 3"), "{msg}");
    });
}

#[test]
fn version_1_file_is_rejected_as_unsupported() {
    // A version-1 file as that format wrote it: the same layout, each
    // chunk's checksum FNV-1a over its payload.
    let (_, mut bytes) = sample();
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    for (header, range) in chunk_table(&bytes) {
        let v1 = ChunkHeader {
            checksum: hpa_sparse::fnv1a(&bytes[range.clone()]),
            ..header
        };
        bytes[range.start - CHUNK_HEADER_LEN..range.start].copy_from_slice(&v1.encode());
    }
    both_paths_reject(&bytes, |msg| {
        assert_eq!(
            msg,
            "colfmt corrupt intermediate in file header: \
             unsupported version 1 (this reader understands 2)"
        );
    });
}

#[test]
fn header_lying_about_row_count_is_caught() {
    let (_, mut bytes) = sample();
    // num_docs lives at bytes 8..16; claim one extra row.
    bytes[8..16].copy_from_slice(&11u64.to_le_bytes());
    both_paths_reject(&bytes, |msg| {
        assert!(
            msg.contains("promises 11") || msg.contains("promises"),
            "{msg}"
        );
    });
}

#[test]
fn errors_are_std_error_with_io_source_preserved() {
    // `ColFmtError` must behave like an io::Error for callers: Display,
    // std::error::Error, and a preserved source for the Io variant.
    let io = ColFmtError::from(std::io::Error::other("sink broke"));
    let dynamic: &dyn std::error::Error = &io;
    assert!(dynamic.source().is_some());
    assert!(dynamic.to_string().contains("sink broke"));
    let corrupt = ColFmtError::corrupt(3, "checksum mismatch");
    let dynamic: &dyn std::error::Error = &corrupt;
    assert!(dynamic.source().is_none());
}
