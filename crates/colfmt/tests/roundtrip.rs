//! Randomized round-trip coverage (SplitMix64, fixed seeds —
//! deterministic, no external crates): random matrices through both
//! read paths bit for bit, and random single-bit flips never decoding
//! to a wrong matrix.

use hpa_colfmt::{decode_chunk, index_chunks, ColReader, ColWriter, DEFAULT_CHUNK_ROWS};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;

/// Random sparse rows: empty docs, tiny/denormal/negative weights,
/// term ids spanning the full u32 range when `dim` allows.
fn random_docs(rng: &mut SplitMix64, n: usize, dim: u64) -> Vec<SparseVec> {
    (0..n)
        .map(|_| {
            let nnz = match rng.gen_index(8) {
                0 => 0, // empty document
                k => k * 3,
            }
            .min(dim as usize); // a row can't hold more distinct ids than dim
            let mut ids = std::collections::BTreeSet::new();
            while ids.len() < nnz {
                ids.insert((rng.next_u64() % dim) as u32);
            }
            let pairs = ids
                .into_iter()
                .map(|t| {
                    let w = match rng.gen_index(5) {
                        0 => -rng.gen_f64(),               // negative
                        1 => rng.gen_f64() * 1e-310,       // denormal range
                        2 => 0.0,                          // exact zero
                        3 => rng.gen_f64() * 1e300,        // huge
                        _ => rng.gen_range_f64(0.0, 10.0), // ordinary
                    };
                    (t, w)
                })
                .collect();
            SparseVec::from_sorted(pairs)
        })
        .collect()
}

fn write_file(docs: &[SparseVec], dim: u64, chunk_rows: usize) -> Vec<u8> {
    let mut w = ColWriter::new(Vec::new(), docs.len() as u64, dim, chunk_rows).unwrap();
    for chunk in docs.chunks(chunk_rows) {
        w.write_chunk(chunk).unwrap();
    }
    w.finish().unwrap()
}

fn assert_bit_identical(a: &[SparseVec], b: &[SparseVec]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.terms(), y.terms());
        let xb: Vec<u64> = x.weights().iter().map(|w| w.to_bits()).collect();
        let yb: Vec<u64> = y.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(xb, yb, "weight bits must survive the round trip exactly");
    }
}

#[test]
fn random_matrices_round_trip_bit_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0x00c0_1f37);
    for trial in 0..50 {
        let dim = [1u64, 100, 300_000, u32::MAX as u64 + 1][rng.gen_index(4)];
        let n = rng.gen_index(40);
        let chunk_rows = 1 + rng.gen_index(9);
        let docs = random_docs(&mut rng, n, dim);
        let bytes = write_file(&docs, dim, chunk_rows);

        // Streaming path.
        let back = ColReader::new(&bytes[..]).unwrap().read_all().unwrap();
        assert_bit_identical(&docs, &back);

        // Indexed (parallel-shaped) path.
        let (header, table) = index_chunks(&bytes).unwrap();
        let mut all = Vec::new();
        for (i, (ch, range)) in table.iter().enumerate() {
            all.extend(decode_chunk(ch, &bytes[range.clone()], header.dim, i as u64).unwrap());
        }
        assert_bit_identical(&docs, &all);

        // Determinism: re-encoding yields the same bytes.
        assert_eq!(bytes, write_file(&docs, dim, chunk_rows), "trial {trial}");
    }
}

#[test]
fn random_single_bit_flips_never_pass_undetected() {
    let mut rng = SplitMix64::seed_from_u64(0xbadf_00d5);
    let docs = random_docs(&mut rng, 30, 10_000);
    let bytes = write_file(&docs, 10_000, DEFAULT_CHUNK_ROWS.min(7));
    for _ in 0..200 {
        let byte = rng.gen_index(bytes.len());
        let bit = 1u8 << rng.gen_index(8);
        let mut bad = bytes.clone();
        bad[byte] ^= bit;
        let outcome = ColReader::new(&bad[..]).and_then(|r| r.read_all());
        match outcome {
            Err(_) => {} // detected: good
            Ok(back) => {
                // The only survivable flip is one the decoder treats as
                // slack — e.g. raising a high bit of `dim`, which only
                // loosens the term-id bound. Acceptance is tolerable iff
                // the decoded data is still exactly the original; a
                // *wrong* matrix slipping through is the failure mode
                // this format exists to prevent.
                assert_bit_identical(&docs, &back);
            }
        }
    }
}
