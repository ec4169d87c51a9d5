//! Writer → reader round trip on random matrices (SplitMix64, fixed
//! seeds — deterministic, no external crates): the identity on sparse
//! rows, a sparsification on dense rows, for any dimension and for
//! attribute names that force quoting.

use hpa_arff::{ArffHeader, ArffReader, ArffWriter};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;
use std::io::Cursor;

/// Attribute names: plain tokens, and names holding whitespace, ARFF's
/// comment / separator / brace / quote characters, backslashes or
/// nothing at all.
fn random_name(rng: &mut SplitMix64) -> String {
    const ODD: [&str; 10] = [
        "per%cent",
        "qu'ote",
        "com,ma",
        "{brace}",
        "tab\there",
        "back\\slash 'both'",
        " padded ",
        "dq\"uote",
        "",
        "naïve",
    ];
    match rng.gen_index(3) {
        0 => ODD[rng.gen_index(ODD.len())].to_string(),
        1 => format!("w {}", random_word(rng)),
        _ => random_word(rng),
    }
}

fn random_word(rng: &mut SplitMix64) -> String {
    (0..1 + rng.gen_index(8))
        .map(|_| (b'a' + rng.gen_index(26) as u8) as char)
        .collect()
}

/// A random matrix: `dim` in 1..20 named attributes, up to 11 rows of
/// up to `dim` unsorted, possibly repeated entries in ±1000.
fn random_matrix(rng: &mut SplitMix64) -> (Vec<String>, Vec<SparseVec>) {
    let dim = 1 + rng.gen_index(19);
    let names = (0..dim).map(|_| random_name(rng)).collect();
    let rows = (0..rng.gen_index(12))
        .map(|_| {
            let pairs = (0..rng.gen_index(dim))
                .map(|_| {
                    (
                        rng.gen_index(dim) as u32,
                        rng.gen_range_f64(-1000.0, 1000.0),
                    )
                })
                .collect();
            SparseVec::from_pairs(pairs)
        })
        .collect();
    (names, rows)
}

fn bits(v: &SparseVec) -> Vec<u64> {
    v.weights().iter().map(|w| w.to_bits()).collect()
}

#[test]
fn random_sparse_matrices_round_trip_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_0001);
    for trial in 0..200 {
        let (names, rows) = random_matrix(&mut rng);
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&ArffHeader::numeric("prop", names.clone()))
            .unwrap();
        for r in &rows {
            w.write_sparse_row(r).unwrap();
        }
        let bytes = w.finish().unwrap();

        let mut reader = ArffReader::new(Cursor::new(bytes)).unwrap();
        let got: Vec<&str> = reader
            .header()
            .attributes
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(got, names, "trial {trial}: attribute names");
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), rows.len(), "trial {trial}: row count");
        for (orig, got) in rows.iter().zip(&back) {
            assert_eq!(orig.terms(), got.terms(), "trial {trial}");
            // `f64`'s Display is the shortest round-trip spelling, so
            // every weight survives bit for bit.
            assert_eq!(bits(orig), bits(got), "trial {trial}");
        }
    }
}

#[test]
fn random_dense_rows_read_back_sparsified() {
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_0002);
    for trial in 0..200 {
        let (names, rows) = random_matrix(&mut rng);
        let dim = names.len();
        let mut w = ArffWriter::new(Vec::new());
        w.write_header(&ArffHeader::numeric("prop", names)).unwrap();
        for r in &rows {
            let mut dense = vec![0.0; dim];
            for (t, v) in r.iter() {
                dense[t as usize] = v;
            }
            w.write_dense_row(&dense).unwrap();
        }
        let bytes = w.finish().unwrap();

        let back = ArffReader::new(Cursor::new(bytes))
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(back.len(), rows.len(), "trial {trial}: row count");
        for (orig, got) in rows.iter().zip(&back) {
            // A dense row cannot carry an explicit zero; the reader drops it.
            let nonzero: Vec<(u32, f64)> = orig.iter().filter(|&(_, v)| v != 0.0).collect();
            assert_eq!(nonzero, got.iter().collect::<Vec<_>>(), "trial {trial}");
        }
    }
}
