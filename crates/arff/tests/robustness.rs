//! Robustness: the ARFF parser never panics. Random bytes, ARFF-looking
//! junk and every truncation of a valid file either parse or return a
//! structured error with a line number (SplitMix64, fixed seeds —
//! deterministic, no external crates).

use hpa_arff::ArffReader;
use hpa_rng::SplitMix64;
use std::io::Cursor;

/// Parse the header, then every row. Both must return (`Ok` or `Err`),
/// never panic, and the row loop must terminate.
fn try_parse(input: &[u8]) {
    if let Ok(mut reader) = ArffReader::new(Cursor::new(input)) {
        let mut rows = 0;
        while let Ok(Some(_)) = reader.next_row() {
            rows += 1;
            assert!(rows <= input.len(), "parser failed to terminate");
        }
    }
}

/// Printable ASCII text of up to `max` bytes drawn from `alphabet`.
fn random_text(rng: &mut SplitMix64, alphabet: &[u8], max: usize) -> String {
    (0..rng.gen_index(max + 1))
        .map(|_| alphabet[rng.gen_index(alphabet.len())] as char)
        .collect()
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_0101);
    for _ in 0..500 {
        let input: Vec<u8> = (0..rng.gen_index(2048))
            .map(|_| rng.next_u64() as u8)
            .collect();
        try_parse(&input);
    }
}

#[test]
fn arff_looking_text_never_panics() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let row_chars = b"{}0123456789. ,?-e'%";
    let mut rng = SplitMix64::seed_from_u64(0xa2ff_0102);
    for _ in 0..500 {
        let mut text = format!("@RELATION {}\n", random_text(&mut rng, &printable, 30));
        for _ in 0..rng.gen_index(10) {
            text.push_str(&format!(
                "@ATTRIBUTE {}\n",
                random_text(&mut rng, &printable, 40)
            ));
        }
        text.push_str("@DATA\n");
        for _ in 0..rng.gen_index(10) {
            text.push_str(&random_text(&mut rng, row_chars, 60));
            text.push('\n');
        }
        try_parse(text.as_bytes());
    }
}

#[test]
fn every_truncation_of_a_valid_file_never_panics() {
    let valid = "@RELATION r\n@ATTRIBUTE alpha NUMERIC\n@ATTRIBUTE 'b c' NUMERIC\n\
                 @DATA\n{0 1.5,1 2}\n0.5,3\n"
        .as_bytes();
    for cut in 0..=valid.len() {
        try_parse(&valid[..cut]);
    }
}

#[test]
fn error_line_numbers_point_at_the_offender() {
    let text = "@RELATION r\n@ATTRIBUTE a NUMERIC\n@DATA\n{0 1}\nnot_a_number\n";
    let mut r = ArffReader::new(Cursor::new(text.as_bytes().to_vec())).unwrap();
    assert!(r.next_row().unwrap().is_some());
    let err = r.next_row().unwrap_err().to_string();
    assert!(err.contains("line 5"), "{err}");
}
