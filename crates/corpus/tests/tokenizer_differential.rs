//! Differential test of the word-at-a-time scanner: `Tokenizer` must
//! yield exactly the tokens of the previous byte-at-a-time loop, each
//! with its zero-padded first eight bytes as `prefix`. The previous
//! loop is kept below, verbatim, as the oracle.

use hpa_corpus::Tokenizer;
use hpa_rng::SplitMix64;

mod oracle {
    /// Reusable tokenizer state (the lowercase scratch buffer).
    #[derive(Debug, Default)]
    pub struct Tokenizer {
        buf: String,
    }

    impl Tokenizer {
        /// New tokenizer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Invoke `f` once per token of `text`, in order.
        pub fn for_each<F: FnMut(&str)>(&mut self, text: &str, mut f: F) {
            let bytes = text.as_bytes();
            let mut start = None;
            let mut has_upper = false;
            for (i, &b) in bytes.iter().enumerate() {
                if b.is_ascii_alphanumeric() {
                    if start.is_none() {
                        start = Some(i);
                        has_upper = false;
                    }
                    has_upper |= b.is_ascii_uppercase();
                } else if let Some(s) = start.take() {
                    self.emit(&text[s..i], has_upper, &mut f);
                }
            }
            if let Some(s) = start {
                self.emit(&text[s..], has_upper, &mut f);
            }
        }

        fn emit<F: FnMut(&str)>(&mut self, raw: &str, has_upper: bool, f: &mut F) {
            if has_upper {
                self.buf.clear();
                for b in raw.bytes() {
                    self.buf.push(b.to_ascii_lowercase() as char);
                }
                f(&self.buf);
            } else {
                f(raw);
            }
        }
    }
}

fn zero_padded_prefix(token: &str) -> u64 {
    let mut p = [0u8; 8];
    let n = token.len().min(8);
    p[..n].copy_from_slice(&token.as_bytes()[..n]);
    u64::from_le_bytes(p)
}

/// `(token, prefix)` as the scanner yields them.
fn scanned(tok: &mut Tokenizer, text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    tok.for_each_prefixed(text, |w, prefix| out.push((w.to_string(), prefix)));
    out
}

fn check(tok: &mut Tokenizer, reference: &mut oracle::Tokenizer, text: &str) {
    let mut expect = Vec::new();
    reference.for_each(text, |w| expect.push(w.to_string()));
    let got = scanned(tok, text);
    let tokens: Vec<&str> = got.iter().map(|(w, _)| w.as_str()).collect();
    assert_eq!(tokens, expect, "tokens of {text:?}");
    for (w, prefix) in &got {
        assert_eq!(
            *prefix,
            zero_padded_prefix(w),
            "prefix of {w:?} in {text:?}"
        );
    }
    let mut plain = Vec::new();
    tok.for_each(text, |w| plain.push(w.to_string()));
    assert_eq!(plain, expect, "for_each of {text:?}");
}

/// A character drawn from uppercase, lowercase, digits, ASCII
/// punctuation and whitespace, control bytes and multi-byte UTF-8.
fn push_char(rng: &mut SplitMix64, out: &mut String) {
    const PUNCT: &[u8] = b" \t\n.,;:!?-_/()[]{}'\"@`~^\\|<>=+*&%$#";
    const WIDE: [char; 8] = ['é', 'ß', 'Ω', 'ж', '中', '€', '𝄞', '\u{80}'];
    match rng.gen_index(12) {
        0..=3 => out.push((b'a' + rng.gen_index(26) as u8) as char),
        4 | 5 => out.push((b'A' + rng.gen_index(26) as u8) as char),
        6 => out.push((b'0' + rng.gen_index(10) as u8) as char),
        7..=9 => out.push(PUNCT[rng.gen_index(PUNCT.len())] as char),
        10 => out.push(WIDE[rng.gen_index(WIDE.len())]),
        _ => out.push(rng.gen_index(0x20) as u8 as char),
    }
}

/// A word of exactly `len` alphanumerics, mixed case.
fn word(rng: &mut SplitMix64, len: usize) -> String {
    (0..len)
        .map(|_| match rng.gen_index(3) {
            0 => (b'A' + rng.gen_index(26) as u8) as char,
            1 => (b'0' + rng.gen_index(10) as u8) as char,
            _ => (b'a' + rng.gen_index(26) as u8) as char,
        })
        .collect()
}

#[test]
fn random_text_matches_the_byte_loop() {
    let mut tok = Tokenizer::new();
    let mut reference = oracle::Tokenizer::new();
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut text = String::new();
        for _ in 0..rng.gen_index(80) {
            push_char(&mut rng, &mut text);
        }
        check(&mut tok, &mut reference, &text);
    }
}

#[test]
fn token_lengths_around_word_boundaries() {
    // Tokens of every length that sits at or beside a multiple of eight,
    // at every offset of an 8-byte word, between every kind of
    // separator, and at the very end of the text.
    let mut tok = Tokenizer::new();
    let mut reference = oracle::Tokenizer::new();
    let mut rng = SplitMix64::seed_from_u64(35);
    for len in [1, 7, 8, 9, 15, 16, 17, 24, 25] {
        for offset in 0..9 {
            for sep in [" ", ".", "é", "\0", "中", "--"] {
                let w = word(&mut rng, len);
                let lead = "-".repeat(offset);
                let other_len = rng.gen_index(12) + 1;
                let other = word(&mut rng, other_len);
                for text in [
                    format!("{lead}{w}"),
                    format!("{lead}{w}{sep}"),
                    format!("{lead}{w}{sep}{other}"),
                    format!("{other}{sep}{lead}{w}{sep}{w}"),
                    w.to_lowercase(),
                    w.to_uppercase(),
                ] {
                    check(&mut tok, &mut reference, &text);
                }
            }
        }
    }
}

#[test]
fn edge_texts() {
    let mut tok = Tokenizer::new();
    let mut reference = oracle::Tokenizer::new();
    for text in [
        "",
        " ",
        "a",
        "Z",
        "9",
        "\u{7f}",
        "é",
        "abcdefgh",
        "ABCDEFGH",
        "abcdefghi",
        "AbCdEfGhIjKlMnOpQ",
        "@[`{/:", // the bytes just outside each alphanumeric range
        "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "a\u{80}b\u{ff}c\u{100}d",
        "mid-token end: Unfinished",
        "x\0y\0\0z",
    ] {
        check(&mut tok, &mut reference, text);
    }
    // Every single byte below 0x80 is a token exactly when the old loop
    // said it was alphanumeric.
    for b in 0u8..0x80 {
        let text = (b as char).to_string();
        check(&mut tok, &mut reference, &text);
        check(&mut tok, &mut reference, &format!("ab{text}cdefghijk"));
    }
}
