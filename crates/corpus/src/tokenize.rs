//! Tokenization.
//!
//! The TF/IDF operator "extracts words from text documents": this module
//! is that extraction step. Tokens are maximal runs of ASCII alphanumeric
//! characters, lowercased; every other byte (including each byte of a
//! multi-byte UTF-8 character) separates tokens. The tokenizer is
//! allocation-conscious — a lowercase token is yielded as a borrowed
//! slice of the input; only tokens containing uppercase letters are
//! copied into a reusable workhorse buffer (per the "reusing collections"
//! guidance the word-count inner loop lives by).
//!
//! The scan works a word at a time: it loads eight bytes as one
//! little-endian `u64` (the text's tail zero-padded, and a zero byte is a
//! separator) and classifies all eight with a handful of SWAR operations
//! — one mask of alphanumeric bytes, one of uppercase bytes, a byte's
//! high bit standing for the byte. Token boundaries are found without a
//! branch on the bytes, so the hard-to-predict branch is taken once per
//! token, not once per byte, and uppercase is lowered eight bytes at a
//! time by setting bit 5 of every uppercase byte. Each token comes with
//! its first eight bytes, zero-padded, as one `u64` (its *prefix*): the
//! interner matches a word on it without reading the word's bytes again.

/// One byte's low bit in every lane.
const LANES: u64 = 0x0101_0101_0101_0101;
/// One byte's high bit in every lane: the lane flag of a mask.
const FLAGS: u64 = LANES * 0x80;

/// Lane flags of the bytes of `x` (each below 0x80) lying in `lo..=hi`:
/// per lane, `x + 0x80 - lo` reaches the flag bit from `lo` on and
/// `x + 0x7f - hi` from `hi + 1` on; neither sum carries into the next
/// lane.
#[inline]
fn in_range(x: u64, lo: u8, hi: u8) -> u64 {
    (x + LANES * (0x80 - lo as u64)) & !(x + LANES * (0x7f - hi as u64))
}

/// Lane flags of the alphanumeric and of the uppercase bytes of `w`.
#[inline]
fn classify(w: u64) -> (u64, u64) {
    let ascii = !w & FLAGS;
    let x = w & !FLAGS;
    // Setting bit 5 maps `A..=Z` onto `a..=z` and nothing else onto them.
    let letter = in_range(x | (LANES * 0x20), b'a', b'z');
    let digit = in_range(x, b'0', b'9');
    ((letter | digit) & ascii, in_range(x, b'A', b'Z') & ascii)
}

/// Bytes of text scanned before their tokens are handed out.
const BLOCK: usize = 512;

/// The low `n` bytes of a word, `n` from 1 to 8.
#[inline]
fn low_bytes(n: usize) -> u64 {
    u64::MAX >> (64 - 8 * n)
}

/// Eight bytes of `bytes` from `at` as a little-endian word, zero past
/// the end.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("an 8-byte slice")),
        None => {
            let tail = bytes.get(at..).unwrap_or_default();
            let mut b = [0u8; 8];
            b[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(b)
        }
    }
}

/// Reusable tokenizer state: the lowercase scratch buffer and a block's
/// token edges.
#[derive(Debug)]
pub struct Tokenizer {
    buf: Vec<u8>,
    edges: Vec<usize>,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            buf: Vec::new(),
            edges: vec![0; BLOCK + 1],
        }
    }
}

impl Tokenizer {
    /// New tokenizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invoke `f` once per token of `text`, in order.
    pub fn for_each<F: FnMut(&str)>(&mut self, text: &str, mut f: F) {
        self.for_each_prefixed(text, |w, _| f(w));
    }

    /// Invoke `f(token, prefix)` once per token of `text`, in order;
    /// `prefix` is the token's first eight bytes, zero-padded, as a
    /// little-endian `u64`.
    pub fn for_each_prefixed<F: FnMut(&str, u64)>(&mut self, text: &str, mut f: F) {
        let bytes = text.as_bytes();
        // An *edge* is a byte whose class differs from its predecessor's;
        // edges alternate token start, token end. A block of the text is
        // scanned without a branch on its bytes — every lane's offset is
        // stored and only an edge's advances the count — and its tokens
        // are then handed out, one branch per token; a token still open
        // at the end of a block keeps its start edge for the next.
        let Tokenizer { buf, edges } = self;
        let mut open = 0;
        // Lane 0 flagged when the previous word's last byte is a token's.
        let mut carry = 0;
        for block in (0..bytes.len()).step_by(BLOCK) {
            let mut n = open;
            for base in (block..bytes.len().min(block + BLOCK)).step_by(8) {
                let (alnum, _) = classify(load(bytes, base));
                let flags = (alnum ^ (alnum << 8 | carry)) & FLAGS;
                carry = alnum >> 56;
                for lane in 0..8 {
                    edges[n] = base + lane;
                    n += (flags >> (8 * lane + 7)) as usize & 1;
                }
            }
            for pair in edges[..n].chunks_exact(2) {
                emit(buf, text, pair[0], pair[1], &mut f);
            }
            open = n % 2;
            edges[0] = edges[n - open];
        }
        if carry != 0 {
            emit(buf, text, edges[0], bytes.len(), &mut f);
        }
    }

    /// Count tokens without inspecting them.
    pub fn count(&mut self, text: &str) -> usize {
        let mut n = 0;
        self.for_each(text, |_| n += 1);
        n
    }
}

/// Hand `f` the token `text[start..end]`, lowered (into `buf` if it has
/// uppercase), and its prefix.
#[inline]
fn emit<F: FnMut(&str, u64)>(buf: &mut Vec<u8>, text: &str, start: usize, end: usize, f: &mut F) {
    let bytes = text.as_bytes();
    let w = load(bytes, start);
    let (_, upper) = classify(w);
    let keep = low_bytes((end - start).min(8));
    let prefix = (w | upper >> 2) & keep;
    let mut upper = upper & keep;
    // Past eight bytes only the uppercase flags are still wanted.
    let mut at = start + 8;
    while at < end {
        let (_, up) = classify(load(bytes, at));
        upper |= up & low_bytes((end - at).min(8));
        at += 8;
    }
    if upper == 0 {
        f(&text[start..end], prefix);
    } else {
        f(lowered(buf, bytes, start, end), prefix);
    }
}

/// `bytes[start..end]` (ASCII alphanumerics) lowercased into `buf`,
/// eight bytes at a time.
fn lowered<'b>(buf: &'b mut Vec<u8>, bytes: &[u8], start: usize, end: usize) -> &'b str {
    buf.clear();
    let mut at = start;
    while at < end {
        let w = load(bytes, at);
        let (_, upper) = classify(w);
        let n = (end - at).min(8);
        buf.extend_from_slice(&(w | upper >> 2).to_le_bytes()[..n]);
        at += n;
    }
    std::str::from_utf8(buf).expect("lowered ASCII is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<String> {
        let mut t = Tokenizer::new();
        let mut out = Vec::new();
        t.for_each(text, |w| out.push(w.to_string()));
        out
    }

    #[test]
    fn splits_on_non_alphanumerics() {
        assert_eq!(
            toks("the cat, sat.on--the mat!"),
            ["the", "cat", "sat", "on", "the", "mat"]
        );
    }

    #[test]
    fn lowercases_mixed_case() {
        assert_eq!(toks("Hello WORLD MiXeD"), ["hello", "world", "mixed"]);
    }

    #[test]
    fn digits_are_word_characters() {
        assert_eq!(
            toks("grant EP/L027402/1 from 2016"),
            ["grant", "ep", "l027402", "1", "from", "2016"]
        );
    }

    #[test]
    fn empty_and_separator_only_inputs() {
        assert!(toks("").is_empty());
        assert!(toks("  .,;!\n\t ").is_empty());
    }

    #[test]
    fn token_at_end_of_text_is_emitted() {
        assert_eq!(toks("trailing word"), ["trailing", "word"]);
        assert_eq!(toks("x"), ["x"]);
    }

    #[test]
    fn non_ascii_is_a_separator() {
        // The synthetic corpora are pure ASCII; non-ASCII input must not
        // panic or merge tokens.
        assert_eq!(toks("naïve café"), ["na", "ve", "caf"]);
    }

    #[test]
    fn count_matches_for_each() {
        let mut t = Tokenizer::new();
        let text = "One two, three. FOUR five-six";
        assert_eq!(t.count(text), toks(text).len());
    }

    #[test]
    fn tokenizer_is_reusable_across_calls() {
        let mut t = Tokenizer::new();
        let mut first = Vec::new();
        t.for_each("Alpha beta", |w| first.push(w.to_string()));
        let mut second = Vec::new();
        t.for_each("Gamma delta", |w| second.push(w.to_string()));
        assert_eq!(first, ["alpha", "beta"]);
        assert_eq!(second, ["gamma", "delta"]);
    }
}
