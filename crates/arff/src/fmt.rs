//! Number formatting for ARFF rows, byte-identical to `Display`.
//!
//! [`push_f64`] writes what `format!("{x}")` writes — the shortest digit
//! string that parses back to `x`, laid out positionally (never with an
//! exponent) — without going through `core::fmt`. The digits come from
//! Ryu (Adams, "Ryū: fast float-to-string conversion", PLDI 2018): one
//! 128-bit multiply of the mantissa's interval bounds against a power of
//! five. One departure from the reference algorithm is load-bearing:
//! when the value lies exactly halfway between two shortest candidates,
//! std's formatter takes the one farther from zero, not the even one
//! (`1277815941940594.25` prints as `1277815941940594.3`), so this one
//! does too.
//!
//! The two power-of-five tables are derived at compile time by exact
//! multi-limb arithmetic rather than pasted as literals.

use std::io::Write;

/// Bits kept of each power of five (and of each inverse).
const POW5_BITCOUNT: u32 = 125;
const POW5_INV_BITCOUNT: u32 = 125;

/// Top [`POW5_BITCOUNT`] bits of `5^i`, for the negative-exponent path.
static POW5_SPLIT: [u128; 326] = pow5_split();
/// `⌊2^j / 5^i⌋ + 1` with `j = pow5bits(i) - 1 + POW5_INV_BITCOUNT`, for
/// the non-negative-exponent path.
static POW5_INV_SPLIT: [u128; 342] = pow5_inv_split();

/// `value >> shift` of a little-endian limb array, truncated to 128 bits.
const fn bits_from(limbs: &[u64], shift: usize) -> u128 {
    let (w, b) = (shift / 64, (shift % 64) as u32);
    let (l0, l1, l2) = (limb(limbs, w), limb(limbs, w + 1), limb(limbs, w + 2));
    let (lo, hi) = if b == 0 {
        (l0, l1)
    } else {
        ((l0 >> b) | (l1 << (64 - b)), (l1 >> b) | (l2 << (64 - b)))
    };
    ((hi as u128) << 64) | lo as u128
}

/// Limb `i` of a little-endian limb array, zero past its end.
const fn limb(limbs: &[u64], i: usize) -> u64 {
    if i < limbs.len() {
        limbs[i]
    } else {
        0
    }
}

/// Bit length of a little-endian limb array.
const fn bit_length(limbs: &[u64]) -> usize {
    let mut i = limbs.len();
    while i > 0 {
        i -= 1;
        if limbs[i] != 0 {
            return i * 64 + 64 - limbs[i].leading_zeros() as usize;
        }
    }
    0
}

const fn pow5_split() -> [u128; 326] {
    let mut table = [0u128; 326];
    // 5^i, exactly: 5^325 has 755 bits.
    let mut pow = [0u64; 12];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_length(&pow);
        let keep = POW5_BITCOUNT as usize;
        table[i] = if len > keep {
            bits_from(&pow, len - keep)
        } else {
            bits_from(&pow, 0) << (keep - len)
        };
        let mut carry = 0u64;
        let mut l = 0;
        while l < pow.len() {
            let p = pow[l] as u128 * 5 + carry as u128;
            pow[l] = p as u64;
            carry = (p >> 64) as u64;
            l += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; 342] {
    let mut table = [0u128; 342];
    // ⌊2^1024 / 5^i⌋, exactly; ⌊2^j / 5^i⌋ is its top bits.
    let mut quot = [0u64; 17];
    quot[16] = 1;
    let mut i = 0;
    while i < table.len() {
        let j = (pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT) as usize;
        table[i] = bits_from(&quot, 1024 - j) + 1;
        let mut rem = 0u128;
        let mut l = quot.len();
        while l > 0 {
            l -= 1;
            let cur = (rem << 64) | quot[l] as u128;
            quot[l] = (cur / 5) as u64;
            rem = cur % 5;
        }
        i += 1;
    }
    table
}

/// `⌈log2(5^e)⌉` for `0 < e ≤ 3528`, and 1 for `e = 0`: the bit length of
/// `5^e`.
const fn pow5bits(e: i32) -> u32 {
    ((e as u32 * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// inside the round-trip interval of the positive finite double with the
/// given raw fields; of several shortest, the closest, ties away from
/// zero.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (-1076, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - 1077, (1u64 << 52) | ieee_mantissa)
    };
    // Round-to-even parsing includes both interval bounds when the
    // mantissa is even.
    let accept_bounds = m2 & 1 == 0;

    // The interval is [mv - 1 - mm_shift, mv + 2] / 4 · 2^e2; its lower
    // half is narrower at a power of two.
    let mv = 4 * m2;
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;

    // Whether the lower bound is itself a shorter decimal, which the
    // digit removal below may then reach (only when `accept_bounds`).
    // Ryu also tracks whether the value itself is one, to round an exact
    // tie to even; rounding ties away from zero needs no such flag.
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k as i32) as u32;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_power_of_5(mv + 2, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) as i32 - POW5_BITCOUNT as i32;
        let j = (q as i32 - k) as u32;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift is even iff mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 is even: exact, and excluded.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate
    // (and, past that, while an included exact lower bound has zeros to
    // shed), then round the value's own digits: up when the last dropped
    // digit is 5 or more — which takes an exact tie away from zero, as
    // std does — or when truncation landed on an excluded lower bound.
    let mut removed = 0;
    let mut last_removed_digit = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        while vm % 10 == 0 {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    let output = vr + ((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5) as u64;
    (output, e10 + removed)
}

const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Render `v`'s decimal digits at the end of `buf`; returns where they
/// start.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Append `v` in decimal, as `Display` writes it.
pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    let mut buf = [0u8; 20];
    let start = digits(v as u64, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Append `x` exactly as `format!("{x}")` renders it: the shortest
/// round-trip digits in positional notation, `-0` for negative zero, and
/// `Display`'s own text for NaN and the infinities.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        write!(out, "{x}").expect("writing to a Vec never fails");
        return;
    }
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let ieee_mantissa = bits & ((1u64 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 20];
    let start = digits(mantissa, &mut buf);
    let digits = &buf[start..];
    // Digits before the decimal point (none if not positive).
    let point = digits.len() as i32 + exponent;
    if exponent >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exponent as usize, b'0');
    } else if point > 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_rng::SplitMix64;

    /// Values per random sweep: cheap in the debug profile, wide in the
    /// release profile.
    const SWEEP: usize = if cfg!(debug_assertions) {
        1 << 20
    } else {
        1 << 24
    };

    fn rendered(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).expect("ASCII output")
    }

    /// Compares `push_f64` with `Display`, reusing both buffers so a
    /// sweep of millions of values spends its time formatting.
    #[derive(Default)]
    struct Checker {
        ours: Vec<u8>,
        std: String,
    }

    impl Checker {
        #[track_caller]
        fn check(&mut self, x: f64) {
            self.ours.clear();
            push_f64(&mut self.ours, x);
            self.std.clear();
            std::fmt::Write::write_fmt(&mut self.std, format_args!("{x}")).unwrap();
            assert!(
                self.ours == self.std.as_bytes(),
                "{:#018x}: push_f64 wrote {:?}, Display writes {:?}",
                x.to_bits(),
                String::from_utf8_lossy(&self.ours),
                self.std
            );
        }
    }

    #[track_caller]
    fn assert_display(x: f64) {
        Checker::default().check(x);
    }

    #[test]
    fn random_bit_patterns_match_display() {
        let (mut rng, mut checker) = (SplitMix64::seed_from_u64(0xf64_0001), Checker::default());
        for _ in 0..SWEEP {
            checker.check(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn random_unit_interval_weights_match_display() {
        let (mut rng, mut checker) = (SplitMix64::seed_from_u64(0xf64_0002), Checker::default());
        for _ in 0..SWEEP {
            // 53 random bits: a uniform weight in [0, 1).
            checker.check((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        }
    }

    #[test]
    fn powers_of_two_and_ten_and_their_neighbours_match_display() {
        let around = |x: f64| {
            let b = x.to_bits();
            for bits in [b - 1, b, b + 1] {
                assert_display(f64::from_bits(bits));
                assert_display(-f64::from_bits(bits));
            }
        };
        for e in -1022..=1023 {
            around(2f64.powi(e));
        }
        for e in -307..=308 {
            around(format!("1e{e}").parse().unwrap());
        }
    }

    #[test]
    fn extremes_and_subnormals_match_display() {
        for x in [
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits((1 << 52) - 1),
            f64::from_bits(1 << 51),
        ] {
            assert_display(x);
            assert_display(-x);
        }
        let mut rng = SplitMix64::seed_from_u64(0xf64_0003);
        for _ in 0..10_000 {
            assert_display(f64::from_bits(rng.next_u64() & ((1 << 52) - 1)));
        }
    }

    #[test]
    fn small_integers_and_thousandths_match_display() {
        for i in 0..=100_000u32 {
            assert_display(i as f64);
            assert_display(i as f64 / 1000.0);
        }
    }

    #[test]
    fn exact_ties_round_away_from_zero() {
        // Exactly representable values halfway between two shortest
        // candidates: round-half-even would print the even neighbour
        // (…594.2, …842.062).
        for (exact, text, frac) in [
            ("1277815941940594.25", "1277815941940594.3", 0.25),
            ("26918667909842.0625", "26918667909842.063", 0.0625),
        ] {
            let x: f64 = exact.parse().unwrap();
            assert_eq!(x.fract(), frac, "{exact} is representable");
            assert_eq!(rendered(x), text);
            assert_eq!(rendered(-x), format!("-{text}"));
            assert_display(x);
        }
    }

    #[test]
    fn zeros_and_non_finite_values_match_display() {
        for x in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_display(x);
        }
        assert_eq!(rendered(-0.0), "-0");
        assert_eq!(rendered(1e21), "1000000000000000000000");
        assert_eq!(rendered(1.5e-7), "0.00000015");
    }

    #[test]
    fn integers_render_as_display() {
        for v in [0, 7, 10, 99, 100, 12_345, 999_999_999, u32::MAX] {
            let mut out = Vec::new();
            push_u32(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }
}
