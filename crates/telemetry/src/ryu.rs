//! Shortest round-trip decimal digits of an `f64`, written as Rust's
//! `{:e}` writes them, without the heap or the `fmt` machinery.
//!
//! This is Ulf Adams' Ryu (PLDI 2018) in its 64-bit form: the binary
//! value and its two rounding-interval midpoints are scaled into decimal
//! by one multiplication each against a 125-bit power of five, then
//! digits are dropped while every candidate stays inside the interval.
//! One deliberate departure from the reference implementation: when the
//! dropped digits are *exactly* one half, reference Ryu rounds to even
//! and std's `{:e}` (Grisu with a Dragon fallback) rounds up.
//! `push_f64`'s contract is std's bytes, so ties round up here — which
//! also removes the reference's whole "are the digits dropped from the
//! value all zero" bookkeeping, needed only to recognise a tie.
//!
//! The power-of-five tables are computed by `const fn`s at compile time
//! with exact integer arithmetic and live in read-only data: nothing is
//! built, locked or checked at run time.

/// Bits in a table entry (`DOUBLE_POW5_BITCOUNT` = `…_INV_BITCOUNT`).
const POW5_BITS: u32 = 125;
/// `pow5_inv_table` is indexed by q ≤ 290 (binary exponent 969).
const POW5_INV_LEN: usize = 291;
/// `pow5_table` is indexed by i ≤ 325 (binary exponent −1076).
const POW5_LEN: usize = 326;

/// Little-endian limbs of the table builders' big integers:
/// 5^325 · 2^125 is 880 bits.
const LIMBS: usize = 14;

/// Bits `shift .. shift + 128` of `x`.
const fn bits128(x: &[u64; LIMBS], shift: u32) -> u128 {
    const fn limb(x: &[u64; LIMBS], i: usize) -> u128 {
        if i < LIMBS {
            x[i] as u128
        } else {
            0
        }
    }
    let (i, bit) = ((shift / 64) as usize, shift % 64);
    let low = limb(x, i) | limb(x, i + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | limb(x, i + 2) << (128 - bit)
    }
}

/// `pow[i] = ⌊5^i · 2^(125 − bits(5^i))⌋`: 5^i's leading 125 bits.
const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    // 5^i · 2^125, so one right shift serves 5^i shorter and longer
    // than 125 bits alike.
    let mut x = [0u64; LIMBS];
    x[1] = 1 << (POW5_BITS - 64);
    let mut i = 0;
    while i < POW5_LEN {
        table[i] = bits128(&x, pow5bits(i as u32));
        let mut carry = 0u128;
        let mut l = 0;
        while l < LIMBS {
            let wide = x[l] as u128 * 5 + carry;
            x[l] = wide as u64;
            carry = wide >> 64;
            l += 1;
        }
        assert!(carry == 0);
        i += 1;
    }
    table
}

/// `inv[i] = ⌊2^(bits(5^i) − 1 + 125) / 5^i⌋ + 1`.
const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    const P: u32 = LIMBS as u32 * 64 - 1;
    let mut table = [0u128; POW5_INV_LEN];
    // ⌊2^P / 5^i⌋, carried from one i to the next by an exact division
    // by five; flooring twice is flooring once (⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋),
    // for the shift below as for the division.
    let mut x = [0u64; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let k = pow5bits(i as u32) - 1 + POW5_BITS;
        assert!(k <= P);
        table[i] = bits128(&x, P - k) + 1;
        let mut rem = 0u128;
        let mut l = LIMBS;
        while l > 0 {
            l -= 1;
            let wide = rem << 64 | x[l] as u128;
            x[l] = (wide / 5) as u64;
            rem = wide % 5;
        }
        i += 1;
    }
    table
}

static POW5: [u128; POW5_LEN] = pow5_table();
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// `⌈log2(5^e)⌉`, or 1 for e = 0 (exact for e ≤ 3528).
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋` (exact for e ≤ 1650).
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` (exact for e ≤ 2620).
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Whether 5^p divides `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while count < p && v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^shift⌋` for `m` below 2^55 and a 125-bit `mul`.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Decimal digits of `v` (one for zero), which is below 10^18.
fn decimal_length(v: u64) -> usize {
    const POW10: [u64; 19] = {
        let mut table = [1u64; 19];
        let mut i = 1;
        while i < table.len() {
            table[i] = table[i - 1] * 10;
            i += 1;
        }
        table
    };
    // 1233 / 4096 ≈ log10(2): the bit length places v within one digit.
    let v = v | 1;
    let approx = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    approx + usize::from(v >= POW10[approx])
}

/// The shortest decimal `digits · 10^exponent` that parses back to the
/// finite, non-zero `f64` with these raw mantissa and exponent fields.
fn shortest_decimal(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    // Step 1: value = m2 · 2^e2, with e2 two lower than the true
    // exponent so the interval midpoints below are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // IEEE round-to-even: an even mantissa owns its interval's ends.
    let accept_bounds = m2 & 1 == 0;

    // Step 2: the decimals that round to this value lie between
    // (mv − 1 − mm_shift) · 2^e2 and (mv + 2) · 2^e2. At a power of
    // two the gap to the value below is half the gap to the one above
    // (mm_shift = 0).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Step 3: scale all three by 10^−e10 into integers vm ≤ vr ≤ vp,
    // remembering whether the digits vm lost in the scaling were all
    // zero (only then can the lower end itself be a candidate).
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = q + POW5_BITS + pow5bits(q) - 1 - e2;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // A 55-bit integer is a multiple of 5^q only for small q (the
        // bound is the reference's), and at most one of the three is a
        // multiple of five.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let neg_e2 = (-e2) as u32;
        let q = log10_pow5(neg_e2) - u32::from(neg_e2 > 1);
        e10 = q as i32 + e2;
        let i = neg_e2 - q;
        let shift = q + POW5_BITS - pow5bits(i);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            // mv − 1 − mm_shift is even iff mm_shift is 1; mv + 2 is
            // always even.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Step 4: drop digits while every candidate stays in the interval.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_is_trailing_zeros {
        // Rare: the lower end itself may be the shortest candidate.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
    } else {
        while vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        if vp / 10 > vm / 10 {
            last_removed = vr % 10;
            (vr, vm) = (vr / 10, vm / 10);
            removed += 1;
        }
    }
    // Round to nearest, an exact half up (std's rule), and never onto a
    // lower end that is outside the interval.
    let below_interval = vr == vm && !(accept_bounds && vm_is_trailing_zeros);
    let digits = vr + u64::from(below_interval || last_removed >= 5);
    (digits, e10 + removed)
}

/// Format finite `v` into `buf` exactly as `format!("{v:e}")` would:
/// `d[.ddd]e[-]x`, shortest digits that round-trip.
pub(crate) fn format_exp(v: f64, buf: &mut [u8; 32]) -> &str {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    let mut at = 0;
    if bits >> 63 != 0 {
        buf[0] = b'-';
        at = 1;
    }
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as u32 & 0x7ff;
    let (mut digits, exponent) = if ieee_mantissa == 0 && ieee_exponent == 0 {
        (0, 0)
    } else {
        shortest_decimal(ieee_mantissa, ieee_exponent)
    };

    // The digits go one byte to the right of their final place, two at
    // a time from the last; then the leading one hops over the point.
    let len = decimal_length(digits);
    let mut i = at + len;
    while digits >= 100 {
        let pair = (digits % 100) as usize * 2;
        digits /= 100;
        buf[i - 1] = DIGIT_PAIRS[pair];
        buf[i] = DIGIT_PAIRS[pair + 1];
        i -= 2;
    }
    if digits >= 10 {
        let pair = digits as usize * 2;
        buf[i] = DIGIT_PAIRS[pair + 1];
        buf[at] = DIGIT_PAIRS[pair];
    } else {
        buf[at] = b'0' + digits as u8;
    }
    if len > 1 {
        buf[at + 1] = b'.';
        at += len + 1;
    } else {
        at += 1;
    }

    buf[at] = b'e';
    at += 1;
    let mut exponent = exponent + len as i32 - 1;
    if exponent < 0 {
        buf[at] = b'-';
        at += 1;
        exponent = -exponent;
    }
    let exponent = exponent as usize;
    if exponent >= 100 {
        buf[at] = b'0' + (exponent / 100) as u8;
        at += 1;
    }
    if exponent >= 10 {
        let pair = exponent % 100 * 2;
        buf[at] = DIGIT_PAIRS[pair];
        buf[at + 1] = DIGIT_PAIRS[pair + 1];
        at += 2;
    } else {
        buf[at] = b'0' + exponent as u8;
        at += 1;
    }
    std::str::from_utf8(&buf[..at]).expect("ASCII digits, sign, point and exponent")
}

#[cfg(test)]
mod tests {
    //! `format!("{v:e}")` is the oracle: every comparison here is byte
    //! equality with std's formatter, which production no longer calls.

    use super::*;
    use crate::json::{parse_json, push_f64};
    use std::cmp::Ordering;

    fn written(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[track_caller]
    fn check(v: f64) {
        assert_eq!(written(v), format!("{v:e}"), "bits {:#018x}", v.to_bits());
        assert_eq!(
            written(-v),
            format!("{:e}", -v),
            "bits -{:#018x}",
            v.to_bits()
        );
    }

    /// Non-negative `v` and its finite neighbours, in both signs.
    #[track_caller]
    fn check_around(v: f64) {
        check(v);
        if v < f64::MAX {
            check(f64::from_bits(v.to_bits() + 1));
        }
        if v > 0.0 {
            check(f64::from_bits(v.to_bits() - 1));
        }
    }

    /// SplitMix64: the crate has no `rand`, and any full-period stream
    /// of bit patterns will do.
    fn random_bits(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `count` random bit patterns (every exponent equally often), and
    /// beside each a value uniform in ±3000, where served numbers live.
    fn check_random_values(seed: u64, count: usize) {
        let mut state = seed;
        let mut buf = [0u8; 32];
        for _ in 0..count {
            let bits = random_bits(&mut state);
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            for v in [f64::from_bits(bits), 6000.0 * unit - 3000.0] {
                if v.is_finite() {
                    let text = format_exp(v, &mut buf);
                    assert_eq!(text, format!("{v:e}"), "bits {:#018x}", v.to_bits());
                }
            }
        }
    }

    #[test]
    fn documented_examples_and_extremes() {
        for (v, text) in [
            (1.0, "1e0"),
            (-2.5e-3, "-2.5e-3"),
            (5e-324, "5e-324"),
            (0.0, "0e0"),
            (-0.0, "-0e0"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (123456.0, "1.23456e5"),
        ] {
            assert_eq!(written(v), text);
            check_around(v.abs());
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(written(v), "0", "JSON has no non-finite numbers");
        }
    }

    #[test]
    fn exact_ties_round_up_like_std() {
        // 2^-25 = 2.98023223876953125e-8: seventeen digits suffice and
        // the eighteenth is exactly 5 after an even digit.
        assert_eq!(written(2f64.powi(-25)), "2.9802322387695313e-8");
        assert_eq!(
            written(f64::from_bits(0x4312_9879_088f_f039)),
            "1.3085487957268623e15"
        );
        check(2f64.powi(-25));
        check(f64::from_bits(0x4312_9879_088f_f039));
        // Short binary fractions have short exact decimal expansions,
        // so dropping their last digits lands on exact halves often.
        for e in -60..=60 {
            for odd in (1..1024).step_by(2) {
                check(f64::from(odd) * 2f64.powi(e));
            }
        }
    }

    #[test]
    fn every_power_of_two_and_of_ten_with_neighbours() {
        // Every binary exponent, subnormals included: each indexes a
        // different table entry, and a power of two's lower neighbour
        // is closer than its upper one.
        for e in -1074..=1023 {
            check_around(2f64.powi(e));
        }
        for k in -323..=308 {
            check_around(format!("1e{k}").parse().unwrap());
        }
    }

    #[test]
    fn integers_and_short_decimals() {
        for k in 0..=100_000u32 {
            let k = f64::from(k);
            check(k);
            check(k / 1000.0);
            check(k * 0.25);
        }
    }

    #[test]
    fn random_values_match_std() {
        check_random_values(2023, 5_000_000);
    }

    #[test]
    #[ignore = "100 M values: CI runs it in release with `-- --ignored`"]
    fn random_values_match_std_100m() {
        check_random_values(0x5eed, 100_000_000);
    }

    #[test]
    fn written_numbers_parse_back_to_the_same_bits() {
        let mut state = 7;
        let specials = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            2f64.powi(-25),
        ];
        let random = std::iter::repeat_with(|| f64::from_bits(random_bits(&mut state)))
            .filter(|v| v.is_finite())
            .take(200_000);
        for v in specials.into_iter().chain(random) {
            let parsed = parse_json(&written(v)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v:e}");
        }
    }

    // Exact arithmetic on little-endian u64 limbs, for the table check.

    fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let wide = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = wide as u64;
                carry = wide >> 64;
            }
            out[i + b.len()] = carry as u64;
        }
        out
    }

    fn pow2(k: u32) -> Vec<u64> {
        let mut out = vec![0u64; k as usize / 64 + 1];
        out[k as usize / 64] = 1 << (k % 64);
        out
    }

    fn limbs(v: u128) -> [u64; 2] {
        [v as u64, (v >> 64) as u64]
    }

    fn compare(a: &[u64], b: &[u64]) -> Ordering {
        let limb = |x: &[u64], i: usize| x.get(i).copied().unwrap_or(0);
        (0..a.len().max(b.len()))
            .rev()
            .map(|i| limb(a, i).cmp(&limb(b, i)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    fn bit_length(a: &[u64]) -> u32 {
        let top = a.iter().rposition(|&l| l != 0).expect("non-zero");
        top as u32 * 64 + 64 - a[top].leading_zeros()
    }

    #[test]
    fn tables_match_their_definitions_exactly() {
        // The anchors reference Ryu's tables start with (low, high).
        assert_eq!(limbs(POW5_INV[0]), [1, 2_305_843_009_213_693_952]);
        assert_eq!(
            limbs(POW5_INV[1]),
            [11_068_046_444_225_730_970, 1_844_674_407_370_955_161]
        );
        assert_eq!(limbs(POW5[0]), [0, 1_152_921_504_606_846_976]);
        assert_eq!(limbs(POW5[1]), [0, 1_441_151_880_758_558_720]);

        // Every entry against its defining inequality, by multiplying
        // back — no division, nothing shared with the const builders.
        let mut five_i = vec![1u64];
        for i in 0..POW5_LEN {
            let bits = bit_length(&five_i);
            assert_eq!(pow5bits(i as u32), bits, "pow5bits({i})");
            // pow = ⌊5^i · 2^125 / 2^bits⌋
            let scaled = mul(&five_i, &pow2(POW5_BITS));
            let pow = POW5[i];
            assert_eq!(128 - pow.leading_zeros(), POW5_BITS, "POW5[{i}] width");
            assert_ne!(
                compare(&mul(&limbs(pow), &pow2(bits)), &scaled),
                Ordering::Greater
            );
            assert_eq!(
                compare(&mul(&limbs(pow + 1), &pow2(bits)), &scaled),
                Ordering::Greater
            );
            if i < POW5_INV_LEN {
                // inv − 1 = ⌊2^(bits − 1 + 125) / 5^i⌋
                let power = pow2(bits - 1 + POW5_BITS);
                let inv = POW5_INV[i];
                assert_ne!(
                    compare(&mul(&limbs(inv - 1), &five_i), &power),
                    Ordering::Greater
                );
                assert_eq!(
                    compare(&mul(&limbs(inv), &five_i), &power),
                    Ordering::Greater
                );
            }
            five_i = mul(&five_i, &[5]);
        }
    }

    #[test]
    fn every_binary_exponent_stays_inside_the_tables() {
        // The table lengths are the exact maxima of the two index
        // expressions; all-ones and all-zero mantissas at every biased
        // exponent walk them end to end (an overrun would panic).
        for exponent in 0..=2046u64 {
            for mantissa in [0, 1, (1 << 52) - 1] {
                let v = f64::from_bits(exponent << 52 | mantissa);
                assert_eq!(written(v), format!("{v:e}"));
            }
        }
    }
}
