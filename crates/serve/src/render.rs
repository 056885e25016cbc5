//! Decimal rendering for response bodies, frames and heads.
//!
//! Every integer the server writes — range values, timestamps, line
//! counts, statuses, `Content-Length` — goes through here. Digits are
//! produced right to left, two per step, from a 200-byte table of the
//! pairs `"00"..="99"`; values that fit a `u32` take the narrower (cheaper)
//! divisions. Output is byte-identical to `format!("{v}")`.

/// The two-digit decimal forms of 0..=99, back to back.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Scratch size: room for the longest number (20 digits, or a sign and 19).
const BUF: usize = 24;

/// Writes the two digits of `n` (< 100) at `buf[pos..pos + 2]`.
#[inline]
fn put_pair(buf: &mut [u8; BUF], pos: usize, n: usize) {
    buf[pos..pos + 2].copy_from_slice(&PAIRS[n * 2..n * 2 + 2]);
}

/// Writes the decimal digits of `v` starting at `buf[at]`, returning the
/// index just past the last digit.
#[inline]
fn put_u64(buf: &mut [u8; BUF], at: usize, mut v: u64) -> usize {
    let end = at + v.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut pos = end;
    while v > u64::from(u32::MAX) {
        let rem = (v % 10_000) as usize;
        v /= 10_000;
        pos -= 4;
        put_pair(buf, pos, rem / 100);
        put_pair(buf, pos + 2, rem % 100);
    }
    // The rest fits a u32: narrower divisions.
    let mut n = v as u32;
    while n >= 10_000 {
        let rem = (n % 10_000) as usize;
        n /= 10_000;
        pos -= 4;
        put_pair(buf, pos, rem / 100);
        put_pair(buf, pos + 2, rem % 100);
    }
    let mut n = n as usize;
    if n >= 100 {
        pos -= 2;
        put_pair(buf, pos, n % 100);
        n /= 100;
    }
    if n >= 10 {
        put_pair(buf, pos - 2, n);
    } else {
        buf[pos - 1] = b'0' + n as u8;
    }
    end
}

/// Appends `buf[..len]` to `out`. Copying the whole fixed-size buffer and
/// truncating is one fixed-length copy instead of a variable-length one.
#[inline]
fn push_prefix(out: &mut Vec<u8>, buf: &[u8; BUF], len: usize) {
    out.extend_from_slice(buf);
    out.truncate(out.len() - BUF + len);
}

/// Appends the decimal form of `v`.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; BUF];
    let end = put_u64(&mut buf, 0, v);
    push_prefix(out, &buf, end);
}

/// Appends the decimal form of `v`, with a leading `-` when negative.
#[inline]
pub(crate) fn push_i64(out: &mut Vec<u8>, v: i64) {
    let mut buf = [0u8; BUF];
    buf[0] = b'-';
    let end = put_u64(&mut buf, usize::from(v < 0), v.unsigned_abs());
    push_prefix(out, &buf, end);
}

/// Appends one value line: `v\n`.
#[inline]
pub(crate) fn push_value_line(out: &mut Vec<u8>, v: i64) {
    push_i64(out, v);
    out.push(b'\n');
}

/// Appends one time-range line: `t,v\n`.
#[inline]
pub(crate) fn push_pair_line(out: &mut Vec<u8>, t: u64, v: i64) {
    push_u64(out, t);
    out.push(b',');
    push_value_line(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u64_str(v: u64) -> String {
        let mut out = Vec::new();
        push_u64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    fn i64_str(v: i64) -> String {
        let mut out = Vec::new();
        push_i64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    fn check_i64(v: i64) {
        assert_eq!(i64_str(v), format!("{v}"));
        let mut line = b"prefix".to_vec();
        push_value_line(&mut line, v);
        assert_eq!(line, format!("prefix{v}\n").into_bytes());
    }

    fn check_u64(v: u64) {
        assert_eq!(u64_str(v), format!("{v}"));
    }

    #[test]
    fn table_holds_every_pair() {
        for n in 0..100 {
            assert_eq!(&PAIRS[n * 2..n * 2 + 2], format!("{n:02}").as_bytes());
        }
    }

    #[test]
    fn edge_values_match_format() {
        for v in [0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1] {
            check_i64(v);
        }
        for v in [
            0,
            1,
            u64::MAX,
            u64::MAX - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
        ] {
            check_u64(v);
        }
        // Every power of ten and its predecessor, both signs, both widths.
        let mut p = 1u64;
        loop {
            for v in [p - 1, p, p + 1] {
                check_u64(v);
                if let Ok(s) = i64::try_from(v) {
                    check_i64(s);
                    check_i64(-s);
                }
            }
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
    }

    #[test]
    fn pair_lines_match_format() {
        for (t, v) in [
            (0, 0),
            (u64::MAX, i64::MIN),
            (u64::MAX, i64::MAX),
            (10_000_000_000, -9_999_999_999),
            (1_000, -1),
        ] {
            let mut out = Vec::new();
            push_pair_line(&mut out, t, v);
            assert_eq!(out, format!("{t},{v}\n").into_bytes());
        }
    }

    #[test]
    fn appends_after_existing_bytes() {
        let mut out = b"#".to_vec();
        push_u64(&mut out, 12);
        out.push(b' ');
        push_i64(&mut out, -340);
        assert_eq!(out, b"#12 -340");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        // The shift spreads draws over every digit count (a uniform u64 is
        // almost always 19–20 digits long).
        #[test]
        fn random_values_match_format(bits in any::<u64>(), shift in 0u32..64, t in any::<u64>()) {
            let u = bits >> shift;
            prop_assert_eq!(u64_str(u), format!("{u}"));
            let v = u as i64;
            prop_assert_eq!(i64_str(v), format!("{v}"));
            prop_assert_eq!(i64_str(-(v >> 1)), format!("{}", -(v >> 1)));
            let mut line = Vec::new();
            push_value_line(&mut line, v);
            prop_assert_eq!(line, format!("{v}\n").into_bytes());
            let mut line = Vec::new();
            push_pair_line(&mut line, t >> shift, v);
            prop_assert_eq!(line, format!("{},{v}\n", t >> shift).into_bytes());
        }
    }
}
