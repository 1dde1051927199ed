//! LEB128 varints: the byte logs that grow with a run's length (the
//! signalling decision log, the churn driver's reclaimed-flow records)
//! keep their integers as one of these each, so a small number costs one
//! byte instead of eight.
//!
//! A varint holds seven bits a byte, low bits first, with the top bit set
//! on every byte but the last.  Values are written and read as `u128`, so
//! a log can pack a full `u64` together with a flag bit into one varint.

/// Append `n` as an LEB128 varint.
pub fn put(out: &mut Vec<u8>, n: impl Into<u128>) {
    let mut n = n.into();
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Read the LEB128 varint at the front of `bytes` and advance past it.
/// `None` when `bytes` ends inside the varint, when it runs past the 19
/// bytes a `u128` needs, or when its value does not fit `T`.
pub fn get<T: TryFrom<u128>>(bytes: &mut &[u8]) -> Option<T> {
    let mut n = 0u128;
    for shift in (0..128).step_by(7) {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        n |= u128::from(b & 0x7f) << shift;
        if b < 0x80 {
            return T::try_from(n).ok();
        }
    }
    None
}

/// A signed step as an unsigned varint payload: 0, −1, 1, −2, 2, … map
/// to 0, 1, 2, 3, 4, …, so a small step either way takes one byte.
pub fn zigzag(step: i64) -> u64 {
    ((step << 1) ^ (step >> 63)) as u64
}

/// The step a [`zigzag`] payload came from.
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) ^ (z & 1).wrapping_neg()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_values_round_trip_at_their_pinned_lengths() {
        let cases: [(u128, usize); 9] = [
            (0, 1),
            (0x7f, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (u128::from(u32::MAX), 5),
            (u128::from(u64::MAX), 10),
            (u128::from(u64::MAX) << 1 | 1, 10),
            (u128::MAX, 19),
        ];
        for (n, len) in cases {
            let mut out = Vec::new();
            put(&mut out, n);
            assert_eq!(out.len(), len, "{n:#x}");
            let mut bytes = &out[..];
            assert_eq!(get::<u128>(&mut bytes), Some(n));
            assert!(bytes.is_empty(), "{n:#x} read to its last byte");
        }
    }

    #[test]
    fn zigzag_interleaves_signs_and_round_trips_the_extremes() {
        for (step, z) in [(0, 0), (-1, 1), (1, 2), (-2, 3), (i64::MAX, u64::MAX - 1)] {
            assert_eq!(zigzag(step), z);
        }
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for step in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(step)), step);
        }
    }

    #[test]
    fn truncated_overlong_and_out_of_range_varints_are_none() {
        let mut out = Vec::new();
        put(&mut out, u64::MAX);
        assert_eq!(get::<u64>(&mut &out[..]), Some(u64::MAX));
        assert_eq!(get::<u32>(&mut &out[..]), None, "does not fit");
        assert_eq!(get::<u64>(&mut &out[..9]), None, "truncated");
        assert_eq!(get::<u64>(&mut &[][..]), None, "empty");
        assert_eq!(get::<u128>(&mut &[0x80; 20][..]), None, "overlong");
    }
}
