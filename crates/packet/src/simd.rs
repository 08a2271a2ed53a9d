//! Dependency-free wide-word (SWAR) kernels over contiguous lane columns.
//!
//! The SoA view in [`crate::lanes`] makes the hot header fields
//! contiguous; this module supplies the packed row masks the lane
//! sweeps share and the TTL sweep that consumes eight rows at a time
//! without `unsafe` or any SIMD intrinsics: `u64` SWAR words treating
//! eight `u8` lanes as one register. Callers handle the scalar tail
//! (`len % 8` rows) themselves or go through the helpers here that do.
//!
//! # Conventions
//!
//! * Row masks are `u8` bitmasks, bit `i` = row `chunk * 8 + i`.
//! * Batch-wide validity masks are packed `Vec<u64>` words (bit `i` of
//!   word `i / 64` = row `i`), built with [`bit_capacity`]/[`set_bit`]
//!   and sliced into per-chunk `u8` masks with [`mask8`] (8 divides 64,
//!   so a chunk never straddles words).
//! * Everything is bit-identical to the scalar row-at-a-time loop it
//!   replaces — the SWAR TTL sweep is proven equivalent exhaustively in
//!   the tests.

/// Rows per wide-word chunk.
pub const LANES: usize = 8;

/// Number of `u64` words needed to hold `n` packed row bits.
pub fn bit_capacity(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets packed row bit `i`.
#[inline]
pub fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

/// Reads packed row bit `i`.
#[inline]
pub fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Extracts the 8-row mask for `chunk` (rows `chunk*8 .. chunk*8+8`)
/// from packed row bits. Bits past the end of the packed words read as
/// zero, so callers may probe the ragged tail chunk safely.
#[inline]
pub fn mask8(bits: &[u64], chunk: usize) -> u8 {
    let word = chunk / 8;
    match bits.get(word) {
        Some(w) => (w >> ((chunk % 8) * 8)) as u8,
        None => 0,
    }
}

/// Packs a `bool` row mask into `u64` words (test/bridge helper for
/// callers still holding `&[bool]` masks).
pub fn pack_bools(mask: &[bool]) -> Vec<u64> {
    let mut bits = vec![0u64; bit_capacity(mask.len())];
    for (i, &m) in mask.iter().enumerate() {
        if m {
            set_bit(&mut bits, i);
        }
    }
    bits
}

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Expands an 8-bit row mask into a u64 with `0x80` in every selected
/// byte lane (the SWAR predicate form).
const fn spread80(m: u8) -> u64 {
    let mut w = 0u64;
    let mut l = 0;
    while l < 8 {
        if m & (1 << l) != 0 {
            w |= 0x80u64 << (8 * l);
        }
        l += 1;
    }
    w
}

const SPREAD80: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        t[m] = spread80(m as u8);
        m += 1;
    }
    t
};

/// SWAR zero-byte detector: `0x80` in every byte lane of `w` that is
/// zero. Exact (no false positives from borrow propagation) when every
/// byte of `w` is even — the classic `(x - 1)` borrow chain can only
/// leak into a lane holding `1`, and odd values never occur here
/// because the caller masks bit 0 off first.
#[inline]
fn zero_bytes_even(w: u64) -> u64 {
    w.wrapping_sub(SWAR_LO) & !w & SWAR_HI
}

/// SWAR TTL sweep: for every row selected by the packed `eligible` bits
/// (the IPv4 validity mask), decrement `ttl[row]` when it is ≥ 2 and
/// report it in the returned packed keep-bits; rows with TTL 0/1 are
/// left untouched (the scalar path drops them without rewriting).
/// Non-eligible rows are untouched and never reported.
///
/// Eight TTL bytes are processed per `u64`: `ttl >= 2` is
/// `ttl & 0xFE != 0`, tested with the zero-byte detector above (the
/// `& 0xFE` also establishes its even-lane precondition), and the
/// decrement subtracts `1` only from kept lanes — which hold ≥ 2, so no
/// borrow ever crosses a lane. The ragged tail runs the scalar
/// equivalent.
pub fn dec_ttl_swar(ttl: &mut [u8], eligible: &[u64]) -> Vec<u64> {
    let n = ttl.len();
    let mut keep = vec![0u64; bit_capacity(n)];
    let chunks = n / LANES;
    for c in 0..chunks {
        let elig = SPREAD80[mask8(eligible, c) as usize];
        if elig == 0 {
            continue;
        }
        let base = c * LANES;
        let w = u64::from_le_bytes(ttl[base..base + 8].try_into().expect("8-byte chunk"));
        let ge2 = !zero_bytes_even(w & 0xFEFE_FEFE_FEFE_FEFE) & SWAR_HI;
        let keep80 = ge2 & elig;
        if keep80 == 0 {
            continue;
        }
        let w2 = w.wrapping_sub(keep80 >> 7);
        ttl[base..base + 8].copy_from_slice(&w2.to_le_bytes());
        let k = keep80 >> 7;
        let mut m = 0u8;
        for l in 0..LANES {
            m |= ((k >> (8 * l)) as u8 & 1) << l;
        }
        keep[c / 8] |= u64::from(m) << ((c % 8) * 8);
    }
    for (i, t) in ttl.iter_mut().enumerate().skip(chunks * LANES) {
        if get_bit(eligible, i) && *t >= 2 {
            *t -= 1;
            set_bit(&mut keep, i);
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread80_covers_all_masks() {
        for m in 0..=255u8 {
            let w = SPREAD80[m as usize];
            for l in 0..8 {
                let byte = (w >> (8 * l)) as u8;
                assert_eq!(byte, if m & (1 << l) != 0 { 0x80 } else { 0 });
            }
        }
    }

    #[test]
    fn packed_bits_roundtrip() {
        let mask: Vec<bool> = (0..77).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let bits = pack_bools(&mask);
        assert_eq!(bits.len(), bit_capacity(mask.len()));
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(get_bit(&bits, i), m, "bit {i}");
        }
        for c in 0..mask.len().div_ceil(LANES) {
            let m8 = mask8(&bits, c);
            for l in 0..LANES {
                let i = c * LANES + l;
                let expect = i < mask.len() && mask[i];
                assert_eq!(m8 >> l & 1 == 1, expect, "chunk {c} lane {l}");
            }
        }
        // Probing past the packed words reads as empty.
        assert_eq!(mask8(&bits, 1000), 0);
    }

    /// Scalar model of the TTL sweep for differential checks.
    fn dec_ttl_scalar(ttl: &mut [u8], eligible: &[u64]) -> Vec<u64> {
        let mut keep = vec![0u64; bit_capacity(ttl.len())];
        for (i, t) in ttl.iter_mut().enumerate() {
            if get_bit(eligible, i) && *t >= 2 {
                *t -= 1;
                set_bit(&mut keep, i);
            }
        }
        keep
    }

    #[test]
    fn dec_ttl_exhaustive_one_chunk() {
        // Every (ttl value class, eligibility) combination within one
        // chunk: lanes cycle through the interesting TTLs while the
        // eligibility mask sweeps all 256 values.
        let interesting = [0u8, 1, 2, 3, 127, 128, 255];
        for elig_mask in 0..=255u8 {
            for rot in 0..interesting.len() {
                let mut ttl: Vec<u8> = (0..8)
                    .map(|i| interesting[(i + rot) % interesting.len()])
                    .collect();
                let mut ttl_ref = ttl.clone();
                let elig = vec![u64::from(elig_mask)];
                let keep = dec_ttl_swar(&mut ttl, &elig);
                let keep_ref = dec_ttl_scalar(&mut ttl_ref, &elig);
                assert_eq!(ttl, ttl_ref, "mask {elig_mask:#x} rot {rot}");
                assert_eq!(keep, keep_ref, "mask {elig_mask:#x} rot {rot}");
            }
        }
    }

    #[test]
    fn dec_ttl_ragged_tail_and_long_batches() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let mut ttl: Vec<u8> = (0..n).map(|i| (i * 37 + 1) as u8).collect();
            let mut ttl_ref = ttl.clone();
            let mask: Vec<bool> = (0..n).map(|i| i % 5 != 3).collect();
            let elig = pack_bools(&mask);
            let keep = dec_ttl_swar(&mut ttl, &elig);
            let keep_ref = dec_ttl_scalar(&mut ttl_ref, &elig);
            assert_eq!(ttl, ttl_ref, "n={n}");
            assert_eq!(keep, keep_ref, "n={n}");
        }
    }
}
