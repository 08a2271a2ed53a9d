//! The harness's own arithmetic: order statistics and the egress digest.
//!
//! Everything here is plain data in, plain data out, so it is unit-tested
//! in place; no function in this module calls into the workspace crates.

/// Sorted copy of `values` (total order; the harness never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle element, or the mean of the two middle
/// elements for an even count. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the rule the benchmark contract judges spread by.
/// Needs at least two values; fewer return the single value twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| -> f64 {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread_ratio(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// Index of percentile `p` (0–1) in a sorted sample of `n` values: the
/// same truncating rule `nfc_hetero::SimReport` uses, so wall-clock and
/// simulated percentiles are comparable.
pub fn percentile_index(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((n - 1) as f64 * p) as usize
    }
}

/// Percentile `p` of an already sorted sample (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted
        .get(percentile_index(sorted.len(), p))
        .copied()
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a, the egress digest. Order-sensitive by construction, so
/// it covers both the bytes and the order of what left the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// Folds one integer (little-endian) into the digest; used for
    /// lengths and counts so that batch and packet boundaries matter.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), (2.0, 6.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_ratio(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread_ratio(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_index_truncates_like_the_simulator() {
        assert_eq!(percentile_index(0, 0.99), 0);
        assert_eq!(percentile_index(1, 0.99), 0);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(101, 0.99), 99);
        assert_eq!(percentile_index(1120, 0.99), 1107);
        assert_eq!(percentile_index(7, 0.5), 3);
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 197.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv64_known_vectors_and_order_sensitivity() {
        let mut h = Fnv64::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        let (mut ab, mut ba) = (Fnv64::default(), Fnv64::default());
        ab.write(b"a");
        ab.write(b"b");
        ba.write(b"b");
        ba.write(b"a");
        assert_ne!(ab.finish(), ba.finish());
        // Chunking does not matter, boundaries only enter through write_u64.
        let mut whole = Fnv64::default();
        whole.write(b"ab");
        assert_eq!(whole.finish(), ab.finish());
    }
}
