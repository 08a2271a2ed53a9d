//! The one quantile structure: a mergeable, relative-error-bounded
//! sketch.
//!
//! [`QuantileSketch`] is a DDSketch-style log-bucketed sketch: a value
//! `v > 0` lands in bucket `ceil(log_gamma v)` with
//! `gamma = (1 + alpha) / (1 - alpha)`, `alpha` = [`SKETCH_ALPHA`], so
//! the mid-point representative returned for any quantile is within a
//! relative error of `alpha` of the true sample. Buckets are sparse
//! (`BTreeMap`), so memory scales with the *spread* of the data, not the
//! sample count, and merging two sketches is a bucket-wise add — exactly
//! associative and commutative, so any split of a stream merges back to
//! the single-stream sketch bit for bit.
//!
//! It backs every distribution the workspace keeps: the [`MemorySink`]
//! histograms and their Prometheus summaries, the health plane's
//! end-to-end latency and drift-ratio quantiles, and `StatsAccumulator`
//! past its exact window.
//!
//! [`MemorySink`]: crate::MemorySink

use std::collections::BTreeMap;

/// Relative-error bound of every [`QuantileSketch`] (1%).
pub const SKETCH_ALPHA: f64 = 0.01;

/// Values at or below this threshold are counted in the exact zero
/// bucket instead of a log bucket.
const ZERO_EPS: f64 = 1e-9;

/// A mergeable log-bucketed quantile sketch with bounded relative
/// error.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    gamma_ln: f64,
    zero_count: u64,
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch with relative-error bound [`SKETCH_ALPHA`].
    pub fn new() -> Self {
        let gamma = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA);
        QuantileSketch {
            gamma_ln: gamma.ln(),
            zero_count: 0,
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one sample. Negative and non-finite values clamp to
    /// zero (the exact zero bucket).
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        if v <= ZERO_EPS {
            self.zero_count += 1;
        } else {
            let key = (v.ln() / self.gamma_ln).ceil() as i32;
            *self.buckets.entry(key).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (`0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (`0` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-th quantile (`q` in `[0, 1]`), within [`SKETCH_ALPHA`]
    /// relative error of the true sample at the same nearest-rank position.
    /// Returns `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)) as u64;
        if rank < self.zero_count {
            return 0.0;
        }
        let mut cum = self.zero_count;
        for (&key, &n) in &self.buckets {
            cum += n;
            if cum > rank {
                // Mid-point (in log space) representative of bucket
                // `key`: 2 * gamma^key / (gamma + 1).
                let gamma = self.gamma_ln.exp();
                let rep = (f64::from(key) * self.gamma_ln).exp() * 2.0 / (gamma + 1.0);
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Batch quantile query.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Merges another sketch into this one (bucket-wise add).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.zero_count += other.zero_count;
        for (&key, &n) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize, mul: f64, base: f64, span: f64) -> Vec<f64> {
        (0..n).map(|i| base + (i as f64 * mul) % span).collect()
    }

    #[test]
    fn quantiles_stay_within_alpha_of_exact() {
        let vals = stream(50_000, 1525.7, 1e3, 1e8);
        let mut sk = QuantileSketch::new();
        for &v in &vals {
            sk.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            let want = sorted[((sorted.len() - 1) as f64 * q) as usize];
            let got = sk.quantile(q);
            let rel = (got - want).abs() / want;
            assert!(
                rel <= SKETCH_ALPHA * 1.0001,
                "q{q}: got {got}, want {want}, rel err {rel}"
            );
        }
        assert_eq!(sk.count(), vals.len() as u64);
        assert_eq!(sk.max(), sorted[sorted.len() - 1]);
        assert_eq!(sk.min(), sorted[0]);
    }

    #[test]
    fn merge_equals_concatenation_exactly() {
        let a_vals = stream(10_000, 777.3, 1e3, 3e7);
        let b_vals = stream(10_000, 331.9, 5e2, 9e7);
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut concat = QuantileSketch::new();
        for &v in &a_vals {
            a.record(v);
            concat.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            concat.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        // Merge is exact at the bucket level: every quantile of the
        // merged sketch equals the concatenated sketch's, bit for bit.
        assert_eq!(merged.count(), concat.count());
        assert_eq!(merged.min(), concat.min());
        assert_eq!(merged.max(), concat.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q).to_bits(), concat.quantile(q).to_bits());
        }
        // Merging an empty sketch is a no-op.
        let before = merged.count();
        merged.merge(&QuantileSketch::new());
        assert_eq!(merged.count(), before);
    }

    #[test]
    fn zero_and_pathological_inputs_clamp() {
        let mut sk = QuantileSketch::new();
        sk.record(-5.0);
        sk.record(f64::NAN);
        sk.record(f64::INFINITY);
        sk.record(0.0);
        assert_eq!(sk.count(), 4);
        assert_eq!(sk.max(), 0.0);
        assert_eq!(sk.quantile(0.5), 0.0);
        assert_eq!(sk.quantile(1.0), 0.0);
        // Mixed zero and positive samples keep ranks consistent.
        sk.record(100.0);
        assert_eq!(sk.quantile(0.0), 0.0);
        let p100 = sk.quantile(1.0);
        assert!((p100 - 100.0).abs() / 100.0 <= SKETCH_ALPHA);
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let sk = QuantileSketch::new();
        assert_eq!(sk.count(), 0);
        assert_eq!(sk.mean(), 0.0);
        assert_eq!(sk.min(), 0.0);
        assert_eq!(sk.max(), 0.0);
        assert_eq!(sk.quantile(0.99), 0.0);
        assert_eq!(sk.quantiles(&[0.0, 0.5, 1.0]), [0.0, 0.0, 0.0]);
        // A single sample is every quantile: the bucket representative
        // clamps to the exact `[min, max]`.
        let mut sk = QuantileSketch::new();
        sk.record(1234.5);
        assert_eq!(sk.count(), 1);
        assert_eq!(sk.min(), 1234.5);
        assert_eq!(sk.max(), 1234.5);
        assert_eq!(sk.mean(), 1234.5);
        assert_eq!(sk.quantiles(&[0.0, 0.5, 0.999, 1.0]), [1234.5; 4]);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn sketch_of(vals: &[f64]) -> QuantileSketch {
            let mut sk = QuantileSketch::new();
            for &v in vals {
                sk.record(v);
            }
            sk
        }

        /// Bitwise equality of everything bucket-derived; the running
        /// `sum` is a float accumulation whose rounding depends on add
        /// order, so it only gets a tight relative tolerance.
        fn assert_same(label: &str, a: &QuantileSketch, b: &QuantileSketch) {
            assert_eq!(a.count(), b.count(), "{label}: count");
            assert!(
                (a.sum() - b.sum()).abs() <= 1e-12 * a.sum().abs().max(1.0),
                "{label}: sum {} vs {}",
                a.sum(),
                b.sum()
            );
            assert_eq!(a.min().to_bits(), b.min().to_bits(), "{label}: min");
            assert_eq!(a.max().to_bits(), b.max().to_bits(), "{label}: max");
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    a.quantile(q).to_bits(),
                    b.quantile(q).to_bits(),
                    "{label}: q{q}"
                );
            }
        }

        fn vals() -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::vec(1e-3f64..1e12, 0..300)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Merge is a bucket-wise add, so it is *exactly*
            /// commutative and associative — the property that makes
            /// per-worker shards order-insensitive.
            #[test]
            fn merge_is_commutative_and_associative(
                a in vals(),
                b in vals(),
                c in vals(),
            ) {
                let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
                let mut ab = sa.clone();
                ab.merge(&sb);
                let mut ba = sb.clone();
                ba.merge(&sa);
                assert_same("commutativity", &ab, &ba);

                let mut ab_c = ab.clone();
                ab_c.merge(&sc);
                let mut bc = sb.clone();
                bc.merge(&sc);
                let mut a_bc = sa.clone();
                a_bc.merge(&bc);
                assert_same("associativity", &ab_c, &a_bc);
            }

            /// Any split of one stream into shards merges back to the
            /// single-stream sketch, bit for bit.
            #[test]
            fn sharded_merge_equals_single_stream(
                stream in proptest::collection::vec(1e-3f64..1e12, 1..300),
                shards in 1usize..8,
            ) {
                let whole = sketch_of(&stream);
                let mut merged = QuantileSketch::new();
                for chunk in stream.chunks(stream.len().div_ceil(shards)) {
                    merged.merge(&sketch_of(chunk));
                }
                assert_same("sharded", &whole, &merged);
            }

            /// Every reported quantile is within `alpha` relative error
            /// of the exact sample quantile.
            #[test]
            fn quantiles_are_within_alpha_of_exact(
                stream in proptest::collection::vec(1e-3f64..1e12, 1..300),
                q in 0.0f64..=1.0,
            ) {
                let sk = sketch_of(&stream);
                let mut sorted = stream.clone();
                sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let want = sorted[((sorted.len() - 1) as f64 * q) as usize];
                let got = sk.quantile(q);
                let rel = (got - want).abs() / want;
                prop_assert!(
                    rel <= SKETCH_ALPHA * 1.0001,
                    "q{}: got {}, want {}, rel err {}", q, got, want, rel
                );
            }
        }
    }
}
