//! Small numeric helpers: the digest, the seeded generator and the
//! percentile rule. Kept in the benchmark so that a change to the
//! program's own hashing or random streams cannot move the workloads.

/// FNV-1a, 64 bits, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// A length-prefixed string, so that concatenations cannot collide.
    pub fn str(&mut self, text: &str) -> &mut Self {
        self.u64(text.len() as u64).bytes(text.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest percentile with at least ten samples beyond it: p99
/// from 1000 samples, p90 from 100, else the median.
pub fn tail_rule(samples: usize) -> (f64, &'static str) {
    if samples >= 1000 {
        (0.99, "p99")
    } else if samples >= 100 {
        (0.90, "p90")
    } else {
        (0.50, "p50")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_rule(100_000).1, "p99");
        assert_eq!(tail_rule(1000).1, "p99");
        assert_eq!(tail_rule(999).1, "p90");
        assert_eq!(tail_rule(100).1, "p90");
        assert_eq!(tail_rule(99).1, "p50");
        for n in [100usize, 150, 999, 1000, 5000] {
            let (q, _) = tail_rule(n);
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = quantile(&sorted, q) as usize;
            assert!(n - 1 - at >= 10, "{n} samples leave {} beyond", n - 1 - at);
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.0);
        assert_eq!(quantile(&sorted, 0.99), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }
}
