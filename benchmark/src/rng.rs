//! The benchmark's own generator. Inputs must depend on `--seed` and on
//! this package alone, so a change to `vendor/rand` cannot move them.

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-0.5, 0.5)`: the operand values.
    pub fn centered(&mut self) -> f64 {
        self.unit() - 0.5
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Exponential variate with the given rate (inter-arrival times).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Index drawn from cumulative `shares` (summing to 1).
    pub fn pick(&mut self, shares: &[f64]) -> usize {
        let u = self.unit();
        let mut acc = 0.0;
        for (i, s) in shares.iter().enumerate() {
            acc += s;
            if u < acc {
                return i;
            }
        }
        shares.len() - 1
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_tags_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::stream(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn unit_stays_in_range_and_shuffle_permutes() {
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
