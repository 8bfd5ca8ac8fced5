//! The benchmark's own seeded generator: every input a workload makes
//! comes from `--seed` through here, so one seed gives one set of inputs.

/// SplitMix64 — small, fast and good enough to pick accounts and windows.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`label`) and one index.
    pub fn stream(seed: u64, label: u64, index: u64) -> Self {
        let mut mix = SplitMix64(seed ^ label.rotate_left(32));
        let a = mix.next_u64();
        SplitMix64(a ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` is drawn with
/// weight `1 / (k + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.unit() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_for_a_seed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SplitMix64::new(7);
        let mut hits = [0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        // H(1000) ≈ 7.485, so rank 0 draws ≈ 13.4 % and rank 9 ≈ 1.34 %.
        assert!((12_500..14_300).contains(&hits[0]), "rank 0 drew {}", hits[0]);
        assert!((1_100..1_600).contains(&hits[9]), "rank 9 drew {}", hits[9]);
    }

    #[test]
    fn below_stays_in_range_and_streams_differ() {
        let mut rng = SplitMix64::new(1);
        assert!((0..10_000).all(|_| rng.below(64) < 64));
        let (mut a, mut b) = (SplitMix64::stream(1, 2, 0), SplitMix64::stream(1, 2, 1));
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
