//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the workspace is reproducible from a single `u64` seed,
//! so we ship a first-party xoshiro256** generator (public-domain algorithm by
//! Blackman & Vigna) instead of depending on a `rand` version whose stream
//! might change across releases.

/// xoshiro256** PRNG with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }

    /// Snapshot of the internal state, for checkpointing mid-stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Rng::state`] snapshot, continuing the
    /// stream exactly where the snapshot was taken.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize(0) is empty");
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "range: empty interval {lo}..{hi}");
        lo + self.usize(hi - lo)
    }

    /// Bernoulli draw with success probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via the Marsaglia polar method.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = self.uniform(-1.0, 1.0);
            let v = self.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.standard_normal()
    }

    /// Gamma(shape, scale=1) via Marsaglia & Tsang (2000); handles shape < 1 by boosting.
    pub fn gamma(&mut self, shape: f64) -> f64 {
        assert!(shape > 0.0, "gamma: shape must be positive");
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
            let g = self.gamma(shape + 1.0);
            let u = self.f64().max(f64::MIN_POSITIVE);
            return g * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.f64();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// Sample from a symmetric Dirichlet / general Dirichlet with the given
    /// concentration parameters. The result sums to 1.
    pub fn dirichlet(&mut self, alphas: &[f64]) -> Vec<f64> {
        assert!(!alphas.is_empty(), "dirichlet: empty alphas");
        let mut draws: Vec<f64> = alphas.iter().map(|&a| self.gamma(a)).collect();
        let total: f64 = draws.iter().sum();
        if total <= 0.0 {
            // Degenerate (all gamma draws underflowed): fall back to uniform.
            let u = 1.0 / alphas.len() as f64;
            return vec![u; alphas.len()];
        }
        for d in &mut draws {
            *d /= total;
        }
        draws
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Uniformly chooses one element by reference.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.usize(items.len())]
    }

    /// Samples `k` distinct indices from `0..n` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::with_capacity(n);
        self.sample_indices_into(n, k, &mut idx);
        idx
    }

    /// [`Rng::sample_indices`] into `idx`, which is overwritten: the same
    /// draws and the same indices, in a buffer the caller reuses.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, idx: &mut Vec<usize>) {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        idx.clear();
        idx.extend(0..n);
        // Partial Fisher-Yates: only the first k positions need randomizing.
        for i in 0..k {
            let j = self.range(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
    }

    /// Samples an index according to unnormalized non-negative weights.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index: non-positive total weight");
        let mut t = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = Rng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = Rng::seed_from_u64(13);
        for &shape in &[0.5, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let m = (0..n).map(|_| r.gamma(shape)).sum::<f64>() / n as f64;
            assert!(
                (m - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape} mean {m}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut r = Rng::seed_from_u64(17);
        for &alpha in &[0.1, 1.0, 10.0] {
            let d = r.dirichlet(&[alpha; 6]);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(d.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn dirichlet_low_alpha_is_sparse() {
        let mut r = Rng::seed_from_u64(19);
        // With alpha=0.05 the mass concentrates: max component should usually dominate.
        let mut dominated = 0;
        for _ in 0..100 {
            let d = r.dirichlet(&[0.05; 10]);
            if d.iter().cloned().fold(0.0, f64::max) > 0.5 {
                dominated += 1;
            }
        }
        assert!(dominated > 60, "only {dominated} draws dominated");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(23);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::seed_from_u64(29);
        let s = r.sample_indices(100, 30);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 30);
    }

    #[test]
    fn sample_indices_into_reuses_a_buffer_with_the_same_draws() {
        let (mut a, mut b) = (Rng::seed_from_u64(37), Rng::seed_from_u64(37));
        let mut buf = vec![99; 40];
        for (n, k) in [(12, 5), (3, 3), (40, 0), (7, 1), (12, 12)] {
            b.sample_indices_into(n, k, &mut buf);
            assert_eq!(buf, a.sample_indices(n, k), "n={n} k={k}");
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed_from_u64(31);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2);
    }
}
