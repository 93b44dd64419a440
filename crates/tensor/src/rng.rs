//! Deterministic pseudo-random generation.
//!
//! Reproducibility (pillar 5) demands that every random bit in a benchmark
//! be a pure function of an explicit seed, independent of library versions.
//! We therefore implement the well-specified xoshiro256\*\* generator
//! (Blackman & Vigna) with a SplitMix64 seeder, plus the samplers and
//! weight initializers the rest of the stack needs.

/// SplitMix64 (Steele, Lea & Flood; public-domain reference constants):
/// expands a single `u64` seed into [`Xoshiro256StarStar`] state, and is a
/// tiny seedable generator in its own right — enough for fault decisions
/// and test schedules; not for crypto.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The xoshiro256\*\* PRNG: fast, 256-bit state, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_cache: Option<f64>,
}

impl Xoshiro256StarStar {
    /// Seed from a single `u64` via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar {
            s,
            gauss_cache: None,
        }
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

    /// Uniform `f64` in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)` using Lemire-style rejection-free
    /// multiply-shift (tiny bias is irrelevant at benchmark scales, but we
    /// still reject to keep it exact).
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below(0)");
        let bound = bound as u64;
        // Rejection sampling on the top bits for exact uniformity.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % bound) as usize;
            }
        }
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal sample via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(v) = self.gauss_cache.take() {
            return v;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with given mean/stddev, as `f32`.
    fn normal_f32(&mut self, mean: f32, stddev: f32) -> f32 {
        (mean as f64 + stddev as f64 * self.normal()) as f32
    }

    /// Fill `buf` with uniform values in `[lo, hi)`.
    pub fn fill_uniform(&mut self, buf: &mut [f32], lo: f32, hi: f32) {
        for v in buf {
            *v = self.uniform(lo, hi);
        }
    }

    /// Fill `buf` with `N(mean, stddev^2)` samples.
    pub fn fill_normal(&mut self, buf: &mut [f32], mean: f32, stddev: f32) {
        for v in buf {
            *v = self.normal_f32(mean, stddev);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derive an independent generator for stream `index` (e.g. one per
    /// rank or per dataset shard) without long-jump tables: reseed through
    /// SplitMix64 with the stream index mixed in.
    pub fn split(&self, index: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(
            self.s[0] ^ self.s[3].rotate_left(17) ^ index.wrapping_mul(0xA24BAED4963EE407),
        )
    }
}

/// Standard DNN weight initializers, parameterized by fan-in/fan-out.
pub mod init {
    use super::Xoshiro256StarStar;

    /// Xavier/Glorot uniform: `U(-a, a)`, `a = sqrt(6 / (fan_in + fan_out))`.
    pub fn xavier_uniform(
        rng: &mut Xoshiro256StarStar,
        buf: &mut [f32],
        fan_in: usize,
        fan_out: usize,
    ) {
        let a = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
        rng.fill_uniform(buf, -a, a);
    }

    /// He/Kaiming normal: `N(0, sqrt(2 / fan_in)^2)` — for ReLU networks.
    pub fn he_normal(rng: &mut Xoshiro256StarStar, buf: &mut [f32], fan_in: usize) {
        let s = (2.0 / fan_in as f64).sqrt() as f32;
        rng.fill_normal(buf, 0.0, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mean = (0..1000).map(|_| a.next_f64()).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    /// The first outputs for two seeds. Fault plans, weight init and
    /// seeded schedules all replay this stream, so any change to it must
    /// show here first; seed 0's outputs are the published reference
    /// vector.
    #[test]
    fn splitmix_outputs_are_pinned() {
        let mut r = SplitMix64::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394
            ]
        );
        assert_eq!(r.next_f64(), 0.03803016854024621);
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            let u = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&u));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = Xoshiro256StarStar::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "almost surely shuffled");
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let base = Xoshiro256StarStar::seed_from_u64(3);
        let mut s1 = base.split(1);
        let mut s1b = base.split(1);
        let mut s2 = base.split(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn xavier_bounds() {
        let mut r = Xoshiro256StarStar::seed_from_u64(13);
        let mut buf = vec![0.0f32; 256];
        init::xavier_uniform(&mut r, &mut buf, 100, 200);
        let a = (6.0f64 / 300.0).sqrt() as f32;
        assert!(buf.iter().all(|&v| v > -a && v < a));
        assert!(buf.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn he_normal_scale() {
        let mut r = Xoshiro256StarStar::seed_from_u64(17);
        let mut buf = vec![0.0f32; 10_000];
        init::he_normal(&mut r, &mut buf, 50);
        let var: f64 = buf.iter().map(|&v| v as f64 * v as f64).sum::<f64>() / buf.len() as f64;
        assert!((var - 2.0 / 50.0).abs() < 0.005, "var {var}");
    }
}
