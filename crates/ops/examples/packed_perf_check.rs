//! Quick GFLOP/s sanity check for the GEMM tiers (not a recorded bench).
use deep500_ops::gemm::{gemm_into, Algorithm, Epilogue};
use deep500_tensor::rng::Xoshiro256StarStar;
use deep500_tensor::Tensor;
use std::time::Instant;

fn main() {
    let n = 1024usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);
    let a = Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng);
    let (a, b) = (a.data(), b.data());
    let flops = 2.0 * (n as f64).powi(3);
    for algo in [Algorithm::Blocked, Algorithm::Parallel, Algorithm::Packed] {
        let mut c = vec![0.0f32; n * n];
        // warmup
        gemm_into(algo, n, n, n, a, false, b, false, &mut c, Epilogue::None);
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            c.iter_mut().for_each(|v| *v = 0.0);
            gemm_into(algo, n, n, n, a, false, b, false, &mut c, Epilogue::None);
        }
        let dt = t0.elapsed().as_secs_f64() / reps as f64;
        println!(
            "{algo:?}: {:.2} GFLOP/s ({:.1} ms)",
            flops / dt / 1e9,
            dt * 1e3
        );
    }
}
