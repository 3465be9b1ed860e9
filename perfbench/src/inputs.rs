//! Seeded input generation. Every input is built before any timing
//! starts and its exact singular values are known.

use rand::{rngs::StdRng, Rng, SeedableRng};
use unisvd::{testmat, Matrix, Scalar, SvDistribution};

/// A generated operand with its exact descending singular values.
pub struct Input<T: Scalar> {
    pub a: Matrix<T>,
    pub truth: Vec<f64>,
}

/// The run's input generator for `seed`; `stream` separates workloads.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A square `n × n` operand with a logarithmic spectrum on `[1e-3, 1]`.
pub fn square<T: Scalar>(n: usize, rng: &mut StdRng) -> Input<T> {
    let (a, truth) = testmat::test_matrix::<T, _>(n, SvDistribution::Logarithmic, true, rng);
    Input { a, truth }
}

/// `count` independent square operands for each size in `sizes`.
pub fn square_pools<T: Scalar>(
    sizes: &[usize],
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Input<T>>> {
    sizes
        .iter()
        .map(|&n| (0..count).map(|_| square(n, rng)).collect())
        .collect()
}

/// `count` square `n × n` operands sharing one logarithmic spectrum: one
/// `U Σ Vᵀ` built with many reflectors, then each copy remixed by a few
/// more on both sides (cheap, and the singular values stay exact).
pub fn square_family<T: Scalar>(n: usize, count: usize, rng: &mut StdRng) -> Vec<Input<T>> {
    let truth = SvDistribution::Logarithmic.values(n);
    let base = testmat::with_singular_values_fast(&truth, (n / 8).clamp(16, 128), rng);
    (0..count)
        .map(|_| {
            let mut a = base.clone();
            for _ in 0..4 {
                let w = unit(n, rng);
                reflect_cols(&mut a, &w);
                let w = unit(n, rng);
                let mut t = a.transposed();
                reflect_cols(&mut t, &w);
                a = t.transposed();
            }
            Input {
                a: a.cast(),
                truth: truth.clone(),
            }
        })
        .collect()
}

/// A random unit vector of length `n`.
fn unit(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
    w.iter_mut().for_each(|x| *x /= norm);
    w
}

/// `A ← (I − 2wwᵀ)·A`, column by column.
fn reflect_cols(a: &mut Matrix<f64>, w: &[f64]) {
    for j in 0..a.cols() {
        let s: f64 = (0..a.rows()).map(|i| w[i] * a[(i, j)]).sum();
        for i in 0..a.rows() {
            a[(i, j)] -= 2.0 * s * w[i];
        }
    }
}

/// A tall `m × n` operand (`m > n`) with a logarithmic spectrum: a
/// square `U Σ Vᵀ` stacked on zeros, then mixed across all `m` rows by
/// random reflectors (which keep the singular values exact).
pub fn tall<T: Scalar>(m: usize, n: usize, rng: &mut StdRng) -> Input<T> {
    let truth = SvDistribution::Logarithmic.values(n);
    let b = testmat::with_singular_values_fast(&truth, (n / 8).clamp(16, 128), rng);
    let mut a = Matrix::<f64>::from_fn(m, n, |i, j| if i < n { b[(i, j)] } else { 0.0 });
    for _ in 0..8 {
        reflect_cols(&mut a, &unit(m, rng));
    }
    Input { a: a.cast(), truth }
}

/// A seeded permutation of `0..n`, for balanced request mixes.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}
