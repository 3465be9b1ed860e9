//! One-sided Jacobi SVD — the independent accuracy oracle.
//!
//! Orthogonalises column pairs until convergence; the singular values are
//! the final column norms. Slow (O(n³) per sweep) but self-contained and
//! accurate to working precision, making it the ideal cross-check for the
//! two-stage pipeline in tests and the Table 1 harness.

use unisvd_matrix::Matrix;
use unisvd_scalar::{Real, Scalar};

/// Maximum number of full sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// All singular values of `a` (any shape, `rows ≥ cols` works best),
/// descending. Converges to working precision on any finite input.
pub fn jacobi_svdvals<R: Real + Scalar<Accum = R>>(a: &Matrix<R>) -> Vec<R> {
    let m = a.rows();
    let n = a.cols();
    if n == 0 || m == 0 {
        return vec![R::ZERO; n];
    }
    // Work on a column-major copy.
    let mut w: Vec<R> = a.as_slice().to_vec();
    let col = |_w: &Vec<R>, j: usize| -> std::ops::Range<usize> { j * m..(j + 1) * m };

    let tol = R::EPSILON * <R as Real>::from_f64(m as f64).sqrt();
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of columns p, q.
                let (mut app, mut aqq, mut apq) = (R::ZERO, R::ZERO, R::ZERO);
                for i in 0..m {
                    let x = w[col(&w, p).start + i];
                    let y = w[col(&w, q).start + i];
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                if apq.abs() <= tol * (app * aqq).sqrt() || apq == R::ZERO {
                    continue;
                }
                rotated = true;
                // Jacobi rotation diagonalising [[app, apq], [apq, aqq]].
                let theta = (aqq - app) / (R::TWO * apq);
                let t = {
                    let sign = if theta < R::ZERO { -R::ONE } else { R::ONE };
                    sign / (theta.abs() + (R::ONE + theta * theta).sqrt())
                };
                let c = R::ONE / (R::ONE + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let ip = col(&w, p).start + i;
                    let iq = col(&w, q).start + i;
                    let x = w[ip];
                    let y = w[iq];
                    w[ip] = c * x - s * y;
                    w[iq] = s * x + c * y;
                }
            }
        }
        if !rotated {
            break;
        }
    }

    let mut sv: Vec<R> = (0..n)
        .map(|j| {
            let mut s = R::ZERO;
            for i in 0..m {
                let x = w[j * m + i];
                s += x * x;
            }
            s.sqrt()
        })
        .collect();
    sv.sort_by(|x, y| y.partial_cmp(x).unwrap());
    sv
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unisvd_matrix::{reference::sv_relative_error, testmat, SvDistribution};

    #[test]
    fn identity_and_diagonal() {
        let sv = jacobi_svdvals(&Matrix::<f64>::identity(5));
        assert!(sv.iter().all(|&s| (s - 1.0).abs() < 1e-14));
        let d = Matrix::<f64>::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        assert_eq!(
            jacobi_svdvals(&d)
                .iter()
                .map(|x| x.round() as i64)
                .collect::<Vec<_>>(),
            vec![4, 3, 2, 1]
        );
    }

    #[test]
    fn recovers_known_singular_values() {
        let mut rng = StdRng::seed_from_u64(55);
        for dist in SvDistribution::ALL {
            let (a, truth) = testmat::test_matrix::<f64, _>(24, dist, false, &mut rng);
            let sv = jacobi_svdvals(&a);
            let err = sv_relative_error(&sv, &truth);
            assert!(err < 1e-12, "{dist:?}: {err}");
        }
    }

    #[test]
    fn rank_deficient() {
        // Rank-1 matrix: one nonzero singular value = ‖u‖·‖v‖.
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [2.0, -1.0, 0.5, 1.0];
        let a = Matrix::<f64>::from_fn(4, 4, |i, j| u[i] * v[j]);
        let sv = jacobi_svdvals(&a);
        let want = (30.0f64).sqrt() * (6.25f64).sqrt();
        assert!((sv[0] - want).abs() < 1e-12);
        assert!(sv[1] < 1e-12 && sv[3] < 1e-12);
    }

    #[test]
    fn f32_runs() {
        let mut rng = StdRng::seed_from_u64(5);
        let (a, truth) =
            testmat::test_matrix::<f32, _>(16, SvDistribution::Arithmetic, false, &mut rng);
        let sv = jacobi_svdvals(&a);
        let sv64: Vec<f64> = sv.iter().map(|&x| x as f64).collect();
        assert!(sv_relative_error(&sv64, &truth) < 1e-5);
    }
}
