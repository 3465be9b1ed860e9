//! Output checks an operation must pass before it counts as correct.

use rand::Rng;
use unisvd::{reference, Matrix, PrecisionKind, SvdOutput};

/// Relative singular-value error each precision may reach (the
/// tolerances of the repository's golden-value tests).
pub fn tolerance(kind: PrecisionKind) -> f64 {
    match kind {
        PrecisionKind::Fp64 => 1e-10,
        PrecisionKind::Fp32 => 2e-4,
        PrecisionKind::Fp16 => 2e-2,
    }
}

/// Vector tolerance per precision (orthogonality and reconstruction;
/// the repository's vector-accuracy tests use the same scale).
fn vector_tolerance(kind: PrecisionKind) -> f64 {
    match kind {
        PrecisionKind::Fp64 => 1e-10,
        PrecisionKind::Fp32 => 2e-4,
        PrecisionKind::Fp16 => 4e-2,
    }
}

/// Relative error of `values` against the known spectrum `truth`
/// (compared over `values.len()`, so a top-k prefix is checked against
/// the top-k truth), as a share of the precision's tolerance. A result
/// of the wrong length or with a non-finite value reads as infinity.
pub fn value_ratio(values: &[f64], truth: &[f64], kind: PrecisionKind) -> f64 {
    if values.is_empty() || values.len() > truth.len() || values.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    reference::sv_relative_error(values, &truth[..values.len()]) / tolerance(kind)
}

/// Checks the singular vectors of `out` against the f64 input `a`:
/// orthonormal columns of `U` and `V`, and `A·V·y = U·Σ·y` for random
/// probe vectors `y` (a reconstruction check that costs `O(mn)` per
/// probe instead of forming `UΣVᵀ`). Returns whether both hold.
pub fn vectors_ok<R: Rng>(
    out: &SvdOutput,
    a: &Matrix<f64>,
    kind: PrecisionKind,
    rng: &mut R,
) -> bool {
    let (Some(u), Some(vt)) = (&out.u, &out.vt) else {
        return false;
    };
    let k = out.values.len();
    let (m, n) = (a.rows(), a.cols());
    if u.rows() != m || u.cols() != k || vt.rows() != k || vt.cols() != n {
        return false;
    }
    let tol = vector_tolerance(kind);
    if reference::orthogonality_error(u) > tol
        || reference::orthogonality_error(&vt.transposed()) > tol
    {
        return false;
    }
    let scale = 1.0 + out.values.first().copied().unwrap_or(0.0);
    for _ in 0..2 {
        let y: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // x = V·y (n), lhs = A·x (m), rhs = U·(Σ·y) (m).
        let x: Vec<f64> = (0..n)
            .map(|c| (0..k).map(|j| vt[(j, c)] * y[j]).sum())
            .collect();
        let mut worst = 0.0f64;
        for i in 0..m {
            let lhs: f64 = (0..n).map(|c| a[(i, c)] * x[c]).sum();
            let rhs: f64 = (0..k).map(|j| u[(i, j)] * out.values[j] * y[j]).sum();
            worst = worst.max((lhs - rhs).abs());
        }
        let ynorm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if worst.is_nan() || worst > tol * scale * ynorm {
            return false;
        }
    }
    true
}

/// Bit patterns of a value list, for exact comparisons.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
