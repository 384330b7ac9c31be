//! Numerical linear algebra: power iteration, Jacobi eigendecomposition,
//! truncated SVD and conjugate gradients.
//!
//! These routines back three model-lake subsystems:
//! * **spectral fingerprints** — top singular values of weight matrices;
//! * **transform classification** — the effective rank of a weight delta
//!   separates LoRA (low rank) from full fine-tuning (full rank);
//! * **influence functions** — `H⁻¹ g` solves via conjugate gradients.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::rng::Pcg64;
use crate::vector;
use crate::Result;

/// Estimates the largest singular value of `a` by power iteration on `aᵀa`.
///
/// Converges quickly for the well-separated spectra typical of trained weight
/// matrices; `iters` around 30 is ample for fingerprinting purposes.
pub fn top_singular_value(a: &Matrix, iters: usize, rng: &mut Pcg64) -> Result<f32> {
    if a.is_empty() {
        return Ok(0.0);
    }
    let mut v = vec![0.0f32; a.cols()];
    rng.fill_normal(&mut v);
    vector::normalize(&mut v);
    let mut sigma = 0.0f32;
    for _ in 0..iters {
        // v <- normalize(aᵀ (a v))
        let av = a.matvec(&v)?;
        let atav = a.t_matvec(&av)?;
        let n = vector::l2_norm(&atav);
        if n == 0.0 {
            return Ok(0.0);
        }
        v = atav;
        vector::scale(&mut v, 1.0 / n);
        sigma = n.sqrt();
    }
    Ok(sigma)
}

/// Jacobi eigendecomposition of a small symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted descending
/// and eigenvectors as rows of the returned matrix. Errors if `a` is not
/// square. Intended for matrices up to a few hundred rows (Gram matrices of
/// probe batches, covariance of fingerprint features).
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> Result<(Vec<f32>, Matrix)> {
    if a.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "jacobi_eigen",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0)));
    }
    // Work in f64 for stability.
    let mut m: Vec<f64> = a.as_slice().iter().map(|&x| f64::from(x)).collect();
    let mut v: Vec<f64> = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let idx = |r: usize, c: usize| r * n + c;
    for _ in 0..max_sweeps {
        // Largest off-diagonal magnitude decides convergence.
        let mut off = 0.0f64;
        for r in 0..n {
            for c in (r + 1)..n {
                off = off.max(m[idx(r, c)].abs());
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[idx(p, q)];
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = m[idx(p, p)];
                let aqq = m[idx(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q.
                for k in 0..n {
                    let akp = m[idx(k, p)];
                    let akq = m[idx(k, q)];
                    m[idx(k, p)] = c * akp - s * akq;
                    m[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = m[idx(p, k)];
                    let aqk = m[idx(q, k)];
                    m[idx(p, k)] = c * apk - s * aqk;
                    m[idx(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp - s * vkq;
                    v[idx(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f32, usize)> = (0..n).map(|i| (m[idx(i, i)] as f32, i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let eigenvalues: Vec<f32> = pairs.iter().map(|&(e, _)| e).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, &(_, col)) in pairs.iter().enumerate() {
        for k in 0..n {
            vectors.set_at(row, k, v[idx(k, col)] as f32);
        }
    }
    Ok((eigenvalues, vectors))
}

/// Top-`k` singular values of `a` via Jacobi on the smaller Gram matrix.
///
/// Exact (up to Jacobi tolerance) rather than iterative, so suitable for the
/// rank analysis in transform classification where small singular values
/// matter. Cost is `O(min(r,c)³)` — keep the smaller dimension modest.
pub fn singular_values(a: &Matrix, k: usize) -> Result<Vec<f32>> {
    if a.is_empty() {
        return Ok(Vec::new());
    }
    let gram = if a.rows() <= a.cols() {
        // a aᵀ : rows × rows
        a.matmul(&a.transpose())?
    } else {
        a.transpose().matmul(a)?
    };
    let (eigs, _) = jacobi_eigen(&gram, 50)?;
    Ok(eigs
        .into_iter()
        .take(k)
        .map(|e| e.max(0.0).sqrt())
        .collect())
}

/// Effective rank: number of singular values ≥ `rel_tol · σ₁`.
pub fn effective_rank(a: &Matrix, rel_tol: f32) -> Result<usize> {
    let k = a.rows().min(a.cols());
    let svs = singular_values(a, k)?;
    let top = svs.first().copied().unwrap_or(0.0);
    if top <= 0.0 {
        return Ok(0);
    }
    Ok(svs.iter().filter(|&&s| s >= rel_tol * top).count())
}

/// Solves `A x = b` for symmetric positive-definite `A` by conjugate
/// gradients with Tikhonov damping `A + damping·I` (the standard trick for
/// influence functions where the Hessian may be ill-conditioned).
pub fn conjugate_gradient(
    a: &Matrix,
    b: &[f32],
    damping: f32,
    max_iters: usize,
    tol: f32,
) -> Result<Vec<f32>> {
    if a.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "conjugate_gradient",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    if a.rows() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "conjugate_gradient",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let apply = |x: &[f32]| -> Result<Vec<f32>> {
        let mut ax = a.matvec(x)?;
        vector::axpy(damping, x, &mut ax);
        Ok(ax)
    };
    cg_impl(apply, b, max_iters, tol)
}

/// The CG iteration over a fallible operator: lets [`conjugate_gradient`]
/// propagate `matvec` shape errors as typed [`TensorError`]s instead of
/// panicking mid-iteration.
fn cg_impl(
    apply: impl Fn(&[f32]) -> Result<Vec<f32>>,
    b: &[f32],
    max_iters: usize,
    tol: f32,
) -> Result<Vec<f32>> {
    let n = b.len();
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rs_old = f64::from(vector::dot(&r, &r));
    if rs_old.sqrt() <= f64::from(tol) {
        return Ok(x);
    }
    for _ in 0..max_iters {
        let ap = apply(&p)?;
        let p_ap = f64::from(vector::dot(&p, &ap));
        if p_ap <= 0.0 {
            // Not positive definite along p (or numerical breakdown):
            // return the best iterate so far rather than diverging.
            return Ok(x);
        }
        let alpha = (rs_old / p_ap) as f32;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        let rs_new = f64::from(vector::dot(&r, &r));
        if rs_new.sqrt() <= f64::from(tol) {
            return Ok(x);
        }
        let beta = (rs_new / rs_old) as f32;
        for (pi, &ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rs_old = rs_new;
    }
    Ok(x)
}

/// Solves the small dense system `A x = b` by Gaussian elimination with
/// partial pivoting. Errors on singular systems. For the small Hessians of
/// logistic models this is the exact baseline CG is compared against.
pub fn solve_dense(a: &Matrix, b: &[f32]) -> Result<Vec<f32>> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "solve_dense",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut aug: Vec<f64> = Vec::with_capacity(n * (n + 1));
    for (r, &rhs) in b.iter().enumerate() {
        for c in 0..n {
            aug.push(f64::from(a.at(r, c)));
        }
        aug.push(f64::from(rhs));
    }
    let w = n + 1;
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if aug[r * w + col].abs() > aug[pivot * w + col].abs() {
                pivot = r;
            }
        }
        if aug[pivot * w + col].abs() < 1e-12 {
            return Err(TensorError::Numerical("singular system in solve_dense"));
        }
        if pivot != col {
            for c in 0..w {
                aug.swap(col * w + c, pivot * w + c);
            }
        }
        let diag = aug[col * w + col];
        for r in (col + 1)..n {
            let factor = aug[r * w + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..w {
                aug[r * w + c] -= factor * aug[col * w + c];
            }
        }
    }
    let mut x = vec![0.0f64; n];
    for r in (0..n).rev() {
        let mut acc = aug[r * w + n];
        for c in (r + 1)..n {
            acc -= aug[r * w + c] * x[c];
        }
        x[r] = acc / aug[r * w + r];
    }
    Ok(x.into_iter().map(|v| v as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn top_singular_value_of_diagonal() {
        let a = m(2, 2, &[3.0, 0.0, 0.0, 1.0]);
        let mut rng = Pcg64::new(1);
        let s = top_singular_value(&a, 50, &mut rng).unwrap();
        assert!((s - 3.0).abs() < 1e-3, "sigma {s}");
    }

    #[test]
    fn jacobi_recovers_known_spectrum() {
        // Symmetric matrix with eigenvalues 5 and 1 (basis rotated 45°).
        let a = m(2, 2, &[3.0, 2.0, 2.0, 3.0]);
        let (eigs, vecs) = jacobi_eigen(&a, 30).unwrap();
        assert!((eigs[0] - 5.0).abs() < 1e-4);
        assert!((eigs[1] - 1.0).abs() < 1e-4);
        // Eigenvector rows are unit-norm.
        for r in 0..2 {
            let n = vector::l2_norm(vecs.row(r));
            assert!((n - 1.0).abs() < 1e-4);
        }
        // A v = λ v for the top pair.
        let av = a.matvec(vecs.row(0)).unwrap();
        for (x, &v) in av.iter().zip(vecs.row(0)) {
            assert!((x - eigs[0] * v).abs() < 1e-3);
        }
    }

    #[test]
    fn jacobi_rejects_non_square() {
        assert!(jacobi_eigen(&Matrix::zeros(2, 3), 10).is_err());
    }

    #[test]
    fn singular_values_of_rank_one() {
        // Outer product => exactly one nonzero singular value.
        let u = [1.0f32, 2.0];
        let v = [3.0f32, 0.0, 4.0];
        let a = Matrix::from_fn(2, 3, |r, c| u[r] * v[c]);
        let svs = singular_values(&a, 3).unwrap();
        let expected = vector::l2_norm(&u) * vector::l2_norm(&v);
        assert!((svs[0] - expected).abs() < 1e-3, "{svs:?}");
        assert!(svs[1].abs() < 1e-3);
    }

    #[test]
    fn effective_rank_separates_low_rank() {
        let mut rng = Pcg64::new(7);
        let full = Matrix::randn(8, 8, &mut rng);
        let u = Matrix::randn(8, 1, &mut rng);
        let v = Matrix::randn(1, 8, &mut rng);
        let low = u.matmul(&v).unwrap();
        assert_eq!(effective_rank(&low, 0.05).unwrap(), 1);
        assert!(effective_rank(&full, 0.01).unwrap() >= 6);
    }

    #[test]
    fn cg_matches_direct_solve() {
        let a = m(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let b = [1.0, 2.0, 3.0];
        let x_cg = conjugate_gradient(&a, &b, 0.0, 100, 1e-7).unwrap();
        let x_direct = solve_dense(&a, &b).unwrap();
        for (u, v) in x_cg.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-3, "{x_cg:?} vs {x_direct:?}");
        }
    }

    #[test]
    fn cg_with_damping_shrinks_solution() {
        let a = Matrix::identity(4);
        let b = [1.0, 1.0, 1.0, 1.0];
        let x0 = conjugate_gradient(&a, &b, 0.0, 50, 1e-7).unwrap();
        let x1 = conjugate_gradient(&a, &b, 1.0, 50, 1e-7).unwrap();
        assert!(vector::l2_norm(&x1) < vector::l2_norm(&x0));
        // (I + I) x = b => x = 0.5 b
        assert!((x1[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn solve_dense_detects_singular() {
        let a = m(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            solve_dense(&a, &[1.0, 2.0]),
            Err(TensorError::Numerical(_))
        ));
        assert!(solve_dense(&Matrix::zeros(2, 3), &[0.0, 0.0]).is_err());
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = Matrix::identity(3);
        let x = conjugate_gradient(&a, &[0.0, 0.0, 0.0], 0.0, 10, 1e-9).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
