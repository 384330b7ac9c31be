//! Row-major dense `f32` matrix.

use crate::error::TensorError;
use crate::rng::Pcg64;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Row block size for the cache-blocked matmul: rows of the left operand
/// that reuse one L2-resident panel of the right operand.
const MC: usize = 64;
/// Depth panel size for the cache-blocked matmul: with typical column
/// counts in this workspace (≤ a few hundred) a `KC × cols` f32 panel of
/// the right operand stays within L2.
const KC: usize = 256;

/// Accumulates `orow += a0·b0 + a1·b1` in one pass: two independent
/// multiply-add chains per output element for the auto-vectorizer, and
/// half the passes over `orow` compared with two separate saxpys.
#[inline]
fn saxpy2(orow: &mut [f32], a0: f32, b0: &[f32], a1: f32, b1: &[f32]) {
    for ((o, &x0), &x1) in orow.iter_mut().zip(b0).zip(b1) {
        *o += a0 * x0 + a1 * x1;
    }
}

/// One depth panel `[kb, kend)` of an output row: `orow += arow[kb..kend] · b`.
#[inline]
fn matmul_panel(arow: &[f32], b: &[f32], orow: &mut [f32], kb: usize, kend: usize, n: usize) {
    let mut k = kb;
    while k + 1 < kend {
        let (a0, a1) = (arow[k], arow[k + 1]);
        if a0 == 0.0 && a1 == 0.0 {
            k += 2;
            continue;
        }
        saxpy2(
            orow,
            a0,
            &b[k * n..(k + 1) * n],
            a1,
            &b[(k + 1) * n..(k + 2) * n],
        );
        k += 2;
    }
    if k < kend {
        let a0 = arow[k];
        if a0 != 0.0 {
            for (o, &x) in orow.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                *o += a0 * x;
            }
        }
    }
}

/// Pointer wrapper for provably disjoint cross-thread writes (see `gram`).
struct SendPtr(*mut f32);
// SAFETY: every user writes only to row blocks it exclusively owns (the
// parallel tiling partitions the output), so shared access never aliases.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// A dense, row-major `f32` matrix.
///
/// This is the universal carrier for model parameters `θ`, datasets `D`,
/// activation batches and fingerprint embeddings throughout the workspace.
/// Operations that can fail on shapes return [`Result`]; infallible panicking
/// variants are deliberately not offered so that ingestion pipelines degrade
/// gracefully on malformed artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows; all rows must share a length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::Empty("from_rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::BadBuffer {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Fills a new matrix by calling `f(row, col)` per element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Standard-normal random matrix (used for JL sketches and init).
    pub fn randn(rows: usize, cols: usize, rng: &mut Pcg64) -> Self {
        let mut data = vec![0.0; rows * cols];
        rng.fill_normal(&mut data);
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access with bounds checking.
    pub fn get(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::OutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Unchecked-by-contract element access; panics only in debug builds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets one element with bounds checking.
    pub fn set(&mut self, r: usize, c: usize, v: f32) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::OutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        self.data[r * self.cols + c] = v;
        Ok(())
    }

    /// In-place element update without bounds checks in release builds.
    #[inline]
    pub fn set_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self · rhs`.
    ///
    /// Cache-blocked and parallel: the row dimension is split across the
    /// shared pool (each output row is produced entirely by one thread)
    /// and the depth dimension is tiled in [`KC`]-sized panels so the
    /// active slab of `rhs` stays in L2 while a block of output rows
    /// reuses it. Within a row the panel microkernel consumes two depth
    /// steps per pass ([`saxpy2`]), giving two independent FMA chains for
    /// the auto-vectorizer. Per output element the accumulation order is
    /// a function of the shapes alone — never of the thread count — so
    /// results are bit-identical for any `MLAKE_THREADS`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        if m == 0 || k == 0 || n == 0 {
            return Ok(out);
        }
        // Rows per parallel chunk: aim for ≥ ~32k MACs per unit of work so
        // small products never pay scheduling overhead, cap at the L2 row
        // block size.
        let rows_per_chunk = (32_768 / (k * n).max(1)).clamp(1, MC);
        let a = &self.data;
        let b = &rhs.data;
        mlake_par::par_chunks_mut(&mut out.data, rows_per_chunk * n, |ci, chunk| {
            let i0 = ci * rows_per_chunk;
            let mut kb = 0;
            while kb < k {
                let kend = (kb + KC).min(k);
                for (di, orow) in chunk.chunks_exact_mut(n).enumerate() {
                    let arow = &a[(i0 + di) * k..(i0 + di + 1) * k];
                    matmul_panel(arow, b, orow, kb, kend, n);
                }
                kb = kend;
            }
        });
        Ok(out)
    }

    /// Reference single-threaded ikj matrix product (the seed kernel).
    ///
    /// Kept for the equivalence property tests and benchmarks; produces
    /// the same result as [`Matrix::matmul`] up to floating-point
    /// reassociation of the depth sum.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · x` (row-parallel for tall matrices).
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let grain = (16_384 / self.cols.max(1)).max(1);
        Ok(mlake_par::par_map_index(self.rows, grain, |r| {
            crate::vector::dot(self.row(r), x)
        }))
    }

    /// Transposed-matrix–vector product `selfᵀ · x`.
    ///
    /// Parallelized as a fixed-block map-reduce over row panels: partial
    /// `selfᵀ·x` vectors per block of [`KC`] rows, folded in block order,
    /// so the result is bit-identical across thread counts.
    pub fn t_matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "t_matvec",
                lhs: (self.cols, self.rows),
                rhs: (x.len(), 1),
            });
        }
        let cols = self.cols;
        let folded = mlake_par::par_map_reduce(
            self.rows,
            KC,
            |range| {
                let mut partial = vec![0.0f32; cols];
                for r in range {
                    let xv = x[r];
                    if xv == 0.0 {
                        continue;
                    }
                    for (o, &m) in partial.iter_mut().zip(self.row(r)) {
                        *o += xv * m;
                    }
                }
                partial
            },
            |mut acc, block| {
                for (o, &p) in acc.iter_mut().zip(&block) {
                    *o += p;
                }
                acc
            },
        );
        Ok(folded.unwrap_or_else(|| vec![0.0; cols]))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place `self += alpha * rhs` (the workhorse of SGD updates).
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Matrix {
        self.map(|x| x * scalar)
    }

    /// In-place scalar multiply.
    pub fn scale_mut(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Applies `f` element-wise into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::vector::l2_norm(&self.data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| f64::from(x)).sum::<f64>() as f32
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Per-column means as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f64; self.cols];
        for row in self.rows_iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += f64::from(v);
            }
        }
        let n = self.rows.max(1) as f64;
        means.into_iter().map(|m| (m / n) as f32).collect()
    }

    /// Centers columns in place (subtracts the column mean).
    pub fn center_cols(&mut self) {
        let means = self.col_means();
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, m) in row.iter_mut().zip(&means) {
                *v -= m;
            }
        }
    }

    /// Gathers the given rows (with repetition allowed) into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::OutOfBounds {
                    index: (i, 0),
                    shape: self.shape(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Stacks two matrices vertically.
    pub fn vstack(&self, below: &Matrix) -> Result<Matrix> {
        if self.cols != below.cols {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: below.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&below.data);
        Ok(Matrix {
            rows: self.rows + below.rows,
            cols: self.cols,
            data,
        })
    }

    /// Gram matrix `self · selfᵀ` (used by CKA).
    ///
    /// Parallel over the rows of the upper triangle; each `(i, j)` pair
    /// with `j ≥ i` is computed once by the owner of row `i`, which also
    /// writes the mirror cell `(j, i)`.
    pub fn gram(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        let grain = (16_384 / (self.cols.max(1) * n.max(1)).max(1)).max(1);
        let ptr = SendPtr(out.data.as_mut_ptr());
        mlake_par::par_for(n, grain, |range| {
            let base = &ptr;
            for i in range {
                for j in i..n {
                    let v = crate::vector::dot(self.row(i), self.row(j));
                    // SAFETY: cell (r, c) is written only by the thread
                    // owning row min(r, c); row ranges are disjoint, so no
                    // two threads touch the same cell.
                    unsafe {
                        base.0.add(i * n + j).write(v);
                        base.0.add(j * n + i).write(v);
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_slice;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn constructors_validate() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let id = Matrix::identity(3);
        assert_eq!(id.at(0, 0), 1.0);
        assert_eq!(id.at(0, 1), 0.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert!(approx_eq_slice(c.as_slice(), &[58.0, 64.0, 139.0, 154.0], 1e-5));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.5, -2.0, 0.25, 3.0]);
        let c = a.matmul(&Matrix::identity(2)).unwrap();
        assert!(approx_eq_slice(a.as_slice(), c.as_slice(), 1e-6));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_t_matvec_agree_with_matmul() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = vec![1.0, 0.5, -1.0];
        let y = a.matvec(&x).unwrap();
        assert!(approx_eq_slice(&y, &[-1.0, 0.5], 1e-5));
        let z = a.t_matvec(&[1.0, -1.0]).unwrap();
        assert!(approx_eq_slice(&z, &[-3.0, -3.0, -3.0], 1e-5));
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.t_matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert!(approx_eq_slice(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0], 0.0));
        assert!(approx_eq_slice(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0], 0.0));
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let g = m(1, 2, &[2.0, -4.0]);
        a.axpy(-0.5, &g).unwrap();
        assert!(approx_eq_slice(a.as_slice(), &[0.0, 3.0], 1e-6));
    }

    #[test]
    fn norms_and_means() {
        let a = m(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((a.mean() - 1.75).abs() < 1e-6);
        assert!(approx_eq_slice(&a.col_means(), &[1.5, 2.0], 1e-6));
    }

    #[test]
    fn center_cols_zeroes_means() {
        let mut a = m(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        a.center_cols();
        let means = a.col_means();
        assert!(means.iter().all(|m| m.abs() < 1e-5));
    }

    #[test]
    fn row_col_accessors() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
        assert!(a.get(2, 0).is_err());
        assert!(a.get(0, 3).is_err());
        assert_eq!(a.get(1, 2).unwrap(), 6.0);
    }

    #[test]
    fn slicing_and_selection() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sel = a.select_rows(&[2, 0, 2]).unwrap();
        assert_eq!(sel.row(0), &[5.0, 6.0]);
        assert_eq!(sel.row(1), &[1.0, 2.0]);
        assert!(a.select_rows(&[3]).is_err());
    }

    #[test]
    fn vstack_concatenates() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = a.vstack(&b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = m(2, 3, &[1.0, 0.0, 2.0, -1.0, 1.0, 0.0]);
        let g = a.gram();
        assert_eq!(g.shape(), (2, 2));
        assert!((g.at(0, 1) - g.at(1, 0)).abs() < 1e-6);
        assert!(g.at(0, 0) >= 0.0 && g.at(1, 1) >= 0.0);
        assert!((g.at(0, 0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn serde_round_trip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn from_fn_layout() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.row(1), &[10.0, 11.0, 12.0]);
    }
}
