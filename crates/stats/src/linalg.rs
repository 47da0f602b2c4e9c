//! Small dense linear algebra: row-major matrices, the Cholesky
//! factorization, symmetric positive-definite solves and inversion.
//!
//! The GLM engine solves normal equations `(XᵀWX) β = XᵀWz` whose
//! dimension equals the predictor count (≤ 10 in every analysis), so a
//! straightforward dense implementation is both sufficient and fast.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Error returned by factorizations and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not square where a square matrix is required.
    NotSquare,
    /// Dimensions of the operands do not agree.
    DimensionMismatch,
    /// The matrix is singular (or not positive definite for Cholesky).
    Singular,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare => f.write_str("matrix is not square"),
            LinalgError::DimensionMismatch => f.write_str("operand dimensions do not agree"),
            LinalgError::Singular => f.write_str("matrix is singular or not positive definite"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use hpcfail_stats::linalg::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
/// let x = a.solve_spd(&[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), hpcfail_stats::linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length must equal rows * cols"
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix, returning the lower-triangular factor `L`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input;
    /// [`LinalgError::Singular`] if the matrix is not positive definite.
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::Singular);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::cholesky`] errors, plus
    /// [`LinalgError::DimensionMismatch`] if `b.len() != rows`.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        // Backward substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of a symmetric positive-definite matrix via Cholesky,
    /// used for GLM covariance `(XᵀWX)⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates [`Matrix::cholesky`] errors.
    pub fn inverse_spd(&self) -> Result<Matrix, LinalgError> {
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve_spd(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    fn close_vec(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_and_indexing() {
        let i3 = identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.rows(), 3);
        assert!(i3.is_square());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 3, vec![1.5, -2.0, 0.3, 0.0, 4.0, 1.0]);
        let prod = a.matmul(&identity(3)).unwrap();
        assert_eq!(prod, a);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert_eq!(a.matmul(&b).unwrap_err(), LinalgError::DimensionMismatch);
    }

    #[test]
    fn matvec_known_result() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        close_vec(&a.matvec(&[1.0, 1.0]).unwrap(), &[3.0, 7.0], 1e-12);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn cholesky_known_factor() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
        let l = a.cholesky().unwrap();
        // L = [[2, 0], [1, 2]].
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        close_vec(&a.solve_spd(&b).unwrap(), &x_true, 1e-10);
    }

    #[test]
    fn inverse_spd_roundtrip() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]);
        let inv = a.inverse_spd().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn from_vec_layout() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
