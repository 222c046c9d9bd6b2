//! Dense row-major matrices.
//!
//! A deliberately small linear-algebra core: just what k-means, PCA and
//! the MLP's weight storage need. No BLAS, no SIMD heroics — the matrices
//! involved (thousands of rows, tens of columns) are small enough that
//! clarity wins. The MLP's forward passes do not go through
//! [`Matrix::matvec_into`]: they run the blocked kernel in
//! [`crate::mlp`], which reads each weight row as one slice and matches
//! the matvec's per-row accumulation order bit for bit.

use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use kodan_ml::matrix::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let v = m.matvec(&[1.0, 1.0]);
/// assert_eq!(v, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs rows");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs columns");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not `rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
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

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The underlying flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Allocation-free matrix-vector product into a caller-provided
    /// buffer (bit-identical to [`Matrix::matvec`] — same per-row
    /// accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (slot, row) in out.iter_mut().zip(self.iter_rows()) {
            *slot = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// Column means.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Column standard deviations (population).
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        let mut vars = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for ((var, v), m) in vars.iter_mut().zip(row).zip(&means) {
                *var += (v - m).powi(2);
            }
        }
        vars.iter().map(|v| (v / self.rows as f64).sqrt()).collect()
    }

    /// Covariance matrix of the columns (population).
    pub fn covariance(&self) -> Matrix {
        let means = self.column_means();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for row in self.iter_rows() {
            for i in 0..self.cols {
                let di = row[i] - means[i];
                for j in i..self.cols {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        let n = self.rows as f64;
        for i in 0..self.cols {
            for j in i..self.cols {
                cov[(i, j)] /= n;
                cov[(j, i)] = cov[(i, j)];
            }
        }
        cov
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "matrix {}x{}", self.rows, self.cols)?;
        for row in self.iter_rows().take(8) {
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.3}")).collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

impl Encode for Matrix {
    fn encode(&self, enc: &mut Enc) {
        // Dimensions first, then exactly rows*cols raw f64 bit patterns —
        // no redundant element count, so each matrix has one encoding.
        enc.usize(self.rows);
        enc.usize(self.cols);
        for &v in &self.data {
            enc.f64(v);
        }
    }
}

impl Decode for Matrix {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let rows = dec.usize()?;
        let cols = dec.usize()?;
        if rows == 0 || cols == 0 {
            return Err(WireError::InvalidValue("matrix dimension zero"));
        }
        let len = rows
            .checked_mul(cols)
            .ok_or(WireError::InvalidValue("matrix size overflow"))?;
        // 8 bytes per element: bound the allocation by the input actually
        // present before reserving anything.
        if len.checked_mul(8).is_none_or(|bytes| bytes > dec.remaining()) {
            return Err(WireError::Truncated);
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(dec.f64()?);
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn matvec_identity() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let v = vec![7.0, -2.0, 0.5];
        assert_eq!(m.matvec(&v), v);
    }

    #[test]
    fn column_statistics() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(m.column_means(), vec![2.0, 10.0]);
        let stds = m.column_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert!(stds[1].abs() < 1e-12);
    }

    #[test]
    fn covariance_of_correlated_columns() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                vec![x, 2.0 * x, -x]
            })
            .collect();
        let cov = Matrix::from_rows(&rows).covariance();
        // Var(2x) = 4 Var(x); Cov(x, -x) = -Var(x).
        assert!((cov[(1, 1)] - 4.0 * cov[(0, 0)]).abs() < 1e-9);
        assert!((cov[(0, 2)] + cov[(0, 0)]).abs() < 1e-9);
        // Symmetric.
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let m = Matrix::from_rows(&[
            vec![0.1, -0.2, 0.3],
            vec![1.5, 2.5, -3.5],
            vec![1e-9, 1e9, 1.0],
        ]);
        let v = [0.7, -0.11, 0.013];
        let mut out = vec![0.0; 3];
        m.matvec_into(&v, &mut out);
        assert_eq!(out, m.matvec(&v));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_matvec() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }
}
