//! Minimal dense linear algebra for the model-fitting pipeline.
//!
//! The training problems in this reproduction are small (hundreds of jobs
//! by a few hundred features), so a straightforward row-major matrix with
//! cache-friendly mat-vec products is all that is needed — pulling in a
//! full linear-algebra crate would be out of proportion.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix whose rows are the given slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_row_iter<'a, I>(cols: usize, rows: I) -> Matrix
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut data = Vec::new();
        let mut n = 0;
        for r in rows {
            assert_eq!(r.len(), cols, "row length mismatch");
            data.extend_from_slice(r);
            n += 1;
        }
        Matrix {
            rows: n,
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The matrix of columns `cols` of `self`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * cols.len());
        for r in 0..self.rows {
            let row = self.row(r);
            data.extend(cols.iter().map(|&c| row[c]));
        }
        Matrix {
            rows: self.rows,
            cols: cols.len(),
            data,
        }
    }

    /// `out = self * v`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(r), v);
        }
    }

    /// `out = selfᵀ * v`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_t(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows);
        assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (r, &s) in v.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += s * x;
            }
        }
    }

    /// Largest eigenvalue of `selfᵀ * self`, estimated by power iteration.
    /// Returns 0 for an all-zero matrix.
    pub fn gram_spectral_norm(&self, iterations: usize) -> f64 {
        if self.cols == 0 || self.rows == 0 {
            return 0.0;
        }
        let mut v = vec![1.0 / (self.cols as f64).sqrt(); self.cols];
        let mut xv = vec![0.0; self.rows];
        let mut xtxv = vec![0.0; self.cols];
        let mut lambda = 0.0;
        for _ in 0..iterations {
            self.matvec(&v, &mut xv);
            self.matvec_t(&xv, &mut xtxv);
            let norm = norm2(&xtxv);
            if norm == 0.0 {
                return 0.0;
            }
            lambda = norm;
            for (vi, xi) in v.iter_mut().zip(&xtxv) {
                *vi = xi / norm;
            }
        }
        lambda
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_transpose_agree_with_hand_calc() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 2];
        m.matvec(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
        let mut tout = vec![0.0; 3];
        m.matvec_t(&[1.0, 1.0], &mut tout);
        assert_eq!(tout, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn select_columns_keeps_the_given_order() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = m.select_columns(&[2, 0]);
        assert_eq!((s.rows(), s.cols()), (2, 2));
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn spectral_norm_of_identityish() {
        let m = Matrix::from_rows(2, 2, vec![2.0, 0.0, 0.0, 1.0]);
        let l = m.gram_spectral_norm(50);
        assert!((l - 4.0).abs() < 1e-6, "got {l}");
    }

    #[test]
    fn spectral_norm_of_zero_matrix() {
        let m = Matrix::zeros(3, 2);
        assert_eq!(m.gram_spectral_norm(10), 0.0);
    }

    #[test]
    fn from_row_iter_builds() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Matrix::from_row_iter(2, rows.iter().map(|r| r.as_slice()));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_rows_validates_length() {
        Matrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }
}
