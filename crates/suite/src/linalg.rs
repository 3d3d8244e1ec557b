//! A small dense linear-algebra kernel: Gaussian elimination with
//! partial pivoting, sized for traffic-equation systems (tens to a few
//! hundred stations).
//!
//! Open Jackson networks require solving `λ = γ + Rᵀλ`, i.e.
//! `(I − Rᵀ)·λ = γ` ([`crate::jackson`]). Keeping the solver local avoids
//! pulling a full linear-algebra dependency into the workspace.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix { rows: r, cols: c, data: rows.concat() }
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

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the square system `A·x = b` by Gaussian elimination with
/// partial pivoting. `a` is consumed as scratch space.
///
/// Returns `None` when a pivot smaller than `1e-12·max|A|` is
/// encountered (the system is singular).
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(mut a: Matrix, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    assert_eq!(b.len(), n, "rhs length mismatch");

    let scale = a.data.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    let tol = 1e-12 * scale;

    for col in 0..n {
        // Partial pivot: largest magnitude in this column at or below the
        // diagonal.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a[(r1, col)].abs().partial_cmp(&a[(r2, col)].abs()).expect("NaN in matrix")
            })
            .expect("non-empty range");
        if a[(pivot_row, col)].abs() <= tol {
            return None;
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = a[(col, j)];
                a[(col, j)] = a[(pivot_row, j)];
                a[(pivot_row, j)] = tmp;
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[(col, col)];
        for row in col + 1..n {
            let factor = a[(row, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = a[(col, j)];
                a[(row, j)] -= factor * v;
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for j in row + 1..n {
            acc -= a[(row, j)] * x[j];
        }
        x[row] = acc / a[(row, row)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let x = solve(Matrix::identity(3), vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_small_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry is zero; naive elimination would fail.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(a, vec![1.0, 2.0]), None);
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        // Deterministic pseudo-random fill.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 42u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => well-conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = solve(a.clone(), b.clone()).unwrap();
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
