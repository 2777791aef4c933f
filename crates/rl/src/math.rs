//! Minimal dense linear algebra for the controller and the surrogate
//! regressor.
//!
//! The networks are tiny (one LSTM cell + one linear head, hidden size
//! ≈ 64), so a row-major `Vec<f64>` matrix with hand-written kernels is
//! faster than any external dependency would be worth. The `_into` kernels
//! write into caller-owned buffers, so hot loops allocate nothing.
//!
//! Every kernel keeps one fixed summation order: a dot product runs from
//! 0.0 over its index in ascending order, and an accumulated entry takes its
//! terms in call order. Loop forms and blocking vary only across
//! independent outputs, never within one sum, so results are bit-identical
//! whichever form a kernel picks for a shape.

use rand::Rng;

/// Output columns the blocked kernels ([`Matrix::matvec_transpose_into`],
/// [`Matrix::add_outers`]) keep in registers at once.
const COL_BLOCK: usize = 16;

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use codesign_rl::math::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix with entries drawn uniformly from `[-scale, scale]`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-scale..=scale);
        }
        m
    }

    /// Xavier/Glorot-style initialization for a layer with the given fan-in.
    #[must_use]
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        Self::uniform(rows, cols, scale, rng)
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-owned `y`. Each entry is one dot product
    /// summed from 0.0 over the columns in ascending order.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for (yr, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
    }

    /// `y = Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != rows`.
    #[must_use]
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut y);
        y
    }

    /// `y = Aᵀ·x` into a caller-owned `y`. Entry `c` is summed from 0.0
    /// over the rows in ascending order.
    ///
    /// Matrices of 16 rows or more keep 16 outputs in registers while they
    /// stream the rows; short ones update `y` row by row. Both forms add the
    /// same terms in the same order.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != rows` or `y.len() != cols`.
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_transpose dimension mismatch");
        assert_eq!(
            y.len(),
            self.cols,
            "matvec_transpose output dimension mismatch"
        );
        let rows = self.data.chunks_exact(self.cols);
        let blocked = if self.rows >= COL_BLOCK {
            self.cols - self.cols % COL_BLOCK
        } else {
            0
        };
        for c0 in (0..blocked).step_by(COL_BLOCK) {
            let mut acc = [0.0; COL_BLOCK];
            for (row, &xr) in rows.clone().zip(x) {
                let a: &[f64; COL_BLOCK] = row[c0..c0 + COL_BLOCK]
                    .try_into()
                    .expect("block lies inside the row");
                for (s, v) in acc.iter_mut().zip(a) {
                    *s += v * xr;
                }
            }
            y[c0..c0 + COL_BLOCK].copy_from_slice(&acc);
        }
        let tail = &mut y[blocked..];
        tail.fill(0.0);
        for (row, &xr) in rows.zip(x) {
            for (yc, a) in tail.iter_mut().zip(&row[blocked..]) {
                *yc += a * xr;
            }
        }
    }

    /// Rank-1 accumulation `A += col · rowᵀ` (gradient of `A·x` products).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_outer(&mut self, col: &[f64], row: &[f64]) {
        assert_eq!(col.len(), self.rows, "add_outer row count mismatch");
        assert_eq!(row.len(), self.cols, "add_outer col count mismatch");
        for (dst, &cr) in self.data.chunks_exact_mut(self.cols).zip(col) {
            for (d, x) in dst.iter_mut().zip(row) {
                *d += cr * x;
            }
        }
    }

    /// Sum of rank-1 updates `A += Σₛ colₛ · rowₛᵀ`, where `colₛ` is row `s`
    /// of the row-major `cols` (`n × rows`) and `rowₛ` row `s` of `rows`
    /// (`n × cols`). Every entry receives its terms in the order `steps`
    /// yields them, exactly as a sequence of [`Matrix::add_outer`] calls
    /// would add them, but each row of `A` is finished before the next.
    ///
    /// # Panics
    ///
    /// Panics when `cols` or `rows` is not a whole number of rows, or a
    /// step is out of range.
    pub fn add_outers<I>(&mut self, cols: &[f64], rows: &[f64], steps: I)
    where
        I: Iterator<Item = usize> + Clone,
    {
        assert_eq!(cols.len() % self.rows, 0, "add_outers column-set shape");
        assert_eq!(rows.len() % self.cols, 0, "add_outers row-set shape");
        let (nr, nc) = (self.rows, self.cols);
        let blocked = nc - nc % COL_BLOCK;
        for (r, dst) in self.data.chunks_exact_mut(nc).enumerate() {
            for c0 in (0..blocked).step_by(COL_BLOCK) {
                let acc: &mut [f64; COL_BLOCK] = (&mut dst[c0..c0 + COL_BLOCK])
                    .try_into()
                    .expect("block lies inside the row");
                let mut regs = *acc;
                for s in steps.clone() {
                    let cr = cols[s * nr + r];
                    let src = &rows[s * nc + c0..s * nc + c0 + COL_BLOCK];
                    for (d, x) in regs.iter_mut().zip(src) {
                        *d += cr * x;
                    }
                }
                *acc = regs;
            }
            let tail = &mut dst[blocked..];
            for s in steps.clone() {
                let cr = cols[s * nr + r];
                for (d, x) in tail.iter_mut().zip(&rows[s * nc + blocked..(s + 1) * nc]) {
                    *d += cr * x;
                }
            }
        }
    }

    /// Flat parameter view.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable parameter view (used by optimizers).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Numerically stable softmax over `logits`, ignoring entries where
/// `mask[i]` is `false` (their probability is exactly 0).
///
/// # Panics
///
/// Panics when no entry is unmasked or lengths differ.
///
/// # Examples
///
/// ```
/// use codesign_rl::math::masked_softmax;
///
/// let p = masked_softmax(&[1.0, 1.0, 1000.0], &[true, true, false]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert_eq!(p[2], 0.0);
/// ```
#[must_use]
pub fn masked_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    let mut out = logits.to_vec();
    masked_softmax_in_place(&mut out, mask);
    out
}

/// [`masked_softmax`] over `values` in place: on return `values` holds the
/// probabilities.
///
/// # Panics
///
/// Panics when no entry is unmasked or lengths differ.
pub fn masked_softmax_in_place(values: &mut [f64], mask: &[bool]) {
    assert_eq!(values.len(), mask.len(), "mask length mismatch");
    let max = values
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&l, _)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max.is_finite(),
        "softmax needs at least one unmasked finite logit"
    );
    let mut denom = 0.0;
    for (v, &m) in values.iter_mut().zip(mask) {
        if m {
            *v = (*v - max).exp();
            denom += *v;
        } else {
            *v = 0.0;
        }
    }
    for v in values.iter_mut() {
        *v /= denom;
    }
}

/// Shannon entropy of a (partially zero) probability vector, in nats.
#[must_use]
pub fn entropy(probs: &[f64]) -> f64 {
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>()
}

/// Element-wise sigmoid.
#[must_use]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn transpose_matvec_agrees_with_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // m^T = [[1,3,5],[2,4,6]]
        assert_eq!(m.matvec_transpose(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn add_outer_accumulates_rank1() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[1.0, 10.0, 100.0]);
        assert_eq!(m.row(0), &[1.0, 10.0, 100.0]);
        assert_eq!(m.row(1), &[2.0, 20.0, 200.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dimensions() {
        let m = Matrix::zeros(2, 2);
        let _ = m.matvec(&[1.0]);
    }

    #[test]
    fn xavier_scale_shrinks_with_size() {
        let mut rng = SmallRng::seed_from_u64(0);
        let small = Matrix::xavier(4, 4, &mut rng);
        let large = Matrix::xavier(256, 256, &mut rng);
        let max_small = small.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let max_large = large.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_large < max_small);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = masked_softmax(&[0.0, 1.0, 2.0], &[true, true, true]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = masked_softmax(&[0.0, 1.0], &[true, true]);
        let b = masked_softmax(&[1000.0, 1001.0], &[true, true]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_entries_get_zero_probability() {
        let p = masked_softmax(&[5.0, 5.0, 5.0], &[true, false, true]);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unmasked")]
    fn all_masked_panics() {
        let _ = masked_softmax(&[1.0], &[false]);
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let h = entropy(&[0.25; 4]);
        assert!((h - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }
}
