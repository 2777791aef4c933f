//! Neural-network layers with manual forward/backward passes.
//!
//! The controller is "a single LSTM cell followed by a linear layer" (§II-A,
//! after [Zoph & Le 2016]). Everything here is written from scratch with
//! explicit gradients; `tests` include finite-difference checks of every
//! layer, and the policy-level gradient check lives in [`crate::policy`].

use rand::Rng;

use crate::math::{sigmoid, Matrix};

/// A fully-connected layer `y = W·x + b` with gradient accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights, `out × in`.
    pub w: Matrix,
    /// Bias, `out`.
    pub b: Vec<f64>,
    /// Weight gradient accumulator.
    pub dw: Matrix,
    /// Bias gradient accumulator.
    pub db: Vec<f64>,
}

impl Linear {
    /// Xavier-initialized layer.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        Self {
            w: Matrix::xavier(outputs, inputs, rng),
            b: vec![0.0; outputs],
            dw: Matrix::zeros(outputs, inputs),
            db: vec![0.0; outputs],
        }
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.b.len()];
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a caller-owned `y`.
    pub fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        self.w.matvec_into(x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
    }

    /// Accumulates the weight and bias gradients of one sample with output
    /// gradient `dy`. The input gradient, when a caller needs it, is
    /// `w.matvec_transpose_into(dy, dx)`.
    pub fn accumulate(&mut self, x: &[f64], dy: &[f64]) {
        self.dw.add_outer(dy, x);
        for (g, d) in self.db.iter_mut().zip(dy) {
            *g += d;
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dw.fill_zero();
        self.db.fill(0.0);
    }
}

/// A learned lookup table mapping token ids to vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// `vocab × dim` table.
    pub table: Matrix,
    /// Gradient accumulator.
    pub dtable: Matrix,
}

impl Embedding {
    /// Uniformly-initialized table.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            table: Matrix::uniform(vocab, dim, 0.1, rng),
            dtable: Matrix::zeros(vocab, dim),
        }
    }

    /// The embedding vector of `id`.
    #[must_use]
    pub fn forward(&self, id: usize) -> &[f64] {
        self.table.row(id)
    }

    /// Accumulates the gradient flowing into `id`'s row.
    pub fn backward(&mut self, id: usize, dvec: &[f64]) {
        for (g, d) in self.dtable.row_mut(id).iter_mut().zip(dvec) {
            *g += d;
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dtable.fill_zero();
    }
}

/// A single LSTM cell with gradient accumulators.
///
/// Gate layout in the stacked weight matrices is `[i, f, g, o]`. One step
/// records `5·hidden` values for its backward pass: the `[i, f, g, o]` gate
/// activations followed by `tanh(c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmCell {
    /// Input weights, `4H × I`.
    pub wx: Matrix,
    /// Recurrent weights, `4H × H`.
    pub wh: Matrix,
    /// Bias, `4H` (forget-gate chunk initialized to 1 for gradient flow).
    pub b: Vec<f64>,
    /// Input weight gradients.
    pub dwx: Matrix,
    /// Recurrent weight gradients.
    pub dwh: Matrix,
    /// Bias gradients.
    pub db: Vec<f64>,
    hidden: usize,
}

impl LstmCell {
    /// New cell with `inputs`-dimensional input and `hidden`-dimensional state.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(inputs: usize, hidden: usize, rng: &mut R) -> Self {
        let mut b = vec![0.0; 4 * hidden];
        // Standard trick: forget-gate bias starts at 1.
        b[hidden..2 * hidden].fill(1.0);
        Self {
            wx: Matrix::xavier(4 * hidden, inputs, rng),
            wh: Matrix::xavier(4 * hidden, hidden, rng),
            b,
            dwx: Matrix::zeros(4 * hidden, inputs),
            dwh: Matrix::zeros(4 * hidden, hidden),
            db: vec![0.0; 4 * hidden],
            hidden,
        }
    }

    /// State dimensionality.
    #[must_use]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Length of one step's record: `5·hidden`.
    #[must_use]
    pub fn record_len(&self) -> usize {
        5 * self.hidden
    }

    /// One step. On entry `h` and `c` hold the previous state; on return
    /// the new one. The step's gate activations and `tanh(c)` go to
    /// `record` (`5·hidden`); `zh` is `4·hidden` of scratch.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward_into(
        &self,
        x: &[f64],
        h: &mut [f64],
        c: &mut [f64],
        record: &mut [f64],
        zh: &mut [f64],
    ) {
        let hsz = self.hidden;
        assert_eq!(record.len(), 5 * hsz, "LSTM record length");
        let (z, tanh_c) = record.split_at_mut(4 * hsz);
        self.wx.matvec_into(x, z);
        self.wh.matvec_into(h, zh);
        for ((a, b), c) in z.iter_mut().zip(zh.iter()).zip(&self.b) {
            *a += b + c;
        }
        let (i, rest) = z.split_at_mut(hsz);
        let (f, rest) = rest.split_at_mut(hsz);
        let (g, o) = rest.split_at_mut(hsz);
        for k in 0..hsz {
            i[k] = sigmoid(i[k]);
            f[k] = sigmoid(f[k]);
            g[k] = g[k].tanh();
            o[k] = sigmoid(o[k]);
            c[k] = f[k] * c[k] + i[k] * g[k];
            tanh_c[k] = c[k].tanh();
            h[k] = o[k] * tanh_c[k];
        }
    }

    /// Backward through one step's gates. `dh` is the gradient flowing
    /// into the step's `h`; `dc` holds the gradient into its `c` on entry
    /// and the gradient into `c_prev` on return. Writes the gate
    /// pre-activation gradient to `dz` (`4·hidden`), which
    /// [`LstmCell::accumulate_steps`] turns into weight gradients and
    /// `wxᵀ·dz` / `whᵀ·dz` into input and state gradients.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gate_grads(
        &self,
        record: &[f64],
        c_prev: &[f64],
        dh: &[f64],
        dc: &mut [f64],
        dz: &mut [f64],
    ) {
        let hsz = self.hidden;
        assert_eq!(record.len(), 5 * hsz, "LSTM record length");
        assert_eq!(dz.len(), 4 * hsz, "LSTM gate-gradient length");
        let (gates, tanh_c) = record.split_at(4 * hsz);
        let (i, rest) = gates.split_at(hsz);
        let (f, rest) = rest.split_at(hsz);
        let (g, o) = rest.split_at(hsz);
        let (dzi, rest) = dz.split_at_mut(hsz);
        let (dzf, rest) = rest.split_at_mut(hsz);
        let (dzg, dzo) = rest.split_at_mut(hsz);
        for k in 0..hsz {
            let tc = tanh_c[k];
            let do_ = dh[k] * tc;
            let dck = dc[k] + dh[k] * o[k] * (1.0 - tc * tc);
            let di = dck * g[k];
            let df = dck * c_prev[k];
            let dg = dck * i[k];
            dc[k] = dck * f[k];
            dzi[k] = di * i[k] * (1.0 - i[k]);
            dzf[k] = df * f[k] * (1.0 - f[k]);
            dzg[k] = dg * (1.0 - g[k] * g[k]);
            dzo[k] = do_ * o[k] * (1.0 - o[k]);
        }
    }

    /// Accumulates the weight and bias gradients of a run of steps. Row
    /// `s` of `dzs` (`n × 4H`), `xs` (`n × I`) and `h_prevs` (`n × H`) is
    /// step `s`'s gate gradient, input and previous hidden state; every
    /// gradient entry takes the steps' terms in the order `steps` yields.
    pub fn accumulate_steps<I>(&mut self, dzs: &[f64], xs: &[f64], h_prevs: &[f64], steps: I)
    where
        I: Iterator<Item = usize> + Clone,
    {
        self.dwx.add_outers(dzs, xs, steps.clone());
        self.dwh.add_outers(dzs, h_prevs, steps.clone());
        let width = self.db.len();
        for s in steps {
            for (g, d) in self.db.iter_mut().zip(&dzs[s * width..(s + 1) * width]) {
                *g += d;
            }
        }
    }

    /// Clears gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.dwx.fill_zero();
        self.dwh.fill_zero();
        self.db.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const EPS: f64 = 1e-5;
    const TOL: f64 = 1e-6;

    #[test]
    fn linear_gradcheck() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = vec![0.3, -0.7, 0.2];
        // Loss: sum of outputs squared.
        let dy: Vec<f64> = {
            let y = layer.forward(&x);
            y.iter().map(|v| 2.0 * v).collect()
        };
        layer.zero_grad();
        layer.accumulate(&x, &dy);
        let dx = layer.w.matvec_transpose(&dy);
        // Check weight gradients.
        for r in 0..2 {
            for c in 0..3 {
                let orig = layer.w.get(r, c);
                let eval = |v: f64| {
                    let mut l2 = layer.clone();
                    l2.w.set(r, c, v);
                    let y = l2.forward(&x);
                    y.iter().map(|u| u * u).sum::<f64>()
                };
                let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
                assert!(
                    (layer.dw.get(r, c) - num).abs() < TOL,
                    "dW[{r},{c}] analytic {} vs numeric {}",
                    layer.dw.get(r, c),
                    num
                );
            }
        }
        // Check input gradient.
        for k in 0..3 {
            let eval = |v: f64| {
                let mut x2 = x.clone();
                x2[k] = v;
                let y = layer.forward(&x2);
                y.iter().map(|u| u * u).sum::<f64>()
            };
            let num = (eval(x[k] + EPS) - eval(x[k] - EPS)) / (2.0 * EPS);
            assert!((dx[k] - num).abs() < TOL, "dx[{k}] {} vs {}", dx[k], num);
        }
    }

    #[test]
    fn embedding_gradient_goes_to_selected_row() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut e = Embedding::new(5, 3, &mut rng);
        e.backward(2, &[1.0, 2.0, 3.0]);
        assert_eq!(e.dtable.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(e.dtable.row(0), &[0.0, 0.0, 0.0]);
    }

    /// One step from `(h0, c0)`: returns `(h, c, record)`.
    fn step(cell: &LstmCell, x: &[f64], h0: &[f64], c0: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (mut h, mut c) = (h0.to_vec(), c0.to_vec());
        let mut record = vec![0.0; cell.record_len()];
        let mut zh = vec![0.0; 4 * cell.hidden()];
        cell.forward_into(x, &mut h, &mut c, &mut record, &mut zh);
        (h, c, record)
    }

    #[test]
    fn lstm_forward_state_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cell = LstmCell::new(4, 8, &mut rng);
        let (h, _, _) = step(&cell, &[1.0, -1.0, 0.5, 2.0], &[0.0; 8], &[0.0; 8]);
        assert!(
            h.iter().all(|v| v.abs() <= 1.0),
            "h = o*tanh(c) is in [-1,1]"
        );
    }

    #[test]
    fn lstm_gradcheck_weights_and_inputs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut cell = LstmCell::new(3, 4, &mut rng);
        let x = vec![0.5, -0.3, 0.8];
        let h0 = vec![0.1, -0.2, 0.3, 0.05];
        let c0 = vec![0.2, 0.1, -0.1, 0.4];
        // Loss: sum(h) + 0.5*sum(c).
        let loss_of = |cell: &LstmCell, x: &[f64], h0: &[f64], c0: &[f64]| {
            let (h, c, _) = step(cell, x, h0, c0);
            h.iter().sum::<f64>() + 0.5 * c.iter().sum::<f64>()
        };
        let (_, _, record) = step(&cell, &x, &h0, &c0);
        cell.zero_grad();
        let mut dc0 = vec![0.5; 4];
        let mut dz = vec![0.0; 16];
        cell.gate_grads(&record, &c0, &[1.0; 4], &mut dc0, &mut dz);
        cell.accumulate_steps(&dz, &x, &h0, 0..1);
        let dx = cell.wx.matvec_transpose(&dz);
        let dh0 = cell.wh.matvec_transpose(&dz);

        // Spot-check a grid of weight entries in wx and wh.
        for (r, c) in [(0, 0), (3, 2), (5, 1), (9, 0), (13, 2), (15, 1)] {
            let orig = cell.wx.get(r, c);
            let eval = |v: f64| {
                let mut c2 = cell.clone();
                c2.wx.set(r, c, v);
                loss_of(&c2, &x, &h0, &c0)
            };
            let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
            assert!(
                (cell.dwx.get(r, c) - num).abs() < TOL,
                "dwx[{r},{c}] {} vs {}",
                cell.dwx.get(r, c),
                num
            );
        }
        for (r, c) in [(0, 0), (7, 3), (10, 2), (14, 1)] {
            let orig = cell.wh.get(r, c);
            let eval = |v: f64| {
                let mut c2 = cell.clone();
                c2.wh.set(r, c, v);
                loss_of(&c2, &x, &h0, &c0)
            };
            let num = (eval(orig + EPS) - eval(orig - EPS)) / (2.0 * EPS);
            assert!(
                (cell.dwh.get(r, c) - num).abs() < TOL,
                "dwh[{r},{c}] {} vs {}",
                cell.dwh.get(r, c),
                num
            );
        }
        // Input and state gradients.
        for k in 0..3 {
            let eval = |v: f64| {
                let mut x2 = x.clone();
                x2[k] = v;
                loss_of(&cell, &x2, &h0, &c0)
            };
            let num = (eval(x[k] + EPS) - eval(x[k] - EPS)) / (2.0 * EPS);
            assert!((dx[k] - num).abs() < TOL, "dx[{k}]");
        }
        for k in 0..4 {
            let eval_h = |v: f64| {
                let mut h2 = h0.clone();
                h2[k] = v;
                loss_of(&cell, &x, &h2, &c0)
            };
            let num_h = (eval_h(h0[k] + EPS) - eval_h(h0[k] - EPS)) / (2.0 * EPS);
            assert!(
                (dh0[k] - num_h).abs() < TOL,
                "dh0[{k}] {} vs {}",
                dh0[k],
                num_h
            );
            let eval_c = |v: f64| {
                let mut c2 = c0.clone();
                c2[k] = v;
                loss_of(&cell, &x, &h0, &c2)
            };
            let num_c = (eval_c(c0[k] + EPS) - eval_c(c0[k] - EPS)) / (2.0 * EPS);
            assert!(
                (dc0[k] - num_c).abs() < TOL,
                "dc0[{k}] {} vs {}",
                dc0[k],
                num_c
            );
        }
    }

    #[test]
    fn forget_bias_starts_at_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cell = LstmCell::new(2, 3, &mut rng);
        assert!(cell.b[3..6].iter().all(|&v| v == 1.0));
        assert!(cell.b[0..3].iter().all(|&v| v == 0.0));
    }
}
