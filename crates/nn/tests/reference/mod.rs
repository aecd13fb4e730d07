//! The seed's `Matrix`-based training path, frozen as the reference the
//! scratch-based step ([`dt_nn::Mlp::forward_train`] /
//! [`dt_nn::Mlp::backward`]) is compared against bit for bit: one fresh
//! `Matrix` per layer, cached inputs and pre-activations, textbook
//! products. It left production with the PR that introduced
//! `TrainScratch`; nothing but tests may use it. `dt-proposal`'s
//! old-vs-new trainer test includes this file by path.

#![allow(dead_code)]

use dt_nn::{log_softmax_masked, Activation, Matrix, Mlp};

/// `Activation::forward` as it was: element-wise over a fresh matrix.
pub fn act_forward(act: Activation, x: &Matrix) -> Matrix {
    match act {
        Activation::Identity => x.clone(),
        _ => x.map(|v| act.apply(v)),
    }
}

/// `Activation::backward` as it was: `grad_in = grad_out ⊙ f'(preact)`.
pub fn act_backward(act: Activation, preact: &Matrix, grad_out: &Matrix) -> Matrix {
    let mut g = grad_out.clone();
    match act {
        Activation::Relu => {
            for (gv, &p) in g.data_mut().iter_mut().zip(preact.data()) {
                if p <= 0.0 {
                    *gv = 0.0;
                }
            }
        }
        Activation::Tanh => {
            for (gv, &p) in g.data_mut().iter_mut().zip(preact.data()) {
                let t = p.tanh();
                *gv *= 1.0 - t * t;
            }
        }
        Activation::Identity => {}
    }
    g
}

/// `Linear` as it was, input cache included.
pub struct RefLinear {
    pub w: Matrix,
    pub b: Vec<f64>,
    pub gw: Matrix,
    pub gb: Vec<f64>,
    input_cache: Option<Matrix>,
}

impl RefLinear {
    fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_transpose_b(&self.w);
        y.add_row_broadcast(&self.b);
        self.input_cache = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .input_cache
            .as_ref()
            .expect("backward called before forward_train");
        // dW = dYᵀ · X ; db = colsum(dY) ; dX = dY · W
        self.gw.add_assign(&grad_out.transpose_a_matmul(x));
        for (g, s) in self.gb.iter_mut().zip(grad_out.column_sums()) {
            *g += s;
        }
        grad_out.matmul(&self.w)
    }
}

/// `Mlp`'s training half as it was.
pub struct RefMlp {
    pub layers: Vec<RefLinear>,
    hidden_act: Activation,
    out_act: Activation,
    preacts: Vec<Matrix>,
}

impl RefMlp {
    /// A reference network with `mlp`'s weights *and* current gradient
    /// accumulators.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        RefMlp {
            layers: mlp
                .layers()
                .iter()
                .map(|l| RefLinear {
                    w: l.w.clone(),
                    b: l.b.clone(),
                    gw: l.gw.clone(),
                    gb: l.gb.clone(),
                    input_cache: None,
                })
                .collect(),
            hidden_act: mlp.hidden_activation(),
            out_act: mlp.output_activation(),
            preacts: Vec::new(),
        }
    }

    fn act(&self, i: usize) -> Activation {
        if i + 1 == self.layers.len() {
            self.out_act
        } else {
            self.hidden_act
        }
    }

    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        self.preacts.clear();
        let mut h = x.clone();
        for i in 0..self.layers.len() {
            let pre = self.layers[i].forward_train(&h);
            h = act_forward(self.act(i), &pre);
            self.preacts.push(pre);
        }
        h
    }

    /// Returns the gradient with respect to the input batch, which the
    /// production step no longer forms.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert_eq!(
            self.preacts.len(),
            self.layers.len(),
            "backward called before forward_train"
        );
        let mut grad = grad_out.clone();
        for i in (0..self.layers.len()).rev() {
            let g_pre = act_backward(self.act(i), &self.preacts[i], &grad);
            grad = self.layers[i].backward(&g_pre);
        }
        grad
    }

    /// `Linear::zero_grad` as it is: a scale by zero, which keeps the
    /// sign of a zero and a NaN.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.gw.scale(0.0);
            for g in &mut l.gb {
                *g = 0.0;
            }
        }
    }
}

/// `mse_loss` as it was: `(loss, dL/d_pred)` over matrices.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let n = pred.data().len() as f64;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// `softmax_cross_entropy_masked_flat` as it was: a fresh gradient matrix
/// and a `Vec` of log-probabilities per row.
pub fn softmax_cross_entropy_masked_flat(
    logits: &Matrix,
    targets: &[usize],
    masks: &[bool],
) -> (f64, Matrix) {
    let (rows, cols) = (logits.rows(), logits.cols());
    assert_eq!(rows, targets.len(), "target count mismatch");
    assert_eq!(masks.len(), rows * cols, "flat mask length mismatch");
    let mut grad = Matrix::zeros(rows, cols);
    let mut loss = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let logp = log_softmax_masked(logits.row(r), Some(&masks[r * cols..(r + 1) * cols]));
        loss -= logp[t];
        let g_row = grad.row_mut(r);
        for (c, &lp) in logp.iter().enumerate() {
            if lp == f64::NEG_INFINITY {
                g_row[c] = 0.0;
            } else {
                let p = lp.exp();
                g_row[c] = (p - f64::from(u8::from(c == t))) / rows as f64;
            }
        }
    }
    (loss / rows as f64, grad)
}
