//! GNN layers with cached forward state and explicit backward passes.

use dgcl_graph::CsrGraph;
use dgcl_tensor::{Activation, Matrix, XavierInit};

use crate::aggregate::{aggregate, aggregate_backward};

/// The three architectures evaluated in the paper (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// GCN: `h' = relu(mean_agg(h) W + b)`.
    Gcn,
    /// CommNet: `h' = tanh(h W_self + mean_agg(h) W_neigh)`.
    CommNet,
    /// GIN: `h' = W2 relu(((1 + eps) h + sum_agg(h)) W1 + b1) + b2`.
    Gin,
    /// GraphSAGE (mean variant, an extension beyond the paper's three):
    /// `h' = relu(concat(h, mean_agg(h)) W + b)`.
    Sage,
}

impl Architecture {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Gcn => "GCN",
            Architecture::CommNet => "CommNet",
            Architecture::Gin => "GIN",
            Architecture::Sage => "GraphSAGE",
        }
    }

    /// The neighbourhood aggregation this architecture uses.
    pub fn agg_kind(self) -> AggKind {
        match self {
            Architecture::Gin => AggKind::Sum,
            _ => AggKind::Mean,
        }
    }
}

/// The aggregation operator a layer applies over its neighbourhood —
/// what a communication backend must compute on the layer's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// `a_v = Σ_{u ∈ N(v)} h_u`.
    Sum,
    /// `a_v = (Σ_{u ∈ N(v)} h_u) / max(deg(v), 1)`; isolated vertices
    /// get zeros.
    Mean,
}

/// One GNN layer of any architecture, holding parameters, parameter
/// gradients and the forward cache needed for backward.
#[derive(Debug, Clone)]
pub struct Layer {
    arch: Architecture,
    fin: usize,
    fout: usize,
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
    grad_weights: Vec<Matrix>,
    grad_biases: Vec<Matrix>,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// Row count of the full visible input the forward pass consumed
    /// (local + remote). The combined [`Layer::backward`] sizes its
    /// gradient output by this; the split path never reads it.
    num_total: usize,
    /// Aggregated neighbourhood (local rows).
    agg: Matrix,
    /// Per-architecture intermediates.
    mids: Vec<Matrix>,
    /// Final output (local rows).
    output: Matrix,
    num_local: usize,
}

/// GIN's fixed epsilon (not learned in this reproduction).
const GIN_EPS: f32 = 0.1;

impl Layer {
    /// Creates a layer with Xavier-initialised parameters drawn from
    /// `init`.
    pub fn new(arch: Architecture, fin: usize, fout: usize, init: &mut XavierInit) -> Self {
        let (weights, biases): (Vec<Matrix>, Vec<Matrix>) = match arch {
            Architecture::Gcn => (vec![init.weight(fin, fout)], vec![Matrix::zeros(1, fout)]),
            Architecture::CommNet => (
                vec![init.weight(fin, fout), init.weight(fin, fout)],
                vec![Matrix::zeros(1, fout)],
            ),
            Architecture::Gin => (
                vec![init.weight(fin, fout), init.weight(fout, fout)],
                vec![Matrix::zeros(1, fout), Matrix::zeros(1, fout)],
            ),
            Architecture::Sage => (
                vec![init.weight(2 * fin, fout)],
                vec![Matrix::zeros(1, fout)],
            ),
        };
        let grad_weights = weights
            .iter()
            .map(|w| Matrix::zeros(w.rows(), w.cols()))
            .collect();
        let grad_biases = biases
            .iter()
            .map(|b| Matrix::zeros(b.rows(), b.cols()))
            .collect();
        Self {
            arch,
            fin,
            fout,
            weights,
            biases,
            grad_weights,
            grad_biases,
            cache: None,
        }
    }

    /// Input feature width.
    pub fn fin(&self) -> usize {
        self.fin
    }

    /// Output feature width.
    pub fn fout(&self) -> usize {
        self.fout
    }

    /// The architecture of this layer.
    pub fn arch(&self) -> Architecture {
        self.arch
    }

    /// Read-only view of the parameters (weights then biases).
    pub fn parameters(&self) -> Vec<&Matrix> {
        self.weights.iter().chain(self.biases.iter()).collect()
    }

    /// Overwrites the parameters (weights then biases, the order
    /// [`Layer::parameters`] returns). The checkpoint/restore path uses
    /// this to load a snapshot bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the count or shapes do not match.
    pub fn set_parameters(&mut self, params: &[Matrix]) {
        let n_w = self.weights.len();
        assert_eq!(params.len(), n_w + self.biases.len(), "parameter count");
        for (dst, src) in self
            .weights
            .iter_mut()
            .chain(self.biases.iter_mut())
            .zip(params)
        {
            assert_eq!(dst.shape(), src.shape(), "parameter shape");
            *dst = src.clone();
        }
    }

    /// Read-only view of the accumulated parameter gradients.
    pub fn gradients(&self) -> Vec<&Matrix> {
        self.grad_weights
            .iter()
            .chain(self.grad_biases.iter())
            .collect()
    }

    /// Overwrites the accumulated gradients (used by the distributed
    /// runtime to install allreduced gradients before stepping).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match.
    pub fn set_gradients(&mut self, grads: &[Matrix]) {
        let n_w = self.grad_weights.len();
        assert_eq!(grads.len(), n_w + self.grad_biases.len(), "gradient count");
        for (dst, src) in self
            .grad_weights
            .iter_mut()
            .chain(self.grad_biases.iter_mut())
            .zip(grads)
        {
            assert_eq!(dst.shape(), src.shape(), "gradient shape");
            *dst = src.clone();
        }
    }

    /// Forward pass: consumes the full visible embedding matrix `h`
    /// (local rows first, then remote) and produces outputs for the first
    /// `num_local` rows. Caches everything backward needs.
    ///
    /// # Panics
    ///
    /// Panics if `h.cols() != fin` or `num_local > h.rows()`.
    pub fn forward(&mut self, adj: &CsrGraph, h: &Matrix, num_local: usize) -> Matrix {
        assert_eq!(h.cols(), self.fin, "input width mismatch");
        assert!(num_local <= h.rows(), "num_local exceeds input rows");
        let agg = aggregate(self.arch.agg_kind(), adj, h, num_local);
        self.update(h, agg)
    }

    /// Forward pass with the aggregation already computed — the update
    /// half of the layer, used by the distributed backends (which own
    /// the communication that produces `agg`).
    ///
    /// `h_local` holds only the device's own rows; `agg` is the
    /// corresponding aggregated neighbourhood (see
    /// [`Architecture::agg_kind`]). Caches everything
    /// [`Layer::backward_agg`] needs.
    ///
    /// # Panics
    ///
    /// Panics if the widths mismatch or `agg` has a different row count
    /// than `h_local`.
    pub fn forward_agg(&mut self, h_local: &Matrix, agg: Matrix) -> Matrix {
        assert_eq!(h_local.cols(), self.fin, "input width mismatch");
        assert_eq!(agg.cols(), self.fin, "aggregation width mismatch");
        assert_eq!(agg.rows(), h_local.rows(), "aggregation row mismatch");
        self.update(h_local, agg)
    }

    /// [`Layer::forward_agg`] over the aggregate the last forward cached:
    /// the forward of a layer whose input rows `h_local` and their
    /// aggregate do not change between calls (layer 0 over the raw
    /// features). The aggregate is neither recomputed nor copied; the
    /// outputs are the bits `forward_agg(h_local, agg)` returns.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run or `h_local` does not match the
    /// cached aggregate's shape.
    pub fn forward_again(&mut self, h_local: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("a forward before forward_again");
        assert_eq!(h_local.shape(), cache.agg.shape(), "input shape mismatch");
        self.update(h_local, cache.agg)
    }

    /// `UPDATE(h_v, a_v)` for the `agg.rows()` local vertices, whose own
    /// rows lead `h`; rows of `h` past them (remote ones) are never read,
    /// and GCN, which has no self path, reads none. Each product runs
    /// with its bias and activation fused into its store
    /// ([`Matrix::matmul_fused`]), which keeps the bits of the product,
    /// broadcast add and activation done one after another.
    fn update(&mut self, h: &Matrix, agg: Matrix) -> Matrix {
        let num_local = agg.rows();
        let (w, b) = (&self.weights, &self.biases);
        let (mids, output) = match self.arch {
            Architecture::Gcn => (
                vec![],
                agg.matmul_fused(&w[0], None, &b[0], Activation::Relu),
            ),
            Architecture::CommNet => {
                // `h W0 + agg W1`, the self product first.
                let h_local = h.head_rows(num_local);
                let own = h_local.matmul(&w[0]);
                let out = agg.matmul_fused(&w[1], Some(&own), &b[0], Activation::Tanh);
                (vec![h_local], out)
            }
            Architecture::Gin => {
                let mut s = h.head_rows(num_local);
                s.scale_assign(1.0 + GIN_EPS);
                s.add_assign(&agg);
                let r = s.matmul_fused(&w[0], None, &b[0], Activation::Relu);
                let out = r.matmul_fused(&w[1], None, &b[1], Activation::Identity);
                (vec![s, r], out)
            }
            Architecture::Sage => {
                let s = h.head_rows(num_local).hstack(&agg);
                let out = s.matmul_fused(&w[0], None, &b[0], Activation::Relu);
                (vec![s], out)
            }
        };
        // The caller owns the returned output; the backward pass reads the
        // activation's derivative from this copy.
        self.cache = Some(Cache {
            num_total: h.rows(),
            agg,
            mids,
            output: output.clone(),
            num_local,
        });
        output
    }

    /// Backward pass: given the gradient of the loss with respect to this
    /// layer's output (local rows), accumulates parameter gradients and
    /// returns the gradient with respect to the *full visible input*
    /// (local + remote rows; remote rows carry the gradients the backward
    /// allgather must deliver to their owners).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or with a mismatched
    /// gradient shape.
    pub fn backward(&mut self, adj: &CsrGraph, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("forward before backward");
        let num_total = cache.num_total;
        let num_local = cache.num_local;
        let (grad_agg, direct) = self.backward_agg(grad_out);
        let mut grad_h = aggregate_backward(self.arch.agg_kind(), adj, &grad_agg, num_total);
        if let Some(direct) = direct {
            for v in 0..num_local {
                for (g, &x) in grad_h.row_mut(v).iter_mut().zip(direct.row(v)) {
                    *g += x;
                }
            }
        }
        grad_h
    }

    /// Backward pass up to (but not through) the aggregation: accumulates
    /// parameter gradients and returns `(grad_agg, direct)` where
    /// `grad_agg` is the gradient with respect to the aggregated
    /// neighbourhood (local rows — the backend scatters it through the
    /// adjacency transpose) and `direct` is the architecture's skip-path
    /// gradient to add onto the device's own rows afterwards (`None` for
    /// GCN, which has no skip path).
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass or with a mismatched
    /// gradient shape.
    pub fn backward_agg(&mut self, grad_out: &Matrix) -> (Matrix, Option<Matrix>) {
        let grad_z = self.backward_dense(grad_out);
        match self.arch {
            Architecture::Gcn => (grad_z.matmul_nt(&self.weights[0]), None),
            Architecture::CommNet => {
                let grad_agg = grad_z.matmul_nt(&self.weights[1]);
                let grad_local = grad_z.matmul_nt(&self.weights[0]);
                (grad_agg, Some(grad_local))
            }
            Architecture::Gin => {
                let grad_s = grad_z.matmul_nt(&self.weights[0]);
                let direct = grad_s.scale(1.0 + GIN_EPS);
                (grad_s, Some(direct))
            }
            Architecture::Sage => {
                let grad_s = grad_z.matmul_nt(&self.weights[0]);
                let (grad_local, grad_agg) = grad_s.split_cols(self.fin);
                (grad_agg, Some(grad_local))
            }
        }
    }

    /// [`Layer::backward_agg`] for a layer whose input does not learn
    /// (the first layer, over raw features): accumulates the same
    /// parameter gradients and computes no input gradient.
    ///
    /// # Panics
    ///
    /// See [`Layer::backward_agg`].
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        self.backward_dense(grad_out);
    }

    /// The parameter half of the backward pass: activation backward and
    /// parameter-gradient accumulation. Returns the gradient at the
    /// output of the linear map that consumed the layer's input — all
    /// the input-gradient half needs.
    fn backward_dense(&mut self, grad_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("forward before backward");
        assert_eq!(
            grad_out.shape(),
            cache.output.shape(),
            "output gradient shape mismatch"
        );
        match self.arch {
            Architecture::Gcn => {
                let grad_z = activation_backward(
                    Activation::Relu,
                    &cache.output,
                    grad_out.clone(),
                    &mut self.grad_biases[0],
                );
                self.grad_weights[0].add_assign(&cache.agg.matmul_tn(&grad_z));
                grad_z
            }
            Architecture::CommNet => {
                let grad_z = activation_backward(
                    Activation::Tanh,
                    &cache.output,
                    grad_out.clone(),
                    &mut self.grad_biases[0],
                );
                let h_local = &cache.mids[0];
                self.grad_weights[0].add_assign(&h_local.matmul_tn(&grad_z));
                self.grad_weights[1].add_assign(&cache.agg.matmul_tn(&grad_z));
                grad_z
            }
            Architecture::Gin => {
                let s = &cache.mids[0];
                let r = &cache.mids[1];
                // out = r W2 + b2.
                self.grad_weights[1].add_assign(&r.matmul_tn(grad_out));
                self.grad_biases[1].add_assign(&grad_out.sum_rows());
                let grad_z1 = activation_backward(
                    Activation::Relu,
                    r,
                    grad_out.matmul_nt(&self.weights[1]),
                    &mut self.grad_biases[0],
                );
                self.grad_weights[0].add_assign(&s.matmul_tn(&grad_z1));
                grad_z1
            }
            Architecture::Sage => {
                let s = &cache.mids[0];
                let grad_z = activation_backward(
                    Activation::Relu,
                    &cache.output,
                    grad_out.clone(),
                    &mut self.grad_biases[0],
                );
                self.grad_weights[0].add_assign(&s.matmul_tn(&grad_z));
                grad_z
            }
        }
    }

    /// SGD step: `p -= lr * grad`, then clears the gradients.
    pub fn step(&mut self, lr: f32) {
        for (w, g) in self.weights.iter_mut().chain(self.biases.iter_mut()).zip(
            self.grad_weights
                .iter_mut()
                .chain(self.grad_biases.iter_mut()),
        ) {
            w.axpy(-lr, g);
            g.scale_assign(0.0);
        }
    }
}

/// The gradient at an activation's input from the gradient `grad` at its
/// `output`, in place, with the bias gradient `grad_bias` gaining the
/// result's column sums. The sums are formed in a fresh zero row and
/// then added, as `sum_rows` then `add_assign` do: summing the rows
/// straight into `grad_bias` would be another order of additions, which
/// rounds differently, and a `-0.0` there would survive a zero column
/// that `-0.0 + 0.0` turns into `+0.0`.
fn activation_backward(
    act: Activation,
    output: &Matrix,
    mut grad: Matrix,
    grad_bias: &mut Matrix,
) -> Matrix {
    grad_bias.add_assign(&act.backward_sum_rows(output, &mut grad));
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::GraphBuilder;

    fn ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.add_edge(v, ((v + 1) as usize % n) as u32);
        }
        b.build_symmetric()
    }

    fn finite_difference_check(arch: Architecture) {
        // Numerical gradient check on a small ring graph.
        let g = ring(5);
        let mut init = XavierInit::new(3);
        let mut layer = Layer::new(arch, 4, 3, &mut init);
        let h = init.features(5, 4);
        let out = layer.forward(&g, &h, 5);
        // Loss = 0.5 * ||out||^2, so grad_out = out.
        let grad_h = layer.backward(&g, &out.clone());
        let eps = 1e-2f32;
        // Probe a few input coordinates.
        for &(r, c) in &[(0usize, 0usize), (2, 1), (4, 3)] {
            let mut hp = h.clone();
            hp[(r, c)] += eps;
            let mut lp = Layer::new(arch, 4, 3, &mut XavierInit::new(3));
            let op = lp.forward(&g, &hp, 5);
            let mut hm = h.clone();
            hm[(r, c)] -= eps;
            let mut lm = Layer::new(arch, 4, 3, &mut XavierInit::new(3));
            let om = lm.forward(&g, &hm, 5);
            let fd = (om.norm_sq() * 0.5 - op.norm_sq() * 0.5) / (-2.0 * eps);
            let analytic = grad_h[(r, c)];
            assert!(
                (fd - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "{arch:?} grad mismatch at ({r},{c}): fd {fd} vs {analytic}"
            );
        }
    }

    #[test]
    fn gcn_gradients_match_finite_differences() {
        finite_difference_check(Architecture::Gcn);
    }

    #[test]
    fn commnet_gradients_match_finite_differences() {
        finite_difference_check(Architecture::CommNet);
    }

    #[test]
    fn gin_gradients_match_finite_differences() {
        finite_difference_check(Architecture::Gin);
    }

    #[test]
    fn sage_gradients_match_finite_differences() {
        finite_difference_check(Architecture::Sage);
    }

    #[test]
    fn sage_weight_shape_covers_concat() {
        let mut init = XavierInit::new(9);
        let layer = Layer::new(Architecture::Sage, 5, 3, &mut init);
        assert_eq!(layer.parameters()[0].shape(), (10, 3));
    }

    #[test]
    fn forward_only_outputs_local_rows() {
        let g = ring(6);
        let mut init = XavierInit::new(1);
        let mut layer = Layer::new(Architecture::Gcn, 2, 2, &mut init);
        let h = init.features(6, 2);
        let out = layer.forward(&g, &h, 4);
        assert_eq!(out.rows(), 4);
    }

    #[test]
    fn backward_produces_full_width_gradient() {
        let g = ring(6);
        let mut init = XavierInit::new(2);
        let mut layer = Layer::new(Architecture::Gin, 2, 2, &mut init);
        let h = init.features(6, 2);
        let out = layer.forward(&g, &h, 4);
        let grad = layer.backward(&g, &out);
        assert_eq!(grad.rows(), 6);
        assert!(grad.all_finite());
    }

    /// A layer of `arch` after a forward pass over a 6-ring with 4 local
    /// rows, and an output gradient for it.
    fn after_forward(arch: Architecture) -> (Layer, Matrix) {
        let g = ring(6);
        let mut init = XavierInit::new(11);
        let mut layer = Layer::new(arch, 3, 2, &mut init);
        let h = init.features(6, 3);
        let agg = aggregate(arch.agg_kind(), &g, &h, 4);
        layer.forward_agg(&h.head_rows(4), agg);
        (layer, init.features(4, 2))
    }

    const ARCHS: [Architecture; 4] = [
        Architecture::Gcn,
        Architecture::CommNet,
        Architecture::Gin,
        Architecture::Sage,
    ];

    #[test]
    fn forward_equals_aggregate_then_forward_agg() {
        // The whole layer over a graph is AGGREGATE then the update of the
        // local rows, bit for bit: outputs, input gradients (remote rows
        // included) and parameter gradients.
        let g = ring(6);
        for arch in ARCHS {
            let mut init = XavierInit::new(13);
            let mut whole = Layer::new(arch, 3, 2, &mut init);
            let mut split = whole.clone();
            let (h, grad_out) = (init.features(6, 3), init.features(4, 2));
            let out = whole.forward(&g, &h, 4);
            let agg = aggregate(arch.agg_kind(), &g, &h, 4);
            assert_eq!(split.forward_agg(&h.head_rows(4), agg), out, "{arch:?}");
            let grad_h = whole.backward(&g, &grad_out);
            let (grad_agg, direct) = split.backward_agg(&grad_out);
            let mut want = aggregate_backward(arch.agg_kind(), &g, &grad_agg, 6);
            if let Some(direct) = direct {
                want = want.add(&direct.vstack(&Matrix::zeros(2, 3)));
            }
            assert_eq!(grad_h, want, "{arch:?}");
            assert_eq!(whole.gradients(), split.gradients(), "{arch:?}");
            let remote = [grad_h.row(4), grad_h.row(5)].concat();
            assert!(remote.iter().any(|&x| x != 0.0), "{arch:?}: remote rows");
        }
    }

    #[test]
    fn forward_again_reruns_forward_agg_on_the_cached_aggregate() {
        let g = ring(6);
        for arch in ARCHS {
            let mut init = XavierInit::new(17);
            let mut again = Layer::new(arch, 3, 2, &mut init);
            let mut fresh = again.clone();
            let h = init.features(4, 3);
            let agg = aggregate(arch.agg_kind(), &g, &init.features(6, 3), 4);
            again.forward_agg(&h, agg.clone());
            let grad_out = init.features(4, 2);
            again.backward_params(&grad_out);
            again.step(0.5);
            fresh.forward_agg(&h, agg.clone());
            fresh.backward_params(&grad_out);
            fresh.step(0.5);
            // Same parameters, so the same bits and the same cached state.
            assert_eq!(
                again.forward_again(&h),
                fresh.forward_agg(&h, agg),
                "{arch:?}"
            );
            again.backward_params(&grad_out);
            fresh.backward_params(&grad_out);
            assert_eq!(again.gradients(), fresh.gradients(), "{arch:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a forward before forward_again")]
    fn forward_again_needs_a_forward() {
        let mut layer = Layer::new(Architecture::Gcn, 3, 2, &mut XavierInit::new(1));
        layer.forward_again(&Matrix::zeros(4, 3));
    }

    #[test]
    fn backward_params_leaves_the_gradients_backward_agg_leaves() {
        for arch in ARCHS {
            let (mut full, grad_out) = after_forward(arch);
            let mut params_only = full.clone();
            // Twice: both entries accumulate.
            for _ in 0..2 {
                full.backward_agg(&grad_out);
                params_only.backward_params(&grad_out);
                assert_eq!(full.gradients(), params_only.gradients(), "{arch:?}");
            }
            assert!(full.gradients().iter().all(|g| g.norm_sq() > 0.0));
        }
    }

    #[test]
    fn backward_agg_input_gradients_match_the_unsplit_arithmetic() {
        // No skip path: GCN.
        let (mut layer, grad_out) = after_forward(Architecture::Gcn);
        let cache = layer.cache.clone().expect("forward ran");
        let grad_z = Activation::Relu.backward(&cache.output, &grad_out);
        let want = grad_z.matmul_nt(&layer.weights[0]);
        assert_eq!(layer.backward_agg(&grad_out), (want, None));
        // Skip path through two linear maps: GIN.
        let (mut layer, grad_out) = after_forward(Architecture::Gin);
        let cache = layer.cache.clone().expect("forward ran");
        let grad_r = grad_out.matmul_nt(&layer.weights[1]);
        let grad_z1 = Activation::Relu.backward(&cache.mids[1], &grad_r);
        let grad_s = grad_z1.matmul_nt(&layer.weights[0]);
        let direct = grad_s.scale(1.0 + GIN_EPS);
        assert_eq!(layer.backward_agg(&grad_out), (grad_s, Some(direct)));
    }

    #[test]
    fn step_moves_parameters_and_clears_gradients() {
        let g = ring(4);
        let mut init = XavierInit::new(5);
        let mut layer = Layer::new(Architecture::Gcn, 3, 3, &mut init);
        let h = init.features(4, 3);
        let out = layer.forward(&g, &h, 4);
        layer.backward(&g, &out);
        let before = layer.parameters()[0].clone();
        layer.step(0.1);
        assert_ne!(*layer.parameters()[0], before);
        assert!(layer.gradients().iter().all(|g| g.norm_sq() == 0.0));
    }

    #[test]
    fn gradient_additivity_across_row_splits() {
        // The parameter gradient of the whole graph equals the sum over a
        // row split — the property distributed data-parallel training
        // relies on.
        let g = ring(6);
        let mut init = XavierInit::new(7);
        let h = init.features(6, 3);
        let make = || Layer::new(Architecture::Gcn, 3, 2, &mut XavierInit::new(7));

        let mut full = make();
        let out = full.forward(&g, &h, 6);
        full.backward(&g, &out);
        let full_grad = full.gradients()[0].clone();

        // Split: rows 0..3 and 3..6 computed by two replicas. Loss is a
        // per-vertex sum, so grad_out rows match the full run's rows.
        let mut a = make();
        let out_a = a.forward(&g, &h, 6);
        let mut grad_a = out_a.clone();
        for v in 3..6 {
            for x in grad_a.row_mut(v) {
                *x = 0.0;
            }
        }
        a.backward(&g, &grad_a);
        let mut bl = make();
        let out_b = bl.forward(&g, &h, 6);
        let mut grad_b = out_b.clone();
        for v in 0..3 {
            for x in grad_b.row_mut(v) {
                *x = 0.0;
            }
        }
        bl.backward(&g, &grad_b);
        let sum = a.gradients()[0].add(bl.gradients()[0]);
        assert!(
            full_grad.max_abs_diff(&sum) < 1e-4,
            "split gradients do not add up"
        );
    }
}
