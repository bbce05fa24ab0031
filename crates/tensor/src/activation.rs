//! Activation functions and their derivatives.

use crate::Matrix;

/// Point-wise activation functions used by the GNN layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// The identity function (no non-linearity).
    Identity,
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.apply(out.as_mut_slice());
        out
    }

    /// Applies the activation to `xs` in place, element by element: the
    /// one statement of each rule, which [`Activation::forward`] and the
    /// fused `matmul` epilogue ([`Matrix::matmul_fused`]) both run, so a
    /// fused layer keeps the bits of the unfused one. ReLU clamps with
    /// `v < 0.0`, which keeps `-0.0` and NaN as they are.
    #[inline]
    pub(crate) fn apply(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                // A select, not a conditional store, so that it compiles
                // to a branch-free blend on a register row.
                for v in xs {
                    *v = if *v < 0.0 { 0.0 } else { *v };
                }
            }
            Activation::Tanh => {
                for v in xs {
                    *v = v.tanh();
                }
            }
            Activation::Sigmoid => {
                for v in xs {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
    }

    /// Gradient of the activation with respect to its input.
    ///
    /// `output` must be the value returned by [`Activation::forward`] for the
    /// same input; the derivative is expressed in terms of the output, which
    /// is exact for all supported activations.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn backward(self, output: &Matrix, upstream: &Matrix) -> Matrix {
        assert_eq!(
            output.shape(),
            upstream.shape(),
            "activation backward shape mismatch"
        );
        let mut grad = upstream.clone();
        self.mask(output.as_slice(), grad.as_mut_slice());
        grad
    }

    /// [`Activation::backward`] in place on an owned gradient, fused with
    /// [`Matrix::sum_rows`] of the result: one pass over `grad` applies the
    /// derivative to each row and adds the row into the column sums, which
    /// it returns as a fresh `1 x cols` row. Each element of `grad` and of
    /// the sums sees the operations of the two unfused calls, in their
    /// order, so the bits are theirs.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn backward_sum_rows(self, output: &Matrix, grad: &mut Matrix) -> Matrix {
        assert_eq!(
            output.shape(),
            grad.shape(),
            "activation backward shape mismatch"
        );
        let cols = grad.cols();
        let mut sums = Matrix::zeros(1, cols);
        if cols == 0 {
            return sums;
        }
        let sums_row = sums.as_mut_slice();
        for (g_row, o_row) in grad
            .as_mut_slice()
            .chunks_exact_mut(cols)
            .zip(output.as_slice().chunks_exact(cols))
        {
            self.mask(o_row, g_row);
            for (s, &g) in sums_row.iter_mut().zip(g_row.iter()) {
                *s += g;
            }
        }
        sums
    }

    /// Multiplies `grad` in place by the derivative at `output`, element
    /// by element (ReLU zeroes where `o <= 0.0`, by a select for the same
    /// reason as [`Activation::apply`]'s).
    fn mask(self, output: &[f32], grad: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &o) in grad.iter_mut().zip(output) {
                    *g = if o <= 0.0 { 0.0 } else { *g };
                }
            }
            Activation::Tanh => {
                for (g, &o) in grad.iter_mut().zip(output) {
                    *g *= 1.0 - o * o;
                }
            }
            Activation::Sigmoid => {
                for (g, &o) in grad.iter_mut().zip(output) {
                    *g *= o * (1.0 - o);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Matrix::from_rows(&[&[-1.0, 3.0]]);
        let y = Activation::Relu.forward(&x);
        let up = Matrix::from_rows(&[&[5.0, 5.0]]);
        let g = Activation::Relu.backward(&y, &up);
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_is_bounded() {
        let x = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]);
        let y = Activation::Sigmoid.forward(&x);
        assert!(y.as_slice()[0] < 1e-6);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.3]]);
        let y = Activation::Tanh.forward(&x);
        let up = Matrix::from_rows(&[&[1.0]]);
        let g = Activation::Tanh.backward(&y, &up);
        let eps = 1e-3;
        let xp = Matrix::from_rows(&[&[0.3 + eps]]);
        let xm = Matrix::from_rows(&[&[0.3 - eps]]);
        let fd = (Activation::Tanh.forward(&xp).as_slice()[0]
            - Activation::Tanh.forward(&xm).as_slice()[0])
            / (2.0 * eps);
        assert!((g.as_slice()[0] - fd).abs() < 1e-4);
    }

    #[test]
    fn identity_is_a_no_op() {
        let x = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(Activation::Identity.forward(&x), x);
    }
}
