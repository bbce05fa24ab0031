//! Layer oracle: the fused dense half of every architecture equals,
//! bit for bit, the composition of unfused kernels it replaced.
//!
//! `Layer::forward_agg` runs each product with its bias and activation
//! fused into the store, and the backward pass masks the gradient and
//! sums its columns in one pass. Here each is checked against the
//! generic `*_reference` kernels composed one step at a time:
//! `matmul_reference` → `add_row_broadcast` → `Activation::forward` (plus
//! CommNet's `add` of the self product) forward, and
//! `Activation::backward` → `matmul_tn_reference` → `sum_rows` →
//! `matmul_nt_reference` backward, onto non-zero starting gradients.
//!
//! The inputs hold rows of `-0.0`, infinities, NaNs and subnormals, and
//! the starting bias gradients hold `-0.0` over columns whose gradient
//! sums to zero: a bias gradient accumulated straight into the layer's
//! row would keep that `-0.0` where `-0.0 + 0.0` gives `+0.0`, a case no
//! training fingerprint reaches. Every NaN compares as one value (Rust
//! leaves the sign of a computed NaN unspecified); every other bit
//! compares exactly.

use dgcl_gnn::{Architecture, Layer};
use dgcl_tensor::{Activation, Matrix, XavierInit};

/// GIN's `1 + eps`, as the layer forms it.
const GIN_SCALE: f32 = 1.0 + 0.1;

const ARCHS: [Architecture; 4] = [
    Architecture::Gcn,
    Architecture::Sage,
    Architecture::Gin,
    Architecture::CommNet,
];

/// `(rows, fin, fout)`: dispatched widths, generic ones, and rows that
/// cross the compute pool's 16-row chunks.
const SHAPES: [(usize, usize, usize); 4] = [(37, 8, 8), (21, 5, 3), (40, 16, 32), (9, 8, 7)];

/// `len` values hashed from `seed`: mostly normals, with zeros of both
/// signs, infinities, NaNs and subnormals.
fn special_fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i ^ seed.rotate_left(23))
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = h ^ (h >> 31);
            let sign = if h & (1 << 41) == 0 { 1.0 } else { -1.0 };
            match h % 60 {
                0..=3 => 0.0,
                4..=7 => -0.0,
                8 => f32::INFINITY * sign,
                9 => f32::NAN,
                10 => f32::from_bits((h >> 9) as u32 & 0x007F_FFFF | 1) * sign,
                _ => ((h >> 9) % 2000) as f32 / 500.0 - 1.9,
            }
        })
        .collect()
}

/// A special-filled `rows x cols` matrix in which every fourth row is all
/// `-0.0`.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::from_vec(rows, cols, special_fill(rows * cols, seed));
    for r in (0..rows).step_by(4) {
        m.row_mut(r).fill(-0.0);
    }
    m
}

/// The bit patterns of `m`, every NaN as one value.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice()
        .iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}");
}

/// Finite parameters with exact zeros of both signs, so the fused and
/// unfused kernels meet the same skipped products and signed sums.
fn parameters(layer: &Layer, seed: u64) -> Vec<Matrix> {
    layer
        .parameters()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let data = special_fill(p.len(), seed ^ ((i as u64 + 1) * 0x51))
                .into_iter()
                .map(|x| if x.is_finite() { x } else { -0.0 })
                .collect();
            Matrix::from_vec(p.rows(), p.cols(), data)
        })
        .collect()
}

/// Starting gradients: finite values, every bias gradient `-0.0` in its
/// even columns.
fn starting_gradients(layer: &Layer, seed: u64) -> Vec<Matrix> {
    let mut grads = parameters(layer, seed ^ 0x6A);
    let num_biases = if layer.arch() == Architecture::Gin {
        2
    } else {
        1
    };
    let num_weights = grads.len() - num_biases;
    for g in &mut grads[num_weights..] {
        for (c, x) in g.as_mut_slice().iter_mut().enumerate() {
            if c % 2 == 0 {
                *x = -0.0;
            }
        }
    }
    grads
}

/// An output gradient with special values whose even columns are all
/// `-0.0`, so those columns of every bias gradient sum to zero.
fn output_gradient(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut g = Matrix::from_vec(rows, cols, special_fill(rows * cols, seed));
    for r in 0..rows {
        for (c, x) in g.row_mut(r).iter_mut().enumerate() {
            if c % 2 == 0 {
                *x = -0.0;
            }
        }
    }
    g
}

/// What the unfused layer computed: its output, `(grad_agg, direct)` and
/// its gradients after accumulating onto `grads`.
struct Unfused {
    output: Matrix,
    grad_agg: Matrix,
    direct: Option<Matrix>,
    grads: Vec<Matrix>,
}

/// The layer's forward and backward arithmetic, one unfused kernel at a
/// time, on parameters `p` (weights then biases) from starting gradients
/// `grads`.
fn unfused(
    arch: Architecture,
    p: &[Matrix],
    h: &Matrix,
    agg: &Matrix,
    grad_out: &Matrix,
    mut grads: Vec<Matrix>,
) -> Unfused {
    let dense = |x: &Matrix, w: &Matrix, b: &Matrix| x.matmul_reference(w).add_row_broadcast(b);
    match arch {
        Architecture::Gcn => {
            let output = Activation::Relu.forward(&dense(agg, &p[0], &p[1]));
            let grad_z = Activation::Relu.backward(&output, grad_out);
            grads[0].add_assign(&agg.matmul_tn_reference(&grad_z));
            grads[1].add_assign(&grad_z.sum_rows());
            let grad_agg = grad_z.matmul_nt_reference(&p[0]);
            Unfused {
                output,
                grad_agg,
                direct: None,
                grads,
            }
        }
        Architecture::Sage => {
            let s = h.hstack(agg);
            let output = Activation::Relu.forward(&dense(&s, &p[0], &p[1]));
            let grad_z = Activation::Relu.backward(&output, grad_out);
            grads[0].add_assign(&s.matmul_tn_reference(&grad_z));
            grads[1].add_assign(&grad_z.sum_rows());
            let (grad_local, grad_agg) = grad_z.matmul_nt_reference(&p[0]).split_cols(h.cols());
            Unfused {
                output,
                grad_agg,
                direct: Some(grad_local),
                grads,
            }
        }
        Architecture::Gin => {
            let mut s = h.clone();
            s.scale_assign(GIN_SCALE);
            s.add_assign(agg);
            let r = Activation::Relu.forward(&dense(&s, &p[0], &p[2]));
            let output = dense(&r, &p[1], &p[3]);
            grads[1].add_assign(&r.matmul_tn_reference(grad_out));
            grads[3].add_assign(&grad_out.sum_rows());
            let grad_r = grad_out.matmul_nt_reference(&p[1]);
            let grad_z1 = Activation::Relu.backward(&r, &grad_r);
            grads[0].add_assign(&s.matmul_tn_reference(&grad_z1));
            grads[2].add_assign(&grad_z1.sum_rows());
            let grad_s = grad_z1.matmul_nt_reference(&p[0]);
            let direct = grad_s.scale(GIN_SCALE);
            Unfused {
                output,
                grad_agg: grad_s,
                direct: Some(direct),
                grads,
            }
        }
        Architecture::CommNet => {
            let z = h
                .matmul_reference(&p[0])
                .add(&agg.matmul_reference(&p[1]))
                .add_row_broadcast(&p[2]);
            let output = Activation::Tanh.forward(&z);
            let grad_z = Activation::Tanh.backward(&output, grad_out);
            grads[0].add_assign(&h.matmul_tn_reference(&grad_z));
            grads[1].add_assign(&agg.matmul_tn_reference(&grad_z));
            grads[2].add_assign(&grad_z.sum_rows());
            let grad_agg = grad_z.matmul_nt_reference(&p[1]);
            let grad_local = grad_z.matmul_nt_reference(&p[0]);
            Unfused {
                output,
                grad_agg,
                direct: Some(grad_local),
                grads,
            }
        }
    }
}

#[test]
fn fused_layers_equal_the_unfused_composition_bitwise() {
    for arch in ARCHS {
        for (case, &(rows, fin, fout)) in SHAPES.iter().enumerate() {
            let seed = 0xF00D + case as u64 * 0x1_0001;
            let what = format!("{arch:?} rows={rows} fin={fin} fout={fout}");
            let mut layer = Layer::new(arch, fin, fout, &mut XavierInit::new(seed));
            let params = parameters(&layer, seed);
            layer.set_parameters(&params);
            let start = starting_gradients(&layer, seed);
            layer.set_gradients(&start);
            let h = special_matrix(rows, fin, seed ^ 0x11);
            let agg = special_matrix(rows, fin, seed ^ 0x22);
            let grad_out = output_gradient(rows, fout, seed ^ 0x33);
            let want = unfused(arch, &params, &h, &agg, &grad_out, start);

            assert_bits_eq(
                &layer.forward_agg(&h, agg),
                &want.output,
                &format!("{what}: output"),
            );
            let mut params_only = layer.clone();
            let (grad_agg, direct) = layer.backward_agg(&grad_out);
            assert_bits_eq(&grad_agg, &want.grad_agg, &format!("{what}: grad_agg"));
            match (&direct, &want.direct) {
                (Some(got), Some(want)) => assert_bits_eq(got, want, &format!("{what}: direct")),
                (None, None) => {}
                _ => panic!("{what}: skip path present on one side only"),
            }
            params_only.backward_params(&grad_out);
            for (label, l) in [("backward_agg", &layer), ("backward_params", &params_only)] {
                for (i, (got, want)) in l.gradients().into_iter().zip(&want.grads).enumerate() {
                    assert_bits_eq(got, want, &format!("{what}: {label} gradient {i}"));
                }
            }
        }
    }
}
