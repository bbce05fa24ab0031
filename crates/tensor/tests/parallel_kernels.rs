//! Property tests: every threaded kernel is bitwise-identical to its
//! sequential form at every worker count, and every width-dispatched
//! kernel to its generic `*_reference` loop.
//!
//! The compute pool's determinism contract (fixed chunk boundaries, one
//! writer per output element, fixed per-element reduction order) means
//! the thread count may change scheduling but never bits. These
//! properties pin that contract so a future "optimisation" that reorders
//! a reduction fails loudly instead of silently breaking distributed /
//! single-device training parity.
//!
//! A kernel reads its worker count from the calling thread's budget
//! (`set_thread_budget`), which each property sets around the call
//! ([`at_budget`]), and stays on one worker below its spawn gate
//! (`pool::DENSE_WORK_MIN` multiply-adds, `pool::SPARSE_WORK_MIN`
//! elements for `transpose`). The thread-count properties draw shapes on
//! both sides of the gate, so their multi-worker arms run the threaded
//! path too.

use dgcl_tensor::pool::{DENSE_WORK_MIN, SPARSE_WORK_MIN};
use dgcl_tensor::{
    set_thread_budget, spmm_pattern_into, spmm_pattern_reference, Activation, Matrix,
};
use proptest::prelude::*;

/// `f` run with the calling thread's kernel budget at `threads`; the
/// budget is cleared after.
fn at_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_thread_budget(threads);
    let out = f();
    set_thread_budget(0);
    out
}

/// `len`, or — when `past` — `len` plus the count that takes a kernel of
/// `work_per_unit` per unit of `len` to its spawn gate `min`, so a
/// property draws shapes on both sides of the gate.
fn across_gate(len: usize, work_per_unit: usize, min: usize, past: bool) -> usize {
    if past {
        len + min.div_ceil(work_per_unit)
    } else {
        len
    }
}

/// An output width below `below`, or one of the dispatched 64 and 128.
fn arb_width(below: usize) -> impl Strategy<Value = usize> {
    (1..below + 2).prop_map(move |n| {
        if n == below {
            64
        } else if n == below + 1 {
            128
        } else {
            n
        }
    })
}

/// An `r x c` matrix with a deterministic pseudo-random fill derived from
/// the index; a quarter of entries are exactly zero, so the zero-skip
/// fast path is exercised. The properties draw `r` and `c` across several
/// chunk boundaries (`CHUNK_ROWS` is 16).
fn filled(r: usize, c: usize) -> Matrix {
    let data: Vec<f32> = (0..r * c)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(4) {
                0.0
            } else {
                (h % 1000) as f32 / 250.0 - 2.0
            }
        })
        .collect();
    Matrix::from_vec(r, c, data)
}

const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_thread_count_invariant(
        (a, b) in (1usize..70, 1usize..20, arb_width(20), any::<bool>())
            .prop_map(|(m, k, n, past)| {
                (filled(across_gate(m, k * n, DENSE_WORK_MIN, past), k), arb_fixed(k, n))
            })
    ) {
        let reference = at_budget(1, || a.matmul(&b));
        prop_assert_eq!(&a.matmul(&b), &reference, "auto thread count");
        for t in THREADS {
            prop_assert_eq!(&at_budget(t, || a.matmul(&b)), &reference, "threads={}", t);
        }
    }

    #[test]
    fn matmul_tn_is_thread_count_invariant(
        // Output rows `m = a.cols()` below 20, or 128: eight 16-row chunks
        // that each worker count splits into different runs.
        (a, b) in ((1usize..50, (1usize..21).prop_map(|m| if m == 20 { 128 } else { m })), arb_width(16), any::<bool>())
            .prop_map(|((rows, m), n, past)| {
                let rows = across_gate(rows, m * n, DENSE_WORK_MIN, past);
                (filled(rows, m), arb_fixed(rows, n))
            })
    ) {
        let reference = at_budget(1, || a.matmul_tn(&b));
        prop_assert_eq!(&a.matmul_tn(&b), &reference, "auto thread count");
        for t in THREADS {
            prop_assert_eq!(&at_budget(t, || a.matmul_tn(&b)), &reference, "threads={}", t);
        }
    }

    #[test]
    fn matmul_nt_is_thread_count_invariant(
        // Output widths below 16, often the dispatched 8 and 32.
        (a, b) in (1usize..50, 1usize..20, (1usize..20).prop_map(|n| match n {
            16 | 17 => 8,
            18 | 19 => 32,
            n => n,
        }), any::<bool>())
            .prop_map(|(m, k, n, past)| {
                (filled(across_gate(m, k * n, DENSE_WORK_MIN, past), k), arb_fixed(n, k))
            })
    ) {
        let reference = at_budget(1, || a.matmul_nt(&b));
        prop_assert_eq!(&a.matmul_nt(&b), &reference, "auto thread count");
        for t in THREADS {
            prop_assert_eq!(&at_budget(t, || a.matmul_nt(&b)), &reference, "threads={}", t);
        }
    }

    #[test]
    fn transpose_is_thread_count_invariant(
        // Past the gate the columns grow: they are the output's rows, so
        // its chunks.
        a in (1usize..90, 1usize..40, any::<bool>())
            .prop_map(|(r, c, past)| filled(r, across_gate(c, r, SPARSE_WORK_MIN, past)))
    ) {
        let reference = at_budget(1, || a.transpose());
        prop_assert_eq!(&a.transpose(), &reference, "auto thread count");
        for t in THREADS {
            prop_assert_eq!(&at_budget(t, || a.transpose()), &reference, "threads={}", t);
        }
        prop_assert_eq!(&reference.transpose(), &a, "involution");
    }
}

/// Deterministic matrix of a fixed shape (used where one operand's shape
/// must match the other's draw).
fn arb_fixed(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 ^ 0xABCD).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 41;
            if h.is_multiple_of(5) {
                0.0
            } else {
                (h % 777) as f32 / 111.0 - 3.5
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Widths on both sides of every width the kernels dispatch on.
const ORACLE_WIDTHS: [usize; 15] = [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129];

/// Worker counts the oracle runs the dispatched kernels at.
const ORACLE_THREADS: [usize; 3] = [1, 2, 3];

/// One of [`ORACLE_WIDTHS`].
fn arb_oracle_width() -> impl Strategy<Value = usize> {
    (0..ORACLE_WIDTHS.len()).prop_map(|i| ORACLE_WIDTHS[i])
}

/// `len` entries hashed from `seed`, drawn from zeros of both signs,
/// infinities of both signs, NaNs of both signs, subnormals and normals.
/// Normals stay in the majority so most sums are finite.
fn special_fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i ^ seed.rotate_left(17))
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let h = h ^ (h >> 32);
            let sign = if h & (1 << 40) == 0 { 1.0 } else { -1.0 };
            match h % 40 {
                0..=3 => 0.0,
                4..=7 => -0.0,
                8 => f32::INFINITY * sign,
                9 => f32::NAN.copysign(sign),
                10..=11 => f32::from_bits((h >> 8) as u32 & 0x007F_FFFF | 1) * sign,
                _ => ((h >> 8) % 2000) as f32 / 256.0 - 3.9,
            }
        })
        .collect()
}

fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, special_fill(rows * cols, seed))
}

/// The bit patterns of a buffer, every NaN as one value: `==` on `f32`
/// calls `0.0` and `-0.0` equal and no NaN equal to itself; the oracle
/// wants every bit of every other value, signed zeros and infinities
/// included. Rust does not specify the sign or payload of a NaN an
/// arithmetic operation returns, and an optimised build may produce
/// either sign for the same sum, so NaNs compare only as NaNs.
fn bits(values: &[f32]) -> Vec<u32> {
    values
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

/// A pattern of `rows` rows over `dense_rows` rows, degrees up to 12,
/// entries in arbitrary order with repeats (the kernels take both).
fn arb_pattern(rows: usize, dense_rows: usize, seed: u64) -> (Vec<usize>, Vec<u32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    let mut offsets = vec![0usize];
    let mut indices = Vec::new();
    for _ in 0..rows {
        for _ in 0..next() % 13 {
            indices.push((next() % dense_rows) as u32);
        }
        offsets.push(indices.len());
    }
    (offsets, indices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_matches_reference_bitwise(
        (m, k, n, seed) in (1usize..40, 1usize..140, arb_oracle_width(), any::<u64>())
    ) {
        // `k` crosses the reference's 128-wide reduction block.
        let a = special_matrix(m, k, seed);
        let b = special_matrix(k, n, seed ^ 0xB);
        let want = bits(a.matmul_reference(&b).as_slice());
        for t in ORACLE_THREADS {
            prop_assert_eq!(bits(at_budget(t, || a.matmul(&b)).as_slice()), want.clone(), "n={} t={}", n, t);
        }
    }

    #[test]
    fn matmul_tn_matches_reference_bitwise(
        (rows, m, n, seed) in (1usize..300, 1usize..150, arb_oracle_width(), any::<u64>())
    ) {
        // `rows` crosses two of the reference's 128-row reduction blocks
        // (and many of the dispatched kernel's shorter ones); `m` (output
        // rows) crosses register groups, the pool's 16-row chunks, worker
        // runs and the 128 input features of the widest layer 0.
        let a = special_matrix(rows, m, seed);
        let b = special_matrix(rows, n, seed ^ 0xB);
        let want = bits(a.matmul_tn_reference(&b).as_slice());
        for t in ORACLE_THREADS {
            prop_assert_eq!(bits(at_budget(t, || a.matmul_tn(&b)).as_slice()), want.clone(), "n={} t={}", n, t);
        }
    }

    #[test]
    fn matmul_nt_matches_reference_bitwise(
        (m, k, n, seed) in (1usize..40, 1usize..41, arb_oracle_width(), any::<u64>())
    ) {
        // The dispatched kernel adds every product, as the dot loop does:
        // a skipped `0 * inf` would drop a NaN the reference keeps.
        let a = special_matrix(m, k, seed);
        let b = special_matrix(n, k, seed ^ 0xB);
        let want = bits(a.matmul_nt_reference(&b).as_slice());
        for t in ORACLE_THREADS {
            prop_assert_eq!(bits(at_budget(t, || a.matmul_nt(&b)).as_slice()), want.clone(), "n={} t={}", n, t);
        }
    }

    #[test]
    fn matmul_fused_matches_the_unfused_composition_bitwise(
        (m, k, n, seed, act, with_addend) in
            (1usize..40, 1usize..40, arb_oracle_width(), any::<u64>(), 0usize..4, any::<bool>())
    ) {
        let act = [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid][act];
        let a = special_matrix(m, k, seed);
        let w = special_matrix(k, n, seed ^ 0xB);
        let bias = special_matrix(1, n, seed ^ 0xC);
        let addend = with_addend.then(|| special_matrix(m, n, seed ^ 0xA));
        let mut z = a.matmul_reference(&w);
        if let Some(addend) = &addend {
            z = addend.add(&z);
        }
        let want = bits(act.forward(&z.add_row_broadcast(&bias)).as_slice());
        for t in ORACLE_THREADS {
            let got = at_budget(t, || a.matmul_fused(&w, addend.as_ref(), &bias, act));
            prop_assert_eq!(bits(got.as_slice()), want.clone(), "n={} t={} {:?}", n, t, act);
        }
    }

    #[test]
    fn activation_backward_sum_rows_matches_the_unfused_pair_bitwise(
        (m, n, seed, act) in (1usize..40, arb_oracle_width(), any::<u64>(), 0usize..4)
    ) {
        let act = [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid][act];
        let output = act.forward(&special_matrix(m, n, seed));
        let upstream = special_matrix(m, n, seed ^ 0xB);
        let want = act.backward(&output, &upstream);
        let mut grad = upstream.clone();
        let sums = act.backward_sum_rows(&output, &mut grad);
        prop_assert_eq!(bits(grad.as_slice()), bits(want.as_slice()));
        prop_assert_eq!(bits(sums.as_slice()), bits(want.sum_rows().as_slice()));
    }

    #[test]
    fn spmm_matches_reference_bitwise(
        (rows, dense_rows, cols, seed, cut) in
            (1usize..40, 1usize..40, arb_oracle_width(), any::<u64>(), 0usize..50)
    ) {
        let (offsets, indices) = arb_pattern(rows, dense_rows, seed);
        let dense = special_fill(dense_rows * cols, seed ^ 0xD);
        // A non-zero starting `out`, as CAGNET's block chaining leaves it.
        let start = special_fill(rows * cols, seed ^ 0x5);
        // Unbounded (forward), and bounded at, inside and past the dense
        // rows (the reverse-CSR backward).
        for bound in [None, Some(dense_rows as u32), Some((cut % (dense_rows + 2)) as u32)] {
            let mut want = start.clone();
            spmm_pattern_reference(&offsets, &indices, bound, &dense, cols, &mut want);
            for t in ORACLE_THREADS {
                let mut got = start.clone();
                spmm_pattern_into(&offsets, &indices, bound, &dense, cols, &mut got, t);
                prop_assert_eq!(bits(&got), bits(&want), "cols={} bound={:?} t={}", cols, bound, t);
            }
        }
    }
}
