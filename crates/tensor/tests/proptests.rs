//! Property-based tests of tensor algebra identities.

use proptest::prelude::*;
use sync_switch_tensor::Tensor;

/// Strategy: a small 2-D tensor with bounded values.
fn tensor2(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]))
}

fn assert_close(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data()) {
        prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul distributes over addition: (A+B)·C = A·C + B·C.
    #[test]
    fn matmul_distributes(a in tensor2(3, 4), b in tensor2(3, 4), c in tensor2(4, 2)) {
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        assert_close(&lhs, &rhs)?;
    }

    /// Transpose reverses multiplication: (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_reverses_product(a in tensor2(3, 4), b in tensor2(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_close(&lhs, &rhs)?;
    }

    /// The fused transposed products equal their explicit forms.
    #[test]
    fn fused_products_match(x in tensor2(5, 3), d in tensor2(5, 2), w in tensor2(3, 2)) {
        assert_close(&x.t_matmul(&d), &x.transpose().matmul(&d))?;
        assert_close(&d.matmul_t(&w), &d.matmul(&w.transpose()))?;
    }

    /// axpy is linear: axpy(α, g) then axpy(β, g) == axpy(α+β, g).
    #[test]
    fn axpy_is_additive(p in tensor2(2, 6), g in tensor2(2, 6), alpha in -2.0f32..2.0, beta in -2.0f32..2.0) {
        let mut two_step = p.clone();
        two_step.axpy(alpha, &g);
        two_step.axpy(beta, &g);
        let mut one_step = p.clone();
        one_step.axpy(alpha + beta, &g);
        assert_close(&two_step, &one_step)?;
    }

    /// Scaling by a scalar multiplies the L2 norm by |s|.
    #[test]
    fn norm_is_homogeneous(t in tensor2(4, 4), s in -5.0f32..5.0) {
        let scaled = t.scale(s);
        prop_assert!((scaled.l2_norm() - s.abs() * t.l2_norm()).abs() < 1e-2 * (1.0 + t.l2_norm()));
    }

    /// sum_rows equals the sum of per-row slices.
    #[test]
    fn sum_rows_matches_manual(t in tensor2(6, 3)) {
        let summed = t.sum_rows();
        for j in 0..3 {
            let manual: f32 = (0..6).map(|i| t.at(i, j)).sum();
            prop_assert!((summed.data()[j] - manual).abs() < 1e-3);
        }
    }

    /// Reshape preserves data and total length for compatible shapes.
    #[test]
    fn reshape_preserves_data(t in tensor2(4, 6)) {
        let mut r = t.clone();
        r.reshape(&[6, 4]);
        prop_assert_eq!(r.data(), t.data());
        r.reshape(&[24]);
        prop_assert_eq!(r.len(), 24);
    }

    /// argmax_rows returns indices within bounds pointing at row maxima.
    #[test]
    fn argmax_rows_points_at_maxima(t in tensor2(5, 4)) {
        for (i, j) in t.argmax_rows().into_iter().enumerate() {
            prop_assert!(j < 4);
            for k in 0..4 {
                prop_assert!(t.at(i, j) >= t.at(i, k));
            }
        }
    }
}

/// The per-output reference `matmul_t` must reproduce bit for bit: one
/// serial `Sum` fold per output, in ascending shared-index order.
fn matmul_t_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let k = a.cols();
    let mut out = Vec::with_capacity(a.rows() * b.rows());
    for arow in a.data().chunks(k) {
        for brow in b.data().chunks(k) {
            out.push(arow.iter().zip(brow).map(|(x, y)| x * y).sum::<f32>());
        }
    }
    out
}

fn assert_bitwise_matmul_t(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let fast = a.matmul_t(b);
    prop_assert_eq!(fast.shape(), &[a.rows(), b.rows()]);
    assert_bitwise(&fast, matmul_t_reference(a, b))
}

/// Mixes magnitudes (so any reassociation changes the rounding) and signed
/// zeros (so any skipped term changes a zero's sign) into raw samples:
/// `kind` 0 → `0.0`, 1 → `-0.0`, 2–3 → `v · 1e-4`, otherwise `v`.
fn mixed(values: &[f32], kinds: &[u8], rows: usize, cols: usize) -> Tensor {
    let data = values
        .iter()
        .zip(kinds)
        .take(rows * cols)
        .map(|(&v, &kind)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => v * 1e-4,
            _ => v,
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols])
}

const MAX_M: usize = 6;
const MAX_K: usize = 40;
const MAX_N: usize = 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul_t` is bit-identical to the serial per-output dot product,
    /// for any shape, including widths that are not a multiple of the
    /// vector width.
    #[test]
    fn matmul_t_is_bitwise_the_serial_dot_product(
        dims in (1usize..MAX_M, 1usize..MAX_K, 1usize..MAX_N),
        a in proptest::collection::vec(-10.0f32..10.0, MAX_M * MAX_K),
        a_kinds in proptest::collection::vec(0u8..10, MAX_M * MAX_K),
        b in proptest::collection::vec(-10.0f32..10.0, MAX_N * MAX_K),
        b_kinds in proptest::collection::vec(0u8..10, MAX_N * MAX_K),
    ) {
        let (m, k, n) = dims;
        assert_bitwise_matmul_t(&mixed(&a, &a_kinds, m, k), &mixed(&b, &b_kinds, n, k))?;
    }

    /// The same at width 10 (the classifier head's fan-out), where every
    /// row ends in a partial vector.
    #[test]
    fn matmul_t_is_bitwise_at_width_ten(
        a in proptest::collection::vec(-10.0f32..10.0, 3 * 17),
        a_kinds in proptest::collection::vec(0u8..10, 3 * 17),
        b in proptest::collection::vec(-10.0f32..10.0, 10 * 17),
        b_kinds in proptest::collection::vec(0u8..10, 10 * 17),
    ) {
        assert_bitwise_matmul_t(&mixed(&a, &a_kinds, 3, 17), &mixed(&b, &b_kinds, 10, 17))?;
    }
}

/// Every product is `-0.0`, so the output's sign is the start value's:
/// `-0.0`, the start of `<f32 as Sum>`, not `0.0`.
#[test]
fn matmul_t_starts_each_output_at_negative_zero() {
    let a = Tensor::from_vec(vec![0.0, -0.0, 0.0], &[1, 3]);
    let b = Tensor::from_vec(vec![-1.0, 2.0, -3.0, -0.5, 0.0, -0.0], &[2, 3]);
    let out = a.matmul_t(&b);
    for (x, y) in out.data().iter().zip(matmul_t_reference(&a, &b)) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        assert_eq!(x.to_bits(), (-0.0f32).to_bits(), "{x} is not -0.0");
    }
}

/// The input-gradient product of the benchmark model's middle layer,
/// `[32, 64] · [128, 64]ᵀ`, is bitwise the serial reference.
#[test]
fn matmul_t_is_bitwise_at_the_backward_shape() {
    let a = Tensor::from_vec(
        (0..32 * 64).map(|i| (i as f32 * 0.37).sin()).collect(),
        &[32, 64],
    );
    let b = Tensor::from_vec(
        (0..128 * 64)
            .map(|i| (i as f32 * 0.11).cos() * 0.2)
            .collect(),
        &[128, 64],
    );
    let fast = a.matmul_t(&b);
    for (x, y) in fast.data().iter().zip(matmul_t_reference(&a, &b)) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// The per-output reference `matmul` and `t_matmul` must reproduce bit for
/// bit: output `(i, j)` is a chain from `0.0` over ascending `k` of
/// `left(i, k) · b[k][j]`, skipping the terms whose left-hand entry is zero.
fn skip_zero_reference(
    (m, k, n): (usize, usize, usize),
    left: impl Fn(usize, usize) -> f32,
    b: &Tensor,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let x = left(i, kk);
                if x != 0.0 {
                    acc += x * b.at(kk, j);
                }
            }
            out.push(acc);
        }
    }
    out
}

fn matmul_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    skip_zero_reference((a.rows(), a.cols(), b.cols()), |i, kk| a.at(i, kk), b)
}

fn t_matmul_reference(a: &Tensor, b: &Tensor) -> Vec<f32> {
    skip_zero_reference((a.cols(), a.rows(), b.cols()), |i, kk| a.at(kk, i), b)
}

fn assert_bitwise(fast: &Tensor, reference: Vec<f32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), reference.len());
    for (idx, (x, y)) in fast.data().iter().zip(reference).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "output {}: {} vs {}", idx, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul` is bit-identical to the per-output chain for any shape,
    /// including widths that are not a multiple of the vector width.
    #[test]
    fn matmul_is_bitwise_the_serial_chain(
        dims in (1usize..MAX_M, 1usize..MAX_K, 1usize..MAX_N),
        a in proptest::collection::vec(-10.0f32..10.0, MAX_M * MAX_K),
        a_kinds in proptest::collection::vec(0u8..10, MAX_M * MAX_K),
        b in proptest::collection::vec(-10.0f32..10.0, MAX_K * MAX_N),
        b_kinds in proptest::collection::vec(0u8..10, MAX_K * MAX_N),
    ) {
        let (m, k, n) = dims;
        let (a, b) = (mixed(&a, &a_kinds, m, k), mixed(&b, &b_kinds, k, n));
        let out = a.matmul(&b);
        prop_assert_eq!(out.shape(), &[m, n]);
        assert_bitwise(&out, matmul_reference(&a, &b))?;
    }

    /// `t_matmul` likewise.
    #[test]
    fn t_matmul_is_bitwise_the_serial_chain(
        dims in (1usize..MAX_M, 1usize..MAX_K, 1usize..MAX_N),
        a in proptest::collection::vec(-10.0f32..10.0, MAX_K * MAX_M),
        a_kinds in proptest::collection::vec(0u8..10, MAX_K * MAX_M),
        b in proptest::collection::vec(-10.0f32..10.0, MAX_K * MAX_N),
        b_kinds in proptest::collection::vec(0u8..10, MAX_K * MAX_N),
    ) {
        let (m, k, n) = dims;
        let (a, b) = (mixed(&a, &a_kinds, k, m), mixed(&b, &b_kinds, k, n));
        let out = a.t_matmul(&b);
        prop_assert_eq!(out.shape(), &[m, n]);
        assert_bitwise(&out, t_matmul_reference(&a, &b))?;
    }

    /// Both at width 10 (the classifier head's fan-out), where every row
    /// ends in a partial vector.
    #[test]
    fn matmul_and_t_matmul_are_bitwise_at_width_ten(
        a in proptest::collection::vec(-10.0f32..10.0, 3 * 17),
        a_kinds in proptest::collection::vec(0u8..10, 3 * 17),
        b in proptest::collection::vec(-10.0f32..10.0, 17 * 10),
        b_kinds in proptest::collection::vec(0u8..10, 17 * 10),
    ) {
        let b = mixed(&b, &b_kinds, 17, 10);
        let a_left = mixed(&a, &a_kinds, 3, 17);
        assert_bitwise(&a_left.matmul(&b), matmul_reference(&a_left, &b))?;
        let a_top = mixed(&a, &a_kinds, 17, 3);
        assert_bitwise(&a_top.t_matmul(&b), t_matmul_reference(&a_top, &b))?;
    }
}

/// A zero left-hand entry skips its term, so an infinite right-hand entry
/// against it leaves no NaN; and the chain starts at `0.0`, so an output
/// whose every term is `-0.0` or skipped is `0.0`, not `-0.0`.
#[test]
fn matmul_and_t_matmul_skip_zero_terms_and_start_at_zero() {
    let a = Tensor::from_vec(vec![0.0, -0.0, -1.0], &[1, 3]);
    let b = Tensor::from_vec(vec![f32::INFINITY, f32::NEG_INFINITY, 0.0], &[3, 1]);
    let a_top = Tensor::from_vec(a.data().to_vec(), &[3, 1]);
    for out in [a.matmul(&b), a_top.t_matmul(&b)] {
        assert_eq!(out.data()[0].to_bits(), 0.0f32.to_bits(), "{out:?}");
    }
}

/// The benchmark model's first layer, `[32, 144] · [144, 128]` forward and
/// `[32, 144]ᵀ · [32, 128]` weight gradient, is bitwise the reference.
#[test]
fn matmul_and_t_matmul_are_bitwise_at_the_first_layer_shape() {
    let x = Tensor::from_vec(
        (0..32 * 144)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.37).sin()
                }
            })
            .collect(),
        &[32, 144],
    );
    let w = Tensor::from_vec(
        (0..144 * 128)
            .map(|i| (i as f32 * 0.11).cos() * 0.2)
            .collect(),
        &[144, 128],
    );
    let delta = Tensor::from_vec(
        (0..32 * 128).map(|i| (i as f32 * 0.23).sin()).collect(),
        &[32, 128],
    );
    for (x, y) in x.matmul(&w).data().iter().zip(matmul_reference(&x, &w)) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
    for (x, y) in x
        .t_matmul(&delta)
        .data()
        .iter()
        .zip(t_matmul_reference(&x, &delta))
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}
