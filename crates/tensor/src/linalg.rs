//! 2-D linear algebra: matrix products and transposes.
//!
//! # Summation contract
//!
//! The three products ([`Tensor::matmul`], [`Tensor::t_matmul`],
//! [`Tensor::matmul_t`]) each compute every output element as one chain of
//! f32 additions over the shared index in ascending order, starting from a
//! fixed value: `out = start; for k in 0..K { out = out + a_k * b_k }`. The
//! multiply and the add are separate roundings (no FMA) and the chain is
//! never reassociated, split into partial sums, or reordered. Loops are
//! arranged so that the innermost loop runs across independent outputs,
//! which is what lets the compiler vectorise them without touching the
//! order of any one output's additions.
//!
//! The results are therefore a pure function of the inputs, bit for bit,
//! for every loop layout that keeps the contract. Two checks rest on it:
//! the BSP ≡ sequential SGD equivalence tests of the parameter server, and
//! the BSP-phase parameter fingerprints of the repository benchmark
//! (`perfbench/fingerprints.txt`), which must stay equal across commits. A
//! kernel change that alters any output's chain of adds fails the
//! fingerprints, and CI's `perf-fingerprint` stage with them.
//!
//! # Dispatch
//!
//! The loop bodies of the three products live in one `#[inline(always)]`
//! function, compiled twice: for the baseline target, and inside a private
//! `#[target_feature(enable = "avx2")]` wrapper, where the inner loop runs
//! eight outputs wide instead of four. On x86-64 each product picks the
//! AVX2 build when `is_x86_feature_detected!("avx2")` (cached by `std`)
//! says the CPU has it; other targets compile only the baseline. Both
//! builds give the same bits: they are the same source loop, FMA is not
//! enabled, and rustc never contracts `a * b + c` into a fused operation,
//! so each output keeps its chain of separately rounded multiplies and
//! adds; only the number of independent outputs per instruction changes.
//! The `perf-fingerprint` stage checks only the build that the CI host
//! dispatches to. The unit test `avx2_and_baseline_builds_are_bitwise_equal`
//! checks the other against it, and CI runs it in the release profile,
//! where the loops are vectorised.

use crate::tensor::Tensor;

/// Which of the three products' loop bodies [`product`] runs.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Matmul,
    TMatmul,
    MatmulT,
}

/// Computes the `m×n` product `out` of `a` and `b` over the shared
/// dimension `k`, with the layout of `kernel`:
///
/// - `Matmul`: `a` is `m×k`, `b` is `k×n`;
/// - `TMatmul`: `a` is `k×m`, `b` is `k×n`;
/// - `MatmulT`: `a` is `m×k`, `b` is `k×n` (the caller's `otherᵀ`).
///
/// Runs the AVX2 build of the loop bodies when the CPU has AVX2, and the
/// baseline build otherwise. Both builds come from the same source, so they
/// give the same bits (see the module's summation contract).
fn product(kernel: Kernel, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `product_avx2` only requires AVX2, and the CPU was just
        // detected to support it.
        return unsafe { product_avx2(kernel, a, b, out, m, k, n) };
    }
    product_baseline(kernel, a, b, out, m, k, n)
}

/// [`product_baseline`] compiled with AVX2 enabled (and not FMA, so every
/// multiply and add stays a separate rounding).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_avx2(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    product_baseline(kernel, a, b, out, m, k, n)
}

/// The loop bodies of the three products, for the instruction set of the
/// function they are inlined into. `out` holds each output's start value.
#[inline(always)]
fn product_baseline(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match kernel {
        Kernel::Matmul => {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (kk, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
        Kernel::TMatmul => {
            for kk in 0..k {
                let arow = &a[kk * m..(kk + 1) * m];
                let brow = &b[kk * n..(kk + 1) * n];
                for (i, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let orow = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
        Kernel::MatmulT => {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..(i + 1) * n];
                for (kk, &aik) in arow.iter().enumerate() {
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

impl Tensor {
    /// Matrix product of two 2-D tensors: `(m×k) · (k×n) → (m×n)`.
    ///
    /// Output `(i, j)` is `0.0` plus `a[i][k] · b[k][j]` for ascending `k`,
    /// skipping the terms where `a[i][k] == 0.0` (the skip is part of the
    /// contract: a zero entry adds nothing even against an infinite or NaN
    /// `b[k][j]`). The i-k-j loop order keeps the inner loop across `j`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; m * n];
        product(Kernel::Matmul, self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ · other` without materializing the transpose:
    /// `(k×m)ᵀ·(k×n) → (m×n)`. Used for weight gradients `Xᵀ·δ`.
    ///
    /// Output `(i, j)` is `0.0` plus `a[k][i] · b[k][j]` for ascending `k`,
    /// skipping the terms where `a[k][i] == 0.0`, as in [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "t_matmul leading dimension mismatch: {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = vec![0.0f32; m * n];
        product(
            Kernel::TMatmul,
            self.data(),
            other.data(),
            &mut out,
            m,
            k,
            n,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// `self · otherᵀ`: `(m×k)·(n×k)ᵀ → (m×n)`. Used for input gradients
    /// `δ·Wᵀ`.
    ///
    /// Output `(i, j)` is `-0.0` plus `a[i][k] · b[j][k]` for ascending `k`,
    /// with no term skipped: exactly the fold of
    /// `arow.iter().zip(brow).map(|(x, y)| x * y).sum::<f32>()`, whose start
    /// value is `-0.0`. `other` is transposed once so the inner loop runs
    /// across `j` over contiguous memory.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the shared dimension disagrees.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "matmul_t trailing dimension mismatch: {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let bt = other.transpose();
        let mut out = vec![-0.0f32; m * n];
        product(Kernel::MatmulT, self.data(), bt.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Sums a 2-D tensor over rows, yielding a `[cols]` vector. Used for
    /// bias gradients.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Tensor {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Adds a `[cols]` vector to every row of a 2-D tensor in place. Used
    /// for bias application.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row_vector(&mut self, v: &Tensor) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(
            v.shape(),
            &[n],
            "row vector shape {:?} incompatible with {:?}",
            v.shape(),
            self.shape()
        );
        for i in 0..m {
            for j in 0..n {
                self.data_mut()[i * n + j] += v.data()[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let d = t(&[0.5, -1.0, 2.0, 0.0, 1.0, 3.0], &[3, 2]);
        let fast = x.t_matmul(&d);
        let slow = x.transpose().matmul(&d);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let d = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let w = t(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[3, 2]);
        let fast = d.matmul_t(&w);
        let slow = d.matmul(&w.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_involution() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn sum_rows_and_bias() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_rows().data(), &[5.0, 7.0, 9.0]);
        let mut b = a.clone();
        b.add_row_vector(&t(&[10.0, 20.0, 30.0], &[3]));
        assert_eq!(b.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    /// The AVX2 and baseline builds of every product give the same bits.
    /// On an AVX2 host the public methods never run the baseline build, so
    /// this is what checks it there.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_and_baseline_builds_are_bitwise_equal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        if !is_x86_feature_detected!("avx2") {
            println!("skipped: this CPU has no AVX2, so only the baseline build runs");
            return;
        }
        let mut rng = StdRng::seed_from_u64(13);
        let mut sample = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u8..10) {
                    0 => 0.0,
                    1 => -0.0,
                    2 | 3 => rng.gen_range(-10.0f32..10.0) * 1e-4,
                    _ => rng.gen_range(-10.0f32..10.0),
                })
                .collect()
        };
        let shapes = [
            (1, 1, 1),
            (3, 17, 10),
            (5, 9, 23),
            (32, 144, 128),
            (7, 64, 37),
        ];
        for kernel in [Kernel::Matmul, Kernel::TMatmul, Kernel::MatmulT] {
            for &(m, k, n) in &shapes {
                let (a, b) = (sample(m * k), sample(k * n));
                let start = match kernel {
                    Kernel::MatmulT => -0.0,
                    _ => 0.0,
                };
                let mut base = vec![start; m * n];
                let mut avx2 = base.clone();
                product_baseline(kernel, &a, &b, &mut base, m, k, n);
                // SAFETY: AVX2 support was detected above.
                unsafe { product_avx2(kernel, &a, &b, &mut avx2, m, k, n) };
                for (idx, (x, y)) in base.iter().zip(&avx2).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{kernel:?} {m}x{k}x{n} output {idx}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
