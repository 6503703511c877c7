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

use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `(m×k) · (k×n) → (m×n)`.
    ///
    /// Output `(i, j)` is `0.0` plus `a[i][k] · b[k][j]` for ascending `k`,
    /// skipping the terms where `a[i][k] == 0.0` (the skip is part of the
    /// contract: it fixes the sign of zero outputs). The i-k-j loop order
    /// keeps the inner loop across `j`.
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
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
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
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
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
        let a = self.data();
        let bt = other.transpose();
        let bt = bt.data();
        let mut out = vec![-0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                let brow = &bt[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }
}
