//! Convolutional layers: 1-D cross-correlation plus max pooling.
//!
//! These are the locality-exploiting building blocks the conv workload is
//! made of: a [`Conv1d`] bank of learned filters slides over the input
//! signal (so a class-identifying pattern is detected at any shift) and
//! [`MaxPool1d`] keeps only each window's strongest response, which is what
//! makes the detection shift-invariant. Structurally this is the paper's
//! convnet family at 1-D scale, the same way `ResidualBlock` stands in for
//! the ResNet block.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sync_switch_tensor::{Init, Tensor};

use crate::layer::Layer;

/// 1-D convolution (cross-correlation) over a single-channel signal:
/// input `[batch, length]`, output `[batch, channels · (length − kernel + 1)]`
/// laid out channel-major (`c · out_len + t`), stride 1, no padding.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// `[channels, kernel]` filter bank.
    w: Tensor,
    /// `[channels]` per-filter bias.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_x: Option<Tensor>,
}

impl Conv1d {
    /// Creates a filter bank of `channels` filters of width `kernel`,
    /// He-normal initialized (suited to the ReLU that typically follows).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `kernel == 0`.
    pub fn new(channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(channels > 0 && kernel > 0, "empty filter bank");
        let mut rng = StdRng::seed_from_u64(seed);
        Conv1d {
            w: Init::HeNormal.tensor(&[channels, kernel], &mut rng),
            b: Tensor::zeros(&[channels]),
            gw: Tensor::zeros(&[channels, kernel]),
            gb: Tensor::zeros(&[channels]),
            cached_x: None,
        }
    }

    /// Number of output channels.
    pub fn channels(&self) -> usize {
        self.w.rows()
    }

    /// Filter width.
    pub fn kernel(&self) -> usize {
        self.w.cols()
    }

    /// Output length for an input signal of `length` samples.
    ///
    /// # Panics
    ///
    /// Panics if `length < kernel`.
    pub fn out_len(&self, length: usize) -> usize {
        assert!(
            length >= self.kernel(),
            "signal of {length} shorter than kernel {}",
            self.kernel()
        );
        length - self.kernel() + 1
    }
}

impl Layer for Conv1d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        let length = x.cols();
        let (channels, kernel) = (self.channels(), self.kernel());
        let out_len = self.out_len(length);
        let mut y = Tensor::zeros(&[batch, channels * out_len]);
        let xd = x.data();
        let wd = self.w.data();
        let bd = self.b.data();
        let yd = y.data_mut();
        for r in 0..batch {
            let row = &xd[r * length..(r + 1) * length];
            let out = &mut yd[r * channels * out_len..(r + 1) * channels * out_len];
            for c in 0..channels {
                let filt = &wd[c * kernel..(c + 1) * kernel];
                for t in 0..out_len {
                    let mut acc = bd[c];
                    for (k, &wv) in filt.iter().enumerate() {
                        acc += wv * row[t + k];
                    }
                    out[c * out_len + t] = acc;
                }
            }
        }
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        let x = self.cached_x.as_ref().expect("cached by backward_params");
        let batch = x.rows();
        let length = x.cols();
        let (channels, kernel) = (self.channels(), self.kernel());
        let out_len = length - kernel + 1;
        let mut gx = Tensor::zeros(&[batch, length]);
        let wd = self.w.data();
        let gd = grad_out.data();
        let gxd = gx.data_mut();
        for r in 0..batch {
            let gout = &gd[r * channels * out_len..(r + 1) * channels * out_len];
            let grow = &mut gxd[r * length..(r + 1) * length];
            for c in 0..channels {
                let filt = &wd[c * kernel..(c + 1) * kernel];
                for t in 0..out_len {
                    let g = gout[c * out_len + t];
                    for k in 0..kernel {
                        grow[t + k] += g * filt[k];
                    }
                }
            }
        }
        gx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_x
            .as_ref()
            .expect("backward called before forward");
        let length = x.cols();
        let (channels, kernel) = (self.channels(), self.kernel());
        let out_len = length - kernel + 1;
        assert_eq!(grad_out.cols(), channels * out_len, "grad shape mismatch");
        // Overwrite, don't scale: `g *= 0.0` would turn a past Inf/NaN
        // gradient entry into a permanent NaN (0·Inf = NaN) instead of
        // recovering, unlike Dense which rebuilds its grads every backward.
        self.gw.data_mut().fill(0.0);
        self.gb.data_mut().fill(0.0);
        let xd = x.data();
        let gd = grad_out.data();
        let gwd = self.gw.data_mut();
        let gbd = self.gb.data_mut();
        for r in 0..x.rows() {
            let row = &xd[r * length..(r + 1) * length];
            let gout = &gd[r * channels * out_len..(r + 1) * channels * out_len];
            for c in 0..channels {
                let gfilt = &mut gwd[c * kernel..(c + 1) * kernel];
                for t in 0..out_len {
                    let g = gout[c * out_len + t];
                    gbd[c] += g;
                    for (gf, &xv) in gfilt.iter_mut().zip(&row[t..t + kernel]) {
                        *gf += g * xv;
                    }
                }
            }
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Per-channel 1-D max pooling with window = stride, over the channel-major
/// layout [`Conv1d`] produces: input `[batch, channels · len]`, output
/// `[batch, channels · len / window]`. This is where shift invariance comes
/// from — within a window, the filter response survives wherever the
/// pattern sat.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    channels: usize,
    window: usize,
    /// Flat input index of each output element's maximum (valid after
    /// `forward`), plus the input shape needed to rebuild the gradient.
    argmax: Vec<usize>,
    in_shape: (usize, usize),
}

impl MaxPool1d {
    /// Creates a pooling layer over `channels` channels with the given
    /// `window` (stride = window).
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `window == 0`.
    pub fn new(channels: usize, window: usize) -> Self {
        assert!(channels > 0 && window > 0, "empty pooling");
        MaxPool1d {
            channels,
            window,
            argmax: Vec::new(),
            in_shape: (0, 0),
        }
    }

    /// Pooling window (= stride).
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool1d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        let cols = x.cols();
        assert_eq!(cols % self.channels, 0, "input not channel-major");
        let len = cols / self.channels;
        assert_eq!(
            len % self.window,
            0,
            "per-channel length {len} not divisible by window {}",
            self.window
        );
        let pooled = len / self.window;
        let mut y = Tensor::zeros(&[batch, self.channels * pooled]);
        self.argmax.clear();
        self.argmax.reserve(batch * self.channels * pooled);
        self.in_shape = (batch, cols);
        let xd = x.data();
        let yd = y.data_mut();
        for r in 0..batch {
            for c in 0..self.channels {
                let base = r * cols + c * len;
                for p in 0..pooled {
                    let start = base + p * self.window;
                    let mut best = start;
                    for i in start + 1..start + self.window {
                        if xd[i] > xd[best] {
                            best = i;
                        }
                    }
                    yd[r * self.channels * pooled + c * pooled + p] = xd[best];
                    self.argmax.push(best);
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (batch, cols) = self.in_shape;
        assert!(batch > 0, "backward called before forward");
        assert_eq!(grad_out.len(), self.argmax.len(), "grad shape mismatch");
        let mut gx = Tensor::zeros(&[batch, cols]);
        let gxd = gx.data_mut();
        for (&src, &g) in self.argmax.iter().zip(grad_out.data()) {
            gxd[src] += g;
        }
        gx
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference check shared with `layer.rs` tests (duplicated
    /// here because test modules do not cross files).
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor) {
        let y = layer.forward(x);
        let ones = Tensor::full(y.shape(), 1.0);
        let gx = layer.backward(&ones);

        let analytic: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.data().to_vec()).collect();
        let eps = 1e-3f32;
        for (pi, grads) in analytic.iter().enumerate() {
            for j in (0..grads.len()).step_by(3) {
                let orig = layer.params()[pi].data()[j];
                layer.params_mut()[pi].data_mut()[j] = orig + eps;
                let up = layer.forward(x).sum();
                layer.params_mut()[pi].data_mut()[j] = orig - eps;
                let dn = layer.forward(x).sum();
                layer.params_mut()[pi].data_mut()[j] = orig;
                let numeric = (up - dn) / (2.0 * eps);
                assert!(
                    (numeric - grads[j]).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "param {pi}[{j}]: numeric {numeric} vs analytic {}",
                    grads[j]
                );
            }
        }
        for j in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[j] += eps;
            let up = layer.forward(&xp).sum();
            xp.data_mut()[j] -= 2.0 * eps;
            let dn = layer.forward(&xp).sum();
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - gx.data()[j]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input[{j}]: numeric {numeric} vs analytic {}",
                gx.data()[j]
            );
        }
    }

    fn sample_input(batch: usize, dim: usize) -> Tensor {
        let data: Vec<f32> = (0..batch * dim)
            .map(|i| ((i as f32 * 0.37).sin() * 1.3) + 0.11)
            .collect();
        Tensor::from_vec(data, &[batch, dim])
    }

    #[test]
    fn conv_forward_matches_hand_computation() {
        let mut conv = Conv1d::new(1, 2, 0);
        for p in conv.params_mut() {
            p.scale_assign(0.0);
        }
        // Filter [1, -1] with bias 0.5: discrete difference detector.
        conv.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1.0, -1.0]);
        conv.params_mut()[1].data_mut().copy_from_slice(&[0.5]);
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 2.0], &[1, 4]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.data(), &[0.5 - 2.0, 0.5 + 1.0, 0.5]);
    }

    #[test]
    fn conv_output_is_shift_equivariant() {
        let mut conv = Conv1d::new(3, 4, 1);
        let mut sig = vec![0.0f32; 16];
        sig[3] = 1.0;
        sig[4] = -1.0;
        let mut shifted = vec![0.0f32; 16];
        shifted[8] = 1.0;
        shifted[9] = -1.0;
        let ya = conv.forward(&Tensor::from_vec(sig, &[1, 16]));
        let yb = conv.forward(&Tensor::from_vec(shifted, &[1, 16]));
        let out_len = conv.out_len(16);
        // The response to the shifted bump is the shifted response (where
        // both positions are interior).
        for c in 0..3 {
            for t in 0..out_len - 5 {
                let a = ya.data()[c * out_len + t];
                let b = yb.data()[c * out_len + t + 5];
                assert!((a - b).abs() < 1e-6, "channel {c} t {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_gradients_check() {
        let mut conv = Conv1d::new(3, 4, 2);
        grad_check(&mut conv, &sample_input(2, 11));
    }

    #[test]
    fn maxpool_selects_window_maxima() {
        let mut pool = MaxPool1d::new(2, 2);
        // 2 channels of length 4 → pooled length 2 each.
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 0.0, -3.0, -1.0, 7.0, 7.5], &[1, 8]);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.data(), &[5.0, 2.0, -1.0, 7.5]);
        // Gradient routes to the argmax positions only.
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    fn maxpool_gradients_check() {
        // sample_input has no exact ties, so the max is differentiable at
        // every probed point.
        let mut pool = MaxPool1d::new(2, 3);
        grad_check(&mut pool, &sample_input(2, 12));
    }

    #[test]
    fn conv_param_counts() {
        let conv = Conv1d::new(6, 5, 0);
        assert_eq!(conv.param_count(), 6 * 5 + 6);
        assert_eq!(MaxPool1d::new(4, 2).param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn conv_backward_before_forward_panics() {
        let mut conv = Conv1d::new(1, 2, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_ragged_windows() {
        let mut pool = MaxPool1d::new(1, 3);
        let _ = pool.forward(&sample_input(1, 8));
    }
}
