//! Sequential network container with flat parameter access.

use sync_switch_tensor::Tensor;

use crate::conv::{Conv1d, MaxPool1d};
use crate::embedding::Embedding;
use crate::layer::{Dense, Layer, Relu, ResidualBlock};
use crate::loss::SoftmaxCrossEntropy;

/// A feed-forward classification network: a stack of layers topped by
/// softmax cross-entropy.
///
/// All parameters can be flattened to / restored from a single `Vec<f32>`,
/// which is exactly the representation the parameter server shards across
/// nodes — mirroring how TensorFlow places variables on PSs.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    loss: SoftmaxCrossEntropy,
    input_dim: usize,
    classes: usize,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            loss: self.loss.clone(),
            input_dim: self.input_dim,
            classes: self.classes,
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.len())
            .field("input_dim", &self.input_dim)
            .field("classes", &self.classes)
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Network {
    /// Builds a plain MLP: `input → hidden… → classes` with ReLU between
    /// dense layers.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0` or `classes == 0`.
    pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Self {
        assert!(input_dim > 0 && classes > 0, "dimensions must be positive");
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut prev = input_dim;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(Box::new(Dense::new(prev, h, seed.wrapping_add(i as u64))));
            layers.push(Box::new(Relu::new()));
            prev = h;
        }
        layers.push(Box::new(Dense::new(prev, classes, seed.wrapping_add(1000))));
        Network {
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_dim,
            classes,
        }
    }

    /// Builds a residual MLP: an input projection, `blocks` residual blocks
    /// of the given `width`, and a classifier head. This is the structural
    /// stand-in for the paper's ResNet32/ResNet50 workloads: deeper variants
    /// have more blocks and parameters, like ResNet50 vs ResNet32.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn residual_mlp(
        input_dim: usize,
        width: usize,
        blocks: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            input_dim > 0 && width > 0 && classes > 0,
            "dimensions must be positive"
        );
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        layers.push(Box::new(Dense::new(input_dim, width, seed)));
        layers.push(Box::new(Relu::new()));
        for b in 0..blocks {
            layers.push(Box::new(ResidualBlock::new(
                width,
                seed.wrapping_add(10 + 2 * b as u64),
            )));
        }
        layers.push(Box::new(Dense::new(width, classes, seed.wrapping_add(999))));
        Network {
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_dim,
            classes,
        }
    }

    /// Builds a 1-D convnet classifier: `Conv1d(channels, kernel)` over a
    /// single-channel signal of `length` samples, ReLU, per-channel max
    /// pooling with the given `pool` window, and a dense classifier head.
    /// The structural stand-in for the paper's convolutional workloads —
    /// the filters detect class patterns at any shift, which is what makes
    /// the workload's locality matter.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `length < kernel`, or the conv
    /// output length is not divisible by `pool`.
    pub fn conv1d_classifier(
        length: usize,
        channels: usize,
        kernel: usize,
        pool: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            length > 0 && channels > 0 && classes > 0,
            "dimensions must be positive"
        );
        let conv = Conv1d::new(channels, kernel, seed);
        let out_len = conv.out_len(length);
        assert_eq!(
            out_len % pool,
            0,
            "conv output {out_len} not divisible by pool {pool}"
        );
        let head_in = channels * (out_len / pool);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(conv),
            Box::new(Relu::new()),
            Box::new(MaxPool1d::new(channels, pool)),
            Box::new(Dense::new(head_in, classes, seed.wrapping_add(999))),
        ];
        Network {
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_dim: length,
            classes,
        }
    }

    /// Builds a vocab-style classifier with a sparse-gradient trunk: a
    /// mean-pooled `Embedding(vocab, dim)` over `tokens` token ids per
    /// example, a hidden dense layer, and a classifier head. The embedding
    /// table dominates the parameter count while each batch's gradient
    /// touches only the rows of the tokens it saw —
    /// [`Network::grad_nonzero_runs_into`] reports exactly those runs, so
    /// the parameter-server push path can ship only the touched rows.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn embedding_classifier(
        vocab: usize,
        dim: usize,
        hidden: usize,
        tokens: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        assert!(
            vocab > 0 && dim > 0 && hidden > 0 && tokens > 0 && classes > 0,
            "dimensions must be positive"
        );
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Embedding::new(vocab, dim, seed)),
            Box::new(Dense::new(dim, hidden, seed.wrapping_add(1))),
            Box::new(Relu::new()),
            Box::new(Dense::new(hidden, classes, seed.wrapping_add(999))),
        ];
        Network {
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_dim: tokens,
            classes,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass producing `[batch, classes]` logits.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Mean loss on a batch without touching gradients.
    pub fn loss(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(x);
        self.loss.loss(&logits, labels)
    }

    /// Runs forward + backward, returning the mean loss and the flattened
    /// gradient vector (aligned with [`Network::params_flat`]).
    ///
    /// The first layer runs [`Layer::backward_params`]: the gradient with
    /// respect to the network input is never needed, so it is not computed.
    pub fn loss_and_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, Vec<f32>) {
        let logits = self.forward(x);
        let (loss, mut grad) = self.loss.loss_and_grad(&logits, labels);
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("a network has at least one layer");
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        first.backward_params(&grad);
        (loss, self.grads_flat())
    }

    /// Flattens all parameters into one vector (layer order, tensor order).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Fills `out` with the sorted, disjoint `(offset, len)` runs of the
    /// flat gradient that the last backward pass could have written, and
    /// returns whether the gradient is sparse. Returns `false` (with `out`
    /// cleared) when every layer is dense — the caller should then treat
    /// the whole vector as live rather than enumerate one full-length run.
    /// Valid after [`Network::loss_and_grad`]; reuses `out`'s allocation.
    pub fn grad_nonzero_runs_into(&self, out: &mut Vec<(usize, usize)>) -> bool {
        out.clear();
        let mut sparse = false;
        let mut offset = 0;
        for layer in &self.layers {
            sparse |= layer.grad_nonzero_runs(offset, out);
            offset += layer.param_count();
        }
        if !sparse || out.is_empty() {
            out.clear();
            return false;
        }
        // Coalesce adjacent runs (layer order keeps them sorted): fewer,
        // longer segments mean fewer spans on the wire.
        let mut w = 0;
        for r in 1..out.len() {
            if out[w].0 + out[w].1 == out[r].0 {
                out[w].1 += out[r].1;
            } else {
                w += 1;
                out[w] = out[r];
            }
        }
        out.truncate(w + 1);
        true
    }

    /// Flattens all gradients into one vector (valid after
    /// [`Network::loss_and_grad`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Restores all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Network::param_count`].
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector has wrong length"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
    }

    /// Predicted class per row.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Top-1 accuracy on a labelled set.
    pub fn accuracy_on(&mut self, x: &Tensor, labels: &[usize]) -> f64 {
        crate::metrics::accuracy(&self.forward(x), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    #[test]
    fn mlp_shapes_and_counts() {
        let net = Network::mlp(8, &[16, 12], 4, 0);
        // 8*16+16 + 16*12+12 + 12*4+4 = 144+204+52
        assert_eq!(net.param_count(), 144 + 204 + 52);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.classes(), 4);
    }

    #[test]
    fn forward_output_shape() {
        let mut net = Network::mlp(6, &[10], 3, 1);
        let x = Tensor::zeros(&[5, 6]);
        assert_eq!(net.forward(&x).shape(), &[5, 3]);
    }

    #[test]
    fn params_flat_round_trip() {
        let mut net = Network::residual_mlp(4, 8, 2, 3, 2);
        let flat = net.params_flat();
        assert_eq!(flat.len(), net.param_count());
        let mut changed = flat.clone();
        for v in &mut changed {
            *v += 0.5;
        }
        net.set_params_flat(&changed);
        assert_eq!(net.params_flat(), changed);
    }

    #[test]
    fn grads_align_with_params() {
        let mut net = Network::mlp(4, &[6], 2, 3);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), &[2, 4]);
        let (_, grad) = net.loss_and_grad(&x, &[0, 1]);
        assert_eq!(grad.len(), net.param_count());
        assert!(grad.iter().any(|&g| g != 0.0), "gradient should be nonzero");
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut net = Network::residual_mlp(8, 12, 2, 3, 4);
        let x = Tensor::from_vec(
            (0..64)
                .map(|i| ((i * 37 % 97) as f32) / 97.0 - 0.5)
                .collect(),
            &[8, 8],
        );
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let initial = net.loss(&x, &labels);
        for _ in 0..400 {
            let (_, grad) = net.loss_and_grad(&x, &labels);
            let mut p = net.params_flat();
            for (pv, gv) in p.iter_mut().zip(&grad) {
                *pv -= 0.1 * gv;
            }
            net.set_params_flat(&p);
        }
        let trained = net.loss(&x, &labels);
        assert!(
            trained < initial * 0.5,
            "loss {initial} -> {trained} did not improve enough"
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Network::mlp(3, &[4], 2, 0);
        let mut b = a.clone();
        assert_eq!(a.params_flat(), b.params_flat());
        let mut p = b.params_flat();
        p[0] += 1.0;
        b.set_params_flat(&p);
        assert_ne!(a.params_flat(), b.params_flat());
        // Both still train independently.
        let x = Tensor::zeros(&[1, 3]);
        let _ = a.loss_and_grad(&x, &[0]);
        let _ = b.loss_and_grad(&x, &[1]);
    }

    #[test]
    fn identical_seeds_build_identical_networks() {
        let a = Network::residual_mlp(5, 7, 3, 4, 42);
        let b = Network::residual_mlp(5, 7, 3, 4, 42);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = Network::residual_mlp(5, 7, 3, 4, 43);
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn bad_flat_length_panics() {
        let mut net = Network::mlp(3, &[], 2, 0);
        net.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn conv_classifier_shapes_and_counts() {
        // length 12, kernel 5 → out_len 8; pool 4 → 2 per channel.
        let mut net = Network::conv1d_classifier(12, 3, 5, 4, 4, 1);
        assert_eq!(net.input_dim(), 12);
        assert_eq!(net.param_count(), (3 * 5 + 3) + (3 * 2 * 4 + 4));
        let x = Tensor::zeros(&[5, 12]);
        assert_eq!(net.forward(&x).shape(), &[5, 4]);
        // Dense everywhere: no sparse runs reported.
        let (_, grad) = net.loss_and_grad(&x, &[0, 1, 2, 3, 0]);
        assert_eq!(grad.len(), net.param_count());
        let mut runs = Vec::new();
        assert!(!net.grad_nonzero_runs_into(&mut runs));
        assert!(runs.is_empty());
    }

    #[test]
    fn embedding_classifier_reports_sparse_runs() {
        let (vocab, dim, hidden, tokens, classes) = (20, 4, 6, 3, 2);
        let mut net = Network::embedding_classifier(vocab, dim, hidden, tokens, classes, 2);
        let table = vocab * dim;
        let head = (dim * hidden + hidden) + (hidden * classes + classes);
        assert_eq!(net.param_count(), table + head);
        // One example touching tokens {1, 7} (7 twice).
        let x = Tensor::from_vec(vec![7.0, 1.0, 7.0], &[1, tokens]);
        let (_, grad) = net.loss_and_grad(&x, &[1]);
        assert_eq!(grad.len(), net.param_count());
        let mut runs = Vec::new();
        assert!(net.grad_nonzero_runs_into(&mut runs));
        // Touched table rows 1 and 7, plus the dense head as one run.
        assert_eq!(runs, vec![(dim, dim), (7 * dim, dim), (table, head)]);
        // The runs cover every nonzero gradient entry.
        for (i, &g) in grad.iter().enumerate() {
            if g != 0.0 {
                assert!(
                    runs.iter().any(|&(o, l)| i >= o && i < o + l),
                    "nonzero grad at {i} outside the reported runs"
                );
            }
        }
    }

    #[test]
    fn embedding_adjacent_rows_coalesce() {
        let mut net = Network::embedding_classifier(10, 4, 3, 2, 2, 3);
        let x = Tensor::from_vec(vec![4.0, 5.0], &[1, 2]);
        net.loss_and_grad(&x, &[0]);
        let mut runs = Vec::new();
        assert!(net.grad_nonzero_runs_into(&mut runs));
        // Rows 4 and 5 are adjacent → one run of 2·dim.
        assert_eq!(runs[0], (16, 8));
        assert_eq!(runs.len(), 2, "rows + head: {runs:?}");
    }

    /// `loss_and_grad` with a full `backward` on every layer, the first
    /// included: the reference the first layer's `Layer::backward_params`
    /// must reproduce.
    fn loss_and_grad_full_backward(
        net: &mut Network,
        x: &Tensor,
        labels: &[usize],
    ) -> (f32, Vec<f32>) {
        let logits = net.forward(x);
        let (loss, mut grad) = net.loss.loss_and_grad(&logits, labels);
        for layer in net.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        (loss, net.grads_flat())
    }

    /// Trains `net` and a clone side by side for a few SGD steps, one through
    /// `loss_and_grad` and one through the full-backward reference, and
    /// requires bitwise-equal losses, gradients and sparse runs every step.
    fn assert_first_layer_skip_is_bitwise(mut net: Network, data: &Dataset) {
        let mut reference = net.clone();
        let (mut runs, mut ref_runs) = (Vec::new(), Vec::new());
        for step in 0..8 {
            let idx: Vec<usize> = (0..8).map(|i| (step * 8 + i) % data.len()).collect();
            let (x, y) = data.batch(&idx);
            let (loss, grad) = net.loss_and_grad(&x, &y);
            let (ref_loss, ref_grad) = loss_and_grad_full_backward(&mut reference, &x, &y);
            assert_eq!(loss.to_bits(), ref_loss.to_bits(), "step {step} loss");
            assert_eq!(grad.len(), ref_grad.len());
            for (i, (g, r)) in grad.iter().zip(&ref_grad).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "step {step} grad[{i}]: {g} vs {r}"
                );
            }
            assert_eq!(
                net.grad_nonzero_runs_into(&mut runs),
                reference.grad_nonzero_runs_into(&mut ref_runs)
            );
            assert_eq!(runs, ref_runs, "step {step} sparse runs");
            let mut p = net.params_flat();
            for (pv, gv) in p.iter_mut().zip(&grad) {
                *pv -= 0.1 * gv;
            }
            net.set_params_flat(&p);
            reference.set_params_flat(&p);
        }
    }

    /// Every first-layer type — `Dense`, `Conv1d`, `Embedding` — at the
    /// architectures of the trainable workloads (`mlp_blobs`,
    /// `conv_shifted`, `sparse_embedding`), plus the residual MLP and the
    /// benchmark's 144-128-64-10 MLP.
    #[test]
    fn first_layer_param_backward_is_bitwise_the_full_backward() {
        let blobs = Dataset::gaussian_blobs(4, 20, 8, 0.35, 1);
        assert_first_layer_skip_is_bitwise(Network::mlp(8, &[16], 4, 1), &blobs);
        assert_first_layer_skip_is_bitwise(Network::residual_mlp(8, 12, 2, 4, 1), &blobs);
        let shifted = Dataset::shifted_patterns(4, 20, 32, 0.15, 2);
        assert_first_layer_skip_is_bitwise(Network::conv1d_classifier(32, 8, 5, 7, 4, 2), &shifted);
        let tokens = Dataset::zipf_tokens(4, 20, 512, 8, 1.1, 3);
        assert_first_layer_skip_is_bitwise(
            Network::embedding_classifier(512, 16, 24, 8, 4, 3),
            &tokens,
        );
        let wide = Dataset::gaussian_blobs(10, 8, 144, 0.5, 4);
        assert_first_layer_skip_is_bitwise(Network::mlp(144, &[128, 64], 10, 4), &wide);
    }

    #[test]
    fn conv_classifier_learns_shifted_patterns() {
        let mut net = Network::conv1d_classifier(16, 4, 5, 4, 2, 5);
        // Two classes: a bump at a random-ish shift vs an alternating
        // pattern. SGD should separate them quickly.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            let mut row = vec![0.0f32; 16];
            if i % 2 == 0 {
                let s = (i * 3) % 11;
                row[s] = 1.5;
                row[s + 1] = 1.5;
                labels.push(0);
            } else {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = if j % 2 == 0 { 0.8 } else { -0.8 };
                }
                labels.push(1);
            }
            data.extend_from_slice(&row);
        }
        let x = Tensor::from_vec(data, &[16, 16]);
        let initial = net.loss(&x, &labels);
        for _ in 0..200 {
            let (_, grad) = net.loss_and_grad(&x, &labels);
            let mut p = net.params_flat();
            for (pv, gv) in p.iter_mut().zip(&grad) {
                *pv -= 0.1 * gv;
            }
            net.set_params_flat(&p);
        }
        let trained = net.loss(&x, &labels);
        assert!(
            trained < initial * 0.5,
            "conv loss {initial} -> {trained} did not improve enough"
        );
    }
}
