//! Layer microbenchmarks of the traced run: `nn`, `store` and the wire
//! codec, each timed through its public functions on inputs built from the
//! run's seed at the workload's shapes.

use std::hint::black_box;
use std::time::Instant;

use sync_switch::ps::engine::step_rng;
use sync_switch::ps::transport::wire;
use sync_switch::ps::{PullBuffer, ShardLayout, ShardedStore};

use crate::workload::{Inputs, BATCH, WORKERS};

/// Mean microseconds per call of each timed layer function.
#[derive(Debug, Default)]
pub struct Micro {
    pub loss_and_grad_us: f64,
    pub store_pull_us: f64,
    /// One worker's whole push: every shard's apply.
    pub store_apply_us: f64,
    /// One shard's dense push payload.
    pub encode_push_us: f64,
    /// One shard's sparse push payload, from the touched rows of a real
    /// gradient (the whole shard as one run for a dense model).
    pub encode_push_sparse_us: f64,
    /// One shard's pull reply, decoded into the worker's buffer.
    pub decode_pulled_us: f64,
}

/// Blocks per measurement; the reported time is the median block's mean.
const BLOCKS: usize = 9;
/// Target duration of one block.
const BLOCK_S: f64 = 0.02;

/// Median over blocks of the mean time per call, in microseconds.
fn time_us(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let reps = ((BLOCK_S / once) as usize).clamp(1, 100_000);
    let mut per_call: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BLOCKS / 2]
}

pub fn measure(inputs: &Inputs) -> Micro {
    let mut model = inputs.model.clone();
    let (x, y) = inputs
        .train
        .sample_batch(BATCH, &mut step_rng(inputs.seed, 0, 0));
    let loss_and_grad_us = time_us(|| {
        black_box(model.loss_and_grad(black_box(&x), black_box(&y)));
    });
    let (_, grad) = model.loss_and_grad(&x, &y);
    let mut runs = Vec::new();
    let sparse = model.grad_nonzero_runs_into(&mut runs);

    let params = model.params_flat();
    let store = ShardedStore::new(&params, WORKERS);
    let mut buf = PullBuffer::new();
    let store_pull_us = time_us(|| {
        black_box(store.pull_into(&mut buf));
    });
    // A tiny rate keeps the repeated applies from moving the parameters
    // far; the cost of an apply does not depend on it.
    let store_apply_us = time_us(|| {
        for (shard, (offset, len)) in store.layout().iter().enumerate() {
            black_box(store.apply_shard_update(shard, &grad[offset..offset + len], 1e-9, 0.9));
        }
    });

    let layout = ShardLayout::new(params.len(), WORKERS);
    let (offset, len) = layout.range(0);
    let shard_grad = &grad[offset..offset + len];
    let mut payload = Vec::new();
    let encode_push_us = time_us(|| {
        payload.clear();
        wire::encode_push_shard(&mut payload, 0, 0.01, 0.9, black_box(shard_grad));
    });

    let (indices, rows) = shard_rows(sparse, &runs, offset, len, &grad);
    let encode_push_sparse_us = time_us(|| {
        payload.clear();
        wire::encode_push_shard_sparse(&mut payload, 0, 0.01, 0.9, &indices, black_box(&rows));
    });

    payload.clear();
    wire::encode_pulled(&mut payload, &params[offset..offset + len], &[0]);
    let mut params_out = vec![0.0f32; len];
    let mut clocks_out = [0u64];
    let decode_pulled_us = time_us(|| {
        wire::decode_pulled_into(black_box(&payload), &mut params_out, &mut clocks_out)
            .expect("a freshly encoded pull reply decodes");
    });

    Micro {
        loss_and_grad_us,
        store_pull_us,
        store_apply_us,
        encode_push_us,
        encode_push_sparse_us,
        decode_pulled_us,
    }
}

/// The shard-relative runs of the gradient inside `[offset, offset + len)`
/// and their values, as a sparse push carries them.
fn shard_rows(
    sparse: bool,
    runs: &[(usize, usize)],
    offset: usize,
    len: usize,
    grad: &[f32],
) -> (Vec<(u32, u32)>, Vec<f32>) {
    let whole = [(offset, len)];
    let runs = if sparse { runs } else { &whole[..] };
    let mut indices = Vec::new();
    let mut rows = Vec::new();
    for &(start, n) in runs {
        let s = start.max(offset);
        let e = (start + n).min(offset + len);
        if s < e {
            indices.push(((s - offset) as u32, (e - s) as u32));
            rows.extend_from_slice(&grad[s..e]);
        }
    }
    (indices, rows)
}
