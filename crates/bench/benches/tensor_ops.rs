//! Micro-benchmarks of the tensor substrate (matmul dominates training).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sync_switch_tensor::Tensor;

fn bench_tensor(c: &mut Criterion) {
    let a = Tensor::from_vec(
        (0..128 * 64).map(|i| (i as f32 * 0.13).sin()).collect(),
        &[128, 64],
    );
    let b = Tensor::from_vec(
        (0..64 * 32).map(|i| (i as f32 * 0.29).cos()).collect(),
        &[64, 32],
    );
    c.bench_function("matmul_128x64x32", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    c.bench_function("t_matmul_128x64x32", |bench| {
        let d = Tensor::full(&[128, 32], 0.5);
        bench.iter(|| black_box(a.t_matmul(&d)))
    });
    // The input gradient `δ·Wᵀ` of the benchmark model's 128→64 layer.
    let delta = Tensor::from_vec(
        (0..32 * 64).map(|i| (i as f32 * 0.17).sin()).collect(),
        &[32, 64],
    );
    let w = Tensor::from_vec(
        (0..128 * 64).map(|i| (i as f32 * 0.23).cos()).collect(),
        &[128, 64],
    );
    c.bench_function("matmul_t_32x64x128", |bench| {
        bench.iter(|| black_box(delta.matmul_t(&w)))
    });
    // The benchmark model's first 144→128 layer: forward `X·W` and weight
    // gradient `Xᵀ·δ` of a 32-sample batch, and the forward of the
    // 800-sample held-out set.
    let wave = |rows: usize, cols: usize, f: f32| {
        Tensor::from_vec(
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
            &[rows, cols],
        )
    };
    let x = wave(32, 144, 0.31);
    let w1 = wave(144, 128, 0.07);
    let delta1 = wave(32, 128, 0.19);
    let held_out = wave(800, 144, 0.41);
    c.bench_function("matmul_32x144x128", |bench| {
        bench.iter(|| black_box(x.matmul(&w1)))
    });
    c.bench_function("t_matmul_32x144x128", |bench| {
        bench.iter(|| black_box(x.t_matmul(&delta1)))
    });
    c.bench_function("matmul_800x144x128", |bench| {
        bench.iter(|| black_box(held_out.matmul(&w1)))
    });
    let mut p = Tensor::full(&[64 * 512], 0.1);
    let g = Tensor::full(&[64 * 512], 0.01);
    c.bench_function("axpy_32k", |bench| {
        bench.iter(|| {
            p.axpy(black_box(-0.1), &g);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_tensor
}
criterion_main!(benches);
