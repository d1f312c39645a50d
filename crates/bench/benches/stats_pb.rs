//! Substrate benchmarks: the Poisson-Binomial kernels that differentiate
//! the exact miners, in two groups:
//!
//! * **A-1 (FFT crossover)** — naive vs FFT convolution across output sizes,
//!   justifying `ufim_stats::conv::FFT_CROSSOVER`;
//! * **kernel scaling** — `survival_dp` (`O(N·msup)`) vs
//!   `pmf_divide_conquer` (`O(N log N)`) vs the `O(1)`-after-moments
//!   approximations — the complexity hierarchy the paper prints as Table 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ufim_stats::chernoff::chernoff_upper_bound;
use ufim_stats::conv::{convolve_fft, convolve_naive};
use ufim_stats::normal::normal_survival_with_continuity;
use ufim_stats::pb::{pmf_divide_conquer, support_moments, survival_dp};
use ufim_stats::poisson::poisson_survival;

fn probs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 % 100) as f64 + 1.0) / 101.0)
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pb_kernels");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    for &n in &[256usize, 1024, 4096] {
        let q = probs(n);
        let msup = n / 2;
        group.bench_with_input(BenchmarkId::new("survival_dp", n), &q, |b, q| {
            b.iter(|| survival_dp(std::hint::black_box(q), msup))
        });
        group.bench_with_input(BenchmarkId::new("pmf_dc_fft", n), &q, |b, q| {
            b.iter(|| pmf_divide_conquer(std::hint::black_box(q), Some(msup)))
        });
        group.bench_with_input(BenchmarkId::new("normal_approx", n), &q, |b, q| {
            b.iter(|| {
                let (mu, var) = support_moments(std::hint::black_box(q));
                normal_survival_with_continuity(mu, var, msup)
            })
        });
        group.bench_with_input(BenchmarkId::new("poisson_approx", n), &q, |b, q| {
            b.iter(|| {
                let (mu, _) = support_moments(std::hint::black_box(q));
                poisson_survival(msup, mu)
            })
        });
        group.bench_with_input(BenchmarkId::new("chernoff_bound", n), &q, |b, q| {
            b.iter(|| {
                let (mu, _) = support_moments(std::hint::black_box(q));
                chernoff_upper_bound(mu, msup as f64)
            })
        });
    }
    group.finish();
}

/// Ablation A-1: where does FFT convolution overtake the naive product-sum?
fn bench_conv_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_crossover");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    for &n in &[32usize, 128, 256, 512, 2048] {
        let a = probs(n);
        let b_ = probs(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| convolve_naive(std::hint::black_box(&a), std::hint::black_box(&b_)))
        });
        group.bench_with_input(BenchmarkId::new("fft", n), &n, |bch, _| {
            bch.iter(|| convolve_fft(std::hint::black_box(&a), std::hint::black_box(&b_)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_conv_crossover);
criterion_main!(benches);
