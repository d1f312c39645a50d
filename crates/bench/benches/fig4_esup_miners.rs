//! Criterion micro-benchmarks backing Figure 4: the three expected-support
//! miners across a dense and a sparse dataset, plus an ablation of
//! UApriori's decremental pruning (on vs off) on the dense Connect analog.
//!
//! These complement (not replace) the `ufim-bench fig4` harness: Criterion
//! gives statistically robust *time* comparisons at a fixed small scale,
//! while the harness sweeps full parameter axes and measures memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ufim_core::prelude::*;
use ufim_data::Benchmark;
use ufim_miners::{Algorithm, UApriori};

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

fn bench_datasets(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_esup_miners");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for bench in [
        Benchmark::Connect,
        Benchmark::Accident,
        Benchmark::Kosarak,
        Benchmark::Gazelle,
    ] {
        let db = bench.generate(SCALE, SEED);
        // A mid-axis threshold: hard enough to exercise level ≥ 2.
        let min_esup = match bench {
            Benchmark::Connect => 0.5,
            Benchmark::Accident => 0.3,
            Benchmark::Kosarak => 0.005,
            Benchmark::Gazelle => 0.01,
            Benchmark::T25I15D320k => 0.1,
        };
        for algo in Algorithm::EXPECTED_SUPPORT {
            let miner = algo.expected_support_miner().unwrap();
            group.bench_with_input(BenchmarkId::new(algo.name(), bench.name()), &db, |b, db| {
                b.iter(|| {
                    miner
                        .mine_expected_ratio(std::hint::black_box(db), min_esup)
                        .unwrap()
                        .len()
                })
            });
        }
    }
    group.finish();
}

/// Ablation A-2: UApriori's decremental pruning on/off, on the dense
/// Connect analog at `SCALE`.
fn bench_decremental_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_ablation_decremental");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let db = Benchmark::Connect.generate(SCALE, SEED);
    for (label, miner) in [
        ("plain", UApriori::new()),
        ("decremental", UApriori::with_decremental_pruning()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                miner
                    .mine_expected_ratio(std::hint::black_box(&db), 0.45)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datasets, bench_decremental_ablation);
criterion_main!(benches);
