//! Seeded input generators. Every input of every workload is a pure
//! function of the workload seed; the program only ever sees the result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufim_core::prelude::*;

/// Dense synthetic database (the `bench_parallel` shape): every item sits in
/// `density` of the transactions with an existence probability in
/// U[0.5, 1].
pub fn dense_db(transactions: usize, items: u32, density: f64, seed: u64) -> UncertainDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (0..transactions)
        .map(|_| {
            let mut units = Vec::new();
            for i in 0..items {
                if rng.gen_bool(density) {
                    units.push((i, rng.gen_range(0.5..=1.0)));
                }
            }
            Transaction::new(units).expect("distinct items, probabilities in (0, 1]")
        })
        .collect();
    UncertainDatabase::with_num_items(t, items)
}

/// Dataset seeds travel through the serve protocol as JSON numbers (f64),
/// so they are kept below 2^53 to survive the wire exactly.
pub fn data_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt) & ((1 << 53) - 1)
}

/// A sensor-style stream over `items` items whose densities drift slowly:
/// item `i` appears with density `0.30 + 0.12·sin(2π(t/period + i/items))`
/// at stream position `t`, with existence probabilities in U[0.5, 1]. The
/// phases are evenly spaced rather than seeded, so the total density stays
/// constant and every seed sees the same load; the seed drives the draws.
pub struct DriftingStream {
    rng: StdRng,
    items: u32,
    period: f64,
    position: u64,
}

impl DriftingStream {
    pub fn new(items: u32, period: u64, seed: u64) -> Self {
        DriftingStream {
            rng: StdRng::seed_from_u64(seed),
            items,
            period: period as f64,
            position: 0,
        }
    }

    pub fn next_batch(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_transaction()).collect()
    }

    fn next_transaction(&mut self) -> Transaction {
        let t = self.position as f64 / self.period;
        self.position += 1;
        let mut units = Vec::new();
        for i in 0..self.items {
            let phase = f64::from(i) / f64::from(self.items);
            let density = 0.30 + 0.12 * (std::f64::consts::TAU * (t + phase)).sin();
            if self.rng.gen_bool(density) {
                units.push((i, self.rng.gen_range(0.5..=1.0)));
            }
        }
        Transaction::new(units).expect("distinct items, probabilities in (0, 1]")
    }
}

/// The exact bytes of a set of transactions (item ids and probability bits),
/// for input-identity checks.
pub fn fingerprint<'a>(transactions: impl IntoIterator<Item = &'a Transaction>) -> Vec<u8> {
    let mut out = Vec::new();
    for t in transactions {
        for (item, p) in t.units() {
            out.extend_from_slice(&item.to_le_bytes());
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        out.push(0xFF);
    }
    out
}

/// FNV-1a of [`fingerprint`]: a short input digest for the run metadata.
pub fn digest<'a>(transactions: impl IntoIterator<Item = &'a Transaction>) -> u64 {
    fingerprint(transactions)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_inputs_follow_the_seed() {
        let a = fingerprint(dense_db(500, 24, 0.4, 7).transactions());
        let b = fingerprint(dense_db(500, 24, 0.4, 7).transactions());
        let c = fingerprint(dense_db(500, 24, 0.4, 8).transactions());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_inputs_follow_the_seed() {
        let a = fingerprint(&DriftingStream::new(16, 1000, 3).next_batch(300));
        let b = fingerprint(&DriftingStream::new(16, 1000, 3).next_batch(300));
        let c = fingerprint(&DriftingStream::new(16, 1000, 4).next_batch(300));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn benchmark_generators_follow_the_seed() {
        let gen = |seed| {
            let db = ufim_data::Benchmark::Kosarak.generate(0.001, data_seed(seed, 1));
            fingerprint(db.transactions())
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }

    #[test]
    fn data_seeds_fit_a_json_number() {
        for seed in [0, 1, u64::MAX, 1 << 60] {
            assert!(data_seed(seed, 3) < (1 << 53));
        }
        assert_ne!(data_seed(1, 0), data_seed(2, 0));
    }
}
