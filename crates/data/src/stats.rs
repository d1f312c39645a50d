//! Dataset shape diagnostics beyond Table 6's four columns.
//!
//! The relative performance of the miners hinges on *popularity skew* (how
//! concentrated item occurrences are) as much as on density; these
//! statistics quantify it for generated analogs, so `ufim-datagen --stats`
//! can show that each analog lands in the right regime and tests can pin
//! the generators' profiles.

use crate::deterministic::DeterministicDatabase;

/// Distributional statistics of item popularity in a deterministic
/// database.
#[derive(Clone, Debug, PartialEq)]
pub struct PopularityProfile {
    /// Number of items that occur at least once.
    pub active_items: usize,
    /// Occurrence share of the single most frequent item (`0..=1`, of all
    /// unit occurrences).
    pub top1_share: f64,
    /// Occurrence share of the ten most frequent items.
    pub top10_share: f64,
    /// Gini coefficient of the item-occurrence distribution over *active*
    /// items: 0 = perfectly even, → 1 = all mass on one item.
    pub gini: f64,
    /// Transaction-length distribution quartiles `(p25, p50, p75)`.
    pub len_quartiles: (usize, usize, usize),
}

/// Computes the profile in one pass over the database plus two sorts.
pub fn popularity_profile(db: &DeterministicDatabase) -> PopularityProfile {
    let counts = db.item_counts();
    let mut active: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    active.sort_unstable_by(|a, b| b.cmp(a)); // descending
    let total: u64 = active.iter().sum();
    let total_f = (total as f64).max(1.0);

    let top1_share = active.first().map_or(0.0, |&c| c as f64 / total_f);
    let top10_share = active.iter().take(10).sum::<u64>() as f64 / total_f;

    // Gini over the ascending distribution: G = (2 Σ i·x_i)/(n Σ x) − (n+1)/n.
    let gini = if active.len() <= 1 || total == 0 {
        0.0
    } else {
        let n = active.len() as f64;
        let mut asc = active.clone();
        asc.sort_unstable();
        let weighted: f64 = asc
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        (2.0 * weighted / (n * total as f64) - (n + 1.0) / n).clamp(0.0, 1.0)
    };

    let mut lens: Vec<usize> = db.transactions().iter().map(Vec::len).collect();
    lens.sort_unstable();
    let q = |f: f64| -> usize {
        if lens.is_empty() {
            0
        } else {
            lens[((lens.len() - 1) as f64 * f).round() as usize]
        }
    };
    PopularityProfile {
        active_items: active.len(),
        top1_share,
        top10_share,
        gini,
        len_quartiles: (q(0.25), q(0.5), q(0.75)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{connect_like, kosarak_like};

    #[test]
    fn uniform_data_has_low_gini() {
        // Every item once per transaction: perfectly even.
        let db = DeterministicDatabase::new(vec![vec![0, 1, 2, 3]; 50]);
        let p = popularity_profile(&db);
        assert_eq!(p.active_items, 4);
        assert!(p.gini < 1e-9, "gini {}", p.gini);
        assert!((p.top1_share - 0.25).abs() < 1e-12);
        assert_eq!(p.len_quartiles, (4, 4, 4));
    }

    #[test]
    fn concentrated_data_has_high_gini() {
        let mut rows = vec![vec![0u32]; 95];
        rows.extend(vec![vec![1u32]; 5]);
        let db = DeterministicDatabase::new(rows);
        let p = popularity_profile(&db);
        assert!(p.gini > 0.4, "gini {}", p.gini);
        assert!((p.top1_share - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_database() {
        let db = DeterministicDatabase::new(vec![]);
        let p = popularity_profile(&db);
        assert_eq!(p.active_items, 0);
        assert_eq!(p.gini, 0.0);
        assert_eq!(p.len_quartiles, (0, 0, 0));
    }

    #[test]
    fn kosarak_analog_is_much_more_skewed_than_connect() {
        // The regimes that drive the paper's conclusions: clickstream
        // popularity is power-law, game-state popularity near-uniform
        // within dominant variants.
        let connect = popularity_profile(&connect_like(0.002, 4));
        let kosarak = popularity_profile(&kosarak_like(0.002, 4));
        assert!(
            kosarak.gini > connect.gini + 0.2,
            "kosarak gini {} vs connect {}",
            kosarak.gini,
            connect.gini
        );
        assert!(kosarak.top10_share > 0.25);
        // Connect rows are constant length 43.
        assert_eq!(connect.len_quartiles, (43, 43, 43));
    }
}
