//! **UFP-growth** — depth-first tree-growth mining over a UFP-tree
//! (Leung et al. 2008; paper §3.1.2), generalized over the frequentness
//! measure.
//!
//! The uncertain analog of FP-growth. The UFP-tree stores each node as the
//! triple the paper describes — *(item label, appearance probability, shared
//! count)* — and, crucially, two transactions may share a node **only when
//! both the label and the probability match exactly**. Under continuous
//! probability assignments that almost never happens, so the tree barely
//! compresses; the recursive conditional-tree construction then touches many
//! near-singleton paths. This implementation is deliberately faithful to
//! that design (it is *the point* of the paper's comparison that UFP-growth
//! pays for it; see Fig. 4), only generalizing the per-node count to
//! accumulated weights so conditional trees can carry path multipliers.
//!
//! **The child index.** Nodes keep no child lists. Each tree has one hash
//! map from `(parent, rank, probability bits)` to the child — exactly the
//! sharing key, so the tree's shape is the paper's. A barely-compressing
//! tree has nodes with tens of thousands of children (the sparse Kosarak
//! analog's root has ~35k), where a sorted per-node child vector pays a
//! memmove for every new child; the map pays one probe.
//!
//! **Pruned conditional trees: judge in the parent, expand in the child.**
//! Mining follows FP-growth. The root ranks are judged from the global
//! tree's header lists (`suffix ∪ {y}`'s statistics are weighted sums over
//! `y`'s node list). For a kept itemset `S ∪ {y}`, one pass over the
//! prefix paths of `y`'s nodes sums every ancestor rank `r`'s moments —
//! each path re-weighted by its node's own contribution — and judges
//! `S ∪ {y, r}` once. The conditional tree is then built from those prefix
//! paths with only the kept ranks, and the recursion walks the kept ranks
//! with the judgments already made. So every itemset is judged exactly
//! once, from one summation inside one task, and no conditional tree holds
//! a rank whose extension was pruned (standard FP-growth pruning; it skips
//! the candidates that extend a locally infrequent itemset).
//!
//! **The measure axis.** Because node sharing requires *exact* probability
//! equality along the whole path, every transaction through a node carries
//! the same per-node probability — so the node can accumulate not just
//! `w = Σ_t m_t` (the paper's count, generalized) but also `w₂ = Σ_t m_t²`
//! and the plain transaction count. That is enough to reconstruct, exactly,
//! the expected support `Σ q_t`, the support variance
//! `Σ q_t(1 − q_t) = esup − Σ q_t²`, and the nonzero count of every
//! extension — i.e. everything a moment-based [`FrequentnessMeasure`]
//! (expected support, Poisson, Normal) judges on. What aggregation *does*
//! destroy is the per-transaction probability vector, which is why the
//! exact DP/DC measures cannot run on this traversal (the matrix's one
//! principled hole).

//! **Parallelism.** Mining decomposes **recursively** over the
//! work-stealing pool ([`ufim_core::parallel::scope`]). The global
//! UFP-tree is built and its ranks judged once; each kept header rank
//! becomes a root task over the shared read-only tree when the tree clears
//! [`ufim_core::parallel::DEFAULT_MIN_WORK`], and — the nested part —
//! every conditional tree whose node count clears `SPAWN_MIN_NODES` is
//! re-spawned from inside its task (the conditional tree and its kept
//! ranks' judgments are *owned* by the child task, so nothing is shared
//! downward). A deep-skewed database, whose one dominant rank used to
//! serialize its entire recursion on one worker, now splits again at every
//! heavy conditional level. Per-task results and [`MinerStats`] merge in
//! spawn-key order through an [`OrderedSink`] (sums and maxes only; every
//! float is computed inside exactly one task), and spawn decisions are a
//! pure function of the input — so records and stats are bit-identical for
//! every `UFIM_THREADS`, pool size 1 running fully inline.

use crate::common::measure::{select_items, CandidateStats, FrequentnessMeasure, Judgment, Screen};
use crate::common::order::FrequencyOrder;
use std::collections::hash_map::Entry;
use ufim_core::parallel::{child_key, scope, OrderedSink, Scope, DEFAULT_MIN_WORK};
use ufim_core::prelude::*;

/// Conditional-tree node count above which the recursion below a kept
/// candidate is spawned as a nested pool task (the child task takes
/// ownership of the conditional tree). Small enough that a skewed rank's
/// heavy conditionals split; large enough that task overhead stays noise
/// against the conditional build that precedes it.
const SPAWN_MIN_NODES: usize = 1 << 9;

/// Suffix length beyond which recursion always stays inline — a backstop
/// against unbounded task bookkeeping on pathological lattices.
const SPAWN_MAX_DEPTH: usize = 24;

/// The UFP-growth miner.
#[derive(Clone, Debug, Default)]
pub struct UFPGrowth {
    _private: (),
}

impl UFPGrowth {
    /// Creates the miner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MinerInfo for UFPGrowth {
    fn name(&self) -> &'static str {
        "UFP-growth"
    }
    fn description(&self) -> &'static str {
        "depth-first divide-and-conquer over a UFP-tree (nodes shared only on equal item AND probability)"
    }
}

/// One UFP-tree node: `(item-rank, probability)` plus the accumulated path
/// weights and the parent link. `weight` generalizes the paper's count: at
/// build time it is the number of transactions through the node; in
/// conditional trees it carries the accumulated path multiplier mass
/// `Σ_t m_t`. `weight_sq` (`Σ_t m_t²`) and `count` ride along so
/// moment-based measures can reconstruct variance and nonzero counts
/// exactly (see module docs).
struct UfpNode {
    rank: u32,
    parent: u32,
    prob: f64,
    weight: f64,
    weight_sq: f64,
    count: u64,
}

/// A UFP-tree over rank-encoded items. `header[rank]` lists every node of
/// that rank in creation order (the paper's horizontal item links).
struct UfpTree {
    nodes: Vec<UfpNode>,
    header: Vec<Vec<u32>>,
    /// The child index: `(parent, rank, probability bits) → child`.
    children: FxHashMap<(u32, u32, u64), u32>,
}

const ROOT: u32 = 0;

/// A kept header rank of a tree and the judgment of the itemset it
/// extends the tree's suffix to, made before the tree was built.
type Kept = (u32, Judgment);

impl UfpTree {
    fn new(num_ranks: usize) -> Self {
        UfpTree {
            nodes: vec![UfpNode {
                rank: u32::MAX,
                parent: u32::MAX,
                prob: 0.0,
                weight: 0.0,
                weight_sq: 0.0,
                count: 0,
            }],
            header: vec![Vec::new(); num_ranks],
            children: FxHashMap::default(),
        }
    }

    /// The global tree: every transaction projected onto the selected
    /// items in rank order, weight 1.
    fn global(db: &UncertainDatabase, order: &FrequencyOrder) -> Self {
        let mut tree = UfpTree::new(order.len());
        for t in db.transactions() {
            let path = order.project(t.items(), t.probs());
            if !path.is_empty() {
                tree.insert(&path, 1.0, 1.0, 1);
            }
        }
        tree
    }

    /// Inserts one (rank-sorted) weighted path, sharing nodes only on exact
    /// `(rank, probability)` matches — the defining UFP-tree rule.
    fn insert(&mut self, path: &[(u32, f64)], weight: f64, weight_sq: f64, count: u64) {
        let mut node = ROOT;
        for &(rank, prob) in path {
            node = match self.children.entry((node, rank, prob.to_bits())) {
                Entry::Occupied(child) => {
                    let child = *child.get();
                    let n = &mut self.nodes[child as usize];
                    n.weight += weight;
                    n.weight_sq += weight_sq;
                    n.count += count;
                    child
                }
                Entry::Vacant(slot) => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(UfpNode {
                        rank,
                        parent: node,
                        prob,
                        weight,
                        weight_sq,
                        count,
                    });
                    self.header[rank as usize].push(child);
                    *slot.insert(child)
                }
            };
        }
    }

    /// The nodes strictly between `node` and the root, leaf-to-root order.
    fn ancestors(&self, node: u32) -> impl Iterator<Item = &UfpNode> + '_ {
        let mut at = self.nodes[node as usize].parent;
        std::iter::from_fn(move || {
            (at != ROOT).then(|| {
                let n = &self.nodes[at as usize];
                at = n.parent;
                n
            })
        })
    }

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The conditional tree of `rank`'s nodes, pruned: one pass over their
    /// prefix paths sums each ancestor rank's moments (every path weighted
    /// by its node's `w·p`, `w₂·p²`, count) and judges that rank's
    /// extension of the suffix once; the paths are then inserted with only
    /// the kept ranks. Returns the tree and its kept ranks, bottom-up.
    fn conditional<M: FrequentnessMeasure>(
        &self,
        rank: u32,
        measure: &M,
        stats: &mut MinerStats,
    ) -> (UfpTree, Vec<Kept>) {
        let needs_variance = measure.needs().variance;
        let nodes = &self.header[rank as usize];
        let mut moments = vec![(0.0f64, 0.0f64, 0u64); rank as usize];
        for &n in nodes {
            let node = &self.nodes[n as usize];
            let (w, w2) = (
                node.weight * node.prob,
                node.weight_sq * node.prob * node.prob,
            );
            for a in self.ancestors(n) {
                let m = &mut moments[a.rank as usize];
                m.0 += w * a.prob;
                if needs_variance {
                    m.1 += w2 * a.prob * a.prob;
                }
                m.2 += node.count;
            }
        }
        let mut verdict = vec![None; rank as usize];
        let mut kept = Vec::new();
        for r in (0..rank).rev() {
            let (esup, sum_sq, count) = moments[r as usize];
            if count > 0 {
                verdict[r as usize] = judge(measure, esup, sum_sq, count, stats);
                if let Some(j) = verdict[r as usize] {
                    kept.push((r, j));
                }
            }
        }

        let mut cond = UfpTree::new(rank as usize);
        if kept.is_empty() {
            return (cond, kept);
        }
        let mut path = Vec::new();
        for &n in nodes {
            let node = &self.nodes[n as usize];
            path.clear();
            path.extend(
                self.ancestors(n)
                    .filter(|a| verdict[a.rank as usize].is_some())
                    .map(|a| (a.rank, a.prob)),
            );
            if path.is_empty() {
                continue;
            }
            path.reverse();
            cond.insert(
                &path,
                node.weight * node.prob,
                node.weight_sq * node.prob * node.prob,
                node.count,
            );
        }
        (cond, kept)
    }
}

/// Screens and judges one candidate from its reconstructed moments;
/// `sum_sq = Σ q_t²`, so the variance `Σ q_t(1 − q_t)` is `esup − sum_sq`.
fn judge<M: FrequentnessMeasure>(
    measure: &M,
    esup: f64,
    sum_sq: f64,
    count: u64,
    stats: &mut MinerStats,
) -> Option<Judgment> {
    stats.candidates_evaluated += 1;
    match measure.screen(esup, count) {
        Screen::Keep => {}
        Screen::PruneCount => {
            stats.candidates_pruned_count += 1;
            return None;
        }
        Screen::PruneBound => {
            stats.candidates_pruned_chernoff += 1;
            return None;
        }
    }
    let c = CandidateStats {
        esup,
        variance: esup - sum_sq,
        count,
        probs: None,
    };
    measure.judge(&c, stats)
}

/// One kept rank's unit of work: emit `suffix ∪ {item(rank)}` with its
/// judgment, build the pruned conditional tree, and recurse over its kept
/// ranks — spawning the recursion as a nested pool task when the
/// conditional tree clears `SPAWN_MIN_NODES` (the task takes ownership of
/// the tree; see the module docs). Shared by the in-task recursion
/// ([`mine_tree_rec`]) and the root fan-out in [`mine_tree`].
///
/// `task_key`/`spawn_seq` are the enclosing task's spawn-order identity
/// (see [`child_key`]); spawned children push their local results into
/// `sink` under the minted key.
#[allow(clippy::too_many_arguments)] // one recursion context, kept flat like the sequential original
fn mine_rank<'env, M: FrequentnessMeasure>(
    s: &Scope<'env>,
    sink: &'env OrderedSink<MiningResult>,
    task_key: &[u32],
    spawn_seq: &mut u32,
    tree: &UfpTree,
    order: &'env FrequencyOrder,
    measure: &'env M,
    (rank, j): Kept,
    suffix: &[ItemId],
    out: &mut MiningResult,
) {
    let mut new_suffix = Vec::with_capacity(suffix.len() + 1);
    new_suffix.push(order.item(rank));
    new_suffix.extend_from_slice(suffix);
    out.itemsets.push(FrequentItemset {
        itemset: Itemset::from_items(new_suffix.iter().copied()),
        expected_support: j.expected_support,
        variance: j.variance,
        frequent_prob: j.frequent_prob,
    });

    let (cond, kept) = tree.conditional(rank, measure, &mut out.stats);
    out.stats.scans += 1; // each conditional build re-reads node lists
    if kept.is_empty() {
        return;
    }
    if s.threads() > 1 && new_suffix.len() < SPAWN_MAX_DEPTH && cond.num_nodes() >= SPAWN_MIN_NODES
    {
        // Heavy conditional: hand the owned tree to a nested task so the
        // recursion below it runs concurrently with our remaining ranks
        // (and can itself split again).
        let key = child_key(task_key, spawn_seq);
        s.spawn(move |s| {
            let mut local = MiningResult::default();
            let mut child_seq = 0;
            mine_tree_rec(
                s,
                sink,
                &key,
                &mut child_seq,
                &cond,
                &kept,
                order,
                measure,
                &new_suffix,
                &mut local,
            );
            sink.push(key, local);
        });
    } else {
        mine_tree_rec(
            s,
            sink,
            task_key,
            spawn_seq,
            &cond,
            &kept,
            order,
            measure,
            &new_suffix,
            out,
        );
    }
}

/// FP-growth-style mining over a conditional tree: one [`mine_rank`] per
/// kept rank, bottom-up (each of which may spawn its own recursion — the
/// nesting happens there).
#[allow(clippy::too_many_arguments)] // one recursion context, kept flat like the sequential original
fn mine_tree_rec<'env, M: FrequentnessMeasure>(
    s: &Scope<'env>,
    sink: &'env OrderedSink<MiningResult>,
    task_key: &[u32],
    spawn_seq: &mut u32,
    tree: &UfpTree,
    kept: &[Kept],
    order: &'env FrequencyOrder,
    measure: &'env M,
    suffix: &[ItemId],
    out: &mut MiningResult,
) {
    out.stats.peak_structure_nodes = out.stats.peak_structure_nodes.max(tree.num_nodes() as u64);
    for &k in kept {
        mine_rank(
            s, sink, task_key, spawn_seq, tree, order, measure, k, suffix, out,
        );
    }
}

/// Runs the depth-first tree-growth traversal of `measure` — the
/// `TreeGrowth` column of the matrix as one function.
///
/// The caller guarantees the measure judges from moments only
/// (`!needs().prob_vector`); the UFP-tree's node aggregation cannot serve
/// per-transaction probability vectors.
pub(crate) fn mine_tree<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: &M,
) -> MiningResult {
    debug_assert!(
        !measure.needs().prob_vector,
        "tree growth cannot serve probability vectors"
    );
    let mut result = MiningResult::default();
    if db.is_empty() {
        return result;
    }
    // Level-1 filtering (one scan), then transactions are projected onto
    // the surviving items sorted by decreasing global expected support
    // (the paper's Figure 1).
    let selection = select_items(db, measure, &mut result.stats);
    let order = FrequencyOrder::from_selection(db.num_items(), selection);
    if order.is_empty() {
        return result;
    }

    let tree = UfpTree::global(db, &order);
    result.stats.scans += 1;
    result.stats.peak_structure_nodes = result
        .stats
        .peak_structure_nodes
        .max(tree.num_nodes() as u64);

    // The root ranks are judged from the global tree's header lists,
    // bottom-up.
    let needs_variance = measure.needs().variance;
    let mut kept: Vec<Kept> = Vec::new();
    for rank in (0..tree.header.len() as u32).rev() {
        let nodes = &tree.header[rank as usize];
        if nodes.is_empty() {
            continue;
        }
        let (mut esup, mut sum_sq, mut count) = (0.0f64, 0.0f64, 0u64);
        for &n in nodes {
            let node = &tree.nodes[n as usize];
            esup += node.weight * node.prob;
            if needs_variance {
                sum_sq += node.weight_sq * node.prob * node.prob;
            }
            count += node.count;
        }
        if let Some(j) = judge(measure, esup, sum_sq, count, &mut result.stats) {
            kept.push((rank, j));
        }
    }

    // When the global tree is heavy enough, each kept root rank — its
    // conditional build and the recursion below it — becomes one root
    // task over the shared read-only tree (and the recursion re-spawns
    // below it; see the module docs). Light trees run the ranks inline,
    // where the same size cutoffs keep everything sequential. The sink
    // merges per-task results in spawn-key order, so every pool size
    // produces bit-identical output.
    let sink = OrderedSink::new();
    let tree_ref = &tree;
    let order_ref = &order;
    scope(|s| {
        let spawn_roots = s.threads() > 1 && tree_ref.num_nodes() >= DEFAULT_MIN_WORK;
        let mut spawn_seq = 0;
        for &k in &kept {
            if spawn_roots {
                let key = child_key(&[], &mut spawn_seq);
                let sink = &sink;
                s.spawn(move |s| {
                    let mut local = MiningResult::default();
                    let mut child_seq = 0;
                    mine_rank(
                        s,
                        sink,
                        &key,
                        &mut child_seq,
                        tree_ref,
                        order_ref,
                        measure,
                        k,
                        &[],
                        &mut local,
                    );
                    sink.push(key, local);
                });
            } else {
                mine_rank(
                    s,
                    &sink,
                    &[],
                    &mut spawn_seq,
                    tree_ref,
                    order_ref,
                    measure,
                    k,
                    &[],
                    &mut result,
                );
            }
        }
    });
    for sub in sink.into_sorted_values() {
        result.stats.absorb(&sub.stats);
        result.itemsets.extend(sub.itemsets);
    }
    result.canonicalize();
    result
}

impl ExpectedSupportMiner for UFPGrowth {
    fn mine_expected(
        &self,
        db: &UncertainDatabase,
        min_esup: Ratio,
    ) -> Result<MiningResult, CoreError> {
        let threshold = min_esup.threshold_real(db.num_transactions());
        let measure = crate::common::measure::ExpectedSupport::new(threshold);
        Ok(mine_tree(db, &measure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use crate::common::measure::ExpectedSupport;
    use ufim_core::examples::{deterministic_small, paper_table1};

    #[test]
    fn example1_matches_paper() {
        let db = paper_table1();
        let r = UFPGrowth::new().mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(
            r.sorted_itemsets(),
            vec![Itemset::singleton(0), Itemset::singleton(2)]
        );
    }

    #[test]
    fn figure1_tree_threshold() {
        // min_esup = 0.25 is the Figure 1 setting: all 6 items frequent.
        let db = paper_table1();
        let r = UFPGrowth::new().mine_expected_ratio(&db, 0.25).unwrap();
        let oracle = BruteForce::new().mine_expected_ratio(&db, 0.25).unwrap();
        assert_eq!(r.sorted_itemsets(), oracle.sorted_itemsets());
        // esup values carried through the tree must match the definition.
        for fi in &r.itemsets {
            let want = db.expected_support(fi.itemset.items());
            assert!(
                (fi.expected_support - want).abs() < 1e-9,
                "{}: {} vs {}",
                fi.itemset,
                fi.expected_support,
                want
            );
        }
    }

    #[test]
    fn agrees_with_oracle_across_thresholds() {
        let db = paper_table1();
        for min_esup in [0.1, 0.2, 0.3, 0.45, 0.6, 0.9] {
            let fast = UFPGrowth::new().mine_expected_ratio(&db, min_esup).unwrap();
            let slow = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            assert_eq!(
                fast.sorted_itemsets(),
                slow.sorted_itemsets(),
                "min_esup={min_esup}"
            );
        }
    }

    #[test]
    fn node_sharing_requires_equal_probability() {
        // Two transactions, same item, different probabilities → two nodes.
        let db = UncertainDatabase::from_transactions(vec![
            Transaction::new([(0, 0.5)]).unwrap(),
            Transaction::new([(0, 0.6)]).unwrap(),
            Transaction::new([(0, 0.5)]).unwrap(), // shares with the first
        ]);
        let r = UFPGrowth::new().mine_expected_ratio(&db, 0.1).unwrap();
        // esup(0) = 1.6; structure had root + 2 distinct (item,prob) nodes.
        assert!((r.get(&Itemset::singleton(0)).unwrap().expected_support - 1.6).abs() < 1e-12);
        assert_eq!(r.stats.peak_structure_nodes, 3);
    }

    #[test]
    fn deterministic_compresses_like_fp_tree() {
        // With all probabilities 1.0 sharing works, so identical
        // transactions collapse into one path.
        let db = UncertainDatabase::from_transactions(vec![Transaction::certain([0, 1, 2]); 50]);
        let r = UFPGrowth::new().mine_expected_ratio(&db, 0.5).unwrap();
        assert_eq!(r.stats.peak_structure_nodes, 4); // root + one 3-node path
        assert_eq!(r.len(), 7); // 2^3 - 1 itemsets all frequent
    }

    #[test]
    fn deterministic_db_matches_oracle() {
        let db = deterministic_small();
        for min_esup in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let fast = UFPGrowth::new().mine_expected_ratio(&db, min_esup).unwrap();
            let slow = BruteForce::new()
                .mine_expected_ratio(&db, min_esup)
                .unwrap();
            assert_eq!(
                fast.sorted_itemsets(),
                slow.sorted_itemsets(),
                "min_esup={min_esup}"
            );
        }
    }

    #[test]
    fn tree_reconstructs_variance_and_count_exactly() {
        // The (w, w₂, count) accumulation must reproduce the reference
        // moments for every frequent itemset — the property that makes the
        // Normal measure runnable on this traversal.
        let db = paper_table1();
        let measure = ExpectedSupport::with_variance(1.0);
        let r = mine_tree(&db, &measure);
        assert!(!r.is_empty());
        for fi in &r.itemsets {
            let (we, wv) = db.support_moments(fi.itemset.items());
            assert!((fi.expected_support - we).abs() < 1e-9, "{}", fi.itemset);
            assert!(
                (fi.variance.unwrap() - wv).abs() < 1e-9,
                "{}: {} vs {}",
                fi.itemset,
                fi.variance.unwrap(),
                wv
            );
        }
    }

    /// Asserts that the conditional tree of every kept rank holds exactly
    /// its kept ranks, recursively.
    fn assert_pruned(tree: &UfpTree, rank: u32, measure: &ExpectedSupport) {
        let (cond, kept) = tree.conditional(rank, measure, &mut MinerStats::default());
        for (r, nodes) in cond.header.iter().enumerate() {
            let is_kept = kept.iter().any(|&(k, _)| k as usize == r);
            assert_eq!(!nodes.is_empty(), is_kept, "rank {r} under rank {rank}");
        }
        for &(r, _) in &kept {
            assert_pruned(&cond, r, measure);
        }
    }

    #[test]
    fn conditional_trees_hold_only_kept_ranks() {
        // a = 0, b = 1, c = 2 with esup 10 > 9 > 5, so the ranks are the
        // item ids. {a,b} and {b,c} are frequent (5 each) at threshold
        // 2.8; {a,c} is not (1).
        let mut txs = vec![Transaction::certain([0]); 5];
        txs.extend(vec![Transaction::certain([0, 1]); 4]);
        txs.extend(vec![Transaction::certain([1, 2]); 4]);
        txs.push(Transaction::certain([0, 1, 2]));
        let db = UncertainDatabase::from_transactions(txs);
        let r = UFPGrowth::new().mine_expected_ratio(&db, 0.2).unwrap();
        let oracle = BruteForce::new().mine_expected_ratio(&db, 0.2).unwrap();
        assert_eq!(r.sorted_itemsets(), oracle.sorted_itemsets());
        assert_eq!(r.len(), 5);
        // Root: {c}, {b}, {a}. Prefix paths of c: {b,c} kept, {a,c}
        // pruned, so c's conditional tree holds b alone and {a,b,c} is
        // never evaluated. Prefix paths of b: {a,b} kept. a has none.
        assert_eq!(r.stats.candidates_evaluated, 3 + 2 + 1);

        let measure = ExpectedSupport::new(2.8);
        let mut stats = MinerStats::default();
        let selection = select_items(&db, &measure, &mut stats);
        let order = FrequencyOrder::from_selection(db.num_items(), selection);
        let tree = UfpTree::global(&db, &order);
        let (cond_c, kept) = tree.conditional(2, &measure, &mut stats);
        assert_eq!(kept.iter().map(|&(r, _)| r).collect::<Vec<_>>(), [1]);
        assert!(cond_c.header[0].is_empty(), "pruned rank a stays out");
        for rank in 0..3 {
            assert_pruned(&tree, rank, &measure);
        }
    }

    #[test]
    fn empty_db_and_nothing_frequent() {
        let db = UncertainDatabase::from_transactions(vec![]);
        assert!(UFPGrowth::new()
            .mine_expected_ratio(&db, 0.5)
            .unwrap()
            .is_empty());
        let db = paper_table1();
        assert!(UFPGrowth::new()
            .mine_expected_ratio(&db, 1.0)
            .unwrap()
            .is_empty());
    }
}
