//! `mine_dense` and `mine_sparse`: batch mining, one cycle = every miner of
//! the workload once over the same database.
//!
//! The traced cycle reaches the level-wise layers through the same public
//! seams `mine_level_wise` uses — `build_engine`, `MeasureEvaluator` and
//! `run_apriori` — with three delegating wrappers that open spans around
//! the engine calls and the level loop and time `judge`. Its records must
//! be bit-identical to the untraced `MatrixMiner` call.

use crate::report::Report;
use crate::stats::{overhead_pct, ratio, Samples};
use crate::trace::Tracer;
use crate::{gen, mb, Ctx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use ufim_core::prelude::*;
use ufim_miners::common::measure::{CandidateStats, Judgment, Screen, StatNeeds};
use ufim_miners::common::{
    build_engine, run_apriori, ExactKernel, ExactMeasure, ExpectedSupport, FrequentnessMeasure,
    LevelEvaluator, LevelSupport, MeasureEvaluator, ShardPartial, StatRequest, SupportEngine,
};
use ufim_miners::MatrixMiner;

/// One miner of a cycle.
struct Cell {
    /// Report name; the per-call median is reported as `<name>_s`.
    name: &'static str,
    /// The traced run's per-call metric.
    metric: &'static str,
    measure: MeasureKind,
    traversal: TraversalKind,
    engine: EngineKind,
    min_sup: f64,
    pft: f64,
}

const fn cell(
    (name, metric): (&'static str, &'static str),
    measure: MeasureKind,
    traversal: TraversalKind,
    engine: EngineKind,
    min_sup: f64,
) -> Cell {
    Cell {
        name,
        metric,
        measure,
        traversal,
        engine,
        min_sup,
        pft: 0.9,
    }
}

use EngineKind::{Diffset, Vertical};
use MeasureKind::{ExactDc, ExpectedSupport as Esup, Normal};
use TraversalKind::{HyperStructure, LevelWise, TreeGrowth};

/// Dense anchor: N=20,000, 24 items at 40% density. UApriori is
/// kernel-bound, DCB judge-bound, NDUH-Mine a depth-first traversal.
const DENSE: [Cell; 3] = [
    cell(
        ("uapriori", "miners.uapriori_s"),
        Esup,
        LevelWise,
        Vertical,
        0.02,
    ),
    cell(("dcb", "miners.dcb_s"), ExactDc, LevelWise, Vertical, 0.1),
    cell(
        ("nduh_mine", "miners.nduh_mine_s"),
        Normal,
        HyperStructure,
        Vertical,
        0.02,
    ),
];

/// Kosarak analog at scale 0.07 (N=69,300 over 41,270 Zipf items): two
/// default shards, skewed posting lengths, a huge vocabulary, and the
/// depth-first traversals' home regime.
const SPARSE: [Cell; 4] = [
    cell(
        ("uapriori", "miners.uapriori_s"),
        Esup,
        LevelWise,
        Vertical,
        0.002,
    ),
    cell(
        ("uapriori_diffset", "miners.uapriori_diffset_s"),
        Esup,
        LevelWise,
        Diffset,
        0.002,
    ),
    cell(
        ("uh_mine", "miners.uh_mine_s"),
        Esup,
        HyperStructure,
        Vertical,
        0.002,
    ),
    cell(
        ("ufp_growth", "miners.ufp_growth_s"),
        Esup,
        TreeGrowth,
        Vertical,
        0.002,
    ),
];

const SETUP_REPEATS: usize = 7;

fn params(c: &Cell) -> MiningParams {
    MiningParams::new(c.min_sup, c.pft)
        .expect("workload thresholds are valid ratios")
        .with_engine(c.engine)
}

fn mine(c: &Cell, db: &UncertainDatabase) -> MiningResult {
    let mut r = MatrixMiner::new(c.measure, c.traversal)
        .mine_probabilistic(db, params(c))
        .expect("every workload cell is supported");
    r.canonicalize();
    r
}

/// Bit-identical records: same itemsets in the same order, same f64 bits.
pub fn identical(a: &MiningResult, b: &MiningResult) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} records vs {}", a.len(), b.len()));
    }
    let bits = |o: Option<f64>| o.map(f64::to_bits);
    for (x, y) in a.itemsets.iter().zip(&b.itemsets) {
        if x.itemset != y.itemset
            || x.expected_support.to_bits() != y.expected_support.to_bits()
            || bits(x.variance) != bits(y.variance)
            || bits(x.frequent_prob) != bits(y.frequent_prob)
        {
            return Err(format!("record {:?} differs from {:?}", x, y));
        }
    }
    Ok(())
}

/// Same itemsets (records may differ in low bits between traversals).
fn same_itemsets(a: &MiningResult, b: &MiningResult) -> Result<(), String> {
    let set = |r: &MiningResult| {
        let mut v: Vec<Itemset> = r.itemsets.iter().map(|f| f.itemset.clone()).collect();
        v.sort();
        v
    };
    if set(a) == set(b) {
        Ok(())
    } else {
        Err(format!("itemset sets differ ({} vs {})", a.len(), b.len()))
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, dense: bool) {
    let cells: &[Cell] = if dense { &DENSE } else { &SPARSE };
    let generate = || {
        if dense {
            gen::dense_db(20_000, 24, 0.4, gen::data_seed(ctx.seed, 0))
        } else {
            ufim_data::Benchmark::Kosarak.generate(0.07, gen::data_seed(ctx.seed, 0))
        }
    };

    // Set-up: data generation, repeated; the median is reported.
    let mut setup = Samples::default();
    let mut db = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        db = Some(std::hint::black_box(generate()));
        setup.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one set-up");
    report.set_n("setup_s", setup.median(), setup.len());
    report.set("data.generate_s", setup.median());
    report.line(format!("setup_s: {}", setup.describe("s")));
    let n = db.num_transactions();
    report.line(format!(
        "dataset: N={n} items={} shards={} fingerprint={:016x}",
        db.num_items(),
        ShardPlan::for_transactions(n).num_shards(n),
        gen::digest(db.transactions())
    ));

    // References, untimed and outside setup_s (this also warms the pool).
    let refs: Vec<MiningResult> = cells.iter().map(|c| mine(c, &db)).collect();
    for (c, r) in cells.iter().zip(&refs) {
        report.line(format!("reference {}: {} itemsets", c.name, r.len()));
    }
    if !dense {
        // Vertical and diffset engines agree bit for bit; the depth-first
        // traversals find UApriori's itemset set.
        report
            .check(identical(&refs[0], &refs[1]).map_err(|e| format!("vertical vs diffset: {e}")));
        for (c, r) in cells.iter().zip(&refs).skip(2) {
            report.check(
                same_itemsets(&refs[0], r).map_err(|e| format!("{} vs uapriori: {e}", c.name)),
            );
        }
    }

    // The timed phase. A traced run alternates untraced and traced cycles,
    // so drift on the machine hits both sides of the overhead comparison.
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut per_cell = vec![Samples::default(); cells.len()];
    let (mut cycles, mut traced) = (Samples::default(), Samples::default());
    ufim_metrics::alloc::reset_peak();
    let start = Instant::now();
    while cycles.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        // A cycle's time is the sum of its calls; checks run between them.
        let mut cycle = 0.0;
        if ctx.trace && cycles.len() > traced.len() {
            tracer.begin_op();
            for (c, reference) in cells.iter().zip(&refs) {
                let t = Instant::now();
                let r = traced_call(c, &db, &tracer, &mut tally);
                cycle += t.elapsed().as_secs_f64();
                report
                    .check(identical(&r, reference).map_err(|e| format!("traced {}: {e}", c.name)));
            }
            traced.push(cycle);
            tally.cycles += 1;
            continue;
        }
        for (i, c) in cells.iter().enumerate() {
            let t = Instant::now();
            let r = mine(c, std::hint::black_box(&db));
            let dt = t.elapsed().as_secs_f64();
            per_cell[i].push(dt);
            cycle += dt;
            report.check(identical(&r, &refs[i]).map_err(|e| format!("{}: {e}", c.name)));
        }
        cycles.push(cycle);
    }
    report.set("peak_heap_mb", mb(ufim_metrics::alloc::peak_bytes()));
    report.set_n("op_p50_ms", cycles.median() * 1e3, cycles.len());
    report.set_n(
        "ops_per_s",
        cycles.len() as f64 / cycles.sum(),
        cycles.len(),
    );
    report.line(format!("cycle: {}", cycles.describe("s")));
    for (c, s) in cells.iter().zip(&per_cell) {
        report.line(format!("{}_s: {}", c.name, s.describe("s")));
        report.set_n(c.metric, s.median(), s.len());
    }
    if ctx.trace {
        report.line(format!("traced cycle: {}", traced.describe("s")));
        report.set("trace.overhead_pct", overhead_pct(&cycles, &traced));
        layer_metrics(report, &tracer, &tally);
        crate::write_spans(ctx, &tracer);
    }
}

/// Work counters of the traced cycles, summed.
#[derive(Default)]
struct Tally {
    cycles: u64,
    candidates: u64,
    intersections: u64,
    shards_evaluated: u64,
    shards_pruned: u64,
    peak_memo: u64,
    exact: u64,
    screen_pruned: u64,
    judge_ns: u64,
    judged: u64,
    kept: u64,
    traversal_candidates: u64,
    peak_nodes: u64,
}

fn layer_metrics(report: &mut Report, tracer: &Tracer, tally: &Tally) {
    let per = |x: u64| x as f64 / tally.cycles as f64;
    let ms = |ns: u64| per(ns) / 1e6;
    let wall = tracer.wall_times();
    let own = tracer.self_times();
    let get = |m: &std::collections::BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0);
    report.set(
        "vertical.index_build_ms",
        ms(get(&wall, "vertical.index_build")),
    );
    report.set("apriori.candgen_ms", ms(get(&own, "apriori.run")));
    report.set("apriori.candidates", per(tally.candidates));
    report.set("engine.evaluate_ms", ms(get(&wall, "engine.evaluate")));
    report.set(
        "engine.materialize_ms",
        ms(get(&wall, "engine.prob_vectors")),
    );
    report.set("engine.finish_ms", ms(get(&wall, "engine.finish_level")));
    report.set("engine.intersections", per(tally.intersections));
    report.set("engine.shards_evaluated", per(tally.shards_evaluated));
    report.set(
        "engine.shard_prune_ratio",
        ratio(
            tally.shards_pruned,
            tally.shards_evaluated + tally.shards_pruned,
        ),
    );
    report.set("engine.peak_memo_bytes", tally.peak_memo as f64);
    report.set("measure.judge_ms", ms(tally.judge_ns));
    report.set("measure.judged", per(tally.judged));
    report.set("measure.exact_evaluations", per(tally.exact));
    report.set("measure.screen_pruned", per(tally.screen_pruned));
    report.set("measure.keep_ratio", ratio(tally.kept, tally.judged));
    report.set("traversal.candidates", per(tally.traversal_candidates));
    report.set("traversal.peak_structure_nodes", tally.peak_nodes as f64);

    // How much of each traced level-wise call its layer spans account for.
    let spans = tracer.spans();
    let mut covered = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let coverage = spans
        .iter()
        .zip(covered)
        .filter(|(s, _)| s.name == "miners.level_wise")
        .map(|(s, c)| 100.0 * c as f64 / (s.end_ns - s.start_ns).max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    let coverage = if coverage.is_finite() { coverage } else { 0.0 };
    report.set("trace.coverage_pct", coverage);
    report.line(format!(
        "level-wise span coverage: {coverage:.2}% of the least-covered call"
    ));
}

fn traced_call(
    c: &Cell,
    db: &UncertainDatabase,
    tracer: &Tracer,
    tally: &mut Tally,
) -> MiningResult {
    if c.traversal != LevelWise {
        let r = tracer.time("miners.depth_first", || mine(c, db));
        tally.traversal_candidates += r.stats.candidates_evaluated;
        tally.peak_nodes = tally.peak_nodes.max(r.stats.peak_structure_nodes);
        tally.exact += r.stats.exact_evaluations;
        return r;
    }
    // The measures `MatrixMiner::mine_probabilistic` builds for these cells.
    let p = params(c);
    let n = db.num_transactions();
    let mut r = match c.measure {
        Esup => traced_level_wise(
            db,
            ExpectedSupport::new(p.min_sup.threshold_real(n)),
            c.engine,
            tracer,
            tally,
        ),
        ExactDc => traced_level_wise(
            db,
            ExactMeasure::new(ExactKernel::DivideConquer, true, n, &p),
            c.engine,
            tracer,
            tally,
        ),
        other => unreachable!("no level-wise {other} cell in the mining workloads"),
    };
    r.canonicalize();
    let s = &r.stats;
    tally.candidates += s.candidates_evaluated;
    tally.intersections += s.intersections;
    tally.shards_evaluated += s.shards_evaluated;
    tally.shards_pruned += s.shards_pruned;
    tally.peak_memo = tally.peak_memo.max(s.peak_memo_bytes);
    tally.exact += s.exact_evaluations;
    tally.screen_pruned += s.candidates_pruned_count + s.candidates_pruned_chernoff;
    r
}

/// `mine_level_wise` with spans: engine build, the level loop (whose self
/// time is candidate generation), each level, and the engine calls inside.
fn traced_level_wise<M: FrequentnessMeasure>(
    db: &UncertainDatabase,
    measure: M,
    kind: EngineKind,
    tracer: &Tracer,
    tally: &mut Tally,
) -> MiningResult {
    let _call = tracer.span("miners.level_wise");
    let engine = tracer.time("vertical.index_build", || build_engine(kind, db));
    let mut levels = TracedLevels {
        inner: MeasureEvaluator {
            measure: TracedMeasure::new(measure),
            engine: Box::new(TracedEngine {
                inner: engine,
                tracer,
            }),
            capture: None,
        },
        tracer,
    };
    let r = tracer.time("apriori.run", || run_apriori(db, &mut levels));
    let m = &levels.inner.measure;
    tally.judge_ns += m.judge_ns.load(Ordering::Relaxed);
    tally.judged += m.judged.load(Ordering::Relaxed);
    tally.kept += m.kept.load(Ordering::Relaxed);
    // Freeing the engine's memo and index is part of the call.
    tracer.time("engine.drop", || drop(levels));
    r
}

struct TracedLevels<'e, M: FrequentnessMeasure> {
    inner: MeasureEvaluator<'e, TracedMeasure<M>>,
    tracer: &'e Tracer,
}

impl<M: FrequentnessMeasure> LevelEvaluator for TracedLevels<'_, M> {
    fn evaluate_level(
        &mut self,
        db: &UncertainDatabase,
        level: usize,
        candidates: &[Itemset],
        stats: &mut MinerStats,
    ) -> Vec<FrequentItemset> {
        let _span = self.tracer.span("measure.level");
        self.inner.evaluate_level(db, level, candidates, stats)
    }
}

/// Delegates every method; spans the three a level-wise mine calls.
struct TracedEngine<'a> {
    inner: Box<dyn SupportEngine + 'a>,
    tracer: &'a Tracer,
}

impl SupportEngine for TracedEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(
        &mut self,
        candidates: &[Itemset],
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport {
        let _span = self.tracer.span("engine.evaluate");
        self.inner.evaluate(candidates, want, stats)
    }

    fn prob_vectors(&mut self, candidates: &[Itemset], stats: &mut MinerStats) -> Vec<Vec<f64>> {
        let _span = self.tracer.span("engine.prob_vectors");
        self.inner.prob_vectors(candidates, stats)
    }

    fn finish_level(&mut self, frequent: &[FrequentItemset]) {
        let _span = self.tracer.span("engine.finish_level");
        self.inner.finish_level(frequent)
    }

    fn peak_memo_bytes(&self) -> u64 {
        self.inner.peak_memo_bytes()
    }

    fn shard_plan(&self) -> ShardPlan {
        self.inner.shard_plan()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn evaluate_shard(
        &mut self,
        candidates: &[Itemset],
        shard: usize,
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> ShardPartial {
        self.inner.evaluate_shard(candidates, shard, want, stats)
    }

    fn merge_shards(
        &mut self,
        candidates: &[Itemset],
        partials: Vec<ShardPartial>,
        want: StatRequest,
        stats: &mut MinerStats,
    ) -> LevelSupport {
        self.inner.merge_shards(candidates, partials, want, stats)
    }

    fn apply_window_step(
        &mut self,
        step: &WindowStep,
        probe: &StepProbe,
        stats: &mut MinerStats,
    ) -> bool {
        self.inner.apply_window_step(step, probe, stats)
    }
}

/// Delegates every method; times `judge`. Measures are shared across
/// threads (`Sync`), so the tallies are atomic.
struct TracedMeasure<M> {
    inner: M,
    judge_ns: AtomicU64,
    judged: AtomicU64,
    kept: AtomicU64,
}

impl<M> TracedMeasure<M> {
    fn new(inner: M) -> Self {
        TracedMeasure {
            inner,
            judge_ns: AtomicU64::new(0),
            judged: AtomicU64::new(0),
            kept: AtomicU64::new(0),
        }
    }
}

impl<M: FrequentnessMeasure> FrequentnessMeasure for TracedMeasure<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs(&self) -> StatNeeds {
        self.inner.needs()
    }

    fn min_esup_bound(&self) -> Option<f64> {
        self.inner.min_esup_bound()
    }

    fn min_count_bound(&self) -> Option<u64> {
        self.inner.min_count_bound()
    }

    fn screen(&self, esup: f64, count: u64) -> Screen {
        self.inner.screen(esup, count)
    }

    fn judge(&self, c: &CandidateStats<'_>, stats: &mut MinerStats) -> Option<Judgment> {
        let t = Instant::now();
        let j = self.inner.judge(c, stats);
        self.judge_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.judged.fetch_add(1, Ordering::Relaxed);
        if j.is_some() {
            self.kept.fetch_add(1, Ordering::Relaxed);
        }
        j
    }

    fn as_esup_threshold(&self) -> Option<f64> {
        self.inner.as_esup_threshold()
    }
}
