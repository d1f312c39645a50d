//! `stream_window`: a sensor-style sliding window with two standing queries.
//!
//! The window holds 16,384 slots over 16 items whose densities drift
//! slowly, so the frequent border keeps moving. One step expires and
//! appends 256 transactions (1.6% churn) and refreshes both queries:
//! esup + variance on the vertical engine and Normal at pft 0.9 on the
//! diffset engine. Memo patching, the border tracker and the window carry
//! nearly all the work; kernels and candidate generation barely run.

use crate::gen::{self, DriftingStream};
use crate::mine::identical;
use crate::report::Report;
use crate::stats::{overhead_pct, ratio, Samples};
use crate::trace::Tracer;
use crate::{mb, Ctx};
use std::time::Instant;
use ufim_core::prelude::*;
use ufim_miners::common::{
    mine_level_wise_with_plan, ExpectedSupport, FrequentnessMeasure, IncrementalMiner, NormalApprox,
};

const CAPACITY: usize = 16_384;
const ITEMS: u32 = 16;
const BATCH: usize = 256;
/// Stream positions per full density cycle (~1,000 steps).
const PERIOD: u64 = 1 << 18;
/// Every this many steps both queries are checked against a batch mine.
const CHECK_EVERY: u64 = 16;
const MIN_SUP: f64 = 0.05;
const PFT: f64 = 0.9;
const SETUP_REPEATS: usize = 15;

struct Queries {
    esup: IncrementalMiner<ExpectedSupport>,
    normal: IncrementalMiner<NormalApprox>,
}

fn esup_measure() -> ExpectedSupport {
    ExpectedSupport::with_variance(MIN_SUP * CAPACITY as f64)
}

fn normal_measure() -> NormalApprox {
    let p = MiningParams::new(MIN_SUP, PFT).expect("valid ratios");
    NormalApprox::new(p.msup(CAPACITY), PFT)
}

/// Generates the initial fill, fills both windows and runs the first
/// refresh. Returns the generation time separately.
fn build(seed: u64) -> (Queries, DriftingStream, f64) {
    let t = Instant::now();
    let mut stream = DriftingStream::new(ITEMS, PERIOD, gen::data_seed(seed, 0));
    let fill = stream.next_batch(CAPACITY);
    let gen_s = t.elapsed().as_secs_f64();
    let window = || WindowedDatabase::new(CAPACITY, ITEMS);
    let mut q = Queries {
        esup: IncrementalMiner::new(window(), esup_measure(), EngineKind::Vertical),
        normal: IncrementalMiner::new(window(), normal_measure(), EngineKind::Diffset),
    };
    for t in fill {
        q.esup.append(t.clone());
        q.normal.append(t);
    }
    q.esup.refresh();
    q.normal.refresh();
    (q, stream, gen_s)
}

fn check<M: FrequentnessMeasure + Copy>(
    miner: &IncrementalMiner<M>,
    measure: M,
    name: &str,
) -> Result<(), String> {
    let mut batch = mine_level_wise_with_plan(
        &miner.window().snapshot(),
        measure,
        miner.engine_kind(),
        miner.shard_plan(),
    );
    let mut inc = miner.result().clone();
    batch.canonicalize();
    inc.canonicalize();
    identical(&inc, &batch).map_err(|e| format!("{name} query vs batch mine: {e}"))
}

/// Per-step work counters of both refreshes.
#[derive(Default)]
struct Tally {
    steps: u64,
    intersections: u64,
    patched: u64,
    rebuilt: u64,
    rejudged: u64,
    skipped: u64,
    peak_memo: u64,
}

impl Tally {
    fn absorb(&mut self, s: &MinerStats) {
        self.intersections += s.intersections;
        self.patched += s.memo_patched;
        self.rebuilt += s.memo_rebuilt;
        self.rejudged += s.border_rejudged;
        self.skipped += s.border_skipped;
        self.peak_memo = self.peak_memo.max(s.peak_memo_bytes);
    }
}

/// One step; `tracer` spans its calls when given. Returns
/// `(step seconds, window seconds, refresh seconds)`.
fn step(
    q: &mut Queries,
    batch: Vec<Transaction>,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let span = |name| tracer.map(|t| t.span(name));
    let copy = batch.clone();
    let t0 = Instant::now();
    {
        let _s = span("window.expire");
        q.esup.expire_oldest(BATCH);
        q.normal.expire_oldest(BATCH);
    }
    {
        let _s = span("window.append");
        for t in batch {
            q.esup.append(t);
        }
        for t in copy {
            q.normal.append(t);
        }
    }
    let t1 = Instant::now();
    {
        let _s = span("incremental.refresh");
        tally.absorb(&q.esup.refresh().stats);
    }
    {
        let _s = span("incremental.refresh");
        tally.absorb(&q.normal.refresh().stats);
    }
    let t2 = Instant::now();
    tally.steps += 1;
    (
        (t2 - t0).as_secs_f64(),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
    )
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setup = Samples::default();
    let mut generate = Samples::default();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let (q, stream, gen_s) = build(ctx.seed);
        setup.push(t.elapsed().as_secs_f64());
        generate.push(gen_s);
        built = Some((q, stream));
    }
    let (mut q, mut stream) = built.expect("at least one set-up");
    report.set_n("setup_s", setup.median(), setup.len());
    report.set("data.generate_s", generate.median());
    report.line(format!("setup_s: {}", setup.describe("s")));
    report.line(format!(
        "dataset: window N={CAPACITY} items={ITEMS} shards={} step={BATCH} fingerprint={:016x}",
        q.esup.shard_plan().num_shards(CAPACITY),
        gen::digest(q.esup.window().snapshot().transactions())
    ));
    report.check(check(&q.esup, esup_measure(), "esup"));
    report.check(check(&q.normal, normal_measure(), "normal"));
    report.line(format!(
        "first refresh: esup {} itemsets, normal {} itemsets",
        q.esup.result().len(),
        q.normal.result().len()
    ));

    // The timed phase. A traced run alternates untraced and traced steps,
    // so the drifting stream loads both sides of the overhead comparison.
    let tracer = Tracer::default();
    let (mut steps, mut traced) = (Samples::default(), Samples::default());
    let (mut tally, mut traced_tally) = (Tally::default(), Tally::default());
    let (mut window_s, mut refresh_s) = (0.0, 0.0);
    ufim_metrics::alloc::reset_peak();
    let start = Instant::now();
    while steps.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let batch = stream.next_batch(BATCH);
        if ctx.trace && steps.len() > traced.len() {
            tracer.begin_op();
            let (s, w, r) = step(&mut q, batch, Some(&tracer), &mut traced_tally);
            traced.push(s);
            window_s += w;
            refresh_s += r;
        } else {
            steps.push(step(&mut q, batch, None, &mut tally).0);
        }
        if ((steps.len() + traced.len()) as u64).is_multiple_of(CHECK_EVERY) {
            report.check(check(&q.esup, esup_measure(), "esup"));
            report.check(check(&q.normal, normal_measure(), "normal"));
        }
    }
    report.set("peak_heap_mb", mb(ufim_metrics::alloc::peak_bytes()));
    let step_ms = steps.scaled(1e3);
    report.set_n("op_p50_ms", step_ms.median(), steps.len());
    report.set_n("ops_per_s", steps.len() as f64 / steps.sum(), steps.len());
    report.line(format!("step_ms: {}", step_ms.describe("ms")));
    report.line(format!(
        "step_p50_ms {} step_p99_ms {}",
        step_ms.median(),
        step_ms.percentile(99.0).unwrap_or(0.0)
    ));
    if ctx.trace {
        let t = &traced_tally;
        let per = |x: f64| x / t.steps as f64;
        report.set("window.apply_ms", per(window_s * 1e3));
        report.set("incremental.refresh_ms", per(refresh_s * 1e3));
        report.set("incremental.intersections", per(t.intersections as f64));
        report.set("incremental.memo_patched", per(t.patched as f64));
        report.set("incremental.memo_rebuilt", per(t.rebuilt as f64));
        report.set(
            "incremental.patch_ratio",
            ratio(t.patched, t.patched + t.rebuilt),
        );
        report.set("incremental.border_rejudged", per(t.rejudged as f64));
        report.set(
            "incremental.rejudge_ratio",
            ratio(t.rejudged, t.rejudged + t.skipped),
        );
        report.set("incremental.peak_memo_bytes", t.peak_memo as f64);
        report.set("trace.overhead_pct", overhead_pct(&steps, &traced));
        report.line(format!(
            "traced step_ms: {}",
            traced.scaled(1e3).describe("ms")
        ));
        crate::write_spans(ctx, &tracer);
    }
}
