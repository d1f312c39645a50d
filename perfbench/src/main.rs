//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <mine_dense|mine_sparse|serve_mixed|stream_window>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics for `--seconds`. A traced run (`--trace 1`) alternates untraced
//! operations with operations that carry spans around the calls into each
//! layer, and reports the per-layer metrics. Both check every output. The
//! human report goes to standard output before the last line, which is the
//! JSON result; the report and the spans are also written under
//! `.bench_out/`. See `README.md` beside this package.

mod gen;
mod mine;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use report::Report;
use std::io::Write as _;
use trace::Tracer;

#[global_allocator]
static ALLOC: ufim_metrics::CountingAllocator = ufim_metrics::CountingAllocator::new();

/// The worker-pool budget every workload runs under, pinned so results never
/// depend on an ambient `UFIM_THREADS`.
const POOL_THREADS: usize = 2;

/// Where the run writes its report and spans, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["mine_dense", "mine_sparse", "serve_mixed", "stream_window"];

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn out_path(ctx: &Ctx, suffix: &str) -> std::path::PathBuf {
    std::path::Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.{suffix}",
        ctx.workload, ctx.seed, ctx.trace as u8
    ))
}

/// Writes the traced run's spans, one JSON object per line.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer) {
    let path = out_path(ctx, "spans.jsonl");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    for (name, unit) in report::END_TO_END.iter().chain(&report::PER_LAYER) {
        assert!(
            report::valid_name(name) && report::valid_unit(unit),
            "bad metric {name} {unit}"
        );
    }
    // Server connection threads read the environment, not the override
    // below, so the budget is pinned in both places before any thread starts.
    std::env::set_var("UFIM_THREADS", POOL_THREADS.to_string());

    let mut report = Report::default();
    report.line(format!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    ));
    report.line(format!(
        "nproc {} pool_threads {POOL_THREADS} rustc {} rev {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
    ));
    ufim_core::parallel::with_thread_override(POOL_THREADS, || match ctx.workload {
        "mine_dense" => mine::run(&ctx, &mut report, true),
        "mine_sparse" => mine::run(&ctx, &mut report, false),
        "serve_mixed" => serve::run(&ctx, &mut report),
        _ => stream::run(&ctx, &mut report),
    });

    let text = report.text(ctx.trace);
    let json = report.json_line(ctx.trace);
    let path = out_path(&ctx, "report.txt");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{text}{json}\n")))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{text}{json}");
    let _ = out.flush();
}
