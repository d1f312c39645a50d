//! Machine-readable `BENCH_<experiment>.json` performance snapshots.
//!
//! Every experiment can dump its measured runs as one JSON file per
//! experiment (`--json DIR`), so the repo's performance trajectory is
//! diffable across PRs: a snapshot records the workload label, wall-clock
//! milliseconds, allocator peak, engine-memo peak and intersection count
//! of every run, plus the configuration that produced them (scale, seed,
//! thread cap). `crates/bench/baselines/` keeps checked-in snapshots from
//! past PRs as the comparison anchor.
//!
//! The sanctioned dependency set has no serde, so snapshots go through the
//! workspace's one JSON codec, [`ufim_serve::Json`]: [`JsonSnapshot::to_json`]
//! lays the file out by hand but quotes every string and formats every
//! float through it, and [`JsonSnapshot::from_json`] parses with it — a
//! real RFC 8259 parser with a nesting bound, which `ufim-bench
//! json-check` uses in CI to prove the emitted snapshots are actually
//! machine-readable, not just string-shaped.
//!
//! ## The regression gate
//!
//! `ufim-bench json-compare BASELINE FRESH [--tolerance-pct P]`
//! ([`compare_paths`]) turns the snapshots into an actual CI gate:
//!
//! * **strict** (build-failing): the experiment identity (name, scale,
//!   seed), the run list's shape (count, workload/algorithm/engine
//!   labels, order) and the deterministic counters — `intersections` and
//!   `num_itemsets` — must match the baseline exactly. These are
//!   bit-identical across machines and pool sizes by the workspace's
//!   determinism guarantee, so *any* drift is a real behavioral change.
//! * **advisory** (warning only): `wall_ms` drift beyond the tolerance
//!   and `peak_memo_bytes` changes. Timing depends on the host; memory
//!   policy may legitimately change — both are surfaced, neither fails
//!   the build.
//! * **advisory by construction**: counter fields added after a baseline
//!   was recorded (the border/memo counters from incremental runs, and the `memo_hits` / `memo_extends` pair plus the
//!   `latency_*_ms` / `qps` percentiles from the query server) parse as
//!   optional and never fail strictly — a drift or a presence mismatch
//!   against an older baseline only warns. The gate would otherwise force
//!   a baseline refresh on every run the moment a new counter ships,
//!   defeating the point of keeping old snapshots comparable.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ufim_serve::Json;

/// One measured run inside a snapshot. `Default` gives every label empty,
/// every measurement zero and every optional counter absent — experiment
/// code fills what it measures and leaves the rest via `..Default::default()`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonRun {
    /// Workload label — the x-axis point of the sweep (e.g. `min_esup=0.5`)
    /// or a dataset tag.
    pub workload: String,
    /// Algorithm (or matrix-cell) name.
    pub algorithm: String,
    /// Support backend, `n/a` for miners outside the engine seam.
    pub engine: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Allocator-level peak heap growth in bytes (0 without the counting
    /// allocator).
    pub peak_bytes: u64,
    /// Engine memo peak in bytes ([`ufim_core::MinerStats::peak_memo_bytes`]).
    pub peak_memo_bytes: u64,
    /// Tid-list intersections performed
    /// ([`ufim_core::MinerStats::intersections`]).
    pub intersections: u64,
    /// Number of frequent itemsets found.
    pub num_itemsets: u64,
    /// Border-tracker entries invalidated and re-evaluated by an
    /// incremental run ([`ufim_core::MinerStats::border_rejudged`]);
    /// `None` outside incremental (streaming) runs and in snapshots written
    /// before the field existed — newly-added counters stay **advisory**
    /// in the gate so older baselines keep passing (see the module docs).
    pub border_rejudged: Option<u64>,
    /// Border-tracker entries reused without re-evaluation
    /// ([`ufim_core::MinerStats::border_skipped`]); optional like
    /// [`border_rejudged`](Self::border_rejudged).
    pub border_skipped: Option<u64>,
    /// Retained memo nodes point-updated in place by a window step
    /// ([`ufim_core::MinerStats::memo_patched`]); `None` outside
    /// incremental (streaming) runs. Advisory in the gate like the
    /// border counters.
    pub memo_patched: Option<u64>,
    /// Retained memo nodes whose delta was too dense to patch, rebuilt
    /// from scratch instead ([`ufim_core::MinerStats::memo_rebuilt`]);
    /// optional like [`memo_patched`](Self::memo_patched).
    pub memo_rebuilt: Option<u64>,
    /// Queries the serve-layer resident memo answered warm (no mining);
    /// `None` outside `bench_serve` runs. Advisory in the gate like the
    /// border counters.
    pub memo_hits: Option<u64>,
    /// Queries that extended a resident memo cell downward to a lower
    /// threshold (re-mined, replacing the basis); optional like
    /// [`memo_hits`](Self::memo_hits).
    pub memo_extends: Option<u64>,
    /// Median per-request latency in milliseconds; `None` outside
    /// `bench_serve` runs. Timing-derived, so advisory like `wall_ms`.
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile per-request latency in milliseconds; optional like
    /// [`latency_p50_ms`](Self::latency_p50_ms).
    pub latency_p95_ms: Option<f64>,
    /// 99th-percentile per-request latency in milliseconds; optional like
    /// [`latency_p50_ms`](Self::latency_p50_ms).
    pub latency_p99_ms: Option<f64>,
    /// Sustained queries per second over the measured window; optional
    /// like [`latency_p50_ms`](Self::latency_p50_ms).
    pub qps: Option<f64>,
}

/// One experiment's snapshot: configuration + measured runs.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonSnapshot {
    /// Experiment name (becomes the `BENCH_<experiment>.json` file name).
    pub experiment: String,
    /// `--scale` the runs used.
    pub scale: f64,
    /// `--seed` the runs used.
    pub seed: u64,
    /// Worker-thread cap the runs used
    /// ([`ufim_core::parallel::max_threads`]).
    pub threads: u64,
    /// The measured runs, in execution order.
    pub runs: Vec<JsonRun>,
}

impl JsonSnapshot {
    /// An empty snapshot for `experiment` under the current configuration.
    pub fn new(experiment: impl Into<String>, scale: f64, seed: u64) -> Self {
        JsonSnapshot {
            experiment: experiment.into(),
            scale,
            seed,
            threads: ufim_core::parallel::max_threads() as u64,
            runs: Vec::new(),
        }
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string()).to_line();
        // Measurements are finite; clamp defensively so the file stays JSON.
        let num = |x: f64| Json::Num(if x.is_finite() { x } else { 0.0 }).to_line();
        let mut s = String::with_capacity(256 + self.runs.len() * 192);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", text(&self.experiment));
        let _ = writeln!(s, "  \"scale\": {},", num(self.scale));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        s.push_str("  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            let _ = write!(
                s,
                "\"workload\": {}, \"algorithm\": {}, \"engine\": {}, \
                 \"wall_ms\": {}, \"peak_bytes\": {}, \"peak_memo_bytes\": {}, \
                 \"intersections\": {}, \"num_itemsets\": {}",
                text(&r.workload),
                text(&r.algorithm),
                text(&r.engine),
                num(r.wall_ms),
                r.peak_bytes,
                r.peak_memo_bytes,
                r.intersections,
                r.num_itemsets
            );
            for (name, v) in [
                ("border_rejudged", r.border_rejudged),
                ("border_skipped", r.border_skipped),
                ("memo_patched", r.memo_patched),
                ("memo_rebuilt", r.memo_rebuilt),
                ("memo_hits", r.memo_hits),
                ("memo_extends", r.memo_extends),
            ] {
                if let Some(n) = v {
                    let _ = write!(s, ", \"{name}\": {n}");
                }
            }
            for (name, v) in [
                ("latency_p50_ms", r.latency_p50_ms),
                ("latency_p95_ms", r.latency_p95_ms),
                ("latency_p99_ms", r.latency_p99_ms),
                ("qps", r.qps),
            ] {
                if let Some(x) = v {
                    let _ = write!(s, ", \"{name}\": {}", num(x));
                }
            }
            s.push('}');
        }
        if !self.runs.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Writes `BENCH_<experiment>.json` into `dir` (created if needed).
    /// Errors are reported to stderr but never abort an experiment, like
    /// the CSV writer.
    pub fn write(&self, dir: &Path) -> Option<PathBuf> {
        if self.runs.is_empty() {
            return None;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Parses and validates a snapshot produced by [`JsonSnapshot::write`].
    ///
    /// # Errors
    /// A message naming the malformed construct (JSON syntax, a missing or
    /// mistyped field) — suitable for printing from `json-check`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let top = Json::parse(text)?;
        if !matches!(top, Json::Obj(_)) {
            return Err("top level: expected an object".into());
        }
        let runs = required(&top, "runs", Json::as_arr)?
            .iter()
            .enumerate()
            .map(|(i, r)| run_from_json(r).map_err(|e| format!("runs[{i}]: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(JsonSnapshot {
            experiment: required(&top, "experiment", Json::as_str)?.to_string(),
            scale: required(&top, "scale", Json::as_f64)?,
            seed: required(&top, "seed", Json::as_u64)?,
            threads: required(&top, "threads", Json::as_u64)?,
            runs,
        })
    }
}

/// Reads one entry of a snapshot's `runs` array.
fn run_from_json(r: &Json) -> Result<JsonRun, String> {
    Ok(JsonRun {
        workload: required(r, "workload", Json::as_str)?.to_string(),
        algorithm: required(r, "algorithm", Json::as_str)?.to_string(),
        engine: required(r, "engine", Json::as_str)?.to_string(),
        wall_ms: required(r, "wall_ms", Json::as_f64)?,
        peak_bytes: required(r, "peak_bytes", Json::as_u64)?,
        peak_memo_bytes: required(r, "peak_memo_bytes", Json::as_u64)?,
        intersections: required(r, "intersections", Json::as_u64)?,
        num_itemsets: required(r, "num_itemsets", Json::as_u64)?,
        border_rejudged: optional(r, "border_rejudged", Json::as_u64)?,
        border_skipped: optional(r, "border_skipped", Json::as_u64)?,
        memo_patched: optional(r, "memo_patched", Json::as_u64)?,
        memo_rebuilt: optional(r, "memo_rebuilt", Json::as_u64)?,
        memo_hits: optional(r, "memo_hits", Json::as_u64)?,
        memo_extends: optional(r, "memo_extends", Json::as_u64)?,
        latency_p50_ms: optional(r, "latency_p50_ms", Json::as_f64)?,
        latency_p95_ms: optional(r, "latency_p95_ms", Json::as_f64)?,
        latency_p99_ms: optional(r, "latency_p99_ms", Json::as_f64)?,
        qps: optional(r, "qps", Json::as_f64)?,
    })
}

/// Reads field `name` of `obj` with one of [`Json`]'s `as_*` accessors:
/// absent is `None` (snapshots written before a counter existed stay
/// parseable), present but mistyped is an error naming the field.
fn optional<'a, T>(
    obj: &'a Json,
    name: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    obj.get(name)
        .map(|v| {
            read(v).ok_or_else(|| format!("field {name:?} has the wrong type: {}", v.to_line()))
        })
        .transpose()
}

/// [`optional`] for a field every snapshot carries.
fn required<'a, T>(
    obj: &'a Json,
    name: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    optional(obj, name, read)?.ok_or_else(|| format!("missing field {name:?}"))
}

/// Validates one snapshot file, returning a one-line summary.
///
/// # Errors
/// Propagates I/O and [`JsonSnapshot::from_json`] failures with the path
/// prepended.
pub fn check_file(path: &Path) -> Result<String, String> {
    let snap = load_snapshot(path)?;
    Ok(format!(
        "{}: ok — experiment {:?}, {} runs, scale {}, threads {}",
        path.display(),
        snap.experiment,
        snap.runs.len(),
        snap.scale,
        snap.threads,
    ))
}

/// Validates a path: one `BENCH_*.json` file, or a directory of them
/// (at least one required).
///
/// # Errors
/// The first file-level failure, or a complaint about an empty directory.
pub fn check_path(path: &Path) -> Result<Vec<String>, String> {
    snapshot_files(path)?
        .iter()
        .map(|p| check_file(p))
        .collect()
}

/// Default `--tolerance-pct` for [`compare_paths`]: wall-clock drift
/// within ±this percentage of the baseline never warns. Generous because
/// baselines are recorded on whatever machine produced the PR while the
/// gate usually runs on CI hardware.
pub const DEFAULT_TOLERANCE_PCT: f64 = 200.0;

/// Absolute wall-clock floor below which drift never warns: sub-
/// millisecond runs are dominated by scheduling noise, not regressions.
const WALL_MS_NOISE_FLOOR: f64 = 0.5;

/// Outcome of one [`compare_paths`] invocation.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// One confirmation line per compared snapshot pair.
    pub lines: Vec<String>,
    /// Advisory drift (time beyond tolerance, memo-byte changes).
    pub warnings: Vec<String>,
    /// Strict mismatches — the caller should fail the build on any.
    pub failures: Vec<String>,
}

impl CompareReport {
    /// True when no strict mismatch was found (warnings allowed).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares one fresh snapshot against its baseline (see the module docs
/// for what is strict and what is advisory), appending to `report`.
fn compare_snapshots(
    name: &str,
    base: &JsonSnapshot,
    fresh: &JsonSnapshot,
    tolerance_pct: f64,
    report: &mut CompareReport,
) {
    let failures_before = report.failures.len();
    let fail =
        |report: &mut CompareReport, msg: String| report.failures.push(format!("{name}: {msg}"));
    if base.experiment != fresh.experiment {
        fail(
            report,
            format!(
                "experiment {:?} vs baseline {:?}",
                fresh.experiment, base.experiment
            ),
        );
    }
    if base.scale != fresh.scale {
        fail(
            report,
            format!("scale {} vs baseline {}", fresh.scale, base.scale),
        );
    }
    if base.seed != fresh.seed {
        fail(
            report,
            format!("seed {} vs baseline {}", fresh.seed, base.seed),
        );
    }
    if base.runs.len() != fresh.runs.len() {
        fail(
            report,
            format!("{} runs vs baseline {}", fresh.runs.len(), base.runs.len()),
        );
        return; // per-run comparison would misalign
    }
    let mut warned_time = 0usize;
    for (i, (b, f)) in base.runs.iter().zip(&fresh.runs).enumerate() {
        let run = format!("run[{i}] ({} / {} / {})", b.workload, b.algorithm, b.engine);
        if (&f.workload, &f.algorithm, &f.engine) != (&b.workload, &b.algorithm, &b.engine) {
            fail(
                report,
                format!(
                    "{run}: labels changed to ({} / {} / {})",
                    f.workload, f.algorithm, f.engine
                ),
            );
            continue;
        }
        if f.intersections != b.intersections {
            fail(
                report,
                format!(
                    "{run}: intersections {} vs baseline {}",
                    f.intersections, b.intersections
                ),
            );
        }
        if f.num_itemsets != b.num_itemsets {
            fail(
                report,
                format!(
                    "{run}: num_itemsets {} vs baseline {}",
                    f.num_itemsets, b.num_itemsets
                ),
            );
        }
        if f.peak_memo_bytes != b.peak_memo_bytes {
            report.warnings.push(format!(
                "{name}: {run}: peak_memo_bytes {} vs baseline {} (memory drift, advisory)",
                f.peak_memo_bytes, b.peak_memo_bytes
            ));
        }
        // Newly-added counters: advisory whatever happens, including one
        // side missing the field entirely (older baseline or a run
        // outside the counter's mode).
        for (field, fv, bv) in [
            ("border_rejudged", f.border_rejudged, b.border_rejudged),
            ("border_skipped", f.border_skipped, b.border_skipped),
            ("memo_patched", f.memo_patched, b.memo_patched),
            ("memo_rebuilt", f.memo_rebuilt, b.memo_rebuilt),
            ("memo_hits", f.memo_hits, b.memo_hits),
            ("memo_extends", f.memo_extends, b.memo_extends),
        ] {
            if fv != bv {
                let show = |v: Option<u64>| v.map_or("absent".into(), |n| n.to_string());
                report.warnings.push(format!(
                    "{name}: {run}: {field} {} vs baseline {} (new counter, advisory)",
                    show(fv),
                    show(bv)
                ));
            }
        }
        // Serve-layer latency percentiles and throughput: timing-derived,
        // so advisory like `wall_ms` — tolerance-gated when both sides
        // have them, presence mismatches (pre-serve baselines) only warn.
        for (field, fv, bv) in [
            ("latency_p50_ms", f.latency_p50_ms, b.latency_p50_ms),
            ("latency_p95_ms", f.latency_p95_ms, b.latency_p95_ms),
            ("latency_p99_ms", f.latency_p99_ms, b.latency_p99_ms),
            ("qps", f.qps, b.qps),
        ] {
            match (fv, bv) {
                (Some(fv), Some(bv)) => {
                    let drift = (fv - bv).abs();
                    if drift > bv.abs() * tolerance_pct / 100.0 && drift > WALL_MS_NOISE_FLOOR {
                        report.warnings.push(format!(
                            "{name}: {run}: {field} {fv:.3} vs baseline {bv:.3} \
                             (beyond ±{tolerance_pct}% tolerance, advisory)"
                        ));
                    }
                }
                (None, None) => {}
                (fv, bv) => {
                    let show = |v: Option<f64>| v.map_or("absent".into(), |x| format!("{x:.3}"));
                    report.warnings.push(format!(
                        "{name}: {run}: {field} {} vs baseline {} (new field, advisory)",
                        show(fv),
                        show(bv)
                    ));
                }
            }
        }
        // Wall-clock: advisory, tolerance-gated, noise-floored.
        let drift = (f.wall_ms - b.wall_ms).abs();
        let allowed = b.wall_ms * tolerance_pct / 100.0;
        if drift > allowed && drift > WALL_MS_NOISE_FLOOR {
            warned_time += 1;
            let direction = if f.wall_ms > b.wall_ms {
                "slower"
            } else {
                "faster"
            };
            report.warnings.push(format!(
                "{name}: {run}: wall_ms {:.3} vs baseline {:.3} ({direction} than ±{tolerance_pct}% tolerance)",
                f.wall_ms, b.wall_ms
            ));
        }
    }
    if report.failures.len() == failures_before {
        report.lines.push(format!(
            "{name}: counters match baseline ({} runs, {} time warnings)",
            base.runs.len(),
            warned_time
        ));
    }
}

/// Runs the bench-regression gate: every `BENCH_*.json` under `baseline`
/// must have a fresh counterpart under `fresh` whose deterministic
/// counters match exactly; wall-clock drift beyond `tolerance_pct` only
/// warns. Both paths may be a single snapshot file or a directory of
/// them. Fresh-only snapshots are advisory (baselines lag new
/// experiments by design).
///
/// # Errors
/// I/O or parse failures on either side, with the path named.
pub fn compare_paths(
    baseline: &Path,
    fresh: &Path,
    tolerance_pct: f64,
) -> Result<CompareReport, String> {
    let base_files = snapshot_files(baseline)?;
    let fresh_files = snapshot_files(fresh)?;
    let mut report = CompareReport::default();
    for base_path in &base_files {
        let file_name = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let Some(fresh_path) = fresh_files
            .iter()
            .find(|p| p.file_name().and_then(|n| n.to_str()) == Some(file_name.as_str()))
        else {
            report
                .failures
                .push(format!("{file_name}: baseline has no fresh counterpart"));
            continue;
        };
        let base = load_snapshot(base_path)?;
        let fresh = load_snapshot(fresh_path)?;
        compare_snapshots(&file_name, &base, &fresh, tolerance_pct, &mut report);
    }
    for fresh_path in &fresh_files {
        let name = fresh_path.file_name().and_then(|n| n.to_str());
        if !base_files
            .iter()
            .any(|p| p.file_name().and_then(|n| n.to_str()) == name)
        {
            report.warnings.push(format!(
                "{}: no baseline yet (new experiment, advisory)",
                name.unwrap_or_default()
            ));
        }
    }
    Ok(report)
}

/// The `BENCH_*.json` files under `path` (sorted), or `path` itself when
/// it is a file.
fn snapshot_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: cannot read dir: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!(
                "{}: no BENCH_*.json snapshots found",
                path.display()
            ));
        }
        Ok(entries)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// Reads and parses one snapshot file.
fn load_snapshot(path: &Path) -> Result<JsonSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    JsonSnapshot::from_json(&text).map_err(|e| format!("{}: invalid snapshot: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonSnapshot {
        JsonSnapshot {
            experiment: "fig4_zipf".into(),
            scale: 0.01,
            seed: 42,
            threads: 4,
            runs: vec![
                JsonRun {
                    workload: "skew=0.8".into(),
                    algorithm: "UApriori".into(),
                    engine: "vertical".into(),
                    wall_ms: 12.625,
                    peak_bytes: 1_048_576,
                    peak_memo_bytes: 65_536,
                    intersections: 1234,
                    num_itemsets: 31,
                    border_rejudged: Some(12),
                    border_skipped: Some(40),
                    memo_patched: Some(88),
                    memo_rebuilt: Some(3),
                    ..Default::default()
                },
                JsonRun {
                    workload: "skew=1.2".into(),
                    algorithm: "UH-Mine \"quoted\"".into(),
                    engine: "n/a".into(),
                    wall_ms: 0.5,
                    peak_bytes: 0,
                    peak_memo_bytes: 0,
                    intersections: 0,
                    num_itemsets: 7,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let parsed = JsonSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_runs_roundtrip_but_do_not_write() {
        let snap = JsonSnapshot::new("empty", 0.5, 7);
        let parsed = JsonSnapshot::from_json(&snap.to_json()).unwrap();
        assert!(parsed.runs.is_empty());
        assert_eq!(parsed.seed, 7);
        let dir = std::env::temp_dir().join(format!("ufim-json-empty-{}", std::process::id()));
        assert!(snap.write(&dir).is_none());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unterminated object"),
            ("[1, 2]", "top level not an object"),
            ("{\"experiment\": 3}", "missing fields"),
            ("{\"a\": 1} trailing", "trailing content"),
        ] {
            assert!(JsonSnapshot::from_json(bad).is_err(), "{why}");
        }
        // A wrong-typed field is named in the error.
        let wrong = sample()
            .to_json()
            .replace("\"seed\": 42", "\"seed\": \"x\"");
        let err = JsonSnapshot::from_json(&wrong).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn parser_handles_nested_and_escaped_values() {
        // Whitespace-laden nesting, a `\u` escape and an exponent, through
        // the codec `from_json` parses with.
        let v = Json::parse("{\"a\": [1, {\"b\": \"x\\u0021\"}, true, null], \"c\": -2.5e1}  ")
            .unwrap();
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-25.0));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("x!"));
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn write_and_check_file() {
        let dir = std::env::temp_dir().join(format!("ufim-json-test-{}", std::process::id()));
        let path = sample().write(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_fig4_zipf.json");
        let summary = check_file(&path).unwrap();
        assert!(summary.contains("2 runs"), "{summary}");
        let listed = check_path(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        // A directory without snapshots is an error.
        let empty = dir.join("sub");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(check_path(&empty).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_snapshot_is_an_error_not_a_crash() {
        let dir = std::env::temp_dir().join(format!("ufim-json-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_deep.json"), "[".repeat(200_000)).unwrap();
        let err = check_path(&dir).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checked_in_baselines_roundtrip_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let files = snapshot_files(&dir).unwrap();
        assert!(files.len() >= 6, "{files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let snap = JsonSnapshot::from_json(&text).unwrap();
            assert!(
                snap.to_json() == text,
                "{} changes on rewrite",
                path.display()
            );
        }
    }

    #[test]
    fn compare_passes_on_identical_snapshots_and_warns_on_time() {
        let dir = std::env::temp_dir().join(format!("ufim-json-cmp-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        sample().write(&base_dir).unwrap();
        // Identical counters, 10× slower wall-clock on run 0.
        let mut fresh = sample();
        fresh.runs[0].wall_ms *= 10.0;
        fresh.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report.warnings[0].contains("wall_ms"),
            "{:?}",
            report.warnings
        );
        // A wide tolerance silences the warning.
        let report = compare_paths(&base_dir, &fresh_dir, 2000.0).unwrap();
        assert!(report.passed() && report.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_fails_on_counter_drift_and_missing_files() {
        let dir = std::env::temp_dir().join(format!("ufim-json-cmp2-{}", std::process::id()));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        sample().write(&base_dir).unwrap();
        let mut drifted = sample();
        drifted.runs[1].intersections += 1;
        drifted.runs[0].num_itemsets -= 1;
        drifted.write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures.iter().any(|f| f.contains("intersections")));
        assert!(report.failures.iter().any(|f| f.contains("num_itemsets")));
        // A baseline without a fresh counterpart is a failure; a fresh
        // snapshot without a baseline only warns.
        let mut extra = sample();
        extra.experiment = "fig4_new".into();
        extra.write(&fresh_dir).unwrap();
        std::fs::remove_file(fresh_dir.join("BENCH_fig4_zipf.json")).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("no fresh counterpart")));
        assert!(report.warnings.iter().any(|w| w.contains("no baseline")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_fails_on_shape_and_identity_drift() {
        let mut report = CompareReport::default();
        let base = sample();
        // Changed labels and a dropped run both fail strictly.
        let mut fresh = sample();
        fresh.runs[0].engine = "diffset".into();
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("labels")));
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs.pop();
        fresh.seed += 1;
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.failures.iter().any(|f| f.contains("seed")));
        assert!(report.failures.iter().any(|f| f.contains("runs")));
        // Memo drift is advisory only.
        let mut report = CompareReport::default();
        let mut fresh = sample();
        fresh.runs[0].peak_memo_bytes += 1024;
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.passed());
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("peak_memo_bytes")));
    }

    #[test]
    fn pre_shard_snapshots_still_parse_and_compare_advisorily() {
        // A snapshot written before the shard counters existed predates
        // the border counters too: strip those from the emitted text and
        // it must still parse, with the counters reported absent.
        let mut old_text = sample().to_json();
        old_text = old_text.replace(", \"border_rejudged\": 12", "");
        old_text = old_text.replace(", \"border_skipped\": 40", "");
        let old = JsonSnapshot::from_json(&old_text).unwrap();
        assert_eq!(old.runs[0].border_rejudged, None);
        assert_eq!(old.runs[0].border_skipped, None);
        // Comparing a fresh snapshot against that old baseline — presence
        // mismatch on run 0 — warns twice but passes the gate.
        let dir = std::env::temp_dir().join(format!("ufim-json-border-{}", std::process::id()));
        let (base_dir, fresh_dir) = (dir.join("base"), dir.join("fresh"));
        old.write(&base_dir).unwrap();
        sample().write(&fresh_dir).unwrap();
        let report = compare_paths(&base_dir, &fresh_dir, 200.0).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("border_rejudged") && w.contains("advisory")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_fields_absent_vs_present_only_warn() {
        // A fresh bench_serve snapshot carries the memo counters and the
        // latency percentiles; a pre-serve baseline has neither. The gate
        // must warn about the new fields, never fail.
        let base = sample();
        let mut fresh = sample();
        fresh.runs[0].memo_hits = Some(120);
        fresh.runs[0].memo_extends = Some(2);
        fresh.runs[0].latency_p50_ms = Some(0.8);
        fresh.runs[0].latency_p95_ms = Some(2.5);
        fresh.runs[0].latency_p99_ms = Some(4.0);
        fresh.runs[0].qps = Some(1500.0);
        // The new fields survive a serialization roundtrip bit-for-bit.
        let parsed = JsonSnapshot::from_json(&fresh.to_json()).unwrap();
        assert_eq!(parsed, fresh);
        let mut report = CompareReport::default();
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.warnings.len(), 6, "{:?}", report.warnings);
        for field in ["memo_hits", "memo_extends", "latency_p50_ms", "qps"] {
            assert!(
                report
                    .warnings
                    .iter()
                    .any(|w| w.contains(field) && w.contains("advisory")),
                "no advisory warning for {field}: {:?}",
                report.warnings
            );
        }
        // Both sides carrying the fields with drift inside the tolerance
        // is silent; beyond the tolerance it warns but still passes.
        let mut report = CompareReport::default();
        let base = fresh.clone();
        compare_snapshots("s", &base, &fresh, 200.0, &mut report);
        assert!(report.passed() && report.warnings.is_empty());
        let mut report = CompareReport::default();
        let mut slow = fresh.clone();
        slow.runs[0].latency_p99_ms = Some(400.0);
        compare_snapshots("s", &base, &slow, 200.0, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("latency_p99_ms") && w.contains("tolerance")));
    }

    #[test]
    fn shard_counter_drift_is_advisory_not_strict() {
        // Baselines recorded while the shard counters were emitted still
        // carry them; the retired fields parse away and never fail the
        // gate against fresh snapshots that no longer have them.
        let fresh = sample();
        let old_text = fresh.to_json().replacen(
            "\"num_itemsets\": 31",
            "\"num_itemsets\": 31, \"shards_evaluated\": 96, \"shards_pruned\": 32",
            1,
        );
        assert_ne!(old_text, fresh.to_json());
        let old = JsonSnapshot::from_json(&old_text).unwrap();
        assert_eq!(old, fresh);
        let mut report = CompareReport::default();
        compare_snapshots("s", &old, &fresh, 200.0, &mut report);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }
}
