//! # ufim-serve
//!
//! A concurrent query server over resident uncertain-FIM datasets with
//! **cross-query memo reuse** — the workspace's serving layer.
//!
//! The ROADMAP's north star is a production-scale system answering heavy
//! query traffic over hot datasets. This crate turns the library into that
//! service: datasets are loaded once ([`Dataset`] = the horizontal
//! [`UncertainDatabase`](ufim_core::UncertainDatabase) plus its columnar
//! [`VerticalIndex`](ufim_core::VerticalIndex)), and concurrent queries —
//! threshold sweeps, top-k by expected support, itemset probes, full mines
//! at any measure × traversal × engine cell — are dispatched over the
//! shared workpool with per-request admission caps
//! ([`with_thread_override`](ufim_core::parallel::with_thread_override))
//! as isolation.
//!
//! ## The cross-query memo
//!
//! The heart is [`ResidentMemo`]: per `(dataset, measure, engine)` key it
//! retains the frequent lattice mined at the **lowest threshold seen so
//! far**, together with each kept candidate's raw engine statistics
//! ([`RetainedRecord`](ufim_miners::common::measure::RetainedRecord)).
//! Because every measure's keep-set shrinks as its threshold tightens, a
//! query at `t' ≥ t` is a *filter* of the retained records — re-judged at
//! the query parameters with **zero database scans and zero tid-list
//! intersections**, and bit-identical to a cold
//! [`MatrixMiner`](ufim_miners::MatrixMiner) run (the engine statistics of
//! a candidate do not depend on the threshold, and the determinism
//! machinery makes them identical for every `UFIM_THREADS`). Queries below
//! the resident basis re-mine cold and *extend* the memo by swapping in
//! the new, lower-threshold snapshot. An LRU byte budget
//! ([`ResidentLru`](ufim_core::resident::ResidentLru)) bounds residency.
//!
//! ## Protocol
//!
//! One JSON object per line, hand-rolled (no serde) — see [`proto`].
//! [`Json`] is the workspace's one JSON codec: it reads every RFC 8259
//! escape, escapes every control character it writes, bounds nesting at
//! 64, and `ufim-bench` reads and writes its `BENCH_*.json` snapshots
//! through it too.
//!
//! ```text
//! {"op":"load","name":"g","benchmark":"gazelle","scale":0.05,"seed":42}
//! {"op":"sweep","dataset":"g","measure":"esup","engine":"vertical","pft":0.7,"thresholds":[0.02,0.04],"records":true}
//! {"op":"topk","dataset":"g","measure":"normal","min_sup":0.02,"pft":0.7,"k":5,"min_len":2}
//! {"op":"probe","dataset":"g","measure":"esup","min_sup":0.02,"pft":0.7,"itemset":[3,17]}
//! {"op":"mine","dataset":"g","measure":"exact-dp","traversal":"level-wise","min_sup":0.05,"pft":0.7}
//! {"op":"stats"}
//! ```
//!
//! Responses are single-line JSON with `"ok"` first; floats use Rust's
//! shortest-round-trip formatting so records survive the wire bit-exactly.
//! Queries accept an optional `"threads"` cap.
//!
//! Use [`ServeCore`] in-process, or [`TcpServer`] for the blocking TCP
//! front end (`cargo run -p ufim-serve` starts one).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memo;
pub mod proto;
pub mod server;

pub use memo::{MemoCounters, MemoKey, MemoOutcome, ResidentMemo};
pub use proto::{Json, Request};
pub use server::{serve_stream, Dataset, ServeCore, TcpServer};

/// Convenient glob-import: `use ufim_serve::prelude::*;`
pub mod prelude {
    pub use crate::memo::{MemoCounters, MemoKey, MemoOutcome, ResidentMemo};
    pub use crate::proto::{Json, Request};
    pub use crate::server::{Dataset, ServeCore, TcpServer};
}
