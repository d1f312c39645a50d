//! `serve_mixed`: `ufim-serve`'s TCP server under a seeded closed-loop mix.
//!
//! Set-up loads two datasets with `load` ops and primes one basis sweep per
//! measure × engine cell. Two client connections then each send a request,
//! wait for the whole response line and check it before sending the next,
//! as an analyst or a dashboard does. The mix: sweeps above the basis (half
//! with records), top-k, probes of retained and of index-fallback
//! itemsets, and about 3% `mine` on normal × hyper, which always mines
//! cold. Warm requests set the median; cold mines set the tail and, on
//! two shared cores, slow the warm requests beside them.

use crate::gen;
use crate::report::Report;
use crate::stats::{overhead_pct, ratio, Samples};
use crate::trace::Tracer;
use crate::{mb, Ctx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use ufim_core::prelude::*;
use ufim_miners::MatrixMiner;
use ufim_serve::{Json, Request, ServeCore, TcpServer};

const MEMO_BUDGET: u64 = 256 << 20;
const CLIENTS: usize = 2;
const SETUP_REPEATS: usize = 3;
const PFT: f64 = 0.9;

struct DatasetSpec {
    name: &'static str,
    scale: f64,
    salt: u64,
    /// The threshold every cell is primed at.
    basis: f64,
    /// Query thresholds, all above the basis (memo-answerable).
    grid: [f64; 3],
    /// `mine` thresholds (normal × hyper, always cold).
    mine_grid: [f64; 3],
}

/// `connect` is dense (16,889 × 129), `kosarak` sparse (69,300 × 41,270).
const DATASETS: [DatasetSpec; 2] = [
    DatasetSpec {
        name: "connect",
        scale: 0.25,
        salt: 1,
        basis: 0.4,
        grid: [0.45, 0.5, 0.6],
        mine_grid: [0.5, 0.6, 0.7],
    },
    DatasetSpec {
        name: "kosarak",
        scale: 0.07,
        salt: 2,
        basis: 0.002,
        grid: [0.003, 0.004, 0.006],
        mine_grid: [0.003, 0.004, 0.006],
    },
];

const CELLS: [(MeasureKind, EngineKind); 3] = [
    (MeasureKind::ExpectedSupport, EngineKind::Vertical),
    (MeasureKind::ExpectedSupport, EngineKind::Diffset),
    (MeasureKind::Normal, EngineKind::Vertical),
];

fn generate(spec: &DatasetSpec, seed: u64) -> UncertainDatabase {
    let seed = gen::data_seed(seed, spec.salt);
    match spec.name {
        "connect" => ufim_data::Benchmark::Connect.generate(spec.scale, seed),
        _ => ufim_data::Benchmark::Kosarak.generate(spec.scale, seed),
    }
}

/// The cold answer at one parameter point.
struct Answer {
    itemsets: HashSet<Vec<ItemId>>,
    /// Itemset sizes, for top-k counts.
    lens: Vec<usize>,
}

/// Cold `MatrixMiner` answers at every point the mix can ask about.
struct References {
    /// `[dataset][cell][grid]`.
    sweep: Vec<Vec<Vec<Answer>>>,
    /// `[dataset][mine_grid]` record counts.
    mine: Vec<Vec<usize>>,
    /// Retained itemsets to probe, per `[dataset][cell]`: the answer at the
    /// lowest grid threshold, which the basis lattice contains.
    retained: Vec<Vec<Vec<Vec<ItemId>>>>,
    num_items: Vec<u32>,
}

fn cold(
    db: &UncertainDatabase,
    m: MeasureKind,
    t: TraversalKind,
    e: EngineKind,
    min_sup: f64,
) -> MiningResult {
    let params = MiningParams::new(min_sup, PFT)
        .expect("workload thresholds are valid ratios")
        .with_engine(e);
    MatrixMiner::new(m, t)
        .mine_probabilistic(db, params)
        .expect("every workload cell is supported")
}

fn references(dbs: &[UncertainDatabase]) -> References {
    let mut r = References {
        sweep: Vec::new(),
        mine: Vec::new(),
        retained: Vec::new(),
        num_items: dbs.iter().map(UncertainDatabase::num_items).collect(),
    };
    for (spec, db) in DATASETS.iter().zip(dbs) {
        let mut per_cell = Vec::new();
        let mut retained = Vec::new();
        for (m, e) in CELLS {
            let answers: Vec<Answer> = spec
                .grid
                .iter()
                .map(|&t| {
                    let res = cold(db, m, TraversalKind::LevelWise, e, t);
                    Answer {
                        lens: res.itemsets.iter().map(|f| f.itemset.len()).collect(),
                        itemsets: res
                            .itemsets
                            .into_iter()
                            .map(|f| f.itemset.items().to_vec())
                            .collect(),
                    }
                })
                .collect();
            let mut keep: Vec<Vec<ItemId>> = answers[0]
                .itemsets
                .iter()
                .filter(|s| s.len() <= 3)
                .cloned()
                .collect();
            keep.sort();
            retained.push(keep);
            per_cell.push(answers);
        }
        r.sweep.push(per_cell);
        r.retained.push(retained);
        r.mine.push(
            spec.mine_grid
                .iter()
                .map(|&t| {
                    cold(
                        db,
                        MeasureKind::Normal,
                        TraversalKind::HyperStructure,
                        EngineKind::Vertical,
                        t,
                    )
                    .len()
                })
                .collect(),
        );
    }
    r
}

/// What a response must say.
#[derive(Clone)]
enum Expect {
    Sweep {
        ds: usize,
        cell: usize,
        grid: Vec<usize>,
        records: bool,
    },
    TopK {
        ds: usize,
        cell: usize,
        grid: usize,
        k: usize,
        min_len: usize,
    },
    Probe {
        ds: usize,
        cell: usize,
        grid: usize,
        itemset: Vec<ItemId>,
    },
    Mine {
        ds: usize,
        grid: usize,
    },
}

impl Expect {
    fn kind(&self) -> usize {
        match self {
            Expect::Sweep { .. } => 0,
            Expect::TopK { .. } => 1,
            Expect::Probe { .. } => 2,
            Expect::Mine { .. } => 3,
        }
    }
}

const KIND_METRICS: [&str; 4] = [
    "server.handle_us.sweep",
    "server.handle_us.topk",
    "server.handle_us.probe",
    "server.handle_us.mine",
];

fn cell_fields(cell: usize) -> String {
    let (m, e) = CELLS[cell];
    format!(
        r#""measure":"{}","engine":"{}","pft":{PFT}"#,
        m.name(),
        e.name()
    )
}

/// Requests per deck, by kind: sweep, top-k, probe, mine. Each deck is
/// shuffled by the seed, so the mix is exact in every 100 requests and only
/// the order and the parameters vary.
const DECK: [usize; 4] = [35, 25, 37, 3];

/// One client's seeded request stream.
struct Mix {
    rng: StdRng,
    deck: Vec<usize>,
    /// Mines cycle through every (dataset, threshold) pair in turn, so the
    /// cold work per deck is the same on every seed.
    mines: usize,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: StdRng::seed_from_u64(seed),
            deck: Vec::new(),
            mines: 0,
        }
    }

    fn next(&mut self, refs: &References) -> (String, Expect) {
        if self.deck.is_empty() {
            for (kind, &n) in DECK.iter().enumerate() {
                self.deck.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let kind = self.deck.pop().expect("refilled above");
        if kind == 3 {
            let pairs = DATASETS.len() * DATASETS[0].mine_grid.len();
            let pair = self.mines % pairs;
            self.mines += 1;
            let (ds, grid) = (pair % DATASETS.len(), pair / DATASETS.len());
            let spec = &DATASETS[ds];
            let line = format!(
                r#"{{"op":"mine","dataset":"{}","measure":"normal","traversal":"hyper","min_sup":{},"pft":{PFT}}}"#,
                spec.name, spec.mine_grid[grid]
            );
            return (line, Expect::Mine { ds, grid });
        }
        next_query(&mut self.rng, kind, refs)
    }
}

/// A sweep (`kind` 0), top-k (1) or probe (2) with seeded parameters.
fn next_query(rng: &mut StdRng, kind: usize, refs: &References) -> (String, Expect) {
    let ds = rng.gen_range(0..DATASETS.len());
    let spec = &DATASETS[ds];
    let cell = rng.gen_range(0..CELLS.len());
    let grid = rng.gen_range(0..spec.grid.len());
    let name = spec.name;
    if kind == 0 {
        let mut picks: Vec<usize> = (0..spec.grid.len()).collect();
        let n = rng.gen_range(1..=3);
        for i in 0..n {
            let j = rng.gen_range(i..picks.len());
            picks.swap(i, j);
        }
        picks.truncate(n);
        let records = rng.gen_bool(0.5);
        let thresholds: Vec<String> = picks.iter().map(|&g| spec.grid[g].to_string()).collect();
        let line = format!(
            r#"{{"op":"sweep","dataset":"{name}",{},"thresholds":[{}],"records":{records}}}"#,
            cell_fields(cell),
            thresholds.join(",")
        );
        return (
            line,
            Expect::Sweep {
                ds,
                cell,
                grid: picks,
                records,
            },
        );
    }
    if kind == 1 {
        let k: usize = [5, 10, 20][rng.gen_range(0..3usize)];
        let min_len = rng.gen_range(1..=2);
        let line = format!(
            r#"{{"op":"topk","dataset":"{name}",{},"min_sup":{},"k":{k},"min_len":{min_len}}}"#,
            cell_fields(cell),
            spec.grid[grid]
        );
        return (
            line,
            Expect::TopK {
                ds,
                cell,
                grid,
                k,
                min_len,
            },
        );
    }
    // Probes: half retained itemsets, half random ones that fall back to
    // the index.
    let retained = &refs.retained[ds][cell];
    let itemset: Vec<ItemId> = if rng.gen_bool(0.5) && !retained.is_empty() {
        retained[rng.gen_range(0..retained.len())].clone()
    } else {
        let len = rng.gen_range(1..=3);
        let mut items: Vec<ItemId> = Vec::new();
        while items.len() < len {
            let i = rng.gen_range(0..refs.num_items[ds]);
            if !items.contains(&i) {
                items.push(i);
            }
        }
        items.sort_unstable();
        items
    };
    let list: Vec<String> = itemset.iter().map(u32::to_string).collect();
    let line = format!(
        r#"{{"op":"probe","dataset":"{name}",{},"min_sup":{},"itemset":[{}]}}"#,
        cell_fields(cell),
        spec.grid[grid],
        list.join(",")
    );
    (
        line,
        Expect::Probe {
            ds,
            cell,
            grid,
            itemset,
        },
    )
}

fn num(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing '{key}'"))
}

/// Checks one response line; returns its charged intersections.
fn check(response: &str, expect: &Expect, refs: &References) -> Result<u64, String> {
    let v = Json::parse(response).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "error response: {}",
            &response[..response.len().min(200)]
        ));
    }
    let mismatch = |what: &str, got: u64, want: usize| {
        if got == want as u64 {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, cold mine gives {want}"))
        }
    };
    match expect {
        Expect::Sweep {
            ds,
            cell,
            grid,
            records,
        } => {
            let results = v
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("missing 'results'")?;
            if results.len() != grid.len() {
                return Err(format!(
                    "{} sweep results for {} thresholds",
                    results.len(),
                    grid.len()
                ));
            }
            for (entry, &g) in results.iter().zip(grid) {
                let want = refs.sweep[*ds][*cell][g].itemsets.len();
                mismatch("sweep count", num(entry, "count")?, want)?;
                if *records {
                    let n = entry
                        .get("records")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    mismatch("sweep records", n as u64, want)?;
                }
            }
        }
        Expect::TopK {
            ds,
            cell,
            grid,
            k,
            min_len,
        } => {
            let eligible = refs.sweep[*ds][*cell][*grid]
                .lens
                .iter()
                .filter(|&&l| l >= *min_len)
                .count();
            mismatch("top-k count", num(&v, "count")?, eligible.min(*k))?;
        }
        Expect::Probe {
            ds,
            cell,
            grid,
            itemset,
        } => {
            let want = refs.sweep[*ds][*cell][*grid].itemsets.contains(itemset);
            if v.get("frequent").and_then(Json::as_bool) != Some(want) {
                return Err(format!("probe {itemset:?}: frequent should be {want}"));
            }
        }
        Expect::Mine { ds, grid } => {
            mismatch("mine count", num(&v, "count")?, refs.mine[*ds][*grid])?
        }
    }
    num(&v, "intersections")
}

/// A blocking line-JSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(server: &TcpServer) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn call(&mut self, line: &str, response: &mut String) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

struct Server {
    core: Arc<ServeCore>,
    tcp: TcpServer,
}

/// Starts a server, loads both datasets and primes every cell at its
/// basis, all through the protocol.
fn set_up(seed: u64, report: &mut Report) -> Server {
    let core = Arc::new(ServeCore::new(MEMO_BUDGET));
    let tcp = TcpServer::start(Arc::clone(&core), "127.0.0.1:0").expect("bind 127.0.0.1:0");
    let mut conn = Conn::open(&tcp).expect("connect to the local server");
    let mut response = String::new();
    let mut send = |line: String, report: &mut Report| {
        let outcome = conn
            .call(&line, &mut response)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                match Json::parse(&response).map(|v| v.get("ok").and_then(Json::as_bool)) {
                    Ok(Some(true)) => Ok(()),
                    _ => Err(format!("set-up request failed: {}", response.trim())),
                }
            });
        report.check(outcome);
    };
    for spec in &DATASETS {
        send(
            format!(
                r#"{{"op":"load","name":"{}","benchmark":"{}","scale":{},"seed":{}}}"#,
                spec.name,
                spec.name,
                spec.scale,
                gen::data_seed(seed, spec.salt)
            ),
            report,
        );
    }
    for spec in &DATASETS {
        for cell in 0..CELLS.len() {
            send(
                format!(
                    r#"{{"op":"sweep","dataset":"{}",{},"thresholds":[{}]}}"#,
                    spec.name,
                    cell_fields(cell),
                    spec.basis
                ),
                report,
            );
        }
    }
    Server { core, tcp }
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    latencies: Samples,
    outcomes: Vec<Result<(), String>>,
    intersections: u64,
    /// The requests sent, kept for the in-process replay of a traced run.
    sent: Vec<(String, Expect)>,
}

fn client(
    server: &TcpServer,
    seed: u64,
    id: u64,
    seconds: f64,
    keep: bool,
    refs: &References,
) -> ClientRun {
    let mut out = ClientRun::default();
    let mut mix = Mix::new(gen::data_seed(seed, 100 + id));
    let mut conn = match Conn::open(server) {
        Ok(c) => c,
        Err(e) => {
            out.outcomes
                .push(Err(format!("client {id} cannot connect: {e}")));
            return out;
        }
    };
    let mut response = String::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (line, expect) = mix.next(refs);
        let t = Instant::now();
        if let Err(e) = conn.call(&line, &mut response) {
            out.outcomes
                .push(Err(format!("client {id} transport error: {e}")));
            break;
        }
        out.latencies.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = check(&response, &expect, refs).map(|i| out.intersections += i);
        out.outcomes.push(outcome);
        if keep {
            out.sent.push((line, expect));
        }
    }
    out
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut setup = Samples::default();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            old.tcp.stop();
        }
        let t = Instant::now();
        server = Some(set_up(ctx.seed, report));
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    report.set_n("setup_s", setup.median(), setup.len());
    report.line(format!("setup_s: {}", setup.describe("s")));

    // References, untimed and outside setup_s: the same generator calls the
    // `load` op makes, then cold mines at every point the mix can ask about.
    let mut generate_s = 0.0;
    let mut index_ms = 0.0;
    let dbs: Vec<UncertainDatabase> = DATASETS
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let db = generate(spec, ctx.seed);
            generate_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(VerticalIndex::build(&db));
            index_ms += t.elapsed().as_secs_f64() * 1e3;
            let n = db.num_transactions();
            report.line(format!(
                "dataset {}: N={n} items={} shards={} fingerprint={:016x}",
                spec.name,
                db.num_items(),
                ShardPlan::for_transactions(n).num_shards(n),
                gen::digest(db.transactions())
            ));
            db
        })
        .collect();
    report.set("data.generate_s", generate_s);
    report.set("vertical.index_build_ms", index_ms);
    let t = Instant::now();
    let refs = references(&dbs);
    drop(dbs);
    report.line(format!(
        "references: {:.2} s of cold mines",
        t.elapsed().as_secs_f64()
    ));
    for (spec, cells) in DATASETS.iter().zip(&refs.sweep) {
        let counts: Vec<Vec<usize>> = cells
            .iter()
            .map(|answers| answers.iter().map(|a| a.itemsets.len()).collect())
            .collect();
        report.line(format!(
            "reference counts {} {:?} per cell at {:?}",
            spec.name, counts, spec.grid
        ));
    }

    let tcp_seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let before = server.core.memo().counters();
    ufim_metrics::alloc::reset_peak();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|id| {
                let (tcp, refs) = (&server.tcp, &refs);
                s.spawn(move || client(tcp, ctx.seed, id, tcp_seconds, ctx.trace, refs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    report.set("peak_heap_mb", mb(ufim_metrics::alloc::peak_bytes()));
    let after = server.core.memo().counters();

    let mut latencies = Samples::default();
    let mut intersections = 0;
    let mut sent = Vec::new();
    for run in runs {
        for v in run.latencies.values() {
            latencies.push(*v);
        }
        for o in run.outcomes {
            report.check(o);
        }
        intersections += run.intersections;
        sent.extend(run.sent);
    }
    let requests = latencies.len().max(1) as f64;
    report.set_n("op_p50_ms", latencies.median(), latencies.len());
    report.set_n("ops_per_s", latencies.len() as f64 / wall, latencies.len());
    report.line(format!(
        "request_ms ({CLIENTS} closed-loop clients): {}",
        latencies.describe("ms")
    ));
    report.line(format!(
        "serve_p50_ms {} serve_p99_ms {} serve_qps {}",
        latencies.median(),
        latencies.percentile(99.0).unwrap_or(0.0),
        latencies.len() as f64 / wall
    ));
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    report.set("engine.intersections", intersections as f64 / requests);
    report.set("memo.hits", hits as f64 / requests);
    report.set("memo.misses", misses as f64 / requests);
    report.set(
        "memo.extends",
        (after.extends - before.extends) as f64 / requests,
    );
    report.set("memo.hit_ratio", ratio(hits, hits + misses));
    report.set(
        "memo.resident_bytes",
        server.core.memo().resident_bytes() as f64,
    );

    if ctx.trace {
        replay(ctx, report, &server.core, &sent, &refs, latencies.median());
    }
    server.tcp.stop();
}

/// The traced half of a traced run: the recorded requests replayed
/// in-process, each once untraced and once with spans around
/// `Request::parse`, `ServeCore::handle` and `Json::to_line`.
fn replay(
    ctx: &Ctx,
    report: &mut Report,
    core: &ServeCore,
    sent: &[(String, Expect)],
    refs: &References,
    tcp_p50_ms: f64,
) {
    let tracer = Tracer::default();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut handle_us = [
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    ];
    let (mut parse_ns, mut serialize_ns, mut bytes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let untraced_call = |line: &str| {
        let t = Instant::now();
        let response = match Request::parse(line) {
            Ok(req) => core.handle(&req).to_line(),
            Err(e) => format!("{{\"ok\":false,\"error\":\"{e}\"}}"),
        };
        (t.elapsed().as_secs_f64() * 1e3, response)
    };
    for (i, (line, expect)) in sent.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= ctx.seconds / 2.0 {
            break;
        }
        // Alternate which side goes first, so neither always finds the
        // caches warm.
        if i % 2 == 0 {
            let (ms, response) = untraced_call(line);
            plain.push(ms);
            report.check(check(&response, expect, refs).map(|_| ()));
        }

        tracer.begin_op();
        let t = Instant::now();
        let req = tracer.time("proto.parse", || Request::parse(line));
        let t_parsed = Instant::now();
        let response = match req {
            Ok(req) => {
                let json = tracer.time("server.handle", || core.handle(&req));
                let t_handled = Instant::now();
                let line = tracer.time("proto.serialize", || json.to_line());
                handle_us[expect.kind()].push((t_handled - t_parsed).as_secs_f64() * 1e6);
                serialize_ns += t_handled.elapsed().as_nanos() as u64;
                line
            }
            Err(e) => format!("{{\"ok\":false,\"error\":\"{e}\"}}"),
        };
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        parse_ns += (t_parsed - t).as_nanos() as u64;
        bytes += response.len() as u64;
        report.check(check(&response, expect, refs).map(|_| ()));

        if i % 2 == 1 {
            let (ms, response) = untraced_call(line);
            plain.push(ms);
            report.check(check(&response, expect, refs).map(|_| ()));
        }
    }
    let n = traced.len().max(1) as f64;
    report.set("proto.parse_us", parse_ns as f64 / n / 1e3);
    report.set("proto.serialize_us", serialize_ns as f64 / n / 1e3);
    report.set("proto.response_bytes", bytes as f64 / n);
    for (name, s) in KIND_METRICS.iter().zip(&handle_us) {
        report.set(
            name,
            if s.is_empty() {
                0.0
            } else {
                s.sum() / s.len() as f64
            },
        );
    }
    report.set("server.net_us", (tcp_p50_ms - plain.median()) * 1e3);
    report.set("trace.overhead_pct", overhead_pct(&plain, &traced));
    report.line(format!("in-process request_ms: {}", plain.describe("ms")));
    report.line(format!(
        "traced in-process request_ms: {}",
        traced.describe("ms")
    ));
    crate::write_spans(ctx, &tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_refs() -> References {
        let answer = || Answer {
            itemsets: HashSet::new(),
            lens: Vec::new(),
        };
        References {
            sweep: (0..DATASETS.len())
                .map(|_| {
                    (0..CELLS.len())
                        .map(|_| (0..3).map(|_| answer()).collect())
                        .collect()
                })
                .collect(),
            mine: vec![vec![0; 3]; DATASETS.len()],
            retained: vec![vec![vec![vec![1, 2]]; CELLS.len()]; DATASETS.len()],
            num_items: vec![129, 41_270],
        }
    }

    fn requests(seed: u64) -> Vec<String> {
        let refs = tiny_refs();
        let mut mix = Mix::new(seed);
        (0..300).map(|_| mix.next(&refs).0).collect()
    }

    #[test]
    fn request_mix_follows_the_seed() {
        assert_eq!(requests(1), requests(1));
        assert_ne!(requests(1), requests(2));
    }

    #[test]
    fn every_deck_has_the_same_composition() {
        let refs = tiny_refs();
        let mut mix = Mix::new(9);
        let mut kinds = [0usize; 4];
        for _ in 0..200 {
            kinds[mix.next(&refs).1.kind()] += 1;
        }
        assert_eq!(kinds, [70, 50, 74, 6]);
        for line in requests(3) {
            assert!(Request::parse(&line).is_ok(), "{line}");
        }
    }
}
