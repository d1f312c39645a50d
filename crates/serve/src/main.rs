//! The `ufim-serve` binary: line-JSON queries over TCP or stdin.
//!
//! ```text
//! ufim-serve [--listen ADDR] [--budget-bytes N] [--log FILE]
//!            [--dataset NAME=BENCHMARK:SCALE:SEED]...
//! ```
//!
//! Without `--listen`, requests are read from stdin and answered on
//! stdout (one line each), exiting at EOF — the mode CI uses to exercise
//! the server without networking. A request line over
//! [`MAX_LINE_BYTES`](ufim_serve::server::MAX_LINE_BYTES) gets one error
//! line and is skipped. With `--listen`, a blocking TCP server
//! runs until the process is killed.

use std::process::exit;
use std::sync::Arc;
use ufim_serve::ServeCore;

fn usage() -> ! {
    eprintln!(
        "usage: ufim-serve [--listen ADDR] [--budget-bytes N] [--log FILE] \
         [--dataset NAME=BENCHMARK:SCALE:SEED]..."
    );
    exit(2);
}

fn parse_dataset_spec(spec: &str) -> Result<(String, String, f64, u64), String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("dataset spec '{spec}' is not NAME=BENCHMARK[:SCALE[:SEED]]"))?;
    let mut parts = rest.split(':');
    let benchmark = parts.next().unwrap_or_default().to_string();
    let scale = parts
        .next()
        .map_or(Ok(1.0), str::parse::<f64>)
        .map_err(|e| format!("bad scale in '{spec}': {e}"))?;
    let seed = parts
        .next()
        .map_or(Ok(42), str::parse::<u64>)
        .map_err(|e| format!("bad seed in '{spec}': {e}"))?;
    Ok((name.to_string(), benchmark, scale, seed))
}

fn main() {
    let mut listen: Option<String> = None;
    let mut budget: u64 = 256 << 20;
    let mut log: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--budget-bytes" => {
                budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--log" => log = Some(args.next().unwrap_or_else(|| usage())),
            "--dataset" => specs.push(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }

    let core = Arc::new(ServeCore::new(budget));
    if let Some(path) = &log {
        if let Err(e) = core.log_to(std::path::Path::new(path)) {
            eprintln!("cannot open log '{path}': {e}");
            exit(1);
        }
    }
    for spec in &specs {
        match parse_dataset_spec(spec) {
            Ok((name, benchmark, scale, seed)) => {
                if let Err(e) = core.load_benchmark(&name, &benchmark, scale, seed) {
                    eprintln!("{e}");
                    exit(1);
                }
                eprintln!("loaded dataset '{name}' ({benchmark} scale={scale} seed={seed})");
            }
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        }
    }

    match listen {
        Some(addr) => {
            let server = match ufim_serve::TcpServer::start(Arc::clone(&core), &addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot listen on {addr}: {e}");
                    exit(1);
                }
            };
            eprintln!("listening on {}", server.local_addr());
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        None => {
            if let Err(e) =
                ufim_serve::serve_stream(&core, std::io::stdin().lock(), std::io::stdout().lock())
            {
                eprintln!("stdin mode: {e}");
                exit(1);
            }
        }
    }
}
