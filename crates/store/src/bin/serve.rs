//! `sla-serve`: the long-running ATPG service.
//!
//! Usage: `sla-serve [--store DIR] [--port N] [--capacity N]
//! [--max-requests N]`.
//!
//! Binds a loopback listener (port 0 = ephemeral), prints a single
//! `sla-serve listening on 127.0.0.1:PORT` line on stdout so a parent
//! process can scrape the address, then serves framed requests (see
//! `sla_store::proto`) until a shutdown frame arrives. All diagnostics go
//! to stderr; stdout carries only the address line.
//!
//! The worker-thread count is read once at start-up (`SLA_THREADS`, see
//! `sla_par::thread_count`) and handed to every request's session; the
//! accept loop itself is single-threaded by design.

use sla_store::server::{serve, ServeOptions};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut port: u16 = 0;
    let mut capacity: usize = 64;
    let mut max_requests: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let parsed = match arg.as_str() {
            "--store" => value("--store").map(|v| store_dir = Some(PathBuf::from(v))),
            "--port" => value("--port").and_then(|v| {
                v.parse()
                    .map(|p| port = p)
                    .map_err(|e| format!("--port: {e}"))
            }),
            "--capacity" => value("--capacity").and_then(|v| {
                v.parse()
                    .map(|c| capacity = c)
                    .map_err(|e| format!("--capacity: {e}"))
            }),
            "--max-requests" => value("--max-requests").and_then(|v| {
                v.parse()
                    .map(|m| max_requests = Some(m))
                    .map_err(|e| format!("--max-requests: {e}"))
            }),
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("sla-serve: {e}");
            eprintln!(
                "usage: sla-serve [--store DIR] [--port N] [--capacity N] [--max-requests N]"
            );
            return ExitCode::FAILURE;
        }
    }

    let store_dir = store_dir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("sla-store-{}", std::process::id())));

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sla-serve: bind 127.0.0.1:{port} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sla-serve: local_addr failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("sla-serve listening on {addr}");
    let _ = std::io::stdout().flush();
    let threads = sla_par::thread_count();
    eprintln!(
        "sla-serve: store {} (capacity {capacity}), {threads} worker threads",
        store_dir.display(),
    );

    let options = ServeOptions {
        store_dir,
        capacity,
        max_requests,
        threads,
    };
    match serve(listener, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sla-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
