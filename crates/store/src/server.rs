//! The `sla-serve` request loop.
//!
//! A deliberately single-threaded accept loop: requests on one socket are
//! served in arrival order, and parallelism lives where it always lives —
//! inside the session, which shards fault searches across the `sla-par`
//! worker pool. That keeps the service inside the workspace determinism
//! contract (no `std::thread`/`std::sync` outside `crates/par`) and makes
//! the answer to any request independent of connection interleaving.
//!
//! One [`LearnedStore`] is opened at startup and shared across all requests
//! and connections, so the second request for a design skips learning
//! entirely. Cache failures never fail a request: a corrupt entry is logged
//! (full error chain) and repopulated from a fresh learning run.
//!
//! No frame the server sends is held back for an ACK. Every accepted
//! stream runs with `TCP_NODELAY`, so Nagle's algorithm never holds a small
//! frame back until the client's delayed ACK. Verdicts go out one merged
//! stride at a time: the stride's frames are written into the connection's
//! buffer unflushed and flushed once, so a full stride of 32 leaves in one
//! send, as soon as the session has merged it. `Done` and `Error` frames
//! are flushed as they are written.

use crate::proto::{self, Message, ProtoError, Request, Summary};
use crate::{error_chain, CacheOutcome, LearnedStore, Session};
use sla_atpg::{AtpgStats, FaultStatus};
use sla_netlist::parser::parse_bench;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// Configuration of a [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory of the persistent learned-knowledge store.
    pub store_dir: PathBuf,
    /// Maximum number of cached learned databases.
    pub capacity: usize,
    /// Stop after this many requests (used by tests); `None` = run until a
    /// [`Message::Shutdown`] arrives.
    pub max_requests: Option<usize>,
    /// Worker threads of each request's session (see
    /// [`Session::with_threads`]).
    pub threads: usize,
}

/// What a connection asked the server to do next.
enum Flow {
    /// Keep accepting connections.
    Continue,
    /// Exit the serve loop cleanly.
    Stop,
}

/// Accepts connections on `listener` and serves requests until a
/// [`Message::Shutdown`] arrives or the request quota is exhausted.
/// Per-connection failures are logged and do not stop the loop.
pub fn serve(listener: TcpListener, options: &ServeOptions) -> std::io::Result<()> {
    let (mut store, reset) = LearnedStore::open_or_reset(&options.store_dir, options.capacity);
    if let Some(err) = reset {
        eprintln!(
            "sla-serve: store at {} reset to empty: {}",
            store.dir().display(),
            error_chain(&err)
        );
    }
    let mut served = 0usize;
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sla-serve: accept failed: {e}");
                continue;
            }
        };
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("sla-serve: set_nodelay failed: {e}");
        }
        match handle_connection(&stream, &mut store, &mut served, options) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Stop) => return Ok(()),
            Err(e) => eprintln!("sla-serve: connection dropped: {e}"),
        }
        if let Some(max) = options.max_requests {
            if served >= max {
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Serves one connection until the client hangs up or asks for shutdown.
fn handle_connection(
    stream: &TcpStream,
    store: &mut LearnedStore,
    served: &mut usize,
    options: &ServeOptions,
) -> std::io::Result<Flow> {
    let mut input = BufReader::new(stream);
    let mut output = BufWriter::new(stream);
    loop {
        let msg = match proto::read_message(&mut input) {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(Flow::Continue),
            Err(ProtoError::Io(e)) => return Err(e),
            Err(e) => {
                // A malformed frame poisons the stream framing; answer with
                // the reason and drop the connection.
                eprintln!("sla-serve: bad frame: {}", error_chain(&e));
                let _ = proto::write_message(&mut output, &Message::Error(error_chain(&e)));
                return Ok(Flow::Continue);
            }
        };
        match msg {
            Message::Shutdown => {
                eprintln!("sla-serve: shutdown requested");
                return Ok(Flow::Stop);
            }
            Message::Request(req) => {
                handle_request(&req, store, options.threads, &mut output)?;
                *served += 1;
                if let Some(max) = options.max_requests {
                    if *served >= max {
                        output.flush()?;
                        return Ok(Flow::Stop);
                    }
                }
            }
            other => {
                let text = format!("unexpected client message: {other:?}");
                eprintln!("sla-serve: {text}");
                proto::write_message(&mut output, &Message::Error(text))?;
            }
        }
    }
}

/// Runs one request through the session API, streaming verdicts in strict
/// fault order followed by the summary frame.
fn handle_request(
    req: &Request,
    store: &mut LearnedStore,
    threads: usize,
    output: &mut impl Write,
) -> std::io::Result<()> {
    let netlist = match parse_bench(&req.name, &req.bench) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("sla-serve: request '{}' rejected: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("bad netlist: {e}")));
        }
    };
    let faults = match proto::resolve_faults(&netlist, &req.faults) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sla-serve: request '{}' rejected: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("bad fault list: {e}")));
        }
    };
    let mut session = Session::open(&netlist).with_threads(threads);
    let (cache, learn_work_units) = match &req.learn {
        None => (CacheOutcome::Uncached, 0),
        Some(opts) => match session.learn_cached(opts, store) {
            Ok(report) => {
                if let Some(store_err) = &report.store_error {
                    eprintln!(
                        "sla-serve: cache entry for '{}' rejected: {}",
                        req.name,
                        error_chain(store_err)
                    );
                }
                (report.outcome, report.work_units)
            }
            Err(e) => {
                eprintln!("sla-serve: learning for '{}' failed: {e}", req.name);
                return proto::write_message(
                    output,
                    &Message::Error(format!("learning failed: {e}")),
                );
            }
        },
    };
    eprintln!(
        "sla-serve: request '{}': {} faults, cache {:?}, {} learning work units",
        req.name,
        req.faults.len(),
        cache,
        learn_work_units
    );
    let mut failure = None;
    let run = session.atpg_streaming(&req.atpg, &faults, |first, verdicts| {
        if failure.is_none() {
            failure = write_stride(output, first, verdicts).err();
        }
    });
    match failure {
        Some(StrideError::Io(e)) => return Err(e),
        Some(StrideError::Overflow(text)) => return reply_overflow(output, &req.name, text),
        None => {}
    }
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("sla-serve: ATPG for '{}' failed: {e}", req.name);
            return proto::write_message(output, &Message::Error(format!("atpg failed: {e}")));
        }
    };
    match summarize(&run.stats, cache, learn_work_units) {
        Ok(summary) => proto::write_message(output, &Message::Done(summary)),
        Err(text) => reply_overflow(output, &req.name, text),
    }
}

/// Why a stride of verdicts was not sent.
enum StrideError {
    /// The connection failed.
    Io(std::io::Error),
    /// A fault index does not fit its wire field.
    Overflow(String),
}

/// Writes one merged stride of verdicts into `output` unflushed, then
/// flushes once, so the whole stride leaves in one send.
fn write_stride(
    output: &mut impl Write,
    first: usize,
    verdicts: &[FaultStatus],
) -> Result<(), StrideError> {
    for (index, &status) in (first..).zip(verdicts) {
        let index = wire_u32("verdict index", index).map_err(StrideError::Overflow)?;
        proto::write_message_unflushed(output, &Message::Verdict { index, status })
            .map_err(StrideError::Io)?;
    }
    output.flush().map_err(StrideError::Io)
}

/// The `Done` summary of a run, or why a count does not fit the wire.
fn summarize(
    stats: &AtpgStats,
    cache: CacheOutcome,
    learn_work_units: u64,
) -> Result<Summary, String> {
    Ok(Summary {
        total_faults: wire_u32("total_faults", stats.total_faults)?,
        detected: wire_u32("detected", stats.detected)?,
        untestable: wire_u32("untestable", stats.untestable)?,
        aborted: wire_u32("aborted", stats.aborted)?,
        backtracks: stats.backtracks as u64,
        decisions: stats.decisions as u64,
        sequences: wire_u32("sequences", stats.sequences)?,
        test_vectors: stats.test_vectors as u64,
        budget_spent: stats.budget_spent,
        cache,
        learn_work_units,
    })
}

/// `n` as the `u32` wire field `field`; a count that does not fit is an
/// error for the client, never a truncated number.
fn wire_u32(field: &str, n: usize) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{field} {n} does not fit its u32 wire field"))
}

/// Answers a request whose counts do not fit the wire with an error frame.
fn reply_overflow(output: &mut impl Write, name: &str, text: String) -> std::io::Result<()> {
    eprintln!("sla-serve: answer to '{name}' failed: {text}");
    proto::write_message(output, &Message::Error(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_beyond_u32_are_errors_not_truncations() {
        let stats = AtpgStats {
            total_faults: 1 << 32,
            ..AtpgStats::default()
        };
        let err = summarize(&stats, CacheOutcome::Uncached, 0).expect_err("2^32 does not fit");
        assert!(err.contains("total_faults 4294967296"), "{err}");

        // The last index that fits is sent; the next one stops the stride
        // instead of wrapping to 0.
        let mut out = Vec::new();
        let result = write_stride(&mut out, u32::MAX as usize, &[FaultStatus::Detected; 2]);
        assert!(matches!(result, Err(StrideError::Overflow(_))));
        let mut sent = out.as_slice();
        let first = proto::read_message(&mut sent).expect("one verdict");
        assert_eq!(
            first,
            Some(Message::Verdict {
                index: u32::MAX,
                status: FaultStatus::Detected
            })
        );
        assert!(sent.is_empty(), "nothing after the last index that fits");
    }
}
