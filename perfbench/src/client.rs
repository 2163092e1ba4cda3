//! The live half of the benchmark: an `sla-serve` child on loopback and one
//! closed-loop client connection that sends the plan's requests and checks
//! every answer.

use crate::workload::{Design, Plan};
use sla_atpg::FaultStatus;
use sla_netlist::wallclock;
use sla_store::proto::{self, Message, Summary};
use sla_store::CacheOutcome;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Worker threads of the server and of the in-process replay.
pub const THREADS: usize = 2;

/// What one request returned, reduced to what the checks compare.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Digest of the verdict stream and the deterministic `Done` counts. The
    /// cache outcome is left out so a warm answer can equal its cold priming.
    pub digest: u64,
    /// The `Done` summary.
    pub summary: Summary,
}

/// Digest of a verdict stream plus the deterministic summary counts; the
/// in-process replay computes the same digest from its own run.
pub fn digest(verdicts: &[FaultStatus], summary: &Summary) -> u64 {
    let mut h = sla_netlist::FastHasher::default();
    for status in verdicts {
        h.write_u8(match status {
            FaultStatus::Detected => 0,
            FaultStatus::Untestable => 1,
            FaultStatus::Aborted(reason) => 2 + *reason as u8,
        });
    }
    for value in [
        u64::from(summary.total_faults),
        u64::from(summary.detected),
        u64::from(summary.untestable),
        u64::from(summary.aborted),
        summary.backtracks,
        summary.decisions,
        u64::from(summary.sequences),
        summary.test_vectors,
        summary.budget_spent,
    ] {
        h.write_u64(value);
    }
    h.finish()
}

/// Timings of one measured request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// From request write to the first `Verdict` decoded.
    pub first_verdict: Duration,
    /// From request write to `Done` decoded.
    pub done: Duration,
}

/// A running `sla-serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// Held open so the child never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    log: PathBuf,
    addr: String,
}

impl Server {
    /// Starts `binary` on an ephemeral loopback port with an empty store in
    /// `dir`, at [`THREADS`] worker threads.
    pub fn spawn(binary: &Path, dir: &Path, capacity: usize) -> Result<Server, String> {
        let store = dir.join("store");
        let _ = std::fs::remove_dir_all(&store);
        let log = dir.join("serve.log");
        let log_file =
            File::create(&log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut child = Command::new(binary)
            .arg("--store")
            .arg(&store)
            .arg("--port")
            .arg("0")
            .arg("--capacity")
            .arg(capacity.to_string())
            .env("SLA_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let mut server = Server {
            child: Some(child),
            _stdout: stdout,
            log,
            addr: String::new(),
        };
        read.map_err(|e| format!("reading the server banner: {e}"))?;
        match banner.trim().strip_prefix("sla-serve listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => return Err(server.failure(&format!("unexpected server banner {banner:?}"))),
        }
        Ok(server)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Connection, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Connection {
            input: BufReader::new(reader),
            output: BufWriter::new(stream),
        })
    }

    fn pid(&self) -> Result<u32, String> {
        let child = self.child.as_ref().ok_or("server already stopped")?;
        Ok(child.id())
    }

    /// A memory figure of the server from `/proc/<pid>/status` in MiB:
    /// `VmRSS` (resident now) or `VmHWM` (peak resident).
    pub fn memory_mib(&self, field: &str) -> Result<f64, String> {
        let pid = self.pid()?;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
    }

    /// Resets the server's peak resident set (`VmHWM`) to its current
    /// resident set, so the next reading is the peak since this call.
    pub fn reset_peak(&self) -> Result<(), String> {
        let pid = self.pid()?;
        std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
            .map_err(|e| format!("resetting the peak RSS of {pid}: {e}"))
    }

    /// Asks the server to exit over `conn` and waits for it.
    pub fn shutdown(mut self, mut conn: Connection) -> Result<(), String> {
        proto::write_message(&mut conn.output, &Message::Shutdown)
            .map_err(|e| format!("sending shutdown: {e}"))?;
        drop(conn);
        let status = self
            .child
            .take()
            .expect("server is running")
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(self.failure(&format!("server exited with {status}")))
        }
    }

    /// `what`, followed by the tail of the server log.
    pub fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        format!("{what}; server log tail:\n{}", tail.join("\n"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection, buffered both ways as `service-smoke` does.
pub struct Connection {
    input: BufReader<TcpStream>,
    output: BufWriter<TcpStream>,
}

impl Connection {
    /// Sends `design`'s request and reads its answer, checking the stream's
    /// shape: one verdict per fault in strict index order, then a `Done`
    /// whose counts equal the streamed ones.
    pub fn roundtrip(&mut self, design: &Design) -> Result<(Timing, Answer), String> {
        let faults = design.faults();
        let message = design.message();
        let start = wallclock::now();
        proto::write_message(&mut self.output, &message)
            .map_err(|e| format!("request write failed: {e}"))?;
        let mut first_verdict = None;
        let mut verdicts = Vec::with_capacity(faults);
        loop {
            let msg = proto::read_message(&mut self.input)
                .map_err(|e| format!("response read failed: {e}"))?
                .ok_or("server closed the connection mid-response")?;
            match msg {
                Message::Verdict { index, status } => {
                    first_verdict.get_or_insert_with(|| start.elapsed());
                    if index as usize != verdicts.len() {
                        return Err(format!(
                            "verdict index {index} arrived where {} was due",
                            verdicts.len()
                        ));
                    }
                    verdicts.push(status);
                }
                Message::Done(summary) => {
                    let done = start.elapsed();
                    check_summary(&verdicts, faults, &summary)?;
                    let timing = Timing {
                        first_verdict: first_verdict.unwrap_or(done),
                        done,
                    };
                    let answer = Answer {
                        digest: digest(&verdicts, &summary),
                        summary,
                    };
                    return Ok((timing, answer));
                }
                Message::Error(text) => return Err(format!("server error: {text}")),
                other => return Err(format!("unexpected server message: {other:?}")),
            }
        }
    }
}

/// The `Done` counts must equal the streamed verdicts.
fn check_summary(verdicts: &[FaultStatus], faults: usize, s: &Summary) -> Result<(), String> {
    let count = |pred: fn(&FaultStatus) -> bool| verdicts.iter().filter(|v| pred(v)).count();
    let streamed = (
        verdicts.len(),
        count(|v| *v == FaultStatus::Detected),
        count(|v| *v == FaultStatus::Untestable),
        count(|v| matches!(v, FaultStatus::Aborted(_))),
    );
    let summed = (
        s.total_faults as usize,
        s.detected as usize,
        s.untestable as usize,
        s.aborted as usize,
    );
    if verdicts.len() != faults || streamed != summed {
        return Err(format!(
            "{faults} faults sent; streamed (total, detected, untestable, aborted) = \
             {streamed:?}, Done says {summed:?}"
        ));
    }
    Ok(())
}

/// Checks the cache outcome a request reported against the plan.
pub fn check_cache(expect: CacheOutcome, summary: &Summary) -> Result<(), String> {
    let ok = match expect {
        CacheOutcome::Miss => summary.cache == CacheOutcome::Miss && summary.learn_work_units > 0,
        CacheOutcome::Hit => summary.cache == CacheOutcome::Hit && summary.learn_work_units == 0,
        CacheOutcome::Uncached => summary.cache == CacheOutcome::Uncached,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "expected {expect:?}, got {:?} with {} learning work units",
            summary.cache, summary.learn_work_units
        ))
    }
}

/// A server ready for the measured phase, plus what set-up learned.
pub struct Ready {
    /// The running server.
    pub server: Server,
    /// The warmed-up connection.
    pub conn: Connection,
    /// Per design: the digest of its priming answer (primed plans only).
    pub primed: Vec<Option<u64>>,
}

/// Set-up after input generation: spawn the server on an empty store,
/// connect, send the warm-up request, then prime one cold request per
/// design when the plan asks for it.
pub fn start(binary: &Path, dir: &Path, plan: &Plan, warmup: &Design) -> Result<Ready, String> {
    let server = Server::spawn(binary, dir, plan.capacity)?;
    let mut conn = server.connect()?;
    let (_, answer) = conn
        .roundtrip(warmup)
        .map_err(|e| server.failure(&format!("warm-up request: {e}")))?;
    check_cache(CacheOutcome::Uncached, &answer.summary)
        .map_err(|e| server.failure(&format!("warm-up request: {e}")))?;
    let mut primed = vec![None; plan.designs.len()];
    if plan.primed {
        for (slot, design) in primed.iter_mut().zip(&plan.designs) {
            let name = design.name();
            let (_, answer) = conn
                .roundtrip(design)
                .map_err(|e| server.failure(&format!("priming '{name}': {e}")))?;
            check_cache(CacheOutcome::Miss, &answer.summary)
                .map_err(|e| server.failure(&format!("priming '{name}': {e}")))?;
            *slot = Some(answer.digest);
        }
    }
    Ok(Ready {
        server,
        conn,
        primed,
    })
}

/// The outcome of one measured request: its timings and answer, or why it
/// failed.
pub type Outcome = Result<(Timing, Answer), String>;

/// What the measured phase observed.
pub struct Measured {
    /// Per planned request, in send order.
    pub outcomes: Vec<Outcome>,
    /// Wall time of the whole request list.
    pub run_time: Duration,
    /// The server's peak resident set during each answered request, in MiB.
    pub peak_rss_mib: Vec<f64>,
}

/// The measured phase: sends every planned request in order, closed loop,
/// and checks each answer against the plan. The server's peak resident set
/// is reset before and read after each request, between requests; failing
/// to do so ends the run.
pub fn measure(ready: &mut Ready, plan: &Plan) -> Result<Measured, String> {
    let mut outcomes = Vec::with_capacity(plan.requests.len());
    let mut peak_rss_mib = Vec::with_capacity(plan.requests.len());
    let mut broken: Option<String> = None;
    let start = wallclock::now();
    for &d in &plan.requests {
        if let Some(why) = &broken {
            outcomes.push(Err(format!("not sent: {why}")));
            continue;
        }
        let design = &plan.designs[d];
        ready.server.reset_peak()?;
        let outcome = match ready.conn.roundtrip(design) {
            Ok((timing, answer)) => check_cache(plan.expect, &answer.summary)
                .and_then(|()| match ready.primed[d] {
                    Some(primed) if primed != answer.digest => Err(format!(
                        "answer for '{}' differs from its priming answer",
                        design.name()
                    )),
                    _ => Ok(()),
                })
                .map(|()| (timing, answer)),
            Err(e) => {
                // The stream may be desynchronised: stop using it.
                broken = Some(e.clone());
                Err(e)
            }
        };
        if broken.is_none() {
            peak_rss_mib.push(ready.server.memory_mib("VmHWM")?);
        }
        outcomes.push(outcome);
    }
    Ok(Measured {
        outcomes,
        run_time: start.elapsed(),
        peak_rss_mib,
    })
}
