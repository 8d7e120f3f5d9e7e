//! `serve-mix`: requests to the real `smc serve --jobs 2` binary over
//! stdin/stdout, closed loop with two outstanding requests from this one
//! client. Each request carries an inline source drawn by seed from the
//! bundled models and asks for traces; the server's warm-start cache is
//! on. The traced run replays the same request sequence in process.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use proptest::TestRng;
use smc_engine::json_escape;
use smc_obs::Json;

use crate::layers::{self, Counters, Mode};
use crate::oracle::{Case, Shape};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workloads::{bundled_oracle, ms_since, push_no_pool, OpResults, Workload};
use crate::{Args, RunReport};

/// Outstanding requests kept in flight (the box has two cores).
const OUTSTANDING: usize = 2;
/// Requests of the timed loop answered per `real_op` step.
const STEP_REQUESTS: usize = 64;
/// Warm-up requests after one request per distinct source.
const WARMUP_REQUESTS: usize = 300;

/// A running `smc serve` child.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(smc: &Path) -> Result<Server, String> {
        let mut child = Command::new(smc)
            .args(["serve", "--jobs", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", smc.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        Ok(Server { child, stdin, stdout })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let w = self.stdin.as_mut().ok_or("server stdin closed")?;
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .map_err(|e| format!("writing a request: {e}"))
    }

    fn recv(&mut self, line: &mut String) -> Result<(), String> {
        line.clear();
        match self.stdout.read_line(line) {
            Ok(0) => Err("server closed its output".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("reading a response: {e}")),
        }
    }
}

impl Drop for Server {
    /// Closing stdin drains the server; read its output to the end and
    /// wait for it, so no child outlives the benchmark.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let mut sink = String::new();
        while matches!(self.stdout.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The seeded request sequence: an endless stream of case indices.
struct Mix {
    rng: TestRng,
    cases: usize,
}

impl Mix {
    fn new(seed: u64, cases: usize) -> Mix {
        Mix { rng: TestRng::for_case(seed), cases }
    }

    fn next(&mut self) -> usize {
        self.rng.below(self.cases as u64) as usize
    }
}

/// Server-side figures gathered on the real path.
#[derive(Debug, Default)]
struct ServerStats {
    responses: u64,
    cache_hits: u64,
    rejected: u64,
    bytes: u64,
    latency_us: Vec<f64>,
    job_wall_us: Vec<f64>,
    overhead_us: Vec<f64>,
}

pub struct ServeMix {
    cases: Vec<Case>,
    /// JSON-escaped source of every case, built at set-up.
    escaped: Vec<String>,
    server: Server,
    mix: Mix,
    replay_mix: Mix,
    next_id: u64,
    inflight: HashMap<u64, (Instant, usize)>,
    line: String,
    stats: ServerStats,
}

impl ServeMix {
    fn send_next(&mut self, case: usize) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let line =
            format!("{{\"id\":\"{id}\",\"source\":\"{}\",\"trace\":true}}", self.escaped[case]);
        self.inflight.insert(id, (Instant::now(), case));
        self.server.send(&line)
    }

    /// Reads one response and scores it.
    fn recv_one(&mut self) -> Result<(f64, Result<(), String>), String> {
        self.server.recv(&mut self.line)?;
        let json = Json::parse(self.line.trim_end()).ok_or("response is not JSON")?;
        let id: u64 =
            json.get("id").and_then(Json::as_str).and_then(|s| s.parse().ok()).ok_or_else(
                || format!("response without a request id: {}", self.line.trim_end()),
            )?;
        let (sent, case) = self.inflight.remove(&id).ok_or("response to an unknown id")?;
        let lat_ms = ms_since(sent);
        let s = &mut self.stats;
        s.responses += 1;
        s.latency_us.push(lat_ms * 1e3);
        s.bytes += self.line.len() as u64;
        let outcome = json.get("outcome").and_then(Json::as_str).unwrap_or("");
        if outcome == "rejected" {
            s.rejected += 1;
        }
        if json.get("cache_hit").and_then(Json::as_bool) == Some(true) {
            s.cache_hits += 1;
        }
        if let Some(w) = json.get("wall_us").and_then(Json::as_u64) {
            s.job_wall_us.push(w as f64);
            s.overhead_us.push((lat_ms * 1e3 - w as f64).max(0.0));
        }
        Ok((lat_ms, score(&json, outcome, &self.cases[case])))
    }

    /// Closed loop: keeps [`OUTSTANDING`] requests in flight until
    /// `requests` more have been sent, then collects every answer.
    fn drive(
        &mut self,
        requests: usize,
        pick: &mut dyn FnMut(&mut Mix) -> usize,
    ) -> Result<OpResults, String> {
        let mut out = Vec::with_capacity(requests);
        let mut sent = 0;
        while sent < requests && self.inflight.len() < OUTSTANDING {
            let k = pick(&mut self.mix);
            self.send_next(k)?;
            sent += 1;
        }
        while !self.inflight.is_empty() {
            out.push(self.recv_one()?);
            if sent < requests {
                let k = pick(&mut self.mix);
                self.send_next(k)?;
                sent += 1;
            }
        }
        Ok(out)
    }
}

/// A response must be an executed check whose verdicts and trace shapes
/// match the table for its source.
fn score(json: &Json, outcome: &str, case: &Case) -> Result<(), String> {
    if outcome != "pass" && outcome != "fail" {
        return Err(format!("{}: outcome {outcome:?}", case.name));
    }
    let Some(Json::Arr(specs)) = json.get("specs") else {
        return Err(format!("{}: response without specs", case.name));
    };
    let mut got = Vec::new();
    for s in specs {
        let holds = s.get("holds").and_then(Json::as_bool).ok_or("spec without a verdict")?;
        let shape = match s.get("trace") {
            None => None,
            Some(t) => {
                let Some(Json::Arr(states)) = t.get("states") else {
                    return Err(format!("{}: trace without states", case.name));
                };
                let loopback = t.get("loopback").and_then(Json::as_u64).map(|l| l as usize);
                Some(Shape { len: states.len(), loopback })
            }
        };
        got.push((holds, shape));
    }
    case.check_answers(&got)
}

impl Workload for ServeMix {
    type Oracle = Vec<Case>;

    fn oracle(args: &Args) -> Result<Vec<Case>, String> {
        bundled_oracle(args)
    }

    fn setup(args: &Args, cases: &Vec<Case>) -> Result<ServeMix, String> {
        let escaped = cases.iter().map(|c| json_escape(&c.source)).collect();
        let mut w = ServeMix {
            cases: cases.clone(),
            escaped,
            server: Server::spawn(&args.smc)?,
            mix: Mix::new(args.seed, cases.len()),
            replay_mix: Mix::new(args.seed, cases.len()),
            next_id: 0,
            inflight: HashMap::new(),
            line: String::new(),
            stats: ServerStats::default(),
        };
        // Warm-up: every source once (fills the warm-start cache), then
        // a stretch of the mix drawn from a generator of its own, so the
        // timed loop starts at the head of the seeded sequence.
        let n = cases.len();
        let mut distinct = 0..n;
        w.drive(n, &mut |_| distinct.next().unwrap_or(0))?;
        let mut warm = Mix::new(args.seed ^ 0x5eed, n);
        w.drive(WARMUP_REQUESTS, &mut |_| warm.next())?;
        w.stats = ServerStats::default();
        Ok(w)
    }

    fn real_op(&mut self) -> Result<OpResults, String> {
        self.drive(STEP_REQUESTS, &mut Mix::next)
    }

    fn replay_op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String> {
        let case = &self.cases[self.replay_mix.next()];
        let t = Instant::now();
        let mut out = layers::smv_op(tr, c, &case.source, Mode::Traces)?;
        let lat = ms_since(t);
        Ok(vec![(lat, layers::validate_smv(&mut out, case, Mode::Traces))])
    }

    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        peak_rss_mb(Some(self.server.child.id()))
    }

    fn push_engine_metrics(&self, r: &mut RunReport) {
        push_no_pool(r);
        let s = &self.stats;
        let n = s.responses.max(1) as f64;
        r.push("engine.cache.hit_ratio", s.cache_hits as f64 / n, "ratio");
        r.push("engine.server.client_p99_us", percentile(&s.latency_us, 0.99), "us");
        r.push("engine.server.job_wall_p50_us", median(&s.job_wall_us), "us");
        r.push("engine.server.overhead_p50_us", median(&s.overhead_us), "us");
        r.push("engine.server.rejected", s.rejected as f64, "count");
        r.push("engine.server.response_bytes", s.bytes as f64 / n, "bytes");
    }
}
