//! How a workload run is measured, and the in-process workloads (`arbiter3`,
//! `seitz-smv`, `batch-coi`); `serve-mix` lives in `serve_mix.rs`.
//!
//! An untraced run sets up [`SETUP_REPS`] times (reporting the median
//! as `setup_s`), then runs the workload's real path back to back for
//! the measured seconds. A traced run spends its time in three phases:
//! the real path (which also yields the engine metrics), the replay
//! with the span recorder off, and the replay with it on.

use std::time::{Duration, Instant};

use proptest::TestRng;
use smc_engine::{run_batch, EngineConfig, Job, JobOutcome, JobResult};
use smc_logic::Ctl;
use smc_obs::Metrics;

use crate::layers::{self, Counters, Mode};
use crate::oracle::{self, Case, Shape, ARBITER_SPECS, ARBITER_VERDICTS};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, percentile, repeated_setup};
use crate::{serve_mix, Args, RunReport};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of a traced run spent on the real path; the rest goes to the
/// replay.
const REAL_SHARE: f64 = 0.3;
/// Jobs in the seeded `batch-coi` manifest.
const MANIFEST_JOBS: usize = 200;
/// Users of the `arbiter3` circuit, and its reachable-state count.
const ARBITER3_USERS: usize = 3;
const ARBITER3_STATES: f64 = 524_288.0;

/// Per-operation latency (ms) and verdict of the correctness gate.
pub type OpResults = Vec<(f64, Result<(), String>)>;

/// One workload: its expected answers, its set-up, its real path and
/// its replay as public layer calls.
pub trait Workload: Sized + Send {
    /// Expected answers, computed before set-up starts.
    type Oracle;
    fn oracle(args: &Args) -> Result<Self::Oracle, String>;
    /// Generates the inputs, starts the program and runs the warm-up.
    fn setup(args: &Args, oracle: &Self::Oracle) -> Result<Self, String>;
    /// One step of the real path: one or more verified operations.
    fn real_op(&mut self) -> Result<OpResults, String>;
    /// One operation replayed as layer calls.
    fn replay_op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String>;
    /// Peak RSS of the process that does the checking.
    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        peak_rss_mb(None)
    }
    /// The engine metrics gathered on the real path of a traced run.
    fn push_engine_metrics(&self, r: &mut RunReport);
    /// Processes an untraced run is split over. More than one when the
    /// end-to-end figures depend on per-process state, so that a run
    /// samples several processes rather than one.
    const PROCESSES: usize = 1;
}

/// Runs the workload on a thread of its own: the checker's jobs run on
/// engine worker threads, and the main thread's allocator arena behaves
/// differently (large per-manager tables are returned to the system and
/// faulted in again), which would skew the in-process figures.
pub fn run(args: &Args) -> Result<RunReport, String> {
    std::thread::scope(|s| s.spawn(|| run_here(args)).join())
        .map_err(|_| "the workload thread panicked".to_string())?
}

fn run_here(args: &Args) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "arbiter3" => drive::<Arbiter3>(args),
        "seitz-smv" => drive::<SeitzSmv>(args),
        "serve-mix" => drive::<serve_mix::ServeMix>(args),
        "batch-coi" => drive::<BatchCoi>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn drive<W: Workload>(args: &Args) -> Result<RunReport, String> {
    let mut r = RunReport::default();
    if !args.trace {
        let part = if W::PROCESSES > 1 && !args.part {
            measure_in_parts(args, W::PROCESSES, &mut r)?
        } else {
            measure::<W>(args, &mut r)?
        };
        if args.part {
            println!("{}", part.encode());
        }
        r.push("setup_s", part.setup_s, "s");
        r.push("ops_per_s", part.ok as f64 / part.wall_s.max(1e-9), "1/s");
        r.push("op_p50_ms", median(&part.latencies_ms), "ms");
        r.push("peak_rss_mb", part.rss_mb, "MiB");
        // Printed, not gated: only serve-mix has the samples for a steady
        // p99; see README.md.
        r.note("op_p99_ms", percentile(&part.latencies_ms, 0.99), "ms");
        r.note("op_samples", part.latencies_ms.len() as f64, "count");
        return Ok(r);
    }
    let oracle = W::oracle(args)?;
    let (mut w, _) = repeated_setup(1, || W::setup(args, &oracle))?;
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let real = timed_loop(secs(REAL_SHARE), &mut r, || w.real_op())?;
    let mut tr = Tracer::new(true);
    let mut c = Counters::default();
    // A fresh thread, like an engine worker: the workload thread's
    // allocator state after the real path is not what a job meets.
    let (replay, traced) = std::thread::scope(|s| {
        s.spawn(|| alternate(secs(1.0 - REAL_SHARE), &mut r, &mut w, &mut tr, &mut c))
            .join()
            .map_err(|_| "the replay thread panicked".to_string())?
    })?;
    layers::push_layer_metrics(&mut r, &tr, &c);
    w.push_engine_metrics(&mut r);
    r.push("trace.ops_per_s", traced.ops_per_s(), "1/s");
    r.push("trace.replay_ops_per_s", replay.ops_per_s(), "1/s");
    r.push("trace.untraced_ops_per_s", real.ops_per_s(), "1/s");
    r.push("trace.overhead_frac", 1.0 - traced.ops_per_s() / replay.ops_per_s(), "ratio");
    let path = args.out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(r)
}

/// The raw figures of an untraced run in one process.
#[derive(Debug, Default)]
struct Part {
    setup_s: f64,
    wall_s: f64,
    ok: u64,
    rss_mb: f64,
    latencies_ms: Vec<f64>,
}

impl Part {
    const TAG: &'static str = "#part";

    /// One line: tag, set-up, wall, verified ops, RSS, then latencies.
    fn encode(&self) -> String {
        let mut s =
            format!("{} {} {} {} {}", Part::TAG, self.setup_s, self.wall_s, self.ok, self.rss_mb);
        for l in &self.latencies_ms {
            s.push_str(&format!(" {l}"));
        }
        s
    }

    fn decode(line: &str) -> Option<Part> {
        let mut it = line.strip_prefix(Part::TAG)?.split_whitespace();
        let mut num = || it.next()?.parse::<f64>().ok();
        let (setup_s, wall_s, ok, rss_mb) = (num()?, num()?, num()? as u64, num()?);
        let mut latencies_ms = Vec::new();
        while let Some(l) = num() {
            latencies_ms.push(l);
        }
        Some(Part { setup_s, wall_s, ok, rss_mb, latencies_ms })
    }
}

/// Sets up [`SETUP_REPS`] times, then runs the real path for the whole
/// measured time.
fn measure<W: Workload>(args: &Args, r: &mut RunReport) -> Result<Part, String> {
    let oracle = W::oracle(args)?;
    let (mut w, setup_s) = repeated_setup(SETUP_REPS, || W::setup(args, &oracle))?;
    let t = timed_loop(Duration::from_secs_f64(args.seconds), r, || w.real_op())?;
    let rss_mb = w.peak_rss_mb()?;
    Ok(Part {
        setup_s,
        wall_s: t.wall.as_secs_f64(),
        ok: t.ok,
        rss_mb,
        latencies_ms: t.latencies_ms,
    })
}

/// Splits the measured time over `n` child processes of this binary, run
/// one after another, and pools their figures: operations and wall time
/// add up, latencies are pooled, and set-up time and peak RSS are the
/// median over the processes.
fn measure_in_parts(args: &Args, n: usize, r: &mut RunReport) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / n as f64).to_string(), "--trace", "0", "--part"])
            .arg("--smc")
            .arg(&args.smc)
            .arg("--models")
            .arg(&args.models)
            .arg("--out")
            .arg(&args.out);
        if args.wrong_verdict {
            cmd.arg("--wrong-verdict");
        }
        let out = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let part = stdout.lines().find_map(Part::decode).ok_or("a part printed no result")?;
        let result = stdout.lines().last().and_then(smc_obs::Json::parse);
        let count = |k: &str| result.as_ref().and_then(|j| j.get(k)?.as_u64()).unwrap_or(0);
        r.attempted += count("attempted");
        r.failed += count("failed");
        parts.push(part);
    }
    if r.failed > 0 {
        r.failures.push(format!("{} operations failed in the parts (see above)", r.failed));
    }
    let setups: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = parts.iter().map(|p| p.rss_mb).collect();
    Ok(Part {
        setup_s: median(&setups),
        wall_s: parts.iter().map(|p| p.wall_s).sum(),
        ok: parts.iter().map(|p| p.ok).sum(),
        rss_mb: median(&rss),
        latencies_ms: parts.into_iter().flat_map(|p| p.latencies_ms).collect(),
    })
}

/// Latencies and counts of one timed phase.
#[derive(Debug, Default)]
struct Timed {
    latencies_ms: Vec<f64>,
    ok: u64,
    wall: Duration,
}

impl Timed {
    /// Verified operations per second of wall time.
    fn ops_per_s(&self) -> f64 {
        self.ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Replays operations for `budget`, alternating untraced and traced
/// ones so that both meet the same machine and allocator state.
fn alternate<W: Workload>(
    budget: Duration,
    r: &mut RunReport,
    w: &mut W,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(Timed, Timed), String> {
    let (mut off, mut on) = (Timed::default(), Timed::default());
    let start = Instant::now();
    for traced in [false, true].into_iter().cycle() {
        let t = Instant::now();
        let ops = if traced {
            w.replay_op(tr, c)?
        } else {
            w.replay_op(&mut Tracer::new(false), &mut Counters::default())?
        };
        let phase = if traced { &mut on } else { &mut off };
        phase.wall += t.elapsed();
        for (lat, outcome) in ops {
            phase.latencies_ms.push(lat);
            phase.ok += outcome.is_ok() as u64;
            r.record(outcome);
        }
        if traced && start.elapsed() >= budget {
            break;
        }
    }
    Ok((off, on))
}

/// Runs `step` back to back until `budget` has passed (at least once).
fn timed_loop(
    budget: Duration,
    report: &mut RunReport,
    mut step: impl FnMut() -> Result<OpResults, String>,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let start = Instant::now();
    loop {
        for (lat, outcome) in step()? {
            t.latencies_ms.push(lat);
            t.ok += outcome.is_ok() as u64;
            report.record(outcome);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    t.wall = start.elapsed();
    Ok(t)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Reports the pool metrics as 0 for workloads that bypass `run_batch`.
pub fn push_no_pool(r: &mut RunReport) {
    r.push("engine.pool.busy_frac", 0.0, "ratio");
    r.push("engine.pool.job_wall_p50_us", 0.0, "us");
    r.push("engine.pool.steals", 0.0, "count");
}

/// Reports the server and cache metrics as 0 for workloads that bypass
/// the server.
fn push_no_server(r: &mut RunReport) {
    r.push("engine.cache.hit_ratio", 0.0, "ratio");
    r.push("engine.server.client_p99_us", 0.0, "us");
    r.push("engine.server.job_wall_p50_us", 0.0, "us");
    r.push("engine.server.overhead_p50_us", 0.0, "us");
    r.push("engine.server.rejected", 0.0, "count");
    r.push("engine.server.response_bytes", 0.0, "bytes");
}

/// Pool statistics gathered from `run_batch` results on the real path.
#[derive(Debug, Default)]
struct PoolStats {
    workers: usize,
    job_wall_us: Vec<f64>,
    busy_us: f64,
    batch_wall_us: f64,
    batches: u64,
    metrics: Option<Metrics>,
}

impl PoolStats {
    fn new(workers: usize, traced: bool) -> PoolStats {
        PoolStats { workers, metrics: traced.then(Metrics::new), ..PoolStats::default() }
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone().unwrap_or_else(Metrics::disabled)
    }

    fn record(&mut self, results: &[JobResult], wall: Duration) {
        self.batches += 1;
        self.batch_wall_us += wall.as_secs_f64() * 1e6;
        for j in results {
            self.job_wall_us.push(j.wall_us as f64);
            self.busy_us += j.wall_us as f64;
        }
    }

    fn push(&self, r: &mut RunReport) {
        let busy = self.busy_us / (self.workers as f64 * self.batch_wall_us).max(1e-9);
        let steals = self.metrics().counter("smc_batch_steals_total", &[]) as f64;
        r.push("engine.pool.busy_frac", busy, "ratio");
        r.push("engine.pool.job_wall_p50_us", median(&self.job_wall_us), "us");
        r.push("engine.pool.steals", steals / self.batches.max(1) as f64, "count");
    }
}

/// Per-spec verdicts and rendered trace shapes of an engine job.
fn job_answers(j: &JobResult) -> Result<Vec<(bool, Option<Shape>)>, String> {
    match &j.outcome {
        JobOutcome::Checked { specs } => Ok(specs
            .iter()
            .map(|s| {
                let shape =
                    s.trace.as_ref().map(|t| Shape { len: t.states.len(), loopback: t.loopback });
                (s.holds, shape)
            })
            .collect()),
        other => Err(format!("{}: job ended {}", j.name, other.label())),
    }
}

// ---------------------------------------------------------------------
// arbiter3: netlist build + reachability + check + counterexample.
// ---------------------------------------------------------------------

struct Arbiter3 {
    specs: Vec<Ctl>,
    verdicts: Vec<bool>,
}

impl Arbiter3 {
    fn op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String> {
        let t = Instant::now();
        let mut out = layers::arbiter_op(tr, c, ARBITER3_USERS, &self.specs)?;
        let lat = ms_since(t);
        Ok(vec![(lat, layers::validate_arbiter(&mut out, ARBITER3_STATES, &self.verdicts))])
    }
}

impl Workload for Arbiter3 {
    type Oracle = Vec<bool>;

    fn oracle(args: &Args) -> Result<Vec<bool>, String> {
        let mut v = ARBITER_VERDICTS.to_vec();
        if args.wrong_verdict {
            v[0] = !v[0];
        }
        Ok(v)
    }

    fn setup(_: &Args, verdicts: &Vec<bool>) -> Result<Arbiter3, String> {
        let specs = ARBITER_SPECS
            .iter()
            .map(|t| smc_logic::ctl::parse(t).map_err(|e| format!("{t}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        // Warm-up: one operation, answers not scored.
        let mut c = Counters::default();
        layers::arbiter_op(&mut Tracer::new(false), &mut c, ARBITER3_USERS, &specs)?;
        Ok(Arbiter3 { specs, verdicts: verdicts.clone() })
    }

    /// The real path is the layer sequence itself, untraced.
    fn real_op(&mut self) -> Result<OpResults, String> {
        self.op(&mut Tracer::new(false), &mut Counters::default())
    }

    fn replay_op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String> {
        self.op(tr, c)
    }

    fn push_engine_metrics(&self, r: &mut RunReport) {
        push_no_pool(r);
        push_no_server(r);
    }
}

// ---------------------------------------------------------------------
// seitz-smv: the 2-user arbiter as SMV text through one engine job with
// traces (the `smc check --trace` path).
// ---------------------------------------------------------------------

/// The 2-user arbiter as SMV text with the paper specs appended.
pub fn seitz_source() -> String {
    let mut s = smc_circuits::arbiter::arbiter(2).netlist.to_smv();
    for spec in ARBITER_SPECS {
        s.push_str(&format!("SPEC {spec}\n"));
    }
    s
}

struct SeitzSmv {
    case: Case,
    cfg: EngineConfig,
    pool: PoolStats,
}

impl Workload for SeitzSmv {
    type Oracle = Case;

    fn oracle(args: &Args) -> Result<Case, String> {
        let mut case = oracle::case("seitz-smv".into(), seitz_source(), ARBITER_VERDICTS.to_vec())?;
        if args.wrong_verdict {
            case.verdicts[0] = !case.verdicts[0];
        }
        Ok(case)
    }

    fn setup(args: &Args, case: &Case) -> Result<SeitzSmv, String> {
        let pool = PoolStats::new(1, args.trace);
        let cfg = EngineConfig {
            workers: 1,
            want_trace: true,
            use_cache: false,
            metrics: pool.metrics(),
            ..EngineConfig::default()
        };
        let mut case = case.clone();
        // The program receives the text generated here.
        case.source = seitz_source();
        let w = SeitzSmv { case, cfg, pool };
        w.run_job()?;
        Ok(w)
    }

    fn real_op(&mut self) -> Result<OpResults, String> {
        let t = Instant::now();
        let results = self.run_job()?;
        let wall = t.elapsed();
        self.pool.record(&results, wall);
        let lat = wall.as_secs_f64() * 1e3;
        Ok(vec![(lat, job_answers(&results[0]).and_then(|a| self.case.check_answers(&a)))])
    }

    fn replay_op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String> {
        let t = Instant::now();
        let mut out = layers::smv_op(tr, c, &self.case.source, Mode::Traces)?;
        let lat = ms_since(t);
        Ok(vec![(lat, layers::validate_smv(&mut out, &self.case, Mode::Traces))])
    }

    fn push_engine_metrics(&self, r: &mut RunReport) {
        self.pool.push(r);
        push_no_server(r);
    }
}

impl SeitzSmv {
    fn run_job(&self) -> Result<Vec<JobResult>, String> {
        let job = Job { name: "seitz-smv".into(), source: self.case.source.clone(), spec: None };
        let results = run_batch(vec![job], &self.cfg);
        if results.len() == 1 {
            Ok(results)
        } else {
            Err(format!("one job in, {} results out", results.len()))
        }
    }
}

// ---------------------------------------------------------------------
// batch-coi: a seeded manifest over the bundled models, two workers,
// cone-of-influence reduction on, no traces, cache off.
// ---------------------------------------------------------------------

/// Draws `n` case indices with the in-repo splitmix64 generator.
pub fn draw(seed: u64, n: usize, cases: usize) -> Vec<usize> {
    let mut rng = TestRng::for_case(seed);
    (0..n).map(|_| rng.below(cases as u64) as usize).collect()
}

/// The bundled cases, with the first expected verdict flipped under
/// `--wrong-verdict`.
pub fn bundled_oracle(args: &Args) -> Result<Vec<Case>, String> {
    let mut cases = oracle::bundled(&args.models)?;
    if args.wrong_verdict {
        cases[0].verdicts[0] = !cases[0].verdicts[0];
    }
    Ok(cases)
}

struct BatchCoi {
    cases: Vec<Case>,
    /// Case index of every manifest job, in manifest order.
    manifest: Vec<usize>,
    jobs: Vec<Job>,
    cfg: EngineConfig,
    pool: PoolStats,
    /// Next manifest job to replay.
    cursor: usize,
}

impl Workload for BatchCoi {
    type Oracle = Vec<Case>;

    /// A process's peak RSS and tail latency depend on whether its
    /// allocator maps each manager's computed table afresh or reuses
    /// memory it holds; that differs from process to process.
    const PROCESSES: usize = 5;

    fn oracle(args: &Args) -> Result<Vec<Case>, String> {
        bundled_oracle(args)
    }

    fn setup(args: &Args, cases: &Vec<Case>) -> Result<BatchCoi, String> {
        let manifest = draw(args.seed, MANIFEST_JOBS, cases.len());
        let jobs = manifest
            .iter()
            .enumerate()
            .map(|(i, &k)| Job {
                name: format!("{}#{i}", cases[k].name),
                source: cases[k].source.clone(),
                spec: None,
            })
            .collect();
        let pool = PoolStats::new(2, args.trace);
        let cfg = EngineConfig {
            workers: 2,
            want_trace: false,
            use_cache: false,
            coi: true,
            metrics: pool.metrics(),
            ..EngineConfig::default()
        };
        let w = BatchCoi { cases: cases.clone(), manifest, jobs, cfg, pool, cursor: 0 };
        // Warm-up: one manifest, answers not scored.
        run_batch(w.jobs.clone(), &w.cfg);
        Ok(w)
    }

    /// One manifest: every job is one operation, timed by the engine's
    /// own per-job `wall_us`.
    fn real_op(&mut self) -> Result<OpResults, String> {
        let t = Instant::now();
        let results = run_batch(self.jobs.clone(), &self.cfg);
        self.pool.record(&results, t.elapsed());
        if results.len() != self.manifest.len() {
            return Err(format!("{} jobs in, {} results out", self.manifest.len(), results.len()));
        }
        Ok(results
            .iter()
            .zip(&self.manifest)
            .map(|(j, &k)| {
                let verdicts = job_answers(j)
                    .map(|a| a.into_iter().map(|(h, _)| h).collect::<Vec<_>>())
                    .and_then(|v| self.cases[k].check_verdicts(&v));
                (j.wall_us as f64 / 1e3, verdicts)
            })
            .collect())
    }

    fn replay_op(&mut self, tr: &mut Tracer, c: &mut Counters) -> Result<OpResults, String> {
        let case = &self.cases[self.manifest[self.cursor]];
        self.cursor = (self.cursor + 1) % self.manifest.len();
        let t = Instant::now();
        let mut out = layers::smv_op(tr, c, &case.source, Mode::Coi)?;
        let lat = ms_since(t);
        Ok(vec![(lat, layers::validate_smv(&mut out, case, Mode::Coi))])
    }

    fn push_engine_metrics(&self, r: &mut RunReport) {
        self.pool.push(r);
        push_no_server(r);
    }
}
