//! Job descriptions, per-job execution, and per-job results.
//!
//! [`run_job`] is the one checking path: a pool worker runs it per job,
//! and `smc check` / `smc spec` run it once on the main thread. It plans
//! cone-of-influence slices when asked, compiles (or warm-starts) the
//! model on a fresh manager under a fresh per-job governor, checks every
//! requested spec, renders traces, and maps any governor trip or input
//! problem to a structured [`JobOutcome`] — a job never panics the pool,
//! never exits the process and never writes to stderr.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_analysis::Diagnostic;
use smc_bdd::{BddError, Budget, CancelToken};
use smc_checker::{CheckError, Checker, CycleStrategy, PartialProgress, Phase};
use smc_kripke::{KripkeError, SymbolicModel};
use smc_logic::Ctl;
use smc_obs::{Event, EventCtx, FixKind, Metrics, Recorder, Sink, Telemetry};
use smc_smv::{
    compile_module_with_options, flatten, parse, CompileOptions, CompiledModel, Module, SmvError,
};

use crate::cache::{fnv_update, source_key, Artifact, ArtifactCache, DEFAULT_CACHE_CAP};

/// Derives the deterministic trace id a job gets when the client did
/// not supply one: an FNV-1a fold of the sequence number over the
/// source content key, rendered as 16 hex digits. Depends only on
/// (source, seq) — two runs of the same manifest assign identical ids,
/// whatever the worker count or schedule.
pub fn derive_trace_id(source_key: u64, seq: u64) -> String {
    format!("{:016x}", fnv_update(source_key, &seq.to_le_bytes()))
}

/// One unit of work: a model source and what to check in it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (the model path, in CLI use).
    pub name: String,
    /// The SMV source text.
    pub source: String,
    /// Ad-hoc CTL formula; `None` checks the model's `SPEC` sections.
    pub spec: Option<String>,
}

/// Pool-wide configuration. One instance is shared (by reference)
/// across all workers; per-job state (budgets, managers, telemetry) is
/// built fresh inside each job.
#[derive(Debug)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Produce a counterexample/witness trace per spec.
    pub want_trace: bool,
    /// Enable the warm-start artifact cache.
    pub use_cache: bool,
    /// Per-job wall-clock budget. The clock starts when the job starts
    /// executing, not when the batch is submitted — a queued job is not
    /// burning its own deadline.
    pub timeout: Option<Duration>,
    /// Per-job live-node bound.
    pub node_limit: Option<usize>,
    /// Per-job fixpoint iteration cap.
    pub max_iters: Option<u64>,
    /// Cone-of-influence reduction: traceless jobs check each `SPEC`
    /// (or the ad-hoc formula) on its sliced model when the planner
    /// finds a sound slice; verdicts are unchanged. COI jobs bypass the
    /// warm-start cache (its artifacts hold full-model reachable sets)
    /// and carry the planner's report lines in [`JobResult::coi`].
    pub coi: bool,
    /// Fleet-wide cancellation: observed by every job's governor.
    pub cancel: Option<CancelToken>,
    /// Witness cycle-closure strategy (as `smc check --strategy`).
    pub strategy: CycleStrategy,
    /// Shared registry for fleet-level series; disabled is free.
    pub metrics: Metrics,
    /// Persistence directory for the warm-start cache; `None` keeps it
    /// memory-only (artifacts die with the process).
    pub cache_dir: Option<std::path::PathBuf>,
    /// LRU capacity (distinct artifacts) of the warm-start cache.
    pub cache_cap: usize,
    /// Flight-recorder ring capacity (events) attached to every job;
    /// `0` disables recording. The recorder is an ordinary telemetry
    /// sink, so it cannot perturb verdicts (pinned by the purity tests).
    pub recorder_cap: usize,
    /// Attach a post-run heap brief (live nodes, widest level) to every
    /// job result (`smc batch --heap`). One `O(levels)` read-only fold
    /// per job after its verdicts are in; off by default.
    pub heap: bool,
    /// Deterministic fault plan injected into every job's manager after
    /// compile — the recovery-drill hook for the service tests. Only
    /// compiled for tests or under the `fault-injection` feature.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fault_plan: Option<smc_bdd::FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            want_trace: false,
            use_cache: true,
            timeout: None,
            node_limit: None,
            max_iters: None,
            coi: false,
            cancel: None,
            strategy: CycleStrategy::default(),
            metrics: Metrics::disabled(),
            cache_dir: None,
            cache_cap: DEFAULT_CACHE_CAP,
            recorder_cap: 0,
            heap: false,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_plan: None,
        }
    }
}

impl EngineConfig {
    /// A fresh per-job budget, deadline clock starting now. `None` when
    /// nothing is limited and no cancel token is installed (ungoverned
    /// jobs pay zero governor overhead, as in the serial CLI).
    pub(crate) fn job_budget(&self) -> Option<Budget> {
        if self.timeout.is_none()
            && self.node_limit.is_none()
            && self.max_iters.is_none()
            && self.cancel.is_none()
        {
            return None;
        }
        let mut budget = Budget::default();
        if let Some(t) = self.timeout {
            budget = budget.with_timeout(t);
        }
        if let Some(n) = self.node_limit {
            budget = budget.with_node_limit(n);
        }
        if let Some(n) = self.max_iters {
            budget = budget.with_max_iterations(n);
        }
        if let Some(tok) = &self.cancel {
            budget = budget.with_cancel_token(tok);
        }
        Some(budget)
    }

    /// Builds the warm-start cache this config asks for: disk-backed
    /// when `cache_dir` is set (degrading silently to memory-only if
    /// the directory cannot be created — the cache is an optimization),
    /// memory-only otherwise.
    pub(crate) fn build_cache(&self) -> ArtifactCache {
        match &self.cache_dir {
            Some(dir) => ArtifactCache::with_dir(dir, self.cache_cap, self.metrics.clone())
                .unwrap_or_else(|_| ArtifactCache::with_capacity(self.cache_cap)),
            None => ArtifactCache::with_capacity(self.cache_cap),
        }
    }
}

/// A rendered counterexample or witness: states already decoded to
/// text, so nothing model- or manager-shaped leaves the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedTrace {
    /// One rendered assignment line per state, in execution order.
    pub states: Vec<String>,
    /// Index where the cycle begins, if the trace is a lasso.
    pub loopback: Option<usize>,
}

/// The verdict (and optional trace) of one checked spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecResult {
    /// The formula, rendered.
    pub formula: String,
    /// Does it hold?
    pub holds: bool,
    /// Counterexample (failing spec) or witness (holding spec), when
    /// the batch ran with traces on.
    pub trace: Option<RenderedTrace>,
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every requested spec was decided.
    Checked {
        /// Per-spec verdicts, in spec order.
        specs: Vec<SpecResult>,
    },
    /// The model compiled but has no `SPEC` sections (and no ad-hoc
    /// formula was given) — vacuously fine, as in `smc check`.
    NoSpecs,
    /// Parse/semantic/model input problems (the exit-2 class).
    InputError {
        /// One-line rendering (what `smc batch` and `smc serve` print).
        message: String,
        /// The structured diagnostic (stable code, source span) when the
        /// problem is in the model source; `smc check` renders it with a
        /// source snippet.
        diagnostic: Option<Diagnostic>,
    },
    /// This job's governor tripped (the exit-3 class). The batch keeps
    /// running; only this job is undecided.
    Exhausted {
        /// Pipeline stage that was running.
        phase: String,
        /// Which limit tripped.
        reason: String,
        /// Specs decided before the trip, in spec order.
        decided: Vec<SpecResult>,
        /// What the tripped operation had achieved (all zero for a trip
        /// during the load-time reachability check).
        partial: PartialProgress,
    },
}

impl JobOutcome {
    /// The CLI exit-code class this outcome maps to (worst-of over the
    /// batch: 3 exhausted > 2 input error > 1 some spec fails > 0).
    pub fn exit_class(&self) -> u8 {
        match self {
            JobOutcome::Checked { specs } => {
                if specs.iter().all(|s| s.holds) {
                    0
                } else {
                    1
                }
            }
            JobOutcome::NoSpecs => 0,
            JobOutcome::InputError { .. } => 2,
            JobOutcome::Exhausted { .. } => 3,
        }
    }

    /// Stable label for the fleet metrics (`smc_batch_jobs_total`).
    pub fn label(&self) -> &'static str {
        ["pass", "fail", "input_error", "exhausted"][usize::from(self.exit_class())]
    }
}

/// The post-run heap brief a job carries when the engine runs with
/// [`EngineConfig::heap`]: the same numbers an
/// [`Event::HeapSample`](smc_obs::Event::HeapSample) reports, taken from
/// the job's manager after its last verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHeap {
    /// Live BDD nodes (terminals included) at job end.
    pub live_nodes: u64,
    /// Level holding the most nodes.
    pub widest_level: u64,
    /// Node count of that level.
    pub widest_width: u64,
}

/// Everything the pool reports back for one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Position of the job in the submitted batch (results are returned
    /// sorted by this, whatever order workers finished in).
    pub index: usize,
    /// The job's display name.
    pub name: String,
    /// The job's trace id: client-supplied in serve use, derived from
    /// the source key + batch index otherwise. The correlation key tying
    /// this result line to trace events, dumps and status snapshots.
    pub trace_id: String,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Wall time of the job body, microseconds.
    pub wall_us: u64,
    /// Did the warm-start cache supply the compiled artifact?
    pub cache_hit: bool,
    /// Reachability fixpoint iterations this job ran. Zero on a warm
    /// start — the acceptance-level observable that the cache skipped
    /// the fixpoint rather than merely speeding it up.
    pub reach_iters: u64,
    /// The job's manager's computed-table lookups (work counter, gated
    /// bit-exact in the determinism tests).
    pub cache_lookups: u64,
    /// The job's manager's total created nodes (work counter, ditto).
    pub created_nodes: u64,
    /// Post-run heap brief; `None` unless the engine ran with
    /// [`EngineConfig::heap`]. A COI job spread over several managers
    /// reports the one its last verdict (or its budget trip) came from.
    pub heap: Option<JobHeap>,
    /// Cone-of-influence report lines whenever the planner ran (a
    /// traceless [`EngineConfig::coi`] job whose source parses): one per
    /// `SPEC`, or one for an ad-hoc formula that slices. A job that fell
    /// back to the full model keeps the lines that explain why.
    pub coi: Vec<String>,
}

/// Worst-of exit code over a batch (3 exhausted > 2 input error > 1
/// failing spec > 0 all hold) — the process exit `smc batch` maps to.
pub fn worst_exit(results: &[JobResult]) -> u8 {
    results.iter().map(|r| r.outcome.exit_class()).max().unwrap_or(0)
}

/// Counts reachability fixpoint iterations from the event stream: the
/// warm-start acceptance check ("a cache hit runs zero `Reach`
/// iterations") reads this instead of trusting the cache's own word.
struct ReachCounter(Arc<AtomicU64>);

impl Sink for ReachCounter {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        if matches!(event, Event::FixpointIter { phase: FixKind::Reach, .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Maps a compile failure to the job outcome the serial CLI would have
/// exited with: budget trips during load-time reachability are the
/// exit-3 class, everything else is an input diagnostic.
fn compile_failure(e: SmvError) -> JobOutcome {
    match e {
        SmvError::Kripke(KripkeError::Bdd(BddError::ResourceExhausted(reason))) => {
            JobOutcome::Exhausted {
                phase: Phase::Reachability.to_string(),
                reason: reason.to_string(),
                decided: Vec::new(),
                partial: PartialProgress::default(),
            }
        }
        other => JobOutcome::InputError {
            message: other.to_string(),
            diagnostic: Some(smc_analysis::smv_diag(&other)),
        },
    }
}

/// Compiles the job's model — warm from the cache when possible, cold
/// (publishing the artifact) otherwise. Returns the model and whether
/// the cache supplied it.
fn compile_job(
    job: &Job,
    budget: Option<Budget>,
    tele: Telemetry,
    cache: Option<&ArtifactCache>,
) -> Result<(CompiledModel, bool), JobOutcome> {
    let Some(cache) = cache else {
        // Nothing to publish: compile straight from source, inside the
        // one `Compile` span a profile shows for parse + flatten + build.
        return smc_smv::compile_with(&job.source, budget, tele)
            .map(|compiled| (compiled, false))
            .map_err(compile_failure);
    };
    let key = source_key(&job.source);
    if let Some(artifact) = cache.get(key) {
        // Warm start: parse and flatten are already done, and skipping
        // the totality check (sound — the artifact only exists because
        // a cold compile of this exact source passed it) is what skips
        // the load-time reachability fixpoint.
        let opts = CompileOptions { allow_deadlock: true, record_branches: false };
        let mut compiled = compile_module_with_options(&artifact.module, budget, tele, opts)
            .map_err(compile_failure)?;
        match compiled.model.manager_mut().read_bdds_into(&artifact.reach[..]) {
            Ok(roots) if roots.len() == 1 => {
                compiled.model.set_reachable(roots[0]);
                return Ok((compiled, true));
            }
            // A corrupted or malformed artifact fails the checksum and
            // is treated as a miss: the fixpoint recomputes the set
            // lazily (governed) instead of trusting bad bytes.
            _ => return Ok((compiled, false)),
        }
    }
    // Cold: full pipeline, totality check included (it is what computes
    // the reachable set the artifact then captures).
    let program = parse(&job.source).map_err(compile_failure)?;
    let module: Module = flatten(&program).map_err(compile_failure)?;
    let compiled = compile_module_with_options(&module, budget, tele, CompileOptions::default())
        .map_err(compile_failure)?;
    if let Some(reach) = compiled.model.cached_reachable() {
        let mut buf = Vec::new();
        // Serialization failure (it writes to memory, so only an
        // internal invariant could fail) just skips publication.
        if compiled.model.manager().write_bdds(&mut buf, &[reach]).is_ok() {
            cache.insert(key, Artifact { module, source: job.source.clone(), reach: buf });
        }
    }
    Ok((compiled, false))
}

/// Request-scoped execution context handed to the job body: the trace
/// id stamped into every telemetry event, the worker slot the job runs
/// on, the flight recorder to attach (when recording is on), the
/// telemetry handle the job's events go to, and the job's budget and
/// trace policy (the server layers per-request quotas over the pool's).
pub(crate) struct JobCtx<'a> {
    /// Trace id stamped into every event and echoed in the result.
    pub trace_id: &'a str,
    /// Worker slot the job runs on.
    pub worker: u64,
    /// Flight recorder to attach, when recording is on.
    pub recorder: Option<&'a Recorder>,
    /// Where the job's events go.
    pub tele: Telemetry,
    /// The job's governor budget; `None` runs ungoverned.
    pub budget: Option<Budget>,
    /// Produce a counterexample/witness trace per spec.
    pub want_trace: bool,
}

/// Runs one job start to finish on the calling thread, under the
/// config's per-job budget and trace policy: the body a pool worker
/// runs, and the whole of `smc check` / `smc spec` (no pool, no cache).
/// The trace id is derived from the source content key and `index`, so
/// it is schedule-independent; it and `worker` are stamped into every
/// event sent to `tele`.
///
/// `visit` is called once for every BDD manager the job built, after
/// its last verdict; the first call sees the manager the last verdict
/// (or the budget trip) came from. A job whose compile failed built no
/// manager and visits nothing.
pub fn run_job(
    index: usize,
    job: &Job,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
    worker: u64,
    tele: Telemetry,
    visit: &mut dyn FnMut(&SymbolicModel),
) -> JobResult {
    let trace_id = derive_trace_id(source_key(&job.source), index as u64);
    let recorder = (cfg.recorder_cap > 0).then(|| Recorder::new(cfg.recorder_cap));
    let ctx = JobCtx {
        trace_id: &trace_id,
        worker,
        recorder: recorder.as_ref(),
        tele,
        budget: cfg.job_budget(),
        want_trace: cfg.want_trace,
    };
    run_job_with(index, job, cfg, cache, ctx, visit)
}

/// [`run_job`] with an explicit request context — the entry point the
/// server uses to layer per-request quotas, a per-request cancel token
/// and its per-slot flight recorder over the pool configuration.
pub(crate) fn run_job_with(
    index: usize,
    job: &Job,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
    ctx: JobCtx<'_>,
    visit: &mut dyn FnMut(&SymbolicModel),
) -> JobResult {
    let start = Instant::now();
    let reach_iters = Arc::new(AtomicU64::new(0));
    let tele = ctx.tele;
    tele.set_trace(ctx.trace_id, ctx.worker);
    tele.add_sink(Box::new(ReachCounter(Arc::clone(&reach_iters))));
    let recorder_before = ctx.recorder.map(|r| (r.captured(), r.dropped()));
    if let Some(rec) = ctx.recorder {
        tele.add_sink(Box::new(rec.clone()));
    }

    // Work counters sum over every manager the job built; the heap brief
    // is the first one visited (where the last verdict came from).
    let (mut cache_lookups, mut created_nodes, mut heap) = (0u64, 0u64, None);
    let mut visit_all = |model: &SymbolicModel| {
        let stats = model.manager().stats();
        cache_lookups += stats.cache_lookups;
        created_nodes += stats.created_nodes;
        if cfg.heap && heap.is_none() {
            if let Event::HeapSample { live_nodes, widest_level, widest_width, .. } =
                model.manager().heap_sample()
            {
                heap = Some(JobHeap { live_nodes, widest_level, widest_width });
            }
        }
        visit(model);
    };
    let (outcome, cache_hit, coi) =
        check_job(job, cfg, cache, ctx.budget, ctx.want_trace, &tele, &mut visit_all);
    // Fold this job's recorder traffic into the fleet series (deltas,
    // so a server-owned recorder shared across jobs counts each once).
    if let (Some(rec), Some((cap0, drop0))) = (ctx.recorder, recorder_before) {
        cfg.metrics.counter_add(
            "smc_recorder_events_total",
            &[],
            rec.captured().saturating_sub(cap0),
        );
        cfg.metrics.counter_add(
            "smc_recorder_dropped_total",
            &[],
            rec.dropped().saturating_sub(drop0),
        );
    }
    JobResult {
        index,
        name: job.name.clone(),
        trace_id: ctx.trace_id.to_string(),
        outcome,
        wall_us: start.elapsed().as_micros() as u64,
        cache_hit,
        reach_iters: reach_iters.load(Ordering::Relaxed),
        cache_lookups,
        created_nodes,
        heap,
        coi,
    }
}

/// The job body: the cone-of-influence path when it applies (traces
/// render every variable, so a traced job never slices), else the full
/// model, warm from the cache when possible. Returns the outcome,
/// whether the cache supplied the model, and the COI report lines.
fn check_job(
    job: &Job,
    cfg: &EngineConfig,
    cache: Option<&ArtifactCache>,
    budget: Option<Budget>,
    want_trace: bool,
    tele: &Telemetry,
    visit: &mut dyn FnMut(&SymbolicModel),
) -> (JobOutcome, bool, Vec<String>) {
    let adhoc = match job.spec.as_deref().map(smc_logic::ctl::parse).transpose() {
        Ok(adhoc) => adhoc,
        Err(e) => {
            let message = format!("bad formula {:?}: {e}", job.spec.as_deref().unwrap_or(""));
            return (JobOutcome::InputError { message, diagnostic: None }, false, Vec::new());
        }
    };
    let mut coi = Vec::new();
    if cfg.coi && !want_trace {
        let (report, planned) = plan_coi_job(&job.source, adhoc.as_ref(), budget.clone(), tele);
        coi = report;
        if let Some((mut models, tasks)) = planned {
            let outcome = check_tasks(&mut models, &tasks, cfg.strategy, false, visit);
            return (outcome, false, coi);
        }
    }
    let (mut compiled, hit) = match compile_job(job, budget, tele.clone(), cache) {
        Ok(compiled) => compiled,
        Err(outcome) => return (outcome, false, coi),
    };
    #[cfg(any(test, feature = "fault-injection"))]
    if let Some(plan) = &cfg.fault_plan {
        compiled.model.manager_mut().inject_faults(plan.clone());
    }
    let formulas = match adhoc {
        Some(formula) => vec![formula],
        None => compiled.specs.iter().map(|s| s.formula.clone()).collect(),
    };
    let tasks: Vec<Task> = formulas
        .into_iter()
        .map(|formula| Task { model: 0, rendered: formula.to_string(), formula })
        .collect();
    let outcome =
        check_tasks(std::slice::from_mut(&mut compiled), &tasks, cfg.strategy, want_trace, visit);
    (outcome, hit, coi)
}

/// One formula of a job and the compiled model (an index into the job's
/// models) it is checked on.
struct Task {
    model: usize,
    formula: Ctl,
    /// The formula as the unsliced run renders it.
    rendered: String,
}

/// The compiled models of a COI plan and the tasks checked on them.
type Planned = (Vec<CompiledModel>, Vec<Task>);

/// Plans cone-of-influence checking: each `SPEC` (or the ad-hoc
/// formula) on its sliced model, whole-model fallback specs on one
/// shared full compile. Returns the planner's report lines (empty when
/// the source does not parse, or an ad-hoc formula has nothing to
/// slice) and, when something slices and everything compiles, the
/// models and tasks to check. Everything compiles before the first
/// verdict, so a failing slice can still fall back to the ordinary
/// full-model path, which owns the input diagnostics.
fn plan_coi_job(
    source: &str,
    adhoc: Option<&Ctl>,
    budget: Option<Budget>,
    tele: &Telemetry,
) -> (Vec<String>, Option<Planned>) {
    let Some(module) = parse(source).ok().and_then(|p| flatten(&p).ok()) else {
        return (Vec::new(), None);
    };
    let compile = |m: &Module| {
        compile_module_with_options(m, budget.clone(), tele.clone(), CompileOptions::default()).ok()
    };
    if let Some(formula) = adhoc {
        let atoms: Vec<String> =
            smc_logic::atom_occurrences(formula).into_iter().map(|a| a.name).collect();
        let Some((sliced, report)) = smc_analysis::plan_adhoc_coi(&module, &atoms) else {
            return (Vec::new(), None);
        };
        let task = Task { model: 0, formula: formula.clone(), rendered: formula.to_string() };
        return (vec![report], compile(&sliced).map(|c| (vec![c], vec![task])));
    }
    let plan = smc_analysis::plan_coi(&module);
    let report = plan.specs.iter().map(|s| s.report.clone()).collect();
    if !plan.any_sliced() {
        return (report, None);
    }
    let mut models = Vec::new();
    let mut full = None;
    let mut tasks = Vec::with_capacity(plan.specs.len());
    for spec in &plan.specs {
        let (model, spec_at) = match &spec.module {
            Some(sliced) => {
                let Some(c) = compile(sliced) else { return (report, None) };
                models.push(c);
                (models.len() - 1, 0)
            }
            None => match full {
                Some(at) => (at, spec.index),
                None => {
                    let Some(c) = compile(&module) else { return (report, None) };
                    models.push(c);
                    (*full.insert(models.len() - 1), spec.index)
                }
            },
        };
        let Some(compiled) = models[model].specs.get(spec_at) else { return (report, None) };
        let formula = compiled.formula.clone();
        // A sliced model carries exactly one SPEC, so the compiler labels
        // its synthesised atoms `__spec0_*`; restore the spec's original
        // index so the rendered formula matches the unsliced run exactly.
        let mut rendered = formula.to_string();
        if spec.module.is_some() && spec.index != 0 {
            rendered = rendered.replace("__spec0_", &format!("__spec{}_", spec.index));
        }
        tasks.push(Task { model, formula, rendered });
    }
    (report, Some((models, tasks)))
}

/// Checks every task on its model — one checker per model, so specs
/// sharing a model share its memo, exactly as one serial run does — and
/// renders traces after the checkers release their models (states
/// decode to text here, where the model's tables live). Every trace is
/// [validated](smc_checker::Trace::validate) against its model first; a
/// rejected one stops the loop with its `WitnessConstruction` error, as
/// a failed witness construction does. A budget trip stops the loop but
/// keeps the verdicts decided so far. Then visits every model, the one
/// the last verdict (or the trip) came from first.
fn check_tasks(
    models: &mut [CompiledModel],
    tasks: &[Task],
    strategy: CycleStrategy,
    want_trace: bool,
    visit: &mut dyn FnMut(&SymbolicModel),
) -> JobOutcome {
    let mut raw = Vec::with_capacity(tasks.len());
    let mut stopped = None;
    {
        let mut checkers: Vec<Checker<'_>> =
            models.iter_mut().map(|c| Checker::new(&mut c.model).with_strategy(strategy)).collect();
        for task in tasks {
            let checker = &mut checkers[task.model];
            let outcome = if want_trace {
                checker.check_with_trace(&task.formula).and_then(|o| {
                    if let Some(trace) = &o.trace {
                        trace.validate(checker.model())?;
                    }
                    Ok((o.verdict.holds(), o.trace))
                })
            } else {
                checker.check(&task.formula).map(|v| (v.holds(), None))
            };
            match outcome {
                Ok(r) => raw.push(r),
                Err(e) => {
                    stopped = Some(e);
                    break;
                }
            }
        }
    }
    let decided: Vec<SpecResult> = raw
        .into_iter()
        .zip(tasks)
        .map(|((holds, trace), task)| SpecResult {
            formula: task.rendered.clone(),
            holds,
            trace: trace.map(|t| RenderedTrace {
                states: t.states.iter().map(|s| models[task.model].render_state(s)).collect(),
                loopback: t.loopback,
            }),
        })
        .collect();
    // Task indices are spent: move the last-used model to the front.
    models.swap(0, tasks.get(decided.len()).or(tasks.last()).map_or(0, |t| t.model));
    for m in models.iter() {
        visit(&m.model);
    }
    match stopped {
        None if tasks.is_empty() => JobOutcome::NoSpecs,
        None => JobOutcome::Checked { specs: decided },
        Some(CheckError::ResourceExhausted { phase, reason, partial }) => JobOutcome::Exhausted {
            phase: phase.to_string(),
            reason: reason.to_string(),
            decided,
            partial,
        },
        Some(e) => JobOutcome::InputError { message: e.to_string(), diagnostic: None },
    }
}
