//! One operation replayed as the sequence of public layer calls, with a
//! span around each call and work counters read at the same boundaries:
//!
//! `parse` → `flatten` → `plan_coi` → `compile_module_with_options`
//! (one call per cone, with `allow_deadlock` so reachability is timed on
//! its own) → `reachable` / `check_total` → `Checker::fair` / `check` →
//! `counterexample` / `check_with_trace`.
//!
//! The arbiter operation runs through the same code in the untraced run
//! (with the span recorder disabled); the SMV operations are the
//! decomposed form of what an engine job does in one call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smc_bdd::{Bdd, BddManager};
use smc_checker::{Checker, Trace, WitnessStats};
use smc_kripke::SymbolicModel;
use smc_logic::Ctl;
use smc_obs::{Event, EventCtx, FixKind, Sink, Telemetry};
use smc_smv::{compile_module_with_options, flatten, parse, CompileOptions, CompiledModel, Module};

use crate::oracle::{validate_trace, Case, Shape};
use crate::spans::{Tracer, OP};
use crate::stats::{median, us};
use crate::RunReport;

/// Work counters summed over the operations of a traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub ops: u64,
    pub managers: u64,
    pub created_nodes: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub peak_nodes: u64,
    pub gc_runs: u64,
    pub reach_iters: u64,
    pub check_created: u64,
    pub traces: u64,
    pub trace_len: u64,
    pub cycle_len: u64,
    pub restarts: u64,
    pub witness_created: u64,
    pub coi_cones: u64,
    pub coi_fallbacks: u64,
    pub coi_created: u64,
}

impl Counters {
    fn add_manager(&mut self, m: &BddManager) {
        let s = m.stats();
        self.managers += 1;
        self.created_nodes += s.created_nodes;
        self.cache_lookups += s.cache_lookups;
        self.cache_hits += s.cache_hits;
        self.peak_nodes = self.peak_nodes.max(s.peak_nodes as u64);
        self.gc_runs += s.gc_runs;
    }

    fn add_trace(&mut self, t: &Trace) {
        self.traces += 1;
        self.trace_len += t.len() as u64;
        self.cycle_len += t.cycle_len() as u64;
    }
}

/// Counts reachability fixpoint iterations from the event stream — the
/// one count only the telemetry events expose.
struct ReachIters(Arc<AtomicU64>);

impl Sink for ReachIters {
    fn record(&mut self, _ctx: &EventCtx, event: &Event) {
        if matches!(event, Event::FixpointIter { phase: FixKind::Reach, .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// `reachable()` in a span; when tracing, a counting sink is attached
/// for the duration of the call only.
fn reach(tr: &mut Tracer, c: &mut Counters, model: &mut SymbolicModel) -> Result<Bdd, String> {
    let iters = Arc::new(AtomicU64::new(0));
    if tr.enabled() {
        let tele = Telemetry::new();
        tele.add_sink(Box::new(ReachIters(Arc::clone(&iters))));
        model.manager_mut().set_telemetry(tele);
    }
    let r = tr.span("kripke.reach", || model.reachable());
    if tr.enabled() {
        model.manager_mut().set_telemetry(Telemetry::disabled());
        c.reach_iters += iters.load(Ordering::Relaxed);
    }
    r.map_err(|e| e.to_string())
}

/// Runs one operation body inside the root span.
fn in_op<T>(
    tr: &mut Tracer,
    c: &mut Counters,
    body: impl FnOnce(&mut Tracer, &mut Counters) -> Result<T, String>,
) -> Result<T, String> {
    tr.next_op();
    c.ops += 1;
    let op = tr.begin(OP);
    let out = body(tr, c);
    tr.end(op);
    out
}

/// Result of one arbiter operation, kept for validation.
pub struct ArbiterOut {
    pub model: SymbolicModel,
    pub reach: Bdd,
    pub verdicts: Vec<bool>,
    pub counterexample: Trace,
}

/// Builds `arbiter(users)` from the netlist, computes reachability,
/// checks the paper specs and builds the liveness counterexample.
pub fn arbiter_op(
    tr: &mut Tracer,
    c: &mut Counters,
    users: usize,
    specs: &[Ctl],
) -> Result<ArbiterOut, String> {
    let out = in_op(tr, c, |tr, c| {
        let mut model = tr
            .span("circuits.build", || smc_circuits::arbiter::arbiter(users).build())
            .map_err(|e| e.to_string())?;
        let reach = reach(tr, c, &mut model)?;
        let mut checker = Checker::new(&mut model);
        let created = checker.model().manager().stats().created_nodes;
        tr.span("core.fair", || checker.fair()).map_err(|e| e.to_string())?;
        let mut verdicts = Vec::new();
        for f in specs {
            let v = tr.span("core.check", || checker.check(f)).map_err(|e| e.to_string())?;
            verdicts.push(v.holds());
        }
        let before_witness = checker.model().manager().stats().created_nodes;
        c.check_created += before_witness - created;
        let cex =
            tr.span("witness", || checker.counterexample(&specs[0])).map_err(|e| e.to_string())?;
        c.witness_created += checker.model().manager().stats().created_nodes - before_witness;
        if let Some(s) = checker.last_witness_stats() {
            c.restarts += s.restarts as u64;
        }
        Ok(ArbiterOut { model, reach, verdicts, counterexample: cex })
    })?;
    c.add_manager(out.model.manager());
    c.add_trace(&out.counterexample);
    Ok(out)
}

/// Checks an arbiter operation against the table: reachable-state
/// count, verdicts, and a valid counterexample.
pub fn validate_arbiter(
    out: &mut ArbiterOut,
    states: f64,
    verdicts: &[bool],
) -> Result<(), String> {
    let count = out.model.state_count(out.reach);
    if count != states {
        return Err(format!("{count} reachable states, expected {states}"));
    }
    if out.verdicts != verdicts {
        return Err(format!("verdicts {:?}, expected {verdicts:?}", out.verdicts));
    }
    validate_trace(&mut out.model, &out.counterexample)
}

/// What an SMV replay checks: every spec with its trace (the `smc check
/// --trace` path), or every spec on its cone without traces (the COI
/// batch path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Traces,
    Coi,
}

/// Result of one SMV operation, kept for validation: the compiled
/// models, and per spec its verdict and (model index, trace).
pub struct SmvOut {
    pub models: Vec<CompiledModel>,
    pub answers: Vec<(bool, Option<(usize, Trace)>)>,
}

/// Compiles one module (a whole model or one cone) with the totality
/// check left out, then runs reachability and the totality check as
/// their own calls.
fn compile_cone(
    tr: &mut Tracer,
    c: &mut Counters,
    module: &Module,
) -> Result<CompiledModel, String> {
    let opts = CompileOptions { allow_deadlock: true, record_branches: false };
    let mut m = tr
        .span("smv.compile", || {
            compile_module_with_options(module, None, Telemetry::disabled(), opts)
        })
        .map_err(|e| e.to_string())?;
    reach(tr, c, &mut m.model)?;
    tr.span("kripke.total", || m.model.check_total()).map_err(|e| e.to_string())?;
    Ok(m)
}

/// Checks `formulas` on one model under a fresh checker; with `traces`,
/// also builds each spec's witness or counterexample.
fn check_model(
    tr: &mut Tracer,
    c: &mut Counters,
    model: &mut SymbolicModel,
    formulas: &[Ctl],
    traces: bool,
) -> Result<Vec<(bool, Option<Trace>)>, String> {
    let mut checker = Checker::new(model);
    let created = checker.model().manager().stats().created_nodes;
    tr.span("core.fair", || checker.fair()).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for f in formulas {
        let v = tr.span("core.check", || checker.check(f)).map_err(|e| e.to_string())?;
        out.push((v.holds(), None));
    }
    let before_witness = checker.model().manager().stats().created_nodes;
    c.check_created += before_witness - created;
    if traces {
        let mut last: Option<WitnessStats> = None;
        for (f, slot) in formulas.iter().zip(out.iter_mut()) {
            let o =
                tr.span("witness", || checker.check_with_trace(f)).map_err(|e| e.to_string())?;
            let stats = checker.last_witness_stats();
            if stats.is_some() && stats != last {
                c.restarts += stats.map_or(0, |s| s.restarts as u64);
                last = stats;
            }
            if let Some(t) = &o.trace {
                c.add_trace(t);
            }
            slot.1 = o.trace;
        }
        c.witness_created += checker.model().manager().stats().created_nodes - before_witness;
    }
    Ok(out)
}

fn spec_formulas(m: &CompiledModel) -> Vec<Ctl> {
    m.specs.iter().map(|s| s.formula.clone()).collect()
}

/// Replays one SMV source.
pub fn smv_op(
    tr: &mut Tracer,
    c: &mut Counters,
    source: &str,
    mode: Mode,
) -> Result<SmvOut, String> {
    let out = in_op(tr, c, |tr, c| {
        let program = tr.span("smv.parse", || parse(source)).map_err(|e| e.to_string())?;
        let module = tr.span("smv.flatten", || flatten(&program)).map_err(|e| e.to_string())?;
        if mode == Mode::Coi {
            let plan = tr.span("analysis.plan_coi", || smc_analysis::plan_coi(&module));
            if !plan.specs.is_empty() && plan.any_sliced() {
                return coi_body(tr, c, &module, &plan);
            }
        }
        let mut compiled = compile_cone(tr, c, &module)?;
        let formulas = spec_formulas(&compiled);
        let answers = check_model(tr, c, &mut compiled.model, &formulas, mode == Mode::Traces)?;
        let answers = answers.into_iter().map(|(h, t)| (h, t.map(|t| (0, t)))).collect();
        Ok(SmvOut { models: vec![compiled], answers })
    })?;
    for m in &out.models {
        c.add_manager(m.model.manager());
    }
    Ok(out)
}

/// The COI path: each sliced spec on its own cone model, the rest on
/// one full model compiled once; every model compiled before any check.
fn coi_body(
    tr: &mut Tracer,
    c: &mut Counters,
    module: &Module,
    plan: &smc_analysis::CoiPlan,
) -> Result<SmvOut, String> {
    let mut models: Vec<CompiledModel> = Vec::new();
    let mut full: Option<usize> = None;
    let mut slots = Vec::new();
    for spec in &plan.specs {
        match &spec.module {
            Some(sliced) => {
                let m = compile_cone(tr, c, sliced)?;
                c.coi_cones += 1;
                models.push(m);
                slots.push((models.len() - 1, 0));
            }
            None => {
                c.coi_fallbacks += 1;
                let idx = match full {
                    Some(i) => i,
                    None => {
                        models.push(compile_cone(tr, c, module)?);
                        full = Some(models.len() - 1);
                        models.len() - 1
                    }
                };
                slots.push((idx, spec.index));
            }
        }
    }
    let mut answers = Vec::new();
    for (mi, si) in slots {
        let m = &mut models[mi];
        let formula = m.specs.get(si).ok_or("spec missing from cone")?.formula.clone();
        let r = check_model(tr, c, &mut m.model, &[formula], false)?;
        answers.push((r[0].0, None));
    }
    for (i, m) in models.iter().enumerate() {
        if Some(i) != full {
            c.coi_created += m.model.manager().stats().created_nodes;
        }
    }
    Ok(SmvOut { models, answers })
}

/// Checks an SMV operation against its case: every trace valid, and
/// verdicts (plus, with traces, trace shapes) as in the table.
pub fn validate_smv(out: &mut SmvOut, case: &Case, mode: Mode) -> Result<(), String> {
    let mut got = Vec::new();
    for (holds, trace) in &out.answers {
        let shape = match trace {
            Some((mi, t)) => {
                validate_trace(&mut out.models[*mi].model, t)
                    .map_err(|e| format!("{}: {e}", case.name))?;
                Some(Shape::of(t))
            }
            None => None,
        };
        got.push((*holds, shape));
    }
    match mode {
        Mode::Traces => case.check_answers(&got),
        Mode::Coi => case.check_verdicts(&got.iter().map(|g| g.0).collect::<Vec<_>>()),
    }
}

/// Median cost of one `BddManager::new()`, over 51 constructions.
pub fn bdd_setup_us() -> f64 {
    let samples: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            let m = BddManager::new();
            let d = us(t.elapsed());
            drop(m);
            d
        })
        .collect();
    median(&samples)
}

/// Pushes the per-layer metrics of the `bdd`, `smv`, `kripke`,
/// `circuits`, `core`, `witness` and `analysis` layers, per operation.
pub fn push_layer_metrics(r: &mut RunReport, tr: &Tracer, c: &Counters) {
    let totals = tr.totals();
    let ops = c.ops.max(1) as f64;
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| us(t.self_time)) / ops;
    let per_op = |v: u64| v as f64 / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    r.push("bdd.setup_us", bdd_setup_us(), "us");
    r.push("bdd.managers_per_op", per_op(c.managers), "count");
    r.push("bdd.created_nodes", per_op(c.created_nodes), "count");
    r.push("bdd.cache_lookups", per_op(c.cache_lookups), "count");
    r.push("bdd.cache_hit_ratio", ratio(c.cache_hits, c.cache_lookups), "ratio");
    r.push("bdd.peak_nodes", c.peak_nodes as f64, "count");
    r.push("bdd.gc_runs", per_op(c.gc_runs), "count");
    r.push("smv.parse_us", self_us("smv.parse"), "us/op");
    r.push("smv.flatten_us", self_us("smv.flatten"), "us/op");
    r.push("smv.compile_us", self_us("smv.compile"), "us/op");
    r.push("kripke.reach_us", self_us("kripke.reach"), "us/op");
    r.push("kripke.reach_iters", per_op(c.reach_iters), "count");
    r.push("kripke.total_us", self_us("kripke.total"), "us/op");
    r.push("circuits.build_us", self_us("circuits.build"), "us/op");
    r.push("core.check_us", self_us("core.check"), "us/op");
    r.push("core.fair_us", self_us("core.fair"), "us/op");
    r.push("core.check_created_nodes", per_op(c.check_created), "count");
    r.push("witness.us", self_us("witness"), "us/op");
    r.push("witness.trace_len", ratio(c.trace_len, c.traces), "count");
    r.push("witness.cycle_len", ratio(c.cycle_len, c.traces), "count");
    r.push("witness.restarts", per_op(c.restarts), "count");
    r.push("witness.created_nodes", per_op(c.witness_created), "count");
    r.push("analysis.coi_plan_us", self_us("analysis.plan_coi"), "us/op");
    r.push("analysis.coi_cones", per_op(c.coi_cones), "count");
    r.push("analysis.coi_fallbacks", per_op(c.coi_fallbacks), "count");
    r.push("analysis.coi_created_nodes", per_op(c.coi_created), "count");
    let op = totals.get(OP).copied().unwrap_or_default();
    let unattributed =
        if op.total.is_zero() { 0.0 } else { op.self_time.as_secs_f64() / op.total.as_secs_f64() };
    r.push("trace.unattributed_frac", unattributed, "ratio");
}
