//! The expected-answer table behind the correctness gate.
//!
//! - Verdicts of the bundled models come from the independent
//!   explicit-state checker (`smc-explicit`) over the enumerated
//!   reachable graph, with the model's fairness constraints.
//! - The arbiter verdicts are EXPERIMENTS.md EXP-1: liveness
//!   `AG (tr1 -> AF ta1)` fails, mutual exclusion `AG !(meo1 & meo2)`
//!   holds.
//! - Every trace the symbolic checker produces in process must replay
//!   on the model, start in an initial state, and (for a lasso) visit
//!   every fairness constraint on its cycle. Its shape (length,
//!   loopback) is what traces produced elsewhere — the engine, the
//!   server — must match.

use std::path::Path;

use smc_checker::{Checker, Trace};
use smc_explicit::ExplicitChecker;
use smc_kripke::SymbolicModel;

/// The two paper specifications checked on every arbiter.
pub const ARBITER_SPECS: [&str; 2] = ["AG (tr1 -> AF ta1)", "AG !(meo1 & meo2)"];
/// EXP-1: liveness fails, mutual exclusion holds.
pub const ARBITER_VERDICTS: [bool; 2] = [false, true];
/// Bundled files that are not checkable models: `lint_demo.smv` is the
/// lint fixture, whose transition relation is deliberately not total.
const NOT_MODELS: [&str; 1] = ["lint_demo.smv"];
/// Enumeration bound for the explicit checker.
const EXPLICIT_BOUND: usize = 1 << 16;

/// Length and loopback of a trace: what must agree between the
/// validated in-process trace and one rendered by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub len: usize,
    pub loopback: Option<usize>,
}

impl Shape {
    pub fn of(t: &Trace) -> Shape {
        Shape { len: t.len(), loopback: t.loopback }
    }
}

/// One model source with its expected answers, spec by spec.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub source: String,
    pub verdicts: Vec<bool>,
    /// Shape of the in-process trace per spec (`None` where the checker
    /// gives none: a holding spec without temporal operators).
    pub traces: Vec<Option<Shape>>,
}

impl Case {
    /// Compares a list of per-spec verdicts against the table.
    pub fn check_verdicts(&self, got: &[bool]) -> Result<(), String> {
        if got == self.verdicts.as_slice() {
            Ok(())
        } else {
            Err(format!("{}: verdicts {got:?}, expected {:?}", self.name, self.verdicts))
        }
    }

    /// Compares per-spec verdicts and trace shapes against the table.
    pub fn check_answers(&self, got: &[(bool, Option<Shape>)]) -> Result<(), String> {
        let verdicts: Vec<bool> = got.iter().map(|g| g.0).collect();
        self.check_verdicts(&verdicts)?;
        let shapes: Vec<Option<Shape>> = got.iter().map(|g| g.1).collect();
        if shapes != self.traces {
            return Err(format!("{}: traces {shapes:?}, expected {:?}", self.name, self.traces));
        }
        Ok(())
    }
}

/// The bundled models (sorted by file name, the lint fixture left out)
/// with explicit-checker verdicts and validated in-process trace shapes.
pub fn bundled(models: &Path) -> Result<Vec<Case>, String> {
    let mut names: Vec<String> = std::fs::read_dir(models)
        .map_err(|e| format!("{}: {e}", models.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".smv") && !NOT_MODELS.contains(&n.as_str()))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no models in {}", models.display()));
    }
    names
        .into_iter()
        .map(|name| {
            let source =
                std::fs::read_to_string(models.join(&name)).map_err(|e| format!("{name}: {e}"))?;
            let verdicts = explicit_verdicts(&name, &source)?;
            case(name, source, verdicts)
        })
        .collect()
}

/// A case whose verdicts are given; trace shapes come from a validated
/// in-process run, whose verdicts must agree with the given ones.
pub fn case(name: String, source: String, verdicts: Vec<bool>) -> Result<Case, String> {
    let mut compiled = smc_smv::compile(&source).map_err(|e| format!("{name}: {e}"))?;
    let formulas: Vec<_> = compiled.specs.iter().map(|s| s.formula.clone()).collect();
    let mut outcomes = Vec::new();
    {
        let mut checker = Checker::new(&mut compiled.model);
        for f in &formulas {
            let o = checker.check_with_trace(f).map_err(|e| format!("{name}: {e}"))?;
            outcomes.push((o.verdict.holds(), o.trace));
        }
    }
    let symbolic: Vec<bool> = outcomes.iter().map(|o| o.0).collect();
    if symbolic != verdicts {
        return Err(format!("{name}: symbolic verdicts {symbolic:?} disagree with {verdicts:?}"));
    }
    let mut traces = Vec::new();
    for (_, trace) in &outcomes {
        if let Some(t) = trace {
            validate_trace(&mut compiled.model, t).map_err(|e| format!("{name}: {e}"))?;
        }
        traces.push(trace.as_ref().map(Shape::of));
    }
    Ok(Case { name, source, verdicts, traces })
}

/// Verdicts of every `SPEC` from the explicit-state checker.
fn explicit_verdicts(name: &str, source: &str) -> Result<Vec<bool>, String> {
    let mut compiled = smc_smv::compile(source).map_err(|e| format!("{name}: {e}"))?;
    let (graph, _) =
        compiled.model.enumerate(EXPLICIT_BOUND).map_err(|e| format!("{name}: {e}"))?;
    let mut checker = ExplicitChecker::new(&graph);
    checker.auto_fairness();
    compiled
        .specs
        .iter()
        .map(|s| checker.check(&s.formula).map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// A trace must be a path of the model, start in an initial state, and,
/// when it is a lasso, visit every fairness constraint on its cycle.
pub fn validate_trace(model: &mut SymbolicModel, t: &Trace) -> Result<(), String> {
    let first = t.states.first().ok_or("empty trace")?;
    if !model.eval_state(model.init(), first) {
        return Err("trace does not start in an initial state".into());
    }
    if !t.is_path_of(model) {
        return Err("trace is not a path of the model".into());
    }
    if t.is_lasso() {
        for (k, &f) in model.fairness().iter().enumerate() {
            if !t.cycle_visits(model, f) {
                return Err(format!("lasso cycle misses fairness constraint {k}"));
            }
        }
    }
    Ok(())
}
