//! The user-facing checker: `Check`/`CheckFair` dispatch (Sections 4–5)
//! and recursive witness/counterexample explanation (Section 6).

use std::collections::HashMap;

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};
use smc_logic::ctlstar::StateFormula;
use smc_logic::Ctl;

use crate::error::CheckError;
use crate::fair::{fair_eg_with_rings, FairRings};
use crate::fairness_class::{check_efairness, witness_efairness, FairnessConjunct, ResolvedSide};
use crate::fixpoint::{check_eu, check_ex};
use crate::govern::{self, Progress};
use crate::obs;
use crate::witness::{
    splice, witness_eg_fair, witness_eg_fair_with_rings, witness_eu, witness_ex, CycleStrategy,
    Trace, WitnessStats,
};
use crate::Phase;
use smc_obs::SpanKind;

/// The result of checking one specification.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The formula as given by the caller.
    pub formula: Ctl,
    /// The BDD of all states satisfying the formula (under the model's
    /// fairness constraints).
    pub states: Bdd,
    /// Does every initial state satisfy the formula?
    holds: bool,
}

impl Verdict {
    /// Does the specification hold (in every initial state)?
    pub fn holds(&self) -> bool {
        self.holds
    }
}

/// A verdict together with its explanatory trace: a *witness* when an
/// existentially quantified specification holds, a *counterexample* when
/// a universally quantified one fails.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// The demonstration trace, when one is meaningful.
    pub trace: Option<Trace>,
}

/// Symbolic CTL model checker with fairness constraints and the witness
/// generator of Clarke–Grumberg–McMillan–Zhao.
///
/// Borrows the model mutably (all BDD work happens in the model's
/// manager). Sub-formula results are memoized per checker instance; a
/// fair-`EG` entry (and the `fair` set) keeps the rings of its last outer
/// iteration as well, so a witness walks the rings the check built
/// (Section 6) instead of recomputing the nested fixpoint.
///
/// # Examples
///
/// ```
/// use smc_kripke::SymbolicModelBuilder;
/// use smc_logic::ctl;
/// use smc_checker::Checker;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SymbolicModelBuilder::new();
/// let x = b.bool_var("x")?;
/// b.init_zero();
/// b.next_fn(x, |m, cur| m.not(cur[0]));
/// let mut model = b.build()?;
/// let mut checker = Checker::new(&mut model);
/// let verdict = checker.check(&ctl::parse("AG (AF x)")?)?;
/// assert!(verdict.holds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Checker<'m> {
    model: &'m mut SymbolicModel,
    strategy: CycleStrategy,
    /// `fair` and its rings (empty without fairness constraints).
    fair: Option<(Bdd, FairRings)>,
    /// State set per sub-formula, with the saved rings of a fair `EG`
    /// checked under fairness constraints (empty for every other entry).
    cache: HashMap<Ctl, (Bdd, FairRings)>,
    last_stats: Option<WitnessStats>,
    pin_depth: u32,
}

impl<'m> Checker<'m> {
    /// Creates a checker over a model, using the default
    /// [`CycleStrategy::Restart`].
    pub fn new(model: &'m mut SymbolicModel) -> Checker<'m> {
        Checker {
            model,
            strategy: CycleStrategy::default(),
            fair: None,
            cache: HashMap::new(),
            last_stats: None,
            pin_depth: 0,
        }
    }

    /// Runs a public entry point with the memo pinned: every cached state
    /// set (and the fair set) is protected so the governor's degradation
    /// ladder — which may GC mid-fixpoint, keeping only roots and
    /// protected nodes — cannot invalidate a memoized handle. Entries
    /// inserted *during* the call are protected at insert time (see
    /// `check_enf`); the outermost exit releases everything, restoring
    /// the unpinned between-calls state. Re-entrant: nested public calls
    /// neither double-pin nor release early.
    fn pinned<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, CheckError>,
    ) -> Result<T, CheckError> {
        if self.pin_depth == 0 {
            let memo = self.memo_roots();
            govern::protect_all(self.model, &memo);
        }
        self.pin_depth += 1;
        let result = body(self);
        self.pin_depth -= 1;
        if self.pin_depth == 0 {
            let memo = self.memo_roots();
            govern::unprotect_all(self.model, &memo);
        }
        result
    }

    /// Every BDD the memo holds: the cached state sets, the fair set and
    /// the saved fair-`EG` rings.
    fn memo_roots(&self) -> Vec<Bdd> {
        let mut roots = Vec::new();
        for (states, rings) in self.cache.values().chain(&self.fair) {
            roots.push(*states);
            roots.extend(rings.iter().flatten());
        }
        roots
    }

    /// Selects the cycle-closing strategy for fair-`EG` witnesses.
    pub fn with_strategy(mut self, strategy: CycleStrategy) -> Checker<'m> {
        self.strategy = strategy;
        self
    }

    /// The model being checked.
    pub fn model(&mut self) -> &mut SymbolicModel {
        self.model
    }

    /// Statistics of the most recent fair-`EG` witness construction.
    pub fn last_witness_stats(&self) -> Option<WitnessStats> {
        self.last_stats
    }

    /// Reclaims BDD garbage accumulated by the checks so far: drops the
    /// sub-formula memo (whose entries pin their nodes via protection)
    /// and collects everything unreachable from the model's protected
    /// structure. Subsequent checks recompute what they need; however,
    /// any [`Verdict::states`] BDD handles from *earlier* checks become
    /// invalid unless the caller protected them first. Returns the
    /// number of reclaimed nodes.
    pub fn gc(&mut self) -> usize {
        self.cache.clear();
        let keep = self.memo_roots();
        govern::protect_all(self.model, &keep);
        let reclaimed = self.model.manager_mut().gc(&[]);
        govern::unprotect_all(self.model, &keep);
        reclaimed
    }

    /// Checks a specification: evaluates its satisfying state set and
    /// compares against the initial states.
    ///
    /// # Errors
    ///
    /// [`CheckError::UnknownAtom`] for undeclared atomic propositions.
    pub fn check(&mut self, formula: &Ctl) -> Result<Verdict, CheckError> {
        self.pinned(|c| {
            let states = c.check_states(formula)?;
            let init = c.model.init();
            let holds = c.model.manager_mut().is_subset(init, states);
            // A trip makes the subset test meaningless; the resource
            // error must win over a garbage verdict.
            govern::poll(c.model, Phase::Check, Progress::default())?;
            Ok(Verdict { formula: formula.clone(), states, holds })
        })
    }

    /// Checks a specification and, when the verdict calls for one,
    /// attaches a witness (specification holds) or a counterexample
    /// (specification fails).
    pub fn check_with_trace(&mut self, formula: &Ctl) -> Result<CheckOutcome, CheckError> {
        self.pinned(|c| {
            let verdict = c.check(formula)?;
            let trace = if verdict.holds() {
                if has_temporal(formula) {
                    Some(c.witness(formula)?)
                } else {
                    None
                }
            } else {
                Some(c.counterexample(formula)?)
            };
            Ok(CheckOutcome { verdict, trace })
        })
    }

    /// The set of states satisfying a formula under the model's fairness
    /// constraints.
    pub fn check_states(&mut self, formula: &Ctl) -> Result<Bdd, CheckError> {
        let enf = formula.to_existential_form();
        let label = obs::enabled(self.model).then(|| formula.to_string());
        let span = obs::span_start(self.model, SpanKind::Check, label.as_deref());
        let result = self.pinned(|c| c.check_enf(&enf));
        obs::span_end(self.model, span);
        result
    }

    /// Constructs a witness for a formula that holds in some initial
    /// state: a trace demonstrating *why* it holds (Section 6).
    ///
    /// # Errors
    ///
    /// [`CheckError::NothingToExplain`] if no initial state satisfies the
    /// formula.
    pub fn witness(&mut self, formula: &Ctl) -> Result<Trace, CheckError> {
        let enf = formula.to_existential_form();
        self.pinned(|c| {
            let states = c.check_enf(&enf)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, states);
            // Poll before interpreting the pick: a trip leaves
            // `start_set` a dummy and the budget error must beat
            // NothingToExplain.
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, None);
            let result = c.explain(&start, &enf).and_then(|t| c.extend_to_fair_lasso(t));
            obs::span_end(c.model, span);
            let mut trace = result?;
            trace.compress_prefix();
            obs::record_trace_metrics(c.model, &trace);
            Ok(trace)
        })
    }

    /// Constructs a counterexample for a formula that fails in some
    /// initial state: a witness for the negation.
    ///
    /// # Errors
    ///
    /// [`CheckError::NothingToExplain`] if every initial state satisfies
    /// the formula.
    pub fn counterexample(&mut self, formula: &Ctl) -> Result<Trace, CheckError> {
        let negated = Ctl::not(formula.clone()).to_existential_form();
        self.pinned(|c| {
            let states = c.check_enf(&negated)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, states);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, Some("counterexample"));
            let result = c.explain(&start, &negated).and_then(|t| c.extend_to_fair_lasso(t));
            obs::span_end(c.model, span);
            let mut trace = result?;
            trace.compress_prefix();
            obs::record_trace_metrics(c.model, &trace);
            Ok(trace)
        })
    }

    /// Checks a CTL* formula of the fairness class
    /// `E ⋀ⱼ (GF pⱼ ∨ FG qⱼ)` (Section 7).
    ///
    /// # Errors
    ///
    /// [`CheckError::OutsideFairnessClass`] if the formula is not in the
    /// class.
    pub fn check_ctlstar(&mut self, formula: &StateFormula) -> Result<(bool, Bdd), CheckError> {
        self.pinned(|c| {
            let conjuncts = c.fairness_conjuncts(formula)?;
            let (set, _) = check_efairness(c.model, &conjuncts)?;
            let init = c.model.init();
            let holds_somewhere = c.model.manager_mut().intersects(init, set);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            Ok((holds_somewhere, set))
        })
    }

    /// Constructs a witness for a fairness-class CTL* formula holding in
    /// some initial state, together with the side chosen for each
    /// disjunct.
    ///
    /// # Errors
    ///
    /// [`CheckError::OutsideFairnessClass`] for formulas outside the
    /// class, [`CheckError::NothingToExplain`] if no initial state
    /// satisfies it.
    pub fn witness_ctlstar(
        &mut self,
        formula: &StateFormula,
    ) -> Result<(Trace, Vec<ResolvedSide>), CheckError> {
        self.pinned(|c| {
            let conjuncts = c.fairness_conjuncts(formula)?;
            let (set, _) = check_efairness(c.model, &conjuncts)?;
            let init = c.model.init();
            let start_set = c.model.manager_mut().and(init, set);
            govern::poll(c.model, Phase::Check, Progress::default())?;
            let start = c.model.pick_state(start_set).ok_or(CheckError::NothingToExplain)?;
            let span = obs::span_start(c.model, SpanKind::Witness, Some("ctlstar"));
            let result = witness_efairness(c.model, &conjuncts, &start, c.strategy);
            obs::span_end(c.model, span);
            let (trace, sides, stats) = result?;
            c.last_stats = Some(stats);
            obs::record_trace_metrics(c.model, &trace);
            Ok((trace, sides))
        })
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn fairness_conjuncts(
        &mut self,
        formula: &StateFormula,
    ) -> Result<Vec<FairnessConjunct>, CheckError> {
        let class = formula
            .classify_fairness()
            .ok_or_else(|| CheckError::OutsideFairnessClass(formula.to_string()))?;
        let mut out = Vec::with_capacity(class.conjuncts.len());
        for c in &class.conjuncts {
            let gf = c.gf.as_ref().map(|p| self.check_states(p)).transpose()?;
            let fg = c.fg.as_ref().map(|q| self.check_states(q)).transpose()?;
            out.push(FairnessConjunct { gf, fg });
        }
        Ok(out)
    }

    /// The `fair` state set (`CheckFair(EG true)`), memoized. `true` when
    /// the model declares no fairness constraints.
    ///
    /// # Errors
    ///
    /// [`CheckError::ResourceExhausted`] if the manager's budget trips
    /// during the fixpoint.
    pub fn fair(&mut self) -> Result<Bdd, CheckError> {
        self.pinned(|c| {
            if let Some((f, _)) = c.fair {
                return Ok(f);
            }
            let constraints = c.model.fairness().to_vec();
            let (f, rings) = if constraints.is_empty() {
                (Bdd::TRUE, Vec::new())
            } else {
                fair_eg_with_rings(c.model, Bdd::TRUE, &constraints)?
            };
            // Commit and pin before memoizing (see `check_enf`); the pin
            // is released when the outermost public call exits.
            govern::poll(c.model, Phase::Check, Progress::default())?;
            c.model.manager_mut().protect(f);
            govern::protect_all(c.model, &rings.concat());
            c.fair = Some((f, rings));
            Ok(f)
        })
    }

    /// `Check` over existential-normal-form formulas, with memoization.
    fn check_enf(&mut self, formula: &Ctl) -> Result<Bdd, CheckError> {
        if let Some(&(hit, _)) = self.cache.get(formula) {
            return Ok(hit);
        }
        let mut rings = FairRings::new();
        let result = match formula {
            Ctl::True => Bdd::TRUE,
            Ctl::False => Bdd::FALSE,
            Ctl::Atom(name) => self.model.ap(name)?,
            Ctl::Not(f) => {
                let s = self.check_enf(f)?;
                self.model.manager_mut().not(s)
            }
            Ctl::And(f, g) => {
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                self.model.manager_mut().and(sf, sg)
            }
            Ctl::Or(f, g) => {
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                self.model.manager_mut().or(sf, sg)
            }
            Ctl::Ex(f) => {
                // CheckFairEX(f) = CheckEX(f ∧ fair).
                let sf = self.check_enf(f)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sf, fair);
                check_ex(self.model, target)
            }
            Ctl::Eu(f, g) => {
                // CheckFairEU(f, g) = CheckEU(f, g ∧ fair).
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sg, fair);
                check_eu(self.model, sf, target)?
            }
            Ctl::Eg(f) => {
                let sf = self.check_enf(f)?;
                let constraints = self.model.fairness().to_vec();
                let (egf, saved) = fair_eg_with_rings(self.model, sf, &constraints)?;
                rings = saved;
                egf
            }
            // Non-basis operators: normalize and recurse (defensive; the
            // public entry points normalize up front).
            other => {
                let enf = other.to_existential_form();
                debug_assert_ne!(&enf, other, "normalisation must make progress");
                self.check_enf(&enf)?
            }
        };
        // Commit the result's nodes before memoizing — a later trip's
        // transaction rollback must not invalidate a cached handle — and
        // pin them so the degradation ladder's GC keeps every memo entry
        // live. The pin is released when the outermost public call exits
        // (see `pinned`).
        govern::poll(self.model, Phase::Check, Progress::default())?;
        self.model.manager_mut().protect(result);
        govern::protect_all(self.model, &rings.concat());
        self.cache.insert(formula.clone(), (result, rings));
        Ok(result)
    }

    /// Recursive trace construction: from a state satisfying `formula`
    /// (in existential normal form), produce a path demonstrating the
    /// outermost temporal operators.
    ///
    /// Conjunctions recurse into their (first) temporal conjunct;
    /// disjunctions into whichever disjunct holds; negations and atoms
    /// contribute the single current state.
    fn explain(&mut self, state: &State, formula: &Ctl) -> Result<Trace, CheckError> {
        match formula {
            Ctl::True | Ctl::False | Ctl::Atom(_) => Ok(Trace::finite(vec![state.clone()])),
            // Push negations through the boolean skeleton so the temporal
            // operators underneath (e.g. the EG inside ¬(¬r ∨ ¬EG ¬a)
            // arising from a failed AG(r → AF a)) stay explainable.
            // Negated temporal operators themselves contribute only the
            // current state: their demonstrations would be universal.
            Ctl::Not(inner) => match inner.as_ref() {
                Ctl::Not(g) => self.explain(state, g),
                Ctl::And(a, b) => {
                    let pushed =
                        Ctl::or(Ctl::not(a.as_ref().clone()), Ctl::not(b.as_ref().clone()));
                    self.explain(state, &pushed)
                }
                Ctl::Or(a, b) => {
                    let pushed =
                        Ctl::and(Ctl::not(a.as_ref().clone()), Ctl::not(b.as_ref().clone()));
                    self.explain(state, &pushed)
                }
                _ => Ok(Trace::finite(vec![state.clone()])),
            },
            Ctl::And(f, g) => match (has_temporal(f), has_temporal(g)) {
                (true, _) => self.explain(state, f),
                (false, true) => self.explain(state, g),
                (false, false) => Ok(Trace::finite(vec![state.clone()])),
            },
            Ctl::Or(f, g) => {
                let sf = self.check_enf(f)?;
                if self.model.eval_state(sf, state) {
                    self.explain(state, f)
                } else {
                    self.explain(state, g)
                }
            }
            Ctl::Ex(f) => {
                let sf = self.check_enf(f)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sf, fair);
                let next = witness_ex(self.model, target, state)?;
                let tail = self.explain(&next, f)?;
                Ok(splice(vec![state.clone(), next], tail))
            }
            Ctl::Eu(f, g) => {
                let sf = self.check_enf(f)?;
                let sg = self.check_enf(g)?;
                let fair = self.fair()?;
                let target = self.model.manager_mut().and(sg, fair);
                let path = witness_eu(self.model, sf, target, state)?;
                let last = path
                    .last()
                    .ok_or_else(|| CheckError::WitnessConstruction("empty EU witness path".into()))?
                    .clone();
                let tail = self.explain(&last, g)?;
                Ok(splice(path, tail))
            }
            Ctl::Eg(f) => {
                let sf = self.check_enf(f)?;
                let egf = self.check_enf(formula)?;
                let constraints = self.model.fairness().to_vec();
                // Without fairness the check ran plain EG and saved no
                // rings; the witness computes its own for `true`.
                let (lasso, stats) = match self.cache.get(formula) {
                    Some((_, rings)) if !rings.is_empty() => witness_eg_fair_with_rings(
                        self.model,
                        sf,
                        egf,
                        rings,
                        state,
                        self.strategy,
                    )?,
                    _ => witness_eg_fair(self.model, sf, &constraints, state, self.strategy)?,
                };
                self.last_stats = Some(stats);
                Ok(lasso)
            }
            other => {
                let enf = other.to_existential_form();
                debug_assert_ne!(&enf, other, "normalisation must make progress");
                self.explain(state, &enf)
            }
        }
    }

    /// Witnesses of reachability-style formulas are finite; when the
    /// model has fairness constraints the paper extends them to infinite
    /// fair paths by appending a fair `EG true` lasso.
    fn extend_to_fair_lasso(&mut self, trace: Trace) -> Result<Trace, CheckError> {
        if trace.is_lasso() || self.model.fairness().is_empty() {
            return Ok(trace);
        }
        let last = trace
            .states
            .last()
            .ok_or_else(|| {
                CheckError::WitnessConstruction("cannot fair-extend an empty trace".into())
            })?
            .clone();
        self.fair()?;
        let (fair, rings) = self.fair.as_ref().expect("fair() memoizes the fair set");
        let (lasso, stats) =
            witness_eg_fair_with_rings(self.model, Bdd::TRUE, *fair, rings, &last, self.strategy)?;
        self.last_stats = Some(stats);
        Ok(splice(trace.states, lasso))
    }
}

/// Does the formula contain any temporal operator (so that a trace
/// demonstrates something beyond the current state)?
fn has_temporal(formula: &Ctl) -> bool {
    match formula {
        Ctl::True | Ctl::False | Ctl::Atom(_) => false,
        Ctl::Not(f) => has_temporal(f),
        Ctl::And(f, g) | Ctl::Or(f, g) | Ctl::Implies(f, g) | Ctl::Iff(f, g) => {
            has_temporal(f) || has_temporal(g)
        }
        Ctl::Ex(_)
        | Ctl::Ef(_)
        | Ctl::Eg(_)
        | Ctl::Eu(_, _)
        | Ctl::Ax(_)
        | Ctl::Af(_)
        | Ctl::Ag(_)
        | Ctl::Au(_, _) => true,
    }
}
