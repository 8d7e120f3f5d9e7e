//! Witnesses for the reachability-flavoured operators: `E[f U g]` and
//! `EX f`.
//!
//! Under fairness these reduce to the unconstrained operators against a
//! fairness-restricted target (Section 5: `E[f U g] ≡ E[f U (g ∧ fair)]`,
//! `EX f ≡ EX (f ∧ fair)`); the finite witness is then extended to an
//! infinite fair path by the fair-`EG` lasso of [`crate::witness::eg`].

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};

use crate::error::CheckError;
use crate::fixpoint::eu_rings_until;
use crate::govern::{self, Progress};
use crate::Phase;

/// Constructs a shortest `E[f U g]` witness: a path from `start` through
/// `f`-states to a `g`-state, walking the `EU` approximation rings
/// backwards. Returns the path including both endpoints (a single state
/// if `start` already satisfies `g`).
///
/// The rings stop at the first one holding `start`: the descent reads
/// only rings below it, so later rings would be built for nothing.
///
/// # Errors
///
/// [`CheckError::NothingToExplain`] if `start ⊭ E[f U g]`.
pub fn witness_eu(
    model: &mut SymbolicModel,
    f: Bdd,
    g: Bdd,
    start: &State,
) -> Result<Vec<State>, CheckError> {
    let stop = model.state_bdd(start);
    let rings = eu_rings_until(model, f, g, stop)?;
    let mut j = match (0..rings.len()).find(|&i| model.eval_state(rings[i], start)) {
        Some(j) => j,
        None => return Err(CheckError::NothingToExplain),
    };
    let mut path = vec![start.clone()];
    let mut current = start.clone();
    while j > 0 && !model.eval_state(rings[0], &current) {
        let succ = model.successors(&current);
        let step = (0..j).find_map(|jj| {
            let cand = model.manager_mut().and(succ, rings[jj]);
            model.pick_state(cand).map(|st| (jj, st))
        });
        // Poll before concluding anything from this step: after a trip the
        // successor/intersection BDDs are dummies, and the budget error
        // must win over a bogus "descent stuck" report. No GC happens in a
        // poll, so the loose ring handles stay valid.
        govern::poll(
            model,
            Phase::WitnessEu,
            Progress { iterations: path.len() as u64, rings: rings.len() as u64, approx: None },
        )?;
        let (jj, next) =
            step.ok_or_else(|| CheckError::WitnessConstruction("EU ring descent stuck".into()))?;
        path.push(next.clone());
        current = next;
        j = jj;
    }
    Ok(path)
}

/// Constructs an `EX f` witness step: a successor of `start` inside `f`.
///
/// # Errors
///
/// [`CheckError::NothingToExplain`] if no successor satisfies `f`.
pub fn witness_ex(model: &mut SymbolicModel, f: Bdd, start: &State) -> Result<State, CheckError> {
    let succ = model.successors(start);
    let cand = model.manager_mut().and(succ, f);
    govern::poll(model, Phase::WitnessEu, Progress::default())?;
    model.pick_state(cand).ok_or(CheckError::NothingToExplain)
}
