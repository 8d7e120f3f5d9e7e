//! Fair-CTL machinery (Section 5): the nested fixpoint for `EG` under
//! fairness constraints, with the ring-saving variant the witness
//! generator relies on (Section 6).

use smc_bdd::Bdd;
use smc_kripke::SymbolicModel;

use crate::error::CheckError;
use crate::fixpoint::{check_eg, check_eu, check_ex, eu_rings};
use crate::govern::{self, Progress};
use crate::obs::{self, FixObserver};
use crate::Phase;
use smc_obs::{FixKind, SpanKind};

/// `CheckFairEG(f)` under constraints `H`:
///
/// ```text
/// gfp Z [ f ∧ ⋀ₖ EX( E[f U (Z ∧ hₖ)] ) ]
/// ```
///
/// With `H` empty the constraint conjunction is vacuous and this degrades
/// to plain `EG f` (every path is fair).
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn fair_eg(model: &mut SymbolicModel, f: Bdd, constraints: &[Bdd]) -> Result<Bdd, CheckError> {
    Ok(fair_eg_with_rings(model, f, constraints)?.0)
}

/// The ring sequences saved from the **last** outer iteration of
/// [`fair_eg`], one per fairness constraint.
///
/// `rings[k][i]` is the set of states from which a state in
/// `(EG_fair f) ∧ hₖ` can be reached in `i` or fewer steps while staying
/// inside `f` — the paper's `Q_i^h`. The witness generator probes these
/// for increasing `i` to find the *nearest* constraint and then descends
/// them ring by ring.
pub type FairRings = Vec<Vec<Bdd>>;

/// [`fair_eg`] that also returns the saved approximation sequences.
///
/// The extra pass costs one more round of inner `EU` computations after
/// the fixpoint converges — exactly the bookkeeping Section 6 prescribes
/// ("in the last iteration of the outer fixpoint, we save the sequence of
/// approximations"). The [`Checker`](crate::Checker) memoizes the rings
/// with the fixpoint, so a witness reuses them instead of paying again.
pub fn fair_eg_with_rings(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> Result<(Bdd, FairRings), CheckError> {
    // Empty H behaves like the single vacuous constraint `true`; the
    // caller-visible ring list stays aligned with `constraints`, so the
    // normalization lives in the witness layer, not here. Without
    // constraints the nested fixpoint degenerates to plain EG, which the
    // candidate-based `check_eg` computes with the same iterates.
    if constraints.is_empty() {
        return Ok((check_eg(model, f)?, Vec::new()));
    }
    // The nested EU fixpoints checkpoint internally; a ladder GC there
    // must not collect this level's working set, so f and the constraints
    // are shielded for the whole computation (and the loop shields its
    // evolving handles around each inner call).
    let mut shield = vec![f];
    shield.extend_from_slice(constraints);
    govern::protect_all(model, &shield);
    let span = obs::span_start(model, SpanKind::FairEg, None);
    let result = fair_eg_with_rings_inner(model, f, constraints);
    obs::span_end(model, span);
    govern::unprotect_all(model, &shield);
    result
}

fn fair_eg_with_rings_inner(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> Result<(Bdd, FairRings), CheckError> {
    // `seeds[k]` is the previous outer iteration's inner EU result for
    // constraint k. Targets `Z ∧ hₖ` shrink monotonically with Z, so
    // E[f U t] = E[(f ∧ seed) U t]: every state on a witnessing prefix for
    // the smaller target already sat in the previous (larger) EU set.
    // Restricting f this way lets the inner fixpoints run over the
    // already-narrowed state space.
    let mut seeds: Vec<Bdd> = vec![f; constraints.len()];
    let mut watch = FixObserver::new(model, FixKind::FairEgOuter);
    let mut z = f;
    let mut outer = 0u64;
    loop {
        let mut guard = vec![z];
        guard.extend_from_slice(&seeds);
        govern::protect_all(model, &guard);
        let step = fair_eg_step(model, f, constraints, z, &mut seeds);
        govern::unprotect_all(model, &guard);
        let next = step?;
        outer += 1;
        let mut roots = vec![z, next];
        roots.extend_from_slice(&seeds);
        govern::checkpoint(
            model,
            Phase::FairEg,
            Progress { iterations: outer, rings: 0, approx: Some(z) },
            &roots,
        )?;
        // The outer gfp has no frontier; report the shrinking candidate
        // set for both sizes.
        watch.iter(model, outer, next, next);
        if next == z {
            break;
        }
        z = next;
    }
    // One more inner round at the fixpoint to harvest the rings — with
    // the *unrestricted* f, so the recorded ring sequences are exactly
    // the ones the textbook iteration would produce.
    let span = obs::span_start(model, SpanKind::FairRings, None);
    let mut rings: FairRings = Vec::with_capacity(constraints.len());
    model.manager_mut().protect(z);
    let mut harvested: Vec<Bdd> = vec![z];
    let harvest: Result<(), CheckError> = (|| {
        for &h in constraints {
            let target = model.manager_mut().and(z, h);
            let seq = eu_rings(model, f, target)?;
            // Already-harvested sequences must survive the next inner
            // round's checkpoints.
            govern::protect_all(model, &seq);
            harvested.extend(seq.iter().copied());
            rings.push(seq);
        }
        Ok(())
    })();
    govern::unprotect_all(model, &harvested);
    obs::span_end(model, span);
    harvest?;
    Ok((z, rings))
}

/// One outer iteration: `f ∧ ⋀ₖ EX(E[f U (Z ∧ hₖ)])`, with each inner EU
/// restricted by (and refreshing) its seed from the previous iteration.
fn fair_eg_step(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
    z: Bdd,
    seeds: &mut [Bdd],
) -> Result<Bdd, CheckError> {
    let mut acc = f;
    let mut shield: Vec<Bdd> = Vec::new();
    let mut step = |model: &mut SymbolicModel, shield: &mut Vec<Bdd>| {
        for (k, &h) in constraints.iter().enumerate() {
            if acc.is_false() {
                break;
            }
            let target = model.manager_mut().and(z, h);
            let f_seeded = model.manager_mut().and(f, seeds[k]);
            // Keep this round's working set safe across the inner EU's
            // checkpoints (which may run the degradation ladder's GC).
            govern::protect_all(model, &[acc, target, f_seeded]);
            shield.extend([acc, target, f_seeded]);
            let eu = check_eu(model, f_seeded, target)?;
            seeds[k] = eu;
            model.manager_mut().protect(eu);
            shield.push(eu);
            let ex = check_ex(model, eu);
            acc = model.manager_mut().and(acc, ex);
        }
        Ok(acc)
    };
    let result = step(model, &mut shield);
    govern::unprotect_all(model, &shield);
    result
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use smc_kripke::SymbolicModelBuilder;

    /// A free boolean toggler: x may stay or flip each step.
    fn free_bit() -> SymbolicModel {
        let mut b = SymbolicModelBuilder::new();
        b.bool_var("x").unwrap();
        b.init_zero();
        // No next_fn: x is unconstrained.
        b.build().unwrap()
    }

    #[test]
    fn fair_eg_without_constraints_is_plain_eg() {
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let plain = crate::fixpoint::check_eg(&mut m, x).unwrap();
        let fair = fair_eg(&mut m, x, &[]).unwrap();
        assert_eq!(plain, fair);
        // x can be held at 1 forever, so EG x = {x}.
        assert_eq!(m.state_count(fair), 1.0);
    }

    #[test]
    fn fairness_can_empty_an_eg_set() {
        // EG x under the fairness constraint "¬x holds infinitely often"
        // is empty: any path visiting ¬x infinitely often leaves x.
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let nx = m.manager_mut().not(x);
        let fair = fair_eg(&mut m, x, &[nx]).unwrap();
        assert!(fair.is_false());
        // Under the constraint "x infinitely often" EG x survives.
        let fair2 = fair_eg(&mut m, x, &[x]).unwrap();
        assert_eq!(m.state_count(fair2), 1.0);
    }

    #[test]
    fn fair_states_with_unsatisfiable_constraint_is_empty() {
        let mut b = SymbolicModelBuilder::new();
        let x = b.bool_var("x").unwrap();
        b.init_zero();
        b.next_fn(x, |m, cur| m.not(cur[0]));
        b.fairness_fn(|m, _| m.constant(false));
        let mut m = b.build().unwrap();
        // The `fair` set of Section 5 is fair `EG true`.
        let constraints = m.fairness().to_vec();
        assert!(fair_eg(&mut m, Bdd::TRUE, &constraints).unwrap().is_false());
    }

    #[test]
    fn rings_reach_every_fair_eg_state() {
        let mut m = free_bit();
        let x = m.ap("x").unwrap();
        let nx = m.manager_mut().not(x);
        // EG true under constraints {x infinitely often, ¬x infinitely
        // often}: both states qualify (toggle forever).
        let (egf, rings) = fair_eg_with_rings(&mut m, Bdd::TRUE, &[x, nx]).unwrap();
        assert_eq!(m.state_count(egf), 2.0);
        assert_eq!(rings.len(), 2);
        for ring in &rings {
            // The outermost ring covers all of EG-fair.
            let last = *ring.last().unwrap();
            assert!(m.manager_mut().is_subset(egf, last));
        }
    }
}
