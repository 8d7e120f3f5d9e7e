//! The basic CTL fixpoint operators of Section 4: `CheckEX`, `CheckEU`,
//! `CheckEG`, plus the ring-recording variant of `CheckEU` that the
//! witness generator replays backwards (optionally stopped at the first
//! ring a descent can use).
//!
//! Every fixpoint loop is a governed, fallible computation: each
//! iteration ends at a [`BddManager::checkpoint`](smc_bdd::BddManager)
//! safe point, so an installed [`Budget`](smc_bdd::Budget) can bound the
//! run (and the degradation ladder can collect intermediates that are not
//! passed as roots). A trip surfaces as
//! [`CheckError::ResourceExhausted`] with the fixpoint's phase, completed
//! iteration count and last approximation size attached.

use smc_bdd::Bdd;
use smc_kripke::SymbolicModel;

use crate::error::CheckError;
use crate::govern::{self, Progress};
use crate::obs::{self, FixObserver};
use crate::Phase;
use smc_obs::{FixKind, SpanKind};

/// `CheckEX(f) = ∃v̄′. f(v̄′) ∧ N(v̄, v̄′)` — the states with a successor in
/// `f`.
///
/// A single preimage, no iteration: stays infallible. Callers inside
/// governed loops pick up any trip at their next checkpoint.
pub fn check_ex(model: &mut SymbolicModel, f: Bdd) -> Bdd {
    model.preimage(f)
}

/// `CheckEU(f, g)`: least fixpoint of `λZ. g ∨ (f ∧ EX Z)`.
///
/// Iterates on the *frontier*: each round takes the preimage of only the
/// states added in the previous round. Any `f`-state with a successor in
/// an older ring was itself added in an older round, so the accumulated
/// sets are identical to the textbook full-preimage iteration — at the
/// cost of a preimage of the (small) delta instead of the whole set.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn check_eu(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Bdd, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEu, None);
    let result = check_eu_inner(model, f, g);
    obs::span_end(model, span);
    result
}

fn check_eu_inner(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Bdd, CheckError> {
    let mut watch = FixObserver::new(model, FixKind::Eu);
    let mut z = g;
    let mut frontier = g;
    let mut iters = 0u64;
    while !frontier.is_false() {
        let ex = check_ex(model, frontier);
        let step = model.manager_mut().and(f, ex);
        let add = model.manager_mut().diff(step, z);
        iters += 1;
        let progress = Progress { iterations: iters, rings: 0, approx: Some(z) };
        if add.is_false() {
            govern::checkpoint(model, Phase::EuFixpoint, progress, &[f, g, z])?;
            break;
        }
        let next = model.manager_mut().or(z, add);
        govern::checkpoint(model, Phase::EuFixpoint, progress, &[f, g, next, add])?;
        z = next;
        frontier = add;
        watch.iter(model, iters, frontier, z);
    }
    // Covers the zero-iteration case (g = ∅), where no checkpoint ran and
    // a pending trip must not escape as a bogus Ok.
    govern::poll(model, Phase::EuFixpoint, Progress::iters(iters))?;
    Ok(z)
}

/// `CheckEU` with the full increasing approximation sequence
/// `Q₀ ⊆ Q₁ ⊆ …` (the "onion rings"): `Qᵢ` is the set of states that can
/// reach `g` in `i` or fewer steps while passing only through `f`-states.
///
/// Section 6 of the paper saves exactly these sequences (from the last
/// outer fair-`EG` iteration) so witness construction can walk a shortest
/// ring-decreasing path to each fairness constraint. The last element is
/// the `E[f U g]` fixpoint. This is [`eu_rings_until`] with an empty stop
/// set.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips; the
/// partial report carries the number of rings recorded so far.
pub fn eu_rings(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Result<Vec<Bdd>, CheckError> {
    eu_rings_until(model, f, g, Bdd::FALSE)
}

/// The rings of [`eu_rings`] up to and including the first one that
/// meets `stop`, or all of them when none does.
///
/// A witness descent that starts in `stop` (the start state of an `EU`
/// witness, or the successors of the state a cycle closes from) reads
/// no ring past the first one it touches, so the rings beyond it are
/// work no trace uses. The returned sequence is always a prefix of the
/// full one, ring for ring; when its last ring misses `stop`, that ring
/// is the `E[f U g]` fixpoint.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips; the
/// partial report carries the number of rings recorded so far.
pub fn eu_rings_until(
    model: &mut SymbolicModel,
    f: Bdd,
    g: Bdd,
    stop: Bdd,
) -> Result<Vec<Bdd>, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEu, Some("rings"));
    let result = eu_rings_inner(model, f, g, stop);
    obs::span_end(model, span);
    result
}

fn eu_rings_inner(
    model: &mut SymbolicModel,
    f: Bdd,
    g: Bdd,
    stop: Bdd,
) -> Result<Vec<Bdd>, CheckError> {
    // Frontier iteration; the recorded rings are bit-identical to the
    // full-preimage version (see `check_eu` for why), which the witness
    // generator's ring-descent depends on.
    let mut watch = FixObserver::new(model, FixKind::Eu);
    let mut rings = vec![g];
    let mut z = g;
    let mut frontier = g;
    let mut iters = 0u64;
    // Rings only grow, so the newest ring meets `stop` exactly when its
    // frontier does (or, for ring 0, `g` itself).
    let mut met = model.manager_mut().intersects(g, stop);
    while !met && !frontier.is_false() {
        let ex = check_ex(model, frontier);
        let step = model.manager_mut().and(f, ex);
        let add = model.manager_mut().diff(step, z);
        iters += 1;
        let progress = Progress { iterations: iters, rings: rings.len() as u64, approx: Some(z) };
        let done = add.is_false();
        let next = if done { z } else { model.manager_mut().or(z, add) };
        // Every recorded ring must survive a ladder GC, so the whole
        // prefix rides along as checkpoint roots.
        let mut roots = rings.clone();
        roots.extend([f, g, stop, next, add]);
        govern::checkpoint(model, Phase::EuFixpoint, progress, &roots)?;
        if done {
            break;
        }
        z = next;
        rings.push(z);
        frontier = add;
        met = model.manager_mut().intersects(add, stop);
        watch.iter(model, iters, frontier, z);
    }
    // Zero-iteration case: no checkpoint ran, deliver any pending trip.
    govern::poll(
        model,
        Phase::EuFixpoint,
        Progress { iterations: iters, rings: rings.len() as u64, approx: Some(z) },
    )?;
    Ok(rings)
}

/// `CheckEG(f)`: greatest fixpoint of `λZ. f ∧ EX Z` (no fairness).
///
/// After the first full step, iterates on *candidates*: a state drops out
/// of `Z` only if it just lost its last successor in `Z`, i.e. it has a
/// successor among the states removed last round. Only those candidates
/// get their (restricted) preimage re-checked; the rest of `Z` carries
/// over unchanged. The iterates equal the textbook `Zₖ₊₁ = f ∧ EX Zₖ`
/// sequence exactly.
///
/// # Errors
///
/// [`CheckError::ResourceExhausted`] if the manager's budget trips.
pub fn check_eg(model: &mut SymbolicModel, f: Bdd) -> Result<Bdd, CheckError> {
    let span = obs::span_start(model, SpanKind::CheckEg, None);
    let result = check_eg_inner(model, f);
    obs::span_end(model, span);
    result
}

fn check_eg_inner(model: &mut SymbolicModel, f: Bdd) -> Result<Bdd, CheckError> {
    let mut watch = FixObserver::new(model, FixKind::Eg);
    let pre_f = check_ex(model, f);
    let mut z = model.manager_mut().and(f, pre_f);
    let mut prev = f;
    let mut iters = 0u64;
    govern::checkpoint(model, Phase::EgFixpoint, Progress::iters(0), &[f, z])?;
    while z != prev {
        // removed = prev \ z: the states that left Z last round.
        let removed = model.manager_mut().diff(prev, z);
        // Candidates: states of Z with a successor among the removed —
        // every other state keeps a successor in Z and survives as-is.
        let cand = model.preimage_within(removed, z);
        iters += 1;
        let progress = Progress { iterations: iters, rings: 0, approx: Some(z) };
        if cand.is_false() {
            govern::checkpoint(model, Phase::EgFixpoint, progress, &[f, z])?;
            return Ok(z);
        }
        // Which candidates still have some successor in Z?
        let keep = model.preimage_within(z, cand);
        let rest = model.manager_mut().diff(z, cand);
        let next = model.manager_mut().or(rest, keep);
        govern::checkpoint(model, Phase::EgFixpoint, progress, &[f, z, next])?;
        prev = z;
        z = next;
        // The EG loop's "frontier" is the candidate delta re-examined
        // this round.
        watch.iter(model, iters, removed, z);
    }
    Ok(z)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use smc_kripke::SymbolicModelBuilder;

    /// Two-bit counter where bit1 is stuck once set: 00 -> 01 -> 10 -> 11 -> 11.
    fn saturating_counter() -> SymbolicModel {
        let mut b = SymbolicModelBuilder::new();
        let lo = b.bool_var("lo").unwrap();
        let hi = b.bool_var("hi").unwrap();
        b.init_zero();
        b.next_fn(lo, |m, cur| {
            // lo' = !lo unless saturated at 11
            let sat = m.and(cur[0], cur[1]);
            let toggled = m.not(cur[0]);
            m.ite(sat, cur[0], toggled)
        });
        b.next_fn(hi, |m, cur| {
            let sat = m.and(cur[0], cur[1]);
            let carry = m.xor(cur[1], cur[0]);
            m.ite(sat, cur[1], carry)
        });
        b.build().unwrap()
    }

    #[test]
    fn ex_of_saturated_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        // Predecessors of 11 are 10 and 11 itself.
        let pre = check_ex(&mut m, sat);
        let states = m.states_in(pre, 8).unwrap();
        let bits: Vec<String> = states.iter().map(|s| s.to_bit_string()).collect();
        assert_eq!(bits, vec!["01", "11"]); // (lo,hi) bit order: "01" is lo=0,hi=1
    }

    #[test]
    fn eu_reaches_the_saturated_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        let all = check_eu(&mut m, Bdd::TRUE, sat).unwrap();
        // Every state eventually reaches 11.
        assert_eq!(m.state_count(all), 4.0);
    }

    #[test]
    fn eu_rings_grow_monotonically() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        let rings = eu_rings(&mut m, Bdd::TRUE, sat).unwrap();
        // 11 at distance 0; 10 at 1; 01 at 2; 00 at 3.
        assert_eq!(rings.len(), 4);
        for w in rings.windows(2) {
            let (small, big) = (w[0], w[1]);
            assert!(m.manager_mut().is_subset(small, big));
            assert_ne!(small, big);
        }
        assert_eq!(m.state_count(rings[0]), 1.0);
        assert_eq!(m.state_count(rings[3]), 4.0);
        assert_eq!(*rings.last().unwrap(), check_eu(&mut m, Bdd::TRUE, sat).unwrap());
    }

    #[test]
    fn eg_finds_the_absorbing_state() {
        let mut m = saturating_counter();
        let hi = m.ap("hi").unwrap();
        let lo = m.ap("lo").unwrap();
        let sat = m.manager_mut().and(hi, lo);
        // EG (hi ∧ lo): only the absorbing 11 state loops forever in it.
        let eg = check_eg(&mut m, sat).unwrap();
        assert_eq!(m.state_count(eg), 1.0);
        // EG true = everything (relation is total).
        let all = check_eg(&mut m, Bdd::TRUE).unwrap();
        assert_eq!(m.state_count(all), 4.0);
    }
}
