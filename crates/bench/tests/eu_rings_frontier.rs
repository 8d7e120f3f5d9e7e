//! The frontier-based fixpoints must be *observably indistinguishable*
//! from the textbook full-preimage iterations: the witness generator
//! descends the saved onion rings, so every recorded approximation has to
//! be bit-identical, not merely converge to the same fixpoint.
//!
//! These tests re-implement the textbook recursions inline and compare
//! against the optimized versions on the EXP-2/EXP-3 witness-shape
//! models (single-SCC ring, SCC chain) and the fair-EG nesting. The
//! witness generator also stops ring sequences early and confines its
//! single-state fixpoints to the reachable states; both must leave every
//! ring a descent reads unchanged.

use smc_bdd::Bdd;
use smc_bench::{scc_chain, single_scc_ring, to_symbolic_with_fairness};
use smc_checker::fair::fair_eg_with_rings;
use smc_checker::fixpoint::{check_eg, check_eu, eu_rings, eu_rings_until};
use smc_kripke::{ExplicitModel, State, SymbolicModel};

/// Textbook `CheckEU` ring recording: preimage of the full accumulated
/// set each round.
fn eu_rings_reference(model: &mut SymbolicModel, f: Bdd, g: Bdd) -> Vec<Bdd> {
    let mut rings = vec![g];
    let mut z = g;
    loop {
        let pre = model.preimage(z);
        let step = model.manager_mut().and(f, pre);
        let next = model.manager_mut().or(g, step);
        if next == z {
            return rings;
        }
        rings.push(next);
        z = next;
    }
}

/// Textbook `CheckEG`: `Zₖ₊₁ = f ∧ EX Zₖ` with a full preimage per round.
fn eg_reference(model: &mut SymbolicModel, f: Bdd) -> Bdd {
    let mut z = f;
    loop {
        let pre = model.preimage(z);
        let next = model.manager_mut().and(f, pre);
        if next == z {
            return z;
        }
        z = next;
    }
}

/// Textbook fair EG with ring harvest, no EU seeding.
fn fair_eg_with_rings_reference(
    model: &mut SymbolicModel,
    f: Bdd,
    constraints: &[Bdd],
) -> (Bdd, Vec<Vec<Bdd>>) {
    let mut z = f;
    loop {
        let mut acc = f;
        for &h in constraints {
            if acc.is_false() {
                break;
            }
            let target = model.manager_mut().and(z, h);
            let eu = {
                let mut zz = target;
                loop {
                    let pre = model.preimage(zz);
                    let step = model.manager_mut().and(f, pre);
                    let next = model.manager_mut().or(target, step);
                    if next == zz {
                        break zz;
                    }
                    zz = next;
                }
            };
            let ex = model.preimage(eu);
            acc = model.manager_mut().and(acc, ex);
        }
        if constraints.is_empty() {
            let ex = model.preimage(z);
            acc = model.manager_mut().and(f, ex);
        }
        if acc == z {
            break;
        }
        z = acc;
    }
    let mut rings = Vec::new();
    for &h in constraints {
        let target = model.manager_mut().and(z, h);
        rings.push(eu_rings_reference(model, f, target));
    }
    (z, rings)
}

/// `scc_chain(k)` entered at its last component: the `k - 1` components
/// before it are unreachable, yet every one of them leads into the
/// reachable `p`-component, so reach confinement has states to cut.
fn chain_entered_last(k: usize) -> ExplicitModel {
    let chain = scc_chain(k);
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for s in 0..chain.num_states() {
        let labels = if chain.holds(s, 0) { vec![p] } else { vec![] };
        g.add_state(&labels);
    }
    for s in 0..chain.num_states() {
        for &t in chain.successors(s) {
            g.add_edge(s, t);
        }
    }
    g.add_initial(2 * (k - 1));
    g
}

fn witness_shape_models() -> Vec<(&'static str, SymbolicModel)> {
    vec![
        ("ring(8)", to_symbolic_with_fairness(&single_scc_ring(8), 0).unwrap()),
        ("chain(3)", to_symbolic_with_fairness(&scc_chain(3), 0).unwrap()),
        ("chain(6)", to_symbolic_with_fairness(&scc_chain(6), 0).unwrap()),
        ("chain(4) entered last", to_symbolic_with_fairness(&chain_entered_last(4), 0).unwrap()),
    ]
}

/// Ring `i` of a sequence that saturates at its last ring (the fixpoint).
fn ring_at(rings: &[Bdd], i: usize) -> Bdd {
    rings[i.min(rings.len() - 1)]
}

/// Stop sets as the witness generator builds them: each single state
/// (`witness_eu` stops at its start) and each reachable state's successor
/// set (a closing arc stops at `succ(current)`), plus the empty set.
fn stop_sets(model: &mut SymbolicModel, reachable: &[State]) -> Vec<Bdd> {
    let mut stops = vec![Bdd::FALSE];
    for s in model.states_in(Bdd::TRUE, 64).unwrap() {
        stops.push(model.state_bdd(&s));
    }
    for s in reachable {
        stops.push(model.successors(s));
    }
    stops
}

#[test]
fn eu_rings_bit_identical_to_full_preimage_iteration() {
    let mut confinement_cut = false;
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        let reach = model.reachable().unwrap();
        let reachable = model.states_in(reach, 64).unwrap();
        let stops = stop_sets(&mut model, &reachable);
        for (f, g) in [(Bdd::TRUE, p), (np, p), (p, np)] {
            let expected = eu_rings_reference(&mut model, f, g);
            let actual = eu_rings(&mut model, f, g).unwrap();
            assert_eq!(expected.len(), actual.len(), "{name}: ring count diverged");
            for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
                assert_eq!(e, a, "{name}: ring {i} not bit-identical");
            }
            assert_eq!(
                *actual.last().unwrap(),
                check_eu(&mut model, f, g).unwrap(),
                "{name}: last ring must be the EU fixpoint"
            );

            // Stopped rings: the prefix ending at the first ring that
            // meets the stop set, or the whole sequence when none does.
            for &stop in &stops {
                let stopped = eu_rings_until(&mut model, f, g, stop).unwrap();
                let first_meet =
                    expected.iter().position(|&r| model.manager_mut().intersects(r, stop));
                let want = first_meet.map_or(expected.len(), |i| i + 1);
                assert_eq!(stopped, expected[..want], "{name}: stopped rings are not the prefix");
            }

            // Reach-confined rings answer every probe a descent from a
            // reachable state makes exactly as the unconfined ones do.
            let f_reach = model.manager_mut().and(f, reach);
            let confined = eu_rings(&mut model, f_reach, g).unwrap();
            confinement_cut |= confined.last() != expected.last();
            for i in 0..expected.len().max(confined.len()) {
                let (full, conf) = (ring_at(&expected, i), ring_at(&confined, i));
                for s in &reachable {
                    let succ = model.successors(s);
                    let want = model.manager_mut().and(succ, full);
                    let got = model.manager_mut().and(succ, conf);
                    assert_eq!(got, want, "{name}: confined ring {i} moved a successor probe");
                    assert_eq!(
                        model.eval_state(conf, s),
                        model.eval_state(full, s),
                        "{name}: confined ring {i} moved a membership probe"
                    );
                }
            }
        }
    }
    assert!(confinement_cut, "no input has unreachable states for confinement to cut");
}

#[test]
fn frontier_eg_matches_full_preimage_iteration() {
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        for f in [Bdd::TRUE, p, np] {
            let expected = eg_reference(&mut model, f);
            let actual = check_eg(&mut model, f).unwrap();
            assert_eq!(expected, actual, "{name}: EG diverged");
        }
    }
}

#[test]
fn seeded_fair_eg_rings_bit_identical() {
    for (name, mut model) in witness_shape_models() {
        let p = model.ap("p").unwrap();
        let np = model.manager_mut().not(p);
        for constraints in [vec![], vec![p], vec![p, np]] {
            let (z_ref, rings_ref) =
                fair_eg_with_rings_reference(&mut model, Bdd::TRUE, &constraints);
            let (z, rings) = fair_eg_with_rings(&mut model, Bdd::TRUE, &constraints).unwrap();
            assert_eq!(z_ref, z, "{name}: fair EG fixpoint diverged");
            assert_eq!(rings_ref.len(), rings.len(), "{name}: ring lists diverged");
            for (k, (rr, r)) in rings_ref.iter().zip(&rings).enumerate() {
                assert_eq!(rr, r, "{name}: constraint {k} rings not bit-identical");
            }
        }
    }
}
