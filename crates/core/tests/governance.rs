//! Fault-injected recovery across the public `Checker` surface.
//!
//! Every public entry point is driven into an injected mid-computation
//! fault (table-full or spurious cancellation at the Nth allocation) and
//! must (a) return a structured `CheckError::ResourceExhausted` — never
//! panic — and (b) leave the manager so exactly restored that re-running
//! the same query on the *same* model produces results bit-identical to
//! an uninterrupted run on a fresh manager: same verdicts, same witness
//! states, same BDD node ids.

use proptest::prelude::*;
use smc_bdd::{Bdd, FaultPlan, TripReason};
use smc_checker::fixpoint::eu_rings;
use smc_checker::{CheckError, Checker, CycleStrategy, Trace};
use smc_kripke::{SymbolicModel, SymbolicModelBuilder};
use smc_logic::{ctl, ctlstar};

/// x toggles every step.
fn toggle() -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").expect("fresh var");
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.build().expect("valid model")
}

/// x free (may flip or stay), with optional fairness on x=1.
fn free_bit(fair_on_x: bool) -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("x").expect("fresh var");
    b.init_zero();
    if fair_on_x {
        b.fairness_fn(|_, cur| cur[0]);
    }
    b.build().expect("valid model")
}

/// Drives `run` into faults injected at several allocation counts and
/// checks the recovery contract: a clean structured error, then a retry
/// on the same model matching the uninterrupted reference bit for bit.
fn assert_fault_recovery<T>(
    label: &str,
    make_model: impl Fn() -> SymbolicModel,
    run: impl Fn(&mut Checker) -> Result<T, CheckError>,
) where
    T: PartialEq + std::fmt::Debug,
{
    let points =
        [(1, true), (2, false), (5, true), (9, false), (17, true), (33, false), (65, true)];
    assert_fault_recovery_at(label, make_model, CycleStrategy::default(), run, &points);
}

/// [`assert_fault_recovery`] for checkers using `strategy`, at the given
/// `(allocation, table_full)` fault points.
fn assert_fault_recovery_at<T>(
    label: &str,
    make_model: impl Fn() -> SymbolicModel,
    strategy: CycleStrategy,
    run: impl Fn(&mut Checker) -> Result<T, CheckError>,
    points: &[(u64, bool)],
) where
    T: PartialEq + std::fmt::Debug,
{
    let mut reference = make_model();
    let want = run(&mut Checker::new(&mut reference).with_strategy(strategy))
        .unwrap_or_else(|e| panic!("{label}: uninterrupted run failed: {e}"));

    for &(at, table_full) in points {
        let mut model = make_model();
        let plan = if table_full {
            FaultPlan { table_full_at: Some(at), ..FaultPlan::new() }
        } else {
            FaultPlan { cancel_at: Some(at), ..FaultPlan::new() }
        };
        model.manager_mut().inject_faults(plan);
        let mut c = Checker::new(&mut model).with_strategy(strategy);
        match run(&mut c) {
            // The fault point lay beyond the run's allocations.
            Ok(v) => assert_eq!(v, want, "{label}: unfaulted run at {at} diverged"),
            Err(CheckError::ResourceExhausted { reason, .. }) => {
                let expect = if table_full { TripReason::TableFull } else { TripReason::Cancelled };
                assert_eq!(reason, expect, "{label}: wrong trip at {at}");
                // Triggers are one-shot: the retry runs to completion on
                // the very same model and checker.
                let got = run(&mut c)
                    .unwrap_or_else(|e| panic!("{label}: retry after fault at {at} failed: {e}"));
                assert_eq!(got, want, "{label}: retry after fault at {at} diverged");
            }
            Err(other) => panic!("{label}: unexpected error at {at}: {other}"),
        }
        c.model().manager_mut().clear_faults();
        c.model().manager_mut().validate().unwrap_or_else(|e| {
            panic!("{label}: manager invariants broken after fault at {at}: {e}")
        });
    }
}

#[test]
fn check_recovers_from_faults() {
    let spec = ctl::parse("AG (AF x)").expect("parse");
    assert_fault_recovery("check", toggle, |c| c.check(&spec).map(|v| (v.holds(), v.states)));
}

#[test]
fn check_with_trace_recovers_from_faults() {
    let spec = ctl::parse("AG x").expect("parse");
    assert_fault_recovery("check_with_trace", toggle, |c| {
        c.check_with_trace(&spec).map(|o| (o.verdict.holds(), o.verdict.states, o.trace))
    });
}

#[test]
fn check_states_recovers_from_faults() {
    let spec = ctl::parse("E [!x U x]").expect("parse");
    assert_fault_recovery("check_states", toggle, |c| c.check_states(&spec));
}

#[test]
fn witness_recovers_from_faults() {
    let spec = ctl::parse("EF x").expect("parse");
    assert_fault_recovery("witness", toggle, |c| c.witness(&spec));
}

#[test]
fn counterexample_recovers_from_faults() {
    let spec = ctl::parse("AG x").expect("parse");
    assert_fault_recovery("counterexample", toggle, |c| c.counterexample(&spec));
}

#[test]
fn check_ctlstar_recovers_from_faults() {
    let spec = ctlstar::parse("E (G F x)").expect("parse");
    assert_fault_recovery("check_ctlstar", || free_bit(false), |c| c.check_ctlstar(&spec));
}

#[test]
fn witness_ctlstar_recovers_from_faults() {
    let spec = ctlstar::parse("E (G F x | F G !x)").expect("parse");
    assert_fault_recovery("witness_ctlstar", || free_bit(false), |c| c.witness_ctlstar(&spec));
}

#[test]
fn fair_recovers_from_faults() {
    assert_fault_recovery("fair", || free_bit(true), |c| c.fair());
}

#[test]
fn fair_eg_witness_recovers_from_faults() {
    // The restart-based lasso construction exercises the ring machinery
    // (witness/eg.rs) end to end.
    let spec = ctl::parse("EG true").expect("parse");
    assert_fault_recovery("fair witness", || free_bit(true), |c| c.witness(&spec));
}

/// A fair model whose first fair-cycle attempt fails: from `s = 0` the
/// walk hops to the nearest fair state `s = 1` and makes it the cycle
/// anchor, but `1 -> 2 -> 2 …` never returns, so the construction
/// restarts once and closes the cycle at `s = 2` after the counter `c`
/// wraps. `s = 3` is unreachable yet leads back into the model, so
/// confining the closing arcs to the reachable states changes their
/// rings, never the trace.
const RESTART_ONCE: &str = "MODULE main
VAR s : 0..3; c : 0..5;
ASSIGN
  init(s) := 0;
  init(c) := 0;
  next(s) := case s = 0 : {0, 1}; s = 1 : 2; s = 2 : 2; TRUE : {3, 0}; esac;
  next(c) := case c = 5 : 0; TRUE : c + 1; esac;
FAIRNESS s = 1 | s = 2
SPEC EG TRUE
SPEC EF s = 2
SPEC AG s != 2
";

fn restart_once() -> SymbolicModel {
    let compiled = smc_smv::compile(RESTART_ONCE).expect("model compiles");
    let mut model = compiled.model;
    model.reachable().expect("reachable set");
    model
}

#[test]
fn fair_restart_witness_recovers_from_faults_anywhere() {
    // Every spec's trace, under both cycle strategies, with the witness
    // statistics of the `EG TRUE` lasso: the early-stopped closing arc,
    // the reach-confined path operand, the stay set and the rings the
    // check keeps in its memo all run here.
    let specs: Vec<_> = smc_smv::compile(RESTART_ONCE)
        .expect("model compiles")
        .specs
        .into_iter()
        .map(|s| s.formula)
        .collect();
    let run = |c: &mut Checker| {
        let mut out = Vec::new();
        for spec in &specs {
            let o = c.check_with_trace(spec)?;
            out.push((o.verdict.holds(), o.trace, c.last_witness_stats()));
        }
        Ok(out)
    };
    for strategy in [CycleStrategy::Restart, CycleStrategy::StaySet] {
        let mut model = restart_once();
        let before = model.manager().stats().created_nodes;
        let mut c = Checker::new(&mut model).with_strategy(strategy);
        let want = run(&mut c).expect("uninterrupted run");
        let allocations = c.model().manager().stats().created_nodes - before;
        let eg_stats = want[0].2.expect("EG TRUE built a fair lasso");
        assert_eq!(eg_stats.restarts, 1, "{strategy:?}: the first cycle attempt must fail");
        // A fault at every allocation the run makes, of both kinds.
        let points: Vec<(u64, bool)> =
            (1..=allocations + 1).flat_map(|at| [(at, true), (at, false)]).collect();
        let label = format!("fair restart witness ({strategy:?})");
        assert_fault_recovery_at(&label, restart_once, strategy, run, &points);
    }
}

/// Uninterrupted reference for the property below: verdict of
/// `AG (AF x)` and the full EU onion-ring sequence of `E[!x U x]` on the
/// toggle model.
fn toggle_reference() -> (bool, Vec<Bdd>, Trace) {
    let mut m = toggle();
    let x = m.ap("x").expect("declared");
    let nx = m.manager_mut().not(x);
    let rings = eu_rings(&mut m, nx, x).expect("unbudgeted rings");
    let mut c = Checker::new(&mut m);
    let holds = c.check(&ctl::parse("AG (AF x)").expect("parse")).expect("verdict").holds();
    let trace = c.witness(&ctl::parse("EF x").expect("parse")).expect("witness");
    (holds, rings, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite: interrupt a check at a random allocation count, confirm
    /// the structured error, re-run to completion on the same manager and
    /// assert the verdict and the EU ring sequence are bit-identical to
    /// an uninterrupted run.
    #[test]
    fn prop_random_interruption_recovers_bit_identically(
        at in 1u64..300,
        table_full in any::<bool>(),
    ) {
        let (want_holds, want_rings, want_trace) = toggle_reference();

        let mut m = toggle();
        let plan = if table_full {
            FaultPlan { table_full_at: Some(at), ..FaultPlan::new() }
        } else {
            FaultPlan { cancel_at: Some(at), ..FaultPlan::new() }
        };
        m.manager_mut().inject_faults(plan);

        // Stage 1: the EU ring sequence. Operand handles derived before a
        // trip are dummies/rolled back, so they are re-derived on retry.
        let rings = {
            let x = m.ap("x").expect("declared");
            let nx = m.manager_mut().not(x);
            match eu_rings(&mut m, nx, x) {
                Ok(r) => r,
                Err(CheckError::ResourceExhausted { .. }) => {
                    let x = m.ap("x").expect("declared");
                    let nx = m.manager_mut().not(x);
                    eu_rings(&mut m, nx, x).expect("one-shot fault cannot re-fire")
                }
                Err(other) => panic!("rings: unexpected error: {other}"),
            }
        };
        prop_assert_eq!(&rings, &want_rings, "ring sequence diverged after fault at {}", at);

        // Stage 2: verdict and witness through the checker on the same
        // manager (the one-shot fault may fire here if it did not above).
        let mut c = Checker::new(&mut m);
        let spec = ctl::parse("AG (AF x)").expect("parse");
        let holds = match c.check(&spec) {
            Ok(v) => v.holds(),
            Err(CheckError::ResourceExhausted { .. }) => {
                c.check(&spec).expect("one-shot fault cannot re-fire").holds()
            }
            Err(other) => panic!("check: unexpected error: {other}"),
        };
        prop_assert_eq!(holds, want_holds, "verdict diverged after fault at {}", at);
        let wit = ctl::parse("EF x").expect("parse");
        let trace = match c.witness(&wit) {
            Ok(t) => t,
            Err(CheckError::ResourceExhausted { .. }) => {
                c.witness(&wit).expect("one-shot fault cannot re-fire")
            }
            Err(other) => panic!("witness: unexpected error: {other}"),
        };
        prop_assert_eq!(trace, want_trace, "witness diverged after fault at {}", at);
    }
}
