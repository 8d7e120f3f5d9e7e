//! Tests for the netlist semantics and the arbiter case study (EXP-1).

use smc_checker::Checker;
use smc_logic::ctl;

use crate::arbiter::{arbiter, seitz_arbiter};
use crate::families::{c_element_ring, inverter_ring, muller_pipeline};
use crate::netlist::{Comb, FairnessMode, Netlist, NetlistError};

// ---------------------------------------------------------------------
// Netlist construction
// ---------------------------------------------------------------------

#[test]
fn netlist_validation() {
    let mut n = Netlist::new();
    let a = n.declare("a", false).unwrap();
    assert!(matches!(n.declare("a", true), Err(NetlistError::DuplicateName(_))));
    // Undefined node fails at build.
    assert!(matches!(n.build(FairnessMode::PerGate), Err(NetlistError::Undefined(_))));
    n.make_gate(a, Comb::Const(false)).unwrap();
    assert!(matches!(n.make_gate(a, Comb::Const(true)), Err(NetlistError::AlreadyDefined(_))));
    assert_eq!(n.len(), 1);
    assert_eq!(n.name(a), "a");
    let mut model = n.build(FairnessMode::PerGate).expect("builds");
    assert_eq!(model.reachable_count().unwrap(), 1.0);
}

#[test]
fn single_gate_settles() {
    // A buffer of a constant-high: from init low it must fire once.
    let mut n = Netlist::new();
    let a = n.declare("a", false).unwrap();
    n.make_gate(a, Comb::Const(true)).unwrap();
    let mut model = n.build(FairnessMode::PerGate).expect("builds");
    assert_eq!(model.reachable_count().unwrap(), 2.0);
    let mut c = Checker::new(&mut model);
    // Fairness forces the gate to respond: AF a.
    assert!(c.check(&ctl::parse("AF a").unwrap()).unwrap().holds());
    // Without fairness the gate may lag forever.
    let mut unfair = n.build(FairnessMode::None).expect("builds");
    let mut c = Checker::new(&mut unfair);
    assert!(!c.check(&ctl::parse("AF a").unwrap()).unwrap().holds());
    // The `.stable` label is registered.
    assert!(c.check(&ctl::parse("EF a.stable").unwrap()).unwrap().holds());
}

#[test]
fn inverter_ring_oscillates_under_fairness() {
    let net = inverter_ring(3);
    let mut model = net.build(FairnessMode::PerGate).expect("builds");
    // One-gate-at-a-time interleaving reaches 7 of the 8 states from
    // 000 (the complement pattern stays out of reach).
    assert_eq!(model.reachable_count().unwrap(), 7.0);
    let mut c = Checker::new(&mut model);
    // The oscillator never settles: every fair path toggles inv0 forever.
    assert!(c.check(&ctl::parse("AG (AF inv0 & AF !inv0)").unwrap()).unwrap().holds());
    // The witness for EG true is a fair lasso visiting stability of each
    // gate infinitely often.
    let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
    assert!(w.is_lasso());
    assert!(w.is_path_of(&model));
    for g in 0..3 {
        let stable = model.ap(&format!("inv{g}.stable")).unwrap();
        assert!(w.cycle_visits(&model, stable), "gate {g} must stabilize i.o.");
    }
}

#[test]
fn even_ring_can_settle() {
    // A 2-ring (a latch) has stable states; fair paths may park there.
    let net = inverter_ring(2);
    let mut model = net.build(FairnessMode::PerGate).expect("builds");
    let mut c = Checker::new(&mut model);
    // From the unstable 00 start the latch resolves to 01 or 10 and can
    // stay: EF EG (inv0 <-> !inv1).
    assert!(c.check(&ctl::parse("EF (EG (inv0 <-> !inv1))").unwrap()).unwrap().holds());
}

#[test]
fn c_element_ring_circulates_forever() {
    for n in [3usize, 4, 6] {
        let net = c_element_ring(n);
        let mut model = net.build(FairnessMode::PerGate).expect("builds");
        // The ring has n(n-1) reachable states (rise/fall wavefront
        // positions around the ring).
        assert_eq!(model.reachable_count().unwrap(), (n * (n - 1)) as f64, "n={n}");
        let mut c = Checker::new(&mut model);
        // Under fairness every stage toggles infinitely often...
        assert!(c.check(&ctl::parse("AG (AF c0 & AF !c0)").unwrap()).unwrap().holds());
        // ...so no stage can freeze.
        assert!(!c.check(&ctl::parse("EG c0").unwrap()).unwrap().holds());
        // The oscillation witness is a fair lasso on which c0 both rises
        // and falls.
        let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
        assert!(w.is_lasso());
        assert!(w.is_path_of(c.model()));
        let c0 = c.model().ap("c0").unwrap();
        assert!(w.cycle().iter().any(|s| c.model().eval_state(c0, s)));
        assert!(w.cycle().iter().any(|s| !c.model().eval_state(c0, s)));
    }
}

#[test]
fn muller_pipeline_propagates_tokens() {
    let net = muller_pipeline(3);
    let mut model = net.build(FairnessMode::PerGate).expect("builds");
    let mut c = Checker::new(&mut model);
    // The environment can push a token through to the last stage.
    assert!(c.check(&ctl::parse("EF c2").unwrap()).unwrap().holds());
    // But the environment is lazy: nothing forces the token in.
    assert!(!c.check(&ctl::parse("AF c0").unwrap()).unwrap().holds());
}

// ---------------------------------------------------------------------
// SMV export
// ---------------------------------------------------------------------

#[test]
fn smv_export_matches_native_semantics() {
    // Export a small circuit to SMV, compile with the SMV frontend, and
    // compare verdicts with the native netlist build.
    let net = inverter_ring(3);
    let mut native = net.build(FairnessMode::PerGate).expect("builds");
    let source = net.to_smv();
    let mut exported = smc_smv::compile(&source).expect("exported SMV compiles");
    // The exported model carries the scheduler variable, so raw state
    // counts differ; projected properties must agree.
    for spec in ["AG (AF inv0 & AF !inv0)", "EF (inv0 & inv1)", "EG inv0", "AG (EF !inv2)"] {
        let f = ctl::parse(spec).unwrap();
        let native_holds = Checker::new(&mut native).check(&f).unwrap().holds();
        let exported_holds = Checker::new(&mut exported.model).check(&f).unwrap().holds();
        assert_eq!(native_holds, exported_holds, "{spec}");
    }
}

#[test]
fn smv_export_mentions_every_node_and_fairness() {
    let arb = seitz_arbiter();
    let source = arb.netlist.to_smv();
    assert!(source.contains("MODULE main"));
    assert!(source.contains("sel : 0..14;"));
    for name in ["ur1", "tr1", "ta1", "meo1", "mei2", "sa"] {
        assert!(source.contains(&format!("{name} : boolean;")), "{name}");
    }
    // 12 gates (6 per user) + sr + sa = 14 nodes, 2 inputs -> 12 FAIRNESS.
    assert_eq!(source.matches("FAIRNESS").count(), 12);
}

// ---------------------------------------------------------------------
// EXP-1: the arbiter case study
// ---------------------------------------------------------------------

#[test]
fn arbiter_reachable_state_space() {
    let arb = seitz_arbiter();
    let mut model = arb.build().expect("builds");
    // 14 nodes; the protocol cuts the 16384-state cube to 12288
    // reachable states (the paper's original netlist had 33,633 — same
    // order of magnitude, different exact netlist; see DESIGN.md).
    assert_eq!(model.num_state_vars(), 14);
    assert_eq!(model.reachable_count().unwrap(), 12288.0);
}

#[test]
fn arbiter_safety_holds() {
    let arb = seitz_arbiter();
    let mut model = arb.build().expect("builds");
    let mut c = Checker::new(&mut model);
    // Mutual exclusion of the grants.
    assert!(c.check(&ctl::parse("AG !(meo1 & meo2)").unwrap()).unwrap().holds());
    // The service stage is always re-reachable.
    assert!(c.check(&ctl::parse("AG (EF sr)").unwrap()).unwrap().holds());
    // Requests are actually serviceable.
    assert!(c.check(&ctl::parse("EF ua1").unwrap()).unwrap().holds());
    assert!(c.check(&ctl::parse("EF ua2").unwrap()).unwrap().holds());
}

#[test]
fn arbiter_liveness_fails_with_lasso_counterexample() {
    // The paper's headline: a liveness spec AG (r -> AF a) fails and the
    // checker produces a prefix+cycle counterexample.
    let arb = seitz_arbiter();
    let mut model = arb.build().expect("builds");
    let ua2 = model.ap("ua2").unwrap();
    let mut c = Checker::new(&mut model);
    let spec = ctl::parse("AG (ur2 -> AF ua2)").unwrap();
    assert!(!c.check(&spec).unwrap().holds(), "user 2 can starve");
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_lasso(), "liveness counterexamples are lassos");
    assert!(cx.is_path_of(&model), "the trace must replay");
    // The cycle keeps ua2 low forever...
    for s in cx.cycle() {
        assert!(!model.eval_state(ua2, s), "cycle must starve user 2");
    }
    // ...while honouring every gate's fairness constraint.
    for k in 0..model.fairness().len() {
        let constraint = model.fairness()[k];
        assert!(cx.cycle_visits(&model, constraint), "cycle must visit fairness constraint {k}");
    }
}

#[test]
fn arbiter_trial_liveness_fails_like_the_paper() {
    // The exact spec of the paper's case study: AG (tr1 -> AF ta1).
    let arb = seitz_arbiter();
    let mut model = arb.build().expect("builds");
    let mut c = Checker::new(&mut model);
    let spec = ctl::parse("AG (tr1 -> AF ta1)").unwrap();
    assert!(!c.check(&spec).unwrap().holds());
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_lasso());
    assert!(cx.is_path_of(&model));
    let ta1 = model.ap("ta1").unwrap();
    for s in cx.cycle() {
        assert!(!model.eval_state(ta1, s));
    }
}

#[test]
fn arbiter_without_fairness_fails_trivially() {
    // A pending unacknowledged request must make progress (the OR gate
    // fires or the acknowledge completes) — but only under fairness;
    // without it every gate may lag forever (Section 5).
    let spec = ctl::parse("AG ((ur1 & !ua1) -> AF (mei1 | ua1))").unwrap();
    let arb = seitz_arbiter();
    let mut model = arb.build_unfair().expect("builds");
    let mut c = Checker::new(&mut model);
    assert!(!c.check(&spec).unwrap().holds(), "unfair gates may stall");
    let mut fair_model = arb.build().expect("builds");
    let mut c = Checker::new(&mut fair_model);
    assert!(c.check(&spec).unwrap().holds(), "fairness forces progress");
}

#[test]
fn n_user_arbiter_scales() {
    let arb = arbiter(3);
    let mut model = arb.build().expect("builds");
    assert_eq!(model.num_state_vars(), 20);
    let mut c = Checker::new(&mut model);
    // Pairwise grant exclusion.
    assert!(c
        .check(&ctl::parse("AG (!(meo1 & meo2) & !(meo1 & meo3) & !(meo2 & meo3))").unwrap())
        .unwrap()
        .holds());
    // Starvation persists with more users.
    assert!(!c.check(&ctl::parse("AG (ur3 -> AF ua3)").unwrap()).unwrap().holds());
}

#[test]
#[should_panic(expected = "at least two users")]
fn arbiter_requires_two_users() {
    let _ = arbiter(1);
}
