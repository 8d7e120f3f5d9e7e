//! Tests for the symbolic checker and the witness generator, including
//! the Figure 1 / Figure 2 witness-shape scenarios.
#![allow(clippy::unwrap_used)]

use smc_kripke::{condensation, ExplicitModel, State, SymbolicModel, SymbolicModelBuilder};
use smc_logic::{ctl, ctlstar};

use crate::checker::Checker;
use crate::error::CheckError;
use crate::witness::{CycleStrategy, Trace};

// ---------------------------------------------------------------------
// Test models
// ---------------------------------------------------------------------

/// x toggles every step.
fn toggle() -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").unwrap();
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.build().unwrap()
}

/// x free (may flip or stay), with optional fairness on x=1.
fn free_bit(fair_on_x: bool) -> SymbolicModel {
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("x").unwrap();
    b.init_zero();
    if fair_on_x {
        b.fairness_fn(|_, cur| cur[0]);
    }
    b.build().unwrap()
}

/// A graph model: chain of three 2-cycles {0,1} -> {2,3} -> {4,5}
/// (the SCC shape of Figure 2), with a label `bottom` on state 5.
fn three_scc_model() -> SymbolicModel {
    let mut g = ExplicitModel::new();
    let bottom = g.add_ap("bottom");
    let top = g.add_ap("top");
    for s in 0..6 {
        let mut labels = vec![];
        if s == 5 {
            labels.push(bottom);
        }
        if s <= 1 {
            labels.push(top);
        }
        g.add_state(&labels);
    }
    for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 4)] {
        g.add_edge(a, b);
    }
    g.add_initial(0);
    g.to_symbolic().unwrap()
}

/// Decodes a graph-model state back to its index.
fn index_of(s: &State) -> usize {
    s.0.iter().enumerate().fold(0, |acc, (i, &b)| acc | usize::from(b) << i)
}

// ---------------------------------------------------------------------
// Plain CTL checking
// ---------------------------------------------------------------------

#[test]
fn toggle_satisfies_alternation_specs() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    for (spec, expected) in [
        ("AG (AF x)", true),
        ("AG (x -> AX !x)", true),
        ("AG x", false),
        ("EF x", true),
        ("EG x", false),
        ("AG (EF !x)", true),
        ("E [!x U x]", true),
        ("A [!x U x]", true),
        ("AX x", true),
        ("AX (AX x)", false),
    ] {
        let verdict = c.check(&ctl::parse(spec).unwrap()).unwrap();
        assert_eq!(verdict.holds(), expected, "{spec}");
    }
}

#[test]
fn unknown_atoms_are_reported() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let err = c.check(&ctl::parse("AG missing").unwrap()).unwrap_err();
    assert_eq!(err, CheckError::UnknownAtom("missing".to_string()));
}

#[test]
fn fairness_changes_verdicts() {
    // Without fairness: the free bit can stay 0 forever, so AF x fails.
    let mut m = free_bit(false);
    let mut c = Checker::new(&mut m);
    assert!(!c.check(&ctl::parse("AF x").unwrap()).unwrap().holds());
    drop(c);
    // With "x infinitely often" fairness: AF x holds.
    let mut m = free_bit(true);
    let mut c = Checker::new(&mut m);
    assert!(c.check(&ctl::parse("AF x").unwrap()).unwrap().holds());
    // But AG x still fails (the path may visit 0 in between).
    assert!(!c.check(&ctl::parse("AG x").unwrap()).unwrap().holds());
}

// ---------------------------------------------------------------------
// Witnesses: EX, EU, EG
// ---------------------------------------------------------------------

#[test]
fn ex_witness_is_a_real_step() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EX x").unwrap()).unwrap();
    assert_eq!(w.states.len(), 2);
    assert!(!w.states[0].bit(0));
    assert!(w.states[1].bit(0));
    assert!(w.is_path_of(&m));
}

#[test]
fn eu_witness_walks_shortest_rings() {
    // 3-bit counter: reaching 7 from 0 takes exactly 7 steps.
    let mut b = SymbolicModelBuilder::new();
    let ids: Vec<_> = (0..3).map(|i| b.bool_var(&format!("b{i}")).unwrap()).collect();
    b.init_zero();
    for (i, id) in ids.iter().enumerate() {
        b.next_fn(*id, move |m, cur| {
            let carry = m.and_all(cur[..i].iter().copied());
            m.xor(cur[i], carry)
        });
    }
    let mut m = b.build().unwrap();
    let mut c = Checker::new(&mut m);
    let spec = ctl::parse("E [true U (b0 & b1 & b2)]").unwrap();
    let w = c.witness(&spec).unwrap();
    assert_eq!(w.states.len(), 8, "shortest path 0..=7");
    assert!(w.is_path_of(&m));
    assert_eq!(index_of(w.states.last().unwrap()), 7);
}

#[test]
fn eg_witness_is_a_valid_lasso() {
    let mut m = free_bit(false);
    let x_set = m.ap("x").unwrap();
    let mut c = Checker::new(&mut m);
    // EG x holds at the x=1 state; witness from init needs EF EG x.
    let w = c.witness(&ctl::parse("E [true U EG x]").unwrap()).unwrap();
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    // Every cycle state satisfies x.
    for s in w.cycle() {
        assert!(m.eval_state(x_set, s));
    }
}

#[test]
fn fair_eg_witness_visits_every_constraint_on_the_cycle() {
    // Two free bits; fairness demands a=1 i.o. and b=1 i.o.
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("a").unwrap();
    b.bool_var("b").unwrap();
    b.init_zero();
    b.fairness_fn(|_, cur| cur[0]);
    b.fairness_fn(|_, cur| cur[1]);
    let mut m = b.build().unwrap();
    let fair_a = m.ap("a").unwrap();
    let fair_b = m.ap("b").unwrap();
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    assert!(w.cycle_visits(&m, fair_a), "cycle must visit a");
    assert!(w.cycle_visits(&m, fair_b), "cycle must visit b");
}

#[test]
fn witness_for_failing_formula_is_refused() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let err = c.witness(&ctl::parse("EG x").unwrap()).unwrap_err();
    assert_eq!(err, CheckError::NothingToExplain);
}

// ---------------------------------------------------------------------
// Counterexamples (the paper's headline feature)
// ---------------------------------------------------------------------

#[test]
fn ag_counterexample_reaches_a_violation() {
    let mut m = toggle();
    let x_set = m.ap("x").unwrap();
    let mut c = Checker::new(&mut m);
    // AG !x fails; the counterexample must end in an x-state.
    let cx = c.counterexample(&ctl::parse("AG !x").unwrap()).unwrap();
    assert!(cx.is_path_of(&m));
    assert!(m.eval_state(x_set, cx.states.last().unwrap()));
}

#[test]
fn af_counterexample_is_a_lasso_avoiding_the_target() {
    let mut m = free_bit(false);
    let x_set = m.ap("x").unwrap();
    let mut c = Checker::new(&mut m);
    // AF x fails: the free bit can stay 0 forever. Counterexample =
    // witness for EG !x — a lasso never touching x.
    let cx = c.counterexample(&ctl::parse("AF x").unwrap()).unwrap();
    assert!(cx.is_lasso());
    assert!(cx.is_path_of(&m));
    for s in &cx.states {
        assert!(!m.eval_state(x_set, s), "counterexample must avoid x");
    }
}

#[test]
fn liveness_counterexample_shape_matches_the_paper() {
    // AG (top -> AF bottom) on the three-SCC chain fails: the run can
    // stay in the top SCC forever. The counterexample is a witness for
    // EF (top ∧ EG ¬bottom): a finite stem plus a cycle avoiding
    // `bottom`.
    let mut m = three_scc_model();
    let bottom = m.ap("bottom").unwrap();
    let mut c = Checker::new(&mut m);
    let spec = ctl::parse("AG (top -> AF bottom)").unwrap();
    assert!(!c.check(&spec).unwrap().holds());
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_lasso());
    assert!(cx.is_path_of(&m));
    for s in cx.cycle() {
        assert!(!m.eval_state(bottom, s), "cycle must avoid the ack");
    }
}

#[test]
fn au_counterexample_picks_a_violating_branch() {
    // A[!x U x] on the free bit fails: the path may stay at x=0 forever
    // (an EG ¬x lasso) — the counterexample must demonstrate one of the
    // two disjuncts of the AU negation.
    let mut m = free_bit(false);
    let x_set = m.ap("x").unwrap();
    let mut c = Checker::new(&mut m);
    let spec = ctl::parse("A [!x U x]").unwrap();
    assert!(!c.check(&spec).unwrap().holds());
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_path_of(&m));
    assert!(cx.is_lasso(), "the violation is 'x never happens'");
    for s in &cx.states {
        assert!(!m.eval_state(x_set, s));
    }
}

#[test]
fn au_counterexample_via_bad_prefix() {
    // A[p U q] can also fail through a ¬p∧¬q state before any q; build
    // a chain 0(p) -> 1(neither) -> 2(q), all with self-loops at 2.
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    let q = g.add_ap("q");
    g.add_state(&[p]);
    g.add_state(&[]);
    g.add_state(&[q]);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 2);
    g.add_initial(0);
    let mut m = g.to_symbolic().unwrap();
    let q_set = m.ap("q").unwrap();
    let p_set = m.ap("p").unwrap();
    let mut c = Checker::new(&mut m);
    let spec = ctl::parse("A [p U q]").unwrap();
    assert!(!c.check(&spec).unwrap().holds());
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_path_of(&m));
    // The trace must reach the ¬p∧¬q state without passing q first.
    let bad = cx.states.iter().position(|s| !m.eval_state(p_set, s) && !m.eval_state(q_set, s));
    let first_q = cx.states.iter().position(|s| m.eval_state(q_set, s));
    let bad = bad.expect("the violation state is on the trace");
    assert!(first_q.is_none_or(|fq| bad < fq), "violation before any q");
}

#[test]
fn counterexample_for_holding_formula_is_refused() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let err = c.counterexample(&ctl::parse("AG (AF x)").unwrap()).unwrap_err();
    assert_eq!(err, CheckError::NothingToExplain);
}

#[test]
fn check_with_trace_attaches_the_right_artifact() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let good = c.check_with_trace(&ctl::parse("AG (AF x)").unwrap()).unwrap();
    assert!(good.verdict.holds());
    assert!(good.trace.is_some(), "witness expected");
    let bad = c.check_with_trace(&ctl::parse("AG x").unwrap()).unwrap();
    assert!(!bad.verdict.holds());
    assert!(bad.trace.is_some(), "counterexample expected");
    // A propositional formula that holds gets no trace.
    let prop = c.check_with_trace(&ctl::parse("!x").unwrap()).unwrap();
    assert!(prop.verdict.holds());
    assert!(prop.trace.is_none());
}

// ---------------------------------------------------------------------
// Witness shapes: Figures 1 and 2
// ---------------------------------------------------------------------

/// Figure 1: the whole model is one SCC; the witness closes its cycle on
/// the first attempt (no restarts).
#[test]
fn figure1_single_scc_no_restarts() {
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for s in 0..4 {
        let labels = if s == 2 { vec![p] } else { vec![] };
        g.add_state(&labels);
    }
    // A 4-cycle: one SCC.
    for s in 0..4 {
        g.add_edge(s, (s + 1) % 4);
    }
    g.add_initial(0);
    let mut m = g.to_symbolic().unwrap();
    let p_set = m.ap("p").unwrap();
    m.add_fairness(p_set);
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
    let stats = c.last_witness_stats().unwrap();
    assert_eq!(stats.restarts, 0, "single SCC closes on first attempt");
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    assert!(w.cycle_visits(&m, p_set));
}

/// Figure 2: the fairness constraint lives in the terminal SCC of a
/// three-SCC chain; the first cycle attempt fails and the procedure
/// restarts, descending the SCC DAG.
#[test]
fn figure2_descends_the_scc_dag_with_restarts() {
    let mut m = three_scc_model();
    let bottom = m.ap("bottom").unwrap();
    m.add_fairness(bottom);
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
    let stats = c.last_witness_stats().unwrap();
    assert!(stats.restarts >= 1, "descent must restart at least once");
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    assert!(w.cycle_visits(&m, bottom));
    // The witness spans all three SCCs of the chain.
    let (explicit, states) = m.enumerate(64).unwrap();
    let cond = condensation(&explicit);
    let index_of_state = |s: &State| states.iter().position(|t| t == s).unwrap();
    let path: Vec<usize> = w.states.iter().map(index_of_state).collect();
    let visited = cond.components_visited(&path);
    assert_eq!(visited.len(), 3, "witness should span three SCCs");
}

/// Ablation A1: both strategies produce valid lassos; the stay-set
/// strategy reports its early exits.
#[test]
fn both_cycle_strategies_agree_on_validity() {
    for strategy in [CycleStrategy::Restart, CycleStrategy::StaySet] {
        let mut m = three_scc_model();
        let bottom = m.ap("bottom").unwrap();
        m.add_fairness(bottom);
        let mut c = Checker::new(&mut m).with_strategy(strategy);
        let w = c.witness(&ctl::parse("EG true").unwrap()).unwrap();
        assert!(w.is_lasso(), "{strategy:?}");
        assert!(w.is_path_of(&m), "{strategy:?}");
        assert!(w.cycle_visits(&m, bottom), "{strategy:?}");
    }
}

// ---------------------------------------------------------------------
// CTL* fairness class (Section 7)
// ---------------------------------------------------------------------

#[test]
fn ctlstar_gf_requires_infinite_visits() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let f = ctlstar::parse("E (G F x)").unwrap();
    let (holds, _) = c.check_ctlstar(&f).unwrap();
    assert!(holds, "the toggler visits x infinitely often");
    let g = ctlstar::parse("E (F G x)").unwrap();
    let (holds, _) = c.check_ctlstar(&g).unwrap();
    assert!(!holds, "the toggler never stays in x");
}

#[test]
fn ctlstar_witness_satisfies_the_chosen_sides() {
    let mut m = free_bit(false);
    let x_set = m.ap("x").unwrap();
    let mut c = Checker::new(&mut m);
    // (GF x ∨ FG !x) — both resolutions possible; the witness must pick
    // one and produce a valid lasso.
    let f = ctlstar::parse("E (G F x | F G !x)").unwrap();
    let (w, sides) = c.witness_ctlstar(&f).unwrap();
    assert_eq!(sides.len(), 1);
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    match sides[0] {
        crate::ResolvedSide::Gf => assert!(w.cycle_visits(&m, x_set)),
        crate::ResolvedSide::Fg => {
            for s in w.cycle() {
                assert!(!m.eval_state(x_set, s));
            }
        }
    }
}

#[test]
fn ctlstar_mixed_obligations() {
    // Two free bits: E (GF a ∧ FG b) — a path eventually keeping b=1
    // while toggling a.
    let mut b = SymbolicModelBuilder::new();
    b.bool_var("a").unwrap();
    b.bool_var("b").unwrap();
    b.init_zero();
    let mut m = b.build().unwrap();
    let a_set = m.ap("a").unwrap();
    let b_set = m.ap("b").unwrap();
    let mut c = Checker::new(&mut m);
    let f = ctlstar::parse("E (G F a & F G b)").unwrap();
    let (holds, _) = c.check_ctlstar(&f).unwrap();
    assert!(holds);
    let (w, _) = c.witness_ctlstar(&f).unwrap();
    assert!(w.is_lasso());
    assert!(w.is_path_of(&m));
    assert!(w.cycle_visits(&m, a_set), "GF a on the cycle");
    for s in w.cycle() {
        assert!(m.eval_state(b_set, s), "FG b on the cycle");
    }
}

#[test]
fn ctlstar_outside_class_is_reported() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let f = ctlstar::parse("E (x U !x)").unwrap();
    assert!(matches!(c.check_ctlstar(&f), Err(CheckError::OutsideFairnessClass(_))));
}

#[test]
fn ctlstar_unsatisfiable_witness_is_refused() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let f = ctlstar::parse("E (F G x)").unwrap();
    assert!(matches!(c.witness_ctlstar(&f), Err(CheckError::NothingToExplain)));
}

// ---------------------------------------------------------------------
// Trace utilities
// ---------------------------------------------------------------------

#[test]
fn compress_prefix_cuts_detours() {
    let s = |v: usize| State(vec![v & 1 == 1, v & 2 == 2]);
    // Prefix visits 0,1,0,2 (a detour through 1 and back), cycle 3,2.
    let mut t = Trace::lasso(vec![s(0), s(1), s(0), s(2), s(3), s(2)], 4);
    let removed = t.compress_prefix();
    assert_eq!(removed, 2);
    assert_eq!(t.states, vec![s(0), s(2), s(3), s(2)]);
    assert_eq!(t.loopback, Some(2));
    // Idempotent.
    assert_eq!(t.compress_prefix(), 0);
    // Finite traces compress too.
    let mut f = Trace::finite(vec![s(0), s(1), s(1), s(2)]);
    assert_eq!(f.compress_prefix(), 1);
    assert_eq!(f.states, vec![s(0), s(1), s(2)]);
    assert_eq!(f.loopback, None);
}

#[test]
fn checker_gc_reclaims_and_recomputes() {
    let mut m = three_scc_model();
    let mut c = Checker::new(&mut m);
    let spec = ctl::parse("AG (top -> AF bottom)").unwrap();
    assert!(!c.check(&spec).unwrap().holds());
    let reclaimed = c.gc();
    assert!(reclaimed > 0, "fixpoint iterations leave garbage");
    // Same verdict after collection; witness machinery still works.
    assert!(!c.check(&spec).unwrap().holds());
    let cx = c.counterexample(&spec).unwrap();
    assert!(cx.is_path_of(c.model()));
    assert!(cx.is_lasso());
}

#[test]
fn trace_metrics() {
    let t = Trace::lasso(vec![State(vec![false]), State(vec![true]), State(vec![false])], 1);
    assert_eq!(t.len(), 3);
    assert_eq!(t.prefix_len(), 1);
    assert_eq!(t.cycle_len(), 2);
    assert_eq!(t.cycle().len(), 2);
    assert!(t.is_lasso());
    let rendered = format!("{t}");
    assert!(rendered.contains("loop back to state 1"));

    let f = Trace::finite(vec![State(vec![true])]);
    assert_eq!(f.prefix_len(), 1);
    assert_eq!(f.cycle_len(), 0);
    assert!(!f.is_lasso());
}

#[test]
fn trace_render_uses_model_names() {
    let mut m = toggle();
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EF x").unwrap()).unwrap();
    let rendered = w.render(&m);
    assert!(rendered.contains("x=0"));
    assert!(rendered.contains("x=1"));
}

#[test]
fn trace_render_diff_shows_only_changes() {
    // A two-variable model where only one bit changes per step.
    let mut b = SymbolicModelBuilder::new();
    let x = b.bool_var("x").unwrap();
    let y = b.bool_var("y").unwrap();
    b.init_zero();
    b.next_fn(x, |m, cur| m.not(cur[0]));
    b.next_fn(y, |_, cur| cur[1]); // y constant
    let mut m = b.build().unwrap();
    let mut c = Checker::new(&mut m);
    let w = c.witness(&ctl::parse("EF x").unwrap()).unwrap();
    let rendered = w.render_diff(c.model());
    let lines: Vec<&str> = rendered.lines().collect();
    assert!(lines[0].contains("x=0 y=0"), "first state in full: {rendered}");
    assert_eq!(lines[1], "state 1: x=1", "only the change: {rendered}");
    // Lassos mark the loop in diff mode too.
    let lasso = c.witness(&ctl::parse("EG !y").unwrap()).unwrap();
    let rendered = lasso.render_diff(c.model());
    assert!(rendered.contains("-- loop"), "{rendered}");
}

#[test]
fn validate_rejects_a_corrupted_state_or_a_dropped_hop() {
    // A deterministic 3-bit counter with one initial state: its only
    // computation is the 8-state cycle, so changing any bit of any state,
    // or dropping any state, breaks the start, a step or the loop edge.
    let mut m = smc_smv::compile(
        "MODULE main\nVAR c : 0..7;\nASSIGN\n  init(c) := 0;\n  \
         next(c) := case c = 7 : 0; TRUE : c + 1; esac;\n",
    )
    .unwrap()
    .model;
    let lasso = Checker::new(&mut m).witness(&ctl::parse("EG TRUE").unwrap()).unwrap();
    assert_eq!(lasso.cycle_len(), 8);
    lasso.validate(&m).unwrap();
    let rejected = |m: &SymbolicModel, t: &Trace| {
        matches!(t.validate(m), Err(CheckError::WitnessConstruction(_)))
    };
    for i in 0..lasso.len() {
        for bit in 0..lasso.states[i].len() {
            let mut corrupted = lasso.clone();
            corrupted.states[i].0[bit] ^= true;
            assert!(rejected(&m, &corrupted), "bit {bit} of state {i} flipped");
        }
        let mut dropped = lasso.clone();
        dropped.states.remove(i);
        dropped.loopback =
            lasso.loopback.map(|l| if i < l { l - 1 } else { l.min(dropped.len() - 1) });
        assert!(rejected(&m, &dropped), "state {i} dropped");
    }
}

#[test]
fn validate_rejects_a_cycle_that_skips_a_fairness_constraint() {
    // x is free and fairness asks for x = 1 infinitely often: staying at
    // x = 0 is a path from the initial state, but not a fair one.
    let m = free_bit(true);
    let lo = State(vec![false]);
    let hi = State(vec![true]);
    Trace::lasso(vec![lo.clone(), hi.clone()], 0).validate(&m).unwrap();
    let unfair = Trace::lasso(vec![lo.clone()], 0).validate(&m);
    assert!(matches!(unfair, Err(CheckError::WitnessConstruction(_))), "{unfair:?}");
    let late_start = Trace::finite(vec![hi, lo]).validate(&m);
    assert!(matches!(late_start, Err(CheckError::WitnessConstruction(_))), "{late_start:?}");
}
