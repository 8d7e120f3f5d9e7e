//! The structural results of the paper's evaluation (EXPERIMENTS.md,
//! EXP-1..8 and ablation A1), pinned exactly: verdicts, state counts,
//! trace and cycle lengths, restarts, stay-set exits and SCCs spanned.
//! The timings behind the same tables come from `smc bench` (families
//! `seitz`, `minimal`, `explicit`, and the `check`/`witness` phases of
//! the model families).
//!
//! Run with `cargo test --test paper_experiments`.

use smc::automata::{accepts, check_containment, Acceptance, ContainmentOutcome, OmegaAutomaton};
use smc::bench::{
    hamiltonian_instance, random_fair_graph, scc_chain, single_scc_ring, to_symbolic_with_fairness,
};
use smc::checker::{Checker, CycleStrategy, ResolvedSide};
use smc::circuits::arbiter::seitz_arbiter;
use smc::circuits::families::inverter_ring;
use smc::circuits::FairnessMode;
use smc::explicit::{greedy_fair_lasso, minimal_fair_lasso, ExplicitChecker};
use smc::kripke::{condensation, ExplicitModel};
use smc::logic::{ctl, ctlstar};

/// EXP-1: the Seitz arbiter case study (Section 6, Figure 3).
#[test]
fn exp1_seitz_arbiter_counterexample() {
    let mut model = seitz_arbiter().build().unwrap();
    assert_eq!(model.reachable_count().unwrap(), 12_288.0);
    let mut checker = Checker::new(&mut model);
    assert!(checker.check(&ctl::parse("AG !(meo1 & meo2)").unwrap()).unwrap().holds());
    let spec = ctl::parse("AG (tr1 -> AF ta1)").unwrap();
    assert!(!checker.check(&spec).unwrap().holds());
    let cx = checker.counterexample(&spec).unwrap();
    assert_eq!((cx.len(), cx.cycle_len()), (19, 16));
    assert!(cx.is_path_of(checker.model()));
}

/// The fair `EG true` witness on `graph` (fairness label `p`) under
/// `strategy`: `(length, cycle, restarts, stay-set exits, SCCs spanned)`.
fn witness_shape(graph: &ExplicitModel, strategy: CycleStrategy) -> [usize; 5] {
    let mut model = to_symbolic_with_fairness(graph, 0).unwrap();
    let p = model.ap("p").unwrap();
    model.add_fairness(p);
    let mut checker = Checker::new(&mut model).with_strategy(strategy);
    let w = checker.witness(&ctl::parse("EG true").unwrap()).unwrap();
    let stats = checker.last_witness_stats().expect("EG witness ran");
    assert!(w.is_path_of(checker.model()));
    let (explicit, states) = checker.model().enumerate(1 << 16).unwrap();
    let path: Vec<usize> = w
        .states
        .iter()
        .map(|s| states.iter().position(|t| t == s).expect("witness states are reachable"))
        .collect();
    let spanned = condensation(&explicit).components_visited(&path).len();
    [w.len(), w.cycle_len(), stats.restarts, stats.stay_exits, spanned]
}

/// EXP-2/3 (Figures 1 and 2) and ablation A1: witness shapes under both
/// cycle-closing strategies.
#[test]
fn exp2_exp3_a1_witness_shapes() {
    use CycleStrategy::{Restart, StaySet};
    assert_eq!(witness_shape(&single_scc_ring(8), Restart), [9, 8, 0, 0, 1]);
    for (k, strategy, shape) in [
        (3, Restart, [8, 2, 1, 0, 3]),
        (3, StaySet, [7, 2, 2, 2, 3]),
        (6, Restart, [14, 2, 1, 0, 6]),
        (6, StaySet, [13, 2, 5, 5, 6]),
        (10, Restart, [22, 2, 1, 0, 10]),
        (10, StaySet, [21, 2, 9, 9, 10]),
    ] {
        assert_eq!(witness_shape(&scc_chain(k), strategy), shape, "chain({k}) {strategy:?}");
    }
}

/// EXP-4 (Theorem 1): the minimal fair lasso is Hamiltonian, the greedy
/// one half again as long.
#[test]
fn exp4_minimal_vs_greedy_witness() {
    for n in [4, 6, 8, 10, 12] {
        let (graph, masks) = hamiltonian_instance(n);
        let minimal = minimal_fair_lasso(&graph, &masks, 0).expect("the ring is fair");
        let greedy = greedy_fair_lasso(&graph, &masks, &vec![true; n], 0).expect("fair");
        assert!(minimal.is_valid(&graph, &masks) && greedy.is_valid(&graph, &masks));
        assert_eq!((minimal.len(), greedy.len()), (n, 3 * n / 2), "n = {n}");
    }
}

/// EXP-5 (Section 7): CTL* fairness-class witnesses on a random model.
#[test]
fn exp5_ctlstar_fairness_class_witnesses() {
    let mut model = to_symbolic_with_fairness(&random_fair_graph(24, 7, 2), 0).unwrap();
    let mut checker = Checker::new(&mut model);
    let fails = ctlstar::parse("E (F G !p)").unwrap();
    assert!(!checker.check_ctlstar(&fails).unwrap().0);
    use ResolvedSide::Gf;
    for (text, expected) in [
        ("E (G F p)", &[Gf][..]),
        ("E (G F f0 & G F f1)", &[Gf, Gf]),
        ("E ((G F p | F G !p) & G F f0)", &[Gf, Gf]),
    ] {
        let formula = ctlstar::parse(text).unwrap();
        assert!(checker.check_ctlstar(&formula).unwrap().0, "{text}");
        let (w, sides) = checker.witness_ctlstar(&formula).unwrap();
        assert_eq!((w.len(), w.cycle_len()), (4, 3), "{text}");
        assert_eq!(sides, expected, "{text}");
        assert!(w.is_path_of(checker.model()), "{text}");
    }
}

/// EXP-6 (Section 8): Streett language containment and its
/// counterexample word.
#[test]
fn exp6_language_containment_word() {
    // "infinitely many a" vs "infinitely many b".
    let alphabet: Vec<String> = vec!["a".into(), "b".into()];
    let mut inf_a = OmegaAutomaton::new(2, 0, alphabet.clone());
    let mut inf_b = OmegaAutomaton::new(2, 0, alphabet);
    for s in 0..2 {
        inf_a.add_transition(s, 0, 1);
        inf_a.add_transition(s, 1, 0);
        inf_b.add_transition(s, 1, 1);
        inf_b.add_transition(s, 0, 0);
    }
    inf_a.set_acceptance(Acceptance::buchi([1]));
    inf_b.set_acceptance(Acceptance::buchi([1]));
    match check_containment(&inf_a, &inf_b).unwrap() {
        ContainmentOutcome::Fails { word, .. } => {
            assert_eq!(word.render(inf_a.alphabet()), "a (a)^ω");
            assert!(accepts(&inf_a, &word) && !accepts(&inf_b, &word));
        }
        ContainmentOutcome::Holds => panic!("L(GF a) is not contained in L(GF b)"),
    }
    assert!(matches!(check_containment(&inf_a, &inf_a).unwrap(), ContainmentOutcome::Holds));
}

/// EXP-8: symbolic and explicit checking agree on the inverter rings.
/// The explicit side stops at ring(9): enumerating and checking
/// ring(13) takes over a second in a debug build; the `explicit` bench
/// family covers it.
#[test]
fn exp8_symbolic_and_explicit_verdicts_agree() {
    let spec = ctl::parse("AG (EF inv0)").unwrap();
    for (n, states) in [(5, 31.0), (9, 511.0), (13, 8191.0)] {
        let mut model = inverter_ring(n).build(FairnessMode::PerGate).unwrap();
        assert_eq!(model.reachable_count().unwrap(), states, "ring({n})");
        let symbolic = Checker::new(&mut model).check(&spec).unwrap().holds();
        assert!(symbolic, "ring({n})");
        if n <= 9 {
            let (graph, _) = model.enumerate(1 << 16).unwrap();
            let mut explicit = ExplicitChecker::new(&graph);
            explicit.auto_fairness();
            assert_eq!(explicit.check(&spec).unwrap(), symbolic, "ring({n})");
        }
    }
}
