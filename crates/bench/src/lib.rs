#![warn(missing_docs)]

//! # smc-bench — workload generators and the benchmark observatory
//!
//! Model builders for the paper's evaluation (EXPERIMENTS.md): the
//! Figure 1/2 witness-shape graphs, the Theorem 1 instances and random
//! fair graphs. `tests/paper_experiments.rs` pins their structural
//! results; [`observatory`] times them, with the rest of the families,
//! behind `smc bench`.

pub mod observatory;

use smc_kripke::{ExplicitModel, KripkeError, SymbolicModel};

/// A single directed ring of `n` states, one fairness label `p` on one
/// state — the Figure 1 workload (one SCC; the witness cycle closes on
/// the first attempt).
pub fn single_scc_ring(n: usize) -> ExplicitModel {
    assert!(n >= 2);
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for s in 0..n {
        let labels = if s == n / 2 { vec![p] } else { vec![] };
        g.add_state(&labels);
    }
    for s in 0..n {
        g.add_edge(s, (s + 1) % n);
    }
    g.add_initial(0);
    g
}

/// A chain of `k` two-state SCCs with the fairness label `p` only in
/// the terminal one — the Figure 2 workload (the witness construction
/// must restart and descend the SCC DAG).
pub fn scc_chain(k: usize) -> ExplicitModel {
    assert!(k >= 1);
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    for i in 0..k {
        let first = g.add_state(&[]);
        let labels = if i == k - 1 { vec![p] } else { vec![] };
        let second = g.add_state(&labels);
        g.add_edge(first, second);
        g.add_edge(second, first);
        if i > 0 {
            // Bridge from the previous SCC.
            g.add_edge(2 * i - 1, first);
        }
    }
    g.add_initial(0);
    g
}

/// The Theorem 1 reduction shape: an `n`-ring with skip chords and one
/// distinct fairness constraint per state, so the minimal finite
/// witness must be Hamiltonian. Returns the graph and the constraint
/// masks.
pub fn hamiltonian_instance(n: usize) -> (ExplicitModel, Vec<Vec<bool>>) {
    assert!(n >= 3);
    let mut g = ExplicitModel::new();
    for _ in 0..n {
        g.add_state(&[]);
    }
    for s in 0..n {
        g.add_edge(s, (s + 1) % n);
        g.add_edge(s, (s + 2) % n);
    }
    g.add_initial(0);
    let masks = (0..n).map(|k| (0..n).map(|s| s == k).collect()).collect();
    (g, masks)
}

/// A deterministic pseudo-random total graph with labels `p`, `f0`,
/// `f1`; `nfair` of the `f` labels become fairness constraints when the
/// caller wires them up.
pub fn random_fair_graph(n: usize, seed: u64, edge_factor: usize) -> ExplicitModel {
    let mut state = seed | 1;
    let mut next = move |m: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let mut g = ExplicitModel::new();
    let p = g.add_ap("p");
    let f0 = g.add_ap("f0");
    let f1 = g.add_ap("f1");
    for _ in 0..n {
        let mut labels = Vec::new();
        if next(2) == 0 {
            labels.push(p);
        }
        if next(2) == 0 {
            labels.push(f0);
        }
        if next(2) == 0 {
            labels.push(f1);
        }
        g.add_state(&labels);
    }
    for s in 0..n {
        g.add_edge(s, next(n));
        for _ in 0..edge_factor {
            g.add_edge(s, next(n));
        }
    }
    g.add_initial(0);
    g
}

/// Converts and wires `nfair` fairness labels into the symbolic model.
///
/// # Errors
///
/// Propagates [`KripkeError`] from the conversion.
pub fn to_symbolic_with_fairness(
    graph: &ExplicitModel,
    nfair: usize,
) -> Result<SymbolicModel, KripkeError> {
    let mut model = graph.to_symbolic()?;
    for k in 0..nfair {
        let set = model.ap(&format!("f{k}"))?;
        model.add_fairness(set);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_kripke::{condensation, tarjan_scc};

    #[test]
    fn ring_is_one_scc() {
        let g = single_scc_ring(7);
        assert_eq!(tarjan_scc(&g).len(), 1);
        assert!(g.is_total());
    }

    #[test]
    fn chain_has_k_sccs_in_a_path() {
        let g = scc_chain(4);
        let cond = condensation(&g);
        assert_eq!(cond.len(), 4);
        assert!(g.is_total());
        // Exactly one terminal component, holding the fairness label.
        let terminals: Vec<usize> = (0..cond.len()).filter(|&c| cond.is_terminal(c)).collect();
        assert_eq!(terminals.len(), 1);
        let p = g.ap_id("p").unwrap();
        assert!(cond.components[terminals[0]].iter().any(|&s| g.holds(s, p)));
    }

    #[test]
    fn hamiltonian_instance_is_total_with_n_masks() {
        let (g, masks) = hamiltonian_instance(6);
        assert!(g.is_total());
        assert_eq!(masks.len(), 6);
        for (k, m) in masks.iter().enumerate() {
            assert_eq!(m.iter().filter(|&&b| b).count(), 1);
            assert!(m[k]);
        }
    }

    #[test]
    fn random_graph_is_total_and_convertible() {
        for seed in 0..5 {
            let g = random_fair_graph(12, seed, 2);
            assert!(g.is_total());
            let mut model = to_symbolic_with_fairness(&g, 2).expect("total");
            assert!(model.reachable_count().unwrap() >= 1.0);
            assert_eq!(model.fairness().len(), 2);
        }
    }
}
