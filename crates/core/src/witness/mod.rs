//! Witness and counterexample construction (Section 6 of the paper).

pub mod eg;
pub mod reach;
pub mod strategy;
pub mod trace;

pub use eg::{witness_eg_fair, witness_eg_fair_with_rings, WitnessStats};
pub use reach::{witness_eu, witness_ex};
pub use strategy::CycleStrategy;
pub use trace::Trace;

use smc_kripke::State;

/// Splices a finite path onto a continuation trace whose first state is
/// the path's last state.
///
/// # Panics
///
/// Panics (debug builds) if the endpoints do not match.
pub(crate) fn splice(head: Vec<State>, tail: Trace) -> Trace {
    if head.is_empty() {
        return tail;
    }
    debug_assert_eq!(head.last(), tail.states.first(), "splice endpoints must coincide");
    let head_len = head.len() - 1;
    let mut states = head;
    states.pop();
    states.extend(tail.states);
    Trace { states, loopback: tail.loopback.map(|l| l + head_len) }
}
