//! Witness and counterexample traces.

use std::fmt;

use smc_bdd::Bdd;
use smc_kripke::{State, SymbolicModel};

use crate::error::CheckError;

/// An execution trace demonstrating a verdict: a finite path, optionally
/// closed into a *lasso* (finite prefix followed by a repeating cycle) —
/// the paper's "finite witness" representation of an infinite fair path.
///
/// For a lasso, `states[loopback..]` is the cycle: the successor of the
/// last state is `states[loopback]`. The paper's case-study metric
/// "seventy eight states long with a cycle of length thirty" corresponds
/// to [`len`](Self::len) and [`cycle_len`](Self::cycle_len).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The states of the trace, in execution order.
    pub states: Vec<State>,
    /// Index where the cycle begins, if the trace is a lasso.
    pub loopback: Option<usize>,
}

impl Trace {
    /// A finite (non-looping) trace.
    pub fn finite(states: Vec<State>) -> Trace {
        Trace { states, loopback: None }
    }

    /// A lasso trace with the cycle starting at `loopback`.
    ///
    /// # Panics
    ///
    /// Panics if `loopback` is out of range.
    pub fn lasso(states: Vec<State>, loopback: usize) -> Trace {
        assert!(loopback < states.len(), "loopback out of range");
        Trace { states, loopback: Some(loopback) }
    }

    /// Total number of states (prefix + cycle for lassos).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True for the empty trace (never produced by the generator).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Is this a lasso (does it represent an infinite path)?
    pub fn is_lasso(&self) -> bool {
        self.loopback.is_some()
    }

    /// Length of the non-repeating prefix.
    pub fn prefix_len(&self) -> usize {
        self.loopback.unwrap_or(self.states.len())
    }

    /// Length of the repeating cycle (0 for finite traces).
    pub fn cycle_len(&self) -> usize {
        self.loopback.map_or(0, |l| self.states.len() - l)
    }

    /// The cycle states (empty for finite traces).
    pub fn cycle(&self) -> &[State] {
        match self.loopback {
            Some(l) => &self.states[l..],
            None => &[],
        }
    }

    /// Removes detours from the prefix: whenever a state repeats within
    /// the prefix (common after SCC-descent restarts walk through the
    /// same region twice), the segment between the repetitions is cut.
    /// The cycle part is left untouched — its repetitions may be needed
    /// for fairness visits. Returns how many states were removed.
    ///
    /// The result is still a valid trace of the same model (every kept
    /// edge existed before).
    pub fn compress_prefix(&mut self) -> usize {
        let prefix_len = self.prefix_len();
        if prefix_len < 2 {
            return 0;
        }
        let mut kept: Vec<State> = Vec::with_capacity(prefix_len);
        let mut i = 0;
        while i < prefix_len {
            // Jump to the *last* occurrence of this state in the prefix.
            let state = &self.states[i];
            let last = (i..prefix_len)
                .rev()
                .find(|&j| &self.states[j] == state)
                .expect("i itself matches");
            kept.push(state.clone());
            i = last + 1;
        }
        // If the final kept prefix state already equals the cycle head,
        // drop it (the loopback edge covers it)? No: the edge kept->cycle
        // head must exist; keeping the state preserves the original edge
        // structure, so leave it.
        let removed = prefix_len - kept.len();
        if removed > 0 {
            let cycle: Vec<State> = self.states[prefix_len..].to_vec();
            let new_loopback = self.loopback.map(|_| kept.len());
            kept.extend(cycle);
            self.states = kept;
            self.loopback = new_loopback;
        }
        removed
    }

    /// Checks that every consecutive pair (and the loopback edge, for
    /// lassos) is a transition of `model`, i.e. that the trace replays.
    /// Each step is one evaluation of the transition relation at the
    /// pair's assignment: no BDD operation, so no image code is trusted.
    pub fn is_path_of(&self, model: &SymbolicModel) -> bool {
        for w in self.states.windows(2) {
            if !is_transition(model, &w[0], &w[1]) {
                return false;
            }
        }
        if let Some(l) = self.loopback {
            let last = self.states.last().expect("nonempty lasso");
            if !is_transition(model, last, &self.states[l]) {
                return false;
            }
        }
        true
    }

    /// Checks that the model can run this trace as a (fair) computation:
    /// it starts in an initial state, it [is a path](Self::is_path_of) of
    /// the model, and a lasso's cycle visits every fairness constraint.
    /// The engine runs this on every trace before rendering it, so a
    /// witness generator bug surfaces as an error, never as a wrong trace.
    ///
    /// Like the checks it is made of, it only evaluates existing BDDs at
    /// concrete states, so it creates no nodes and cannot trip a budget.
    ///
    /// # Errors
    ///
    /// [`CheckError::WitnessConstruction`] naming the first check that
    /// failed.
    pub fn validate(&self, model: &SymbolicModel) -> Result<(), CheckError> {
        let problem = if !self.states.first().is_some_and(|s| model.eval_state(model.init(), s)) {
            "does not start in an initial state"
        } else if !self.is_path_of(model) {
            "is not a path of the model"
        } else if self.is_lasso() && !model.fairness().iter().all(|&h| self.cycle_visits(model, h))
        {
            "has a cycle that misses a fairness constraint"
        } else {
            return Ok(());
        };
        Err(CheckError::WitnessConstruction(format!("trace rejected: it {problem}")))
    }

    /// Does some state of the cycle lie in `set`? (Fair lassos must visit
    /// every fairness constraint on the cycle.)
    pub fn cycle_visits(&self, model: &SymbolicModel, set: Bdd) -> bool {
        self.cycle().iter().any(|s| model.eval_state(set, s))
    }

    /// Do *all* states of the trace lie in `set`? (An `EG f` witness must
    /// satisfy `f` everywhere.)
    pub fn all_states_in(&self, model: &SymbolicModel, set: Bdd) -> bool {
        self.states.iter().all(|s| model.eval_state(set, s))
    }

    /// Renders the trace SMV-style: the first state in full, later
    /// states as the *changes* only — the readable form engineers
    /// actually diff (Section 9 of the paper asks for "a more readable
    /// form").
    pub fn render_diff(&self, model: &SymbolicModel) -> String {
        let names = model.state_var_names();
        let mut out = String::new();
        let mut prev: Option<&State> = None;
        for (i, s) in self.states.iter().enumerate() {
            if Some(i) == self.loopback {
                out.push_str("-- loop starts here --\n");
            }
            match prev {
                None => {
                    out.push_str(&format!("state {i}: {}\n", model.render_state(s)));
                }
                Some(p) => {
                    let changes: Vec<String> = (0..s.len())
                        .filter(|&j| s.bit(j) != p.bit(j))
                        .map(|j| format!("{}={}", names[j], u8::from(s.bit(j))))
                        .collect();
                    let line = if changes.is_empty() {
                        "(stutter)".to_string()
                    } else {
                        changes.join(" ")
                    };
                    out.push_str(&format!("state {i}: {line}\n"));
                }
            }
            prev = Some(s);
        }
        if let Some(lb) = self.loopback {
            out.push_str(&format!("-- loop back to state {lb} --\n"));
        }
        out
    }

    /// Renders the trace with the model's variable names, one state per
    /// line, marking the loop point.
    pub fn render(&self, model: &SymbolicModel) -> String {
        let mut out = String::new();
        for (i, s) in self.states.iter().enumerate() {
            if Some(i) == self.loopback {
                out.push_str("-- loop starts here --\n");
            }
            out.push_str(&format!("state {i}: {}\n", model.render_state(s)));
        }
        if let Some(lb) = self.loopback {
            out.push_str(&format!("-- loop back to state {lb} --\n"));
        }
        out
    }
}

/// Evaluates the transition relation at `from` (current variables) and
/// `to` (next-state variables).
fn is_transition(model: &SymbolicModel, from: &State, to: &State) -> bool {
    let width = model.num_state_vars();
    assert!(from.len() == width && to.len() == width, "state width mismatch");
    let mut dense = vec![false; model.manager().num_vars()];
    for i in 0..width {
        dense[model.cur_var(i).index()] = from.bit(i);
        dense[model.nxt_var(i).index()] = to.bit(i);
    }
    model.manager().eval(model.trans(), &dense)
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.states.iter().enumerate() {
            if Some(i) == self.loopback {
                writeln!(f, "-- loop starts here --")?;
            }
            writeln!(f, "state {i}: {s}")?;
        }
        if let Some(l) = self.loopback {
            writeln!(f, "-- loop back to state {l} --")?;
        }
        Ok(())
    }
}
