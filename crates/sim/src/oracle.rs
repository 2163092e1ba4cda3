//! Exhaustive steady-state reachability oracle for small circuits.
//!
//! The learned relations of the paper (same-frame implications between
//! flip-flops or between gates and flip-flops, and tied gates) are claims about
//! every state the circuit can be in after sufficiently many clock cycles,
//! *regardless of the power-up state*. For circuits with a small number of
//! state bits and inputs this can be checked exhaustively: iterate the image of
//! the universal state set until it stops shrinking — the fixpoint is exactly
//! the set of "steady" states in which every sound learned relation must hold.
//!
//! The oracle is the ground truth used by the test-suite to prove the learning
//! engine sound.

use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{Netlist, NodeId, NodeKind};
use std::fmt;

/// Errors produced when the oracle cannot be built for a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The circuit has too many state bits or inputs for exhaustive analysis.
    TooLarge {
        /// Number of sequential elements.
        state_bits: usize,
        /// Number of primary inputs.
        input_bits: usize,
    },
    /// The circuit uses features the oracle does not model (unconstrained
    /// set/reset, multiple-port latches, multiple clock domains).
    Unsupported(String),
    /// Structural error (for example a combinational cycle).
    Netlist(sla_netlist::NetlistError),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::TooLarge {
                state_bits,
                input_bits,
            } => write!(
                f,
                "circuit too large for exhaustive oracle ({state_bits} state bits, {input_bits} inputs)"
            ),
            OracleError::Unsupported(m) => write!(f, "oracle does not model: {m}"),
            OracleError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<sla_netlist::NetlistError> for OracleError {
    fn from(e: sla_netlist::NetlistError) -> Self {
        OracleError::Netlist(e)
    }
}

/// Exhaustive reachability oracle. See the module documentation.
#[derive(Debug, Clone)]
pub struct StateOracle<'a> {
    netlist: &'a Netlist,
    levels: Levelization<'a>,
    ffs: Vec<NodeId>,
    pis: Vec<NodeId>,
    steady: Vec<u64>,
}

impl<'a> StateOracle<'a> {
    /// Default limit on `state_bits + input_bits` for exhaustive enumeration.
    pub const DEFAULT_BIT_LIMIT: usize = 24;

    /// Builds the oracle and computes the steady-state set.
    ///
    /// # Errors
    ///
    /// * [`OracleError::TooLarge`] when `#FFs + #PIs` exceeds `bit_limit`.
    /// * [`OracleError::Unsupported`] for circuits with unconstrained set/reset,
    ///   multiple-port latches or more than one clock domain.
    /// * [`OracleError::Netlist`] when levelization fails.
    pub fn build(netlist: &'a Netlist, bit_limit: usize) -> Result<Self, OracleError> {
        let ffs: Vec<NodeId> = netlist.sequential_elements().collect();
        let pis: Vec<NodeId> = netlist.inputs().to_vec();
        if ffs.len() + pis.len() > bit_limit || ffs.len() >= 32 {
            return Err(OracleError::TooLarge {
                state_bits: ffs.len(),
                input_bits: pis.len(),
            });
        }
        let mut class = None;
        for &ff in &ffs {
            let info = netlist.seq_info(ff).expect("sequential element");
            if info.ports > 1 {
                return Err(OracleError::Unsupported("multiple-port latches".into()));
            }
            if info.set.is_unconstrained() || info.reset.is_unconstrained() {
                return Err(OracleError::Unsupported(
                    "unconstrained set/reset lines".into(),
                ));
            }
            let key = info.class_key();
            match class {
                None => class = Some(key),
                Some(k) if k == key => {}
                Some(_) => {
                    return Err(OracleError::Unsupported(
                        "multiple clock domains or mixed latch/flip-flop classes".into(),
                    ))
                }
            }
        }
        let levels = levelize(netlist)?;
        let mut oracle = StateOracle {
            netlist,
            levels,
            ffs,
            pis,
            steady: Vec::new(),
        };
        oracle.compute_steady_states();
        Ok(oracle)
    }

    /// Sequential elements in the bit order used by state codes.
    pub fn state_bits(&self) -> &[NodeId] {
        &self.ffs
    }

    /// The steady-state set, as sorted state codes (bit *i* = value of
    /// `state_bits()[i]`).
    pub fn steady_states(&self) -> &[u64] {
        &self.steady
    }

    /// Number of steady states.
    pub fn num_steady(&self) -> usize {
        self.steady.len()
    }

    /// Density of encoding in basis points (1/100 of a percent): steady
    /// states divided by all `2^n` states, so 10000 means every state is
    /// reachable. The paper identifies a low density of encoding as the key
    /// driver of sequential ATPG complexity.
    ///
    /// Integer on purpose: the determinism contract keeps float arithmetic
    /// out of the pipeline crates (`sla-lint` rule `float-arith`).
    pub fn density_of_encoding_bp(&self) -> u32 {
        let total = 1u128 << self.ffs.len();
        (self.steady.len() as u128 * 10_000 / total) as u32
    }

    /// Checks that the same-frame implication `a = va  ->  b = vb` holds in
    /// every steady state under every input combination.
    pub fn implication_holds(&self, a: NodeId, va: bool, b: NodeId, vb: bool) -> bool {
        self.for_all_evaluations(|values| {
            if values[a.index()] == va {
                values[b.index()] == vb
            } else {
                true
            }
        })
    }

    /// Checks that `node` always evaluates to `value` in every steady state
    /// under every input combination (a sequentially tied gate).
    pub fn tie_holds(&self, node: NodeId, value: bool) -> bool {
        self.for_all_evaluations(|values| values[node.index()] == value)
    }

    /// Runs `check` on the full node valuation of every (steady state, input)
    /// pair; returns `true` when the predicate holds everywhere.
    fn for_all_evaluations(&self, mut check: impl FnMut(&[bool]) -> bool) -> bool {
        let mut values = vec![false; self.netlist.num_nodes()];
        for &state in &self.steady {
            for input in 0..(1u64 << self.pis.len()) {
                self.eval_frame(state, input, &mut values);
                if !check(&values) {
                    return false;
                }
            }
        }
        true
    }

    fn compute_steady_states(&mut self) {
        let nbits = self.ffs.len();
        let total = 1usize << nbits;
        let mut current = vec![true; total];
        let mut values = vec![false; self.netlist.num_nodes()];
        loop {
            let mut next = vec![false; total];
            let mut next_count = 0usize;
            for state in 0..total as u64 {
                if !current[state as usize] {
                    continue;
                }
                for input in 0..(1u64 << self.pis.len()) {
                    self.eval_frame(state, input, &mut values);
                    let succ = self.next_state(&values);
                    if !next[succ as usize] {
                        next[succ as usize] = true;
                        next_count += 1;
                    }
                }
            }
            // The image of a set of states is a subset of the universal set; the
            // iteration is monotonically decreasing once intersected with the
            // previous set, and reaches a fixpoint in at most 2^n steps.
            let intersect: Vec<bool> = current.iter().zip(&next).map(|(&a, &b)| a && b).collect();
            let same = intersect == current;
            current = if next_count == 0 { next } else { intersect };
            if same || next_count == 0 {
                break;
            }
        }
        self.steady = (0..total as u64).filter(|&s| current[s as usize]).collect();
    }

    /// Two-valued evaluation of one frame from a packed state and input code.
    fn eval_frame(&self, state: u64, input: u64, values: &mut [bool]) {
        for (i, &ff) in self.ffs.iter().enumerate() {
            values[ff.index()] = (state >> i) & 1 == 1;
        }
        for (i, &pi) in self.pis.iter().enumerate() {
            values[pi.index()] = (input >> i) & 1 == 1;
        }
        for &id in self.levels.order() {
            let NodeKind::Gate(gate) = self.netlist.kind(id) else {
                continue;
            };
            let fanins = self.netlist.fanins(id);
            values[id.index()] = eval2(gate, fanins.iter().map(|f| values[f.index()]));
        }
    }

    fn next_state(&self, values: &[bool]) -> u64 {
        let mut s = 0u64;
        for (i, &ff) in self.ffs.iter().enumerate() {
            let data = self.netlist.fanins(ff)[0];
            if values[data.index()] {
                s |= 1 << i;
            }
        }
        s
    }
}

/// Two-valued gate evaluation.
fn eval2(gate: sla_netlist::GateType, mut fanins: impl Iterator<Item = bool>) -> bool {
    use sla_netlist::GateType as G;
    match gate {
        G::And => fanins.all(|b| b),
        G::Nand => !fanins.all(|b| b),
        G::Or => fanins.any(|b| b),
        G::Nor => !fanins.any(|b| b),
        G::Xor => fanins.fold(false, |a, b| a ^ b),
        G::Xnor => !fanins.fold(false, |a, b| a ^ b),
        G::Not => !fanins.next().unwrap_or(false),
        G::Buf => fanins.next().unwrap_or(false),
        G::Const0 => false,
        G::Const1 => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, LineConstraint, NetlistBuilder, SeqInfo};

    /// Two flip-flops that can never both be 1 in steady state:
    /// f1 <- a AND NOT f2, f2 <- b AND NOT f1 ... actually use a one-hot-ish
    /// pair: f1 <- a AND NOT f2, f2 <- NOT a AND NOT f1.
    fn exclusive_pair() -> Netlist {
        let mut b = NetlistBuilder::new("excl");
        b.input("a");
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("d1", GateType::And, &["a", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["na", "nf1"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.output("f1").unwrap();
        b.output("f2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn steady_states_exclude_unreachable_combination() {
        let n = exclusive_pair();
        let oracle = StateOracle::build(&n, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        // State (f1=1, f2=1) requires a AND !a in the previous frame - invalid.
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let bit = |ff: NodeId| oracle.state_bits().iter().position(|&x| x == ff).unwrap();
        let both = (1u64 << bit(f1)) | (1u64 << bit(f2));
        assert!(!oracle.steady_states().contains(&both));
        assert!(oracle.num_steady() >= 2);
        assert!(oracle.density_of_encoding_bp() < 10_000);
    }

    #[test]
    fn implication_and_tie_checks() {
        let n = exclusive_pair();
        let oracle = StateOracle::build(&n, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        // f1=1 -> f2=0 holds; f1=0 -> f2=1 does not (both can be 0).
        assert!(oracle.implication_holds(f1, true, f2, false));
        assert!(!oracle.implication_holds(f1, false, f2, true));
        // Nothing is tied in this circuit.
        assert!(!oracle.tie_holds(f1, false));
        let d1 = n.require("d1").unwrap();
        assert!(!oracle.tie_holds(d1, true));
    }

    #[test]
    fn tied_gate_is_recognised() {
        let mut b = NetlistBuilder::new("tied");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("t", GateType::And, &["a", "na"]).unwrap();
        b.gate("d", GateType::Or, &["t", "a"]).unwrap();
        b.dff("q", "d").unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        let oracle = StateOracle::build(&n, StateOracle::DEFAULT_BIT_LIMIT).unwrap();
        let t = n.require("t").unwrap();
        assert!(oracle.tie_holds(t, false));
        assert!(!oracle.tie_holds(t, true));
    }

    #[test]
    fn rejects_unsupported_features() {
        let mut b = NetlistBuilder::new("sr");
        b.input("a");
        b.seq(
            "q",
            "a",
            SeqInfo {
                set: LineConstraint::Unconstrained,
                ..SeqInfo::default()
            },
        )
        .unwrap();
        b.output("q").unwrap();
        let n = b.build().unwrap();
        assert!(matches!(
            StateOracle::build(&n, 24),
            Err(OracleError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_oversized_circuits() {
        let mut b = NetlistBuilder::new("big");
        for i in 0..30 {
            b.input(&format!("i{i}"));
        }
        b.gate("g", GateType::And, &["i0", "i1"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        assert!(matches!(
            StateOracle::build(&n, 24),
            Err(OracleError::TooLarge { .. })
        ));
    }

    #[test]
    fn free_running_counter_keeps_all_states() {
        // f1 <- NOT f1 : both states recur forever.
        let mut b = NetlistBuilder::new("osc");
        b.gate("d", GateType::Not, &["f1"]).unwrap();
        b.dff("f1", "d").unwrap();
        b.output("f1").unwrap();
        let n = b.build().unwrap();
        let oracle = StateOracle::build(&n, 24).unwrap();
        assert_eq!(oracle.num_steady(), 2);
        assert_eq!(oracle.density_of_encoding_bp(), 10_000);
    }
}
