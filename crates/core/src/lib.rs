//! Sequential learning of implications, invalid states and tied gates.
//!
//! This crate is the reproduction of the primary contribution of
//! *"A Fast Sequential Learning Technique for Real Circuits with Application to
//! Enhancing ATPG Performance"* (El-Maleh, Kassab, Rajski — DAC 1998).
//!
//! The technique is built on forward three-valued simulation across time
//! frames (provided by [`sla_sim`]):
//!
//! 1. **Single-node learning** ([`single_node`]) — both logic values are
//!    injected on every fanout stem and simulated forward for a bounded number
//!    of frames; implications between the nodes implied by the two polarities
//!    follow from the contrapositive law.
//! 2. **Tie-gate extraction** ([`tie`]) — a node driven to the same value by
//!    both polarities of a stem at the same frame can only ever take that
//!    value; conflicts during multiple-node injection prove the target tied.
//! 3. **Multiple-node learning** ([`multi_node`]) — for every `(node, value)`
//!    the set of stem assignments that produce it is recorded; the
//!    contrapositive value on the node implies the contrapositive of *all*
//!    those stem assignments, which are injected together and simulated
//!    forward, yielding relations single-stem analysis cannot find.
//! 4. **Gate-equivalence assistance** — combinationally equivalent gates keep
//!    consistent values during simulation so values propagate further.
//! 5. **Real-circuit rules** ([`classes`]) — learning is performed per clock
//!    class; propagation across multi-port latches and unconstrained set/reset
//!    elements is restricted exactly as in §3.3 of the paper.
//!
//! The learned same-frame relations between flip-flops are *invalid-state
//! relations*: `F6=1 → F4=0` states that every state with `F6=1 ∧ F4=1` is
//! invalid. They, the gate–flip-flop relations and the tied gates feed the
//! ATPG engine in `sla-atpg`.
//!
//! # Quick start
//!
//! ```
//! use sla_netlist::{GateType, NetlistBuilder};
//! use sla_core::{LearnOptions, SequentialLearner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two flip-flops that can never both be 1.
//! let mut b = NetlistBuilder::new("pair");
//! b.input("a");
//! b.gate("na", GateType::Not, &["a"])?;
//! b.gate("nf1", GateType::Not, &["f1"])?;
//! b.gate("nf2", GateType::Not, &["f2"])?;
//! b.gate("d1", GateType::And, &["a", "nf2"])?;
//! b.gate("d2", GateType::And, &["na", "nf1"])?;
//! b.dff("f1", "d1")?;
//! b.dff("f2", "d2")?;
//! b.output("f1")?;
//! b.output("f2")?;
//! let netlist = b.build()?;
//!
//! let result = SequentialLearner::new(&netlist, LearnOptions::default()).learn()?;
//! let f1 = netlist.require("f1")?;
//! let f2 = netlist.require("f2")?;
//! assert!(result.implications.implies(f1, true, f2, false));
//! # Ok(())
//! # }
//! ```

pub mod budget;
pub mod classes;
pub mod config;
pub mod db;
pub mod engine;
pub mod multi_node;
pub mod relation;
pub mod single_node;
pub mod tie;

pub use budget::WorkBudget;
pub use config::{LearnOptions, LearnOptionsBuilder};
pub use db::ImplicationDb;
pub use engine::{LearnResult, LearnStats, SequentialLearner};
pub use relation::{CrossImplication, Implication, Literal, RelationKind};
pub use tie::{TieKind, TiedGate};

/// Result alias for learning-layer operations (errors are structural netlist
/// errors surfaced unchanged).
pub type Result<T> = std::result::Result<T, sla_netlist::NetlistError>;
