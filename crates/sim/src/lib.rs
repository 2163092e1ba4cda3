//! Simulation substrate for the sequential-learning / ATPG stack.
//!
//! The crate provides every simulation service the learning engine (the
//! `sla-core` crate, which depends on this one) and the ATPG engine
//! (`sla-atpg`) build on:
//!
//! * [`Logic3`] — three-valued logic (`0`, `1`, `X`) and gate evaluation,
//! * [`packed`] — 64-wide packed three-valued words ([`PackedWord`]) and gate
//!   evaluation, the word-parallel backbone behind batched injection
//!   simulation ([`InjectionSim::run_batch`]) and word-parallel fault
//!   dropping,
//! * [`CombEvaluator`] — single-frame evaluation of the combinational logic in
//!   levelized order, with forced (injected or tied) nodes and optional
//!   gate-equivalence value forwarding,
//! * [`EventSim`] — event-driven incremental multi-frame simulation with
//!   trail-based undo, the per-decision backbone of the ATPG search loop
//!   (only the affected cone is re-evaluated after an assignment),
//! * [`InjectionSim`] — the forward multi-time-frame simulator the paper's
//!   learning technique is built on: per-frame value injections, sequential
//!   element propagation rules (multi-port latches, partial set/reset, clock
//!   classes), state-repeat stopping and conflict detection,
//! * [`equiv`] — combinational equivalence-class detection by parallel-pattern
//!   (64-bit) simulation,
//! * [`fault`] / [`FaultSimulator`] — single stuck-at fault model, fault-list
//!   generation/collapsing and a sequential three-valued fault simulator,
//! * [`StateOracle`] — an exhaustive steady-state reachability oracle for small
//!   circuits, used to prove learned relations sound in tests.
//!
//! # Example
//!
//! ```
//! use sla_netlist::{GateType, NetlistBuilder};
//! use sla_sim::{InjectionSim, Injection, Logic3, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("demo");
//! b.input("a");
//! b.gate("g", GateType::Not, &["a"])?;
//! b.dff("q", "g")?;
//! b.output("q")?;
//! let netlist = b.build()?;
//!
//! let sim = InjectionSim::new(&netlist)?;
//! let a = netlist.require("a")?;
//! let q = netlist.require("q")?;
//! let trace = sim.run(&[Injection::new(a, false, 0)], &SimOptions::default());
//! // a = 0 in frame 0 drives the inverter to 1, captured by the flip-flop in frame 1.
//! assert_eq!(trace.value(1, q), Logic3::One);
//! # Ok(())
//! # }
//! ```

#[path = "equiv_impl.rs"]
pub mod equiv;
pub mod eval;
pub mod event;
#[path = "fault_impl.rs"]
pub mod fault;
mod fault_sim;
mod frame;
mod inject;
mod oracle;
pub mod packed;
mod value;

pub use equiv::{find_equivalences, EquivClasses, EquivConfig};
pub use eval::{eval_gate3, eval_gate3_at, eval_gate64};
pub use event::EventSim;
pub use fault::{collapsed_fault_list, full_fault_list, Fault, FaultSite};
pub use fault_sim::{detected_faults, FaultSimulator, TestSequence};
pub use frame::CombEvaluator;
pub use inject::{Conflict, Injection, InjectionSim, SimOptions, Trace};
pub use oracle::{OracleError, StateOracle};
pub use packed::{eval_gate3x64, LaneTrace, PackedTraces, PackedWord, TraceRead};
pub use value::Logic3;

/// Result alias for simulation-layer errors, which are netlist errors
/// (levelization failures, unknown nodes) surfaced unchanged.
pub type Result<T> = std::result::Result<T, sla_netlist::NetlistError>;
