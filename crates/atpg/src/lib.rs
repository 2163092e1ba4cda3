//! Sequential automatic test pattern generation (ATPG) with learned-data
//! integration.
//!
//! This crate is the ATPG substrate of the DAC-1998 reproduction: a
//! backtrack-limited, PODEM-style sequential test generator working on an
//! iterative logic array with an unknown (all-`X`) initial state, plus the
//! integration of the sequential learning results of [`sla_core`] in the two
//! modes compared by the paper (§4):
//!
//! * **forbidden-value implications** — the learned relation `a=v → b=w` marks
//!   `b=¬w` *forbidden* whenever `a=v` holds; forbidden values detect conflicts
//!   early and bias backtrace choices, without creating new justification
//!   obligations;
//! * **known-value implications** — the consequents are treated as required
//!   values (with transitive closure), which prunes more decisions but can add
//!   unnecessary requirements;
//! * **tied gates** — faults stuck at the tied value are untestable and are
//!   classified without any search.
//!
//! Generated tests are always validated by sequential fault simulation
//! ([`sla_sim::FaultSimulator`]), and every test sequence is fault-simulated
//! against the remaining fault list so detected faults are dropped, exactly as
//! in the paper's experimental flow.
//!
//! # Example
//!
//! ```
//! use sla_netlist::{GateType, NetlistBuilder};
//! use sla_sim::collapsed_fault_list;
//! use sla_atpg::{AtpgEngine, AtpgOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("demo");
//! b.input("a");
//! b.gate("g", GateType::Not, &["a"])?;
//! b.dff("q", "g")?;
//! b.output("q")?;
//! let netlist = b.build()?;
//!
//! let engine = AtpgEngine::new(&netlist, AtpgOptions::default())?;
//! let faults = collapsed_fault_list(&netlist);
//! let run = engine.run_with_threads(&faults, 1);
//! assert!(run.stats.detected > 0);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod engine;
pub mod learned;
pub mod machines;
pub mod tgen;

pub use config::{AtpgOptions, AtpgOptionsBuilder, LearningMode};
pub use engine::{AbortReason, AtpgEngine, AtpgRun, AtpgStats, FaultStatus, RunProgress};
pub use learned::{ImplicationLayer, IncrementalLayer, LearnedData, LiteralAdjacency};
pub use machines::{MachineMark, SearchMachines};
pub use tgen::{GenOutcome, GenResult, TestGenerator};

// The budget type lives in `sla-core` (the learner shares it); re-exported so
// ATPG-only callers need not depend on the learning crate directly.
pub use sla_core::WorkBudget;

/// Result alias: errors are structural netlist errors surfaced unchanged.
pub type Result<T> = std::result::Result<T, sla_netlist::NetlistError>;
