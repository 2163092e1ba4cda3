//! `seqlearn` — reproduction of *"A Fast Sequential Learning Technique for
//! Real Circuits with Application to Enhancing ATPG Performance"* (El-Maleh,
//! Kassab, Rajski — DAC 1998).
//!
//! This facade crate re-exports the workspace crates so applications can use a
//! single dependency:
//!
//! * [`netlist`] — gate-level sequential netlists, the `.bench` parser and
//!   structural analyses,
//! * [`sim`] — three-valued and parallel-pattern simulation, the fault model,
//!   the sequential fault simulator and the state-space oracle,
//! * [`learn`] — the paper's contribution: sequential learning of
//!   implications, invalid states and tied gates,
//! * [`atpg`] — the sequential test generator with forbidden-value /
//!   known-value integration of the learned data,
//! * [`redundancy`] — the FIRE baseline for fault-independent untestable-fault
//!   identification,
//! * [`circuits`] — paper-style example circuits and the synthetic / retimed /
//!   industrial benchmark generators,
//! * [`snapshot`] — checkpoint/resume snapshots and the shared binary codec,
//! * [`store`] — the persistent learned-knowledge store, the unified
//!   [`store::Session`] API and the `sla-serve` service layer.
//!
//! # Quick start
//!
//! ```
//! use seqlearn::circuits::paper_style_figure1;
//! use seqlearn::learn::{LearnOptions, SequentialLearner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = paper_style_figure1();
//! let result = SequentialLearner::new(&netlist, LearnOptions::default()).learn()?;
//! println!(
//!     "{} invalid-state relations, {} tied gates",
//!     result.invalid_state_relations(&netlist).len(),
//!     result.tied.len()
//! );
//! # Ok(())
//! # }
//! ```

pub use sla_atpg as atpg;
pub use sla_circuits as circuits;
pub use sla_core as learn;
pub use sla_netlist as netlist;
pub use sla_par as par;
pub use sla_redundancy as redundancy;
pub use sla_sim as sim;
pub use sla_snapshot as snapshot;
pub use sla_store as store;
