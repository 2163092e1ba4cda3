//! Gate-level sequential netlist model for the sequential-learning / ATPG stack.
//!
//! This crate provides the structural substrate every other crate builds on:
//!
//! * [`Netlist`] — a flat arena of nodes (primary inputs, logic gates,
//!   flip-flops and latches) addressed by [`NodeId`], read by id for kind,
//!   fanins, fanouts and name,
//! * [`NetlistBuilder`] — a by-name construction API,
//! * an ISCAS-89 `.bench` [`parser`] and [`writer`] (with pragma extensions for
//!   clock domains, set/reset lines and multi-port latches),
//! * [`levelize`] — topological ordering of the combinational logic; its
//!   [`levelize::Levelization`] reads levels and evaluation positions,
//! * [`stems`] — fanout-stem identification (the injection points of the
//!   sequential learning technique).
//!
//! # Example
//!
//! ```
//! use sla_netlist::{GateType, NetlistBuilder};
//!
//! # fn main() -> Result<(), sla_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("example");
//! b.input("a");
//! b.input("b");
//! b.gate("g", GateType::And, &["a", "b"])?;
//! b.dff("q", "g")?;
//! b.output("q")?;
//! let netlist = b.build()?;
//! assert_eq!(netlist.num_nodes(), 4);
//! assert_eq!(netlist.sequential_elements().count(), 1);
//! # Ok(())
//! # }
//! ```

mod error;
mod gate;
mod netlist;
mod seq;

pub mod hash;
pub mod levelize;
pub mod parser;
pub mod stems;
pub mod wallclock;
pub mod writer;

pub use error::NetlistError;
pub use gate::{GateType, NodeKind};
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use netlist::{Netlist, NetlistBuilder, NetlistStats, NodeId};
pub use seq::{ClockEdge, ClockId, LineConstraint, SeqInfo, SeqKind};

/// Convenient result alias used across this crate.
pub type Result<T> = std::result::Result<T, NetlistError>;
