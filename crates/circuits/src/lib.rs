//! Benchmark circuits for the sequential-learning / ATPG experiments.
//!
//! The paper evaluates on ISCAS-89/93 netlists, four retimed circuits and
//! three proprietary industrial designs, none of which can be redistributed
//! here. This crate provides substitutes for them, and these docs are where
//! the substitution is documented:
//!
//! * [`figures`] — reconstructions of the paper's Figure 1 / Figure 2 running
//!   examples that exhibit every learning phenomenon the text walks through,
//! * [`s27`](mod@s27) — the classic tiny ISCAS-89 sequential benchmark,
//! * [`synth`] — a deterministic random sequential circuit generator
//!   parameterized by input/output/flip-flop/gate counts,
//! * [`retimed`] — a generator of circuits with a very low density of encoding
//!   (many invalid states), the regime in which the paper's retimed circuits
//!   make sequential ATPG hard,
//! * [`industrial`] — a generator exercising the real-circuit features
//!   (multiple clock domains, partial set/reset, multi-port latches),
//! * [`table5`] — redundant logic guarded by mutually exclusive derived
//!   state behind mixed-depth flip-flop chains: the workload on which
//!   learned implications strictly prune the ATPG search (Table 5 regime),
//! * [`profiles`] — named circuit profiles mirroring the rows of Table 3 /
//!   Table 5, mapped onto the generators with a scale factor,
//! * [`scale`] — a layered generator whose logic depth is fixed while the
//!   area scales to millions of gates (the ingest / large-smoke workload).

pub mod figures;
pub mod industrial;
pub mod profiles;
pub mod retimed;
pub mod s27;
pub mod scale;
pub mod synth;
pub mod table5;

pub use figures::{paper_style_figure1, paper_style_figure2};
pub use industrial::{industrial_circuit, IndustrialConfig};
pub use profiles::{
    build_profile, profile_by_name, CircuitClass, CircuitProfile, TABLE3_PROFILES, TABLE4_PROFILES,
    TABLE5_PROFILES,
};
pub use retimed::{retimed_circuit, RetimedConfig};
pub use s27::s27;
pub use scale::{scale_circuit, ScaleConfig};
pub use synth::{synthesize, SynthConfig};
pub use table5::{table5_circuit, Table5Config};
