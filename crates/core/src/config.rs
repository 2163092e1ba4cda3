//! Configuration of the sequential learning engine.
//!
//! [`LearnOptions`] is the session-facing configuration type: construct it
//! with [`LearnOptions::builder`] or one of the named presets, tweak an
//! existing value with [`LearnOptions::to_builder`]. The struct is
//! `#[non_exhaustive]` so new knobs can be added without breaking downstream
//! construction sites; the fields stay public for reading.

use crate::budget::WorkBudget;
use sla_sim::EquivConfig;

/// Tuning knobs of [`crate::SequentialLearner`].
///
/// The defaults reproduce the configuration used in the paper's experiments:
/// 50-frame simulation, single- and multiple-node learning and
/// gate-equivalence assistance. The paper's real-circuit handling is not
/// configurable: learning always runs per clock class (§3.3.2) and always
/// obeys the set/reset and multiple-port-latch propagation rules
/// (§3.3.1 / §3.3.3).
///
/// Non-exhaustive: build one with [`LearnOptions::builder`] or a preset like
/// [`LearnOptions::single_node_only`]; the fields are public for reading only.
///
/// ```
/// use sla_core::LearnOptions;
///
/// let opts = LearnOptions::builder().max_frames(20).cross_frame(true).build();
/// assert_eq!(opts.max_frames, 20);
/// assert!(opts.learn_cross_frame);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LearnOptions {
    /// Maximum number of time frames a forward simulation may span (paper: 50).
    pub max_frames: usize,
    /// Run the multiple-node learning phase (paper §3.1, second half).
    pub multiple_node: bool,
    /// Use combinational gate equivalences to push values further.
    pub gate_equivalence: bool,
    /// Also collect relations between nodes at different time frames. They are
    /// reported separately; under a learning mode the ATPG compiles them into
    /// its implication adjacency and prunes decisions in neighbouring frames
    /// with them.
    pub learn_cross_frame: bool,
    /// Configuration of the gate-equivalence detection pass.
    pub equiv_config: EquivConfig,
    /// Upper bound on the number of multiple-node learning targets (0 = no
    /// bound). Large industrial circuits can have very many targets; the bound
    /// keeps preprocessing time predictable while learning the most supported
    /// targets first.
    pub max_multi_node_targets: usize,
    /// Deterministic work budget for the whole learning run: one unit per
    /// stem injection and one per multiple-node learning target. When the
    /// budget runs out, the remaining stems/targets are skipped — the
    /// truncation happens *before* the parallel passes, so the learned
    /// database is bit-identical for every `SLA_THREADS`. Unlimited by
    /// default.
    pub budget: WorkBudget,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            max_frames: 50,
            multiple_node: true,
            gate_equivalence: true,
            learn_cross_frame: false,
            equiv_config: EquivConfig::default(),
            max_multi_node_targets: 0,
            budget: WorkBudget::unlimited(),
        }
    }
}

impl LearnOptions {
    /// Starts a builder from the defaults.
    pub fn builder() -> LearnOptionsBuilder {
        LearnOptionsBuilder {
            opts: LearnOptions::default(),
        }
    }

    /// Starts a builder from this value, for tweaking a knob or two.
    pub fn to_builder(&self) -> LearnOptionsBuilder {
        LearnOptionsBuilder { opts: self.clone() }
    }

    /// Single-node learning only (the first ablation of Table 2).
    pub fn single_node_only() -> Self {
        Self::builder()
            .multiple_node(false)
            .gate_equivalence(false)
            .build()
    }

    /// Single- and multiple-node learning without gate-equivalence assistance
    /// (the second ablation of Table 2).
    pub fn without_equivalence() -> Self {
        Self::builder().gate_equivalence(false).build()
    }
}

/// Builder for [`LearnOptions`]; see [`LearnOptions::builder`].
#[derive(Debug, Clone)]
pub struct LearnOptionsBuilder {
    opts: LearnOptions,
}

impl LearnOptionsBuilder {
    /// Frame limit of forward simulation (clamped to at least one frame).
    pub fn max_frames(mut self, frames: usize) -> Self {
        self.opts.max_frames = frames.max(1);
        self
    }

    /// Whether the multiple-node learning phase runs.
    pub fn multiple_node(mut self, enabled: bool) -> Self {
        self.opts.multiple_node = enabled;
        self
    }

    /// Whether gate-equivalence assistance runs.
    pub fn gate_equivalence(mut self, enabled: bool) -> Self {
        self.opts.gate_equivalence = enabled;
        self
    }

    /// Whether cross-frame relations are also collected.
    pub fn cross_frame(mut self, enabled: bool) -> Self {
        self.opts.learn_cross_frame = enabled;
        self
    }

    /// Configuration of the gate-equivalence detection pass.
    pub fn equiv_config(mut self, config: EquivConfig) -> Self {
        self.opts.equiv_config = config;
        self
    }

    /// Upper bound on multiple-node learning targets (0 = no bound).
    pub fn max_multi_node_targets(mut self, bound: usize) -> Self {
        self.opts.max_multi_node_targets = bound;
        self
    }

    /// Deterministic work budget for the whole learning run.
    pub fn budget(mut self, budget: WorkBudget) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> LearnOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = LearnOptions::default();
        assert_eq!(c.max_frames, 50);
        assert!(c.multiple_node);
        assert!(c.gate_equivalence);
        assert!(!c.learn_cross_frame);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!LearnOptions::single_node_only().multiple_node);
        assert!(!LearnOptions::single_node_only().gate_equivalence);
        assert!(!LearnOptions::without_equivalence().gate_equivalence);
        assert!(LearnOptions::without_equivalence().multiple_node);
        assert_eq!(LearnOptions::builder().max_frames(0).build().max_frames, 1);
        assert_eq!(LearnOptions::builder().max_frames(7).build().max_frames, 7);
    }

    #[test]
    fn builder_covers_every_knob() {
        let c = LearnOptions::builder()
            .max_frames(9)
            .multiple_node(false)
            .gate_equivalence(false)
            .cross_frame(true)
            .equiv_config(EquivConfig::default())
            .max_multi_node_targets(11)
            .budget(WorkBudget::units(5))
            .build();
        assert_eq!(c.max_frames, 9);
        assert!(!c.multiple_node);
        assert!(!c.gate_equivalence);
        assert!(c.learn_cross_frame);
        assert_eq!(c.max_multi_node_targets, 11);
        assert_eq!(c.budget, WorkBudget::units(5));
        assert_eq!(c.to_builder().build(), c, "to_builder round-trips");
    }
}
