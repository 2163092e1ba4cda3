//! ATPG options.
//!
//! [`AtpgOptions`] is the session-facing configuration type: construct it
//! with [`AtpgOptions::builder`], tweak an existing value with
//! [`AtpgOptions::to_builder`]. The struct is `#[non_exhaustive]` so new
//! knobs can be added without breaking downstream construction sites; the
//! fields stay public for reading.

use sla_core::WorkBudget;

/// How learned relations are applied during test generation (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LearningMode {
    /// Learned data is ignored entirely (the "No learning" columns of Table 5).
    #[default]
    None,
    /// Relations act as forbidden values: conflicts are detected when a signal
    /// takes a forbidden value, and backtrace prefers inputs whose complement
    /// is forbidden. No extra justification obligations are created.
    ForbiddenValue,
    /// Relations act as known values: consequents become required values with
    /// transitive closure, pruning decisions at the cost of possibly
    /// unnecessary requirements.
    KnownValue,
}

impl LearningMode {
    /// Returns `true` when learned relations are consulted at all.
    pub fn uses_learning(self) -> bool {
        self != LearningMode::None
    }
}

/// Tuning knobs of the sequential test generator.
///
/// The time-frame window always grows geometrically (1, 2, 4, …,
/// `max_window`): smaller windows are much cheaper and detect most faults.
/// Decisions per fault are capped by a fixed safety net against degenerate
/// search trees on large circuits.
///
/// Non-exhaustive: build one with [`AtpgOptions::builder`] (or start from an
/// existing value with [`AtpgOptions::to_builder`]); the fields are public
/// for reading only.
///
/// ```
/// use sla_atpg::{AtpgOptions, LearningMode};
///
/// let opts = AtpgOptions::builder()
///     .backtrack_limit(1000)
///     .learning(LearningMode::ForbiddenValue)
///     .build();
/// assert_eq!(opts.backtrack_limit, 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AtpgOptions {
    /// Maximum number of backtracks per target fault (the paper uses 30 and
    /// 1000 in its two experiment stages).
    pub backtrack_limit: usize,
    /// Maximum number of time frames the iterative array may span.
    pub max_window: usize,
    /// How learned relations are used.
    pub learning: LearningMode,
    /// Fault-simulate each generated test against the remaining fault list and
    /// drop everything it detects.
    pub fault_dropping: bool,
    /// Deterministic work budget for the whole run: one unit per decision and
    /// one per backtrack, charged at the serial merge boundary so the stopping
    /// point is bit-identical for every `SLA_THREADS`. When the budget runs
    /// out, already-merged verdicts are kept and the unprocessed tail is
    /// classified `Aborted(Budget)`. Unlimited by default.
    pub budget: WorkBudget,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        AtpgOptions {
            backtrack_limit: 30,
            max_window: 8,
            learning: LearningMode::None,
            fault_dropping: true,
            budget: WorkBudget::unlimited(),
        }
    }
}

impl AtpgOptions {
    /// Starts a builder from the defaults.
    pub fn builder() -> AtpgOptionsBuilder {
        AtpgOptionsBuilder {
            opts: AtpgOptions::default(),
        }
    }

    /// Starts a builder from this value, for tweaking a knob or two.
    pub fn to_builder(self) -> AtpgOptionsBuilder {
        AtpgOptionsBuilder { opts: self }
    }
}

/// Builder for [`AtpgOptions`]; see [`AtpgOptions::builder`].
#[derive(Debug, Clone, Copy)]
pub struct AtpgOptionsBuilder {
    opts: AtpgOptions,
}

impl AtpgOptionsBuilder {
    /// Maximum backtracks per target fault.
    pub fn backtrack_limit(mut self, limit: usize) -> Self {
        self.opts.backtrack_limit = limit;
        self
    }

    /// Maximum time-frame window (clamped to at least one frame).
    pub fn window(mut self, frames: usize) -> Self {
        self.opts.max_window = frames.max(1);
        self
    }

    /// How learned relations are used.
    pub fn learning(mut self, mode: LearningMode) -> Self {
        self.opts.learning = mode;
        self
    }

    /// Whether generated tests fault-simulate and drop the rest of the list.
    pub fn fault_dropping(mut self, drop: bool) -> Self {
        self.opts.fault_dropping = drop;
        self
    }

    /// Deterministic work budget for the whole run.
    pub fn budget(mut self, budget: WorkBudget) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> AtpgOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_first_stage() {
        let c = AtpgOptions::default();
        assert_eq!(c.backtrack_limit, 30);
        assert_eq!(c.learning, LearningMode::None);
        assert!(c.fault_dropping);
        assert!(c.budget.is_unlimited());
    }

    #[test]
    fn builder_covers_every_knob() {
        let c = AtpgOptions::builder()
            .backtrack_limit(1000)
            .learning(LearningMode::ForbiddenValue)
            .window(0)
            .fault_dropping(false)
            .budget(WorkBudget::units(100))
            .build();
        assert_eq!(c.backtrack_limit, 1000);
        assert_eq!(c.budget, WorkBudget::units(100));
        assert_eq!(c.learning, LearningMode::ForbiddenValue);
        assert_eq!(c.max_window, 1, "window clamps to at least one frame");
        assert!(!c.fault_dropping);
        assert!(LearningMode::ForbiddenValue.uses_learning());
        assert!(!LearningMode::None.uses_learning());
    }

    #[test]
    fn to_builder_round_trips() {
        let base = AtpgOptions::builder().backtrack_limit(5).build();
        assert_eq!(base.to_builder().build(), base);
        let tweaked = base.to_builder().window(2).build();
        assert_eq!(tweaked.backtrack_limit, 5);
        assert_eq!(tweaked.max_window, 2);
    }
}
