//! Packaging of sequential learning results for ATPG consumption, and the
//! per-frame implication layer (forbidden / known values).
//!
//! The layer machinery is built for the test generator's hot loop:
//!
//! * [`LiteralAdjacency`] — a CSR-style adjacency view of the learned
//!   [`ImplicationDb`]: for every literal (node × polarity) the consequent
//!   literals, in two flat vectors with no per-lookup hashing,
//! * [`ImplicationLayer`] — a from-scratch layer over flat per-frame arrays;
//!   the reference implementation,
//! * [`IncrementalLayer`] — the same layer maintained incrementally across
//!   the decide/backtrack steps of a branch-and-bound search: every search
//!   point only processes the values that *became* binary since its parent
//!   (three-valued simulation is monotone in the assignments, so refinements
//!   never retract a binary value), and backtracking unwinds a trail instead
//!   of rebuilding. Property tests assert the incremental state always equals
//!   a from-scratch rebuild.

use crate::config::LearningMode;
use sla_core::{CrossImplication, ImplicationDb, LearnResult};
use sla_netlist::NodeId;
use sla_sim::Logic3;

/// Learned data in the form the test generator consumes: the implication
/// database, tied-gate constants and the cross-frame relations.
#[derive(Debug, Clone, Default)]
pub struct LearnedData {
    /// Same-frame implications (with contrapositive closure).
    implications: ImplicationDb,
    /// Tied gates as constants, sorted by node id for binary search.
    tied: Vec<(NodeId, bool)>,
    /// Cross-frame relations (`antecedent @ T → consequent @ T + offset`),
    /// sorted and deduplicated. Empty unless the learner ran with
    /// `learn_cross_frame` — the search works unchanged without them.
    cross_frame: Vec<CrossImplication>,
}

impl LearnedData {
    /// Creates an empty set of learned data (equivalent to no learning).
    pub fn new() -> Self {
        LearnedData::default()
    }

    /// Builds learned data from explicit parts.
    pub fn from_parts(implications: ImplicationDb, mut tied: Vec<(NodeId, bool)>) -> Self {
        tied.sort_by_key(|&(n, _)| n);
        tied.dedup_by_key(|&mut (n, _)| n);
        LearnedData {
            implications,
            tied,
            cross_frame: Vec::new(),
        }
    }

    /// Attaches cross-frame relations (sorted and deduplicated here, so any
    /// insertion order yields the same compiled adjacency).
    pub fn with_cross_frame(mut self, mut cross: Vec<CrossImplication>) -> Self {
        cross.sort_unstable();
        cross.dedup();
        self.cross_frame = cross;
        self
    }

    /// Extracts the ATPG-relevant part of a learning result, including any
    /// collected cross-frame relations (already in the canonical order of
    /// [`LearnResult::cross_frame_deduped`]; the re-sort in
    /// [`LearnedData::with_cross_frame`] is an idempotent guard).
    pub fn from_learn_result(result: &LearnResult) -> Self {
        LearnedData::from_parts(result.implications.clone(), result.tied_constants())
            .with_cross_frame(result.cross_frame_deduped())
    }

    /// The learned same-frame implications.
    pub fn implications(&self) -> &ImplicationDb {
        &self.implications
    }

    /// The cross-frame relations, sorted and deduplicated.
    pub fn cross_frame(&self) -> &[CrossImplication] {
        &self.cross_frame
    }

    /// The tied gates as `(node, value)` constants, sorted by node id.
    pub fn tied(&self) -> &[(NodeId, bool)] {
        &self.tied
    }

    /// Returns the tied value of `node` if the node is tied.
    pub fn tied_value(&self, node: NodeId) -> Option<bool> {
        self.tied
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| self.tied[i].1)
    }

    /// Returns `true` when there is nothing to use.
    pub fn is_empty(&self) -> bool {
        self.implications.is_empty() && self.tied.is_empty() && self.cross_frame.is_empty()
    }

    /// Checks that every node id in the implications, cross-frame relations
    /// and ties belongs to a netlist of `num_nodes` nodes.
    ///
    /// Learned data read back from disk must pass this before a search
    /// uses it, since the search indexes per-node arrays with these ids. A
    /// store entry or snapshot is matched to its netlist only by a 64-bit
    /// structural hash, which a tampered file or a hash collision defeats.
    ///
    /// # Errors
    ///
    /// The first node id, in that order, that is not below `num_nodes`.
    pub fn check_nodes(&self, num_nodes: usize) -> Result<(), NodeId> {
        let relations = self
            .implications
            .iter()
            .flat_map(|(imp, _)| [imp.antecedent.node, imp.consequent.node]);
        let cross = self
            .cross_frame
            .iter()
            .flat_map(|c| [c.antecedent.node, c.consequent.node]);
        let tied = self.tied.iter().map(|&(node, _)| node);
        match relations
            .chain(cross)
            .chain(tied)
            .find(|node| node.index() >= num_nodes)
        {
            Some(node) => Err(node),
            None => Ok(()),
        }
    }
}

impl From<&LearnResult> for LearnedData {
    fn from(result: &LearnResult) -> Self {
        LearnedData::from_learn_result(result)
    }
}

/// Compact literal code: `node.0 * 2 + value`.
#[inline]
fn code(node: NodeId, value: bool) -> u32 {
    node.0 * 2 + value as u32
}

/// CSR-style adjacency view of an [`ImplicationDb`] plus cross-frame
/// relations: for every literal, the consequent literals of its direct
/// implications (contrapositives included), as flat index arrays — the
/// same-frame consequents in `targets`, the cross-frame consequents in
/// `cross_targets` together with their frame offsets. Built once per
/// test-generation run so the search loop never hashes.
#[derive(Debug, Clone, Default)]
pub struct LiteralAdjacency {
    /// `offsets[lit] .. offsets[lit + 1]` indexes `targets`.
    offsets: Vec<u32>,
    /// Same-frame consequent literal codes.
    targets: Vec<u32>,
    /// `cross_offsets[lit] .. cross_offsets[lit + 1]` indexes `cross_targets`
    /// (empty when no cross-frame relations were supplied).
    cross_offsets: Vec<u32>,
    /// Cross-frame consequents: `(literal code, frame offset)` — the
    /// consequent holds `offset` frames after the antecedent's frame (the
    /// offset may be negative; a contrapositive negates it).
    cross_targets: Vec<(u32, i32)>,
}

impl LiteralAdjacency {
    /// Builds the adjacency for a netlist of `num_nodes` nodes from
    /// same-frame implications only.
    pub fn build(db: &ImplicationDb, num_nodes: usize) -> Self {
        LiteralAdjacency::build_with_cross(db, &[], num_nodes)
    }

    /// Builds the adjacency from same-frame implications and cross-frame
    /// relations. Each cross relation contributes its edge and its
    /// contrapositive (`¬consequent @ T → ¬antecedent @ T − offset`).
    pub fn build_with_cross(
        db: &ImplicationDb,
        cross: &[CrossImplication],
        num_nodes: usize,
    ) -> Self {
        let literals = num_nodes * 2;
        let edges = || {
            db.iter().flat_map(|(imp, _)| {
                let contra = imp.contrapositive();
                [
                    (imp.antecedent, imp.consequent),
                    (contra.antecedent, contra.consequent),
                ]
            })
        };
        let mut counts = vec![0u32; literals + 1];
        for (a, _) in edges() {
            counts[code(a.node, a.value) as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[literals] as usize];
        for (a, c) in edges() {
            let slot = &mut cursor[code(a.node, a.value) as usize];
            targets[*slot as usize] = code(c.node, c.value);
            *slot += 1;
        }
        // Deterministic consequent order within each literal (the order the
        // old hash-map layer produced); the layer result does not depend on
        // it, but determinism keeps runs reproducible.
        for lit in 0..literals {
            let (s, e) = (offsets[lit] as usize, offsets[lit + 1] as usize);
            targets[s..e].sort_unstable();
        }

        // Cross-frame edges: flat `(antecedent code, consequent code, offset)`
        // triples including contrapositives, sorted for a deterministic CSR
        // and deduplicated (a relation and another's contrapositive can
        // coincide).
        let (cross_offsets, cross_targets) = if cross.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let mut edges: Vec<(u32, u32, i32)> = cross
                .iter()
                .flat_map(|ci| {
                    [
                        (
                            code(ci.antecedent.node, ci.antecedent.value),
                            code(ci.consequent.node, ci.consequent.value),
                            ci.offset,
                        ),
                        // `i32::MIN` has no negation. Saturating keeps that
                        // relation, which no window can hold, out of every
                        // window instead of overflowing.
                        (
                            code(ci.consequent.node, !ci.consequent.value),
                            code(ci.antecedent.node, !ci.antecedent.value),
                            ci.offset.saturating_neg(),
                        ),
                    ]
                })
                .filter(|&(_, _, off)| off != 0)
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let mut cross_offsets = vec![0u32; literals + 1];
            for &(a, _, _) in &edges {
                cross_offsets[a as usize + 1] += 1;
            }
            for i in 1..cross_offsets.len() {
                cross_offsets[i] += cross_offsets[i - 1];
            }
            let cross_targets = edges.into_iter().map(|(_, c, off)| (c, off)).collect();
            (cross_offsets, cross_targets)
        };

        LiteralAdjacency {
            offsets,
            targets,
            cross_offsets,
            cross_targets,
        }
    }

    /// The adjacency a search under `mode` consults: `learned`'s
    /// implications and cross-frame relations compiled for a netlist of
    /// `num_nodes` nodes, or an empty adjacency, compiled from nothing,
    /// when `mode` uses no learning.
    pub fn for_mode(learned: &LearnedData, mode: LearningMode, num_nodes: usize) -> Self {
        if mode.uses_learning() {
            LiteralAdjacency::build_with_cross(
                learned.implications(),
                learned.cross_frame(),
                num_nodes,
            )
        } else {
            LiteralAdjacency::default()
        }
    }

    /// Same-frame consequent literal codes of `lit`.
    #[inline]
    fn consequents(&self, lit: u32) -> &[u32] {
        let s = self.offsets[lit as usize] as usize;
        let e = self.offsets[lit as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// Cross-frame consequents of `lit` as `(literal code, frame offset)`.
    #[inline]
    fn cross_consequents(&self, lit: u32) -> &[(u32, i32)] {
        if self.cross_offsets.is_empty() {
            return &[];
        }
        let s = self.cross_offsets[lit as usize] as usize;
        let e = self.cross_offsets[lit as usize + 1] as usize;
        &self.cross_targets[s..e]
    }

    /// Returns `true` when no implication is stored.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty() && self.cross_targets.is_empty()
    }

    /// Number of directed same-frame edges (a relation and its contrapositive
    /// count two).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of directed cross-frame edges (contrapositives included).
    pub fn num_cross_edges(&self) -> usize {
        self.cross_targets.len()
    }

    /// Returns `true` when `node` participates in at least one implication
    /// (as antecedent or consequent; the contrapositive closure makes the two
    /// sets identical).
    #[inline]
    pub fn node_has_edges(&self, node: u32) -> bool {
        let lit0 = node as usize * 2;
        self.offsets[lit0 + 2] > self.offsets[lit0]
            || (!self.cross_offsets.is_empty()
                && self.cross_offsets[lit0 + 2] > self.cross_offsets[lit0])
    }
}

/// Hint slot encoding of the flat layer arrays.
const NO_HINT: u8 = 0;

#[inline]
fn encode_hint(value: bool) -> u8 {
    1 + value as u8
}

#[inline]
fn decode_hint(slot: u8) -> Option<bool> {
    match slot {
        NO_HINT => None,
        h => Some(h == 2),
    }
}

/// The per-frame annotation layer derived from learned implications under the
/// current (good-machine) assignments of one search point.
///
/// * In *forbidden-value* mode, `hint(node) = v` means "the complement of `v`
///   is forbidden here": taking `¬v` is a conflict, and a backtrace that needs
///   a value on this node should pick `v`.
/// * In *known-value* mode, the hints are required values propagated with
///   transitive closure.
///
/// In both modes a binary simulated value that contradicts a hint is a
/// conflict that triggers an immediate backtrack.
///
/// This type rebuilds from scratch on every call and is the reference for the
/// [`IncrementalLayer`] the test generator uses.
#[derive(Debug, Clone, Default)]
pub struct ImplicationLayer {
    num_nodes: usize,
    /// Flat `(frame * num_nodes + node)` hint slots.
    hints: Vec<u8>,
    hint_count: usize,
    /// Set when a contradiction was found while building the layer.
    pub conflict: bool,
}

impl ImplicationLayer {
    /// Builds the layer for a whole iterative array from the good-machine
    /// values, under the given learning mode. Cross-frame edges of the
    /// adjacency derive hints in the antecedent's frame plus the edge offset
    /// (out-of-window frames are skipped).
    pub fn build(adj: &LiteralAdjacency, mode: LearningMode, good: &[Vec<Logic3>]) -> Self {
        let mut layer = ImplicationLayer::default();
        if !mode.uses_learning() || adj.is_empty() || good.is_empty() {
            return layer;
        }
        let num_nodes = good[0].len();
        layer.num_nodes = num_nodes;
        layer.hints = vec![NO_HINT; num_nodes * good.len()];
        let chase = mode == LearningMode::KnownValue;
        // Seed: every binary simulated value of every frame fires its
        // implications (one global queue — cross-frame edges hop between
        // frames, so a per-frame pass cannot contain the chase).
        let mut queue: Vec<(u32, u32)> = Vec::new();
        for (frame, values) in good.iter().enumerate() {
            for (idx, v) in values.iter().enumerate() {
                if let Some(b) = v.to_bool() {
                    queue.push((frame as u32, code(NodeId(idx as u32), b)));
                }
            }
        }
        let frames = i64::try_from(good.len()).expect("frame count fits i64");
        let mut head = 0;
        while head < queue.len() {
            let (frame, lit) = queue[head];
            head += 1;
            for &c in adj.consequents(lit) {
                layer.derive(frame, c, good, chase, &mut queue);
            }
            for &(c, off) in adj.cross_consequents(lit) {
                let tf = frame as i64 + off as i64;
                if (0..frames).contains(&tf) {
                    layer.derive(tf as u32, c, good, chase, &mut queue);
                }
            }
            if layer.conflict {
                return layer;
            }
        }
        layer
    }

    /// Derives one consequent literal `c` in `frame`: a contradicting binary
    /// simulated value or contradicting existing hint raises the conflict
    /// flag; a fresh hint is recorded (and queued in chase mode).
    fn derive(
        &mut self,
        frame: u32,
        c: u32,
        good: &[Vec<Logic3>],
        chase: bool,
        queue: &mut Vec<(u32, u32)>,
    ) {
        let c_node = (c >> 1) as usize;
        let c_value = c & 1 == 1;
        if let Some(b) = good[frame as usize][c_node].to_bool() {
            if b != c_value {
                self.conflict = true;
            }
            return;
        }
        let slot = &mut self.hints[frame as usize * self.num_nodes + c_node];
        match decode_hint(*slot) {
            Some(existing) if existing != c_value => {
                self.conflict = true;
            }
            Some(_) => {}
            None => {
                *slot = encode_hint(c_value);
                self.hint_count += 1;
                if chase {
                    queue.push((frame, c));
                }
            }
        }
    }

    /// The hinted value of `node` in `frame`, if any.
    pub fn hint(&self, frame: usize, node: NodeId) -> Option<bool> {
        self.hints
            .get(frame * self.num_nodes + node.index())
            .copied()
            .and_then(decode_hint)
    }

    /// Number of hinted `(frame, node)` pairs.
    pub fn len(&self) -> usize {
        self.hint_count
    }

    /// Returns `true` when the layer holds no hints.
    pub fn is_empty(&self) -> bool {
        self.hint_count == 0
    }
}

/// Marks the trail positions a search level starts at.
#[derive(Debug, Clone, Copy)]
struct LevelMark {
    hints: u32,
    seen: u32,
}

/// An [`ImplicationLayer`] maintained incrementally across the decide /
/// backtrack steps of a branch-and-bound search.
///
/// Protocol: after every (re)simulation of the good machine, call
/// [`IncrementalLayer::update_events`] with the current decision depth and
/// the slots whose value became binary; before re-deciding a flipped
/// decision, call [`IncrementalLayer::pop_to`] with the number of levels that
/// remain valid (the base level plus one level per unchanged decision).
/// `update_events` fires the implications of exactly the new literals (a slot
/// already processed at a live level is skipped); `pop_to` unwinds the hint
/// and seen trails.
#[derive(Debug, Clone)]
pub struct IncrementalLayer<'a> {
    adj: &'a LiteralAdjacency,
    mode: LearningMode,
    num_nodes: usize,
    frames: usize,
    /// Flat `(frame * num_nodes + node)` hint slots.
    hints: Vec<u8>,
    /// Flat flags: the slot's value became binary at some live level.
    seen: Vec<bool>,
    hint_trail: Vec<u32>,
    seen_trail: Vec<u32>,
    levels: Vec<LevelMark>,
    /// Level at which the current conflict was detected, if any.
    conflict_level: Option<usize>,
    /// Scratch queue of `(frame, literal)` events.
    queue: Vec<(u32, u32)>,
}

impl<'a> IncrementalLayer<'a> {
    /// Creates an empty layer over `frames × num_nodes` slots.
    pub fn new(
        adj: &'a LiteralAdjacency,
        mode: LearningMode,
        frames: usize,
        num_nodes: usize,
    ) -> Self {
        let slots = if mode.uses_learning() && !adj.is_empty() {
            frames * num_nodes
        } else {
            0 // inert layer: no learning to track
        };
        IncrementalLayer {
            adj,
            mode,
            num_nodes,
            frames,
            hints: vec![NO_HINT; slots],
            seen: vec![false; slots],
            hint_trail: Vec::new(),
            seen_trail: Vec::new(),
            levels: Vec::new(),
            conflict_level: None,
            queue: Vec::new(),
        }
    }

    /// Opens level `level` (which must equal the number of live levels) and
    /// processes the given change events. `values` is the flat
    /// `(frame * num_nodes + node)` good-machine array and `events` lists the
    /// slots whose value became binary since the parent level (the change
    /// stream of [`sla_sim::EventSim::assign`], or its initial binary slots
    /// for level 0). Slots already processed at a live level are skipped, so
    /// passing every binary slot gives the same result. Returns the conflict
    /// flag.
    pub fn update_events(&mut self, level: usize, values: &[Logic3], events: &[u32]) -> bool {
        assert_eq!(level, self.levels.len(), "levels must be pushed in order");
        self.levels.push(LevelMark {
            hints: u32::try_from(self.hint_trail.len()).expect("hint trail fits u32"),
            seen: u32::try_from(self.seen_trail.len()).expect("seen trail fits u32"),
        });
        if self.hints.is_empty() {
            return false;
        }
        let mut conflict = self.conflict_level.is_some();
        let chase = self.mode == LearningMode::KnownValue;
        self.queue.clear();
        for &slot in events {
            let slot = slot as usize;
            let node = (slot % self.num_nodes) as u32;
            let frame = slot / self.num_nodes;
            // Only nodes with implication edges can fire events or carry
            // hints; the rest of the change stream is irrelevant here.
            if !self.adj.node_has_edges(node) {
                continue;
            }
            if self.process_literal(frame as u32, node, values, chase) {
                conflict = true;
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let (frame, lit) = self.queue[head];
            head += 1;
            if self.fire_consequents(frame, lit, values, true) {
                conflict = true;
            }
        }
        if conflict && self.conflict_level.is_none() {
            self.conflict_level = Some(level);
        }
        conflict
    }

    /// Processes one potentially newly binary value (`node` in `frame`):
    /// skips non-binary or already-seen slots, marks the seen trail, reports
    /// a conflict if a previously derived hint is contradicted, and fires the
    /// literal's consequents (queued for transitive chasing in known-value
    /// mode, inline otherwise). Returns `true` when a contradiction was
    /// observed.
    fn process_literal(&mut self, frame: u32, node: u32, values: &[Logic3], chase: bool) -> bool {
        let slot = frame as usize * self.num_nodes + node as usize;
        let Some(b) = values[slot].to_bool() else {
            return false;
        };
        if self.seen[slot] {
            return false;
        }
        self.seen[slot] = true;
        self.seen_trail.push(slot as u32);
        // A previously derived hint contradicted by the newly binary value is
        // a conflict (the rebuild would catch it when firing the hint's
        // antecedent).
        let mut conflict = matches!(decode_hint(self.hints[slot]), Some(h) if h != b);
        let lit = code(NodeId(node), b);
        if chase {
            // Known-value mode chases transitively: queue the event so
            // derived hints fire their own consequents.
            self.queue.push((frame, lit));
        } else if self.fire_consequents(frame, lit, values, false) {
            // Forbidden-value mode stops at direct consequents: fire inline,
            // no queue round-trip.
            conflict = true;
        }
        conflict
    }

    /// Fires the direct consequents of `lit` in `frame` over the good-machine
    /// values: the same-frame consequents, then the cross-frame consequents
    /// in their offset frames (skipping frames outside the window). Derived
    /// hints go on the trail; in chase mode a fresh hint is queued so its own
    /// consequents fire too. Returns `true` when a contradiction was
    /// observed.
    fn fire_consequents(&mut self, frame: u32, lit: u32, values: &[Logic3], chase: bool) -> bool {
        let adj = self.adj;
        let mut conflict = false;
        for &c in adj.consequents(lit) {
            if self.derive(frame, c, values, chase) {
                conflict = true;
            }
        }
        for &(c, off) in adj.cross_consequents(lit) {
            let tf = frame as i64 + off as i64;
            if (0..self.frames as i64).contains(&tf) && self.derive(tf as u32, c, values, chase) {
                conflict = true;
            }
        }
        conflict
    }

    /// Derives one consequent literal `c` in `frame`. Returns `true` when a
    /// contradiction (binary value or existing hint against `c`) was
    /// observed.
    fn derive(&mut self, frame: u32, c: u32, values: &[Logic3], chase: bool) -> bool {
        let c_value = c & 1 == 1;
        let slot = frame as usize * self.num_nodes + (c >> 1) as usize;
        if let Some(b) = values[slot].to_bool() {
            return b != c_value;
        }
        match decode_hint(self.hints[slot]) {
            Some(existing) if existing != c_value => true,
            Some(_) => false,
            None => {
                self.hints[slot] = encode_hint(c_value);
                self.hint_trail.push(slot as u32);
                if chase {
                    self.queue.push((frame, c));
                }
                false
            }
        }
    }

    /// Unwinds to the first `keep` levels, retracting every hint and seen flag
    /// recorded by the removed levels.
    pub fn pop_to(&mut self, keep: usize) {
        while self.levels.len() > keep {
            let mark = self.levels.pop().expect("non-empty level stack");
            while self.hint_trail.len() > mark.hints as usize {
                let slot = self.hint_trail.pop().expect("trail entry") as usize;
                self.hints[slot] = NO_HINT;
            }
            while self.seen_trail.len() > mark.seen as usize {
                let slot = self.seen_trail.pop().expect("trail entry") as usize;
                self.seen[slot] = false;
            }
        }
        if self.conflict_level.is_some_and(|l| l >= keep) {
            self.conflict_level = None;
        }
    }

    /// Returns `true` when the live levels contain a contradiction.
    pub fn conflict(&self) -> bool {
        self.conflict_level.is_some()
    }

    /// The hinted value of `node` in `frame`, if any.
    ///
    /// Hints are only meaningful for nodes that are `X` in the current good
    /// machine; a node that became binary keeps its (now redundant) hint slot
    /// until the level that derived it is popped.
    pub fn hint(&self, frame: usize, node: NodeId) -> Option<bool> {
        self.hints
            .get(frame * self.num_nodes + node.index())
            .copied()
            .and_then(decode_hint)
    }

    /// Number of frames the layer spans.
    pub fn frames(&self) -> usize {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_core::{Implication, LearnOptions, Literal, SequentialLearner};
    use sla_netlist::{GateType, Netlist, NetlistBuilder};

    fn exclusive_pair() -> Netlist {
        let mut b = NetlistBuilder::new("pair");
        b.input("a");
        b.gate("na", GateType::Not, &["a"]).unwrap();
        b.gate("nf1", GateType::Not, &["f1"]).unwrap();
        b.gate("nf2", GateType::Not, &["f2"]).unwrap();
        b.gate("d1", GateType::And, &["a", "nf2"]).unwrap();
        b.gate("d2", GateType::And, &["na", "nf1"]).unwrap();
        b.dff("f1", "d1").unwrap();
        b.dff("f2", "d2").unwrap();
        b.output("f1").unwrap();
        b.output("f2").unwrap();
        b.build().unwrap()
    }

    fn learned_for(n: &Netlist) -> LearnedData {
        let result = SequentialLearner::new(n, LearnOptions::default())
            .learn()
            .unwrap();
        LearnedData::from(&result)
    }

    /// Every binary slot of a flat good-machine array, ascending: what a
    /// caller without a change stream passes to `update_events`.
    fn binary_slots(values: &[Logic3]) -> Vec<u32> {
        (0..values.len() as u32)
            .filter(|&slot| values[slot as usize].is_binary())
            .collect()
    }

    fn adjacency_for(n: &Netlist, learned: &LearnedData) -> LiteralAdjacency {
        LiteralAdjacency::build(learned.implications(), n.num_nodes())
    }

    #[test]
    fn from_learn_result_keeps_relations_and_ties() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        assert!(!learned.is_empty());
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        assert!(learned.implications().implies(f1, true, f2, false));
        assert_eq!(learned.tied_value(f1), None);
    }

    #[test]
    fn tied_value_uses_binary_search_over_sorted_constants() {
        let tied = vec![
            (NodeId(9), true),
            (NodeId(2), false),
            (NodeId(40), true),
            (NodeId(7), false),
        ];
        let learned = LearnedData::from_parts(ImplicationDb::new(), tied);
        assert_eq!(learned.tied_value(NodeId(2)), Some(false));
        assert_eq!(learned.tied_value(NodeId(7)), Some(false));
        assert_eq!(learned.tied_value(NodeId(9)), Some(true));
        assert_eq!(learned.tied_value(NodeId(40)), Some(true));
        assert_eq!(learned.tied_value(NodeId(3)), None);
        assert!(learned.tied().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn adjacency_matches_db_consequents() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        assert!(!adj.is_empty());
        assert_eq!(adj.num_edges(), 2 * learned.implications().len());
        for id in n.node_ids() {
            for value in [false, true] {
                // Reference: the direct consequents of the literal, read off
                // every stored relation and its contrapositive.
                let lit = Literal::new(id, value);
                let mut from_db: Vec<u32> = learned
                    .implications()
                    .relations()
                    .flat_map(|imp| [imp, imp.contrapositive()])
                    .filter(|imp| imp.antecedent == lit)
                    .map(|imp| code(imp.consequent.node, imp.consequent.value))
                    .collect();
                from_db.sort_unstable();
                assert_eq!(adj.consequents(code(id, value)), from_db.as_slice());
            }
        }
    }

    #[test]
    fn layer_hints_follow_simulated_values() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let mut frame = vec![Logic3::X; n.num_nodes()];
        frame[f1.index()] = Logic3::One;
        let good = vec![frame];
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
        assert!(!layer.conflict);
        assert_eq!(layer.hint(0, f2), Some(false));
        assert_eq!(layer.hint(0, f1), None);
        assert!(!layer.is_empty());
    }

    #[test]
    fn contradicting_simulated_value_raises_conflict() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let mut frame = vec![Logic3::X; n.num_nodes()];
        frame[f1.index()] = Logic3::One;
        frame[f2.index()] = Logic3::One;
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &[frame]);
        assert!(
            layer.conflict,
            "f1=1 and f2=1 violates the learned relation"
        );
    }

    #[test]
    fn none_mode_produces_no_hints() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let mut frame = vec![Logic3::X; n.num_nodes()];
        frame[f1.index()] = Logic3::One;
        let layer = ImplicationLayer::build(&adj, LearningMode::None, &[frame]);
        assert!(layer.is_empty());
        assert!(!layer.conflict);
    }

    #[test]
    fn known_value_mode_chases_chains() {
        // Handcrafted database: a=1 -> b=1 -> c=1 on three flip-flops.
        let mut b = NetlistBuilder::new("chain");
        b.input("i");
        b.dff("a", "i").unwrap();
        b.dff("bb", "a").unwrap();
        b.dff("c", "bb").unwrap();
        b.output("c").unwrap();
        let n = b.build().unwrap();
        let a = n.require("a").unwrap();
        let bbn = n.require("bb").unwrap();
        let c = n.require("c").unwrap();
        let mut db = ImplicationDb::new();
        db.add(
            Implication::new(Literal::new(a, true), Literal::new(bbn, true)),
            true,
        );
        db.add(
            Implication::new(Literal::new(bbn, true), Literal::new(c, true)),
            true,
        );
        let learned = LearnedData::from_parts(db, Vec::new());
        let adj = adjacency_for(&n, &learned);
        let mut frame = vec![Logic3::X; n.num_nodes()];
        frame[a.index()] = Logic3::One;
        let forbidden =
            ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &[frame.clone()]);
        let known = ImplicationLayer::build(&adj, LearningMode::KnownValue, &[frame]);
        assert_eq!(forbidden.hint(0, c), None, "forbidden mode stays direct");
        assert_eq!(known.hint(0, c), Some(true), "known mode chases the chain");
    }

    #[test]
    fn incremental_layer_tracks_updates_and_pops() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let x_frame = vec![Logic3::X; n.num_nodes()];
        let mut one_frame = x_frame.clone();
        one_frame[f1.index()] = Logic3::One;

        let mut inc = IncrementalLayer::new(&adj, LearningMode::ForbiddenValue, 1, n.num_nodes());
        assert!(!inc.update_events(0, &x_frame, &binary_slots(&x_frame)));
        assert_eq!(inc.hint(0, f2), None);
        assert!(!inc.update_events(1, &one_frame, &binary_slots(&one_frame)));
        assert_eq!(inc.hint(0, f2), Some(false), "f1=1 forbids f2=1");
        inc.pop_to(1);
        assert_eq!(inc.hint(0, f2), None, "popping retracts the hint");
        // Re-deciding at the same level works after the pop.
        assert!(!inc.update_events(1, &one_frame, &binary_slots(&one_frame)));
        assert_eq!(inc.hint(0, f2), Some(false));
    }

    #[test]
    fn event_updates_match_scan_updates() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let nn = n.num_nodes();
        let x_frame = vec![Logic3::X; nn];
        let mut one_frame = x_frame.clone();
        one_frame[f1.index()] = Logic3::One;

        let mut inc = IncrementalLayer::new(&adj, LearningMode::ForbiddenValue, 1, nn);
        // Level 0: nothing binary, no events.
        assert!(!inc.update_events(0, &x_frame, &[]));
        // Level 1: f1 became binary — exactly one event.
        assert!(!inc.update_events(1, &one_frame, &[f1.0]));
        assert_eq!(inc.hint(0, f2), Some(false), "f1=1 forbids f2=1");
        inc.pop_to(1);
        assert_eq!(inc.hint(0, f2), None, "popping retracts the hint");
        // Contradicting event at the re-opened level: f1=1 and f2=1.
        let mut bad = one_frame.clone();
        bad[f2.index()] = Logic3::One;
        assert!(inc.update_events(1, &bad, &[f1.0, f2.0]));
        assert!(inc.conflict());
        inc.pop_to(1);
        assert!(!inc.conflict());
    }

    #[test]
    fn event_updates_chase_in_known_value_mode() {
        // Handcrafted chain a=1 -> b=1 -> c=1 over three flip-flops.
        let mut b = NetlistBuilder::new("chain");
        b.input("i");
        b.dff("a", "i").unwrap();
        b.dff("bb", "a").unwrap();
        b.dff("c", "bb").unwrap();
        b.output("c").unwrap();
        let n = b.build().unwrap();
        let a = n.require("a").unwrap();
        let bbn = n.require("bb").unwrap();
        let c = n.require("c").unwrap();
        let mut db = ImplicationDb::new();
        db.add(
            Implication::new(Literal::new(a, true), Literal::new(bbn, true)),
            true,
        );
        db.add(
            Implication::new(Literal::new(bbn, true), Literal::new(c, true)),
            true,
        );
        let learned = LearnedData::from_parts(db, Vec::new());
        let adj = adjacency_for(&n, &learned);
        let mut frame = vec![Logic3::X; n.num_nodes()];
        frame[a.index()] = Logic3::One;
        let mut inc = IncrementalLayer::new(&adj, LearningMode::KnownValue, 1, n.num_nodes());
        assert!(!inc.update_events(0, &frame, &[a.0]));
        assert_eq!(inc.hint(0, c), Some(true), "chase reaches the chain end");
    }

    /// A three-FF shift register for the cross-frame tests; `a` at frame `T`
    /// reaches `c` at frame `T+2`, which is what the handcrafted cross
    /// relations below encode.
    fn shift3() -> (Netlist, NodeId, NodeId) {
        let mut b = NetlistBuilder::new("shift3");
        b.input("i");
        b.dff("a", "i").unwrap();
        b.dff("bb", "a").unwrap();
        b.dff("c", "bb").unwrap();
        b.output("c").unwrap();
        let n = b.build().unwrap();
        let a = n.require("a").unwrap();
        let c = n.require("c").unwrap();
        (n, a, c)
    }

    fn cross_rel(a: NodeId, va: bool, c: NodeId, vc: bool, offset: i32) -> CrossImplication {
        CrossImplication {
            antecedent: Literal::new(a, va),
            consequent: Literal::new(c, vc),
            offset,
        }
    }

    #[test]
    fn cross_edges_hint_the_offset_frame() {
        let (n, a, c) = shift3();
        let cross = vec![cross_rel(a, true, c, true, 2)];
        let adj = LiteralAdjacency::build_with_cross(&ImplicationDb::new(), &cross, n.num_nodes());
        assert!(!adj.is_empty());
        assert_eq!(adj.num_edges(), 0);
        assert_eq!(adj.num_cross_edges(), 2, "relation plus contrapositive");

        let mut good = vec![vec![Logic3::X; n.num_nodes()]; 4];
        good[1][a.index()] = Logic3::One;
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
        assert!(!layer.conflict);
        assert_eq!(layer.hint(3, c), Some(true), "a=1@1 hints c=1@3");
        assert_eq!(layer.hint(1, c), None);
        // The contrapositive hints backwards: c=0 @ T forbids a=1 @ T-2.
        let mut back = vec![vec![Logic3::X; n.num_nodes()]; 4];
        back[3][c.index()] = Logic3::Zero;
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &back);
        assert!(!layer.conflict);
        assert_eq!(layer.hint(1, a), Some(false));
    }

    #[test]
    fn cross_edges_skip_out_of_window_frames() {
        let (n, a, c) = shift3();
        let cross = vec![cross_rel(a, true, c, true, 2)];
        let adj = LiteralAdjacency::build_with_cross(&ImplicationDb::new(), &cross, n.num_nodes());
        let mut good = vec![vec![Logic3::X; n.num_nodes()]; 2];
        good[1][a.index()] = Logic3::One; // consequent frame 3 is out of window
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
        assert!(!layer.conflict);
        assert!(layer.is_empty());
    }

    #[test]
    fn extreme_cross_offsets_never_fire_and_never_overflow() {
        let (n, a, c) = shift3();
        for offset in [i32::MIN, i32::MAX] {
            let cross = vec![cross_rel(a, true, c, true, offset)];
            let adj =
                LiteralAdjacency::build_with_cross(&ImplicationDb::new(), &cross, n.num_nodes());
            let mut good = vec![vec![Logic3::X; n.num_nodes()]; 4];
            good[1][a.index()] = Logic3::One;
            good[2][c.index()] = Logic3::Zero;
            let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
            assert!(!layer.conflict && layer.is_empty(), "offset {offset}");
        }
    }

    #[test]
    fn check_nodes_finds_the_first_out_of_range_id() {
        let (n, a, c) = shift3();
        let nodes = n.num_nodes();
        let far = NodeId(1_000_000);
        let mut db = ImplicationDb::new();
        db.add(
            Implication::new(Literal::new(a, true), Literal::new(c, true)),
            false,
        );
        let good = LearnedData::from_parts(db.clone(), vec![(c, true)])
            .with_cross_frame(vec![cross_rel(a, true, c, false, 1)]);
        assert_eq!(good.check_nodes(nodes), Ok(()));
        assert_eq!(LearnedData::new().check_nodes(0), Ok(()));

        let mut bad_db = db.clone();
        bad_db.add(
            Implication::new(Literal::new(a, true), Literal::new(far, false)),
            false,
        );
        let bad_implication = LearnedData::from_parts(bad_db, Vec::new());
        assert_eq!(bad_implication.check_nodes(nodes), Err(far));
        let bad_cross = LearnedData::from_parts(db.clone(), Vec::new())
            .with_cross_frame(vec![cross_rel(far, true, c, true, 1)]);
        assert_eq!(bad_cross.check_nodes(nodes), Err(far));
        let bad_tie = LearnedData::from_parts(db, vec![(NodeId(nodes as u32), false)]);
        assert_eq!(bad_tie.check_nodes(nodes), Err(NodeId(nodes as u32)));
        assert_eq!(bad_tie.check_nodes(nodes + 1), Ok(()));
    }

    #[test]
    fn cross_conflict_on_contradicting_binary_value() {
        let (n, a, c) = shift3();
        let cross = vec![cross_rel(a, true, c, true, 2)];
        let adj = LiteralAdjacency::build_with_cross(&ImplicationDb::new(), &cross, n.num_nodes());
        let mut good = vec![vec![Logic3::X; n.num_nodes()]; 4];
        good[1][a.index()] = Logic3::One;
        good[3][c.index()] = Logic3::Zero;
        let layer = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
        assert!(layer.conflict, "a=1@1 with c=0@3 violates the relation");
    }

    #[test]
    fn incremental_cross_hints_fire_and_pop() {
        let (n, a, c) = shift3();
        let nn = n.num_nodes();
        let cross = vec![cross_rel(a, true, c, true, 2)];
        let adj = LiteralAdjacency::build_with_cross(&ImplicationDb::new(), &cross, nn);
        let mut inc = IncrementalLayer::new(&adj, LearningMode::ForbiddenValue, 4, nn);
        let values = vec![Logic3::X; 4 * nn];
        assert!(!inc.update_events(0, &values, &[]));
        let mut values = values;
        values[nn + a.index()] = Logic3::One;
        let event = (nn + a.index()) as u32;
        assert!(!inc.update_events(1, &values, &[event]));
        assert_eq!(inc.hint(3, c), Some(true), "event at frame 1 hints frame 3");
        inc.pop_to(1);
        assert_eq!(inc.hint(3, c), None, "popping retracts the cross hint");
        // A contradicting binary value at the offset frame is a conflict.
        values[3 * nn + c.index()] = Logic3::Zero;
        let conflict_event = (3 * nn + c.index()) as u32;
        assert!(inc.update_events(1, &values, &[event, conflict_event]));
        assert!(inc.conflict());
    }

    #[test]
    fn known_value_mode_chases_through_cross_edges() {
        let (n, a, c) = shift3();
        let bb = n.require("bb").unwrap();
        // a=1 @ T -> bb=1 @ T+1 (cross), bb=1 -> c=1 (same frame): the chase
        // must hop the frame boundary and keep going.
        let mut db = ImplicationDb::new();
        db.add(
            Implication::new(Literal::new(bb, true), Literal::new(c, true)),
            true,
        );
        let cross = vec![cross_rel(a, true, bb, true, 1)];
        let adj = LiteralAdjacency::build_with_cross(&db, &cross, n.num_nodes());
        let mut good = vec![vec![Logic3::X; n.num_nodes()]; 3];
        good[0][a.index()] = Logic3::One;
        let forbidden = ImplicationLayer::build(&adj, LearningMode::ForbiddenValue, &good);
        assert_eq!(forbidden.hint(1, bb), Some(true));
        assert_eq!(forbidden.hint(1, c), None, "forbidden mode stays direct");
        let known = ImplicationLayer::build(&adj, LearningMode::KnownValue, &good);
        assert_eq!(known.hint(1, bb), Some(true));
        assert_eq!(
            known.hint(1, c),
            Some(true),
            "known mode chases the derived cross hint's same-frame edge"
        );
    }

    #[test]
    fn learned_data_sorts_and_dedups_cross_relations() {
        let (n, a, c) = shift3();
        let r1 = cross_rel(a, true, c, true, 2);
        let r2 = cross_rel(c, false, a, false, -2);
        let learned = LearnedData::from_parts(ImplicationDb::new(), Vec::new())
            .with_cross_frame(vec![r1, r2, r1, r1]);
        assert_eq!(learned.cross_frame(), &[r1, r2], "sorted, duplicates gone");
        assert!(!learned.is_empty(), "cross relations alone count as data");
        let _ = n;
    }

    #[test]
    fn incremental_conflict_clears_on_pop() {
        let n = exclusive_pair();
        let learned = learned_for(&n);
        let adj = adjacency_for(&n, &learned);
        let f1 = n.require("f1").unwrap();
        let f2 = n.require("f2").unwrap();
        let x_frame = vec![Logic3::X; n.num_nodes()];
        let mut bad = x_frame.clone();
        bad[f1.index()] = Logic3::One;
        bad[f2.index()] = Logic3::One;

        let mut inc = IncrementalLayer::new(&adj, LearningMode::KnownValue, 1, n.num_nodes());
        assert!(!inc.update_events(0, &x_frame, &binary_slots(&x_frame)));
        assert!(inc.update_events(1, &bad, &binary_slots(&bad)));
        assert!(inc.conflict());
        inc.pop_to(1);
        assert!(!inc.conflict(), "conflict belongs to the popped level");
    }
}
