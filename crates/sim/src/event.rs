//! Event-driven incremental multi-time-frame simulation.
//!
//! [`EventSim`] maintains the three-valued values of an iterative logic array
//! (`window` frames × all nodes) under incremental primary-input assignments.
//! Instead of re-simulating the whole window after every assignment, only the
//! affected cone is re-evaluated: a levelized event queue recomputes fanouts
//! of changed values in topological order and crosses a flip-flop boundary
//! into the next frame only when the flip-flop's data input actually changed.
//! Every value write is recorded on a trail, so a branch-and-bound search can
//! undo to any earlier [`EventSim::mark`] in time proportional to the number
//! of changes, mirroring the trail-based undo of the incremental implication
//! layer in `sla-atpg` (the two compose on the same decide/backtrack
//! protocol).
//!
//! The *base state* — the values before any assignment, with every primary
//! input and the power-up state `X` — is built by the same event loop. Under
//! all-`X` fanins every gate with fanins evaluates to `X`, so the only slots
//! that can be binary are those reachable from a constant gate or from the
//! fault site. Construction fills the window with `X`, seeds exactly those
//! sources and drains the level buckets: the cost is proportional to the
//! binary base slots, not to `window × nodes`.
//!
//! The machine optionally carries a single stuck-at [`Fault`] with the exact
//! semantics of the ATPG test generator's faulty machine: the faulted output
//! line is held at the stuck value in every frame, and an input-pin fault is
//! applied when evaluating the faulted gate. A good machine is simply an
//! `EventSim` without a fault.
//!
//! Along a decision path three-valued simulation is monotone — assignments
//! only refine `X` to a binary value — so the change list of an assignment is
//! exactly the set of values that *became binary*. That event stream is what
//! D-frontier maintenance and the incremental implication layer consume.

use crate::eval::{eval_gate3, eval_gate3_at};
use crate::fault::{Fault, FaultSite};
use crate::value::Logic3;
use crate::Result;
use sla_netlist::levelize::{levelize, Levelization};
use sla_netlist::{Netlist, NetlistCsr, NodeId, NodeKind};

/// Event-driven, trail-undoable simulation of `window` time frames.
#[derive(Debug, Clone)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    /// Raw arena view; the event loop indexes the CSR arrays directly. Its
    /// `level` slice doubles as the per-node logic level within a frame:
    /// frame inputs (primary inputs and sequential elements) are 0, a gate is
    /// one above its deepest fanin. Events are drained in `(frame, level)`
    /// order — same-level nodes are independent, so every node is recomputed
    /// after all of its same-frame fanins.
    csr: NetlistCsr<'a>,
    window: usize,
    num_nodes: usize,
    fault: Option<Fault>,
    /// Number of level buckets per frame (`max_level + 1`).
    levels_per_frame: usize,
    /// Flat `(frame * num_nodes + node)` values.
    values: Vec<Logic3>,
    /// Deduplication flags for the event queue, per slot.
    queued: Vec<bool>,
    /// Pending events, bucketed by `frame * levels_per_frame + level`. An
    /// event only ever schedules strictly later buckets (same-frame fanouts
    /// sit on higher levels, flip-flop crossings on the next frame's level
    /// 0), so one forward sweep drains everything — O(1) per event where a
    /// binary heap paid a logarithmic push/pop with branchy compares on this
    /// innermost search-loop path.
    buckets: Vec<Vec<u32>>,
    /// Number of events currently queued across all buckets, so a drain
    /// sweep stops as soon as the queue is empty instead of scanning the
    /// remaining (frame × level) buckets.
    pending: usize,
    /// Undo trail of `(slot, previous value)` pairs.
    trail: Vec<(u32, Logic3)>,
    /// Slots changed by the most recent [`EventSim::assign`] (after
    /// construction or [`EventSim::grow`]: the binary base slots).
    changed: Vec<u32>,
    /// The binary slots of the base state, ascending.
    base_binary: Vec<u32>,
    /// Slots the event loop has recomputed since construction.
    recomputed: u64,
}

impl<'a> EventSim<'a> {
    /// Builds a machine over `window` frames, levelizing the netlist.
    ///
    /// All primary inputs start unassigned (`X`) and the initial state is
    /// `X`; see [`EventSim::with_levels`] for how the base state is built.
    ///
    /// # Errors
    ///
    /// Returns a levelization error if the combinational logic is cyclic.
    pub fn new(netlist: &'a Netlist, window: usize, fault: Option<Fault>) -> Result<Self> {
        let levels = levelize(netlist)?;
        Ok(EventSim::with_levels(netlist, &levels, window, fault))
    }

    /// Builds a machine reusing a precomputed [`Levelization`] (the hot path
    /// for callers that open many windows over the same netlist).
    ///
    /// The base state comes from event propagation out of an all-`X` fill:
    /// the constant gates and the fault site (the stuck line, or the gate of
    /// an input-pin fault) are seeded in every frame and the level buckets
    /// are drained, so only slots reachable from those sources are ever
    /// recomputed. [`EventSim::changed`] then lists every binary base slot,
    /// ascending.
    pub fn with_levels(
        netlist: &'a Netlist,
        levels: &Levelization,
        window: usize,
        fault: Option<Fault>,
    ) -> Self {
        let num_nodes = netlist.num_nodes();
        let levels_per_frame = levels.max_level() as usize + 1;
        let mut sim = EventSim {
            netlist,
            csr: netlist.csr(),
            window,
            num_nodes,
            fault,
            levels_per_frame,
            values: vec![Logic3::X; window * num_nodes],
            queued: vec![false; window * num_nodes],
            buckets: vec![Vec::new(); window * levels_per_frame],
            pending: 0,
            trail: Vec::new(),
            changed: Vec::new(),
            base_binary: Vec::new(),
            recomputed: 0,
        };
        sim.settle_base(0);
        sim
    }

    /// Settles the base values of frames `from..window`, which must hold
    /// `X` while every earlier frame holds its base values.
    ///
    /// Seeds the constant gates and the fault site in each of those frames
    /// and, when earlier frames exist, the sequential elements of frame
    /// `from` (they sample the previous frame's next state); the drain
    /// reaches every other slot that becomes binary. Afterwards
    /// [`EventSim::changed`] is the ascending list of every binary base slot
    /// of the window, and the trail is empty again.
    fn settle_base(&mut self, from: usize) {
        let fault_node = self.fault.map(|f| f.site.node());
        for frame in from..self.window {
            for &c in self.netlist.constants() {
                self.enqueue(frame, c);
            }
            if let Some(site) = fault_node {
                self.enqueue(frame, site);
            }
        }
        if from > 0 && from < self.window {
            for s in self.netlist.sequential_elements() {
                self.enqueue(from, s);
            }
        }
        self.changed.clear();
        self.drain(from * self.levels_per_frame);
        self.trail.clear();
        // Drained in (frame, level) order; every new slot lies above every
        // old one, so sorting the new ones keeps the whole list ascending.
        self.changed.sort_unstable();
        self.base_binary.extend_from_slice(&self.changed);
        self.changed.clone_from(&self.base_binary);
    }

    /// Widens the window to `new_window` frames **in place**, reusing the
    /// already settled prefix: values propagate strictly frame-forward, so
    /// the base values of frames `0..window` are unchanged by widening. The
    /// appended frames start at `X` and settle by event propagation from the
    /// constant gates, the fault site and the first new frame's sequential
    /// elements (see [`EventSim::with_levels`]). The result is bit-identical
    /// to constructing a fresh machine at `new_window`.
    ///
    /// The machine must be at its base state: every assignment undone
    /// ([`EventSim::undo_to`] to mark 0). Afterwards [`EventSim::changed`]
    /// again lists every binary slot of the (new) whole window, ascending,
    /// exactly as after construction.
    ///
    /// # Panics
    ///
    /// Panics when assignments are still applied or the window would shrink.
    pub fn grow(&mut self, new_window: usize) {
        assert!(
            self.trail.is_empty(),
            "grow requires the base state — undo all assignments first"
        );
        assert!(new_window >= self.window, "the window can only grow");
        let old_window = self.window;
        self.window = new_window;
        self.values.resize(new_window * self.num_nodes, Logic3::X);
        self.queued.resize(new_window * self.num_nodes, false);
        self.buckets
            .resize(new_window * self.levels_per_frame, Vec::new());
        self.settle_base(old_window);
    }

    /// Recomputes the value of `node` in `frame` from its current fanin
    /// values, applying the fault semantics.
    fn compute(&self, frame: usize, id: NodeId) -> Logic3 {
        if let Some(f) = self.fault {
            if f.site == FaultSite::Output(id) {
                return Logic3::from_bool(f.stuck_at);
            }
        }
        let base = frame * self.num_nodes;
        // Hot path: read kind and fanins straight off the CSR arrays instead
        // of materializing a `Node` view per event.
        let fanins = self.csr.fanins(id);
        match self.csr.kind(id) {
            // Inputs hold their assigned value; they are never event targets.
            NodeKind::Input => self.values[base + id.index()],
            NodeKind::Seq(_) => {
                if frame == 0 {
                    Logic3::X // the power-up state is unknown
                } else {
                    self.values[(frame - 1) * self.num_nodes + fanins[0].index()]
                }
            }
            NodeKind::Gate(gate) => match self.fault {
                Some(Fault {
                    site: FaultSite::Input { gate: fg, pin },
                    stuck_at,
                }) if fg == id => eval_gate3(
                    gate,
                    fanins.iter().enumerate().map(|(p, d)| {
                        if p == pin {
                            Logic3::from_bool(stuck_at)
                        } else {
                            self.values[base + d.index()]
                        }
                    }),
                ),
                _ => eval_gate3_at(gate, fanins, &self.values[base..base + self.num_nodes]),
            },
        }
    }

    /// Assigns primary input `pi` in `frame` and propagates the change through
    /// the affected cone (and across flip-flops into later frames).
    /// [`EventSim::changed`] afterwards lists every slot that became binary.
    ///
    /// The slot must currently be unassigned (`X`); a flipped decision must
    /// first be retracted with [`EventSim::undo_to`].
    pub fn assign(&mut self, frame: usize, pi: NodeId, value: bool) {
        debug_assert!(self.netlist.node(pi).is_input(), "assignments target PIs");
        self.changed.clear();
        let slot = frame * self.num_nodes + pi.index();
        // A stuck fault on the input line shadows the assignment, exactly as
        // in the from-scratch reference (the override wins).
        let effective = match self.fault {
            Some(f) if f.site == FaultSite::Output(pi) => Logic3::from_bool(f.stuck_at),
            _ => Logic3::from_bool(value),
        };
        if self.values[slot] == effective {
            return;
        }
        debug_assert_eq!(self.values[slot], Logic3::X, "assignment over a binary PI");
        self.trail.push((slot as u32, self.values[slot]));
        self.values[slot] = effective;
        self.changed.push(slot as u32);
        self.schedule_fanouts(frame, pi);
        self.drain(frame * self.levels_per_frame);
    }

    fn schedule_fanouts(&mut self, frame: usize, id: NodeId) {
        let csr = self.csr;
        for &fo in csr.fanouts(id) {
            // A sequential fanout samples this value as its next state: the
            // event crosses the flip-flop boundary into the next frame.
            let target_frame = if csr.kind(fo).is_sequential() {
                frame + 1
            } else {
                frame
            };
            if target_frame < self.window {
                self.enqueue(target_frame, fo);
            }
        }
    }

    /// Queues `id` in `frame` for recomputation (once per drain).
    #[inline]
    fn enqueue(&mut self, frame: usize, id: NodeId) {
        let slot = frame * self.num_nodes + id.index();
        if !self.queued[slot] {
            self.queued[slot] = true;
            let bucket = frame * self.levels_per_frame + self.csr.level(id) as usize;
            self.buckets[bucket].push(id.0);
            self.pending += 1;
        }
    }

    /// Drains the event buckets in `(frame, level)` order, starting at
    /// `from_bucket` (no event can sit below the triggering assignment's
    /// frame). Each slot is recomputed at most once: a recompute at bucket
    /// `b` only ever schedules buckets strictly greater than `b`, so one
    /// forward sweep is complete.
    fn drain(&mut self, from_bucket: usize) {
        for bucket in from_bucket..self.buckets.len() {
            if self.pending == 0 {
                break;
            }
            if self.buckets[bucket].is_empty() {
                continue;
            }
            let frame = bucket / self.levels_per_frame;
            let base = frame * self.num_nodes;
            // A bucket never grows while it drains (all scheduled buckets
            // are strictly later), so the swap-out is safe and keeps the
            // allocation for reuse.
            let mut nodes = std::mem::take(&mut self.buckets[bucket]);
            self.pending -= nodes.len();
            for &nidx in &nodes {
                let id = NodeId(nidx);
                let slot = base + id.index();
                self.queued[slot] = false;
                self.recomputed += 1;
                let new = self.compute(frame, id);
                if new == self.values[slot] {
                    continue;
                }
                self.trail.push((slot as u32, self.values[slot]));
                self.values[slot] = new;
                self.changed.push(slot as u32);
                self.schedule_fanouts(frame, id);
            }
            nodes.clear();
            self.buckets[bucket] = nodes;
        }
    }

    /// Current trail position; pass to [`EventSim::undo_to`] to return here.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Unwinds every value change recorded after `mark` (newest first).
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (slot, prev) = self.trail.pop().expect("trail entry");
            self.values[slot as usize] = prev;
        }
    }

    /// Number of frames in the window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of nodes per frame.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The fault injected into this machine, if any.
    pub fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }

    /// Value of `node` in `frame`.
    #[inline]
    pub fn value(&self, frame: usize, node: NodeId) -> Logic3 {
        self.values[frame * self.num_nodes + node.index()]
    }

    /// All values of one frame, indexed by node id.
    pub fn frame(&self, frame: usize) -> &[Logic3] {
        &self.values[frame * self.num_nodes..(frame + 1) * self.num_nodes]
    }

    /// The whole window as one flat `(frame * num_nodes + node)` slice.
    pub fn values(&self) -> &[Logic3] {
        &self.values
    }

    /// Slots (`frame * num_nodes + node`) that became binary in the most
    /// recent [`EventSim::assign`] call — or, straight after construction or
    /// [`EventSim::grow`], every binary base slot in ascending order. Stale
    /// after [`EventSim::undo_to`].
    pub fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// Number of slot recomputations the event loop has performed since
    /// construction (base settling, growth and assignments; undo recomputes
    /// nothing). A pure function of the netlist, the fault and the call
    /// sequence — a work counter, not a timer.
    pub fn recomputed(&self) -> u64 {
        self.recomputed
    }

    /// The window as per-frame vectors (convenience for tests and the
    /// from-scratch reference comparisons).
    pub fn to_frames(&self) -> Vec<Vec<Logic3>> {
        (0..self.window).map(|t| self.frame(t).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_netlist::{GateType, NetlistBuilder};

    /// Sequential circuit: q captures NAND(a, b), o = NOT q.
    fn pipelined() -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        b.input("a");
        b.input("b");
        b.gate("g", GateType::Nand, &["a", "b"]).unwrap();
        b.dff("q", "g").unwrap();
        b.gate("o", GateType::Not, &["q"]).unwrap();
        b.output("o").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn assignments_propagate_across_frames() {
        let n = pipelined();
        let mut sim = EventSim::new(&n, 3, None).unwrap();
        let a = n.require("a").unwrap();
        let b = n.require("b").unwrap();
        let q = n.require("q").unwrap();
        let o = n.require("o").unwrap();
        assert_eq!(sim.value(1, q), Logic3::X);
        sim.assign(0, a, true);
        sim.assign(0, b, true);
        // g = NAND(1,1) = 0 in frame 0, captured by q in frame 1, o = 1.
        assert_eq!(sim.value(1, q), Logic3::Zero);
        assert_eq!(sim.value(1, o), Logic3::One);
        // Frame 2 q depends on frame-1 g which is still X.
        assert_eq!(sim.value(2, q), Logic3::X);
    }

    #[test]
    fn undo_restores_previous_values() {
        let n = pipelined();
        let mut sim = EventSim::new(&n, 2, None).unwrap();
        let a = n.require("a").unwrap();
        let b = n.require("b").unwrap();
        let q = n.require("q").unwrap();
        let mark = sim.mark();
        sim.assign(0, a, true);
        sim.assign(0, b, true);
        assert_eq!(sim.value(1, q), Logic3::Zero);
        sim.undo_to(mark);
        assert_eq!(sim.value(0, a), Logic3::X);
        assert_eq!(sim.value(1, q), Logic3::X);
        // Re-deciding after the undo works.
        sim.assign(0, a, false);
        assert_eq!(sim.value(1, q), Logic3::One, "NAND with a controlling 0");
    }

    #[test]
    fn changed_lists_newly_binary_slots() {
        let n = pipelined();
        let mut sim = EventSim::new(&n, 2, None).unwrap();
        let a = n.require("a").unwrap();
        sim.assign(0, a, false);
        let g = n.require("g").unwrap();
        let q = n.require("q").unwrap();
        let nn = n.num_nodes();
        let changed: Vec<usize> = sim.changed().iter().map(|&s| s as usize).collect();
        assert!(changed.contains(&a.index()));
        assert!(changed.contains(&g.index()), "NAND forced to 1");
        assert!(changed.contains(&(nn + q.index())), "captured next frame");
        for &slot in sim.changed() {
            assert!(sim.values()[slot as usize].is_binary());
        }
    }

    #[test]
    fn output_fault_holds_the_line_in_every_frame() {
        let n = pipelined();
        let g = n.require("g").unwrap();
        let q = n.require("q").unwrap();
        let fault = Fault::output(g, true);
        let mut sim = EventSim::new(&n, 2, Some(fault)).unwrap();
        let a = n.require("a").unwrap();
        let b = n.require("b").unwrap();
        sim.assign(0, a, true);
        sim.assign(0, b, true);
        // Good value would be 0; the stuck line stays 1, q captures 1.
        assert_eq!(sim.value(0, g), Logic3::One);
        assert_eq!(sim.value(1, q), Logic3::One);
    }

    #[test]
    fn input_pin_fault_applies_only_to_the_faulted_gate() {
        let mut b = NetlistBuilder::new("pinfault");
        b.input("a");
        b.gate("g", GateType::And, &["a", "a"]).unwrap();
        b.gate("h", GateType::Buf, &["a"]).unwrap();
        b.output("g").unwrap();
        b.output("h").unwrap();
        let n = b.build().unwrap();
        let g = n.require("g").unwrap();
        let mut sim = EventSim::new(&n, 1, Some(Fault::input(g, 0, false))).unwrap();
        let a = n.require("a").unwrap();
        sim.assign(0, a, true);
        // Pin 0 of g reads the stuck 0; the branch to h is healthy.
        assert_eq!(sim.value(0, g), Logic3::Zero);
        assert_eq!(sim.value(0, n.require("h").unwrap()), Logic3::One);
    }

    #[test]
    fn grow_matches_fresh_construction() {
        let n = pipelined();
        let levels = levelize(&n).unwrap();
        let g = n.require("g").unwrap();
        for fault in [None, Some(Fault::output(g, true))] {
            let mut grown = EventSim::with_levels(&n, &levels, 1, fault);
            // Decide, undo to base, then grow 1 -> 2 -> 4.
            let a = n.require("a").unwrap();
            let mark = grown.mark();
            grown.assign(0, a, true);
            grown.undo_to(mark);
            for w in [2usize, 4] {
                grown.grow(w);
                let fresh = EventSim::with_levels(&n, &levels, w, fault);
                assert_eq!(grown.values(), fresh.values(), "window {w}");
                assert_eq!(grown.changed(), fresh.changed(), "window {w}");
                assert_eq!(grown.window(), fresh.window());
            }
            // The grown machine keeps working incrementally.
            let b = n.require("b").unwrap();
            let q = n.require("q").unwrap();
            grown.assign(0, a, true);
            grown.assign(0, b, true);
            let mut fresh = EventSim::with_levels(&n, &levels, 4, fault);
            fresh.assign(0, a, true);
            fresh.assign(0, b, true);
            assert_eq!(grown.value(1, q), fresh.value(1, q));
            assert_eq!(grown.values(), fresh.values());
        }
    }

    #[test]
    #[should_panic(expected = "base state")]
    fn grow_rejects_applied_assignments() {
        let n = pipelined();
        let levels = levelize(&n).unwrap();
        let mut sim = EventSim::with_levels(&n, &levels, 1, None);
        sim.assign(0, n.require("a").unwrap(), true);
        sim.grow(2);
    }

    #[test]
    fn base_state_recomputes_only_what_its_sources_reach() {
        let n = pipelined();
        let sim = EventSim::new(&n, 4, None).unwrap();
        assert_eq!(sim.recomputed(), 0, "no constant and no fault: all X");
        assert!(sim.changed().is_empty());

        // g stuck-at-1 in both frames; q captures it into frame 1, o = NOT q.
        let g = n.require("g").unwrap();
        let q = n.require("q").unwrap();
        let o = n.require("o").unwrap();
        let sim = EventSim::new(&n, 2, Some(Fault::output(g, true))).unwrap();
        assert_eq!(sim.recomputed(), 4, "g twice, then q and o in frame 1");
        let nn = n.num_nodes();
        let slots = [g.index(), nn + g.index(), nn + q.index(), nn + o.index()];
        let expected: Vec<u32> = slots.iter().map(|&s| s as u32).collect();
        assert_eq!(sim.changed(), expected.as_slice());
        assert_eq!(sim.value(1, o), Logic3::Zero);
    }

    #[test]
    fn initial_binaries_cover_constants() {
        let mut b = NetlistBuilder::new("consts");
        b.input("a");
        b.gate("one", GateType::Const1, &[]).unwrap();
        b.gate("g", GateType::And, &["a", "one"]).unwrap();
        b.output("g").unwrap();
        let n = b.build().unwrap();
        let sim = EventSim::new(&n, 2, None).unwrap();
        let one = n.require("one").unwrap();
        assert_eq!(sim.value(0, one), Logic3::One);
        assert_eq!(sim.value(1, one), Logic3::One);
        let nn = n.num_nodes();
        assert!(sim.changed().contains(&(one.index() as u32)));
        assert!(sim.changed().contains(&((nn + one.index()) as u32)));
    }
}
